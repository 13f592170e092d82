"""Golden trajectories: short runs of each family checked against frozen
outputs.

Each case is a `blobflow run` of an inline config (N <= 128, at most 25
steps, RK4 except in the euler case). Its diagnostics.csv and
snapshot_final.csv were frozen by write_golden() into
tests/data/golden/<case>/, and a rerun must match every column to within
1e-9 of that column's largest magnitude. Byte identity across versions is
not asked for: a refactor may reorder floating point work, but it must not
move a trajectory. The heat2d case's config also bounds what an
integrator state keeps in memory.
"""

import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from blobflow.cli import build_runspec, main, parse_config_text
from blobflow.dynamics import make_state

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
FILES = ("diagnostics.csv", "snapshot_final.csv")
RTOL = 1e-9

FREE = """
[kernel]
kind = gaussian
[flow]
epsilon = 0.2
beta = 0.5
t_final = {t_final}
dt = 0.002
[particles]
n = 128
seed = 0
[velocity]
kind = none
[initial]
kind = {initial}
t0 = {t0}
[reference]
kind = self_similar
"""

CONFINED = """
[kernel]
kind = gaussian
[flow]
epsilon = 0.1
beta = 0.9
t_final = 0.05
dt = 0.002
record_every = 5
[particles]
n = 128
seed = 0
[velocity]
kind = quadratic
[initial]
kind = gaussian
sigma = {sigma}
[reference]
kind = steady_state
resolution = 1024
"""

# d = 2 from a seeded rejection cloud: four RK4 steps on the tensor grid and
# the Sinkhorn W1 at three records
HEAT2D = """
[family]
kind = heat
dimension = 2
[kernel]
kind = gaussian
[flow]
epsilon = 0.2
beta = 0.5
t_final = 0.04
dt = 0.01
record_every = 2
[particles]
n = 128
seed = 0
init = rejection
[initial]
kind = heat_kernel
t0 = 0.25
[reference]
kind = self_similar
resolution = 256
"""

CASES = {
    "heat": "[family]\nkind = heat\n"
    + FREE.format(t_final=0.05, initial="heat_kernel", t0=0.05),
    "porous_medium": "[family]\nkind = porous_medium\nm = 2.0\n"
    + FREE.format(t_final=0.05, initial="barenblatt", t0=0.5),
    "fast_diffusion": "[family]\nkind = fast_diffusion\nm = 0.5\n"
    + FREE.format(t_final=0.05, initial="barenblatt", t0=0.5),
    "height_constraint": "[family]\nkind = height_constraint\n"
    + CONFINED.format(sigma=0.1),
    "confined_heat": "[family]\nkind = heat\n" + CONFINED.format(sigma=0.5),
    "heat2d": HEAT2D,
    # the porous_medium case on forward Euler, the one golden run of the
    # first-order step
    "euler": "[family]\nkind = porous_medium\nm = 2.0\n"
    + FREE.format(t_final=0.05, initial="barenblatt", t0=0.5).replace(
        "[flow]\n", "[flow]\nscheme = euler\n"
    ),
}


def run_case(name: str, out_dir: Path) -> None:
    """`blobflow run` of one case into out_dir."""
    out_dir.mkdir(parents=True, exist_ok=True)
    config = out_dir / "config.ini"
    config.write_text(CASES[name])
    assert main(["run", "--config", str(config), "--out", str(out_dir), "--quiet"]) == 0


def write_golden(root: Path = GOLDEN, names=tuple(CASES)) -> None:
    """Rerun the named cases (all by default) and keep their golden files
    under root/<case>/."""
    for name in names:
        scratch = root / name / "run"
        run_case(name, scratch)
        for filename in FILES:
            shutil.copyfile(scratch / filename, root / name / filename)
        shutil.rmtree(scratch)


def read_table(path: Path) -> tuple[list[str], np.ndarray]:
    """Column names and values; an empty cell (a quantity the run does not
    define) reads as NaN."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    rows = [[float(cell or "nan") for cell in line.split(",")] for line in lines[1:]]
    return lines[0].split(","), np.array(rows)


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_matches_its_golden_files(name, tmp_path):
    run_case(name, tmp_path)
    for filename in FILES:
        header, golden = read_table(GOLDEN / name / filename)
        new_header, new = read_table(tmp_path / filename)
        assert new_header == header, filename
        assert new.shape == golden.shape, filename
        assert np.array_equal(np.isnan(new), np.isnan(golden)), filename
        for col, column in enumerate(header):
            defined = ~np.isnan(golden[:, col])
            if not defined.any():
                continue
            bound = RTOL * np.max(np.abs(golden[defined, col]))
            gap = np.max(np.abs(new[defined, col] - golden[defined, col]), initial=0.0)
            assert gap <= bound, f"{name}/{filename} column {column}: {gap:.3e} > {bound:.3e}"


def test_a_d2_state_keeps_only_its_particle_and_node_arrays():
    # a SimState holds the cloud, grad p at it, and mu, j and q; the window
    # that scattered mu, on this grid about 1.35 times those arrays, is not
    # kept. The slack covers the grid's and the snapshot's small objects.
    slack = 32 * 1024
    cfg = parse_config_text(CASES["heat2d"])
    spec = build_runspec(cfg, cfg.epsilons[0])
    make_state(spec, spec.initial)  # fills the per-energy caches first
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        state = make_state(spec, spec.initial)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    f = state.fields
    arrays = state.ensemble.positions.nbytes + state.pressure_grad.nbytes
    arrays += f.mu.nbytes + f.j.nbytes + f.q.nbytes
    assert retained <= arrays + slack, f"{retained} bytes kept, arrays {arrays}"
