"""Golden trajectories: short runs of each family checked against frozen
outputs.

Each case is a `blobflow run` of an inline config (N <= 128, at most 25
RK4 steps). Its diagnostics.csv and snapshot_final.csv were frozen by
write_golden() into tests/data/golden/<case>/, and a rerun must match
every column to within 1e-9 of that column's largest magnitude. Byte
identity across versions is not asked for: a refactor may reorder floating
point work, but it must not move a trajectory.
"""

import shutil
from pathlib import Path

import numpy as np
import pytest

from blobflow.cli import main

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
