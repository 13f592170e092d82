import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.special import logsumexp

from blobflow import ensemble
from blobflow.ensemble import (
    ParticleEnsemble,
    ReferenceDensity,
    RejectionStallError,
    ABSORB_LOG,
    _distances,
    _entropic_cost,
    _grid_atoms_2d,
    _self_cost,
    load_snapshot,
    prepare_initial_particles,
    quantiles_from_cdf,
    save_snapshot,
    second_moment,
    w1_vs_density,
)
from blobflow.reference import gaussian_reference, uniform_reference


SRC = Path(__file__).resolve().parents[1] / "src"


def cloud(xs, time=0.0, seed=0):
    return ParticleEnsemble(positions=np.asarray(xs, dtype=float), time=time, seed=seed)


def test_ensemble_basic_properties():
    e = cloud(np.arange(6.0).reshape(3, 2), time=1.5, seed=9)
    assert e.n == 3 and e.dim == 2
    assert e.weight == pytest.approx(1.0 / 3.0)
    moved = e.advanced(e.positions + 1.0, 2.0)
    assert moved.seed == 9 and moved.time == 2.0
    assert second_moment(cloud([[3.0], [4.0]])) == pytest.approx(12.5)


def test_positions_are_read_only():
    e = cloud([[0.0], [1.0]])
    with pytest.raises(ValueError):
        e.positions[0, 0] = 5.0


def test_quantiles_match_normal_ppf():
    ref = gaussian_reference(1, 1.0)
    u = np.linspace(0.01, 0.99, 41)
    got = quantiles_from_cdf(ref.cdf, ref.box[0][0], ref.box[1][0], u)
    np.testing.assert_allclose(got, stats.norm.ppf(u), atol=1e-9)


def test_quantile_initialization_is_low_discrepancy():
    ref = gaussian_reference(1, 1.0)
    e = prepare_initial_particles(ref, 512, seed=0)
    # empirical cdf of the quantile cloud tracks the target cdf at 1/(2N)
    xs = np.sort(e.positions[:, 0])
    f_target = stats.norm.cdf(xs)
    f_emp = (np.arange(512) + 0.5) / 512
    assert np.max(np.abs(f_target - f_emp)) <= 1.5 / 512


def test_quantile_needs_one_dimension():
    box = (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    ref = ReferenceDensity(
                pdf=lambda p: np.full(p.shape[0], 0.25),
        box=box,
    )
    with pytest.raises(ValueError):
        prepare_initial_particles(ref, 16, mode="quantile")


def test_w1_vs_density_against_direct_cdf_integral():
    ref = gaussian_reference(1, 1.0)
    e = prepare_initial_particles(ref, 128, seed=1)
    ours = w1_vs_density(e, ref)
    xs = np.linspace(-8, 8, 200_001)
    f_ref = stats.norm.cdf(xs)
    f_emp = np.searchsorted(np.sort(e.positions[:, 0]), xs, side="right") / e.n
    oracle = np.trapezoid(np.abs(f_emp - f_ref), xs)
    assert ours == pytest.approx(oracle, rel=5e-3, abs=5e-5)


def test_w1_vs_density_shifted_cloud():
    ref = gaussian_reference(1, 1.0)
    e = prepare_initial_particles(ref, 256, seed=1)
    shifted = e.advanced(e.positions + 0.5, 0.0)
    val = w1_vs_density(shifted, ref)
    assert val == pytest.approx(0.5, abs=5e-3)


def test_w1_vs_density_2d_sinkhorn_sanity():
    # entropic smoothing makes this a soft lower bound; check ordering and scale
    rng = np.random.default_rng(4)
    box = (np.array([-4.0, -4.0]), np.array([4.0, 4.0]))
    ref = ReferenceDensity(
                pdf=lambda p: np.exp(-0.5 * (p**2).sum(axis=1)) / (2 * np.pi),
        box=box,
    )
    base = rng.normal(size=(256, 2))
    near = w1_vs_density(cloud(base), ref, resolution=1024)
    far = w1_vs_density(cloud(base + np.array([0.7, 0.0])), ref, resolution=1024)
    assert near < 0.2
    assert far > 3.0 * near
    assert 0.3 < far < 0.9


NORMAL2 = ReferenceDensity(
        pdf=lambda p: np.exp(-0.5 * (p**2).sum(axis=1)) / (2 * np.pi),
    box=(np.full(2, -4.0), np.full(2, 4.0)),
)


def log_domain_cost(x, wx, y, wy, eta, sweeps=500):
    """Entropic cost by plain log-domain Sinkhorn from zero potentials."""
    c = np.sqrt(((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2))
    f, g = np.zeros(len(x)), np.zeros(len(y))
    for _ in range(sweeps):
        f = -eta * logsumexp((g - c) / eta + np.log(wy), axis=1)
        g = -eta * logsumexp((f[:, None] - c) / eta + np.log(wx)[:, None], axis=0)
    return wx @ f + wy @ g


def log_domain_self_cost(x, w, eta):
    """Entropic cost of atoms to themselves by the symmetric log-domain update
    f <- (f + T(f)) / 2 from f = 0, run to its fixed point; returns 2 w.f."""
    c = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2))
    f = np.zeros(len(x))
    for _ in range(5000):
        new = 0.5 * (f - eta * logsumexp((f - c) / eta + np.log(w), axis=1))
        settled = np.abs(new - f).max() <= 4 * np.finfo(float).eps * max(1.0, np.abs(f).max())
        f = new
        if settled:
            break
    else:
        raise AssertionError("log-domain self-cost reference did not settle in 5000 sweeps")
    return 2.0 * (w @ f)


def log_domain_w1_2d(xa, ref, per_axis):
    xb, wb = _grid_atoms_2d(ref, per_axis)
    wa = np.full(len(xa), 1.0 / len(xa))
    eta = 0.01 * float(np.linalg.norm(ref.box[1] - ref.box[0]))
    ab = log_domain_cost(xa, wa, xb, wb, eta)
    aa = log_domain_self_cost(xa, wa, eta)
    bb = log_domain_self_cost(xb, wb, eta)
    return max(ab - 0.5 * (aa + bb), 0.0)


def self_sweeps_used(xa, ref, per_axis):
    """Sweeps that _self_cost spends on the aa and bb terms."""
    xb, wb = _grid_atoms_2d(ref, per_axis)
    wa = np.full(len(xa), 1.0 / len(xa))
    eta = 0.01 * float(np.linalg.norm(ref.box[1] - ref.box[0]))
    return [_self_cost(x, w, eta)[1] for x, w in ((xa, wa), (xb, wb))]


@pytest.mark.parametrize("case", ["gaussian", "shifted", "outlier", "wide"])
def test_sinkhorn_w1_2d_matches_log_domain_reference(case):
    xa = np.random.default_rng(7).normal(size=(64, 2))
    ref, per_axis = NORMAL2, 8
    if case == "shifted":
        xa += np.array([0.7, -0.3])
    if case == "outlier":
        # exp(-C / eta) underflows on this particle's whole row
        xa[0] = (90.0, 0.0)
        atoms, _ = _grid_atoms_2d(NORMAL2, 8)
        eta = 0.01 * float(np.linalg.norm(NORMAL2.box[1] - NORMAL2.box[0]))
        assert np.linalg.norm(atoms - xa[0], axis=1).min() / eta > 745.0
    if case == "wide":
        # like heat2d: a box of +-10 sigma and 16 x 16 atoms
        ref, per_axis = gaussian_reference(2, 1.0), 16
    ours = w1_vs_density(cloud(xa), ref, resolution=per_axis**2)
    assert np.isfinite(ours)
    assert ours == pytest.approx(log_domain_w1_2d(xa, ref, per_axis), rel=1e-12)
    # both self terms end by the stopping rule, far from the 500-sweep cap
    assert max(self_sweeps_used(xa, ref, per_axis)) < 100
    if case in ("gaussian", "wide"):
        # and so does the two-sided ab term, under the cap
        xb, wb = _grid_atoms_2d(ref, per_axis)
        wa = np.full(len(xa), 1.0 / len(xa))
        eta = 0.01 * float(np.linalg.norm(ref.box[1] - ref.box[0]))
        assert _entropic_cost(xa, wa, xb, wb, eta)[1] < 500


FAINT_BOX = (np.full(2, -22.0), np.full(2, 22.0))


def _faint_atoms():
    """A standard normal on +-22, on 16 x 16 atoms."""
    return _grid_atoms_2d(ReferenceDensity(pdf=NORMAL2.pdf, box=FAINT_BOX), 16)


@pytest.mark.parametrize("eta, absorbs", [(None, False), (0.1, True)])
def test_self_cost_on_faint_atoms(eta, absorbs):
    # a standard normal on +-22: the corner atoms weigh about 1e-185. At the
    # W1's eta (a hundredth of the box diagonal) the first sweep's scalings
    # reach about exp(23); at eta 0.1 they pass exp(ABSORB_LOG) and are absorbed
    xb, wb = _faint_atoms()
    assert wb.min() < 1e-180
    if eta is None:
        eta = 0.01 * float(np.linalg.norm(FAINT_BOX[1] - FAINT_BOX[0]))
    c = np.sqrt(((xb[:, None, :] - xb[None, :, :]) ** 2).sum(axis=2))
    first_log_u = -0.5 * np.log(np.exp(-c / eta) @ wb)
    assert (first_log_u.max() > ABSORB_LOG) == absorbs
    ours, used = _self_cost(xb, wb, eta)
    assert ours == pytest.approx(log_domain_self_cost(xb, wb, eta), rel=1e-12)
    assert used < 100


def test_self_cost_matches_two_sided_sinkhorn_run_long(monkeypatch):
    # on this cloud the two-sided update needs more than the 500-sweep cap
    x = np.random.default_rng(0).normal(size=(400, 2))
    w = np.full(400, 1.0 / 400)
    eta = 0.01 * float(np.linalg.norm(np.full(2, 20.0)))
    monkeypatch.setattr(ensemble, "MAX_SWEEPS", 20000)
    plain, plain_used = _entropic_cost(x, w, x, w, eta)
    ours, used = _self_cost(x, w, eta)
    assert 500 < plain_used < 20000
    assert used < 100
    assert ours == pytest.approx(plain, rel=1e-13)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_distances_add_squares_in_place_with_the_bits_of_a_sum(d):
    rng = np.random.default_rng(d)
    # rows are filled in blocks of 64: one partial block of 1, 37 or 63 rows,
    # one full block, a full one and one row, two full ones and two rows
    for rows in (1, 37, 63, 64, 65, 130):
        xa, xb = rng.normal(size=(rows, d)), rng.normal(size=(29, d))
        same = min(5, rows)
        xb[:same] = xa[:same]  # coincident points
        for x, y in ((xa, xb), (xa, xa)):
            old = np.sqrt(sum(np.subtract.outer(x[:, ax], y[:, ax]) ** 2 for ax in range(d)))
            new = _distances(x, y)
            assert new.shape == (len(x), len(y))
            assert np.array_equal(new, old)
            assert np.all(new[range(same), range(same)] == 0.0)
            out = np.full_like(old, np.nan)
            assert _distances(x, y, out=out) is out
            assert np.array_equal(out, old)


def _sinkhorn_case(case):
    """(function, arguments) of one Sinkhorn term with recorded bits."""
    eta = 0.01 * float(np.linalg.norm(NORMAL2.box[1] - NORMAL2.box[0]))
    xa = np.random.default_rng(130).normal(size=(130, 2))
    wa = np.full(130, 1.0 / 130)
    xb, wb = _grid_atoms_2d(NORMAL2, 8)
    if case == "cloud_to_atoms":
        return _entropic_cost, (xa, wa, xb, wb, eta)
    if case == "cloud":
        return _self_cost, (xa, wa, eta)
    if case == "atoms":
        return _self_cost, (xb, wb, eta)
    if case == "faint_atoms":
        return _self_cost, (*_faint_atoms(), 0.1)
    # the overflow pair of test_entropic_cost_absorbs_scalings_past_overflow,
    # which absorbs four times
    x = np.array([[0.0, 0.0], [1000.0, 0.0]])
    return _entropic_cost, (x, np.array([0.99, 0.01]), x, np.array([0.01, 0.99]), 1.0)


@pytest.mark.parametrize(
    "case, value, sweeps",
    [
        ("cloud_to_atoms", 0.7367119407231291, 383),
        ("cloud", 0.4851770647514495, 34),
        ("atoms", 0.32093234401633164, 6),
        ("faint_atoms", 0.13951877333333457, 46),
        ("overflow_pair", 980.0001010118189, 114),
    ],
)
def test_sinkhorn_terms_keep_their_recorded_bits(case, value, sweeps):
    # recorded from the code that held each term's cost matrix and Gibbs
    # kernel as two whole arrays; the 130-point cloud ends in a partial row
    # block, and the last two cases refill their one array on absorption
    fn, args = _sinkhorn_case(case)
    assert fn(*args) == (value, sweeps)


def test_entropic_cost_absorbs_scalings_past_overflow():
    # moving 0.98 of the mass over L = 1000 eta needs u v = exp(980), past
    # the largest double: only absorbing the scalings into f, g keeps it finite
    x = np.array([[0.0, 0.0], [1000.0, 0.0]])
    wa, wb = np.array([0.99, 0.01]), np.array([0.01, 0.99])
    ours, _ = _entropic_cost(x, wa, x, wb, 1.0)
    assert ours == pytest.approx(log_domain_cost(x, wa, x, wb, 1.0), rel=1e-12)
    assert ours == pytest.approx(980.0, rel=1e-6)


def test_w1_vs_density_2d_independent_of_thread_count():
    # the scaling sweeps reduce through BLAS gemv; all three problems here
    # are large enough for OpenBLAS to split them across threads. The
    # 150-point cloud's last row block of 64 is partial
    code = (
        "import numpy as np\n"
        "from blobflow.ensemble import ParticleEnsemble, ReferenceDensity, w1_vs_density\n"
        "box = (np.full(2, -4.0), np.full(2, 4.0))\n"
        "pdf = lambda p: np.exp(-0.5 * (p**2).sum(axis=1))\n"
        "ref = ReferenceDensity(pdf=pdf, box=box)\n"
        "for n in (128, 150):\n"
        "    xs = np.random.default_rng(3).normal(size=(n, 2))\n"
        "    print(repr(w1_vs_density(ParticleEnsemble(xs), ref, resolution=256)))\n"
    )
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    assert all(float(value) > 0.0 for value in outputs[0].split())


def test_w1_vs_density_2d_holds_one_n_by_n_array():
    # the cloud's self term is the largest: its distances and then its Gibbs
    # kernel share one 2048 x 2048 array, filled through one 64-row scratch
    n = 2048
    e = cloud(np.random.default_rng(1).normal(size=(n, 2)))
    ref = gaussian_reference(2, 1.0)
    tracemalloc.start()
    try:
        w1_vs_density(e, ref, resolution=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * n * n * 8


def test_w1_vs_density_2d_solves_the_reference_self_term_once(monkeypatch):
    calls = []
    self_cost = ensemble._self_cost

    def counted(x, w, eta):
        calls.append(len(x))
        return self_cost(x, w, eta)

    monkeypatch.setattr(ensemble, "_self_cost", counted)
    rng = np.random.default_rng(2)
    clouds = [cloud(rng.normal(size=(40, 2))) for _ in range(3)]
    ref = gaussian_reference(2, 1.0)
    first = [w1_vs_density(e, ref, resolution=256) for e in clouds]
    # bb once for the reference, then aa once per cloud
    assert calls == [256, 40, 40, 40]
    again = [w1_vs_density(e, ref, resolution=256) for e in clouds]
    fresh = [w1_vs_density(e, gaussian_reference(2, 1.0), resolution=256) for e in clouds]
    assert first == again == fresh
    # a second grid size is a second entry
    w1_vs_density(clouds[0], ref, resolution=1024)
    assert calls[-2:] == [1024, 40]


def test_rejection_sampling_tracks_target():
    ref = gaussian_reference(1, 1.0)
    e = prepare_initial_particles(ref, 4000, seed=3, mode="rejection")
    ks = stats.kstest(e.positions[:, 0], stats.norm.cdf)
    assert ks.statistic < 0.03


def test_rejection_determinism():
    ref = gaussian_reference(1, 1.0)
    a = prepare_initial_particles(ref, 64, seed=5, mode="rejection")
    b = prepare_initial_particles(ref, 64, seed=5, mode="rejection")
    c = prepare_initial_particles(ref, 64, seed=6, mode="rejection")
    np.testing.assert_array_equal(a.positions, b.positions)
    assert not np.array_equal(a.positions, c.positions)


def test_rejection_stalls_on_needle_density():
    # support so narrow that no probe point ever sees positive density
    box = (np.array([-1.0]), np.array([1.0]))
    needle = ReferenceDensity(
                pdf=lambda p: np.where(np.abs(p[:, 0] - 0.123456789) < 1e-9, 1e9, 0.0),
        box=box,
    )
    with pytest.raises(RejectionStallError):
        prepare_initial_particles(needle, 16, mode="rejection")


def test_numeric_cdf_monotone_and_normalized():
    ref = uniform_reference(1, 0.5)
    cdf = ref.numeric_cdf()
    xs = np.linspace(-1.0, 1.0, 101)
    vals = cdf(xs)
    assert np.all(np.diff(vals) >= -1e-12)
    assert vals[0] == pytest.approx(0.0, abs=1e-9)
    assert vals[-1] == pytest.approx(1.0, abs=1e-9)
    assert cdf(np.array([0.0]))[0] == pytest.approx(0.5, abs=1e-6)


def test_a_reference_without_a_cdf_carries_the_tabulated_one():
    # a d = 1 density given no CDF gets numeric_cdf(), tabulated once; the
    # quantile cloud and W1 through it keep the bits of the numeric_cdf()
    # each of them used to tabulate on its own
    gauss = gaussian_reference(1, 1.0)
    ref = ReferenceDensity(gauss.pdf, gauss.box)
    tabulated = ref.numeric_cdf()
    xs = np.linspace(-12.0, 12.0, 1001)
    np.testing.assert_array_equal(ref.cdf(xs), tabulated(xs))
    e = prepare_initial_particles(ref, 64)
    u = (np.arange(64) + 0.5) / 64
    np.testing.assert_array_equal(e.positions[:, 0], quantiles_from_cdf(tabulated, -10.0, 10.0, u))
    xs_sorted = np.sort(e.positions[:, 0])
    grid = np.linspace(-10.0 - 1e-9, 10.0 + 1e-9, 4096)
    f_emp = np.searchsorted(xs_sorted, grid, side="right") / e.n
    assert w1_vs_density(e, ref) == float(np.trapezoid(np.abs(f_emp - tabulated(grid)), grid))
    assert ReferenceDensity(gauss.pdf, (-np.ones(2), np.ones(2))).cdf is None


@pytest.mark.parametrize("d", [1, 2])
def test_a_reference_takes_its_dimension_from_its_box(d):
    box = (-np.ones(d), np.ones(d))
    ref = ReferenceDensity(lambda p: np.full(p.shape[0], 0.5**d), box)
    assert ref.dim == len(box[0]) == d
    message = r"box endpoints must be 1-d arrays of one shape \(d,\)"
    for lo, hi in ((-np.ones(d), np.ones(d + 1)), (-np.ones((d, 1)), np.ones((d, 1)))):
        with pytest.raises(ValueError, match=message):
            ReferenceDensity(ref.pdf, (lo, hi))


def test_snapshot_roundtrip_and_header(tmp_path):
    e = cloud(np.random.default_rng(1).normal(size=(17, 2)), time=0.375, seed=11)
    path = tmp_path / "snap.csv"
    save_snapshot(e, path)
    text = path.read_text().splitlines()
    assert text[0] == f"# blobflow snapshot N=17 d=2 time={0.375!r} seed=11"
    assert text[1] == "x1,x2"
    back = load_snapshot(path)
    np.testing.assert_array_equal(back.positions, e.positions)
    assert back.time == e.time and back.seed == e.seed


def test_snapshot_roundtrip_with_numpy_scalar_clock_and_seed(tmp_path):
    # dynamics.run takes its clock from RunSpec.t_final and dt, which may be
    # numpy scalars; the header must still hold plain numbers
    e = cloud(np.zeros((3, 1)), time=np.float64(0.25), seed=np.int64(5))
    path = tmp_path / "snap.csv"
    save_snapshot(e, path)
    assert path.read_text().splitlines()[0] == "# blobflow snapshot N=3 d=1 time=0.25 seed=5"
    back = load_snapshot(path)
    assert (back.time, back.seed) == (0.25, 5)
    assert type(e.time) is float and type(e.seed) is int


def test_snapshot_bytes_stable(tmp_path):
    e = cloud(np.random.default_rng(2).normal(size=(9, 1)), time=1 / 3, seed=4)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_snapshot(e, p1)
    save_snapshot(e, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_snapshot_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("not a snapshot\n1,2\n")
    with pytest.raises(ValueError):
        load_snapshot(path)
