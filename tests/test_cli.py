"""Config parsing, the command-line entry point, and its file outputs."""

import functools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blobflow.cli import (
    CONFIG_KEYS,
    ConfigError,
    OUT_ENV_VAR,
    command_config,
    config_hash,
    main,
    parse_config,
    parse_config_text,
    serialize_config,
)
from blobflow.ensemble import load_snapshot

DIAG_HEADER = (
    "t,F_eps,entropy_moll,M2,diss_residual,min_cross_term,"
    "lipschitz_estimate,w1_to_reference,exchange_residual"
)


def base_config(**overrides) -> str:
    """Small heat run that finishes in well under a second."""
    values = {
        "family": "kind = heat\ndimension = 1",
        "kernel": "kind = gaussian",
        "flow": "epsilon = 0.2\nbeta = 0.5\nt_final = 0.02\ndt = 0.002",
        "particles": "n = 24\nseed = 1",
        "velocity": "kind = none",
        "initial": "kind = gaussian\nsigma = 1.0",
        "reference": "kind = gaussian\nsigma = 1.0",
    }
    values.update(overrides)
    return "\n".join(f"[{sec}]\n{body}\n" for sec, body in values.items())


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------------------
# parsing and serialization


def test_parse_serialize_round_trip_all_fields():
    text = "\n".join(
        [
            "[family]",
            "kind = porous_medium",
            "m = 2.0",
            "dimension = 1",
            "[kernel]",
            "kind = bump",
            "effective_r = 5.0",
            "order = 4",
            "truncation_radius_multiple = 8.0",
            "[flow]",
            "epsilon = 0.2, 0.1, 0.05",
            "beta = 0.4",
            "t_final = 0.25",
            "dt = 0.001",
            "scheme = euler",
            "record_every = 3",
            "[particles]",
            "n = 100",
            "seed = 7",
            "init = rejection",
            "[velocity]",
            "kind = quadratic",
            "[initial]",
            "kind = barenblatt",
            "t0 = 0.1",
            "sigma = 0.7",
            "center = 0.25",
            "half_width = 0.6",
            "[reference]",
            "kind = steady_state",
            "sigma = 1.1",
            "resolution = 2048",
            "[output]",
            "directory = results",
            "[grid]",
            "padding = 5.0",
            "spacing_fraction = 0.2",
            "node_budget = 100000",
        ]
    )
    cfg = parse_config_text(text)
    assert cfg.epsilons == (0.2, 0.1, 0.05)
    assert cfg.m == 2.0
    again = parse_config_text(serialize_config(cfg))
    assert again == cfg
    assert serialize_config(again) == serialize_config(cfg)


def test_round_trip_of_the_small_config():
    cfg = parse_config_text(base_config())
    assert parse_config_text(serialize_config(cfg)) == cfg


def test_auto_dt_round_trips():
    cfg = parse_config_text(base_config(flow="epsilon = 0.2\nt_final = 0.1"))
    assert cfg.dt is None
    assert "dt = auto" in serialize_config(cfg)
    assert parse_config_text(serialize_config(cfg)) == cfg


def test_config_hash_tracks_content():
    a = parse_config_text(base_config())
    b = parse_config_text(base_config())
    assert config_hash(a) == config_hash(b)
    c = parse_config_text(base_config(particles="n = 24\nseed = 2"))
    assert config_hash(c) != config_hash(a)


def test_unknown_sections_and_keys_are_all_reported():
    text = base_config() + "\n[extra]\nfoo = 1\n"
    with pytest.raises(ConfigError) as exc:
        parse_config_text(text)
    assert any("unknown section [extra]" in m for m in exc.value.messages)
    with pytest.raises(ConfigError) as exc:
        parse_config_text(base_config(kernel="kind = gaussian\nwidth = 3"))
    assert any("unknown key 'width'" in m for m in exc.value.messages)


def test_missing_required_fields():
    with pytest.raises(ConfigError) as exc:
        parse_config_text(base_config(flow="beta = 0.5\nt_final = 0.1"))
    assert any("epsilon is required" in m for m in exc.value.messages)
    with pytest.raises(ConfigError) as exc:
        parse_config_text(base_config(particles="seed = 0"))
    assert any("n is required" in m for m in exc.value.messages)


def test_m_required_iff_power_family():
    with pytest.raises(ConfigError) as exc:
        parse_config_text(base_config(family="kind = porous_medium"))
    assert any("m is required" in m for m in exc.value.messages)
    with pytest.raises(ConfigError) as exc:
        parse_config_text(base_config(family="kind = heat\nm = 2.0"))
    assert any("not a parameter" in m for m in exc.value.messages)


def test_cross_field_validation():
    with pytest.raises(ConfigError):
        parse_config_text(base_config(reference="kind = self_similar"))
    with pytest.raises(ConfigError):
        parse_config_text(base_config(reference="kind = steady_state"))
    with pytest.raises(ConfigError):
        parse_config_text(base_config(initial="kind = barenblatt"))
    # quantile placement needs a 1d target
    with pytest.raises(ConfigError) as exc:
        parse_config_text(base_config(family="kind = heat\ndimension = 2", reference="kind = none"))
    assert any(m.startswith("[particles] init = quantile") for m in exc.value.messages)
    # the W1 diagnostic exists in d = 1 and 2 only
    with pytest.raises(ConfigError) as exc:
        parse_config_text(
            base_config(
                family="kind = heat\ndimension = 3", particles="n = 24\ninit = rejection"
            )
        )
    assert any(m.startswith("[reference] kind = gaussian") for m in exc.value.messages)
    # a Gaussian cut at 2 eps loses 4.6e-2 of its mass; the default 8 eps, 6.1e-15 in d = 5
    with pytest.raises(ConfigError) as exc:
        parse_config_text(base_config(kernel="kind = gaussian\ntruncation_radius_multiple = 2.0"))
    assert any(m.startswith("[kernel] truncation_radius_multiple") for m in exc.value.messages)
    for d in range(2, 6):
        family = f"kind = heat\ndimension = {d}"
        parse_config_text(
            base_config(family=family, particles="n = 8\ninit = rejection", reference="kind = none")
        )


# ---------------------------------------------------------------------------
# main(): exit codes and messages


def test_config_errors_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, base_config() + "\n[extra]\nfoo = 1\n")
    assert main(["run", "--config", path, "--quiet"]) == 2
    assert "config error: unknown section [extra]" in capsys.readouterr().err


def test_lossy_gaussian_truncation_exits_2(tmp_path, capsys):
    text = base_config(kernel="kind = gaussian\ntruncation_radius_multiple = 2.0")
    assert main(["run", "--config", write_config(tmp_path, text), "--quiet"]) == 2
    assert "cuts 4.550e-02 of the gaussian's unit mass" in capsys.readouterr().err


def test_rejected_config_writes_a_summary_only_where_asked(tmp_path, capsys, monkeypatch):
    # a config rejected before any run, whether it fails to parse or breaks
    # the rules of its subcommand, its family or its delta schedule, has its
    # own [output] directory ignored, so only --out or the environment can
    # name one
    monkeypatch.chdir(tmp_path)
    cases = [
        ("d3", {"family": "kind = heat\ndimension = 3"}, "converge", "[particles] init = quantile"),
        ("pair", {"flow": "epsilon = 0.2, 0.1\nt_final = 0.02"}, "run", "run and sample"),
        ("exponent", {"family": "kind = porous_medium\nm = 0.5"}, "run", "[family] porous_medium"),
        ("beta", {"flow": "epsilon = 0.2\nbeta = 1.0\nt_final = 0.02"}, "converge", "[flow] beta"),
        ("r", {"kernel": "kind = gaussian\neffective_r = 1.5"}, "converge", "[kernel] effective_r"),
    ]
    for name, overrides, env_command, first in cases:
        path = write_config(tmp_path, base_config(**overrides), f"{name}.ini")
        monkeypatch.delenv(OUT_ENV_VAR, raising=False)
        before = set(os.listdir(tmp_path))
        assert main(["run", "--config", path, "--quiet"]) == 2
        assert set(os.listdir(tmp_path)) == before
        assert main(["run", "--config", path, "--out", f"{name}_flag", "--quiet"]) == 2
        error = json.loads((tmp_path / f"{name}_flag" / "summary.json").read_text())["error"]
        assert error.startswith(f"ConfigError: {first}")
        monkeypatch.setenv(OUT_ENV_VAR, f"{name}_env")
        assert main([env_command, "--config", path, "--quiet"]) == 2
        env_summary = tmp_path / f"{name}_env" / "summary.json"
        assert json.loads(env_summary.read_text())["error"] == error


def test_invalid_beta_cites_the_schedule_bound(tmp_path, capsys):
    path = write_config(
        tmp_path,
        base_config(flow="epsilon = 0.2\nbeta = 1.0\nt_final = 0.02\ndt = 0.002"),
    )
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out), "--quiet"]) == 2
    assert "(r - d)/(r - 1)" in capsys.readouterr().err
    assert "ConfigError" in json.loads((out / "summary.json").read_text())["error"]


def test_invalid_beta_in_two_dimensions(tmp_path, capsys):
    # with effective_r = 5 and d = 2 the admissible range tops out at 0.75
    text = base_config(
        family="kind = heat\ndimension = 2",
        kernel="kind = gaussian\neffective_r = 5.0",
        flow="epsilon = 0.2\nbeta = 0.8\nt_final = 0.01\ndt = 0.002",
        particles="n = 16\nseed = 1\ninit = rejection",
    )
    path = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "(r - d)/(r - 1)" in err and "0.75" in err
    assert "ConfigError" in json.loads((out / "summary.json").read_text())["error"]


def test_unservable_dimension_exits_2(tmp_path, capsys):
    text = base_config(family="kind = heat\ndimension = 3")
    path = write_config(tmp_path, text)
    assert main(["run", "--config", path, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "[particles] init = quantile" in err and "[reference] kind = gaussian" in err


def test_run_rejects_an_epsilon_list(tmp_path, capsys):
    path = write_config(
        tmp_path,
        base_config(flow="epsilon = 0.2, 0.1\nt_final = 0.02\ndt = 0.002"),
    )
    assert main(["run", "--config", path, "--quiet"]) == 2
    assert "single epsilon" in capsys.readouterr().err


def test_runtime_failure_exits_1_and_keeps_the_summary(tmp_path, capsys):
    text = base_config(
        flow="epsilon = 0.002\nt_final = 0.01\ndt = 0.002",
        grid="node_budget = 1000",
    )
    path = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out), "--quiet"]) == 1
    assert "runtime error: GridBudgetError" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert "GridBudgetError" in summary["error"]
    assert "8196 nodes (counts (8196,))" in summary["error"]


def test_setup_failure_exits_1_and_keeps_the_summary(tmp_path, capsys):
    # rejection sampling of a 5d heat kernel stalls before the first step
    text = base_config(
        family="kind = heat\ndimension = 5",
        flow="epsilon = 0.2\nbeta = 0.4\nt_final = 0.01\ndt = 0.01",
        particles="n = 16\ninit = rejection",
        initial="kind = heat_kernel\nt0 = 0.25",
        reference="kind = none",
    )
    path = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out), "--quiet"]) == 1
    assert "runtime error: RejectionStallError" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert "RejectionStallError" in summary["error"]


def test_unbuildable_reference_exits_1_and_keeps_the_summary(tmp_path, capsys):
    # exit 2 means nothing ran: a reference that fails once the run
    # directory exists is a runtime failure
    text = base_config(
        family="kind = fast_diffusion\nm = 0.55\ndimension = 2",
        flow="epsilon = 0.2\nbeta = 0.4\nt_final = 0.01\ndt = 0.01",
        particles="n = 16\ninit = rejection",
        velocity="kind = quadratic",
        reference="kind = steady_state\nresolution = 40000000",
    )
    path = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out), "--quiet"]) == 1
    assert "runtime error: ValueError: steady-state grid" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert "exceeds the node budget" in summary["error"]


def test_non_finite_velocity_exits_1_and_keeps_partial_outputs(tmp_path, capsys, monkeypatch):
    from blobflow.dynamics import VelocityConfig

    def evaluate(self, points):
        drift = np.zeros_like(points)
        drift[5] = np.nan
        return drift

    monkeypatch.setattr(VelocityConfig, "evaluate", evaluate)
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out), "--quiet"]) == 1
    assert "runtime error: FloatingPointError" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["error"].startswith("FloatingPointError")
    assert "particle indices [5]" in summary["error"]
    assert load_snapshot(out / "snapshot_initial.csv").n == 24
    assert not (out / "snapshot_final.csv").exists()
    header, rows = read_rows(out / "diagnostics.csv")
    assert header == DIAG_HEADER
    assert [float(row[0]) for row in rows] == [0.0]


def test_newton_non_convergence_exits_1_and_keeps_partial_outputs(tmp_path, capsys, monkeypatch):
    from blobflow import convex_energy

    one_step = functools.partial(convex_energy._newton_bisect, max_iter=1)
    monkeypatch.setattr(convex_energy, "_newton_bisect", one_step)
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out), "--quiet"]) == 1
    assert "runtime error: ConvergenceError" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["error"].startswith("ConvergenceError")
    assert load_snapshot(out / "snapshot_initial.csv").n == 24
    assert not (out / "snapshot_final.csv").exists()
    header, rows = read_rows(out / "diagnostics.csv")
    assert header == DIAG_HEADER and rows == []


# ---------------------------------------------------------------------------
# run outputs


@pytest.fixture(scope="module")
def run_outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("run")
    path = write_config(tmp, base_config())
    out = tmp / "out"
    code = main(["run", "--config", path, "--out", str(out), "--quiet"])
    return code, out, base_config()


def test_run_exits_0_and_writes_the_file_set(run_outputs):
    code, out, _ = run_outputs
    assert code == 0
    for name in (
        "snapshot_initial.csv",
        "snapshot_final.csv",
        "diagnostics.csv",
        "summary.json",
    ):
        assert (out / name).exists()


def test_diagnostics_header_and_row_count(run_outputs):
    _, out, _ = run_outputs
    header, rows = read_rows(out / "diagnostics.csv")
    assert header == DIAG_HEADER
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_records"] == len(rows)
    # T = 0.02 at dt = 0.002 recorded every step: initial + 10
    assert len(rows) == 11
    assert float(rows[-1][0]) == pytest.approx(0.02)


def test_summary_embeds_the_config_hash(run_outputs):
    _, out, text = run_outputs
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config_sha256"] == config_hash(parse_config_text(text))
    assert summary["config"]["family"]["kind"] == "heat"
    assert summary["final"]["t"] == pytest.approx(0.02)
    assert set(summary["outputs"]) == {
        "diagnostics.csv",
        "snapshot_initial.csv",
        "snapshot_final.csv",
        "summary.json",
    }


def test_snapshots_reload(run_outputs):
    _, out, _ = run_outputs
    e0 = load_snapshot(out / "snapshot_initial.csv")
    e1 = load_snapshot(out / "snapshot_final.csv")
    assert e0.n == e1.n == 24
    assert e0.time == 0.0
    assert e1.time == pytest.approx(0.02)


def test_reruns_are_byte_identical(tmp_path):
    path = write_config(tmp_path, base_config())
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", path, "--out", str(a), "--quiet"]) == 0
    assert main(["run", "--config", path, "--out", str(b), "--quiet"]) == 0
    for name in ("diagnostics.csv", "snapshot_initial.csv", "snapshot_final.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_output_directory_resolution(tmp_path, monkeypatch):
    path = write_config(tmp_path, base_config(output=f"directory = {tmp_path/'cfg'}"))
    env_dir = tmp_path / "env"
    monkeypatch.setenv(OUT_ENV_VAR, str(env_dir))
    assert main(["run", "--config", path, "--quiet"]) == 0
    assert (env_dir / "summary.json").exists()
    flag_dir = tmp_path / "flag"
    assert main(["run", "--config", path, "--out", str(flag_dir), "--quiet"]) == 0
    assert (flag_dir / "summary.json").exists()
    monkeypatch.delenv(OUT_ENV_VAR)
    assert main(["run", "--config", path, "--quiet"]) == 0
    assert (tmp_path / "cfg" / "summary.json").exists()


# ---------------------------------------------------------------------------
# converge


def converge_config(epsilons: str, **overrides) -> str:
    return base_config(
        flow=f"epsilon = {epsilons}\nbeta = 0.5\nt_final = 0.05\nrecord_every = 20",
        particles="n = 48\nseed = 0",
        initial="kind = heat_kernel\nt0 = 0.05",
        reference="kind = self_similar",
        **overrides,
    )


def test_converge_writes_the_table(tmp_path):
    path = write_config(tmp_path, converge_config("0.2, 0.1"))
    out = tmp_path / "conv"
    assert main(["converge", "--config", path, "--out", str(out), "--quiet"]) == 0
    header, rows = read_rows(out / "convergence.csv")
    assert header == (
        "epsilon,delta,w1_quarter,w1_half,w1_three_quarters,w1_final,runtime_s"
    )
    assert [float(r[0]) for r in rows] == [0.2, 0.1]
    assert (out / "eps_0.2" / "diagnostics.csv").exists()
    assert (out / "eps_0.1" / "diagnostics.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert isinstance(summary["strictly_decreasing"], bool)
    assert len(summary["final_w1"]) == 2


def test_converge_keeps_close_epsilons_apart(tmp_path):
    # both print as 0.2 under "%g"; each run needs a directory of its own
    path = write_config(tmp_path, converge_config("0.2, 0.19999999"))
    out = tmp_path / "conv"
    assert main(["converge", "--config", path, "--out", str(out), "--quiet"]) == 0
    runs = sorted(p for p in os.listdir(out) if p.startswith("eps_"))
    assert runs == ["eps_0.19999999", "eps_0.2"]
    for name in runs:
        summary = json.loads((out / name / "summary.json").read_text())
        assert summary["epsilon"] == float(name[len("eps_") :])


def test_converge_keeps_the_finished_rows_when_an_epsilon_fails(tmp_path, capsys):
    path = write_config(tmp_path, converge_config("0.2, 0.002", grid="node_budget = 1000"))
    out = tmp_path / "conv"
    assert main(["converge", "--config", path, "--out", str(out), "--quiet"]) == 1
    assert "runtime error: GridBudgetError" in capsys.readouterr().err
    header, rows = read_rows(out / "convergence.csv")
    assert header.startswith("epsilon,delta,") and [float(r[0]) for r in rows] == [0.2]
    summary = json.loads((out / "summary.json").read_text())
    assert [row["epsilon"] for row in summary["table"]] == [0.2]
    assert summary["error"].startswith("GridBudgetError")
    failed = json.loads((out / "eps_0.002" / "summary.json").read_text())
    assert failed["error"] == summary["error"]


def test_converge_single_epsilon_has_no_verdict(tmp_path, capsys):
    path = write_config(tmp_path, converge_config("0.2"))
    out = tmp_path / "conv1"
    assert main(["converge", "--config", path, "--out", str(out)]) == 0
    assert "no convergence verdict" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["strictly_decreasing"] is None


def test_converge_rejects_nondecreasing_lists(tmp_path, capsys):
    path = write_config(tmp_path, converge_config("0.1, 0.2"))
    assert main(["converge", "--config", path, "--quiet"]) == 2
    assert "strictly decreasing" in capsys.readouterr().err


def test_converge_requires_a_reference(tmp_path, capsys):
    text = base_config(
        flow="epsilon = 0.2, 0.1\nt_final = 0.02\ndt = 0.002",
        reference="kind = none",
    )
    path = write_config(tmp_path, text)
    assert main(["converge", "--config", path, "--quiet"]) == 2
    assert "reference" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sample


def test_sample_requires_a_confining_velocity(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    assert main(["sample", "--config", path, "--quiet"]) == 2
    assert "velocity" in capsys.readouterr().err


def test_sample_reports_every_broken_rule(tmp_path, capsys):
    # W1 to the steady state is measured in d = 1 and 2 only
    text = base_config(
        family="kind = heat\ndimension = 3",
        flow="epsilon = 0.2, 0.1\nt_final = 0.02",
        particles="n = 8\ninit = rejection",
        reference="kind = none",
    )
    assert main(["sample", "--config", write_config(tmp_path, text), "--quiet"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: run and sample take a single epsilon; got 2 "
        "(use the converge subcommand for a list)",
        "config error: sample requires [velocity] kind = quadratic",
        "config error: sample measures W1 in dimension 1 or 2 only (got 3)",
    ]


def test_sample_quantile_start_stays_near_stationary(tmp_path):
    # start at the steady profile's quantiles; the prox bias is kept below
    # the N = 16 discretization gap, so the W1 series stays within 2x
    text = base_config(
        flow="epsilon = 0.1\nbeta = 0.9\nt_final = 0.3\nrecord_every = 100",
        particles="n = 16\nseed = 0",
        velocity="kind = quadratic",
        initial="kind = gaussian\nsigma = 1.0",
        reference="kind = steady_state",
    )
    path = write_config(tmp_path, text)
    out = tmp_path / "sample"
    assert main(["sample", "--config", path, "--out", str(out), "--quiet"]) == 0
    header, rows = read_rows(out / "diagnostics.csv")
    col = header.split(",").index("w1_to_reference")
    w1 = [float(r[col]) for r in rows]
    assert w1 and max(w1) <= 2.0 * w1[0]


# ---------------------------------------------------------------------------
# the config table: error texts, canonical hashes, docs, import cost

ROOT = Path(__file__).resolve().parents[1]
FLOW = "epsilon = 0.2\nbeta = 0.5\nt_final = 0.02\ndt = 0.002"


@pytest.mark.parametrize(
    "overrides, first_message",
    [
        ({"initial": "sigma = abc"}, "[initial] sigma = 'abc' is not a number"),
        ({"particles": "n = 2.5"}, "[particles] n = '2.5' is not an integer"),
        ({"flow": "epsilon = 0.2\nt_final = x"}, "[flow] t_final = 'x' is not a number"),
        ({"flow": "epsilon = 0.2\nbeta = 0\nt_final = 0.02"}, "[flow] beta must be > 0.0, got 0.0"),
        ({"particles": "n = 24\nalpha = 0.0"}, "unknown key 'alpha' in section [particles]"),
        ({"flow": FLOW + "\nrecord_every = 0"}, "[flow] record_every must be >= 1, got 0"),
        ({"grid": "node_budget = 999"}, "[grid] node_budget must be >= 1000, got 999"),
        ({"flow": FLOW + "\nscheme = leapfrog"}, "[flow] scheme = 'leapfrog'; expected one of rk4, euler"),
        ({"grid": "spacing_fraction = 1.5"}, "[grid] spacing_fraction must lie in (0, 1]"),
        ({"flow": "epsilon = x\nt_final = 0.02"}, "[flow] epsilon = 'x' is not a number list"),
        ({"flow": "epsilon = ,\nt_final = 0.02"}, "[flow] epsilon list is empty"),
        ({"flow": "epsilon = -1, 0.1\nt_final = 0.02"}, "[flow] every epsilon must be positive"),
        ({"flow": "epsilon = 0.2\nt_final = 0.02\ndt = 0"}, "[flow] dt must be > 0.0, got 0.0"),
        ({"flow": "epsilon = 0.2\nt_final = 0.02\ndt = x"}, "[flow] dt = 'x' is not a number"),
        ({"DEFAULT": "sigma = 2.0"}, "unknown section [DEFAULT]"),
        ({"DEFAULT": ""}, "unknown section [DEFAULT]"),
        ({"flow": "epsilon = 0.2\nt_final = nan"}, "[flow] t_final = 'nan' is not finite"),
        ({"flow": "epsilon = 0.2\nt_final = inf"}, "[flow] t_final = 'inf' is not finite"),
        ({"flow": "epsilon = nan\nt_final = 0.02"}, "[flow] epsilon = 'nan' is not finite"),
        ({"flow": "epsilon = 0.2, inf\nt_final = 0.02"}, "[flow] epsilon = '0.2, inf' is not finite"),
        ({"flow": "epsilon = 0.2\nt_final = 0.02\ndt = -inf"}, "[flow] dt = '-inf' is not finite"),
        ({"initial": "sigma = inf"}, "[initial] sigma = 'inf' is not finite"),
        ({"initial": "center = -inf"}, "[initial] center = '-inf' is not finite"),
    ],
)
def test_first_error_message_for_a_bad_value(overrides, first_message):
    with pytest.raises(ConfigError) as exc:
        parse_config_text(base_config(**overrides))
    assert exc.value.messages[0] == first_message


@pytest.mark.parametrize(
    "name, sha256",
    [
        ("heat_convergence", "7dfa940f41f594206fea8f749ec4921256f954e8d077647344cb6e76da857d28"),
        ("height_saturation", "f48a6c5fed80b2e42ece04f35bbed7fa98b35c8e8681a557e4f3ab4f9ba1cf49"),
        ("pme_convergence", "e868029928c2053bda0def2b72a13a5c9d8ab248a201c6f2be3003f0a6ca9e9e"),
        ("sample_gaussian", "d0440f01a1ae1d2331b08dc2ab4305ca71591d844e71769b49373566db7893e0"),
    ],
)
def test_bundled_config_hashes_are_pinned(name, sha256):
    # every summary.json embeds this hash; a changed canonical text would
    # break the link from old outputs back to their configs
    cfg = parse_config(str(ROOT / "configs" / f"{name}.ini"))
    assert config_hash(cfg) == sha256
    # the subcommand its script runs accepts it before any run starts
    command_config("converge" if name.endswith("_convergence") else "sample", cfg)


def test_importing_the_cli_leaves_numpy_unloaded():
    # --threads sets the thread-pool variables, which numpy reads on import
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys, blobflow.cli; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


@pytest.mark.parametrize(
    "flag,expect", [([], "1"), (["--threads", "3"], "3"), (["--threads", "0"], "2")]
)
def test_threads_default_to_one(tmp_path, monkeypatch, flag, expect):
    # the pools are capped before the config is read, so a missing one will do
    pools = [f"{name}_NUM_THREADS" for name in ("OMP", "OPENBLAS", "MKL", "NUMEXPR")]
    for var in pools:
        monkeypatch.setenv(var, "2")
    assert main(["run", "--config", str(tmp_path / "missing.ini"), "--quiet"] + flag) == 2
    assert {os.environ[var] for var in pools} == {expect}


def test_two_dimensional_run_independent_of_thread_count(tmp_path):
    # a d = 2 Gaussian stage reduces per-axis kernel factors over blocks of
    # 64 particles (N = 256 makes four). A BLAS product of these factors
    # changes its summation order with the thread count in its edge tiles,
    # which hold the last nodes of each band. With one eps of padding, many
    # particles of a flat cloud reach the last grid nodes, and those near
    # x = 0 have fine enough ulps for a last-bit change to show
    path = write_config(
        tmp_path,
        base_config(
            family="kind = heat\ndimension = 2",
            flow="epsilon = 0.05\nbeta = 0.5\nt_final = 0.02\ndt = 0.01",
            particles="n = 256\nseed = 1\ninit = rejection",
            initial="kind = uniform\nhalf_width = 1.0\ncenter = -1.0",
            reference="kind = none",
            grid="padding = 1.0",
        ),
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        command = ["run", "--config", path, "--out", str(out), "--quiet", "--threads", threads]
        subprocess.run([sys.executable, "-m", "blobflow.cli"] + command, env=env, check=True)
        files = ("diagnostics.csv", "snapshot_final.csv")
        outputs.append([(out / name).read_bytes() for name in files])
    assert outputs[0] == outputs[1]
    assert load_snapshot(tmp_path / "threads1" / "snapshot_final.csv").time == pytest.approx(0.02)


def _modules_loaded_by(script: str) -> set:
    """The module names a fresh interpreter prints after running script."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script + "\nprint(' '.join(sorted(loaded)))"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return set(done.stdout.split())


def test_importing_the_package_loads_no_scipy():
    # every scipy import in the package is deferred to the call that needs it
    script = (
        "import sys\n"
        "from blobflow import cli, convex_energy, dynamics, ensemble, mollifier, reference\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']"
    )
    assert _modules_loaded_by(script) == set()
    # the e-density quadrature is numpy alone, on every family and domain edge
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from blobflow.convex_energy import EnergyFamily, h1_density_quadrature\n"
        "a = np.array([-1.0, 0.0, 0.5, 2.0])\n"
        "for fam in (EnergyFamily.heat(), EnergyFamily.porous_medium(2.0),\n"
        "            EnergyFamily.fast_diffusion(0.5), EnergyFamily.height_constraint()):\n"
        "    h1_density_quadrature(fam, a)\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']"
    )
    assert _modules_loaded_by(script) == set()


def test_runs_load_scipy_only_where_a_closed_form_needs_it(tmp_path):
    # kernel norms, Barenblatt constants and erf are numpy/math;
    # scipy.integrate costs about 0.3 s of import and scipy.special as much
    # again, which only the d = 1 Barenblatt CDF (betainc) still pays
    heat2d = write_config(
        tmp_path,
        base_config(
            family="kind = heat\ndimension = 2",
            flow="epsilon = 0.3\nbeta = 0.5\nt_final = 0.01\ndt = 0.01",
            particles="n = 64\nseed = 1\ninit = rejection",
            initial="kind = heat_kernel\nt0 = 0.25",
            reference="kind = self_similar\nresolution = 64",
        ),
        "heat2d.ini",
    )
    # a d = 1 Gaussian start and reference: both CDFs are erf
    heat1d = write_config(tmp_path, base_config(), "heat1d.ini")
    barenblatt = write_config(
        tmp_path,
        base_config(
            family="kind = porous_medium\nm = 2.0\ndimension = 1",
            particles="n = 32",
            initial="kind = barenblatt\nt0 = 0.5",
            reference="kind = self_similar",
        ),
        "barenblatt.ini",
    )
    run = (
        "import sys\nfrom blobflow import cli\n"
        "assert cli.main(['run', '--config', {cfg!r}, '--out', {out!r}, '--quiet']) == 0\n"
        "loaded = [m for m in sys.modules if m.startswith('scipy.')]"
    )
    loaded = _modules_loaded_by(run.format(cfg=heat2d, out=str(tmp_path / "a")))
    assert not {"scipy.integrate", "scipy.special"} & loaded
    loaded = _modules_loaded_by(run.format(cfg=heat1d, out=str(tmp_path / "c")))
    assert not {"scipy.integrate", "scipy.special"} & loaded
    loaded = _modules_loaded_by(run.format(cfg=barenblatt, out=str(tmp_path / "b")))
    assert "scipy.special" in loaded and "scipy.integrate" not in loaded

    # the solve itself imports nothing: a module loaded lazily inside it
    # (numpy.polynomial pulls in numpy.ma) would be timed as solve work
    solve = (
        "import sys\nfrom blobflow import cli, dynamics\n"
        f"cfg = cli.parse_config({heat2d!r})\n"
        "spec = cli.build_runspec(cfg, cfg.epsilons[0])\n"
        "before = set(sys.modules)\n"
        "dynamics.run(spec)\n"
        "loaded = set(sys.modules) - before"
    )
    assert _modules_loaded_by(solve) == set()


def test_readme_configuration_table_names_every_key():
    text = (ROOT / "README.md").read_text()
    table = text.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    documented = set()
    for line in table.splitlines():
        cells = line.split(" | ")
        if len(cells) != 2 or not cells[0].startswith("| `["):
            continue
        section = cells[0].strip("|` []")
        for item in re.sub(r"\([^)]*\)", "", cells[1]).split(","):
            documented.add((section, re.search(r"`(\w+)`", item).group(1)))
    assert documented == {(key.section, key.name) for key in CONFIG_KEYS}
