"""blobflow benchmark: end-to-end run metrics and a traced per-layer split.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S      # every workload

Each workload is a config handed to a fresh ``blobflow`` child process
(``perfbench/child.py``), one child at a time. With ``--trace 0`` children
are repeated while the next is expected to end within ``--seconds`` (at
least two) and every end-to-end metric is the median over them. With ``--trace 1`` one traced
child runs between two untraced ones and the per-layer metrics come from
its spans and computed counters. Every child's outputs are checked (see
``check_outputs`` and ``check_identity``); a child that fails a check
counts in ``failed``. The metric names, units and bounds are declared in
``BENCHMARK.json`` at the root.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The
full result, with quartiles, sample counts and machine facts, is also
written to ``.perfbench_runs/<workload>-seed<N>/result.json``.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_runs"

MIN_CHILDREN = 2
RUN_DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_THREADS = 1
# glibc malloc: blocks under 32 MiB come from the heap, trimmed only past 1 GiB free
MALLOC_VARS = {"MALLOC_MMAP_THRESHOLD_": "33554432", "MALLOC_TRIM_THRESHOLD_": "1073741824"}
OUTPUTS = ("snapshot_initial.csv", "diagnostics.csv", "snapshot_final.csv", "summary.json")
IDENTICAL_OUTPUTS = ("diagnostics.csv", "snapshot_final.csv")
EXPECTED_KEYS = ("F_eps", "M2", "w1_to_reference")
EXPECTED_RTOL = 1e-6

# RUN6 of the acceptance suite at its finest epsilon, cut to 20 steps.
FD_TAILS = """
[family]
kind = fast_diffusion
m = 0.5
[kernel]
kind = gaussian
[flow]
epsilon = 0.05
beta = 0.5
t_final = 0.02
dt = 0.001
[particles]
n = 512
seed = 0
[velocity]
kind = none
[initial]
kind = barenblatt
t0 = 0.5
[reference]
kind = self_similar
"""

# d = 2 heat kernel from a rejection-sampled cloud: one RK4 step, and the
# Sinkhorn W1 at both records (t = 0 and the end).
HEAT2D = """
[family]
kind = heat
dimension = 2
[kernel]
kind = gaussian
[flow]
epsilon = 0.2
beta = 0.5
t_final = 0.01
dt = 0.01
[particles]
n = 400
seed = 0
init = rejection
[initial]
kind = heat_kernel
t0 = 0.25
[reference]
kind = self_similar
resolution = 256
"""


@dataclass(frozen=True)
class Workload:
    """One config and subcommand. ``expected`` holds the final F_eps, M2 and
    w1_to_reference at seed 0, recorded from the code this benchmark was
    written against; the 1d workloads place particles on quantiles, which
    the seed does not move, so for them the values hold at every seed."""

    name: str
    command: str
    expected: tuple[float, float, float]
    config_file: Optional[str] = None  # bundled config, relative to the root
    config_text: Optional[str] = None
    seed_moves_inputs: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sample_gaussian",
            "sample",
            (-1.0779582581680276, 0.41104063899986754, 0.26347662394374105),
            config_file="configs/sample_gaussian.ini",
        ),
        Workload(
            "height_saturation",
            "run",
            (0.09471095421339609, 0.09811483715984409, 0.01680723485967505),
            config_file="configs/height_saturation.ini",
        ),
        Workload(
            "fd_tails",
            "run",
            (-1.4574785637360068, 2.030057763409789, 0.033255672924298325),
            config_text=FD_TAILS,
        ),
        Workload(
            "heat2d",
            "run",
            (-0.7831527483675855, 0.9980742094107974, 0.16370654555380215),
            config_text=HEAT2D,
            seed_moves_inputs=True,
        ),
    )
}

# spans whose self time is one stage of the solve, reported as <name>.s
SOLVE_LAYERS = (
    "step",
    "grid.build",
    "node_grad",
    "scatter",
    "prox",
    "gather",
    "drift",
    "diag.energy",
    "diag.w1",
    "diag.reference",
    "io.diagnostics",
)
OUTSIDE_SOLVE = ("setup.config", "setup.particles", "setup.reference", "io.snapshot")


def declared_metrics() -> tuple[dict, dict]:
    """(end_to_end, per_layer): name -> declaration, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m for m in spec["end_to_end"]},
        {m["name"]: m for m in spec["per_layer"]},
    )


# --- children -----------------------------------------------------------------


@dataclass
class Child:
    index: int
    traced: bool
    directory: Path
    run_s: float = math.nan
    cpu_s: float = math.nan
    peak_rss_mb: float = math.nan
    report: Optional[dict] = None
    summary: Optional[dict] = None
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def child_env() -> dict:
    """The children's environment, with the numeric thread pools and the
    allocator pinned.

    The solver is single-threaded numpy; one pool thread keeps a child off a
    second core that other processes on the machine may be using (measured
    no slower than two threads on a 2-core machine). With glibc's default
    malloc, the solver's N×G temporaries are mapped and unmapped on every
    call: 1.3M-2.2M page faults per 1d child, 30-40% of its time in the
    kernel, and that share varied by a third between identical runs.
    MALLOC_VARS keeps them in the heap (about 14k faults per child)."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(CHILD_THREADS)
    env.update(MALLOC_VARS)
    env.pop("BLOBFLOW_OUT", None)
    return env


def warm_up(timeout: float) -> None:
    """Import what a child imports, untimed, so the first timed child does
    not read the interpreter, numpy and scipy from a cold file cache."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "from blobflow import cli, dynamics, ensemble, reference"
    )
    subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        env=child_env(),
        stdout=subprocess.DEVNULL,
        timeout=timeout,
        check=True,
    )


def run_child(workload: Workload, config: Path, seed: int, child: Child, timeout: float) -> None:
    """Launch one child, wait for it, record wall, CPU and peak RSS from its
    rusage, then check its outputs."""
    child.directory.mkdir(parents=True)
    out = child.directory / "out"
    cmd = [sys.executable, str(BENCH / "child.py"), "--src", str(SRC)]
    cmd += ["--result", str(child.directory / "child.json")]
    cmd += ["--run-id", f"{workload.name}:{seed}:{child.index}"]
    cmd += ["--trace"] if child.traced else []
    cmd += ["--", workload.command, "--config", str(config), "--out", str(out), "--quiet"]
    with open(child.directory / "stdout.txt", "wb") as so, open(
        child.directory / "stderr.txt", "wb"
    ) as se:
        launched = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=so, stderr=se, env=child_env(), cwd=child.directory)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        ended = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    child.run_s = ended - launched
    child.cpu_s = usage.ru_utime + usage.ru_stime
    child.peak_rss_mb = usage.ru_maxrss / 1024.0
    if proc.returncode != 0:
        tail = (child.directory / "stderr.txt").read_text(errors="replace").strip()
        child.problems.append(f"exit code {proc.returncode}: {tail[-300:]}")
        return
    try:
        child.report = json.loads((child.directory / "child.json").read_text())
    except (OSError, ValueError) as exc:
        child.problems.append(f"no child report: {exc}")
        return
    child.report["launched"] = launched
    check_outputs(workload, seed, child, out)


def check_outputs(workload: Workload, seed: int, child: Child, out: Path) -> None:
    """All four outputs exist, every diagnostic is finite, and where the
    stored values apply the final F_eps, M2 and W1 match them to
    EXPECTED_RTOL."""
    missing = [name for name in OUTPUTS if not (out / name).is_file()]
    if missing:
        child.problems.append(f"missing outputs {missing}")
        return
    with open(out / "diagnostics.csv", newline="") as fh:
        cells = [cell for row in list(csv.reader(fh))[1:] for cell in row if cell]
    try:
        bad = [cell for cell in cells if not math.isfinite(float(cell))]
    except ValueError as exc:
        bad = [str(exc)]
    if bad or not cells:
        child.problems.append(f"diagnostics.csv: {len(bad)} bad cells {bad[:3]}")
    try:
        child.summary = json.loads((out / "summary.json").read_text())
        final = child.summary["final"]
    except (ValueError, KeyError) as exc:
        child.problems.append(f"summary.json: {exc!r}")
        return
    if seed == 0 or not workload.seed_moves_inputs:
        for key, want in zip(EXPECTED_KEYS, workload.expected):
            got = final.get(key)
            if got is None or not math.isclose(got, want, rel_tol=EXPECTED_RTOL):
                child.problems.append(f"final {key} = {got!r}, stored {want!r}")


def source_digest(config: Path) -> str:
    """sha256 over the package source and the config a run was given."""
    h = hashlib.sha256()
    files = sorted(p for p in SRC.rglob("*.py") if "__pycache__" not in p.parts)
    for path in files:
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    h.update(b"config\0" + config.read_bytes())
    return h.hexdigest()


def check_identity(
    workload: Workload, config: Path, children: list[Child], counters: Optional[dict]
) -> None:
    """Outputs must be byte-identical across every child of one workload,
    seed and source, in this run and in earlier runs in this checkout; the
    computed counters must repeat exactly as well."""
    history_path = WORK / "history.json"
    try:
        history = json.loads(history_path.read_text())
    except (OSError, ValueError):
        history = {}
    entry = history.setdefault(f"{workload.name}|{source_digest(config)}", {})
    for child in children:
        if child.summary is None:
            continue
        for name in IDENTICAL_OUTPUTS:
            digest = hashlib.sha256((child.directory / "out" / name).read_bytes()).hexdigest()
            if entry.setdefault(name, digest) != digest:
                child.problems.append(f"{name} differs from an earlier run")
    if counters is not None and entry.setdefault("counters", counters) != counters:
        traced = next(c for c in children if c.traced)
        traced.problems.append("computed counters differ from an earlier run")
    history_path.write_text(json.dumps(history, indent=1, sort_keys=True))


# --- metrics ------------------------------------------------------------------


def describe(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end_samples(child: Child) -> dict:
    r = child.report
    return {
        "run_s": child.run_s,
        "cpu_s": child.cpu_s,
        "setup_s": r["setup_end"] - r["launched"],
        "particle_steps_per_s": r["n_particles"] * r["steps"] / r["solve_s"],
        "peak_rss_mb": child.peak_rss_mb,
        "w1_final": child.summary["final"]["w1_to_reference"],
    }


def self_times(spans: list[dict]) -> list[float]:
    """Span duration minus the time its child spans cover (spans nest and
    one thread records them, so children never overlap)."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            covered[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, covered)]


def layer_name(spans: list[dict], index: int) -> str:
    """Span name, with reference builds split into set-up and per-record."""
    name = spans[index]["name"]
    if name != "reference":
        return name
    while index >= 0:
        if spans[index]["name"] == "solve":
            return "diag.reference"
        index = spans[index]["parent"]
    return "setup.reference"


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def per_layer_metrics(traced: Child, untraced_run_s: float) -> tuple[dict, dict]:
    """Per-layer metrics of the traced child, and its computed counters."""
    trace = traced.report["trace"]
    spans = trace["spans"]
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, own in enumerate(self_times(spans)):
        name = layer_name(spans, i)
        self_s[name] = self_s.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
    solve_s = sum(s["end"] - s["start"] for s in spans if s["name"] == "solve")
    step_ms = [1e3 * (s["end"] - s["start"]) for s in spans if s["name"] == "step"] or [0.0]
    counts = trace["counts"]
    nodes = trace["stage_nodes"]
    computed = {
        key: counts.get(key, 0)
        for key in (
            "scatter.pairs",
            "scatter.useful_pairs",
            "gather.pairs",
            "prox.lanes",
            "prox.zero_lanes",
        )
    }
    computed["grid.nodes"] = nodes
    traced_run_s = traced.run_s - trace["paused_s"]
    m = {f"{name}.s": self_s.get(name, 0.0) for name in SOLVE_LAYERS + OUTSIDE_SOLVE}
    m.update(
        {
            "scatter.calls": calls.get("scatter", 0),
            "scatter.pairs": computed["scatter.pairs"],
            "scatter.useful_pair_frac": computed["scatter.useful_pairs"]
            / max(computed["scatter.pairs"], 1),
            "gather.calls": calls.get("gather", 0),
            "gather.pairs": computed["gather.pairs"],
            "kernel.share": (m["scatter.s"] + m["gather.s"]) / solve_s,
            "prox.calls": calls.get("prox", 0),
            "prox.lanes": computed["prox.lanes"],
            "prox.zero_lane_frac": computed["prox.zero_lanes"] / max(computed["prox.lanes"], 1),
            "grid.builds": calls.get("grid.build", 0),
            "grid.nodes_max": max(nodes),
            "grid.nodes_mean": sum(nodes) / len(nodes),
            "step.calls": calls.get("step", 0),
            "step.p50_ms": nearest_rank(step_ms, 0.50),
            "step.p95_ms": nearest_rank(step_ms, 0.95),
            "diag.w1.calls": calls.get("diag.w1", 0),
            "io.bytes": sum(p.stat().st_size for p in (traced.directory / "out").iterdir()),
            "setup.s": sum(s["end"] - s["start"] for s in spans if s["name"] == "setup"),
            "solve.s": solve_s,
            "solve.other_s": self_s.get("solve", 0.0),
            "trace.overhead_frac": (traced_run_s - untraced_run_s) / untraced_run_s,
        }
    )
    stages = sum(m[f"{name}.s"] for name in SOLVE_LAYERS)
    if stages > solve_s:
        traced.problems.append(f"stage self times {stages} exceed solve.s {solve_s}")
    return m, computed


# --- one run --------------------------------------------------------------------


def write_config(workload: Workload, seed: int, run_dir: Path) -> Path:
    """The workload's config with [particles] seed set to the run's seed."""
    cp = configparser.ConfigParser(interpolation=None)
    if workload.config_file:
        cp.read_string((ROOT / workload.config_file).read_text())
    else:
        cp.read_string(workload.config_text)
    cp["particles"]["seed"] = str(seed)
    path = run_dir / "config.ini"
    with open(path, "w") as fh:
        cp.write(fh)
    return path


def machine_facts(children: list[Child], config: Path) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=10,
            )
            commit = git.stdout.strip() if git.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    report = next((c.report for c in children if c.report), {})
    env = child_env()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": report.get("numpy"),
        "scipy": report.get("scipy"),
        "platform": platform.platform(),
        "threads": {var: env[var] for var in THREAD_VARS},
        "allocator": {var: env[var] for var in MALLOC_VARS},
        "git_commit": commit,
        "source_sha256": source_digest(config),
    }


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    end_to_end, per_layer = declared_metrics()
    run_dir = WORK / f"{workload.name}-seed{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config = write_config(workload, seed, run_dir)
    warm_up(RUN_DEADLINE_S / 4)
    started = time.perf_counter()
    children: list[Child] = []

    def launch(traced: bool) -> None:
        child = Child(len(children), traced, run_dir / f"child{len(children)}")
        children.append(child)
        timeout = started + RUN_DEADLINE_S - time.perf_counter()
        run_child(workload, config, seed, child, timeout)

    if trace:
        for traced in (False, True, False):
            launch(traced)
    else:
        # launch another child only while it is expected to end within
        # --seconds, judged by the median child so far
        while len(children) < MIN_CHILDREN or (
            time.perf_counter()
            - started
            + statistics.median(c.run_s for c in children)
            <= seconds
        ):
            launch(False)

    samples = [end_to_end_samples(c) for c in children if c.ok and not c.traced]
    e2e = {name: describe([s[name] for s in samples]) for name in end_to_end} if samples else {}
    layers = computed = None
    traced = next((c for c in children if c.traced), None)
    if traced is not None and traced.ok and samples:
        layers, computed = per_layer_metrics(traced, e2e["run_s"]["median"])
    check_identity(workload, config, children, computed)

    if trace:
        values = {name: layers[name] for name in per_layer} if layers else {}
        units = {name: d["unit"] for name, d in per_layer.items()}
    else:
        values = {name: d["median"] for name, d in e2e.items()}
        units = {name: d["unit"] for name, d in end_to_end.items()}
    failed = sum(not c.ok for c in children)
    result = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "elapsed_s": time.perf_counter() - started,
        "end_to_end": e2e,
        "per_layer": layers,
        "computed_counters": computed,
        "children": [
            {"index": c.index, "traced": c.traced, "run_s": c.run_s, "problems": c.problems}
            for c in children
        ],
        "facts": machine_facts(children, config),
        "correct": failed == 0 and bool(values),
        "attempted": len(children),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    (run_dir / "result.json").write_text(json.dumps(result, indent=1))
    return result


def report(result: dict) -> None:
    end_to_end, per_layer = declared_metrics()
    print(
        f"== {result['workload']}  seed {result['seed']}  trace {int(result['trace'])}  "
        f"{result['attempted']} children, {result['failed']} failed, "
        f"{result['elapsed_s']:.1f} s"
    )
    for c in result["children"]:
        for problem in c["problems"]:
            print(f"  child {c['index']}: {problem}")
    for name, d in result["end_to_end"].items():
        decl = end_to_end[name]
        print(
            f"  {name:22s} {d['median']:<12.6g} {decl['unit']:4s} q1 {d['q1']:<12.6g} "
            f"q3 {d['q3']:<12.6g} n={d['n']}  ({decl['better']} is better)"
        )
    layers = result["per_layer"]
    if layers:
        solve = layers["solve.s"]
        print(f"  stage self times inside solve.s = {solve:.4f} s (remainder: solve.other_s)")
        for key in [f"{name}.s" for name in SOLVE_LAYERS] + ["solve.other_s"]:
            print(f"    {key:20s} {layers[key]:10.4f} s  {100 * layers[key] / solve:5.1f}%")
        counters = {k: v for k, v in result["computed_counters"].items() if k != "grid.nodes"}
        print(f"  computed counters: {json.dumps(counters)}")
        for name, value in layers.items():
            print(f"  {name:26s} {value:<14.6g} {per_layer[name]['unit']}")
    print("  facts " + json.dumps(result["facts"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="blobflow benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark unwinds through run_child, which stops its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    needed = [SRC / "blobflow" / "cli.py", ROOT / "BENCHMARK.json"]
    needed += [ROOT / w.config_file for w in WORKLOADS.values() if w.config_file]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a blobflow checkout, missing {missing}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        results.append(measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace)))
        report(results[-1])
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
