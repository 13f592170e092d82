"""One blobflow run inside a benchmark child process.

    python3 child.py --src SRC --result PATH [--trace] [--run-id ID] -- CLI_ARGS...

Imports blobflow from SRC, replaces module attributes with timing wrappers
(the package source is never edited), calls ``blobflow.cli.main(CLI_ARGS)``
and writes what it measured as JSON to PATH.

Untraced, only the two boundary calls the end-to-end metrics need are
wrapped: ``cli.build_runspec`` (end of set-up) and ``dynamics.run`` (the
solve). Traced, every layer boundary in ``install_tracing`` is wrapped; spans
(name, start, end, parent, run id) are kept in memory and written once at
exit. Work counters are computed from the arguments and return values of
the wrapped calls with the span clock paused, so their cost is in no span.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
import time


class Tracer:
    """Nested spans on a clock that stops while counters are computed."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.paused_s = 0.0
        self.counts: dict[str, float] = {}
        self.stage_nodes: list[int] = []

    def now(self) -> float:
        return time.perf_counter() - self.paused_s

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn, count=None):
        signature = inspect.signature(fn) if count is not None else None

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append([name, self.now(), None, parent])
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[index][2] = self.now()
            if count is not None:
                paused = time.perf_counter()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self, bound.arguments, result)
                self.paused_s += time.perf_counter() - paused
            return result

        return traced

    def dump(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "run_id": self.run_id}
                for n, s, e, p in self.spans
            ],
            "counts": self.counts,
            "stage_nodes": self.stage_nodes,
            "paused_s": self.paused_s,
        }


# --- computed work counters -------------------------------------------------


def _count_scatter(tracer, a, result):
    import numpy as np
    from scipy.spatial import cKDTree

    pos = np.asarray(getattr(a["particles"], "positions", a["particles"]), dtype=float)
    pts = np.asarray(a["points"], dtype=float)
    tracer.add("scatter.pairs", pos.shape[0] * pts.shape[0])
    useful = cKDTree(pts).count_neighbors(cKDTree(pos), a["k"].support_radius)
    tracer.add("scatter.useful_pairs", int(useful))


def _count_gather(tracer, a, result):
    tracer.add("gather.pairs", len(a["xs"]) * a["fields"].grid.node_count)


def _count_prox(tracer, a, result):
    import numpy as np

    mu = np.asarray(a["a"])
    tracer.add("prox.lanes", mu.size)
    tracer.add("prox.zero_lanes", int(np.count_nonzero(mu == 0.0)))


def _count_fields(tracer, a, result):
    tracer.stage_nodes.append(a["grid"].node_count)


def install_tracing(tracer: Tracer) -> None:
    """Replace every traced layer boundary by a span-recording wrapper.

    A function imported by name into another module is replaced there too,
    since callers look it up in their own module.
    """
    from blobflow import cli, dynamics, ensemble, mollifier, reference

    def patch(modules, attr, name, count=None):
        first = getattr(modules[0], attr)
        wrapped = tracer.wrap(name, first, count)
        for module in modules:
            if getattr(module, attr) is first:
                setattr(module, attr, wrapped)

    patch([cli], "parse_config", "setup.config")
    patch([cli], "build_runspec", "setup")
    patch([ensemble], "prepare_initial_particles", "setup.particles")
    for constructor in (
        "heat_kernel_reference",
        "barenblatt_reference",
        "gaussian_reference",
        "uniform_reference",
        "steady_state",
    ):
        patch([reference], constructor, "reference")
    patch([dynamics], "run", "solve")
    patch([dynamics], "step", "step")
    patch([dynamics], "build_grid", "grid.build")
    patch([dynamics], "compute_fields", "node_grad", _count_fields)
    patch([mollifier, dynamics], "mollified_density", "scatter", _count_scatter)
    patch([dynamics], "reg_derivative", "prox", _count_prox)
    patch([dynamics], "pressure_gradient_at", "gather", _count_gather)
    patch([dynamics.VelocityConfig], "evaluate", "drift")
    for diag in ("energy_F_eps", "entropy_mollified", "cross_term_min"):
        patch([dynamics], diag, "diag.energy")
    patch([ensemble, dynamics], "w1_vs_density", "diag.w1")
    patch([ensemble], "save_snapshot", "io.snapshot")

    # the per-record CSV writer is a closure handed to dynamics.run
    traced_run = dynamics.run

    def run(spec, on_record=None):
        if on_record is not None:
            on_record = tracer.wrap("io.diagnostics", on_record)
        return traced_run(spec, on_record=on_record)

    dynamics.run = run


def install_boundaries(timings: dict) -> None:
    """Wrap the end of set-up and the solve; nothing else is touched."""
    from blobflow import cli, dynamics

    build_runspec = cli.build_runspec
    run = dynamics.run

    def timed_build_runspec(cfg, epsilon):
        spec = build_runspec(cfg, epsilon)
        timings["setup_end"] = time.perf_counter()
        timings["n_particles"] = spec.initial.n
        return spec

    def timed_run(spec, on_record=None):
        started = time.perf_counter()
        trajectory = run(spec, on_record=on_record)
        timings["solve_s"] = time.perf_counter() - started
        steps = 0
        if spec.t_final > 0.0:
            steps = max(1, math.ceil(spec.t_final / trajectory.dt - 1e-9))
        timings["steps"] = steps
        return trajectory

    cli.build_runspec = timed_build_runspec
    dynamics.run = timed_run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--run-id", default="run")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    sys.path.insert(0, args.src)
    import numpy
    import scipy
    from blobflow import cli

    timings: dict = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    tracer = None
    if args.trace:
        tracer = Tracer(args.run_id)
        install_tracing(tracer)
        entry = tracer.wrap("cli", cli.main)
    else:
        install_boundaries(timings)
        entry = cli.main
    code = entry(cli_args)
    timings["exit_code"] = code
    if tracer is not None:
        timings["trace"] = tracer.dump()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(timings, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
