"""The benchmark against the package: its traced child on a tiny run, whose
tracer wraps blobflow functions by name and reads their arguments by name,
so a rename in the package shows here as a failed child or a missing span;
and its configs, which must stay valid as the config rules change."""

import importlib.util
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

from blobflow.cli import parse_config_text

ROOT = Path(__file__).resolve().parents[1]

TINY_HEAT = """
[family]
kind = heat
[flow]
epsilon = 0.2
t_final = 0.02
dt = 0.002
[particles]
n = 24
"""


def test_traced_child_records_every_layer_of_a_run(tmp_path):
    config = tmp_path / "heat.ini"
    config.write_text(TINY_HEAT, encoding="utf-8")
    result = tmp_path / "child.json"
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), "--src", str(ROOT / "src")]
    cmd += ["--result", str(result), "--trace", "--", "run", "--config", str(config)]
    cmd += ["--out", str(tmp_path / "out"), "--quiet"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(result.read_text(encoding="utf-8"))["trace"]
    spans = Counter(span["name"] for span in trace["spans"])
    for name in ("solve", "step", "node_grad", "prox", "gather", "diag.energy"):
        assert spans[name] >= 1, name
    # one grid size per compute_fields call, read from its grid argument
    assert len(trace["stage_nodes"]) == spans["node_grad"]


# the subcommand each bundled config's script runs it with
BUNDLED_COMMANDS = {
    "heat_convergence": "converge",
    "height_saturation": "sample",
    "pme_convergence": "converge",
    "sample_gaussian": "sample",
}


def test_benchmark_and_bundled_configs_pass_validation(monkeypatch):
    # a rule tightened in the CLI shows here, not as every benchmark child
    # failing its run
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)  # dataclasses look their module up
    spec.loader.exec_module(bench)
    runs = [
        (w.command, w.config_text or (ROOT / w.config_file).read_text(encoding="utf-8"))
        for w in bench.WORKLOADS.values()
    ]
    assert sorted(p.stem for p in (ROOT / "configs").glob("*.ini")) == sorted(BUNDLED_COMMANDS)
    for name, command in BUNDLED_COMMANDS.items():
        runs.append((command, (ROOT / "configs" / f"{name}.ini").read_text(encoding="utf-8")))
    for command, text in runs:
        parse_config_text(text, command)
