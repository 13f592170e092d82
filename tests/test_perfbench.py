"""The benchmark's traced child on a tiny run: its tracer wraps blobflow
functions by name and reads their arguments by name, so a rename in the
package shows here as a failed child or a missing span."""

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

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
