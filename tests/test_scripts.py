"""Smoke tests of the scripts/ wrappers: each one's run(config, out) on a
cut-down copy of its bundled config."""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# script name -> (config edits, a line its table must print)
CASES = {
    "heat_convergence": (
        {"epsilon": "0.2, 0.1", "n": "64", "t_final": "0.02"},
        "final W1 trend over eps:",
    ),
    "sample_gaussian": ({"n": "50", "t_final": "0.1"}, "W1 to steady state"),
    "height_saturation": ({"n": "50", "t_final": "0.1"}, "density peak:"),
}


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(CASES))
def test_script_prints_its_table(name, tmp_path, capsys):
    edits, header = CASES[name]
    text = (ROOT / "configs" / f"{name}.ini").read_text(encoding="utf-8")
    for key, value in edits.items():
        text, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        assert count == 1, key
    config = tmp_path / f"{name}.ini"
    config.write_text(text, encoding="utf-8")
    code = load_script(name).run(str(config), str(tmp_path / "out"))
    assert code == 0
    assert header in capsys.readouterr().out
