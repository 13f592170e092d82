#!/usr/bin/env python3
"""Height-constrained transport: an oversaturated bump flattens onto the
unit patch. Prints the mollified density peak before and after."""

import argparse
import json
import os
import sys

from blobflow.cli import build_runspec, main as blobflow_main, parse_config
from blobflow.dynamics import make_state
from blobflow.ensemble import load_snapshot

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_CONFIG = os.path.join(HERE, os.pardir, "configs", "height_saturation.ini")


def density_peak(spec, ensemble) -> float:
    """The largest node value of mu on the grid a run's stage would use."""
    return float(make_state(spec, ensemble).fields.mu.max())


def run(config: str, out: str) -> int:
    code = blobflow_main(["sample", "--config", config, "--out", out, "--quiet"])
    if code != 0:
        return code
    cfg = parse_config(config)
    spec = build_runspec(cfg, cfg.epsilons[0])
    peak0 = density_peak(spec, load_snapshot(os.path.join(out, "snapshot_initial.csv")))
    peak1 = density_peak(spec, load_snapshot(os.path.join(out, "snapshot_final.csv")))
    with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    print(f"density peak: {peak0:.3f} -> {peak1:.3f} (cap 1)")
    print(f"final W1 to the unit patch: {summary['final']['w1_to_reference']:.4f}")
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=DEFAULT_CONFIG)
    ap.add_argument("--out", default="out/height_saturation")
    args = ap.parse_args()
    sys.exit(run(args.config, args.out))
