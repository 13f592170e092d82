"""Command-line front end: run / converge / sample.

Config files are flat INI; each key is one row of CONFIG_KEYS, unknown sections
or keys are hard errors, and parse -> serialize -> parse is the identity. Thread
caps are applied through environment variables before numpy is imported, so
every heavy import in this module is deferred into the command bodies.

Exit codes: 0 success, 1 runtime failure (partial outputs are kept),
2 invalid configuration (rejected before any run).
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, make_dataclass, replace
from typing import Optional

FAMILY_KINDS = ("heat", "porous_medium", "fast_diffusion", "height_constraint")
POWER_FAMILIES = ("porous_medium", "fast_diffusion")
KERNEL_KINDS = ("gaussian", "bump")
SCHEMES = ("rk4", "euler")
INIT_MODES = ("quantile", "rejection")
INITIAL_KINDS = ("heat_kernel", "barenblatt", "gaussian", "uniform")
REFERENCE_KINDS = ("none", "self_similar", "steady_state", "gaussian")
VELOCITY_KINDS = ("none", "quadratic")

OUT_ENV_VAR = "BLOBFLOW_OUT"

REQUIRED = object()  # default of a key that every config must set


def _number_list(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


def _number_or_auto(raw: str) -> Optional[float]:
    return None if raw == "auto" else float(raw)


@dataclass(frozen=True)
class Key:
    """One config key: section, name, SimConfig field, kind (float, int, str,
    choices, _number_list or _number_or_auto), default, bounds > gt, >= ge, <= le."""

    section: str
    name: str
    field: str
    kind: object
    default: object = None
    gt: Optional[float] = None
    ge: Optional[float] = None
    le: Optional[float] = None


CONFIG_KEYS = (
    Key("family", "kind", "family_kind", FAMILY_KINDS, REQUIRED),
    Key("family", "m", "m", float),
    Key("family", "dimension", "dimension", int, 1, ge=1),
    Key("kernel", "kind", "kernel_kind", KERNEL_KINDS, "gaussian"),
    Key("kernel", "effective_r", "effective_r", float, gt=0.0),
    Key("kernel", "order", "bump_order", int, 4, ge=3),
    Key("kernel", "truncation_radius_multiple", "truncation_radius_multiple", float, 8.0, gt=0.0),
    Key("flow", "epsilon", "epsilons", _number_list, REQUIRED, gt=0.0),
    Key("flow", "beta", "beta", float, 0.5, gt=0.0),
    Key("flow", "t_final", "t_final", float, REQUIRED, ge=0.0),
    Key("flow", "dt", "dt", _number_or_auto, gt=0.0),
    Key("flow", "scheme", "scheme", SCHEMES, "rk4"),
    Key("flow", "record_every", "record_every", int, 1, ge=1),
    Key("particles", "n", "n_particles", int, REQUIRED, ge=1),
    Key("particles", "seed", "seed", int, 0, ge=0),
    Key("particles", "init", "init_mode", INIT_MODES, "quantile"),
    Key("velocity", "kind", "velocity_kind", VELOCITY_KINDS, "none"),
    Key("initial", "kind", "initial_kind", INITIAL_KINDS, "gaussian"),
    Key("initial", "t0", "initial_t0", float, 0.05, gt=0.0),
    Key("initial", "sigma", "initial_sigma", float, 1.0, gt=0.0),
    Key("initial", "center", "initial_center", float, 0.0),
    Key("initial", "half_width", "initial_half_width", float, 0.5, gt=0.0),
    Key("reference", "kind", "reference_kind", REFERENCE_KINDS, "none"),
    Key("reference", "sigma", "reference_sigma", float, 1.0, gt=0.0),
    Key("reference", "resolution", "w1_resolution", int, 4096, ge=16),
    Key("output", "directory", "output_dir", str, "out"),
    Key("grid", "padding", "grid_padding", float, 6.0, gt=0.0),
    Key("grid", "spacing_fraction", "grid_spacing_fraction", float, 0.25, gt=0.0, le=1.0),
    Key("grid", "node_budget", "grid_node_budget", int, 20_000_000, ge=1000),
)


class ConfigError(Exception):
    """Invalid configuration; carries every message found in one pass."""

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


def _annotation(key: Key):
    kind = str if isinstance(key.kind, tuple) else key.kind
    kind = {_number_list: tuple[float, ...], _number_or_auto: float}.get(kind, kind)
    return Optional[kind] if key.default is None else kind


SimConfig = make_dataclass(
    "SimConfig", [(key.field, _annotation(key)) for key in CONFIG_KEYS], frozen=True
)
SimConfig.__module__ = __name__
SimConfig.__doc__ = "One experiment, fully determined: one field per CONFIG_KEYS row."


def _read(key: Key, raw: Optional[str], errors: list) -> object:
    """The value of one key from its raw text (None when unset or blank);
    appends a message to errors and returns None if the text is invalid."""
    where = f"[{key.section}] {key.name}"
    if raw is None:
        if key.default is REQUIRED:
            errors.append(f"{where} is required")
            return None
        return key.default
    if isinstance(key.kind, tuple):
        if raw in key.kind:
            return raw
        errors.append(f"{where} = {raw!r}; expected one of {', '.join(key.kind)}")
        return None
    try:
        value = key.kind(raw)
    except ValueError:
        noun = {int: "an integer", _number_list: "a number list"}.get(key.kind)
        errors.append(f"{where} = {raw!r} is not {noun or 'a number'}")
        return None
    values = value if isinstance(value, tuple) else (value,)
    if key.kind not in (int, str) and not all(v is None or math.isfinite(v) for v in values):
        errors.append(f"{where} = {raw!r} is not finite")
        return None
    if isinstance(value, tuple):
        if not value:
            errors.append(f"{where} list is empty")
        elif any(v <= key.gt for v in value):
            errors.append(f"[{key.section}] every {key.name} must be positive")
    elif key.gt is not None and value is not None and value <= key.gt:
        errors.append(f"{where} must be > {key.gt}, got {value}")
    elif key.ge is not None and value < key.ge:
        errors.append(f"{where} must be >= {key.ge}, got {value}")
    elif key.le is not None and value > key.le:
        errors.append(f"{where} must lie in ({key.gt:g}, {key.le:g}]")
    return value


def parse_config(path: str) -> SimConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError([f"cannot read config {path!r}: {exc}"]) from exc


def parse_config_text(text: str) -> SimConfig:
    # no header can name the default section "\n", so [DEFAULT] is an
    # ordinary (unknown) section and its keys are not copied into the others
    cp = configparser.ConfigParser(interpolation=None, default_section="\n")
    errors: list[str] = []
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"config syntax: {exc}"]) from exc

    known = {(key.section, key.name) for key in CONFIG_KEYS}
    for section in cp.sections():
        if section not in {s for s, _ in known}:
            errors.append(f"unknown section [{section}]")
            continue
        for name in cp[section]:
            if (section, name) not in known:
                errors.append(f"unknown key {name!r} in section [{section}]")
    if errors:
        raise ConfigError(errors)

    v = {}
    for key in CONFIG_KEYS:
        raw = cp.get(key.section, key.name, fallback="").strip() or None
        v[key.field] = _read(key, raw, errors)
        if key.field == "dimension":  # [family] is complete: report m with it
            kind = v["family_kind"]
            if kind in POWER_FAMILIES and v["m"] is None:
                errors.append(f"[family] m is required for kind = {kind}")
            if kind in ("heat", "height_constraint") and v["m"] is not None:
                errors.append(f"[family] m is not a parameter of kind = {kind}")

    reference, initial = v["reference_kind"], v["initial_kind"]
    if reference == "self_similar" and initial not in ("heat_kernel", "barenblatt"):
        errors.append(
            "[reference] kind = self_similar requires [initial] kind heat_kernel "
            "or barenblatt (the reference continues the initial profile in time)"
        )
    if reference == "steady_state" and v["velocity_kind"] == "none":
        errors.append("[reference] kind = steady_state requires a confining [velocity]")
    if initial == "barenblatt" and v["family_kind"] not in POWER_FAMILIES:
        errors.append(
            "[initial] kind = barenblatt requires a porous_medium or "
            "fast_diffusion family"
        )
    d = v["dimension"]
    if d is not None and d >= 2 and v["init_mode"] == "quantile":
        errors.append(
            f"[particles] init = quantile requires [family] dimension = 1 "
            f"(got {d}); use init = rejection"
        )
    if d is not None and d >= 3 and reference not in (None, "none"):
        errors.append(
            f"[reference] kind = {reference} requires [family] dimension 1 or 2 "
            f"(got {d}): W1 to a density is measured in d = 1 and 2 only"
        )
    cut = v["truncation_radius_multiple"]
    if v["kernel_kind"] == "gaussian" and d is not None and cut is not None:
        # the Gaussian cut on the cube max_a |x_a| <= R eps keeps the mass
        # erf(R / sqrt 2)^d and is not renormalized
        lost = 1.0 - math.erf(cut / math.sqrt(2.0)) ** d
        if lost > 1e-8:
            errors.append(
                f"[kernel] truncation_radius_multiple = {cut} cuts {lost:.3e} of the "
                f"gaussian's unit mass in dimension {d} (at most 1e-08)"
            )

    if errors:
        raise ConfigError(errors)
    return SimConfig(**v)


def _text(key: Key, value) -> Optional[str]:
    """Canonical text of one value; None leaves the key out."""
    if value is None:
        return "auto" if key.kind is _number_or_auto else None
    if key.kind is _number_list:
        return ", ".join(repr(float(e)) for e in value)
    return repr(float(value)) if key.kind in (float, _number_or_auto) else f"{value}"


def _config_echo(cfg: SimConfig) -> dict:
    """{section: {key: canonical text}}, in table order."""
    echo = {key.section: {} for key in CONFIG_KEYS}
    for key in CONFIG_KEYS:
        text = _text(key, getattr(cfg, key.field))
        if text is not None:
            echo[key.section][key.name] = text
    return echo


def serialize_config(cfg: SimConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) == cfg."""
    lines = []
    for section, items in _config_echo(cfg).items():
        lines += [f"[{section}]", *(f"{k} = {text}" for k, text in items.items()), ""]
    return "\n".join(lines)


def config_hash(cfg: SimConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# experiment assembly (heavy imports live here)


def _kernel(cfg: SimConfig, epsilon: float):
    from .mollifier import MollifierKernel

    if cfg.kernel_kind == "gaussian":
        return MollifierKernel.gaussian(
            epsilon,
            dimension=cfg.dimension,
            truncation_radius_multiple=cfg.truncation_radius_multiple,
            effective_r=cfg.effective_r,
        )
    return MollifierKernel.bump(
        epsilon,
        dimension=cfg.dimension,
        order=cfg.bump_order,
        effective_r=cfg.effective_r,
    )


def _initial_density(cfg: SimConfig):
    from .reference import (
        barenblatt_reference,
        gaussian_reference,
        heat_kernel_reference,
        uniform_reference,
    )

    d = cfg.dimension
    if cfg.initial_kind == "heat_kernel":
        return heat_kernel_reference(d, cfg.initial_t0)
    if cfg.initial_kind == "barenblatt":
        return barenblatt_reference(cfg.m, d, cfg.initial_t0)
    if cfg.initial_kind == "gaussian":
        return gaussian_reference(d, cfg.initial_sigma, cfg.initial_center)
    return uniform_reference(d, cfg.initial_half_width, cfg.initial_center)


def _reference(cfg: SimConfig, family):
    """Time-indexed comparison target, or None."""
    import numpy as np

    from .dynamics import VelocityConfig
    from .reference import (
        barenblatt_reference,
        gaussian_reference,
        heat_kernel_reference,
        steady_state,
    )

    d = cfg.dimension
    if cfg.reference_kind == "none":
        return None
    if cfg.reference_kind == "self_similar":
        t0 = cfg.initial_t0
        if cfg.family_kind == "heat":
            return lambda t: heat_kernel_reference(d, t0 + t)
        return lambda t: barenblatt_reference(cfg.m, d, t0 + t)
    if cfg.reference_kind == "gaussian":
        ref = gaussian_reference(d, cfg.reference_sigma)
        return lambda t: ref
    # validation admits steady_state only with [velocity] kind = quadratic
    box = (np.full(d, -8.0), np.full(d, 8.0))
    potential = VelocityConfig.quadratic().potential
    ref = steady_state(family, potential, box, resolution=cfg.w1_resolution).reference
    return lambda t: ref


def build_runspec(cfg: SimConfig, epsilon: float):
    """Translate a config that command_config accepted into a
    dynamics.RunSpec at the given epsilon."""
    from . import dynamics as dyn
    from .convex_energy import EnergyFamily, RegularizedEnergy
    from .ensemble import prepare_initial_particles
    from .reference import DeltaSchedule

    family = EnergyFamily(cfg.family_kind, cfg.m, cfg.dimension)
    kernel = _kernel(cfg, epsilon)
    schedule = DeltaSchedule(cfg.beta, kernel.effective_r, cfg.dimension)
    reg = RegularizedEnergy(family=family, delta=schedule.delta_of(epsilon))
    initial = prepare_initial_particles(
        _initial_density(cfg), cfg.n_particles, seed=cfg.seed, mode=cfg.init_mode
    )
    return dyn.RunSpec(
        reg=reg,
        kernel=kernel,
        velocity=(
            dyn.VelocityConfig.none()
            if cfg.velocity_kind == "none"
            else dyn.VelocityConfig.quadratic()
        ),
        initial=initial,
        t_final=cfg.t_final,
        dt=cfg.dt,
        scheme=cfg.scheme,
        record_every=cfg.record_every,
        reference=_reference(cfg, family),
        grid_padding=cfg.grid_padding,
        grid_spacing_fraction=cfg.grid_spacing_fraction,
        grid_node_budget=cfg.grid_node_budget,
        w1_resolution=cfg.w1_resolution,
    )


# ---------------------------------------------------------------------------
# command bodies


def command_config(command: str, cfg: SimConfig) -> SimConfig:
    """The config a subcommand runs, or one ConfigError with every rule of the
    subcommand it breaks. Every subcommand needs a family exponent in range
    and a beta under the schedule bound of the kernel's effective_r; run and
    sample take a single epsilon; converge takes a strictly decreasing list
    and a reference; sample needs a confining velocity and measures W1
    against its steady state."""
    from .convex_energy import EnergyFamily
    from .reference import DeltaSchedule

    eps, errors = cfg.epsilons, []
    try:
        EnergyFamily(cfg.family_kind, cfg.m, cfg.dimension)
    except ValueError as exc:
        errors.append(f"[family] {exc}")
    try:
        DeltaSchedule(cfg.beta, _kernel(cfg, eps[0]).effective_r, cfg.dimension)
    except ValueError as exc:
        # the schedule names the value it rejects: effective_r, checked first, or beta
        section = "[kernel]" if str(exc).startswith("effective_r") else "[flow]"
        errors.append(f"{section} {exc}")
    if command == "converge":
        if any(b >= a for a, b in zip(eps, eps[1:])):
            errors.append("converge requires a strictly decreasing epsilon list")
        if cfg.reference_kind == "none":
            errors.append("converge requires a [reference] selection")
    elif len(eps) != 1:
        errors.append(
            f"run and sample take a single epsilon; got {len(eps)} "
            "(use the converge subcommand for a list)"
        )
    if command == "sample":
        if cfg.velocity_kind == "none":
            errors.append("sample requires [velocity] kind = quadratic")
        if cfg.dimension >= 3:
            errors.append(f"sample measures W1 in dimension 1 or 2 only (got {cfg.dimension})")
        cfg = replace(cfg, reference_kind="steady_state")
    if errors:
        raise ConfigError(errors)
    return cfg


def _execute_run(cfg: SimConfig, epsilon: float, out_dir: str, quiet: bool):
    """One simulation with streamed diagnostics; returns (summary, trajectory).

    Any failure once out_dir exists, set-up included, writes summary.json
    with the error and re-raises.
    """
    from . import dynamics as dyn
    from .ensemble import save_snapshot

    os.makedirs(out_dir, exist_ok=True)
    summary = {
        "config_sha256": config_hash(cfg),
        "config": _config_echo(cfg),
        "epsilon": epsilon,
        "outputs": [],
    }
    started = time.perf_counter()
    try:
        spec = build_runspec(cfg, epsilon)
        summary["delta"] = spec.reg.delta
        save_snapshot(spec.initial, os.path.join(out_dir, "snapshot_initial.csv"))
        summary["outputs"] = ["diagnostics.csv", "snapshot_initial.csv"]
        started = time.perf_counter()  # wall_time_s times the solve, not the set-up
        with open(
            os.path.join(out_dir, "diagnostics.csv"), "w", encoding="utf-8", newline="\n"
        ) as diag:
            diag.write(dyn.DiagnosticsRecord.CSV_HEADER + "\n")
            diag.flush()

            def on_record(rec, ens):
                diag.write(rec.csv_row() + "\n")
                diag.flush()

            trajectory = dyn.run(spec, on_record=on_record)
    except Exception as exc:
        summary["error"] = f"{type(exc).__name__}: {exc}"
        summary["wall_time_s"] = time.perf_counter() - started
        _write_summary(out_dir, summary)
        raise
    wall = time.perf_counter() - started
    final = trajectory.records[-1]

    save_snapshot(trajectory.final, os.path.join(out_dir, "snapshot_final.csv"))
    summary["outputs"] += ["snapshot_final.csv", "summary.json"]
    summary.update(
        {
            "wall_time_s": wall,
            "dt": trajectory.dt,
            "c_eps": trajectory.c_eps,
            "n_records": len(trajectory.records),
            "final": dict(zip(final.CSV_HEADER.split(","), final.values())),
        }
    )
    _write_summary(out_dir, summary)
    w1_text = "" if final.w1_to_reference is None else f", W1 {final.w1_to_reference:.5f}"
    if not quiet:
        print(
            f"eps={epsilon:g} delta={summary['delta']:.5g}: {len(trajectory.records)} "
            f"records to t={final.t:g}, F {final.f_eps:.6f}{w1_text}, {wall:.1f}s "
            f"-> {out_dir}"
        )
    return summary, trajectory


def _write_summary(out_dir: str, summary: dict) -> None:
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_converge(cfg: SimConfig, out_dir: str, quiet: bool) -> int:
    """Repeat the run over the epsilon list and tabulate W1 errors at
    quarter-points of [0, T]. Each row of convergence.csv is written as its
    run ends; a failed run leaves the finished rows, and summary.json holds
    them with the error."""
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    summary = {"config_sha256": config_hash(cfg), "config": _config_echo(cfg), "table": rows}
    table_path = os.path.join(out_dir, "convergence.csv")
    try:
        with open(table_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("epsilon,delta,w1_quarter,w1_half,w1_three_quarters,w1_final,runtime_s\n")
            fh.flush()
            for e in cfg.epsilons:
                # repr, not a rounded format: distinct floats get distinct directories
                run, trajectory = _execute_run(cfg, e, os.path.join(out_dir, f"eps_{e!r}"), quiet)
                with_w1 = [r for r in trajectory.records if r.w1_to_reference is not None]
                w1 = [
                    min(with_w1, key=lambda r: abs(r.t - frac * cfg.t_final)).w1_to_reference
                    for frac in (0.25, 0.5, 0.75, 1.0)
                ]
                delta, runtime = run["delta"], run["wall_time_s"]
                rows.append({"epsilon": e, "delta": delta, "w1": w1, "runtime_s": runtime})
                cells = (e, delta, *w1, runtime)
                fh.write(",".join(repr(float(c)) for c in cells) + "\n")
                fh.flush()
    except Exception as exc:
        summary["error"] = f"{type(exc).__name__}: {exc}"
        _write_summary(out_dir, summary)
        raise

    finals = [row["w1"][-1] for row in rows]
    verdict = all(b < a for a, b in zip(finals, finals[1:])) if len(rows) >= 2 else None
    summary.update(final_w1=finals, strictly_decreasing=verdict)
    _write_summary(out_dir, summary)
    if not quiet and verdict is None:
        print("single epsilon: no convergence verdict")
    elif not quiet:
        print(
            f"final W1 over eps {list(cfg.epsilons)}: {[round(v, 6) for v in finals]} "
            f"({'strictly decreasing' if verdict else 'NOT strictly decreasing'})"
        )
    return 0


# ---------------------------------------------------------------------------
# entry point


def _apply_threads(n: int) -> None:
    """Cap numeric thread pools; must run before numpy is first imported."""
    if n <= 0:
        return
    for pool in ("OMP", "OPENBLAS", "MKL", "NUMEXPR"):
        os.environ[f"{pool}_NUM_THREADS"] = str(n)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blobflow",
        description="Deterministic particle flows for nonlinear diffusion",
    )
    parser.add_argument("command", choices=("run", "converge", "sample"))
    parser.add_argument("--config", required=True, help="path to an INI config")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="cap numeric thread pools (default 1; 0 = leave as-is)",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress text")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    _apply_threads(args.threads)
    out_dir = args.out or os.environ.get(OUT_ENV_VAR)

    try:
        try:
            cfg = command_config(args.command, parse_config(args.config))
        except ConfigError as exc:
            # a config rejected before any run writes a summary only where the caller points
            if out_dir:
                os.makedirs(out_dir, exist_ok=True)
                _write_summary(out_dir, {"error": f"{type(exc).__name__}: {exc}"})
            raise
        out_dir = out_dir or cfg.output_dir
        if args.command == "converge":
            return cmd_converge(cfg, out_dir, args.quiet)
        _execute_run(cfg, cfg.epsilons[0], out_dir, args.quiet)
        return 0
    except ConfigError as exc:
        for message in exc.messages:
            print(f"config error: {message}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure; partial outputs remain on disk
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
