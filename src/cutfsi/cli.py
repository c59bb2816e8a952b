"""Command line interface: run, convergence, verify.

``run`` advances one simulation and writes a step log plus VTU snapshots,
``convergence`` performs a spatial or temporal refinement study, and
``verify`` executes the built-in stability and geometry checks.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from decimal import Context, Decimal
from pathlib import Path

from . import analysis, reporting
from .config import ConfigError, SimulationConfig, parse_config
from .discretization import Discretization
from .linalg import SingularMatrixError
from .stepper import TimeStepper

# Desk-scale guardrail: a finer mesh, a reference run that stores more
# state values, or a run of more steps than this needs an explicit override.
MIN_H = 0.0078125
MAX_STORED = 2 ** 27  # 1 GiB of float64
MAX_STEPS = 2 ** 16   # each step logs a row; about 20 min at n = 64 (~20 ms a step)


def _overrides(args) -> dict:
    overrides = {}
    for item in getattr(args, "set", None) or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        overrides[key.strip()] = value.strip()
    return overrides


def _load_config(args) -> SimulationConfig:
    return parse_config(getattr(args, "config", None), overrides=_overrides(args))


def _check_scale(cfg: SimulationConfig, allow_large: bool, stores_states: bool = False) -> None:
    """Refuse, unless ``allow_large``, h < MIN_H, more than MAX_STEPS steps
    and, for a run that keeps every state (a study's reference run), more
    than MAX_STORED values."""
    if allow_large:
        return
    if cfg.h < MIN_H:
        raise ConfigError(f"refusing n={cfg.n:g} (h={cfg.h:g} < {MIN_H:g}); "
                          "pass --allow-large to override")
    est_dofs = 2 * (2 * cfg.n + 1) ** 2 + (cfg.n + 1) ** 2 \
        + 4 * (cfg.m_s * cfg.n + 1) ** 2
    states = cfg.n_steps + 1
    values = states * est_dofs
    if stores_states and values > MAX_STORED:
        # 6 digits, as :g prints them, also beyond the float range, where
        # :g of the integer raises OverflowError
        raise ConfigError(
            f"refusing a reference run that stores {states:g} states of ~{est_dofs:g} dofs "
            f"({Decimal(values).normalize(Context(prec=6)):g} values, more than {MAX_STORED}); "
            "pass --allow-large to override")
    if cfg.n_steps > MAX_STEPS:
        raise ConfigError(f"refusing {cfg.T / cfg.k:g} time steps (T={cfg.T:g} over "
                          f"k={cfg.k:g}, more than {MAX_STEPS}); "
                          "pass --allow-large to override")


def _output_dir(args) -> Path:
    """The --output-dir, created if missing; one that cannot be is refused.
    The directories it creates, deepest first, go to ``args.created``."""
    outdir = Path(args.output_dir)
    try:  # exists() raises on a name too long or a directory not searchable
        missing = [path for path in (outdir, *outdir.parents) if not path.exists()]
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use --output-dir {outdir}: {exc.strerror or exc}") from exc
    args.created = missing
    return outdir


def cmd_run(args) -> int:
    if args.dump_every < 0:
        raise ConfigError(f"--dump-every must be >= 0, got {args.dump_every}")
    cfg = _load_config(args)
    _check_scale(cfg, args.allow_large)
    outdir = _output_dir(args)
    disc = Discretization(cfg)
    stepper = TimeStepper(disc)
    ana = analysis.Analyzer(disc, stepper.forms)
    records = []
    for state in stepper.run(stepper.initialize(), cfg.n_steps):
        records.append(replace(state, x=None, energy=ana.energy(state)))
        if args.dump_every and state.n % args.dump_every == 0:
            reporting.write_snapshot(outdir, disc, state, f"{state.n:05d}")
    reporting.write_step_log(outdir / "steps.csv", cfg, records)
    reporting.write_snapshot(outdir, disc, state, "final")
    e = records[-1].energy
    print(f"ran {cfg.n_steps} steps to T={cfg.T:g} on n={cfg.n} "
          f"(h={disc.h:g}, {disc.layout.total} dofs, "
          f"symmetric-mode LU with {stepper.fact.lu_nnz} nonzeros)")
    print(f"final solve residual {state.solve_residual:.3e}, "
          f"constraint residual {state.constraint_residual:.3e}")
    print(f"final energies: E_T^2={e['E_T2']:.6e}  E_g^2={e['E_g2']:.6e}  "
          f"|||.|||^2={e['triple2']:.6e}")
    print(f"wrote {outdir / 'steps.csv'} and VTU snapshots")
    return 0


def cmd_convergence(args) -> int:
    if args.levels < 1:
        raise ConfigError(f"--levels must be >= 1, got {args.levels}")
    cfg = _load_config(args)
    key, ratio, _ = analysis.STUDY_MODES[args.mode]
    start = getattr(cfg, key)
    # the levels come lazily, so that a refused reference or level ends them
    levels = (start * ratio ** i for i in range(args.levels))
    ref = start * ratio ** (args.levels - 1) * ratio if args.ref is None else args.ref
    cfg_r, cfgs = analysis.study_configs(args.mode, cfg, levels, ref)
    _check_scale(cfg_r, args.allow_large, stores_states=True)
    out = _output_dir(args) / f"convergence_{args.mode}_ms{cfg.m_s}.csv"
    report = analysis.run_study(args.mode, cfg_r, cfgs)
    print(reporting.format_convergence_table(report))
    reporting.write_convergence_csv(out, cfg, report)
    print(f"wrote {out}")
    return 0


def cmd_verify(args) -> int:
    overrides = _overrides(args)
    for key in analysis.VERIFY_FIELDS:
        if key in overrides:
            raise ConfigError(f"verify sets {', '.join(analysis.VERIFY_FIELDS)} itself; "
                              f"it does not take --set {key}")
    cfg = parse_config(args.config, overrides=overrides)
    failures = 0
    for label, ok, detail in analysis.verify_checks(cfg):
        print(f"[{'ok  ' if ok else 'FAIL'}] {label}: {detail}")
        failures += not ok
    print(f"{failures} failures" if failures else "all checks passed")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutfsi",
        description="Unfitted finite element solver for linear "
                    "fluid-structure interaction")
    sub = parser.add_subparsers(dest="command", required=True)

    def config(p):
        p.add_argument("--config", help="configuration file (key = value lines)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a configuration entry")

    def common(p):
        config(p)
        p.add_argument("--output-dir", default="output",
                       help="directory for CSV/VTU output")
        p.add_argument("--allow-large", action="store_true",
                       help="permit meshes, run lengths and stored reference runs beyond the "
                            "desk-scale guardrail")

    p_run = sub.add_parser("run", help="advance one simulation to T")
    common(p_run)
    p_run.add_argument("--dump-every", type=int, default=0, metavar="N",
                       help="write VTU snapshots every N steps")
    p_run.set_defaults(func=cmd_run)

    p_conv = sub.add_parser("convergence", help="refinement study")
    common(p_conv)
    p_conv.add_argument("--mode", choices=tuple(analysis.STUDY_MODES), required=True)
    p_conv.add_argument("--levels", type=int, default=4)
    p_conv.add_argument("--ref", type=float,
                        help="reference n (space; a multiple of the finest n) or k (time); "
                             "default: one refinement beyond the finest level")
    p_conv.set_defaults(func=cmd_convergence)

    p_ver = sub.add_parser("verify", help="stability and geometry checks on n = 8, 16, 32")
    config(p_ver)
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.created = []
    try:
        return args.func(args)
    except ConfigError as exc:
        status, message = 2, f"configuration error: {exc}"
    except SingularMatrixError as exc:
        status, message = 3, f"solver error: {exc}"
    print(message, file=sys.stderr)
    # a refused command leaves no directory it created, only what it wrote
    for path in args.created:
        try:
            path.rmdir()
        except OSError:
            break
    return status
