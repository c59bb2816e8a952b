"""Command line interface: run, convergence, verify.

``run`` advances one simulation and writes a step log plus VTU snapshots,
``convergence`` performs a spatial or temporal refinement study, and
``verify`` executes the built-in stability and geometry checks.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import analysis, reporting
from .config import ConfigError, SimulationConfig, format_config, parse_config
from .discretization import Discretization
from .linalg import SingularMatrixError
from .mesh import verify_path_assumption
from .stepper import StepRecord, TimeStepper

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
        raise ConfigError(f"refusing n={cfg.n} (h={cfg.h:g} < {MIN_H:g}); "
                          "pass --allow-large to override")
    est_dofs = 2 * (2 * cfg.n + 1) ** 2 + (cfg.n + 1) ** 2 \
        + 4 * (cfg.m_s * cfg.n + 1) ** 2
    states = cfg.n_steps + 1
    if stores_states and states * est_dofs > MAX_STORED:
        raise ConfigError(
            f"refusing a reference run that stores {states} states of ~{est_dofs} dofs "
            f"({states * est_dofs} values, more than {MAX_STORED}); "
            "pass --allow-large to override")
    if cfg.n_steps > MAX_STEPS:
        raise ConfigError(f"refusing {cfg.T / cfg.k:g} time steps (T={cfg.T:g} over "
                          f"k={cfg.k:g}, more than {MAX_STEPS}); "
                          "pass --allow-large to override")


def _output_dir(args) -> Path:
    """The --output-dir, created if missing; one that cannot be is refused."""
    outdir = Path(args.output_dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use --output-dir {outdir}: {exc.strerror or exc}") from exc
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
    state = stepper.initialize()
    records = []
    for _ in range(cfg.n_steps):
        state = stepper.step(state)
        records.append(StepRecord.of(state, ana.energy(state)))
        if args.dump_every and state.index % args.dump_every == 0:
            reporting.write_snapshot(outdir, disc, state, f"{state.index:05d}")
    reporting.write_step_log(outdir / "steps.csv", cfg, records)
    reporting.write_snapshot(outdir, disc, state, "final")
    e = records[-1].energy
    fact = stepper.fact
    lu_path = "symmetric-mode" if fact.symmetric else "COLAMD fallback"
    print(f"ran {cfg.n_steps} steps to T={cfg.T:g} on n={cfg.n} "
          f"(h={disc.h:g}, {disc.layout.total} dofs, "
          f"{lu_path} LU with {fact.lu_nnz} nonzeros)")
    print(f"final solve residual {state.solve_residual:.3e}, "
          f"constraint residual {state.constraint_residual:.3e}")
    print(f"final energies: E_T^2={e['E_T2']:.6e}  E_g^2={e['E_g2']:.6e}  "
          f"|||.|||^2={e['triple2']:.6e}")
    print(f"wrote {outdir / 'steps.csv'} and VTU snapshots")
    return 0


def cmd_convergence(args) -> int:
    if args.levels < 1:
        raise ConfigError(f"--levels must be >= 1, got {args.levels}")
    if args.mode == "space" and not args.ref.is_integer():
        raise ConfigError(f"--ref must be a whole number of cells n in space mode, "
                          f"got {args.ref:g}")
    cfg = _load_config(args)
    if cfg.peak_inflow == 0:
        raise ConfigError("peak_inflow = 0 drives no flow, so every error is 0 "
                          "and no order can be measured")
    if args.mode == "space":
        levels = [cfg.n * 2 ** i for i in range(args.levels)]
        ref = int(args.ref) if args.ref else 2 * levels[-1]
        study = analysis.spatial_study
    else:
        levels = [cfg.k / 2 ** i for i in range(args.levels)]
        ref = float(args.ref if args.ref else levels[-1] / 2)
        study = analysis.temporal_study
    # a refused study leaves no output directory behind
    cfg_r, _ = analysis.study_configs(args.mode, cfg, levels, ref)
    _check_scale(cfg_r, args.allow_large, stores_states=True)
    out = _output_dir(args) / f"convergence_{args.mode}_ms{cfg.m_s}.csv"
    report = study(cfg, levels, ref)
    print(reporting.format_convergence_table(report))
    reporting.write_convergence_csv(out, cfg, report)
    print(f"wrote {out}")
    return 0


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    overrides = _overrides(args)
    for key in ("n", "k"):  # verify sets these itself
        if key in overrides:
            raise ConfigError(f"verify checks its own meshes and time step "
                              f"(n = 8, 16, 32; k = 0.5); it does not take --set {key}")
    cfg = _load_config(args)
    failures = 0

    def check(label, ok, detail=""):
        nonlocal failures
        mark = "ok  " if ok else "FAIL"
        print(f"[{mark}] {label}" + (f": {detail}" if detail else ""))
        if not ok:
            failures += 1

    # geometry: cut quadrature reproduces the exact area and arc length
    exact_area = np.pi * cfg.radius_squared
    exact_len = 2.0 * np.pi * np.sqrt(cfg.radius_squared)
    discs = {n: Discretization(cfg.replace(n=n)) for n in (8, 16, 32)}
    for n in (8, 16, 32):
        disc = discs[n]
        _, w, _ = analysis.domain_points(disc, "s")
        area = float(np.sum(w))
        length = disc.iface_rules.total
        check(f"n={n} solid area", abs(area - exact_area) < 1e-8,
              f"error {abs(area - exact_area):.2e}")
        check(f"n={n} interface length", abs(length - exact_len) < 1e-10,
              f"error {abs(length - exact_len):.2e}")
        for side in ("f", "s"):
            label = f"n={n} ghost path assumption ({side})"
            try:
                plen, _ = verify_path_assumption(disc.topo, side)
            except RuntimeError as exc:
                check(label, False, str(exc))
            else:
                check(label, True, f"max path length {plen}")

    # ghost-extension estimate: ratios stay bounded under refinement
    for side, order in (("f", 2), ("f", 1), ("s", cfg.m_s)):
        for l in (0, 1):
            ratios = [analysis.ghost_extension_ratios(
                discs[n], side, order, l, cfg.w_max, seed=args.seed)
                for n in (8, 16, 32)]
            spread = max(ratios) / min(ratios)
            check(f"ghost extension side={side} order={order} l={l}",
                  spread <= 2.0,
                  "ratios " + ", ".join(f"{r:.3f}" for r in ratios))

    # necessity: without the jump terms no h-uniform constant exists
    ratios = [analysis.ghost_extension_ratios(
        discs[n], "f", 2, 1, cfg.w_max, gamma_on=False, sampler="cell",
        seed=args.seed) for n in (8, 16, 32)]
    check("ghost necessity (gamma=0, fluid, l=1)",
          max(ratios) / min(ratios) >= 5.0,
          "ratios " + ", ".join(f"{r:.1f}" for r in ratios))

    # energy decay from random data with zero inflow
    disc = Discretization(cfg.replace(n=8, k=0.5))
    for seed in range(args.seed, args.seed + 5):
        ok, hist, viol = analysis.verify_energy_decay(disc, seed=seed)
        check(f"energy decay seed={seed}", ok,
              f"Q drops {hist[0]:.3e} -> {hist[-1]:.3e}"
              + ("" if ok else f", violated at step {viol}"))

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
    p_conv.add_argument("--mode", choices=("space", "time"), required=True)
    p_conv.add_argument("--levels", type=int, default=4)
    p_conv.add_argument("--ref", type=float, default=0.0,
                        help="reference n (space; a multiple of the finest n) or k (time)")
    p_conv.set_defaults(func=cmd_convergence)

    p_ver = sub.add_parser("verify", help="stability and geometry checks on n = 8, 16, 32")
    config(p_ver)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SingularMatrixError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
