"""Run one benchmark workload in this process, check it, write a JSON result.

run.py starts this file in a fresh interpreter per workload, with the
library sources on PYTHONPATH and the BLAS thread count already set in the
environment:

    python3 perfbench/workloads.py --workload run-n64 --seed 1 --seconds 30 \
        --trace 0 --size full --out result.json

Every call into the library goes through a module attribute or a class, so
the wrappers installed by the tracer see it.  The end-to-end numbers come
from spans the benchmark opens itself ("unit", "setup", "step", ...) and
from a few wrapped constructors ("probe.*") that time set-up inside
``spatial_study``.  With ``--trace 1`` every layer listed in LAYER_SITES is
wrapped as well.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from cutfsi import (Analyzer, Discretization, SimulationConfig, StepRecord,
                    TimeStepper, analysis, assembly, discretization,
                    format_config, linalg, reporting, stepper)

from tracer import ROOT, Tracer

SIZES = {
    "full": {"run_n": 64, "ladder_levels": [8, 16, 32], "ladder_ref": 64,
             "sweep_meshes": [(16, 1), (16, 2), (32, 1), (32, 2)]},
    "toy": {"run_n": 8, "ladder_levels": [8], "ladder_ref": 16,
            "sweep_meshes": [(8, 1), (8, 2)]},
}

# Seconds one unit of work took, when this benchmark was added, on a
# 2-core x86 box.
# The number of units in a run is fixed from --seconds with these, so the
# work done is the same for every seed and every version of the library.
UNIT_COST = {"run-n64": 12.0, "ladder-space": 10.0, "sweep-cut": 4.0}

RUN_K, RUN_T = 1.0 / 16.0, 8.0           # 128 steps
LADDER_K, LADDER_T = 1.0, 8.0
# The circle stays inside the cavity and about 12 cells across at n = 16.
# Every cut position relative to the mesh occurs within this range, and the
# cost of a circle, which grows with its radius, varies little across it.
SWEEP_RADIUS_SQUARED = (0.55, 0.8)
DEFAULT = SimulationConfig()
BASE_LID_SPEED = DEFAULT.peak_inflow

# Exact counts of the default circle (radius_squared = 0.75).
EXPECTED_DOFS = {(64, 2): 58_564, (32, 2): 15_756}
EXPECTED_TOPOLOGY = {64: (220, 444, 436)}  # cut cells, ghost faces f, s

# Error norms of the ladder at lid speed BASE_LID_SPEED, recorded from the
# library when this benchmark was added.  The problem is linear with zero
# initial data, so the norms scale with the lid speed.  A different
# factorization changes them by round-off (~1e-12 relative); a wrong
# discretization by far more than LADDER_RTOL.
LADDER_RTOL = 1e-6
LADDER_NORMS = {
    (16, 8): {"vf_T": 0.002494315774624604, "vs_T": 0.0004252402331416419,
              "grad_u_T": 0.015138091258798775, "grad_vf_I": 0.7400419849044725,
              "h_grad_p_I": 0.002185742697895524},
    (64, 8): {"vf_T": 0.0028043795139302587, "vs_T": 0.0005118505848404686,
              "grad_u_T": 0.015640666744903567, "grad_vf_I": 0.5704798536042639,
              "h_grad_p_I": 0.0023877555501403466},
    (64, 16): {"vf_T": 0.0005239022122008786, "vs_T": 0.00011786545843765803,
               "grad_u_T": 0.0027818498027422107, "grad_vf_I": 0.30703713135998045,
               "h_grad_p_I": 0.0006468266033604843},
    (64, 32): {"vf_T": 7.087804486685336e-05, "vs_T": 8.119425781377202e-06,
               "grad_u_T": 0.0006091691491383165, "grad_vf_I": 0.1345872737927085,
               "h_grad_p_I": 0.0001453256911327165},
}

RESIDUAL_TOL = 1e-10        # monolithic solve residual per step
DISPLACEMENT_TOL = 1e-9     # |u - u_old - k v_s| per step
AREA_TOL, ARC_TOL = 1e-8, 1e-10
MASS_RTOL = 1e-10           # assembled mass matrices sum to the areas

# (owner, attribute, span) of every layer the traced run wraps, per
# workload.  The owner is where the caller looks the name up.
_COMMON_SITES = [
    (discretization, "build_cut_topology", "mesh.build_cut_topology"),
    (discretization, "cut_cell_rule", "quadrature.cut_cell_rule"),
    (discretization, "interface_rule", "quadrature.interface_rule"),
    (discretization, "build_dof_map", "fem.build_dof_map"),
    (Discretization, "__init__", "discretization.init"),
    (assembly, "assemble_forms", "assembly.assemble_forms"),
    (assembly, "raw_jump_matrices", "assembly.raw_jump_matrices"),
]
_SOLVER_SITES = [
    (stepper, "system_matrices", "assembly.system_matrices"),
    (TimeStepper, "__init__", "stepper.init"),
    (TimeStepper, "step", "stepper.step"),
    (linalg, "factorize", "linalg.factorize"),
    (linalg.Factorization, "solve", "linalg.solve"),
]
LAYER_SITES = {
    "run-n64": _COMMON_SITES + _SOLVER_SITES + [
        (Analyzer, "energy", "analysis.energy"),
        (reporting, "write_step_log", "reporting.write_step_log"),
        (reporting, "write_snapshot", "reporting.write_snapshot"),
    ],
    "ladder-space": _COMMON_SITES + _SOLVER_SITES + [
        (analysis, "error_vs_reference", "analysis.error_vs_reference"),
    ],
    "sweep-cut": _COMMON_SITES + [
        (analysis, "raw_jump_matrices", "assembly.raw_jump_matrices"),
        (analysis, "ghost_extension_ratios", "analysis.ghost_extension_ratios"),
    ],
}


def rss_mb() -> float:
    """Resident set size of this process now."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


class Checks:
    """Correctness checks made inside the timed run."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def __call__(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(f"{label}: {detail}" if detail else label)


class Run:
    """State of one workload run: spans, checks and per-unit counts."""

    def __init__(self, name: str, seed: int, seconds: float, size: str,
                 trace: bool):
        self.name = name
        self.size = SIZES[size]
        self.trace = trace
        self.units = max(1, round(seconds / UNIT_COST[name]))
        self.rng = np.random.default_rng(seed)
        self.tracer = Tracer()
        self.checks = Checks()
        self.counts: list[dict[str, float]] = []  # one dict per unit
        self.min_kappa = {"f": math.inf, "s": math.inf}
        self.pending_lus: list = []
        self.configs: dict[str, str] = {}

    # -- counts -------------------------------------------------------------

    def count(self, key: str, value: float) -> None:
        unit = self.counts[-1]
        unit[key] = unit.get(key, 0.0) + value

    def unit(self):
        """Span around one unit of work; call end_unit after it."""
        self.counts.append({})
        return self.tracer.span("unit")

    def end_unit(self) -> None:
        for fact in self.pending_lus:
            lu = fact._lu
            self.count("linalg.lu_nnz", lu.L.nnz + lu.U.nnz)
        self.pending_lus.clear()
        gc.collect()

    # -- probes and layer wrappers --------------------------------------------

    def install(self) -> None:
        tr = self.tracer
        if self.trace:
            self._install_layers()
        # probes: recorded in both modes, used by the end-to-end metrics
        tr.wrap(Discretization, "__init__", "probe.discretization",
                observe=lambda args, _: self.check_counts(args[0]))
        if self.name != "sweep-cut":
            tr.wrap(TimeStepper, "__init__", "probe.stepper")
            tr.wrap(TimeStepper, "step", lambda args: f"probe.step.n{args[0].cfg.n}",
                    observe=lambda _, state: self.check_step(state))

    def _install_layers(self) -> None:
        tr = self.tracer
        sites = LAYER_SITES[self.name]
        for owner, attr, span in sites:
            if span == "linalg.factorize":
                tr.patch(owner, attr, self._watch_factorize)  # innermost
            tr.wrap(owner, attr, span, observe=self._observer(span))

    def _watch_factorize(self, original):
        """Resident memory the factors add; LU sizes are read at end_unit."""
        def factorize(A, *args, **kwargs):
            before = rss_mb()
            fact = original(A, *args, **kwargs)
            self.count("linalg.factorize_rss_mb", rss_mb() - before)
            self.count("linalg.A_red_nnz", A.nnz)
            self.pending_lus.append(fact)
            return fact
        return factorize

    def _observer(self, span: str):
        if span == "mesh.build_cut_topology":
            def observe(args, topo):
                cut = topo.cut_cells
                self.count("mesh.cut_cells", len(cut))
                for side in ("f", "s"):
                    self.count(f"mesh.ghost_faces.{side}", len(topo.ghost_faces(side)))
                    if len(cut):
                        self.min_kappa[side] = min(self.min_kappa[side],
                                                   float(topo.kappa(side)[cut].min()))
            return observe
        if span == "quadrature.cut_cell_rule":
            return lambda args, rule: self.count("quadrature.cut_points", len(rule.weights))
        if span == "fem.build_dof_map":
            def observe(args, dm):
                # the solid space carries two vector fields, v_s and u
                key, fields = {"v_f": ("vf", 1), "p": ("p", 1), "s": ("s", 2)}[dm.role]
                self.count(f"fem.dofs.{key}", fields * dm.ncomp * dm.n_scalar)
            return observe
        if span == "assembly.system_matrices":
            return lambda args, out: self.count("assembly.A_nnz", out[0].nnz)
        if span == "linalg.solve":
            return lambda args, x: self.count("linalg.solves", 1)
        if span.startswith("reporting."):
            def observe(args, out):
                paths = out if span == "reporting.write_snapshot" else [args[0]]
                self.count("reporting.bytes", sum(Path(p).stat().st_size for p in paths))
            return observe
        return None

    # -- checks -------------------------------------------------------------

    def check_counts(self, disc) -> None:
        cfg = disc.cfg
        if cfg.radius_squared != DEFAULT.radius_squared:
            return
        want = EXPECTED_DOFS.get((cfg.n, cfg.m_s))
        if want is not None:
            self.checks(f"dofs n={cfg.n} m_s={cfg.m_s}", disc.layout.total == want,
                        f"{disc.layout.total} != {want}")
        want = EXPECTED_TOPOLOGY.get(cfg.n)
        if want is not None:
            topo = disc.topo
            got = (len(topo.cut_cells), len(topo.ghost_faces_f), len(topo.ghost_faces_s))
            self.checks(f"cut topology n={cfg.n}", got == want, f"{got} != {want}")

    def check_step(self, state) -> None:
        self.checks("solve residual", state.solve_residual <= RESIDUAL_TOL,
                    f"step {state.index}: {state.solve_residual:.2e}")
        self.checks("displacement identity", state.constraint_residual <= DISPLACEMENT_TOL,
                    f"step {state.index}: {state.constraint_residual:.2e}")

    def lid_config(self, **kw) -> SimulationConfig:
        """Base configuration with the lid speed drawn from the seed."""
        scale = 0.75 + 0.5 * float(self.rng.random())
        cfg = SimulationConfig(peak_inflow=BASE_LID_SPEED * scale, **kw)
        cfg.validate()
        return cfg


# -- workloads ----------------------------------------------------------------

def run_n64(run: Run, outdir: Path) -> None:
    """The ``cutfsi run`` sequence, repeated once per unit."""
    tr = run.tracer
    cfg = run.lid_config(n=run.size["run_n"], m_s=2, k=RUN_K, T=RUN_T)
    run.configs["run"] = format_config(cfg)
    for _ in range(run.units):
        with run.unit():
            with tr.span("setup"):
                disc = Discretization(cfg)
                stp = TimeStepper(disc)
                ana = Analyzer(disc, stp.forms)
                state = stp.initialize()
                with tr.span("norm_setup"):
                    ana.energy(state)
            records = []
            for _ in range(cfg.n_steps):
                with tr.span("step"):
                    state = stp.step(state)
                    energy = ana.energy(state)
                records.append(StepRecord(n=state.index, t=state.t,
                                          solve_residual=state.solve_residual,
                                          constraint_residual=state.constraint_residual,
                                          energy=energy))
            with tr.span("output"):
                reporting.write_step_log(outdir / "steps.csv", cfg, records)
                reporting.write_snapshot(outdir, disc, state, "final")
        run.checks("energies finite", all(math.isfinite(v) for r in records
                                          for v in r.energy.values()))
        with open(outdir / "steps.csv") as fh:
            rows = sum(1 for line in fh if not line.startswith("#")) - 1
        run.checks("steps.csv rows", rows == cfg.n_steps, f"{rows} rows")
        del disc, stp, ana, state, records
        run.end_unit()


def ladder_space(run: Run, outdir: Path) -> None:
    """``spatial_study`` with m_s = 2 against a nested reference, per unit."""
    levels, ref = run.size["ladder_levels"], run.size["ladder_ref"]
    cfg = run.lid_config(n=levels[0], m_s=2, k=LADDER_K, T=LADDER_T)
    run.configs["ladder"] = format_config(cfg)
    run.configs["levels"] = f"n = {levels}, reference n = {ref}"
    scale = cfg.peak_inflow / BASE_LID_SPEED
    for _ in range(run.units):
        with run.unit():
            report = analysis.spatial_study(cfg, levels, ref)
        for n, errors in zip(levels, report.errors):
            for key, want in LADDER_NORMS[(ref, n)].items():
                want *= scale
                got = errors[key]
                run.checks(f"ladder n={n} {key}", abs(got - want) <= LADDER_RTOL * want,
                           f"{got:.12e} != {want:.12e}")
        run.end_unit()


def sweep_cut(run: Run, outdir: Path) -> None:
    """Cut geometry, forms and ghost-extension ratios over seeded circles.

    One unit is one circle on every mesh of the sweep.  The radii are
    stratified: one draw per equal slice of the range, in shuffled order,
    so every seed covers the whole range.
    """
    tr = run.tracer
    lo, hi = SWEEP_RADIUS_SQUARED
    edges = np.linspace(lo, hi, run.units + 1)
    radii = edges[:-1] + (edges[1:] - edges[:-1]) * run.rng.random(run.units)
    radii = radii[run.rng.permutation(run.units)]
    run.configs["sweep"] = format_config(DEFAULT)
    run.configs["radius_squared"] = ", ".join(f"{r:.17g}" for r in radii)
    run.configs["meshes"] = f"(n, m_s) = {run.size['sweep_meshes']}"
    for r2 in radii:
        r2 = float(r2)
        with run.unit():
            for n, m_s in run.size["sweep_meshes"]:
                cfg = DEFAULT.replace(n=n, m_s=m_s, radius_squared=r2)
                with tr.span("setup"):
                    disc = Discretization(cfg)
                    forms = assembly.assemble_forms(disc)
                sweep_checks(run, disc, forms)
                for side, order in (("f", cfg.m_f), ("s", m_s)):
                    for l in (0, 1):
                        ratio = analysis.ghost_extension_ratios(
                            disc, side, order, l, cfg.w_max,
                            seed=int(run.rng.integers(2 ** 31)))
                        run.checks(f"ghost ratio n={n} side={side} l={l}",
                                   math.isfinite(ratio) and ratio > 0.0,
                                   f"r2={r2!r}: {ratio}")
        run.end_unit()


def sweep_checks(run: Run, disc, forms) -> None:
    cfg = disc.cfg
    tag = f"n={cfg.n} m_s={cfg.m_s} r2={cfg.radius_squared!r}"
    area_s = math.pi * cfg.radius_squared
    area_f = 4.0 - area_s
    _, w, _ = analysis.domain_points(disc, "s")
    err = abs(float(w.sum()) - area_s)
    run.checks("solid area", err <= AREA_TOL, f"{tag}: error {err:.2e}")
    arc = sum(disc.iface_rules[int(c)].total for c in disc.topo.cut_cells)
    err = abs(arc - 2.0 * math.pi * math.sqrt(cfg.radius_squared))
    run.checks("arc length", err <= ARC_TOL, f"{tag}: error {err:.2e}")
    # the Q_m basis sums to one, so a mass matrix sums to its area
    for label, got, want in (
            ("fluid mass", forms.mass_fluid.sum(), 2.0 * cfg.rho_f * area_f),
            ("solid mass", forms.mass_solid_scalar.sum(), area_s)):
        run.checks(label, abs(got - want) <= MASS_RTOL * want,
                   f"{tag}: {got!r} != {want!r}")


BODIES = {"run-n64": run_n64, "ladder-space": ladder_space, "sweep-cut": sweep_cut}


# -- metrics ------------------------------------------------------------------

def end_to_end(run: Run) -> dict:
    """Metric name -> (value, unit, samples) from the benchmark's own spans.

    ``wall_s`` is added by main, in both modes.
    """
    tr = run.tracer
    dur = tr.durations()
    by_unit = _per_unit_sums(tr, dur)
    units = [dur[i] for i, n in enumerate(tr.names) if n == "unit"]
    if run.name == "run-n64":
        setup = by_unit("setup")
        steps = [dur[i] for i, n in enumerate(tr.names) if n == "step"]
    elif run.name == "ladder-space":
        setup = [a + b for a, b in zip(by_unit("probe.discretization"),
                                       by_unit("probe.stepper"))]
        name = f"probe.step.n{run.size['ladder_ref']}"
        steps = [dur[i] for i, n in enumerate(tr.names) if n == name]
    else:
        setup = by_unit("setup")
        steps = units
    return {
        "setup_s": (float(np.median(setup)), "s", len(setup)),
        "step_s.p50": (percentile(steps, 50), "s", len(steps)),
        "step_s.p90": (percentile(steps, 90), "s", len(steps)),
        "case_s.p50": (float(np.median(units)), "s", len(units)),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
    }


def _per_unit_sums(tr: Tracer, values: list[float]):
    units = [i for i, n in enumerate(tr.names) if n == "unit"]
    slot = {u: k for k, u in enumerate(units)}

    def sums(name: str) -> list[float]:
        out = [0.0] * len(units)
        for i, n in enumerate(tr.names):
            if n == name:
                u = tr.ancestor(i, "unit")
                if u != ROOT:
                    out[slot[u]] += values[i]
        return out
    return sums


def per_layer(run: Run) -> dict:
    """Layer metric -> (value, unit, samples) from the wrapped calls.

    Times are per unit of work (median over units) unless named .p50/.p90,
    which are percentiles over single calls.  Counts are means per unit.
    """
    tr = run.tracer
    dur = tr.durations()
    own = tr.self_times()
    total = _per_unit_sums(tr, dur)
    self_total = _per_unit_sums(tr, own)
    nunits = len(run.counts)
    out = {}

    def per_unit(metric, span, use_self=False):
        vals = (self_total if use_self else total)(span)
        out[metric] = (float(np.median(vals)), "s", len(vals))

    def calls(metric, span, q, values=dur, parent=None):
        vals = [values[i] for i, n in enumerate(tr.names)
                if n == span and (parent is None or tr.names[tr.parents[i]] == parent)]
        out[metric] = (percentile(vals, q), "s", len(vals))

    spans = dict.fromkeys(span for _, _, span in LAYER_SITES[run.name])
    for span in spans:
        if span not in ("stepper.step", "linalg.solve", "analysis.energy"):
            per_unit(span + "_s", span)
    per_unit("discretization.self_s", "discretization.init", use_self=True)
    if "stepper.step" in spans:
        per_unit("stepper.reduce_s", "stepper.init", use_self=True)
        calls("stepper.step_self_s.p50", "stepper.step", 50, values=own)
        calls("linalg.solve_s.p50", "linalg.solve", 50)
        calls("linalg.solve_s.p90", "linalg.solve", 90)
    if "analysis.energy" in spans:
        per_unit("analysis.norm_setup_s", "norm_setup")
        calls("analysis.energy_s.p50", "analysis.energy", 50, parent="step")

    def mean_count(key):
        return sum(c.get(key, 0.0) for c in run.counts) / nunits

    for key, unit in (("mesh.cut_cells", "count"), ("mesh.ghost_faces.f", "count"),
                      ("mesh.ghost_faces.s", "count"), ("quadrature.cut_points", "count"),
                      ("fem.dofs.vf", "count"), ("fem.dofs.p", "count"),
                      ("fem.dofs.s", "count"), ("assembly.A_nnz", "count"),
                      ("linalg.lu_nnz", "count"), ("linalg.solves", "count"),
                      ("linalg.factorize_rss_mb", "MB"), ("reporting.bytes", "B")):
        out[key] = (mean_count(key), unit, nunits)
    a_red = mean_count("linalg.A_red_nnz")
    out["linalg.fill_ratio"] = (mean_count("linalg.lu_nnz") / a_red if a_red else 0.0,
                                "1", nunits)
    for side in ("f", "s"):
        kappa = run.min_kappa[side]
        out[f"mesh.min_kappa.{side}"] = (kappa if math.isfinite(kappa) else 0.0, "1", nunits)
    out["trace.spans"] = (float(len(tr.names)), "count", 1)
    return out


# -- provenance -----------------------------------------------------------------

def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without leaving it."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_version(module) -> str:
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, AttributeError):
        return "unknown"


def provenance(run: Run, args, root: Path) -> dict:
    return {
        "git_sha": git_sha(root),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": _blas_version(np),
        "openblas_scipy": _blas_version(scipy),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "units": run.units,
        "configs": run.configs,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=tuple(BODIES), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=tuple(SIZES), default="full")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    root = Path(__file__).resolve().parent.parent

    run = Run(args.workload, args.seed, args.seconds, args.size, bool(args.trace))
    outdir = args.out.parent / args.out.stem
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        run.install()
        t0 = time.perf_counter()
        BODIES[args.workload](run, outdir)
        wall = time.perf_counter() - t0
    finally:
        run.tracer.restore()
    uncalled = run.tracer.uncalled()
    if uncalled:
        print(f"perfbench: wrapped functions never called: {', '.join(uncalled)}",
              file=sys.stderr)
        return 3

    result = {"workload": args.workload, "trace": args.trace,
              "provenance": provenance(run, args, root),
              "checks": {"attempted": run.checks.attempted,
                         "failed": len(run.checks.failed),
                         "failures": run.checks.failed[:20]},
              "lu_nnz_k": {"run-n64": RUN_K, "ladder-space": LADDER_K}.get(args.workload)}
    metrics = per_layer(run) if run.trace else end_to_end(run)
    metrics["wall_s"] = (wall, "s", 1)
    result["metrics"] = {k: {"value": v, "unit": u, "samples": n}
                         for k, (v, u, n) in metrics.items()}
    if run.trace:
        result["spans"] = run.tracer.dump()
    args.out.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
