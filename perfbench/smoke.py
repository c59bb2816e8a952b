"""Smoke test of the benchmark itself, at toy size (n = 8).

    python3 perfbench/smoke.py

Runs every workload untraced and traced and checks that each metric this
benchmark defines appears with a unit, that no correctness check failed,
and that a traced run fails when a wrapped library function is missing or
no longer called.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

COMMON_LAYERS = [
    "mesh.build_cut_topology_s", "quadrature.cut_cell_rule_s",
    "quadrature.interface_rule_s", "fem.build_dof_map_s", "discretization.init_s",
    "discretization.self_s", "assembly.assemble_forms_s",
    "assembly.raw_jump_matrices_s", "mesh.cut_cells", "mesh.ghost_faces.f",
    "mesh.ghost_faces.s", "mesh.min_kappa.f", "mesh.min_kappa.s",
    "quadrature.cut_points", "fem.dofs.vf", "fem.dofs.p", "fem.dofs.s",
    "assembly.A_nnz", "linalg.lu_nnz", "linalg.fill_ratio", "linalg.solves",
    "linalg.factorize_rss_mb", "reporting.bytes", "trace.wall_s",
    "trace.untraced_wall_s",
]
SOLVER_LAYERS = [
    "assembly.system_matrices_s", "stepper.init_s", "stepper.reduce_s",
    "stepper.step_self_s.p50", "linalg.factorize_s", "linalg.solve_s.p50",
    "linalg.solve_s.p90",
]
LAYERS = {
    "run-n64": COMMON_LAYERS + SOLVER_LAYERS + [
        "analysis.norm_setup_s", "analysis.energy_s.p50",
        "reporting.write_step_log_s", "reporting.write_snapshot_s"],
    "ladder-space": COMMON_LAYERS + SOLVER_LAYERS + ["analysis.error_vs_reference_s"],
    "sweep-cut": COMMON_LAYERS + ["analysis.ghost_extension_ratios_s"],
}


def fail(msg: str) -> None:
    print(f"smoke: FAIL {msg}")
    sys.exit(1)


def bench(workload: str, trace: int) -> tuple[dict, dict]:
    """(last stdout line, full result file) of one toy run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "toy"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    result = json.loads((ROOT / ".perfbench-out"
                         / f"{workload}-seed7-trace{trace}-result.json").read_text())
    return line, result


def check_metrics(where: str, metrics: dict, names: list[str]) -> None:
    for name in names:
        m = metrics.get(name)
        if m is None or not m.get("unit") or not isinstance(m.get("value"), (int, float)):
            fail(f"{where}: metric {name} missing or without a unit")


def check_workloads() -> None:
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    layers = [m["name"] for m in SPEC["per_layer"]]
    for workload in LAYERS:
        line, result = bench(workload, 0)
        if set(line) != {"correct", "attempted", "failed", "metrics"}:
            fail(f"{workload}: result line keys {sorted(line)}")
        if not line["correct"] or line["failed"] or line["attempted"] < 1:
            fail(f"{workload}: checks {line['attempted']} attempted, {line['failed']} failed")
        check_metrics(f"{workload} line", line["metrics"], e2e)
        if any(line["metrics"][name]["value"] <= 0 for name in e2e):
            fail(f"{workload}: an end-to-end metric is not positive")
        if sorted(result["provenance"]) != sorted(
                ["git_sha", "nproc", "python", "numpy", "scipy", "openblas_numpy",
                 "openblas_scipy", "blas_threads", "seed", "seconds", "size",
                 "units", "configs"]):
            fail(f"{workload}: provenance keys {sorted(result['provenance'])}")

        line, result = bench(workload, 1)
        check_metrics(f"{workload} traced line", line["metrics"], layers)
        check_metrics(f"{workload} traced result", result["metrics"], LAYERS[workload])
        print(f"smoke: {workload} ok ({line['attempted']} checks, "
              f"tracing overhead {result['tracing_overhead_s']:+.3f} s)")


def check_missing_wrap() -> None:
    """A traced run fails when a wrapped function is gone or never called."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import cutfsi.analysis
    import cutfsi.stepper
    import workloads

    out = ROOT / ".perfbench-out" / "smoke-missing.json"
    argv = ["--workload", "ladder-space", "--seed", "7", "--seconds", "1",
            "--trace", "1", "--size", "toy", "--out", str(out)]

    saved = cutfsi.analysis.error_vs_reference
    del cutfsi.analysis.error_vs_reference
    try:
        workloads.main(argv)
    except AttributeError as exc:
        print(f"smoke: missing function fails the traced run ({exc})")
    else:
        fail("a traced run with a missing wrapped function did not fail")
    finally:
        cutfsi.analysis.error_vs_reference = saved

    # the stepper stops calling linalg.factorize through the wrapped name
    real = cutfsi.stepper.linalg
    cutfsi.stepper.linalg = types.SimpleNamespace(factorize=real.factorize)
    try:
        code = workloads.main(argv)
    finally:
        cutfsi.stepper.linalg = real
    if code == 0:
        fail("a traced run whose wrapped function was never called did not fail")
    print(f"smoke: uncalled wrapped function fails the traced run (exit {code})")


if __name__ == "__main__":
    check_workloads()
    check_missing_wrap()
    print("smoke: all checks passed")
