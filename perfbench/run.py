"""cutfsi benchmark: run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload run-n64 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The workload runs in a fresh
Python process (perfbench/workloads.py) with the library sources on
PYTHONPATH and one BLAS thread.  With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1`` the
workload runs twice, untraced and then with every layer wrapped, and the
metrics are the per-layer ones plus both wall times.  The last line of
standard output is one JSON object with the metrics BENCHMARK.json names;
the lines above it print every metric measured on the workload, with its
sample count.  The full result, with provenance, checks and (traced) spans,
is written to ``.perfbench-out/``.  The exit code is non-zero when a
correctness check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
TIME_LIMIT_S = 170.0


# One BLAS thread (at most nproc).  On a 2-core box two OpenBLAS threads
# made the sparse LU about 10 % slower and the first n = 64 solves of a
# process up to twice as slow, which made the run-to-run spread wider.
BLAS_THREADS = 1


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_workload(args, trace: int, deadline: float) -> dict:
    """One fresh process; returns its result, or raises RuntimeError."""
    out = OUT / f"{args.workload}-seed{args.seed}-trace{trace}.json"
    out.unlink(missing_ok=True)
    env = child_env()
    cmd = [sys.executable, str(HERE / "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--size", args.size, "--out", str(out)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"{args.workload} (trace {trace}) did not finish "
                           f"within {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise RuntimeError(f"{args.workload} (trace {trace}) exited with "
                           f"code {proc.returncode}")
    return json.loads(out.read_text())


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description="cutfsi benchmark")
    p.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                   required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "toy"), default="full",
                   help="toy runs every workload at n = 8 (smoke test)")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "cutfsi" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {ROOT / 'src' / 'cutfsi'}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        results = [run_workload(args, 0, deadline)]
        if args.trace:
            results.append(run_workload(args, 1, deadline))
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["checks"]["attempted"] for r in results)
    failed = sum(r["checks"]["failed"] for r in results)
    metrics = results[-1]["metrics"]
    if args.trace:
        metrics["trace.wall_s"] = metrics.pop("wall_s")
        metrics["trace.untraced_wall_s"] = results[0]["metrics"]["wall_s"]
    overhead = (metrics["trace.wall_s"]["value"] - metrics["trace.untraced_wall_s"]["value"]
                if args.trace else None)
    reported = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    missing = [name for name in reported if name not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1

    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "fail_frac": failed / attempted if attempted else 1.0,
               "attempted": attempted, "failed": failed,
               "failures": [f for r in results for f in r["checks"]["failures"]],
               "tracing_overhead_s": overhead,
               "lu_nnz_k": results[-1]["lu_nnz_k"],
               "provenance": results[-1]["provenance"],
               "metrics": metrics}
    if args.trace:
        summary["untraced_metrics"] = results[0]["metrics"]
        summary["spans"] = results[-1]["spans"]
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-result.json").write_text(
        json.dumps(summary, indent=1))

    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']} "
              f"(samples {m['samples']})")
    print(f"{args.workload} fail_frac = {summary['fail_frac']:g} "
          f"({failed} of {attempted} checks failed)")
    if overhead is not None:
        print(f"{args.workload} tracing overhead = {overhead:+.3f} s")
    for failure in summary["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": metrics[k]["value"],
                                      "unit": metrics[k]["unit"]}
                                  for k in reported}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
