"""Solver benchmark: time per step, set-up and correctness gates per workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mono_square --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is 0 when
every run passed its gates, 1 when one did not, and 2 when the benchmark could
not start (no ``src/stokesdd`` beside it, bad arguments).  See README.md in
this directory for the workloads and the metrics.
"""

from __future__ import annotations

import os
import sys

import argparse
import json
import math
import platform
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def _import_program():
    """Import stokesdd from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "stokesdd" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no stokesdd sources under {src}")
    sys.path.insert(0, str(src))
    import stokesdd

    if Path(stokesdd.__file__).resolve().parent != src / "stokesdd":
        raise SystemExit(f"perfbench: stokesdd imported from {stokesdd.__file__}, not {src}")
    return stokesdd


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(blas_pinned: bool) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "blas_pinned_before_numpy": blas_pinned,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
    }


def parse_args(argv: list[str] | None, workloads) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None, workload_confs=None, out_root: Path | None = None,
         blas_pinned: bool = False) -> int:
    """Run one workload and print its metrics; ``workload_confs`` lets tests shrink it."""
    try:
        _import_program()
        import harness
        import layers
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        args = parse_args(argv, harness.WORKLOADS)
    except SystemExit as exc:
        return 2 if exc.code else 0
    confs = (workload_confs or harness.workload_confs)(args.workload, args.seed)
    out = (out_root or HERE / "_out") / args.workload
    env = environment(blas_pinned)
    print("env " + json.dumps(env, sort_keys=True))

    if args.trace:
        metrics, reps, extra = layers.traced_run(confs, args.seconds, out)
    else:
        metrics, reps = harness.end_to_end(confs, args.seconds, out)
        extra = {}
    gates = harness.gate_values(reps)
    runs = sum(rep.runs for rep in reps)
    failed = sum(rep.failed for rep in reps)
    extra["failures"] = [why for rep in reps for why in rep.failures]

    for name, (value, unit, samples) in {**metrics, **gates}.items():
        print(f"{args.workload:<13} {name:<34} {value:>14.6g} {unit:<8} n={samples}")
    for name in extra.get("skipped", []):
        print(f"skipped (not found): {name}")
    for why in extra["failures"][:20]:
        print(f"FAIL {why}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env,
              "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
              "gates": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in gates.items()},
              **extra}
    out.mkdir(parents=True, exist_ok=True)
    (out / f"result_trace{args.trace}_seed{args.seed}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": runs,
        "failed": failed,
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                    for k, (v, u, _) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def pin_blas_threads() -> bool:
    """Ask for one BLAS thread; True when numpy was not yet imported to see it.

    The solver runs in one thread, and OpenBLAS would otherwise split every
    dot product of a large field over all cores.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return "numpy" not in sys.modules


if __name__ == "__main__":
    sys.exit(main(blas_pinned=pin_blas_threads()))
