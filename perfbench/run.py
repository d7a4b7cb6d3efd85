"""pmx benchmark: train, eval and io workloads, measured from outside the package.

One workload, in this process:

    python3 perfbench/run.py --workload train --seed 0 --seconds 30 --trace 0

prints the workload's figures under the names used in perfbench/README.md,
the machine facts, and as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.

Every workload, each in its own process, one after the other:

    python3 perfbench/run.py [--seed 0] [--seconds 30] [--trace 0]

The program is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("train", "eval", "io")


def machine_facts(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "seed": seed,
    }


def blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_one(args) -> int:
    if not (ROOT / "src" / "pmx" / "__init__.py").is_file():
        print(f"perfbench: no pmx sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from tracer import LAYER_METRICS, OVERHEAD_METRICS

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    res = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                        workdir=str(OUT / f"work-{tag}"),
                        spans_path=str(OUT / f"spans-{tag}.jsonl"))
    res["machine"] = machine_facts(args.seed)
    print(json.dumps({k: v for k, v in res.items() if k != "end_to_end"}))
    if args.trace:
        out = {n: {"value": res["per_layer"][n], "unit": u}
               for n, u, *_ in LAYER_METRICS + OVERHEAD_METRICS}
    else:
        out = {n: {"value": v, "unit": u} for n, (v, u) in res["end_to_end"].items()}
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": out}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints every named metric."""
    results = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        results.append((name, json.loads(lines[-2]), json.loads(lines[-1])))
    for name, detail, last in results:
        sizes = "".join(f", {k} {v:.2f}" for k, v in detail["sizes"].items())
        print(f"== {name}: seed {detail['seed']}, {detail['samples']} operations timed "
              f"(tail percentile p{detail['tail_percentile']}){sizes}, "
              f"{last['failed']}/{last['attempted']} checks failed")
        rows = last["metrics"].items() if args.trace else detail["named"].items()
        for metric, val in rows:
            value, unit = (val["value"], val["unit"]) if args.trace else val
            print(f"  {metric:36s} {value:14.6g} {unit}")
    print(json.dumps({"machine": results[0][1]["machine"],
                      "correct": all(r[2]["correct"] for r in results)}))
    return 0 if all(r[2]["correct"] for r in results) else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
