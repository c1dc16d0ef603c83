"""Run the benchmark over several seeds and report each metric's spread.

    python3 benchmarks/spread.py --workload plan_sweep --seeds 1-10 [--trace 0] [--out runs.json]

For every metric it prints the median of the runs, and the distance
between the first and third quartiles (``statistics.quantiles(n=4)``)
as a share of the median, next to the metric's bound in BENCHMARK.json.
Runs go one after another, each in a fresh process, as the benchmark's
own command from BENCHMARK.json. ``--out`` appends every run's result,
with the environment, to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import BLAS_THREADS  # noqa: E402  (run.py pins the BLAS threads it reports)


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def environment() -> dict:
    """Interpreter, library and machine facts that the timings depend on."""
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
        ]  # fmt: skip
        t0 = time.perf_counter()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr)
            raise SystemExit(f"seed {seed}: exit {out.returncode}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        result.update(seed=seed, run_s=time.perf_counter() - t0)
        runs.append(result)
        print(f"seed {seed}: {result['run_s']:.1f} s, attempted {result['attempted']}, "
              f"failed {result['failed']}, correct {result['correct']}", flush=True)  # fmt: skip

    print(f"{'metric':40s} {'median':>14s} {'iqr/med':>8s} {'bound':>6s}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else float("nan")
        bound = bounds.get(name)
        flag = " !" if bound is not None and name != "setup_s" and spread > bound / 3 else ""
        print(f"{name:40s} {med:14.6g} {spread:8.3f} {bound if bound is not None else '':>6}{flag}")

    if args.out:
        path = Path(args.out)
        doc = json.loads(path.read_text()) if path.exists() else {"environment": {}, "runs": {}}
        doc["environment"] = environment()
        doc["runs"].setdefault(f"{args.workload}/trace{args.trace}", []).extend(runs)
        path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
