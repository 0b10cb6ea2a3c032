#!/usr/bin/env python3
"""Print what ``import sccopt`` plus building a fixture network costs.

Starts ``--runs`` fresh interpreters.  Each imports sccopt and the workload
fixtures of bench/workloads.py, builds one workload's network, and reports
the wall time from its first statement to the built network (interpreter
start-up left out, as in the benchmark's ``setup_s``), its peak RSS
(``ru_maxrss``, Linux's kB read as MB / 1024) and how many modules, and of
them SciPy's, ``sys.modules`` then holds.  Prints the median of each over
the runs as space-separated ``key=value`` fields.  The children run with
the BLAS thread variables at 1, as bench/run.py runs the benchmark.

Usage:
    PYTHONPATH=src python3 scripts/import_footprint.py --runs 8
    PYTHONPATH=src python3 scripts/import_footprint.py --workload rand100x4_design
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

CHILD = """
import json, resource, sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import sccopt
from workloads import WORKLOADS
WORKLOADS[{name!r}].network(0)
wall_s = time.perf_counter() - t0
print(json.dumps({{
    "wall_s": wall_s,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "modules": len(sys.modules),
    "scipy_modules": sum(m == "scipy" or m.startswith("scipy.") for m in sys.modules),
}}))
"""


def measure(workload: str, runs: int) -> list[dict]:
    """One footprint per fresh interpreter."""
    code = CHILD.format(src=str(ROOT / "src"), bench=str(ROOT / "bench"), name=workload)
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1")}
    return [json.loads(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                      text=True, timeout=120, check=True, env=env).stdout)
            for _ in range(runs)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="grid25_design")
    ap.add_argument("--runs", type=int, default=8)
    args = ap.parse_args(argv)
    samples = measure(args.workload, args.runs)
    medians = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    print(f"{args.workload} runs={args.runs} wall_s={medians['wall_s']:.3f} "
          f"peak_rss_mb={medians['peak_rss_mb']:.1f} modules={medians['modules']:g} "
          f"scipy_modules={medians['scipy_modules']:g}")


if __name__ == "__main__":
    main()
