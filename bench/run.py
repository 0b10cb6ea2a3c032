#!/usr/bin/env python3
"""Benchmark of the sccopt design pipeline, one workload per invocation.

    python3 bench/run.py --workload grid25_design --seed 0 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seconds 36   # each workload in turn

Closed loop: one process makes one ``sccopt.pipeline.run_cms`` call at a
time, each on a freshly built copy of the workload's input
(bench/workloads.py), until the next call would end past ``--seconds`` (at
least one call).  A solve on a 4-node ring first loads the solver's code
paths, untimed.  Time and design quality are reported as medians over the
calls.  ``--demand-jitter`` > 0 makes each call of a non-default seed solve
its own demand variant instead, to study the solver's input sensitivity.
Every returned design is checked outside the timed region (bench/checks.py).
``setup_s`` is the median time, over several fresh interpreter processes, to
import sccopt and build the network.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced calls and reports the per-layer metrics of the traced
ones (bench/tracer.py); it fails a check when tracing changes the result.
Spans and a full result with provenance are written under ``bench/out/``.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5
# BLAS/OpenMP pools: the closed loop is one single-threaded solver process,
# and a pool on these small systems only adds scheduling noise
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
THREADS = "1"

_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import sccopt
from workloads import WORKLOADS
WORKLOADS[{name!r}].network({seed!r}, 0, {jitter!r})
print(time.perf_counter() - t0)
"""


def pin_threads() -> dict[str, str]:
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    return {var: os.environ[var] for var in THREAD_VARS}


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def git_revision() -> str:
    """HEAD of the checkout, read from .git without leaving the repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: str, seed: int, threads: dict) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": git_revision(),
        "threads": threads,
    }


def measure_setup(name: str, seed: int, jitter: float = 0.0) -> list[float]:
    """Import-and-build times, each in a fresh interpreter."""
    code = _SETUP_CODE.format(src=str(SRC), bench=str(BENCH), name=name,
                              seed=seed, jitter=jitter)
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, check=True, cwd=ROOT)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def timed_call(net, config, tracer=None):
    """One ``run_cms`` call; returns (solution, seconds)."""
    from sccopt import pipeline

    t0 = time.perf_counter()
    if tracer is None:
        sol = pipeline.run_cms(net, config)
    else:
        with tracer:
            sol = tracer.span("pipeline.run_cms", pipeline.run_cms, net, config)
    return sol, time.perf_counter() - t0


def warm_up() -> None:
    """Solve a 4-node ring, so imports and first-call costs stay untimed."""
    from sccopt import pipeline
    from sccopt.netgen import loop_network

    config = pipeline.RunConfig(n_v=1, n_f=1, n_samples=2, n_starts=1)
    pipeline.run_cms(loop_network(4), config)


def closed_loop(workload, seed: int, seconds: float, trace: bool,
                jitter: float = 0.0) -> dict:
    """Run calls until the next would end past ``seconds``; check each.

    Round k solves input variant k of the seed (the fixture unless
    ``jitter`` > 0); a traced round solves it twice, untraced and then
    traced, and checks that tracing changes nothing.
    """
    from checks import check_solution
    from sccopt.errors import SccoptError
    from tracer import Tracer

    warm_up()
    config = workload.run_config()
    plain, traced, tracers, quality = [], [], [], []
    failures: list[str] = []
    attempted = rounds = 0
    start = time.perf_counter()
    while True:
        untraced = None
        for tracer in ([None, Tracer()] if trace else [None]):
            net = workload.network(seed, rounds, jitter)
            attempted += 1
            try:
                sol, dt = timed_call(net, config, tracer)
            except SccoptError as exc:
                failures.append(f"run_cms raised {type(exc).__name__}: {exc}")
                continue
            bad = check_solution(net, config, sol)
            if tracer is None:
                plain.append(dt)
                quality.append(design_quality(sol))
                untraced = sol
            else:
                traced.append(dt)
                tracers.append(tracer)
                if untraced is None or (sol.scc_smooth, sol.lp_upper_bound) != (
                        untraced.scc_smooth, untraced.lp_upper_bound):
                    bad.append("traced_result_differs")
            if bad:
                failures.append(", ".join(bad))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            break
    return dict(plain=plain, traced=traced, tracers=tracers, quality=quality,
                attempted=attempted, failures=failures)


def design_quality(sol) -> dict[str, float]:
    scores = sol.candidate_scores
    return {
        "scc_smooth": sol.scc_smooth,
        "scc_exact": sol.scc_exact,
        "lp_bound": sol.lp_upper_bound,
        "bound_gap": sol.lp_upper_bound - sol.scc_smooth,
        "feasible_candidate_frac": sum(s is not None for s in scores) / len(scores),
    }


def per_layer_metrics(loop: dict) -> dict[str, float]:
    """Median over traced calls of each per-layer metric."""
    per_call = [tr.metrics() for tr in loop["tracers"]]
    out = {k: statistics.median(m[k] for m in per_call) for k in per_call[0]}
    out["trace.overhead_frac"] = (statistics.median(loop["traced"])
                                  / statistics.median(loop["plain"]) - 1.0)
    return out


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in
    BENCHMARK.json, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def use_sources():
    """Import sccopt from this checkout's sources, and the benchmark's modules."""
    if not (SRC / "sccopt" / "__init__.py").is_file():
        sys.exit(f"sccopt sources not found under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH)]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 jitter: float = 0.0) -> dict:
    threads = pin_threads()
    use_sources()
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    # set-up time is an end-to-end metric, which the traced run does not report
    setup = [] if trace else measure_setup(name, seed, jitter)
    loop = closed_loop(workload, seed, seconds, trace, jitter)
    if not loop["plain"]:
        sys.exit("no run_cms call returned a design: " + "; ".join(loop["failures"]))

    q1, med, q3 = quartiles(loop["plain"])
    e2e = {
        **({"setup_s": statistics.median(setup)} if setup else {}),
        "solve_s": med,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **{k: statistics.median(q[k] for q in loop["quality"])
           for k in loop["quality"][0]},
    }
    values = per_layer_metrics(loop) if trace else e2e
    units = metric_units("per_layer" if trace else "end_to_end")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}

    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    if trace:
        with open(OUT / f"{stem}-spans.jsonl", "w") as f:
            for k, tracer in enumerate(loop["tracers"]):
                tracer.write(f, call=k)
    detail = {
        "provenance": {**provenance(name, seed, threads), "demand_jitter": jitter},
        "solve_s": {"median": med, "q1": q1, "q3": q3, "n": len(loop["plain"]),
                    "samples": loop["plain"]},
        "traced_solve_s": loop["traced"],
        "setup_s_samples": setup,
        "end_to_end": e2e,
        "failures": loop["failures"],
    }
    (OUT / f"{stem}.json").write_text(json.dumps({**detail, "metrics": metrics}, indent=1))

    print("provenance " + json.dumps(detail["provenance"]))
    print(f"solve_s median {med:.4f} s, quartiles {q1:.4f} .. {q3:.4f} s, "
          f"n={len(loop['plain'])}")
    for k, v in metrics.items():
        print(f"{k} = {v['value']:.6g} {v['unit']}")
    for failure in loop["failures"]:
        print("FAILED CHECK: " + failure)
    return {
        "correct": not loop["failures"],
        "attempted": loop["attempted"],
        "failed": len(loop["failures"]),
        "metrics": metrics,
    }


def run_all(seed: int, seconds: float, trace: bool, jitter: float = 0.0) -> dict:
    """Every workload in its own process (so peak RSS is per workload)."""
    use_sources()
    from workloads import WORKLOADS

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
                "--demand-jitter", str(jitter)]
        done = subprocess.run(argv, capture_output=True, text=True, check=True,
                              cwd=ROOT, timeout=900)
        lines = done.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            total["metrics"][f"{name}.{k}"] = v
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="sccopt design benchmark")
    ap.add_argument("--workload", required=True,
                    help="workload name from BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--demand-jitter", type=float, default=0.0,
                    help="relative demand perturbation per call for seeds other "
                         "than 0 (default 0: every seed solves the fixture)")
    args = ap.parse_args(argv)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace), args.demand_jitter)
    else:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.demand_jitter)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
