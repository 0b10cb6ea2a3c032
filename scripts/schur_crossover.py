#!/usr/bin/env python3
"""Time a Newton solve with the Schur matrix factored densely and by SuperLU.

For each size n of a ladder, builds ``random_network(n, round(0.3 n))`` and
times whole ``solve_steady`` calls of its first timestep, from the default
start to convergence, twice: once with every Schur matrix factored by
LAPACK's dense Cholesky (``dpotrf``/``dpotrs``) and once with every one
factored by SuperLU's ``gstrf``.  The choice is made by setting
``sccopt.hydraulics.DENSE_SCHUR_MAX_NODES`` above or below n for the
duration of the timing.  Prints one line per size with the best time per
call of each, in milliseconds, over ``--repeat`` rounds, and the median over
``--seeds`` network draws.  The size where SuperLU starts to win bounds
``DENSE_SCHUR_MAX_NODES``.  Timings depend on the BLAS thread pool, so
set ``OPENBLAS_NUM_THREADS`` (or your BLAS's variable) as the solver runs.

Usage:
    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 scripts/schur_crossover.py
    PYTHONPATH=src python3 scripts/schur_crossover.py --sizes 200 300 --seeds 0 1 2
"""
import argparse
import statistics
import timeit

from sccopt import hydraulics
from sccopt.hydraulics import headloss_params, solve_steady
from sccopt.netgen import random_network

SIZES = (25, 60, 100, 150, 200, 250, 300, 400, 500)


def time_per_call(net, dense: bool, repeat: int) -> float:
    """Best time of one ``solve_steady`` on ``net``, in seconds, over
    ``repeat`` rounds of enough calls to take about 0.05 s each."""
    params = headloss_params(net)
    solve = lambda: solve_steady(net, params, net.demands[0], net.source_heads[0])  # noqa: E731
    kept = hydraulics.DENSE_SCHUR_MAX_NODES
    hydraulics.DENSE_SCHUR_MAX_NODES = net.n_n if dense else net.n_n - 1
    try:
        timer = timeit.Timer(solve)
        number, _ = timer.autorange()
        number = max(1, number // 4)
        return min(timer.repeat(repeat, number)) / number
    finally:
        hydraulics.DENSE_SCHUR_MAX_NODES = kept


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=list(SIZES),
                    help="numbers of demand nodes")
    ap.add_argument("--repeat", type=int, default=5, help="timing rounds per size")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0],
                    help="random_network seeds; each size reports their median")
    args = ap.parse_args(argv)
    print(f"{'n':>5} {'dense_ms':>9} {'superlu_ms':>10}  faster")
    for n in args.sizes:
        nets = [random_network(n, round(0.3 * n), seed=s) for s in args.seeds]
        dense, sparse = (1e3 * statistics.median(time_per_call(net, d, args.repeat)
                                                 for net in nets)
                         for d in (True, False))
        print(f"{n:>5} {dense:>9.3f} {sparse:>10.3f}  {'dense' if dense < sparse else 'superlu'}",
              flush=True)


if __name__ == "__main__":
    main()
