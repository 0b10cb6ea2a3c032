#!/usr/bin/env python3
"""Time the relaxation LP's cold solve under HiGHS's two simplex scalings.

For each network of a fixed list, builds the relaxation as ``run_cms``
does with OBBT off (``build_lp`` over ``tightened_bounds``' box, with
n_v = n_f = 1) and solves it by ``solve_lp`` twice over: with
``simplex_scale_strategy`` 2 (HiGHS's default equilibration) and 4
(max-value scaling; Elble and Sahinidis, 2012, *Scaling linear optimization
problems prior to application of the simplex method*).  The strategy is set
on ``sccopt.lp._OPTIONS``, the cold solves' options, for the duration of
the timing.  Prints one line per network with the LP's size and, for each
strategy, the simplex iterations and the best wall time over ``--repeat``
solves, in seconds; a solve that is not OPTIMAL within ``--time-limit``
seconds prints ``-`` and ``unsolved``.  A network is given as
``n:extra:seed:n_t``, meaning ``random_network(n, extra, seed=seed,
n_t=n_t, demand_scale=0.002)``; the first default is the benchmark's
rand100x4 fixture.  Timings depend on the BLAS thread pool, so set
``OPENBLAS_NUM_THREADS`` (or your BLAS's variable) as the solver runs.

Usage:
    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 scripts/lp_scaling.py
    PYTHONPATH=src python3 scripts/lp_scaling.py --networks 300:90:5:4 --time-limit 150
"""
import argparse
import time

from sccopt import lp as lp_mod
from sccopt.netgen import random_network
from sccopt.pipeline import RunConfig, tightened_bounds
from sccopt.relax import build_lp

NETWORKS = ("100:30:5:4", "150:45:2:2", "200:60:3:2", "300:90:5:1", "300:90:5:2")
STRATEGIES = (2, 4)


def relaxation(spec: str):
    """The relaxation LP of the network ``spec`` names, as ``run_cms`` builds
    it with n_v = n_f = 1 and OBBT off."""
    n, extra, seed, n_t = (int(v) for v in spec.split(":"))
    net = random_network(n, extra, seed=seed, n_t=n_t, demand_scale=0.002)
    config = RunConfig(n_v=1, n_f=1, use_obbt=False)
    problem, _ = tightened_bounds(net, config)
    return build_lp(problem, config.n_v, config.n_f)[0]


def time_solve(lp, strategy: int, repeat: int, time_limit: float):
    """(simplex iterations, best seconds) of ``repeat`` cold solves of ``lp``
    under scale ``strategy``, or None when one is not OPTIMAL."""
    options = lp_mod._OPTIONS
    kept = options.simplex_scale_strategy, options.time_limit
    options.simplex_scale_strategy, options.time_limit = strategy, time_limit
    try:
        best = float("inf")
        for _ in range(repeat):
            start = time.perf_counter()
            sol = lp_mod.solve_lp(lp)
            best = min(best, time.perf_counter() - start)
            if sol.status != lp_mod.OPTIMAL:
                return None
        return sol.simplex_iterations, best
    finally:
        options.simplex_scale_strategy, options.time_limit = kept


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--networks", nargs="+", default=list(NETWORKS),
                    help="networks as n:extra:seed:n_t")
    ap.add_argument("--repeat", type=int, default=3, help="solves per strategy")
    ap.add_argument("--time-limit", type=float, default=60.0,
                    help="HiGHS time limit of each solve, in seconds")
    args = ap.parse_args(argv)
    print(f"{'network':>12} {'rows':>6} {'cols':>6}"
          + "".join(f" {f'it_{s}':>6} {f's_{s}':>8}" for s in STRATEGIES), flush=True)
    for spec in args.networks:
        lp = relaxation(spec)
        line = f"{spec:>12} {lp.n_rows:>6} {lp.n_cols:>6}"
        for strategy in STRATEGIES:
            result = time_solve(lp, strategy, args.repeat, args.time_limit)
            line += " {:>6} {:>8}".format(*(("-", "unsolved") if result is None
                                             else (result[0], f"{result[1]:.3f}")))
        print(line, flush=True)


if __name__ == "__main__":
    main()
