#!/usr/bin/env python3
"""Batch experiment: compare pipeline configurations across random networks.

Runs the full design pipeline under several configurations on a batch of
generated networks, writes the raw objective table and a performance profile
(minimization convention, cost = 1 - objective so lower is better).

Both configurations ask for n_starts=4, which is below the count of
deterministic starts ``sfscp.multi_start`` always runs (its docstring lists
them; n_starts is a floor, not a cap), so ``obbt_ms4`` and ``no_obbt_ms4``
run the same starts and differ only in OBBT.  The names stay as they are
because they head the columns of scores.csv.

Usage:
    python3 scripts/run_benchmark.py --out results/ --n-problems 8 --seed 0
"""
import argparse
import csv
import time
from pathlib import Path

import numpy as np

from sccopt.errors import SccoptError
from sccopt.netgen import random_network
from sccopt.pipeline import (RunConfig, performance_profile, run_cms,
                             write_profile_csv)

CONFIGS = {
    "obbt_ms4": dict(use_obbt=True, n_starts=4),
    "no_obbt_ms4": dict(use_obbt=False, n_starts=4),
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="results", help="output directory")
    ap.add_argument("--n-problems", type=int, default=8)
    ap.add_argument("--n-nodes", type=int, default=20)
    ap.add_argument("--samples", type=int, default=15)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    names = list(CONFIGS)
    scores = np.full((args.n_problems, len(names)), np.inf)

    for p in range(args.n_problems):
        net = random_network(n_nodes=args.n_nodes, extra_edges=4,
                             seed=args.seed * 1000 + p)
        for s, name in enumerate(names):
            cfg = RunConfig(n_v=1, n_f=1, n_samples=args.samples,
                            seed=args.seed, **CONFIGS[name])
            t0 = time.perf_counter()
            try:
                sol = run_cms(net, cfg)
            except SccoptError as exc:
                print(f"problem {p} {name}: FAILED ({exc})")
                continue
            dt = time.perf_counter() - t0
            # profile cost: shortfall from a perfect score, lower is better
            scores[p, s] = 1.0 - sol.scc_smooth
            print(f"problem {p} {name}: objective {sol.scc_smooth:.4f} "
                  f"bound {sol.lp_upper_bound:.4f} in {dt:.1f}s")

    with open(out / "scores.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["problem"] + names)
        for p in range(args.n_problems):
            w.writerow([f"p{p}"] + [f"{v:.6g}" for v in scores[p]])

    taus = np.geomspace(1.0, 100.0, 101)
    rho = performance_profile(scores, taus)
    with open(out / "profile.csv", "w") as f:
        write_profile_csv(taus, rho, names, f)
    print(f"wrote {out/'scores.csv'} and {out/'profile.csv'}")


if __name__ == "__main__":
    main()
