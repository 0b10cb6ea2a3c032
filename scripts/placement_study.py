#!/usr/bin/env python3
"""Score every one-DBV, one-AFV placement of a benchmark workload.

Runs ``run_cms``'s own steps up to sampling (``tightened_bounds``,
``build_lp``, ``solve_lp``, ``extract_fractional``) with the workload's
``RunConfig`` at ``n_v = n_f = 1``.  Then it solves the control of every
placement of one new DBV on a free link plus one AFV on a demand node with
``pipeline._solve_candidates``, on the same Problem, with the same
relaxation eta seed and starts as ``run_cms`` gives its sampled
candidates, so each placement ``run_cms`` samples scores bit-equal here.
Prints the best placements and the rank of ``run_cms``'s winner among all
of them, which shows how far sampling lands from the best placement.

Usage:
    PYTHONPATH=src python3 scripts/placement_study.py --workload grid25_design
    PYTHONPATH=src python3 scripts/placement_study.py --workload rand60_obbt_design --seed 1
"""
import argparse
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

from sccopt.lp import solve_lp  # noqa: E402
from sccopt.pipeline import _solve_candidates, run_cms, tightened_bounds  # noqa: E402
from sccopt.relax import build_lp, extract_fractional  # noqa: E402
from sccopt.sfscp import ValveDesign  # noqa: E402

# placements printed, best first
TOP = 10


def study(net, config) -> dict:
    """Each placement ``(dbv_links, afv_nodes)`` of one new DBV and one AFV,
    in (free link, node) order, mapped to its best control's ``scc_smooth``,
    or None when no start is feasible.  ``config`` must ask for
    ``n_v = n_f = 1``."""
    if (config.n_v, config.n_f) != (1, 1):
        raise ValueError("the study places one DBV and one AFV: need n_v = n_f = 1")
    problem, _ = tightened_bounds(net, config)
    lp, vmap = build_lp(problem, config.n_v, config.n_f)
    _, _, eta_seed = extract_fractional(solve_lp(lp), vmap, net)
    placements = [((j,), (i,)) for j in net.free_links for i in range(net.n_n)]
    designs = [ValveDesign.from_network(net, dbv, afv) for dbv, afv in placements]
    controls = _solve_candidates(problem, designs, config, eta_seed, [])
    return {p: None if c is None else c.objective for p, c in zip(placements, controls)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="RunConfig seed (default: the workload's)")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    config = replace(workload.run_config(), n_v=1, n_f=1)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    net = workload.network(DEFAULT_SEED)

    scores = study(net, config)
    feasible = sorted((p for p, s in scores.items() if s is not None),
                      key=lambda p: -scores[p])
    print(f"{args.workload} seed={config.seed}: {len(scores)} placements, "
          f"{len(feasible)} with a feasible control")
    print("rank  scc_smooth  dbv  afv")
    for rank, (dbv, afv) in enumerate(feasible[:TOP], start=1):
        print(f"{rank:4d}  {scores[dbv, afv]:.8f}  {net.links[dbv[0]].id}  "
              f"{net.nodes[afv[0]].id}")
    sol = run_cms(net, config)
    # run_cms keeps the first candidate with the highest score
    dbv, afv = sol.candidates[sol.candidate_scores.index(sol.scc_smooth)]
    rank = 1 + sum(s > sol.scc_smooth for s in scores.values() if s is not None)
    print(f"run_cms winner: dbv {net.links[dbv[0]].id} afv {net.nodes[afv[0]].id} "
          f"scc_smooth {sol.scc_smooth:.8f}, rank {rank} of {len(feasible)}")


if __name__ == "__main__":
    main()
