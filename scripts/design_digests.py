#!/usr/bin/env python3
"""Print each benchmark workload's final design and its control digest.

For each workload fixture in bench/workloads.py and each ``RunConfig``
seed, runs ``run_cms`` once and prints one line: the final control digest
(the first 16 hex digits of the SHA-256 of eta, alpha, q and h, in that
order), the winning design (DBV links and AFV nodes by index) and start,
``scc_smooth``, ``scc_exact``, the candidate-score digest (the first 16
hex digits of the SHA-256 of every candidate's ``scc_smooth``, in candidate
order, None for a candidate without a feasible control) and the
relaxation's ``lp_bound`` and LP digest (the first 16 hex digits of the
SHA-256 of the relaxation's c, CSC indptr, indices and data, lhs, rhs, lb
and ub, built by ``build_lp`` over ``tightened_bounds``' box), as
space-separated ``key=value`` fields; ``start`` lists the winning start of
each timestep, comma-separated.  Two checkouts that print the same
lines found bit-identical controls, scored every candidate alike, and built
and bounded the relaxation alike.

Usage:
    PYTHONPATH=src python3 scripts/design_digests.py --seeds 0 1 2 3 4 5
    PYTHONPATH=src python3 scripts/design_digests.py --workload grid25_design
"""
import argparse
import hashlib
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

from sccopt.pipeline import run_cms, tightened_bounds  # noqa: E402
from sccopt.relax import build_lp  # noqa: E402


def control_digest(solution) -> str:
    """First 16 hex digits of the SHA-256 of the final (eta, alpha, q, h)."""
    control = solution.control
    digest = hashlib.sha256()
    for a in (control.eta, control.alpha, control.state.q, control.state.h):
        digest.update(a.tobytes())
    return digest.hexdigest()[:16]


def scores_digest(solution) -> str:
    """First 16 hex digits of the SHA-256 of the candidates' scores, each
    written exactly (``float.hex``) or as ``None``."""
    text = ",".join("None" if s is None else float(s).hex()
                    for s in solution.candidate_scores)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def lp_digest(net, config) -> str:
    """First 16 hex digits of the SHA-256 of the final relaxation's c, CSC
    indptr, indices and data, lhs, rhs, lb and ub."""
    problem, _ = tightened_bounds(net, config)
    lp, _ = build_lp(problem, config.n_v, config.n_f)
    digest = hashlib.sha256()
    for a in (lp.c, lp.A.indptr, lp.A.indices, lp.A.data, lp.lhs, lp.rhs, lp.lb, lp.ub):
        digest.update(a.tobytes())
    return digest.hexdigest()[:16]


def describe(name: str, net, config) -> str:
    """One line: the run's digest, winning design and start, its scores, the
    candidates' score digest, the relaxation bound and the LP digest."""
    sol = run_cms(net, config)
    dbv, afv, start = (",".join(map(str, ids)) for ids in (
        sol.design.dbv_links, sol.design.afv_nodes, sol.control.starts))
    return (f"{name} seed={config.seed} digest={control_digest(sol)} "
            f"dbv={dbv} afv={afv} start={start} "
            f"scc_smooth={sol.scc_smooth!r} scc_exact={sol.scc_exact!r} "
            f"scores={scores_digest(sol)} lp_bound={sol.lp_upper_bound!r} "
            f"lp={lp_digest(net, config)}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0],
                    help="RunConfig seeds (the fixture network is the same for each)")
    args = ap.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        workload = WORKLOADS[name]
        for seed in args.seeds:
            config = replace(workload.run_config(), seed=seed)
            print(describe(name, workload.network(DEFAULT_SEED), config), flush=True)


if __name__ == "__main__":
    main()
