"""Optimization-based bound tightening for the flow variables.

Each pass solves a min and a max LP per (core link, timestep) over the
current relaxation's feasible set, shrinks the flow box, and rebuilds the
relaxation with the tighter box.  Every LP of a pass is solved over the same
snapshot of the box, so they are independent: the min LPs run as one
hot-started HiGHS session (an ``lp.HotSession`` that ``solve_lp`` is
handed) on the calling thread while the max LPs run as another on one
worker thread (HiGHS releases the GIL while it solves), and the bounds are
then applied in (timestep, link, min then max) order.  The split is fixed,
so the result does not depend on thread scheduling or the core count.
The two sessions overlap on two cores, and on the benchmark networks they
also take fewer simplex iterations than one session for both directions.
The bound LPs leave out the relaxation's sigma block, which only the SCC
objective uses: every row holding a sigma column is a concave
over-estimator cut sigma <= cut(u) of the sigmoid, and cut >= psi > 0 on
the flow box, so sigma = 0 satisfies each of them.  Dropping those rows
and fixing sigma at 0 leaves the projection onto every other column, and
so every min and max flow, unchanged, up to rounding: a cut whose tangent
point is bisected can dip to -2e-12 where psi is about 0, 3e-13 m^3/s of
flow.  Forest (tree-appendage) links are handled separately by demand
aggregation, which is exact up to the flushing allowance.
"""
from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InconsistentBounds
from .lp import OPTIMAL, HotSession, LinearProgram, solve_lp
from .relax import BoundSet, Problem, VariableMap, build_lp

# slack added to each forest bound so later LPs stay strictly feasible; the
# bounds are exact demand sums, so a rounding-size pad suffices
_BOUND_PAD = 1e-9
# slack added to each OBBT bound.  An LP value is only as exact as HiGHS's
# 1e-7 primal feasibility tolerance: on the first-pass LPs of
# random_network(60, 20, seed=1), hot re-solves differ from cold solves by up
# to 1.9e-7, and cold solves with and without presolve by 2e-7, so the pad
# must exceed both to keep every bound valid.  Without the sigma block, cold
# solves move by up to 4.6e-7 against cold solves with it, tolerance noise on
# either side: at HiGHS's tightest tolerances (1e-10) the two optima agree to
# 1e-11, and the hot values lie within 1.4e-8 of them (1.3e-8 with the block).
# A failed hot solve is retried cold at those tolerances, so a retried bound
# keeps the hot bounds' margin
_OBBT_PAD = 1e-6
# stopping rule of tighten
_EPS_TOL = 0.90
_K_MAX = 3


@dataclass
class ObbtReport:
    iterations: int = 0
    lp_solves: int = 0
    cold_retries: int = 0
    # HiGHS simplex iterations over the bound LPs; a target retried cold
    # counts its cold solve's
    simplex_iterations: int = 0
    wall_time: float = 0.0
    diam_history: list[float] = field(default_factory=list)


def _flow_diameter(bounds: BoundSet, core_links: tuple[int, ...]) -> float:
    return float(np.sum(bounds.q_hi[:, core_links] - bounds.q_lo[:, core_links]))


def flow_polytope(lp: LinearProgram, vmap: VariableMap) -> LinearProgram:
    """``lp`` without the rows that hold a sigma column and with every sigma
    column fixed at 0; the columns keep their indices, so ``vmap`` still maps
    them.  Exact for flow objectives: those rows are the psi cuts, which
    sigma = 0 satisfies on the flow box (see the module docstring)."""
    sigma = np.r_[vmap.sigma_pos.ravel(), vmap.sigma_neg.ravel()]
    keep = np.ones(lp.n_rows, dtype=bool)
    keep[lp.A.tocsc()[:, sigma].indices] = False
    ub = lp.ub.copy()
    ub[sigma] = 0.0
    return replace(lp, A=lp.A[keep], lhs=lp.lhs[keep], rhs=lp.rhs[keep], ub=ub)


def _bound_session(lp: LinearProgram, cols: np.ndarray, sign: float):
    """Minimize ``sign`` times each column of ``cols`` over ``lp`` in one
    hot-started HiGHS session, in order, stopping after the first LP that is
    not optimal.  Returns (status, objective, simplex iterations) per LP
    solved, and the session's cold retries; the points and duals are not
    kept."""
    session = HotSession()
    c = np.zeros(lp.n_cols)
    results = []
    for col in cols:
        c[:] = 0.0
        c[col] = sign
        sol = solve_lp(replace(lp, c=c), session)
        results.append((sol.status, sol.objective, sol.simplex_iterations))
        if sol.status != OPTIMAL:
            break
    return results, session.cold_retries


def tighten(problem: Problem, n_v: int, n_f: int) -> tuple[Problem, ObbtReport]:
    """Shrink core-link flow bounds over the relaxation with ``n_v`` new DBVs
    and ``n_f`` AFVs; returns (the tightened Problem, report).

    Terminates when a pass shrinks the total flow-box diameter by less than
    a factor _EPS_TOL, or after _K_MAX passes.  Tree networks have no core
    links and return an equal box with zero LP solves.  A pass builds the
    relaxation over a snapshot of its box and cuts it down to its flow
    polytope (``flow_polytope``: no sigma block, the same optima).  Its LPs
    share their rows and bounds, so each direction is re-solved in one
    hot-started HiGHS session: the lower bounds (min q) on the calling
    thread, the upper bounds (max q) concurrently on one worker thread,
    which is joined before ``tighten`` returns or raises.  A target whose
    hot solve fails is solved cold at tight tolerances (``HotSession.run``).
    The bounds are applied to a working copy of the box in (timestep, link,
    min then max) order, so the first bound LP in that order that is not
    optimal is the one named in the ``InconsistentBounds`` raised.
    """
    report = ObbtReport()
    start = time.perf_counter()
    net, scc_params = problem.net, problem.scc_params
    core = net.core_links
    bounds = problem.bounds.copy()
    if not core:
        report.wall_time = time.perf_counter() - start
        return Problem(net, scc_params, bounds), report

    targets = [(t, j) for t in range(net.n_t) for j in core]
    diam = _flow_diameter(bounds, core)
    report.diam_history.append(diam)
    for _ in range(_K_MAX):
        lp, vmap = build_lp(Problem(net, scc_params, bounds.copy()), n_v, n_f)
        lp = flow_polytope(lp, vmap)
        cols = vmap.q[:, core].ravel()  # in the order of targets
        with ThreadPoolExecutor(1) as pool:
            upper_session = pool.submit(_bound_session, lp, cols, -1.0)
            lower, lower_retries = _bound_session(lp, cols, 1.0)
            upper, upper_retries = upper_session.result()
        # a session stops at its first failure, and this loop raises there
        # before it reads past either session's results
        for i, (t, j) in enumerate(targets):
            for sign, results in ((1.0, lower), (-1.0, upper)):
                status, objective, iterations = results[i]
                report.lp_solves += 1
                report.simplex_iterations += iterations
                if status != OPTIMAL:
                    raise InconsistentBounds(
                        f"bound LP for link {net.links[j].id}, timestep {t} "
                        f"returned {status}")
                if sign > 0:
                    bounds.q_lo[t, j] = min(max(bounds.q_lo[t, j], objective - _OBBT_PAD),
                                            bounds.q_hi[t, j])
                else:
                    bounds.q_hi[t, j] = max(min(bounds.q_hi[t, j], -objective + _OBBT_PAD),
                                            bounds.q_lo[t, j])
        report.cold_retries += lower_retries + upper_retries
        report.iterations += 1
        new_diam = _flow_diameter(bounds, core)
        report.diam_history.append(new_diam)
        if diam <= 0.0 or new_diam / diam >= _EPS_TOL:
            break
        diam = new_diam
    report.wall_time = time.perf_counter() - start
    return Problem(net, scc_params, bounds), report


def tighten_forest(problem: Problem, n_f: int) -> Problem:
    """Exact forest-link flow bounds by aggregating downstream demand.

    Each tree-appendage link carries exactly the demand plus flushing flow
    of the nodes it feeds; the flushing allowance is capped by the number of
    the ``n_f`` AFVs that could land downstream.
    """
    net = problem.net
    bounds = problem.bounds.copy()
    for j in net.forest_links:
        down = list(net.forest_downstream[j])
        slots = min(len(down), n_f)
        # one np.sum per timestep, so each total rounds as a 1-D sum does
        demand = np.array([np.sum(d[down]) for d in net.demands])
        most = demand + slots * bounds.alpha_hi
        new_lo, new_hi = (demand, most) if net.forest_sign[j] > 0 else (-most, -demand)
        bounds.q_lo[:, j] = np.maximum(bounds.q_lo[:, j], new_lo - _BOUND_PAD)
        bounds.q_hi[:, j] = np.minimum(bounds.q_hi[:, j], new_hi + _BOUND_PAD)
        crossed = np.flatnonzero(bounds.q_lo[:, j] > bounds.q_hi[:, j])
        if crossed.size:
            raise InconsistentBounds(
                f"forest bounds crossed on link {net.links[j].id}, timestep {crossed[0]}")
    return Problem(net, problem.scc_params, bounds)
