"""Optimization-based bound tightening for the flow variables.

Each pass solves a min and a max LP per (core link, timestep) over the
current relaxation, shrinks the flow box, and rebuilds the relaxation with
the tighter box.  Forest (tree-appendage) links are handled separately by
demand aggregation, which is exact up to the flushing allowance.
"""
from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InconsistentBounds
from .hydraulics import HeadLossParams
from .lp import OPTIMAL, solve_lp
from .netmodel import NetworkModel, forest_core
from .relax import BoundSet, DesignConfig, build_lp
from .scc import SccParams

# slack added to each forest bound so later LPs stay strictly feasible; the
# bounds are exact demand sums, so a rounding-size pad suffices
_BOUND_PAD = 1e-9
# slack added to each OBBT bound.  An LP value is only as exact as HiGHS's
# 1e-7 primal feasibility tolerance: on the first-pass LPs of
# random_network(60, 20, seed=1), hot re-solves differ from cold solves by up
# to 2.7e-7, and cold solves with and without presolve by 2e-7, so the pad
# must exceed both to keep every bound valid
_OBBT_PAD = 1e-6
# stopping rule of tighten
_EPS_TOL = 0.90
_K_MAX = 3


@dataclass
class ObbtReport:
    iterations: int = 0
    lp_solves: int = 0
    cold_retries: int = 0
    wall_time: float = 0.0
    diam_history: list[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def _flow_diameter(bounds: BoundSet, core_links) -> float:
    if not core_links:
        return 0.0
    idx = list(core_links)
    return float(np.sum(bounds.q_hi[:, idx] - bounds.q_lo[:, idx]))


def tighten(
    net: NetworkModel,
    params: HeadLossParams,
    scc_params: SccParams,
    bounds: BoundSet,
    design: DesignConfig,
) -> tuple[BoundSet, ObbtReport]:
    """Shrink core-link flow bounds; returns (tightened bounds, report).

    Terminates when a pass shrinks the total flow-box diameter by less than
    a factor _EPS_TOL, or after _K_MAX passes.  Tree networks have no core
    links and return unchanged with zero LP solves.  The LPs of a pass share
    their rows and bounds, so they are re-solved in one hot-started HiGHS
    session; a target whose hot solve fails is solved cold.
    """
    report = ObbtReport()
    start = time.perf_counter()
    decomp = forest_core(net)
    core = sorted(decomp.core_links)
    bounds = bounds.copy()
    if not core:
        report.wall_time = time.perf_counter() - start
        return bounds, report

    diam = _flow_diameter(bounds, core)
    report.diam_history.append(diam)
    for _ in range(_K_MAX):
        lp, vmap = build_lp(net, params, scc_params, bounds, design)
        lp = lp.hot_started()
        c = np.zeros(vmap.total)
        for t in range(net.n_t):
            q_idx = vmap.q(t)
            for j in core:
                for sign in (1.0, -1.0):
                    c[:] = 0.0
                    c[q_idx[j]] = sign
                    sol = solve_lp(lp.with_objective(c))
                    report.lp_solves += 1
                    if sol.status != OPTIMAL:
                        raise InconsistentBounds(
                            f"bound LP for link {net.links[j].id}, timestep {t} "
                            f"returned {sol.status}")
                    val = sol.objective if sign > 0 else -sol.objective
                    if sign > 0:
                        bounds.q_lo[t, j] = min(max(bounds.q_lo[t, j], val - _OBBT_PAD),
                                                bounds.q_hi[t, j])
                    else:
                        bounds.q_hi[t, j] = max(min(bounds.q_hi[t, j], val + _OBBT_PAD),
                                                bounds.q_lo[t, j])
        report.cold_retries += lp.session.cold_retries
        report.iterations += 1
        new_diam = _flow_diameter(bounds, core)
        report.diam_history.append(new_diam)
        if diam <= 0.0 or new_diam / diam >= _EPS_TOL:
            break
        diam = new_diam
    report.wall_time = time.perf_counter() - start
    return bounds, report


def tighten_forest(
    net: NetworkModel,
    bounds: BoundSet,
    design: DesignConfig,
) -> BoundSet:
    """Exact forest-link flow bounds by aggregating downstream demand.

    Each tree-appendage link carries exactly the demand plus flushing flow
    of the nodes it feeds; the flushing allowance is capped by the number of
    AFVs that could land downstream.
    """
    decomp = forest_core(net)
    bounds = bounds.copy()
    for j in decomp.forest_links:
        down = list(decomp.forest_downstream[j])
        slots = min(len(down), design.n_f)
        # one np.sum per timestep, so each total rounds as a 1-D sum does
        demand = np.array([np.sum(d[down]) for d in net.demands])
        most = demand + slots * bounds.alpha_hi
        new_lo, new_hi = (demand, most) if decomp.forest_sign[j] > 0 else (-most, -demand)
        bounds.q_lo[:, j] = np.maximum(bounds.q_lo[:, j], new_lo - _BOUND_PAD)
        bounds.q_hi[:, j] = np.minimum(bounds.q_hi[:, j], new_hi + _BOUND_PAD)
        crossed = np.flatnonzero(bounds.q_lo[:, j] > bounds.q_hi[:, j])
        if crossed.size:
            raise InconsistentBounds(
                f"forest bounds crossed on link {net.links[j].id}, timestep {crossed[0]}")
    return bounds
