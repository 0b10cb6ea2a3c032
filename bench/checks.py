"""Correctness checks on a returned design, run outside the timed region."""
from __future__ import annotations

import numpy as np

# Newton stops at a mass residual of 1e-8 m^3/s and an energy residual of
# 1e-6 m; re-solving the returned controls must land within this of the flows
FLOW_ATOL = 1e-7
FLOW_RTOL = 1e-6
# sfscp accepts an iterate whose worst head shortfall is at most 1e-6 m
HEAD_TOL = 1e-6
# slack on the chain uncontrolled <= scc_smooth <= lp_bound (LP tolerance)
CHAIN_TOL = 1e-7
# length weights normalised to 1 can sum to 1 + a few ulps
RANGE_TOL = 1e-12


def check_solution(net, config, sol) -> list[str]:
    """Names of the failed checks; an empty list means the design is valid."""
    from sccopt.hydraulics import headloss_params, simulate
    from sccopt.pipeline import uncontrolled_state
    from sccopt.relax import default_bounds
    from sccopt.scc import SccParams, scc_indicator, scc_smooth

    failed = []
    params = headloss_params(net)
    scc_params = SccParams.from_network(net, u_min=config.u_min, rho=config.rho)
    ctrl = sol.control
    state = simulate(net, params, ctrl.eta, ctrl.alpha)
    if not np.allclose(state.q, ctrl.state.q, rtol=FLOW_RTOL, atol=FLOW_ATOL):
        failed.append("resimulated_flows")
    if abs(scc_smooth(state, net, scc_params) - sol.scc_smooth) > CHAIN_TOL:
        failed.append("resimulated_scc_smooth")
    if scc_indicator(state, net, scc_params) != sol.scc_exact:
        failed.append("resimulated_scc_exact")

    h_lo = default_bounds(net, params, u_max=config.u_max, p_min=config.p_min,
                          alpha_max=config.alpha_max).h_lo
    if np.any(ctrl.state.h < h_lo - HEAD_TOL):
        failed.append("min_head")

    if len(sol.design.dbv_links) != config.n_v:
        failed.append("dbv_count")
    if len(sol.design.afv_nodes) != config.n_f:
        failed.append("afv_count")

    uncontrolled = scc_smooth(uncontrolled_state(net), net, scc_params)
    if not (uncontrolled - CHAIN_TOL <= sol.scc_smooth
            <= sol.lp_upper_bound + CHAIN_TOL):
        failed.append("monotone_chain")
    if not all(-RANGE_TOL <= v <= 1.0 + RANGE_TOL
               for v in (sol.scc_smooth, sol.scc_exact)):
        failed.append("scc_range")
    return failed
