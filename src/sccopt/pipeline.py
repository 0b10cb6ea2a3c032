"""End-to-end driver: bound tightening, relaxation, randomized candidate
placements, control optimization per candidate, and result persistence.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import obbt as obbt_mod
from .errors import AllStartsInfeasible
from .hydraulics import headloss_params, simulate, HydraulicState
from .lp import solve_lp, OPTIMAL
from .netmodel import NetworkModel
from .relax import DesignConfig, build_lp, default_bounds, extract_fractional, lp_bound
from .sampler import (CandidateDesign, blend_uniform, sample_designs,
                      write_candidates_csv)
from .scc import SccParams, azp, scc_indicator, scc_smooth, velocity_cdf, write_velocity_cdf_csv
from .sfscp import ControlSolution, RunMemo, ValveDesign, multi_start

# the weight of the uniform distribution in each placement's sampling
# distribution; the relaxation's fractional values get the rest
_EXPLORE = 0.5


@dataclass(frozen=True)
class RunConfig:
    """The settings of a design/control run: valve counts, sampling, starts,
    seed, OBBT on or off, and the SCC and bound parameters.  The OBBT and SCP
    stopping rules are constants of their modules.  ``n_samples`` must be at
    least 1.  ``n_starts`` is a floor, not a cap: the deterministic control
    starts always run (five with n_v, n_f >= 1 in ``run_cms``), so a smaller
    value changes nothing."""

    n_v: int = 0
    n_f: int = 0
    n_samples: int = 50
    n_starts: int = 5
    seed: int | None = None
    use_obbt: bool = True
    u_min: float = 0.2
    rho: float = 50.0
    u_max: float = 3.0
    p_min: float = 15.0
    alpha_max: float = 0.025

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError(f"n_samples = {self.n_samples}: need at least 1")


@dataclass
class CmsSolution:
    design: ValveDesign
    control: ControlSolution
    scc_smooth: float
    scc_exact: float
    azp: float
    lp_upper_bound: float | None = None
    obbt_report: dict | None = None
    candidates: list[CandidateDesign] = field(default_factory=list)
    candidate_scores: list[float | None] = field(default_factory=list)
    wall_time: float = 0.0

    def to_dict(self, net: NetworkModel) -> dict:
        return {
            "dbv_links": [net.links[j].id for j in self.design.dbv_links],
            "prv_links": [net.links[j].id for j in self.design.prv_links],
            "afv_nodes": [net.nodes[i].id for i in self.design.afv_nodes],
            "scc_smooth": self.scc_smooth,
            "scc_exact": self.scc_exact,
            "azp": self.azp,
            "lp_upper_bound": self.lp_upper_bound,
            "eta": self.control.eta.tolist(),
            "alpha": self.control.alpha.tolist(),
            "flows": self.control.state.q.tolist(),
            "heads": self.control.state.h.tolist(),
            "wall_time": self.wall_time,
        }


def _prepare(net: NetworkModel, config: RunConfig):
    params = headloss_params(net)
    scc_params = SccParams.from_network(net, u_min=config.u_min, rho=config.rho)
    bounds = default_bounds(net, params, u_max=config.u_max,
                            p_min=config.p_min, alpha_max=config.alpha_max)
    return params, scc_params, bounds


def tightened_bounds(net: NetworkModel, config: RunConfig):
    """The model of a design run: (head-loss parameters, SCC parameters,
    design config, bounds, OBBT report).  The bounds are the default box with
    the forest links tightened exactly and, when ``config.use_obbt``, the
    core links by OBBT; the report is None when OBBT is off."""
    params, scc_params, bounds = _prepare(net, config)
    dcfg = DesignConfig.from_network(net, n_v=config.n_v, n_f=config.n_f)
    bounds = obbt_mod.tighten_forest(net, bounds, dcfg)
    report = None
    if config.use_obbt:
        bounds, report = obbt_mod.tighten(net, params, scc_params, bounds, dcfg)
    return params, scc_params, dcfg, bounds, report


def _finish(net, scc_params, design, control, start, **extra) -> CmsSolution:
    return CmsSolution(
        design=design,
        control=control,
        scc_smooth=control.objective,
        scc_exact=scc_indicator(control.state, net, scc_params),
        azp=azp(control.state, net),
        wall_time=time.perf_counter() - start,
        **extra,
    )


def uncontrolled_state(net: NetworkModel) -> HydraulicState:
    """Simulate with all controls at zero (valves wide open, no flushing)."""
    params = headloss_params(net)
    return simulate(net, params)


def run_control_only(net: NetworkModel, config: RunConfig) -> CmsSolution:
    """Optimize settings of the existing valves only (no new hardware).

    The all-open control is always among the starts, so the result never
    scores below the uncontrolled network.  Its one ``multi_start`` call
    makes its own memo.
    """
    start = time.perf_counter()
    params, scc_params, bounds = _prepare(net, config)
    dcfg = DesignConfig.from_network(net)
    design = ValveDesign.from_candidate(dcfg, CandidateDesign((), ()))
    control = multi_start(net, params, scc_params, bounds, design,
                          config.n_starts, config.seed,
                          extra_seeds=[np.zeros((net.n_t, net.n_p))])
    return _finish(net, scc_params, design, control, start)


def run_cms(net: NetworkModel, config: RunConfig,
            warm_control: CmsSolution | None = None) -> CmsSolution:
    """Full design-plus-control optimization.

    Tightens bounds, solves the relaxation for an upper bound and fractional
    placements, samples candidate placements, optimizes controls for each
    candidate, and returns the best.  The all-open control and (when given)
    the settings-only solution are injected as extra starts, so the result
    never scores below either.  One memo serves every candidate's control
    solve, since the bounds are final once OBBT has run.
    """
    start = time.perf_counter()
    params, scc_params, dcfg, bounds, report = tightened_bounds(net, config)
    lp, vmap = build_lp(net, params, scc_params, bounds, dcfg)
    sol = solve_lp(lp)
    if sol.status != OPTIMAL:
        raise AllStartsInfeasible(f"relaxation is {sol.status}")
    y_frac, z_frac, eta_seed = extract_fractional(sol, vmap, dcfg)
    upper = lp_bound(sol)

    if config.n_v == 0 and config.n_f == 0:
        candidates = [CandidateDesign((), ())]
    else:
        z_mix = blend_uniform(z_frac, dcfg.free_links(net), _EXPLORE)
        y_mix = blend_uniform(y_frac, range(net.n_n), _EXPLORE)
        candidates = sample_designs(y_mix, z_mix, config.n_v, config.n_f,
                                    config.n_samples, seed=config.seed)

    extra = [np.zeros((net.n_t, net.n_p))]
    if warm_control is not None:
        extra.append(warm_control.control.eta)

    memo = RunMemo()
    best: tuple[float, ValveDesign, ControlSolution] | None = None
    scores: list[float | None] = []
    for cand in candidates:
        design = ValveDesign.from_candidate(dcfg, cand)
        try:
            control = multi_start(net, params, scc_params, bounds, design,
                                  config.n_starts, config.seed, eta_seed=eta_seed,
                                  extra_seeds=extra, memo=memo)
        except AllStartsInfeasible:
            scores.append(None)
            continue
        scores.append(control.objective)
        if best is None or control.objective > best[0]:
            best = (control.objective, design, control)
    if best is None:
        raise AllStartsInfeasible("no sampled placement admits a feasible control")

    return _finish(net, scc_params, best[1], best[2], start,
                   lp_upper_bound=upper,
                   obbt_report=None if report is None else report.to_dict(),
                   candidates=candidates, candidate_scores=scores)


# ---------------------------------------------------------------------------
# Performance profiles
# ---------------------------------------------------------------------------


def performance_profile(scores: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Dolan-More profile for a cost table (lower is better).

    scores is (n_problems, n_solvers); +inf or NaN marks failure.  The ratio
    of solver s on problem p is f_{p,s} / min_s f_{p,s}; rho[k, s] is the
    fraction of problems solved within ratio taus[k].
    """
    scores = np.asarray(scores, dtype=float)
    scores = np.where(np.isnan(scores), np.inf, scores)
    n_prob, n_solv = scores.shape
    ratios = np.full_like(scores, np.inf)
    for p in range(n_prob):
        row = scores[p]
        ok = np.isfinite(row)
        if not ok.any():
            continue
        best = np.min(row[ok])
        ratios[p, ok] = row[ok] / best if best > 0 else np.where(row[ok] == best, 1.0, np.inf)
    rho = np.empty((len(taus), n_solv))
    for k, tau in enumerate(taus):
        rho[k] = np.mean(ratios <= tau, axis=0)
    return rho


def write_profile_csv(taus, rho, solver_names, fileobj):
    fileobj.write("tau," + ",".join(solver_names) + "\n")
    for k, tau in enumerate(taus):
        fileobj.write(f"{tau:.10g}," + ",".join(f"{v:.10g}" for v in rho[k]) + "\n")


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_results(solution: CmsSolution, net: NetworkModel, out_dir) -> None:
    """Write solution.json, candidates.csv, velocity_cdf.csv and, when the
    run tightened bounds, obbt_report.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "solution.json", "w") as f:
        json.dump(solution.to_dict(net), f, indent=2)
    with open(out / "candidates.csv", "w") as f:
        write_candidates_csv(solution.candidates, f, solution.candidate_scores)
    with open(out / "velocity_cdf.csv", "w") as f:
        write_velocity_cdf_csv(velocity_cdf(solution.control.state, net), f)
    if solution.obbt_report is not None:
        with open(out / "obbt_report.json", "w") as f:
            json.dump(solution.obbt_report, f, indent=2)
