"""End-to-end driver: bound tightening, relaxation, randomized candidate
placements, control optimization per candidate, and result persistence.
"""
from __future__ import annotations

import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import obbt as obbt_mod
from .errors import AllStartsInfeasible
from .hydraulics import headloss_params, simulate, HydraulicState
from .lp import solve_lp, OPTIMAL
from .netmodel import NetworkModel
from .relax import Problem, build_lp, default_bounds, extract_fractional, lp_bound
from .sampler import blend_uniform, sample_designs, write_candidates_csv
from .scc import SccParams, azp, scc_indicator, velocity_cdf, write_velocity_cdf_csv
from .sfscp import ControlSolution, ValveDesign, multi_start


@dataclass(frozen=True)
class RunConfig:
    """The settings of a design/control run: valve counts, sampling, starts,
    seed, OBBT on or off, and the SCC and bound parameters.  The OBBT and SCP
    stopping rules are constants of their modules.  ``n_v`` and ``n_f`` count
    the valves a design adds and must be non-negative, ``n_samples`` and
    ``n_starts`` at least 1, ``seed`` None or non-negative, ``u_min``,
    ``rho`` and ``u_max`` positive, and ``p_min`` and ``alpha_max``
    non-negative; NaN fails every check.  ``n_starts`` is a floor, not a cap:
    ``sfscp.multi_start``'s deterministic starts always run, so a value
    below their count changes nothing."""

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
        for name, ok, need in (("n_v", self.n_v >= 0, "a non-negative value"),
                               ("n_f", self.n_f >= 0, "a non-negative value"),
                               ("n_samples", self.n_samples >= 1, "at least 1"),
                               ("n_starts", self.n_starts >= 1, "at least 1"),
                               ("seed", self.seed is None or self.seed >= 0,
                                "None or a non-negative value"),
                               ("u_min", self.u_min > 0, "a positive value"),
                               ("rho", self.rho > 0, "a positive value"),
                               ("u_max", self.u_max > 0, "a positive value"),
                               ("p_min", self.p_min >= 0, "a non-negative value"),
                               ("alpha_max", self.alpha_max >= 0, "a non-negative value")):
            if not ok:
                raise ValueError(f"{name} = {getattr(self, name)}: need {need}")


@dataclass
class CmsSolution:
    design: ValveDesign
    control: ControlSolution
    scc_smooth: float
    scc_exact: float
    azp: float
    lp_upper_bound: float | None = None
    obbt_report: dict | None = None
    # the (dbv_links, afv_nodes) each candidate adds to the network's valves
    candidates: list[tuple[tuple[int, ...], tuple[int, ...]]] = field(default_factory=list)
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
            "starts": list(self.control.starts),
            "directions": [list(signs) for signs in self.control.directions],
            "eta": self.control.eta.tolist(),
            "alpha": self.control.alpha.tolist(),
            "flows": self.control.state.q.tolist(),
            "heads": self.control.state.h.tolist(),
            "wall_time": self.wall_time,
        }


def default_problem(net: NetworkModel, config: RunConfig) -> Problem:
    """The untightened model of a run: the SCC parameters and default box of
    ``config`` under ``net``'s head-loss law."""
    return Problem(net, SccParams.from_network(net, u_min=config.u_min, rho=config.rho),
                   default_bounds(net, headloss_params(net), u_max=config.u_max,
                                  p_min=config.p_min, alpha_max=config.alpha_max))


def tightened_bounds(net: NetworkModel, config: RunConfig):
    """The model of a design run and its OBBT report: (Problem, report).  The
    box is the default box with the forest links tightened exactly and, when
    ``config.use_obbt``, the core links by OBBT; the report is None when OBBT
    is off.  Raises ValueError when the network cannot hold ``config.n_v``
    new DBVs or ``config.n_f`` AFVs."""
    n_v, n_f = config.n_v, config.n_f
    if n_v > len(net.free_links):
        raise ValueError(f"n_v = {n_v} exceeds the {len(net.free_links)} links "
                         "that can take a new DBV")
    if n_f > net.n_n:
        raise ValueError(f"n_f = {n_f} exceeds the {net.n_n} demand nodes")
    problem = obbt_mod.tighten_forest(default_problem(net, config), n_f)
    if not config.use_obbt:
        return problem, None
    return obbt_mod.tighten(problem, n_v, n_f)


def _finish(problem, design, control, start, **extra) -> CmsSolution:
    return CmsSolution(
        design=design,
        control=control,
        scc_smooth=control.objective,
        scc_exact=scc_indicator(control.state, problem.net, problem.scc_params),
        azp=azp(control.state, problem.net),
        wall_time=time.perf_counter() - start,
        **extra,
    )


def uncontrolled_state(net: NetworkModel) -> HydraulicState:
    """Simulate with all controls at zero (valves wide open, no flushing)."""
    return simulate(net, headloss_params(net))


def run_control_only(net: NetworkModel, config: RunConfig) -> CmsSolution:
    """Optimize settings of the existing valves only (no new hardware),
    from ``sfscp.multi_start``'s starts.  It solves over its own
    ``default_problem``, whose cached states no other call sees.
    """
    start = time.perf_counter()
    problem = default_problem(net, config)
    design = ValveDesign.from_network(net)
    control = multi_start(problem, design, config.n_starts, config.seed)
    return _finish(problem, design, control, start)


# the inputs every candidate's control solve shares, (Problem, designs,
# config, eta seed, extra seeds), in a candidate worker process
_RUN: tuple | None = None


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _start_worker(*run) -> None:
    global _RUN
    _RUN = run


def _solve_candidate(i: int, run: tuple | None = None) -> ControlSolution | None:
    """Candidate ``i``'s best control, or None when no start is feasible;
    ``run`` defaults to the inputs the worker process was started with."""
    problem, designs, config, eta_seed, extra = run or _RUN
    try:
        return multi_start(problem, designs[i], config.n_starts, config.seed,
                           eta_seed=eta_seed, extra_seeds=extra)
    except AllStartsInfeasible:
        return None


def _solve_candidates(problem: Problem, designs: list[ValveDesign], config: RunConfig,
                      eta_seed, extra) -> list[ControlSolution | None]:
    """Each design's best control, or None when it has no feasible start, in
    the designs' order.

    The designs are solved by min(len(designs), usable CPUs) worker
    processes forked from this one, which inherit the inputs unpickled, so
    each worker keeps one copy of the Problem's cached states over the
    designs it solves.  Every cache entry is a pure function of its key, so
    the results do not depend on which worker solves which design.  With
    one worker this process solves them itself.  The workers are joined
    before this returns or raises.
    """
    run = (problem, designs, config, eta_seed, extra)
    workers = min(len(designs), _usable_cpus())
    if workers == 1:
        return [_solve_candidate(i, run) for i in range(len(designs))]
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_start_worker, initargs=run) as pool:
        return list(pool.map(_solve_candidate, range(len(designs))))


def run_cms(net: NetworkModel, config: RunConfig,
            warm_control: CmsSolution | None = None) -> CmsSolution:
    """Full design-plus-control optimization.

    Tightens bounds, solves the relaxation for an upper bound and fractional
    placements, samples candidate placements, optimizes controls for each
    candidate from ``sfscp.multi_start``'s starts and the relaxation seed,
    and returns the best.  The settings-only solution, when given, is
    injected as an extra start, so the result never scores below it.  The
    candidates are solved in worker processes forked from this one, one per
    usable CPU and at most one per candidate, or in this process when that
    count is 1; every worker is joined before this returns or raises.
    Every candidate's control solve runs on the one tightened Problem, so
    the candidates one worker solves share its cached states; no other call
    does.  The winner is the first candidate with the highest score.  Raises
    AllStartsInfeasible when the relaxation is not solved to optimality or
    no candidate admits a feasible control.
    """
    start = time.perf_counter()
    problem, report = tightened_bounds(net, config)
    lp, vmap = build_lp(problem, config.n_v, config.n_f)
    sol = solve_lp(lp)
    if sol.status != OPTIMAL:
        raise AllStartsInfeasible(f"relaxation is {sol.status}")
    y_frac, z_frac, eta_seed = extract_fractional(sol, vmap, net)
    upper = lp_bound(sol)

    candidates = sample_designs(blend_uniform(y_frac, range(net.n_n)),
                                blend_uniform(z_frac, net.free_links),
                                config.n_v, config.n_f, config.n_samples, seed=config.seed)
    extra = [] if warm_control is None else [warm_control.control.eta]

    designs = [ValveDesign.from_network(net, dbv, afv) for dbv, afv in candidates]
    controls = _solve_candidates(problem, designs, config, eta_seed, extra)
    best: tuple[float, ValveDesign, ControlSolution] | None = None
    scores = [None if c is None else c.objective for c in controls]
    for design, control in zip(designs, controls):
        if control is not None and (best is None or control.objective > best[0]):
            best = (control.objective, design, control)
    if best is None:
        raise AllStartsInfeasible("no sampled placement admits a feasible control")

    return _finish(problem, best[1], best[2], start,
                   lp_upper_bound=upper,
                   obbt_report=None if report is None else asdict(report),
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
    run tightened bounds, obbt_report.json; when it did not, remove an
    obbt_report.json an earlier run left in ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "solution.json", "w") as f:
        json.dump(solution.to_dict(net), f, indent=2)
    with open(out / "candidates.csv", "w") as f:
        write_candidates_csv(solution.candidates, f, solution.candidate_scores)
    with open(out / "velocity_cdf.csv", "w") as f:
        write_velocity_cdf_csv(velocity_cdf(solution.control.state, net), f)
    if solution.obbt_report is None:
        (out / "obbt_report.json").unlink(missing_ok=True)
    else:
        with open(out / "obbt_report.json", "w") as f:
            json.dump(solution.obbt_report, f, indent=2)
