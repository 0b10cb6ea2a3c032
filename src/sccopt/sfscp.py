"""Control optimization for a fixed valve placement.

For each timestep (timesteps are hydraulically independent) the solver
alternates linearize / LP-step / line-search on the smoothed SCC objective,
with a trust box around the iterate.  Valve directions for bidirectional
boundary valves are enumerated per timestep; multiple starting points guard
against the nonconvexity of the objective.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.optimize import Bounds, minimize

from .errors import AllStartsInfeasible, NonConvergence, SingularSystem
from .hydraulics import HeadLossParams, HydraulicState, phi, phi_prime, solve_steady
from .lp import EQ, OPTIMAL, LinearProgram, solve_lp
from .netmodel import NetworkModel
from .relax import BoundSet, DesignConfig
from .sampler import CandidateDesign
from .scc import SccParams, scc_smooth_flows, scc_smooth_grad_flows

_PRESSURE_TOL = 1e-6
_IMPROVE_TOL = 1e-12
# the step LP's trust box is this fraction of each variable's bound width
_TRUST_FRACTION = 0.25
# line-search step halvings before a step is rejected
_MAX_HALVINGS = 12
# restoration penalty weight: starts at _MU0, grows tenfold up to _MU_CAP
_MU0 = 1e2
_MU_CAP = 1e8


@dataclass(frozen=True)
class ValveDesign:
    """Resolved placement: which links carry control valves, which nodes flush.

    PRVs act only in the positive (file) flow direction; DBVs may act in
    either direction, chosen per timestep.
    """

    prv_links: tuple[int, ...] = ()
    dbv_links: tuple[int, ...] = ()
    afv_nodes: tuple[int, ...] = ()

    @classmethod
    def from_candidate(cls, design: DesignConfig, candidate: CandidateDesign) -> "ValveDesign":
        dbv = tuple(sorted(set(design.existing_dbv_links) | set(candidate.dbv_links)))
        return cls(tuple(design.prv_links), dbv, tuple(candidate.afv_nodes))

    @property
    def controllable_links(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.prv_links) | set(self.dbv_links)))


@dataclass
class ControlSolution:
    eta: np.ndarray
    alpha: np.ndarray
    objective: float
    state: HydraulicState
    iterations: int = 0
    start_index: int = 0
    directions: tuple = ()


@dataclass(frozen=True)
class MultiStartConfig:
    """``n_starts`` is a floor, not a cap: every deterministic start runs,
    and uniform random draws only fill the list up to at least n_starts."""

    n_starts: int = 5
    eps_tol: float = 1e-4
    k_max: int = 50
    seed: int | None = None


def _control_box(bounds: BoundSet, t: int, design: ValveDesign,
                 directions: dict[int, int]):
    """Bounds (lo, hi) of the stacked controls x = (eta on the control links,
    alpha on the flushing nodes).  Each eta keeps its valve's direction sign
    (+1 unless given); the np.where forms keep Python's min(0.0, lo) and
    max(0.0, hi) exactly, signed zeros included."""
    ctrl = list(design.controllable_links)
    pos = np.array([directions.get(j, 1) > 0 for j in ctrl], dtype=bool)
    e_lo, e_hi = bounds.eta_lo[t, ctrl], bounds.eta_hi[t, ctrl]
    n_a = len(design.afv_nodes)
    lo = np.where(pos, 0.0, np.where(e_lo < 0.0, e_lo, 0.0))
    hi = np.where(pos, np.where(e_hi > 0.0, e_hi, 0.0), 0.0)
    return (np.concatenate([lo, np.zeros(n_a)]),
            np.concatenate([hi, np.full(n_a, bounds.alpha_hi)]))


def _stack(design: ValveDesign, eta: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """The stacked controls x of full (eta, alpha) arrays."""
    return np.concatenate([eta[list(design.controllable_links)],
                           alpha[list(design.afv_nodes)]])


def _unstack(net: NetworkModel, design: ValveDesign, x: np.ndarray):
    """Full (eta, alpha) arrays of the stacked controls x; zero elsewhere."""
    ctrl = list(design.controllable_links)
    eta = np.zeros(net.n_p)
    eta[ctrl] = x[: len(ctrl)]
    alpha = np.zeros(net.n_n)
    alpha[list(design.afv_nodes)] = x[len(ctrl):]
    return eta, alpha


def _solve_or_none(net, params, d, h0, eta, alpha):
    try:
        return solve_steady(net, params, d, h0, eta, alpha)
    except (NonConvergence, SingularSystem):
        return None


def _pressure_violation(h: np.ndarray, h_lo: np.ndarray) -> float:
    return float(np.max(np.maximum(h_lo - h, 0.0), initial=0.0))


def _adjoint_gradient(net, params, design, q, grad_q, grad_h):
    """Gradient of a function of (q, h) w.r.t. the stacked controls through
    the hydraulic equations.

    The Jacobian [[diag(phi'), A12], [A12^T, 0]] is symmetric, so one solve
    with the value gradient as right-hand side yields both sensitivities.
    """
    g = np.maximum(phi_prime(q, params), 1e-8)
    lam = spla.spsolve(net.kkt(g), np.concatenate([grad_q, grad_h]))
    return _stack(design, -lam[: net.n_p], lam[net.n_p:])


def restore_feasibility(
    net: NetworkModel,
    params: HeadLossParams,
    d: np.ndarray,
    h0: np.ndarray,
    design: ValveDesign,
    directions: dict[int, int],
    eta0: np.ndarray,
    alpha0: np.ndarray,
    bounds: BoundSet,
    t: int,
):
    """Push the controls toward the pressure-feasible set.

    Minimizes the squared hinge of the minimum-head violation over the
    admissible control box, escalating the penalty weight tenfold until the
    violation is within tolerance or the weight cap is reached.  Returns
    (eta, alpha, q, h) or None when restoration fails.
    """
    h_lo = bounds.h_lo[t]
    lo, hi = _control_box(bounds, t, design, directions)

    def penalty(x, mu):
        sol = _solve_or_none(net, params, d, h0, *_unstack(net, design, x))
        if sol is None:
            return 1e20, np.zeros_like(x)
        q, h = sol
        gap = np.maximum(h_lo - h, 0.0)
        val = mu * float(gap @ gap)
        return val, _adjoint_gradient(net, params, design, q,
                                      np.zeros(net.n_p), -2.0 * mu * gap)

    x = np.clip(_stack(design, eta0, alpha0), lo, hi)
    mu = _MU0
    while True:
        if x.size:
            x = minimize(penalty, x, args=(mu,), jac=True, method="L-BFGS-B",
                         bounds=Bounds(lo, hi), options={"maxiter": 200}).x
        eta, alpha = _unstack(net, design, x)
        sol = _solve_or_none(net, params, d, h0, eta, alpha)
        if sol is None:
            return None
        q, h = sol
        if _pressure_violation(h, h_lo) <= _PRESSURE_TOL:
            return eta, alpha, q, h
        if not x.size or mu >= _MU_CAP:
            return None
        mu *= 10.0


def _step_matrix(net, g, ctrl, afv):
    """The step LP's equality rows [[diag(g), A12, E, 0], [A12^T, 0, 0, -F]]
    as CSC: the network's compiled Jacobian, then one unit column per eta
    (+1 on its link's energy row) and per alpha (-1 on its node's mass row)."""
    K = net.kkt(g)
    n_extra = len(ctrl) + len(afv)
    rows = np.array(list(ctrl) + [net.n_p + i for i in afv], dtype=int)
    data = np.concatenate([K.data, np.ones(len(ctrl)), -np.ones(len(afv))])
    indptr = np.concatenate([K.indptr, K.nnz + np.arange(1, n_extra + 1)])
    return sp.csc_matrix((data, np.concatenate([K.indices, rows]), indptr),
                         shape=(K.shape[0], K.shape[1] + n_extra))


def _step_lp(net, params, scc_params, bounds, t, design, directions,
             q_k, h_k, eta_k, alpha_k):
    """Linearized step LP around the current iterate; returns the LP point
    (q, h, eta, alpha) or None when the LP is infeasible.

    Columns are (q, h, eta on control links, alpha on flushing nodes); the
    equality rows are the energy and mass equations linearized at q_k.
    """
    n_q = net.n_p
    # not the adjoint's 1e-8 floor: that would change the LP on zero-loss valves
    dphi = np.maximum(phi_prime(q_k, params), 1e-12)
    A = _step_matrix(net, dphi, design.controllable_links, design.afv_nodes)
    rhs_e = -(net.A10 @ net.source_heads[t]) - phi(q_k, params) + dphi * q_k
    b = np.concatenate([rhs_e, net.demands[t]])

    def box(lo, hi, center):
        # the bound box cut to _TRUST_FRACTION of its width around center
        span = _TRUST_FRACTION * (hi - lo)
        return np.maximum(lo, center - span), np.minimum(hi, center + span)

    q_lo, q_hi = box(bounds.q_lo[t], bounds.q_hi[t], q_k)
    for j in design.controllable_links:
        if j in directions:
            # the valve's flow direction is pinned by its sign
            if directions[j] > 0:
                q_lo[j] = max(q_lo[j], 0.0)
            else:
                q_hi[j] = min(q_hi[j], 0.0)
    x_lo, x_hi = _control_box(bounds, t, design, directions)
    lo, hi = map(np.concatenate, zip(
        (q_lo, q_hi), box(bounds.h_lo[t], bounds.h_hi[t], h_k),
        box(x_lo, x_hi, np.clip(_stack(design, eta_k, alpha_k), x_lo, x_hi))))

    c = np.zeros(A.shape[1])
    c[:n_q] = -scc_smooth_grad_flows(q_k[None, :], net, scc_params)[0]
    # a pinned direction or an iterate outside its bounds can invert a box
    sol = solve_lp(LinearProgram(c, A, np.full(len(b), EQ), b,
                                 np.minimum(lo, hi), np.maximum(lo, hi)))
    if sol.status != OPTIMAL:
        return None
    q, h, x = np.split(sol.x, [n_q, n_q + net.n_n])
    return q, h, *_unstack(net, design, x)


def sfscp_timestep(
    net: NetworkModel,
    params: HeadLossParams,
    scc_params: SccParams,
    bounds: BoundSet,
    design: ValveDesign,
    directions: dict[int, int],
    t: int,
    eta0: np.ndarray,
    alpha0: np.ndarray,
    config: MultiStartConfig,
    trace: list | None = None,
):
    """One timestep, one direction assignment, one start.

    Returns (eta, alpha, q, h, objective, iterations) or None when the start
    cannot be made feasible; iterations counts the accepted iterates.  When
    given, ``trace`` receives one (iteration, objective, beta) row per
    accepted iterate, after a row 0 for the start.
    """
    d, h0 = net.demands[t], net.source_heads[t]
    lo, hi = _control_box(bounds, t, design, directions)
    eta, alpha = _unstack(net, design, np.clip(_stack(design, eta0, alpha0), lo, hi))

    sol = _solve_or_none(net, params, d, h0, eta, alpha)
    if sol is None or _pressure_violation(sol[1], bounds.h_lo[t]) > _PRESSURE_TOL:
        restored = restore_feasibility(net, params, d, h0, design, directions,
                                       eta, alpha, bounds, t)
        if restored is None:
            return None
        eta, alpha, q, h = restored
    else:
        q, h = sol

    f = scc_smooth_flows(q[None, :], net, scc_params)
    if trace is not None:
        trace.append((0, f, 0.0))
    iters = 0
    for _ in range(config.k_max):
        step = _step_lp(net, params, scc_params, bounds, t, design, directions,
                        q, h, eta, alpha)
        if step is None:
            break
        _, _, eta_lp, alpha_lp = step
        beta = 1.0
        accepted = False
        for _ in range(_MAX_HALVINGS):
            eta_try = eta + beta * (eta_lp - eta)
            alpha_try = alpha + beta * (alpha_lp - alpha)
            sol = _solve_or_none(net, params, d, h0, eta_try, alpha_try)
            if sol is not None:
                q_try, h_try = sol
                f_try = scc_smooth_flows(q_try[None, :], net, scc_params)
                if (f_try > f + _IMPROVE_TOL
                        and _pressure_violation(h_try, bounds.h_lo[t]) <= _PRESSURE_TOL):
                    accepted = True
                    break
            beta *= 0.5
        if not accepted:
            break
        gain = f_try - f
        eta, alpha, q, h, f = eta_try, alpha_try, q_try, h_try, f_try
        iters += 1
        if trace is not None:
            trace.append((iters, f, beta))
        if gain <= config.eps_tol:
            break
    return eta, alpha, q, h, f, iters


def enumerate_dbv_directions(
    net: NetworkModel,
    params: HeadLossParams,
    scc_params: SccParams,
    bounds: BoundSet,
    design: ValveDesign,
    t: int,
    eta0: np.ndarray,
    alpha0: np.ndarray,
    config: MultiStartConfig,
):
    """Best result over the 2^n_dbv direction assignments for one timestep."""
    best = None
    dbv = list(design.dbv_links)
    for signs in itertools.product((1, -1), repeat=len(dbv)):
        directions = dict(zip(dbv, signs))
        res = sfscp_timestep(net, params, scc_params, bounds, design,
                             directions, t, eta0, alpha0, config)
        if res is None:
            continue
        if best is None or res[4] > best[0][4]:
            best = (res, signs)
    return best


def multi_start(
    net: NetworkModel,
    params: HeadLossParams,
    scc_params: SccParams,
    bounds: BoundSet,
    design: ValveDesign,
    config: MultiStartConfig,
    eta_seed: np.ndarray | None = None,
    extra_seeds=(),
) -> ControlSolution:
    """Run the per-timestep solver from several starts; keep the best.

    The start list is: the relaxation eta seed (when given), the caller's
    eta seeds in ``extra_seeds`` (each starts with no flushing), the
    deterministic flushing and throttle starts, then uniform random draws to
    fill up to n_starts.  Raises AllStartsInfeasible when no start yields a
    feasible horizon.
    """
    ctrl, afv = list(design.controllable_links), list(design.afv_nodes)
    alpha_full = np.zeros((net.n_t, net.n_n))
    alpha_full[:, afv] = bounds.alpha_hi
    seeds: list[tuple[np.ndarray, np.ndarray]] = []
    if eta_seed is not None:
        # the relaxation seed starts with flushing at the cap: the objective
        # rewards high velocity, so the bound is the natural first guess
        seeds.append((np.atleast_2d(np.asarray(eta_seed, dtype=float)), alpha_full))
    for s in extra_seeds:
        seeds.append((np.atleast_2d(np.asarray(s, dtype=float)),
                      np.zeros((net.n_t, net.n_n))))
    if afv:
        seeds.append((np.zeros((net.n_t, net.n_p)), alpha_full))
    # aggressive-throttle starts: the objective landscape has a second basin
    # near the upper eta bound that small trust-region steps from zero cannot
    # reach, so seed it deterministically at the bound and at half the bound
    if ctrl:
        for frac in (1.0, 0.5):
            e = np.zeros((net.n_t, net.n_p))
            e[:, ctrl] = frac * bounds.eta_hi[:, ctrl]
            seeds.append((e, alpha_full))
    n_random = max(config.n_starts - len(seeds), 0 if seeds else 1)
    child_seqs = np.random.SeedSequence(config.seed).spawn(max(n_random, 1))
    for k in range(n_random):
        rng = np.random.default_rng(child_seqs[k])
        draw = np.zeros((net.n_t, net.n_p))
        for j in ctrl:
            lo = np.minimum(bounds.eta_lo[:, j], 0.0)
            hi = np.maximum(bounds.eta_hi[:, j], 0.0)
            draw[:, j] = rng.uniform(lo, hi)
        a_draw = np.zeros((net.n_t, net.n_n))
        if afv:
            a_draw[:, afv] = rng.uniform(0.0, bounds.alpha_hi, size=(net.n_t, len(afv)))
        seeds.append((draw, a_draw))

    best: ControlSolution | None = None
    for s_idx, (eta0, alpha0) in enumerate(seeds):
        eta = np.zeros((net.n_t, net.n_p))
        alpha = np.zeros((net.n_t, net.n_n))
        q = np.zeros((net.n_t, net.n_p))
        h = np.zeros((net.n_t, net.n_n))
        total_iters = 0
        dirs: list[tuple] = []
        feasible = True
        for t in range(net.n_t):
            res = enumerate_dbv_directions(
                net, params, scc_params, bounds, design, t,
                eta0[t], alpha0[t], config)
            if res is None:
                feasible = False
                break
            (eta[t], alpha[t], q[t], h[t], _, it), signs = res
            total_iters += it
            dirs.append(signs)
        if not feasible:
            continue
        state = HydraulicState(q, h, eta, alpha)
        objective = scc_smooth_flows(q, net, scc_params)
        if best is None or objective > best.objective:
            best = ControlSolution(eta, alpha, objective, state,
                                   total_iters, s_idx, tuple(dirs))
    if best is None:
        raise AllStartsInfeasible(
            f"no feasible control found across {len(seeds)} starts")
    return best


def reduced_gradient(
    net: NetworkModel,
    params: HeadLossParams,
    scc_params: SccParams,
    state: HydraulicState,
    design: ValveDesign,
    t: int,
):
    """Gradient of the smoothed SCC w.r.t. (eta on control links, alpha on
    flushing nodes) at a solved state; a stationarity diagnostic."""
    grad_q = scc_smooth_grad_flows(state.q[t][None, :], net, scc_params)[0]
    g = _adjoint_gradient(net, params, design, state.q[t], grad_q, np.zeros(net.n_n))
    n_c = len(design.controllable_links)
    return g[:n_c], g[n_c:]
