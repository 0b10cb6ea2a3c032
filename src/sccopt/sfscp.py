"""Control optimization for a fixed valve placement.

For each timestep (timesteps are hydraulically independent) the solver
alternates linearize / LP-step / line-search on the smoothed SCC objective,
with a trust box around the iterate.  Valve directions for bidirectional
boundary valves are enumerated per timestep; multiple starting points guard
against the nonconvexity of the objective.

``multi_start`` compiles each (timestep, direction assignment) pair once into
a read-only ``Subproblem``.  Restoration, the step LP and the line search
work on its stacked controls x = (eta on the controllable links, alpha at the
flushing nodes) inside its control box.

Starts, candidates and valve directions reach the same points again and
again, so the hydraulic solves and step LPs of one run go through a
``RunMemo``, keyed on the exact bytes of their inputs: each distinct call is
made once per run, failures included, and a repeat returns the stored
read-only arrays.  A state's key holds no design, so hits cross candidates.
``run_cms`` shares one memo across its candidates; nothing outlives the run.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

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
# the SCP stops once an accepted iterate gains at most _EPS_TOL, or after
# _K_MAX iterates
_EPS_TOL = 1e-4
_K_MAX = 50


def _index(items) -> np.ndarray:
    """A read-only index array of ``items``."""
    a = np.array(items, dtype=np.intp)
    a.flags.writeable = False
    return a


def _read_only(arrays) -> tuple:
    """``arrays`` as a tuple, each made read-only in place."""
    for a in arrays:
        a.flags.writeable = False
    return tuple(arrays)


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

    @cached_property
    def controllable_links(self) -> np.ndarray:
        """The PRV and DBV links, sorted, as a read-only index array."""
        return _index(sorted(set(self.prv_links) | set(self.dbv_links)))

    @cached_property
    def flushing_nodes(self) -> np.ndarray:
        """``afv_nodes`` as a read-only index array."""
        return _index(self.afv_nodes)


@dataclass
class ControlSolution:
    eta: np.ndarray
    alpha: np.ndarray
    objective: float
    state: HydraulicState
    iterations: int = 0
    start_index: int = 0
    directions: tuple = ()


@dataclass
class RunMemo:
    """The hydraulic states and step-LP points of one run.

    ``states`` maps (t, eta bytes + alpha bytes), on the full arrays, to the
    read-only (q, h), or to None when Newton failed.  ``steps`` maps (t,
    design, signs, q_k bytes + h_k bytes + x_k bytes) to the read-only LP
    point (q, h, x), or to None when the LP was not optimal.  Valid only
    while the network, head-loss and SCC parameters and bounds stay fixed.
    """

    states: dict = field(default_factory=dict)
    steps: dict = field(default_factory=dict)


class Subproblem:
    """One timestep's control problem for one valve design and one DBV
    direction assignment, compiled once; every array is read-only.

    ``signs`` holds one direction, +1 or -1, per link of ``design.dbv_links``.
    The controls are stacked as x = (eta on ``ctrl``, alpha at ``afv``) in
    the box [lo, hi]: a DBV's eta takes its sign, a PRV's is non-negative,
    and alpha lies in [0, alpha_hi].  Each DBV pins its link's flow to its
    sign in the step LP (``pin_pos``, ``pin_neg``); PRV flows stay free.
    The step LP's matrix is the network's compiled Jacobian pattern followed
    by one unit column per entry of x (``step_*``).  Its solves and step
    LPs are looked up in, and stored to, ``memo``.
    """

    def __init__(self, net: NetworkModel, params: HeadLossParams, scc_params: SccParams,
                 bounds: BoundSet, design: ValveDesign, t: int, signs: tuple[int, ...],
                 memo: RunMemo):
        self.net, self.params, self.scc_params = net, params, scc_params
        self.design, self.t, self.signs, self.memo = design, t, tuple(signs), memo
        self.ctrl, self.afv = ctrl, afv = design.controllable_links, design.flushing_nodes
        self.d, self.h0 = np.array(net.demands[t]), np.array(net.source_heads[t])
        self.q_lo, self.q_hi = np.array(bounds.q_lo[t]), np.array(bounds.q_hi[t])
        self.h_lo, self.h_hi = np.array(bounds.h_lo[t]), np.array(bounds.h_hi[t])
        dbv, sign = np.array(design.dbv_links, dtype=np.intp), np.array(signs)
        self.pin_pos, self.pin_neg = np.zeros((2, net.n_p), dtype=bool)
        self.pin_pos[dbv[sign > 0]] = True
        self.pin_neg[dbv[sign < 0]] = True
        pos = ~self.pin_neg[ctrl]
        # the np.where forms keep Python's min(0.0, lo) and max(0.0, hi)
        # exactly, signed zeros included
        e_lo, e_hi = bounds.eta_lo[t, ctrl], bounds.eta_hi[t, ctrl]
        self.lo = np.concatenate([np.where(pos, 0.0, np.where(e_lo < 0.0, e_lo, 0.0)),
                                  np.zeros(len(afv))])
        self.hi = np.concatenate([np.where(pos, np.where(e_hi > 0.0, e_hi, 0.0), 0.0),
                                  np.full(len(afv), bounds.alpha_hi)])
        self.energy_rhs = -(net.A10 @ self.h0)
        self.step_data = np.concatenate([net.kkt_template, np.ones(len(ctrl)),
                                         -np.ones(len(afv))])
        self.step_indices = np.concatenate([net.kkt_indices, ctrl, net.n_p + afv])
        self.step_indptr = np.concatenate(
            [net.kkt_indptr, net.kkt_indptr[-1] + np.arange(1, len(self.lo) + 1)])
        for a in vars(self).values():
            if isinstance(a, np.ndarray):
                a.flags.writeable = False

    def unstack(self, x: np.ndarray):
        """Full (eta, alpha) arrays of the stacked controls x; zero elsewhere."""
        eta = np.zeros(self.net.n_p)
        eta[self.ctrl] = x[: len(self.ctrl)]
        alpha = np.zeros(self.net.n_n)
        alpha[self.afv] = x[len(self.ctrl):]
        return eta, alpha

    def solve(self, x: np.ndarray):
        """Steady state (q, h) at the controls x, read-only, or None when
        Newton fails; solved once per distinct (t, eta, alpha) in the memo."""
        eta, alpha = self.unstack(x)
        states = self.memo.states
        key = (self.t, eta.tobytes() + alpha.tobytes())
        if key not in states:
            try:
                states[key] = _read_only(solve_steady(self.net, self.params, self.d,
                                                      self.h0, eta, alpha))
            except (NonConvergence, SingularSystem):
                states[key] = None
        return states[key]

    def gradient(self, q: np.ndarray, grad_q: np.ndarray, grad_h: np.ndarray) -> np.ndarray:
        """Gradient w.r.t. x of a function of (q, h) with gradients (grad_q,
        grad_h), through the hydraulic equations at the flows q.

        The Jacobian [[diag(phi'), A12], [A12^T, 0]] is symmetric, so one
        solve with the value gradient as right-hand side yields both
        sensitivities.
        """
        g = np.maximum(phi_prime(q, self.params), 1e-8)
        lam = spla.spsolve(self.net.kkt(g), np.concatenate([grad_q, grad_h]))
        return np.concatenate([-lam[self.ctrl], lam[self.net.n_p + self.afv]])

    def step_matrix(self, g: np.ndarray) -> sp.csc_matrix:
        """The step LP's equality rows [[diag(g), A12, E, 0], [A12^T, 0, 0, -F]]
        as CSC: E has +1 on each eta's link row, F +1 on each alpha's node row."""
        data = self.step_data.copy()
        data[self.net.kkt_indptr[:self.net.n_p]] = g
        n = self.net.n_p + self.net.n_n
        return sp.csc_matrix((data, self.step_indices, self.step_indptr),
                             shape=(n, n + len(self.lo)))

    def flow_box(self, q_k: np.ndarray):
        """The step LP's flow bounds: the trust box around q_k, with each
        pinned flow kept on its valve's side of zero as Python's max(lo, 0.0)
        and min(hi, 0.0) would."""
        q_lo, q_hi = _trust_box(self.q_lo, self.q_hi, q_k)
        return (np.where(self.pin_pos & (q_lo < 0.0), 0.0, q_lo),
                np.where(self.pin_neg & (q_hi > 0.0), 0.0, q_hi))


def _trust_box(lo, hi, center):
    """The bound box [lo, hi] cut to _TRUST_FRACTION of its width around center."""
    span = _TRUST_FRACTION * (hi - lo)
    return np.maximum(lo, center - span), np.minimum(hi, center + span)


def _pressure_violation(h: np.ndarray, h_lo: np.ndarray) -> float:
    return float(np.max(np.maximum(h_lo - h, 0.0), initial=0.0))


def restore_feasibility(sub: Subproblem, x0: np.ndarray):
    """Push the controls toward the pressure-feasible set.

    Minimizes the squared hinge of the minimum-head violation over the
    control box, escalating the penalty weight tenfold until the violation
    is within tolerance or the weight cap is reached.  Returns (x, q, h) or
    None when restoration fails.
    """
    def penalty(x, mu):
        sol = sub.solve(x)
        if sol is None:
            return 1e20, np.zeros_like(x)
        q, h = sol
        gap = np.maximum(sub.h_lo - h, 0.0)
        val = mu * float(gap @ gap)
        return val, sub.gradient(q, np.zeros(sub.net.n_p), -2.0 * mu * gap)

    x = np.clip(x0, sub.lo, sub.hi)
    mu = _MU0
    while True:
        if x.size:
            x = minimize(penalty, x, args=(mu,), jac=True, method="L-BFGS-B",
                         bounds=Bounds(sub.lo, sub.hi), options={"maxiter": 200}).x
        sol = sub.solve(x)
        if sol is None:
            return None
        q, h = sol
        if _pressure_violation(h, sub.h_lo) <= _PRESSURE_TOL:
            return x, q, h
        if not x.size or mu >= _MU_CAP:
            return None
        mu *= 10.0


def _step_lp(sub: Subproblem, q_k: np.ndarray, h_k: np.ndarray, x_k: np.ndarray):
    """Linearized step LP around the iterate (q_k, h_k, x_k); returns the LP
    point (q, h, x), read-only, or None when the LP is not solved to
    optimality.  Each distinct (t, design, signs, iterate) is solved
    once per memo.

    Columns are (q, h, x); the equality rows are the energy and mass
    equations linearized at q_k.
    """
    steps = sub.memo.steps
    key = (sub.t, sub.design, sub.signs, q_k.tobytes() + h_k.tobytes() + x_k.tobytes())
    if key in steps:
        return steps[key]
    n_q = sub.net.n_p
    # not the adjoint's 1e-8 floor: that would change the LP on zero-loss valves
    dphi = np.maximum(phi_prime(q_k, sub.params), 1e-12)
    A = sub.step_matrix(dphi)
    b = np.concatenate([sub.energy_rhs - phi(q_k, sub.params) + dphi * q_k, sub.d])
    lo, hi = map(np.concatenate, zip(
        sub.flow_box(q_k), _trust_box(sub.h_lo, sub.h_hi, h_k),
        _trust_box(sub.lo, sub.hi, np.clip(x_k, sub.lo, sub.hi))))

    c = np.zeros(A.shape[1])
    c[:n_q] = -scc_smooth_grad_flows(q_k[None, :], sub.net, sub.scc_params)[0]
    # a pinned direction or an iterate outside its bounds can invert a box
    sol = solve_lp(LinearProgram(c, A, np.full(len(b), EQ), b,
                                 np.minimum(lo, hi), np.maximum(lo, hi)))
    steps[key] = (_read_only(np.split(sol.x, [n_q, n_q + sub.net.n_n]))
                  if sol.status == OPTIMAL else None)
    return steps[key]


def sfscp_timestep(sub: Subproblem, x0: np.ndarray, trace: list | None = None):
    """One timestep, one direction assignment, one start x0.

    Returns (eta, alpha, q, h, objective, iterations) or None when the start
    cannot be made feasible; iterations counts the accepted iterates.  When
    given, ``trace`` receives one (iteration, objective, beta) row per
    accepted iterate, after a row 0 for the start.
    """
    x = np.clip(x0, sub.lo, sub.hi)
    sol = sub.solve(x)
    if sol is None or _pressure_violation(sol[1], sub.h_lo) > _PRESSURE_TOL:
        restored = restore_feasibility(sub, x)
        if restored is None:
            return None
        x, q, h = restored
    else:
        q, h = sol

    f = scc_smooth_flows(q[None, :], sub.net, sub.scc_params)
    if trace is not None:
        trace.append((0, f, 0.0))
    iters = 0
    for _ in range(_K_MAX):
        step = _step_lp(sub, q, h, x)
        if step is None:
            break
        x_lp = step[2]
        beta = 1.0
        accepted = False
        for _ in range(_MAX_HALVINGS):
            x_try = x + beta * (x_lp - x)
            sol = sub.solve(x_try)
            if sol is not None:
                q_try, h_try = sol
                f_try = scc_smooth_flows(q_try[None, :], sub.net, sub.scc_params)
                if (f_try > f + _IMPROVE_TOL
                        and _pressure_violation(h_try, sub.h_lo) <= _PRESSURE_TOL):
                    accepted = True
                    break
            beta *= 0.5
        if not accepted:
            break
        gain = f_try - f
        x, q, h, f = x_try, q_try, h_try, f_try
        iters += 1
        if trace is not None:
            trace.append((iters, f, beta))
        if gain <= _EPS_TOL:
            break
    return *sub.unstack(x), q, h, f, iters


def enumerate_dbv_directions(subs: list[Subproblem], x0: np.ndarray):
    """Best (result, signs) over one timestep's subproblems, one per DBV
    direction assignment, from the start x0; None when none is feasible."""
    best = None
    for sub in subs:
        res = sfscp_timestep(sub, x0)
        if res is None:
            continue
        if best is None or res[4] > best[0][4]:
            best = (res, sub.signs)
    return best


def multi_start(
    net: NetworkModel,
    params: HeadLossParams,
    scc_params: SccParams,
    bounds: BoundSet,
    design: ValveDesign,
    n_starts: int,
    seed: int | None,
    eta_seed: np.ndarray | None = None,
    extra_seeds=(),
    memo: RunMemo | None = None,
) -> ControlSolution:
    """Run the per-timestep solver from several starts; keep the best.

    The start list is: the relaxation eta seed (when given), the caller's
    eta seeds in ``extra_seeds`` (each starts with no flushing), the
    deterministic flushing and throttle starts, then uniform random draws to
    fill up to n_starts (a floor, not a cap: every deterministic start runs),
    drawn from ``seed``.  Each start is an (n_t, n_x) array of stacked
    controls.  The subproblems share ``memo``, a fresh one when none is
    given; a memo passed in must come from calls with the same network,
    parameters and bounds.  Raises AllStartsInfeasible when no start yields a
    feasible horizon.
    """
    ctrl, afv = design.controllable_links, design.flushing_nodes
    memo = RunMemo() if memo is None else memo
    subs = [[Subproblem(net, params, scc_params, bounds, design, t, signs, memo)
             for signs in itertools.product((1, -1), repeat=len(design.dbv_links))]
            for t in range(net.n_t)]

    def start(eta, alpha):
        return np.concatenate([eta, alpha], axis=1)

    no_eta = np.zeros((net.n_t, len(ctrl)))
    no_alpha = np.zeros((net.n_t, len(afv)))
    alpha_cap = np.full((net.n_t, len(afv)), bounds.alpha_hi)
    starts: list[np.ndarray] = []
    if eta_seed is not None:
        # the relaxation seed starts with flushing at the cap: the objective
        # rewards high velocity, so the bound is the natural first guess
        starts.append(start(np.atleast_2d(np.asarray(eta_seed, dtype=float))[:, ctrl],
                            alpha_cap))
    for s in extra_seeds:
        starts.append(start(np.atleast_2d(np.asarray(s, dtype=float))[:, ctrl], no_alpha))
    if len(afv):
        starts.append(start(no_eta, alpha_cap))
    # aggressive-throttle starts: the objective landscape has a second basin
    # near the upper eta bound that small trust-region steps from zero cannot
    # reach, so seed it deterministically at the bound and at half the bound
    if len(ctrl):
        for frac in (1.0, 0.5):
            starts.append(start(frac * bounds.eta_hi[:, ctrl], alpha_cap))
    n_random = max(n_starts - len(starts), 0 if starts else 1)
    child_seqs = np.random.SeedSequence(seed).spawn(max(n_random, 1))
    e_lo = np.minimum(bounds.eta_lo[:, ctrl], 0.0)
    e_hi = np.maximum(bounds.eta_hi[:, ctrl], 0.0)
    for k in range(n_random):
        rng = np.random.default_rng(child_seqs[k])
        draw = np.zeros((net.n_t, len(ctrl)))
        for i in range(len(ctrl)):
            draw[:, i] = rng.uniform(e_lo[:, i], e_hi[:, i])
        starts.append(start(draw, rng.uniform(0.0, bounds.alpha_hi,
                                              size=(net.n_t, len(afv)))))

    best: ControlSolution | None = None
    for s_idx, x0 in enumerate(starts):
        results = []
        for t in range(net.n_t):
            res = enumerate_dbv_directions(subs[t], x0[t])
            if res is None:
                break
            results.append(res)
        else:
            eta, alpha, q, h, _, iters = map(np.array, zip(*(r for r, _ in results)))
            state = HydraulicState(q, h, eta, alpha)
            objective = scc_smooth_flows(q, net, scc_params)
            if best is None or objective > best.objective:
                best = ControlSolution(eta, alpha, objective, state, int(iters.sum()),
                                       s_idx, tuple(signs for _, signs in results))
    if best is None:
        raise AllStartsInfeasible(
            f"no feasible control found across {len(starts)} starts")
    return best
