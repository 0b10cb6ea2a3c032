"""Control optimization for a fixed valve placement.

Timesteps are hydraulically independent, so the control of each is chosen
on its own: the solver alternates linearize / LP-step / line-search on the
smoothed SCC objective, with a trust box around the iterate.  Valve
directions for bidirectional boundary valves are enumerated per timestep;
multiple starting points guard against the nonconvexity of the objective,
and each timestep keeps the best of them.

``multi_start`` compiles each (timestep, direction assignment) pair once into
a read-only ``Subproblem``.  The step LP and the line search work on its
stacked controls x = (eta on the controllable links, alpha at the flushing
nodes) inside its control box; a start whose clipped point is infeasible is
given up, since the open control x = 0 runs as a start of its own.

Starts, candidates and valve directions reach the same points again and
again, so the hydraulic solves and step LPs are cached, keyed on the exact
bytes of their inputs: each distinct call is made once per cache, failures
included, and a repeat returns the stored read-only arrays.  A state's key
holds no design, so the states live on the ``Problem`` and hits cross the
candidates solved on it: all of a ``pipeline.run_cms`` call's in one
process, or those of one worker when it forks several.  A step LP depends
on its subproblem's design and directions, so each ``Subproblem`` keeps its
own.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import AllStartsInfeasible, NonConvergence, SingularSystem
from .hydraulics import HydraulicState, head_loss, jacobian_solve, solve_steady
from .lp import OPTIMAL, LinearProgram, solve_lp
from .netmodel import NetworkModel
from .relax import Problem
from .scc import scc_smooth_flows, scc_smooth_grad_flows

_PRESSURE_TOL = 1e-6
_IMPROVE_TOL = 1e-12
# the step LP's trust box is this fraction of each variable's bound width
_TRUST_FRACTION = 0.25
# line-search step halvings before a step is rejected
_MAX_HALVINGS = 12
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
    def from_network(cls, net: NetworkModel, dbv_links=(), afv_nodes=()) -> "ValveDesign":
        """The network's existing PRVs and DBVs plus the added ``dbv_links``,
        with AFVs at ``afv_nodes``."""
        return cls(net.prv_links, tuple(sorted(set(net.dbv_links) | set(dbv_links))),
                   tuple(afv_nodes))

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
    # per timestep: the index of the start that won it, and the DBV signs
    starts: tuple = ()
    directions: tuple = ()


class Subproblem:
    """One timestep's control problem for one valve design and one DBV
    direction assignment, compiled once; every array is read-only.

    ``signs`` holds one direction, +1 or -1, per link of ``design.dbv_links``.
    The controls are stacked as x = (eta on ``ctrl``, alpha at ``afv``) in
    the box [lo, hi]: a DBV's eta takes its sign, a PRV's is non-negative,
    and alpha lies in [0, alpha_hi].  Each DBV pins its link's flow to its
    sign in the step LP (``pin_pos``, ``pin_neg``); a PRV's flow is free
    there, but ``feasible`` rejects a PRV throttling a reversed flow.
    ``control_rhs`` holds the Jacobian right-hand side of each entry of x:
    -1 on an eta's energy row, +1 on an alpha's mass row.  Hydraulic solves
    are cached in the Problem's ``states``, shared with every subproblem on
    it; step LPs in this subproblem's own ``steps``, which maps q_k bytes +
    h_k bytes + x_k bytes to the read-only step point (q, h, x), or to None
    when there is none.
    """

    def __init__(self, problem: Problem, design: ValveDesign, t: int,
                 signs: tuple[int, ...]):
        net, bounds = problem.net, problem.bounds
        self.net, self.params, self.scc_params = net, problem.params, problem.scc_params
        self.design, self.t, self.signs = design, t, tuple(signs)
        self.states, self.steps = problem.states, {}
        self.ctrl, self.afv = ctrl, afv = design.controllable_links, design.flushing_nodes
        is_prv = np.isin(ctrl, design.prv_links)
        self.prv_x, self.prv = np.flatnonzero(is_prv), ctrl[is_prv]  # in x; as links
        self.d, self.h0 = np.array(net.demands[t]), np.array(net.source_heads[t])
        # views: a Problem's box is read-only
        self.q_lo, self.q_hi = bounds.q_lo[t], bounds.q_hi[t]
        self.h_lo, self.h_hi = bounds.h_lo[t], bounds.h_hi[t]
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
        self.control_rhs = np.zeros((net.n_p + net.n_n, len(self.lo)))
        self.control_rhs[ctrl, np.arange(len(ctrl))] = -1.0
        self.control_rhs[net.n_p + afv, len(ctrl) + np.arange(len(afv))] = 1.0
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
        Newton fails; solved once per distinct (t, eta, alpha) on the Problem."""
        eta, alpha = self.unstack(x)
        key = (self.t, eta.tobytes() + alpha.tobytes())
        if key not in self.states:
            try:
                self.states[key] = _read_only(solve_steady(self.net, self.params, self.d,
                                                           self.h0, eta, alpha))
            except (NonConvergence, SingularSystem):
                self.states[key] = None
        return self.states[key]

    def feasible(self, x: np.ndarray, q: np.ndarray, h: np.ndarray) -> bool:
        """Whether the state (q, h) at the controls x meets the head floor
        with no PRV throttling (eta > 0) a reversed flow, where it adds head."""
        return (float(np.max(np.maximum(self.h_lo - h, 0.0), initial=0.0)) <= _PRESSURE_TOL
                and not np.any((x[self.prv_x] > 0.0) & (q[self.prv] < 0.0)))

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


def restore_feasibility(sub: Subproblem):
    """Restore an infeasible start to the open control x = 0 (valves wide
    open, no flushing), which lies in every control box: (x, q, h) when its
    state is ``sub.feasible``, else None.  No solver path calls it; it is
    kept only for the benchmark harness's tracer, which wraps it by name."""
    x = np.zeros(len(sub.lo))
    sol = sub.solve(x)
    if sol is None or not sub.feasible(x, *sol):
        return None
    return x, *sol


def _step_lp(sub: Subproblem, q_k: np.ndarray, h_k: np.ndarray, x_k: np.ndarray):
    """Linearized step LP around the iterate (q_k, h_k, x_k); returns the LP
    point (q, h, x), read-only, or None when the Jacobian is singular or the
    LP is not solved to optimality, and at once when there are no controls.
    Each distinct iterate is solved once per subproblem.

    The step eliminates the flows and heads (Nocedal and Wright, *Numerical
    Optimization*, 2nd ed., section 18.4): one ``jacobian_solve`` of the
    energy and mass equations linearized at q_k, for their base and for
    each column of ``sub.control_rhs``, gives (q, h) = p + S x.  The LP's
    columns are x in its trust box; its rows keep p + S x in the flow box
    and the heads' trust box.
    """
    if not sub.lo.size:
        return None
    key = q_k.tobytes() + h_k.tobytes() + x_k.tobytes()
    if key in sub.steps:
        return sub.steps[key]
    n_q = sub.net.n_p
    # not kkt_solve's 1e-8 floor: that would change the LP on zero-loss valves
    loss, slope = head_loss(q_k, sub.params)
    g = np.maximum(slope, 1e-12)
    base = np.concatenate([sub.energy_rhs - loss + g * q_k, sub.d])
    sub.steps[key] = None
    try:
        sens = jacobian_solve(sub.net, g, np.column_stack([base, sub.control_rhs]))
    except SingularSystem:
        return None
    p, S = sens[:, 0], sens[:, 1:]
    lo, hi = map(np.concatenate, zip(sub.flow_box(q_k), _trust_box(sub.h_lo, sub.h_hi, h_k)))
    c = -scc_smooth_grad_flows(q_k[None, :], sub.net, sub.scc_params)[0] @ S[:n_q]
    # a pinned direction or an iterate outside its flow box can invert a row
    # box; the x box cannot invert, as its centre lies in [sub.lo, sub.hi]
    sol = solve_lp(LinearProgram(c, sp.csc_matrix(S), np.minimum(lo, hi) - p,
                                 np.maximum(lo, hi) - p,
                                 *_trust_box(sub.lo, sub.hi, np.clip(x_k, sub.lo, sub.hi))))
    if sol.status == OPTIMAL:
        qh = p + S @ sol.x
        sub.steps[key] = _read_only([qh[:n_q], qh[n_q:], sol.x])
    return sub.steps[key]


def sfscp_timestep(sub: Subproblem, x0: np.ndarray):
    """One timestep, one direction assignment, one start x0.

    Returns (eta, alpha, q, h, objective, iterations), or None when the start
    clipped to the control box is not ``sub.feasible``; iterations counts the
    accepted iterates.
    """
    x = np.clip(x0, sub.lo, sub.hi)
    sol = sub.solve(x)
    if sol is None or not sub.feasible(x, *sol):
        return None
    q, h = sol

    f = scc_smooth_flows(q[None, :], sub.net, sub.scc_params)
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
                if f_try > f + _IMPROVE_TOL and sub.feasible(x_try, q_try, h_try):
                    accepted = True
                    break
            beta *= 0.5
        if not accepted:
            break
        gain = f_try - f
        x, q, h, f = x_try, q_try, h_try, f_try
        iters += 1
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
    problem: Problem,
    design: ValveDesign,
    n_starts: int,
    seed: int | None,
    eta_seed: np.ndarray | None = None,
    extra_seeds=(),
) -> ControlSolution:
    """Run the per-timestep solver on ``problem`` from several starts; keep
    each timestep's best.

    The start list is: the relaxation eta seed (when given, with flushing at
    the cap), the open control x = 0, the caller's eta seeds in
    ``extra_seeds`` (each with no flushing), flushing at the cap with no
    throttling (when the design has AFVs), throttling at the eta bound and
    at half of it with flushing at the cap (when it has valves), then
    uniform random draws from ``seed`` to fill up to n_starts.  n_starts is
    a floor, not a cap: every deterministic start runs, so with valves and
    AFVs a call runs at least four starts, five with a relaxation seed.  The
    open start makes the result score no lower than the uncontrolled
    network whenever that network is feasible.  Each start is an (n_t, n_x)
    array of stacked controls.

    Timesteps are hydraulically independent, so each is solved on its own:
    every start runs on the timestep's direction subproblems, and the
    timestep keeps the best ``enumerate_dbv_directions`` result, the first
    start on a tie.  The horizon stacks these picks, its objective is
    ``scc_smooth_flows`` over the stacked flows, and ``starts`` names each
    timestep's winning start.  The subproblems cache their hydraulic solves
    in ``problem.states``, so calls on one Problem share them.  Raises
    AllStartsInfeasible, naming the timestep, when no start is feasible at
    some timestep.
    """
    net, bounds = problem.net, problem.bounds
    ctrl, afv = design.controllable_links, design.flushing_nodes

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
    starts.append(start(no_eta, no_alpha))
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
    n_random = max(n_starts - len(starts), 0)
    child_seqs = np.random.SeedSequence(seed).spawn(n_random)
    e_lo = np.minimum(bounds.eta_lo[:, ctrl], 0.0)
    e_hi = np.maximum(bounds.eta_hi[:, ctrl], 0.0)
    for k in range(n_random):
        rng = np.random.default_rng(child_seqs[k])
        # one link's timesteps after another
        draw = rng.uniform(e_lo.T, e_hi.T).T
        starts.append(start(draw, rng.uniform(0.0, bounds.alpha_hi,
                                              size=(net.n_t, len(afv)))))

    picks = []  # per timestep: (result, signs, start index)
    for t in range(net.n_t):
        subs = [Subproblem(problem, design, t, signs)
                for signs in itertools.product((1, -1), repeat=len(design.dbv_links))]
        pick = None
        for s_idx, x0 in enumerate(starts):
            res = enumerate_dbv_directions(subs, x0[t])
            if res is not None and (pick is None or res[0][4] > pick[0][4]):
                pick = (*res, s_idx)
        if pick is None:
            raise AllStartsInfeasible(
                f"no feasible control at timestep {t} across {len(starts)} starts")
        picks.append(pick)
    results, signs, start_idx = zip(*picks)
    eta, alpha, q, h, _, iters = map(np.array, zip(*results))
    return ControlSolution(eta, alpha, scc_smooth_flows(q, net, problem.scc_params),
                           HydraulicState(q, h, eta, alpha), int(iters.sum()),
                           start_idx, signs)
