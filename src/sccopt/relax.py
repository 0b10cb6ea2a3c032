"""Assembly of the continuous relaxation: hydraulic rows, big-M valve rows,
valve-count rows, envelope cuts, relaxed binaries, and the sigma-reformulated
objective.  Solving the result gives the SCC upper bound and the fractional
placements that seed the sampler.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import envelopes
from .csc import CscMatrix
from .errors import InconsistentBounds
from .hydraulics import HeadLossParams, head_loss
from .lp import LinearProgram, LpSolution, OPTIMAL
from .netmodel import NetworkModel
from .scc import SccParams


@dataclass(frozen=True)
class VariableMap:
    """Column indices of the assembled LP.

    Each timestep owns one block of columns: the families q, h, eta, theta,
    alpha, sigma_pos, sigma_neg, v_pos and v_neg, in that order.  Each family
    is a read-only (n_t, n_n) index array for h and alpha and (n_t, n_p) for
    the others, so ``q[t]`` holds timestep t's flow columns.  The placement
    columns ``z`` (n_p) and ``y`` (n_n) follow the last block; ``total``
    counts every column.
    """

    n_p: int
    n_n: int
    n_t: int

    def __post_init__(self):
        n_p, n_n = self.n_p, self.n_n
        sizes = {"q": n_p, "h": n_n, "eta": n_p, "theta": n_p, "alpha": n_n,
                 "sigma_pos": n_p, "sigma_neg": n_p, "v_pos": n_p, "v_neg": n_p}
        blocks = np.arange(self.n_t * sum(sizes.values())).reshape(self.n_t, -1)
        placements = np.arange(blocks.size, blocks.size + n_p + n_n)
        parts = (np.split(blocks, np.cumsum(list(sizes.values()))[:-1], axis=1)
                 + np.split(placements, [n_p]))
        for name, part in zip([*sizes, "z", "y"], parts):
            part.flags.writeable = False
            object.__setattr__(self, name, part)
        object.__setattr__(self, "total", blocks.size + n_p + n_n)


@dataclass
class BoundSet:
    """Variable bounds for the relaxation; arrays are (n_t, n_p) / (n_t, n_n).

    The theta box is not stored: it follows the flow box through the
    monotone loss law, so editing q_lo or q_hi in place also moves it.
    """

    q_lo: np.ndarray
    q_hi: np.ndarray
    h_lo: np.ndarray
    h_hi: np.ndarray
    eta_lo: np.ndarray
    eta_hi: np.ndarray
    alpha_hi: float
    params: HeadLossParams

    @property
    def theta_lo(self) -> np.ndarray:
        return head_loss(self.q_lo, self.params)[0]

    @property
    def theta_hi(self) -> np.ndarray:
        return head_loss(self.q_hi, self.params)[0]

    def copy(self) -> "BoundSet":
        return BoundSet(self.q_lo.copy(), self.q_hi.copy(), self.h_lo.copy(),
                        self.h_hi.copy(), self.eta_lo.copy(), self.eta_hi.copy(),
                        self.alpha_hi, self.params)


@dataclass(frozen=True, eq=False)
class Problem:
    """The model one run solves: the network, the SCC objective's parameters
    and the variable box, whose head-loss law is ``bounds.params``.

    Building it makes the six bound arrays read-only, so a tightened box is
    a new Problem.  ``states`` caches the hydraulic states solved over it:
    it maps (t, eta bytes + alpha bytes), on the full arrays, to the
    read-only (q, h), or to None when Newton failed.  Each Problem owns a
    fresh one, which therefore never outlives or crosses the box its entries
    were solved under.
    """

    net: NetworkModel
    scc_params: SccParams
    bounds: BoundSet
    states: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for name in ("q_lo", "q_hi", "h_lo", "h_hi", "eta_lo", "eta_hi"):
            getattr(self.bounds, name).flags.writeable = False

    @property
    def params(self) -> HeadLossParams:
        return self.bounds.params


def default_bounds(
    net: NetworkModel,
    params: HeadLossParams,
    u_max: float = 3.0,
    p_min: float = 15.0,
    alpha_max: float = 0.025,
) -> BoundSet:
    """Initial bounds: flows capped by u_max, heads by the regulatory minimum
    and the largest known source head.  Each eta is bounded by the head
    ranges at its link's two ends; a source's range is its fixed head."""
    q_hi1 = net.areas * u_max
    q_lo = np.tile(-q_hi1, (net.n_t, 1))
    q_hi = np.tile(q_hi1, (net.n_t, 1))

    h_cap = float(np.max(net.source_heads))
    has_demand = np.any(net.demands > 0, axis=0)
    h_lo = np.tile(net.elevations + np.where(has_demand, p_min, 0.0), (net.n_t, 1))
    h_hi = np.full((net.n_t, net.n_n), h_cap)
    if np.any(h_lo > h_hi):
        raise InconsistentBounds("minimum head exceeds largest source head")

    end_lo = np.hstack([h_lo, net.source_heads])
    end_hi = np.hstack([h_hi, net.source_heads])
    eta_lo = end_lo[:, net.link_from] - end_hi[:, net.link_to]
    eta_hi = end_hi[:, net.link_from] - end_lo[:, net.link_to]
    return BoundSet(q_lo, q_hi, h_lo, h_hi, eta_lo, eta_hi, float(alpha_max), params)


def build_lp(problem: Problem, n_v: int, n_f: int) -> tuple[LinearProgram, VariableMap]:
    """Assemble the continuous relaxation as a single LP: ``n_v`` new DBVs go
    on links without a valve, ``n_f`` AFVs on any demand nodes, and the
    network's existing PRVs and DBVs stay in place.

    Each column family's bounds and costs are set for all timesteps at once,
    and the envelope cuts of every link and timestep are built together
    (``_link_tables``).  The ``<=`` rows come first: per timestep, each
    link's table, then one AFV row per node.  The equality rows follow: per
    timestep, mass and energy balance, then the two valve-count rows.  The
    matrix is one ``CscMatrix.from_triplets`` of every block's nonzero
    entries.
    """
    net, bounds = problem.net, problem.bounds
    vmap = VariableMap(net.n_p, net.n_n, net.n_t)
    n = vmap.total
    prv, fixed = list(net.prv_links), list(net.prv_links + net.dbv_links)
    # a column's bounds are [0, 1], those of the relaxed binaries sigma, v, z
    # and y, unless set below
    c, lb, ub = np.zeros(n), np.zeros(n), np.ones(n)
    lb[vmap.q], ub[vmap.q] = bounds.q_lo, bounds.q_hi
    lb[vmap.h], ub[vmap.h] = bounds.h_lo, bounds.h_hi
    lb[vmap.eta], ub[vmap.eta] = bounds.eta_lo, bounds.eta_hi
    lb[vmap.theta], ub[vmap.theta] = bounds.theta_lo, bounds.theta_hi
    ub[vmap.alpha] = bounds.alpha_hi
    # existing PRVs are unidirectional; their direction is pinned
    lb[vmap.v_pos[:, prv]] = 1.0
    ub[vmap.v_neg[:, prv]] = 0.0
    # objective: maximize the mean weighted sigma mass
    c[vmap.sigma_pos] = c[vmap.sigma_neg] = -problem.scc_params.weights / net.n_t
    # the existing valves stay
    lb[vmap.z[fixed]] = 1.0

    # mass: A12^T q - alpha = d;  energy: A12 h + theta + eta = -A10 h0;
    # flushing only where an AFV is placed.  Each block of rows is its
    # right-hand sides and its entries' (row, column, value) triplets, the
    # rows counted from the block's first
    table, keep = _link_tables(problem)
    link_cols = np.stack([vmap.q, vmap.sigma_pos, vmap.sigma_neg, vmap.theta, vmap.eta, vmap.v_pos,
                          vmap.v_neg, np.broadcast_to(vmap.z, vmap.q.shape)], axis=-1)
    # A12's entries: +-1 at (link, node)
    a_link, a_node, a_sign = net.A12.triplets()
    links, nodes = np.arange(net.n_p), np.arange(net.n_n)
    ones_p, ones_n = np.ones(net.n_p), np.ones(net.n_n)
    leq, eq = [], []
    for t in range(net.n_t):
        eq.append((net.demands[t], np.r_[a_node, nodes],
                   np.r_[vmap.q[t][a_link], vmap.alpha[t]], np.r_[a_sign, -ones_n]))
        eq.append((-(net.A10 @ net.source_heads[t]), np.r_[a_link, links, links],
                   np.r_[vmap.h[t][a_node], vmap.theta[t], vmap.eta[t]],
                   np.r_[a_sign, ones_p, ones_p]))
        cuts = table[t][keep[t]]
        leq.append((cuts[:, 8], np.repeat(np.arange(len(cuts)), 8),
                    link_cols[t][np.nonzero(keep[t])[0]].ravel(), cuts[:, :8].ravel()))
        leq.append((np.zeros(net.n_n), np.r_[nodes, nodes], np.r_[vmap.alpha[t], vmap.y],
                    np.r_[ones_n, np.full(net.n_n, -bounds.alpha_hi)]))

    # valve-count constraints
    eq.append(([n_v + len(fixed)], np.zeros(net.n_p, dtype=int), vmap.z, ones_p))
    eq.append(([n_f], np.zeros(net.n_n, dtype=int), vmap.y, ones_n))

    blocks = leq + eq
    rhs = [np.asarray(b, dtype=float) for b, *_ in blocks]
    first = np.cumsum([0] + [len(b) for b in rhs])
    rows = np.concatenate([r + f for (_, r, _, _), f in zip(blocks, first)])
    cols = np.concatenate([c for _, _, c, _ in blocks])
    vals = np.concatenate([v for *_, v in blocks])
    stored = vals != 0  # no coefficient is stored as a zero
    A = CscMatrix.from_triplets(rows[stored], cols[stored], vals[stored], (first[-1], n))
    lhs = np.concatenate([np.full(len(b), -np.inf) for b in rhs[:len(leq)]] + rhs[len(leq):])
    lp = LinearProgram(c, A, lhs, np.concatenate(rhs), lb, ub)
    lp.validate()
    return lp, vmap


def _link_tables(problem: Problem):
    """Rows ``[coefficients | rhs]`` of every link at every timestep, a ``<=``
    row each over the link's columns (q, sigma+, sigma-, theta, eta, v+, v-,
    z), as an (n_t, n_p, 15, 9) slot table and the (n_t, n_p, 15) mask of
    the slots in use.

    Per link: two slots each for the psi+, psi-, lower and upper head-loss
    envelope cuts, then big-M valve activation and one control direction.
    The cuts of all (timestep, link) intervals come from one call of each
    envelope builder; a cut does not depend on the intervals built with it.
    """
    bounds, scc_params, params = problem.bounds, problem.scc_params, problem.params
    # one interval per (timestep, link), timestep-major
    areas, u_min, r, n_exp, q_lo, q_hi, th_lo, th_hi, e_lo, e_hi = (
        a.ravel() for a in np.broadcast_arrays(problem.net.areas, scc_params.u_min, params.r,
            params.n_exp, bounds.q_lo, bounds.q_hi, bounds.theta_lo, bounds.theta_hi,
            bounds.eta_lo, bounds.eta_hi))
    # the sigmoid envelopes are built in velocity space
    cuts = envelopes.sigmoid_envelope(scc_params.rho, u_min, q_lo / areas, q_hi / areas)
    cuts += envelopes.hw_envelope(r, n_exp, q_lo, q_hi)
    to_flow = (1.0 / areas)[:, None]
    o, z = np.ones(len(areas)), np.zeros(len(areas))
    table = np.zeros((len(areas), 15, 9))
    keep = np.ones((len(areas), 15), dtype=bool)
    for k, ((coeff, rhs, kept), col, aux, scale) in enumerate(zip(
            cuts, (1, 2, 3, 3), (1.0, 1.0, -1.0, 1.0), (to_flow, to_flow, 1.0, 1.0))):
        slots = slice(2 * k, 2 * k + 2)
        table[:, slots, 0] = coeff * scale
        table[:, slots, col] = aux
        table[:, slots, 8] = rhs
        keep[:, slots] = kept
    table[:, 8:] = np.array([[z, z, z, z, o, -e_hi, z, z, z],
                             [z, z, z, z, -o, z, e_lo, z, z],
                             [-o, z, z, z, z, -q_lo, z, z, -q_lo],
                             [o, z, z, z, z, z, q_hi, z, q_hi],
                             [z, z, z, -o, z, -th_lo, z, z, -th_lo],
                             [z, z, z, o, z, z, th_hi, z, th_hi],
                             [z, z, z, z, z, o, o, -o, z]]).transpose(2, 0, 1)
    return table.reshape(bounds.q_lo.shape + (15, 9)), keep.reshape(bounds.q_lo.shape + (15,))


def extract_fractional(sol: LpSolution, vmap: VariableMap, net: NetworkModel):
    """Fractional placements (the network's existing valves zeroed out) and
    the eta seed."""
    if sol.status != OPTIMAL:
        raise ValueError(f"LP solution status is {sol.status}")
    z = np.clip(sol.x[vmap.z], 0.0, None)
    y = np.clip(sol.x[vmap.y], 0.0, None)
    z[list(net.prv_links + net.dbv_links)] = 0.0
    return y, z, sol.x[vmap.eta]


def lp_bound(sol: LpSolution) -> float:
    """Upper bound on the achievable smoothed SCC: the unclipped relaxation
    optimum.

    It can exceed 1 (1.767 on the 25-node grid) because sigma+ and sigma-
    are enveloped separately; no sigma+ + sigma- <= 1 cut is added yet.
    """
    if sol.status != OPTIMAL:
        raise ValueError(f"LP solution status is {sol.status}")
    return -sol.objective
