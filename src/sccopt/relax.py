"""Assembly of the continuous relaxation: hydraulic rows, big-M valve rows,
valve-count rows, envelope cuts, relaxed binaries, and the sigma-reformulated
objective.  Solving the result gives the SCC upper bound and the fractional
placements that seed the sampler.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import envelopes
from .errors import InconsistentBounds
from .hydraulics import HeadLossParams, phi
from .lp import EQ, LEQ, LinearProgram, LpSolution, OPTIMAL
from .netmodel import NetworkModel
from .scc import SccParams


@dataclass(frozen=True)
class VariableMap:
    """Column index ranges of the assembled LP."""

    n_p: int
    n_n: int
    n_t: int

    def _block(self, t: int) -> int:
        return t * (3 * self.n_p + 2 * self.n_n + 4 * self.n_p)

    def q(self, t):
        return self._block(t) + np.arange(self.n_p)

    def h(self, t):
        return self._block(t) + self.n_p + np.arange(self.n_n)

    def eta(self, t):
        return self._block(t) + self.n_p + self.n_n + np.arange(self.n_p)

    def theta(self, t):
        return self._block(t) + 2 * self.n_p + self.n_n + np.arange(self.n_p)

    def alpha(self, t):
        return self._block(t) + 3 * self.n_p + self.n_n + np.arange(self.n_n)

    def sigma_pos(self, t):
        return self._block(t) + 3 * self.n_p + 2 * self.n_n + np.arange(self.n_p)

    def sigma_neg(self, t):
        return self._block(t) + 4 * self.n_p + 2 * self.n_n + np.arange(self.n_p)

    def v_pos(self, t):
        return self._block(t) + 5 * self.n_p + 2 * self.n_n + np.arange(self.n_p)

    def v_neg(self, t):
        return self._block(t) + 6 * self.n_p + 2 * self.n_n + np.arange(self.n_p)

    @property
    def z(self):
        return self._block(self.n_t) + np.arange(self.n_p)

    @property
    def y(self):
        return self._block(self.n_t) + self.n_p + np.arange(self.n_n)

    @property
    def total(self) -> int:
        return self._block(self.n_t) + self.n_p + self.n_n


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
        return phi(self.q_lo, self.params)

    @property
    def theta_hi(self) -> np.ndarray:
        return phi(self.q_hi, self.params)

    def copy(self) -> "BoundSet":
        return BoundSet(self.q_lo.copy(), self.q_hi.copy(), self.h_lo.copy(),
                        self.h_hi.copy(), self.eta_lo.copy(), self.eta_hi.copy(),
                        self.alpha_hi, self.params)


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


@dataclass(frozen=True)
class DesignConfig:
    """Valve-count targets and existing valves: ``n_v`` new DBVs go on links
    without a valve, ``n_f`` AFVs on any demand nodes."""

    n_v: int = 0
    n_f: int = 0
    prv_links: tuple[int, ...] = ()
    existing_dbv_links: tuple[int, ...] = ()

    def __post_init__(self):
        if self.n_v < 0 or self.n_f < 0:
            raise ValueError("valve counts must be non-negative")
        if set(self.prv_links) & set(self.existing_dbv_links):
            raise ValueError("a link cannot be both PRV and DBV")

    @classmethod
    def from_network(cls, net: NetworkModel, n_v: int = 0, n_f: int = 0) -> "DesignConfig":
        prv = tuple(j for j, lk in enumerate(net.links) if lk.is_existing_prv)
        dbv = tuple(j for j, lk in enumerate(net.links) if lk.is_existing_dbv)
        cfg = cls(n_v, n_f, prv, dbv)
        free = len(cfg.free_links(net))
        if n_v > free:
            raise ValueError(f"n_v = {n_v} exceeds the {free} links that can take a new DBV")
        if n_f > net.n_n:
            raise ValueError(f"n_f = {n_f} exceeds the {net.n_n} demand nodes")
        return cfg

    def fixed_links(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.prv_links) | set(self.existing_dbv_links)))

    def free_links(self, net: NetworkModel) -> tuple[int, ...]:
        """Every link that carries no existing valve."""
        return tuple(sorted(set(range(net.n_p)) - set(self.fixed_links())))


def build_lp(
    net: NetworkModel,
    params: HeadLossParams,
    scc_params: SccParams,
    bounds: BoundSet,
    design: DesignConfig,
) -> tuple[LinearProgram, VariableMap]:
    """Assemble the continuous relaxation as a single LP.

    Rows per timestep: mass balance, energy balance, each link's table, then
    one AFV row per node; the two valve-count rows come last.  The envelope
    cuts of a timestep's link tables are built for all links at once.
    """
    vmap = VariableMap(net.n_p, net.n_n, net.n_t)
    n = vmap.total
    areas = net.areas
    I_p, I_n = sp.identity(net.n_p), sp.identity(net.n_n)
    z_idx, y_idx = vmap.z, vmap.y
    fixed = list(design.fixed_links())
    # a column's bounds are [0, 0] unless set below
    c, lb, ub = np.zeros(n), np.zeros(n), np.zeros(n)
    blocks, rhs, senses = [], [], []

    def add(block, cols, b, sense):
        blocks.append(_at_columns(block, cols, n))
        rhs.append(b)
        senses.append(np.full(len(b), sense))

    for t in range(net.n_t):
        q_idx, h_idx = vmap.q(t), vmap.h(t)
        eta_idx, th_idx = vmap.eta(t), vmap.theta(t)
        a_idx = vmap.alpha(t)
        sp_idx, sm_idx = vmap.sigma_pos(t), vmap.sigma_neg(t)
        vp_idx, vm_idx = vmap.v_pos(t), vmap.v_neg(t)

        # mass: A12^T q - alpha = d;  energy: A12 h + theta + eta = -A10 h0
        add(sp.hstack([net.A12T, -I_n]), np.r_[q_idx, a_idx], net.demands[t], EQ)
        add(sp.hstack([net.A12, I_p, I_p]), np.r_[h_idx, th_idx, eta_idx],
            -(net.A10 @ net.source_heads[t]), EQ)

        table, keep = _link_tables(params, scc_params, bounds, t, areas)
        cols = np.column_stack([q_idx, sp_idx, sm_idx, th_idx, eta_idx,
                                vp_idx, vm_idx, z_idx])
        rows = table[keep]
        add(rows[:, :8], cols[np.nonzero(keep)[0]], rows[:, 8], LEQ)

        # flushing only where an AFV is placed
        add(sp.hstack([I_n, -bounds.alpha_hi * I_n]), np.r_[a_idx, y_idx],
            np.zeros(net.n_n), LEQ)

        lb[q_idx], ub[q_idx] = bounds.q_lo[t], bounds.q_hi[t]
        lb[h_idx], ub[h_idx] = bounds.h_lo[t], bounds.h_hi[t]
        lb[eta_idx], ub[eta_idx] = bounds.eta_lo[t], bounds.eta_hi[t]
        lb[th_idx], ub[th_idx] = bounds.theta_lo[t], bounds.theta_hi[t]
        ub[a_idx] = bounds.alpha_hi
        ub[np.r_[sp_idx, sm_idx, vp_idx, vm_idx]] = 1.0
        # existing PRVs are unidirectional; their direction is pinned
        lb[vp_idx[list(design.prv_links)]] = 1.0
        ub[vm_idx[list(design.prv_links)]] = 0.0
        # objective: maximize the mean weighted sigma mass
        c[sp_idx] = c[sm_idx] = -scc_params.weights / net.n_t

    # placement variables and count constraints
    ub[z_idx[list(design.free_links(net))]] = 1.0
    lb[z_idx[fixed]] = ub[z_idx[fixed]] = 1.0
    ub[y_idx] = 1.0
    add(np.ones((1, net.n_p)), z_idx, [design.n_v + len(fixed)], EQ)
    add(np.ones((1, net.n_n)), y_idx, [design.n_f], EQ)

    A = sp.vstack(blocks, format="csr")
    A.eliminate_zeros()  # no block may store a zero coefficient
    lp = LinearProgram(c, A, np.concatenate(senses), np.concatenate(rhs, dtype=float), lb, ub)
    lp.validate()
    return lp, vmap


def _at_columns(block, cols, n_cols):
    """``block`` as rows of an n_cols-wide matrix: entry (r, k) goes to column
    cols[k], or to cols[r, k] when cols holds one column map per row."""
    b = sp.coo_matrix(block)
    cols = np.broadcast_to(cols, b.shape)[b.row, b.col]
    return sp.csr_matrix((b.data, (b.row, cols)), shape=(b.shape[0], n_cols))


def _link_tables(params, scc_params, bounds, t, areas):
    """Rows ``[coefficients | rhs]`` of every link at timestep t, a ``<=`` row
    each over the link's columns (q, sigma+, sigma-, theta, eta, v+, v-, z),
    as an (n_p, 15, 9) slot table and the (n_p, 15) mask of the slots in use.

    Per link: two slots each for the psi+, psi-, lower and upper head-loss
    envelope cuts, then big-M valve activation and one control direction.
    """
    q_lo, q_hi = bounds.q_lo[t], bounds.q_hi[t]
    th_lo, th_hi = bounds.theta_lo[t], bounds.theta_hi[t]
    e_lo, e_hi = bounds.eta_lo[t], bounds.eta_hi[t]
    # the sigmoid envelopes are built in velocity space
    cuts = envelopes.sigmoid_envelope(scc_params.rho, scc_params.u_min,
                                      q_lo / areas, q_hi / areas)
    cuts += envelopes.hw_envelope(params.r, params.n_exp, q_lo, q_hi)
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
    return table, keep


def extract_fractional(sol: LpSolution, vmap: VariableMap, design: DesignConfig):
    """Fractional placements (fixed valves zeroed out) and the eta seed."""
    if sol.status != OPTIMAL:
        raise ValueError(f"LP solution status is {sol.status}")
    z = np.clip(sol.x[vmap.z], 0.0, None)
    y = np.clip(sol.x[vmap.y], 0.0, None)
    z[list(design.fixed_links())] = 0.0
    eta0 = np.vstack([sol.x[vmap.eta(t)] for t in range(vmap.n_t)])
    return y, z, eta0


def lp_bound(sol: LpSolution) -> float:
    """Upper bound on the achievable smoothed SCC: the unclipped relaxation
    optimum.

    It can exceed 1 (1.767 on the 25-node grid) because sigma+ and sigma-
    are enveloped separately; no sigma+ + sigma- <= 1 cut is added yet.
    """
    if sol.status != OPTIMAL:
        raise ValueError(f"LP solution status is {sol.status}")
    return -sol.objective
