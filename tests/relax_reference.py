"""The relaxation of ``sccopt.relax`` assembled one timestep at a time.

A test-only oracle: ``sccopt.relax.build_lp`` states its column layout once
and builds each column family and the envelope cuts for all timesteps at
once, and must return, array for array, exactly the LP this per-timestep
reference returns.  Here each block's columns are an offset method that sums
the sizes of the blocks before it, every column bound and cost is set once
per timestep, and both envelope builders run once per timestep.
``flow_polytope`` is OBBT's cut of the LP to its flow polytope, collecting
the sigma columns timestep by timestep.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from sccopt import envelopes
from sccopt.lp import LinearProgram


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


def build_lp(problem, n_v: int, n_f: int) -> tuple[LinearProgram, VariableMap]:
    """The relaxation with ``n_v`` new DBVs and ``n_f`` AFVs, assembled
    timestep by timestep: per timestep, each link's table and one AFV row
    per node as ``<=`` rows, mass and energy balance as equality rows; then
    the two valve-count rows."""
    net, bounds = problem.net, problem.bounds
    vmap = VariableMap(net.n_p, net.n_n, net.n_t)
    n = vmap.total
    I_p, I_n = sp.identity(net.n_p), sp.identity(net.n_n)
    z_idx, y_idx = vmap.z, vmap.y
    prv, fixed = list(net.prv_links), list(net.prv_links + net.dbv_links)
    c, lb, ub = np.zeros(n), np.zeros(n), np.zeros(n)
    leq, eq = ([], []), ([], [])

    def add(group, block, cols, b):
        group[0].append(_at_columns(block, cols, n))
        group[1].append(b)

    for t in range(net.n_t):
        q_idx, h_idx = vmap.q(t), vmap.h(t)
        eta_idx, th_idx = vmap.eta(t), vmap.theta(t)
        a_idx = vmap.alpha(t)
        sp_idx, sm_idx = vmap.sigma_pos(t), vmap.sigma_neg(t)
        vp_idx, vm_idx = vmap.v_pos(t), vmap.v_neg(t)

        add(eq, sp.hstack([net.A12T, -I_n]), np.r_[q_idx, a_idx], net.demands[t])
        add(eq, sp.hstack([net.A12, I_p, I_p]), np.r_[h_idx, th_idx, eta_idx],
            -(net.A10 @ net.source_heads[t]))

        table, keep = link_tables(problem, t)
        cols = np.column_stack([q_idx, sp_idx, sm_idx, th_idx, eta_idx,
                                vp_idx, vm_idx, z_idx])
        rows = table[keep]
        add(leq, rows[:, :8], cols[np.nonzero(keep)[0]], rows[:, 8])

        add(leq, sp.hstack([I_n, -bounds.alpha_hi * I_n]), np.r_[a_idx, y_idx],
            np.zeros(net.n_n))

        lb[q_idx], ub[q_idx] = bounds.q_lo[t], bounds.q_hi[t]
        lb[h_idx], ub[h_idx] = bounds.h_lo[t], bounds.h_hi[t]
        lb[eta_idx], ub[eta_idx] = bounds.eta_lo[t], bounds.eta_hi[t]
        lb[th_idx], ub[th_idx] = bounds.theta_lo[t], bounds.theta_hi[t]
        ub[a_idx] = bounds.alpha_hi
        ub[np.r_[sp_idx, sm_idx, vp_idx, vm_idx]] = 1.0
        lb[vp_idx[prv]] = 1.0
        ub[vm_idx[prv]] = 0.0
        c[sp_idx] = c[sm_idx] = -problem.scc_params.weights / net.n_t

    ub[z_idx] = ub[y_idx] = 1.0
    lb[z_idx[fixed]] = 1.0
    add(eq, np.ones((1, net.n_p)), z_idx, [n_v + len(fixed)])
    add(eq, np.ones((1, net.n_n)), y_idx, [n_f])

    A = sp.vstack(leq[0] + eq[0], format="csr")
    A.eliminate_zeros()
    lhs = np.concatenate([np.full(len(b), -np.inf) for b in leq[1]] + eq[1], dtype=float)
    lp = LinearProgram(c, A.tocsc(), lhs, np.concatenate(leq[1] + eq[1], dtype=float), lb, ub)
    lp.validate()
    return lp, vmap


def _at_columns(block, cols, n_cols):
    b = sp.coo_matrix(block)
    cols = np.broadcast_to(cols, b.shape)[b.row, b.col]
    return sp.csr_matrix((b.data, (b.row, cols)), shape=(b.shape[0], n_cols))


def link_tables(problem, t: int):
    """The (n_p, 15, 9) slot table ``[coefficients | rhs]`` of timestep t over
    the columns (q, sigma+, sigma-, theta, eta, v+, v-, z), and its (n_p, 15)
    mask of the slots in use."""
    bounds, scc_params, areas = problem.bounds, problem.scc_params, problem.net.areas
    q_lo, q_hi = bounds.q_lo[t], bounds.q_hi[t]
    th_lo, th_hi = bounds.theta_lo[t], bounds.theta_hi[t]
    e_lo, e_hi = bounds.eta_lo[t], bounds.eta_hi[t]
    cuts = envelopes.sigmoid_envelope(scc_params.rho, scc_params.u_min,
                                      q_lo / areas, q_hi / areas)
    cuts += envelopes.hw_envelope(problem.params.r, problem.params.n_exp, q_lo, q_hi)
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


def flow_polytope(lp: LinearProgram, vmap: VariableMap) -> LinearProgram:
    """``lp`` without the rows that hold a sigma column and with every sigma
    column fixed at 0."""
    sigma = np.concatenate([np.r_[vmap.sigma_pos(t), vmap.sigma_neg(t)]
                            for t in range(vmap.n_t)])
    keep = np.ones(lp.n_rows, dtype=bool)
    keep[lp.A.tocsc()[:, sigma].indices] = False
    ub = lp.ub.copy()
    ub[sigma] = 0.0
    return replace(lp, A=lp.A[keep], lhs=lp.lhs[keep], rhs=lp.rhs[keep], ub=ub)
