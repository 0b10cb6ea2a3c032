"""The SCP step LP in its full-space form, a test-only oracle.

``sccopt.sfscp._step_lp`` poses the step over the stacked controls x alone:
the linearized flows and heads are eliminated through one factorization of
the hydraulic Jacobian.  This builds the same step with every flow and head
as a column, (q, h, x), and the energy and mass equations linearized at q_k
as equality rows

    [[diag g, A12, E, 0], [A12^T, 0, 0, -F]] (q, h, eta, alpha)
        = (-A10 h0 - phi(q_k) + g q_k, d),

g = max(phi'(q_k), 1e-12), E with +1 on each eta's link row and F with +1
on each alpha's node row.  The columns carry the step's boxes: the flow box
(``Subproblem.flow_box``), the heads' and the controls' trust boxes, each
with its ends swapped where a pin or an iterate outside its bounds inverts
it.  Both forms have the same feasible set and optimal value.

``tight_optimum`` solves the full form by ``linprog`` at primal and dual
feasibility tolerances of 1e-10: at HiGHS's default 1e-7 its optimal value
was off by up to 9e-9 relative on random networks, where the reduced form
agreed with the tight value to 3e-10.
"""
import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from sccopt.hydraulics import head_loss
from sccopt.lp import LinearProgram
from sccopt.scc import scc_smooth_grad_flows
from sccopt.sfscp import _trust_box


def full_step_lp(sub, q_k, h_k, x_k) -> LinearProgram:
    net, n_c, n_a = sub.net, len(sub.ctrl), len(sub.afv)
    loss, slope = head_loss(q_k, sub.params)
    g = np.maximum(slope, 1e-12)
    E = sp.coo_matrix((np.ones(n_c), (sub.ctrl, np.arange(n_c))), shape=(net.n_p, n_c))
    F = sp.coo_matrix((np.ones(n_a), (sub.afv, np.arange(n_a))), shape=(net.n_n, n_a))
    A = sp.bmat([[sp.diags(g), net.A12, E, None], [net.A12T, None, None, -F]], format="csc")
    b = np.concatenate([-(net.A10 @ sub.h0) - loss + g * q_k, sub.d])
    lo, hi = map(np.concatenate, zip(
        sub.flow_box(q_k), _trust_box(sub.h_lo, sub.h_hi, h_k),
        _trust_box(sub.lo, sub.hi, np.clip(x_k, sub.lo, sub.hi))))
    c = np.zeros(A.shape[1])
    c[:net.n_p] = -scc_smooth_grad_flows(q_k[None, :], net, sub.scc_params)[0]
    return LinearProgram(c, A, b, b, np.minimum(lo, hi), np.maximum(lo, hi))


def tight_optimum(lp: LinearProgram) -> float | None:
    """The optimal value of the all-equality LP ``lp`` at 1e-10 feasibility
    tolerances, or None when linprog does not report it optimal."""
    res = linprog(lp.c, A_eq=lp.A, b_eq=lp.rhs, bounds=np.column_stack([lp.lb, lp.ub]),
                  method="highs", options=dict(primal_feasibility_tolerance=1e-10,
                                               dual_feasibility_tolerance=1e-10))
    return float(res.fun) if res.status == 0 else None
