"""``solve_lp`` as ``scipy.optimize.linprog(method="highs")`` computes it.

A test-only oracle: ``sccopt.lp.solve_lp`` drives SciPy's bundled HiGHS
directly and must return exactly what this reference returns.  An equality
row (lhs == rhs) goes to ``A_eq``; any other row goes to ``A_ub`` as
A x <= rhs when rhs is finite and as -A x <= -lhs when lhs is finite, so a
two-sided row becomes two rows and its dual is the sum of their marginals.
For an LP with such rows linprog solves a different model, which agrees
with ``solve_lp`` in status and optimal value only.
"""
import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from sccopt.lp import (INFEASIBLE, ITERATION_LIMIT, NUMERICAL, OPTIMAL, UNBOUNDED,
                       LpSolution)

_STATUS = {0: OPTIMAL, 1: ITERATION_LIMIT, 2: INFEASIBLE, 3: UNBOUNDED, 4: NUMERICAL}


def linprog_solve_lp(lp):
    lp.validate()
    is_eq = lp.lhs == lp.rhs
    upper = np.flatnonzero(~is_eq & (lp.rhs < np.inf))
    lower = np.flatnonzero(~is_eq & (lp.lhs > -np.inf))
    A = sp.csr_matrix(lp.A)
    A_eq = A[is_eq] if is_eq.any() else None
    b_eq = lp.rhs[is_eq] if is_eq.any() else None
    ub_rows = np.concatenate([upper, lower])
    A_ub = sp.vstack([A[upper], -A[lower]]) if ub_rows.size else None
    b_ub = np.concatenate([lp.rhs[upper], -lp.lhs[lower]]) if ub_rows.size else None
    res = linprog(lp.c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=np.column_stack([lp.lb, lp.ub]), method="highs")
    status = _STATUS.get(res.status, INFEASIBLE)
    if status != OPTIMAL:
        return LpSolution(status)
    duals = np.zeros(lp.n_rows)
    if A_eq is not None:
        duals[is_eq] = res.eqlin.marginals
    if A_ub is not None:
        signs = np.concatenate([np.ones(upper.size), -np.ones(lower.size)])
        np.add.at(duals, ub_rows, signs * res.ineqlin.marginals)
    return LpSolution(OPTIMAL, np.asarray(res.x), float(res.fun), duals)
