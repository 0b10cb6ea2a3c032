"""``solve_lp`` as ``scipy.optimize.linprog(method="highs")`` computes it.

A test-only oracle: ``sccopt.lp.solve_lp`` drives SciPy's bundled HiGHS
directly and must return exactly what this reference returns.  Each row of
the LP must be an inequality (lhs = -inf), which goes to ``A_ub``, or an
equality (lhs == rhs), which goes to ``A_eq``.
"""
import numpy as np
from scipy.optimize import linprog

from sccopt.lp import (INFEASIBLE, ITERATION_LIMIT, NUMERICAL, OPTIMAL, UNBOUNDED,
                       LpSolution)

_STATUS = {0: OPTIMAL, 1: ITERATION_LIMIT, 2: INFEASIBLE, 3: UNBOUNDED, 4: NUMERICAL}


def linprog_solve_lp(lp):
    lp.validate()
    is_eq = lp.lhs == lp.rhs
    if not np.all(is_eq | (lp.lhs == -np.inf)):
        raise ValueError("linprog reference takes only lhs = -inf or lhs == rhs rows")
    A_eq = lp.A[is_eq] if is_eq.any() else None
    b_eq = lp.rhs[is_eq] if is_eq.any() else None
    A_ub = lp.A[~is_eq] if (~is_eq).any() else None
    b_ub = lp.rhs[~is_eq] if (~is_eq).any() else None
    res = linprog(lp.c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=np.column_stack([lp.lb, lp.ub]), method="highs")
    status = _STATUS.get(res.status, INFEASIBLE)
    if status != OPTIMAL:
        return LpSolution(status)
    duals = np.zeros(lp.n_rows)
    if A_eq is not None:
        duals[is_eq] = res.eqlin.marginals
    if A_ub is not None:
        duals[~is_eq] = res.ineqlin.marginals
    return LpSolution(OPTIMAL, np.asarray(res.x), float(res.fun), duals)
