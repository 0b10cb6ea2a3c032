"""Sparse LP data model and solver front end.

Every LP is solved by HiGHS's dual simplex (Huangfu and Hall, 2018,
*Parallelizing the dual revised simplex method*), driven through the
bindings SciPy bundles as the private module ``scipy.optimize._highspy._core``
(first shipped in SciPy 1.15, hence ``scipy>=1.15``).  ``solve_lp`` hands
HiGHS the model and options ``scipy.optimize.linprog(method="highs")`` would
and applies linprog's post-solve feasibility check, but skips linprog's
per-call input cleaning and option checking, which cost more than the solve
itself on the small SCP step LPs.  The rest of the pipeline sees only
``solve_lp``, so a different engine can be swapped in behind it.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.optimize._highspy._core as _highs

from .errors import InconsistentBounds

LEQ = "<"
EQ = "="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"
NUMERICAL = "numerical"

# HiGHS model statuses as linprog maps them; any other status is NUMERICAL
_MS = _highs.HighsModelStatus
_STATUS = {_MS.kOptimal: OPTIMAL, _MS.kTimeLimit: ITERATION_LIMIT,
           _MS.kIterationLimit: ITERATION_LIMIT, _MS.kInfeasible: INFEASIBLE,
           _MS.kModelError: INFEASIBLE, _MS.kUnbounded: UNBOUNDED}
# linprog's post-solve tolerance, sqrt(tol) * 10 at its default tol of 1e-9
_FEAS_TOL = np.sqrt(1e-9) * 10


@dataclass
class LinearProgram:
    """min c @ x  s.t.  A x (<=|=) b,  lb <= x <= ub.

    A may be any SciPy sparse matrix or array (CSR, CSC, ...).
    """

    c: np.ndarray
    A: sp.spmatrix | sp.sparray
    senses: np.ndarray
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.A.shape[0]

    @property
    def n_cols(self) -> int:
        return self.A.shape[1]

    def validate(self):
        n, m = self.n_rows, self.n_cols
        if m == 0:
            raise ValueError("LP has no columns")
        if not (len(self.c) == len(self.lb) == len(self.ub) == m):
            raise ValueError("column dimension mismatch")
        if not (len(self.senses) == len(self.b) == n):
            raise ValueError("row dimension mismatch")
        if not (np.isfinite(self.A.data).all() and np.isfinite(self.c).all()
                and np.isfinite(self.b).all()):
            raise ValueError("NaN or infinite coefficient in LP")
        if np.isnan(self.lb).any() or np.isnan(self.ub).any():
            raise ValueError("NaN bound in LP")
        bad = self.lb > self.ub
        if np.any(bad):
            idx = int(np.argmax(bad))
            raise InconsistentBounds(
                f"variable {idx}: lower bound {self.lb[idx]} > upper bound {self.ub[idx]}")

    def with_objective(self, c: np.ndarray) -> "LinearProgram":
        """Same constraints, new objective (OBBT re-solves use this)."""
        return replace(self, c=np.asarray(c, dtype=float))


@dataclass
class LpSolution:
    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    duals: np.ndarray | None = None


# linprog's HiGHS options; passOptions copies them, so one set serves every solve
_OPTIONS = _highs.HighsOptions()
_OPTIONS.presolve = "on"
_OPTIONS.output_flag = False
_OPTIONS.log_to_console = False
_OPTIONS.simplex_strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual


def _run_highs(c, A, lhs, rhs, lb, ub):
    """One fresh HiGHS solve of min c @ x s.t. lhs <= A x <= rhs, lb <= x <= ub
    (A in CSC) with linprog's options; returns the model status and, when
    optimal, (x, objective, row activities, row duals)."""
    model = _highs.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = len(c)
    model.num_row_ = model.a_matrix_.num_row_ = len(rhs)
    model.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    model.a_matrix_.start_ = A.indptr
    model.a_matrix_.index_ = A.indices
    model.a_matrix_.value_ = A.data
    model.col_cost_, model.col_lower_, model.col_upper_ = c, lb, ub
    model.row_lower_, model.row_upper_ = lhs, rhs
    highs = _highs._Highs()
    if highs.passOptions(_OPTIONS) == _highs.HighsStatus.kError:
        return highs.getModelStatus(), None
    if highs.passModel(model) == _highs.HighsStatus.kError:
        return _MS.kModelError, None
    if highs.run() == _highs.HighsStatus.kError or highs.getModelStatus() != _MS.kOptimal:
        return highs.getModelStatus(), None
    sol = highs.getSolution()
    return _MS.kOptimal, (np.array(sol.col_value), highs.getInfo().objective_function_value,
                          np.array(sol.row_value), np.array(sol.row_dual))


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve with HiGHS; duals are returned in the original row order.

    An optimal point that fails linprog's feasibility check is NUMERICAL.
    """
    lp.validate()
    is_eq = lp.senses == EQ
    # HiGHS rows as linprog orders them: the LEQ rows, then the EQ rows
    order = np.argsort(is_eq, kind="stable")
    n_leq = len(order) - int(is_eq.sum())
    A = lp.A.tocsr()[order].tocsc() if 0 < n_leq < len(order) else lp.A.tocsc()
    if not A.has_canonical_format:
        A = A.copy()
        A.sum_duplicates()
    b = np.asarray(lp.b, dtype=float)[order]
    lhs = np.where(is_eq[order], b, -np.inf)
    lb = np.asarray(lp.lb, dtype=float)
    ub = np.asarray(lp.ub, dtype=float)
    status, result = _run_highs(np.asarray(lp.c, dtype=float), A, lhs, b, lb, ub)
    if result is None:
        return LpSolution(_STATUS.get(status, NUMERICAL))
    x, objective, activity, row_dual = result
    # linprog's check of the point: bounds, LEQ slacks and EQ residuals
    # within _FEAS_TOL, and no NaN
    tol, residual = _FEAS_TOL, b - activity
    if not (np.all(x >= lb - tol) and np.all(x <= ub + tol)
            and np.all(residual[:n_leq] >= -tol)
            and np.all(np.abs(residual[n_leq:]) <= tol)) or np.isnan(objective):
        return LpSolution(NUMERICAL)
    duals = np.empty(lp.n_rows)
    duals[order] = row_dual
    return LpSolution(OPTIMAL, x, float(objective), duals)

