"""Sparse LP data model and solver front end.

A fresh LP is solved by HiGHS's dual simplex (Huangfu and Hall, 2018,
*Parallelizing the dual revised simplex method*), driven through the
bindings SciPy bundles as the private module ``scipy.optimize._highspy._core``
(first shipped in SciPy 1.15, hence ``scipy>=1.15``).  ``solve_lp`` hands
HiGHS the model and options ``scipy.optimize.linprog(method="highs")`` would
and applies linprog's post-solve feasibility check, but skips linprog's
per-call input cleaning and option checking, which cost more than the solve
itself on the small SCP step LPs.  The rest of the pipeline sees only
``solve_lp``, so a different engine can be swapped in behind it.

An LP from ``LinearProgram.hot_started()`` instead shares one HiGHS
instance with its ``with_objective`` copies, as the LPs of an OBBT pass do
(Gleixner et al., 2017, *Three enhancements for optimization-based bound
tightening*).  Each later objective is re-solved by primal simplex, without
presolve, from the basis the previous solve left: a new objective keeps
that basis primal feasible.  The values agree with a fresh solve only to
HiGHS's feasibility tolerance, and one that fails hot is solved fresh.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

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


@dataclass(eq=False)
class LinearProgram:
    """min c @ x  s.t.  A x (<=|=) b,  lb <= x <= ub.

    A may be any SciPy sparse matrix or array (CSR, CSC, ...).  Two LPs
    compare equal only when they are the same object.
    """

    c: np.ndarray
    A: sp.spmatrix | sp.sparray
    senses: np.ndarray
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    session: "HotSession | None" = field(default=None, repr=False)

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
        """Same constraints and session, new objective (OBBT re-solves use this)."""
        return replace(self, c=np.asarray(c, dtype=float))

    def hot_started(self) -> "LinearProgram":
        """This LP with a new ``HotSession``, shared by its ``with_objective``
        copies, so ``solve_lp`` re-solves them in one HiGHS instance."""
        return replace(self, session=HotSession())


@dataclass
class LpSolution:
    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    duals: np.ndarray | None = None


def _options(presolve: str, strategy) -> _highs.HighsOptions:
    options = _highs.HighsOptions()
    options.presolve = presolve
    options.output_flag = False
    options.log_to_console = False
    options.simplex_strategy = strategy
    return options


_STRATEGY = _highs.simplex_constants.SimplexStrategy
# linprog's HiGHS options; passOptions copies them, so one set serves every solve
_OPTIONS = _options("on", _STRATEGY.kSimplexStrategyDual)
# a hot session's options: linprog's, but primal simplex without presolve, so
# a new objective restarts from the kept basis, which stays primal feasible
_HOT_OPTIONS = _options("off", _STRATEGY.kSimplexStrategyPrimal)


@dataclass(frozen=True)
class _Rows:
    """An LP's data as HiGHS takes it: the LEQ rows, then the EQ rows (as
    linprog orders them), as lhs <= A x <= rhs with A in canonical CSC."""

    order: np.ndarray
    n_leq: int
    A: sp.csc_matrix
    lhs: np.ndarray
    rhs: np.ndarray
    lb: np.ndarray
    ub: np.ndarray


def _rows(lp: LinearProgram) -> _Rows:
    is_eq = lp.senses == EQ
    order = np.argsort(is_eq, kind="stable")
    n_leq = len(order) - int(is_eq.sum())
    A = lp.A.tocsr()[order].tocsc() if 0 < n_leq < len(order) else lp.A.tocsc()
    if not A.has_canonical_format:
        A = A.copy()
        A.sum_duplicates()
    rhs = np.asarray(lp.b, dtype=float)[order]
    lhs = np.where(is_eq[order], rhs, -np.inf)
    return _Rows(order, n_leq, A, lhs, rhs,
                 np.asarray(lp.lb, dtype=float), np.asarray(lp.ub, dtype=float))


def _new_highs(options, c, rows: _Rows):
    """A HiGHS instance holding min c @ x over ``rows``, or the model status
    it stopped with."""
    model = _highs.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = len(c)
    model.num_row_ = model.a_matrix_.num_row_ = len(rows.rhs)
    model.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    model.a_matrix_.start_ = rows.A.indptr
    model.a_matrix_.index_ = rows.A.indices
    model.a_matrix_.value_ = rows.A.data
    model.col_cost_, model.col_lower_, model.col_upper_ = c, rows.lb, rows.ub
    model.row_lower_, model.row_upper_ = rows.lhs, rows.rhs
    highs = _highs._Highs()
    if highs.passOptions(options) == _highs.HighsStatus.kError:
        return highs.getModelStatus()
    if highs.passModel(model) == _highs.HighsStatus.kError:
        return _MS.kModelError
    return highs


def _run(highs):
    """Run ``highs``; returns the model status and, when optimal,
    (x, objective, row activities, row duals)."""
    if highs.run() == _highs.HighsStatus.kError or highs.getModelStatus() != _MS.kOptimal:
        return highs.getModelStatus(), None
    sol = highs.getSolution()
    return _MS.kOptimal, (np.array(sol.col_value), highs.getInfo().objective_function_value,
                          np.array(sol.row_value), np.array(sol.row_dual))


def _run_highs(c, rows: _Rows):
    """One fresh HiGHS solve with linprog's options."""
    highs = _new_highs(_OPTIONS, c, rows)
    if isinstance(highs, _MS):
        return highs, None
    return _run(highs)


class HotSession:
    """One HiGHS instance that re-solves an LP's constraints for a sequence of
    objectives, each from the basis the previous solve left.

    It keeps the rows ``solve_lp`` prepared on first use, so every LP solved
    through it must share the first one's constraints, as ``with_objective``
    copies do.  ``cold_retries`` counts the solves that failed hot and were
    solved cold instead.
    """

    def __init__(self):
        self.rows: _Rows | None = None
        self.highs = None
        self.cols = None
        self.cold_retries = 0

    def run(self, c):
        """Solve for objective ``c`` from the kept basis; same result shape
        as ``_run_highs``."""
        if self.highs is None:
            highs = _new_highs(_HOT_OPTIONS, c, self.rows)
            if isinstance(highs, _MS):
                return highs, None
            self.highs, self.cols = highs, np.arange(len(c), dtype=np.int32)
        elif self.highs.changeColsCost(len(c), self.cols, c) == _highs.HighsStatus.kError:
            return _MS.kModelError, None
        return _run(self.highs)


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve with HiGHS; duals are returned in the original row order.

    An optimal point that fails linprog's feasibility check is NUMERICAL.
    An LP carrying a ``HotSession`` (see ``LinearProgram.hot_started``) is
    re-solved in it; if that is not OPTIMAL, the session's instance is
    dropped, so the next LP starts a fresh one, and this LP is solved cold.
    """
    lp.validate()
    c = np.asarray(lp.c, dtype=float)
    session = lp.session
    if session is None:
        rows = _rows(lp)
    else:
        if session.rows is None:
            session.rows = _rows(lp)
        rows = session.rows
        sol = _checked(lp, rows, *session.run(c))
        if sol.status == OPTIMAL:
            return sol
        session.highs = None
        session.cold_retries += 1
    return _checked(lp, rows, *_run_highs(c, rows))


def _checked(lp: LinearProgram, rows: _Rows, status, result) -> LpSolution:
    if result is None:
        return LpSolution(_STATUS.get(status, NUMERICAL))
    x, objective, activity, row_dual = result
    # linprog's check of the point: bounds, LEQ slacks and EQ residuals
    # within _FEAS_TOL, and no NaN
    tol, residual, n_leq = _FEAS_TOL, rows.rhs - activity, rows.n_leq
    if not (np.all(x >= rows.lb - tol) and np.all(x <= rows.ub + tol)
            and np.all(residual[:n_leq] >= -tol)
            and np.all(np.abs(residual[n_leq:]) <= tol)) or np.isnan(objective):
        return LpSolution(NUMERICAL)
    duals = np.empty(lp.n_rows)
    duals[rows.order] = row_dual
    return LpSolution(OPTIMAL, x, float(objective), duals)
