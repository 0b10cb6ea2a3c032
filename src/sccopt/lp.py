"""Sparse LP data model and solver front end.

A ``LinearProgram`` is stored in HiGHS's own form, lhs <= A x <= rhs with
bounds on x, and ``solve_lp`` hands it to HiGHS's dual simplex (Huangfu and
Hall, 2018, *Parallelizing the dual revised simplex method*) with no
translation: A is a ``CscMatrix``, whose canonical arrays go in as they
are, with no conversion, copy or summing of repeated entries, and the rows
and duals keep the LP's order.  HiGHS is driven through the bindings SciPy
bundles as the private module ``scipy.optimize._highspy._core`` (first
shipped in SciPy 1.15, hence ``scipy>=1.15``): presolve on, dual simplex,
HiGHS's default tolerances and max-value scaling (``simplex_scale_strategy
= 4``; Elble and Sahinidis, 2012, *Scaling linear optimization problems
prior to application of the simplex method*), with linprog's post-solve
feasibility check, but without linprog's per-call input cleaning and option
checking, which cost more than the solve itself on the small SCP step LPs.
``scipy_ext.load_extension`` loads that one module without running
``scipy.optimize``'s ``__init__``, whose 90 other modules sccopt never calls.
The rest of the pipeline sees only ``solve_lp``, so a different engine can
be swapped in behind it.

A ``LinearProgram`` is plain data and holds no solver state.  A cold solve
passes it to its thread's one HiGHS instance, which each cold solve in
that thread re-uses: ``passModel`` replaces the previous model and drops
its basis and solution, so every LP is solved from scratch, with the
bits a fresh instance gives on every benchmark design.  Passing
``solve_lp`` a ``HotSession`` instead re-solves LPs that share their
constraints and differ in the objective, as the LPs of one bound direction
of an OBBT pass do (Gleixner et al., 2017, *Three enhancements for
optimization-based bound tightening*), in the one HiGHS instance the
session keeps.  A session is used by one thread at a time; separate
sessions over the same LP may run in separate threads, since HiGHS releases
the GIL while it solves and ``solve_lp`` only reads the LP's arrays.  Each
later objective is re-solved by primal simplex, without presolve, from the
basis the previous solve left: a new objective keeps that basis primal
feasible.  The values agree with a fresh solve only to HiGHS's feasibility
tolerance, and one that fails hot is solved fresh at tight tolerances.

``solve_lp`` also works in a process forked after HiGHS has run, as the
candidate workers of ``pipeline.run_cms`` are.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from threading import local

import numpy as np

from .csc import CscMatrix
from .errors import InconsistentBounds
from .scipy_ext import load_extension

_highs = load_extension("scipy.optimize._highspy._core")

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
    """min c @ x  s.t.  lhs <= A x <= rhs,  lb <= x <= ub.

    This is HiGHS's own model, which ``solve_lp`` passes on as it is: a row
    with lhs = -inf is an inequality A x <= rhs, and a row with lhs == rhs
    is an equality.  A is a ``CscMatrix``, whose canonical arrays HiGHS
    takes as they are; anything else raises TypeError.  The vectors are
    stored as float arrays.  Two LPs compare equal only when they are the
    same object.
    """

    c: np.ndarray
    A: CscMatrix
    lhs: np.ndarray
    rhs: np.ndarray
    lb: np.ndarray
    ub: np.ndarray

    def __post_init__(self):
        if not isinstance(self.A, CscMatrix):
            raise TypeError(f"LP constraint matrix is a {type(self.A).__name__}, "
                            "not a CscMatrix")
        for name in ("c", "lhs", "rhs", "lb", "ub"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))

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
        if not (len(self.lhs) == len(self.rhs) == n):
            raise ValueError("row dimension mismatch")
        if not (np.isfinite(self.A.data).all() and np.isfinite(self.c).all()):
            raise ValueError("NaN or infinite coefficient in LP")
        if any(np.isnan(v).any() for v in (self.lhs, self.rhs, self.lb, self.ub)):
            raise ValueError("NaN bound in LP")
        if np.any(self.lhs == np.inf) or np.any(self.rhs == -np.inf):
            raise ValueError("row bound lhs = +inf or rhs = -inf")
        for kind, lo, hi in (("variable", self.lb, self.ub), ("row", self.lhs, self.rhs)):
            bad = lo > hi
            if np.any(bad):
                idx = int(np.argmax(bad))
                raise InconsistentBounds(
                    f"{kind} {idx}: lower bound {lo[idx]} > upper bound {hi[idx]}")


@dataclass
class LpSolution:
    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    duals: np.ndarray | None = None
    # HiGHS's simplex_iteration_count of the solve that returned this point
    simplex_iterations: int = 0


def _options(presolve: str, strategy) -> _highs.HighsOptions:
    options = _highs.HighsOptions()
    options.presolve = presolve
    options.output_flag = False
    options.log_to_console = False
    options.simplex_strategy = strategy
    return options


_STRATEGY = _highs.simplex_constants.SimplexStrategy
# a cold solve's options; passOptions copies them, so one set serves every
# solve.  The relaxation's coefficients run up to about 1e4.  At the bottom, a
# few flow coefficients of sigmoid-envelope cut rows lie at or below HiGHS's
# small_matrix_value of 1e-9, which HiGHS drops (at the benchmark fixtures'
# seed 0: 1, 12 and 15 entries on grid25, rand60 and rand100x4, the smallest
# 2.2e-55, 2.9e-36 and 6.7e-13); _run checks the point on lp.A @ x, which
# keeps them.  Under HiGHS's default equilibration scaling (strategy 2) dual
# simplex takes 1.5 to 2.2 times as long on the relaxations
# scripts/lp_scaling.py times, and does not solve that of
# random_network(300, 90, seed=5, n_t=4) within 150 s, where max-value
# scaling takes 12 s.  Of the benchmark runs' SCP step LPs,
# every one of grid25 and rand100x4 returns the same x under both scalings;
# 3 of rand60's 110 return another optimal vertex, at the same objective
_OPTIONS = _options("on", _STRATEGY.kSimplexStrategyDual)
_OPTIONS.simplex_scale_strategy = 4
# a hot session's options: HiGHS's defaults, with primal simplex and no
# presolve, so a new objective restarts from the kept basis, which stays
# primal feasible.  Hot sessions keep the default equilibration scaling:
# under max-value scaling rand60's OBBT sessions took 58,076 simplex
# iterations, not 29,893.  At HiGHS's default 1e-7 dual feasibility tolerance
# primal simplex stops at a vertex whose objective may exceed the cold
# (presolved) optimum by more than 1e-7, e.g. when every cost is about 1e-7
# and it keeps the slack basis; the tightest tolerance HiGHS accepts makes
# hot re-solves as exact as cold ones
_HOT_OPTIONS = _options("off", _STRATEGY.kSimplexStrategyPrimal)
_HOT_OPTIONS.dual_feasibility_tolerance = 1e-10
# a failed hot solve's cold retry: the cold options at the tightest primal
# and dual tolerances HiGHS accepts, as exact as a hot solve.  With every
# bound LP of random_network(60, 20, seed=1) retried cold, OBBT's box lies up
# to 1.6e-7 from the hot box at HiGHS's default tolerances and 1.4e-8 at
# these (1.2e-8 at the tight dual tolerance alone, 2.2e-7 at the tight
# primal one alone), against obbt._OBBT_PAD's 1e-6; under max-value scaling
# and equilibration scaling alike
_RETRY_OPTIONS = _options("on", _STRATEGY.kSimplexStrategyDual)
_RETRY_OPTIONS.simplex_scale_strategy = _OPTIONS.simplex_scale_strategy
_RETRY_OPTIONS.primal_feasibility_tolerance = 1e-10
_RETRY_OPTIONS.dual_feasibility_tolerance = 1e-10


# each thread's HiGHS instance for the cold solves under _OPTIONS, which
# passModel re-uses: it replaces the instance's model and drops its basis and
# solution.  HotSession's instances and the cold retries get fresh ones
_cold = local()


def _after_fork_in_child():
    # A forked child inherits HiGHS's task scheduler but none of its worker
    # threads, and a parallel solve there would wait on them forever; the
    # child drops the scheduler, so its first solve starts one of its own.
    # The reset does not block: a blocking one waits for the dead workers to
    # let go of the scheduler, and crashes the child when the parent's
    # scheduler had workers.  The child also builds its own cold instance
    _highs._Highs.resetGlobalScheduler(False)
    vars(_cold).clear()


os.register_at_fork(after_in_child=_after_fork_in_child)


def _new_highs(options, lp: LinearProgram):
    """A HiGHS instance holding ``lp``, or the model status it stopped with:
    under _OPTIONS the calling thread's cold instance, otherwise a new one."""
    model = _highs.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = lp.n_cols
    model.num_row_ = model.a_matrix_.num_row_ = lp.n_rows
    model.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    model.a_matrix_.start_ = lp.A.indptr
    model.a_matrix_.index_ = lp.A.indices
    model.a_matrix_.value_ = lp.A.data
    model.col_cost_, model.col_lower_, model.col_upper_ = lp.c, lp.lb, lp.ub
    model.row_lower_, model.row_upper_ = lp.lhs, lp.rhs
    highs = getattr(_cold, "highs", None) if options is _OPTIONS else None
    if highs is None:
        highs = _highs._Highs()
        if highs.passOptions(options) == _highs.HighsStatus.kError:
            return highs.getModelStatus()
        if options is _OPTIONS:
            _cold.highs = highs
    if highs.passModel(model) == _highs.HighsStatus.kError:
        return _MS.kModelError
    return highs


def _run(highs, lp: LinearProgram) -> LpSolution:
    """Run ``highs``, an instance holding ``lp`` or the model status
    ``_new_highs`` stopped with, and apply linprog's post-solve check: an
    optimal point whose bounds or row sides miss by more than _FEAS_TOL, or
    with a NaN, is NUMERICAL.  On a row with lhs == rhs the two sides test
    |rhs - activity| <= _FEAS_TOL, as linprog's equality check does.  The
    activities are ``lp.A @ x``, not HiGHS's row values, which leave out the
    matrix entries of magnitude up to 1e-9 that HiGHS drops."""
    if isinstance(highs, _MS):
        return LpSolution(_STATUS.get(highs, NUMERICAL))
    if highs.run() == _highs.HighsStatus.kError or highs.getModelStatus() != _MS.kOptimal:
        return LpSolution(_STATUS.get(highs.getModelStatus(), NUMERICAL))
    sol, info = highs.getSolution(), highs.getInfo()
    x = np.array(sol.col_value)
    activity = lp.A @ x
    objective, tol = info.objective_function_value, _FEAS_TOL
    if not (np.all(x >= lp.lb - tol) and np.all(x <= lp.ub + tol)
            and np.all(lp.rhs - activity >= -tol)
            and np.all(activity - lp.lhs >= -tol)) or np.isnan(objective):
        return LpSolution(NUMERICAL)
    return LpSolution(OPTIMAL, x, float(objective), np.array(sol.row_dual),
                      int(info.simplex_iteration_count))


class HotSession:
    """One HiGHS instance that re-solves an LP's constraints for a sequence of
    objectives, each from the basis the previous solve left.

    The instance holds the constraints of the LP it was built from, so every
    LP solved through it must share them, as copies with a new objective do.
    ``cold_retries`` counts the solves that failed hot and were solved cold
    instead.
    """

    def __init__(self):
        self.highs = None
        self.cols = None
        self.cold_retries = 0

    def run(self, lp: LinearProgram) -> LpSolution:
        """Solve for ``lp``'s objective from the kept basis.  If that is not
        OPTIMAL, the instance is dropped, so the next LP starts a fresh one,
        and ``lp`` is solved cold with _RETRY_OPTIONS."""
        highs = self.highs
        if highs is None:
            highs = _new_highs(_HOT_OPTIONS, lp)
            if not isinstance(highs, _MS):
                self.highs, self.cols = highs, np.arange(lp.n_cols, dtype=np.int32)
        elif highs.changeColsCost(lp.n_cols, self.cols, lp.c) == _highs.HighsStatus.kError:
            highs = _MS.kModelError
        sol = _run(highs, lp)
        if sol.status != OPTIMAL:
            self.highs = None
            self.cold_retries += 1
            sol = _run(_new_highs(_RETRY_OPTIONS, lp), lp)
        return sol


def solve_lp(lp: LinearProgram, session: HotSession | None = None) -> LpSolution:
    """Solve with HiGHS; the duals are in the LP's row order.

    An optimal point that fails linprog's feasibility check is NUMERICAL.
    Given a ``session``, the LP is solved by ``session.run``; otherwise it
    is solved cold.
    """
    lp.validate()
    if session is not None:
        return session.run(lp)
    return _run(_new_highs(_OPTIONS, lp), lp)
