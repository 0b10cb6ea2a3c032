import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import event, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize._highspy._core import HighsModelStatus, HighsStatus

import sccopt
from linprog_reference import linprog_solve_lp
from oracle_simplex import simplex_solve
from sccopt.errors import InconsistentBounds
from sccopt.hydraulics import solve_steady
from sccopt.lp import (_RETRY_OPTIONS, INFEASIBLE, NUMERICAL, OPTIMAL, UNBOUNDED,
                       LinearProgram, _new_highs, _run, solve_lp)
from sccopt.pipeline import RunConfig, default_problem, run_cms
from sccopt.relax import build_lp
from sccopt.sfscp import Subproblem, ValveDesign, _step_lp


# a row written as linprog takes it: A x <= b (LEQ) or A x == b (EQ)
LEQ, EQ = "<=", "=="


def row_bounds(senses, b):
    """(lhs, rhs) of rows with these senses and right-hand sides."""
    b = np.asarray(b, float)
    return np.where(np.asarray(senses, dtype=object) == EQ, b, -np.inf), b


def make_lp(c, A, senses, b, lb, ub):
    return LinearProgram(c, sp.csr_matrix(np.asarray(A, float)), *row_bounds(senses, b), lb, ub)


class FakeHighs:
    """What ``solve_lp`` calls on a HiGHS instance, ending in a chosen model
    status and, when that is optimal, a chosen point: x, objective, row
    activities and row duals, reached in 7 simplex iterations."""

    def __init__(self, status, x=None, objective=None, activity=None, duals=None):
        self.status = status
        self.solution = SimpleNamespace(col_value=x, row_value=activity, row_dual=duals)
        self.info = SimpleNamespace(objective_function_value=objective,
                                    simplex_iteration_count=7)

    def run(self):
        return HighsStatus.kOk

    def changeColsCost(self, *args):
        return HighsStatus.kOk

    def getModelStatus(self):
        return self.status

    def getSolution(self):
        return self.solution

    def getInfo(self):
        return self.info


class TestSolveBasics:
    def test_tiny_lp(self):
        # min -x - y  s.t. x + y <= 1, 0 <= x,y <= 1  -> obj -1
        lp = make_lp([-1, -1], [[1, 1]], [LEQ], [1], [0, 0], [1, 1])
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(-1.0)

    def test_equality_row(self):
        lp = make_lp([1, 2], [[1, 1]], [EQ], [3], [0, 0], [10, 10])
        sol = solve_lp(lp)
        assert sol.objective == pytest.approx(3.0)
        assert sol.x == pytest.approx([3.0, 0.0])

    def test_infeasible_detected(self):
        lp = make_lp([1], [[1]], [EQ], [5], [0], [1])
        assert solve_lp(lp).status == INFEASIBLE

    def test_unbounded_detected(self):
        lp = make_lp([-1], [[0]], [LEQ], [1], [0], [np.inf])
        assert solve_lp(lp).status == UNBOUNDED

    def test_numerical_trouble_is_not_infeasible(self, monkeypatch):
        # model statuses HiGHS stops with on numerical difficulties
        lp = make_lp([1], [[1]], [LEQ], [1], [0], [1])
        for status in (HighsModelStatus.kSolveError, HighsModelStatus.kPostsolveError,
                       HighsModelStatus.kUnboundedOrInfeasible):
            monkeypatch.setattr("sccopt.lp._new_highs", lambda options, lp, s=status: FakeHighs(s))
            assert solve_lp(lp).status == NUMERICAL

    def test_crossed_bounds_rejected(self):
        lp = make_lp([1], [[1]], [LEQ], [1], [2], [1])
        with pytest.raises(InconsistentBounds):
            solve_lp(lp)

    def test_nan_rejected(self):
        lp = make_lp([np.nan], [[1]], [LEQ], [1], [0], [1])
        with pytest.raises(ValueError):
            solve_lp(lp)

    @pytest.mark.parametrize("field, value", [
        ("c", [np.inf]), ("b", [-np.inf]), ("lb", [np.nan]), ("ub", [np.nan])])
    def test_non_finite_data_rejected(self, field, value):
        # linprog rejected these too; infinite bounds stay allowed
        kw = dict(c=[1], A=[[1]], senses=[LEQ], b=[1], lb=[0], ub=[1])
        kw[field] = value
        with pytest.raises(ValueError):
            solve_lp(make_lp(**kw))

    @pytest.mark.parametrize("lhs, rhs", [
        ([np.nan], [1.0]), ([0.0], [np.nan]), ([np.inf], [np.inf]), ([-np.inf], [-np.inf])])
    def test_bad_row_bound_rejected(self, lhs, rhs):
        with pytest.raises(ValueError):
            solve_lp(LinearProgram([1.0], sp.csr_matrix([[1.0]]), lhs, rhs, [0.0], [1.0]))

    def test_crossed_row_bounds_rejected_naming_the_row(self):
        lp = LinearProgram([1.0, 1.0], sp.csr_matrix(np.eye(2)), [0.0, 2.0], [1.0, 1.0],
                           [0.0, 0.0], [5.0, 5.0])
        with pytest.raises(InconsistentBounds, match="^row 1: lower bound 2.0 > upper bound 1.0"):
            solve_lp(lp)

    def test_no_columns_rejected(self):
        lp = LinearProgram(np.zeros(0), sp.csr_matrix((1, 0)), [-np.inf], [1.0], [], [])
        with pytest.raises(ValueError):
            solve_lp(lp)

    def test_duals_row_order(self):
        # interleave eq and ub rows; duals must come back in original order
        lp = make_lp([1, 1, 1],
                     [[1, 0, 0], [0, 1, 1], [0, 0, 1]],
                     [LEQ, EQ, LEQ],
                     [2, 3, 2],
                     [0, 0, 0], [10, 10, 10])
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        assert len(sol.duals) == 3
        # binding equality row carries the nonzero dual
        assert abs(sol.duals[1]) > 0

    def test_replaced_objective_reuses_constraints(self):
        lp = make_lp([1, 0], [[1, 1]], [LEQ], [2], [0, 0], [5, 5])
        lp2 = replace(lp, c=[-1, -1])
        assert solve_lp(lp).objective == pytest.approx(0.0)
        assert solve_lp(lp2).objective == pytest.approx(-2.0)

    def test_lps_compare_by_identity(self):
        # array fields have no single truth value, so an LP equals only itself
        lp = make_lp([1, 0], [[1, 1]], [LEQ], [2], [0, 0], [5, 5])
        assert lp == lp
        assert (lp == replace(lp, c=lp.c)) is False
        assert (lp == replace(lp, c=[0, 1])) is False


class TestPostSolveCheck:
    """An "optimal" point from HiGHS passes linprog's feasibility check (bounds,
    LEQ slacks and EQ residuals within sqrt(1e-9) * 10) or reads NUMERICAL."""

    # rows: x0 + x1 <= 1 (LEQ), x0 - x1 = 0 (EQ)
    LP = make_lp([1, 1], [[1, 1], [1, -1]], [LEQ, EQ], [1, 0], [0, 0], [1, 1])

    @pytest.mark.parametrize("x, activity, objective, status", [
        ([0.5, 0.5], [1.0, 0.0], 1.0, OPTIMAL),
        ([-1e-4, 0.5], [1.0, 1e-4], 1.0, OPTIMAL),       # all within the tolerance
        ([-1e-3, 0.5], [0.5, 0.0], 1.0, NUMERICAL),      # lower bound
        ([0.5, 1.001], [1.0, 0.0], 1.0, NUMERICAL),      # upper bound
        ([0.5, 0.5], [1.001, 0.0], 1.0, NUMERICAL),      # LEQ row
        ([0.5, 0.5], [1.0, -1e-3], 1.0, NUMERICAL),      # EQ row
        ([np.nan, 0.5], [1.0, 0.0], 1.0, NUMERICAL),
        ([0.5, 0.5], [1.0, np.nan], 1.0, NUMERICAL),
        ([0.5, 0.5], [1.0, 0.0], np.nan, NUMERICAL),
        ([0.5, 0.5], [1.0, 1e-3], 1.0, NUMERICAL),       # EQ row, from above
    ])
    def test_violating_point_is_numerical(self, monkeypatch, x, activity, objective, status):
        highs = FakeHighs(HighsModelStatus.kOptimal, x, objective, activity, [0.0, 2.0])
        monkeypatch.setattr("sccopt.lp._new_highs", lambda options, lp: highs)
        sol = solve_lp(self.LP)
        assert sol.status == status
        if status == OPTIMAL:
            # duals come back as HiGHS gives them, in the LP's row order
            assert np.array_equal(sol.duals, [0.0, 2.0])
            assert sol.simplex_iterations == 7


def assert_matches_linprog(lp):
    """solve_lp's result is linprog's: exactly when every row is LEQ or EQ and
    every LEQ row comes before every EQ row, the order in which linprog hands
    rows to HiGHS and the relaxation's order; otherwise (another order, or a
    two-sided row, which linprog takes as two LEQ rows) the status and the
    objective to 1e-9."""
    ours, ref = solve_lp(lp), linprog_solve_lp(lp)
    assert ours.status == ref.status
    is_eq = lp.lhs == lp.rhs
    if ref.status != OPTIMAL:
        assert ours.x is None and ours.duals is None
    elif np.all(is_eq | (lp.lhs == -np.inf)) and np.all(is_eq[:-1] <= is_eq[1:]):
        assert np.array_equal(ours.x, ref.x)
        assert ours.objective == ref.objective
        assert np.array_equal(ours.duals, ref.duals)
    else:
        assert abs(ours.objective - ref.objective) <= 1e-9 * (1 + abs(ref.objective))
    return ours.status


@st.composite
def mixed_lps(draw):
    n, m = draw(st.integers(1, 8)), draw(st.integers(0, 8))
    coef = st.one_of(st.just(0.0), st.floats(-5, 5, allow_subnormal=False))
    A = draw(arrays(float, (m, n), elements=coef))
    senses = np.array(draw(st.lists(st.sampled_from([EQ, LEQ]), min_size=m, max_size=m)),
                      dtype=object)
    lb = draw(arrays(float, n, elements=st.one_of(st.just(-np.inf), st.floats(-5, 0))))
    ub = draw(arrays(float, n, elements=st.one_of(st.just(np.inf), st.floats(0, 5))))
    fmt = draw(st.sampled_from([sp.csr_matrix, sp.csc_matrix]))
    return LinearProgram(draw(arrays(float, n, elements=st.floats(-3, 3))), fmt(A),
                         *row_bounds(senses, draw(arrays(float, m, elements=st.floats(-5, 5)))),
                         lb, ub)


def step_and_relaxation_lps(net, monkeypatch):
    """The relaxation LP and one SCP step LP (with eta, alpha and a DBV
    direction pinned to the flow's) on ``net``, as the pipeline builds them;
    the step LP's columns are its four controls."""
    problem = default_problem(net, RunConfig())
    relax, _ = build_lp(problem, 1, 1)
    design = ValveDesign(prv_links=(0,), dbv_links=(2,), afv_nodes=(3, 1))
    eta, alpha = np.zeros(net.n_p), np.zeros(net.n_n)
    q, h = solve_steady(net, problem.params, net.demands[0], net.source_heads[0], eta, alpha)
    captured = []
    monkeypatch.setattr("sccopt.sfscp.solve_lp", lambda lp: captured.append(lp) or solve_lp(lp))
    sub = Subproblem(problem, design, 0, (1 if q[2] >= 0 else -1,))
    _step_lp(sub, q, h, np.zeros(len(sub.lo)))
    return relax, captured[0]


class TestMatchesLinprog:
    """solve_lp returns exactly what linprog(method="highs") returns."""

    @settings(max_examples=300, deadline=None)
    @given(mixed_lps())
    def test_random_mixed_lps(self, lp):
        event(assert_matches_linprog(lp))

    @pytest.mark.parametrize("c, A, senses, b, lb, ub, status", [
        ([1], [[1]], [EQ], [5], [0], [1], INFEASIBLE),
        ([0, 0], [[1, 1], [1, 1]], [LEQ, EQ], [1, 2], [0, -np.inf], [np.inf, np.inf],
         INFEASIBLE),
        ([-1], [[0]], [LEQ], [1], [0], [np.inf], UNBOUNDED),
        ([-1, 1], [[1, -1]], [EQ], [0], [-np.inf, -np.inf], [np.inf, np.inf], OPTIMAL),
        ([-1, 0], [[1, -1], [0, 1]], [EQ, LEQ], [0, 3], [-np.inf, -np.inf],
         [np.inf, np.inf], OPTIMAL),
        ([-1, -1], [[1, -1]], [LEQ], [0], [0, 0], [np.inf, np.inf], UNBOUNDED),
    ])
    def test_infeasible_unbounded_and_free(self, c, A, senses, b, lb, ub, status):
        assert assert_matches_linprog(make_lp(c, A, senses, b, lb, ub)) == status

    def test_duplicate_and_unsorted_entries(self):
        # row 0 stores x1 before x0 and x0 twice; HiGHS gets them summed
        A = sp.csr_matrix((np.array([1.0, 0.5, 0.5, 1.0]), np.array([1, 0, 0, 1]),
                           np.array([0, 3, 4])), shape=(2, 2))
        for senses in ([LEQ, EQ], [EQ, EQ]):
            lp = LinearProgram(np.array([-1.0, -1.0]), A, *row_bounds(senses, [2.0, 0.5]),
                               np.zeros(2), np.full(2, 5.0))
            assert assert_matches_linprog(lp) == OPTIMAL
            assert solve_lp(lp).x == pytest.approx([1.5, 0.5])

    @pytest.mark.parametrize("name", ["loop4", "grid25"])
    def test_step_and_relaxation_lps(self, name, request, monkeypatch):
        net = request.getfixturevalue(name)
        relax, step = step_and_relaxation_lps(net, monkeypatch)
        assert isinstance(step.A, sp.csc_matrix)
        assert step.A.shape == (net.n_p + net.n_n, 4) and np.all(step.lhs < step.rhs)
        assert assert_matches_linprog(step) == OPTIMAL
        assert assert_matches_linprog(relax) == OPTIMAL
        # OBBT re-solves the relaxation's rows with other objectives
        rng = np.random.default_rng(0)
        for _ in range(3):
            assert_matches_linprog(replace(relax, c=rng.normal(size=relax.n_cols)))


def test_every_step_lp_is_over_the_controls(loop4, monkeypatch):
    # one column per control (the DBV's eta and the AFV's alpha) and one
    # two-sided row per flow and per head; one worker, so every step LP is
    # solved in this process and seen
    monkeypatch.setattr("sccopt.pipeline._usable_cpus", lambda: 1)
    steps = []
    monkeypatch.setattr("sccopt.sfscp.solve_lp", lambda lp: steps.append(lp) or solve_lp(lp))
    run_cms(loop4, RunConfig(n_v=1, n_f=1, n_samples=2, n_starts=1, seed=0))
    assert steps
    for lp in steps:
        assert lp.A.shape == (loop4.n_p + loop4.n_n, 2)
        assert np.all(lp.lhs <= lp.rhs) and np.isfinite(lp.lb).all() and np.isfinite(lp.ub).all()


# Solves one LP by parallel dual simplex on a four-thread HiGHS scheduler,
# then again in a child forked from this process, which inherits that
# scheduler without its threads.  Prints the parent's and the child's
# objectives, each from the parallel solve and from solve_lp.
FORKED_SOLVE = """
import multiprocessing
import signal
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import scipy.sparse as sp

from sccopt.lp import _STRATEGY, LinearProgram, _new_highs, _options, solve_lp

rng = np.random.default_rng(0)
lp = LinearProgram(rng.uniform(-1, 1, 80), sp.random(60, 80, density=0.2, random_state=1,
                                                     format="csc"),
                   np.full(60, -np.inf), np.ones(60), np.zeros(80), np.ones(80))


def objectives():
    options = _options("on", _STRATEGY.kSimplexStrategyDualMulti)
    options.threads = 4
    highs = _new_highs(options, lp)
    assert str(highs.run()) == "HighsStatus.kOk"
    return highs.getInfo().objective_function_value, solve_lp(lp).objective


if __name__ == "__main__":
    parent = objectives()
    # a child that hangs is ended by its alarm, so it never outlives the test
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork"),
                             initializer=signal.alarm, initargs=(30,)) as pool:
        child = pool.submit(objectives).result()
    print(*parent, *child)
"""


def test_forked_child_solves_after_the_parent(tmp_path):
    # without the fork hook in lp.py the child's parallel solve waits forever
    # on the parent's scheduler threads; its alarm turns that into a failure
    script = tmp_path / "forked_solve.py"
    script.write_text(FORKED_SOLVE)
    src = str(Path(sccopt.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    objectives = [float(v) for v in done.stdout.split()]
    # the same point in both processes, and the parallel solve agrees
    assert objectives[:2] == objectives[2:]
    assert objectives[1] == pytest.approx(objectives[0], rel=1e-9, abs=1e-9)


def assert_passes_check(lp, x, tol=np.sqrt(1e-9) * 10):
    """linprog's post-solve check of x, recomputed from the LP's own rows."""
    activity = lp.A @ x
    assert np.all(x >= lp.lb - tol) and np.all(x <= lp.ub + tol)
    assert np.all(lp.rhs - activity >= -tol) and np.all(activity - lp.lhs >= -tol)


def tight_cold_solve(lp):
    """A cold solve at the options a failed hot solve is retried with."""
    return _run(_new_highs(_RETRY_OPTIONS, lp), lp)


class TestHotSession:
    """An LP from hot_started() re-solves its copies with new objectives in one
    HiGHS instance, agreeing with cold solves to HiGHS's tolerance."""

    @settings(max_examples=200, deadline=None)
    @given(mixed_lps(), st.data())
    def test_random_objectives_match_cold(self, lp, data):
        hot = lp.hot_started()
        for _ in range(3):
            c = data.draw(arrays(float, lp.n_cols, elements=st.floats(-3, 3)))
            ours, cold = solve_lp(replace(hot, c=c)), solve_lp(replace(lp, c=c))
            if ours.status != cold.status:
                # a session solves at a 1e-10 dual tolerance, where a cost
                # below the cold solve's default 1e-7 can leave the LP
                # unbounded; a cold solve at its tolerances must agree
                assert (ours.status, cold.status) == (UNBOUNDED, OPTIMAL)
                assert tight_cold_solve(replace(lp, c=c)).status == UNBOUNDED
            elif cold.status == OPTIMAL:
                assert abs(ours.objective - cold.objective) <= 1e-7 * (1 + abs(cold.objective))
                assert_passes_check(lp, ours.x)
        event(f"cold retries: {hot.session.cold_retries}")

    def test_retry_sees_costs_below_the_default_tolerance(self):
        # min 1e-8 x over a free x is unbounded; at the default 1e-7 dual
        # tolerance a cold solve calls x = 0 optimal, but the session's hot
        # solve and its cold retry both run at 1e-10
        lp = make_lp([1e-8], np.zeros((0, 1)), [], [], [-np.inf], [np.inf])
        assert solve_lp(lp).status == OPTIMAL
        hot = lp.hot_started()
        assert solve_lp(hot).status == UNBOUNDED
        assert hot.session.cold_retries == 1

    def test_costs_near_the_default_tolerance_are_not_ignored(self):
        # every reduced cost of the slack basis is below HiGHS's default 1e-7
        # dual tolerance; the hot solve must still move all three to -1
        lp = make_lp([0, 0, 0], [[1, 0, 0], [0, 0, 0]], [EQ, EQ], [0, 0], [-1] * 3, [0] * 3)
        c = np.full(3, 5.96046448e-08)
        ours, cold = solve_lp(replace(lp.hot_started(), c=c)), solve_lp(replace(lp, c=c))
        assert ours.objective == pytest.approx(cold.objective, rel=1e-12)
        assert np.array_equal(ours.x, [0.0, -1.0, -1.0])

    def test_copies_share_one_session(self):
        lp = make_lp([1, 0], [[1, 1]], [LEQ], [2], [0, 0], [5, 5]).hot_started()
        copy = replace(lp, c=[-1, -1])
        assert copy.session is lp.session
        assert solve_lp(lp).objective == pytest.approx(0.0)
        assert solve_lp(copy).objective == pytest.approx(-2.0)
        assert lp.session.cold_retries == 0

    def test_failed_hot_solve_is_retried_cold(self):
        lp = make_lp([-1, -1], [[1, 1]], [LEQ], [1], [0, 0], [1, 1]).hot_started()
        assert solve_lp(lp).status == OPTIMAL
        # the kept instance stops with a numerical status on the next solve
        lp.session.highs = FakeHighs(HighsModelStatus.kSolveError)
        sol = solve_lp(replace(lp, c=[1, -1]))
        assert sol.status == OPTIMAL and sol.objective == pytest.approx(-1.0)
        assert lp.session.cold_retries == 1
        # the next solve starts a new instance
        assert lp.session.highs is None
        # the session owns the retry, so a direct call retries and counts too
        lp.session.highs = FakeHighs(HighsModelStatus.kSolveError)
        sol = lp.session.run(replace(lp, c=[-1, 1]))
        assert sol.status == OPTIMAL and sol.objective == pytest.approx(-1.0)
        assert lp.session.cold_retries == 2 and lp.session.highs is None

    def test_cold_solve_ignores_other_sessions(self):
        lp = make_lp([1, 1], [[1, -1], [1, 1]], [EQ, LEQ], [0, 1], [0, 0], [1, 1])
        solve_lp(lp.hot_started())
        assert_matches_linprog(lp)


class TestAgainstOracle:
    def _random_instance(self, rng, n=12, m=8):
        # bounded-feasible random LP: box [0, u], random <= rows through an
        # interior point so feasibility is guaranteed
        u = rng.uniform(0.5, 3.0, size=n)
        x0 = u * rng.uniform(0.1, 0.9, size=n)
        A = rng.normal(size=(m, n))
        b = A @ x0 + rng.uniform(0.1, 1.0, size=m)
        c = rng.normal(size=n)
        return c, A, b, u

    @pytest.mark.parametrize("seed", range(12))
    def test_random_lps_match_independent_simplex(self, seed):
        rng = np.random.default_rng(seed)
        c, A, b, u = self._random_instance(rng)
        n, m = len(c), len(b)
        lp = make_lp(c, A, [LEQ] * m, b, np.zeros(n), u)
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        # oracle treats upper bounds as extra rows
        A_or = np.vstack([A, np.eye(n)])
        b_or = np.concatenate([b, u])
        status, x, obj = simplex_solve(c, A_ub=A_or, b_ub=b_or)
        assert status == "optimal"
        assert sol.objective == pytest.approx(obj, abs=1e-6)

    @pytest.mark.parametrize("seed", [100, 101, 102])
    def test_medium_random_lps(self, seed):
        rng = np.random.default_rng(seed)
        c, A, b, u = self._random_instance(rng, n=60, m=30)
        n, m = len(c), len(b)
        lp = make_lp(c, A, [LEQ] * m, b, np.zeros(n), u)
        sol = solve_lp(lp)
        A_or = np.vstack([A, np.eye(n)])
        b_or = np.concatenate([b, u])
        status, x, obj = simplex_solve(c, A_ub=A_or, b_ub=b_or)
        assert status == "optimal"
        assert sol.objective == pytest.approx(obj, abs=1e-5)

    def test_duals_satisfy_weak_duality(self):
        rng = np.random.default_rng(3)
        c, A, b, u = self._random_instance(rng)
        n, m = len(c), len(b)
        lp = make_lp(c, A, [LEQ] * m, b, np.zeros(n), u)
        sol = solve_lp(lp)
        # complementary slackness on constraint rows
        slack = b - A @ sol.x
        assert np.all(np.abs(sol.duals * slack) <= 1e-6)

