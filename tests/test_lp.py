import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import event, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize._highspy._core import HighsModelStatus

from linprog_reference import linprog_solve_lp
from oracle_simplex import simplex_solve
from sccopt.errors import InconsistentBounds
from sccopt.hydraulics import headloss_params, solve_steady
from sccopt.lp import (EQ, LEQ, INFEASIBLE, NUMERICAL, OPTIMAL, UNBOUNDED,
                       HotSession, LinearProgram, solve_lp)
from sccopt.relax import DesignConfig, build_lp, default_bounds
from sccopt.scc import SccParams
from sccopt.sfscp import RunMemo, Subproblem, ValveDesign, _step_lp


def make_lp(c, A, senses, b, lb, ub):
    return LinearProgram(np.asarray(c, float), sp.csr_matrix(np.asarray(A, float)),
                         np.asarray(senses), np.asarray(b, float),
                         np.asarray(lb, float), np.asarray(ub, float))


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
            monkeypatch.setattr("sccopt.lp._run_highs", lambda *a, s=status: (s, None))
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

    def test_no_columns_rejected(self):
        lp = LinearProgram(np.zeros(0), sp.csr_matrix((1, 0)), np.array([LEQ]),
                           np.ones(1), np.zeros(0), np.zeros(0))
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

    def test_with_objective_reuses_constraints(self):
        lp = make_lp([1, 0], [[1, 1]], [LEQ], [2], [0, 0], [5, 5])
        lp2 = lp.with_objective([-1, -1])
        assert solve_lp(lp).objective == pytest.approx(0.0)
        assert solve_lp(lp2).objective == pytest.approx(-2.0)

    def test_lps_compare_by_identity(self):
        # array fields have no single truth value, so an LP equals only itself
        lp = make_lp([1, 0], [[1, 1]], [LEQ], [2], [0, 0], [5, 5])
        assert lp == lp
        assert (lp == lp.with_objective(lp.c)) is False
        assert (lp == lp.with_objective([0, 1])) is False


class TestPostSolveCheck:
    """An "optimal" point from HiGHS passes linprog's feasibility check (bounds,
    LEQ slacks and EQ residuals within sqrt(1e-9) * 10) or reads NUMERICAL."""

    # rows: x0 - x1 = 0 (EQ), x0 + x1 <= 1 (LEQ); HiGHS takes the LEQ row first
    LP = make_lp([1, 1], [[1, -1], [1, 1]], [EQ, LEQ], [0, 1], [0, 0], [1, 1])

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
    ])
    def test_violating_point_is_numerical(self, monkeypatch, x, activity, objective, status):
        result = (np.array(x), objective, np.array(activity), np.array([0.0, 2.0]))
        monkeypatch.setattr("sccopt.lp._run_highs",
                            lambda *a: (HighsModelStatus.kOptimal, result))
        sol = solve_lp(self.LP)
        assert sol.status == status
        if status == OPTIMAL:
            # duals come back in the LP's own row order
            assert np.array_equal(sol.duals, [2.0, 0.0])


def assert_matches_linprog(lp):
    ours, ref = solve_lp(lp), linprog_solve_lp(lp)
    assert ours.status == ref.status
    if ref.status == OPTIMAL:
        assert np.array_equal(ours.x, ref.x)
        assert ours.objective == ref.objective
        assert np.array_equal(ours.duals, ref.duals)
    else:
        assert ours.x is None and ours.duals is None
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
                         senses, draw(arrays(float, m, elements=st.floats(-5, 5))), lb, ub)


def step_and_relaxation_lps(net, monkeypatch):
    """The relaxation LP and one SCP step LP (with eta, alpha and a DBV
    direction pinned to the flow's) on ``net``, as the pipeline builds them."""
    params = headloss_params(net)
    scc_params = SccParams.from_network(net)
    bounds = default_bounds(net, params)
    relax, _ = build_lp(net, params, scc_params, bounds, DesignConfig.from_network(net, 1, 1))
    design = ValveDesign(prv_links=(0,), dbv_links=(2,), afv_nodes=(3, 1))
    eta, alpha = np.zeros(net.n_p), np.zeros(net.n_n)
    q, h = solve_steady(net, params, net.demands[0], net.source_heads[0], eta, alpha)
    captured = []
    monkeypatch.setattr("sccopt.sfscp.solve_lp", lambda lp: captured.append(lp) or solve_lp(lp))
    sub = Subproblem(net, params, scc_params, bounds, design, 0,
                     (1 if q[2] >= 0 else -1,), RunMemo())
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
            lp = LinearProgram(np.array([-1.0, -1.0]), A, np.array(senses),
                               np.array([2.0, 0.5]), np.zeros(2), np.full(2, 5.0))
            assert assert_matches_linprog(lp) == OPTIMAL
            assert solve_lp(lp).x == pytest.approx([1.5, 0.5])

    @pytest.mark.parametrize("name", ["loop4", "grid25"])
    def test_step_and_relaxation_lps(self, name, request, monkeypatch):
        relax, step = step_and_relaxation_lps(request.getfixturevalue(name), monkeypatch)
        assert isinstance(step.A, sp.csc_matrix) and (step.senses == EQ).all()
        assert assert_matches_linprog(step) == OPTIMAL
        assert assert_matches_linprog(relax) == OPTIMAL
        # OBBT re-solves the relaxation's rows with other objectives
        rng = np.random.default_rng(0)
        for _ in range(3):
            assert_matches_linprog(relax.with_objective(rng.normal(size=relax.n_cols)))


def assert_passes_check(lp, x, tol=np.sqrt(1e-9) * 10):
    """linprog's post-solve check of x, recomputed from the LP's own rows."""
    residual = lp.b - lp.A @ x
    is_eq = lp.senses == EQ
    assert np.all(x >= lp.lb - tol) and np.all(x <= lp.ub + tol)
    assert np.all(residual[~is_eq] >= -tol) and np.all(np.abs(residual[is_eq]) <= tol)


class TestHotSession:
    """An LP from hot_started() re-solves its with_objective copies in one
    HiGHS instance, agreeing with cold solves to HiGHS's tolerance."""

    @settings(max_examples=200, deadline=None)
    @given(mixed_lps(), st.data())
    def test_random_objectives_match_cold(self, lp, data):
        hot = lp.hot_started()
        for _ in range(3):
            c = data.draw(arrays(float, lp.n_cols, elements=st.floats(-3, 3)))
            ours, cold = solve_lp(hot.with_objective(c)), solve_lp(lp.with_objective(c))
            assert ours.status == cold.status
            if cold.status == OPTIMAL:
                assert abs(ours.objective - cold.objective) <= 1e-7 * (1 + abs(cold.objective))
                assert_passes_check(lp, ours.x)
        event(f"cold retries: {hot.session.cold_retries}")

    def test_copies_share_one_session(self):
        lp = make_lp([1, 0], [[1, 1]], [LEQ], [2], [0, 0], [5, 5]).hot_started()
        copy = lp.with_objective([-1, -1])
        assert copy.session is lp.session
        assert solve_lp(lp).objective == pytest.approx(0.0)
        assert solve_lp(copy).objective == pytest.approx(-2.0)
        assert lp.session.cold_retries == 0

    def test_failed_hot_solve_is_retried_cold(self, monkeypatch):
        lp = make_lp([-1, -1], [[1, 1]], [LEQ], [1], [0, 0], [1, 1]).hot_started()
        assert solve_lp(lp).status == OPTIMAL
        monkeypatch.setattr(HotSession, "run",
                            lambda self, c: (HighsModelStatus.kSolveError, None))
        sol = solve_lp(lp.with_objective([1, -1]))
        assert sol.status == OPTIMAL and sol.objective == pytest.approx(-1.0)
        assert lp.session.cold_retries == 1
        # the next solve starts a new instance
        assert lp.session.highs is None

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

