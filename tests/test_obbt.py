import threading
import time
from concurrent.futures import Future
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import sccopt.lp as lp_mod
from sccopt import obbt
from sccopt.errors import InconsistentBounds
from sccopt.hydraulics import headloss_params, simulate
from sccopt.lp import _HOT_OPTIONS, NUMERICAL, OPTIMAL, LpSolution, solve_lp
from sccopt.netgen import line_network, random_network
from sccopt.obbt import _OBBT_PAD, flow_polytope, tighten, tighten_forest
from sccopt.pipeline import RunConfig, default_problem
from sccopt.relax import Problem, build_lp, default_bounds


class TestCoreTightening:
    def test_tree_network_is_noop(self, line3):
        problem = default_problem(line3, RunConfig())
        tightened, report = tighten(problem, 0, 0)
        assert report.lp_solves == 0
        assert report.iterations == 0
        assert np.array_equal(tightened.bounds.q_lo, problem.bounds.q_lo)
        assert np.array_equal(tightened.bounds.q_hi, problem.bounds.q_hi)
        assert tightened is not problem and tightened.memo is not problem.memo

    def test_loop_fixture_under_five_seconds(self, loop4):
        problem = default_problem(loop4, RunConfig())
        t0 = time.perf_counter()
        tightened, report = tighten(problem, 1, 1)
        assert time.perf_counter() - t0 < 5.0
        assert report.iterations >= 1

    def test_solve_count_per_iteration(self, loop4):
        problem = default_problem(loop4, RunConfig())
        tightened, report = tighten(problem, 1, 1)
        n_core = len(loop4.core_links)
        assert report.lp_solves == report.iterations * 2 * loop4.n_t * n_core

    def test_bounds_monotone_nonincreasing(self, loop4):
        problem = default_problem(loop4, RunConfig())
        tightened, report = tighten(problem, 1, 1)
        assert np.all(tightened.bounds.q_lo >= problem.bounds.q_lo - 1e-12)
        assert np.all(tightened.bounds.q_hi <= problem.bounds.q_hi + 1e-12)
        diams = report.diam_history
        assert all(b <= a + 1e-9 for a, b in zip(diams, diams[1:]))

    def test_tightened_bounds_contain_simulated_flows(self, loop4):
        problem = default_problem(loop4, RunConfig())
        tightened, _ = tighten(problem, 1, 1)
        state = simulate(loop4, problem.params)
        assert np.all(state.q >= tightened.bounds.q_lo - 1e-8)
        assert np.all(state.q <= tightened.bounds.q_hi + 1e-8)

    def test_actually_tightens_a_loop(self, loop4):
        problem = default_problem(loop4, RunConfig())
        tightened, report = tighten(problem, 1, 1)
        assert report.diam_history[-1] < report.diam_history[0]

    def test_failed_bound_lp_names_link_and_timestep(self, loop4, monkeypatch):
        problem = default_problem(loop4, RunConfig())
        monkeypatch.setattr(obbt, "solve_lp", lambda lp: LpSolution("infeasible"))
        first = loop4.links[min(loop4.core_links)].id
        with pytest.raises(InconsistentBounds,
                           match=f"^bound LP for link {first}, timestep 0 returned infeasible$"):
            tighten(problem, 1, 1)

    def test_report_serializes(self, loop4):
        problem = default_problem(loop4, RunConfig())
        _, report = tighten(problem, 0, 0)
        d = asdict(report)
        assert set(d) == {"iterations", "lp_solves", "cold_retries", "simplex_iterations",
                          "wall_time", "diam_history"}

    def test_simplex_iterations_sum_the_bound_lps(self, loop4, monkeypatch):
        problem = default_problem(loop4, RunConfig())
        counts = []

        def counted(lp):
            sol = solve_lp(lp)
            counts.append(sol.simplex_iterations)
            return sol

        monkeypatch.setattr(obbt, "solve_lp", counted)
        _, report = tighten(problem, 1, 1)
        assert len(counts) == report.lp_solves
        assert report.simplex_iterations == sum(counts) > 0


def pipeline_setup(net):
    """The forest-tightened Problem and valve counts as run_cms gives OBBT them."""
    return tighten_forest(default_problem(net, RunConfig(n_v=1, n_f=1)), 1), 1, 1


class TestReturnedProblem:
    @pytest.mark.parametrize("tightener", [
        lambda problem: tighten(problem, 1, 1)[0],
        lambda problem: tighten_forest(problem, 1)], ids=["tighten", "tighten_forest"])
    def test_a_new_problem_with_an_empty_memo(self, loop4, tightener):
        problem = default_problem(loop4, RunConfig())
        problem.memo.states["seen"] = None
        tightened = tightener(problem)
        assert tightened.net is problem.net and tightened.scc_params is problem.scc_params
        assert tightened.memo is not problem.memo
        assert tightened.memo.states == {} and tightened.memo.steps == {}
        # the input's box is left as it was, and the new box is read-only
        untouched = default_problem(loop4, RunConfig()).bounds
        assert np.array_equal(problem.bounds.q_lo, untouched.q_lo)
        with pytest.raises(ValueError):
            tightened.bounds.q_lo[0, 0] = 0.0


def bound_targets(net, vmap, signs=(1.0, -1.0)):
    """Each OBBT target's objective in tighten's order: +-1 (``signs``) on
    one core link's flow column."""
    for t in range(net.n_t):
        for j in net.core_links:
            for sign in signs:
                c = np.zeros(vmap.total)
                c[vmap.q[t, j]] = sign
                yield c


def exact_solve(lp):
    """A cold solve at HiGHS's tightest feasibility tolerances, as a failed
    hot solve is retried: (status, objective or None).  At the default 1e-7,
    cold solves of the full and the reduced first-pass LPs of rand60 differ
    by up to 4.6e-7, either side off; at 1e-10 both agree to 1e-11."""
    sol = lp_mod._run(lp_mod._new_highs(lp_mod._RETRY_OPTIONS, lp), lp)
    return sol.status, sol.objective


def all_cold_tighten(args, monkeypatch):
    """``tighten(*args)`` with no hot instance built, so each bound LP is
    solved by its session's cold retry."""
    new_highs = lp_mod._new_highs

    def no_hot(options, lp):
        return lp_mod._MS.kSolveError if options is _HOT_OPTIONS else new_highs(options, lp)

    with monkeypatch.context() as patch:
        patch.setattr(lp_mod, "_new_highs", no_hot)
        return tighten(*args)


class TestFlowPolytope:
    """OBBT's LPs leave out the sigma block; the flow optima stay the same."""

    def assert_same_optima(self, problem, n_v, n_f):
        lp, vmap = build_lp(problem, n_v, n_f)
        reduced = flow_polytope(lp, vmap)
        assert reduced.n_cols == lp.n_cols and reduced.n_rows < lp.n_rows
        for c in bound_targets(problem.net, vmap):
            (full_status, full), (ours_status, ours) = (
                exact_solve(replace(lp, c=c)), exact_solve(replace(reduced, c=c)))
            assert ours_status == full_status
            if full is not None:
                assert abs(ours - full) <= 1e-8

    @pytest.mark.parametrize("name", ["grid25", "rand60"])
    def test_fixture_optima_unchanged(self, name, request):
        self.assert_same_optima(*pipeline_setup(request.getfixturevalue(name)))

    @given(seed=st.integers(0, 10_000), n_nodes=st.integers(3, 25),
           extra=st.integers(1, 6), n_t=st.integers(1, 2))
    @settings(max_examples=25, deadline=None)
    def test_random_network_optima_unchanged(self, seed, n_nodes, extra, n_t):
        net = random_network(n_nodes, extra, seed=seed, n_t=n_t)
        try:
            setup = pipeline_setup(net)
        except InconsistentBounds:
            assume(False)
        self.assert_same_optima(*setup)

    @pytest.mark.parametrize("name", ["loop4", "grid25", "rand60"])
    def test_dropped_rows_hold_at_sigma_zero(self, name, request):
        # every dropped row is a cut sigma <= cut(q) on one link's flow; it
        # holds with sigma = 0 at both ends of the link's box, so on all of
        # it.  On a tightened box a cut can dip to -2.1e-12 where psi is
        # about 0 at an end (rand60), as the tangent point is bisected; that
        # is 3e-13 m^3/s of flow, far inside HiGHS's 1e-7 tolerance
        problem = tighten(*pipeline_setup(request.getfixturevalue(name)))[0]
        lp, vmap = build_lp(problem, 1, 1)
        sigma = np.r_[vmap.sigma_pos.ravel(), vmap.sigma_neg.ravel()]
        q = vmap.q.ravel()
        A = lp.A.tocsr()
        dropped = np.flatnonzero(np.diff(A[:, sigma].indptr))
        assert len(dropped) == lp.n_rows - flow_polytope(lp, vmap).n_rows > 0
        for r in dropped:
            cols, vals = A.indices[A.indptr[r]:A.indptr[r + 1]], A.data[A.indptr[r]:A.indptr[r + 1]]
            on_sigma = np.isin(cols, sigma)
            # a flat cut (a point interval) stores no flow coefficient
            j, a = cols[~on_sigma], vals[~on_sigma]
            assert on_sigma.sum() == 1 and len(j) <= 1 and np.isin(j, q).all()
            assert lp.lhs[r] == -np.inf
            assert max(np.sum(a * lp.lb[j]), np.sum(a * lp.ub[j])) <= lp.rhs[r] + 1e-10


class TestHotStart:
    @pytest.mark.parametrize("name", ["grid25", "rand60"])
    def test_hot_values_within_pad_of_cold(self, name, request):
        # so the hot-tightened box contains every cold bound LP's value; the
        # LP is the one tighten solves, and each direction's session walks
        # the targets in tighten's order
        net = request.getfixturevalue(name)
        problem, *counts = pipeline_setup(net)
        lp, vmap = build_lp(problem, *counts)
        lp = flow_polytope(lp, vmap)
        for sign in (1.0, -1.0):
            hot = lp.hot_started()
            for c in bound_targets(net, vmap, signs=(sign,)):
                ours, cold = solve_lp(replace(hot, c=c)), solve_lp(replace(lp, c=c))
                assert ours.status == cold.status == OPTIMAL
                assert abs(ours.objective - cold.objective) <= _OBBT_PAD
            assert hot.session.cold_retries == 0

    def test_one_hot_failure_is_retried_cold(self, loop4, monkeypatch):
        args = pipeline_setup(loop4)
        cold, cold_report = all_cold_tighten(args, monkeypatch)
        assert cold_report.cold_retries == cold_report.lp_solves
        lower_calls, built, hot_instances = [], [], []
        new_highs, run = lp_mod._new_highs, lp_mod._run

        def spy(options, lp):
            highs = new_highs(options, lp)
            built.append(options is _HOT_OPTIONS)
            if options is _HOT_OPTIONS:
                hot_instances.append(highs)
            return highs

        def fail_third_lower(highs, lp):
            # only the calling thread's session solves min LPs, so counting
            # them races with nothing
            if any(highs is h for h in hot_instances) and lp.c.max() > 0:
                lower_calls.append(lp)
                if len(lower_calls) == 3:
                    return LpSolution(NUMERICAL)
            return run(highs, lp)

        monkeypatch.setattr(lp_mod, "_new_highs", spy)
        monkeypatch.setattr(lp_mod, "_run", fail_third_lower)
        hot, report = tighten(*args)
        assert report.cold_retries == 1
        assert report.lp_solves == cold_report.lp_solves
        # two hot instances per pass, one more after the failure, one cold solve
        assert built.count(True) == 2 * report.iterations + 1 and built.count(False) == 1
        assert np.allclose(hot.bounds.q_lo, cold.bounds.q_lo, rtol=0.0, atol=_OBBT_PAD)
        assert np.allclose(hot.bounds.q_hi, cold.bounds.q_hi, rtol=0.0, atol=_OBBT_PAD)

    def test_all_cold_box_matches_hot_box(self, rand60, monkeypatch):
        # a failed hot solve is retried at tight tolerances, so a run whose
        # every bound LP is retried cold keeps the hot box to a tenth of
        # _OBBT_PAD; at HiGHS's default 1e-7 tolerances it moved by 1.6e-7
        args = pipeline_setup(rand60)
        hot, report = tighten(*args)
        cold, cold_report = all_cold_tighten(args, monkeypatch)
        assert report.cold_retries == 0
        assert cold_report.cold_retries == cold_report.lp_solves == report.lp_solves
        assert np.max(np.abs(cold.bounds.q_lo - hot.bounds.q_lo)) <= 1e-7
        assert np.max(np.abs(cold.bounds.q_hi - hot.bounds.q_hi)) <= 1e-7


class SynchronousExecutor:
    """``ThreadPoolExecutor``'s interface, running each submit at once on the
    calling thread."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


def tighten_outcome(args):
    """tighten's bounds and report counts, or the InconsistentBounds text."""
    try:
        tightened, report = tighten(*args)
    except InconsistentBounds as exc:
        return str(exc)
    d = asdict(report)
    del d["wall_time"]
    return tightened.bounds.q_lo, tightened.bounds.q_hi, d


class TestConcurrentSessions:
    @given(seed=st.integers(0, 10_000), n_nodes=st.integers(8, 20),
           extra=st.integers(1, 6), n_t=st.integers(1, 2))
    @settings(max_examples=30, deadline=None)
    def test_same_result_as_one_thread(self, seed, n_nodes, extra, n_t):
        # the two sessions' results do not depend on how they are scheduled;
        # and each draw runs two HiGHS instances at once
        net = random_network(n_nodes, extra, seed=seed, n_t=n_t)
        try:
            args = pipeline_setup(net)
        except InconsistentBounds:
            assume(False)
        threaded = tighten_outcome(args)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(obbt, "ThreadPoolExecutor", SynchronousExecutor)
            serial = tighten_outcome(args)
        if isinstance(threaded, str):
            assert threaded == serial
            return
        (q_lo, q_hi, report), (s_lo, s_hi, s_report) = threaded, serial
        assert np.array_equal(q_lo, s_lo) and np.array_equal(q_hi, s_hi)
        assert report == s_report
        # OBBT only shrinks the box
        box = args[0].bounds
        assert np.all(q_lo >= box.q_lo) and np.all(q_hi <= box.q_hi)
        assert np.all(q_lo <= q_hi)

    def test_failed_upper_session_joins_its_thread(self, loop4, monkeypatch):
        problem = default_problem(loop4, RunConfig())
        monkeypatch.setattr(obbt, "solve_lp", lambda lp: (
            LpSolution("infeasible") if lp.c.min() < 0 else solve_lp(lp)))
        first = loop4.links[min(loop4.core_links)].id
        before = threading.active_count()
        with pytest.raises(InconsistentBounds,
                           match=f"^bound LP for link {first}, timestep 0 returned infeasible$"):
            tighten(problem, 1, 1)
        assert threading.active_count() == before

    @pytest.mark.parametrize("lower_from, upper_from", [(2, 1), (1, 2), (1, 1)])
    def test_first_failure_in_serial_order_is_named(self, loop4, monkeypatch,
                                                    lower_from, upper_from):
        # the min LPs fail from target lower_from on and the max LPs from
        # upper_from on; the error names the earlier target, whichever
        # session reached it
        problem = default_problem(loop4, RunConfig())
        _, vmap = build_lp(problem, 1, 1)
        core = loop4.core_links
        order = {int(vmap.q[0, j]): k for k, j in enumerate(core)}

        def failing(lp):
            col = int(np.flatnonzero(lp.c)[0])
            first = lower_from if lp.c[col] > 0 else upper_from
            return LpSolution("infeasible") if order[col] >= first else solve_lp(lp)

        monkeypatch.setattr(obbt, "solve_lp", failing)
        named = loop4.links[core[min(lower_from, upper_from)]].id
        with pytest.raises(InconsistentBounds,
                           match=f"^bound LP for link {named}, timestep 0 returned infeasible$"):
            tighten(problem, 1, 1)


class TestForestTightening:
    def test_chain_flows_pinned_to_demand_aggregation(self, line3):
        tightened = tighten_forest(default_problem(line3, RunConfig()), 0).bounds
        # without flushing the branch flows are exactly demand-determined
        expected = np.array([0.03, 0.02, 0.01])
        assert tightened.q_lo[0] == pytest.approx(expected, abs=1e-8)
        assert tightened.q_hi[0] == pytest.approx(expected, abs=1e-8)

    def test_flushing_allowance_expands_upper(self, line3):
        problem = default_problem(line3, RunConfig())
        tightened = tighten_forest(problem, 1).bounds
        # one AFV could sit anywhere downstream: +alpha_U on each branch
        assert tightened.q_hi[0] == pytest.approx(
            np.array([0.03, 0.02, 0.01]) + problem.bounds.alpha_hi, abs=1e-8)
        assert tightened.q_lo[0] == pytest.approx([0.03, 0.02, 0.01], abs=1e-8)

    def test_reversed_branch_gets_negative_interval(self):
        from sccopt.netmodel import DemandNode, Link, NetworkModel, PIPE, SourceNode
        nodes = [DemandNode("a", 0.0), DemandNode("b", 0.0)]
        links = [Link("p1", "src", "a", PIPE, 500, 0.3, 130),
                 Link("p2", "b", "a", PIPE, 500, 0.3, 130)]
        net = NetworkModel(links, nodes, [SourceNode("src")],
                           np.array([[0.01, 0.004]]), np.array([[60.0]]))
        tightened = tighten_forest(default_problem(net, RunConfig()), 0).bounds
        assert tightened.q_hi[0, 1] == pytest.approx(-0.004, abs=1e-8)

    def test_simulated_flows_stay_inside(self, line3):
        problem = default_problem(line3, RunConfig())
        tightened = tighten_forest(problem, 1).bounds
        state = simulate(line3, problem.params)
        assert np.all(state.q >= tightened.q_lo - 1e-8)
        assert np.all(state.q <= tightened.q_hi + 1e-8)

    def test_crossed_bounds_name_link_and_timestep(self):
        # the flow cap u_max * area (7.1e-3 m^3/s on p1) lies above p1's
        # demand at timestep 0 (3e-3) and below it at timestep 1 (3e-2)
        net = line_network(3, demand_factors=[0.1, 1.0])
        problem = default_problem(net, RunConfig())
        capped = Problem(net, problem.scc_params,
                         default_bounds(net, headloss_params(net), u_max=0.1))
        tighten_forest(problem, 0)
        with pytest.raises(InconsistentBounds,
                           match="^forest bounds crossed on link p1, timestep 1$"):
            tighten_forest(capped, 0)
