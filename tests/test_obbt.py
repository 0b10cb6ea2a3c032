import time

import numpy as np
import pytest

from scipy.optimize._highspy._core import HighsModelStatus

import sccopt.lp as lp_mod
from sccopt import obbt
from sccopt.errors import InconsistentBounds
from sccopt.hydraulics import headloss_params, simulate
from sccopt.lp import _HOT_OPTIONS, OPTIMAL, HotSession, LpSolution, solve_lp
from sccopt.netgen import line_network
from sccopt.netmodel import forest_core
from sccopt.obbt import _OBBT_PAD, tighten, tighten_forest
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
        n_core = len(forest_core(loop4).core_links)
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
        first = loop4.links[min(forest_core(loop4).core_links)].id
        with pytest.raises(InconsistentBounds,
                           match=f"^bound LP for link {first}, timestep 0 returned infeasible$"):
            tighten(problem, 1, 1)

    def test_report_serializes(self, loop4):
        problem = default_problem(loop4, RunConfig())
        _, report = tighten(problem, 0, 0)
        d = report.to_dict()
        assert set(d) == {"iterations", "lp_solves", "cold_retries", "wall_time",
                          "diam_history"}


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


class TestHotStart:
    @pytest.mark.parametrize("name", ["grid25", "rand60"])
    def test_hot_values_within_pad_of_cold(self, name, request):
        # so the hot-tightened box contains every cold bound LP's value
        net = request.getfixturevalue(name)
        problem, *counts = pipeline_setup(net)
        lp, vmap = build_lp(problem, *counts)
        hot = lp.hot_started()
        c = np.zeros(vmap.total)
        for t in range(net.n_t):
            for j in sorted(forest_core(net).core_links):
                for sign in (1.0, -1.0):
                    c[:] = 0.0
                    c[vmap.q(t)[j]] = sign
                    ours, cold = solve_lp(hot.with_objective(c)), solve_lp(lp.with_objective(c))
                    assert ours.status == cold.status == OPTIMAL
                    assert abs(ours.objective - cold.objective) <= _OBBT_PAD
        assert hot.session.cold_retries == 0

    def test_one_hot_failure_is_retried_cold(self, loop4, monkeypatch):
        args = pipeline_setup(loop4)
        run = HotSession.run
        # every hot solve failing gives a fully cold pass
        monkeypatch.setattr(HotSession, "run",
                            lambda self, lp: (HighsModelStatus.kSolveError, None))
        cold, cold_report = tighten(*args)
        assert cold_report.cold_retries == cold_report.lp_solves
        calls, built, new_highs = [], [], lp_mod._new_highs

        def fail_third(self, lp):
            calls.append(lp)
            return (HighsModelStatus.kSolveError, None) if len(calls) == 3 else run(self, lp)

        def spy(options, lp):
            built.append(options is _HOT_OPTIONS)
            return new_highs(options, lp)

        monkeypatch.setattr(HotSession, "run", fail_third)
        monkeypatch.setattr(lp_mod, "_new_highs", spy)
        hot, report = tighten(*args)
        assert report.cold_retries == 1
        assert report.lp_solves == cold_report.lp_solves
        # one hot instance per pass, one more after the failure, one cold solve
        assert built.count(True) == report.iterations + 1 and built.count(False) == 1
        assert np.allclose(hot.bounds.q_lo, cold.bounds.q_lo, rtol=0.0, atol=_OBBT_PAD)
        assert np.allclose(hot.bounds.q_hi, cold.bounds.q_hi, rtol=0.0, atol=_OBBT_PAD)


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
