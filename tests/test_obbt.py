import time

import numpy as np
import pytest

from sccopt.hydraulics import headloss_params, simulate
from sccopt.netmodel import forest_core
from sccopt.obbt import tighten, tighten_forest
from sccopt.relax import DesignConfig, default_bounds
from sccopt.scc import SccParams


def setup(net, n_v=0, n_f=0):
    params = headloss_params(net)
    scc_params = SccParams.from_network(net)
    bounds = default_bounds(net, params)
    design = DesignConfig.from_network(net, n_v=n_v, n_f=n_f)
    return params, scc_params, bounds, design


class TestCoreTightening:
    def test_tree_network_is_noop(self, line3):
        params, scc_params, bounds, design = setup(line3)
        tightened, report = tighten(line3, params, scc_params, bounds, design)
        assert report.lp_solves == 0
        assert report.iterations == 0
        assert np.array_equal(tightened.q_lo, bounds.q_lo)
        assert np.array_equal(tightened.q_hi, bounds.q_hi)

    def test_loop_fixture_under_five_seconds(self, loop4):
        params, scc_params, bounds, design = setup(loop4, n_v=1, n_f=1)
        t0 = time.perf_counter()
        tightened, report = tighten(loop4, params, scc_params, bounds, design)
        assert time.perf_counter() - t0 < 5.0
        assert report.iterations >= 1

    def test_solve_count_per_iteration(self, loop4):
        params, scc_params, bounds, design = setup(loop4, n_v=1, n_f=1)
        tightened, report = tighten(loop4, params, scc_params, bounds, design)
        n_core = len(forest_core(loop4).core_links)
        assert report.lp_solves == report.iterations * 2 * loop4.n_t * n_core

    def test_bounds_monotone_nonincreasing(self, loop4):
        params, scc_params, bounds, design = setup(loop4, n_v=1, n_f=1)
        tightened, report = tighten(loop4, params, scc_params, bounds, design)
        assert np.all(tightened.q_lo >= bounds.q_lo - 1e-12)
        assert np.all(tightened.q_hi <= bounds.q_hi + 1e-12)
        diams = report.diam_history
        assert all(b <= a + 1e-9 for a, b in zip(diams, diams[1:]))

    def test_tightened_bounds_contain_simulated_flows(self, loop4):
        params, scc_params, bounds, design = setup(loop4, n_v=1, n_f=1)
        tightened, _ = tighten(loop4, params, scc_params, bounds, design)
        state = simulate(loop4, params)
        assert np.all(state.q >= tightened.q_lo - 1e-8)
        assert np.all(state.q <= tightened.q_hi + 1e-8)

    def test_actually_tightens_a_loop(self, loop4):
        params, scc_params, bounds, design = setup(loop4, n_v=1, n_f=1)
        tightened, report = tighten(loop4, params, scc_params, bounds, design)
        assert report.diam_history[-1] < report.diam_history[0]

    def test_report_serializes(self, loop4):
        params, scc_params, bounds, design = setup(loop4)
        _, report = tighten(loop4, params, scc_params, bounds, design)
        d = report.to_dict()
        assert set(d) == {"iterations", "lp_solves", "wall_time", "diam_history"}


class TestForestTightening:
    def test_chain_flows_pinned_to_demand_aggregation(self, line3):
        _, _, bounds, design = setup(line3, n_f=0)
        tightened = tighten_forest(line3, bounds, design)
        # without flushing the branch flows are exactly demand-determined
        expected = np.array([0.03, 0.02, 0.01])
        assert tightened.q_lo[0] == pytest.approx(expected, abs=1e-8)
        assert tightened.q_hi[0] == pytest.approx(expected, abs=1e-8)

    def test_flushing_allowance_expands_upper(self, line3):
        _, _, bounds, design = setup(line3, n_f=1)
        tightened = tighten_forest(line3, bounds, design)
        # one AFV could sit anywhere downstream: +alpha_U on each branch
        assert tightened.q_hi[0] == pytest.approx(
            np.array([0.03, 0.02, 0.01]) + bounds.alpha_hi, abs=1e-8)
        assert tightened.q_lo[0] == pytest.approx([0.03, 0.02, 0.01], abs=1e-8)

    def test_reversed_branch_gets_negative_interval(self):
        from sccopt.netmodel import DemandNode, Link, NetworkModel, PIPE, SourceNode
        nodes = [DemandNode("a", 0.0), DemandNode("b", 0.0)]
        links = [Link("p1", "src", "a", PIPE, 500, 0.3, 130),
                 Link("p2", "b", "a", PIPE, 500, 0.3, 130)]
        net = NetworkModel(links, nodes, [SourceNode("src")],
                           np.array([[0.01, 0.004]]), np.array([[60.0]]))
        _, _, bounds, design = setup(net, n_f=0)
        tightened = tighten_forest(net, bounds, design)
        assert tightened.q_hi[0, 1] == pytest.approx(-0.004, abs=1e-8)

    def test_simulated_flows_stay_inside(self, line3):
        params, _, bounds, design = setup(line3, n_f=1)
        tightened = tighten_forest(line3, bounds, design)
        state = simulate(line3, params)
        assert np.all(state.q >= tightened.q_lo - 1e-8)
        assert np.all(state.q <= tightened.q_hi + 1e-8)
