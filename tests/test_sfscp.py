import time

import numpy as np
import pytest

from sccopt.errors import AllStartsInfeasible
from sccopt.hydraulics import headloss_params, phi, phi_prime, simulate, solve_steady
from sccopt.netgen import line_network, loop_network
from sccopt.netmodel import DemandNode, Link, NetworkModel, PIPE, SourceNode, VALVE
from sccopt.relax import DesignConfig, default_bounds
from sccopt.sampler import CandidateDesign
from sccopt.scc import SccParams, scc_smooth, scc_smooth_flows
from sccopt.sfscp import (MultiStartConfig, ValveDesign, _step_lp,
                          enumerate_dbv_directions, multi_start, reduced_gradient,
                          restore_feasibility, sfscp_timestep)


def single_pipe_net(demand=0.005, diameter=0.3):
    """One source, one pipe, one node: uncontrolled velocity 0.0707 m/s."""
    return line_network(1, demand=demand, length=1000.0, diameter=diameter,
                        hw=130.0, source_head=80.0)


def prv_loop_net():
    """Ring network with an existing PRV on one ring link."""
    base = loop_network(4, demand=0.012, length=1000.0, diameter=0.2,
                        source_head=60.0)
    links = list(base.links)
    lk = links[2]
    links[2] = Link(lk.id, lk.from_node, lk.to_node, VALVE, 0.0, 0.2, 0.0,
                    0.0, is_existing_prv=True)
    net = NetworkModel(links, base.nodes, base.sources, base.demands,
                       base.source_heads)
    net.validate()
    return net


def setup(net, **kw):
    params = headloss_params(net)
    scc_params = SccParams.from_network(net)
    bounds = default_bounds(net, params, **kw)
    return params, scc_params, bounds


class TestSinglePipeAfv:
    def test_hand_derived_velocity_target(self):
        net = single_pipe_net()
        area = net.areas[0]
        # flushing at the cap: u = (0.005 + 0.025) / area = 0.4244 m/s
        assert (0.005 + 0.025) / area == pytest.approx(0.424, abs=1e-3)

    def test_reaches_smoothed_objective_099(self):
        net = single_pipe_net()
        params, scc_params, bounds = setup(net)
        design = ValveDesign(afv_nodes=(0,))
        t0 = time.perf_counter()
        sol = multi_start(net, params, scc_params, bounds, design,
                          MultiStartConfig(n_starts=2, seed=0))
        assert time.perf_counter() - t0 < 1.0
        assert sol.objective >= 0.99
        assert sol.alpha[0, 0] == pytest.approx(0.025, abs=1e-4)

    def test_uncontrolled_pipe_is_slow(self):
        net = single_pipe_net()
        params, scc_params, _ = setup(net)
        state = simulate(net, params)
        assert abs(state.velocities(net)[0, 0]) < 0.2
        assert scc_smooth(state, net, scc_params) < 0.01


class TestIterationBehaviour:
    def test_objective_sequence_monotone(self):
        net = prv_loop_net()
        params, scc_params, bounds = setup(net)
        design = ValveDesign(prv_links=(2,))
        trace = []
        res = sfscp_timestep(net, params, scc_params, bounds, design, {}, 0,
                             np.zeros(net.n_p), np.zeros(net.n_n),
                             MultiStartConfig(), trace=trace)
        assert res is not None
        fs = [row[1] for row in trace]
        assert len(fs) >= 1
        assert all(b >= a - 1e-12 for a, b in zip(fs, fs[1:]))
        assert res[4] == pytest.approx(fs[-1])

    def test_final_iterate_resimulates_feasibly(self):
        net = prv_loop_net()
        params, scc_params, bounds = setup(net)
        design = ValveDesign(prv_links=(2,))
        sol = multi_start(net, params, scc_params, bounds, design,
                          MultiStartConfig(n_starts=3, seed=1))
        for t in range(net.n_t):
            q, h = sol.state.q[t], sol.state.h[t]
            mass = net.A12.T @ q - net.demands[t] - sol.alpha[t]
            energy = (net.A12 @ h + net.A10 @ net.source_heads[t]
                      + phi(q, params) + sol.eta[t])
            assert np.max(np.abs(mass)) <= 1e-8
            assert np.max(np.abs(energy)) <= 1e-6
            assert np.all(h >= bounds.h_lo[t] - 1e-6)

    def test_prv_eta_nonnegative(self):
        net = prv_loop_net()
        params, scc_params, bounds = setup(net)
        design = ValveDesign(prv_links=(2,))
        sol = multi_start(net, params, scc_params, bounds, design,
                          MultiStartConfig(n_starts=3, seed=1))
        assert np.all(sol.eta[:, 2] >= -1e-12)
        assert np.all(sol.eta[:, [0, 1, 3, 4]] == 0.0)

    def test_improves_on_uncontrolled(self):
        net = prv_loop_net()
        params, scc_params, bounds = setup(net)
        design = ValveDesign(prv_links=(2,))
        sol = multi_start(net, params, scc_params, bounds, design,
                          MultiStartConfig(n_starts=3, seed=1),
                          extra_seeds=[np.zeros((net.n_t, net.n_p))])
        state = simulate(net, params)
        assert sol.objective >= scc_smooth(state, net, scc_params) - 1e-9


class TestStepLp:
    def test_point_solves_the_linearized_equations_in_the_trust_box(self):
        # the PRV link is a zero-loss valve, so its phi' is 0 at any flow
        net = prv_loop_net()
        params, scc_params, bounds = setup(net)
        design = ValveDesign(prv_links=(2,), afv_nodes=(1,))
        eta_k = np.zeros(net.n_p)
        eta_k[2] = 2.0
        alpha_k = np.zeros(net.n_n)
        alpha_k[1] = 0.01
        d, h0 = net.demands[0], net.source_heads[0]
        q_k, h_k = solve_steady(net, params, d, h0, eta_k, alpha_k)
        tf = 0.05
        q, h, eta, alpha = _step_lp(net, params, scc_params, bounds, 0, design,
                                    {}, q_k, h_k, eta_k, alpha_k, tf)
        assert np.max(np.abs(net.A12.T @ q - alpha - d)) <= 1e-12
        energy = (net.A12 @ h + net.A10 @ h0 + phi(q_k, params)
                  + phi_prime(q_k, params) * (q - q_k) + eta)
        assert np.max(np.abs(energy)) <= 1e-7
        tol = 1e-9
        assert np.all(np.abs(q - q_k) <= tf * (bounds.q_hi[0] - bounds.q_lo[0]) + tol)
        assert np.all(np.abs(h - h_k) <= tf * (bounds.h_hi[0] - bounds.h_lo[0]) + tol)
        assert abs(eta[2] - eta_k[2]) <= tf * bounds.eta_hi[0, 2] + tol
        assert abs(alpha[1] - alpha_k[1]) <= tf * bounds.alpha_hi + tol
        assert np.all(eta[[0, 1, 3, 4]] == 0.0) and eta[2] >= 0.0
        assert np.all(alpha[[0, 2, 3]] == 0.0) and alpha[1] >= 0.0


class TestGridSearchOracle:
    def test_single_prv_matches_scalar_scan(self):
        net = prv_loop_net()
        params, scc_params, bounds = setup(net)
        design = ValveDesign(prv_links=(2,))
        # brute-force oracle: scan eta on the PRV link
        best = -np.inf
        for eta_v in np.linspace(0.0, bounds.eta_hi[0, 2], 400):
            eta = np.zeros(net.n_p)
            eta[2] = eta_v
            try:
                state = simulate(net, params, eta=eta[None, :])
            except Exception:
                continue
            if np.any(state.h[0] < bounds.h_lo[0] - 1e-6):
                continue
            best = max(best, scc_smooth(state, net, scc_params))
        sol = multi_start(net, params, scc_params, bounds, design,
                          MultiStartConfig(n_starts=5, seed=0),
                          extra_seeds=[np.zeros((net.n_t, net.n_p))])
        assert sol.objective >= best - 0.01 * max(abs(best), 1e-9)


class TestDirectionEnumeration:
    def test_dbv_direction_count_and_dominance(self):
        net = prv_loop_net()
        params, scc_params, bounds = setup(net)
        dcfg = DesignConfig.from_network(net)
        design = ValveDesign.from_candidate(
            dcfg, CandidateDesign(dbv_links=(4,), afv_nodes=()))
        cfg = MultiStartConfig(n_starts=1, seed=0)
        res = enumerate_dbv_directions(net, params, scc_params, bounds, design,
                                       0, np.zeros(net.n_p), np.zeros(net.n_n), cfg)
        assert res is not None
        (eta, alpha, q, h, f_best, _), signs = res
        assert len(signs) == 1 and signs[0] in (1, -1)
        pos_only = sfscp_timestep(net, params, scc_params, bounds, design,
                                  {4: 1}, 0, np.zeros(net.n_p),
                                  np.zeros(net.n_n), cfg)
        assert f_best >= pos_only[4] - 1e-9


class TestRestoration:
    def test_restores_pressure_with_prv_start_too_high(self):
        # a huge eta start violates the 15 m floor; restoration must recover
        net = prv_loop_net()
        params, scc_params, bounds = setup(net)
        design = ValveDesign(prv_links=(2,))
        eta0 = np.zeros(net.n_p)
        eta0[2] = bounds.eta_hi[0, 2]
        out = restore_feasibility(net, params, net.demands[0],
                                  net.source_heads[0], design, {}, eta0,
                                  np.zeros(net.n_n), bounds, 0)
        assert out is not None
        _, _, _, h = out
        assert np.all(h >= bounds.h_lo[0] - 1e-6)

    def test_all_starts_infeasible_raises(self):
        # pressure floor above what the source can deliver anywhere
        net = single_pipe_net()
        params, scc_params, bounds = setup(net)
        bounds.h_lo[:] = 85.0  # above the 80 m source head
        design = ValveDesign(afv_nodes=(0,))
        with pytest.raises(AllStartsInfeasible):
            multi_start(net, params, scc_params, bounds, design,
                        MultiStartConfig(n_starts=2, seed=0))


class TestReducedGradient:
    def test_matches_finite_difference(self):
        net = prv_loop_net()
        params, scc_params, bounds = setup(net)
        design = ValveDesign(prv_links=(2,), afv_nodes=(1,))
        eta = np.zeros((net.n_t, net.n_p))
        eta[0, 2] = 2.0
        alpha = np.zeros((net.n_t, net.n_n))
        alpha[0, 1] = 0.01
        state = simulate(net, params, eta=eta, alpha=alpha)
        d_eta, d_alpha = reduced_gradient(net, params, scc_params, state, design, 0)
        eps = 1e-6

        def f_of(ev, av):
            e = eta.copy(); e[0, 2] = ev
            a = alpha.copy(); a[0, 1] = av
            st = simulate(net, params, eta=e, alpha=a)
            return scc_smooth_flows(st.q[0][None, :], net, scc_params)

        fd_eta = (f_of(2.0 + eps, 0.01) - f_of(2.0 - eps, 0.01)) / (2 * eps)
        fd_alpha = (f_of(2.0, 0.01 + eps) - f_of(2.0, 0.01 - eps)) / (2 * eps)
        assert d_eta[0] == pytest.approx(fd_eta, rel=1e-3, abs=1e-8)
        assert d_alpha[0] == pytest.approx(fd_alpha, rel=1e-3, abs=1e-8)


class TestDeterminism:
    def test_same_seed_same_solution(self):
        net = prv_loop_net()
        params, scc_params, bounds = setup(net)
        design = ValveDesign(prv_links=(2,))
        cfg = MultiStartConfig(n_starts=3, seed=99)
        a = multi_start(net, params, scc_params, bounds, design, cfg)
        b = multi_start(net, params, scc_params, bounds, design, cfg)
        assert a.objective == b.objective
        assert np.array_equal(a.eta, b.eta)
        assert np.array_equal(a.alpha, b.alpha)
