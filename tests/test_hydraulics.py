import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from sccopt.errors import NonConvergence
from sccopt.hydraulics import (GRAVITY, HeadLossParams, headloss_params, phi,
                               phi_prime, simulate, solve_steady)
from sccopt.netgen import line_network, random_network
from sccopt.netmodel import Link, NetworkModel, VALVE
from sccopt.relax import default_bounds
from sccopt.scc import SccParams
from sccopt.sfscp import RunMemo, Subproblem, ValveDesign

# Hand-computed resistance for L=1000 m, C=130, D=0.3 m:
#   r = 10.67 * 1000 / (130^1.852 * 0.3^4.871)
R_ORACLE = 10.67 * 1000.0 / (130.0**1.852 * 0.3**4.871)


class TestHeadLoss:
    def test_pipe_resistance_oracle(self, line3):
        params = headloss_params(line3)
        assert params.r[0] == pytest.approx(R_ORACLE, rel=1e-12)
        assert R_ORACLE == pytest.approx(456.6, rel=2e-3)
        assert params.n_exp[0] == pytest.approx(1.852)

    def test_phi_value_oracle(self, line3):
        # phi(0.05) = r * 0.05^1.852, evaluated by hand
        params = headloss_params(line3)
        expected = R_ORACLE * 0.05**1.852
        assert phi(np.array([0.05]), params)[0] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1.78, rel=5e-3)

    def test_valve_resistance(self):
        net = line_network(2)
        links = list(net.links)
        links[1] = Link("v", "n1", "n2", VALVE, 0.0, 0.2, 0.0, valve_loss=2.0)
        net2 = NetworkModel(links, net.nodes, net.sources, net.demands, net.source_heads)
        params = headloss_params(net2)
        assert params.r[1] == pytest.approx(8.0 * 2.0 / (GRAVITY * np.pi**2 * 0.2**4))
        assert params.n_exp[1] == pytest.approx(2.0)

    def test_odd_symmetry(self, line3):
        params = headloss_params(line3)
        q = np.array([0.04, 0.04, 0.04])
        assert phi(-q, params) == pytest.approx(-phi(q, params))

    def test_smoothing_continuity_at_band_edge(self, line3):
        params = headloss_params(line3)
        qe = params.q_eps
        inside = phi(np.full(3, qe * (1 - 1e-12)), params)
        outside = phi(np.full(3, qe * (1 + 1e-12)), params)
        assert inside == pytest.approx(outside, rel=1e-6)
        din = phi_prime(np.full(3, qe * (1 - 1e-12)), params)
        dout = phi_prime(np.full(3, qe * (1 + 1e-12)), params)
        assert din == pytest.approx(dout, rel=1e-6)

    def test_derivative_positive_at_zero(self, line3):
        params = headloss_params(line3)
        assert np.all(phi_prime(np.zeros(3), params) > 0)

    @given(q=st.floats(-0.5, 0.5))
    @settings(max_examples=100, deadline=None)
    def test_phi_prime_matches_finite_difference(self, q):
        params = HeadLossParams(np.array([456.6]), np.array([1.852]))
        # a step relative to |q| keeps the truncation error small just
        # outside the smoothing band, where a fixed step is a large part of q
        eps = 1e-4 * abs(q)
        if abs(q) < 2 * params.q_eps + 10 * eps:
            return  # inside / straddling the smoothing band, checked separately
        fd = (phi(np.array([q + eps]), params) - phi(np.array([q - eps]), params)) / (2 * eps)
        assert phi_prime(np.array([q]), params)[0] == pytest.approx(fd[0], rel=1e-5)

    def test_phi_prime_inside_band_is_cubic_derivative(self):
        params = HeadLossParams(np.array([456.6]), np.array([1.852]))
        a = params.smoothing_a[0]
        b = params.smoothing_b[0]
        for q in (0.0, 3e-7, -8e-7):
            assert phi_prime(np.array([q]), params)[0] == pytest.approx(
                a + 3 * b * q**2, rel=1e-12)


class TestNewtonSolver:
    def test_line_network_analytic(self, line3):
        # chain flows are demand-determined: 0.03, 0.02, 0.01
        params = headloss_params(line3)
        q, h = solve_steady(line3, params, line3.demands[0], line3.source_heads[0])
        assert q == pytest.approx([0.03, 0.02, 0.01], abs=1e-9)
        expected_h1 = 80.0 - R_ORACLE * 0.03**1.852
        assert h[0] == pytest.approx(expected_h1, abs=1e-6)

    def test_residual_tolerances(self, loop4):
        params = headloss_params(loop4)
        q, h = solve_steady(loop4, params, loop4.demands[0], loop4.source_heads[0])
        mass = loop4.A12.T @ q - loop4.demands[0]
        energy = loop4.A12 @ h + loop4.A10 @ loop4.source_heads[0] + phi(q, params)
        assert np.max(np.abs(mass)) <= 1e-8
        assert np.max(np.abs(energy)) <= 1e-6

    def test_eta_shifts_heads(self, line3):
        params = headloss_params(line3)
        eta = np.array([5.0, 0.0, 0.0])
        _, h0 = solve_steady(line3, params, line3.demands[0], line3.source_heads[0])
        _, h1 = solve_steady(line3, params, line3.demands[0], line3.source_heads[0], eta=eta)
        assert h1 == pytest.approx(h0 - 5.0, abs=1e-6)

    def test_alpha_adds_flow(self, line3):
        params = headloss_params(line3)
        alpha = np.array([0.0, 0.0, 0.005])
        q, _ = solve_steady(line3, params, line3.demands[0], line3.source_heads[0], alpha=alpha)
        assert q == pytest.approx([0.035, 0.025, 0.015], abs=1e-9)

    def test_warm_start_leaves_q0_alone(self, loop4):
        params = headloss_params(loop4)
        d, h0 = loop4.demands[0], loop4.source_heads[0]
        q_ref, h_ref = solve_steady(loop4, params, d, h0)
        # a converged start returns at once, still as a new array
        for q0 in (q_ref.copy(), 0.5 * q_ref):
            kept = q0.copy()
            q, _ = solve_steady(loop4, params, d, h0, q0=q0, h0_guess=h_ref)
            assert q is not q0 and not np.shares_memory(q, q0)
            assert np.array_equal(q0, kept)
            assert q == pytest.approx(q_ref, abs=1e-9)

    def test_nonconvergence_raises(self, loop4, monkeypatch):
        params = headloss_params(loop4)
        monkeypatch.setattr("sccopt.hydraulics._MAX_NEWTON", 1)
        with pytest.raises(NonConvergence):
            solve_steady(loop4, params, loop4.demands[0], loop4.source_heads[0])

    def test_residual_log(self, loop4):
        params = headloss_params(loop4)
        log = []
        solve_steady(loop4, params, loop4.demands[0], loop4.source_heads[0],
                     residual_log=log)
        assert len(log) >= 2
        assert log[-1][1] <= log[0][1] or log[0][1] < 1e-8

    def test_simulate_all_timesteps(self):
        net = line_network(3, n_t=3, demand_factors=[0.5, 1.0, 1.5])
        state = simulate(net, headloss_params(net))
        assert state.q.shape == (3, 3)
        assert state.q[2] == pytest.approx(3.0 * state.q[0], abs=1e-8)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_random_networks_converge(self, seed):
        net = random_network(n_nodes=25, extra_edges=6, seed=seed)
        params = headloss_params(net)
        t0 = time.perf_counter()
        q, h = solve_steady(net, params, net.demands[0], net.source_heads[0])
        assert time.perf_counter() - t0 < 1.0
        mass = net.A12.T @ q - net.demands[0]
        energy = net.A12 @ h + net.A10 @ net.source_heads[0] + phi(q, params)
        assert np.max(np.abs(mass)) <= 1e-8
        assert np.max(np.abs(energy)) <= 1e-6


@pytest.fixture(params=["loop4", "grid25", "random", "parallel"])
def net(request):
    """The networks the compiled Schur and KKT patterns are checked on."""
    if request.param == "random":
        return random_network(n_nodes=60, extra_edges=20, seed=1)
    if request.param == "parallel":
        # link 7 joins two demand nodes; a parallel copy sums into its entries
        g = request.getfixturevalue("grid25")
        links = g.links + [replace(g.links[7], id="parallel")]
        return NetworkModel(links, g.nodes, g.sources, g.demands, g.source_heads)
    return request.getfixturevalue(request.param)


class TestSchurAssembly:
    def test_matches_sparse_product_bit_for_bit(self, net):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = 10.0 ** rng.uniform(-10.0, 10.0, net.n_p)
            ref = (net.A12T @ sp.diags(w) @ net.A12).tocsc()
            ref.sort_indices()
            S = net.schur(w)
            assert S.shape == ref.shape
            assert np.array_equal(S.indptr, ref.indptr)
            assert np.array_equal(S.indices, ref.indices)
            assert np.array_equal(S.data, ref.data)

    def test_compiled_arrays_are_read_only(self, net):
        for arr in (net.schur_indices, net.schur_indptr, net.schur_pos,
                    net.schur_link, net.schur_sign):
            with pytest.raises(ValueError):
                arr[0] = 0


class TestKktAssembly:
    def test_matches_bmat_bit_for_bit(self, net):
        rng = np.random.default_rng(0)
        params = headloss_params(net)
        scc_params, bounds = SccParams.from_network(net), default_bounds(net, params)
        for k in range(20):
            g = 10.0 ** rng.uniform(-12.0, 10.0, net.n_p)
            ctrl = sorted(rng.choice(net.n_p, size=k % 4, replace=False))
            afv = list(rng.choice(net.n_n, size=k % 3, replace=False))
            E = sp.coo_matrix((np.ones(len(ctrl)), (ctrl, np.arange(len(ctrl)))),
                              shape=(net.n_p, len(ctrl)))
            F = sp.coo_matrix((np.ones(len(afv)), (afv, np.arange(len(afv)))),
                              shape=(net.n_n, len(afv)))
            blocks = [[sp.diags(g, format="coo"), net.A12], [net.A12T, None]]
            cases = [(net.kkt(g), sp.bmat(blocks)),
                     (Subproblem(net, params, scc_params, bounds,
                                 ValveDesign(tuple(ctrl), (), tuple(afv)), 0, (),
                                 RunMemo()).step_matrix(g),
                      sp.bmat([blocks[0] + [E, None], blocks[1] + [None, -F]]))]
            for K, ref in cases:
                ref = ref.tocsc()
                assert K.shape == ref.shape
                assert np.array_equal(K.indptr, ref.indptr)
                assert np.array_equal(K.indices, ref.indices)
                assert np.array_equal(K.data, ref.data)

    def test_compiled_arrays_are_read_only(self, net):
        for arr in (net.kkt_indptr, net.kkt_indices, net.kkt_template):
            with pytest.raises(ValueError):
                arr[0] = 0
