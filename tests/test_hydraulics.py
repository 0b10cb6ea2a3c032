import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

import hydraulics_reference as reference
from sccopt import hydraulics
from sccopt.errors import NonConvergence, SingularSystem
from sccopt.hydraulics import (DENSE_SCHUR_MAX_NODES, GRAVITY, HeadLossParams, head_loss,
                               headloss_params, jacobian_solve, kkt_solve, simulate,
                               solve_steady)
from sccopt.netgen import line_network, random_network
from sccopt.netmodel import PIPE, DemandNode, Link, NetworkModel, VALVE

# Hand-computed resistance for L=1000 m, C=130, D=0.3 m:
#   r = 10.67 * 1000 / (130^1.852 * 0.3^4.871)
R_ORACLE = 10.67 * 1000.0 / (130.0**1.852 * 0.3**4.871)

# network sizes on each side of the Schur solve's dense/SuperLU cutoff
SMALL_SIZES = st.integers(2, 30)
LARGE_SIZES = st.integers(DENSE_SCHUR_MAX_NODES + 1, DENSE_SCHUR_MAX_NODES + 30)


def with_island(net: NetworkModel) -> NetworkModel:
    """``net`` plus two demand nodes joined to each other and to no source,
    which makes the Schur matrix exactly singular."""
    nodes = net.nodes + [DemandNode("i1", 0.0), DemandNode("i2", 0.0)]
    links = net.links + [Link("island", "i1", "i2", PIPE, 100.0, 0.2, 100.0)]
    demands = np.concatenate([net.demands, [[0.001, -0.001]]], axis=1)
    return NetworkModel(links, nodes, net.sources, demands, net.source_heads)


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
        assert head_loss(np.array([0.05]), params)[0][0] == pytest.approx(expected, rel=1e-12)
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
        assert head_loss(-q, params)[0] == pytest.approx(-head_loss(q, params)[0])

    def test_smoothing_continuity_at_band_edge(self, line3):
        params = headloss_params(line3)
        qe = params.q_eps
        inside = head_loss(np.full(3, qe * (1 - 1e-12)), params)[0]
        outside = head_loss(np.full(3, qe * (1 + 1e-12)), params)[0]
        assert inside == pytest.approx(outside, rel=1e-6)
        din = head_loss(np.full(3, qe * (1 - 1e-12)), params)[1]
        dout = head_loss(np.full(3, qe * (1 + 1e-12)), params)[1]
        assert din == pytest.approx(dout, rel=1e-6)

    def test_derivative_positive_at_zero(self, line3):
        params = headloss_params(line3)
        assert np.all(head_loss(np.zeros(3), params)[1] > 0)

    @given(q=st.floats(-0.5, 0.5))
    @settings(max_examples=100, deadline=None)
    def test_phi_prime_matches_finite_difference(self, q):
        params = HeadLossParams(np.array([456.6]), np.array([1.852]))
        # a step relative to |q| keeps the truncation error small just
        # outside the smoothing band, where a fixed step is a large part of q
        eps = 1e-4 * abs(q)
        if abs(q) < 2 * params.q_eps + 10 * eps:
            return  # inside / straddling the smoothing band, checked separately
        fd = (head_loss(np.array([q + eps]), params)[0]
              - head_loss(np.array([q - eps]), params)[0]) / (2 * eps)
        assert head_loss(np.array([q]), params)[1][0] == pytest.approx(fd[0], rel=1e-5)

    def test_phi_prime_inside_band_is_cubic_derivative(self):
        params = HeadLossParams(np.array([456.6]), np.array([1.852]))
        a = params.smoothing_a[0]
        b = params.smoothing_b[0]
        for q in (0.0, 3e-7, -8e-7):
            assert head_loss(np.array([q]), params)[1][0] == pytest.approx(
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
        energy = loop4.A12 @ h + loop4.A10 @ loop4.source_heads[0] + head_loss(q, params)[0]
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
        energy = net.A12 @ h + net.A10 @ net.source_heads[0] + head_loss(q, params)[0]
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
            assert ref.shape == (net.n_n, net.n_n)
            assert np.array_equal(net.schur_indptr, ref.indptr)
            assert np.array_equal(net.schur_indices, ref.indices)
            assert np.array_equal(net.schur(w), ref.data)

    def test_dense_positions_match_toarray(self, net):
        rng = np.random.default_rng(3)
        for _ in range(5):
            w = 10.0 ** rng.uniform(-10.0, 10.0, net.n_p)
            dense = np.zeros(net.n_n * net.n_n)
            dense[net.schur_dense_pos] = net.schur(w)
            ref = (net.A12T @ sp.diags(w) @ net.A12).toarray()
            assert np.array_equal(dense.reshape(net.n_n, net.n_n), ref)

    def test_compiled_arrays_are_read_only(self, net):
        for arr in (net.schur_indices, net.schur_indptr, net.schur_pos,
                    net.schur_link, net.schur_sign, net.schur_dense_pos):
            with pytest.raises(ValueError):
                arr[0] = 0


def assert_solves(net, g, r_q, r_h, x, K):
    """x = (x_q, x_h) matches the dense solve of K (x_q, x_h) = (r_q, r_h) to
    1e-9, x_h relative to its largest entry and x_q in the units of r_q, as
    g x_q: the Schur elimination forms x_q = (r_q - A12 x_h) / g, so x_q
    itself carries an error of about eps / min(g).  Each row of A12 holds at
    most two +-1 entries, so the error x_h may have passes to g x_q at most
    twice over, and the flow check allows that much too."""
    ref = np.linalg.solve(K.toarray(), np.concatenate([r_q, r_h]))
    (x_q, x_h), ref_q, ref_h = x, ref[:net.n_p], ref[net.n_p:]
    assert np.abs(x_h - ref_h).max() <= 1e-9 * np.abs(ref_h).max()
    scale = max(np.abs(r_q).max(), np.abs(g * ref_q).max(), 2.0 * np.abs(ref_h).max())
    assert np.abs(g * (x_q - ref_q)).max() <= 1e-9 * scale


class TestKktAssembly:
    def test_matches_bmat_bit_for_bit(self, net):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = 10.0 ** rng.uniform(-12.0, 10.0, net.n_p)
            ref = sp.bmat([[sp.diags(g, format="coo"), net.A12], [net.A12T, None]]).tocsc()
            assert np.array_equal(net.kkt_indptr, ref.indptr)
            assert np.array_equal(net.kkt_indices, ref.indices)
            assert np.array_equal(net.kkt(g), ref.data)

    def test_compiled_arrays_are_read_only(self, net):
        for arr in (net.kkt_indptr, net.kkt_indices, net.kkt_template):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_jacobian_solves_like_the_step_matrix_slice(self, net):
        # the Newton step's Schur form (kkt_solve) and the SCP step's LU of
        # the matrix K(g) itself (jacobian_solve) solve one system, column by
        # column of a 2-D right-hand side
        rng = np.random.default_rng(1)
        n = net.n_p + net.n_n
        for _ in range(10):
            g = 10.0 ** rng.uniform(-4.0, 2.0, net.n_p)
            K = sp.bmat([[sp.diags(g), net.A12], [net.A12T, None]])
            rhs = rng.standard_normal((n, 3))
            X = jacobian_solve(net, g, rhs)
            assert X.shape == (n, 3)
            for k in range(3):
                r_q, r_h = rhs[:net.n_p, k], rhs[net.n_p:, k]
                assert_solves(net, g, r_q, r_h, (X[:net.n_p, k], X[net.n_p:, k]), K)
            assert_solves(net, g, r_q, r_h, kkt_solve(net, g, r_q, r_h), K)

    def test_jacobian_solve_is_exact_at_a_zero_loss_slope(self, net):
        # the SCP step floors a zero-loss valve's slope at 1e-12, where the
        # Schur form's 1/g weights would swamp the others; the LU of K(g)
        # still leaves a residual at round-off
        rng = np.random.default_rng(2)
        n = net.n_p + net.n_n
        for j in range(min(net.n_p, 5)):
            g = 10.0 ** rng.uniform(-4.0, 2.0, net.n_p)
            g[j] = 1e-12
            K = sp.bmat([[sp.diags(g), net.A12], [net.A12T, None]]).tocsc()
            rhs = rng.standard_normal((n, 2))
            X = jacobian_solve(net, g, rhs)
            assert np.abs(K @ X - rhs).max() <= 1e-12 * (1.0 + np.abs(X).max())

    def test_numerically_singular_schur_is_a_singular_system(self):
        # floored slopes spanning 17.6 decades make the Schur matrix singular
        # in floating point on a connected network, 2 of 300 such draws of
        # random_network(20, 5).  Dense Cholesky meets a non-positive pivot
        # and SuperLU an exactly singular LU; each must reach Newton as
        # SingularSystem with its reason.  With unit slopes the same network
        # solves, so the singularity is numerical, not structural as on an
        # island
        net = random_network(20, 5, seed=52)
        assert net.n_n <= DENSE_SCHUR_MAX_NODES
        g = 10.0 ** np.random.default_rng(52).uniform(-12.0, 10.0, net.n_p)
        r_q, r_h = np.ones(net.n_p), np.ones(net.n_n)
        with pytest.raises(SingularSystem, match="not positive definite"):
            kkt_solve(net, g, r_q, r_h)
        with pytest.raises(SingularSystem, match="exactly singular"):
            hydraulics._schur_solve(net, 1.0 / g, r_h, dense=False)
        assert all(np.isfinite(x).all() for x in kkt_solve(net, np.ones(net.n_p), r_q, r_h))

    @given(seed=st.integers(0, 10_000), n_nodes=st.one_of(SMALL_SIZES, LARGE_SIZES),
           extra=st.integers(0, 8), parallel=st.booleans(), low=st.floats(-12.0, 4.0))
    @settings(max_examples=80, deadline=None)
    # a SuperLU-side draw whose flow error, 8.1e-3, is within what its head
    # error allows but above the 7.9e-3 that r_q and g x_q alone would
    @example(seed=218, n_nodes=218, extra=0, parallel=False, low=0.0)
    def test_kkt_solve_matches_dense_solve(self, seed, n_nodes, extra, parallel, low):
        # slopes span six decades from 10^low, so between them they reach
        # from 1e-12 to 1e10; below 1e-8 the floor binds, and those below
        # 1e-10 are set to zero, a lossless valve's slope.  The dense solve
        # uses the floored g.  Networks on both sides of the cutoff run
        # through both Schur factorizations
        rng = np.random.default_rng(seed)
        net = random_network(n_nodes, extra, seed=seed)
        if parallel:
            j = int(rng.integers(net.n_p))
            net = NetworkModel(net.links + [replace(net.links[j], id="parallel")],
                               net.nodes, net.sources, net.demands, net.source_heads)
        slope = 10.0 ** rng.uniform(low, low + 6.0, net.n_p)
        slope[slope < 1e-10] = 0.0
        r_q, r_h = rng.standard_normal(net.n_p), rng.standard_normal(net.n_n)
        g = np.maximum(slope, 1e-8)
        K = sp.bmat([[sp.diags(g), net.A12], [net.A12T, None]])
        assert_solves(net, g, r_q, r_h, kkt_solve(net, slope, r_q, r_h), K)


def outcome(solver, net, params, *args, **kwargs):
    """What a solve returns or raises, and its residual log, as bytes and text."""
    log = []
    try:
        q, h = solver(net, params, *args, residual_log=log, **kwargs)
        result = ("solved", q.tobytes(), h.tobytes())
    except (NonConvergence, SingularSystem) as exc:
        result = (type(exc).__name__, str(exc))
    return result, np.array(log).tobytes()


class TestSchurFactorization:
    """Small networks factor the Newton step's Schur matrix densely, large
    ones by SuperLU."""

    def solve_counting_lu(self, net, monkeypatch):
        """Newton iterations and SuperLU factorizations of one solve."""
        factor, calls = hydraulics._factor, []

        def counted(*args):
            calls.append(args[0])
            return factor(*args)

        monkeypatch.setattr(hydraulics, "_factor", counted)
        log = []
        solve_steady(net, headloss_params(net), net.demands[0], net.source_heads[0],
                     residual_log=log)
        return len(log) - 1, calls

    def test_small_network_makes_no_lu(self, grid25, monkeypatch):
        iterations, calls = self.solve_counting_lu(grid25, monkeypatch)
        assert iterations > 0 and calls == []

    def test_large_network_factors_by_superlu(self, monkeypatch):
        net = random_network(DENSE_SCHUR_MAX_NODES + 1, 40, seed=0)
        iterations, calls = self.solve_counting_lu(net, monkeypatch)
        assert iterations > 0 and calls == [net.n_n] * iterations


class TestMatchesReference:
    """``solve_steady`` takes the reference's iterates bit for bit
    (tests/hydraulics_reference.py: sparse products, phi and phi' apart,
    ``cho_factor`` on a small network and ``splu`` on a large one)."""

    @given(seed=st.integers(0, 10_000), n_nodes=st.one_of(SMALL_SIZES, LARGE_SIZES),
           extra=st.integers(0, 8), parallel=st.booleans(), zero_loss=st.booleans(),
           q_eps=st.sampled_from([1e-6, 1e-3]),
           start=st.sampled_from(["default", "band", "random", "solution"]))
    @settings(max_examples=80, deadline=None)
    def test_random_networks(self, seed, n_nodes, extra, parallel, zero_loss, q_eps,
                             start):
        rng = np.random.default_rng(seed)
        net = random_network(n_nodes, extra, seed=seed)
        if parallel:
            j = int(rng.integers(net.n_p))
            net = NetworkModel(net.links + [replace(net.links[j], id="parallel")],
                               net.nodes, net.sources, net.demands, net.source_heads)
        params = headloss_params(net)
        r = params.r.copy()
        if zero_loss:  # phi' = 0 there, so the 1e-8 floor sets its weight
            r[rng.integers(net.n_p)] = 0.0
        # the wide band puts many iterates' flows inside it
        params = HeadLossParams(r, params.n_exp, q_eps)
        eta = np.where(rng.random(net.n_p) < 0.3, rng.uniform(0.0, 10.0, net.n_p), 0.0)
        alpha = np.where(rng.random(net.n_n) < 0.3, rng.uniform(0.0, 0.01, net.n_n), 0.0)
        args = (net.demands[0], net.source_heads[0], eta, alpha)
        warm = {}
        if start == "band":
            warm = dict(q0=rng.uniform(-1.0, 1.0, net.n_p) * q_eps,
                        h0_guess=rng.uniform(40.0, 80.0, net.n_n))
        elif start == "random":
            warm = dict(q0=rng.uniform(-0.05, 0.05, net.n_p),
                        h0_guess=rng.uniform(0.0, 100.0, net.n_n))
        elif start == "solution":
            (kind, *_), _ = outcome(reference.solve_steady, net, params, *args)
            if kind == "solved":
                q, h = reference.solve_steady(net, params, *args)
                warm = dict(q0=q, h0_guess=h)
        assert (outcome(solve_steady, net, params, *args, **warm)
                == outcome(reference.solve_steady, net, params, *args, **warm))

    @given(q=st.lists(st.one_of(st.floats(-0.5, 0.5), st.floats(-2e-6, 2e-6)),
                      min_size=1, max_size=8),
           q_eps=st.sampled_from([1e-6, 1e-3]))
    @settings(max_examples=100, deadline=None)
    def test_head_loss(self, q, q_eps):
        q = np.array(q)
        n = np.resize([1.852, 2.0], q.size)
        params = HeadLossParams(np.linspace(0.0, 500.0, q.size), n, q_eps)
        loss, slope = head_loss(q, params)
        assert loss.tobytes() == reference.phi(q, params).tobytes()
        assert slope.tobytes() == reference.phi_prime(q, params).tobytes()

    def test_fixtures(self, line3, loop4, grid25, rand60):
        large = random_network(DENSE_SCHUR_MAX_NODES + 22, 40, seed=1)
        for net in (line3, loop4, grid25, rand60, large):
            params = headloss_params(net)
            args = (net.demands[0], net.source_heads[0])
            result, log = outcome(solve_steady, net, params, *args)
            assert result[0] == "solved"
            assert (result, log) == outcome(reference.solve_steady, net, params, *args)

    def test_singular_system_on_both(self):
        # an island makes S exactly singular: dense Cholesky meets a
        # non-positive pivot on a small network, SuperLU a singular LU on a
        # large one
        for net, reason in (
                (with_island(line_network(2)), "not positive definite"),
                (with_island(random_network(DENSE_SCHUR_MAX_NODES + 1, 6, seed=0)),
                 "exactly singular")):
            args = (net, headloss_params(net), net.demands[0], net.source_heads[0])
            with pytest.raises(SingularSystem, match=reason):
                solve_steady(*args)
            result, log = outcome(solve_steady, *args)
            assert result[0] == "SingularSystem"
            assert (result, log) == outcome(reference.solve_steady, *args)
