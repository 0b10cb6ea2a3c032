import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sccopt.hydraulics import HydraulicState, headloss_params, simulate
from sccopt.netgen import line_network
from sccopt.scc import (SccParams, azp, azp_weights, scc_indicator,
                        scc_smooth, scc_smooth_flows, scc_smooth_grad_flows,
                        sigmoid_pair, velocity_cdf, write_velocity_cdf_csv)

# expit(-10) for rho=50, u_min=0.2 at u=0, hand value
PSI_AT_ZERO = 4.5397868702434395e-05


def _state_from_flows(net, q):
    q = np.atleast_2d(q)
    zeros_h = np.zeros((q.shape[0], net.n_n))
    return HydraulicState(q, zeros_h, np.zeros_like(q), zeros_h)


class TestParams:
    def test_weights_are_length_fractions(self, line3):
        p = SccParams.from_network(line3)
        assert p.weights.sum() == pytest.approx(1.0)
        assert p.weights == pytest.approx([1 / 3] * 3)

    def test_invalid_params_rejected(self, line3):
        with pytest.raises(ValueError):
            SccParams.from_network(line3, u_min=0.0)
        with pytest.raises(ValueError):
            SccParams.from_network(line3, rho=-1.0)


class TestSigmoid:
    def test_value_oracle_at_zero(self, line3):
        p = SccParams.from_network(line3)
        plus, minus = sigmoid_pair(np.zeros(3), p)
        assert plus[0] == pytest.approx(PSI_AT_ZERO, rel=1e-12)
        assert minus[0] == pytest.approx(PSI_AT_ZERO, rel=1e-12)

    def test_threshold_midpoint(self, line3):
        p = SccParams.from_network(line3)
        plus, _ = sigmoid_pair(np.full(3, 0.2), p)
        assert plus[0] == pytest.approx(0.5)

    def test_mirror_symmetry(self, line3):
        p = SccParams.from_network(line3)
        plus_a, minus_a = sigmoid_pair(np.full(3, 0.37), p)
        plus_b, minus_b = sigmoid_pair(np.full(3, -0.37), p)
        assert plus_a == pytest.approx(minus_b)
        assert minus_a == pytest.approx(plus_b)

    def test_no_overflow_at_extreme_velocity(self, line3):
        p = SccParams.from_network(line3)
        plus, minus = sigmoid_pair(np.full(3, 1e4), p)
        assert np.all(np.isfinite(plus)) and np.all(np.isfinite(minus))
        assert plus[0] == pytest.approx(1.0)


class TestObjective:
    def test_indicator_counts_fast_links(self, line3):
        # velocities 0.42, 0.28, 0.14 for the standard chain fixture
        st_ = simulate(line3, headloss_params(line3))
        p = SccParams.from_network(line3)
        u = st_.velocities(line3)[0]
        assert np.sum(np.abs(u) > 0.2) == 2
        assert scc_indicator(st_, line3, p) == pytest.approx(2 / 3)

    def test_indicator_all_fast_is_exactly_one(self, grid25):
        # the length weights sum to exactly 1 here, but their dot product
        # with an all-ones hit vector rounds one ulp above it
        p = SccParams.from_network(grid25)
        st_ = _state_from_flows(grid25, 2.0 * p.u_min * grid25.areas)
        assert p.weights.sum() == 1.0
        assert scc_indicator(st_, grid25, p) == 1.0

    def test_smooth_close_to_indicator_for_steep_rho(self, line3):
        st_ = simulate(line3, headloss_params(line3))
        p = SccParams.from_network(line3, rho=5000.0)
        assert scc_smooth(st_, line3, p) == pytest.approx(
            scc_indicator(st_, line3, p), abs=1e-3)

    def test_smooth_bounded_unit_interval(self, loop4):
        st_ = simulate(loop4, headloss_params(loop4))
        p = SccParams.from_network(loop4)
        assert 0.0 <= scc_smooth(st_, loop4, p) <= 1.0

    def test_timestep_averaging(self, line3):
        p = SccParams.from_network(line3)
        q1 = np.full((1, 3), 0.03)
        q2 = np.full((1, 3), 0.001)
        both = np.vstack([q1, q2])
        f1 = scc_smooth_flows(q1, line3, p)
        f2 = scc_smooth_flows(q2, line3, p)
        assert scc_smooth_flows(both, line3, p) == pytest.approx((f1 + f2) / 2)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_gradient_matches_finite_difference(self, seed):
        net = line_network(3)
        p = SccParams.from_network(net)
        rng = np.random.default_rng(seed)
        q = rng.uniform(-0.05, 0.05, size=(2, 3))
        grad = scc_smooth_grad_flows(q, net, p)
        eps = 1e-6
        for t in range(2):
            for j in range(3):
                qp, qm = q.copy(), q.copy()
                qp[t, j] += eps
                qm[t, j] -= eps
                fd = (scc_smooth_flows(qp, net, p) - scc_smooth_flows(qm, net, p)) / (2 * eps)
                assert grad[t, j] == pytest.approx(fd, rel=1e-4, abs=1e-8)


class TestAzp:
    def test_weights_normalized(self, loop4):
        w = azp_weights(loop4)
        assert w.sum() == pytest.approx(1.0)
        assert np.all(w > 0)

    def test_uniform_grid_weights(self, line3):
        # n1 and n2 touch two 1000 m pipes each, the leaf n3 only one
        w = azp_weights(line3)
        assert w == pytest.approx([0.4, 0.4, 0.2], abs=1e-12)

    def test_azp_value(self, line3):
        st_ = simulate(line3, headloss_params(line3))
        w = azp_weights(line3)
        expected = float((st_.h[0] - line3.elevations) @ w)
        assert azp(st_, line3) == pytest.approx(expected)


class TestVelocityCdf:
    def test_rows_sorted_and_cumulative(self, line3):
        st_ = simulate(line3, headloss_params(line3))
        rows = velocity_cdf(st_, line3)
        vels = [r[1] for r in rows]
        assert vels == sorted(vels)
        assert rows[-1][2] == pytest.approx(1.0)

    def test_csv_output(self, line3, tmp_path):
        st_ = simulate(line3, headloss_params(line3))
        out = tmp_path / "cdf.csv"
        with open(out, "w") as f:
            write_velocity_cdf_csv(velocity_cdf(st_, line3), f)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "link_id,max_velocity_mps,cum_length_fraction"
        assert len(lines) == 1 + line3.n_p
