import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar

import envelopes_reference as ref
from sccopt.envelopes import (hw, hw_envelope, sigmoid, sigmoid_envelope,
                              sigmoid_prime)

RHO, UMIN = 50.0, 0.2
R_HW, N_HW = 456.6, 1.852


def cuts_of(family, i=0):
    """Kept (coeff_q, rhs) of interval i's cuts, in slot order."""
    coeff, rhs, keep = family
    return coeff[i][keep[i]], rhs[i][keep[i]]


def upper_value(family, x, i=0):
    """Tightest over-estimate at x from cuts coeff_q*x + aux <= rhs."""
    coeff, rhs = cuts_of(family, i)
    return np.min(rhs[:, None] - coeff[:, None] * np.atleast_1d(x), axis=0)


def lower_value(family, x, i=0):
    """Tightest under-estimate at x from cuts coeff_q*x - aux <= rhs."""
    coeff, rhs = cuts_of(family, i)
    return np.max(coeff[:, None] * np.atleast_1d(x) - rhs[:, None], axis=0)


def closest_approach(gap, lo, hi):
    """(x, gap(x)) at the minimum of a cut's gap to the curve on [lo, hi]."""
    res = minimize_scalar(gap, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12})
    return res.x, res.fun


class TestSigmoidTangent:
    def test_concave_domain_returns_left_endpoint(self):
        coeff, rhs = cuts_of(sigmoid_envelope(RHO, UMIN, 0.25, 1.0)[0])
        # the first cut is the tangent at u_L
        assert -coeff[0] == pytest.approx(sigmoid_prime(0.25, RHO, UMIN), abs=1e-15)
        assert rhs[0] - coeff[0] * 0.25 == pytest.approx(sigmoid(0.25, RHO, UMIN), abs=1e-15)

    def test_tangency_residual(self):
        # the chord from (u_L, psi(u_L)) touches psi at its tangent point
        for u_L in (-1.0, -0.4, 0.0, 0.1):
            coeff, rhs = cuts_of(sigmoid_envelope(RHO, UMIN, u_L, 3.0)[0])
            assert len(coeff) == 2
            c, b = coeff[0], rhs[0]
            assert abs(b - c * u_L - sigmoid(u_L, RHO, UMIN)) <= 1e-9
            _, touch = closest_approach(
                lambda x: b - c * x - sigmoid(x, RHO, UMIN), UMIN, 3.0)
            assert abs(touch) <= 1e-9

    def test_no_tangent_when_interval_ends_early(self):
        # tangency point of the chord from far left lies beyond a tiny u_U:
        # one secant through both endpoints
        coeff, rhs = cuts_of(sigmoid_envelope(RHO, UMIN, -1.0, 0.21)[0])
        assert len(coeff) == 1
        for u in (-1.0, 0.21):
            assert rhs[0] - coeff[0] * u == pytest.approx(sigmoid(u, RHO, UMIN), abs=1e-12)

    def test_tangent_point_in_concave_region(self):
        coeff, rhs = cuts_of(sigmoid_envelope(RHO, UMIN, -0.5, 2.0)[0])
        w, touch = closest_approach(
            lambda x: rhs[0] - coeff[0] * x - sigmoid(x, RHO, UMIN), -0.5, 2.0)
        assert abs(touch) <= 1e-9
        assert UMIN <= w <= 2.0


class TestSigmoidEnvelope:
    CASES = [
        (-1.0, 2.0),     # tangent in the interior: chord + endpoint tangent
        (0.25, 1.5),     # concave domain: two endpoint tangents
        (-1.0, 0.21),    # tangency beyond u_U: secant
        (-0.5, -0.1),    # entirely convex region: secant
        (0.3, 0.3),      # degenerate point
    ]

    @pytest.mark.parametrize("u_L,u_U", CASES)
    def test_containment(self, u_L, u_U):
        pos, _ = sigmoid_envelope(RHO, UMIN, u_L, u_U)
        xs = np.linspace(u_L, u_U, 1000)
        assert np.all(upper_value(pos, xs) >= sigmoid(xs, RHO, UMIN) - 1e-9)

    @pytest.mark.parametrize("u_L,u_U", CASES)
    def test_tightness_at_endpoints(self, u_L, u_U):
        pos, _ = sigmoid_envelope(RHO, UMIN, u_L, u_U)
        xs = np.array([u_L, u_U])
        gap = upper_value(pos, xs) - sigmoid(xs, RHO, UMIN)
        assert np.all(gap <= 0.05)  # envelope touches (or nearly touches) endpoints

    def test_negative_mirror(self):
        pos, _ = sigmoid_envelope(RHO, UMIN, -2.0, 0.5)
        _, neg = sigmoid_envelope(RHO, UMIN, -0.5, 2.0)
        xs = np.linspace(-0.5, 2.0, 200)
        assert np.all(upper_value(neg, xs) >= sigmoid(-xs, RHO, UMIN) - 1e-9)
        # mirrored envelopes agree pointwise
        np.testing.assert_allclose(upper_value(neg, xs), upper_value(pos, -xs),
                                   rtol=0, atol=1e-9)

    def test_envelope_pair(self):
        families = sigmoid_envelope(RHO, UMIN, [-1.0, 0.0], [1.0, 0.5])
        for coeff, rhs, keep in families:
            assert coeff.shape == rhs.shape == keep.shape == (2, 2)
            assert keep[:, 0].all()

    def test_reversed_interval_raises(self):
        with pytest.raises(ValueError):
            sigmoid_envelope(RHO, UMIN, [0.0, 1.0], [0.5, 0.9])

    @given(u_L=st.floats(-3.0, 2.9), width=st.floats(1e-4, 4.0))
    @settings(max_examples=200, deadline=None)
    def test_containment_random_intervals(self, u_L, width):
        u_U = u_L + width
        pos, _ = sigmoid_envelope(RHO, UMIN, u_L, u_U)
        xs = np.linspace(u_L, u_U, 100)
        assert np.all(upper_value(pos, xs) >= sigmoid(xs, RHO, UMIN) - 1e-9)


class TestHwTangent:
    def test_lower_tangency_residual(self):
        # the line anchored at (q_L, phi(q_L)) touches phi in (0, q_U]
        coeff, rhs = cuts_of(hw_envelope(R_HW, N_HW, -0.08, 0.1)[0])
        c, b = coeff[0], rhs[0]
        assert abs(c * -0.08 - b - hw(-0.08, R_HW, N_HW)) <= 1e-9
        z, touch = closest_approach(lambda x: hw(x, R_HW, N_HW) - (c * x - b), 0.0, 0.1)
        assert abs(touch) <= 1e-9
        assert 0 < z <= 0.1

    def test_upper_tangency_residual(self):
        # the line anchored at (q_U, phi(q_U)) touches phi in [q_L, 0)
        coeff, rhs = cuts_of(hw_envelope(R_HW, N_HW, -0.08, 0.1)[1])
        c, b = coeff[1], rhs[1]
        assert abs(b - c * 0.1 - hw(0.1, R_HW, N_HW)) <= 1e-9
        z, touch = closest_approach(lambda x: b - c * x - hw(x, R_HW, N_HW), -0.08, 0.0)
        assert abs(touch) <= 1e-9
        assert -0.08 <= z < 0

    def test_no_tangent_for_lopsided_interval(self):
        # |q_L| tiny: the anchored line from q_U stays above the curve, so
        # the upper side is one secant through both endpoints
        coeff, rhs = cuts_of(hw_envelope(R_HW, N_HW, -1e-4, 0.5)[1])
        assert len(coeff) == 1
        for q in (-1e-4, 0.5):
            assert rhs[0] - coeff[0] * q == pytest.approx(hw(q, R_HW, N_HW), abs=1e-9)


class TestHwEnvelope:
    CASES = [
        (-0.1, 0.1),       # symmetric mixed sign, both tangents exist
        (-1e-4, 0.5),      # lopsided: upper secant case
        (-0.5, 1e-4),      # lopsided: lower secant case
        (0.01, 0.2),       # pure positive (convex branch)
        (-0.2, -0.01),     # pure negative (concave branch)
        (0.0, 0.15),       # boundary at zero
        (0.07, 0.07),      # degenerate point
    ]

    @pytest.mark.parametrize("q_L,q_U", CASES)
    def test_sandwich(self, q_L, q_U):
        lower, upper = hw_envelope(R_HW, N_HW, q_L, q_U)
        xs = np.linspace(q_L, q_U, 1000)
        v = hw(xs, R_HW, N_HW)
        assert np.all(upper_value(upper, xs) >= v - 1e-9)
        assert np.all(lower_value(lower, xs) <= v + 1e-9)

    def test_zero_resistance(self):
        lower, upper = hw_envelope(0.0, 2.0, -0.1, 0.1)
        assert upper_value(upper, 0.05)[0] == pytest.approx(0.0)
        assert lower_value(lower, 0.05)[0] == pytest.approx(0.0)

    def test_envelope_shrinks_with_domain(self):
        # both domains in one call: interval 0 is wide, interval 1 tight
        lower, upper = hw_envelope(R_HW, N_HW, [-0.2, -0.05], [0.2, 0.05])
        x = 0.02
        wide = upper_value(upper, x, 0) - lower_value(lower, x, 0)
        tight = upper_value(upper, x, 1) - lower_value(lower, x, 1)
        assert tight <= wide + 1e-12

    def test_reversed_interval_raises(self):
        with pytest.raises(ValueError):
            hw_envelope(R_HW, N_HW, 0.1, -0.1)

    @given(q_L=st.floats(-0.5, 0.49), width=st.floats(1e-5, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_sandwich_random_intervals(self, q_L, width):
        q_U = q_L + width
        lower, upper = hw_envelope(R_HW, N_HW, q_L, q_U)
        xs = np.linspace(q_L, q_U, 100)
        v = hw(xs, R_HW, N_HW)
        assert np.all(upper_value(upper, xs) >= v - 1e-9)
        assert np.all(lower_value(lower, xs) <= v + 1e-9)


def assert_same_cuts(family, ref_cuts, coeff_aux):
    """Interval i's kept slots hold, bit for bit and in order, the cuts the
    scalar reference builds for it."""
    coeff, rhs, keep = family
    for i, cuts in enumerate(ref_cuts):
        assert keep[i, 0] and keep[i].sum() == len(cuts)
        assert all(c.coeff_aux == coeff_aux for c in cuts)
        want = np.array([[c.coeff_q, c.rhs] for c in cuts])
        got = np.column_stack([coeff[i][keep[i]], rhs[i][keep[i]]])
        assert got.tobytes() == want.tobytes(), (i, got, want)


# zero width, widths below _SLOPE_EPS = 1e-12, and ordinary widths
def widths(top):
    return st.one_of(st.just(0.0), st.floats(0.0, 1e-12), st.floats(1e-12, top))


class TestMatchesReference:
    """The vectorized envelopes against the scalar oracle, many intervals of
    every kind per call."""

    @given(rho=st.sampled_from([5.0, 50.0, 100.0]),
           intervals=st.lists(st.tuples(st.floats(0.05, 1.0),
                                        st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
                                        widths(4.0)),
                              min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_sigmoid(self, rho, intervals):
        # u_L = u_min + offset; offset 0 puts u_L on the inflection point
        u_min, offset, width = (np.array(v) for v in zip(*intervals))
        u_L = u_min + offset
        u_U = u_L + width
        pos, neg = sigmoid_envelope(rho, u_min, u_L, u_U)
        args = list(zip(u_min, u_L, u_U))
        assert_same_cuts(pos, [ref.sigmoid_envelope_pos(rho, *a) for a in args], 1.0)
        assert_same_cuts(neg, [ref.sigmoid_envelope_neg(rho, *a) for a in args], 1.0)

    @given(intervals=st.lists(st.tuples(
        st.one_of(st.just(0.0), st.floats(1.0, 1e4)),
        st.sampled_from([1.852, 2.0]),
        st.one_of(
            st.tuples(st.floats(-0.5, 0.5), widths(1.0)).map(lambda a: (a[0], a[0] + a[1])),
            widths(1.0).map(lambda w: (0.0, w)),
            widths(1.0).map(lambda w: (-w, 0.0)))),
        min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_hw(self, intervals):
        r, n, q = (np.array(v) for v in zip(*intervals))
        lower, upper = hw_envelope(r, n, q[:, 0], q[:, 1])
        refs = [ref.hw_envelope(*a, *b) for a, b in zip(zip(r, n), q)]
        assert_same_cuts(lower, [lo for lo, _ in refs], -1.0)
        assert_same_cuts(upper, [up for _, up in refs], 1.0)
