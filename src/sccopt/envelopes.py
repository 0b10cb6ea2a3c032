"""Concave envelopes of the sigmoid terms and polyhedral envelopes of the
Hazen-Williams curve, built for arrays of intervals at once.

An envelope function takes k intervals (its other arguments broadcast to
them) and returns, for each of its two cut families, ``(coeff_q, rhs, keep)``
of shape (k, 2): two cut slots per interval, of which slot 0 always holds a
cut and slot 1 holds one where ``keep`` is True.  A cut is the row
``coeff_q * q + coeff_aux * aux <= rhs`` where ``aux`` is the sigmoid
auxiliary (sigma) or the head-loss auxiliary (theta); ``coeff_aux`` is -1 for
the lower head-loss family and +1 for every other family.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import expit

# Bracket-width termination; small enough that the tangency residual
# |f(w)| stays below 1e-9 even for steep sigmoids (rho ~ 100).
BISECT_TOL = 1e-13
BISECT_MAX_ITER = 200
_SLOPE_EPS = 1e-12

# libm's pow, one element at a time: NumPy's vectorized ``**`` can differ
# from it in the last bit, and the cuts must not depend on how many
# intervals are built together.
_pow = np.frompyfunc(math.pow, 2, 1)


def _intervals(lo, hi):
    lo, hi = np.broadcast_arrays(np.atleast_1d(np.asarray(lo, dtype=float)),
                                 np.atleast_1d(np.asarray(hi, dtype=float)))
    if np.any(lo > hi):
        raise ValueError("an interval's lower end exceeds its upper end")
    return lo, hi


def _bisect(f, lo, hi, active):
    """Where ``active``, bisect for a sign change of f in [lo, hi] per element.

    Returns the final bracket midpoints and ``found``, which is False where f
    has the same strict sign at both ends (the tangent point lies outside the
    domain) or the element is inactive.
    """
    lo, hi = np.broadcast_arrays(lo, hi)
    flo = f(lo)
    found = active & ~(flo * f(hi) > 0)
    run = found.copy()
    for _ in range(BISECT_MAX_ITER):
        run &= ~(hi - lo < BISECT_TOL)
        if not run.any():
            break
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        right = run & ~(fmid * flo <= 0)
        hi = np.where(run & ~right, mid, hi)
        lo = np.where(right, mid, lo)
        flo = np.where(right, fmid, flo)
    return 0.5 * (lo + hi), found


def _upper_cut(slope, point, value):
    # aux <= value + slope (q - point)
    return -slope, value - slope * point


def _lower_cut(slope, point, value):
    # aux >= value + slope (q - point)
    return slope, slope * point - value


def _where(cond, cut, other):
    return tuple(np.where(cond, a, b) for a, b in zip(cut, other))


def _two_slots(first, second, two):
    """``first`` in slot 0; ``second`` in slot 1 where ``two`` holds and it
    does not repeat ``first`` to within _SLOPE_EPS."""
    coeff, rhs = np.column_stack([first[0], second[0]]), np.column_stack([first[1], second[1]])
    repeat = ((np.abs(coeff[:, 1] - coeff[:, 0]) < _SLOPE_EPS)
              & (np.abs(rhs[:, 1] - rhs[:, 0]) < _SLOPE_EPS))
    return coeff, rhs, np.column_stack([np.ones_like(two), two & ~repeat])


# ---------------------------------------------------------------------------
# Sigmoid envelope
# ---------------------------------------------------------------------------


def sigmoid(u, rho, u_min):
    return expit(rho * (np.asarray(u, dtype=float) - u_min))


def sigmoid_prime(u, rho, u_min):
    s = sigmoid(u, rho, u_min)
    return rho * s * (1.0 - s)


@np.errstate(divide="ignore", invalid="ignore")
def _psi_cuts(rho, u_min, u_L, u_U):
    """Concave over-estimator cuts for psi+ on [u_L, u_U] in velocity space.

    A point interval gets one flat cut.  Otherwise the chord from
    (u_L, psi(u_L)) tangent at w (w = u_L when the domain starts in the
    concave region), plus the tangent at u_U; or the secant alone when w
    lies beyond u_U.
    """
    psi = lambda u: sigmoid(u, rho, u_min)
    dpsi = lambda u: sigmoid_prime(u, rho, u_min)
    point = u_U - u_L < _SLOPE_EPS
    concave = u_L >= u_min
    psi_L = psi(u_L)
    w, found = _bisect(lambda x: dpsi(x) * (x - u_L) + psi_L - psi(x),
                       u_min, u_U, ~point & ~concave & (u_U > u_min))
    w = np.where(concave, u_L, w)
    two = ~point & (concave | found) & ~(w >= u_U - _SLOPE_EPS)
    w = np.where(w <= u_L + _SLOPE_EPS, u_L, w)
    secant = (psi(u_U) - psi_L) / (u_U - u_L)
    first = _where(point, (0.0, psi_L),
                   _where(two, _upper_cut(dpsi(w), w, psi(w)),
                          _upper_cut(secant, u_L, psi_L)))
    return _two_slots(first, _upper_cut(dpsi(u_U), u_U, psi(u_U)), two)


def sigmoid_envelope(rho, u_min, u_L, u_U):
    """(psi+ cuts, psi- cuts) on the velocity intervals [u_L, u_U].

    psi-(u) = psi+(-u), so its cuts mirror psi+'s cuts on [-u_U, -u_L].
    """
    u_L, u_U = _intervals(u_L, u_U)
    coeff, rhs, keep = _psi_cuts(rho, u_min, -u_U, -u_L)
    return _psi_cuts(rho, u_min, u_L, u_U), (-coeff, rhs, keep)


# ---------------------------------------------------------------------------
# Hazen-Williams envelope
# ---------------------------------------------------------------------------


def _abs_pow(q, e):
    return np.asarray(_pow(np.abs(q), e), dtype=float)


def hw(q, r, n):
    q = np.asarray(q, dtype=float)
    return r * _abs_pow(q, n - 1.0) * q


def hw_prime(q, r, n):
    q = np.asarray(q, dtype=float)
    return r * n * _abs_pow(q, n - 1.0)


@np.errstate(divide="ignore", invalid="ignore")
def hw_envelope(r, n, q_L, q_U):
    """(lower cuts, upper cuts) sandwiching phi on the flow intervals
    [q_L, q_U].

    A point interval, or zero resistance, gets one flat cut on each side.  A
    pure-positive interval (convex branch) gets the secant above and the
    endpoint tangents below; a pure-negative one (concave branch) the
    mirror.  On a mixed-sign interval each side gets the line anchored at
    one end and tangent across zero plus the other end's tangent, or the
    secant where that tangent point lies outside the interval.
    """
    q_L, q_U = _intervals(q_L, q_U)
    p = lambda q: hw(q, r, n)
    dp = lambda q: hw_prime(q, r, n)
    p_L, p_U = p(q_L), p(q_U)
    point = q_U - q_L < _SLOPE_EPS
    flat = point | (r == 0.0)
    convex = ~flat & (q_L >= 0.0)
    concave = ~flat & ~convex & (q_U <= 0.0)
    mixed = ~(flat | convex | concave)
    # tangent points of the lines anchored at (q_L, phi(q_L)) and (q_U, phi(q_U))
    z_lo, lo_found = _bisect(lambda x: dp(x) * (x - q_L) + p_L - p(x), 0.0, q_U, mixed)
    z_up, up_found = _bisect(lambda x: dp(x) * (x - q_U) + p_U - p(x), q_L, 0.0, mixed)
    slope = (p_U - p_L) / (q_U - q_L)
    offset = p_L - slope * q_L
    # a flat cut passes through (q_L, phi(q_L)), or the origin when r = 0
    x0, v0 = np.where(point, q_L, 0.0), np.where(point, p_L, 0.0)

    two = convex | (mixed & lo_found)
    first = _where(flat, _lower_cut(0.0, x0, v0),
                   _where(two, _lower_cut(dp(np.where(convex, q_L, z_lo)), q_L, p_L),
                          (slope, -offset)))
    lower = _two_slots(first, _lower_cut(dp(q_U), q_U, p_U), two)

    two = concave | (mixed & up_found)
    first = _where(flat, _upper_cut(0.0, x0, v0),
                   _where(two, _upper_cut(dp(q_L), q_L, p_L), (-slope, offset)))
    second = _upper_cut(dp(np.where(concave, q_U, z_up)), q_U, p_U)
    return lower, _two_slots(first, second, two)
