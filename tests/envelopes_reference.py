"""The envelopes of ``sccopt.envelopes`` built one interval at a time.

A test-only oracle: ``sccopt.envelopes`` builds the cuts of many intervals
at once and must return, in its kept slots and in order, exactly the cuts
this scalar reference returns.  A cut is the row
``coeff_q * q + coeff_aux * aux <= rhs`` where ``aux`` is the sigmoid
auxiliary (sigma) or the head-loss auxiliary (theta).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

# Bracket-width termination; small enough that the tangency residual
# |f(w)| stays below 1e-9 even for steep sigmoids (rho ~ 100).
BISECT_TOL = 1e-13
BISECT_MAX_ITER = 200
_SLOPE_EPS = 1e-12


@dataclass(frozen=True)
class LinearCut:
    coeff_q: float
    coeff_aux: float
    rhs: float


class NoTangent(Exception):
    """Bisection sign test failed; the tangent point lies outside the domain."""


def _bisect(f, lo: float, hi: float) -> float:
    flo = f(lo)
    if flo * f(hi) > 0:
        raise NoTangent
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if hi - lo < BISECT_TOL:
            return mid
        if f(mid) * flo <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Sigmoid envelope
# ---------------------------------------------------------------------------


def sigmoid(u, rho, u_min):
    return expit(rho * (np.asarray(u, dtype=float) - u_min))


def sigmoid_prime(u, rho, u_min):
    s = sigmoid(u, rho, u_min)
    return rho * s * (1.0 - s)


def bisect_sigmoid_tangent(rho: float, u_min: float, u_L: float, u_U: float) -> float:
    """Point w where the line from (u_L, psi(u_L)) is tangent to psi at w.

    Returns u_L immediately when u_L >= u_min (the domain starts in the
    concave region).  Raises NoTangent when the tangency point lies beyond
    u_U, which selects the secant envelope case.
    """
    if u_L >= u_min:
        return u_L

    def f(x):
        return sigmoid_prime(x, rho, u_min) * (x - u_L) + sigmoid(u_L, rho, u_min) - sigmoid(x, rho, u_min)

    if u_U <= u_min:
        raise NoTangent
    return _bisect(f, u_min, u_U)


def _upper_cut(slope: float, point_u: float, point_v: float) -> LinearCut:
    # aux <= v + slope (u - point_u)
    return LinearCut(-slope, 1.0, point_v - slope * point_u)


def _dedup(cuts: list[LinearCut]) -> list[LinearCut]:
    out: list[LinearCut] = []
    for c in cuts:
        if any(abs(c.coeff_q - o.coeff_q) < _SLOPE_EPS
               and abs(c.rhs - o.rhs) < _SLOPE_EPS for o in out):
            continue
        out.append(c)
    return out


def sigmoid_envelope_pos(rho: float, u_min: float, u_L: float, u_U: float) -> list[LinearCut]:
    """Concave over-estimator cuts for psi+ on [u_L, u_U] in velocity space."""
    if u_L > u_U:
        raise ValueError("u_L must not exceed u_U")
    psi = lambda u: float(sigmoid(u, rho, u_min))
    dpsi = lambda u: float(sigmoid_prime(u, rho, u_min))
    if u_U - u_L < _SLOPE_EPS:
        return [LinearCut(0.0, 1.0, psi(u_L))]
    try:
        w = bisect_sigmoid_tangent(rho, u_min, u_L, u_U)
    except NoTangent:
        # tangency beyond u_U: single secant through the endpoints
        slope = (psi(u_U) - psi(u_L)) / (u_U - u_L)
        return [_upper_cut(slope, u_L, psi(u_L))]
    if w >= u_U - _SLOPE_EPS:
        slope = (psi(u_U) - psi(u_L)) / (u_U - u_L)
        return [_upper_cut(slope, u_L, psi(u_L))]
    if w <= u_L + _SLOPE_EPS:
        cuts = [_upper_cut(dpsi(u_L), u_L, psi(u_L)), _upper_cut(dpsi(u_U), u_U, psi(u_U))]
    else:
        # chord from (u_L, psi(u_L)) tangent at w, plus the tangent at u_U
        cuts = [_upper_cut(dpsi(w), w, psi(w)), _upper_cut(dpsi(u_U), u_U, psi(u_U))]
    return _dedup(cuts)


def sigmoid_envelope_neg(rho: float, u_min: float, u_L: float, u_U: float) -> list[LinearCut]:
    """Cuts for psi-(u) = psi+(-u): mirror the positive envelope on [-u_U, -u_L]."""
    cuts = sigmoid_envelope_pos(rho, u_min, -u_U, -u_L)
    return [LinearCut(-c.coeff_q, c.coeff_aux, c.rhs) for c in cuts]


def sigmoid_envelope(rho: float, u_min: float, u_L: float, u_U: float):
    """(psi+ cuts, psi- cuts) on the velocity interval [u_L, u_U]."""
    return (sigmoid_envelope_pos(rho, u_min, u_L, u_U),
            sigmoid_envelope_neg(rho, u_min, u_L, u_U))


# ---------------------------------------------------------------------------
# Hazen-Williams envelope
# ---------------------------------------------------------------------------


def hw(q, r, n):
    q = np.asarray(q, dtype=float)
    return r * np.abs(q) ** (n - 1.0) * q


def hw_prime(q, r, n):
    q = np.asarray(q, dtype=float)
    return r * n * np.abs(q) ** (n - 1.0)


def bisect_hw_tangent(r: float, n: float, q_L: float, q_U: float, side: str) -> float:
    """Tangent point of the line anchored at one flow bound.

    side="lower": anchor (q_L, phi(q_L)), tangent sought in (0, q_U].
    side="upper": anchor (q_U, phi(q_U)), tangent sought in [q_L, 0).
    Raises NoTangent when the anchored line stays on one side (selecting the
    secant envelope case).
    """
    if side == "lower":
        y = q_L
        lo, hi = 0.0, q_U
    elif side == "upper":
        y = q_U
        lo, hi = q_L, 0.0
    else:
        raise ValueError("side must be 'lower' or 'upper'")

    def f(x):
        return float(hw_prime(x, r, n) * (x - y) + hw(y, r, n) - hw(x, r, n))

    return _bisect(f, lo, hi)


def _lower_cut(slope: float, point_q: float, point_v: float) -> LinearCut:
    # aux >= v + slope (q - point_q)
    return LinearCut(slope, -1.0, slope * point_q - point_v)


def hw_envelope(r: float, n: float, q_L: float, q_U: float):
    """(lower cuts, upper cuts) sandwiching phi on [q_L, q_U].

    Five domain cases: mixed-sign with both tangents, mixed-sign with either
    tangent outside the interval, pure-positive, and pure-negative.
    """
    if q_L > q_U:
        raise ValueError("q_L must not exceed q_U")
    p = lambda q: float(hw(q, r, n))
    dp = lambda q: float(hw_prime(q, r, n))
    if q_U - q_L < _SLOPE_EPS:
        v = p(q_L)
        return [_lower_cut(0.0, q_L, v)], [_upper_cut(0.0, q_L, v)]
    if r == 0.0:
        return [_lower_cut(0.0, 0.0, 0.0)], [_upper_cut(0.0, 0.0, 0.0)]

    def secant():
        slope = (p(q_U) - p(q_L)) / (q_U - q_L)
        return slope, p(q_L) - slope * q_L

    if q_L >= 0.0:
        # convex branch: secant above, endpoint tangents below
        s, c = secant()
        upper = [LinearCut(-s, 1.0, c)]
        lower = _dedup([_lower_cut(dp(q_L), q_L, p(q_L)), _lower_cut(dp(q_U), q_U, p(q_U))])
        return lower, upper
    if q_U <= 0.0:
        # concave branch: endpoint tangents above, secant below
        s, c = secant()
        lower = [LinearCut(s, -1.0, -c)]
        upper = _dedup([_upper_cut(dp(q_L), q_L, p(q_L)), _upper_cut(dp(q_U), q_U, p(q_U))])
        return lower, upper

    # mixed-sign domain
    try:
        z_lo = bisect_hw_tangent(r, n, q_L, q_U, "lower")
    except NoTangent:
        z_lo = None
    try:
        z_up = bisect_hw_tangent(r, n, q_L, q_U, "upper")
    except NoTangent:
        z_up = None

    if z_up is not None:
        upper = _dedup([_upper_cut(dp(q_L), q_L, p(q_L)), _upper_cut(dp(z_up), q_U, p(q_U))])
    else:
        s, c = secant()
        upper = [LinearCut(-s, 1.0, c)]
    if z_lo is not None:
        lower = _dedup([_lower_cut(dp(z_lo), q_L, p(q_L)), _lower_cut(dp(q_U), q_U, p(q_U))])
    else:
        s, c = secant()
        lower = [LinearCut(s, -1.0, -c)]
    return lower, upper
