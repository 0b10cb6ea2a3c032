"""Hazen-Williams head-loss law and Newton steady-state solver.

Solves, for one timestep with fixed controls (eta, alpha),

    A12 h + A10 h0 + phi(q) + eta = 0
    A12^T q - d - alpha = 0

via damped Newton with a Schur-complement reduction on h (the global
gradient algorithm of Todini & Pilati, 1988).  The reduced matrix
S = A12^T diag(1/phi') A12 has a pattern that depends only on the network:
its CSC pattern and the scatter map of link weights into it are compiled
once per ``NetworkModel``, and each Newton iteration fills S with one
``np.bincount`` (``NetworkModel.schur``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .errors import NonConvergence, SingularSystem
from .netmodel import NetworkModel, PIPE

GRAVITY = 9.81
HW_EXPONENT = 1.852
# Newton convergence: mass residual in m^3/s, energy residual in m
TOL_MASS = 1e-8
TOL_ENERGY = 1e-6
# Newton iterations before solve_steady gives up
_MAX_NEWTON = 200


@dataclass(frozen=True)
class HeadLossParams:
    """Per-link resistance r and exponent n for phi(q) = r |q|^(n-1) q.

    Inside |q| <= q_eps, phi is replaced by the odd cubic a*q + b*q^3
    matching value and slope at +-q_eps, which keeps the Newton Jacobian
    bounded away from zero at the origin.
    """

    r: np.ndarray
    n_exp: np.ndarray
    q_eps: float = 1e-6

    @property
    def smoothing_a(self) -> np.ndarray:
        return self.r * self.q_eps ** (self.n_exp - 1.0) * (3.0 - self.n_exp) / 2.0

    @property
    def smoothing_b(self) -> np.ndarray:
        return self.r * self.q_eps ** (self.n_exp - 3.0) * (self.n_exp - 1.0) / 2.0


def headloss_params(net: NetworkModel) -> HeadLossParams:
    r = np.empty(net.n_p)
    n = np.empty(net.n_p)
    for j, lk in enumerate(net.links):
        if lk.kind == PIPE:
            r[j] = 10.67 * lk.length / (lk.hw_coefficient**HW_EXPONENT * lk.diameter**4.871)
            n[j] = HW_EXPONENT
        else:
            r[j] = 8.0 * lk.valve_loss / (GRAVITY * np.pi**2 * lk.diameter**4)
            n[j] = 2.0
    return HeadLossParams(r, n)


def phi(q, params: HeadLossParams) -> np.ndarray:
    """Head loss in m for flow q (vectorized over links)."""
    q = np.asarray(q, dtype=float)
    out = params.r * np.abs(q) ** (params.n_exp - 1.0) * q
    band = np.abs(q) <= params.q_eps
    if np.any(band):
        a, b = params.smoothing_a, params.smoothing_b
        out = np.where(band, a * q + b * q**3, out)
    return out


def phi_prime(q, params: HeadLossParams) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    out = params.r * params.n_exp * np.abs(q) ** (params.n_exp - 1.0)
    band = np.abs(q) <= params.q_eps
    if np.any(band):
        a, b = params.smoothing_a, params.smoothing_b
        out = np.where(band, a + 3.0 * b * q**2, out)
    return out


@dataclass
class HydraulicState:
    """Per-timestep flows, heads and controls; shape (n_t, .)."""

    q: np.ndarray
    h: np.ndarray
    eta: np.ndarray
    alpha: np.ndarray

    def velocities(self, net: NetworkModel) -> np.ndarray:
        return self.q / net.areas


def solve_steady(
    net: NetworkModel,
    params: HeadLossParams,
    d: np.ndarray,
    h0: np.ndarray,
    eta: np.ndarray | None = None,
    alpha: np.ndarray | None = None,
    residual_log: list | None = None,
    q0: np.ndarray | None = None,
    h0_guess: np.ndarray | None = None,
):
    """Solve one timestep; returns (q, h) or raises NonConvergence/SingularSystem.

    Converged means a mass residual within TOL_MASS (m^3/s) and an energy
    residual within TOL_ENERGY (m) within _MAX_NEWTON iterations.
    ``residual_log`` gets an (iteration, mass, energy residual) row per
    pass.  ``q0``/``h0_guess`` warm-start the
    Newton iteration (e.g. from a nearby solve); by default a uniform
    0.03 m/s flow and flat heads are used.  Each iteration fills the Schur
    matrix from the network's compiled pattern (``net.schur``), with the
    same bits as the sparse product A12^T diag(w) A12, and factors it with
    SuperLU.
    """
    eta = np.zeros(net.n_p) if eta is None else np.asarray(eta, dtype=float)
    alpha = np.zeros(net.n_n) if alpha is None else np.asarray(alpha, dtype=float)
    A12, A12T = net.A12, net.A12T

    if q0 is not None:
        q = np.array(q0, dtype=float)  # a copy: q0 is never returned
    else:
        q = 0.03 * net.areas  # 0.03 m/s in file direction
    if h0_guess is not None:
        h = np.array(h0_guess, dtype=float)
    else:
        h = np.full(net.n_n, float(np.max(h0)))
    rhs_fixed = net.A10 @ h0 + eta

    def residuals(q, h):
        fe = A12 @ h + rhs_fixed + phi(q, params)
        fm = A12T @ q - d - alpha
        return fe, fm

    def score(fe, fm):
        return max(np.max(np.abs(fm)) / TOL_MASS,
                   np.max(np.abs(fe)) / TOL_ENERGY)

    fe, fm = residuals(q, h)
    s = score(fe, fm)
    for it in range(_MAX_NEWTON):
        if residual_log is not None:
            residual_log.append((it, float(np.max(np.abs(fm))), float(np.max(np.abs(fe)))))
        if s <= 1.0:
            return q, h
        g = np.maximum(phi_prime(q, params), 1e-8)
        w = 1.0 / g
        try:
            lu = spla.splu(net.schur(w))
        except RuntimeError as exc:
            raise SingularSystem(str(exc)) from exc
        dh = lu.solve(fm - A12T @ (w * fe))
        if not np.all(np.isfinite(dh)):
            raise SingularSystem("reduced system produced non-finite step")
        dq = -w * (fe + A12 @ dh)
        # the full step zeroes the (linear) mass residual exactly and the
        # iteration recovers from transient energy-residual spikes, whereas
        # monotone backtracking can stall on vanishing steps; damp only when
        # the step overflows into non-finite values
        q_new = q + dq
        h_new = h + dh
        fe_new, fm_new = residuals(q_new, h_new)
        s_new = score(fe_new, fm_new)
        step = 0.5
        for _ in range(30):
            if np.isfinite(s_new):
                break
            q_new = q + step * dq
            h_new = h + step * dh
            fe_new, fm_new = residuals(q_new, h_new)
            s_new = score(fe_new, fm_new)
            step *= 0.5
        q, h, fe, fm, s = q_new, h_new, fe_new, fm_new, s_new
    if s <= 1.0:
        return q, h
    raise NonConvergence(f"residual score {s:.3g} after {_MAX_NEWTON} iterations")


def simulate(
    net: NetworkModel,
    params: HeadLossParams,
    eta: np.ndarray | None = None,
    alpha: np.ndarray | None = None,
) -> HydraulicState:
    """Solve all timesteps (independently) and return the full state."""
    eta = np.zeros((net.n_t, net.n_p)) if eta is None else np.atleast_2d(eta)
    alpha = np.zeros((net.n_t, net.n_n)) if alpha is None else np.atleast_2d(alpha)
    q = np.zeros((net.n_t, net.n_p))
    h = np.zeros((net.n_t, net.n_n))
    for t in range(net.n_t):
        q[t], h[t] = solve_steady(
            net, params, net.demands[t], net.source_heads[t], eta[t], alpha[t])
    return HydraulicState(q, h, eta.copy(), alpha.copy())
