"""Hazen-Williams head-loss law and Newton steady-state solver.

Solves, for one timestep with fixed controls (eta, alpha),

    A12 h + A10 h0 + phi(q) + eta = 0
    A12^T q - d - alpha = 0

via damped Newton with a Schur-complement reduction on h.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NonConvergence, SingularSystem
from .netmodel import NetworkModel, PIPE, VALVE

GRAVITY = 9.81
HW_EXPONENT = 1.852


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


def headloss_params(net: NetworkModel, q_eps: float = 1e-6) -> HeadLossParams:
    r = np.empty(net.n_p)
    n = np.empty(net.n_p)
    for j, lk in enumerate(net.links):
        if lk.kind == PIPE:
            r[j] = 10.67 * lk.length / (lk.hw_coefficient**HW_EXPONENT * lk.diameter**4.871)
            n[j] = HW_EXPONENT
        else:
            r[j] = 8.0 * lk.valve_loss / (GRAVITY * np.pi**2 * lk.diameter**4)
            n[j] = 2.0
    return HeadLossParams(r, n, q_eps)


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
    closed_links=(),
    max_newton: int = 200,
    tol_mass: float = 1e-8,
    tol_energy: float = 1e-6,
    residual_log: list | None = None,
    q0: np.ndarray | None = None,
    h0_guess: np.ndarray | None = None,
):
    """Solve one timestep; returns (q, h) or raises NonConvergence/SingularSystem.

    ``q0``/``h0_guess`` warm-start the Newton iteration (e.g. from a nearby
    solve); by default a uniform 0.03 m/s flow and flat heads are used.
    """
    eta = np.zeros(net.n_p) if eta is None else np.asarray(eta, dtype=float)
    alpha = np.zeros(net.n_n) if alpha is None else np.asarray(alpha, dtype=float)

    active = np.ones(net.n_p, dtype=bool)
    for j in closed_links:
        active[j] = False
    A12 = net.A12[active]
    A10 = net.A10[active]
    r_eta = eta[active]

    if q0 is not None:
        qa = np.asarray(q0, dtype=float)[active]
    else:
        qa = 0.03 * net.areas[active]  # 0.03 m/s in file direction
    if h0_guess is not None:
        h = np.asarray(h0_guess, dtype=float).copy()
    else:
        h = np.full(net.n_n, float(np.max(h0)))
    rhs_fixed = A10 @ h0 + r_eta

    def residuals(qa, h):
        fe = A12 @ h + rhs_fixed + phi(qa, _mask(params, active))
        fm = A12.T @ qa - d - alpha
        return fe, fm

    def score(fe, fm):
        return max(np.max(np.abs(fm)) / tol_mass,
                   np.max(np.abs(fe)) / tol_energy)

    fe, fm = residuals(qa, h)
    s = score(fe, fm)
    for it in range(max_newton):
        if residual_log is not None:
            residual_log.append((it, float(np.max(np.abs(fm))), float(np.max(np.abs(fe)))))
        if s <= 1.0:
            q = np.zeros(net.n_p)
            q[active] = qa
            return q, h
        g = np.maximum(phi_prime(qa, _mask(params, active)), 1e-8)
        w = 1.0 / g
        W = sp.diags(w)
        S = (A12.T @ W @ A12).tocsc()
        try:
            lu = spla.splu(S)
        except RuntimeError as exc:
            raise SingularSystem(str(exc)) from exc
        dh = lu.solve(fm - A12.T @ (w * fe))
        if not np.all(np.isfinite(dh)):
            raise SingularSystem("reduced system produced non-finite step")
        dq = -w * (fe + A12 @ dh)
        # the full step zeroes the (linear) mass residual exactly and the
        # iteration recovers from transient energy-residual spikes, whereas
        # monotone backtracking can stall on vanishing steps; damp only when
        # the step overflows into non-finite values
        qa_new = qa + dq
        h_new = h + dh
        fe_new, fm_new = residuals(qa_new, h_new)
        s_new = score(fe_new, fm_new)
        step = 0.5
        for _ in range(30):
            if np.isfinite(s_new):
                break
            qa_new = qa + step * dq
            h_new = h + step * dh
            fe_new, fm_new = residuals(qa_new, h_new)
            s_new = score(fe_new, fm_new)
            step *= 0.5
        qa, h, fe, fm, s = qa_new, h_new, fe_new, fm_new, s_new
    if s <= 1.0:
        q = np.zeros(net.n_p)
        q[active] = qa
        return q, h
    raise NonConvergence(f"residual score {s:.3g} after {max_newton} iterations")


def _mask(params: HeadLossParams, active: np.ndarray) -> HeadLossParams:
    if active.all():
        return params
    return HeadLossParams(params.r[active], params.n_exp[active], params.q_eps)


def simulate(
    net: NetworkModel,
    params: HeadLossParams,
    eta: np.ndarray | None = None,
    alpha: np.ndarray | None = None,
    closed_links=(),
    **kwargs,
) -> HydraulicState:
    """Solve all timesteps (independently) and return the full state."""
    eta = np.zeros((net.n_t, net.n_p)) if eta is None else np.atleast_2d(eta)
    alpha = np.zeros((net.n_t, net.n_n)) if alpha is None else np.atleast_2d(alpha)
    q = np.zeros((net.n_t, net.n_p))
    h = np.zeros((net.n_t, net.n_n))
    for t in range(net.n_t):
        q[t], h[t] = solve_steady(
            net, params, net.demands[t], net.source_heads[t],
            eta[t], alpha[t], closed_links=closed_links, **kwargs,
        )
    return HydraulicState(q, h, eta.copy(), alpha.copy())
