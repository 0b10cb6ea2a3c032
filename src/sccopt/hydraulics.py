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

``kkt_solve`` solves this saddle-point system for the Newton step, on those
compiled arrays with no sparse-matrix object in between.  S is symmetric
positive definite on a connected network.  On a network of at most
``DENSE_SCHUR_MAX_NODES`` demand nodes it is scattered into a dense array
and factored by LAPACK's Cholesky (``dpotrf``/``dpotrs``, the calls
``scipy.linalg.cho_factor``/``cho_solve`` make); above that it is factored
by SuperLU's ``gstrf`` with the options ``splu`` passes.  SuperLU's fixed
per-call setup costs more than the dense factorization on small networks,
and the dense factorization's n^3 work and n x n array cost more on large
ones (scripts/schur_crossover.py times whole Newton solves both ways, from
which the cutoff is set).  A12, A12^T and A10 are
``CscMatrix``es, whose ``@`` calls SciPy's own ``csc_matvec`` kernel; the
SCP step's ``jacobian_solve`` factors the Jacobian itself by SuperLU at
every size.  ``head_loss`` returns phi and phi' from one power
|q|^(n-1), so each iterate takes that power once.  ``gstrf``
(``scipy.sparse.linalg._dsolve._superlu``) and LAPACK's bindings
(``scipy.linalg._flapack``, whose ``dpotrf`` and ``dpotrs`` are the objects
``scipy.linalg.lapack`` exports) are private SciPy modules, present with
these signatures in SciPy 1.15 to 1.17, the releases the
``scipy>=1.15,<1.18`` pin admits; only this module imports them or anything
else under ``scipy.sparse.linalg`` or ``scipy.linalg``.  Both are loaded by
``scipy_ext.load_extension``, without running the ``scipy.sparse.linalg``
and ``scipy.linalg`` packages around them, and SuperLU builds its L and U
factors, when asked for them, as ``CscMatrix``es.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .csc import CscMatrix
from .errors import NonConvergence, SingularSystem
from .netmodel import NetworkModel, PIPE
from .scipy_ext import load_extension

_superlu = load_extension("scipy.sparse.linalg._dsolve._superlu")
_flapack = load_extension("scipy.linalg._flapack")

GRAVITY = 9.81
HW_EXPONENT = 1.852
# Newton convergence: mass residual in m^3/s, energy residual in m
TOL_MASS = 1e-8
TOL_ENERGY = 1e-6
# Newton iterations before solve_steady gives up
_MAX_NEWTON = 200
# the options splu passes by default: None leaves each to SuperLU.  Spelling
# out the documented defaults instead changes the factorization's bits.
_SPLU_OPTIONS = dict(DiagPivotThresh=None, ColPerm=None, PanelSize=None, Relax=None)
# networks of at most this many demand nodes factor the Newton step's Schur
# matrix by dense Cholesky, larger ones by SuperLU, whose work follows the
# matrix's fill instead of n^3 and which needs no n x n array.  Whole
# solve_steady calls on random_network(n, 0.3 n), seeds 0-5, on a 2-core
# x86-64 VM with OpenBLAS at one thread and at its default threading
# (scripts/schur_crossover.py): dense was faster at every size up to 200
# nodes (0.75 against 1.45 ms at 100, 3.4-3.7 against 4.2-4.4 ms at 200),
# the two were even at 225-250, and SuperLU was faster from 300 nodes (5.6
# against 7.8 ms) and 7 times faster at 2,000 (106 against 787 ms)
DENSE_SCHUR_MAX_NODES = 200


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

    @cached_property
    def smoothing_a(self) -> np.ndarray:
        return self.r * self.q_eps ** (self.n_exp - 1.0) * (3.0 - self.n_exp) / 2.0

    @cached_property
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


def head_loss(q, params: HeadLossParams) -> tuple[np.ndarray, np.ndarray]:
    """(phi(q), phi'(q)): the head loss in m for flow q and its slope,
    vectorized over links, from one power |q|^(n-1)."""
    q = np.asarray(q, dtype=float)
    abs_q = np.abs(q)
    power = abs_q ** (params.n_exp - 1.0)
    loss, slope = params.r * power * q, params.r * params.n_exp * power
    band = abs_q <= params.q_eps
    if band.any():
        a, b = params.smoothing_a, params.smoothing_b
        loss = np.where(band, a * q + b * q**3, loss)
        slope = np.where(band, a + 3.0 * b * q**2, slope)
    return loss, slope


def _factor(n: int, data: np.ndarray, indices: np.ndarray, indptr: np.ndarray):
    """SuperLU's LU of the n x n CSC matrix (data, indices, indptr), as
    ``splu`` computes it; an exactly singular matrix raises SingularSystem."""
    try:
        return _superlu.gstrf(n, data.size, data, indices, indptr,
                              csc_construct_func=CscMatrix, ilu=False,
                              options=_SPLU_OPTIONS)
    except RuntimeError as exc:
        raise SingularSystem(str(exc)) from exc


def _schur_solve(net: NetworkModel, w: np.ndarray, rhs: np.ndarray, dense: bool) -> np.ndarray:
    """Solve S x = rhs for the Schur matrix S = A12^T diag(w) A12, by dense
    Cholesky or by SuperLU.  A non-positive pivot or an exactly singular LU
    raises SingularSystem."""
    if not dense:
        return _factor(net.n_n, net.schur(w), net.schur_indices, net.schur_indptr).solve(rhs)
    S = np.zeros((net.n_n, net.n_n))
    S.ravel()[net.schur_dense_pos] = net.schur(w)
    # S is symmetric, so its transpose is the Fortran-ordered array LAPACK
    # factors in place; only the upper triangle is read
    c, info = _flapack.dpotrf(S.T, lower=0, clean=0, overwrite_a=1)
    if info > 0:
        raise SingularSystem(f"{info}-th leading minor of the Schur matrix "
                             "is not positive definite")
    return _flapack.dpotrs(c, rhs, lower=0, overwrite_b=1)[0]


def kkt_solve(net: NetworkModel, slope: np.ndarray, r_q: np.ndarray, r_h: np.ndarray):
    """Solve K(g) (x_q, x_h) = (r_q, r_h) for the hydraulic Jacobian
    K(g) = [[diag g, A12], [A12^T, 0]], g = max(slope, 1e-8): the Schur
    matrix A12^T diag(w) A12 (``net.schur``), w = 1/g, is factored for x_h,
    by dense Cholesky on a network of at most DENSE_SCHUR_MAX_NODES demand
    nodes and by SuperLU on a larger one, then x_q = w (r_q - A12 x_h).  A
    singular, indefinite or non-finite solve raises SingularSystem.
    """
    w = 1.0 / np.maximum(slope, 1e-8)
    x_h = _schur_solve(net, w, net.A12T @ (w * r_q) - r_h,
                       dense=net.n_n <= DENSE_SCHUR_MAX_NODES)
    if not np.isfinite(x_h).all():
        raise SingularSystem("reduced system produced non-finite step")
    return w * (r_q - net.A12 @ x_h), x_h


def jacobian_solve(net: NetworkModel, g: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve K(g) X = rhs, rhs of shape (n_p + n_n, k), by one LU of K(g)
    itself (``net.kkt``): unlike the Schur form it stays exact when some g
    is far below the others, as a zero-loss valve's floored slope is.  A
    singular or non-finite solve raises SingularSystem.
    """
    lu = _factor(net.n_p + net.n_n, net.kkt(g), net.kkt_indices, net.kkt_indptr)
    x = lu.solve(rhs)
    if not np.isfinite(x).all():
        raise SingularSystem("Jacobian system produced a non-finite solution")
    return x


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
    0.03 m/s flow and flat heads are used.  Each iteration takes its step
    from ``kkt_solve`` (dense Cholesky of the Schur matrix up to
    DENSE_SCHUR_MAX_NODES demand nodes, SuperLU above); a singular or
    indefinite Schur matrix raises SingularSystem.
    """
    eta = np.zeros(net.n_p) if eta is None else np.asarray(eta, dtype=float)
    alpha = np.zeros(net.n_n) if alpha is None else np.asarray(alpha, dtype=float)
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
        """Energy and mass residuals at (q, h), phi'(q), and the residual
        score: at most 1 once both are within tolerance."""
        loss, slope = head_loss(q, params)
        fe = net.A12 @ h + rhs_fixed + loss
        fm = net.A12T @ q - d - alpha
        return fe, fm, slope, max(np.abs(fm).max() / TOL_MASS, np.abs(fe).max() / TOL_ENERGY)

    fe, fm, slope, s = residuals(q, h)
    for it in range(_MAX_NEWTON):
        if residual_log is not None:
            residual_log.append((it, float(np.abs(fm).max()), float(np.abs(fe).max())))
        if s <= 1.0:
            return q, h
        # -fe and -fm are exact, so the step keeps the bits of (fe, fm)
        dq, dh = kkt_solve(net, slope, -fe, -fm)
        # the full step (1.0 * dq has the bits of dq) zeroes the (linear)
        # mass residual exactly and the iteration recovers from transient
        # energy-residual spikes, whereas monotone backtracking can stall on
        # vanishing steps; halve the step only while it overflows into
        # non-finite values, at most 30 times
        step = 1.0
        for _ in range(31):
            q_new, h_new = q + step * dq, h + step * dh
            fe, fm, slope, s = residuals(q_new, h_new)
            if np.isfinite(s):
                break
            step *= 0.5
        q, h = q_new, h_new
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
