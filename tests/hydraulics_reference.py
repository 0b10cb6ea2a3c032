"""The Newton solve of ``sccopt.hydraulics`` through SciPy's public API.

A test-only oracle: ``solve_steady`` runs each iteration on the network's
compiled arrays (the Schur matrix scattered into a dense array and factored
by LAPACK's ``dpotrf``/``dpotrs`` up to ``DENSE_SCHUR_MAX_NODES`` demand
nodes, SuperLU's ``gstrf`` called directly above, the sparsetools products,
one power |q|^(n-1) for phi and phi' in ``head_loss``) and must return, and
log, exactly the bits this reference does.  Here every product is a sparse
``@``, phi and phi' are evaluated separately, each with its own power, and
the Schur matrix is a ``csc_matrix``, factored by ``cho_factor`` and
``cho_solve`` on its ``toarray()`` up to that size and by ``splu`` with its
default options above.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from sccopt.errors import NonConvergence, SingularSystem
from sccopt.hydraulics import DENSE_SCHUR_MAX_NODES, TOL_ENERGY, TOL_MASS

MAX_NEWTON = 200


def phi(q, params):
    q = np.asarray(q, dtype=float)
    out = params.r * np.abs(q) ** (params.n_exp - 1.0) * q
    band = np.abs(q) <= params.q_eps
    if np.any(band):
        a, b = params.smoothing_a, params.smoothing_b
        out = np.where(band, a * q + b * q**3, out)
    return out


def phi_prime(q, params):
    q = np.asarray(q, dtype=float)
    out = params.r * params.n_exp * np.abs(q) ** (params.n_exp - 1.0)
    band = np.abs(q) <= params.q_eps
    if np.any(band):
        a, b = params.smoothing_a, params.smoothing_b
        out = np.where(band, a + 3.0 * b * q**2, out)
    return out


def schur_solve(S, rhs):
    """S x = rhs, by Cholesky of the dense S on a small network and by
    ``splu`` on a large one, each failure raised as the kernel raises it."""
    if S.shape[0] <= DENSE_SCHUR_MAX_NODES:
        try:
            factor = la.cho_factor(S.toarray(), check_finite=False)
        except la.LinAlgError as exc:
            raise SingularSystem(str(exc).replace("the array", "the Schur matrix")) from exc
        return la.cho_solve(factor, rhs, check_finite=False)
    try:
        lu = spla.splu(S)
    except RuntimeError as exc:
        raise SingularSystem(str(exc)) from exc
    return lu.solve(rhs)


def solve_steady(net, params, d, h0, eta=None, alpha=None, residual_log=None,
                 q0=None, h0_guess=None):
    """``sccopt.hydraulics.solve_steady``'s contract, the same iterates."""
    eta = np.zeros(net.n_p) if eta is None else np.asarray(eta, dtype=float)
    alpha = np.zeros(net.n_n) if alpha is None else np.asarray(alpha, dtype=float)
    A12, A12T = net.A12, net.A12T

    if q0 is not None:
        q = np.array(q0, dtype=float)
    else:
        q = 0.03 * net.areas
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
    for it in range(MAX_NEWTON):
        if residual_log is not None:
            residual_log.append((it, float(np.max(np.abs(fm))), float(np.max(np.abs(fe)))))
        if s <= 1.0:
            return q, h
        g = np.maximum(phi_prime(q, params), 1e-8)
        w = 1.0 / g
        S = sp.csc_matrix((net.schur(w), net.schur_indices, net.schur_indptr),
                          shape=(net.n_n, net.n_n))
        dh = schur_solve(S, fm - A12T @ (w * fe))
        if not np.all(np.isfinite(dh)):
            raise SingularSystem("reduced system produced non-finite step")
        dq = -w * (fe + A12 @ dh)
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
    raise NonConvergence(f"residual score {s:.3g} after {MAX_NEWTON} iterations")
