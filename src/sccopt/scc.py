"""Self-cleaning capacity objective, its sigmoid smoothing, and the AZP metric."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .netmodel import NetworkModel


@dataclass(frozen=True)
class SccParams:
    """Threshold velocities, sigmoid curvature and length weights.

    Weights are each link's fraction of the network's total length and sum
    to 1; zero-length links (valves) carry zero weight and do not contribute
    to the objective.
    """

    u_min: np.ndarray
    rho: float
    weights: np.ndarray

    @classmethod
    def from_network(cls, net: NetworkModel, u_min=0.2, rho: float = 50.0) -> "SccParams":
        u = np.broadcast_to(np.asarray(u_min, dtype=float), (net.n_p,)).copy()
        if not (np.all(u > 0) and rho > 0):
            raise ValueError("u_min and rho must be positive")
        total = net.lengths.sum()
        if total <= 0:
            raise ValueError("network has zero total link length")
        return cls(u, rho, net.lengths / total)


def sigmoid(u, rho, u_min):
    """psi+(u) = 1 / (1 + exp(-rho (u - u_min))), evaluated overflow-safely;
    the objective and the relaxation's envelopes both use this one."""
    return expit(rho * (np.asarray(u, dtype=float) - u_min))


def sigmoid_prime(u, rho, u_min):
    s = sigmoid(u, rho, u_min)
    return rho * s * (1.0 - s)


def sigmoid_pair(u, params: SccParams):
    """(psi_plus, psi_minus), where psi_minus(u) = psi_plus(-u)."""
    u = np.asarray(u, dtype=float)
    return sigmoid(u, params.rho, params.u_min), sigmoid(-u, params.rho, params.u_min)


def sigmoid_pair_prime(u, params: SccParams):
    u = np.asarray(u, dtype=float)
    return (sigmoid_prime(u, params.rho, params.u_min),
            -sigmoid_prime(-u, params.rho, params.u_min))


def scc_indicator(state, net: NetworkModel, params: SccParams) -> float:
    """Exact SCC: length-weighted fraction of links with |u| > u_min, averaged over t."""
    u = state.velocities(net)
    hits = (np.abs(u) > params.u_min).astype(float)
    # the dot product can round an all-fast state one ulp above 1
    return float(np.clip(np.mean(hits @ params.weights), 0.0, 1.0))


def scc_smooth_flows(q: np.ndarray, net: NetworkModel, params: SccParams) -> float:
    """Sigmoid-smoothed SCC for a (n_t, n_p) flow array."""
    u = np.atleast_2d(q) / net.areas
    p, m = sigmoid_pair(u, params)
    return float(np.mean((p + m) @ params.weights))


def scc_smooth(state, net: NetworkModel, params: SccParams) -> float:
    return scc_smooth_flows(state.q, net, params)


def scc_smooth_grad_flows(q: np.ndarray, net: NetworkModel, params: SccParams) -> np.ndarray:
    """Gradient of the smoothed SCC w.r.t. flows; shape (n_t, n_p)."""
    q = np.atleast_2d(q)
    u = q / net.areas
    dp, dm = sigmoid_pair_prime(u, params)
    n_t = q.shape[0]
    return params.weights * (dp + dm) / (net.areas * n_t)


def azp_weights(net: NetworkModel) -> np.ndarray:
    """Node weights: half the incident link length per node, normalized to sum 1."""
    # half of each link's length at its from end, then at its to end, in link
    # order: the order a per-link loop adds them, so the sums round the same
    ends = np.column_stack([net.link_from, net.link_to]).ravel()
    w = np.bincount(ends, weights=np.repeat(0.5 * net.lengths, 2),
                    minlength=net.n_n + net.n_0)[:net.n_n]
    total = w.sum()
    if total <= 0:
        return np.full(net.n_n, 1.0 / net.n_n)
    return w / total


def azp(state, net: NetworkModel) -> float:
    """Average zone pressure in m, averaged over timesteps."""
    pressures = state.h - net.elevations
    return float(np.mean(pressures @ azp_weights(net)))


def velocity_cdf(state, net: NetworkModel):
    """Per-link max-over-t |velocity| with cumulative length fractions.

    Returns rows (link_id, max_velocity_mps, cum_length_fraction) sorted by
    velocity; zero-weight links are skipped.
    """
    vmax = np.max(np.abs(state.velocities(net)), axis=0)
    w = net.lengths / net.lengths.sum()
    order = np.argsort(vmax, kind="stable")
    rows = []
    cum = 0.0
    for j in order:
        if w[j] == 0.0:
            continue
        cum += w[j]
        rows.append((net.links[j].id, float(vmax[j]), float(cum)))
    return rows


def write_velocity_cdf_csv(rows, fileobj):
    fileobj.write("link_id,max_velocity_mps,cum_length_fraction\n")
    for link_id, v, c in rows:
        fileobj.write(f"{link_id},{v:.10g},{c:.10g}\n")
