"""Randomized rounding of fractional valve placements.

Draws candidate designs by sampling (without replacement) valve locations
with probabilities proportional to the fractional relaxation values, then
de-duplicates until the requested number of distinct designs is reached.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ZeroSupport

# the weight of the uniform distribution in each placement's sampling
# distribution; the relaxation's fractional values get the rest
_EXPLORE = 0.5


def _support(frac: np.ndarray, count: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    frac = np.clip(np.asarray(frac, dtype=float), 0.0, None)
    idx = np.flatnonzero(frac > 0)
    if len(idx) < count:
        raise ZeroSupport(
            f"need {count} {what} locations but only {len(idx)} have positive "
            "fractional value")
    p = frac[idx]
    return idx, p / p.sum()


def blend_uniform(frac: np.ndarray, eligible) -> np.ndarray:
    """Mix fractional weights with a uniform distribution over eligible
    sites; the uniform part gets weight _EXPLORE.

    A loose relaxation can concentrate all fractional mass on a few sites;
    blending keeps every eligible site reachable by the sampler.
    """
    frac = np.clip(np.asarray(frac, dtype=float), 0.0, None)
    eligible = list(eligible)
    total = frac.sum()
    p = frac / total if total > 0 else np.zeros_like(frac)
    if eligible:
        u = np.zeros_like(p)
        u[eligible] = 1.0 / len(eligible)
        p = (1.0 - _EXPLORE) * p + _EXPLORE * u
    return p


def sample_designs(
    y: np.ndarray,
    z: np.ndarray,
    n_v: int,
    n_f: int,
    n_samples: int,
    seed=None,
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Draw up to n_samples distinct placements from fractional (y, z), each
    a pair (DBV link indices, AFV node indices) of sorted tuples.

    The draw budget is capped at 1000 * n_samples attempts; if the support
    admits fewer distinct designs than requested, all of them are returned
    once found.
    """
    rng = np.random.default_rng(seed)
    z_idx = p_z = y_idx = p_y = None
    if n_v > 0:
        z_idx, p_z = _support(z, n_v, "valve")
    if n_f > 0:
        y_idx, p_y = _support(y, n_f, "flushing")

    target = min(n_samples,
                 (math.comb(len(z_idx), n_v) if n_v > 0 else 1)
                 * (math.comb(len(y_idx), n_f) if n_f > 0 else 1))

    seen = set()
    out = []
    for _ in range(1000 * n_samples):
        if len(out) >= target:
            break
        dbv = (tuple(sorted(rng.choice(z_idx, size=n_v, replace=False, p=p_z).tolist()))
               if n_v > 0 else ())
        afv = (tuple(sorted(rng.choice(y_idx, size=n_f, replace=False, p=p_y).tolist()))
               if n_f > 0 else ())
        cand = (dbv, afv)
        if cand not in seen:
            seen.add(cand)
            out.append(cand)
    return out


def write_candidates_csv(candidates, fileobj, scores=None):
    """Dump (dbv_links, afv_nodes) placements (and optional scores) for
    inspection."""
    fileobj.write("index,dbv_links,afv_nodes,score\n")
    for k, (dbv, afv) in enumerate(candidates):
        score = "" if scores is None or scores[k] is None else f"{scores[k]:.10g}"
        fileobj.write(f"{k},{';'.join(map(str, dbv))},{';'.join(map(str, afv))},{score}\n")
