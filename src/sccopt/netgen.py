"""Synthetic benchmark networks for experiments and tests."""
from __future__ import annotations

import numpy as np

from .netmodel import DemandNode, Link, NetworkModel, PIPE, SourceNode


def _fed_from_one_source(links, nodes, demands, source_head) -> NetworkModel:
    """The validated network of ``links`` and ``nodes`` fed by one source,
    "src", held at ``source_head`` in each timestep (row) of ``demands``."""
    net = NetworkModel(links, nodes, [SourceNode("src")], demands,
                       np.full((len(demands), 1), source_head))
    net.validate()
    return net


def random_network(
    n_nodes: int = 20,
    extra_edges: int = 5,
    seed=None,
    demand_scale: float = 0.005,
    source_head: float = 80.0,
    n_t: int = 1,
) -> NetworkModel:
    """Random connected network: a random spanning tree from the source plus
    extra_edges chords, with uniform random demands, lengths and diameters."""
    rng = np.random.default_rng(seed)
    nodes = [DemandNode(f"n{i+1}", 0.0) for i in range(n_nodes)]
    ids = ["src"] + [n.id for n in nodes]

    def make_link(k, a, b):
        return Link(f"p{k}", a, b,
                    PIPE,
                    length=float(rng.uniform(200.0, 1500.0)),
                    diameter=float(rng.uniform(0.1, 0.4)),
                    hw_coefficient=float(rng.uniform(90.0, 150.0)))

    links = []
    edges = set()
    for i in range(1, len(ids)):
        j = int(rng.integers(0, i))
        links.append(make_link(len(links), ids[j], ids[i]))
        edges.add((j, i))
    for _ in range(extra_edges):
        a, b = sorted(rng.choice(len(ids), size=2, replace=False).tolist())
        if (a, b) in edges:
            continue
        edges.add((a, b))
        links.append(make_link(len(links), ids[a], ids[b]))

    demands = demand_scale * rng.uniform(0.2, 1.5, size=(n_t, n_nodes))
    return _fed_from_one_source(links, nodes, demands, source_head)


def line_network(
    n_nodes: int = 3,
    demand: float = 0.01,
    length: float = 1000.0,
    diameter: float = 0.3,
    hw: float = 130.0,
    source_head: float = 80.0,
    elevation: float = 0.0,
    n_t: int = 1,
    demand_factors=None,
) -> NetworkModel:
    """Source -> n1 -> ... -> nK chain (a pure tree)."""
    nodes = [DemandNode(f"n{i+1}", elevation) for i in range(n_nodes)]
    links = [Link("p1", "src", "n1", PIPE, length, diameter, hw)]
    for i in range(1, n_nodes):
        links.append(Link(f"p{i+1}", f"n{i}", f"n{i+1}", PIPE, length, diameter, hw))
    factors = np.ones(n_t) if demand_factors is None else np.asarray(demand_factors, dtype=float)
    return _fed_from_one_source(links, nodes, np.outer(factors, np.full(n_nodes, demand)),
                                source_head)


def loop_network(
    n_nodes: int = 4,
    demand: float = 0.01,
    length: float = 1000.0,
    diameter: float = 0.3,
    hw: float = 130.0,
    source_head: float = 80.0,
    n_t: int = 1,
) -> NetworkModel:
    """Source feeding a single ring of n_nodes demand nodes."""
    nodes = [DemandNode(f"n{i+1}", 0.0) for i in range(n_nodes)]
    links = [Link("p0", "src", "n1", PIPE, length, diameter, hw)]
    for i in range(n_nodes):
        a, b = f"n{i+1}", f"n{(i + 1) % n_nodes + 1}"
        links.append(Link(f"p{i+1}", a, b, PIPE, length, diameter, hw))
    return _fed_from_one_source(links, nodes, np.full((n_t, n_nodes), demand), source_head)


def grid_network(
    rows: int = 5,
    cols: int = 5,
    demand: float = 0.005,
    length: float = 500.0,
    diameter: float = 0.25,
    hw: float = 130.0,
    source_head: float = 70.0,
    n_t: int = 1,
    demand_factors=None,
    seed=None,
) -> NetworkModel:
    """rows x cols grid of demand nodes with the source at the top-left corner.

    With a seed, per-node demands are drawn uniformly in [0.5, 1.5] x demand
    to break symmetry; otherwise all nodes share the same demand.
    """

    def nid(r, c):
        return f"n{r}_{c}"

    nodes = [DemandNode(nid(r, c), 0.0) for r in range(rows) for c in range(cols)]
    links = [Link("psrc", "src", nid(0, 0), PIPE, length, diameter, hw)]
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                links.append(Link(f"h{r}_{c}", nid(r, c), nid(r, c + 1),
                                  PIPE, length, diameter, hw))
            if r + 1 < rows:
                links.append(Link(f"v{r}_{c}", nid(r, c), nid(r + 1, c),
                                  PIPE, length, diameter, hw))
    n_n = rows * cols
    if seed is None:
        base = np.full(n_n, demand)
    else:
        base = demand * np.random.default_rng(seed).uniform(0.5, 1.5, size=n_n)
    factors = np.ones(n_t) if demand_factors is None else np.asarray(demand_factors, dtype=float)
    return _fed_from_one_source(links, nodes, np.outer(factors, base), source_head)
