"""Network data model, EPANET-INP subset reader, and graph decomposition.

The network is a directed graph: links (pipes and valves) join demand nodes
and fixed-head source nodes. All quantities are stored in SI units
(m, m^3/s); the INP flow-unit header is converted at parse time.
"""
from __future__ import annotations

import io
import json
import math
import warnings
from dataclasses import dataclass, asdict

import numpy as np

from .csc import CscMatrix
from .errors import ParseError

PIPE = "pipe"
VALVE = "valve"

# m^3/s per INP flow unit; US customary units imply ft lengths / inch diameters
_FLOW_UNITS = {
    "CFS": (0.028316846592, True),
    "GPM": (6.30901964e-5, True),
    "MGD": (0.043812636574, True),
    "IMGD": (0.052616782407, True),
    "AFD": (0.014276410185, True),
    "LPS": (1e-3, False),
    "LPM": (1.0 / 60000.0, False),
    "MLD": (1000.0 / 86400.0, False),
    "CMH": (1.0 / 3600.0, False),
    "CMD": (1.0 / 86400.0, False),
}


class ParserWarning(UserWarning):
    pass


@dataclass(frozen=True)
class Link:
    """A pipe or valve joining two nodes; positive flow runs from_node -> to_node."""

    id: str
    from_node: str
    to_node: str
    kind: str = PIPE
    length: float = 0.0
    diameter: float = 0.1
    hw_coefficient: float = 100.0
    valve_loss: float = 0.0
    is_existing_prv: bool = False
    is_existing_dbv: bool = False

    @property
    def area(self) -> float:
        return math.pi * self.diameter**2 / 4.0

    def validate(self):
        if self.from_node == self.to_node:
            raise ValueError(f"link {self.id}: joins a node to itself")
        if self.is_existing_prv and self.is_existing_dbv:
            raise ValueError(f"link {self.id}: a link cannot be both PRV and DBV")
        if not all(map(math.isfinite, (self.length, self.diameter,
                                       self.hw_coefficient, self.valve_loss))):
            raise ValueError(f"link {self.id}: L, D, C and K must be finite")
        if self.kind == PIPE:
            if self.length <= 0 or self.diameter <= 0 or self.hw_coefficient <= 0:
                raise ValueError(f"pipe {self.id}: L, D and C must be positive")
        elif self.kind == VALVE:
            if self.diameter <= 0 or self.valve_loss < 0:
                raise ValueError(f"valve {self.id}: D must be positive and K >= 0")
        else:
            raise ValueError(f"link {self.id}: unknown kind {self.kind!r}")


@dataclass(frozen=True)
class DemandNode:
    id: str
    elevation: float


@dataclass(frozen=True)
class SourceNode:
    id: str


@dataclass(eq=False)
class NetworkModel:
    """Immutable directed-graph water network with per-timestep demands and heads.

    demands has shape (n_t, n_n) in m^3/s; source_heads has shape (n_t, n_0) in m.
    """

    links: list[Link]
    nodes: list[DemandNode]
    sources: list[SourceNode]
    demands: np.ndarray
    source_heads: np.ndarray

    def __post_init__(self):
        self.demands = np.atleast_2d(np.asarray(self.demands, dtype=float))
        self.source_heads = np.atleast_2d(np.asarray(self.source_heads, dtype=float))
        self.demands.setflags(write=False)
        self.source_heads.setflags(write=False)
        # network-only arrays, built once; read-only like demands
        self.areas = np.array([lk.area for lk in self.links])
        self.lengths = np.array([lk.length for lk in self.links])
        self.elevations = np.array([n.elevation for n in self.nodes])
        for a in (self.areas, self.lengths, self.elevations):
            a.setflags(write=False)
        # the existing valves, and the links that can take a new DBV
        self.prv_links = tuple(j for j, lk in enumerate(self.links) if lk.is_existing_prv)
        self.dbv_links = tuple(j for j, lk in enumerate(self.links) if lk.is_existing_dbv)
        self.free_links = tuple(j for j, lk in enumerate(self.links)
                                if not (lk.is_existing_prv or lk.is_existing_dbv))
        self._build_incidence()

    # -- sizes ---------------------------------------------------------------
    @property
    def n_p(self) -> int:
        return len(self.links)

    @property
    def n_n(self) -> int:
        return len(self.nodes)

    @property
    def n_0(self) -> int:
        return len(self.sources)

    @property
    def n_t(self) -> int:
        return self.demands.shape[0]

    def _build_incidence(self):
        # Each link's (to, from) ends as indices into the demand nodes followed
        # by the sources.  A12[j, i] = +1 if link j enters demand node i, -1 if
        # it leaves it; A10 likewise for source nodes.  Energy rows then read
        # h_to - h_from.
        index = {s.id: self.n_n + k for k, s in enumerate(self.sources)}
        index.update((n.id, i) for i, n in enumerate(self.nodes))
        ends = np.empty((self.n_p, 2), dtype=np.intp)
        for j, lk in enumerate(self.links):
            for k, node_id in enumerate((lk.to_node, lk.from_node)):
                if node_id not in index:
                    raise ValueError(f"link {lk.id}: unknown node {node_id!r}")
                ends[j, k] = index[node_id]
        ends.setflags(write=False)
        self.link_to, self.link_from = ends.T
        row, col = np.repeat(np.arange(self.n_p), 2), ends.ravel()
        sign = np.tile([1.0, -1.0], self.n_p)
        dem = col < self.n_n
        self.A12 = CscMatrix.from_triplets(row[dem], col[dem], sign[dem], (self.n_p, self.n_n))
        self.A10 = CscMatrix.from_triplets(row[~dem], col[~dem] - self.n_n, sign[~dem],
                                           (self.n_p, self.n_0))
        # kept so hot loops do not transpose again
        self.A12T = self.A12.T
        self._build_forest_core()
        self._build_schur_pattern()
        self._build_kkt_pattern()

    def _build_forest_core(self):
        # Split the links into the looped core and the forest, the tree
        # branches, by pruning demand nodes of degree 1 until none is left
        # (sources, indices >= n_n, are never pruned).  A pruned node's last
        # link is a forest link and carries exactly the demand of the nodes
        # pruned through it.  Leaf pruning removes the same links and nodes
        # in any order.  forest_sign[j] is +1 when positive flow on forest
        # link j runs toward its pruned side, -1 when away from it, and 0 on
        # a core link; forest_downstream[j] lists, sorted, the demand nodes
        # fed through forest link j, and is empty for a core link.
        ends = list(zip(self.link_to.tolist(), self.link_from.tolist()))
        incident = [set() for _ in range(self.n_n + self.n_0)]
        for j, (to, frm) in enumerate(ends):
            incident[to].add(j)
            incident[frm].add(j)
        fed = [[i] for i in range(self.n_n)]
        sign = np.zeros(self.n_p, dtype=np.int8)
        downstream = [()] * self.n_p
        queue = [i for i in range(self.n_n) if len(incident[i]) == 1]
        while queue:
            i = queue.pop()
            if len(incident[i]) != 1:
                continue
            j = incident[i].pop()
            to, frm = ends[j]
            sign[j] = 1 if to == i else -1
            downstream[j] = tuple(sorted(fed[i]))
            other = frm if to == i else to
            incident[other].discard(j)
            if other < self.n_n:
                fed[other] += fed[i]
                if len(incident[other]) == 1:
                    queue.append(other)
        sign.setflags(write=False)
        self.forest_sign, self.forest_downstream = sign, tuple(downstream)
        self.forest_links = tuple(np.flatnonzero(sign).tolist())
        self.core_links = tuple(np.flatnonzero(sign == 0).tolist())

    def _build_schur_pattern(self):
        # S = A12^T diag(w) A12, the Newton step's reduced matrix, has a
        # pattern that depends only on the network.  Each pair (a, b) of a
        # link's ends that are both demand nodes adds w[link] to S[a, b] on
        # the diagonal and -w[link] off it.  The pairs are listed in
        # ascending link order, the order in which SciPy's sparse product
        # sums them, so the sums round the same way.
        ends = np.column_stack([self.link_to, self.link_from])
        rows, cols = np.repeat(ends, 2, axis=1), np.tile(ends, 2)
        pair = (rows < self.n_n) & (cols < self.n_n)
        # CSC order: by column, then row
        keys, pos = np.unique(cols[pair] * self.n_n + rows[pair], return_inverse=True)
        self.schur_indices = (keys % self.n_n).astype(np.int32)
        self.schur_indptr = np.searchsorted(
            keys, np.arange(self.n_n + 1) * self.n_n).astype(np.int32)
        self.schur_pos = pos
        self.schur_link = np.nonzero(pair)[0]
        self.schur_sign = np.where(rows == cols, 1.0, -1.0)[pair]
        # each entry's index in the row-major n_n x n_n array, where small
        # networks factor S densely
        self.schur_dense_pos = keys % self.n_n * self.n_n + keys // self.n_n
        for arr in (self.schur_indices, self.schur_indptr, self.schur_pos,
                    self.schur_link, self.schur_sign, self.schur_dense_pos):
            arr.setflags(write=False)

    def schur(self, w: np.ndarray) -> np.ndarray:
        """The values of A12^T diag(w) A12 on the compiled CSC pattern
        (``schur_indices``, ``schur_indptr``), one bincount.  For positive w
        they are bit-identical to the SciPy sparse product's; that product
        drops entries that sum to 0, this keeps them."""
        return np.bincount(self.schur_pos, weights=self.schur_sign * w[self.schur_link])

    def _build_kkt_pattern(self):
        # K(g) = [[diag g, A12], [A12^T, 0]], the Jacobian of the hydraulic
        # equations (Todini and Pilati, 1988), has a pattern and off-diagonal
        # values that depend only on the network.  Rows are sorted and row
        # j < n_p, so g[j] is the first entry of q column j.
        link, node, sign = self.A12.triplets()
        links = np.arange(self.n_p)
        K = CscMatrix.from_triplets(np.r_[links, link, self.n_p + node],
                                    np.r_[links, self.n_p + node, link],
                                    np.r_[np.ones(self.n_p), sign, sign],
                                    (self.n_p + self.n_n, self.n_p + self.n_n))
        self.kkt_indptr, self.kkt_indices, self.kkt_template = K.indptr, K.indices, K.data

    def kkt(self, g: np.ndarray) -> np.ndarray:
        """The values of K(g) on the compiled CSC pattern (``kkt_indices``,
        ``kkt_indptr``), g in the leading entry of each flow column."""
        data = self.kkt_template.copy()
        data[self.kkt_indptr[:self.n_p]] = g
        return data

    def validate(self):
        if self.n_t < 1:
            raise ValueError("need at least one timestep")
        if self.demands.shape != (self.n_t, self.n_n):
            raise ValueError("demands shape mismatch")
        if self.source_heads.shape != (self.n_t, self.n_0):
            raise ValueError("source_heads shape mismatch")
        for kind, items in (("node", [*self.nodes, *self.sources]), ("link", self.links)):
            seen = set()
            for item in items:
                if item.id in seen:
                    raise ValueError(f"repeated {kind} ID {item.id!r}")
                seen.add(item.id)
        if not np.all(np.isfinite(self.demands)) or np.any(self.demands < 0):
            raise ValueError("demands must be finite and non-negative")
        if not (np.all(np.isfinite(self.elevations)) and np.all(np.isfinite(self.source_heads))):
            raise ValueError("elevations and source heads must be finite")
        for lk in self.links:
            lk.validate()
        if not self.is_connected():
            raise ValueError("network graph is disconnected")

    def is_connected(self) -> bool:
        """True when every demand node is reachable from some source."""
        if self.n_0 == 0:
            return False
        # a depth-first search from all the sources at once, over links in
        # either direction
        n = self.n_n + self.n_0
        neighbours = [[] for _ in range(n)]
        for a, b in zip(self.link_to.tolist(), self.link_from.tolist()):
            neighbours[a].append(b)
            neighbours[b].append(a)
        reached = set(range(self.n_n, n))
        stack = list(reached)
        while stack:
            for b in neighbours[stack.pop()]:
                if b not in reached:
                    reached.add(b)
                    stack.append(b)
        return len(reached) == n

    # -- serialization -------------------------------------------------------
    def to_json(self) -> str:
        payload = {
            "links": [asdict(lk) for lk in self.links],
            "nodes": [asdict(n) for n in self.nodes],
            "sources": [asdict(s) for s in self.sources],
            "demands": self.demands.tolist(),
            "source_heads": self.source_heads.tolist(),
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "NetworkModel":
        payload = json.loads(text)
        try:
            return cls(
                links=[Link(**d) for d in payload["links"]],
                nodes=[DemandNode(**d) for d in payload["nodes"]],
                sources=[SourceNode(**d) for d in payload["sources"]],
                demands=np.array(payload["demands"]),
                source_heads=np.array(payload["source_heads"]),
            )
        except KeyError as exc:
            raise ParseError(f"network JSON lacks the key {exc}") from exc
        except TypeError as exc:
            raise ParseError(f"malformed network JSON: {exc}") from exc

    def __eq__(self, other):
        if not isinstance(other, NetworkModel):
            return NotImplemented
        return (
            self.links == other.links
            and self.nodes == other.nodes
            and self.sources == other.sources
            and np.array_equal(self.demands, other.demands)
            and np.array_equal(self.source_heads, other.source_heads)
        )


# ---------------------------------------------------------------------------
# EPANET-INP subset parser
# ---------------------------------------------------------------------------

_SUPPORTED_SECTIONS = {
    "JUNCTIONS", "RESERVOIRS", "PIPES", "VALVES", "DEMANDS", "PUMPS",
    "PATTERNS", "COORDINATES", "TIMES", "OPTIONS", "TITLE", "END",
}


def _tokenize(stream):
    """Yield (lineno, tokens) for non-empty, non-comment lines."""
    for lineno, raw in enumerate(stream, start=1):
        line = raw.split(";", 1)[0].strip()
        if line:
            yield lineno, line.split()


def parse_inp(text, timestep_indices=None) -> NetworkModel:
    """Read the supported EPANET-INP subset into a validated NetworkModel.

    ``timestep_indices`` selects demand-pattern snapshots; by default the
    four pattern steps with the highest total network demand are used (or a
    single snapshot when no patterns are present).
    """
    stream = io.StringIO(text) if isinstance(text, str) else text

    junctions: dict[str, tuple[float, float, str | None, int]] = {}
    reservoirs: dict[str, tuple[float, str | None, int]] = {}
    pipes = []
    valves = []
    extra_demands: list[tuple[str, float, str | None, int]] = []
    patterns: dict[str, list[float]] = {}
    options: dict[str, str] = {}
    warned_sections = set()
    node_ids: set[str] = set()
    link_ids: set[str] = set()
    pump_entries = closed_pipes = 0

    section = None
    for lineno, tok in _tokenize(stream):
        if tok[0].startswith("["):
            name = " ".join(tok).strip("[]").upper()
            section = name
            if name not in _SUPPORTED_SECTIONS and name not in warned_sections:
                warnings.warn(f"unsupported section [{name}] ignored", ParserWarning)
                warned_sections.add(name)
            continue
        if section is None:
            raise ParseError("content before first section header", lineno)
        try:
            if section in ("JUNCTIONS", "RESERVOIRS", "PIPES", "VALVES"):
                kind, ids = (("link", link_ids) if section in ("PIPES", "VALVES")
                             else ("junction or reservoir", node_ids))
                if tok[0] in ids:
                    raise ParseError(f"repeated {kind} ID {tok[0]!r}", lineno)
                ids.add(tok[0])
            if section == "JUNCTIONS":
                elev = float(tok[1])
                demand = float(tok[2]) if len(tok) > 2 else 0.0
                pat = tok[3] if len(tok) > 3 else None
                junctions[tok[0]] = (elev, demand, pat, lineno)
            elif section == "RESERVOIRS":
                head = float(tok[1])
                pat = tok[2] if len(tok) > 2 else None
                reservoirs[tok[0]] = (head, pat, lineno)
            elif section == "PIPES":
                if len(tok) < 6:
                    raise ParseError("pipe needs id, nodes, length, diameter, roughness", lineno)
                pipe = (*tok[:3], *map(float, tok[3:6]), lineno)
                # EPANET's 8th field; a check valve (CV) is not modelled
                status = tok[7].upper() if len(tok) > 7 else "OPEN"
                if status not in ("OPEN", "CLOSED"):
                    raise ParseError(f"unsupported pipe status {status}", lineno)
                if status == "OPEN":
                    pipes.append(pipe)
                else:
                    closed_pipes += 1
            elif section == "VALVES":
                if len(tok) < 6:
                    raise ParseError("valve needs id, nodes, diameter, type, setting", lineno)
                valves.append((tok[0], tok[1], tok[2], float(tok[3]), tok[4].upper(), float(tok[5]), lineno))
            elif section == "DEMANDS":
                pat = tok[2] if len(tok) > 2 else None
                extra_demands.append((tok[0], float(tok[1]), pat, lineno))
            elif section == "PATTERNS":
                patterns.setdefault(tok[0], []).extend(float(v) for v in tok[1:])
            elif section == "OPTIONS":
                if len(tok) >= 2:
                    options[tok[0].upper()] = tok[1].upper()
            elif section == "PUMPS":
                pump_entries += 1
        except ParseError:
            raise
        except (ValueError, IndexError) as exc:
            raise ParseError(str(exc), lineno) from exc

    headloss = options.get("HEADLOSS", "H-W")
    if headloss not in ("H-W", "HW"):
        raise ParseError(f"only Hazen-Williams head loss is supported, got {headloss}")
    flow_unit = options.get("UNITS", "LPS")
    if flow_unit not in _FLOW_UNITS:
        raise ParseError(f"unknown flow unit {flow_unit}")
    q_scale, us_units = _FLOW_UNITS[flow_unit]
    len_scale = 0.3048 if us_units else 1.0
    dia_scale = 0.0254 if us_units else 1e-3

    if not junctions or not reservoirs or not (pipes or valves):
        raise ParseError("file must define junctions, reservoirs and links")
    # Pumps and closed pipes are dropped from the model; a graph left
    # disconnected without them is rejected by validate() below.
    if pump_entries:
        warnings.warn(f"{pump_entries} pump link(s) ignored", ParserWarning)
    if closed_pipes:
        warnings.warn(f"{closed_pipes} closed pipe(s) ignored", ParserWarning)

    def pattern_of(name, lineno):
        if name is None:
            return None
        if name not in patterns:
            raise ParseError(f"unknown pattern {name!r}", lineno)
        return patterns[name]

    def multiplier(pat, k):
        # pattern step k's multiplier; patterns repeat, and no pattern means 1
        return pat[k % len(pat)] if pat else 1.0

    # Base demands per node (m^3/s) and optional pattern multipliers.
    demand_patterns: dict[str, list[tuple[float, list[float] | None]]] = {nid: [] for nid in junctions}
    for nid, (elev, demand, pat, lineno) in junctions.items():
        if demand:
            demand_patterns[nid].append((demand * q_scale, pattern_of(pat, lineno)))
    for nid, demand, pat, lineno in extra_demands:
        if nid not in junctions:
            raise ParseError(f"demand for unknown junction {nid!r}", lineno)
        demand_patterns[nid].append((demand * q_scale, pattern_of(pat, lineno)))

    n_steps = max((len(p) for p in patterns.values()), default=1)
    if timestep_indices is None:
        if n_steps == 1:
            timestep_indices = [0]
        else:
            totals = np.zeros(n_steps)
            for entries in demand_patterns.values():
                for base, pat in entries:
                    totals += base * np.array([multiplier(pat, k) for k in range(n_steps)])
            timestep_indices = sorted(np.argsort(totals)[-4:].tolist())
    for k in timestep_indices:
        if not 0 <= k < n_steps:
            raise ParseError(f"timestep index {k} outside pattern length {n_steps}")

    nodes = [DemandNode(nid, elev * len_scale) for nid, (elev, _, _, _) in junctions.items()]
    source_list = [SourceNode(rid) for rid in reservoirs]

    n_t = len(timestep_indices)
    demands = np.zeros((n_t, len(nodes)))
    for i, nid in enumerate(junctions):
        for base, pat in demand_patterns[nid]:
            for ti, k in enumerate(timestep_indices):
                demands[ti, i] += base * multiplier(pat, k)
    heads = np.zeros((n_t, len(source_list)))
    for s, (rid, (head, pat, lineno)) in enumerate(reservoirs.items()):
        p = pattern_of(pat, lineno)
        for ti, k in enumerate(timestep_indices):
            heads[ti, s] = head * len_scale * multiplier(p, k)

    links = []
    for pid, n1, n2, length, diam, rough, lineno in pipes:
        links.append(Link(pid, n1, n2, PIPE, length * len_scale, diam * dia_scale, rough))
    for vid, n1, n2, diam, vtype, setting, lineno in valves:
        if vtype not in ("TCV", "PRV", "DBV"):
            raise ParseError(f"unsupported valve type {vtype}", lineno)
        # TCV setting is a loss coefficient; PRV/DBV settings are operational
        # and modelled through the control variable instead.
        k_loss = setting if vtype == "TCV" else 0.0
        links.append(Link(vid, n1, n2, VALVE, 0.0, diam * dia_scale, 0.0, k_loss,
                          is_existing_prv=(vtype == "PRV"),
                          is_existing_dbv=(vtype == "DBV")))

    try:
        net = NetworkModel(links, nodes, source_list, demands, heads)
        net.validate()
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return net


def forest_core(net: NetworkModel) -> NetworkModel:
    """``net``, whose ``core_links``, ``forest_links``, ``forest_sign`` and
    ``forest_downstream`` hold its forest/core split, compiled when it was
    built.  Kept only for the benchmark harness's self-test, which reads
    ``forest_core(net).core_links``; the package reads the attributes."""
    return net


# ---------------------------------------------------------------------------
# Problem-size statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProblemStats:
    continuous: int
    binary: int
    nonconvex: int


def count_variables(n_p: int, n_n: int, n_t: int) -> ProblemStats:
    return ProblemStats(
        continuous=n_t * (3 * n_p + 2 * n_n),
        binary=2 * n_t * n_p + n_p + n_n,
        nonconvex=2 * n_t * n_p,
    )


def problem_stats(net: NetworkModel) -> ProblemStats:
    return count_variables(net.n_p, net.n_n, net.n_t)
