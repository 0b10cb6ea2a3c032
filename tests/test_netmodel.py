import dataclasses
import json
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from sccopt.errors import ParseError
from sccopt.hydraulics import headloss_params
from sccopt.netmodel import (Link, DemandNode, SourceNode, NetworkModel,
                             ParserWarning, count_variables, parse_inp, PIPE,
                             VALVE)
from sccopt.netgen import random_network
from sccopt.relax import default_bounds
from sccopt.scc import azp_weights


@st.composite
def networks(draw, min_sources=0):
    """Small networks, possibly disconnected, with any number of sources
    and links between any two distinct nodes, sources included."""
    n_n = draw(st.integers(0, 6))
    n_0 = draw(st.integers(min_sources, 3))
    n_t = draw(st.integers(1, 3))
    ids = [f"n{i}" for i in range(n_n)] + [f"s{k}" for k in range(n_0)]
    links = []
    if len(ids) >= 2:
        for j in range(draw(st.integers(0, 10))):
            a, b = draw(st.lists(st.sampled_from(ids), min_size=2, max_size=2,
                                 unique=True))
            length = draw(st.floats(1.0, 2000.0))
            if draw(st.booleans()):
                links.append(Link(f"p{j}", a, b, PIPE, length, 0.2, 120.0))
            else:
                links.append(Link(f"v{j}", a, b, VALVE, 0.0, 0.2, 0.0, 0.5))
    nodes = [DemandNode(i, draw(st.floats(0.0, 20.0))) for i in ids[:n_n]]
    demands = np.array(draw(st.lists(st.sampled_from([0.0, 0.002, 0.013]),
                                     min_size=n_t * n_n, max_size=n_t * n_n)))
    heads = np.array(draw(st.lists(st.floats(40.0, 80.0),
                                   min_size=n_t * n_0, max_size=n_t * n_0)))
    return NetworkModel(links, nodes, [SourceNode(i) for i in ids[n_n:]],
                        demands.reshape(n_t, n_n), heads.reshape(n_t, n_0))


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


# Per-link oracles: the loops over net.links that the compiled ends replaced.

def incidence_oracle(net):
    node = {n.id: i for i, n in enumerate(net.nodes)}
    source = {s.id: i for i, s in enumerate(net.sources)}
    r12, c12, v12, r10, c10, v10 = [], [], [], [], [], []
    for j, lk in enumerate(net.links):
        for node_id, sign in ((lk.to_node, 1.0), (lk.from_node, -1.0)):
            if node_id in node:
                r12.append(j)
                c12.append(node[node_id])
                v12.append(sign)
            else:
                r10.append(j)
                c10.append(source[node_id])
                v10.append(sign)
    return (sp.csr_matrix((v12, (r12, c12)), shape=(net.n_p, net.n_n)),
            sp.csr_matrix((v10, (r10, c10)), shape=(net.n_p, net.n_0)))


def eta_box_oracle(net, p_min):
    h_cap = float(np.max(net.source_heads))
    h_lo1 = net.elevations + np.where(np.any(net.demands > 0, axis=0), p_min, 0.0)
    node = {n.id: i for i, n in enumerate(net.nodes)}
    source = {s.id: i for i, s in enumerate(net.sources)}

    def head_range(node_id, t):
        if node_id in node:
            return h_lo1[node[node_id]], h_cap
        h0 = net.source_heads[t, source[node_id]]
        return h0, h0

    eta_lo = np.zeros((net.n_t, net.n_p))
    eta_hi = np.zeros((net.n_t, net.n_p))
    for t in range(net.n_t):
        for j, lk in enumerate(net.links):
            lo_f, hi_f = head_range(lk.from_node, t)
            lo_t, hi_t = head_range(lk.to_node, t)
            eta_lo[t, j] = lo_f - hi_t
            eta_hi[t, j] = hi_f - lo_t
    return eta_lo, eta_hi


def azp_weights_oracle(net):
    node = {n.id: i for i, n in enumerate(net.nodes)}
    w = np.zeros(net.n_n)
    for lk in net.links:
        for nid in (lk.from_node, lk.to_node):
            if nid in node:
                w[node[nid]] += 0.5 * lk.length
    total = w.sum()
    if total <= 0:
        return np.full(net.n_n, 1.0 / net.n_n)
    return w / total


def connected_oracle(net):
    if net.n_0 == 0:
        return False
    adj = {}
    for lk in net.links:
        adj.setdefault(lk.from_node, []).append(lk.to_node)
        adj.setdefault(lk.to_node, []).append(lk.from_node)
    seen = set()
    stack = [s.id for s in net.sources]
    while stack:
        u = stack.pop()
        if u not in seen:
            seen.add(u)
            stack.extend(adj.get(u, ()))
    return all(n.id in seen for n in net.nodes)


def two_source_net(valve_between_sources=True, cut=False):
    """s0 feeds a-b and s1 feeds c-d; a valve runs from s1 to s0.  With cut,
    c-d is an island that no source reaches."""
    nodes = [DemandNode(i, 5.0) for i in "abcd"]
    links = [Link("p1", "s0", "a", PIPE, 300, 0.2, 120),
             Link("p2", "a", "b", PIPE, 200, 0.2, 120),
             Link("p3", "d", "c", PIPE, 100, 0.2, 120)]
    if not cut:
        links.append(Link("p4", "c", "s1", PIPE, 400, 0.2, 120))
    if valve_between_sources:
        links.append(Link("v1", "s1", "s0", VALVE, 0.0, 0.2, 0.0, 0.5))
    return NetworkModel(links, nodes, [SourceNode("s0"), SourceNode("s1")],
                        np.full((2, 4), 0.003), np.array([[60.0, 55.0], [62.0, 50.0]]))


class TestParser:
    def test_basic_parse(self, sample_inp_text):
        net = parse_inp(sample_inp_text, timestep_indices=[0, 1, 2, 3])
        assert net.n_p == 3
        assert net.n_n == 2
        assert net.n_0 == 1
        assert net.n_t == 4
        # LPS -> m^3/s; pattern applied to j1 only
        ids = [n.id for n in net.nodes]
        j1, j2 = ids.index("j1"), ids.index("j2")
        assert net.demands[:, j1] == pytest.approx([0.005, 0.010, 0.015, 0.012])
        assert net.demands[:, j2] == pytest.approx([0.005] * 4)
        assert net.source_heads[:, 0] == pytest.approx([80.0] * 4)

    def test_units_mm_to_m(self, sample_inp_text):
        net = parse_inp(sample_inp_text, timestep_indices=[0])
        p1 = next(lk for lk in net.links if lk.id == "p1")
        assert p1.diameter == pytest.approx(0.3)
        assert p1.length == pytest.approx(1000.0)

    def test_default_timesteps_pick_peak_demand(self, sample_inp_text):
        net = parse_inp(sample_inp_text)
        # four highest-total-demand pattern steps of a four-step pattern: all
        assert net.n_t == 4

    def test_valve_parsed(self, sample_inp_text):
        net = parse_inp(sample_inp_text, timestep_indices=[0])
        v1 = next(lk for lk in net.links if lk.id == "v1")
        assert v1.kind == VALVE
        assert v1.valve_loss == pytest.approx(2.5)
        assert v1.diameter == pytest.approx(0.2)

    def test_unknown_section_warns(self, sample_inp_text):
        text = sample_inp_text.replace("[END]", "[QUALITY]\n j1 0.5\n[END]")
        with pytest.warns(ParserWarning):
            parse_inp(text, timestep_indices=[0])

    def test_non_hw_headloss_rejected(self, sample_inp_text):
        text = sample_inp_text.replace("H-W", "D-W")
        with pytest.raises(ParseError):
            parse_inp(text)

    def test_unknown_pattern_rejected(self, sample_inp_text):
        text = sample_inp_text.replace("pat1", "nope", 1)
        with pytest.raises(ParseError) as exc:
            parse_inp(text)
        assert "nope" in str(exc.value)

    def test_link_to_undeclared_node_rejected(self, sample_inp_text):
        text = sample_inp_text.replace(" v1   j1    j2", " v1   ghost j2")
        with pytest.raises(ParseError, match="link v1: unknown node 'ghost'"):
            parse_inp(text)

    def test_json_missing_key_rejected(self):
        payload = json.loads(random_network(5, 1, seed=0).to_json())
        del payload["demands"]
        with pytest.raises(ParseError, match="'demands'"):
            NetworkModel.from_json(json.dumps(payload))

    def test_json_unknown_field_rejected(self):
        payload = json.loads(random_network(5, 1, seed=0).to_json())
        payload["nodes"][0]["colour"] = "blue"
        with pytest.raises(ParseError, match="colour"):
            NetworkModel.from_json(json.dumps(payload))

    def test_missing_sections_rejected(self):
        with pytest.raises(ParseError):
            parse_inp("[JUNCTIONS]\n j1 5 1\n[END]\n")

    def test_bad_number_reports_line(self, sample_inp_text):
        text = sample_inp_text.replace("1000    300   130", "1000  xx  130")
        with pytest.raises(ParseError) as exc:
            parse_inp(text)
        assert exc.value.line is not None

    def test_pump_entries_ignored_with_warning(self, sample_inp_text):
        text = sample_inp_text.replace(
            "[OPTIONS]", "[PUMPS]\n pu1 j1 j2 HEAD curve1\n\n[OPTIONS]")
        with pytest.warns(ParserWarning, match="pump"):
            net = parse_inp(text, timestep_indices=[0])
        assert all(lk.id != "pu1" for lk in net.links)

    def test_network_needing_pump_rejected(self, sample_inp_text):
        # j3 is only reachable through the dropped pump -> disconnected
        text = sample_inp_text.replace(" j2   12.0  5.0", " j2   12.0  5.0\n j3   8.0  1.0")
        text = text.replace("[OPTIONS]", "[PUMPS]\n pu1 j2 j3 HEAD c1\n\n[OPTIONS]")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ParseError, match="disconnected"):
                parse_inp(text, timestep_indices=[0])

    # the sample's second pipe row; EPANET's 7th and 8th fields, minor loss
    # and status, follow the roughness
    P2 = " p2   j1    j2  800     250   120"

    def test_closed_pipes_dropped_with_one_warning(self, sample_inp_text):
        # p2 and p3 run beside the valve v1, which keeps j2 connected
        text = sample_inp_text.replace(
            self.P2, f"{self.P2}  0  CLOSED\n p3   j1    j2  700  250  120  0  closed")
        with pytest.warns(ParserWarning) as record:
            net = parse_inp(text, timestep_indices=[0])
        assert [str(w.message) for w in record] == ["2 closed pipe(s) ignored"]
        assert [lk.id for lk in net.links] == ["p1", "v1"]

    def test_open_status_keeps_the_pipe(self, sample_inp_text):
        text = sample_inp_text.replace(self.P2, f"{self.P2}  0  Open")
        assert (parse_inp(text, timestep_indices=[0])
                == parse_inp(sample_inp_text, timestep_indices=[0]))

    def test_network_needing_closed_pipe_rejected(self, sample_inp_text):
        # j3 is only reachable through the dropped pipe -> disconnected
        text = sample_inp_text.replace(" j2   12.0  5.0", " j2   12.0  5.0\n j3   8.0  1.0")
        text = text.replace(self.P2, f"{self.P2}\n p3   j2    j3  500  200  120  0  CLOSED")
        with pytest.warns(ParserWarning, match="1 closed pipe"):
            with pytest.raises(ParseError, match="disconnected"):
                parse_inp(text, timestep_indices=[0])

    @pytest.mark.parametrize("old, new, dup", [
        (" j2   12.0  5.0", " j2   12.0  5.0\n j1   9.0   1.0", "j1"),
        (" r1   80.0", " r1   80.0\n j2   70.0", "j2"),
        (" p2   j1    j2  800     250   120",
         " p2   j1    j2  800     250   120\n p2   r1    j2  900     250   120", "p2"),
        (" v1   j1    j2  200", " p1   j1    j2  200", "p1"),
    ], ids=["junction", "reservoir_as_junction", "pipe", "valve_as_pipe"])
    def test_repeated_id_rejected_at_its_line(self, sample_inp_text, old, new, dup):
        text = sample_inp_text.replace(old, new)
        repeat = [k for k, line in enumerate(text.splitlines(), 1)
                  if line.split()[:1] == [dup]][-1]
        with pytest.raises(ParseError, match=f"line {repeat}: repeated .*ID '{dup}'") as exc:
            parse_inp(text)
        assert exc.value.line == repeat

    def test_extra_demand_with_pattern_adds_onto_junction(self, sample_inp_text):
        text = sample_inp_text.replace("[OPTIONS]", "[DEMANDS]\n j2  2.0  pat1\n\n[OPTIONS]")
        net = parse_inp(text, timestep_indices=[0, 1, 2, 3])
        ids = [n.id for n in net.nodes]
        j1, j2 = ids.index("j1"), ids.index("j2")
        # 5 LPS base plus 2 LPS times pat1 (0.5, 1.0, 1.5, 1.2)
        assert net.demands[:, j2] == pytest.approx([0.006, 0.007, 0.008, 0.0074])
        assert net.demands[:, j1] == pytest.approx([0.005, 0.010, 0.015, 0.012])

    @pytest.mark.parametrize("old, new, steps, message, marker", [
        ("[TITLE]", "stray\n[TITLE]", [0], "content before first section header", "stray"),
        (" p2   j1    j2  800     250   120", " p2   j1    j2  800", [0],
         "pipe needs id, nodes, length, diameter, roughness", " p2 "),
        (" v1   j1    j2  200     TCV   2.5", " v1   j1    j2  200     TCV", [0],
         "valve needs id, nodes, diameter, type, setting", " v1 "),
        ("UNITS     LPS", "UNITS     FURLONGS", [0], "unknown flow unit FURLONGS", None),
        ("TCV", "GPV", [0], "unsupported valve type GPV", " v1 "),
        (" p2   j1    j2  800     250   120", " p2   j1    j2  800     250   120  0  CV", [0],
         "unsupported pipe status CV", " p2 "),
        ("[END]", "[END]", [4], "timestep index 4 outside pattern length 4", None),
        ("[OPTIONS]", "[DEMANDS]\n ghost  1.0\n\n[OPTIONS]", [0],
         "demand for unknown junction 'ghost'", " ghost "),
    ], ids=["content_before_header", "short_pipe_row", "short_valve_row", "unknown_units",
            "unsupported_valve_type", "check_valve_pipe", "timestep_outside_pattern",
            "demand_unknown_junction"])
    def test_malformed_input_rejected(self, sample_inp_text, old, new, steps, message,
                                      marker):
        assert old in sample_inp_text
        text = sample_inp_text.replace(old, new)
        line = (None if marker is None else
                next(k for k, row in enumerate(text.splitlines(), 1) if row.startswith(marker)))
        with pytest.raises(ParseError) as exc:
            parse_inp(text, timestep_indices=steps)
        assert exc.value.line == line
        assert str(exc.value) == (message if line is None else f"line {line}: {message}")

    def test_json_roundtrip(self, sample_inp_text):
        net = parse_inp(sample_inp_text, timestep_indices=[0, 2])
        again = NetworkModel.from_json(net.to_json())
        assert again == net


class TestIncidence:
    def test_signs(self, line3):
        # link j: +1 at its to-node, -1 at its from-node
        A12 = line3.A12.toarray()
        assert A12[0].tolist() == [1.0, 0.0, 0.0]
        assert A12[1].tolist() == [-1.0, 1.0, 0.0]
        assert line3.A10.toarray()[0, 0] == -1.0

    def test_mass_balance_row_sums(self, loop4):
        # every link contributes +1 and -1 across A12|A10
        total = np.asarray(loop4.A12.sum(axis=1)).ravel() + \
            np.asarray(loop4.A10.sum(axis=1)).ravel()
        assert np.allclose(total, 0.0)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_networks_connected(self, seed):
        net = random_network(n_nodes=15, extra_edges=4, seed=seed)
        assert net.is_connected()
        assert net.A12.shape == (net.n_p, net.n_n)


class TestCompiledArrays:
    def test_link_and_node_arrays(self, grid25):
        assert np.array_equal(grid25.areas, [lk.area for lk in grid25.links])
        assert np.array_equal(grid25.lengths, [lk.length for lk in grid25.links])
        assert np.array_equal(grid25.elevations, [n.elevation for n in grid25.nodes])

    def test_arrays_are_read_only(self, grid25):
        for arr in (grid25.areas, grid25.lengths, grid25.elevations):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_stored_transpose(self, grid25):
        assert grid25.A12T.shape == (grid25.n_n, grid25.n_p)
        assert (grid25.A12T != grid25.A12.T).nnz == 0

    def test_valve_links_from_flags(self, line3):
        links = list(line3.links)
        links[1] = Link("v", links[1].from_node, links[1].to_node, VALVE,
                        0.0, 0.2, 0.0, 0.0, is_existing_prv=True)
        links[2] = dataclasses.replace(links[2], is_existing_dbv=True)
        net = NetworkModel(links, line3.nodes, line3.sources,
                           line3.demands, line3.source_heads)
        assert (net.prv_links, net.dbv_links, net.free_links) == ((1,), (2,), (0,))
        assert (line3.prv_links, line3.dbv_links, line3.free_links) == ((), (), (0, 1, 2))


class TestCompiledEnds:
    """The compiled (to, from) ends and everything derived from them equal
    the per-link loops they replaced, bit for bit."""

    @given(net=networks())
    @settings(max_examples=200, deadline=None)
    def test_incidence_matches_per_link_oracle(self, net):
        A12, A10 = incidence_oracle(net)
        for got, want in ((net.A12, A12), (net.A10, A10)):
            for field in ("indptr", "indices", "data"):
                assert_same_bits(getattr(got, field), getattr(want, field))

    @given(net=networks(min_sources=1), p_min=st.sampled_from([0.0, 15.0]))
    @settings(max_examples=200, deadline=None)
    def test_eta_box_matches_per_link_oracle(self, net, p_min):
        bounds = default_bounds(net, headloss_params(net), p_min=p_min)
        eta_lo, eta_hi = eta_box_oracle(net, p_min)
        assert_same_bits(bounds.eta_lo, eta_lo)
        assert_same_bits(bounds.eta_hi, eta_hi)

    @given(net=networks())
    @settings(max_examples=200, deadline=None)
    def test_azp_weights_match_per_link_oracle(self, net):
        if net.n_n:
            assert_same_bits(azp_weights(net), azp_weights_oracle(net))

    @given(net=networks())
    @settings(max_examples=300, deadline=None)
    def test_is_connected_matches_bfs_oracle(self, net):
        assert net.is_connected() is connected_oracle(net)

    @pytest.mark.parametrize("valve, cut, connected", [
        (True, False, True), (False, False, True), (True, True, False)])
    def test_two_sources(self, valve, cut, connected):
        net = two_source_net(valve, cut)
        assert net.is_connected() is connected_oracle(net) is connected
        bounds = default_bounds(net, headloss_params(net))
        eta_lo, eta_hi = eta_box_oracle(net, 15.0)
        assert_same_bits(bounds.eta_lo, eta_lo)
        assert_same_bits(bounds.eta_hi, eta_hi)
        if valve:
            # the valve's box is the fixed drop h_s1 - h_s0 at each timestep
            assert bounds.eta_lo[:, -1].tolist() == [-5.0, -12.0]
            assert bounds.eta_hi[:, -1].tolist() == [-5.0, -12.0]

    def test_no_sources_is_disconnected(self):
        net = NetworkModel([Link("p1", "a", "b", PIPE, 100, 0.2, 120)],
                           [DemandNode("a", 0.0), DemandNode("b", 0.0)], [],
                           np.zeros((1, 2)), np.zeros((1, 0)))
        assert not net.is_connected() and not connected_oracle(net)

    def test_ends_index_nodes_then_sources(self, line3):
        # p1 runs src -> n1; the source follows the three demand nodes
        assert line3.link_to.tolist() == [0, 1, 2]
        assert line3.link_from.tolist() == [3, 0, 1]
        for arr in (line3.link_to, line3.link_from):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_unknown_node_rejected(self):
        with pytest.raises(ValueError, match="unknown node 'x'"):
            NetworkModel([Link("p1", "src", "x", PIPE, 100, 0.2, 120)],
                         [DemandNode("a", 0.0)], [SourceNode("src")],
                         np.zeros((1, 1)), np.full((1, 1), 50.0))


@st.composite
def branched_networks(draw):
    """Connected networks with one or two sources: a random tree of demand
    nodes with chords, one link doubled by a parallel link, and a ring
    hanging behind a bridge with leaves on it, each link pointing either
    way and the demand nodes in a drawn order."""
    n_tree, n_ring = draw(st.integers(1, 7)), draw(st.integers(3, 4))
    tree = [f"n{i}" for i in range(n_tree)]
    ring = [f"r{i}" for i in range(n_ring)]
    leaves = [f"l{k}" for k in range(draw(st.integers(0, 2)))]
    sources = [f"s{k}" for k in range(draw(st.integers(1, 2)))]
    ends = [(tree[draw(st.integers(0, i - 1))], tree[i]) for i in range(1, n_tree)]
    ends += [(s, draw(st.sampled_from(tree))) for s in sources]
    if n_tree >= 2:
        for _ in range(draw(st.integers(0, 2))):
            ends.append(tuple(draw(st.lists(st.sampled_from(tree), min_size=2,
                                            max_size=2, unique=True))))
    ends.append(draw(st.sampled_from(ends)))
    ends.append((draw(st.sampled_from(tree)), ring[0]))
    ends += [(ring[i], ring[(i + 1) % n_ring]) for i in range(n_ring)]
    ends += [(draw(st.sampled_from(ring)), leaf) for leaf in leaves]
    links = [Link(f"p{j}", *(ab[::-1] if draw(st.booleans()) else ab), PIPE,
                  100.0, 0.2, 130.0) for j, ab in enumerate(ends)]
    nodes = [DemandNode(i, 0.0) for i in draw(st.permutations(tree + ring + leaves))]
    net = NetworkModel(links, nodes, [SourceNode(s) for s in sources],
                       np.full((1, len(nodes)), 0.01), np.full((1, len(sources)), 50.0))
    net.validate()
    return net


def forest_core_oracle(net):
    """Each link's (sign, downstream nodes) from the definition of a forest
    link: deleting it leaves a source-free component whose links form a
    tree.  The sign is +1 when the link's to-node lies in that component;
    a core link gets (0, ())."""
    pos = {n.id: i for i, n in enumerate(net.nodes)}
    sources = {s.id for s in net.sources}
    split = []
    for j, lk in enumerate(net.links):
        rest = [(o.from_node, o.to_node) for k, o in enumerate(net.links) if k != j]
        result = (0, ())
        for end, sign in ((lk.to_node, 1), (lk.from_node, -1)):
            part, stack = {end}, [end]
            while stack:
                a = stack.pop()
                for b in [y for x, y in rest if x == a] + [x for x, y in rest if y == a]:
                    if b not in part:
                        part.add(b)
                        stack.append(b)
            n_links = sum(a in part for a, _ in rest)
            if part.isdisjoint(sources) and n_links == len(part) - 1:
                result = (sign, tuple(sorted(pos[i] for i in part)))
        split.append(result)
    return split


class TestForestCore:
    def test_tree_is_all_forest(self, line3):
        assert line3.core_links == ()
        assert set(line3.forest_links) == {0, 1, 2}
        # last link feeds only the end node; first link feeds everything
        assert line3.forest_downstream[2] == (2,)
        assert line3.forest_downstream[0] == (0, 1, 2)
        assert all(line3.forest_sign[j] == 1 for j in line3.forest_links)

    def test_loop_is_all_core_except_feed(self, loop4):
        # the source feed pipe is a bridge but keeps the loop alive below it:
        # only degree-1 pruning applies, and no demand node has degree 1
        assert set(loop4.core_links) == set(range(loop4.n_p))
        assert loop4.forest_links == ()

    def test_reversed_branch_sign(self):
        # branch link written end-node -> interior: sign must flip
        nodes = [DemandNode("a", 0.0), DemandNode("b", 0.0)]
        links = [Link("p1", "src", "a", PIPE, 100, 0.2, 130),
                 Link("p2", "b", "a", PIPE, 100, 0.2, 130)]
        net = NetworkModel(links, nodes, [SourceNode("src")],
                           np.array([[0.01, 0.01]]), np.array([[50.0]]))
        assert net.forest_sign[1] == -1
        assert net.forest_downstream[1] == (1,)

    def test_grid_core_rank(self, grid25):
        # chord count of the grid graph: links - nodes (spanning tree uses n_n)
        assert len(grid25.core_links) + len(grid25.forest_links) == grid25.n_p

    @given(net=branched_networks())
    @settings(max_examples=200, deadline=None)
    def test_split_matches_its_definition(self, net):
        split = forest_core_oracle(net)
        assert net.forest_sign.tolist() == [sign for sign, _ in split]
        assert net.forest_downstream == tuple(down for _, down in split)
        assert net.forest_links == tuple(j for j, (sign, _) in enumerate(split) if sign)
        assert net.core_links == tuple(j for j, (sign, _) in enumerate(split) if not sign)
        with pytest.raises(ValueError):
            net.forest_sign[0] = 1


class TestProblemStats:
    @pytest.mark.parametrize("n_p,n_n,n_t,cont,binary,nonconvex", [
        (98, 67, 4, 1712, 949, 784),    # first benchmark dimensions
        (317, 268, 4, 5948, 3121, 2536),  # second benchmark dimensions
    ])
    def test_count_identities(self, n_p, n_n, n_t, cont, binary, nonconvex):
        stats = count_variables(n_p, n_n, n_t)
        assert stats.continuous == cont
        assert stats.binary == binary
        assert stats.nonconvex == nonconvex


class TestValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Link("p1", "a", "a", PIPE, 10, 0.1, 100).validate()

    @pytest.mark.parametrize("link, message", [
        (Link("p1", "a", "b", PIPE, 0.0, 0.2, 120.0), "pipe p1: L, D and C must be positive"),
        (Link("p1", "a", "b", PIPE, 100.0, 0.2, -1.0), "pipe p1: L, D and C must be positive"),
        (Link("v1", "a", "b", VALVE, 0.0, 0.0, 0.0, 0.5), "valve v1: D must be positive and K >= 0"),
        (Link("v1", "a", "b", VALVE, 0.0, 0.2, 0.0, -0.5),
         "valve v1: D must be positive and K >= 0"),
        (Link("x1", "a", "b", "pump", 100.0, 0.2, 120.0), "link x1: unknown kind 'pump'"),
        (Link("v1", "a", "b", VALVE, 0.0, 0.2, 0.0, 0.0, True, True),
         "link v1: a link cannot be both PRV and DBV"),
    ], ids=["pipe_length", "pipe_roughness", "valve_diameter", "valve_loss", "unknown_kind",
            "prv_and_dbv"])
    def test_bad_link_rejected(self, link, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            link.validate()

    @pytest.mark.parametrize("demands, heads, message", [
        (np.zeros((1, 2)), np.full((1, 1), 80.0), "demands shape mismatch"),
        (np.zeros((1, 3)), np.full((1, 2), 80.0), "source_heads shape mismatch"),
        (np.zeros((2, 3)), np.full((1, 1), 80.0), "source_heads shape mismatch"),
        (np.zeros((0, 3)), np.zeros((0, 1)), "need at least one timestep"),
    ], ids=["demand_columns", "head_columns", "head_rows", "no_timestep"])
    def test_shape_mismatch_rejected(self, line3, demands, heads, message):
        net = NetworkModel(line3.links, line3.nodes, line3.sources, demands, heads)
        with pytest.raises(ValueError, match=f"^{message}$"):
            net.validate()

    def test_negative_demand_rejected(self, line3):
        net = NetworkModel(line3.links, line3.nodes, line3.sources,
                           -line3.demands, line3.source_heads)
        with pytest.raises(ValueError):
            net.validate()

    def test_disconnected_rejected(self):
        nodes = [DemandNode("a", 0.0), DemandNode("b", 0.0)]
        links = [Link("p1", "src", "a", PIPE, 100, 0.2, 130)]
        net = NetworkModel(links, nodes, [SourceNode("src")],
                           np.array([[0.01, 0.01]]), np.array([[50.0]]))
        with pytest.raises(ValueError):
            net.validate()

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("kind, field", [
        (PIPE, "length"), (PIPE, "diameter"), (PIPE, "hw_coefficient"),
        (VALVE, "diameter"), (VALVE, "valve_loss")])
    def test_non_finite_link_rejected(self, kind, field, value):
        link = (Link("p1", "a", "b", PIPE, 100.0, 0.2, 120.0) if kind == PIPE
                else Link("v1", "a", "b", VALVE, 0.0, 0.2, 0.0, 0.5))
        link.validate()
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(link, **{field: value}).validate()

    @pytest.mark.parametrize("old, new", [
        pytest.param(" p1   r1    j1  1000", " p1   r1    j1  inf", id="pipe_length_inf"),
        pytest.param(" r1   80.0", " r1   nan", id="reservoir_head_nan")])
    def test_non_finite_inp_rejected(self, sample_inp_text, old, new):
        assert old in sample_inp_text
        with pytest.raises(ParseError, match="finite"):
            parse_inp(sample_inp_text.replace(old, new))

    @pytest.mark.parametrize("field", ["source_head", "elevation"])
    def test_non_finite_json_rejected(self, line3, field):
        payload = json.loads(line3.to_json())
        if field == "source_head":
            payload["source_heads"][0][0] = float("nan")
        else:
            payload["nodes"][0]["elevation"] = float("inf")
        net = NetworkModel.from_json(json.dumps(payload))
        with pytest.raises(ValueError, match="finite"):
            net.validate()
