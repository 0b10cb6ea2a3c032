import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sccopt.errors import ParseError
from sccopt.netmodel import (Link, DemandNode, SourceNode, NetworkModel,
                             ParserWarning, count_variables, forest_core,
                             parse_inp, PIPE, VALVE)
from sccopt.netgen import random_network


class TestParser:
    def test_basic_parse(self, sample_inp_text):
        net = parse_inp(sample_inp_text, timestep_indices=[0, 1, 2, 3])
        assert net.n_p == 3
        assert net.n_n == 2
        assert net.n_0 == 1
        assert net.n_t == 4
        # LPS -> m^3/s; pattern applied to j1 only
        j1 = net.node_index("j1")
        j2 = net.node_index("j2")
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


class TestForestCore:
    def test_tree_is_all_forest(self, line3):
        dec = forest_core(line3)
        assert dec.core_links == ()
        assert set(dec.forest_links) == {0, 1, 2}
        # last link feeds only the end node; first link feeds everything
        assert dec.forest_downstream[2] == (2,)
        assert dec.forest_downstream[0] == (0, 1, 2)
        assert all(s == 1 for s in dec.forest_sign.values())

    def test_loop_is_all_core_except_feed(self, loop4):
        dec = forest_core(loop4)
        # the source feed pipe is a bridge but keeps the loop alive below it:
        # only degree-1 pruning applies, and no demand node has degree 1
        assert set(dec.core_links) == set(range(loop4.n_p))
        assert dec.forest_links == ()

    def test_reversed_branch_sign(self):
        # branch link written end-node -> interior: sign must flip
        nodes = [DemandNode("a", 0.0), DemandNode("b", 0.0)]
        links = [Link("p1", "src", "a", PIPE, 100, 0.2, 130),
                 Link("p2", "b", "a", PIPE, 100, 0.2, 130)]
        net = NetworkModel(links, nodes, [SourceNode("src")],
                           np.array([[0.01, 0.01]]), np.array([[50.0]]))
        dec = forest_core(net)
        assert dec.forest_sign[1] == -1
        assert dec.forest_downstream[1] == (1,)

    def test_grid_core_rank(self, grid25):
        # chord count of the grid graph: links - nodes (spanning tree uses n_n)
        dec = forest_core(grid25)
        assert len(dec.core_links) + len(dec.forest_links) == grid25.n_p


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
