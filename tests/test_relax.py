import numpy as np
import pytest

from sccopt import envelopes
from sccopt.errors import InconsistentBounds
from sccopt.hydraulics import headloss_params, phi, simulate
from sccopt.lp import OPTIMAL, solve_lp
from sccopt.netgen import random_network
from sccopt.relax import (DesignConfig, _link_tables, build_lp, default_bounds,
                          extract_fractional, lp_bound)
from sccopt.scc import SccParams, scc_smooth


def setup(net, n_v=0, n_f=0, **kw):
    params = headloss_params(net)
    scc_params = SccParams.from_network(net)
    bounds = default_bounds(net, params, **kw)
    design = DesignConfig.from_network(net, n_v=n_v, n_f=n_f)
    return params, scc_params, bounds, design


class TestBounds:
    def test_flow_bounds_velocity_cap(self, line3):
        params = headloss_params(line3)
        bounds = default_bounds(line3, params, u_max=3.0)
        assert bounds.q_hi[0] == pytest.approx(3.0 * line3.areas)
        assert bounds.q_lo[0] == pytest.approx(-3.0 * line3.areas)

    def test_head_bounds(self, line3):
        params = headloss_params(line3)
        bounds = default_bounds(line3, params, p_min=15.0)
        assert np.all(bounds.h_hi == 80.0)
        assert bounds.h_lo[0] == pytest.approx(line3.elevations + 15.0)

    def test_zero_demand_node_has_no_pressure_floor(self, line3):
        from sccopt.netmodel import NetworkModel
        d = line3.demands.copy()
        d[:, 1] = 0.0
        net = NetworkModel(line3.links, line3.nodes, line3.sources, d, line3.source_heads)
        bounds = default_bounds(net, headloss_params(net))
        assert bounds.h_lo[0, 1] == pytest.approx(net.elevations[1])

    def test_theta_bounds_follow_flow_bounds(self, line3):
        params = headloss_params(line3)
        bounds = default_bounds(line3, params)
        from sccopt.hydraulics import phi
        assert bounds.theta_hi[0] == pytest.approx(phi(bounds.q_hi[0], params))

    def test_theta_box_follows_in_place_flow_edits(self, line3):
        params = headloss_params(line3)
        bounds = default_bounds(line3, params)
        before = bounds.theta_hi.copy()
        bounds.q_hi[0, 1] *= 0.5
        assert bounds.theta_hi[0, 1] < before[0, 1]
        assert np.array_equal(bounds.theta_hi, phi(bounds.q_hi, params))

    def test_eta_bounds_bracket_zero(self, line3):
        params = headloss_params(line3)
        bounds = default_bounds(line3, params)
        assert np.all(bounds.eta_lo <= 0.0)
        assert np.all(bounds.eta_hi >= 0.0)

    def test_infeasible_pressure_floor_rejected(self, line3):
        params = headloss_params(line3)
        with pytest.raises(InconsistentBounds):
            default_bounds(line3, params, p_min=100.0)


class TestDesignConfig:
    def test_counts_validated(self):
        with pytest.raises(ValueError):
            DesignConfig(n_v=-1)

    def test_fixed_links_from_network_flags(self, line3):
        from sccopt.netmodel import Link, NetworkModel, VALVE
        links = list(line3.links)
        links[1] = Link("v", links[1].from_node, links[1].to_node, VALVE,
                        0.0, 0.2, 0.0, 0.0, is_existing_prv=True)
        net = NetworkModel(links, line3.nodes, line3.sources,
                           line3.demands, line3.source_heads)
        cfg = DesignConfig.from_network(net, n_v=1)
        assert cfg.prv_links == (1,)
        assert 1 not in cfg.free_links(net)


class TestRelaxation:
    def test_column_count(self, loop4):
        params, scc_params, bounds, design = setup(loop4, n_v=1, n_f=1)
        lp, vmap = build_lp(loop4, params, scc_params, bounds, design)
        n_p, n_n, n_t = loop4.n_p, loop4.n_n, loop4.n_t
        assert vmap.total == n_t * (7 * n_p + 2 * n_n) + n_p + n_n
        assert lp.n_cols == vmap.total

    def test_relaxation_solves(self, loop4):
        params, scc_params, bounds, design = setup(loop4, n_v=1, n_f=1)
        lp, vmap = build_lp(loop4, params, scc_params, bounds, design)
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL

    def test_dominates_uncontrolled_simulation(self, loop4):
        params, scc_params, bounds, design = setup(loop4)
        lp, vmap = build_lp(loop4, params, scc_params, bounds, design)
        sol = solve_lp(lp)
        state = simulate(loop4, params)
        assert lp_bound(sol) >= scc_smooth(state, loop4, scc_params) - 1e-9

    def test_dominates_on_random_fixtures(self):
        for seed in range(6):
            net = random_network(n_nodes=10, extra_edges=3, seed=seed)
            params, scc_params, bounds, design = setup(net)
            lp, vmap = build_lp(net, params, scc_params, bounds, design)
            sol = solve_lp(lp)
            assert sol.status == OPTIMAL
            state = simulate(net, params)
            assert lp_bound(sol) >= scc_smooth(state, net, scc_params) - 1e-9

    def test_fractional_extraction_sums(self, loop4):
        params, scc_params, bounds, design = setup(loop4, n_v=1, n_f=2)
        lp, vmap = build_lp(loop4, params, scc_params, bounds, design)
        sol = solve_lp(lp)
        y, z, eta0 = extract_fractional(sol, vmap, design)
        assert np.sum(z) == pytest.approx(1.0, abs=1e-6)
        assert np.sum(y) == pytest.approx(2.0, abs=1e-6)
        assert eta0.shape == (loop4.n_t, loop4.n_p)
        assert np.all(y >= 0) and np.all(z >= 0)

    def test_alpha_needs_flushing_binary(self, loop4):
        # with n_f = 0 every alpha is pinned to zero through the big-M row
        params, scc_params, bounds, design = setup(loop4, n_v=0, n_f=0)
        lp, vmap = build_lp(loop4, params, scc_params, bounds, design)
        sol = solve_lp(lp)
        alpha = np.concatenate([sol.x[vmap.alpha(t)] for t in range(loop4.n_t)])
        assert np.max(np.abs(alpha)) <= 1e-8

    def test_flow_consistency_rows_hold(self, loop4):
        params, scc_params, bounds, design = setup(loop4, n_v=1, n_f=1)
        lp, vmap = build_lp(loop4, params, scc_params, bounds, design)
        sol = solve_lp(lp)
        q = sol.x[vmap.q(0)]
        alpha = sol.x[vmap.alpha(0)]
        mass = loop4.A12.T @ q - loop4.demands[0] - alpha
        assert np.max(np.abs(mass)) <= 1e-7

    def test_bound_not_above_two(self, loop4):
        # each sigma pair is bounded by 1+1; weights sum to one
        params, scc_params, bounds, design = setup(loop4, n_v=1, n_f=1)
        lp, _ = build_lp(loop4, params, scc_params, bounds, design)
        sol = solve_lp(lp)
        assert lp_bound(sol) <= 2.0 + 1e-9

    @pytest.mark.parametrize("alpha_max, nnz", [(0.025, 193), (0.0, 189)])
    def test_assembly_stores_no_zeros(self, loop4, alpha_max, nnz):
        # the source link's eta_lo is 0, so its big-M row has a zero
        # coefficient that must not be stored; alpha_max 0 zeroes the y
        # coefficient of every flushing row
        params, scc_params, bounds, design = setup(loop4, n_v=1, n_f=1,
                                                   alpha_max=alpha_max)
        assert bounds.eta_lo[0, 0] == 0.0
        lp, _ = build_lp(loop4, params, scc_params, bounds, design)
        assert np.all(lp.A.data != 0)
        # 4 mass + 5 energy rows, 5 link tables of 15 rows, 4 flushing rows
        # and the two valve-count rows
        assert (lp.n_rows, lp.n_cols, lp.A.nnz) == (90, 52, nnz)

    def test_sigmoid_rows_are_velocity_cuts_in_flow_space(self, loop4):
        # a psi row evaluated at q = area * u equals its velocity-space cut
        # at u; the sigma coefficient and the rhs are unchanged
        params, scc_params, bounds, _ = setup(loop4)
        table, keep = _link_tables(params, scc_params, bounds, 0, loop4.areas)
        families = envelopes.sigmoid_envelope(
            scc_params.rho, scc_params.u_min, bounds.q_lo[0] / loop4.areas,
            bounds.q_hi[0] / loop4.areas)
        u = 0.5
        for k, (coeff, rhs, kept) in enumerate(families):
            rows = table[:, 2 * k:2 * k + 2]
            assert np.array_equal(keep[:, 2 * k:2 * k + 2], kept)
            np.testing.assert_allclose(rows[..., 0] * (loop4.areas[:, None] * u),
                                       coeff * u, rtol=1e-12)
            assert np.all(rows[..., 1 + k] == 1.0)
            assert np.array_equal(rows[..., 8], rhs)
