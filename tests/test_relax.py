import numpy as np
import pytest

import relax_reference
from sccopt import envelopes
from sccopt.errors import InconsistentBounds
from sccopt.hydraulics import head_loss, headloss_params, simulate
from sccopt.lp import OPTIMAL, solve_lp
from sccopt.netgen import random_network
from sccopt.netmodel import Link, NetworkModel
from sccopt.obbt import flow_polytope
from sccopt.pipeline import RunConfig, default_problem, tightened_bounds
from sccopt.relax import (Problem, RunMemo, VariableMap, _link_tables, build_lp,
                          default_bounds, extract_fractional, lp_bound)
from sccopt.scc import SccParams, scc_smooth


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
        assert bounds.theta_hi[0] == pytest.approx(head_loss(bounds.q_hi[0], params)[0])

    def test_theta_box_follows_in_place_flow_edits(self, line3):
        params = headloss_params(line3)
        bounds = default_bounds(line3, params)
        before = bounds.theta_hi.copy()
        bounds.q_hi[0, 1] *= 0.5
        assert bounds.theta_hi[0, 1] < before[0, 1]
        assert np.array_equal(bounds.theta_hi, head_loss(bounds.q_hi, params)[0])

    def test_eta_bounds_bracket_zero(self, line3):
        params = headloss_params(line3)
        bounds = default_bounds(line3, params)
        assert np.all(bounds.eta_lo <= 0.0)
        assert np.all(bounds.eta_hi >= 0.0)

    def test_infeasible_pressure_floor_rejected(self, line3):
        params = headloss_params(line3)
        with pytest.raises(InconsistentBounds):
            default_bounds(line3, params, p_min=100.0)


class TestProblem:
    def test_bound_arrays_are_read_only(self, loop4):
        bounds = default_bounds(loop4, headloss_params(loop4))
        problem = Problem(loop4, SccParams.from_network(loop4), bounds)
        assert problem.bounds is bounds and problem.params is bounds.params
        for name in ("q_lo", "q_hi", "h_lo", "h_hi", "eta_lo", "eta_hi"):
            with pytest.raises(ValueError):
                getattr(problem.bounds, name)[0, 0] = 0.0
        # a copy is a writable box for a new Problem
        edited = problem.bounds.copy()
        edited.q_hi[0, 0] = 0.0
        assert problem.bounds.q_hi[0, 0] != 0.0

    def test_each_problem_owns_a_fresh_memo(self, loop4):
        a = default_problem(loop4, RunConfig())
        b = Problem(a.net, a.scc_params, a.bounds)
        assert isinstance(a.memo, RunMemo) and a.memo is not b.memo
        assert a.memo.states == {} and a.memo.steps == {}
        with pytest.raises(AttributeError):
            a.memo = RunMemo()


class TestRelaxation:
    def test_column_count(self, loop4):
        problem = default_problem(loop4, RunConfig())
        lp, vmap = build_lp(problem, 1, 1)
        n_p, n_n, n_t = loop4.n_p, loop4.n_n, loop4.n_t
        assert vmap.total == n_t * (7 * n_p + 2 * n_n) + n_p + n_n
        assert lp.n_cols == vmap.total

    def test_relaxation_solves(self, loop4):
        problem = default_problem(loop4, RunConfig())
        lp, vmap = build_lp(problem, 1, 1)
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL

    def test_dominates_uncontrolled_simulation(self, loop4):
        problem = default_problem(loop4, RunConfig())
        lp, vmap = build_lp(problem, 0, 0)
        sol = solve_lp(lp)
        state = simulate(loop4, problem.params)
        assert lp_bound(sol) >= scc_smooth(state, loop4, problem.scc_params) - 1e-9

    def test_dominates_on_random_fixtures(self):
        for seed in range(6):
            net = random_network(n_nodes=10, extra_edges=3, seed=seed)
            problem = default_problem(net, RunConfig())
            lp, vmap = build_lp(problem, 0, 0)
            sol = solve_lp(lp)
            assert sol.status == OPTIMAL
            state = simulate(net, problem.params)
            assert lp_bound(sol) >= scc_smooth(state, net, problem.scc_params) - 1e-9

    def test_fractional_extraction_sums(self, loop4):
        problem = default_problem(loop4, RunConfig())
        lp, vmap = build_lp(problem, 1, 2)
        sol = solve_lp(lp)
        y, z, eta0 = extract_fractional(sol, vmap, loop4)
        assert np.sum(z) == pytest.approx(1.0, abs=1e-6)
        assert np.sum(y) == pytest.approx(2.0, abs=1e-6)
        assert eta0.shape == (loop4.n_t, loop4.n_p)
        assert np.all(y >= 0) and np.all(z >= 0)

    def test_alpha_needs_flushing_binary(self, loop4):
        # with n_f = 0 every alpha is pinned to zero through the big-M row
        problem = default_problem(loop4, RunConfig())
        lp, vmap = build_lp(problem, 0, 0)
        sol = solve_lp(lp)
        alpha = sol.x[vmap.alpha]
        assert np.max(np.abs(alpha)) <= 1e-8

    def test_flow_consistency_rows_hold(self, loop4):
        problem = default_problem(loop4, RunConfig())
        lp, vmap = build_lp(problem, 1, 1)
        sol = solve_lp(lp)
        q = sol.x[vmap.q[0]]
        alpha = sol.x[vmap.alpha[0]]
        mass = loop4.A12.T @ q - loop4.demands[0] - alpha
        assert np.max(np.abs(mass)) <= 1e-7

    def test_bound_not_above_two(self, loop4):
        # each sigma pair is bounded by 1+1; weights sum to one
        problem = default_problem(loop4, RunConfig())
        lp, _ = build_lp(problem, 1, 1)
        sol = solve_lp(lp)
        assert lp_bound(sol) <= 2.0 + 1e-9

    @pytest.mark.parametrize("alpha_max, nnz", [(0.025, 193), (0.0, 189)])
    def test_assembly_stores_no_zeros(self, loop4, alpha_max, nnz):
        # the source link's eta_lo is 0, so its big-M row has a zero
        # coefficient that must not be stored; alpha_max 0 zeroes the y
        # coefficient of every flushing row
        problem = default_problem(loop4, RunConfig(alpha_max=alpha_max))
        assert problem.bounds.eta_lo[0, 0] == 0.0
        lp, _ = build_lp(problem, 1, 1)
        assert np.all(lp.A.data != 0)
        # 4 mass + 5 energy rows, 5 link tables of 15 rows, 4 flushing rows
        # and the two valve-count rows
        assert (lp.n_rows, lp.n_cols, lp.A.nnz) == (90, 52, nnz)

    def test_inequality_rows_come_first(self, loop4):
        # the 75 link-table and 4 flushing rows are inequalities, then the
        # 4 mass, 5 energy and two valve-count rows are equalities
        problem = default_problem(loop4, RunConfig())
        lp, _ = build_lp(problem, 1, 1)
        assert (lp.n_rows, lp.n_cols) == (90, 52)
        is_leq = lp.lhs == -np.inf
        assert np.array_equal(is_leq, np.arange(90) < 79)
        assert np.array_equal(lp.lhs[~is_leq], lp.rhs[~is_leq])
        assert np.all(np.isfinite(lp.rhs))

    def test_sigmoid_rows_are_velocity_cuts_in_flow_space(self, loop4):
        # a psi row evaluated at q = area * u equals its velocity-space cut
        # at u; the sigma coefficient and the rhs are unchanged
        problem = default_problem(loop4, RunConfig())
        scc_params, bounds = problem.scc_params, problem.bounds
        tables, keeps = _link_tables(problem)
        table, keep = tables[0], keeps[0]
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


def assert_same_lp(ours, ref):
    """The two LPs' c, CSC arrays, lhs, rhs, lb and ub are equal bit for bit."""
    for name in ("c", "lhs", "rhs", "lb", "ub"):
        assert np.array_equal(getattr(ours, name), getattr(ref, name)), name
    A, A_ref = ours.A.tocsc(), ref.A.tocsc()
    assert A.shape == A_ref.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(A, name), getattr(A_ref, name)), name


def with_existing_valves(net, prv, dbv):
    """``net`` with link ``prv`` an existing PRV and link ``dbv`` an existing DBV."""
    links = list(net.links)
    for j, kind in ((prv, "is_existing_prv"), (dbv, "is_existing_dbv")):
        lk = links[j]
        links[j] = Link(lk.id, lk.from_node, lk.to_node, lk.kind, lk.length, lk.diameter,
                        lk.hw_coefficient, lk.valve_loss, **{kind: True})
    return NetworkModel(links, net.nodes, net.sources, net.demands, net.source_heads)


class TestMatchesReference:
    """``build_lp`` returns exactly the LP that ``relax_reference`` assembles
    one timestep at a time, on the default box, where every envelope slot is
    in use, and on the tightened box of a design run, where the narrow
    forest-link intervals leave slots unused."""

    def assert_matches(self, net, config):
        default = default_problem(net, config)
        tightened, _ = tightened_bounds(net, config)
        assert not _link_tables(tightened)[1].all()
        for problem in (default, tightened):
            assert_same_lp(build_lp(problem, config.n_v, config.n_f)[0],
                           relax_reference.build_lp(problem, config.n_v, config.n_f)[0])

    @pytest.mark.parametrize("n_t", [1, 2, 3, 4])
    @pytest.mark.parametrize("counts", [(1, 1), (2, 2), (0, 0)])
    def test_random_networks(self, n_t, counts):
        net = random_network(15, 5, seed=n_t, n_t=n_t, demand_scale=0.002)
        self.assert_matches(net, RunConfig(n_v=counts[0], n_f=counts[1]))

    @pytest.mark.parametrize("n_t", [1, 3])
    def test_existing_prv_and_dbv(self, n_t):
        net = with_existing_valves(random_network(20, 6, seed=3, n_t=n_t), prv=4, dbv=7)
        assert net.prv_links == (4,) and net.dbv_links == (7,)
        self.assert_matches(net, RunConfig(n_v=1, n_f=1))

    def test_no_flushing_allowance(self):
        net = random_network(15, 5, seed=2, n_t=2, demand_scale=0.002)
        self.assert_matches(net, RunConfig(n_v=1, n_f=1, alpha_max=0.0))

    def test_tightened_flow_polytope(self):
        net = random_network(15, 5, seed=4, n_t=2, demand_scale=0.002)
        problem, report = tightened_bounds(net, RunConfig(n_v=1, n_f=1))
        assert report.iterations >= 1
        lp, vmap = build_lp(problem, 1, 1)
        ref, ref_vmap = relax_reference.build_lp(problem, 1, 1)
        assert_same_lp(lp, ref)
        assert_same_lp(flow_polytope(lp, vmap), relax_reference.flow_polytope(ref, ref_vmap))

    def test_one_call_of_each_envelope_builder(self, monkeypatch):
        net = random_network(15, 5, seed=1, n_t=3, demand_scale=0.002)
        problem = default_problem(net, RunConfig())
        calls = []
        for name in ("sigmoid_envelope", "hw_envelope"):
            def counted(*args, _name=name, _build=getattr(envelopes, name)):
                calls.append((_name, len(args[-1])))
                return _build(*args)
            monkeypatch.setattr(envelopes, name, counted)
        build_lp(problem, 1, 1)
        # one call each, over every (timestep, link) interval
        assert calls == [("sigmoid_envelope", 3 * net.n_p), ("hw_envelope", 3 * net.n_p)]


class TestVariableMap:
    def test_families_partition_the_columns(self):
        n_p, n_n, n_t = 5, 3, 4
        vmap = VariableMap(n_p, n_n, n_t)
        shapes = {"q": (n_t, n_p), "h": (n_t, n_n), "eta": (n_t, n_p),
                  "theta": (n_t, n_p), "alpha": (n_t, n_n), "sigma_pos": (n_t, n_p),
                  "sigma_neg": (n_t, n_p), "v_pos": (n_t, n_p), "v_neg": (n_t, n_p),
                  "z": (n_p,), "y": (n_n,)}
        for name, shape in shapes.items():
            cols = getattr(vmap, name)
            assert cols.shape == shape, name
            with pytest.raises(ValueError):
                cols[(0,) * cols.ndim] = 0
        every = np.concatenate([getattr(vmap, name).ravel() for name in shapes])
        assert np.array_equal(np.sort(every), np.arange(vmap.total))
        assert vmap.total == n_t * (7 * n_p + 2 * n_n) + n_p + n_n
