import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sccopt import sfscp
from sccopt.errors import AllStartsInfeasible, NonConvergence, SingularSystem
from sccopt.hydraulics import head_loss, headloss_params, simulate, solve_steady
from sccopt.lp import OPTIMAL, solve_lp
from sccopt.netgen import line_network, loop_network, random_network
from sccopt.netmodel import Link, NetworkModel, VALVE
from sccopt.pipeline import RunConfig, default_problem
from sccopt.relax import Problem, default_bounds
from sccopt.scc import SccParams, scc_smooth, scc_smooth_flows
from sccopt.sfscp import (_TRUST_FRACTION, Subproblem, ValveDesign, _step_lp,
                          enumerate_dbv_directions, multi_start, restore_feasibility,
                          sfscp_timestep)
from step_lp_reference import full_step_lp, tight_optimum


def single_pipe_net(demand=0.005, diameter=0.3):
    """One source, one pipe, one node: uncontrolled velocity 0.0707 m/s."""
    return line_network(1, demand=demand, length=1000.0, diameter=diameter,
                        hw=130.0, source_head=80.0)


def prv_loop_net():
    """Ring network with an existing PRV on one ring link."""
    base = loop_network(4, demand=0.012, length=1000.0, diameter=0.2,
                        source_head=60.0)
    links = list(base.links)
    lk = links[2]
    links[2] = Link(lk.id, lk.from_node, lk.to_node, VALVE, 0.0, 0.2, 0.0,
                    0.0, is_existing_prv=True)
    net = NetworkModel(links, base.nodes, base.sources, base.demands,
                       base.source_heads)
    net.validate()
    return net


class TestSinglePipeAfv:
    def test_hand_derived_velocity_target(self):
        net = single_pipe_net()
        area = net.areas[0]
        # flushing at the cap: u = (0.005 + 0.025) / area = 0.4244 m/s
        assert (0.005 + 0.025) / area == pytest.approx(0.424, abs=1e-3)

    def test_reaches_smoothed_objective_099(self):
        problem = default_problem(single_pipe_net(), RunConfig())
        design = ValveDesign(afv_nodes=(0,))
        t0 = time.perf_counter()
        sol = multi_start(problem, design, n_starts=2, seed=0)
        assert time.perf_counter() - t0 < 1.0
        assert sol.objective >= 0.99
        assert sol.alpha[0, 0] == pytest.approx(0.025, abs=1e-4)

    def test_uncontrolled_pipe_is_slow(self):
        net = single_pipe_net()
        problem = default_problem(net, RunConfig())
        state = simulate(net, problem.params)
        assert abs(state.velocities(net)[0, 0]) < 0.2
        assert scc_smooth(state, net, problem.scc_params) < 0.01


class TestIterationBehaviour:
    def test_objective_sequence_monotone(self, traced_timestep):
        problem = default_problem(prv_loop_net(), RunConfig())
        sub = Subproblem(problem, ValveDesign(prv_links=(2,)), 0, ())
        res, fs = traced_timestep(sub, np.zeros(len(sub.lo)))
        assert res is not None
        assert len(fs) >= 1
        assert all(b >= a - 1e-12 for a, b in zip(fs, fs[1:]))
        assert res[4] == fs[-1]

    @pytest.mark.parametrize("make_net, design", [
        (single_pipe_net, ValveDesign(afv_nodes=(0,))),
        (prv_loop_net, ValveDesign(prv_links=(2,))),
    ], ids=["single_pipe_afv", "prv_loop"])
    def test_iterations_count_accepted_iterates(self, make_net, design, traced_timestep):
        # the objectives are the start's plus one per accepted iterate; a
        # rejected last step or an infeasible step LP is not an iteration
        sub = Subproblem(default_problem(make_net(), RunConfig()), design, 0, ())
        res, fs = traced_timestep(sub, np.zeros(len(sub.lo)))
        assert res[5] == len(fs) - 1

    def test_final_iterate_resimulates_feasibly(self):
        net = prv_loop_net()
        problem = default_problem(net, RunConfig())
        params, bounds = problem.params, problem.bounds
        design = ValveDesign(prv_links=(2,))
        sol = multi_start(problem, design, n_starts=3, seed=1)
        for t in range(net.n_t):
            q, h = sol.state.q[t], sol.state.h[t]
            mass = net.A12.T @ q - net.demands[t] - sol.alpha[t]
            energy = (net.A12 @ h + net.A10 @ net.source_heads[t]
                      + head_loss(q, params)[0] + sol.eta[t])
            assert np.max(np.abs(mass)) <= 1e-8
            assert np.max(np.abs(energy)) <= 1e-6
            assert np.all(h >= bounds.h_lo[t] - 1e-6)

    def test_prv_eta_nonnegative(self):
        net = prv_loop_net()
        design = ValveDesign(prv_links=(2,))
        sol = multi_start(default_problem(net, RunConfig()), design, n_starts=3, seed=1)
        assert np.all(sol.eta[:, 2] >= -1e-12)
        assert np.all(sol.eta[:, [0, 1, 3, 4]] == 0.0)

    def test_improves_on_uncontrolled(self):
        net = prv_loop_net()
        problem = default_problem(net, RunConfig())
        design = ValveDesign(prv_links=(2,))
        sol = multi_start(problem, design, n_starts=3, seed=1)
        state = simulate(net, problem.params)
        assert sol.objective >= scc_smooth(state, net, problem.scc_params) - 1e-9


class TestPrvDirection:
    def test_throttled_prv_with_reversed_flow_is_infeasible(self):
        # a PRV with eta > 0 against its flow would add head, like a pump
        problem = default_problem(prv_loop_net(), RunConfig())
        sub = Subproblem(problem, ValveDesign(prv_links=(2,), afv_nodes=(1,)), 0, ())
        h = problem.bounds.h_hi[0]
        q = np.full(sub.net.n_p, 0.01)
        q_rev = q.copy()
        q_rev[2] = -0.01
        assert sub.feasible(np.array([2.0, 0.0]), q, h)
        assert sub.feasible(np.array([0.0, 0.01]), q_rev, h)
        assert not sub.feasible(np.array([2.0, 0.0]), q_rev, h)
        # the head floor still applies
        assert not sub.feasible(np.array([0.0, 0.0]), q, problem.bounds.h_lo[0] - 1.0)

    def test_dbv_and_afv_controls_are_not_prv_checked(self):
        problem = default_problem(prv_loop_net(), RunConfig())
        sub = Subproblem(problem, ValveDesign(dbv_links=(2,), afv_nodes=(1,)), 0, (-1,))
        q = np.full(sub.net.n_p, -0.01)
        assert sub.feasible(np.array([-2.0, 0.01]), q, problem.bounds.h_hi[0])
        assert sub.prv_x.size == 0 and sub.prv.size == 0


class TestStepLp:
    def test_point_solves_the_linearized_equations_in_the_trust_box(self):
        # the PRV link is a zero-loss valve, so its phi' is 0 at any flow
        net = prv_loop_net()
        problem = default_problem(net, RunConfig())
        params, bounds = problem.params, problem.bounds
        design = ValveDesign(prv_links=(2,), afv_nodes=(1,))
        eta_k = np.zeros(net.n_p)
        eta_k[2] = 2.0
        alpha_k = np.zeros(net.n_n)
        alpha_k[1] = 0.01
        d, h0 = net.demands[0], net.source_heads[0]
        q_k, h_k = solve_steady(net, params, d, h0, eta_k, alpha_k)
        tf = _TRUST_FRACTION
        sub = Subproblem(problem, design, 0, ())
        q, h, x = _step_lp(sub, q_k, h_k, np.array([2.0, 0.01]))
        eta, alpha = sub.unstack(x)
        assert np.max(np.abs(net.A12.T @ q - alpha - d)) <= 1e-12
        energy = (net.A12 @ h + net.A10 @ h0 + head_loss(q_k, params)[0]
                  + head_loss(q_k, params)[1] * (q - q_k) + eta)
        assert np.max(np.abs(energy)) <= 1e-7
        tol = 1e-9
        assert np.all(np.abs(q - q_k) <= tf * (bounds.q_hi[0] - bounds.q_lo[0]) + tol)
        assert np.all(np.abs(h - h_k) <= tf * (bounds.h_hi[0] - bounds.h_lo[0]) + tol)
        assert abs(eta[2] - eta_k[2]) <= tf * bounds.eta_hi[0, 2] + tol
        assert abs(alpha[1] - alpha_k[1]) <= tf * bounds.alpha_hi + tol
        assert np.all(eta[[0, 1, 3, 4]] == 0.0) and eta[2] >= 0.0
        assert np.all(alpha[[0, 2, 3]] == 0.0) and alpha[1] >= 0.0

    def test_no_controls_is_no_step(self, monkeypatch):
        # with nothing to move, the line search could accept no step anyway
        lps = counting(monkeypatch, "solve_lp")
        sub = Subproblem(default_problem(prv_loop_net(), RunConfig()), ValveDesign(), 0, ())
        q, h = sub.solve(np.zeros(0))
        assert _step_lp(sub, q, h, np.zeros(0)) is None and lps == []
        assert sfscp_timestep(sub, np.zeros(0))[4:] == (
            scc_smooth_flows(q[None, :], sub.net, sub.scc_params), 0)

    def test_singular_jacobian_is_no_step(self, monkeypatch):
        # a singular Jacobian ends the SCP like a failed LP, once per iterate
        def singular(*args):
            raise SingularSystem("test")

        calls = counting(monkeypatch, "jacobian_solve", singular)
        lps = counting(monkeypatch, "solve_lp")
        sub = Subproblem(default_problem(prv_loop_net(), RunConfig()),
                         ValveDesign(prv_links=(2,), afv_nodes=(1,)), 0, ())
        # a feasible start, so that the timestep solve reaches the step LP
        x = np.array([1.0, 0.01])
        q, h = sub.solve(x)
        assert sub.feasible(x, q, h)
        assert _step_lp(sub, q, h, x) is None and _step_lp(sub, q, h, x) is None
        assert len(calls) == 1 and lps == []
        assert sfscp_timestep(sub, x)[5] == 0

    @given(seed=st.integers(0, 100_000), zero_loss=st.booleans(),
           sign=st.sampled_from([1, -1]))
    @settings(max_examples=100, deadline=None)
    @example(seed=1189, zero_loss=False, sign=1)
    @example(seed=2154, zero_loss=True, sign=1)
    @example(seed=1014, zero_loss=False, sign=1)
    def test_matches_the_full_space_lp(self, seed, zero_loss, sign):
        # the LP over the controls alone against the same step with every
        # flow and head a column (tests/step_lp_reference.py), at a random
        # iterate of a random design; zero_loss makes the DBV link a
        # lossless valve, whose slope the step floors at 1e-12
        rng = np.random.default_rng(seed)
        net = random_network(int(rng.integers(3, 16)), int(rng.integers(0, 5)), seed=seed)
        j, i = int(rng.integers(net.n_p)), int(rng.integers(net.n_n))
        if zero_loss:
            links = list(net.links)
            lk = links[j]
            links[j] = Link(lk.id, lk.from_node, lk.to_node, VALVE, 0.0, lk.diameter, 0.0, 0.0)
            net = NetworkModel(links, net.nodes, net.sources, net.demands, net.source_heads)
        sub = Subproblem(default_problem(net, RunConfig()),
                         ValveDesign(dbv_links=(j,), afv_nodes=(i,)), 0, (sign,))
        x_k = sub.lo + rng.uniform(0.0, 1.0, 2) * (sub.hi - sub.lo)
        state = sub.solve(x_k)
        if state is None:
            return
        full = full_step_lp(sub, *state, x_k)
        ref, ours = solve_lp(full), _step_lp(sub, *state, x_k)
        assert (ours is not None) == (ref.status == OPTIMAL)
        if ours is None:
            return
        z = np.concatenate(ours)
        assert np.abs(full.A @ z - full.rhs).max() <= 1e-9
        # a flow or head is a row of the reduced LP, which HiGHS meets only to
        # its 1e-7 primal feasibility tolerance where the full LP holds the
        # column at its bound; and the LP itself may be infeasible by that
        # much, as the full LP's own point then is (seed 1189: a head 3.0e-8
        # below its bound, the full LP's point on it; seed 2154: 9.6e-8 each)
        slack = 1e-7 + max(0.0, np.max(full.lb - ref.x), np.max(ref.x - full.ub))
        assert np.all(z >= full.lb - slack) and np.all(z <= full.ub + slack)
        # seed 1014 is such an LP: infeasible at 1e-10, so it has no tight
        # optimum, and its optimal value holds only at HiGHS's tolerance
        best = tight_optimum(full)
        best = ref.objective if best is None else best
        assert abs(full.c @ z - best) <= 1e-9 * max(1.0, abs(best))


def box_oracle(bounds, t, design, directions):
    """The control box link by link, with Python's scalar min and max."""
    lo, hi = [], []
    for j in design.controllable_links:
        if directions.get(j, 1) > 0:
            lo.append(0.0)
            hi.append(max(0.0, bounds.eta_hi[t, j]))
        else:
            lo.append(min(0.0, bounds.eta_lo[t, j]))
            hi.append(0.0)
    for _ in design.afv_nodes:
        lo.append(0.0)
        hi.append(bounds.alpha_hi)
    return np.array(lo, dtype=float), np.array(hi, dtype=float)


def flow_box_oracle(bounds, t, design, directions, q_k):
    """The step LP's flow box link by link: the trust box, then each pinned
    flow bound with Python's scalar max and min."""
    span = _TRUST_FRACTION * (bounds.q_hi[t] - bounds.q_lo[t])
    lo = np.maximum(bounds.q_lo[t], q_k - span)
    hi = np.minimum(bounds.q_hi[t], q_k + span)
    for j in design.controllable_links:
        if j in directions:
            if directions[j] > 0:
                lo[j] = max(lo[j], 0.0)
            else:
                hi[j] = min(hi[j], 0.0)
    return lo, hi


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# a 5-link, 4-node network with two timesteps of bounds
N_P, N_N, N_T = 5, 4, 2
BOX_NET = loop_network(4, n_t=N_T)
signed = st.sampled_from([0.0, -0.0]) | st.floats(-10.0, 10.0)
signed_vectors = st.lists(signed, min_size=N_P, max_size=N_P).map(np.array)


@st.composite
def control_cases(draw):
    ctrl = draw(st.sets(st.integers(0, N_P - 1)))
    dbv = draw(st.sets(st.sampled_from(sorted(ctrl)))) if ctrl else set()
    design = ValveDesign(prv_links=tuple(sorted(ctrl - dbv)),
                         dbv_links=tuple(sorted(dbv)),
                         afv_nodes=tuple(sorted(draw(st.sets(st.integers(0, N_N - 1))))))
    signs = tuple(draw(st.sampled_from([1, -1])) for _ in design.dbv_links)
    grid = st.lists(signed, min_size=N_T * N_P, max_size=N_T * N_P)
    # the flow box may be inverted: the rule is the same either way
    q_lo, q_hi = np.reshape([draw(grid), draw(grid)], (2, N_T, N_P))
    bounds = SimpleNamespace(eta_lo=np.reshape(draw(grid), (N_T, N_P)),
                             eta_hi=np.reshape(draw(grid), (N_T, N_P)),
                             alpha_hi=draw(st.floats(0.0, 1.0)), q_lo=q_lo, q_hi=q_hi,
                             h_lo=np.zeros((N_T, N_N)), h_hi=np.ones((N_T, N_N)),
                             params=None)
    return bounds, draw(st.integers(0, N_T - 1)), design, signs


def fixed_case(design, signs=()):
    eta = np.array([[-1.0, 2.0, -0.0, 0.0, 3.0], [0.0, -2.0, 1.0, -0.0, -3.0]])
    bounds = SimpleNamespace(eta_lo=eta, eta_hi=-eta, alpha_hi=0.025,
                             q_lo=np.minimum(eta, -eta), q_hi=np.maximum(eta, -eta),
                             h_lo=np.zeros((N_T, N_N)), h_hi=np.ones((N_T, N_N)),
                             params=None)
    return bounds, 1, design, signs


def box_subproblem(case):
    bounds, t, design, signs = case
    return Subproblem(Problem(BOX_NET, None, bounds), design, t, signs)


def oracle_case(case):
    """``case`` with its signs as the {DBV link: sign} dict the oracles take."""
    bounds, t, design, signs = case
    return bounds, t, design, dict(zip(design.dbv_links, signs))


class TestControlBox:
    @given(case=control_cases())
    @example(case=fixed_case(ValveDesign()))
    @example(case=fixed_case(ValveDesign(afv_nodes=(0, 3))))
    @example(case=fixed_case(ValveDesign(prv_links=(1,), dbv_links=(0, 2, 3, 4)),
                             (-1, -1, -1, 1)))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_link_rule_bit_for_bit(self, case):
        sub = box_subproblem(case)
        lo_ref, hi_ref = box_oracle(*oracle_case(case))
        # same bits means the same values and the same signed zeros
        assert same_bits(sub.lo, lo_ref) and same_bits(sub.hi, hi_ref)

    @given(case=control_cases(), q_k=signed_vectors)
    @example(case=fixed_case(ValveDesign(prv_links=(1,), dbv_links=(0, 2, 3, 4)),
                             (-1, -1, 1, 1)),
             q_k=np.array([-0.0, 0.0, 0.0, -0.0, 1.0]))
    @settings(max_examples=300, deadline=None)
    def test_pinned_flow_box_matches_the_per_link_rule_bit_for_bit(self, case, q_k):
        lo, hi = box_subproblem(case).flow_box(q_k)
        lo_ref, hi_ref = flow_box_oracle(*oracle_case(case), q_k)
        assert same_bits(lo, lo_ref) and same_bits(hi, hi_ref)

    @given(case=control_cases(),
           eta=st.lists(signed, min_size=N_P, max_size=N_P),
           alpha=st.lists(signed, min_size=N_N, max_size=N_N))
    @example(case=fixed_case(ValveDesign()), eta=[-0.0] * N_P, alpha=[-0.0] * N_N)
    @settings(max_examples=200, deadline=None)
    def test_unstack_inverts_stack_on_the_controls(self, case, eta, alpha):
        _, _, design, _ = case
        sub = box_subproblem(case)
        eta, alpha = np.array(eta), np.array(alpha)
        # multi_start stacks its starts this way
        x = np.concatenate([eta[design.controllable_links], alpha[design.flushing_nodes]])
        eta2, alpha2 = sub.unstack(x)
        for full, back, idx in ((eta, eta2, list(design.controllable_links)),
                                (alpha, alpha2, list(design.afv_nodes))):
            assert same_bits(back[idx], full[idx])
            rest = np.delete(back, idx)
            assert np.all(rest == 0.0) and not np.any(np.signbit(rest))

    @given(ends=st.lists(st.tuples(*[st.floats(-1e9, 1e9)] * 3),
                         min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_trust_box_around_a_clipped_centre_never_inverts(self, ends):
        # _step_lp passes this box to its LP unswapped: every control box has
        # lo <= hi, and the iterate is clipped into it first
        a, b, c = map(np.array, zip(*ends))
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        x_lo, x_hi = sfscp._trust_box(lo, hi, np.clip(c, lo, hi))
        assert np.all(lo <= x_lo) and np.all(x_lo <= x_hi) and np.all(x_hi <= hi)


class TestSubproblem:
    def test_arrays_are_read_only(self):
        problem = default_problem(prv_loop_net(), RunConfig())
        design = ValveDesign(prv_links=(2,), dbv_links=(4,), afv_nodes=(1,))
        sub = Subproblem(problem, design, 0, (-1,))
        arrays = {k: a for k, a in vars(sub).items() if isinstance(a, np.ndarray)}
        assert set(arrays) == {
            "ctrl", "afv", "prv_x", "prv", "d", "h0", "q_lo", "q_hi", "h_lo", "h_hi",
            "lo", "hi", "pin_pos", "pin_neg", "energy_rhs", "control_rhs"}
        arrays.update(controllable_links=design.controllable_links,
                      flushing_nodes=design.flushing_nodes)
        for name, a in arrays.items():
            assert a.size, name
            with pytest.raises(ValueError):
                a[0] = a[0]
        # the Problem's box cannot be edited either, so the box stays as built
        h_lo = sub.h_lo.copy()
        with pytest.raises(ValueError):
            problem.bounds.h_lo[0] += 1.0
        assert np.array_equal(sub.h_lo, h_lo)
        assert sub.signs == (-1,) and sub.states is problem.states and sub.steps == {}
        assert list(sub.prv_x) == [0] and list(sub.prv) == [2]
        assert list(np.flatnonzero(sub.pin_neg)) == [4] and not sub.pin_pos.any()

    def test_multi_start_compiles_each_subproblem_once(self, monkeypatch):
        net = loop_network(4, demand=0.012, diameter=0.2, source_head=60.0, n_t=2)
        problem = default_problem(net, RunConfig())
        built = []

        class Counted(Subproblem):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr("sccopt.sfscp.Subproblem", Counted)
        sol = multi_start(problem, ValveDesign(dbv_links=(1,), afv_nodes=(2,)),
                          n_starts=6, seed=0)
        # one per (timestep, direction), however many starts run, all on
        # the one Problem and so on its one states cache
        assert [b[2:] for b in built] == [(0, (1,)), (0, (-1,)),
                                          (1, (1,)), (1, (-1,))]
        assert all(b[0] is problem for b in built)
        assert len(sol.directions) == net.n_t

    def test_multi_start_pins_every_dbv_and_no_prv(self, monkeypatch):
        net = loop_network(4, demand=0.012, diameter=0.2, source_head=60.0, n_t=2)
        design = ValveDesign(prv_links=(0,), dbv_links=(1, 3), afv_nodes=(2,))
        built = []

        class Recorded(Subproblem):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr("sccopt.sfscp.Subproblem", Recorded)
        multi_start(default_problem(net, RunConfig()), design, n_starts=1, seed=0)
        dbv_mask = np.isin(np.arange(net.n_p), design.dbv_links)
        for sub in built:
            assert np.array_equal(sub.pin_pos | sub.pin_neg, dbv_mask)
            assert not np.any(sub.pin_pos & sub.pin_neg)
            assert np.array_equal(sub.pin_neg[[1, 3]], np.array(sub.signs) < 0)
        for t in range(net.n_t):
            assert sorted(sub.signs for sub in built if sub.t == t) == [
                (-1, -1), (-1, 1), (1, -1), (1, 1)]


def counting(monkeypatch, name, fn=None):
    """Replace ``sccopt.sfscp.<name>`` by a wrapper of ``fn`` (the original
    by default) that counts its calls; returns the list of calls."""
    fn = fn or getattr(sfscp, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(sfscp, name, counted)
    return calls


class TestRunMemo:
    def subproblem(self, design=ValveDesign(prv_links=(2,), afv_nodes=(1,)), t=0,
                   signs=(), problem=None):
        return Subproblem(problem or default_problem(prv_loop_net(), RunConfig()),
                          design, t, signs)

    def test_repeated_solve_is_one_newton_solve_with_the_same_bits(self, monkeypatch):
        calls = counting(monkeypatch, "solve_steady")
        sub = self.subproblem()
        x = np.array([2.0, 0.01])
        q, h = sub.solve(x)
        q2, h2 = sub.solve(x.copy())
        assert len(calls) == 1
        assert same_bits(q, q2) and same_bits(h, h2)
        q_ref, h_ref = solve_steady(sub.net, sub.params, sub.d, sub.h0, *sub.unstack(x))
        assert same_bits(q, q_ref) and same_bits(h, h_ref)

    def test_stored_arrays_are_read_only(self):
        sub = self.subproblem()
        x = np.array([2.0, 0.01])
        q, h = sub.solve(x)
        for a in (q, h, *_step_lp(sub, q, h, x)):
            with pytest.raises(ValueError):
                a[0] = 0.0
        assert same_bits(sub.solve(x)[0], q)

    def test_failed_solve_is_tried_once(self, monkeypatch):
        def diverge(*args, **kwargs):
            raise NonConvergence("test")

        calls = counting(monkeypatch, "solve_steady", diverge)
        sub = self.subproblem()
        x = np.array([2.0, 0.01])
        assert sub.solve(x) is None and sub.solve(x) is None
        assert len(calls) == 1

    def test_states_are_shared_across_designs(self, monkeypatch):
        # eta = 0 with the AFV at its cap is the same solve for every DBV
        calls = counting(monkeypatch, "solve_steady")
        problem = default_problem(loop_network(4), RunConfig())
        subs = [self.subproblem(ValveDesign(dbv_links=(j,), afv_nodes=(2,)),
                                signs=(-1,), problem=problem) for j in (1, 3)]
        x = np.array([0.0, subs[0].hi[-1]])
        assert subs[0].solve(x) is subs[1].solve(x)
        assert len(calls) == 1

    def test_timesteps_never_share_an_entry(self, monkeypatch):
        # both timesteps have the same demands, so only t tells them apart
        calls = counting(monkeypatch, "solve_steady")
        net = loop_network(4, n_t=2)
        problem = default_problem(net, RunConfig())
        state = simulate(net, headloss_params(net))
        x = np.array([0.01])
        subs = []
        for t in (0, 1):
            subs.append(self.subproblem(ValveDesign(afv_nodes=(2,)), t, problem=problem))
            subs[-1].solve(x)
            _step_lp(subs[-1], state.q[t], state.h[t], x)
        assert len(calls) == 2 and len(problem.states) == 2
        assert [len(sub.steps) for sub in subs] == [1, 1]

    def test_repeated_step_lp_is_one_lp(self, monkeypatch):
        calls = counting(monkeypatch, "solve_lp")
        sub = self.subproblem()
        x = np.array([2.0, 0.01])
        q, h = sub.solve(x)
        first = _step_lp(sub, q, h, x)
        again = _step_lp(sub, q.copy(), h.copy(), x.copy())
        assert len(calls) == 1
        assert all(same_bits(a, b) for a, b in zip(first, again))

    def test_subproblems_share_states_but_not_steps(self, monkeypatch):
        # two compilations of one (t, design, signs) on one Problem: a state
        # solved by one is a hit for the other, a step LP is not
        newton, lps = counting(monkeypatch, "solve_steady"), counting(monkeypatch, "solve_lp")
        problem = default_problem(prv_loop_net(), RunConfig())
        a, b = (self.subproblem(problem=problem) for _ in range(2))
        assert a.states is b.states is problem.states
        assert a.steps is not b.steps
        x = np.array([2.0, 0.01])
        q, h = a.solve(x)
        assert b.solve(x)[0] is q and len(newton) == 1
        first = _step_lp(a, q, h, x)
        again = _step_lp(b, q, h, x)
        assert len(lps) == 2 and len(a.steps) == len(b.steps) == 1
        assert all(same_bits(u, v) for u, v in zip(first, again))


class TestGridSearchOracle:
    def test_single_prv_matches_scalar_scan(self):
        net = prv_loop_net()
        problem = default_problem(net, RunConfig())
        params, scc_params, bounds = problem.params, problem.scc_params, problem.bounds
        design = ValveDesign(prv_links=(2,))
        # brute-force oracle: scan eta on the PRV link
        best = -np.inf
        for eta_v in np.linspace(0.0, bounds.eta_hi[0, 2], 400):
            eta = np.zeros(net.n_p)
            eta[2] = eta_v
            try:
                state = simulate(net, params, eta=eta[None, :])
            except Exception:
                continue
            if np.any(state.h[0] < bounds.h_lo[0] - 1e-6):
                continue
            best = max(best, scc_smooth(state, net, scc_params))
        sol = multi_start(problem, design, n_starts=5, seed=0)
        assert sol.objective >= best - 0.01 * max(abs(best), 1e-9)


class TestDirectionEnumeration:
    def test_dbv_direction_count_and_dominance(self):
        net = prv_loop_net()
        problem = default_problem(net, RunConfig())
        design = ValveDesign.from_network(net, dbv_links=(4,))
        subs = [Subproblem(problem, design, 0, (s,)) for s in (1, -1)]
        x0 = np.zeros(len(subs[0].lo))
        res = enumerate_dbv_directions(subs, x0)
        assert res is not None
        (eta, alpha, q, h, f_best, _), signs = res
        assert len(signs) == 1 and signs[0] in (1, -1)
        pos_only = sfscp_timestep(subs[0], x0)
        assert f_best >= pos_only[4] - 1e-9


class TestRestoration:
    def test_restores_pressure_with_prv_start_too_high(self):
        # a huge eta start violates the 15 m floor; restoration returns the
        # open control, which meets it, but the timestep solve gives the
        # start up: multi_start runs the open control as a start of its own
        problem = default_problem(prv_loop_net(), RunConfig())
        bounds = problem.bounds
        design = ValveDesign(prv_links=(2,))
        sub = Subproblem(problem, design, 0, ())
        start = np.array([bounds.eta_hi[0, 2]])
        assert not sub.feasible(start, *sub.solve(start))
        out = restore_feasibility(sub)
        assert out is not None
        x, _, h = out
        assert np.array_equal(x, [0.0])
        assert np.all(h >= bounds.h_lo[0] - 1e-6)
        assert sfscp_timestep(sub, start) is None

    def test_all_starts_infeasible_raises(self):
        # pressure floor above what the source can deliver anywhere
        net = single_pipe_net()
        bounds = default_bounds(net, headloss_params(net))
        bounds.h_lo[:] = 85.0  # above the 80 m source head
        problem = Problem(net, SccParams.from_network(net), bounds)
        design = ValveDesign(afv_nodes=(0,))
        with pytest.raises(AllStartsInfeasible,
                           match="^no feasible control at timestep 0 across 2 starts$"):
            multi_start(problem, design, n_starts=2, seed=0)

    def test_hopeless_restoration_returns_none(self):
        # with the floor above the source head not even the open control is
        # feasible, so restoration and the timestep solve give up
        net = single_pipe_net()
        bounds = default_bounds(net, headloss_params(net))
        bounds.h_lo[:] = 85.0  # above the 80 m source head
        sub = Subproblem(Problem(net, SccParams.from_network(net), bounds),
                         ValveDesign(afv_nodes=(0,)), 0, ())
        assert restore_feasibility(sub) is None
        assert sfscp_timestep(sub, np.array([0.01])) is None


class TestTimestepPicks:
    """multi_start keeps each timestep's best start, so it scores at least
    every start that is feasible over the whole horizon."""

    def test_fixed_case_beats_every_whole_horizon_start(self):
        # ranking whole-horizon starts scored 0.4589925960393185 here
        net = random_network(12, 3, seed=5, n_t=2, demand_scale=0.004)
        sol = multi_start(default_problem(net, RunConfig()),
                          ValveDesign.from_network(net, (0,), ()), 5, 0)
        assert sol.objective == 0.5003915384332094

    @given(n_nodes=st.integers(4, 12), extra=st.integers(0, 4),
           net_seed=st.integers(0, 10_000), n_t=st.integers(2, 3),
           link=st.integers(0, 100), node=st.integers(0, 100),
           n_starts=st.integers(1, 7), seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_no_lower_than_the_best_whole_horizon_start(self, n_nodes, extra, net_seed,
                                                        n_t, link, node, n_starts, seed):
        net = random_network(n_nodes, extra, seed=net_seed, n_t=n_t, demand_scale=0.004)
        problem = default_problem(net, RunConfig())
        design = ValveDesign.from_network(net, (link % net.n_p,), (node % net.n_n,))
        results, enumerate_ = {}, sfscp.enumerate_dbv_directions

        def record(subs, x0):
            res = enumerate_(subs, x0)
            results.setdefault(subs[0].t, []).append(res)
            return res

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sfscp, "enumerate_dbv_directions", record)
            try:
                sol = multi_start(problem, design, n_starts, seed)
            except AllStartsInfeasible:
                # then no start is feasible at some timestep
                assert any(all(r is None for r in rows) for rows in results.values())
                return
        assert len(sol.starts) == len(sol.directions) == n_t
        for t, rows in results.items():
            assert rows[sol.starts[t]][1] == sol.directions[t]
            assert same_bits(rows[sol.starts[t]][0][2], sol.state.q[t])
        # the picks are ranked on one-row scores, the objective on the
        # stacked rows, which may round lower
        whole = [scc_smooth_flows(np.array([r[0][2] for r in column]), net,
                                  problem.scc_params)
                 for column in zip(*results.values()) if None not in column]
        assert sol.objective >= max(whole, default=-np.inf) - 1e-15


class TestDeterminism:
    def test_same_seed_same_solution(self):
        net = prv_loop_net()
        design = ValveDesign(prv_links=(2,))
        # two Problems, so b is a fresh computation and not a memo hit
        a = multi_start(default_problem(net, RunConfig()), design, n_starts=3, seed=99)
        b = multi_start(default_problem(net, RunConfig()), design, n_starts=3, seed=99)
        assert a.objective == b.objective
        assert np.array_equal(a.eta, b.eta)
        assert np.array_equal(a.alpha, b.alpha)


class TestRandomStarts:
    @pytest.mark.parametrize("design, n_fixed", [
        (ValveDesign(prv_links=(0,), dbv_links=(1, 3), afv_nodes=(2,)), 4),
        (ValveDesign(afv_nodes=(2,)), 2)], ids=["valves", "afv_only"])
    def test_draws_match_a_per_link_loop(self, monkeypatch, design, n_fixed):
        # each random start draws one link's timesteps after another, then
        # the flushing; link 3's eta range is a single point
        net = loop_network(4, demand=0.012, diameter=0.2, source_head=60.0, n_t=2)
        base = default_problem(net, RunConfig())
        bounds = base.bounds.copy()
        bounds.eta_lo[:, 3] = bounds.eta_hi[:, 3] = 0.0
        problem = Problem(net, base.scc_params, bounds)
        by_t, enumerate_ = {}, sfscp.enumerate_dbv_directions

        def record(subs, x0):
            by_t.setdefault(subs[0].t, []).append(x0)
            # from the open control, so that every timestep has a pick
            return enumerate_(subs, np.zeros_like(x0))

        monkeypatch.setattr(sfscp, "enumerate_dbv_directions", record)
        n_random, seed = 3, 7
        multi_start(problem, design, n_starts=n_fixed + n_random, seed=seed)
        # each timestep runs the starts in order: the k-th call of each is
        # start k's row of that timestep
        assert list(by_t) == list(range(net.n_t))
        starts = [list(rows) for rows in zip(*by_t.values())]
        assert len(starts) == n_fixed + n_random
        assert all(len(rows) == len(starts) for rows in by_t.values())

        ctrl, afv = design.controllable_links, design.flushing_nodes
        e_lo = np.minimum(bounds.eta_lo[:, ctrl], 0.0)
        e_hi = np.maximum(bounds.eta_hi[:, ctrl], 0.0)
        for k, seq in enumerate(np.random.SeedSequence(seed).spawn(n_random)):
            rng = np.random.default_rng(seq)
            draw = np.zeros((net.n_t, len(ctrl)))
            for i in range(len(ctrl)):
                draw[:, i] = rng.uniform(e_lo[:, i], e_hi[:, i])
            alpha = rng.uniform(0.0, bounds.alpha_hi, size=(net.n_t, len(afv)))
            expected = np.concatenate([draw, alpha], axis=1)
            assert same_bits(np.array(starts[n_fixed + k]), expected)
