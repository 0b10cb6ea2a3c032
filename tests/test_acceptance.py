"""End-to-end acceptance tests.

Each test covers one headline requirement of the solver stack and prints a
single PASS line with the measured quantities once its assertions hold.
"""
import time
from pathlib import Path

import numpy as np
import pytest

from sccopt.envelopes import hw, hw_envelope, sigmoid_envelope
from sccopt.hydraulics import head_loss, headloss_params, simulate, solve_steady
from sccopt.netgen import grid_network, line_network, loop_network, random_network
from sccopt.netmodel import count_variables
from sccopt.obbt import tighten
from sccopt.pipeline import (RunConfig, default_problem, performance_profile, run_cms,
                             run_control_only, uncontrolled_state)
from sccopt.relax import build_lp, lp_bound
from sccopt.lp import OPTIMAL, solve_lp
from sccopt.sampler import sample_designs
from sccopt.scc import (SccParams, scc_smooth, scc_smooth_flows, scc_smooth_grad_flows,
                        sigmoid)
from sccopt.sfscp import Subproblem, ValveDesign, multi_start

DATA_DIR = Path(__file__).parent.parent / "data"


def test_steady_solver_on_50_random_networks():
    """Mass residual <= 1e-8 and energy residual <= 1e-6 on 50 random nets."""
    rng = np.random.default_rng(2024)
    worst_mass = worst_energy = worst_time = 0.0
    for k in range(50):
        n_nodes = int(rng.integers(5, 60))
        extra = int(rng.integers(0, max(2, n_nodes // 3)))
        net = random_network(n_nodes=n_nodes, extra_edges=extra, seed=1000 + k)
        params = headloss_params(net)
        t0 = time.perf_counter()
        q, h = solve_steady(net, params, net.demands[0], net.source_heads[0])
        dt = time.perf_counter() - t0
        mass = np.max(np.abs(net.A12.T @ q - net.demands[0]))
        energy = np.max(np.abs(net.A12 @ h + net.A10 @ net.source_heads[0]
                               + head_loss(q, params)[0]))
        assert mass <= 1e-8, f"net {k}: mass residual {mass:.3g}"
        assert energy <= 1e-6, f"net {k}: energy residual {energy:.3g}"
        assert dt < 1.0, f"net {k}: solve took {dt:.2f}s"
        worst_mass = max(worst_mass, mass)
        worst_energy = max(worst_energy, energy)
        worst_time = max(worst_time, dt)
    print(f"\n[acceptance 1] PASS steady solver: 50 nets, worst mass "
          f"{worst_mass:.2e}, worst energy {worst_energy:.2e}, "
          f"worst time {worst_time*1e3:.0f} ms")


def test_gradients_match_finite_differences():
    """Objective gradient within rel 1e-4 and head-loss slope within rel
    1e-5 of central finite differences over 500 points, in under 10 s."""
    t0 = time.perf_counter()
    net = loop_network(5, demand=0.01, diameter=0.2, source_head=60.0)
    sp = SccParams.from_network(net)
    params = headloss_params(net)
    rng = np.random.default_rng(7)

    # objective gradient: 100 random flow vectors x (n_p >= 5) components
    checks = 0
    eps = 1e-6
    for _ in range(100):
        q = rng.uniform(-0.08, 0.08, size=net.n_p)
        g = scc_smooth_grad_flows(q[None, :], net, sp)[0]
        for j in range(min(5, net.n_p)):
            qp, qm = q.copy(), q.copy()
            qp[j] += eps
            qm[j] -= eps
            fd = (scc_smooth_flows(qp[None, :], net, sp)
                  - scc_smooth_flows(qm[None, :], net, sp)) / (2 * eps)
            assert g[j] == pytest.approx(fd, rel=1e-4, abs=1e-8)
            checks += 1
    assert checks >= 500

    # head-loss slope: 500 flows outside the cubic smoothing band, where the
    # power law is exact and central differences are well conditioned
    qs = rng.uniform(3 * params.q_eps, 0.2, size=500) * rng.choice([-1.0, 1.0], 500)
    eps_q = 1e-7
    fd = (head_loss(qs + eps_q, _scalarize(params, qs))[0] -
          head_loss(qs - eps_q, _scalarize(params, qs))[0]) / (2 * eps_q)
    an = head_loss(qs, _scalarize(params, qs))[1]
    rel = np.abs(an - fd) / np.maximum(np.abs(fd), 1e-12)
    assert np.max(rel) <= 1e-5
    dt = time.perf_counter() - t0
    assert dt < 10.0
    print(f"\n[acceptance 2] PASS gradients: {checks} objective checks, "
          f"500 slope checks, worst slope rel err {np.max(rel):.2e}, {dt:.1f}s")


def _scalarize(params, qs):
    from sccopt.hydraulics import HeadLossParams
    return HeadLossParams(np.full(qs.shape, params.r[0]),
                          np.full(qs.shape, params.n_exp[0]), params.q_eps)


SIGMOID_CASES = [
    (-1.0, 2.0),   # chord plus interior tangent
    (0.25, 1.5),   # entirely concave: endpoint tangents
    (-1.0, 0.21),  # tangency beyond the right end: secant
    (-0.5, -0.1),  # entirely convex: secant
]
HW_CASES = [
    (-0.1, 0.1),    # sign change, tangents exist on both sides
    (0.02, 0.1),    # strictly positive flow
    (-0.1, -0.02),  # strictly negative flow
    (-0.001, 0.1),  # left end inside the concave-side tangency window
    (-0.1, 0.001),  # right end inside the convex-side tangency window
]


def test_envelope_cases_contain_function():
    """Nine envelope configurations: containment violation <= 1e-9 at 1000
    points and tangency residual <= 1e-9, in under 10 s."""
    t0 = time.perf_counter()
    rho, umin = 50.0, 0.2
    r, n = 456.6, 1.852
    worst = 0.0
    for (u_L, u_U) in SIGMOID_CASES:
        (coeff, rhs, keep), _neg = sigmoid_envelope(rho, umin, u_L, u_U)
        xs = np.linspace(u_L, u_U, 1000)
        vals = sigmoid(xs, rho, umin)
        for c, b in zip(coeff[0][keep[0]], rhs[0][keep[0]]):
            # cut c*u + psi <= b must over-estimate psi
            est = b - c * xs
            gap = np.max(vals - est)
            assert gap <= 1e-9
            worst = max(worst, gap)
            # each cut touches the curve somewhere in the interval
            assert np.min(est - vals) <= 1e-9
    for (q_L, q_U) in HW_CASES:
        lower, upper = hw_envelope(r, n, q_L, q_U)
        xs = np.linspace(q_L, q_U, 1000)
        vals = hw(xs, r, n)
        for (coeff, rhs, keep), side in ((upper, 1.0), (lower, -1.0)):
            for c, b in zip(coeff[0][keep[0]], rhs[0][keep[0]]):
                # upper: c*q + theta <= b; lower: c*q - theta <= b
                est = side * (b - c * xs)
                gap = np.max(side * (vals - est))
                assert gap <= 1e-9
                worst = max(worst, gap)
                assert np.min(side * (est - vals)) <= 1e-9
    dt = time.perf_counter() - t0
    assert dt < 10.0
    print(f"\n[acceptance 3] PASS envelopes: 9 cases, worst containment "
          f"violation {worst:.2e}, {dt:.1f}s")


def test_relaxation_bounds_feasible_controls():
    """The LP bound dominates the smoothed objective of simulated feasible
    controls on 20 fixtures, and the variable-count identities are exact."""
    rng = np.random.default_rng(11)
    checked = 0
    for k in range(20):
        size = 4 + k % 5
        net = loop_network(size, demand=0.008 + 0.001 * (k % 4),
                           diameter=0.2, source_head=60.0)
        problem = default_problem(net, RunConfig())
        params, sp, bounds = problem.params, problem.scc_params, problem.bounds
        lp, vmap = build_lp(problem, 1, 0)
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        ub = lp_bound(sol)
        # a feasible control: throttle one link by a modest random amount
        eta = np.zeros((net.n_t, net.n_p))
        j = int(rng.integers(0, net.n_p))
        eta[:, j] = rng.uniform(0.0, 0.25) * bounds.eta_hi[:, j]
        state = simulate(net, params, eta=eta)
        if np.any(state.h < bounds.h_lo - 1e-9):
            eta[:] = 0.0
            state = simulate(net, params)
        f = scc_smooth(state, net, sp)
        assert f <= ub + 1e-6, f"fixture {k}: {f:.6f} > bound {ub:.6f}"
        checked += 1
    assert checked == 20

    a = count_variables(98, 67, 4)
    assert (a.continuous, a.binary, a.nonconvex) == (1712, 949, 784)
    b = count_variables(317, 268, 4)
    assert (b.continuous, b.binary, b.nonconvex) == (5948, 3121, 2536)
    print("\n[acceptance 4] PASS relaxation: bound dominates 20 simulated "
          "controls; variable-count identities exact")


def test_obbt_tightens_with_exact_solve_count():
    """Bound tightening never widens an interval, uses exactly 2*n_t*|core|
    LP solves per iteration, and finishes the ring fixture in under 5 s."""
    net = loop_network(6, demand=0.01, diameter=0.2, source_head=60.0)
    problem = default_problem(net, RunConfig())
    before = problem.bounds
    core = net.core_links
    t0 = time.perf_counter()
    tightened, report = tighten(problem, 1, 1)
    after = tightened.bounds
    dt = time.perf_counter() - t0
    assert dt < 5.0
    assert report.iterations >= 1
    assert report.lp_solves == report.iterations * 2 * net.n_t * len(core)
    assert np.all(after.q_lo >= before.q_lo - 1e-9)
    assert np.all(after.q_hi <= before.q_hi + 1e-9)
    # the tightened box still contains simulated feasible flows
    state = simulate(net, problem.params)
    assert np.all(state.q >= after.q_lo - 1e-9)
    assert np.all(state.q <= after.q_hi + 1e-9)
    print(f"\n[acceptance 5] PASS bound tightening: {report.iterations} "
          f"iterations, {report.lp_solves} LP solves "
          f"(= iters * 2 * {net.n_t} * {len(core)}), {dt:.2f}s")


def test_sampler_frequencies_and_determinism():
    """Uniform fractional weights yield per-index frequency within +-0.02
    over 10000 draws; draws are distinct per call and seed-deterministic."""
    z = np.full(5, 0.2)
    counts = np.zeros(5)
    n = 10_000
    for k in range(n):
        (dbv, _), = sample_designs(np.array([1.0]), z, 1, 0, 1, seed=k)
        counts[dbv[0]] += 1
    freq = counts / n
    assert np.all(np.abs(freq - 0.2) <= 0.02)

    batch = sample_designs(np.full(6, 1 / 6), np.full(6, 1 / 6), 2, 1, 30, seed=5)
    assert len(batch) == len(set(batch))
    again = sample_designs(np.full(6, 1 / 6), np.full(6, 1 / 6), 2, 1, 30, seed=5)
    assert batch == again
    print(f"\n[acceptance 6] PASS sampler: frequencies {np.round(freq, 3)}, "
          "distinct and deterministic")


def test_control_solver_monotone_and_single_pipe_target(traced_timestep):
    """Per-timestep iterations only improve the objective while staying
    pressure-feasible; a one-pipe flushing fixture reaches 0.99 in < 1 s."""
    net = loop_network(4, demand=0.012, diameter=0.2, source_head=60.0)
    problem = default_problem(net, RunConfig())
    design = ValveDesign.from_network(net, dbv_links=(1,))
    res, fs = traced_timestep(Subproblem(problem, design, 0, (1,)), np.zeros(1))
    assert res is not None
    assert all(b >= a - 1e-12 for a, b in zip(fs, fs[1:]))
    eta, alpha, q, h, f_final, _ = res
    assert np.all(h >= problem.bounds.h_lo[0] - 1e-6)

    pipe = line_network(1, demand=0.005, length=1000.0, diameter=0.3,
                        hw=130.0, source_head=80.0)
    # flushing at the cap raises the velocity to (0.005+0.025)/area = 0.424
    assert (0.005 + 0.025) / pipe.areas[0] == pytest.approx(0.424, abs=1e-3)
    t0 = time.perf_counter()
    sol = multi_start(default_problem(pipe, RunConfig()), ValveDesign(afv_nodes=(0,)),
                      n_starts=2, seed=0)
    dt = time.perf_counter() - t0
    assert dt < 1.0
    assert sol.objective >= 0.99
    print(f"\n[acceptance 7] PASS control solver: monotone trace "
          f"({len(fs)} iters), single-pipe objective {sol.objective:.4f} "
          f"in {dt*1e3:.0f} ms")


@pytest.fixture(scope="module")
def grid_fixture():
    return grid_network(5, 5, demand=0.003, length=500.0, diameter=0.2,
                        hw=130.0, source_head=70.0, seed=7)


def _exhaustive_oracle(net, alpha_cap):
    """Best smoothed objective over every (valve link, flushing node) pair
    using a coarse setting grid per placement."""
    problem = default_problem(net, RunConfig(alpha_max=alpha_cap))
    params, sp, bounds = problem.params, problem.scc_params, problem.bounds
    d, h0 = net.demands[0], net.source_heads[0]
    qb, hb = solve_steady(net, params, d, h0)
    best = -np.inf
    for j in range(net.n_p):
        e_grid = np.unique(np.concatenate(
            [np.linspace(bounds.eta_lo[0, j], bounds.eta_hi[0, j], 5), [0.0]]))
        for i in range(net.n_n):
            for ev in e_grid:
                for av in (0.0, alpha_cap):
                    eta = np.zeros(net.n_p)
                    eta[j] = ev
                    alpha = np.zeros(net.n_n)
                    alpha[i] = av
                    try:
                        q, h = solve_steady(net, params, d, h0, eta, alpha,
                                            q0=qb, h0_guess=hb)
                    except Exception:
                        continue
                    if np.any(h < bounds.h_lo[0] - 1e-6):
                        continue
                    best = max(best,
                               scc_smooth_flows(q[None, :], net, sp))
    return best


def test_grid_design_within_2pct_of_exhaustive(grid_fixture):
    """On a 25-node grid with one valve and one flushing point, the full
    pipeline lands within 0.02 (absolute) of an exhaustive placement-and-
    settings grid search, in under 60 s."""
    net = grid_fixture
    cfg = RunConfig(n_v=1, n_f=1, n_samples=40, n_starts=4, seed=0)
    oracle = _exhaustive_oracle(net, cfg.alpha_max)
    t0 = time.perf_counter()
    sol = run_cms(net, cfg)
    dt = time.perf_counter() - t0
    assert dt < 60.0
    assert sol.scc_smooth >= oracle - 0.02, (
        f"pipeline {sol.scc_smooth:.4f} vs exhaustive {oracle:.4f}")
    print(f"\n[acceptance 8] PASS grid design: pipeline {sol.scc_smooth:.4f} "
          f"vs exhaustive {oracle:.4f} (gap {oracle - sol.scc_smooth:.4f}), "
          f"{dt:.1f}s")


def test_capability_chain_is_monotone(grid_fixture):
    """Uncontrolled <= settings-only <= design+settings <= relaxation bound
    (tolerance 1e-6) on ring and grid fixtures."""
    for name, net, cfg in [
        ("ring", loop_network(4, demand=0.012, diameter=0.2, source_head=60.0),
         RunConfig(n_v=1, n_f=1, n_samples=5, n_starts=2, seed=11)),
        ("grid", grid_fixture,
         RunConfig(n_v=1, n_f=1, n_samples=10, n_starts=3, seed=1)),
    ]:
        sp = SccParams.from_network(net)
        f_unc = scc_smooth(uncontrolled_state(net), net, sp)
        ctrl = run_control_only(net, RunConfig(seed=cfg.seed, n_starts=2))
        design = run_cms(net, cfg, warm_control=ctrl)
        assert f_unc <= ctrl.scc_smooth + 1e-6
        assert ctrl.scc_smooth <= design.scc_smooth + 1e-6
        assert design.scc_smooth <= design.lp_upper_bound + 1e-6
        print(f"\n[acceptance 9] PASS {name} chain: {f_unc:.4f} <= "
              f"{ctrl.scc_smooth:.4f} <= {design.scc_smooth:.4f} <= "
              f"{design.lp_upper_bound:.4f}")


@pytest.mark.parametrize("name", ["pescara", "modena"])
def test_benchmark_networks_if_available(name):
    """Optional: run the pipeline on benchmark networks when their input
    files are present; otherwise skip."""
    path = DATA_DIR / f"{name}.inp"
    if not path.exists():
        pytest.skip(f"benchmark input {path} not available")
    from sccopt.netmodel import parse_inp
    net = parse_inp(path.read_text())
    sol = run_cms(net, RunConfig(n_v=1, n_f=1, n_samples=10, n_starts=3,
                                 seed=0))
    assert sol.scc_smooth <= sol.lp_upper_bound + 1e-6
    print(f"\n[acceptance 10] PASS {name}: objective {sol.scc_smooth:.4f}")


def test_performance_profile_hand_example():
    """Two solvers with costs (10, 12) give ratios (1.0, 1.2); failures are
    encoded as +inf and never counted."""
    rho = performance_profile(np.array([[10.0, 12.0]]),
                              np.array([1.0, 1.1, 1.2]))
    assert rho[:, 0].tolist() == [1.0, 1.0, 1.0]
    assert rho[:, 1].tolist() == [0.0, 0.0, 1.0]
    rho2 = performance_profile(np.array([[10.0, np.inf]]),
                               np.array([1.0, 1e12]))
    assert np.all(rho2[:, 1] == 0.0)
    assert np.all(rho2[:, 0] == 1.0)
    print("\n[acceptance 11] PASS performance profile: hand example exact, "
          "failures excluded at every ratio")
