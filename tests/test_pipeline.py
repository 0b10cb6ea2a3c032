import hashlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from linprog_reference import linprog_solve_lp
import sccopt
from sccopt import pipeline, sfscp
from sccopt.errors import AllStartsInfeasible
from sccopt.lp import LpSolution
from sccopt.netgen import loop_network, random_network
from sccopt.netmodel import VALVE, Link, NetworkModel
from sccopt.pipeline import (RunConfig, performance_profile, run_cms,
                             run_control_only, save_results, tightened_bounds,
                             uncontrolled_state, write_profile_csv)
from sccopt.scc import SccParams, scc_smooth
from sccopt.sfscp import ValveDesign


@pytest.fixture(scope="module")
def loopnet():
    return loop_network(4, demand=0.012, length=1000.0, diameter=0.2,
                        source_head=60.0)


@pytest.fixture(scope="module")
def prv_net():
    """``random_network(20, 6, seed=3)`` with link 4 an existing PRV."""
    base = random_network(20, 6, seed=3)
    links = list(base.links)
    lk = links[4]
    links[4] = Link(lk.id, lk.from_node, lk.to_node, lk.kind, lk.length,
                    lk.diameter, lk.hw_coefficient, lk.valve_loss, is_existing_prv=True)
    net = NetworkModel(links, base.nodes, base.sources, base.demands, base.source_heads)
    net.validate()
    return net


@pytest.fixture(scope="module")
def cms_solution(loopnet):
    cfg = RunConfig(n_v=1, n_f=1, n_samples=5, n_starts=2, seed=11)
    return run_cms(loopnet, cfg)


class TestRunConfig:
    @pytest.mark.parametrize("name, value", [
        ("n_v", -1), ("n_f", -2), ("n_starts", 0), ("n_starts", -3), ("seed", -1),
        ("u_min", 0.0), ("u_min", -0.2), ("u_min", float("nan")), ("rho", 0.0),
        ("rho", -50.0), ("rho", float("nan")), ("u_max", 0.0), ("u_max", -1.0),
        ("u_max", float("nan")), ("p_min", -100.0), ("p_min", float("nan")),
        ("alpha_max", -0.1)])
    def test_bad_value_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} = {value}: need"):
            RunConfig(**{name: value})


    def test_counts_exclude_existing_valves(self, loopnet):
        # a PRV on link 1 leaves 4 of the ring's 5 links free for a new DBV
        links = list(loopnet.links)
        links[1] = Link("v", links[1].from_node, links[1].to_node, VALVE,
                        0.0, 0.2, 0.0, 0.0, is_existing_prv=True)
        net = NetworkModel(links, loopnet.nodes, loopnet.sources,
                           loopnet.demands, loopnet.source_heads)
        tightened_bounds(net, RunConfig(n_v=4, n_f=4, use_obbt=False))
        with pytest.raises(ValueError,
                           match="^n_v = 5 exceeds the 4 links that can take a new DBV$"):
            tightened_bounds(net, RunConfig(n_v=5, use_obbt=False))
        with pytest.raises(ValueError, match="^n_f = 5 exceeds the 4 demand nodes$"):
            tightened_bounds(net, RunConfig(n_f=5, use_obbt=False))


class TestControlOnly:
    def test_never_below_uncontrolled(self, loopnet):
        sol = run_control_only(loopnet, RunConfig(seed=0, n_starts=2))
        state = uncontrolled_state(loopnet)
        sp = SccParams.from_network(loopnet)
        assert sol.scc_smooth >= scc_smooth(state, loopnet, sp) - 1e-6

    def test_reports_metrics(self, loopnet):
        sol = run_control_only(loopnet, RunConfig(seed=0, n_starts=2))
        assert 0.0 <= sol.scc_exact <= 1.0
        assert sol.azp > 0.0


class TestRunCms:
    def test_matches_a_linprog_run(self, loopnet, cms_solution, monkeypatch):
        # every LP solved by linprog(method="highs") instead gives the same
        # design; OBBT's bound LPs are solved cold, without their session
        for module in ("sfscp", "obbt", "pipeline"):
            monkeypatch.setattr(f"sccopt.{module}.solve_lp",
                                lambda lp, session=None: linprog_solve_lp(lp))
        ref = run_cms(loopnet, RunConfig(n_v=1, n_f=1, n_samples=5, n_starts=2, seed=11))
        assert ref.scc_smooth == cms_solution.scc_smooth
        assert np.array_equal(ref.control.eta, cms_solution.control.eta)
        assert np.array_equal(ref.control.state.q, cms_solution.control.state.q)

    def test_improves_over_uncontrolled(self, loopnet, cms_solution):
        state = uncontrolled_state(loopnet)
        sp = SccParams.from_network(loopnet)
        assert cms_solution.scc_smooth >= scc_smooth(state, loopnet, sp) - 1e-6

    def test_bounded_by_relaxation(self, cms_solution):
        assert cms_solution.scc_smooth <= cms_solution.lp_upper_bound + 1e-6

    def test_candidate_accounting(self, cms_solution):
        assert len(cms_solution.candidates) <= 5
        assert len(cms_solution.candidate_scores) == len(cms_solution.candidates)
        finite = [s for s in cms_solution.candidate_scores if s is not None]
        assert cms_solution.scc_smooth == pytest.approx(max(finite))

    def test_design_sizes(self, loopnet, cms_solution):
        assert len(cms_solution.design.dbv_links) == 1
        assert len(cms_solution.design.afv_nodes) == 1

    def test_monotone_capability_chain(self, loopnet, cms_solution):
        state = uncontrolled_state(loopnet)
        sp = SccParams.from_network(loopnet)
        f_unc = scc_smooth(state, loopnet, sp)
        ctrl = run_control_only(loopnet, RunConfig(seed=11, n_starts=2))
        design = run_cms(loopnet, RunConfig(n_v=1, n_f=1, n_samples=5,
                                            n_starts=2, seed=11),
                         warm_control=ctrl)
        assert f_unc <= ctrl.scc_smooth + 1e-6
        assert ctrl.scc_smooth <= design.scc_smooth + 1e-6
        assert design.scc_smooth <= design.lp_upper_bound + 1e-6

    def test_determinism(self, loopnet):
        cfg = RunConfig(n_v=1, n_f=1, n_samples=4, n_starts=2, seed=5)
        a = run_cms(loopnet, cfg)
        b = run_cms(loopnet, cfg)
        assert a.scc_smooth == b.scc_smooth
        assert a.design == b.design
        assert np.array_equal(a.control.eta, b.control.eta)

    def test_memo_lives_for_one_call(self, monkeypatch):
        # a cache that outlived the call would let the second call skip solves;
        # one worker, so every solve is made in this process and counted
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 1)
        solve, calls = sfscp.solve_steady, []
        monkeypatch.setattr(sfscp, "solve_steady",
                            lambda *a, **k: calls.append(1) or solve(*a, **k))
        cfg = RunConfig(n_v=1, n_f=1, n_samples=3, n_starts=2, seed=0)
        counts, sols = [], []
        for _ in range(2):
            calls.clear()
            sols.append(run_cms(loop_network(4), cfg))
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0
        assert sols[0].scc_smooth == sols[1].scc_smooth
        assert np.array_equal(sols[0].control.eta, sols[1].control.eta)

    def test_control_only_and_design_calls_never_share_a_memo(self, loopnet, monkeypatch):
        # one worker, so every candidate is solved in this process
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 1)
        solve, memos = pipeline.multi_start, []

        def spy(problem, design, *args, **kwargs):
            memos.append(problem.states)
            return solve(problem, design, *args, **kwargs)

        monkeypatch.setattr(pipeline, "multi_start", spy)
        ctrl = run_control_only(loopnet, RunConfig(seed=0, n_starts=1))
        assert len(memos) == 1
        run_cms(loopnet, RunConfig(n_v=1, n_f=1, n_samples=3, n_starts=1, seed=0,
                                   use_obbt=False), warm_control=ctrl)
        # the candidates of one run_cms call share one cache, and no other
        assert len(memos) == 4 and all(m is memos[1] for m in memos[2:])
        assert memos[1] is not memos[0]

    def test_tightened_problem_has_a_fresh_memo(self, loopnet):
        for use_obbt in (True, False):
            cfg = RunConfig(n_v=1, n_f=1, use_obbt=use_obbt)
            a, _ = tightened_bounds(loopnet, cfg)
            b, _ = tightened_bounds(loopnet, cfg)
            assert a.states is not b.states and a.states == {}
            assert np.array_equal(a.bounds.q_lo, b.bounds.q_lo)
            with pytest.raises(ValueError):
                a.bounds.q_lo[0, 0] = 0.0

    def test_existing_prv_never_adds_head(self, prv_net):
        # the relaxation pins an existing PRV's flow direction; a control
        # that throttles its reversed flow would pump head and beat the bound
        sol = run_cms(prv_net, RunConfig(n_samples=1, n_starts=1, seed=0))
        assert sol.candidates == [((), ())]
        assert sol.scc_smooth <= sol.lp_upper_bound + 1e-6
        assert not np.any((sol.control.eta[:, 4] > 0.0) & (sol.control.state.q[:, 4] < 0.0))

    def test_restoration_stops_when_no_head_gap_is_left(self, prv_net, monkeypatch):
        # the run's infeasible starts, with every head above its floor and
        # the PRV throttling a reversed flow, are given up without a
        # restoration: the open control runs as a start of its own.  The
        # step LPs of this run are degenerate, so the pinned scc_smooth also
        # pins the optimal vertex HiGHS picks among equal objectives.  The
        # dense Cholesky of the Newton step moved it by 2.4e-15 from
        # SuperLU's 0.3731225344148909, on the same vertex.  The relaxation's
        # max-value scaling moved the pinned bound by 4.4e-16 from
        # 0.4008545561249951
        restored = []
        monkeypatch.setattr(sfscp, "restore_feasibility", restored.append)
        sol = run_cms(prv_net, RunConfig(n_samples=1, n_starts=1, seed=0))
        assert sol.candidates == [((), ())]
        assert restored == []
        assert sol.scc_smooth == 0.37312253441489335
        assert sol.lp_upper_bound == 0.40085455612499554

    def test_obbt_report_attached(self, cms_solution):
        assert cms_solution.obbt_report is not None
        assert cms_solution.obbt_report["lp_solves"] > 0

    def test_no_obbt_option(self, loopnet):
        cfg = RunConfig(n_v=1, n_f=0, n_samples=3, n_starts=2, seed=3,
                        use_obbt=False)
        sol = run_cms(loopnet, cfg)
        assert sol.obbt_report is None
        assert sol.scc_smooth <= sol.lp_upper_bound + 1e-6

    def test_obbt_bound_not_looser(self, loopnet):
        on = run_cms(loopnet, RunConfig(n_v=1, n_f=0, n_samples=3, n_starts=2,
                                        seed=3))
        off = run_cms(loopnet, RunConfig(n_v=1, n_f=0, n_samples=3, n_starts=2,
                                         seed=3, use_obbt=False))
        assert on.lp_upper_bound <= off.lp_upper_bound + 1e-9


class TestRunCmsFailures:
    CONFIG = RunConfig(n_v=1, n_f=1, n_samples=3, n_starts=1, seed=0, use_obbt=False)

    def test_relaxation_not_optimal(self, loopnet, monkeypatch):
        monkeypatch.setattr(pipeline, "solve_lp", lambda lp: LpSolution("infeasible"))
        with pytest.raises(AllStartsInfeasible, match="^relaxation is infeasible$"):
            run_cms(loopnet, self.CONFIG)

    def test_candidate_without_feasible_start_scores_none(self, loopnet, tmp_path,
                                                          monkeypatch):
        # the first candidate fails in whichever process solves it: the
        # parent records its design before the workers are forked, and the
        # calls are counted in memory the workers share
        sample, solve, failing = pipeline.sample_designs, pipeline.multi_start, []
        seen = multiprocessing.Value("i", 0)

        def record_first(*args, **kwargs):
            candidates = sample(*args, **kwargs)
            failing.append(ValveDesign.from_network(loopnet, *candidates[0]))
            return candidates

        def fail_first(problem, design, *args, **kwargs):
            with seen.get_lock():
                seen.value += 1
            if design == failing[0]:
                raise AllStartsInfeasible("forced")
            return solve(problem, design, *args, **kwargs)

        monkeypatch.setattr(pipeline, "sample_designs", record_first)
        monkeypatch.setattr(pipeline, "multi_start", fail_first)
        sol = run_cms(loopnet, self.CONFIG)
        assert len(sol.candidates) == seen.value == 3
        assert sol.candidate_scores[0] is None
        assert None not in sol.candidate_scores[1:]
        assert sol.design != failing[0]
        assert sol.scc_smooth == max(sol.candidate_scores[1:])
        save_results(sol, loopnet, tmp_path)
        rows = (tmp_path / "candidates.csv").read_text().splitlines()
        dbv, afv = sol.candidates[0]
        assert rows[1] == f"0,{dbv[0]},{afv[0]},"
        assert all(row.split(",")[3] for row in rows[2:])

    def test_no_feasible_candidate(self, loopnet, monkeypatch):
        def fail(*args, **kwargs):
            raise AllStartsInfeasible("forced")

        monkeypatch.setattr(pipeline, "multi_start", fail)
        with pytest.raises(AllStartsInfeasible,
                           match="^no sampled placement admits a feasible control$"):
            run_cms(loopnet, self.CONFIG)

    def test_no_valves_evaluates_only_the_empty_placement(self, loopnet, monkeypatch):
        solve, designs = pipeline.multi_start, []
        sample, samples = pipeline.sample_designs, []

        def spy(problem, design, *args, **kwargs):
            designs.append(design)
            return solve(problem, design, *args, **kwargs)

        def recorded_sample(*args, **kwargs):
            samples.append(sample(*args, **kwargs))
            return samples[-1]

        # the one candidate is solved in this process, whatever the CPU count
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(pipeline, "multi_start", spy)
        monkeypatch.setattr(pipeline, "sample_designs", recorded_sample)
        sol = run_cms(loopnet, RunConfig(n_samples=3, n_starts=1, seed=0, use_obbt=False))
        # with no valves to place the sampler draws the one empty placement
        assert samples == [[((), ())]]
        assert sol.candidates == [((), ())]
        assert designs == [ValveDesign()] and sol.design == ValveDesign()
        assert sol.candidate_scores == [sol.scc_smooth]


def control_digest(sol) -> str:
    """SHA-256 of the final (eta, alpha, q, h) bytes."""
    digest = hashlib.sha256()
    for a in (sol.control.eta, sol.control.alpha, sol.control.state.q, sol.control.state.h):
        digest.update(a.tobytes())
    return digest.hexdigest()


# run_cms on a network where the Newton step factors a dense Schur matrix of
# at least 64 rows, which OpenBLAS's dpotrf splits over its thread pool
# unless a thread variable pins it.  The one-process run goes first, so the
# parent has run that pool before run_cms forks its workers.
FORKED_DENSE_DESIGN = """
import hashlib, json
from sccopt import hydraulics, pipeline
from sccopt.netgen import random_network
from sccopt.pipeline import RunConfig, run_cms

net = random_network(80, 24, seed=5, demand_scale=0.002)
assert 64 <= net.n_n <= hydraulics.DENSE_SCHUR_MAX_NODES
config = RunConfig(n_v=1, n_f=1, n_samples=4, n_starts=1, seed=0, use_obbt=False)
runs = []
for cpus in (1, 2):
    pipeline._usable_cpus = lambda: cpus
    sol = run_cms(net, config)
    digest = hashlib.sha256()
    for a in (sol.control.eta, sol.control.alpha, sol.control.state.q, sol.control.state.h):
        digest.update(a.tobytes())
    runs.append([digest.hexdigest(), [repr(s) for s in sol.candidate_scores],
                 repr(sol.design), list(sol.control.starts)])
print(json.dumps(runs))
"""


class TestCandidateWorkers:
    """run_cms solves the candidates in forked worker processes, one per
    usable CPU, with the same result as one process solving them all."""

    CONFIG = RunConfig(n_v=1, n_f=1, n_samples=6, n_starts=2, seed=2)

    @pytest.fixture(scope="class")
    def net(self):
        return random_network(20, 6, seed=3, n_t=2)

    def run(self, net, monkeypatch, cpus):
        """run_cms with ``cpus`` usable CPUs, and the multi_start calls made
        in this process."""
        solve, calls = sfscp.multi_start, []

        def spy(problem, design, *args, **kwargs):
            calls.append(design)
            return solve(problem, design, *args, **kwargs)

        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(pipeline, "multi_start", spy)
        return run_cms(net, self.CONFIG), calls

    def test_workers_match_one_process(self, net, monkeypatch):
        pooled, pooled_calls = self.run(net, monkeypatch, 3)
        alone, alone_calls = self.run(net, monkeypatch, 1)
        # the workers solved every candidate; this process solved none
        assert pooled_calls == [] and len(alone_calls) == len(alone.candidates) >= 3
        assert control_digest(pooled) == control_digest(alone)
        assert pooled.candidates == alone.candidates
        assert pooled.candidate_scores == alone.candidate_scores
        assert pooled.design == alone.design
        assert pooled.control.starts == alone.control.starts
        assert pooled.control.directions == alone.control.directions
        assert len(set(pooled.candidate_scores)) > 1

    def test_workers_match_one_process_at_default_blas_threading(self, tmp_path):
        script = tmp_path / "forked_dense_design.py"
        script.write_text(FORKED_DENSE_DESIGN)
        env = {k: v for k, v in os.environ.items()
               if not k.endswith("_NUM_THREADS") and k != "VECLIB_MAXIMUM_THREADS"}
        env["PYTHONPATH"] = str(Path(sccopt.__file__).resolve().parent.parent)
        proc = subprocess.Popen([sys.executable, str(script)], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, env=env,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=300)
        except subprocess.TimeoutExpired:
            # the workers are in the script's session too
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("run_cms did not return within 300 s")
        assert proc.returncode == 0, err
        alone, pooled = json.loads(out)
        assert len(alone[1]) >= 2 and len(set(alone[1])) > 1
        assert pooled == alone

    def test_no_worker_outlives_a_return(self, net, monkeypatch):
        self.run(net, monkeypatch, 3)
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_all_candidates_failing(self, net, monkeypatch):
        def fail(*args, **kwargs):
            raise AllStartsInfeasible("forced")

        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(pipeline, "multi_start", fail)
        with pytest.raises(AllStartsInfeasible,
                           match="^no sampled placement admits a feasible control$"):
            run_cms(net, self.CONFIG)
        assert multiprocessing.active_children() == []

    def test_worker_error_reaches_the_caller(self, net, monkeypatch):
        # an error that is not the solver's own is raised again here, after
        # every worker is joined
        def crash(*args, **kwargs):
            raise RuntimeError("crashed in a worker")

        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(pipeline, "multi_start", crash)
        with pytest.raises(RuntimeError, match="^crashed in a worker$"):
            run_cms(net, self.CONFIG)
        assert multiprocessing.active_children() == []

    def test_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: {0, 3, 5})
        assert pipeline._usable_cpus() == 3
        monkeypatch.delattr(pipeline.os, "sched_getaffinity")
        monkeypatch.setattr(pipeline.os, "cpu_count", lambda: 6)
        assert pipeline._usable_cpus() == 6
        monkeypatch.setattr(pipeline.os, "cpu_count", lambda: None)
        assert pipeline._usable_cpus() == 1


class TestPersistence:
    def test_output_files(self, tmp_path, loopnet, cms_solution):
        save_results(cms_solution, loopnet, tmp_path)
        payload = json.loads((tmp_path / "solution.json").read_text())
        assert payload["scc_smooth"] == pytest.approx(cms_solution.scc_smooth)
        assert len(payload["dbv_links"]) == 1
        assert (tmp_path / "candidates.csv").exists()
        assert (tmp_path / "velocity_cdf.csv").exists()
        assert (tmp_path / "obbt_report.json").exists()

    def test_run_without_obbt_removes_an_earlier_report(self, tmp_path, loopnet,
                                                        cms_solution):
        save_results(cms_solution, loopnet, tmp_path)
        sol = run_cms(loopnet, RunConfig(n_v=1, n_f=1, n_samples=2, n_starts=1,
                                         seed=11, use_obbt=False))
        save_results(sol, loopnet, tmp_path)
        assert not (tmp_path / "obbt_report.json").exists()
        payload = json.loads((tmp_path / "solution.json").read_text())
        assert payload["scc_smooth"] == sol.scc_smooth

    def test_solution_names_winning_start_and_directions(self, tmp_path, loopnet,
                                                            cms_solution):
        save_results(cms_solution, loopnet, tmp_path)
        payload = json.loads((tmp_path / "solution.json").read_text())
        control = cms_solution.control
        assert payload["starts"] == list(control.starts)
        assert payload["directions"] == [list(signs) for signs in control.directions]
        # one start and one sign per DBV at each timestep
        assert len(payload["starts"]) == len(payload["directions"]) == loopnet.n_t
        for signs in payload["directions"]:
            assert len(signs) == len(cms_solution.design.dbv_links)
            assert set(signs) <= {1, -1}

    def test_eta_array_shape_roundtrip(self, tmp_path, loopnet, cms_solution):
        save_results(cms_solution, loopnet, tmp_path)
        payload = json.loads((tmp_path / "solution.json").read_text())
        eta = np.array(payload["eta"])
        assert eta.shape == (loopnet.n_t, loopnet.n_p)


class TestPerformanceProfile:
    def test_two_solver_hand_example(self):
        # costs (10, 12): ratios (1.0, 1.2)
        rho = performance_profile(np.array([[10.0, 12.0]]),
                                  np.array([1.0, 1.1, 1.2]))
        assert rho[:, 0].tolist() == [1.0, 1.0, 1.0]
        assert rho[:, 1].tolist() == [0.0, 0.0, 1.0]

    def test_failure_plateau(self):
        scores = np.array([[1.0, 1.0],
                           [1.0, 1.0],
                           [1.0, 1.0],
                           [1.0, np.inf]])
        rho = performance_profile(scores, np.array([1.0, 1e6]))
        assert rho[-1, 1] == pytest.approx(0.75)
        assert rho[-1, 0] == pytest.approx(1.0)

    def test_nan_treated_as_failure(self):
        rho = performance_profile(np.array([[2.0, np.nan]]), np.array([1.0, 100.0]))
        assert rho[-1, 1] == 0.0

    def test_identical_solvers(self):
        scores = np.tile(np.array([[3.0, 3.0]]), (4, 1))
        rho = performance_profile(scores, np.array([1.0]))
        assert np.all(rho == 1.0)

    def test_all_failure_column(self):
        scores = np.array([[1.0, np.inf], [2.0, np.inf]])
        rho = performance_profile(scores, np.array([1.0, 1e9]))
        assert np.all(rho[:, 1] == 0.0)

    def test_csv_output(self, tmp_path):
        taus = np.array([1.0, 2.0])
        rho = performance_profile(np.array([[10.0, 12.0]]), taus)
        out = tmp_path / "profile.csv"
        with open(out, "w") as f:
            write_profile_csv(taus, rho, ["a", "b"], f)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "tau,a,b"
        assert len(lines) == 3
