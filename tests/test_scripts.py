import csv
import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np

from sccopt import hydraulics

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_benchmark_writes_scores_and_profile(tmp_path):
    run_benchmark = load_script("run_benchmark")
    run_benchmark.main(["--out", str(tmp_path), "--n-problems", "1",
                        "--n-nodes", "8", "--samples", "2"])
    with open(tmp_path / "scores.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["problem", "obbt_ms4", "no_obbt_ms4"]
    assert [r[0] for r in rows[1:]] == ["p0"]
    with open(tmp_path / "profile.csv") as f:
        assert f.readline().strip() == "tau,obbt_ms4,no_obbt_ms4"


def test_grid_demo_prints_the_monotone_chain(tmp_path, capsys):
    grid_demo = load_script("grid_demo")
    grid_demo.main(["--out", str(tmp_path), "--seed", "0", "--samples", "2",
                    "--n-starts", "1"])
    values = {}
    for line in capsys.readouterr().out.splitlines():
        label, _, value = line.rpartition(" ")
        values[label.strip()] = value
    chain = [float(values[k]) for k in ("uncontrolled", "settings only",
                                        "design + settings", "relaxation bound")]
    assert chain == sorted(chain)
    assert (tmp_path / "solution.json").is_file()


def test_design_digests_describes_a_run(loop4):
    from sccopt.pipeline import RunConfig, run_cms

    design_digests = load_script("design_digests")
    config = RunConfig(n_v=1, n_f=1, n_samples=2, n_starts=1, seed=0)
    line = design_digests.describe("loop4", loop4, config)
    fields = dict(f.split("=", 1) for f in line.split()[1:])
    assert line.startswith("loop4 seed=0 ")
    sol = run_cms(loop4, config)
    assert fields["digest"] == design_digests.control_digest(sol)
    assert len(fields["digest"]) == 16
    assert float(fields["scc_smooth"]) == sol.scc_smooth
    assert float(fields["scc_exact"]) == sol.scc_exact
    assert fields["start"] == ",".join(map(str, sol.control.starts))
    assert fields["dbv"] == ",".join(map(str, sol.design.dbv_links))
    assert fields["afv"] == ",".join(map(str, sol.design.afv_nodes))
    assert fields["scores"] == design_digests.scores_digest(sol)
    assert len(fields["scores"]) == 16
    assert float(fields["lp_bound"]) == sol.lp_upper_bound
    assert fields["lp"] == design_digests.lp_digest(loop4, config)
    assert len(fields["lp"]) == 16
    # one more AFV moves the count row's right-hand side
    assert design_digests.lp_digest(loop4, replace(config, n_f=2)) != fields["lp"]


def test_placement_study_scores_each_sampled_placement_as_run_cms(loop4, capsys,
                                                                 monkeypatch):
    from types import SimpleNamespace

    from sccopt.pipeline import RunConfig, run_cms

    placement_study = load_script("placement_study")
    config = RunConfig(n_v=1, n_f=1, n_samples=4, n_starts=1, seed=0)
    scores = placement_study.study(loop4, config)
    # one DBV on each of the 5 links, one AFV on each of the 4 nodes
    assert len(scores) == len(loop4.free_links) * loop4.n_n == 20
    sol = run_cms(loop4, config)
    assert [scores[c] for c in sol.candidates] == sol.candidate_scores

    workload = SimpleNamespace(run_config=lambda: config, network=lambda seed: loop4)
    monkeypatch.setitem(placement_study.WORKLOADS, "loop4", workload)
    placement_study.main(["--workload", "loop4"])
    header, _, *rows = capsys.readouterr().out.splitlines()
    feasible = sum(s is not None for s in scores.values())
    assert header == f"loop4 seed=0: 20 placements, {feasible} with a feasible control"
    assert len(rows) == min(placement_study.TOP, feasible) + 1
    best = max(s for s in scores.values() if s is not None)
    assert rows[0].split()[1] == f"{best:.8f}"
    rank = 1 + sum(s > sol.scc_smooth for s in scores.values() if s is not None)
    assert rows[-1].endswith(f"rank {rank} of {feasible}")


def test_scores_digest_covers_every_candidate():
    from types import SimpleNamespace

    design_digests = load_script("design_digests")

    def digest(scores):
        return design_digests.scores_digest(SimpleNamespace(candidate_scores=scores))

    base = digest([0.5, None, 0.25])
    assert digest([0.5, None, 0.25]) == base
    # a move in the last bit of a loser, an infeasible candidate, or the order
    for other in ([0.5, None, float(np.nextafter(0.25, 1))], [0.5, 0.0, 0.25],
                  [0.5, 0.25, None], [0.5, None]):
        assert digest(other) != base


def test_schur_crossover_times_both_factorizations(capsys, monkeypatch):
    schur_crossover = load_script("schur_crossover")
    cutoff, solve, paths = hydraulics.DENSE_SCHUR_MAX_NODES, hydraulics._schur_solve, set()

    def recorded(net, w, rhs, dense):
        paths.add((net.n_n, dense))
        return solve(net, w, rhs, dense)

    monkeypatch.setattr(hydraulics, "_schur_solve", recorded)
    schur_crossover.main(["--sizes", "10", "20", "--repeat", "1", "--seeds", "1"])
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["n", "dense_ms", "superlu_ms", "faster"]
    assert [row.split()[0] for row in rows] == ["10", "20"]
    for row in rows:
        _, dense, superlu, faster = row.split()
        assert float(dense) > 0.0 and float(superlu) > 0.0
        assert faster in ("dense", "superlu")
    # each size ran through both factorizations, and the cutoff it moved for
    # the timing is restored
    assert paths == {(n, dense) for n in (10, 20) for dense in (True, False)}
    assert hydraulics.DENSE_SCHUR_MAX_NODES == cutoff


def test_lp_scaling_solves_under_both_strategies(capsys, monkeypatch):
    from sccopt import lp as lp_mod

    lp_scaling = load_script("lp_scaling")
    options, solve, strategies = lp_mod._OPTIONS, lp_mod.solve_lp, []

    def recorded(lp):
        strategies.append(options.simplex_scale_strategy)
        return solve(lp)

    monkeypatch.setattr(lp_mod, "solve_lp", recorded)
    lp_scaling.main(["--networks", "20:6:3:1", "30:9:1:2", "--repeat", "1"])
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["network", "rows", "cols", "it_2", "s_2", "it_4", "s_4"]
    assert [row.split()[0] for row in rows] == ["20:6:3:1", "30:9:1:2"]
    for row in rows:
        _, n_rows, n_cols, it_2, s_2, it_4, s_4 = row.split()
        assert int(n_rows) > 0 and int(n_cols) > 0
        assert int(it_2) > 0 and int(it_4) > 0
        assert float(s_2) >= 0.0 and float(s_4) >= 0.0
    # each network was solved under both strategies, and the options the
    # timing changed are restored
    assert strategies == [2, 4, 2, 4]
    assert options.simplex_scale_strategy == 4 and options.time_limit == float("inf")


def test_import_footprint_prints_medians(capsys):
    import_footprint = load_script("import_footprint")
    import_footprint.main(["--runs", "2", "--workload", "grid25_design"])
    name, *fields = capsys.readouterr().out.split()
    values = {k: float(v) for k, v in (f.split("=", 1) for f in fields)}
    assert name == "grid25_design" and values["runs"] == 2
    assert 0 < values["wall_s"] < 60 and values["peak_rss_mb"] > 0
    assert 0 < values["scipy_modules"] < values["modules"]
