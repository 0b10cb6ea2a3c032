"""Self-test of the benchmark harness on a 4-node ring.

    python3 -m pytest bench/test_bench.py -q

It proves that every metric prints with its unit, that the output checks fire
on corrupted results, and that the tracer counts every call it wraps.
"""
from __future__ import annotations

import dataclasses
import importlib
import json
import re
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
from checks import check_solution  # noqa: E402
from tracer import LAYERS, TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

from sccopt import pipeline  # noqa: E402
from sccopt.netgen import loop_network  # noqa: E402
from sccopt.netmodel import forest_core  # noqa: E402

TINY = Workload("loop4", "self-test ring", lambda: loop_network(4),
                dict(n_v=1, n_f=1, n_samples=3, n_starts=2, seed=0))
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def solved():
    net = TINY.network(0)
    config = TINY.run_config()
    return net, config, pipeline.run_cms(net, config)


def _run_tiny(trace, capsys, tmp_path):
    with mock.patch.dict(WORKLOADS, {TINY.name: TINY}), \
            mock.patch.object(run, "measure_setup", return_value=[0.5, 0.25]), \
            mock.patch.object(run, "OUT", tmp_path):
        result = run.run_workload(TINY.name, 0, 0.0, trace)
    return result, capsys.readouterr().out


def test_end_to_end_metrics_print_with_units(capsys, tmp_path):
    result, out = _run_tiny(False, capsys, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 1
    for metric in SPEC["end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert re.search(rf"^{re.escape(name)} = \S+ {re.escape(unit)}$", out, re.M)
    assert result["metrics"]["setup_s"]["value"] == 0.375
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_traced_run_reports_every_per_layer_metric(capsys, tmp_path):
    result, _ = _run_tiny(True, capsys, tmp_path)
    assert result["correct"] and result["attempted"] == 2
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_benchmark_json_lists_the_workloads():
    assert SPEC["workloads"] == [{"name": w.name, "why": w.why}
                                 for w in WORKLOADS.values()]


def test_every_seed_is_the_fixture_unless_demands_are_jittered():
    grid = WORKLOADS["grid25_design"]
    fixture = grid.make_network()
    assert grid.network(0, 3) == fixture
    assert grid.network(1, 0) == grid.network(7, 2) == fixture
    assert grid.network(0, 3, jitter=0.01) == fixture
    variants = [grid.network(1, k, jitter=0.01) for k in range(2)]
    assert variants[0] == grid.network(1, 0, jitter=0.01)
    assert variants[0] != variants[1] and variants[0] != fixture
    ratio = variants[0].demands / fixture.demands
    assert np.all(np.abs(ratio - 1.0) <= 0.01)


def test_setup_runs_in_fresh_processes():
    times = run.measure_setup("grid25_design", 0)
    assert len(times) == run.SETUP_REPEATS and all(t > 0 for t in times)


def test_checks_pass_on_a_valid_design(solved):
    assert check_solution(*solved) == []


@pytest.mark.parametrize("corrupt, expected", [
    (lambda s: s.control.state.q.__iadd__(1e-3), "resimulated_flows"),
    (lambda s: s.control.state.h.__isub__(100.0), "min_head"),
    (lambda s: setattr(s, "design", dataclasses.replace(
        s.design, afv_nodes=s.design.afv_nodes + (3,))), "afv_count"),
    (lambda s: setattr(s, "design", dataclasses.replace(
        s.design, dbv_links=())), "dbv_count"),
    (lambda s: setattr(s, "lp_upper_bound", s.scc_smooth - 0.01), "monotone_chain"),
    (lambda s: setattr(s, "scc_smooth", 1.5), "scc_range"),
    (lambda s: setattr(s, "scc_exact", 1.0 - s.scc_exact), "resimulated_scc_exact"),
])
def test_checks_fire_on_corrupted_result(solved, corrupt, expected):
    net, config, sol = solved
    bad = dataclasses.replace(sol, control=dataclasses.replace(
        sol.control, state=dataclasses.replace(
            sol.control.state, q=sol.control.state.q.copy(),
            h=sol.control.state.h.copy())))
    corrupt(bad)
    assert expected in check_solution(net, config, bad)


def test_traced_counts_equal_untraced_call_counts(solved):
    net, config, plain = solved
    counts = Counter()
    patches = []
    for mod_name, attr, span_name in TARGETS:
        mod = importlib.import_module(mod_name)
        orig = getattr(mod, attr)

        def counting(*args, _orig=orig, _name=span_name, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)

        patches.append(mock.patch.object(mod, attr, counting))
    for p in patches:
        p.start()
    try:
        pipeline.run_cms(TINY.network(0), config)
    finally:
        for p in patches:
            p.stop()

    with Tracer() as tracer:
        sol = tracer.span("pipeline.run_cms", pipeline.run_cms, TINY.network(0), config)
    spans = Counter(s.name for s in tracer.spans)
    assert spans.pop("pipeline.run_cms") == 1
    assert spans == counts
    assert sol.scc_smooth == plain.scc_smooth
    assert sol.lp_upper_bound == plain.lp_upper_bound
    np.testing.assert_array_equal(sol.control.eta, plain.control.eta)

    m = tracer.metrics()
    assert m["hydraulics.solve_steady.calls"] == counts["hydraulics.solve_steady"]
    assert m["lp.solve_lp.step.calls"] == counts["lp.solve_lp.step"]
    core = len(forest_core(net).core_links)
    assert m["obbt.lp_solves"] == 2 * core * net.n_t * m["obbt.passes"] > 0
    assert m["lp.solve_lp.obbt.calls"] == m["obbt.lp_solves"]
    assert m["hydraulics.newton_iters"] >= m["hydraulics.solve_steady.calls"]
    total = tracer.spans[0]
    assert total.name == "pipeline.run_cms"
    assert sum(m[f"{layer}.self_s"] for layer in LAYERS) == pytest.approx(total.duration)
