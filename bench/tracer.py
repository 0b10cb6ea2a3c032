"""Span tracing of the solver's layers from outside the package.

``Tracer`` replaces, for the duration of a ``with`` block, the names each
caller inside ``sccopt`` binds for a layer's public entry point (for example
``sccopt.sfscp.solve_steady``, which is what the SCP code calls) with a
wrapper that records a span (name, start, end, parent) and the outcome of the
call.  Nothing under ``src/`` changes, and the wrapped calls receive the same
arguments, so traced results are bit-identical to untraced ones.  The only
added argument is a ``residual_log`` list for ``solve_steady`` when the caller
passed none; it is a public keyword that records and changes nothing else.
"""
from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict

import numpy as np

# (module, attribute as bound by the caller, span name).  A span's layer is
# the part of its name before the first dot.
TARGETS = (
    ("sccopt.sfscp", "solve_steady", "hydraulics.solve_steady"),
    ("sccopt.sfscp", "solve_lp", "lp.solve_lp.step"),
    ("sccopt.obbt", "solve_lp", "lp.solve_lp.obbt"),
    ("sccopt.pipeline", "solve_lp", "lp.solve_lp.relax"),
    ("sccopt.pipeline", "build_lp", "relax.build_lp"),
    ("sccopt.obbt", "build_lp", "relax.build_lp"),
    ("sccopt.envelopes", "sigmoid_envelope", "envelopes.sigmoid_envelope"),
    ("sccopt.envelopes", "hw_envelope", "envelopes.hw_envelope"),
    ("sccopt.pipeline", "multi_start", "sfscp.multi_start"),
    ("sccopt.pipeline", "sample_designs", "sampler.sample_designs"),
    ("sccopt.obbt", "tighten", "obbt.tighten"),
    ("sccopt.obbt", "tighten_forest", "obbt.tighten_forest"),
    ("sccopt.sfscp", "restore_feasibility", "sfscp.restore_feasibility"),
    ("sccopt.sfscp", "enumerate_dbv_directions", "sfscp.enumerate_dbv_directions"),
    ("sccopt.sfscp", "sfscp_timestep", "sfscp.sfscp_timestep"),
    ("sccopt.sfscp", "scc_smooth_flows", "scc.scc_smooth_flows"),
)
LAYERS = ("hydraulics", "scc", "envelopes", "relax", "lp", "obbt", "sampler",
          "sfscp", "pipeline")


class Span:
    __slots__ = ("name", "start", "end", "parent", "ok")

    def __init__(self, name, start, parent):
        self.name, self.start, self.end, self.parent = name, start, start, parent
        self.ok = True

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counters while installed (``with Tracer() as tr``)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.lp_shape: tuple[int, int, int] = (0, 0, 0)
        self.obbt_reports: list = []
        self.sampled: list[tuple[int, int]] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------
    def __enter__(self):
        for mod_name, attr, span_name in TARGETS:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, span_name))
        return self

    def __exit__(self, *exc):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()
        return False

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span; the benchmark uses it for ``run_cms``."""
        return self._wrap(fn, name)(*args, **kwargs)

    def _wrap(self, fn, name):
        is_newton = name == "hydraulics.solve_steady"

        def traced(*args, **kwargs):
            log = None
            if is_newton and kwargs.get("residual_log") is None:
                log = kwargs["residual_log"] = []
            span = Span(name, 0.0, self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.ok = False
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if log is not None:
                    # one log row per pass of the Newton loop, counting the
                    # pass that finds the residual converged
                    self.counters["hydraulics.newton_iters"] += len(log)
                    if self._in("sfscp.restore_feasibility"):
                        self.counters["hydraulics.solve_steady.restore_calls"] += 1
            self._observe(span, result, args, kwargs)
            return result

        return traced

    def _in(self, name) -> bool:
        return any(self.spans[i].name == name for i in self._stack)

    def _observe(self, span, result, args, kwargs):
        """Record the outcome of a call that returned."""
        name = span.name
        if name.startswith("lp.solve_lp."):
            span.ok = result.status == "optimal"
        elif name == "sfscp.restore_feasibility":
            span.ok = result is not None
        elif name == "relax.build_lp":
            lp = result[0]
            self.lp_shape = (lp.n_rows, lp.n_cols, lp.A.nnz)
        elif name == "obbt.tighten":
            self.obbt_reports.append(result[1])
        elif name == "sampler.sample_designs":
            n_samples = kwargs["n_samples"] if "n_samples" in kwargs else args[4]
            self.sampled.append((len(result), n_samples))

    # -- output ---------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover.

        The solver is single-threaded, so children of one span never overlap
        and the covered time is the sum of their durations.
        """
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def write(self, f, call: int = 0):
        """Append the spans to an open file as JSON lines."""
        for s in self.spans:
            f.write(json.dumps({"call": call, "name": s.name, "start": s.start,
                                "end": s.end, "parent": s.parent,
                                "ok": s.ok}) + "\n")

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far."""
        by_name = defaultdict(list)
        for s in self.spans:
            by_name[s.name].append(s)
        layer_self = Counter()
        for s, own in zip(self.spans, self.self_times()):
            layer_self[s.name.split(".", 1)[0]] += own

        def calls(name):
            return len(by_name[name])

        def busy(name):
            return float(sum(s.duration for s in by_name[name]))

        def ok_frac(name):
            spans = by_name[name]
            return sum(s.ok for s in spans) / len(spans) if spans else 1.0

        def ms_per_call(name):
            return 1e3 * busy(name) / calls(name) if calls(name) else 0.0

        m = {}
        newton = "hydraulics.solve_steady"
        m[newton + ".calls"] = calls(newton)
        m[newton + ".s"] = busy(newton)
        m[newton + ".ms_per_call"] = ms_per_call(newton)
        m[newton + ".failed"] = sum(not s.ok for s in by_name[newton])
        m[newton + ".restore_calls"] = self.counters[newton + ".restore_calls"]
        m["hydraulics.newton_iters"] = self.counters["hydraulics.newton_iters"]
        m["hydraulics.newton_iters_per_solve"] = (
            m["hydraulics.newton_iters"] / calls(newton) if calls(newton) else 0.0)

        cand = [s.duration for s in by_name["sfscp.multi_start"]]
        m["sfscp.multi_start.calls"] = calls("sfscp.multi_start")
        m["sfscp.multi_start.s"] = busy("sfscp.multi_start")
        m["sfscp.candidate_s.p50"] = float(np.percentile(cand, 50)) if cand else 0.0
        m["sfscp.candidate_s.p90"] = float(np.percentile(cand, 90)) if cand else 0.0
        m["sfscp.sfscp_timestep.calls"] = calls("sfscp.sfscp_timestep")
        m["sfscp.enumerate_dbv_directions.s"] = busy("sfscp.enumerate_dbv_directions")
        m["sfscp.restore_feasibility.calls"] = calls("sfscp.restore_feasibility")
        m["sfscp.restore_feasibility.s"] = busy("sfscp.restore_feasibility")
        m["sfscp.restore_feasibility.success_frac"] = ok_frac("sfscp.restore_feasibility")
        # every timestep solve opens with one solve at the start point; the
        # rest of its direct solves are line-search trials
        direct = sum(self.spans[s.parent].name == "sfscp.sfscp_timestep"
                     for s in by_name[newton] if s.parent >= 0)
        m["sfscp.linesearch_solves"] = direct - calls("sfscp.sfscp_timestep")

        for purpose in ("step", "obbt", "relax"):
            name = "lp.solve_lp." + purpose
            non_optimal = sum(not s.ok for s in by_name[name])
            m[name + ".calls"] = calls(name)
            m[name + ".s"] = busy(name)
            m[name + ".ms_per_call"] = ms_per_call(name)
            m[name + ".optimal_frac"] = ok_frac(name)
            m[name + ".non_optimal"] = non_optimal

        m["relax.build_lp.calls"] = calls("relax.build_lp")
        m["relax.build_lp.s"] = busy("relax.build_lp")
        m["relax.lp_rows"], m["relax.lp_cols"], m["relax.lp_nnz"] = self.lp_shape
        for env in ("sigmoid_envelope", "hw_envelope"):
            m[f"envelopes.{env}.calls"] = calls("envelopes." + env)
            m[f"envelopes.{env}.s"] = busy("envelopes." + env)

        reports = self.obbt_reports
        m["obbt.tighten.s"] = busy("obbt.tighten")
        m["obbt.lp_solves"] = sum(r.lp_solves for r in reports)
        m["obbt.passes"] = sum(r.iterations for r in reports)
        # final over initial core flow-box diameter; 1.0 when OBBT is off
        ratios = [r.diam_history[-1] / r.diam_history[0]
                  for r in reports if r.diam_history and r.diam_history[0] > 0]
        m["obbt.diam_ratio"] = float(np.mean(ratios)) if ratios else 1.0
        m["obbt.tighten_forest.s"] = busy("obbt.tighten_forest")

        m["scc.scc_smooth_flows.calls"] = calls("scc.scc_smooth_flows")
        m["scc.scc_smooth_flows.s"] = busy("scc.scc_smooth_flows")
        m["sampler.sample_designs.s"] = busy("sampler.sample_designs")
        got = sum(n for n, _ in self.sampled)
        asked = sum(n for _, n in self.sampled)
        m["sampler.distinct_frac"] = got / asked if asked else 1.0

        for layer in LAYERS:
            m[layer + ".self_s"] = float(layer_self[layer])
        m["trace.spans"] = len(self.spans)
        return m
