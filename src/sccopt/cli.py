"""Command-line front end.

Exit codes: 0 success, 2 input/parse/validation error, 3 solver failure.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import json
import sys
import typing
from pathlib import Path

import numpy as np

from . import __version__
from .errors import SccoptError, ParseError
from .hydraulics import headloss_params, simulate
from .netmodel import NetworkModel, parse_inp, problem_stats
from .pipeline import (RunConfig, run_cms, run_control_only, save_results,
                       performance_profile, tightened_bounds, write_profile_csv)
from .scc import SccParams, azp, scc_indicator, scc_smooth, velocity_cdf, write_velocity_cdf_csv

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3


def load_network(path: str) -> NetworkModel:
    p = Path(path)
    text = p.read_text()
    if p.suffix.lower() == ".json":
        net = NetworkModel.from_json(text)
        net.validate()
        return net
    return parse_inp(text)


def _config_from_args(args) -> RunConfig:
    values = {}
    if getattr(args, "config", None):
        ini = configparser.ConfigParser()
        try:
            with open(args.config) as f:
                ini.read_file(f)
        except configparser.Error as exc:
            raise ParseError(f"{args.config}: {exc}") from exc
        if ini.has_section("run"):
            getters = {bool: ini.getboolean, int: ini.getint, float: ini.getfloat}
            hints = typing.get_type_hints(RunConfig)
            for key, _ in ini.items("run"):
                if key not in hints:
                    raise ParseError(f"unknown config key {key!r}")
                # an optional field (seed: int | None) reads as its other type
                kind = next(t for t in (hints[key], *typing.get_args(hints[key]))
                            if t in getters)
                values[key] = getters[kind]("run", key)
    for key in ("n_v", "n_f", "n_samples", "n_starts", "seed"):
        v = getattr(args, key, None)
        if v is not None:
            values[key] = v
    if getattr(args, "no_obbt", False):
        values["use_obbt"] = False
    return RunConfig(**values)


def _print_summary(sol, net):
    print(f"scc_smooth      {sol.scc_smooth:.6f}")
    print(f"scc_exact       {sol.scc_exact:.6f}")
    print(f"azp_m           {sol.azp:.4f}")
    if sol.lp_upper_bound is not None:
        print(f"lp_upper_bound  {sol.lp_upper_bound:.6f}")
    if sol.design.dbv_links:
        print("dbv_links       " + " ".join(net.links[j].id for j in sol.design.dbv_links))
    if sol.design.afv_nodes:
        print("afv_nodes       " + " ".join(net.nodes[i].id for i in sol.design.afv_nodes))
    print(f"wall_time_s     {sol.wall_time:.2f}")


def cmd_stats(args) -> int:
    net = load_network(args.network)
    stats = problem_stats(net)
    print(f"links        {net.n_p}")
    print(f"nodes        {net.n_n}")
    print(f"sources      {net.n_0}")
    print(f"timesteps    {net.n_t}")
    print(f"continuous   {stats.continuous}")
    print(f"binary       {stats.binary}")
    print(f"nonconvex    {stats.nonconvex}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    net = load_network(args.network)
    params = headloss_params(net)
    state = simulate(net, params)
    scc_params = SccParams.from_network(net)
    print(f"scc_exact   {scc_indicator(state, net, scc_params):.6f}")
    print(f"scc_smooth  {scc_smooth(state, net, scc_params):.6f}")
    print(f"azp_m       {azp(state, net):.4f}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "velocity_cdf.csv", "w") as f:
            write_velocity_cdf_csv(velocity_cdf(state, net), f)
        payload = {"flows": state.q.tolist(), "heads": state.h.tolist()}
        (out / "state.json").write_text(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_control(args) -> int:
    net = load_network(args.network)
    config = _config_from_args(args)
    sol = run_control_only(net, config)
    _print_summary(sol, net)
    if args.out:
        save_results(sol, net, args.out)
    return EXIT_OK


def cmd_design(args) -> int:
    net = load_network(args.network)
    config = _config_from_args(args)
    warm = run_control_only(net, config) if args.warm_start else None
    sol = run_cms(net, config, warm_control=warm)
    _print_summary(sol, net)
    if args.out:
        save_results(sol, net, args.out)
    return EXIT_OK


def cmd_obbt(args) -> int:
    net = load_network(args.network)
    # run_cms's bound tightening, with OBBT on whatever the config says
    config = dataclasses.replace(_config_from_args(args), use_obbt=True)
    _, report = tightened_bounds(net, config)
    print(f"iterations          {report.iterations}")
    print(f"lp_solves           {report.lp_solves}")
    print(f"simplex_iterations  {report.simplex_iterations}")
    print(f"diam                {' '.join(f'{d:.6g}' for d in report.diam_history)}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "obbt_report.json").write_text(json.dumps(dataclasses.asdict(report), indent=2))
    return EXIT_OK


def cmd_profile(args) -> int:
    with open(args.scores) as f:
        reader = csv.reader(f)
        header = next(reader, None)
        rows = []
        for row in reader:
            try:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} fields, the header has {len(header)}")
                rows.append([float(v) if v not in ("", "nan") else np.nan for v in row[1:]])
            except ValueError as exc:
                raise ParseError(f"{args.scores}: {exc}", reader.line_num) from exc
        if not rows:
            raise ParseError(f"{args.scores}: no score rows")
    scores = np.array(rows)
    taus = np.linspace(1.0, args.tau_max, args.n_tau)
    rho = performance_profile(scores, taus)
    out = Path(args.out or "profile.csv")
    with open(out, "w") as f:
        write_profile_csv(taus, rho, header[1:], f)
    print(f"wrote {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sccopt",
        description="Valve placement and control for self-cleaning water networks")
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, ignored=None):
        p.add_argument("network", help="network file (.inp or .json)")
        p.add_argument("--out", help="output directory")
        p.add_argument("--config", help="INI file with a [run] section" + (
            f"; its {ignored} keys are ignored, and their flags exit 2" if ignored else ""))

    def add_placement(p):
        p.add_argument("--nv", type=int, dest="n_v", help="boundary valves to add")
        p.add_argument("--nf", type=int, dest="n_f", help="flushing valves to add")

    def add_control(p):
        p.add_argument("--seed", type=int)
        p.add_argument("--n-starts", type=int, dest="n_starts",
                       help="at least this many control starts")

    p = sub.add_parser("stats", help="problem-size statistics")
    p.add_argument("network")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("simulate", help="hydraulic simulation, no control")
    p.add_argument("network")
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("control", help="optimize existing valve settings")
    add_common(p, "n_v, n_f, n_samples and use_obbt")
    add_control(p)
    p.set_defaults(func=cmd_control)

    p = sub.add_parser("design", help="optimize valve placement and settings")
    add_common(p)
    add_placement(p)
    add_control(p)
    p.add_argument("--samples", type=int, dest="n_samples")
    p.add_argument("--no-obbt", action="store_true", dest="no_obbt")
    p.add_argument("--warm-start", action="store_true",
                   help="seed with the settings-only solution")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("obbt", help="bound tightening only")
    add_common(p, "n_samples, n_starts, seed and use_obbt")
    add_placement(p)
    p.set_defaults(func=cmd_obbt)

    p = sub.add_parser("profile", help="performance profile from a score table")
    p.add_argument("scores", help="CSV: problem,score1,score2,...")
    p.add_argument("--out")
    p.add_argument("--tau-max", type=float, default=2.0, dest="tau_max")
    p.add_argument("--n-tau", type=int, default=101, dest="n_tau")
    p.set_defaults(func=cmd_profile)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SccoptError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
