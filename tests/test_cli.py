import dataclasses
import json
from pathlib import Path

import pytest

from sccopt.cli import (EXIT_INPUT, EXIT_OK, EXIT_SOLVER, _config_from_args, build_parser,
                        load_network, main)
from sccopt.netgen import loop_network, random_network
from sccopt.obbt import tighten
from sccopt.pipeline import RunConfig, default_problem, run_cms


@pytest.fixture
def inp_file(tmp_path, sample_inp_text):
    path = tmp_path / "net.inp"
    path.write_text(sample_inp_text)
    return str(path)


@pytest.fixture
def json_net_file(tmp_path):
    net = loop_network(4, demand=0.012, length=1000.0, diameter=0.2,
                       source_head=60.0)
    path = tmp_path / "net.json"
    path.write_text(net.to_json())
    return str(path)


class TestStats:
    def test_counts_printed(self, inp_file, capsys):
        assert main(["stats", inp_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "links        3" in out
        assert "continuous" in out

    def test_missing_file(self, capsys):
        assert main(["stats", "/no/such/file.inp"]) == EXIT_INPUT

    def test_directory_rejected(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path)]) == EXIT_INPUT
        assert str(tmp_path) in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.inp"
        path.write_text("[PIPES]\n p1 a b not-a-number 300 130\n")
        assert main(["stats", str(path)]) == EXIT_INPUT

    def test_non_finite_inp(self, tmp_path, sample_inp_text):
        path = tmp_path / "inf.inp"
        path.write_text(sample_inp_text.replace(" p1   r1    j1  1000", " p1   r1    j1  inf"))
        assert main(["stats", str(path)]) == EXIT_INPUT

    def test_non_finite_json(self, json_net_file, tmp_path):
        payload = json.loads(Path(json_net_file).read_text())
        payload["source_heads"][0][0] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(payload))
        assert main(["stats", str(path)]) == EXIT_INPUT

    def test_json_missing_key(self, json_net_file, tmp_path, capsys):
        payload = json.loads(Path(json_net_file).read_text())
        del payload["sources"]
        path = tmp_path / "nosrc.json"
        path.write_text(json.dumps(payload))
        assert main(["stats", str(path)]) == EXIT_INPUT
        assert "'sources'" in capsys.readouterr().err

    def test_json_unknown_link_field(self, json_net_file, tmp_path, capsys):
        payload = json.loads(Path(json_net_file).read_text())
        payload["links"][1]["colour"] = "blue"
        path = tmp_path / "colour.json"
        path.write_text(json.dumps(payload))
        assert main(["stats", str(path)]) == EXIT_INPUT
        assert "colour" in capsys.readouterr().err

    @pytest.mark.parametrize("section, index, kind", [
        ("nodes", 1, "node"), ("sources", 0, "node"), ("links", 2, "link")])
    def test_json_repeated_id(self, json_net_file, tmp_path, capsys, section, index, kind):
        # a node and a source share one ID space; links have their own.  The
        # links follow a renamed node, so only the repeated ID is wrong
        payload = json.loads(Path(json_net_file).read_text())
        first, old = payload[kind + "s"][0]["id"], payload[section][index]["id"]
        payload[section][index]["id"] = first
        for link in payload["links"] if kind == "node" else ():
            for end in ("from_node", "to_node"):
                link[end] = first if link[end] == old else link[end]
        path = tmp_path / "repeat.json"
        path.write_text(json.dumps(payload))
        assert main(["stats", str(path)]) == EXIT_INPUT
        assert f"repeated {kind} ID {first!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["stats", "simulate", "control", "design", "obbt"])
    def test_json_link_both_prv_and_dbv(self, json_net_file, tmp_path, capsys, verb):
        payload = json.loads(Path(json_net_file).read_text())
        payload["links"][2].update(is_existing_prv=True, is_existing_dbv=True)
        path = tmp_path / "both.json"
        path.write_text(json.dumps(payload))
        assert main([verb, str(path)]) == EXIT_INPUT
        link = payload["links"][2]["id"]
        assert f"link {link}: a link cannot be both PRV and DBV" in capsys.readouterr().err

    def test_inp_link_to_undeclared_node(self, tmp_path, sample_inp_text, capsys):
        path = tmp_path / "ghost.inp"
        path.write_text(sample_inp_text.replace(" p2   j1    j2", " p2   j1    ghost"))
        assert main(["stats", str(path)]) == EXIT_INPUT
        assert "unknown node 'ghost'" in capsys.readouterr().err


class TestSimulate:
    def test_reports_metrics_and_writes_state(self, json_net_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["simulate", json_net_file, "--out", str(out_dir)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "scc_exact" in out and "azp_m" in out
        assert (out_dir / "velocity_cdf.csv").exists()
        state = json.loads((out_dir / "state.json").read_text())
        assert len(state["flows"][0]) == 5


class TestControlAndDesign:
    def test_control_verb(self, json_net_file, capsys):
        assert main(["control", json_net_file, "--seed", "0",
                     "--n-starts", "2"]) == EXIT_OK
        assert "scc_smooth" in capsys.readouterr().out

    def test_control_rejects_no_obbt(self, json_net_file, capsys):
        # settings-only control never runs OBBT, so the flag would do nothing
        with pytest.raises(SystemExit) as exc:
            main(["control", json_net_file, "--no-obbt"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_design_verb_writes_solution(self, json_net_file, tmp_path, capsys):
        out_dir = tmp_path / "run"
        rc = main(["design", json_net_file, "--nv", "1", "--nf", "1",
                   "--samples", "3", "--n-starts", "2", "--seed", "7",
                   "--out", str(out_dir)])
        assert rc == EXIT_OK
        payload = json.loads((out_dir / "solution.json").read_text())
        assert len(payload["dbv_links"]) == 1
        assert (out_dir / "candidates.csv").exists()

    def test_design_without_obbt(self, json_net_file, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert main(["design", json_net_file, "--nv", "1", "--nf", "1", "--samples", "2",
                     "--n-starts", "1", "--seed", "0", "--no-obbt",
                     "--out", str(out_dir)]) == EXIT_OK
        assert "lp_upper_bound" in capsys.readouterr().out
        assert (out_dir / "solution.json").exists()
        assert not (out_dir / "obbt_report.json").exists()

    def test_control_writes_outputs(self, json_net_file, tmp_path):
        out_dir = tmp_path / "run"
        assert main(["control", json_net_file, "--seed", "0", "--n-starts", "1",
                     "--out", str(out_dir)]) == EXIT_OK
        for name in ("solution.json", "candidates.csv", "velocity_cdf.csv"):
            assert (out_dir / name).exists()
        payload = json.loads((out_dir / "solution.json").read_text())
        assert payload["dbv_links"] == [] and payload["lp_upper_bound"] is None

    def test_design_infeasible_exit_code(self, tmp_path):
        # pressure floor unreachable: 15 m above a 10 m source head
        net = loop_network(4, demand=0.012, diameter=0.2, source_head=10.0)
        path = tmp_path / "low.json"
        path.write_text(net.to_json())
        assert main(["control", str(path), "--seed", "0",
                     "--n-starts", "1"]) in (EXIT_INPUT, EXIT_SOLVER)

    def test_config_file_defaults(self, json_net_file, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\nn_starts = 2\nseed = 4\nuse_obbt = false\n")
        assert main(["control", json_net_file, "--config", str(cfg)]) == EXIT_OK

    def test_unknown_config_key_rejected(self, json_net_file, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\nbogus = 1\n")
        assert main(["control", json_net_file, "--config", str(cfg)]) == EXIT_INPUT

    def test_removed_config_key_rejected(self, json_net_file, tmp_path, capsys):
        # the OBBT and SCP stopping rules are constants, not settings
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\nobbt_k_max = 5\n")
        assert main(["obbt", json_net_file, "--config", str(cfg)]) == EXIT_INPUT
        assert "obbt_k_max" in capsys.readouterr().err

    def test_config_values_take_their_annotated_types(self, json_net_file, tmp_path):
        values = {"n_v": "1", "n_f": "2", "n_samples": "3", "n_starts": "4", "seed": "5",
                  "use_obbt": "no", "u_min": "0.25", "rho": "40", "u_max": "2.5",
                  "p_min": "12", "alpha_max": "0.02"}
        assert set(values) == {f.name for f in dataclasses.fields(RunConfig)}
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\n" + "".join(f"{k} = {v}\n" for k, v in values.items()))
        config = _config_from_args(
            build_parser().parse_args(["design", json_net_file, "--config", str(cfg)]))
        assert dataclasses.astuple(config) == (1, 2, 3, 4, 5, False, 0.25, 40.0, 2.5,
                                               12.0, 0.02)
        assert [type(v) for v in dataclasses.astuple(config)] == [int] * 5 + [bool] + [float] * 5

    @pytest.mark.parametrize("argv, count", [
        (["design", "--nv", "1", "--nf", "1", "--samples", "0"], "n_samples = 0"),
        (["design", "--nv", "100"], "n_v = 100"),
        (["design", "--nf", "100"], "n_f = 100"),
        (["obbt", "--nv", "100"], "n_v = 100"),
        (["obbt", "--nf", "100"], "n_f = 100"),
    ])
    def test_count_the_network_cannot_hold_is_input_error(self, json_net_file, capsys,
                                                          argv, count):
        # the 5-link, 4-node ring takes at most 5 DBVs and 4 AFVs
        assert main([argv[0], json_net_file, *argv[1:]]) == EXIT_INPUT
        assert count in capsys.readouterr().err

    @pytest.mark.parametrize("verb, flags, count", [
        ("control", [], "n_v = -1"), ("control", [], "n_f = -1"),
        ("design", ["--nv", "-1"], "n_v = -1"), ("design", ["--nf", "-1"], "n_f = -1"),
        ("design", [], "n_f = -1"),
        ("obbt", ["--nv", "-1"], "n_v = -1"), ("obbt", ["--nf", "-1"], "n_f = -1"),
        ("obbt", [], "n_v = -1"),
    ])
    def test_negative_count_is_input_error_naming_it(self, json_net_file, tmp_path, capsys,
                                                     verb, flags, count):
        # without a flag the count comes from the config file
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\n" + ("" if flags else f"{count}\n"))
        assert main([verb, json_net_file, *flags, "--config", str(cfg)]) == EXIT_INPUT
        assert f"{count}: need a non-negative value" in capsys.readouterr().err

    def test_config_zero_samples_is_input_error(self, json_net_file, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\nn_v = 1\nn_f = 1\nn_samples = 0\n")
        assert main(["design", json_net_file, "--config", str(cfg)]) == EXIT_INPUT
        assert "n_samples = 0" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["alpha_max = -0.1", "u_max = -1", "seed = -1",
                                      "rho = nan", "u_min = nan"])
    def test_config_bad_bound_is_input_error_naming_it(self, json_net_file, tmp_path, capsys,
                                                       line):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[run]\nn_v = 1\nn_f = 1\nn_samples = 2\n{line}\n")
        assert main(["design", json_net_file, "--config", str(cfg)]) == EXIT_INPUT
        assert line.split(" = ")[0] in capsys.readouterr().err

    def test_missing_config_file_rejected(self, json_net_file, tmp_path, capsys):
        cfg = str(tmp_path / "nope.ini")
        assert main(["obbt", json_net_file, "--config", cfg]) == EXIT_INPUT
        assert "nope.ini" in capsys.readouterr().err

    def test_config_without_section_header_rejected(self, json_net_file, tmp_path, capsys):
        cfg = tmp_path / "flat.ini"
        cfg.write_text("n_starts = 2\n")
        assert main(["control", json_net_file, "--config", str(cfg)]) == EXIT_INPUT
        assert "flat.ini" in capsys.readouterr().err


class TestObbtVerb:
    def test_reports_solve_counts(self, json_net_file, capsys):
        assert main(["obbt", json_net_file, "--nv", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "lp_solves" in out
        assert "simplex_iterations" in out

    def test_rejects_control_flags(self, json_net_file, capsys):
        # OBBT has no starts, samples or randomness, and always runs here
        for flag in (["--no-obbt"], ["--n-starts", "2"], ["--samples", "3"],
                     ["--seed", "0"]):
            with pytest.raises(SystemExit) as exc:
                main(["obbt", json_net_file, *flag])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_report_matches_run_cms(self, tmp_path):
        # the CLI tightens the forest links first, as run_cms does, and runs
        # OBBT even when its config turns OBBT off
        path = tmp_path / "net.json"
        path.write_text(random_network(8, 3, seed=1).to_json())
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\nuse_obbt = false\n")
        assert main(["obbt", str(path), "--nv", "1", "--nf", "1", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == EXIT_OK
        cli = json.loads((tmp_path / "out" / "obbt_report.json").read_text())
        net = load_network(str(path))
        config = RunConfig(n_v=1, n_f=1, n_samples=2, n_starts=1, seed=0)
        pipe = run_cms(net, config).obbt_report
        keys = ("iterations", "lp_solves", "simplex_iterations", "diam_history")
        assert [cli[k] for k in keys] == [pipe[k] for k in keys]
        # without the forest step the box differs, so the match is not vacuous
        _, bare = tighten(default_problem(net, config), 1, 1)
        assert bare.diam_history != cli["diam_history"]


class TestProfileVerb:
    def test_profile_csv(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("problem,a,b\np1,10,12\np2,8,8\n")
        out = tmp_path / "profile.csv"
        assert main(["profile", str(scores), "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "tau,a,b"
        assert len(lines) == 102

    def test_empty_score_table_rejected(self, tmp_path, capsys):
        scores = tmp_path / "empty.csv"
        scores.write_text("")
        assert main(["profile", str(scores), "--out", str(tmp_path / "p.csv")]) == EXIT_INPUT
        assert "empty.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("problem,a,b\n", "{}: no score rows"),
        ("problem,a,b\np1,10,12\np2,8\n", "line 3: {}: 2 fields, the header has 3"),
        ("problem,a,b\np1,10,x\n", "line 2: {}: could not convert string to float: 'x'")],
        ids=["header_only", "ragged_row", "non_numeric_cell"])
    def test_malformed_score_table_named_by_file_and_line(self, tmp_path, capsys,
                                                          text, message):
        scores = tmp_path / "scores.csv"
        scores.write_text(text)
        assert main(["profile", str(scores), "--out", str(tmp_path / "p.csv")]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {message.format(scores)}\n"
        assert not (tmp_path / "p.csv").exists()
