import csv
import importlib.util
from pathlib import Path

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
