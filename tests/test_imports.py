"""Every name a package or test module imports is used in that module, no
package module imports a private name from another, only ``lp.py`` imports
HiGHS, only ``hydraulics.py`` imports SciPy's private SuperLU module,
LAPACK or anything else under ``scipy.sparse.linalg`` or ``scipy.linalg``,
only ``csc.py`` imports SciPy's sparsetools kernels, only ``scc.py``
imports ``scipy.special``, and only ``obbt.py`` imports a thread or process
module, apart from the process pool ``pipeline.py`` forks its candidate
workers with and the thread-local store ``lp.py`` keeps its cold HiGHS
instances in.  A module loaded by ``scipy_ext.load_extension`` counts as
imported, and the package imports SciPy's modules through it alone.
Importing the package, designing a network in forked workers and saving
the results load none of SciPy's ``optimize``, ``linalg``, ``sparse``,
``special`` and ``_lib._array_api`` packages.  The package and the scripts
import nothing beyond the standard library, NumPy, SciPy and the package
itself, and the scripts also the benchmark's workload fixtures."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sccopt

PACKAGE = sorted(Path(sccopt.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))
SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_detects_an_unused_import():
    source = "import os\nimport scipy.sparse as sp\nfrom math import pi, tau\nprint(sp, tau)\n"
    assert unused_imports(source) == ["os (line 1)", "pi (line 3)"]


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def private_sibling_imports(source: str) -> list[str]:
    """Underscore-prefixed names, dunders aside, imported from sccopt."""
    tree = ast.parse(source)
    return sorted(f"{a.name} (line {node.lineno})" for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and (node.level > 0 or (node.module or "").split(".")[0] == "sccopt")
                  for a in node.names
                  if a.name.startswith("_") and not a.name.endswith("__"))


def test_detects_a_private_sibling_import():
    source = ("from . import __version__, _cache\nfrom .lp import _rows, solve_lp\n"
              "from sccopt.obbt import _PAD\nfrom numpy import _private\n")
    assert private_sibling_imports(source) == ["_PAD (line 3)", "_cache (line 1)",
                                               "_rows (line 2)"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_module_imports_no_private_sibling_name(path):
    assert private_sibling_imports(path.read_text()) == []


# the extension loader, whose calls count as imports of the names they pass
LOADER = "load_extension"


def loader_calls(tree: ast.AST) -> list[ast.Call]:
    """Calls of ``scipy_ext.load_extension``, by name or as an attribute."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == LOADER]


def imports_of(source: str, package: str, loader: bool = True) -> list[str]:
    """Imports of ``package`` or of anything inside it, by an import
    statement or, unless ``loader`` is False, by the dotted name passed to
    the extension loader."""
    tree = ast.parse(source)
    modules = [(a.name, node.lineno) for node in ast.walk(tree)
               if isinstance(node, ast.Import) for a in node.names]
    modules += [(f"{node.module}.{a.name}", node.lineno) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module for a in node.names]
    modules += [(node.args[0].value, node.lineno) for node in loader_calls(tree)
                if loader and node.args and isinstance(node.args[0], ast.Constant)]
    return sorted(f"{name} (line {line})" for name, line in modules
                  if f"{name}.".startswith(f"{package}."))


def test_detects_a_loaded_extension():
    source = ("from .scipy_ext import load_extension\n"
              "from . import scipy_ext\n"
              "_highs = load_extension('scipy.optimize._highspy._core')\n"
              "_lapack = scipy_ext.load_extension('scipy.linalg._flapack')\n"
              "load('scipy.linalg._fblas')\n")
    assert imports_of(source, "scipy") == ["scipy.linalg._flapack (line 4)",
                                           "scipy.optimize._highspy._core (line 3)"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_loader_is_called_with_literal_names(path):
    # the guards below read the names the loader is called with, so each
    # must be written out
    for call in loader_calls(ast.parse(path.read_text())):
        assert len(call.args) == 1 and isinstance(call.args[0], ast.Constant), call.lineno


# SciPy's HiGHS bindings
HIGHS = "scipy.optimize._highspy"
# SciPy's SuperLU bindings and sparse-product kernels
SUPERLU, SPARSETOOLS = "scipy.sparse.linalg._dsolve", "scipy.sparse._sparsetools"
# SciPy's sparse solvers, public and private: the hydraulic Jacobian is
# factored in hydraulics.py alone
SPARSE_LINALG = "scipy.sparse.linalg"
# SciPy's dense linear algebra, LAPACK's bindings among it: the Newton step's
# dense Schur matrix is factored in hydraulics.py alone
LINALG = "scipy.linalg"


def test_detects_a_highs_import():
    source = ("import scipy.optimize._highspy._core as h\n"
              "from scipy.optimize import _highspy, linprog\n"
              "from scipy.optimize._highspy._core import HighsLp\n"
              "import scipy.optimize._highspy_extra\n")
    assert imports_of(source, HIGHS) == [
        "scipy.optimize._highspy (line 2)",
        "scipy.optimize._highspy._core (line 1)",
        "scipy.optimize._highspy._core.HighsLp (line 3)"]


def test_detects_a_superlu_or_sparsetools_import():
    source = ("from scipy.sparse.linalg._dsolve import _superlu\n"
              "from scipy.sparse import _sparsetools, csc_array\n"
              "import scipy.sparse.linalg as spla\n"
              "from scipy.sparse.linalg import _dsolve\n"
              "from scipy.sparse.linalg import spsolve\n"
              "from scipy.sparse import linalg\n"
              "import scipy.sparse.linalgebra\n")
    assert imports_of(source, SUPERLU) == [
        "scipy.sparse.linalg._dsolve (line 4)",
        "scipy.sparse.linalg._dsolve._superlu (line 1)"]
    assert imports_of(source, SPARSETOOLS) == ["scipy.sparse._sparsetools (line 2)"]
    assert imports_of(source, SPARSE_LINALG) == [
        "scipy.sparse.linalg (line 3)",
        "scipy.sparse.linalg (line 6)",
        "scipy.sparse.linalg._dsolve (line 4)",
        "scipy.sparse.linalg._dsolve._superlu (line 1)",
        "scipy.sparse.linalg.spsolve (line 5)"]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "lp.py"],
                         ids=lambda p: p.name)
def test_only_lp_imports_highs(path):
    # HiGHS stays behind solve_lp, as lp.py's docstring promises
    assert imports_of(path.read_text(), HIGHS) == []


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "hydraulics.py"],
                         ids=lambda p: p.name)
def test_only_hydraulics_imports_superlu_and_sparsetools(path):
    # SuperLU's bindings stay in hydraulics.py, as its docstring promises;
    # the sparsetools kernels stay in csc.py alone, which the guard below
    # checks of every other module, hydraulics.py included
    assert imports_of(path.read_text(), SUPERLU) == []


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "csc.py"],
                         ids=lambda p: p.name)
def test_only_csc_imports_sparsetools(path):
    # every sparse array the kernels see was checked by a CscMatrix
    # constructor, as csc.py's docstring promises
    assert imports_of(path.read_text(), SPARSETOOLS) == []


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "hydraulics.py"],
                         ids=lambda p: p.name)
def test_only_hydraulics_imports_sparse_linalg(path):
    # the hydraulic Jacobian is factored in hydraulics.py alone: kkt_solve
    # for the Newton step, jacobian_solve for the SCP step
    assert imports_of(path.read_text(), SPARSE_LINALG) == []


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "hydraulics.py"],
                         ids=lambda p: p.name)
def test_only_hydraulics_imports_lapack(path):
    assert imports_of(path.read_text(), LINALG) == []


def test_hydraulics_imports_superlu_and_lapack():
    # the guards above name the modules the kernel really imports
    source = Path(sccopt.__file__).with_name("hydraulics.py").read_text()
    assert imports_of(source, SUPERLU) and imports_of(source, LINALG)


def test_csc_imports_sparsetools():
    assert imports_of(Path(sccopt.__file__).with_name("csc.py").read_text(), SPARSETOOLS)


def test_detects_a_scipy_import_statement():
    source = ("import scipy\n"
              "from scipy.sparse import csc_array\n"
              "_k = load_extension('scipy.sparse._sparsetools')\n")
    assert imports_of(source, "scipy", loader=False) == ["scipy (line 1)",
                                                         "scipy.sparse.csc_array (line 2)"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_imports_scipy_only_through_the_loader(path):
    # so no package's __init__ beyond scipy's own runs; scipy_ext.py imports
    # scipy to find its directory
    allowed = ["scipy"] if path.name == "scipy_ext.py" else []
    names = [name.rsplit(" (line ", 1)[0]
             for name in imports_of(path.read_text(), "scipy", loader=False)]
    assert names == allowed


def test_lp_imports_highs():
    # the guard above names the module lp.py really imports
    assert imports_of(Path(sccopt.__file__).with_name("lp.py").read_text(), HIGHS)


# SciPy packages whose __init__s load over 300 modules the solver never calls:
# the loader reaches their extension modules without them, and is_connected
# does its own search instead of calling csgraph, which imports
# scipy.sparse.linalg.  scipy._lib._array_api, which scipy.sparse and
# scipy.special import, clones NumPy's namespace, numpy.f2py included
UNLOADED = ["scipy._lib._array_api", "scipy.linalg", "scipy.optimize", "scipy.sparse",
            "scipy.sparse.csgraph", "scipy.sparse.linalg", "scipy.special"]

# Designs grid25 as the benchmark's grid25_design workload does, in two
# forked candidate workers, each of which fails its candidate once it holds
# one of the packages, and saves the results
IMPORT_DESIGN_AND_SAVE = """
import sys
import tempfile
import sccopt
from sccopt import pipeline
from sccopt.netgen import grid_network

def loaded():
    return sorted(m for m in sys.modules if m in {unloaded!r})

def checked(i, run=None, solve=pipeline._solve_candidate):
    result = solve(i, run)
    if loaded():
        raise RuntimeError(f"a candidate worker loaded {{loaded()}}")
    return result

pipeline._solve_candidate = checked
pipeline._usable_cpus = lambda: 2
net = grid_network(5, 5, demand=0.003, length=500.0, diameter=0.2, hw=130.0,
                   source_head=70.0, seed=7)
sol = pipeline.run_cms(net, pipeline.RunConfig(n_v=1, n_f=1, n_samples=40, n_starts=4,
                                               seed=0))
with tempfile.TemporaryDirectory() as out:
    pipeline.save_results(sol, net, out)
print(*loaded())
"""


def test_import_and_network_build_leave_unused_scipy_packages_unloaded():
    # in a fresh interpreter, since this one has imported them for other tests
    src = str(Path(sccopt.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c",
                           IMPORT_DESIGN_AND_SAVE.format(unloaded=UNLOADED)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


# SciPy's special functions: the sigmoid psi is written once, in scc.py, so
# the objective and the relaxation's envelopes evaluate the same curve
SPECIAL = "scipy.special"


def test_detects_a_special_import():
    source = ("from scipy.special import expit\n"
              "import scipy.special as sc\n"
              "from scipy import special, stats\n"
              "import scipy.special_extra\n")
    assert imports_of(source, SPECIAL) == [
        "scipy.special (line 2)",
        "scipy.special (line 3)",
        "scipy.special.expit (line 1)"]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "scc.py"],
                         ids=lambda p: p.name)
def test_only_scc_imports_special(path):
    # envelopes.py takes sigmoid and sigmoid_prime from scc.py
    assert imports_of(path.read_text(), SPECIAL) == []


def test_scc_imports_special():
    # the guard above names the module scc.py really imports
    source = Path(sccopt.__file__).with_name("scc.py").read_text()
    assert imports_of(source, SPECIAL)


# the standard library's thread and process modules: OBBT's worker thread and
# run_cms's forked candidate workers are the package's only concurrency
THREADS = ("threading", "concurrent.futures", "multiprocessing")
# what pipeline.py may import of them: run_cms joins the worker processes it
# forks before it returns or raises, as its docstring promises
PIPELINE_POOL = ["concurrent.futures.ProcessPoolExecutor", "multiprocessing"]
# what lp.py may import of them: the thread-local store of each thread's
# cold HiGHS instance, which starts no thread
LP_LOCAL = ["threading.local"]


def thread_imports(source: str) -> list[str]:
    return sorted(name for package in THREADS for name in imports_of(source, package))


def test_detects_a_thread_import():
    source = ("import threading\n"
              "from concurrent.futures import ThreadPoolExecutor\n"
              "import multiprocessing.pool as mpp\n"
              "from concurrent import futures\n"
              "import threadpoolctl\n")
    assert thread_imports(source) == [
        "concurrent.futures (line 4)",
        "concurrent.futures.ThreadPoolExecutor (line 2)",
        "multiprocessing.pool (line 3)",
        "threading (line 1)"]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "obbt.py"],
                         ids=lambda p: p.name)
def test_only_obbt_starts_threads(path):
    # obbt.tighten joins the one worker thread it starts before it returns,
    # as its docstring promises; pipeline.py forks processes and starts no
    # thread of its own, and lp.py only keeps per-thread data
    names = [name.rsplit(" (line ", 1)[0] for name in thread_imports(path.read_text())]
    assert names == {"pipeline.py": PIPELINE_POOL, "lp.py": LP_LOCAL}.get(path.name, [])


# the declared dependencies; networkx and pytest-benchmark may be installed,
# but nothing may start depending on them
DEPENDENCIES = {"numpy", "scipy", "sccopt"}
# the benchmark's workload fixtures, which scripts/design_digests.py and
# scripts/placement_study.py run
WORKLOADS = "workloads"


def foreign_imports(source: str, allowed: set[str]) -> list[str]:
    """Absolute imports whose top-level module is neither in the standard
    library nor in ``allowed``."""
    tree = ast.parse(source)
    modules = [(a.name, node.lineno) for node in ast.walk(tree)
               if isinstance(node, ast.Import) for a in node.names]
    modules += [(node.module, node.lineno) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 0]
    return sorted(f"{name} (line {line})" for name, line in modules
                  if name.split(".")[0] not in sys.stdlib_module_names | allowed)


def test_detects_a_foreign_import():
    source = ("from __future__ import annotations\n"
              "import os.path, networkx as nx\n"
              "from scipy.sparse import csr_matrix\n"
              "from .lp import solve_lp\n"
              "from pytest_benchmark import plugin\n"
              "import numpyro\n")
    assert foreign_imports(source, DEPENDENCIES) == [
        "networkx (line 2)", "numpyro (line 6)", "pytest_benchmark (line 5)"]
    assert foreign_imports("from workloads import WORKLOADS\n", DEPENDENCIES) == [
        "workloads (line 1)"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_imports_only_declared_dependencies(path):
    assert foreign_imports(path.read_text(), DEPENDENCIES) == []


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports_only_declared_dependencies(path):
    assert foreign_imports(path.read_text(), DEPENDENCIES | {WORKLOADS}) == []
