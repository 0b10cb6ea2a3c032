"""The SciPy extension loader: SciPy's packages and sccopt share one object
of each extension module, whichever is imported first, and each keeps
working alongside the other."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sccopt
from sccopt.scipy_ext import SCIPY_PIN, load_extension

SRC = str(Path(sccopt.__file__).resolve().parent.parent)
EXTENSIONS = ["scipy.optimize._highspy._core", "scipy.sparse.linalg._dsolve._superlu",
              "scipy.linalg._flapack", "scipy.sparse._sparsetools",
              "scipy.special._special_ufuncs"]

# Imports SciPy's packages and their extension modules the usual way, then
# sccopt, and solves an LP and a steady state with it
SCIPY_FIRST = """
import scipy.optimize._highspy._core as highs
import scipy.special
from scipy.linalg import _flapack
from scipy.sparse import _sparsetools
from scipy.sparse.linalg._dsolve import _superlu

import numpy as np
from sccopt import csc, hydraulics, lp, scc
from sccopt.netgen import loop_network

print(lp._highs is highs, hydraulics._superlu is _superlu, hydraulics._flapack is _flapack,
      csc._sparsetools is _sparsetools, scc.expit is scipy.special.expit)
sol = lp.solve_lp(lp.LinearProgram(np.ones(2), csc.CscMatrix.from_dense(np.ones((1, 2))), np.ones(1),
                                   np.full(1, np.inf), np.zeros(2), np.full(2, 5.0)))
print(sol.status, sol.objective)
net = loop_network(4)
balanced = []
# the Newton step by dense Cholesky, then by SuperLU
for max_nodes in (hydraulics.DENSE_SCHUR_MAX_NODES, 0):
    hydraulics.DENSE_SCHUR_MAX_NODES = max_nodes
    q, h = hydraulics.solve_steady(net, hydraulics.headloss_params(net), net.demands[0],
                                   net.source_heads[0])
    balanced.append(bool(np.allclose(net.A12T @ q, net.demands[0], rtol=0, atol=1e-8)))
print(*balanced)
"""

# Imports sccopt, then calls SciPy's public functions that run the same
# extension modules, then solves a design in one process and in two forked
# workers; the fork comes after linprog and sccopt have both run HiGHS
SCCOPT_FIRST = """
import sys

import numpy as np
import scipy.sparse as sp
from sccopt import hydraulics, lp, pipeline
from sccopt.netgen import random_network

import scipy.linalg, scipy.linalg.lapack, scipy.optimize, scipy.sparse.linalg

print(lp._highs is sys.modules["scipy.optimize._highspy._core"],
      hydraulics._superlu is sys.modules["scipy.sparse.linalg._dsolve._superlu"],
      hydraulics._flapack is scipy.linalg.lapack._flapack,
      scipy.linalg.lapack.dpotrf is hydraulics._flapack.dpotrf,
      scipy.linalg.lapack.dpotrs is hydraulics._flapack.dpotrs)
res = scipy.optimize.linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], method="highs")
print(res.status, res.fun)
A = np.array([[4.0, 1.0], [1.0, 3.0]])
b = np.array([1.0, 2.0])
x_chol = scipy.linalg.cho_solve(scipy.linalg.cho_factor(A), b)
x_lu = scipy.sparse.linalg.splu(sp.csc_matrix(A)).solve(b)
print(bool(np.allclose(A @ x_chol, b)), bool(np.allclose(A @ x_lu, b)))

net = random_network(20, 6, seed=3)
config = pipeline.RunConfig(n_v=1, n_f=1, n_samples=4, n_starts=1, seed=2)
runs = []
for cpus in (1, 2):
    pipeline._usable_cpus = lambda: cpus
    sol = pipeline.run_cms(net, config)
    runs.append((sol.candidate_scores, sol.design, sol.scc_smooth))
print(runs[0] == runs[1], len(runs[0][0]))
"""


def run_script(code: str) -> list[str]:
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": SRC})
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_scipy_first_shares_its_modules_with_sccopt():
    shared, lp_result, balanced = run_script(SCIPY_FIRST)
    assert shared == "True True True True True"
    assert lp_result == "optimal 1.0"
    assert balanced == "True True"


def test_sccopt_first_leaves_scipy_working():
    shared, linprog, solves, workers = run_script(SCCOPT_FIRST)
    assert shared == "True True True True True"
    assert linprog == "0 1.0"
    assert solves == "True True"
    same, n_candidates = workers.split()
    assert same == "True" and int(n_candidates) >= 2


# Loads the ufunc module alone, as sccopt does, then imports scipy.special
# the usual way
SPECIAL_AFTER = """
import sys
from sccopt.scipy_ext import load_extension
_special_ufuncs = load_extension("scipy.special._special_ufuncs", attrs=("expit",))
print("scipy.special" in sys.modules)
import scipy.special
print(_special_ufuncs.expit is scipy.special.expit)
"""


def test_loaded_expit_is_scipy_special_expit():
    # so the sigmoid keeps the bits of scipy.special.expit, though the
    # loader runs no code of the scipy.special package
    assert run_script(SPECIAL_AFTER) == ["False", "True"]


@pytest.mark.parametrize("name", EXTENSIONS)
def test_loader_returns_the_registered_module(name):
    assert load_extension(name) is sys.modules[name]
    assert load_extension(name).__spec__.name == name


def test_missing_module_raises_import_error():
    name = "scipy.optimize._highspy._no_such_module"
    message = f"{re.escape(name)}.*{re.escape(SCIPY_PIN)}"
    with pytest.raises(ImportError, match=message) as raised:
        load_extension(name)
    assert raised.value.name == name
    assert name not in sys.modules


def test_missing_attribute_raises_import_error():
    # as on a SciPy release whose ufunc module lacks expit
    name = "scipy.special._special_ufuncs"
    message = f"{re.escape(name)} has no no_such_ufunc.*{re.escape(SCIPY_PIN)}"
    with pytest.raises(ImportError, match=message) as raised:
        load_extension(name, attrs=("expit", "no_such_ufunc"))
    assert raised.value.name == name
