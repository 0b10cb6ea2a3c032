"""Loading one SciPy extension module without its package's ``__init__``.

The solver calls five compiled SciPy modules: HiGHS's bindings
(``scipy.optimize._highspy._core``), SuperLU's
(``scipy.sparse.linalg._dsolve._superlu``), LAPACK's
(``scipy.linalg._flapack``), the sparse kernels
(``scipy.sparse._sparsetools``) and the ufunc ``expit``
(``scipy.special._special_ufuncs``).  Importing them the usual way first
runs ``scipy.optimize``, ``scipy.sparse.linalg``, ``scipy.linalg``,
``scipy.sparse`` and ``scipy.special``, whose ``__init__``s load over 300
more modules that the solver never calls and take most of a solver
process's memory and start-up time.  ``load_extension`` finds the one
compiled file in its own directory under SciPy's and runs it alone.

The module is run under its canonical dotted name and registered in
``sys.modules``, so SciPy's own packages, imported before or after, share the
one module object: a name already registered is returned as it is, and one
loaded here is what the SciPy package that imports it later gets.  A
pybind11 module such as HiGHS's therefore never registers its types twice,
and ``expit`` is the object ``scipy.special`` exports.
A package imported later finds the module through its ``from`` imports, as
SciPy's code reaches these five, but does not get it as an attribute:
after ``import scipy.linalg``, ``scipy.linalg._flapack`` raises
AttributeError where ``from scipy.linalg import _flapack`` works.
"""
from __future__ import annotations

import importlib.util
import os
import sys
from importlib.machinery import PathFinder
from types import ModuleType

import scipy

# the SciPy releases whose private modules sccopt calls with these names
SCIPY_PIN = "scipy>=1.15,<1.18"


def load_extension(name: str, attrs: tuple[str, ...] = ()) -> ModuleType:
    """The SciPy extension module of dotted ``name``, such as
    ``"scipy.linalg._flapack"``, loaded without importing its parent
    packages beyond ``scipy``.

    Raises ImportError when no such module is in the installed SciPy, or
    when it lacks one of the names in ``attrs``.
    """
    module = sys.modules.get(name)
    if module is None:
        package = name.split(".")[1:-1]
        spec = PathFinder.find_spec(name, [os.path.join(scipy.__path__[0], *package)])
        if spec is None:
            raise _outside_pin(f"SciPy has no module {name}", name)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    missing = [a for a in attrs if not hasattr(module, a)]
    if missing:
        raise _outside_pin(f"SciPy's {name} has no {', '.join(missing)}", name)
    return module


def _outside_pin(problem: str, name: str) -> ImportError:
    return ImportError(f"{problem}; sccopt calls it as present in {SCIPY_PIN}, "
                       f"and this is SciPy {scipy.__version__}", name=name)
