"""Sparse LP data model and solver front end.

The default engine is HiGHS (via scipy); the thin adapter keeps the rest of
the pipeline independent of the engine so a different solver can be swapped
in behind ``solve_lp``.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .errors import InconsistentBounds

LEQ = "<"
EQ = "="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"

_STATUS = {0: OPTIMAL, 1: ITERATION_LIMIT, 2: INFEASIBLE, 3: UNBOUNDED}


@dataclass
class LinearProgram:
    """min c @ x  s.t.  A x (<=|=) b,  lb <= x <= ub."""

    c: np.ndarray
    A: sp.csr_matrix
    senses: np.ndarray
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    names: list[str] | None = None

    @property
    def n_rows(self) -> int:
        return self.A.shape[0]

    @property
    def n_cols(self) -> int:
        return self.A.shape[1]

    def validate(self):
        n, m = self.n_rows, self.n_cols
        if not (len(self.c) == len(self.lb) == len(self.ub) == m):
            raise ValueError("column dimension mismatch")
        if not (len(self.senses) == len(self.b) == n):
            raise ValueError("row dimension mismatch")
        if np.any(np.isnan(self.A.data)) or np.any(np.isnan(self.c)) or np.any(np.isnan(self.b)):
            raise ValueError("NaN coefficient in LP")
        bad = self.lb > self.ub
        if np.any(bad):
            idx = int(np.argmax(bad))
            name = self.names[idx] if self.names else str(idx)
            raise InconsistentBounds(
                f"variable {name}: lower bound {self.lb[idx]} > upper bound {self.ub[idx]}")

    def with_objective(self, c: np.ndarray) -> "LinearProgram":
        """Same constraints, new objective (OBBT re-solves use this)."""
        return replace(self, c=np.asarray(c, dtype=float))


@dataclass
class LpSolution:
    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    duals: np.ndarray | None = None


def solve_lp(lp: LinearProgram, max_iter: int | None = None) -> LpSolution:
    """Solve with HiGHS; duals are returned in the original row order."""
    lp.validate()
    is_eq = lp.senses == EQ
    A_eq = lp.A[is_eq] if is_eq.any() else None
    b_eq = lp.b[is_eq] if is_eq.any() else None
    A_ub = lp.A[~is_eq] if (~is_eq).any() else None
    b_ub = lp.b[~is_eq] if (~is_eq).any() else None
    bounds = np.column_stack([lp.lb, lp.ub])
    options = {}
    if max_iter is not None:
        options["maxiter"] = max_iter
    res = linprog(lp.c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=bounds, method="highs", options=options)
    status = _STATUS.get(res.status, INFEASIBLE)
    if status != OPTIMAL:
        return LpSolution(status)
    duals = np.zeros(lp.n_rows)
    if A_eq is not None:
        duals[is_eq] = res.eqlin.marginals
    if A_ub is not None:
        duals[~is_eq] = res.ineqlin.marginals
    return LpSolution(OPTIMAL, np.asarray(res.x), float(res.fun), duals)


def write_lp_text(lp: LinearProgram, fileobj):
    """Dump in CPLEX LP text format for cross-checking with external solvers."""
    names = lp.names or [f"x{i}" for i in range(lp.n_cols)]

    def expr(row_idx):
        row = lp.A.getrow(row_idx)
        terms = [f"{'+' if v >= 0 else '-'} {abs(v):.17g} {names[j]}"
                 for j, v in zip(row.indices, row.data)]
        return " ".join(terms) if terms else "0 " + names[0]

    fileobj.write("Minimize\n obj:")
    wrote = False
    for j, v in enumerate(lp.c):
        if v != 0.0:
            fileobj.write(f" {'+' if v >= 0 else '-'} {abs(v):.17g} {names[j]}")
            wrote = True
    if not wrote:
        fileobj.write(" 0 " + names[0])
    fileobj.write("\nSubject To\n")
    for i in range(lp.n_rows):
        op = "=" if lp.senses[i] == EQ else "<="
        fileobj.write(f" r{i}: {expr(i)} {op} {lp.b[i]:.17g}\n")
    fileobj.write("Bounds\n")
    for j in range(lp.n_cols):
        lo = f"{lp.lb[j]:.17g}" if np.isfinite(lp.lb[j]) else "-inf"
        hi = f"{lp.ub[j]:.17g}" if np.isfinite(lp.ub[j]) else "+inf"
        fileobj.write(f" {lo} <= {names[j]} <= {hi}\n")
    fileobj.write("End\n")
