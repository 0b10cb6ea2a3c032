import io

import numpy as np
import pytest
import scipy.sparse as sp

from oracle_simplex import simplex_solve
from sccopt.errors import InconsistentBounds
from sccopt.lp import (EQ, LEQ, INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram,
                       solve_lp, write_lp_text)


def make_lp(c, A, senses, b, lb, ub):
    return LinearProgram(np.asarray(c, float), sp.csr_matrix(np.asarray(A, float)),
                         np.asarray(senses), np.asarray(b, float),
                         np.asarray(lb, float), np.asarray(ub, float))


class TestSolveBasics:
    def test_tiny_lp(self):
        # min -x - y  s.t. x + y <= 1, 0 <= x,y <= 1  -> obj -1
        lp = make_lp([-1, -1], [[1, 1]], [LEQ], [1], [0, 0], [1, 1])
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(-1.0)

    def test_equality_row(self):
        lp = make_lp([1, 2], [[1, 1]], [EQ], [3], [0, 0], [10, 10])
        sol = solve_lp(lp)
        assert sol.objective == pytest.approx(3.0)
        assert sol.x == pytest.approx([3.0, 0.0])

    def test_infeasible_detected(self):
        lp = make_lp([1], [[1]], [EQ], [5], [0], [1])
        assert solve_lp(lp).status == INFEASIBLE

    def test_unbounded_detected(self):
        lp = make_lp([-1], [[0]], [LEQ], [1], [0], [np.inf])
        assert solve_lp(lp).status == UNBOUNDED

    def test_crossed_bounds_rejected(self):
        lp = make_lp([1], [[1]], [LEQ], [1], [2], [1])
        with pytest.raises(InconsistentBounds):
            solve_lp(lp)

    def test_nan_rejected(self):
        lp = make_lp([np.nan], [[1]], [LEQ], [1], [0], [1])
        with pytest.raises(ValueError):
            solve_lp(lp)

    def test_duals_row_order(self):
        # interleave eq and ub rows; duals must come back in original order
        lp = make_lp([1, 1, 1],
                     [[1, 0, 0], [0, 1, 1], [0, 0, 1]],
                     [LEQ, EQ, LEQ],
                     [2, 3, 2],
                     [0, 0, 0], [10, 10, 10])
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        assert len(sol.duals) == 3
        # binding equality row carries the nonzero dual
        assert abs(sol.duals[1]) > 0

    def test_with_objective_reuses_constraints(self):
        lp = make_lp([1, 0], [[1, 1]], [LEQ], [2], [0, 0], [5, 5])
        lp2 = lp.with_objective([-1, -1])
        assert solve_lp(lp).objective == pytest.approx(0.0)
        assert solve_lp(lp2).objective == pytest.approx(-2.0)


class TestAgainstOracle:
    def _random_instance(self, rng, n=12, m=8):
        # bounded-feasible random LP: box [0, u], random <= rows through an
        # interior point so feasibility is guaranteed
        u = rng.uniform(0.5, 3.0, size=n)
        x0 = u * rng.uniform(0.1, 0.9, size=n)
        A = rng.normal(size=(m, n))
        b = A @ x0 + rng.uniform(0.1, 1.0, size=m)
        c = rng.normal(size=n)
        return c, A, b, u

    @pytest.mark.parametrize("seed", range(12))
    def test_random_lps_match_independent_simplex(self, seed):
        rng = np.random.default_rng(seed)
        c, A, b, u = self._random_instance(rng)
        n, m = len(c), len(b)
        lp = make_lp(c, A, [LEQ] * m, b, np.zeros(n), u)
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        # oracle treats upper bounds as extra rows
        A_or = np.vstack([A, np.eye(n)])
        b_or = np.concatenate([b, u])
        status, x, obj = simplex_solve(c, A_ub=A_or, b_ub=b_or)
        assert status == "optimal"
        assert sol.objective == pytest.approx(obj, abs=1e-6)

    @pytest.mark.parametrize("seed", [100, 101, 102])
    def test_medium_random_lps(self, seed):
        rng = np.random.default_rng(seed)
        c, A, b, u = self._random_instance(rng, n=60, m=30)
        n, m = len(c), len(b)
        lp = make_lp(c, A, [LEQ] * m, b, np.zeros(n), u)
        sol = solve_lp(lp)
        A_or = np.vstack([A, np.eye(n)])
        b_or = np.concatenate([b, u])
        status, x, obj = simplex_solve(c, A_ub=A_or, b_ub=b_or)
        assert status == "optimal"
        assert sol.objective == pytest.approx(obj, abs=1e-5)

    def test_duals_satisfy_weak_duality(self):
        rng = np.random.default_rng(3)
        c, A, b, u = self._random_instance(rng)
        n, m = len(c), len(b)
        lp = make_lp(c, A, [LEQ] * m, b, np.zeros(n), u)
        sol = solve_lp(lp)
        # complementary slackness on constraint rows
        slack = b - A @ sol.x
        assert np.all(np.abs(sol.duals * slack) <= 1e-6)


class TestTextDump:
    def test_lp_format_structure(self):
        lp = make_lp([1, -2], [[1, 1], [1, -1]], [LEQ, EQ], [4, 0], [0, 0], [3, 3])
        buf = io.StringIO()
        write_lp_text(lp, buf)
        text = buf.getvalue()
        assert text.startswith("Minimize")
        assert "Subject To" in text and "Bounds" in text and text.rstrip().endswith("End")
        assert text.count("r0:") == 1 and " = " in text.split("r1:")[1].splitlines()[0]
