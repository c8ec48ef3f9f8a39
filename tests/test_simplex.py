"""The in-repo LP kernel, float and exact-rational modes."""

from fractions import Fraction

import numpy as np
import pytest

from credalnet import simplex
from credalnet.errors import CapabilityError


class TestBasics:
    def test_bounded_minimum(self):
        res = simplex.solve([-1.0, -1.0],
                            A_ub=[[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]],
                            b_ub=[-1.0, 0.0, 0.0])
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-1.0)

    def test_equality_with_free_variables(self):
        # every variable is non-negative; a caller poses a free one, here
        # the second, as the difference of two columns
        res = simplex.solve([1.0, 0.0, 0.0], A_eq=[[1.0, 1.0, -1.0]],
                            b_eq=[1.0], A_ub=[[1.0, 0.0, 0.0]], b_ub=[0.3])
        assert res.status == "optimal"
        assert res.objective == pytest.approx(0.3)
        assert res.x.min() >= 0.0
        assert res.x[0] + res.x[1] - res.x[2] == pytest.approx(1.0)

    def test_infeasible(self):
        res = simplex.solve([1.0], A_ub=[[1.0], [-1.0]], b_ub=[1.0, 0.0])
        assert res.status == "infeasible"

    def test_unbounded(self):
        res = simplex.solve([-1.0], A_ub=[[1.0]], b_ub=[0.0])
        assert res.status == "unbounded"

    def test_degenerate_cycling_guard(self):
        # classic cycling instance for naive most-negative pivoting
        res = simplex.solve(
            [-0.75, 150.0, -0.02, 6.0],
            A_ub=[[-0.25, 60.0, 0.04, -9.0],
                  [-0.5, 90.0, 0.02, -3.0],
                  [0.0, 0.0, -1.0, 0.0]],
            b_ub=[0.0, 0.0, -1.0])
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-0.05)

    def test_no_constraints(self):
        res = simplex.solve([1.0, 2.0])
        assert res.status == "optimal"
        assert res.objective == 0.0
        res = simplex.solve([1, 2], exact=True)
        assert res.status == "optimal" and res.objective == 0
        assert simplex.solve([-1.0], exact=True).status == "unbounded"

    def test_redundant_rows(self):
        res = simplex.solve([1.0, 1.0],
                            A_eq=[[1.0, 1.0], [2.0, 2.0]], b_eq=[1.0, 2.0])
        assert res.status == "optimal"
        assert res.objective == pytest.approx(1.0)


class TestAgainstEnumeration:
    def test_random_simplex_objectives(self, rng):
        # minimise over the probability simplex: the optimum is the
        # smallest coefficient
        for _ in range(25):
            n = int(rng.integers(2, 7))
            c = rng.normal(size=n)
            res = simplex.solve(c, A_eq=np.ones((1, n)), b_eq=[1.0],
                                A_ub=np.eye(n), b_ub=np.zeros(n))
            assert res.status == "optimal"
            assert res.objective == pytest.approx(c.min(), abs=1e-9)

    def test_random_box_constraints(self, rng):
        # variables in [lo, hi] boxes: optimum picks interval ends
        for _ in range(25):
            n = int(rng.integers(1, 5))
            lo = rng.uniform(0, 2, size=n)
            hi = lo + rng.uniform(0.1, 2, size=n)
            c = rng.normal(size=n)
            A = np.vstack([np.eye(n), -np.eye(n)])
            b = np.concatenate([lo, -hi])
            res = simplex.solve(c, A_ub=A, b_ub=b)
            expect = float(np.where(c >= 0, c * lo, c * hi).sum())
            assert res.objective == pytest.approx(expect, abs=1e-9)


class TestExactMode:
    def test_rational_optimum(self):
        res = simplex.solve(
            [Fraction(1), Fraction(0)],
            A_eq=[[1, 1]], b_eq=[1],
            A_ub=[[1, 0], [0, 1]], b_ub=[Fraction(1, 4), Fraction(0)],
            exact=True)
        assert res.status == "optimal"
        assert res.objective == Fraction(1, 4)

    def test_exact_matches_float(self, rng):
        for _ in range(10):
            n = 4
            c = [Fraction(int(x), 16) for x in rng.integers(-16, 16, size=n)]
            res_f = simplex.solve([float(v) for v in c],
                                  A_eq=np.ones((1, n)), b_eq=[1.0],
                                  A_ub=np.eye(n), b_ub=np.zeros(n))
            res_q = simplex.solve(c, A_eq=[[1] * n], b_eq=[1],
                                  A_ub=np.eye(n), b_ub=[0] * n, exact=True)
            assert res_q.status == "optimal"
            assert float(res_q.objective) == pytest.approx(res_f.objective,
                                                           abs=1e-12)


class TestPhases:
    def test_phase2_reuses_one_phase1(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            A = rng.normal(size=(n + 2, n))
            # rows that hold, with some slack, at a point of the simplex
            b = A @ rng.dirichlet(np.ones(n)) - rng.uniform(0, 1, size=n + 2)
            tableau = simplex.phase1(n, np.ones((1, n)), [1.0], A, b)
            saved = tableau.T.copy()
            for _ in range(3):
                c = rng.normal(size=n)
                res = simplex.phase2(tableau, c)
                fresh = simplex.solve(c, A_eq=np.ones((1, n)), b_eq=[1.0],
                                      A_ub=A, b_ub=b)
                assert res.status == fresh.status == "optimal"
                assert np.array_equal(res.x, fresh.x)
            assert np.array_equal(tableau.T, saved)
            # the n + 3 rows hold n + 3 of the 2n + 2 variables, and no
            # artificial is kept: a column for each of the other n - 1
            assert sorted([*tableau.basis, *tableau.nonbasic]) == \
                list(range(2 * n + 2))
            assert tableau.T.shape == (n + 4, (n - 1) + 1)

    def test_start_point(self, rng, monkeypatch):
        pivots = []
        pivot = simplex._pivot
        monkeypatch.setattr(simplex, "_pivot",
                            lambda *a: pivots.append(a[-1]) or pivot(*a))
        for _ in range(10):
            n = int(rng.integers(2, 6))
            p = rng.dirichlet(np.ones(n))
            A = rng.normal(size=(n + 2, n))
            A -= np.outer(A @ p, np.ones(n))   # homogeneous rows, A @ p = 0
            A[0] += rng.uniform(0, 1)          # one with slack at p
            b = np.zeros(n + 2)
            pivots.clear()
            tableau = simplex.phase1(n, np.ones((1, n)), [1.0], A, b, start=p)
            # every row but the equality starts on its surplus, so one
            # pivot brings in the start column, the column after x, for
            # the equality's artificial, which is dropped
            assert pivots == [n]
            assert list(tableau.nonbasic) == list(range(n))
            assert tableau.T.shape == (n + 4, n + 1)
            for _ in range(3):
                c = rng.normal(size=n)
                res = simplex.phase2(tableau, c)
                fresh = simplex.solve(c, A_eq=np.ones((1, n)), b_eq=[1.0],
                                      A_ub=A, b_ub=b)
                assert res.status == fresh.status == "optimal"
                assert res.objective == pytest.approx(fresh.objective,
                                                      abs=1e-12)
                assert res.objective == pytest.approx(c @ res.x, abs=1e-12)
                assert res.x.min() >= -simplex.TOL_FEAS
                assert (A @ res.x).min() >= -simplex.TOL_FEAS

    def test_phase1_infeasible(self):
        assert simplex.phase1(1, A_ub=[[1.0], [-1.0]], b_ub=[1.0, 0.0]) is None


class TestTableauBound:
    def test_raises_before_allocating(self, monkeypatch):
        # 3 rows over 2 variables, 2 of them with a surplus that starts
        # in the basis and the equality on its artificial, so both
        # variables are nonbasic: 4 x (2 + 1) entries
        args = dict(A_eq=[[1.0, 1.0]], b_eq=[1.0],
                    A_ub=[[1.0, 0.0], [0.0, 1.0]], b_ub=[0.0, 0.0])
        monkeypatch.setattr(simplex, "MAX_TABLEAU_BYTES", 4 * 3 * 8)
        assert simplex.solve([1.0, 2.0], **args).status == "optimal"
        monkeypatch.setattr(simplex, "MAX_TABLEAU_BYTES", 4 * 3 * 8 - 1)
        with pytest.raises(CapabilityError, match="tableau"):
            simplex.solve([1.0, 2.0], **args)
        with pytest.raises(CapabilityError, match="tableau"):
            simplex.solve([1.0, 2.0], exact=True, **args)

    def test_global_program(self, monkeypatch, two_coins):
        from credalnet import lp
        from credalnet.fileio import Query
        from credalnet.queries import run_query
        # 8 rows and the normalisation, then the cost row, over 4 joint
        # states, the start column and the rhs
        monkeypatch.setattr(simplex, "MAX_TABLEAU_BYTES", 10 * 6 * 8 - 1)
        f = two_coins.factor_from_values(["1"], [1.0, 0.0])
        with pytest.raises(CapabilityError, match="tableau"):
            lp.lower_expectation_lp(two_coins, f)
        query = Query(f, two_coins.cylinder({"2": "h"}), "natural", "lp",
                      1e-9)
        with pytest.raises(CapabilityError, match="tableau"):
            run_query(two_coins, query)
