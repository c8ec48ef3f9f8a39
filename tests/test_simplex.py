"""The in-repo LP kernel on its one program: minimise ``c @ x`` over
``x >= 0``, ``sum x = 1``, ``H x >= 0``."""

import numpy as np
import pytest

from credalnet import polytope, simplex
from credalnet.errors import CapabilityError


def random_rows(rng, n: int, m: int) -> np.ndarray:
    """``m`` homogeneous rows that hold, with some slack, at a random
    mass function: a nonempty program."""
    p = rng.dirichlet(np.ones(n))
    A = rng.normal(size=(m, n))
    return A - (A @ p - rng.uniform(0, 1, size=m))[:, None]


def beale_tableau():
    """The condensed tableau of Beale's cycling instance, minimise
    ``-3/4 x0 + 150 x1 - 1/50 x2 + 6 x3`` over ``1/4 x0 - 60 x1 - 1/25 x2
    + 9 x3 <= 0``, ``1/2 x0 - 90 x1 - 1/50 x2 + 3 x3 <= 0``, ``x2 <= 1``,
    priced for phase 2: every row on its surplus, labels 4-6, and the
    variables nonbasic."""
    T = np.array([[0.25, -60.0, -0.04, 9.0, 0.0],
                  [0.5, -90.0, -0.02, 3.0, 0.0],
                  [0.0, 0.0, 1.0, 0.0, 1.0],
                  [-0.75, 150.0, -0.02, 6.0, 0.0]])
    return T, [4, 5, 6], np.arange(4)


class TestBasics:
    def test_bounded_minimum(self):
        # p(b) >= p(a): the minimum of -p(a) is at the uniform point
        res = simplex.solve([-1.0, 0.0], [[-1.0, 1.0]])
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-0.5)
        assert res.x == pytest.approx([0.5, 0.5])

    def test_infeasible(self):
        res = simplex.solve([1.0], [[-1.0]])
        assert res.status == "infeasible"

    def test_degenerate_cycling_guard(self, monkeypatch):
        # classic cycling instance for naive most-negative pivoting; with
        # a stall limit of 1, the first (degenerate) pivot switches to
        # Bland's rule
        pivots = []
        pivot = simplex._pivot
        monkeypatch.setattr(simplex, "_pivot", lambda T, b, nb, k, row, col: (
            pivots.append((b[row], int(nb[col]))) or pivot(T, b, nb, k, row,
                                                           col)))
        for stall in (simplex._STALL_LIMIT, 1):
            monkeypatch.setattr(simplex, "_STALL_LIMIT", stall)
            T, basis, nonbasic = beale_tableau()
            del pivots[:]
            assert simplex._run_simplex(T, basis, nonbasic, 7) == "optimal"
            assert -T[-1, -1] == pytest.approx(-0.05)
            assert pivots == [(5, 0), (6, 2)]
            assert basis == [4, 0, 2]

    def test_no_constraints(self):
        res = simplex.solve([2.0, 1.0])
        assert res.status == "optimal"
        assert res.objective == 1.0


class TestAgainstEnumeration:
    def test_random_simplex_objectives(self, rng):
        # minimise over the probability simplex: the optimum is the
        # smallest coefficient
        for _ in range(25):
            n = int(rng.integers(2, 7))
            c = rng.normal(size=n)
            res = simplex.solve(c, np.eye(n))
            assert res.status == "optimal"
            assert res.objective == pytest.approx(c.min(), abs=1e-9)

    def test_random_box_constraints(self, rng):
        # p in [lo, hi] boxes inside the simplex, as the rows p - lo and
        # hi - p: the optimum fills the cheapest states from lo up
        for _ in range(25):
            n = int(rng.integers(1, 6))
            lo = rng.dirichlet(np.ones(n)) * rng.uniform(0, 1)
            hi = np.minimum(lo + rng.uniform(0.1, 1, size=n), 1.0)
            hi[-1] = max(hi[-1], 1.0 - (hi[:-1] - lo[:-1]).sum())
            c = rng.normal(size=n)
            H = np.vstack([np.eye(n) - lo[:, None], hi[:, None] - np.eye(n)])
            p, left = lo.copy(), 1.0 - lo.sum()
            for i in np.argsort(c):
                p[i] += min(left, hi[i] - lo[i])
                left -= p[i] - lo[i]
            res = simplex.solve(c, H)
            assert res.objective == pytest.approx(c @ p, abs=1e-9)
            V = polytope.cut_simplex(n, H)
            assert (V @ c).min() == pytest.approx(c @ p, abs=1e-9)

    def test_random_rows_against_vertices(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 6))
            H = random_rows(rng, n, int(rng.integers(1, 2 * n)))
            V = polytope.cut_simplex(n, H)
            for _ in range(3):
                c = rng.normal(size=n)
                res = simplex.solve(c, H)
                assert res.status == "optimal"
                assert res.objective == pytest.approx((V @ c).min(),
                                                      abs=1e-9)
                assert (H @ res.x).min() >= -simplex.TOL_FEAS


class TestPhases:
    def test_phase2_reuses_one_phase1(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            H = random_rows(rng, n, n + 2)
            tableau = simplex.phase1(n, H)
            saved = tableau.T.copy()
            for _ in range(3):
                c = rng.normal(size=n)
                res = simplex.phase2(tableau, c)
                fresh = simplex.solve(c, H)
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
            H = rng.normal(size=(n + 2, n))
            H -= np.outer(H @ p, np.ones(n))   # H @ p = 0
            H[0] += rng.uniform(0, 1)          # one row with slack at p
            pivots.clear()
            tableau = simplex.phase1(n, H, start=p)
            # every row but the normalisation starts on its surplus, so
            # one pivot brings in the start column, the column after x,
            # for the normalisation's artificial, which is dropped
            assert pivots == [n]
            assert list(tableau.nonbasic) == list(range(n))
            assert tableau.T.shape == (n + 4, n + 1)
            for _ in range(3):
                c = rng.normal(size=n)
                res = simplex.phase2(tableau, c)
                fresh = simplex.solve(c, H)
                assert res.status == fresh.status == "optimal"
                assert res.objective == pytest.approx(fresh.objective,
                                                      abs=1e-12)
                assert res.objective == pytest.approx(c @ res.x, abs=1e-12)
                assert res.x.min() >= -simplex.TOL_FEAS
                assert (H @ res.x).min() >= -simplex.TOL_FEAS

    def test_phase1_infeasible(self):
        assert simplex.phase1(1, [[-1.0]]) is None


class TestTableauBound:
    def test_raises_before_allocating(self, monkeypatch):
        # the normalisation and 2 rows over 2 variables: both rows start
        # on their surplus and the normalisation on its artificial, so
        # both variables are nonbasic: 4 x (2 + 1) entries
        H = [[1.0, 0.0], [0.0, 1.0]]
        monkeypatch.setattr(simplex, "MAX_TABLEAU_BYTES", 4 * 3 * 8)
        assert simplex.solve([1.0, 2.0], H).status == "optimal"
        monkeypatch.setattr(simplex, "MAX_TABLEAU_BYTES", 4 * 3 * 8 - 1)
        with pytest.raises(CapabilityError, match="tableau"):
            simplex.solve([1.0, 2.0], H)

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
