"""Local credal sets: expectations, dual representations, conversions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credalnet import fileio, polytope, simplex
from credalnet.credal import (CredalSet, MassFunction, binary_interval,
                              constraints_to_vertices, singleton, vacuous,
                              vertices_to_constraints)
from credalnet.errors import CapabilityError, InputError, ModelError
from credalnet.graph import Dag
from credalnet.network import CredalNetwork

from helpers import CUT_SETS, CUT_STATES, highs_minimum

TOL = 1e-9


def lp_lower(m: CredalSet, f) -> float:
    """The local LP over the homogeneous constraints of ``m``, whatever
    representation it was given in."""
    res = simplex.solve(np.asarray(f, dtype=float), m._H)
    assert res.status == "optimal"
    return float(res.objective)


class TestMassFunction:
    def test_valid(self):
        m = MassFunction(("a", "b"), (0.3, 0.7))
        assert m["a"] == 0.3

    def test_rejects_negative(self):
        with pytest.raises(InputError):
            MassFunction(("a", "b"), (-0.1, 1.1))

    def test_rejects_unnormalised(self):
        with pytest.raises(InputError):
            MassFunction(("a", "b"), (0.3, 0.3))


class TestVertexArray:
    """A vertex list becomes one checked array; each defect is refused
    with its own message."""

    @pytest.mark.parametrize("vertices, error, message", [
        ([(-0.25, 1.25)], InputError, r"negative probability in \(-0.25, 1.25\)"),
        ([(0.25, 0.5)], InputError, "probabilities sum to 0.75, not 1"),
        ([(0.25, 0.75), (0.25, 0.75)], InputError, "duplicate vertices"),
        ([(float("nan"), 0.5)], InputError, "not a finite number"),
        ([(float("inf"), 0.0)], InputError, "not a finite number"),
        ([(0.25, 0.75, 0.0)], InputError, "one number per state"),
        ([(0.25, 0.75), (1.0,)], InputError, "one number per state"),
        ([{"h": 1.0}], InputError, "does not cover the state space"),
        ([{"h": 1.0, "t": 0.0, "x": 0.0}], InputError,
         "does not cover the state space"),
        ([], ModelError, "empty vertex list"),
        (np.zeros((0, 2)), ModelError, "empty vertex list"),
    ], ids=["negative", "sum", "duplicate", "nan", "infinity", "wide",
            "ragged", "missing-state", "extra-state", "empty", "empty-array"])
    def test_defect(self, vertices, error, message):
        with pytest.raises(error, match=message):
            CredalSet(("h", "t"), vertices=vertices)
        if isinstance(vertices, np.ndarray) or \
                any(isinstance(v, dict) for v in vertices):
            return
        # the loader hands the rows over as lists
        with pytest.raises(error, match=message):
            CredalSet(("h", "t"), vertices=[list(v) for v in vertices])
        if all(len(v) == 2 for v in vertices):
            # a row of another width is no JSON object naming the states;
            # the loader leaves the rows to the network's one check
            entry = {"vertices": [dict(zip(("h", "t"), v)) for v in vertices]}
            with pytest.raises(error, match=message):
                numbers = fileio._parse_local(entry, ("h", "t"))
                # finite numbers reach the network as they are
                assert numbers == tuple(x for v in vertices for x in v)
                CredalNetwork(Dag(["x"], []), {"x": ("h", "t")},
                              {("x", ()): numbers})

    def test_vertex_inside_the_hull(self):
        with pytest.raises(InputError, match="vertex 2 lies in the convex "
                                             "hull of the others"):
            CredalSet(("a", "b", "c"), vertices=np.array(
                [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0]]))

    def test_vertices_conflict_with_constraints(self):
        with pytest.raises(InputError, match="a vertex violates"):
            CredalSet(("h", "t"), vertices=[(0.25, 0.75), (0.75, 0.25)],
                      constraints=[((1.0, 0.0), 0.5)])

    def test_constraint_width(self):
        with pytest.raises(InputError, match="constraint width mismatch"):
            CredalSet(("h", "t"), constraints=[((1.0, 0.0, 0.0, 1.0), 0.5)])

    def test_every_form_gives_the_same_array(self):
        rows = [(0.25, 0.75), (0.5, 0.5)]
        forms = [rows, np.array(rows),
                 [{"t": t, "h": h} for h, t in rows],
                 [MassFunction(("h", "t"), r) for r in rows]]
        for form in forms:
            m = CredalSet(("h", "t"), vertices=form)
            assert m._V.tolist() == [list(r) for r in rows]

    def test_views_are_built_on_demand(self):
        m = binary_interval(("h", "t"), 0.25, 0.75)
        m.lower_expectation([1.0, 0.0])
        assert "vertices" not in vars(m)
        assert m.vertices == (MassFunction(("h", "t"), (0.25, 0.75)),
                              MassFunction(("h", "t"), (0.75, 0.25)))


class TestLowerExpectation:
    def test_singleton_is_linear(self, rng):
        p = rng.dirichlet([1, 1, 1])
        m = singleton(("a", "b", "c"), p)
        f = rng.normal(size=3)
        assert m.lower_expectation(f) == pytest.approx(float(p @ f), abs=TOL)
        assert m.upper_expectation(f) == pytest.approx(float(p @ f), abs=TOL)

    def test_interval_bounds(self):
        m = binary_interval(("h", "t"), 0.25, 0.75)
        assert m.lower_probability({"h"}) == pytest.approx(0.25, abs=TOL)
        assert m.upper_probability({"h"}) == pytest.approx(0.75, abs=TOL)
        # conjugacy on the complementary state
        assert m.lower_probability({"t"}) == pytest.approx(0.25, abs=TOL)
        assert m.upper_probability({"t"}) == pytest.approx(0.75, abs=TOL)

    def test_vacuous_set(self, rng):
        m = vacuous(("a", "b", "c", "d"))
        f = rng.normal(size=4)
        assert m.lower_expectation(f) == pytest.approx(f.min(), abs=TOL)
        assert m.upper_expectation(f) == pytest.approx(f.max(), abs=TOL)

    def test_constant_gamble(self):
        m = binary_interval(("h", "t"), 0.2, 0.9)
        assert m.lower_expectation([3.5, 3.5]) == pytest.approx(3.5, abs=TOL)
        assert m.upper_expectation([3.5, 3.5]) == pytest.approx(3.5, abs=TOL)

    def test_probability_edge_events(self):
        m = binary_interval(("h", "t"), 0.25, 0.75)
        assert m.lower_probability({"h", "t"}) == pytest.approx(1.0, abs=TOL)
        assert m.lower_probability(set()) == pytest.approx(0.0, abs=TOL)

    def test_routes_agree(self, rng):
        for _ in range(15):
            pts = np.array([rng.dirichlet([1.0, 1.0, 1.0])
                            for _ in range(3)])
            try:
                m = CredalSet(("a", "b", "c"), vertices=pts)
            except InputError:
                continue  # a sampled point fell inside the hull
            f = rng.normal(size=3)
            assert m.lower_expectation(f) == pytest.approx(
                lp_lower(m, f), abs=TOL)

    def test_empty_set_rejected(self):
        # at construction, by the feasibility LP over the rows
        with pytest.raises(ModelError, match="credal set is empty"):
            CredalSet(("a", "b"), constraints=[({"a": 1.0, "b": 0.0}, 0.8),
                                               ({"a": -1.0, "b": 0.0}, -0.2)])


@st.composite
def interval_sets(draw):
    lo = draw(st.floats(min_value=0.0, max_value=1.0, width=32))
    hi = draw(st.floats(min_value=0.0, max_value=1.0, width=32))
    lo, hi = sorted((lo, hi))
    return binary_interval(("h", "t"), lo, hi)


@st.composite
def gambles(draw, n=2):
    return [draw(st.floats(min_value=-10, max_value=10, width=32))
            for _ in range(n)]


class TestCoherence:
    @settings(max_examples=80, deadline=None)
    @given(interval_sets(), gambles())
    def test_bounds_and_conjugacy(self, m, f):
        low = m.lower_expectation(f)
        high = m.upper_expectation(f)
        assert min(f) - TOL <= low <= high + TOL
        assert high <= max(f) + TOL
        # conjugacy is exact: same code path
        assert high == -m.lower_expectation([-v for v in f])

    @settings(max_examples=80, deadline=None)
    @given(interval_sets(), gambles(),
           st.floats(min_value=-5, max_value=5, width=32))
    def test_constant_additivity(self, m, f, c):
        shifted = m.lower_expectation([v + c for v in f])
        assert shifted == pytest.approx(m.lower_expectation(f) + c, abs=1e-9)

    @settings(max_examples=80, deadline=None)
    @given(interval_sets(), gambles(),
           st.floats(min_value=0, max_value=4, width=32))
    def test_positive_homogeneity(self, m, f, lam):
        scaled = m.lower_expectation([lam * v for v in f])
        assert scaled == pytest.approx(lam * m.lower_expectation(f), abs=1e-9)

    @settings(max_examples=80, deadline=None)
    @given(interval_sets(), gambles(), gambles())
    def test_superadditivity(self, m, f, g):
        joint = m.lower_expectation([a + b for a, b in zip(f, g)])
        assert joint >= m.lower_expectation(f) + m.lower_expectation(g) - 1e-9


def eager_rows(m: CredalSet) -> np.ndarray:
    """The homogeneous rows of ``m`` by the formula that construction
    once applied to every set."""
    n = len(m.states)
    if m.constraints is not None:
        G = np.array([np.array(c.coeffs) - c.bound
                      for c in m.constraints]).reshape(-1, n)
    elif n == 2:
        column = m._V[:, 0].tolist()
        lo, hi = min(column), max(column)
        return np.array([[1.0 - lo, -lo], [hi - 1.0, hi]])
    else:
        G = np.array([alpha - beta for alpha, beta in
                      polytope.facet_constraints(m._V)]).reshape(-1, n)
    scale = np.abs(G).max(axis=1)
    keep = scale > 1e-14
    return G[keep] / scale[keep, None]


class TestHomogeneous:
    @pytest.mark.parametrize("make", [
        lambda: binary_interval(("h", "t"), 0.25, 0.75),
        lambda: binary_interval(("h", "t"), 0.1, 0.1),
        lambda: vacuous(("a", "b", "c")),
        lambda: CredalSet(("a", "b", "c"), vertices=[
            (0.2, 0.3, 0.5), (0.6, 0.1, 0.3), (0.1, 0.8, 0.1)]),
        lambda: CredalSet(("a", "b", "c"), vertices=[
            (0.2, 0.3, 0.5), (0.6, 0.1, 0.3)]),
        lambda: CredalSet(CUT_STATES, constraints=CUT_SETS[0][0]),
        lambda: CredalSet(("h", "t"), constraints=[((1.0, 0.0), 0.25),
                                                   ((0.0, 1.0), 0.25)]),
        lambda: CredalSet(CUT_STATES, vertices=CUT_SETS[0][1],
                          constraints=CUT_SETS[0][0]),
    ], ids=["interval", "binary-point", "vacuous", "ternary-triangle",
            "ternary-segment", "constraints", "binary-constraints",
            "dual-form"])
    def test_rows_are_derived_on_first_read(self, make):
        m = make()
        # the checks of a set with constraints read the rows; nothing in
        # the construction of a vertex list does
        assert ("_H" in vars(m)) == (m.constraints is not None)
        m.lower_expectation(np.arange(m.n_states, dtype=float))
        assert ("_H" in vars(m)) == (m.constraints is not None)
        H, expected = m._H, eager_rows(m)
        assert H.dtype == expected.dtype and H.shape == expected.shape
        assert H.tobytes() == expected.tobytes()
        assert vars(m)["_H"] is H

    def test_interval_rows(self):
        m = binary_interval(("h", "t"), 0.25, 0.75)
        rows = {tuple(np.round(h, 12)) for h in m._H}
        # upper(t) p(h) - lower(h) p(t) >= 0  and  the mirrored row
        assert (0.75, -0.25) in rows
        assert (-0.25, 0.75) in rows
        assert len(rows) == 2

    def test_vacuous_rows_are_indicators(self):
        m = vacuous(("a", "b", "c"))
        rows = sorted(tuple(np.round(h, 12)) for h in m._H)
        assert rows == [(0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)]

    def test_feasible_set_matches_vertices(self, rng):
        # every vertex satisfies every row; outside points violate one
        for _ in range(10):
            pts = np.array([rng.dirichlet([2, 2, 2]) for _ in range(3)])
            try:
                m = CredalSet(("a", "b", "c"), vertices=pts)
            except InputError:
                continue
            H = m._H
            assert (pts @ H.T).min() >= -1e-7
            for _ in range(20):
                q = rng.dirichlet([1, 1, 1])
                inside = polytope.in_hull(q, pts)
                satisfied = (H @ q).min() >= -1e-7
                assert inside == satisfied

    def test_member(self, rng):
        # the first vertex, or the feasibility LP's point of a set given
        # by constraints only; either way inside the set
        for _ in range(10):
            pts = np.array([rng.dirichlet([2, 2, 2]) for _ in range(3)])
            try:
                m = CredalSet(("a", "b", "c"), vertices=pts)
            except InputError:
                continue
            assert np.array_equal(m.member, pts[0])
            twin = CredalSet(m.states, constraints=vertices_to_constraints(m))
            assert twin.contains(twin.member)


class TestRowsReadOnTheSimplex:
    """Sets whose rows admit negative "probabilities" off the simplex
    answer as their vertex twins do: every query reads the rows on the
    simplex."""

    @pytest.mark.parametrize("cons, verts", CUT_SETS)
    def test_rows_do_not_imply_nonnegativity(self, cons, verts):
        m = CredalSet(CUT_STATES, constraints=cons)
        off = np.array([-0.5, 2.0, -0.5]) if cons[0][0][0] == 0.0 else \
            np.array([2.0, -0.5, -0.5])
        assert off.sum() == 1.0 and (m._H @ off).min() >= 0.0
        assert not m.contains(off)
        assert not CredalSet(CUT_STATES, vertices=verts).contains(off)

    @pytest.mark.parametrize("cons, verts", CUT_SETS)
    def test_queries_match_vertex_twin(self, rng, cons, verts):
        m = CredalSet(CUT_STATES, constraints=cons)
        twin = CredalSet(CUT_STATES, vertices=verts)
        assert twin.contains(m.member)
        for _ in range(20):
            f = rng.normal(size=3)
            low = twin.lower_expectation(f)
            assert m.lower_expectation(f) == pytest.approx(low, abs=1e-9)
            assert m.upper_expectation(f) == pytest.approx(
                twin.upper_expectation(f), abs=1e-9)
            assert highs_minimum(f, m._H)[0] == pytest.approx(low, abs=1e-12)
            value, p = m.lower_argmin(f)
            assert value == pytest.approx(low, abs=1e-9)
            assert f @ p == pytest.approx(value, abs=1e-9)
            assert twin.contains(p) and p.min() >= -simplex.TOL_FEAS
            q = rng.dirichlet(np.ones(3))
            assert m.contains(q) == twin.contains(q)
        got = sorted(tuple(np.round(v.probs, 9))
                     for v in constraints_to_vertices(m))
        assert got == sorted(tuple(np.round(v, 9)) for v in verts)


class TestConversions:
    def test_simplex_round_trip(self):
        m = vacuous(("a", "b", "c"))
        cons = vertices_to_constraints(m)
        back = CredalSet(("a", "b", "c"), constraints=cons)
        verts = constraints_to_vertices(back)
        got = sorted(tuple(np.round(v.probs, 9)) for v in verts)
        assert got == [(0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)]

    def test_interval_vertices(self):
        m = CredalSet(("h", "t"),
                      constraints=[({"h": 1.0, "t": 0.0}, 0.25),
                                   ({"h": -1.0, "t": 0.0}, -0.75)])
        verts = sorted(tuple(np.round(v.probs, 9))
                       for v in constraints_to_vertices(m))
        assert verts == [(0.25, 0.75), (0.75, 0.25)]

    def test_random_round_trip(self, rng):
        for _ in range(10):
            pts = np.array([rng.dirichlet([1.5] * 3) for _ in range(4)])
            try:
                m = CredalSet(("a", "b", "c"), vertices=pts)
            except InputError:
                continue
            cons = vertices_to_constraints(m)
            back = CredalSet(("a", "b", "c"), constraints=cons)
            verts = constraints_to_vertices(back)
            V = np.array([v.probs for v in verts])
            # same polytope: mutual hull membership
            for v in V:
                assert polytope.in_hull(v, m._V)
            for v in m._V:
                assert polytope.in_hull(v, V)
            f = rng.normal(size=3)
            assert m.lower_expectation(f) == pytest.approx(
                lp_lower(back, f), abs=1e-7)

    def test_singleton_round_trip(self):
        m = singleton(("a", "b", "c"), (0.2, 0.5, 0.3))
        cons = vertices_to_constraints(m)
        back = CredalSet(("a", "b", "c"), constraints=cons)
        (v,) = constraints_to_vertices(back)
        assert np.allclose(v.probs, (0.2, 0.5, 0.3), atol=1e-7)

    def test_minimality_enforced(self):
        with pytest.raises(InputError):
            CredalSet(("a", "b", "c"),
                      vertices=[(1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                (0.5, 0.5, 0.0)])

    def test_dual_representation_consistency_checked(self):
        with pytest.raises(InputError):
            CredalSet(("h", "t"), vertices=[(0.1, 0.9), (0.9, 0.1)],
                      constraints=[({"h": 1.0, "t": 0.0}, 0.25),
                                   ({"h": -1.0, "t": 0.0}, -0.75)])


#: p(a) >= 1/7 and p(b) >= 2/7, by its constraints and by its vertices
SEVENTHS = ([((1.0, 0.0, 0.0), 1 / 7), ((0.0, 1.0, 0.0), 2 / 7)],
            [(1 / 7, 2 / 7, 4 / 7), (5 / 7, 2 / 7, 0.0), (1 / 7, 6 / 7, 0.0)])


class TestMutualMembership:
    """A set given in both forms: every vertex of the constraint
    polytope must lie in the hull of the given vertices, to ``TOL_FEAS``
    in each state."""

    @pytest.mark.parametrize("residual,inside", [
        (1e-9, True), (-1e-9, True), (1e-6, False), (-1e-6, False)])
    def test_in_hull_criterion(self, residual, inside):
        # the largest residual of any weights on the segment is the one
        # at state c
        G = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        p = np.array([0.5, 0.5 - residual, residual])
        assert polytope.in_hull(p, G) is inside

    def test_agreeing_forms(self, monkeypatch):
        calls = []
        in_hull = polytope.in_hull
        monkeypatch.setattr(polytope, "in_hull", lambda p, G: (
            calls.append(p) or in_hull(p, G)))
        cons, verts = SEVENTHS
        m = CredalSet(("a", "b", "c"), vertices=verts, constraints=cons)
        # the minimality check of the three given vertices, then the
        # three vertices of the constraint polytope
        assert len(calls) == 3 + 3
        assert m.lower_probability({"b"}) == pytest.approx(2 / 7)

    def test_vertices_rounded_to_seven_digits(self):
        cons, verts = SEVENTHS
        rounded = np.round(verts, 7)
        m = CredalSet(("a", "b", "c"), vertices=rounded, constraints=cons)
        assert np.array_equal(m._V, rounded)

    def test_hull_defect_before_mismatch(self):
        # the given rows are checked first, as a network checks them
        with pytest.raises(InputError, match="vertex 2 lies in the convex"):
            CredalSet(("a", "b", "c"),
                      vertices=[(1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                (0.5, 0.5, 0.0)],
                      constraints=[((0.0, 0.0, 1.0), 0.5)])

    def test_constraints_wider_than_the_hull(self):
        cons, verts = SEVENTHS
        wider = [(alpha, beta - 1e-3) for alpha, beta in cons]
        with pytest.raises(InputError, match="not covered"):
            CredalSet(("a", "b", "c"), vertices=verts, constraints=wider)


def one_node_net(m: CredalSet) -> CredalNetwork:
    """The network of one node whose local set is ``m``."""
    return CredalNetwork(Dag(["x"], []), {"x": m.states}, {("x", ()): m})


def narrow_interval(low: float, width: float) -> CredalSet:
    """p(h) in [low, low + width], by its constraints."""
    return CredalSet(("h", "t"), constraints=[((1.0, 0.0), low),
                                              ((-1.0, 0.0), -(low + width))])


def thirteen_states() -> CredalSet:
    """p(a) >= 0.1 and p(b) + p(c) <= 0.5 on 13 states."""
    first, second = np.eye(13)[0], np.eye(13)[1] + np.eye(13)[2]
    return CredalSet(tuple("abcdefghijklm"),
                     constraints=[(first, 0.1), (-second, -0.5)])


class TestEnumeratedSets:
    """A network enumerates the vertices of a set given by constraints
    alone on construction, and every local step reads them."""

    @pytest.mark.parametrize("width", [5e-7, 5e-8])
    def test_narrow_interval_keeps_both_ends(self, width):
        # vertices closer than the dedup radius are merged into one
        m = narrow_interval(0.3, width)
        net = one_node_net(m)
        for f in np.array([[1.0, 0.0], [-1.0, 0.0]]):
            expect = lp_lower(m, f)
            assert min(f @ v.probs for v in constraints_to_vertices(m)) \
                == pytest.approx(expect, abs=1e-15)
            assert float(net.local_lower("x", f)) == \
                pytest.approx(expect, abs=1e-15)

    @pytest.mark.parametrize("width", [1e-10, 5e-8])
    def test_thin_interval_loads(self, width):
        # narrower than the tolerance of the checks of given vertex rows
        # (and, at 1e-10, of the cut's classification): no false error
        m = narrow_interval(0.3, width)
        net = one_node_net(m)
        doc = fileio.network_document(net)
        assert "constraints" in doc["locals"][0]
        for model in (net, fileio.load_network_document(doc)):
            for f in np.array([[1.0, 0.0], [-1.0, 0.0], [0.3, -0.7]]):
                assert float(model.local_lower("x", f)) == \
                    pytest.approx(lp_lower(m, f), abs=1e-9)

    def test_thirteen_states_load(self, rng):
        # 13 states and 33 vertices: no state count caps an enumeration
        m = thirteen_states()
        net = one_node_net(m)
        assert net.local("x", ()) is m
        for f in rng.normal(size=(10, 13)):
            assert float(net.local_lower("x", f)) == \
                pytest.approx(m.lower_expectation(f), abs=1e-12)

    def test_alone_as_the_local_lp(self, rng):
        # a set given by constraints alone answers from the vertices it
        # enumerated, its member first, as the LP over its rows does
        sets = [narrow_interval(0.3, 1e-10), thirteen_states()]
        for _ in range(12):
            n = int(rng.integers(3, 6))
            q = rng.dirichlet(np.ones(n))
            alphas = rng.normal(size=(int(rng.integers(1, 2 * n)), n))
            sets.append(CredalSet(tuple("abcde")[:n], constraints=[
                (a, a @ q - rng.uniform(0.0, 0.3)) for a in alphas]))
        for m in sets:
            assert np.array_equal(m._points[0], m.member)
            for f in rng.normal(size=(10, m.n_states)):
                value, p = m.lower_argmin(f)
                assert value == pytest.approx(lp_lower(m, f), abs=1e-12)
                assert any(np.array_equal(p, row) for row in m._points)

    def test_thirteen_states_convert(self):
        m = thirteen_states()
        got = np.array([v.probs for v in constraints_to_vertices(m)])
        assert len(got) == len(m._points) == 33
        assert np.array_equal(got, m._points)
        assert np.array_equal(got[0], m.member)

    def test_thirteen_states_in_both_forms(self, rng):
        m = thirteen_states()
        both = CredalSet(m.states, vertices=m._points,
                         constraints=m.constraints)
        assert both._points is both._V
        for f in rng.normal(size=(10, 13)):
            assert both.lower_expectation(f) == \
                pytest.approx(m.lower_expectation(f), abs=1e-12)

    def test_thirteen_states_facets_round_trip(self, rng):
        given = thirteen_states()
        m = CredalSet(given.states, vertices=given._points)
        back = CredalSet(m.states, constraints=vertices_to_constraints(m))
        for f in rng.normal(size=(20, 13)):
            assert back.lower_expectation(f) == \
                pytest.approx(m.lower_expectation(f), abs=1e-9)

    @pytest.mark.parametrize("kind", ["vertices", "constraints", "both",
                                      "view"])
    def test_member_is_the_first_point(self, kind):
        cons, verts = SEVENTHS
        states = ("a", "b", "c")
        if kind == "view":
            net = CredalNetwork(Dag(["x"], []), {"x": states},
                                {("x", ()): tuple(np.ravel(verts))})
            m = net.local("x", ())
        else:
            m = CredalSet(states,
                          vertices=None if kind == "constraints" else verts,
                          constraints=None if kind == "vertices" else cons)
        assert np.array_equal(m.member, m._points[0])
        assert "_points" in vars(m)
        if kind != "constraints":
            assert m._points is m._V

    @pytest.mark.parametrize("limit, value", [("MAX_VERTICES", 2),
                                              ("_MAX_PAIR_WORK", 0)])
    def test_enumeration_limits_raise_on_construction(self, monkeypatch,
                                                      limit, value):
        # as a network load of the set does
        monkeypatch.setattr(polytope, limit, value)
        with pytest.raises(CapabilityError, match="vertex enumeration"):
            CredalSet(CUT_STATES, constraints=[((1.0, 0.0, 0.0), 0.25)])
