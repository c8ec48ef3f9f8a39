"""The bracketing function, its sign tests, and the two updating rules."""

import math

import numpy as np
import pytest

from credalnet import conditioning, lp, oracle
from credalnet.conditioning import (lower_prob_positive, natural_conditional,
                                    reduce_then_condition,
                                    regular_conditional, rho, rho_evaluator,
                                    upper_prob_positive)
from credalnet.credal import CredalSet, binary_interval, singleton
from credalnet.errors import (CapabilityError, HypothesisError, InputError,
                              ModelError)
from credalnet.fileio import Query
from credalnet.graph import Dag
from credalnet.network import Factor
from credalnet.queries import run_query

from helpers import (bayes_joint, binary_net, chain_dag, interval_locals,
                     precise_locals, random_binary_net, random_chain_net,
                     random_factor)

TOL = 1e-9


def make_net_with_zero_lower(rng):
    """Root node whose state '0' has lower probability zero but positive
    upper probability; one child."""
    dag = Dag(["a", "b"], [("a", "b")])
    m_root = CredalSet(("0", "1"), vertices=[(0.0, 1.0), (0.6, 0.4)])
    locals_ = {("a", ()): m_root}
    for cfg in (("0",), ("1",)):
        x = rng.uniform(0.2, 0.8)
        locals_[("b", cfg)] = binary_interval(("0", "1"), x - 0.1, x + 0.1)
    return binary_net(dag, locals_)


class TestRho:
    def test_full_space_event(self, rng):
        net = random_binary_net(rng, 3)
        f = random_factor(rng, net, net.dag.nodes)
        B = net.event(net.dag.nodes, net.joint_tuples())
        ev = rho_evaluator(net, f, B)
        base = lp.lower_expectation_lp(net, f)
        for mu in (-1.0, 0.3, 2.0):
            assert rho(ev, mu) == pytest.approx(base - mu, abs=1e-7)

    def test_precise_net_is_linear(self, rng):
        dag = chain_dag(3)
        net = binary_net(dag, precise_locals(dag, rng))
        joint = bayes_joint(net)
        f = random_factor(rng, net, ["3"])
        B = net.cylinder({"1": "0"})
        mask = lp.event_mask(net, B)
        fv = lp.factor_vector(net, f)
        pB = float(joint[mask].sum())
        cond = float(joint[mask] @ fv[mask]) / pB
        ev = rho_evaluator(net, f, B)
        for mu in np.linspace(f.min(), f.max(), 5):
            assert rho(ev, mu) == pytest.approx(pB * (cond - mu), abs=1e-7)

    def test_monotonicity_guard(self):
        bad = conditioning.rho_callable(lambda mu: mu, 0.0, 1.0, 0.0)
        bad.rho(0.0)
        with pytest.raises(ModelError):
            bad.rho(1.0)


class TestSignTests:
    def test_full_space(self, rng):
        net = random_binary_net(rng, 2)
        f = random_factor(rng, net, net.dag.nodes)
        B = net.event(net.dag.nodes, net.joint_tuples())
        ev = rho_evaluator(net, f, B)
        assert lower_prob_positive(ev)
        assert upper_prob_positive(ev)

    def test_zero_lower_positive_upper(self, rng):
        net = make_net_with_zero_lower(rng)
        f = random_factor(rng, net, ["b"])
        ev = rho_evaluator(net, f, net.cylinder({"a": "0"}))
        assert not lower_prob_positive(ev)
        assert upper_prob_positive(ev)

    def test_precise_event(self, rng):
        dag = chain_dag(2)
        net = binary_net(dag, precise_locals(dag, rng))
        f = random_factor(rng, net, ["2"])
        ev = rho_evaluator(net, f, net.cylinder({"1": "0"}))
        assert lower_prob_positive(ev)
        assert upper_prob_positive(ev)


class TestNaturalConditional:
    def test_constant_gamble(self, rng):
        net = random_binary_net(rng, 2)
        f = net.factor_from_values(["1"], [1.7, 1.7])
        ev = rho_evaluator(net, f, net.cylinder({"2": "0"}))
        res = natural_conditional(ev)
        assert res.value == pytest.approx(1.7, abs=1e-8)

    def test_precise_net_is_bayes(self, rng):
        for _ in range(4):
            dag = chain_dag(3)
            net = binary_net(dag, precise_locals(dag, rng))
            joint = bayes_joint(net)
            f = random_factor(rng, net, ["1", "3"])
            B = net.cylinder({"2": "1"})
            mask = lp.event_mask(net, B)
            fv = lp.factor_vector(net, f)
            bayes = float(joint[mask] @ fv[mask]) / float(joint[mask].sum())
            ev = rho_evaluator(net, f, B)
            res = natural_conditional(ev)
            assert res.value == pytest.approx(bayes, abs=1e-7)

    def test_matches_extreme_point_oracle(self, rng):
        hits = 0
        for _ in range(6):
            net = random_binary_net(rng, 3, edge_p=0.5)
            f = random_factor(rng, net, ["3"])
            B = net.cylinder({"1": "0"})
            expect = oracle.irr_extreme_conditional(net, f, B, "natural")
            if expect is None:
                continue
            ev = rho_evaluator(net, f, B)
            res = natural_conditional(ev, tolerance=1e-10)
            assert res.value == pytest.approx(expect, abs=1e-6)
            hits += 1
        assert hits >= 4

    def test_raises_on_zero_lower(self, rng):
        net = make_net_with_zero_lower(rng)
        f = random_factor(rng, net, ["b"])
        ev = rho_evaluator(net, f, net.cylinder({"a": "0"}))
        with pytest.raises(HypothesisError):
            natural_conditional(ev)

    def test_iteration_bound(self, rng):
        net = random_binary_net(rng, 2)
        f = random_factor(rng, net, net.dag.nodes)
        ev = rho_evaluator(net, f, net.cylinder({"1": "0"}))
        tol = 1e-9
        res = natural_conditional(ev, tolerance=tol)
        bound = math.ceil(math.log2((f.max() - f.min()) / tol)) + 1
        assert res.iterations <= bound
        assert res.width <= tol


class TestRegularConditional:
    def test_equals_natural_when_lower_positive(self, rng):
        for _ in range(4):
            net = random_binary_net(rng, 3, edge_p=0.4)
            f = random_factor(rng, net, ["2"])
            B = net.cylinder({"3": "1"})
            ev1 = rho_evaluator(net, f, B)
            ev2 = rho_evaluator(net, f, B)
            nat = natural_conditional(ev1)
            reg = regular_conditional(ev2)
            assert reg.kind == "unique-root"
            assert reg.value == pytest.approx(nat.value, abs=1e-8)

    def test_rightmost_root_against_oracle(self, rng):
        hits = 0
        for _ in range(8):
            net = make_net_with_zero_lower(rng)
            f = random_factor(rng, net, ["b"])
            B = net.cylinder({"a": "0"})
            expect = oracle.irr_extreme_conditional(net, f, B, "regular")
            assert expect is not None
            ev = rho_evaluator(net, f, B)
            res = regular_conditional(ev, tolerance=1e-10)
            assert res.kind == "rightmost-root"
            assert res.value == pytest.approx(expect, abs=1e-6)
            # tighter than (hypothetical) natural: at least the vacuous bound
            assert res.value >= f.min() - 1e-9
            hits += 1
        assert hits == 8

    def test_vacuous_fallback(self, rng):
        dag = Dag(["a", "b"], [("a", "b")])
        locals_ = {("a", ()): singleton(("0", "1"), (1.0, 0.0))}
        for cfg in (("0",), ("1",)):
            locals_[("b", cfg)] = binary_interval(("0", "1"), 0.3, 0.7)
        net = binary_net(dag, locals_)
        f = random_factor(rng, net, ["b"])
        ev = rho_evaluator(net, f, net.cylinder({"a": "1"}))  # impossible
        res = regular_conditional(ev)
        assert res.kind == "vacuous-fallback"
        assert res.value == pytest.approx(f.min(), abs=TOL)


class TestRhoShape:
    def test_concave_nonincreasing_and_slope(self, rng):
        for _ in range(6):
            net = random_binary_net(rng, 3, edge_p=0.5)
            f = random_factor(rng, net, ["2", "3"])
            B = net.cylinder({"1": "0"})
            ev = rho_evaluator(net, f, B)
            p_low = lp.lower_expectation_lp(net, net.indicator(B))
            grid = np.linspace(f.min(), f.max(), 17)
            vals = np.array([rho(ev, float(mu)) for mu in grid])
            d = np.diff(vals)
            assert (d <= TOL).all()
            step = grid[1] - grid[0]
            assert (d <= -p_low * step + 1e-7).all()
            mid = 0.5 * (vals[:-2] + vals[2:])
            assert (vals[1:-1] >= mid - TOL).all()


def counted(ev):
    """``ev`` with its engine wrapped: the abscissas it is called at are
    appended to the returned list."""
    calls = []
    fn = ev.fn

    def wrapped(mu):
        calls.append(mu)
        return fn(mu)

    ev.fn = wrapped
    return ev, calls


def bisection_twin(ev):
    """The same LP rho behind an evaluator without a minimiser."""
    return conditioning.rho_callable(lambda mu: ev.fn(mu)[0], ev.f_min,
                                     ev.f_max, ev.vacuous_value)


def vacuous_net():
    dag = Dag(["a", "b"], [("a", "b")])
    locals_ = {("a", ()): singleton(("0", "1"), (1.0, 0.0))}
    for cfg in (("0",), ("1",)):
        locals_[("b", cfg)] = binary_interval(("0", "1"), 0.3, 0.7)
    return binary_net(dag, locals_)


def conditional_cases(rng):
    """(net, f, B) on random 2-4-node nets, on nets whose evidence has
    zero lower but positive upper probability, and on an impossible
    event."""
    for _ in range(12):
        net = random_binary_net(rng, int(rng.integers(2, 5)), edge_p=0.5)
        nodes = net.dag.nodes
        f = random_factor(rng, net, [nodes[0]])
        yield net, f, net.cylinder({nodes[-1]: str(rng.integers(0, 2))})
    for _ in range(4):
        net = make_net_with_zero_lower(rng)
        yield net, random_factor(rng, net, ["b"]), net.cylinder({"a": "0"})
    net = vacuous_net()
    yield net, random_factor(rng, net, ["b"]), net.cylinder({"a": "1"})


class TestDinkelbachSteps:
    TOL = 1e-10

    def test_equal_bisection_on_the_same_lp(self, rng):
        kinds = set()
        for net, f, B in conditional_cases(rng):
            for bracket in (natural_conditional, regular_conditional):
                ev, calls = counted(rho_evaluator(net, f, B, method="lp"))
                assert ev.minimiser
                twin = bisection_twin(rho_evaluator(net, f, B, method="lp"))
                try:
                    expect = bracket(twin, self.TOL)
                except HypothesisError:
                    with pytest.raises(HypothesisError):
                        bracket(ev, self.TOL)
                    continue
                got = bracket(ev, self.TOL)
                kinds.add(got.kind)
                assert got.kind == expect.kind
                assert got.value == pytest.approx(expect.value, abs=1e-9)
                # each abscissa is solved once, a handful of times per bound
                assert len(calls) == len(set(calls)) <= 8
                assert got.width <= self.TOL
        assert kinds == {"unique-root", "rightmost-root", "vacuous-fallback"}

    def test_each_abscissa_evaluated_once(self, rng):
        net = random_binary_net(rng, 3, edge_p=0.5)
        f = random_factor(rng, net, ["1"])
        ev, calls = counted(rho_evaluator(net, f, net.cylinder({"3": "0"})))
        first = rho(ev, 0.25)
        assert rho(ev, 0.25) == first
        assert lower_prob_positive(ev) == lower_prob_positive(ev)
        assert calls == [0.25, f.min() - 1.0]


class TestReduceThenCondition:
    def test_parent_cylinder_reduces_without_bracketing(self, rng):
        dag = Dag(["1", "2", "3", "4", "5", "6", "7", "8", "9", "10"],
                  [("1", "3"), ("2", "3"), ("3", "4"), ("3", "5"),
                   ("6", "8"), ("5", "8"), ("4", "7"), ("7", "10"),
                   ("5", "7"), ("7", "9")])
        net = binary_net(dag, interval_locals(dag, rng))
        f = random_factor(rng, net, ["9"])
        given = net.cylinder({"3": "0", "4": "1", "6": "0"})
        nat = reduce_then_condition(net, f, given, "natural")
        reg = reduce_then_condition(net, f, given, "regular")
        assert nat.kind == "local-fallback"
        assert reg.kind == "local-fallback"
        assert nat.value == pytest.approx(reg.value, abs=TOL)
        # equal to the sub-network unconditional value on the chain 5-7-9
        from credalnet.decompose import lower_expectation
        from credalnet.network import sub_network
        sub = sub_network(net, {"5", "7", "9"}, {"3": "0", "4": "1"})
        assert nat.value == pytest.approx(
            lower_expectation(sub, f), abs=1e-9)

    def test_unconditional_dispatch(self, rng):
        net = random_binary_net(rng, 3)
        f = random_factor(rng, net, ["2"])
        res = reduce_then_condition(net, f, None, "natural")
        assert res.value == pytest.approx(
            lp.lower_expectation_lp(net, f), abs=1e-7)

    def test_equals_direct_bracketing(self, rng):
        hits = 0
        for _ in range(8):
            net = random_binary_net(rng, 4, edge_p=0.5)
            f = random_factor(rng, net, ["2"])
            t = {"4": str(rng.integers(0, 2)), "3": str(rng.integers(0, 2))}
            given = net.cylinder(t)
            try:
                red = reduce_then_condition(net, f, given, "natural",
                                            tolerance=1e-10)
            except HypothesisError:
                continue
            ev = rho_evaluator(net, f, given, method="lp")
            direct = natural_conditional(ev, tolerance=1e-10)
            assert red.value == pytest.approx(direct.value, abs=1e-6)
            hits += 1
        assert hits >= 5

    def test_regular_equals_direct_on_reducible(self, rng):
        for _ in range(5):
            net = random_binary_net(rng, 4, edge_p=0.5)
            f = random_factor(rng, net, ["1"])
            given = net.cylinder({"4": str(rng.integers(0, 2))})
            red = reduce_then_condition(net, f, given, "regular",
                                        tolerance=1e-10)
            ev = rho_evaluator(net, f, given, method="lp")
            direct = regular_conditional(ev, tolerance=1e-10)
            assert red.value == pytest.approx(direct.value, abs=1e-6)

    def test_general_event_direct(self, rng):
        net = random_binary_net(rng, 3, edge_p=0.4)
        f = random_factor(rng, net, ["1"])
        B = net.event(["2", "3"], [("0", "0"), ("1", "1"), ("0", "1")])
        res = reduce_then_condition(net, f, B, "natural", tolerance=1e-10)
        expect = oracle.irr_extreme_conditional(net, f, B, "natural")
        if expect is not None:
            assert res.value == pytest.approx(expect, abs=1e-6)


class TestLocalModelPreservation:
    def test_conditioning_on_nondescendants_gives_local_value(self, rng):
        # updated beliefs about a node given all its non-descendants equal
        # the local model's lower expectation, under both rules
        for _ in range(4):
            net = random_binary_net(rng, 3, edge_p=0.6)
            s = str(rng.integers(1, 4))
            nd = net.dag.sorted_nodes(
                set(net.dag.nodes) - {s} - net.dag.descendants(s))
            if not nd:
                continue
            assignment = {u: str(rng.integers(0, 2)) for u in nd}
            f = random_factor(rng, net, [s])
            cfg = net.parent_config(s, assignment)
            expect = net.local(s, cfg).lower_expectation(f.values)
            res = reduce_then_condition(net, f, net.cylinder(assignment),
                                        "regular", tolerance=1e-10)
            assert res.value == pytest.approx(expect, abs=1e-6)


class TestConditionDispatch:
    def test_rules(self, rng):
        net = random_binary_net(rng, 3, edge_p=0.5)
        f = random_factor(rng, net, ["1"])
        B = net.cylinder({"3": "1"})
        for rule, bracket in (("natural", natural_conditional),
                              ("regular", regular_conditional)):
            got = conditioning.condition(rho_evaluator(net, f, B), rule, 1e-10)
            expect = bracket(rho_evaluator(net, f, B), 1e-10)
            assert (got.value, got.kind) == (expect.value, expect.kind)
        with pytest.raises(InputError):
            conditioning.condition(rho_evaluator(net, f, B), "unconditional")

    def test_zero_lower_probability(self, rng):
        net = make_net_with_zero_lower(rng)
        f = random_factor(rng, net, ["b"])
        B = net.cylinder({"a": "0"})
        with pytest.raises(HypothesisError):
            conditioning.condition(rho_evaluator(net, f, B), "natural")
        res = conditioning.condition(rho_evaluator(net, f, B), "natural",
                                     vacuous_on_zero_lower=True)
        assert res.kind == "vacuous-fallback"
        assert res.value == f.min()
        # gated regular rule: the vacuous bound instead of the rightmost root
        gated = conditioning.condition(rho_evaluator(net, f, B), "regular",
                                       rest_upper_positive=True)
        assert (gated.value, gated.kind) == (res.value, res.kind)
        plain = conditioning.condition(rho_evaluator(net, f, B), "regular")
        assert plain.kind == "rightmost-root"


class TestVacuousBound:
    def test_equals_brute_force(self, rng):
        for _ in range(6):
            net = random_binary_net(rng, 4, edge_p=0.5)
            f = random_factor(rng, net, ["2", "4"])
            B = net.event(["1", "4"], [("0", "1"), ("1", "0"), ("1", "1")])
            mask = lp.event_mask(net, B)
            expect = float(lp.factor_vector(net, f)[mask].min())
            assert conditioning._vacuous_bound(net, f, B) == expect
            constant = Factor.constant(0.5)
            assert conditioning._vacuous_bound(net, constant, B) == 0.5

    def test_long_chain_stops_at_the_lp_bound(self, rng):
        # the vacuous bound is taken over the query's two nodes, so the
        # query fails on the global program's variable bound, not by
        # asking for memory over all 2^n joint states; at 100 nodes that
        # count does not fit in an int64
        for n in (50, 100):
            net = random_chain_net(rng, n)
            f = random_factor(rng, net, ["1"])
            B = net.cylinder({str(n): "1"})
            assert conditioning._vacuous_bound(net, f, B) == f.min()
            query = Query(f, B, "natural", "auto", 1e-9)
            with pytest.raises(CapabilityError, match="variable bound"):
                run_query(net, query)
