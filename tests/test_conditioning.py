"""The bracketing function, its sign tests, and the two updating rules."""

import math

import numpy as np
import pytest

from credalnet import conditioning, lp, oracle
from credalnet.conditioning import (BracketResult, RhoEvaluator, condition,
                                    program_rho, reduce_query, vacuous_value)
from credalnet.credal import CredalSet, binary_interval, singleton
from credalnet.errors import (CapabilityError, ConvergenceError,
                              HypothesisError, InputError, ModelError)
from credalnet.fileio import Query, parse_query
from credalnet.graph import Dag, is_closed, set_relations
from credalnet.network import Factor
from credalnet.queries import bounds, run_query

from helpers import (atom_bounds, bayes_joint, binary_net, chain_dag,
                     interval_locals, lifted, one_gamble, planned,
                     precise_locals, random_binary_net, random_chain_net,
                     random_dag, random_factor, random_hmm_net,
                     zero_bound_locals)

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


def program(net, f, B):
    """The global program's rho engine of ``f`` given ``B``, and the
    evaluator of its bracket."""
    rho = program_rho(net, B, [f], lp.GlobalPolytope(net))
    return rho, RhoEvaluator(0, f.min(), f.max(), vacuous_value(net, f, B))


def lp_bracket(net, f, B, rule, tolerance=conditioning.DEFAULT_TOLERANCE):
    """The bracket of ``rule`` of ``f`` given ``B`` on the global
    program."""
    rho, ev = program(net, f, B)
    return condition(rho, [ev], rule, tolerance)[0]


class TestRho:
    def test_full_space_event(self, rng):
        net = random_binary_net(rng, 3)
        f = random_factor(rng, net, net.dag.nodes)
        B = net.event(net.dag.nodes, net.joint_tuples())
        rho = one_gamble(program(net, f, B)[0])
        base = lp.lower_expectation_lp(net, f)
        for mu in (-1.0, 0.3, 2.0):
            assert rho(mu)[0] == pytest.approx(base - mu, abs=1e-7)

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
        rho = one_gamble(program(net, f, B)[0])
        for mu in np.linspace(f.min(), f.max(), 5):
            assert rho(mu)[0] == pytest.approx(pB * (cond - mu), abs=1e-7)

    def test_monotonicity_guard(self):
        # the sign tests evaluate rho(mu) = mu at -1 and then at 2
        bad = lifted(lambda mu: (mu, 0.0, 0.0))
        with pytest.raises(ModelError):
            condition(bad, [RhoEvaluator(0, 0.0, 1.0, 0.0)], "regular")
        ev = RhoEvaluator(0, 0.0, 1.0, 0.0)
        ev.rho(0.0, 0.0, 0.0, 0.0, 0)
        with pytest.raises(ModelError):
            ev.rho(1.0, 1.0, 0.0, 0.0, 0)


class TestSignTests:
    """rho's sign below min f (positive lower probability of B) and
    above max f (positive upper probability) decide the bracket kind."""

    @staticmethod
    def signs(net, f, B, rule):
        """The kind of ``rule``'s bracket (``None`` where it raises), and
        the sign tests it made: lower and upper probability positive."""
        rho, ev = program(net, f, B)
        try:
            kind = condition(rho, [ev], rule, 1e-10)[0].kind
        except HypothesisError:
            kind = None
        tests = {ev.f_min - 1.0: 1.0, ev.f_max + 1.0: -1.0}
        return kind, [sign * ev.recorded(mu)[0] > conditioning.TOL_SIGN
                      for mu, sign in tests.items() if mu in ev._seen]

    def test_full_space(self, rng):
        net = random_binary_net(rng, 2)
        f = random_factor(rng, net, net.dag.nodes)
        B = net.event(net.dag.nodes, net.joint_tuples())
        for rule in ("natural", "regular"):
            assert self.signs(net, f, B, rule) == ("unique-root", [True])

    def test_zero_lower_positive_upper(self, rng):
        net = make_net_with_zero_lower(rng)
        f = random_factor(rng, net, ["b"])
        B = net.cylinder({"a": "0"})
        assert self.signs(net, f, B, "natural") == (None, [False])
        assert self.signs(net, f, B, "regular") == \
            ("rightmost-root", [False, True])

    def test_precise_event(self, rng):
        dag = chain_dag(2)
        net = binary_net(dag, precise_locals(dag, rng))
        f = random_factor(rng, net, ["2"])
        B = net.cylinder({"1": "0"})
        for rule in ("natural", "regular"):
            assert self.signs(net, f, B, rule) == ("unique-root", [True])


class TestNaturalConditional:
    def test_constant_gamble(self, rng):
        net = random_binary_net(rng, 2)
        f = net.factor_from_values(["1"], [1.7, 1.7])
        res = lp_bracket(net, f, net.cylinder({"2": "0"}), "natural")
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
            res = lp_bracket(net, f, B, "natural")
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
            res = lp_bracket(net, f, B, "natural", 1e-10)
            assert res.value == pytest.approx(expect, abs=1e-6)
            hits += 1
        assert hits >= 4

    def test_raises_on_zero_lower(self, rng):
        net = make_net_with_zero_lower(rng)
        f = random_factor(rng, net, ["b"])
        with pytest.raises(HypothesisError):
            lp_bracket(net, f, net.cylinder({"a": "0"}), "natural")

    def test_iteration_bound(self, rng):
        net = random_binary_net(rng, 2)
        f = random_factor(rng, net, net.dag.nodes)
        tol = 1e-9
        res = lp_bracket(net, f, net.cylinder({"1": "0"}), "natural", tol)
        bound = math.ceil(math.log2((f.max() - f.min()) / tol)) + 1
        assert res.iterations <= bound
        assert res.width <= tol


class TestRegularConditional:
    def test_equals_natural_when_lower_positive(self, rng):
        for _ in range(4):
            net = random_binary_net(rng, 3, edge_p=0.4)
            f = random_factor(rng, net, ["2"])
            B = net.cylinder({"3": "1"})
            nat = lp_bracket(net, f, B, "natural")
            reg = lp_bracket(net, f, B, "regular")
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
            res = lp_bracket(net, f, B, "regular", 1e-10)
            assert res.kind == "rightmost-root"
            assert res.value == pytest.approx(expect, abs=1e-6)
            # tighter than (hypothetical) natural: at least the vacuous bound
            assert res.value >= f.min() - 1e-9
            hits += 1
        assert hits == 8

    def test_vacuous_fallback(self, rng):
        net = vacuous_net()
        f = random_factor(rng, net, ["b"])
        # impossible
        res = lp_bracket(net, f, net.cylinder({"a": "1"}), "regular")
        assert res.kind == "vacuous-fallback"
        assert res.value == pytest.approx(f.min(), abs=TOL)


class TestRhoShape:
    def test_concave_nonincreasing_and_slope(self, rng):
        for _ in range(6):
            net = random_binary_net(rng, 3, edge_p=0.5)
            f = random_factor(rng, net, ["2", "3"])
            B = net.cylinder({"1": "0"})
            rho = one_gamble(program(net, f, B)[0])
            p_low = lp.lower_expectation_lp(net, net.indicator(B))
            grid = np.linspace(f.min(), f.max(), 17)
            vals = np.array([rho(float(mu))[0] for mu in grid])
            d = np.diff(vals)
            assert (d <= TOL).all()
            step = grid[1] - grid[0]
            assert (d <= -p_low * step + 1e-7).all()
            mid = 0.5 * (vals[:-2] + vals[2:])
            assert (vals[1:-1] >= mid - TOL).all()


def counted(rho):
    """``rho`` and the list that each of its calls appends its slot count
    to, and the list of abscissae it is called at."""
    sizes, calls = [], []

    def wrapped(slots, mus):
        sizes.append(len(slots))
        calls.extend(mus)
        return rho(slots, mus)

    return wrapped, sizes, calls


def bisected(rule, rho, ev, tol):
    """What the bracket of ``rule`` answers on the engine ``rho`` at the
    slot of ``ev``, by plain bisection on rho: the unique root, or the
    rightmost mu where rho is not below -TOL_SIGN."""
    at = one_gamble(rho, ev.slot)
    if at(ev.f_min - 1.0)[0] > conditioning.TOL_SIGN:
        kind, left_of_root = "unique-root", lambda r: r > 0.0
    elif rule == "natural":
        raise HypothesisError("zero lower probability")
    elif not -at(ev.f_max + 1.0)[0] > conditioning.TOL_SIGN:
        return BracketResult(ev.vacuous_value, "vacuous-fallback", 0, 0.0)
    else:
        kind = "rightmost-root"
        left_of_root = lambda r: r >= -conditioning.TOL_SIGN
    lo, hi = ev.f_min, ev.f_max
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if left_of_root(at(mid)[0]) else (lo, mid)
    return BracketResult(0.5 * (lo + hi), kind, 0, hi - lo)


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
            for rule in ("natural", "regular"):
                rho, ev = program(net, f, B)
                rho, _, calls = counted(rho)
                try:
                    expect = bisected(rule, *program(net, f, B), self.TOL)
                except HypothesisError:
                    with pytest.raises(HypothesisError):
                        condition(rho, [ev], rule, self.TOL)
                    continue
                (got,) = condition(rho, [ev], rule, self.TOL)
                kinds.add(got.kind)
                assert got.kind == expect.kind
                assert got.value == pytest.approx(expect.value, abs=1e-9)
                # each abscissa is solved once, a handful of times per bound
                assert len(calls) == len(set(calls)) <= 8
                assert got.width <= self.TOL
        assert kinds == {"unique-root", "rightmost-root", "vacuous-fallback"}

    def test_bisects_where_a_step_does_not_lower_mu(self):
        # rho(mu) = 0.3 - mu; the first step lands on 0.8, and from mu = 0
        # on the engine reports P_p(B) = 0, as rounding may, so no further
        # step is known
        def fn(mu):
            if mu < 0.0:
                prob = 1.3 / 1.8
                return 0.3 - mu, 0.8 * prob, prob
            return 0.3 - mu, 0.0, 0.0

        (res,) = condition(lifted(fn), [RhoEvaluator(0, 0.0, 1.0, 0.0)],
                           "natural", 1e-10)
        assert res.kind == "unique-root"
        assert res.value == pytest.approx(0.3, abs=1e-9)
        assert res.iterations > 5

    def test_slope_bound_across_scales(self):
        # rho(mu) = min(2 ** -1100 (1 - mu), 0.5 - mu), each value scaled
        # by its exponent: the first step, from the slope 2 ** -1100 at
        # mu = -1, lands on 1, where rho(mu) / slope leaves the float
        # range and bounds nothing
        def fn(mu):
            if mu < 0.5:
                return 1.0 - mu, 1.0, 1.0, -1100
            return 0.5 - mu, 0.5, 1.0, 0

        (res,) = condition(lifted(fn), [RhoEvaluator(0, 0.0, 1.0, 0.0)],
                           "natural", 1e-10)
        assert res.kind == "unique-root"
        assert res.value == pytest.approx(0.5, abs=1e-10)

    def test_rightmost_root_raises_where_steps_stall(self):
        # rho stays clearly negative right of 0.5 while the engine's steps
        # do not move left: an explicit error, not a wrong bound
        def fn(mu):
            return (0.0, 0.0, 0.0) if mu <= 0.5 else (-1.0, mu, 1.0)

        with pytest.raises(ConvergenceError):
            condition(lifted(fn), [RhoEvaluator(0, 0.0, 1.0, 0.0)],
                      "regular")

    def test_each_abscissa_evaluated_once(self, rng):
        net = random_binary_net(rng, 3, edge_p=0.5)
        f = random_factor(rng, net, ["1"])
        rho, ev = program(net, f, net.cylinder({"3": "0"}))
        rho, sizes, calls = counted(rho)
        first = condition(rho, [ev], "natural", self.TOL)
        assert calls[0] == f.min() - 1.0
        assert len(calls) == len(set(calls)) == len(sizes)
        # a second run on the same evaluator evaluates nothing new
        evaluated = list(calls)
        assert condition(rho, [ev], "natural", self.TOL) == first
        assert calls == evaluated


def envelope(*models):
    """A synthetic rho engine: the least of ``E - mu * P`` over models
    given by their pair (E_p[f 1_B], P_p(B)), with the attaining pair."""
    def fn(mu):
        e, p = min(models, key=lambda m: m[0] - mu * m[1])
        return e - mu * p, e, p
    return fn


#: Synthetic engines for a gamble with values in [0, 1], by the kind of
#: bound the regular rule gives: P(B) positive on every model, zero on
#: one, zero on all.
ENGINES = {"unique-root": envelope((0.3, 0.5), (0.4, 0.9), (0.1, 0.2)),
           "rightmost-root": envelope((0.0, 0.0), (0.3, 0.5), (0.5, 0.6)),
           "vacuous-fallback": envelope((0.0, 0.0))}


def unit_evaluators(k):
    """Evaluators of ``k`` gambles with values in [0, 1], at slots 0..k-1."""
    return [RhoEvaluator(i, 0.0, 1.0, 0.0) for i in range(k)]


def alone(fns, rule):
    """Each bracket run alone, by its own driver call on one batched
    engine, and the number of evaluations each took."""
    results, counts = [], []
    rho, _, calls = counted(lifted(*fns))
    for ev in unit_evaluators(len(fns)):
        before = len(calls)
        results.extend(condition(rho, [ev], rule, 1e-10))
        counts.append(len(calls) - before)
    return results, counts


class TestLockstep:
    """k brackets in one driver call give, field for field, what each
    gives run alone, and evaluate the same abscissae in one engine call
    per round."""

    @pytest.mark.parametrize("kinds", [
        ("unique-root", "rightmost-root"), ("rightmost-root", "unique-root"),
        ("unique-root", "vacuous-fallback"),
        ("vacuous-fallback", "rightmost-root"),
        ("unique-root", "unique-root", "rightmost-root")])
    def test_mixed_kinds(self, kinds):
        fns = [ENGINES[k] for k in kinds]
        expect, counts = alone(fns, "regular")
        assert [r.kind for r in expect] == list(kinds)
        rho, sizes, _ = counted(lifted(*fns))
        got = condition(rho, unit_evaluators(len(fns)), "regular", 1e-10)
        assert got == expect
        assert sum(sizes) == sum(counts)
        assert len(sizes) == max(counts)

    def test_natural_rule(self):
        fns = [ENGINES["unique-root"]] * 2
        expect, _ = alone(fns, "natural")
        assert condition(lifted(*fns), unit_evaluators(2), "natural",
                         1e-10) == expect
        for other in ("rightmost-root", "vacuous-fallback"):
            for fns in ([ENGINES["unique-root"], ENGINES[other]],
                        [ENGINES[other], ENGINES["unique-root"]]):
                with pytest.raises(HypothesisError):
                    alone(fns, "natural")
                with pytest.raises(HypothesisError):
                    condition(lifted(*fns), unit_evaluators(2), "natural",
                              1e-10)

    def test_unknown_rule(self):
        with pytest.raises(InputError):
            condition(lifted(ENGINES["unique-root"]), unit_evaluators(1),
                      "unconditional")


class TestProgramBrackets:
    """On the global program the two brackets of a query share one
    engine and its warm tableau, and run one after the other: every
    abscissa of the lower bound is solved before any of the upper one,
    by one phase 2 per new evaluation."""

    @pytest.mark.parametrize("seed,n", [(3, 5), (5, 6)])
    def test_lower_bracket_first(self, monkeypatch, seed, n):
        net = random_binary_net(np.random.default_rng(seed), n, 0.4)
        nodes = net.dag.nodes
        f = random_factor(np.random.default_rng(seed + 1), net, [nodes[0]])
        B = net.cylinder({nodes[-1]: "0"})
        log = []
        minimize, record = lp.GlobalPolytope.minimize, RhoEvaluator.rho

        def spied_minimize(gp, c, **kw):
            log.append(("minimize", np.array(c)))
            return minimize(gp, c, **kw)

        def spied_rho(ev, mu, *row):
            log.append(("rho", ev.slot, mu))
            return record(ev, mu, *row)

        monkeypatch.setattr(lp.GlobalPolytope, "minimize", spied_minimize)
        monkeypatch.setattr(RhoEvaluator, "rho", spied_rho)
        got = run_query(net, Query(f, B, "natural", "lp", 1e-10))
        assert got["kind"] == got["upper_kind"] == "unique-root"
        # each evaluation is one phase 2, at the objective of its slot
        assert [e[0] for e in log] == ["minimize", "rho"] * (len(log) // 2)
        ib = lp.event_mask(net, B).astype(float)
        ibf = ib * lp.factor_vector(net, f)
        slots = []
        for (_, c), (_, slot, mu) in zip(log[::2], log[1::2]):
            assert np.array_equal(c, (ibf if slot == 0 else -ibf) - mu * ib)
            slots.append(slot)
        assert len(set(log[1::2])) == len(slots)
        lower = slots.count(0)
        assert slots == [0] * lower + [1] * (len(slots) - lower)
        assert lower == got["iterations"] + 1
        assert len(slots) - lower == got["upper_iterations"] + 1


class TestReduceThenCondition:
    def test_parent_cylinder_reduces_without_bracketing(self, rng):
        dag = Dag(["1", "2", "3", "4", "5", "6", "7", "8", "9", "10"],
                  [("1", "3"), ("2", "3"), ("3", "4"), ("3", "5"),
                   ("6", "8"), ("5", "8"), ("4", "7"), ("7", "10"),
                   ("5", "7"), ("7", "9")])
        net = binary_net(dag, interval_locals(dag, rng))
        f = random_factor(rng, net, ["9"])
        given = net.cylinder({"3": "0", "4": "1", "6": "0"})
        (nat,) = bounds(net, [f], given, "natural")
        (reg,) = bounds(net, [f], given, "regular")
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
        (res,) = bounds(net, [f], None, "natural")
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
                (red,) = bounds(net, [f], given, "natural", "auto", 1e-10)
            except HypothesisError:
                continue
            direct = lp_bracket(net, f, given, "natural", 1e-10)
            assert red.value == pytest.approx(direct.value, abs=1e-6)
            hits += 1
        assert hits >= 5

    def test_regular_equals_direct_on_reducible(self, rng):
        for _ in range(5):
            net = random_binary_net(rng, 4, edge_p=0.5)
            f = random_factor(rng, net, ["1"])
            given = net.cylinder({"4": str(rng.integers(0, 2))})
            (red,) = bounds(net, [f], given, "regular", "auto", 1e-10)
            direct = lp_bracket(net, f, given, "regular", 1e-10)
            assert red.value == pytest.approx(direct.value, abs=1e-6)

    def test_general_event_direct(self, rng):
        net = random_binary_net(rng, 3, edge_p=0.4)
        f = random_factor(rng, net, ["1"])
        B = net.event(["2", "3"], [("0", "0"), ("1", "1"), ("0", "1")])
        (res,) = bounds(net, [f], B, "natural", "auto", 1e-10)
        expect = oracle.irr_extreme_conditional(net, f, B, "natural")
        if expect is not None:
            assert res.value == pytest.approx(expect, abs=1e-6)


def smallest_closed_for(dag, scope, given):
    """By brute force over every node set: the valid K of
    ``conditioning._grow_closed_for``, which holds the scope (or the
    first node), is closed, has only given external parents and no
    given node below it, and is the one of them every other contains."""
    start = set(scope) or {dag.nodes[0]}
    valid = []
    for bits in range(1 << len(dag.nodes)):
        K = frozenset(s for i, s in enumerate(dag.nodes) if bits >> i & 1)
        if start <= K and is_closed(dag, K):
            rel = set_relations(dag, K)
            if rel.parents <= set(given) and not rel.descendants & set(given):
                valid.append(K)
    least = min(valid, key=len)
    assert all(least <= K for K in valid)
    return least


class TestOneTupleEvidence:
    def test_same_record_as_the_assignment(self):
        # a one-tuple state list names the event of an assignment, so it
        # takes the same reduction, not the global program over 40 nodes
        net = random_chain_net(np.random.default_rng(3), 40)
        target = {"scope": ["1"], "table": {"0": 1, "1": 0}}
        for rule in ("natural", "regular"):
            records = [run_query(net, parse_query(net, {
                "target": target, "given": given, "rule": rule,
                "method": "auto"})) for given in (
                    {"assignment": {"40": "0"}},
                    {"scope": ["40"], "states": [["0"]]})]
            assert records[0] == records[1]
            assert records[0]["kind"] == "unique-root"


class TestGrowClosed:
    """The reduction's K grows a reach of ungiven ancestors at a time."""

    def test_smallest_closed_superset(self):
        rng = np.random.default_rng(5)
        for _ in range(150):
            dag = random_dag(rng, int(rng.integers(3, 9)),
                             float(rng.uniform(0.2, 0.7)))
            nodes = list(dag.nodes)
            scope = [nodes[i] for i in rng.choice(
                len(nodes), int(rng.integers(0, 3)), replace=False)]
            given = [s for s in nodes if rng.random() < 0.4]
            K, _ = conditioning._grow_closed_for(
                binary_net(dag, interval_locals(dag, rng)), scope,
                {s: "0" for s in given})
            assert K == smallest_closed_for(dag, scope, given)

    @pytest.mark.parametrize("order", [1, 2])
    def test_long_hmm_keeps_the_whole_network(self, order):
        # one reach takes every state node, the next round every
        # observation: no round per time step
        rng = np.random.default_rng(1000)
        net, states, obs = random_hmm_net(rng, 1000, order=order)
        B = net.cylinder({o: str(rng.integers(0, 2)) for o in obs})
        for rule in ("natural", "regular"):
            assert reduce_query(net, (states[-1],), B, rule)[0] is net


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
            (res,) = bounds(net, [f], net.cylinder(assignment), "regular",
                            "auto", 1e-10)
            assert res.value == pytest.approx(expect, abs=1e-6)


class TestConditionDispatch:
    def test_rules(self, rng, monkeypatch):
        # the driver looks the rule's bracket up by its module name at
        # call time, so that a wrapper put there sees every bracket
        net = random_binary_net(rng, 3, edge_p=0.5)
        f = random_factor(rng, net, ["1"])
        B = net.cylinder({"3": "1"})
        for rule in ("natural", "regular"):
            name = f"{rule}_conditional"
            bracket, calls = getattr(conditioning, name), []
            monkeypatch.setattr(conditioning, name, lambda ev, tol: (
                calls.append(ev) or bracket(ev, tol)))
            rho, ev = program(net, f, B)
            got = condition(rho, [ev], rule, 1e-10)
            assert calls == [ev]
            assert got == [lp_bracket(net, f, B, rule, 1e-10)]
        with pytest.raises(InputError):
            lp_bracket(net, f, B, "unconditional")

    def test_zero_lower_probability(self, rng):
        net = make_net_with_zero_lower(rng)
        f = random_factor(rng, net, ["b"])
        B = net.cylinder({"a": "0"})
        with pytest.raises(HypothesisError):
            lp_bracket(net, f, B, "natural")
        plain = lp_bracket(net, f, B, "regular")
        assert plain.kind == "rightmost-root"


class TestBoundsInputs:
    def test_unknown_rule_without_evidence(self):
        net = random_binary_net(np.random.default_rng(0), 3)
        f = random_factor(np.random.default_rng(1), net, ["1"])
        for method in ("auto", "lp"):
            with pytest.raises(InputError, match="unknown rule 'bogus'"):
                bounds(net, [f], None, "bogus", method)
        with pytest.raises(InputError, match="cannot carry"):
            bounds(net, [f], net.cylinder({"3": "1"}), "unconditional")

    @pytest.mark.parametrize("method", ["auto", "lp"])
    def test_impossible_event_over_no_nodes(self, method):
        net = random_binary_net(np.random.default_rng(0), 3)
        f = random_factor(np.random.default_rng(1), net, ["1"])
        given = net.event((), [])
        assert given.empty
        with pytest.raises(InputError, match="conditioning event is empty"):
            bounds(net, [f], given, "natural", method)


def gate_net(rng, zero: bool):
    """e -> a -> b -> c, binary.  The state '0' of a has zero upper
    probability when ``zero`` is set, and positive upper probability
    otherwise; every other local set is an interval inside (0, 1)."""
    dag = Dag(["e", "a", "b", "c"], [("e", "a"), ("a", "b"), ("b", "c")])
    locals_ = {("e", ()): binary_interval(("0", "1"), 0.3, 0.6)}
    for cfg in (("0",), ("1",)):
        locals_[("a", cfg)] = (singleton(("0", "1"), (0.0, 1.0)) if zero
                               else binary_interval(("0", "1"), 0.2, 0.7))
        for s in ("b", "c"):
            lo, hi = np.sort(rng.uniform(0.1, 0.9, size=2))
            locals_[(s, cfg)] = binary_interval(("0", "1"), lo, hi)
    return binary_net(dag, locals_)


class TestRestGate:
    """A regular-rule ``auto`` query on b given evidence on c and on the
    non-descendants of K = {b, c}: the gate is the upper probability
    that the non-descendants give their share of the evidence, from one
    planner pass with that evidence, equal to the atom product when they
    are all instantiated, and to the planner's upper probability of the
    dense indicator otherwise.  Where it is zero, so is the upper
    probability of the evidence, and the bound is vacuous."""

    @pytest.mark.parametrize("zero", [False, True])
    @pytest.mark.parametrize("evidence,oracle", [
        ({"e": "1", "a": "0", "c": "1"}, "atom_bounds"),
        ({"a": "0", "c": "1"}, "lower_expectation")])
    def test_auto_matches_lp(self, rng, monkeypatch, zero, evidence,
                             oracle):
        from credalnet import decompose
        from credalnet.network import sub_network
        calls, plan = [], decompose._plan
        monkeypatch.setattr(decompose, "_plan", lambda *a: (
            calls.append(a) or plan(*a)))
        net = gate_net(rng, zero)
        f = random_factor(rng, net, ["b"])
        B = net.cylinder(evidence)
        auto = run_query(net, Query(f, B, "regular", "auto", 1e-10))
        # one planner call with evidence: the gate's, on the rest
        (gate,) = [a for a in calls if a[3]]
        rest = {s: x for s, x in evidence.items() if s != "c"}
        assert gate[3] == rest
        mantissa, e = plan(*gate)
        upper = -float(np.ldexp(mantissa, e)[0])
        if oracle == "atom_bounds":
            expect = atom_bounds(sub_network(net, rest, {}), rest)[1]
        else:
            expect = -decompose.lower_expectation(
                net, -net.indicator(net.cylinder(rest)))
        assert upper == pytest.approx(expect, abs=1e-12)
        assert (-mantissa[0] > conditioning.TOL_SIGN) != zero
        lp_ = run_query(net, Query(f, B, "regular", "lp", 1e-10))
        for key in ("lower", "upper"):
            assert auto[key] == pytest.approx(lp_[key], abs=1e-7)
        kind = "vacuous-fallback" if zero else "unique-root"
        assert auto["kind"] == lp_["kind"] == kind
        if zero:
            assert auto["lower"] == vacuous_value(net, f, B)


class TestRegularZeroProbability:
    """The regular rule where the evidence has zero lower or zero upper
    probability: ``auto`` and complete evidence give the global
    program's bound, on nets whose local sets put probability zero on
    some states (:func:`helpers.zero_bound_locals`)."""

    def test_auto_and_complete_evidence_match_lp(self):
        rng = np.random.default_rng(3)
        kinds = set()
        for _ in range(40):
            n = int(rng.integers(3, 6))
            dag = random_dag(rng, n, 0.5)
            net = binary_net(dag, zero_bound_locals(dag, rng))
            q = str(rng.integers(1, n + 1))
            f = random_factor(rng, net, [q])
            x_E = {s: str(rng.integers(0, 2)) for s in dag.nodes if s != q}
            part = {s: x_E[s] for s in x_E if rng.random() < 0.6} or x_E
            B = net.cylinder(part)
            auto = run_query(net, Query(f, B, "regular", "auto", 1e-10))
            lp_ = run_query(net, Query(f, B, "regular", "lp", 1e-10))
            for key in ("lower", "upper"):
                assert auto[key] == pytest.approx(lp_[key], abs=1e-6)
            complete = run_query(net, Query(f, net.cylinder(x_E), "regular",
                                            "lp", 1e-10))
            got = run_query(net, Query(f, net.cylinder(x_E), "regular",
                                       "auto", 1e-10))
            assert got["lower"] == pytest.approx(complete["lower"], abs=1e-6)
            kinds.update((lp_["kind"], complete["kind"]))
        assert {"rightmost-root", "vacuous-fallback"} <= kinds

    def test_rest_gate_on_a_long_chain(self):
        # the gate on the non-descendants 1..30 runs the planner, not a
        # global program over 30 nodes; their upper probability of
        # X_30 = 1 is positive, so the two rules agree
        rng = np.random.default_rng(0)
        net = random_chain_net(rng, 100)
        f = random_factor(rng, net, ["31"])
        B = net.cylinder({"30": "1", "32": "0"})
        regular = run_query(net, Query(f, B, "regular", "auto", 1e-9))
        natural = run_query(net, Query(f, B, "natural", "auto", 1e-9))
        for key in ("lower", "upper"):
            assert regular[key] == pytest.approx(natural[key], abs=1e-9)


class TestVacuousBound:
    def test_equals_brute_force(self, rng):
        for _ in range(6):
            net = random_binary_net(rng, 4, edge_p=0.5)
            f = random_factor(rng, net, ["2", "4"])
            x = [str(v) for v in rng.integers(0, 2, size=2)]
            for B in (net.event(["1", "4"], [("0", "1"), ("1", "0"),
                                             ("1", "1")]),
                      net.cylinder({"1": x[0], "4": x[1]}),
                      net.cylinder({"1": x[0]})):
                mask = lp.event_mask(net, B)
                expect = float(lp.factor_vector(net, f)[mask].min())
                assert vacuous_value(net, f, B) == expect
                assert vacuous_value(net, Factor.constant(0.5), B) == 0.5

    def test_evaluator_reads_it_off_the_joint_vectors(self, rng,
                                                      monkeypatch):
        # the evaluators that the dispatcher builds for the global
        # program hold min f over B as its joint vectors give it
        seen, condition_ = [], conditioning.condition
        monkeypatch.setattr(conditioning, "condition", lambda rho, evs, *a: (
            seen.extend(evs) or condition_(rho, evs, *a)))
        for _ in range(6):
            net = random_binary_net(rng, 4, edge_p=0.5)
            f = random_factor(rng, net, ["2", "4"])
            for B in (net.event(["1", "4"], [("0", "1"), ("1", "0")]),
                      net.cylinder({"1": "0", "4": "1"})):
                del seen[:]
                bounds(net, [f, -f], B, "regular", "lp")
                mask = lp.event_mask(net, B)
                assert [ev.vacuous_value for ev in seen] == [
                    float(lp.factor_vector(net, g)[mask].min())
                    for g in (f, -f)]
        with pytest.raises(InputError):
            bounds(net, [f], net.event(["1"], []), "natural", "lp")

    def test_long_chain_stops_at_the_lp_bound(self, rng):
        # the vacuous bound is taken over the query's two nodes, so the
        # global program's query fails on its variable bound, not by
        # asking for memory over all 2^n joint states; at 100 nodes that
        # count does not fit in an int64
        for n in (50, 100):
            net = random_chain_net(rng, n)
            f = random_factor(rng, net, ["1"])
            B = net.cylinder({str(n): "1"})
            assert vacuous_value(net, f, B) == f.min()
            query = Query(f, B, "natural", "lp", 1e-9)
            with pytest.raises(CapabilityError, match="variable bound"):
                run_query(net, query)

    @pytest.mark.parametrize("L", [40, 1000])
    def test_many_evidence_nodes(self, L, monkeypatch):
        # z has P(z = 0) = 0, so the regular rule's gate finds the
        # evidence z = 0, nodes 2..L = 0 to have zero upper probability;
        # the vacuous bound indexes the gamble on node 1 at the
        # assignment, instead of densifying the event over 2^(L-1) states,
        # and no sub-network is built for it
        built = []
        sub_network = conditioning.sub_network
        monkeypatch.setattr(conditioning, "sub_network", lambda *a: (
            built.append(a[1]) or sub_network(*a)))
        chain = chain_dag(L)
        dag = Dag(["z", *chain.nodes], list(chain.edges))
        locals_ = interval_locals(chain, np.random.default_rng(L))
        locals_[("z", ())] = binary_interval(("0", "1"), 0, 0)
        net = binary_net(dag, locals_)
        f = net.factor(["1"], {("0",): 1.0, ("1",): 0.0})
        B = net.cylinder({"z": "0", **{str(i): "0" for i in range(2, L + 1)}})
        got = run_query(net, Query(f, B, "regular", "auto", 1e-9))
        assert (got["lower"], got["upper"]) == (0.0, 1.0)
        assert got["kind"] == got["upper_kind"] == "vacuous-fallback"
        assert built == []
        # the natural rule builds the sub-network of the chain
        run_query(net, Query(f, B, "natural", "auto", 1e-9))
        assert built == [set(chain.nodes)]


def root_query(rng, locals_of):
    """A binary DAG of 4-7 nodes with a gamble on a root that has
    descendants, and evidence on 1-3 of them."""
    while True:
        dag = random_dag(rng, int(rng.integers(4, 8)), 0.5)
        roots = [s for s in dag.nodes
                 if not dag.parents(s) and dag.descendants(s)]
        if roots:
            break
    net = binary_net(dag, locals_of(dag, rng))
    q = roots[int(rng.integers(0, len(roots)))]
    below = list(dag.sorted_nodes(dag.descendants(q)))
    rng.shuffle(below)
    k = int(rng.integers(1, min(3, len(below)) + 1))
    given = net.cylinder({s: str(rng.integers(0, 2)) for s in below[:k]})
    return net, random_factor(rng, net, [q]), given


def outcome(net, query):
    try:
        return run_query(net, query)
    except (HypothesisError, CapabilityError) as e:
        return type(e)


class TestRootRho:
    """``auto`` conditionals on a root gamble with evidence below it take
    the sign split of the planner's envelopes at the root
    (:func:`conditioning.root_rho`); where another root of the reduced
    network is an ancestor of the evidence, they take the program."""

    @pytest.mark.parametrize("locals_of", [interval_locals,
                                           zero_bound_locals])
    def test_auto_matches_lp(self, monkeypatch, locals_of):
        rng = np.random.default_rng(7)
        engines, programs = [], []
        root_rho, program_rho = conditioning.root_rho, conditioning.program_rho
        monkeypatch.setattr(conditioning, "root_rho", lambda *a: (
            lambda r: engines.append(r is not None) or r)(root_rho(*a)))
        monkeypatch.setattr(conditioning, "program_rho", lambda *a: (
            programs.append(a[0]) or program_rho(*a)))
        moved = fell_back = 0
        for _ in range(12):
            net, f, given = root_query(rng, locals_of)
            (q,) = f.scope
            for rule in ("natural", "regular"):
                del engines[:], programs[:]
                auto = outcome(net, Query(f, given, rule, "auto", 1e-10))
                on_program = len(programs)
                sub, inside, vacuous = reduce_query(net, f.scope, given,
                                                    rule)
                exact = outcome(net, Query(f, given, rule, "lp", 1e-10))
                if isinstance(auto, type) or isinstance(exact, type):
                    assert auto is exact
                    continue
                assert auto["kind"] == exact["kind"]
                assert auto["upper_kind"] == exact["upper_kind"]
                for key in ("lower", "upper"):
                    assert auto[key] == pytest.approx(exact[key], abs=1e-9)
                if engines == [True]:
                    moved += 1
                    assert on_program == 0
                elif inside is not None and not vacuous:
                    # another root of K is an ancestor of the evidence
                    dag = sub.dag
                    assert engines == [False] and on_program == 1
                    assert any(not dag.parents(r) and r != q and any(
                        r in dag.ancestors(s) for s in inside.scope)
                        for r in dag.nodes)
                    fell_back += 1
        assert moved >= 6 and fell_back >= 2

    def test_evidence_on_the_root_too(self, monkeypatch):
        # the evidence on q multiplies both envelopes by its indicator,
        # and the vacuous value is f at the observed state
        rng = np.random.default_rng(12)
        served, kinds = [], set()
        root_rho = conditioning.root_rho
        monkeypatch.setattr(conditioning, "root_rho", lambda *a: (
            lambda r: served.append(r is not None) or r)(root_rho(*a)))
        for _ in range(12):
            net, f, given = root_query(rng, zero_bound_locals)
            (q,) = f.scope
            x = str(rng.integers(0, 2))
            B = net.cylinder({**given.assignment(), q: x})
            assert vacuous_value(net, f, B) == f.values[net.state_index(q, x)]
            for rule in ("natural", "regular"):
                auto = outcome(net, Query(f, B, rule, "auto", 1e-10))
                exact = outcome(net, Query(f, B, rule, "lp", 1e-10))
                if isinstance(auto, type) or isinstance(exact, type):
                    assert auto is exact
                    continue
                for key in ("kind", "upper_kind"):
                    assert auto[key] == exact[key]
                for key in ("lower", "upper"):
                    assert auto[key] == pytest.approx(exact[key], abs=1e-9)
                kinds.add(auto["kind"])
        assert any(served) and "vacuous-fallback" in kinds

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_auto_reverse_chain_equals_chain(self, seed):
        # the census's auto-rev/L50 shape: K is the whole chain
        net = random_chain_net(np.random.default_rng(seed), 50)
        f = random_factor(np.random.default_rng(seed + 1), net, ["1"])
        B = net.cylinder({"50": str(seed % 2)})
        for rule in ("natural", "regular"):
            auto = run_query(net, Query(f, B, rule, "auto", 1e-9))
            chain = run_query(net, Query(f, B, rule, "chain", 1e-9))
            assert {**auto, "method": "chain"} == chain

    def test_reduce_query_keeps_the_whole_network(self, rng):
        net = random_chain_net(rng, 6)
        for rule in ("natural", "regular"):
            sub, _, _ = reduce_query(net, ("1",), net.cylinder({"6": "1"}),
                                     rule)
            assert sub is net

    def test_scattered_evidence_on_a_long_chain(self):
        # the gate's evidence on nodes 1-30 and 39 stays per-node
        # indicators: a dense one would take 2^31 floats.  Its upper
        # probability is about 1.4e-6, and positive, so both rules give
        # the local value of node 40 given node 39
        rng = np.random.default_rng(0)
        net = random_chain_net(rng, 40)
        f = random_factor(rng, net, ["40"])
        evidence = {str(i): "0" for i in range(1, 31)}
        evidence["39"] = "1"
        upper = -planned(net, (), np.array([-1.0]), evidence)[0]
        assert 1e-6 < upper < 2e-6
        B = net.cylinder(evidence)
        regular = run_query(net, Query(f, B, "regular", "auto", 1e-9))
        natural = run_query(net, Query(f, B, "natural", "auto", 1e-9))
        assert {**regular, "rule": "natural"} == natural
        assert natural["kind"] == natural["upper_kind"] == "local-fallback"
        assert natural["lower"] == net.local("40", ("1",)).lower_expectation(
            f.values)

    def test_declines_what_it_cannot_split(self, rng):
        dag = Dag(["q", "r", "a", "b"], [("q", "a"), ("a", "b"), ("r", "b")])
        net = binary_net(dag, interval_locals(dag, rng))
        f = random_factor(rng, net, ["q"])
        # another root above the evidence, evidence off q's descendants,
        # a gamble node with a parent
        assert conditioning.root_rho(net, "q", {"b": "0"}, [f]) is None
        assert conditioning.root_rho(net, "q", {"r": "0"}, [f]) is None
        g = random_factor(rng, net, ["a"])
        assert conditioning.root_rho(net, "a", {"b": "0"}, [g]) is None
        assert conditioning.root_rho(net, "q", {"a": "0"}, [f]) is not None
