"""Linear-time recursions: chains, hidden-state models, complete evidence."""

import json
import os
from collections import Counter

import numpy as np
import pytest

from credalnet import cli, conditioning, decompose, lp, oracle, queries
from credalnet.chains import TransferOperator, chain_order
from credalnet.conditioning import hmm_rho, root_rho
from credalnet.credal import CredalSet, binary_interval, singleton
from credalnet.decompose import lower_expectation
from credalnet.errors import HypothesisError, InputError
from credalnet.fileio import Query, load_network
from credalnet.graph import Dag
from credalnet.network import CredalNetwork, Factor, sub_network

from helpers import (bayes_joint, binary_net, chain_dag, constraint_twin,
                     hmm_dag, interval_locals, kink_grid, one_gamble,
                     precise_locals, random_binary_net, random_chain_net,
                     random_factor, random_hmm_net, redeclared,
                     reference_chain_lower, reference_filtering,
                     reference_hmm_rho, reference_reverse_rho,
                     reference_root_conditional, reference_smoothing,
                     zero_bound_locals)

TOL = 1e-9
DATA = os.path.join(os.path.dirname(__file__), "data")


def chain_rho(net, hs, x_n):
    """The batched rho of conditioning the first chain node on
    ``X_last = x_n``, for the gambles ``hs``: the engine of evidence
    below a root."""
    order = chain_order(net)
    return root_rho(net, order[0], {order[-1]: x_n}, hs)


def reverse_rho(net, h, x_n):
    """rho of conditioning the first chain node on ``X_last = x_n``."""
    return one_gamble(chain_rho(net, [h], x_n))


def filtering_rho(net, f, observations):
    """rho of the filtering query of ``f`` given ``observations``."""
    return one_gamble(hmm_rho(net, observations, [f]))


class TestChainShape:
    def test_chain_recognised(self, rng):
        net = random_chain_net(rng, 5)
        assert chain_order(net) == ("1", "2", "3", "4", "5")

    def test_non_chain_rejected(self, rng):
        net = random_binary_net(rng, 3, edge_p=1.0)  # complete graph
        with pytest.raises(HypothesisError):
            chain_order(net)
        dag = Dag(["1", "2"], [])
        net2 = binary_net(dag, interval_locals(dag, rng))
        with pytest.raises(HypothesisError):
            chain_order(net2)


class TestTransferOperator:
    def test_properties(self, rng):
        net = random_chain_net(rng, 3)
        op = TransferOperator(net, "2")
        g = list(rng.uniform(-2, 2, size=2))
        h = list(rng.uniform(-2, 2, size=2))
        tg, th = op(g), op(h)
        # monotone
        g_hi = [v + 0.5 for v in g]
        assert all(a <= b + TOL for a, b in zip(tg, op(g_hi)))
        # constant additivity and positive homogeneity
        assert op([v + 1.25 for v in g]) == pytest.approx(
            [v + 1.25 for v in tg], abs=TOL)
        assert op([2.0 * v for v in g]) == pytest.approx(
            [2.0 * v for v in tg], abs=TOL)
        # range bounds
        assert min(g) - TOL <= min(tg) and max(tg) <= max(g) + TOL
        # superadditivity
        both = op([a + b for a, b in zip(g, h)])
        assert all(ab >= a + b - TOL for ab, a, b in zip(both, tg, th))


class TestChainForward:
    """The backward composition of the local lower expectations against
    independent values, and the planner against it, bit for bit."""

    def test_single_node(self, rng):
        dag = Dag(["1"], [])
        net = binary_net(dag, interval_locals(dag, rng))
        h = random_factor(rng, net, ["1"])
        assert reference_chain_lower(net, h) == pytest.approx(
            net.local("1", ()).lower_expectation(h.values), abs=TOL)

    def test_matches_lp(self, rng):
        for _ in range(4):
            net = random_chain_net(rng, 3)
            h = random_factor(rng, net, ["3"])
            assert reference_chain_lower(net, h) == pytest.approx(
                lp.lower_expectation_lp(net, h), abs=1e-7)

    def test_precise_chain_is_matrix_product(self, rng):
        dag = chain_dag(4)
        net = binary_net(dag, precise_locals(dag, rng))
        h = random_factor(rng, net, ["4"])
        joint = bayes_joint(net)
        fv = lp.factor_vector(net, h)
        assert reference_chain_lower(net, h) == pytest.approx(
            float(joint @ fv), abs=1e-9)

    def test_bit_equal_to_iterated_peeling(self, rng):
        for _ in range(3):
            net = random_chain_net(rng, 5)
            h = random_factor(rng, net, ["5"])
            assert reference_chain_lower(net, h) == lower_expectation(net, h)
            # one peel of the last node, then the rest of the chain
            scope, inner = decompose._peel(net, "5", h.scope, h.values[None])
            assert reference_chain_lower(net, h) == lower_expectation(
                sub_network(net, ("1", "2", "3", "4"), {}),
                Factor(scope, inner[0]))


def forward_query(net, h, method="chain"):
    return queries.run_query(net, Query(h, None, "unconditional", method,
                                        1e-10))


class TestForwardChainQuery:
    """An unconditional ``method=chain`` query runs the planner once the
    network is a chain and the gamble is on its last node."""

    def test_non_chain_raises(self, rng):
        net = random_binary_net(rng, 3, edge_p=1.0)
        with pytest.raises(HypothesisError, match="not a simple chain"):
            forward_query(net, random_factor(rng, net, ["3"]))

    def test_target_on_first_node_raises(self, rng):
        net = random_chain_net(rng, 4)
        with pytest.raises(InputError, match="scoped to node '4'"):
            forward_query(net, random_factor(rng, net, ["1"]))

    @pytest.mark.parametrize("n", [1, 2, 5, 1000])
    def test_bounds_equal_auto(self, rng, n):
        net = random_chain_net(rng, n)
        h = random_factor(rng, net, [str(n)])
        chain = forward_query(net, h)
        auto = forward_query(net, h, "auto")
        assert (chain["lower"], chain["upper"]) == \
            (auto["lower"], auto["upper"])
        assert chain["lower"] == reference_chain_lower(net, h)
        assert chain["upper"] == -reference_chain_lower(net, -h)

    def test_bounds_match_lp(self, rng):
        for _ in range(4):
            net = random_chain_net(rng, 4)
            h = random_factor(rng, net, ["4"])
            chain, exact = forward_query(net, h), forward_query(net, h, "lp")
            assert chain["lower"] == pytest.approx(exact["lower"], abs=1e-7)
            assert chain["upper"] == pytest.approx(exact["upper"], abs=1e-7)


class TestChainReverseRho:
    def test_kink_continuity(self, rng):
        # at mu exactly equal to a gamble value both branches give zero
        net = random_chain_net(rng, 3)
        h = net.factor_from_values(["1"], [1.0, 0.0])
        rho = reverse_rho(net, h, "0")
        left, right, at = (rho(mu)[0] for mu in (1.0 - 1e-12, 1.0 + 1e-12,
                                                 1.0))
        assert left == pytest.approx(at, abs=1e-9)
        assert right == pytest.approx(at, abs=1e-9)

    def test_matches_lp_on_assembled_gamble(self, rng):
        for _ in range(4):
            net = random_chain_net(rng, 3)
            h = random_factor(rng, net, ["1"])
            x_n = str(rng.integers(0, 2))
            for mu in (-0.7, 0.1, 1.3):
                ind = net.indicator(net.cylinder({"3": x_n}))
                scope = ("1", "3")
                assembled = Factor(scope, net.aligned(ind, scope) * (
                    net.aligned(h, scope) - mu))
                assert reverse_rho(net, h, x_n)(mu)[0] == pytest.approx(
                    lp.lower_expectation_lp(net, assembled), abs=1e-7)

    def test_precise_chain_bayes(self, rng):
        dag = chain_dag(2)
        net = binary_net(dag, precise_locals(dag, rng))
        joint = bayes_joint(net)
        h = random_factor(rng, net, ["1"])
        B = net.cylinder({"2": "0"})
        mask = lp.event_mask(net, B)
        fv = lp.factor_vector(net, h)
        bayes = float(joint[mask] @ fv[mask]) / float(joint[mask].sum())
        res = sweep_bound(chain_rho(net, [h], "0"), h, "natural")[0]
        assert res.value == pytest.approx(bayes, abs=1e-8)

    def test_conditioning_against_oracle(self, rng):
        hits = 0
        for _ in range(5):
            net = random_chain_net(rng, 3)
            h = random_factor(rng, net, ["1"])
            x_n = str(rng.integers(0, 2))
            expect = oracle.irr_extreme_conditional(
                net, h, net.cylinder({"3": x_n}), "regular")
            if expect is None:
                continue
            res = sweep_bound(chain_rho(net, [h], x_n), h, "regular")[0]
            assert res.value == pytest.approx(expect, abs=1e-6)
            hits += 1
        assert hits >= 3


class TestHmm:
    def test_spec_inference(self, rng):
        # the sweep runs along the state chain from the observations
        # alone, at either order
        for order in (1, 2):
            net, states, obs = random_hmm_net(rng, 3, order=order)
            f = random_factor(rng, net, [states[-1]])
            x = {o: str(rng.integers(0, 2)) for o in obs}
            rho = hmm_rho(net, x, [f])
            # the observations leave the final state free
            assert conditioning.vacuous_value(net, f, net.cylinder(x)) == \
                f.min()
            for mu in (-0.5, 0.3):
                assert one_gamble(rho)(mu) == \
                    reference_hmm_rho(net, f, x, mu)

    def test_lower_and_upper_observation_probability(self, rng):
        net, states, obs = random_hmm_net(rng, 2)
        x = {o: str(rng.integers(0, 2)) for o in obs}
        low = filtering_rho(net, Factor.constant(1.0), x)(0.0)[0]
        high = -filtering_rho(net, Factor.constant(-1.0), x)(0.0)[0]
        ind = net.indicator(net.cylinder(x))
        assert low == pytest.approx(
            lp.lower_expectation_lp(net, ind), abs=1e-7)
        assert high == pytest.approx(
            -lp.lower_expectation_lp(net, -ind), abs=1e-7)

    @pytest.mark.parametrize("order", [1, 2])
    def test_rho_matches_lp(self, rng, order):
        net, states, obs = random_hmm_net(rng, 2, order=order)
        f = random_factor(rng, net, [states[-1]])
        x = {o: str(rng.integers(0, 2)) for o in obs}
        ind = net.indicator(net.cylinder(x))
        for mu in (-0.4, 0.2, 0.9):
            scope = net.dag.sorted_nodes(set(obs) | {states[-1]})
            assembled = Factor(scope, net.aligned(ind, scope) * (
                net.aligned(f, scope) - mu))
            assert filtering_rho(net, f, x)(mu)[0] == pytest.approx(
                lp.lower_expectation_lp(net, assembled), abs=1e-7)

    def test_filtering_query(self, rng):
        # natural-rule filtering against direct LP bracketing
        net, states, obs = random_hmm_net(rng, 2, lo=0.2, hi=0.8)
        f = random_factor(rng, net, [states[-1]])
        x = {o: "0" for o in obs}
        res = sweep_bound(hmm_rho(net, x, [f]), f, "natural")[0]
        direct = lp_bound(net, f, net.cylinder(x), "natural")
        assert res.value == pytest.approx(direct.value, abs=1e-6)


def ragged_chain(rng, n=6):
    """A binary chain whose node 3 mixes a one-vertex local set with
    two-vertex ones, so its stacked vertices are padded."""
    dag = chain_dag(n)
    locals_ = interval_locals(dag, rng)
    locals_[("3", ("1",))] = singleton(("0", "1"), (0.3, 0.7))
    return binary_net(dag, locals_)


def ragged_hmm(rng, n_obs, order):
    """A hidden-state model whose state node s2 and observation node o1
    each mix a one-vertex local set with two-vertex ones."""
    net, states, obs = random_hmm_net(rng, n_obs, order=order)
    locals_ = dict(net.locals)
    for s in ("s2", "o1"):
        cfg = next(net.parent_configs(s))
        locals_[(s, cfg)] = singleton(("0", "1"), (0.35, 0.65))
    return CredalNetwork(net.dag, net.state_spaces, locals_), states, obs


class TestShuffledAndConstraintForm:
    @pytest.mark.parametrize("order", [1, 2])
    def test_hmm_in_any_declaration_order(self, rng, order):
        net, states, obs = random_hmm_net(rng, 4, order=order)
        f = random_factor(rng, net, [states[-1]])
        x = {o: str(rng.integers(0, 2)) for o in obs}
        for _ in range(4):
            nodes = list(net.dag.nodes)
            rng.shuffle(nodes)
            shuffled = redeclared(net, nodes)
            assert hmm_rho(shuffled, x, [f]) is not None
            for mu in (-0.6, 0.0, 0.4):
                assert filtering_rho(shuffled, f, x)(mu)[0] == \
                    filtering_rho(net, f, x)(mu)[0]

    @pytest.mark.parametrize("order", [1, 2])
    def test_hmm_on_constraint_form_twin(self, rng, order):
        net, states, obs = random_hmm_net(rng, 3, order=order)
        twin = constraint_twin(net)
        assert all(m.vertices is None for m in twin.locals.values())
        f = random_factor(rng, net, [states[-1]])
        x = {o: str(rng.integers(0, 2)) for o in obs}
        for mu in (-0.6, 0.0, 0.4):
            assert filtering_rho(twin, f, x)(mu)[0] == pytest.approx(
                filtering_rho(net, f, x)(mu)[0], abs=1e-12)

    def test_chains_on_constraint_form_twin(self, rng):
        net = ragged_chain(rng)
        twin = constraint_twin(net)
        for _ in range(3):
            h = random_factor(rng, net, ["6"])
            assert reference_chain_lower(twin, h) == pytest.approx(
                reference_chain_lower(net, h), abs=1e-12)
            assert lower_expectation(twin, h) == reference_chain_lower(twin, h)
            h = random_factor(rng, net, ["1"])
            for mu in (-0.7, 0.1, 1.3):
                assert reverse_rho(twin, h, "0")(mu)[0] == \
                    pytest.approx(reverse_rho(net, h, "0")(mu)[0],
                                  abs=1e-12)


def assert_reverse_matches_reference(net, h, x_n):
    rho = reverse_rho(net, h, x_n)
    mus = kink_grid(h.values)
    assert len(mus) >= 20
    for mu in mus:
        assert rho(mu) == reference_reverse_rho(net, h, x_n, mu)


def assert_hmm_matches_reference(net, f, x):
    rho = filtering_rho(net, f, x)
    mus = kink_grid(f.values)
    assert len(mus) >= 20
    for mu in mus:
        assert rho(mu) == reference_hmm_rho(net, f, x, mu)


#: At mu = 0.5 every envelope of the filtering sweep is exactly zero, the
#: tie of its sign split.
CONSTANT = Factor.constant(0.5)


class TestPlanMatchesPerMuSweep:
    """The plan and evaluation of a sweep give (rho, E, P) equal, bit for
    bit, to the sweep that recomputes everything at every mu."""

    @pytest.mark.parametrize("n", [2, 4, 9])
    def test_random_chains(self, rng, n):
        for _ in range(3):
            net = random_chain_net(rng, n)
            h = random_factor(rng, net, ["1"])
            for x_n in ("0", "1"):
                assert_reverse_matches_reference(net, h, x_n)
                assert_reverse_matches_reference(net, -h, x_n)

    @pytest.mark.parametrize("order", [1, 2])
    def test_hmm_in_shuffled_declaration_order(self, rng, order):
        net, states, obs = random_hmm_net(rng, 4, order=order)
        f = random_factor(rng, net, [states[-1]])
        x = {o: str(rng.integers(0, 2)) for o in obs}
        for _ in range(3):
            nodes = list(net.dag.nodes)
            rng.shuffle(nodes)
            shuffled = redeclared(net, nodes)
            for g in (f, -f, CONSTANT):
                assert_hmm_matches_reference(shuffled, g, x)

    def test_chain_twins(self, rng):
        net = ragged_chain(rng)
        assert net.local_stack("3").shape == (2, 2, 2)
        twin = constraint_twin(net)
        for model in (net, twin):
            h = random_factor(rng, net, ["1"])
            assert_reverse_matches_reference(model, h, "0")
            assert_reverse_matches_reference(model, -h, "1")

    @pytest.mark.parametrize("order", [1, 2])
    def test_hmm_twins(self, rng, order):
        net, states, obs = ragged_hmm(rng, 3, order)
        twin = constraint_twin(net)
        f = random_factor(rng, net, [states[-1]])
        x = {o: str(rng.integers(0, 2)) for o in obs}
        for model in (net, twin):
            for g in (f, -f, CONSTANT):
                assert_hmm_matches_reference(model, g, x)


def counted_local_lower(monkeypatch) -> list:
    """The node of every ``CredalNetwork.local_lower`` call from now on."""
    nodes = []
    local_lower = CredalNetwork.local_lower
    monkeypatch.setattr(CredalNetwork, "local_lower",
                        lambda net, s, g: nodes.append(s) or
                        local_lower(net, s, g))
    return nodes


def counted_rho(monkeypatch) -> list:
    """The evaluator and the abscissa of every new evaluation of rho from
    now on, as the evaluators record them."""
    mus = []
    record = conditioning.RhoEvaluator.rho

    def counted(self, mu, *result):
        mus.append((self, mu))
        return record(self, mu, *result)

    monkeypatch.setattr(conditioning.RhoEvaluator, "rho", counted)
    return mus


class TestOnePlanPerQuery:
    """The lower and the upper bound of a query share one plan, built in
    one batch for both, so the work that does not depend on mu is done
    once per query, however many evaluations of rho the brackets take."""

    @pytest.mark.parametrize("rule", ["natural", "regular"])
    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_reverse_chain_transfers(self, rng, monkeypatch, rule, n):
        net = random_chain_net(rng, n)
        h = random_factor(rng, net, ["1"])
        nodes, mus = counted_local_lower(monkeypatch), counted_rho(monkeypatch)
        queries.run_query(net, Query(h, net.cylinder({str(n): "0"}), rule,
                                     "chain", 1e-10))
        assert len(mus) >= 4
        # one transfer of both envelopes into every node but the first
        assert sorted(nodes) == sorted(net.dag.nodes[1:])

    @pytest.mark.parametrize("rule", ["natural", "regular"])
    @pytest.mark.parametrize("order, n", [(1, 1), (1, 4), (1, 9), (2, 2),
                                          (2, 4), (2, 9)])
    def test_hmm_observation_bounds(self, rng, monkeypatch, rule, order, n):
        net, states, obs = random_hmm_net(rng, n, order=order)
        f = random_factor(rng, net, [states[-1]])
        x = {o: str(rng.integers(0, 2)) for o in obs}
        nodes, mus = counted_local_lower(monkeypatch), counted_rho(monkeypatch)
        queries.run_query(net, Query(f, net.cylinder(x), rule, "hmm", 1e-10))
        assert len(mus) >= 4
        # both observation bounds in one call per observation node
        assert sorted(s for s in nodes if s in obs) == sorted(obs)


def hmm_sweep(rng, n, order, locals_of=interval_locals):
    """A random binary hidden-state model's gamble and its batched
    filtering sweep, as a map from a gamble sequence to a batched rho."""
    dag, states, obs = hmm_dag(n, order)
    net = binary_net(dag, locals_of(dag, rng))
    x = {o: str(rng.integers(0, 2)) for o in obs}
    return (random_factor(rng, net, [states[-1]]),
            lambda gs: hmm_rho(net, x, gs))


def reverse_sweep(rng, n, locals_of=interval_locals):
    """The same for conditioning the first node of a random binary chain
    on its last one."""
    dag = chain_dag(n)
    net = binary_net(dag, locals_of(dag, rng))
    x_n = str(rng.integers(0, 2))
    return (random_factor(rng, net, ["1"]),
            lambda hs: chain_rho(net, hs, x_n))


def evaluators(gambles):
    """The evaluators of a sweep's gambles: vacuous value min f."""
    return [conditioning.RhoEvaluator(i, g.min(), g.max(), g.min())
            for i, g in enumerate(gambles)]


def lockstep_as_one_by_one(f, sweep, rule) -> set:
    """Asserts that the bounds of ``f`` and ``-f`` in lockstep over one
    batched sweep equal, field for field, those of each gamble's bracket
    on its own sweep, and that each new abscissa is evaluated once, in
    fewer engine calls than one by one.  Returns the kinds (``None`` for
    the natural rule's ``HypothesisError``)."""
    gambles = [f, -f]
    expect, counts = zip(*(sweep_bound(sweep([g]), g, rule) for g in gambles))
    fn, slots = sweep(gambles), []

    def counted(s, mus):
        slots.append(len(s))
        return fn(s, mus)

    if None in expect:
        with pytest.raises(HypothesisError):
            conditioning.condition(counted, evaluators(gambles), rule, 1e-10)
        return {None}
    got = conditioning.condition(counted, evaluators(gambles), rule, 1e-10)
    assert got == list(expect)
    assert sum(slots) == sum(counts)
    assert max(counts) <= len(slots) < sum(counts)
    return {r.kind for r in got}


class TestLockstep:
    """Both bounds of a sweep query in lockstep over one batched sweep
    give, field for field, what each gives one after the other."""

    @pytest.mark.parametrize("rule", ["natural", "regular"])
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_hmm(self, rng, rule, order, n):
        for locals_of in (interval_locals, zero_bound_locals) * 2:
            lockstep_as_one_by_one(*hmm_sweep(rng, n, order, locals_of),
                                   rule)

    @pytest.mark.parametrize("rule", ["natural", "regular"])
    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_reverse_chain(self, rng, rule, n):
        for locals_of in (interval_locals, zero_bound_locals) * 2:
            lockstep_as_one_by_one(*reverse_sweep(rng, n, locals_of), rule)

    def test_kinds_covered(self, rng):
        kinds = set()
        for rule in ("natural", "regular"):
            for _ in range(12):
                for f, sweep in (hmm_sweep(rng, 4, 1, zero_bound_locals),
                                 reverse_sweep(rng, 5, zero_bound_locals)):
                    kinds |= lockstep_as_one_by_one(f, sweep, rule)
        assert kinds >= {"unique-root", "rightmost-root", None}

    def test_run_query_is_lockstep(self, rng, monkeypatch):
        net, states, obs = random_hmm_net(rng, 4)
        f = random_factor(rng, net, [states[-1]])
        x = {o: str(rng.integers(0, 2)) for o in obs}
        mus = counted_rho(monkeypatch)
        got = queries.run_query(net, Query(f, net.cylinder(x), "regular",
                                           "hmm", 1e-10))
        evaluations = len(mus)
        low, up = (sweep_bound(hmm_rho(net, x, [g]), g, "regular")[0]
                   for g in (f, -f))
        assert (got["lower"], got["kind"], got["iterations"],
                got["bracket_width"]) == (low.value, low.kind,
                                          low.iterations, low.width)
        assert (got["upper"], got["upper_kind"], got["upper_iterations"]) \
            == (-up.value, up.kind, up.iterations)
        # the sign test and one evaluation per step, for each bound
        assert evaluations == low.iterations + up.iterations + 2


class TestBatchedSweep:
    """A batched sweep at ``(slots, mus)`` equals the one-gamble sweep
    of each slot, bit for bit."""

    @staticmethod
    def assert_per_slot(f, sweep, rng):
        gambles = [f, -f, Factor.constant(0.5)]
        mus = kink_grid(np.concatenate([f.values, -f.values, [0.5]]))
        # every slot at once, and the two bounds of a lockstep round
        asks = [(rng.integers(0, len(gambles), size=len(mus)), mus)]
        asks += [([0, 1], mus[k:k + 2]) for k in range(0, len(mus) - 1, 2)]
        fn = sweep(gambles)
        for slots, at in asks:
            got = fn(slots, at)
            for j, (i, mu) in enumerate(zip(slots, at)):
                one = sweep([gambles[i]])([0], [mu])
                assert [a[j] for a in got] == [a[0] for a in one]

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("n", [1, 3])
    def test_hmm(self, rng, order, n):
        # at n = 1 and order 1 the final state is a binary node with one
        # binary parent: a batch of two must not be read as its parent axis
        for locals_of in (interval_locals, zero_bound_locals):
            self.assert_per_slot(*hmm_sweep(rng, n, order, locals_of), rng)

    def test_hmm_on_constraint_form_twin(self, rng):
        net, states, obs = random_hmm_net(rng, 2)
        twin, x = constraint_twin(net), {o: "0" for o in obs}
        self.assert_per_slot(random_factor(rng, net, [states[-1]]),
                             lambda gs: hmm_rho(twin, x, gs), rng)

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_reverse_chain(self, rng, n):
        for locals_of in (interval_locals, zero_bound_locals):
            self.assert_per_slot(*reverse_sweep(rng, n, locals_of), rng)

    def test_transfer_of_two_gambles(self, rng):
        # node 2 is binary with one binary parent, so the batch needs its
        # unit parent axis
        net = random_chain_net(rng, 2)
        op = TransferOperator(net, "2")
        g, h = rng.uniform(-2, 2, size=(2, 2))
        both = op(np.array([g, h])[:, None])
        assert both.shape == (2, 2)
        assert both[0].tolist() == op(g).tolist()
        assert both[1].tolist() == op(h).tolist()


def diamond_net(rng):
    """1 -> {2,3} -> 4 with singleton middle layers: few enough global
    extreme points for the brute-force conditional oracle."""
    dag = Dag(["1", "2", "3", "4"],
              [("1", "2"), ("1", "3"), ("2", "4"), ("3", "4")])
    locals_ = {("1", ()): binary_interval(("0", "1"), 0.3, 0.6)}
    for s in ("2", "3"):
        for cfg in (("0",), ("1",)):
            a = float(rng.uniform(0.2, 0.8))
            locals_[(s, cfg)] = singleton(("0", "1"), (a, 1 - a))
    for cfg in (("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")):
        a = float(rng.uniform(0.2, 0.7))
        locals_[("4", cfg)] = binary_interval(("0", "1"), a, a + 0.2)
    return binary_net(dag, locals_)


def complete_evidence(net, q, x_E, f, rule,
                      tolerance=conditioning.DEFAULT_TOLERANCE):
    """The ``auto`` query of the gamble ``f`` on the node ``q`` given the
    value ``x_E`` of every other node."""
    assert set(x_E) == set(net.dag.nodes) - {q} and f.scope == (q,)
    return queries.run_query(net, Query(f, net.cylinder(x_E), rule, "auto",
                                        tolerance))


class TestCompleteEvidence:
    def test_leaf_is_local(self, rng):
        net = random_binary_net(rng, 4, edge_p=0.6)
        leaves = [s for s in net.dag.nodes if not net.dag.children(s)]
        q = leaves[-1]
        x_E = {s: str(rng.integers(0, 2)) for s in net.dag.nodes if s != q}
        f = random_factor(rng, net, [q])
        expect = net.local(q, net.parent_config(q, x_E)).lower_expectation(
            f.values)
        for rule in ("natural", "regular"):
            assert complete_evidence(net, q, x_E, f, rule)["lower"] == \
                pytest.approx(expect, abs=TOL)

    def test_constant_gamble(self, rng):
        net = random_chain_net(rng, 3)
        x_E = {"2": "0", "3": "1"}
        f = net.factor_from_values(["1"], [0.8, 0.8])
        for rule in ("natural", "regular"):
            assert complete_evidence(net, "1", x_E, f, rule)["lower"] == \
                pytest.approx(0.8, abs=1e-8)

    def test_diamond_against_oracle(self, rng, monkeypatch):
        # each net's extreme points are enumerated once, for both rules
        points = {}
        enumerate_points = oracle.enumerate_joint_extreme_points

        def memoised(net):
            if net not in points:
                points[net] = enumerate_points(net)
            return points[net]

        monkeypatch.setattr(oracle, "enumerate_joint_extreme_points", memoised)
        hits = 0
        for _ in range(4):
            net = diamond_net(rng)
            f = random_factor(rng, net, ["1"])
            x_E = {"2": str(rng.integers(0, 2)), "3": str(rng.integers(0, 2)),
                   "4": str(rng.integers(0, 2))}
            B = net.cylinder(x_E)
            for rule in ("natural", "regular"):
                expect = oracle.irr_extreme_conditional(net, f, B, rule)
                if expect is None:
                    continue
                got = complete_evidence(net, "1", x_E, f, rule,
                                        tolerance=1e-10)["lower"]
                assert got == pytest.approx(expect, abs=1e-6)
                hits += 1
        assert hits >= 4
        assert len(points) == 4

    def test_regular_vacuous_on_zero_upper_probability(self):
        # a -> q -> d with P(a = 0) = 0: the evidence a = 0, d = 0 has
        # zero upper probability, so the regular rule gives min f, as the
        # global program does, not the bound of q given d = 0 on {q, d}
        net = load_network(os.path.join(DATA, "zero_gate.json"))
        f = net.factor_from_values(["q"], [1.0, 0.0])
        x_E = {"a": "0", "d": "0"}
        expect = lp_bound(net, f, net.cylinder(x_E), "regular")
        assert (expect.value, expect.kind) == (0.0, "vacuous-fallback")
        assert complete_evidence(net, "q", x_E, f, "regular")["lower"] == 0.0

    def test_natural_zero_lower_probability_raises(self):
        # 1 -> 2 with P(2 = 0 | 1) down to 0 at both states of 1: the
        # natural rule has no value to give, the regular rule, with the
        # evidence's upper probability positive, gives the program's
        dag = chain_dag(2)
        locals_ = {("1", ()): binary_interval(("0", "1"), 0.3, 0.6),
                   ("2", ("0",)): binary_interval(("0", "1"), 0.0, 0.5),
                   ("2", ("1",)): binary_interval(("0", "1"), 0.0, 0.8)}
        net = binary_net(dag, locals_)
        f = net.factor_from_values(["1"], [1.0, -2.0])
        with pytest.raises(HypothesisError):
            complete_evidence(net, "1", {"2": "0"}, f, "natural")
        got = complete_evidence(net, "1", {"2": "0"}, f, "regular",
                                tolerance=1e-10)
        expect = lp_bound(net, f, net.cylinder({"2": "0"}), "regular")
        assert got["lower"] == pytest.approx(expect.value, abs=1e-6)
        assert got["kind"] == expect.kind

    def test_interior_node_against_bracketing(self, rng):
        for _ in range(3):
            net = random_chain_net(rng, 3, lo=0.2, hi=0.8)
            f = random_factor(rng, net, ["2"])
            x_E = {"1": "0", "3": "1"}
            got = complete_evidence(net, "2", x_E, f, "natural",
                                    tolerance=1e-10)["lower"]
            expect = lp_bound(net, f, net.cylinder(x_E), "natural")
            assert got == pytest.approx(expect.value, abs=1e-6)


#: Engine calls (sweeps) per bound, sign tests included.
MAX_ENGINE_CALLS = 10


def sweep_bound(rho, g, rule):
    """The conditional lower expectation of ``g`` from the batched sweep
    ``rho`` of it alone (None when the natural rule raises), and the
    number of sweeps."""
    calls = []

    def counted(slots, mus):
        calls.extend(mus)
        return rho(slots, mus)

    try:
        return conditioning.condition(counted, evaluators([g]), rule,
                                      1e-10)[0], len(calls)
    except HypothesisError:
        return None, len(calls)


def lp_bound(net, g, B, rule):
    try:
        return queries.bounds(net, [g], B, rule, "lp", 1e-10)[0]
    except HypothesisError:
        return None


def assert_same_bound(got, expect):
    assert (got is None) == (expect is None)
    if got is not None:
        assert got.kind == expect.kind
        assert got.value == pytest.approx(expect.value, abs=1e-6)


class TestDinkelbachSweeps:
    """The sweeps report P(B) at a model attaining rho, so every bound
    takes a few Dinkelbach steps, on vertex and constraint-form sets."""

    @pytest.mark.parametrize("n", [3, 5, 8, 11])
    def test_chain_reverse_bounds(self, rng, n):
        kinds = set()
        for trial in range(4):
            dag = chain_dag(n)
            locals_ = interval_locals(dag, rng)
            if trial % 2:
                # X_n = 0 gets zero lower probability: the natural rule
                # raises, the regular one takes the rightmost root
                for cfg, top in ((("0",), 0.6), (("1",), 0.3)):
                    locals_[(str(n), cfg)] = CredalSet(
                        ("0", "1"), vertices=[(0.0, 1.0), (top, 1 - top)])
            net = binary_net(dag, locals_)
            twin = constraint_twin(net)
            h = random_factor(rng, net, ["1"])
            B = net.cylinder({str(n): "0"})
            for g in (h, -h):
                for rule in ("natural", "regular"):
                    got, calls = sweep_bound(chain_rho(net, [g], "0"), g,
                                             rule)
                    assert calls <= MAX_ENGINE_CALLS
                    on_twin, calls = sweep_bound(chain_rho(twin, [g], "0"),
                                                 g, rule)
                    assert calls <= MAX_ENGINE_CALLS
                    assert_same_bound(on_twin, got)
                    if n <= 5:
                        assert_same_bound(got, lp_bound(net, g, B, rule))
                    kinds.add(None if got is None else got.kind)
        assert kinds == {"unique-root", "rightmost-root", None}

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("horizon", [2, 4, 6])
    def test_hmm_bounds(self, rng, order, horizon):
        for _ in range(2):
            net, states, obs = random_hmm_net(rng, horizon, order=order)
            twin = constraint_twin(net)
            f = random_factor(rng, net, [states[-1]])
            x = {o: str(rng.integers(0, 2)) for o in obs}
            for g in (f, -f):
                for rule in ("natural", "regular"):
                    results = []
                    for model in (net, twin):
                        got, calls = sweep_bound(hmm_rho(model, x, [g]),
                                                 g, rule)
                        assert calls <= MAX_ENGINE_CALLS
                        results.append(got)
                    assert_same_bound(results[1], results[0])
                    if horizon == 2:
                        assert_same_bound(results[0], lp_bound(
                            net, g, net.cylinder(x), rule))

    def test_complete_evidence_bounds(self, rng, monkeypatch):
        calls = counted_rho(monkeypatch)
        hits = 0
        for _ in range(6):
            net = random_binary_net(rng, 4, edge_p=0.6)
            inner = [s for s in net.dag.nodes if net.dag.children(s)]
            if not inner:
                continue
            q = inner[int(rng.integers(0, len(inner)))]
            x_E = {s: str(rng.integers(0, 2)) for s in net.dag.nodes if s != q}
            f = random_factor(rng, net, [q])
            twin = constraint_twin(net)
            for g in (f, -f):
                expect = lp_bound(net, g, net.cylinder(x_E), "natural")
                for rule in ("natural", "regular"):
                    for model in (net, twin):
                        del calls[:]
                        got = complete_evidence(model, q, x_E, g, rule,
                                                tolerance=1e-10)["lower"]
                        # the query's two bounds each count their own
                        per_bound = Counter(id(ev) for ev, _ in calls)
                        assert max(per_bound.values()) <= MAX_ENGINE_CALLS
                        assert got == pytest.approx(expect.value, abs=1e-6)
            hits += 1
        assert hits >= 4


def hmm_outcome(net, query):
    """``run_query``'s record without its method field, or the type of
    the error it raised."""
    try:
        out = queries.run_query(net, query)
    except (HypothesisError, InputError) as e:
        return type(e)
    del out["method"]
    return out


class TestFilteringAtScale:
    """The sweep scales its rows by powers of two, so that the sign
    tests see rho relative to the probability of the observations, which
    falls below their absolute tolerance within 20 steps."""

    @pytest.mark.parametrize("n", [20, 50, 100])
    def test_matches_rescaled_reference(self, n):
        net, states, obs = random_hmm_net(np.random.default_rng(n), n)
        rng = np.random.default_rng(n + 1)
        f = Factor((states[-1],), rng.normal(size=2))
        x = {o: str(rng.integers(2)) for o in obs}
        lower = reference_filtering(net, f, x)
        upper = -reference_filtering(net, -f, x)
        for rule in ("natural", "regular"):
            for method in ("auto", "hmm"):
                out = queries.run_query(net, Query(f, net.cylinder(x), rule,
                                                   method, 1e-10))
                assert (out["kind"], out["upper_kind"]) == \
                    ("unique-root", "unique-root")
                assert out["lower"] == pytest.approx(lower, abs=1e-9)
                assert out["upper"] == pytest.approx(upper, abs=1e-9)

    def test_scaling_is_exact(self, rng):
        # powers of two move no bit: the unscaled oracle, to the bit
        net, states, obs = random_hmm_net(rng, 12, order=2)
        f = random_factor(rng, net, [states[-1]])
        x = {o: str(rng.integers(0, 2)) for o in obs}
        rho = hmm_rho(net, x, [f])
        assert rho([0], [0.0])[3][0] < 0
        assert_hmm_matches_reference(net, f, x)

    def test_below_the_float_range(self, rng):
        # P of 1200 observations is below the least float; scaled, P is
        # in [1/2, 1) and rho(min f - 1) at least P
        net, states, obs = random_hmm_net(rng, 1200)
        f = random_factor(rng, net, [states[-1]])
        x = {o: str(rng.integers(0, 2)) for o in obs}
        (value,), _, (prob,), (scale,) = hmm_rho(net, x, [f])(
            [0], [f.min() - 1.0])
        assert 0.5 <= prob < 1.0 and value >= prob and scale < -1074


class TestChainEvidenceAtScale:
    """The evidence engine and the regular rule's gate read the planner's
    envelopes through their exponents, so that the sign tests see rho
    relative to the probability of the evidence, a product of one local
    probability per evidence node, however long the chain.  Every lower
    probability of this draw is at least 0.2, so both rules must agree."""

    @staticmethod
    def answers(net, f, evidence):
        out = {}
        for rule in ("natural", "regular"):
            out[rule] = queries.run_query(net, Query(
                f, net.cylinder(evidence), rule, "auto", TOL))
        assert {**out["regular"], "rule": "natural"} == out["natural"]
        return out["natural"]

    @pytest.mark.parametrize("n", [30, 36, 40, 60, 200, 1000])
    def test_first_node_given_the_rest(self, n):
        net = random_chain_net(np.random.default_rng(n), n, lo=0.2, hi=0.6)
        f = Factor(("1",), np.array([1.0, 0.0]))
        evidence = {str(i): "0" for i in range(2, n + 1)}
        out = self.answers(net, f, evidence)
        assert (out["kind"], out["upper_kind"]) == \
            ("unique-root", "unique-root")
        assert out["lower"] == pytest.approx(
            reference_root_conditional(net, f, evidence), abs=TOL)
        assert out["upper"] == pytest.approx(
            -reference_root_conditional(net, -f, evidence), abs=TOL)

    @pytest.mark.parametrize("n", [30, 36, 40, 60, 200, 1000])
    def test_last_node_given_all_but_its_parent(self, n):
        # the evidence lies outside K = {n - 1, n}, on the parent of K and
        # on non-descendants: the regular rule's gate decides
        net = random_chain_net(np.random.default_rng(n), n, lo=0.2, hi=0.6)
        f = Factor((str(n),), np.array([1.0, 0.0]))
        out = self.answers(net, f, {str(i): "0" for i in range(1, n - 1)})
        assert (out["kind"], out["upper_kind"]) == \
            ("local-fallback", "local-fallback")


def smoothing_query(H):
    """(1, 0) on the first state node of ``random_hmm_net(default_rng(H),
    H)`` given "0" at every observation node: the network, the gamble and
    the evidence."""
    net, states, obs = random_hmm_net(np.random.default_rng(H), H)
    f = Factor((states[0],), np.array([1.0, 0.0]))
    return net, f, {o: "0" for o in obs}


class TestSmoothing:
    """``auto`` on the first state node given every observation takes
    the sign split at the root, whose envelopes the planner peels state
    node by state node, each after its observation: the scope never
    holds more than one node, where peeling every observation first
    would hold them all."""

    @pytest.mark.parametrize("H", [10, 30, 200, 1000])
    def test_long_models_match_the_reference(self, H):
        net, f, evidence = smoothing_query(H)
        out = queries.run_query(net, Query(f, net.cylinder(evidence),
                                           "natural", "auto", 1e-12))
        assert (out["kind"], out["upper_kind"]) == \
            ("unique-root", "unique-root")
        assert out["lower"] == pytest.approx(
            reference_smoothing(net, f, evidence), abs=1e-12)
        assert out["upper"] == pytest.approx(
            -reference_smoothing(net, -f, evidence), abs=1e-12)

    @pytest.mark.parametrize("H", [1, 2, 3])
    def test_small_models_match_the_lp(self, H):
        net, f, evidence = smoothing_query(H)
        for rule in ("natural", "regular"):
            auto, exact = (queries.run_query(net, Query(
                f, net.cylinder(evidence), rule, method, 1e-10))
                for method in ("auto", "lp"))
            assert (auto["kind"], auto["upper_kind"]) == \
                (exact["kind"], exact["upper_kind"])
            for key in ("lower", "upper"):
                assert auto[key] == pytest.approx(exact[key], abs=1e-9)


class TestHmmDispatch:
    """``auto`` and ``decompose`` reach the filtering sweep through the
    structural dispatcher, with the answers of ``method=hmm``; the sweep
    declines every other shape."""

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_auto_and_decompose_equal_hmm(self, monkeypatch, order, n):
        built = []
        init = lp.GlobalPolytope.__init__
        monkeypatch.setattr(lp.GlobalPolytope, "__init__", lambda self, *a: (
            built.append(a) or init(self, *a)))
        rng = np.random.default_rng([n, order])
        kinds = set()
        for locals_of in (interval_locals, zero_bound_locals):
            dag, states, obs = hmm_dag(n, order)
            net = binary_net(dag, locals_of(dag, rng))
            nodes = list(dag.nodes)
            rng.shuffle(nodes)
            f = random_factor(rng, net, [states[-1]])
            x = {o: str(rng.integers(0, 2)) for o in obs}
            for model in (net, redeclared(net, nodes), constraint_twin(net)):
                B = model.cylinder(x)
                for rule in ("natural", "regular"):
                    hmm = hmm_outcome(model, Query(f, B, rule, "hmm", 1e-10))
                    for method in ("auto", "decompose"):
                        assert hmm_outcome(model, Query(
                            f, B, rule, method, 1e-10)) == hmm
                    kinds.add(hmm if hmm is HypothesisError else hmm["kind"])
        assert not built
        if (n, order) == (1, 1):
            # this draw's zero-bound model gives the observations zero
            # lower and positive upper probability
            assert {HypothesisError, "rightmost-root"} <= kinds

    def test_declined_shapes(self, rng, capsys, tmp_path):
        chain = random_chain_net(rng, 5)
        # a chain of three looks like a one-step model by its node count
        short = random_chain_net(rng, 3)
        dag_net = random_binary_net(rng, 5, edge_p=0.5)
        hmm, states, obs = random_hmm_net(rng, 4)
        x = {o: str(rng.integers(0, 2)) for o in obs}
        # o1 is the observation of both s1 and s2, and o2 of none: the
        # node count and the edges fit a two-step model
        shared = Dag(["s1", "s2", "s3", "o1", "o2"], [
            ("s1", "o1"), ("s2", "o1"), ("s1", "s2"), ("s2", "s3")])
        shared = binary_net(shared, interval_locals(shared, rng))
        cases = [(chain, ["1"], {"5": "0"}), (short, ["3"], {"2": "1"}),
                 (dag_net, ["5"], {"1": "0", "2": "1"}),
                 (hmm, [states[-2]], x),
                 (hmm, [states[-1]], {o: x[o] for o in obs[1:]}),
                 (shared, ["s3"], {"o1": "0", "o2": "1"})]
        for net, scope, given in cases:
            f = random_factor(rng, net, scope)
            assert conditioning.hmm_rho(net, given, [f, -f]) is None
            for rule in ("natural", "regular"):
                with pytest.raises(HypothesisError):
                    queries.run_query(net, Query(f, net.cylinder(given),
                                                 rule, "hmm", 1e-10))
        # the command line exits with the hypothesis code
        query = {"target": {"scope": ["a"], "table": {"0": 1, "1": 0}},
                 "given": {"assignment": {"c": "1"}}, "rule": "natural",
                 "method": "hmm"}
        path = tmp_path / "query.json"
        path.write_text(json.dumps(query), encoding="utf-8")
        assert cli.main(["infer", os.path.join(DATA, "chain3.json"),
                         str(path)]) == cli.EXIT_HYPOTHESIS
        capsys.readouterr()

    def test_dag_cond_shapes_declined_by_node_count(self, rng, monkeypatch):
        # a 4-8 node DAG with evidence on one node has more than the
        # 2 * 1 + 1 nodes of a one-step model: no walk of the graph
        nets = [random_binary_net(rng, n) for n in range(4, 9)]
        gambles = [random_factor(rng, net, ["1"]) for net in nets]
        for name in ("parents", "children", "topological_order"):
            monkeypatch.setattr(Dag, name, lambda *a: pytest.fail(
                "hmm_rho walked the graph"))
        for net, f in zip(nets, gambles):
            last = net.dag.nodes[-1]
            assert conditioning.hmm_rho(net, {last: "0"}, [f, -f]) is None
