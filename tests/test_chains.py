"""Linear-time recursions: chains, hidden-state models, complete evidence."""

import numpy as np
import pytest

from credalnet import chains, conditioning, lp, oracle
from credalnet.chains import (TransferOperator, chain_forward, chain_order,
                              chain_reverse_rho, complete_evidence_lower,
                              hmm_forward_rho, infer_hmm_spec)
from credalnet.credal import CredalSet, binary_interval, singleton
from credalnet.decompose import iterated_lower_expectation, lower_expectation
from credalnet.errors import HypothesisError
from credalnet.graph import Dag
from credalnet.network import Factor, sub_network

from helpers import (bayes_joint, binary_net, chain_dag, interval_locals,
                     precise_locals, random_binary_net, random_chain_net,
                     random_factor, random_hmm_net)

TOL = 1e-9


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
    def test_single_node(self, rng):
        dag = Dag(["1"], [])
        net = binary_net(dag, interval_locals(dag, rng))
        h = random_factor(rng, net, ["1"])
        assert chain_forward(net, h) == pytest.approx(
            net.local("1", ()).lower_expectation(h.values), abs=TOL)

    def test_matches_lp(self, rng):
        for _ in range(4):
            net = random_chain_net(rng, 3)
            h = random_factor(rng, net, ["3"])
            assert chain_forward(net, h) == pytest.approx(
                lp.lower_expectation_lp(net, h), abs=1e-7)

    def test_precise_chain_is_matrix_product(self, rng):
        dag = chain_dag(4)
        net = binary_net(dag, precise_locals(dag, rng))
        h = random_factor(rng, net, ["4"])
        joint = bayes_joint(net)
        fv = lp.factor_vector(net, h)
        assert chain_forward(net, h) == pytest.approx(
            float(joint @ fv), abs=1e-9)

    def test_bit_equal_to_iterated_peeling(self, rng):
        for _ in range(3):
            net = random_chain_net(rng, 5)
            h = random_factor(rng, net, ["5"])
            assert chain_forward(net, h) == lower_expectation(net, h)
            assert chain_forward(net, h) == \
                iterated_lower_expectation(net, {"5"}, h)


class TestChainReverseRho:
    def test_kink_continuity(self, rng):
        # at mu exactly equal to a gamble value both branches give zero
        net = random_chain_net(rng, 3)
        h = net.factor_from_values(["1"], [1.0, 0.0])
        left = chain_reverse_rho(net, h, "0", 1.0 - 1e-12)
        right = chain_reverse_rho(net, h, "0", 1.0 + 1e-12)
        at = chain_reverse_rho(net, h, "0", 1.0)
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
                assert chain_reverse_rho(net, h, x_n, mu) == pytest.approx(
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
        fn = lambda mu: chain_reverse_rho(net, h, "0", mu)
        ev = conditioning.rho_callable(fn, h.min(), h.max(), h.min())
        res = conditioning.natural_conditional(ev, tolerance=1e-10)
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
            fn = lambda mu: chain_reverse_rho(net, h, x_n, mu)
            ev = conditioning.rho_callable(fn, h.min(), h.max(), h.min())
            res = conditioning.regular_conditional(ev, tolerance=1e-10)
            assert res.value == pytest.approx(expect, abs=1e-6)
            hits += 1
        assert hits >= 3


class TestHmm:
    def test_spec_inference(self, rng):
        net, states, obs = random_hmm_net(rng, 3)
        spec = infer_hmm_spec(net, obs)
        assert spec.state_nodes == states
        assert spec.obs_nodes == obs
        assert spec.order == 1
        net2, states2, obs2 = random_hmm_net(rng, 3, order=2)
        assert infer_hmm_spec(net2, obs2).order == 2

    def test_lower_and_upper_observation_probability(self, rng):
        net, states, obs = random_hmm_net(rng, 2)
        spec = infer_hmm_spec(net, obs)
        x = {o: str(rng.integers(0, 2)) for o in obs}
        low = hmm_forward_rho(spec, Factor.constant(1.0), x, 0.0)
        high = -hmm_forward_rho(spec, Factor.constant(-1.0), x, 0.0)
        ind = net.indicator(net.cylinder(x))
        assert low == pytest.approx(
            lp.lower_expectation_lp(net, ind), abs=1e-7)
        assert high == pytest.approx(
            -lp.lower_expectation_lp(net, -ind), abs=1e-7)

    @pytest.mark.parametrize("order", [1, 2])
    def test_rho_matches_lp(self, rng, order):
        net, states, obs = random_hmm_net(rng, 2, order=order)
        spec = infer_hmm_spec(net, obs)
        f = random_factor(rng, net, [states[-1]])
        x = {o: str(rng.integers(0, 2)) for o in obs}
        ind = net.indicator(net.cylinder(x))
        for mu in (-0.4, 0.2, 0.9):
            scope = net.dag.sorted_nodes(set(obs) | {states[-1]})
            assembled = Factor(scope, net.aligned(ind, scope) * (
                net.aligned(f, scope) - mu))
            assert hmm_forward_rho(spec, f, x, mu) == pytest.approx(
                lp.lower_expectation_lp(net, assembled), abs=1e-7)

    def test_filtering_query(self, rng):
        # natural-rule filtering against direct LP bracketing
        net, states, obs = random_hmm_net(rng, 2, lo=0.2, hi=0.8)
        spec = infer_hmm_spec(net, obs)
        f = random_factor(rng, net, [states[-1]])
        x = {o: "0" for o in obs}
        fn = lambda mu: hmm_forward_rho(spec, f, x, mu)
        ev = conditioning.rho_callable(fn, f.min(), f.max(), f.min())
        res = conditioning.natural_conditional(ev, tolerance=1e-10)
        direct = conditioning.natural_conditional(
            conditioning.rho_evaluator(net, f, net.cylinder(x), method="lp"),
            tolerance=1e-10)
        assert res.value == pytest.approx(direct.value, abs=1e-6)


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
            assert complete_evidence_lower(net, q, x_E, f, rule) == \
                pytest.approx(expect, abs=TOL)

    def test_constant_gamble(self, rng):
        net = random_chain_net(rng, 3)
        x_E = {"2": "0", "3": "1"}
        f = net.factor_from_values(["1"], [0.8, 0.8])
        for rule in ("natural", "regular"):
            assert complete_evidence_lower(net, "1", x_E, f, rule) == \
                pytest.approx(0.8, abs=1e-8)

    def test_diamond_against_oracle(self, rng):
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
                got = complete_evidence_lower(net, "1", x_E, f, rule,
                                              tolerance=1e-10)
                assert got == pytest.approx(expect, abs=1e-6)
                hits += 1
        assert hits >= 4

    def test_interior_node_against_bracketing(self, rng):
        for _ in range(3):
            net = random_chain_net(rng, 3, lo=0.2, hi=0.8)
            f = random_factor(rng, net, ["2"])
            x_E = {"1": "0", "3": "1"}
            got = complete_evidence_lower(net, "2", x_E, f, "natural",
                                          tolerance=1e-10)
            ev = conditioning.rho_evaluator(net, f, net.cylinder(x_E),
                                            method="lp")
            expect = conditioning.natural_conditional(ev, tolerance=1e-10)
            assert got == pytest.approx(expect.value, abs=1e-6)
