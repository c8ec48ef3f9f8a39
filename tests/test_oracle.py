"""The complete-extension oracle: the minimum over every Bayesian network
that picks one extreme point of each local set."""

import os

import pytest

from credalnet import fileio, lp, oracle

from helpers import (binary_net, constraint_twin, precise_locals,
                     random_binary_net, random_dag, random_factor)

DATA = os.path.join(os.path.dirname(__file__), "data")


def test_singleton_sets_give_the_lp_value(rng):
    # one selection, the Bayesian network, whose joint is the program's
    # only point
    for n in (2, 3, 4):
        dag = random_dag(rng, n, 0.5)
        net = binary_net(dag, precise_locals(dag, rng))
        f = random_factor(rng, net, net.dag.nodes)
        assert oracle.complete_extension_lower(net, f) == pytest.approx(
            lp.lower_expectation_lp(net, f), abs=1e-9)


def test_never_below_the_lp_lower_bound(rng):
    checked = 0
    while checked < 8:
        net = random_binary_net(rng, int(rng.integers(3, 5)), 0.4)
        if oracle._vertex_tables(net)[2] > 2 ** 10:
            continue
        for _ in range(3):
            f = random_factor(rng, net, net.dag.nodes)
            lower = lp.lower_expectation_lp(net, f)
            assert oracle.complete_extension_lower(net, f) >= lower - 1e-9
            assert oracle.complete_extension_upper(net, f) <= \
                -lp.lower_expectation_lp(net, -f) + 1e-9
        checked += 1


@pytest.mark.parametrize("name", ["chain3.json", "hmm3.json"])
def test_constraint_twin_gives_the_same_value(rng, name):
    # the twin gives every non-singleton set by its constraints, whose
    # vertices the oracle enumerates
    net = fileio.load_network(os.path.join(DATA, name))
    twin = constraint_twin(net)
    assert sum(m._V is None for m in twin.locals.values()) > \
        sum(m._V is None for m in net.locals.values())
    for _ in range(3):
        f = random_factor(rng, net, net.dag.nodes)
        assert oracle.complete_extension_lower(twin, f) == pytest.approx(
            oracle.complete_extension_lower(net, f), abs=1e-9)

