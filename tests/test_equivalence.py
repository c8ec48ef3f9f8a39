"""Local sets hold the same numbers as when each vertex was a
``MassFunction``: the digests below were recorded with that
representation, over the dumped document, every set's vertex array,
homogeneous rows and kept member, and every node's vertex stack."""

import hashlib
import json
import os
from itertools import product

import numpy as np
import pytest

from credalnet import fileio
from credalnet.credal import CredalSet, binary_interval, vacuous
from credalnet.graph import Dag
from credalnet.network import CredalNetwork

from helpers import constraint_twin, random_binary_net, random_hmm_net

DATA = os.path.join(os.path.dirname(__file__), "data")


def data_net(name):
    return fileio.load_network(os.path.join(DATA, name))


def mixed_net(seed):
    """a -> c <- b; the local sets of c have 1, 2 and 3 vertices in turn,
    so its stack pads, and the 3-vertex sets take the facet route."""
    rng = np.random.default_rng(seed)
    dag = Dag(["a", "b", "c"], [("a", "c"), ("b", "c")])
    spaces = {"a": ("0", "1"), "b": ("x", "y", "z"), "c": ("p", "q", "r")}
    locals_ = {("a", ()): binary_interval(("0", "1"), 0.2, 0.8),
               ("b", ()): vacuous(("x", "y", "z"))}
    for i, cfg in enumerate(product(spaces["a"], spaces["b"])):
        locals_[("c", cfg)] = CredalSet(spaces["c"], vertices=rng.dirichlet(
            [2.0] * 3, size=1 + i % 3))
    return CredalNetwork(dag, spaces, locals_)


NETWORKS = {
    "two_coins": lambda: data_net("two_coins.json"),
    "chain3": lambda: data_net("chain3.json"),
    "hmm3": lambda: data_net("hmm3.json"),
    "binary-n6-s1": lambda: random_binary_net(np.random.default_rng(1), 6),
    "binary-n8-s2": lambda: random_binary_net(np.random.default_rng(2), 8,
                                              0.5),
    "hmm-h5-s3": lambda: random_hmm_net(np.random.default_rng(3), 5)[0],
    "hmm2-h4-s4": lambda: random_hmm_net(np.random.default_rng(4), 4, 2)[0],
    "twin-n4-s5": lambda: constraint_twin(
        random_binary_net(np.random.default_rng(5), 4)),
    "mixed-s6": lambda: mixed_net(6),
}

#: fingerprint() of each network, recorded while every vertex was built
#: as a MassFunction
RECORDED = {
    "binary-n6-s1": "6b7ea3e7314028b4",
    "binary-n8-s2": "e241097b799c9a1e",
    "chain3": "c80d173bfdb1661d",
    "hmm-h5-s3": "4b48ca65363b2451",
    "hmm2-h4-s4": "e9ea52059747acb1",
    "hmm3": "d0a90da0e7eca007",
    "mixed-s6": "12f4eb29437a11b5",
    "twin-n4-s5": "ae2c0af745254db7",
    "two_coins": "996fa64f6ec7d188",
}


def fingerprint(net: CredalNetwork) -> str:
    h = hashlib.sha256(fileio.dump_network(net).encode())
    for s in net.dag.nodes:
        given = False
        for cfg in net.parent_configs(s):
            m = net.local(s, cfg)
            given |= m.constraints is not None
            for a in (m._V, m._H, m.member):
                h.update(b"none" if a is None else
                         repr(a.shape).encode() + a.astype(float).tobytes())
        # a node with a set given by constraints held its sets, not a
        # stack, when the digests were recorded; its stack is checked by
        # test_enumerated_rows_are_vertices
        if not given:
            stack = net.local_stack(s)
            h.update(repr(stack.shape).encode() + stack.tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_same_bits_as_recorded(name):
    net = NETWORKS[name]()
    reloaded = fileio.load_network_document(
        json.loads(fileio.dump_network(net)))
    assert fingerprint(net) == fingerprint(reloaded) == RECORDED[name]


def is_vertex(m: CredalSet, v: np.ndarray, tol: float = 1e-9) -> bool:
    """Whether ``v`` is a vertex of ``m``: a member at which the tight
    rows of ``m``, the tight bounds ``p >= 0`` and ``sum p = 1`` have full
    rank."""
    tight = np.vstack([m._H[np.abs(m._H @ v) <= tol],
                       np.eye(len(v))[v <= tol], np.ones(len(v))])
    return m.contains(v) and np.linalg.matrix_rank(tight, tol) == len(v)


@pytest.mark.parametrize("name", ["chain3", "hmm3", "twin-n4-s5"])
def test_enumerated_rows_are_vertices(name, rng):
    # a set given by constraints has the rows of its vertices in its
    # node's stack, its kept member first, and they span the set
    net, given = NETWORKS[name](), 0
    for s in net.dag.nodes:
        stack = net.local_stack(s)
        for cfg, V in zip(net.parent_configs(s),
                          stack.reshape(-1, *stack.shape[-2:])):
            m = net.local(s, cfg)
            if m.constraints is None:
                continue
            given += 1
            assert V[0].tobytes() == m.member.tobytes()
            assert all(is_vertex(m, v) for v in V)
            for f in rng.normal(size=(8, net.size(s))):
                assert (V @ f).min() == pytest.approx(
                    m.lower_expectation(f), abs=1e-12)
    assert given


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_tuple_views_match_the_arrays(name):
    for m in NETWORKS[name]().locals.values():
        if m._V is None:
            assert m.vertices is None
        else:
            assert [list(v.probs) for v in m.vertices] == m._V.tolist()
            assert all(v.states == m.states for v in m.vertices)
