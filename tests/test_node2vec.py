"""node2vec plugin walker: determinism, path validity, and the p/q
limit behaviors from Grover & Leskovec 2016, run through the open
walker surface on a hand-built graph."""
from __future__ import annotations

import pytest

from pyrdf2vec_ray import synth
from pyrdf2vec_ray.functions.node2vec import register_node2vec
from pyrdf2vec_ray.util import to_table
from pyrdf2vec_ray.walkers import WalkerSpec, extract_walks

# star-with-spokes: hub H points to A, B, C; each spoke points back to H
# and onward to its own leaf — so from a spoke the choice is return-to-H
# (distance 0 from prev) vs leaf (distance 2): exactly the p-vs-q knob.
TRIPLES = (
    [("H", "to", s) for s in ("A", "B", "C")]
    + [(s, "back", "H") for s in ("A", "B", "C")]
    + [(s, "to", s + "leaf") for s in ("A", "B", "C")]
)


@pytest.fixture(scope="module")
def gi(sharded_index):
    return sharded_index([(synth.IRI_PREFIX + a, p, synth.IRI_PREFIX + b)
                          for a, p, b in TRIPLES])


def _walks(gi, name, entities):
    spec = WalkerSpec(strategy=name, max_depth=4, md5_bytes=None)
    t = to_table(extract_walks(gi, entities, spec, concurrency=1,
                               batch_size=8))
    out = {}
    for e, walks in zip(t["entity"].to_pylist(), t["walks"].to_pylist()):
        out.setdefault(e, []).extend(tuple(w) for w in walks)
    return out


def test_node2vec_deterministic_and_valid(gi):
    adj = {}
    for a, p, b in TRIPLES:
        adj.setdefault(synth.IRI_PREFIX + a, set()).add(
            (p, synth.IRI_PREFIX + b))
    name = register_node2vec("n2v_t1", p=1.0, q=1.0, n_walks=8,
                             depth=3, seed=3)
    root = synth.IRI_PREFIX + "H"
    got1 = _walks(gi, name, [root])[root]
    got2 = _walks(gi, name, [root])[root]
    assert got1 == got2  # deterministic incl. ordering contract
    for w in got1:
        assert w[0] == root
        for i in range(0, len(w) - 2, 2):
            assert (w[i + 1], w[i + 2]) in adj[w[i]]  # every hop is a real edge


def test_node2vec_high_q_backtracks_low_q_explores(gi):
    root = synth.IRI_PREFIX + "H"
    leafs = {synth.IRI_PREFIX + s + "leaf" for s in ("A", "B", "C")}

    # q huge: outward (distance-2) moves get weight ~0 → after H→spoke
    # the walk returns to H rather than reaching a leaf
    back = register_node2vec("n2v_back", p=1.0, q=1e9, n_walks=8,
                             depth=4, seed=5)
    w_back = _walks(gi, back, [root])[root]
    assert not any(set(w) & leafs for w in w_back)

    # q tiny: outward moves dominate → every walk reaches a leaf
    out = register_node2vec("n2v_out", p=1e9, q=1e-9, n_walks=8,
                            depth=4, seed=5)
    w_out = _walks(gi, out, [root])[root]
    assert all(set(w) & leafs for w in w_out)


def test_metapath_exhaustive_enumeration(gi):
    from pyrdf2vec_ray.functions.node2vec import register_metapath

    root = synth.IRI_PREFIX + "H"
    # pattern ["to", "to"]: H -to-> spoke -to-> leaf; the spokes' "back"
    # edges must NOT be followed
    name = register_metapath("mp_t1", ["to", "to"])
    got = _walks(gi, name, [root])[root]
    exp = {(root, "to", synth.IRI_PREFIX + s, "to",
            synth.IRI_PREFIX + s + "leaf") for s in ("A", "B", "C")}
    assert set(got) == exp

    # a pattern with no match falls back to the bare root (dead-end
    # retention convention)
    none = register_metapath("mp_t2", ["nope"])
    got2 = _walks(gi, none, [root])[root]
    assert got2 == [(root,)]
