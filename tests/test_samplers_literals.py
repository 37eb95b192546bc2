"""Sampler fitted-state golds (tests/samplers/test_frequency.py:83-101,
test_uniform.py:56-59, test_pagerank.py:76-84) and literal goldens
(tests/test_graph.py:69-119), recomputed on the Ray-native state."""

import numpy as np
import pytest

from pyrdf2vec_ray import synth
from pyrdf2vec_ray.literals import cast_literals, get_literals, pliterals
from pyrdf2vec_ray.samplers import NameFittedSampler, SamplerSpec, pagerank_scores
from pyrdf2vec_ray.state.graph_index import GraphIndex

IRI = synth.IRI_PREFIX


@pytest.fixture(scope="module")
def graphs(sharded_index):
    return (
        sharded_index(synth.LOOP),
        sharded_index(synth.LONG_CHAIN),
        sharded_index(synth.GRAPH),
    )


def csr(triples):
    """One whole-graph CSR: vertex inventory and PageRank reference."""
    return GraphIndex.from_table(synth.triples_table(triples)).local()


def hops_of(gi, name, reverse=False):
    preds, others = gi.local().get_hops(name, reverse)
    return set(zip(preds.tolist(), others.tolist()))


def fit(kind, gi, **kw):
    return NameFittedSampler.fit(SamplerSpec(kind=kind, **kw), gi)


def test_hops_forward_reverse(graphs):
    loop, _, _ = graphs
    assert hops_of(loop, IRI + "Alice") == {
        (IRI + "knows", IRI + "Bob"),
        (IRI + "knows", IRI + "Dean"),
    }
    assert hops_of(loop, IRI + "Alice", reverse=True) == {
        (IRI + "loves", IRI + "Dean"),
    }


def test_objfreq_counts(graphs):
    loop, _, _ = graphs
    # entries = # entity vertices (frequency.py:46-81 fits every non-pred vertex)
    assert int(csr(synth.LOOP).a.is_entity.sum()) == 3
    assert int(csr(synth.LONG_CHAIN).a.is_entity.sum()) == 9
    fs = fit("objfreq", loop)
    # in-degrees: Alice 1 (loves), Bob 1, Dean 2
    d = dict(zip(fs.node_keys.tolist(), fs.node_w.tolist()))
    assert d[IRI + "Alice"] == 1 and d[IRI + "Bob"] == 1 and d[IRI + "Dean"] == 2


def test_predfreq_counts(graphs):
    loop, _, _ = graphs
    fs = fit("predfreq", loop)
    d = dict(zip(fs.pred_keys.tolist(), fs.pred_w.tolist()))
    assert d[IRI + "knows"] == 3 and d[IRI + "loves"] == 1
    # distinct predicate names: LOOP 2, LONG_CHAIN 1
    assert int(csr(synth.LOOP).a.is_pred.sum()) == 2
    assert int(csr(synth.LONG_CHAIN).a.is_pred.sum()) == 1


def test_objpredfreq_counts(graphs):
    loop, chain, _ = graphs
    fs_l = fit("objpredfreq", loop)
    fs_c = fit("objpredfreq", chain)
    assert len(fs_l.pair_keys) == 3   # (knows,Bob),(knows,Dean),(loves,Alice)
    assert len(fs_c.pair_keys) == 8


def test_uniform_weights(graphs):
    loop, _, _ = graphs
    fs = fit("uniform", loop)
    keep, p = fs.hop_probabilities([IRI + "knows"] * 2, [IRI + "Bob", IRI + "Dean"])
    assert keep.tolist() == [0, 1] and (p == 0.5).all()


def test_pagerank_bounds():
    loop = csr(synth.LOOP)
    alpha = 0.85
    pr = pagerank_scores(loop, alpha=alpha)
    ent = pr[loop.a.is_entity]
    assert np.isclose(ent.sum(), 1.0, atol=1e-4)
    assert (ent <= alpha).all() and (ent > 0).all()


def test_normalized_probabilities(graphs):
    loop, _, _ = graphs
    preds, objs = loop.local().get_hops(IRI + "Alice")
    for kind in ("uniform", "objfreq", "predfreq", "objpredfreq", "pagerank", "wide"):
        for inverse in (False, True):
            fs = fit(kind, loop, inverse=inverse)
            keep, p = fs.hop_probabilities(preds, objs)
            assert np.isclose(p.sum(), 1.0)
            assert (p <= 1.0 + 1e-12).all()


def test_cast_literals_goldens():
    assert np.isnan(cast_literals([[]])[0])
    out = cast_literals([[], []])
    assert len(out) == 2 and all(np.isnan(v) for v in out)
    assert cast_literals([[IRI + "Bob"]]) == [IRI + "Bob"]
    assert cast_literals([[IRI + "Bob", IRI + "Dean"]]) == [(IRI + "Bob", IRI + "Dean")]
    assert cast_literals([["0.42"]]) == [0.42]
    assert cast_literals([["0.42", "0.37"]]) == [(0.42, 0.37)]


def test_pliterals_chain(graphs):
    graph = graphs[2].local()
    chain = [IRI + "knows"]
    assert set(pliterals(graph, IRI + "Alice", chain)) == {IRI + "Bob", IRI + "Dean"}
    assert pliterals(graph, IRI + "Bob", chain) == [IRI + "Casper"]
    assert pliterals(graph, IRI + "Dean", chain) == []
    # depth-2 chain: Alice -knows-> {Bob,Dean} -knows-> {Casper}
    assert pliterals(graph, IRI + "Alice", [IRI + "knows", IRI + "knows"]) == [
        IRI + "Casper"
    ]


def test_get_literals_matrix(graphs):
    gi = graphs[2]
    res = get_literals(
        gi,
        [IRI + "Alice", IRI + "Bob", IRI + "Dean"],
        [[IRI + "knows"]],
    )
    assert res[0] == [(IRI + "Bob", IRI + "Dean")] or res[0] == [
        (IRI + "Dean", IRI + "Bob")
    ]
    assert res[1] == [IRI + "Casper"]
    assert len(res[2]) == 1 and np.isnan(res[2][0])


def test_personalized_pagerank_core():
    import numpy as np

    from pyrdf2vec_ray.samplers import _pagerank_from_pairs

    # triangle 0->1->2->0 plus pendant 2->3 (3 dangling)
    src = np.array([0, 1, 2, 2], dtype=np.int64)
    dst = np.array([1, 2, 0, 3], dtype=np.int64)
    ent = np.ones(4, dtype=bool)

    # personalization=None is bit-identical to the pre-parameter path
    base = _pagerank_from_pairs(src, dst, ent, 4, max_iter=50)
    unif = _pagerank_from_pairs(src, dst, ent, 4, max_iter=50,
                                personalization=np.full(4, 0.25))
    assert (base == unif).all()

    # seed mass on node 0 only: scores sum to 1 and concentrate on the
    # seed's forward orbit (0 -> 1 -> 2), not the pendant
    p = np.array([1.0, 0, 0, 0])
    ppr = _pagerank_from_pairs(src, dst, ent, 4, max_iter=100,
                               personalization=p)
    assert abs(ppr.sum() - 1.0) < 1e-9
    assert ppr[0] > ppr[3] and ppr[1] > ppr[3]

    import pytest

    with pytest.raises(ValueError):
        _pagerank_from_pairs(src, dst, ent, 4,
                             personalization=np.array([1.0, 0.0]))
