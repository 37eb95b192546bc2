"""Graph edits (add_walks/remove_edges ≡ kg.add_walk/remove_edge),
vertex_stats table."""

import numpy as np

from pyrdf2vec_ray import synth
from pyrdf2vec_ray.sources.graph_edit import add_walks, from_triples, remove_edges
from pyrdf2vec_ray.state.graph_index import GraphIndex
from pyrdf2vec_ray.stats import vertex_stats
from pyrdf2vec_ray.util import to_table

IRI = synth.IRI_PREFIX


def tset(ds):
    t = to_table(ds)
    return set(zip(t["subj"].to_pylist(), t["pred"].to_pylist(), t["obj"].to_pylist()))


def test_add_and_remove_edges():
    g = from_triples(synth.GRAPH)
    g2 = add_walks(g, [(IRI + "Dean", IRI + "loves", IRI + "Alice"),
                       (IRI + "Alice", IRI + "knows", IRI + "Bob")])  # dup collapses
    s = tset(g2)
    assert (IRI + "Dean", IRI + "loves", IRI + "Alice") in s
    assert len(s) == len(synth.GRAPH) + 1

    # skip_predicates filter on add (kg.py:209)
    g3 = add_walks(g, [(IRI + "A", IRI + "skipme", IRI + "B")],
                   skip_predicates=frozenset({IRI + "skipme"}))
    assert tset(g3) == tset(g)

    g4 = remove_edges(g2, [(IRI + "Alice", IRI + "knows", IRI + "Bob")])
    s4 = tset(g4)
    assert (IRI + "Alice", IRI + "knows", IRI + "Bob") not in s4
    assert len(s4) == len(s) - 1


def test_vertex_stats_table():
    gi = GraphIndex.from_table(synth.triples_table(synth.LOOP))
    t = to_table(vertex_stats(gi)).to_pandas().set_index("name")
    assert t.loc[IRI + "Dean", "in_deg"] == 2
    assert t.loc[IRI + "Alice", "out_deg"] == 2
    assert t.loc[IRI + "knows", "pred_count"] == 3
    ent = t.loc[[IRI + n for n in ("Alice", "Bob", "Dean")]]
    assert np.isclose(ent["pagerank"].sum(), 1.0, atol=1e-4)
    assert (ent["community"] >= 0).all()
