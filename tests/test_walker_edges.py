"""Edge behaviors: NGram wildcards, reference-faithful per-call RNG,
with_reverse walklets, split with_reverse, canonical function units."""

from pyrdf2vec_ray import synth
from pyrdf2vec_ray.functions import canon
from pyrdf2vec_ray.util import to_table
from pyrdf2vec_ray.walkers import WalkerSpec, extract_walks

IRI = synth.IRI_PREFIX
ENTITIES = [IRI + n for n in ["Alice", "Bob", "Dean"]]


def run(gi, spec, entities=ENTITIES):
    t = to_table(extract_walks(gi, entities, spec, concurrency=1, batch_size=8))
    out = {}
    for e, walks in zip(t["entity"].to_pylist(), t["walks"].to_pylist()):
        out.setdefault(e, []).extend(tuple(w) for w in walks)
    return out


def test_ngram_wildcards_add_variants(sharded_index):
    gi = sharded_index(synth.LOOP)
    base = WalkerSpec(strategy="ngram", max_depth=2, grams=2)
    wild = WalkerSpec(strategy="ngram", max_depth=2, grams=2, wildcards=(1,))
    nb = run(gi, base)
    nw = run(gi, wild)
    for e in nb:
        assert len(nw[e]) > len(nb[e])      # wildcard substitutions add walks
        # wildcard token "*" appears in some variant
        assert any("*" in tok for w in nw[e] for tok in w)


def test_per_call_seed_mode_faithful(sharded_index):
    # per_call: RandomState(seed) reconstructed at every hop
    # (sampler.py:173-176) → the same raw draw sequence restarts each hop
    gi = sharded_index(synth.LONG_CHAIN)
    spec = WalkerSpec(
        strategy="random", max_depth=3, max_walks=4, random_state=3,
        seed_mode="per_call", md5_bytes=None,
    )
    a = run(gi, spec)
    b = run(gi, spec)
    assert a == b
    # all 4 DFS slots follow identical draws until visited-set pruning
    # diverges them — at minimum determinism across runs holds


def test_walklet_with_reverse_orientation(sharded_index):
    gi = sharded_index(synth.LOOP)
    spec = WalkerSpec(strategy="walklet", max_depth=1, max_walks=None,
                      with_reverse=True)
    out = run(gi, spec)
    for entity, walks in out.items():
        for w in walks:
            assert len(w) in (1, 2)
            if len(w) == 2:
                assert w[1] == entity       # (v_i, root) when with_reverse


def test_split_walk_examples():
    # split.py docstring examples
    walk = ["http://dl-learner.org/carcinogenesis#d19",
            "http://dl-learner.org/carcinogenesis#hasBond",
            "http://dl-learner.org/carcinogenesis#bond3209"]
    assert canon.split_walk(walk, with_reverse=False) == (
        "has", "bond", "3209")
    walk2 = ["http://dl-learner.org/carcinogenesis#d19",
             "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
             "http://dl-learner.org/carcinogenesis#Compound"]
    assert canon.split_walk(walk2, with_reverse=False) == ("type", "compound")
    # numeric object normalization: "42" → "42.0"
    walk3 = ["root", "http://x#pred", "42"]
    assert canon.split_walk(walk3, with_reverse=False) == ("pred", "42.0")


def test_anonymous_first_occurrence_index():
    walk = ["R", "p", "B", "p", "B"]
    # B's first occurrence index is 2; p is at 1
    assert canon.map_anonymous(walk, "R") == ("R", "1", "2", "1", "2")


def test_halk_rebuild_quirk_reproduced():
    # the reference's non-reverse obj-index arithmetic re-reads walk[4] for
    # the 3rd hop (halk.py:163); our port must reproduce it
    walk = ("E", "p1", "o1", "p2", "o2", "p3", "o3")
    out = canon.halk_rebuild([walk], rare_predicates=set(), with_reverse=False)
    # i sequence: 2('p1'),3('p2'),4('p3') → objs walk[2], walk[4], walk[4]
    assert out == [("E", "p1", "o1", "p2", "o2", "p3", "o2")]


def test_func_split_user_hook(sharded_index):
    gi = sharded_index(synth.LOOP)

    def my_split(walk, with_reverse):
        return tuple(tok.rsplit("#", 1)[-1].upper() for tok in walk)

    spec = WalkerSpec(strategy="split", max_depth=1, func_split=my_split)
    out = run(gi, spec, [IRI + "Alice"])
    for w in out[IRI + "Alice"]:
        assert all(tok == tok.upper() for tok in w)
        assert w[0] == "ALICE"
