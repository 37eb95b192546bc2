"""Walker invariant sweeps on LOOP / LONG_CHAIN, mirroring the reference
suite (tests/walkers/*, SURVEY.md §5), plus exact BFS set checks."""

import pytest

from pyrdf2vec_ray import synth
from pyrdf2vec_ray.samplers import SamplerSpec
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


@pytest.fixture(scope="module")
def graphs(sharded_index):
    return sharded_index(synth.LOOP), sharded_index(synth.LONG_CHAIN)


def test_bfs_exact_sets(graphs):
    gi_loop, _ = graphs
    spec = WalkerSpec(strategy="random", max_depth=2, max_walks=None, md5_bytes=None)
    walks = run(gi_loop, spec, [IRI + "Alice"])[IRI + "Alice"]
    assert set(walks) == {
        (IRI + "Alice", IRI + "knows", IRI + "Bob", IRI + "knows", IRI + "Dean"),
        (IRI + "Alice", IRI + "knows", IRI + "Dean", IRI + "loves", IRI + "Alice"),
    }


def test_bfs_dead_end_retention(graphs):
    _, gi_chain = graphs
    # Julio is a sink: depth-2 BFS from Emma keeps the short walk ending at
    # Julio (dead ends survive, random.py:77-80)
    spec = WalkerSpec(strategy="random", max_depth=3, max_walks=None, md5_bytes=None)
    walks = run(gi_chain, spec, [IRI + "Emma"])[IRI + "Emma"]
    assert set(walks) == {(IRI + "Emma", IRI + "knows", IRI + "Julio")}


@pytest.mark.parametrize("depth", [0, 1, 2, 4, 6, 8, 14])
@pytest.mark.parametrize("max_walks", [None, 1, 3, 5])
def test_walk_shape_invariants(graphs, depth, max_walks):
    gi_loop, gi_chain = graphs
    for gi in (gi_loop, gi_chain):
        spec = WalkerSpec(
            strategy="random", max_depth=depth, max_walks=max_walks, random_state=7
        )
        for entity, walks in run(gi, spec).items():
            assert len(walks) > 0
            if max_walks is not None:
                assert len(walks) <= max_walks
            for walk in walks:
                assert len(walk) <= 2 * depth + 1
                assert walk[0] == entity
                # md5_bytes=8: hashed non-entity objects repr as bytes
                for i, tok in enumerate(walk):
                    if i % 2 == 0 and tok not in ENTITIES:
                        assert tok.startswith("b'")


@pytest.mark.parametrize("max_walks", [None, 3])
def test_with_reverse_shapes(graphs, max_walks):
    gi_loop, _ = graphs
    spec = WalkerSpec(
        strategy="random", max_depth=2, max_walks=max_walks,
        with_reverse=True, md5_bytes=None, random_state=7,
    )
    for entity, walks in run(gi_loop, spec).items():
        if max_walks is not None:
            assert 0 < len(walks) <= max_walks**2
        for walk in walks:
            assert len(walk) <= 4 * 2 + 1
            assert entity in walk  # root centered, not necessarily first


def test_dfs_deterministic_across_batching(graphs):
    gi_loop, _ = graphs
    spec = WalkerSpec(strategy="random", max_depth=3, max_walks=4, random_state=11)
    a = run(gi_loop, spec)
    b_t = to_table(extract_walks(gi_loop, ENTITIES, spec, concurrency=2, batch_size=1))
    b = {}
    for e, walks in zip(b_t["entity"].to_pylist(), b_t["walks"].to_pylist()):
        b.setdefault(e, []).extend(tuple(w) for w in walks)
    assert {k: sorted(v) for k, v in a.items()} == {k: sorted(v) for k, v in b.items()}


def test_anonymous_tokens_numeric(graphs):
    gi_loop, _ = graphs
    spec = WalkerSpec(strategy="anonymous", max_depth=2, max_walks=None)
    for entity, walks in run(gi_loop, spec).items():
        for walk in walks:
            assert walk[0] == entity
            for tok in walk[1:]:
                if tok != entity:
                    assert tok.isnumeric()


def test_walklets_length(graphs):
    gi_loop, _ = graphs
    spec = WalkerSpec(strategy="walklet", max_depth=2, max_walks=None)
    for entity, walks in run(gi_loop, spec).items():
        for walk in walks:
            assert len(walk) in (1, 2)
            assert walk[0] == entity


def test_split_lowercase_tokens(graphs):
    gi_loop, _ = graphs
    spec = WalkerSpec(strategy="split", max_depth=2, max_walks=None)
    for entity, walks in run(gi_loop, spec).items():
        for walk in walks:
            for tok in walk:
                assert tok == tok.lower()
        # tokens are bare fragments: "knows", "bob", ...
        flat = {t for w in walks for t in w}
        assert "knows" in flat


def test_wl_walk_count_bound(graphs):
    gi_loop, _ = graphs
    d = 2
    base = WalkerSpec(strategy="random", max_depth=d, max_walks=None)
    wl = WalkerSpec(strategy="wl", max_depth=d, max_walks=None, wl_iterations=2)
    nb = run(gi_loop, base)
    nw = run(gi_loop, wl)
    for e in nb:
        assert len(nb[e]) <= len(nw[e]) <= 3 * len(nb[e])


def test_ngram_relabeling(graphs):
    gi_loop, _ = graphs
    spec = WalkerSpec(strategy="ngram", max_depth=2, max_walks=None, grams=3)
    for entity, walks in run(gi_loop, spec).items():
        for walk in walks:
            assert walk[0] == entity
            # positions >= grams at even idx are small integer ids
            for i, tok in enumerate(walk):
                if i != 0 and i % 2 == 0 and i >= 3:
                    assert tok.isnumeric()


def test_halk_thresholds(graphs):
    gi_loop, _ = graphs
    spec = WalkerSpec(
        strategy="halk", max_depth=2, max_walks=None,
        freq_thresholds=(0.001, 1.1), md5_bytes=None,
    )
    t = to_table(extract_walks(gi_loop, ENTITIES, spec, concurrency=1, batch_size=8))
    by_th = {}
    for th, e, walks in zip(
        t["threshold"].to_pylist(), t["entity"].to_pylist(), t["walks"].to_pylist()
    ):
        by_th.setdefault(th, {})[e] = walks
    # threshold 0.001: nothing is rare → walks survive with all hops
    assert all(len(w) > 0 for w in by_th[0.001].values())
    # threshold 1.1: every predicate is rare → every entity collapses to root
    for e, walks in by_th[1.1].items():
        assert walks == [[e]]


def test_community_walker_shapes(graphs):
    gi_loop, _ = graphs
    spec = WalkerSpec(
        strategy="community", max_depth=2, max_walks=None, random_state=5,
        md5_bytes=None,
    )
    for entity, walks in run(gi_loop, spec).items():
        assert len(walks) > 0
        for walk in walks:
            assert walk[0] == entity
            assert len(walk) <= 2 * 2 + 1


def test_samplers_all_kinds_run(graphs):
    gi_loop, gi_chain = graphs
    for kind in ("uniform", "objfreq", "predfreq", "objpredfreq", "pagerank", "wide"):
        for inverse in (False, True):
            spec = WalkerSpec(
                strategy="random", max_depth=2, max_walks=3, random_state=3,
                sampler=SamplerSpec(kind=kind, inverse=inverse),
            )
            out = run(gi_loop, spec)
            assert set(out) == set(ENTITIES)
            for walks in out.values():
                assert 0 < len(walks) <= 3


def test_split_sampler_drops_zero_indegree(graphs):
    gi_loop, _ = graphs
    spec = WalkerSpec(
        strategy="random", max_depth=2, max_walks=2, random_state=3,
        sampler=SamplerSpec(kind="objfreq", split=True),
    )
    out = run(gi_loop, spec)
    assert set(out) == set(ENTITIES)


def test_unknown_entity_raises(graphs):
    """Existence (kg.is_exist) is checked in the walk task, on the
    shard that owns the root."""
    import ray

    gi_loop, _ = graphs
    spec = WalkerSpec(strategy="random", max_depth=1, max_walks=None)
    with pytest.raises(ray.exceptions.RayTaskError,
                       match="'does' is not in the Knowledge Graph"):
        run(gi_loop, spec, ["does", "not", "exist"])


def test_with_reverse_exact_sets(graphs):
    """Exact r_walk[:-1] + walk structure (random.py:134-139) on LOOP,
    depth 1, no hashing: forward walks from Alice = {(A,k,B),(A,k,D)};
    reverse walks = {(D,l,A)}; combined = {(D,l)+fwd}."""
    gi_loop, _ = graphs
    spec = WalkerSpec(strategy="random", max_depth=1, max_walks=None,
                      with_reverse=True, md5_bytes=None)
    A, B, D = IRI + "Alice", IRI + "Bob", IRI + "Dean"
    k, l = IRI + "knows", IRI + "loves"
    walks = set(run(gi_loop, spec, [A])[A])
    assert walks == {
        (D, l, A, k, B),
        (D, l, A, k, D),
    }


def test_halk_post_single_token_walks(graphs):
    """The vectorized stats pass must count predicate-free (single-token)
    walks toward the walk total without emitting predicates: with 1 of 4
    walks carrying pred 'p' (freq 0.25), th=0.5 collapses it and th=0.2
    keeps it; the two root-only walks never grow hops."""
    import pyarrow as pa

    import ray

    from pyrdf2vec_ray.walkers import HALK_SCHEMA, WalkerSpec, halk_post

    rows = pa.Table.from_pydict(
        {
            "entity": ["e1", "e2"],
            "walks": [
                [["e1"], ["e1", "p", "x"]],
                [["e2"], ["e2", "q", "y"]],
            ],
        },
        schema=pa.schema([("entity", pa.string()),
                          ("walks", pa.list_(pa.list_(pa.string())))]),
    )
    spec = WalkerSpec(strategy="halk", max_depth=1, max_walks=None,
                      freq_thresholds=(0.2, 0.5), md5_bytes=None)
    out = to_table(halk_post(ray.data.from_arrow(rows), spec))
    assert out.schema.equals(HALK_SCHEMA)
    got = {
        (e, th): {tuple(w) for w in walks}
        for e, th, walks in zip(out["entity"].to_pylist(),
                                out["threshold"].to_pylist(),
                                out["walks"].to_pylist())
    }
    # each pred appears in 1/4 walks = 0.25: kept at 0.2, rare at 0.5
    assert got[("e1", 0.2)] == {("e1", "p", "x")}
    assert got[("e2", 0.2)] == {("e2", "q", "y")}
    assert got[("e1", 0.5)] == {("e1",)}
    assert got[("e2", 0.5)] == {("e2",)}
