"""Skew handling + walk checkpointing: hub-vertex stress with the
frontier cap, resumable walk extraction."""

from pyrdf2vec_ray import synth
from pyrdf2vec_ray.checkpoint import extract_walks_checkpointed, read_run
from pyrdf2vec_ray.util import to_table
from pyrdf2vec_ray.walkers import WalkerSpec, extract_walks

IRI = synth.IRI_PREFIX


def hub_graph(fanout=60):
    """hub → p → leaf_i, leaf_i → p → hub  (dense bipartite-ish core)."""
    triples = []
    for i in range(fanout):
        triples.append(("hub", "p", f"leaf{i}"))
        triples.append((f"leaf{i}", "p", "hub"))
    return triples


def test_frontier_cap_bounds_bfs_explosion(sharded_index):
    gi = sharded_index(hub_graph())
    uncapped = WalkerSpec(strategy="random", max_depth=3, max_walks=None,
                          md5_bytes=None)
    capped = WalkerSpec(strategy="random", max_depth=3, max_walks=None,
                        md5_bytes=None, frontier_cap=50)
    t_un = to_table(extract_walks(gi, ["hub"], uncapped, concurrency=1))
    t_cap = to_table(extract_walks(gi, ["hub"], capped, concurrency=1))
    n_un = sum(len(w) for w in t_un["walks"].to_pylist())
    n_cap = sum(len(w) for w in t_cap["walks"].to_pylist())
    # depth-3 from hub uncapped: 60 (hub→leaf) × 1 (leaf→hub) × 60 = 3600
    assert n_un == 3600
    assert n_cap < n_un and n_cap <= 50 * 60
    # capped output is deterministic
    t_cap2 = to_table(extract_walks(gi, ["hub"], capped, concurrency=1))
    assert sorted(map(tuple, (tuple(x) for ws in t_cap["walks"].to_pylist() for x in ws))) == \
           sorted(map(tuple, (tuple(x) for ws in t_cap2["walks"].to_pylist() for x in ws)))


def test_walks_checkpoint_resume(tmp_path, sharded_index):
    gi = sharded_index(synth.LONG_CHAIN)
    entities = [IRI + n for n in
                ["Alice", "Bob", "Mathilde", "Alfy", "Stephane", "Alfred"]]
    spec = WalkerSpec(strategy="random", max_depth=2, max_walks=None,
                      md5_bytes=None)
    root = str(tmp_path / "walks")
    r1 = extract_walks_checkpointed(root, gi, entities, spec, n_partitions=3)
    assert all(not r.skipped for r in r1)
    n_rows = read_run(root).count()
    assert n_rows > 0
    r2 = extract_walks_checkpointed(root, gi, entities, spec, n_partitions=3)
    assert all(r.skipped for r in r2)
    assert read_run(root).count() == n_rows
