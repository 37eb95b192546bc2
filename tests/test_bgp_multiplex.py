"""VERDICT r4 item 1: an N-pattern BGP must scan the triple corpus
ONCE (one multiplexed tagged pass pinned by materialize), not once per
pattern — including the MINUS / OPTIONAL groups' patterns, and
including the AQE re-executions of the per-pattern streams during the
adaptive join chain.

The corpus-scan count is measured with a counting actor spliced into
the triple stream: every row that leaves the source is counted, so if
any pattern (or any re-materialization) triggered a second corpus
pass, the count would be a multiple of the corpus size.
"""
from __future__ import annotations

import pandas as pd
import pyarrow as pa
import ray
import ray.data

from pyrdf2vec_ray.ops.bgp import bgp_match


@ray.remote
class _Counter:
    def __init__(self):
        self.n = 0

    def add(self, k: int) -> None:
        self.n += k

    def get(self) -> int:
        return self.n


def _triples() -> ray.data.Dataset:
    rows = []
    for i in range(40):
        rows.append((f"c{i}", "in_nation", f"n{i % 4}"))
        rows.append((f"n{i % 4}", "in_region", f"r{(i % 4) // 2}"))
        rows.append((f"c{i}", "buys", f"p{i % 7}"))
        if i % 3 == 0:
            rows.append((f"c{i}", "vip", "true"))
        if i % 5 == 0:
            rows.append((f"c{i}", "email", f"e{i}"))
    df = pd.DataFrame(rows, columns=["subj", "pred", "obj"])
    df = df.drop_duplicates().reset_index(drop=True)
    return ray.data.from_pandas(df).repartition(4)


def _counted(ds: ray.data.Dataset, counter) -> ray.data.Dataset:
    def count(batch: pa.Table) -> pa.Table:
        ray.get(counter.add.remote(batch.num_rows))
        return batch

    return ds.map_batches(count, batch_format="pyarrow")


def test_bgp_scans_corpus_once():
    tri = _triples()
    n_rows = tri.count()
    counter = _Counter.remote()
    out = bgp_match(
        _counted(tri, counter),
        [("?c", "in_nation", "?n"), ("?n", "in_region", "?r"),
         ("?c", "buys", "?p")],
        minus=[[("?c", "vip", "true")]],
        optional=[[("?c", "email", "?e")]],
    ).to_pandas()
    assert len(out) > 0
    # 5 patterns across mandatory+minus+optional, 1 corpus pass
    assert ray.get(counter.get.remote()) == n_rows


def test_bgp_multiplex_matches_reference_answer():
    tri = _triples()
    out = bgp_match(
        tri,
        [("?c", "in_nation", "?n"), ("?n", "in_region", "r0"),
         ("?c", "buys", "?p")],
        minus=[[("?c", "vip", "true")]],
        optional=[[("?c", "email", "?e")]],
        select=["c", "p", "e"],
    ).to_pandas()
    # hand oracle via pandas
    df = tri.to_pandas()
    cn = df[df["pred"] == "in_nation"].rename(
        columns={"subj": "c", "obj": "n"})[["c", "n"]]
    nr = df[(df["pred"] == "in_region") & (df["obj"] == "r0")].rename(
        columns={"subj": "n"})[["n"]]
    cb = df[df["pred"] == "buys"].rename(
        columns={"subj": "c", "obj": "p"})[["c", "p"]]
    sol = cn.merge(nr, on="n").merge(cb, on="c")
    vip = set(df[(df["pred"] == "vip") & (df["obj"] == "true")]["subj"])
    sol = sol[~sol["c"].isin(vip)]
    em = df[df["pred"] == "email"].rename(
        columns={"subj": "c", "obj": "e"})[["c", "e"]]
    sol = sol.merge(em, on="c", how="left").fillna({"e": ""})
    want = set(map(tuple, sol[["c", "p", "e"]].itertuples(index=False)))
    got = set(map(tuple, out[["c", "p", "e"]].itertuples(index=False)))
    assert got == want


def test_bgp_multiplex_hash_join_path_scans_once(monkeypatch):
    # a broadcast limit of 0 forces the hash-join plan — still one
    # corpus pass
    from pyrdf2vec_ray.ops import join

    monkeypatch.setattr(join, "BROADCAST_ROWS", 0)
    tri = _triples()
    n_rows = tri.count()
    counter = _Counter.remote()
    out = bgp_match(
        _counted(tri, counter),
        [("?c", "in_nation", "?n"), ("?c", "buys", "?p")],
    ).to_pandas()
    assert len(out) > 0
    assert ray.get(counter.get.remote()) == n_rows
