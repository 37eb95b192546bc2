"""BGP matcher: hand-computable pattern queries over a toy triple set.

Pins the SPARQL-set semantics documented in ops/bgp.py: constant
pushdown, repeated-variable equality, shared-variable natural joins,
distinct projection under select, and the disconnected-BGP guard."""
from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from pyrdf2vec_ray.ops.bgp import bgp_match

TRIPLES = [
    # people -> city -> country
    ("alice", "lives_in", "ghent"),
    ("bob", "lives_in", "ghent"),
    ("carol", "lives_in", "paris"),
    ("ghent", "in_country", "be"),
    ("paris", "in_country", "fr"),
    # friendships (directed)
    ("alice", "knows", "bob"),
    ("alice", "knows", "carol"),
    ("bob", "knows", "alice"),
    # a self-loop for the repeated-variable case
    ("dave", "knows", "dave"),
    ("dave", "lives_in", "paris"),
]


def _ds():
    s, p, o = zip(*TRIPLES)
    return ray.data.from_pandas(
        pd.DataFrame({"subj": s, "pred": p, "obj": o}))


def _rows(ds, cols):
    df = ds.to_pandas()
    assert sorted(df.columns) == sorted(cols)
    return set(map(tuple, df[cols].itertuples(index=False)))


def test_single_pattern_constant_pushdown():
    out = bgp_match(_ds(), [("?w", "lives_in", "ghent")])
    assert _rows(out, ["w"]) == {("alice",), ("bob",)}


def test_chain_join_two_hops():
    out = bgp_match(_ds(), [("?w", "lives_in", "?city"),
                            ("?city", "in_country", "be")])
    assert _rows(out, ["city", "w"]) == {("ghent", "alice"),
                                         ("ghent", "bob")}


def test_cycle_join_mutual_friends():
    # ?a knows ?b and ?b knows ?a — second join runs on BOTH vars
    out = bgp_match(_ds(), [("?a", "knows", "?b"),
                            ("?b", "knows", "?a")])
    got = _rows(out, ["a", "b"])
    assert got == {("alice", "bob"), ("bob", "alice"),
                   ("dave", "dave")}


def test_repeated_variable_within_pattern():
    out = bgp_match(_ds(), [("?x", "knows", "?x")])
    assert _rows(out, ["x"]) == {("dave",)}


def test_select_projects_with_distinct():
    # both alice and bob live in a Belgian city -> country column alone
    # must dedup to a single solution row
    out = bgp_match(_ds(), [("?w", "lives_in", "?city"),
                            ("?city", "in_country", "?cc")],
                    select=["cc"])
    assert _rows(out, ["cc"]) == {("be",), ("fr",)}


def test_star_plus_chain():
    # friends-of-alice who live in a city in France
    out = bgp_match(_ds(), [("alice", "knows", "?f"),
                            ("?f", "lives_in", "?city"),
                            ("?city", "in_country", "fr")])
    assert _rows(out, ["city", "f"]) == {("paris", "carol")}


def test_disconnected_bgp_raises():
    with pytest.raises(ValueError, match="disconnected"):
        bgp_match(_ds(), [("?a", "knows", "?b"),
                          ("?c", "in_country", "?d")])


def test_constant_only_pattern_raises():
    with pytest.raises(ValueError, match="no variables"):
        bgp_match(_ds(), [("alice", "knows", "bob")])


def test_unknown_select_var_raises():
    with pytest.raises(ValueError, match="select vars"):
        bgp_match(_ds(), [("?a", "knows", "?b")], select=["z"])


def test_filter_constant_and_var():
    out = bgp_match(_ds(), [("?a", "knows", "?b")],
                    filters=[("a", "!=", "dave")])
    assert _rows(out, ["a", "b"]) == {("alice", "bob"),
                                      ("alice", "carol"),
                                      ("bob", "alice")}
    out = bgp_match(_ds(), [("?a", "knows", "?b")],
                    filters=[("a", "<", "?b")])
    assert _rows(out, ["a", "b"]) == {("alice", "bob"),
                                      ("alice", "carol")}


def test_optional_left_join_fills_unbound():
    # everyone with a city; knowing someone is optional
    out = bgp_match(_ds(), [("?w", "lives_in", "?city")],
                    optional=[[("?w", "knows", "?f")]])
    got = _rows(out, ["city", "f", "w"])
    assert ("ghent", "bob", "alice") in got
    assert ("ghent", "carol", "alice") in got
    # carol knows nobody -> one row with f unbound ('')
    assert ("paris", "", "carol") in got
    assert ("paris", "dave", "dave") in got


def test_optional_unshared_raises():
    with pytest.raises(ValueError, match="OPTIONAL"):
        bgp_match(_ds(), [("?w", "lives_in", "?city")],
                  optional=[[("?x", "in_country", "?y")]])


def test_filter_unbound_var_raises():
    with pytest.raises(ValueError, match="filter variable"):
        bgp_match(_ds(), [("?a", "knows", "?b")],
                  filters=[("z", "==", "x")])


def test_minus_removes_matching_solutions():
    # people with a city, MINUS those who know someone
    out = bgp_match(_ds(), [("?w", "lives_in", "?city")],
                    minus=[[("?w", "knows", "?f")]])
    assert _rows(out, ["city", "w"]) == {("paris", "carol")}


def test_minus_unshared_raises():
    with pytest.raises(ValueError, match="MINUS"):
        bgp_match(_ds(), [("?w", "lives_in", "?city")],
                  minus=[[("?x", "in_country", "?y")]])


def test_construct_derives_deduped_triples():
    from pyrdf2vec_ray.ops.bgp import bgp_construct

    out = bgp_construct(
        _ds(),
        [("?a", "knows", "?b"), ("?b", "lives_in", "?city")],
        template=("?a", "friend_city", "?city")).to_pandas()
    got = set(map(tuple, out[["subj", "pred", "obj"]]
                  .itertuples(index=False)))
    # alice knows bob (ghent) and carol (paris); bob knows alice
    # (ghent); dave knows dave (paris)
    assert got == {("alice", "friend_city", "ghent"),
                   ("alice", "friend_city", "paris"),
                   ("bob", "friend_city", "ghent"),
                   ("dave", "friend_city", "paris")}


def test_construct_unbound_template_var_raises():
    from pyrdf2vec_ray.ops.bgp import bgp_construct

    with pytest.raises(ValueError, match="template vars"):
        bgp_construct(_ds(), [("?a", "knows", "?b")],
                      template=("?a", "p", "?zzz"))


def test_values_parameterized_query():
    out = bgp_match(_ds(), [("?w", "lives_in", "?city")],
                    values={"w": ["alice", "dave"]})
    assert _rows(out, ["city", "w"]) == {("ghent", "alice"),
                                         ("paris", "dave")}


def test_values_unbound_var_raises():
    with pytest.raises(ValueError, match="VALUES"):
        bgp_match(_ds(), [("?w", "lives_in", "?city")],
                  values={"q": ["x"]})


def _chain_ds():
    rows = [("a", "next", "b"), ("b", "next", "c"), ("c", "next", "d"),
            ("d", "hop", "e"), ("x", "next", "a")]
    s, p, o = zip(*rows)
    return ray.data.from_pandas(
        pd.DataFrame({"subj": s, "pred": p, "obj": o}))


def test_property_path_plus_forward_and_backward():
    out = bgp_match(_chain_ds(), [("a", "next+", "?x")])
    assert _rows(out, ["x"]) == {("b",), ("c",), ("d",)}
    out = bgp_match(_chain_ds(), [("?x", "next+", "d")])
    assert _rows(out, ["x"]) == {("a",), ("b",), ("c",), ("x",)}


def test_property_path_alternation():
    out = bgp_match(_chain_ds(), [("a", "(next|hop)+", "?x")])
    assert _rows(out, ["x"]) == {("b",), ("c",), ("d",), ("e",)}


def test_property_path_joins_with_plain_pattern():
    # everything reachable from ?s via next+ that then hops somewhere
    out = bgp_match(_chain_ds(), [("?s", "next+", "?m"),
                                  ("?m", "hop", "?e")])
    got = _rows(out, ["e", "m", "s"])
    assert got == {("e", "d", "a"), ("e", "d", "b"),
                   ("e", "d", "c"), ("e", "d", "x")}


def test_property_path_bounded_rounds():
    # closure_rounds=0 -> only direct edges
    out = bgp_match(_chain_ds(), [("a", "next+", "?x")],
                    closure_rounds=0)
    assert _rows(out, ["x"]) == {("b",)}


def _tpch_like_triples() -> pd.DataFrame:
    """A small order/part/supplier graph in the TPC-H KG's shape: the
    one nation of region:2 keeps the seed of the six-pattern BGP at a
    single row."""
    import numpy as np

    rng = np.random.default_rng(5)
    rows = [(f"nation:{n}", "in_region", f"region:{2 if n == 2 else n % 2}")
            for n in range(5)]
    rows += [(f"customer:{c}", "in_nation", f"nation:{rng.integers(5)}")
             for c in range(12)]
    rows += [(f"supplier:{s}", "in_nation", f"nation:{rng.integers(5)}")
             for s in range(6)]
    rows += [(f"order:{o}", "placed_by", f"customer:{rng.integers(12)}")
             for o in range(30)]
    rows += [(f"order:{rng.integers(30)}", "contains",
              f"part:{rng.integers(10)}") for _ in range(60)]
    rows += [(f"part:{p}", "supplied_by", f"supplier:{rng.integers(6)}")
             for p in range(10) for _ in range(3)]
    return pd.DataFrame(rows, columns=["subj", "pred", "obj"]) \
        .drop_duplicates().reset_index(drop=True)


_SIX = [("?o", "placed_by", "?c"), ("?c", "in_nation", "?n"),
        ("?n", "in_region", "region:{r}"), ("?o", "contains", "?p"),
        ("?p", "supplied_by", "?s"), ("?s", "in_nation", "?n")]


def test_join_plans_agree_with_duckdb(monkeypatch):
    """Every join plan — scan broadcast (default limit), acc broadcast
    then hash join (limit 1), hash join only (0) — and every pattern
    order returns the DuckDB self-join's solution set."""
    import duckdb

    import pyrdf2vec_ray.ops.join as join_mod

    tri = _tpch_like_triples()
    region = 2
    con = duckdb.connect()
    con.register("t", tri)
    want = set(con.execute(f"""
        SELECT DISTINCT a.subj, a.obj, b.obj, d.obj, e.obj
        FROM t a JOIN t b ON b.subj = a.obj AND b.pred = 'in_nation'
        JOIN t c ON c.subj = b.obj AND c.pred = 'in_region'
                 AND c.obj = 'region:{region}'
        JOIN t d ON d.subj = a.subj AND d.pred = 'contains'
        JOIN t e ON e.subj = d.obj AND e.pred = 'supplied_by'
        JOIN t f ON f.subj = e.obj AND f.pred = 'in_nation'
                 AND f.obj = b.obj
        WHERE a.pred = 'placed_by'
    """).fetchall())
    assert want

    plans: list[str] = []
    real_bc, real_small = join_mod.broadcast_join, join_mod.small_table

    def bc(left, right, **kw):
        # a broadcast the accumulating solutions decided was logged
        # by small_table below
        if not plans or plans[-1] != "acc":
            plans.append("scan")
        return real_bc(left, right, **kw)

    def small(ds):
        t = real_small(ds)
        plans.append("acc" if t is not None else "hash")
        return t

    monkeypatch.setattr(join_mod, "broadcast_join", bc)
    monkeypatch.setattr(join_mod, "small_table", small)
    six = [(s, p, o.format(r=region)) for s, p, o in _SIX]
    ds = ray.data.from_pandas(tri)
    for limit, expect in ((join_mod.BROADCAST_ROWS, {"scan"}), (1, None),
                          (0, {"hash"})):
        monkeypatch.setattr(join_mod, "BROADCAST_ROWS", limit)
        for pats in (six, six[::-1], six[3:] + six[:3]):
            plans.clear()
            out = bgp_match(ds, pats)
            assert _rows(out, ["o", "c", "n", "p", "s"]) == want
            if expect is not None:
                assert set(plans) == expect
            else:
                # the single-row seed broadcasts, the rest hash-join
                assert plans[0] == "acc" and "hash" in plans


def test_six_pattern_job_count(ray_jobs):
    """The kg-query six-pattern shape runs a fixed number of Ray Data
    jobs: the pinned multiplexed scan, the per-pattern row counts, the
    collect of the small scans, and the count of the broadcast chain."""
    ds = ray.data.from_pandas(_tpch_like_triples()).materialize()
    six = [(s, p, o.format(r=2)) for s, p, o in _SIX]
    with ray_jobs() as jobs:
        n = bgp_match(ds, six).count()
    assert n > 0
    assert jobs.count == 4
