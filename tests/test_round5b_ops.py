"""Round-5 continuation wave: owl:sameAs canonicalization, SPARQL
FILTER [NOT] EXISTS / GROUP_CONCAT / p* / OPTIONAL-FILTER / global
aggregates / correlated VALUES, the eval family (AUC / grouped AUC /
PR / calibration), governance audits (k-anonymity), directed SCC,
Zipf + Heaps corpus fits, perceptual image dedup, sliding HLL,
record linkage, Procrustes alignment, weighted shortest paths,
betweenness, modularity, the curation pipeline, JSONL sources, and
the funnel conversion window.

Hand-computable fixtures, same discipline as the driver gate (each
family also has a DuckDB-oracled query in __ray_entry__)."""
from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pytest
import ray.data


def _tri(rows):
    return ray.data.from_arrow(pa.table({
        "subj": pa.array([r[0] for r in rows], pa.string()),
        "pred": pa.array([r[1] for r in rows], pa.string()),
        "obj": pa.array([r[2] for r in rows], pa.string()),
    }))


# ---- sameas_canonicalize ---------------------------------------------------

def test_sameas_chain_collapses_and_rewrites_both_positions():
    from pyrdf2vec_ray.ops.er import sameas_canonicalize

    # chain c1 ~ d1 ~ d1b (3 nodes, 2 hops); alias facts on BOTH the
    # subject slot (d1b in_nation n1, duplicate of the base fact) and
    # the object slot (z touches d1)
    tri = _tri([
        ("c1", "in_nation", "n1"),
        ("d1", "owl:sameAs", "d1b"),
        ("d1b", "owl:sameAs", "c1"),
        ("d1b", "in_nation", "n1"),
        ("z", "touches", "d1"),
    ])
    out = sameas_canonicalize(tri).to_pandas()
    got = set(map(tuple, out[["subj", "pred", "obj"]].values))
    assert got == {("c1", "in_nation", "n1"), ("z", "touches", "c1")}


def test_sameas_canonical_is_lexicographic_min():
    from pyrdf2vec_ray.ops.er import sameas_canonicalize

    tri = _tri([
        ("x9", "owl:sameAs", "a1"),   # canonical must be a1, not x9
        ("x9", "p", "v"),
        ("w", "q", "x9"),
    ])
    out = sameas_canonicalize(tri).to_pandas()
    got = set(map(tuple, out[["subj", "pred", "obj"]].values))
    assert got == {("a1", "p", "v"), ("w", "q", "a1")}


def test_sameas_no_edges_is_identity_distinct():
    from pyrdf2vec_ray.ops.er import sameas_canonicalize

    tri = _tri([("a", "p", "b"), ("a", "p", "b"), ("b", "q", "c")])
    out = sameas_canonicalize(tri).to_pandas()
    got = sorted(map(tuple, out[["subj", "pred", "obj"]].values))
    assert got == [("a", "p", "b"), ("b", "q", "c")]


def test_sameas_two_disjoint_classes_do_not_merge():
    from pyrdf2vec_ray.ops.er import sameas_canonicalize

    tri = _tri([
        ("a2", "owl:sameAs", "a1"),
        ("b2", "owl:sameAs", "b1"),
        ("a2", "p", "b2"),
    ])
    out = sameas_canonicalize(tri).to_pandas()
    got = set(map(tuple, out[["subj", "pred", "obj"]].values))
    assert got == {("a1", "p", "b1")}


# ---- SPARQL FILTER [NOT] EXISTS -------------------------------------------

_KG = [
    ("c1", "in_nation", "n1"),
    ("c2", "in_nation", "n1"),
    ("c3", "in_nation", "n2"),
    ("o1", "placed_by", "c1"),
    ("o2", "placed_by", "c2"),
    ("o1", "contains", "p5"),
    ("n1", "in_region", "r1"),
    ("n2", "in_region", "r1"),
]


def test_filter_exists_semi_join():
    from pyrdf2vec_ray.ops.sparql import sparql_query

    out = sparql_query(_tri(_KG), """
        SELECT ?c WHERE {
          ?c in_nation ?n .
          FILTER EXISTS { ?o placed_by ?c }
        }""").to_pandas()
    assert sorted(out["c"]) == ["c1", "c2"]


def test_filter_not_exists_anti_join_multi_pattern_group():
    from pyrdf2vec_ray.ops.sparql import sparql_query

    # only c1's order contains p5 -> NOT EXISTS keeps c2 and c3
    out = sparql_query(_tri(_KG), """
        SELECT ?c WHERE {
          ?c in_nation ?n .
          FILTER NOT EXISTS { ?o placed_by ?c . ?o contains p5 }
        }""").to_pandas()
    assert sorted(out["c"]) == ["c2", "c3"]


def test_exists_group_must_share_a_variable():
    from pyrdf2vec_ray.ops.sparql import sparql_query

    with pytest.raises(ValueError, match="shares no variable"):
        sparql_query(_tri(_KG), """
            SELECT ?c WHERE {
              ?c in_nation ?n .
              FILTER EXISTS { ?x in_region ?y }
            }""").to_pandas()


def test_exists_group_with_inner_filter():
    from pyrdf2vec_ray.ops.sparql import SparqlSyntaxError, sparql_query

    # inner FILTER prunes the sub-solutions before the semi-join keys:
    # only c2 has a non-o1 order
    out = sparql_query(_tri(_KG), """
        SELECT ?c WHERE {
          ?c in_nation ?n .
          FILTER EXISTS { ?o placed_by ?c . FILTER(?o != "o1") }
        }""").to_pandas()
    assert sorted(out["c"]) == ["c2"]
    # still-rejected machinery: OPTIONAL inside EXISTS
    with pytest.raises(SparqlSyntaxError, match="plain patterns"):
        sparql_query(_tri(_KG), """
            SELECT ?c WHERE {
              ?c in_nation ?n .
              FILTER EXISTS { ?o placed_by ?c .
                              OPTIONAL { ?o contains ?p } }
            }""")


def test_exists_spliced_from_nested_plain_group():
    from pyrdf2vec_ray.ops.sparql import sparql_query

    out = sparql_query(_tri(_KG), """
        SELECT ?c WHERE {
          { ?c in_nation ?n . FILTER NOT EXISTS { ?o placed_by ?c } }
        }""").to_pandas()
    assert sorted(out["c"]) == ["c3"]


# ---- SPARQL GROUP_CONCAT ---------------------------------------------------

def test_group_concat_sorted_distinct():
    from pyrdf2vec_ray.ops.sparql import sparql_query

    out = sparql_query(_tri(_KG), """
        SELECT ?n (GROUP_CONCAT(?c) AS ?cs) WHERE { ?c in_nation ?n }
        GROUP BY ?n""").to_pandas().set_index("n")
    assert out.loc["n1", "cs"] == "c1 c2"
    assert out.loc["n2", "cs"] == "c3"


def test_group_concat_joins_with_other_aggregates():
    from pyrdf2vec_ray.ops.sparql import sparql_query

    out = sparql_query(_tri(_KG), """
        SELECT ?r (COUNT(?n) AS ?k) (GROUP_CONCAT(?n) AS ?ns)
        WHERE { ?n in_region ?r } GROUP BY ?r""").to_pandas()
    assert len(out) == 1
    assert out.loc[0, "k"] == 2
    assert out.loc[0, "ns"] == "n1 n2"


def test_group_concat_dedups_values():
    from pyrdf2vec_ray.ops.sparql import sparql_query

    # two customers of n1 -> (?n, ?r) solutions repeat region r1; the
    # concat of ?n per ?r must still list each nation once
    out = sparql_query(_tri(_KG), """
        SELECT ?r (GROUP_CONCAT(?n) AS ?ns)
        WHERE { ?c in_nation ?n . ?n in_region ?r } GROUP BY ?r
        """).to_pandas()
    assert out.loc[0, "ns"] == "n1 n2"


# ---- k_anonymity -----------------------------------------------------------

def test_k_anonymity_returns_risk_groups_only():
    from pyrdf2vec_ray.ops.validate import k_anonymity

    rows = ([{"nat": 1, "seg": "A"}] * 5 + [{"nat": 1, "seg": "B"}] * 2
            + [{"nat": 2, "seg": "A"}])
    out = (k_anonymity(ray.data.from_items(rows), ["nat", "seg"], k=3)
           .to_pandas().sort_values(["nat", "seg"]).reset_index(drop=True))
    assert list(map(tuple, out[["nat", "seg", "n"]].values)) == [
        (1, "B", 2), (2, "A", 1)]


def test_k_anonymity_certifies_clean_table_empty():
    from pyrdf2vec_ray.ops.validate import k_anonymity

    rows = [{"g": i % 2} for i in range(10)]
    out = k_anonymity(ray.data.from_items(rows), ["g"], k=3).to_pandas()
    assert len(out) == 0


def test_k_anonymity_rejects_bad_args():
    from pyrdf2vec_ray.ops.validate import k_anonymity

    ds = ray.data.from_items([{"g": 1}])
    with pytest.raises(ValueError, match="k must be"):
        k_anonymity(ds, ["g"], k=1)
    with pytest.raises(ValueError, match="quasi_cols"):
        k_anonymity(ds, [], k=5)


# ---- auc_exact -------------------------------------------------------------

def test_auc_exact_perfect_and_reverse_separation():
    from pyrdf2vec_ray.ops.agg import auc_exact

    rows = [{"s": 10, "y": 1}, {"s": 9, "y": 1},
            {"s": 1, "y": 0}, {"s": 2, "y": 0}]
    out = auc_exact(ray.data.from_items(rows), "s", "y").to_pandas()
    assert out.loc[0, "auc"] == 1.0
    rev = [{"s": 10 - r["s"], "y": r["y"]} for r in rows]
    out = auc_exact(ray.data.from_items(rev), "s", "y").to_pandas()
    assert out.loc[0, "auc"] == 0.0


def test_auc_exact_ties_count_half():
    from pyrdf2vec_ray.ops.agg import auc_exact

    # one pos/neg tie at 5, one pos above one neg -> pairs: (5,1)=1,
    # (5,5)=0.5, (7,1)=1, (7,5)=1 -> U=3.5 of 4 -> 0.875
    rows = [{"s": 5, "y": 1}, {"s": 7, "y": 1},
            {"s": 5, "y": 0}, {"s": 1, "y": 0}]
    out = auc_exact(ray.data.from_items(rows), "s", "y").to_pandas()
    assert out.loc[0, "auc_num"] == 7      # 2U
    assert out.loc[0, "auc_den"] == 8
    assert out.loc[0, "auc"] == 0.875


def test_auc_exact_matches_sklearn_formula_random():
    import numpy as np

    from pyrdf2vec_ray.ops.agg import auc_exact

    rng = np.random.RandomState(7)
    s = rng.randint(0, 20, size=300)
    y = (rng.rand(300) < 1.0 / (1.0 + np.exp(3 - 0.4 * s))).astype(int)
    if y.sum() in (0, len(y)):
        y[0] = 1 - y[0]
    out = auc_exact(
        ray.data.from_items(
            [{"s": int(a), "y": int(b)} for a, b in zip(s, y)]),
        "s", "y").to_pandas()
    # reference: rank-based AUC with average ranks (scipy-free)
    import pandas as pd

    r = pd.Series(s).rank(method="average").to_numpy()
    npos, nneg = int(y.sum()), int((1 - y).sum())
    u = r[y == 1].sum() - npos * (npos + 1) / 2.0
    assert abs(out.loc[0, "auc"] - u / (npos * nneg)) < 1e-12


def test_auc_exact_degenerate_single_class():
    from pyrdf2vec_ray.ops.agg import auc_exact

    out = auc_exact(
        ray.data.from_items([{"s": 3, "y": 1}, {"s": 5, "y": 1}]),
        "s", "y").to_pandas()
    assert out.loc[0, "auc_den"] == 0
    import math
    assert math.isnan(out.loc[0, "auc"])


def test_auc_exact_rejects_nonbinary_labels():
    from pyrdf2vec_ray.ops.agg import auc_exact

    with pytest.raises(Exception, match="binary"):
        auc_exact(ray.data.from_items([{"s": 1, "y": 2}]),
                  "s", "y").to_pandas()


# ---- scc_bounded -----------------------------------------------------------

def test_scc_cycle_and_tail():
    from pyrdf2vec_ray.ops.graph import scc_bounded

    edges = ray.data.from_items([
        {"a": "b", "b": "c"}, {"a": "c", "b": "d"},
        {"a": "d", "b": "b"},                       # 3-cycle b-c-d
        {"a": "d", "b": "t"},                       # tail
    ])
    out = (scc_bounded(edges, rounds=2).to_pandas()
           .set_index("node")["scc"].to_dict())
    assert out == {"b": "b", "c": "b", "d": "b", "t": "t"}


def test_scc_one_way_link_does_not_merge_cycles():
    from pyrdf2vec_ray.ops.graph import scc_bounded

    edges = ray.data.from_items([
        {"a": "a1", "b": "a2"}, {"a": "a2", "b": "a1"},
        {"a": "b1", "b": "b2"}, {"a": "b2", "b": "b1"},
        {"a": "a1", "b": "b1"},                     # one-way bridge
    ])
    out = (scc_bounded(edges, rounds=3).to_pandas()
           .set_index("node")["scc"].to_dict())
    assert out == {"a1": "a1", "a2": "a1", "b1": "b1", "b2": "b1"}


def test_scc_bound_contract_undercovered_cycle_falls_apart():
    from pyrdf2vec_ray.ops.graph import scc_bounded

    cyc = [{"a": f"n{i}", "b": f"n{(i + 1) % 6}"} for i in range(6)]
    edges = ray.data.from_items(cyc)
    # rounds=1 covers paths <= 2: no mutual pair of a 6-cycle fits
    out = scc_bounded(edges, rounds=1).to_pandas()
    assert (out["node"] == out["scc"]).all()
    # rounds=3 covers paths <= 8 >= the 5-hop way back: one class
    out = (scc_bounded(edges, rounds=3).to_pandas()
           .set_index("node")["scc"].to_dict())
    assert set(out.values()) == {"n0"}


def _true_scc_classes(pairs):
    """Mutual reachability by BFS from every node: the exact SCCs."""
    nodes = sorted({x for p in pairs for x in p})
    out = {n: [] for n in nodes}
    for a, b in pairs:
        out[a].append(b)

    def reach(src):
        seen, todo = {src}, [src]
        while todo:
            for y in out[todo.pop()]:
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        return seen

    r = {n: reach(n) for n in nodes}
    return {n: frozenset(m for m in r[n] if n in r[m]) for n in nodes}


def test_scc_undercovered_output_is_a_partition():
    # a 12-node cycle walked both ways, a one-way bridge, a 2-cycle:
    # rounds=1 covers paths <= 2, so covered mutual pairs chain
    # (n03 <-> n05, n01 <-> n03) without being transitive
    from pyrdf2vec_ray.ops.graph import scc_bounded

    ring = [f"n{i:02d}" for i in range(12)]
    pairs = [(ring[i], ring[(i + 1) % 12]) for i in range(12)]
    pairs += [(b, a) for a, b in pairs]
    pairs += [("n05", "m0"), ("m0", "m1"), ("m1", "m0")]
    edges = ray.data.from_items([{"a": a, "b": b} for a, b in pairs])
    true = _true_scc_classes(pairs)

    out = (scc_bounded(edges, rounds=1).to_pandas()
           .set_index("node")["scc"].to_dict())
    assert set(out) == set(true)
    assert all(out[out[v]] == out[v] for v in out)
    for v, root in out.items():
        assert v in true[root]
    # rounds=3 covers paths <= 8 >= the 6-hop way round: the exact SCCs
    out3 = (scc_bounded(edges, rounds=3).to_pandas()
            .set_index("node")["scc"].to_dict())
    assert out3 == {v: min(c) for v, c in true.items()}
    assert out == out3


def test_scc_int_keyed_edges():
    from pyrdf2vec_ray.ops.graph import scc_bounded

    edges = ray.data.from_items([
        {"a": 7, "b": 3}, {"a": 3, "b": 7}, {"a": 7, "b": 9},
    ])
    out = (scc_bounded(edges, rounds=2).to_pandas()
           .set_index("node")["scc"].to_dict())
    assert out == {3: 3, 7: 3, 9: 9}


# ---- pr_curve --------------------------------------------------------------

def test_pr_curve_hand_example():
    from pyrdf2vec_ray.ops.agg import pr_curve

    rows = [{"s": 9, "y": 1}, {"s": 7, "y": 0},
            {"s": 5, "y": 1}, {"s": 3, "y": 0}]
    out = pr_curve(ray.data.from_items(rows), "s", "y").to_pandas()
    assert list(out["threshold"]) == [9, 7, 5, 3]
    assert list(out["tp"]) == [1, 1, 2, 2]
    assert list(out["fp"]) == [0, 1, 1, 2]
    assert list(out["fn"]) == [1, 1, 0, 0]
    assert list(out["precision"]) == [1.0, 0.5, 2 / 3, 0.5]
    assert list(out["recall"]) == [0.5, 0.5, 1.0, 1.0]


def test_pr_curve_ties_fold_into_one_threshold():
    from pyrdf2vec_ray.ops.agg import pr_curve

    rows = [{"s": 5, "y": 1}, {"s": 5, "y": 0}, {"s": 5, "y": 1}]
    out = pr_curve(ray.data.from_items(rows), "s", "y").to_pandas()
    assert len(out) == 1
    assert out.loc[0, "tp"] == 2 and out.loc[0, "fp"] == 1


# ---- zipf_slope ------------------------------------------------------------

def test_zipf_slope_exact_power_law():
    from pyrdf2vec_ray.ops.text import zipf_slope

    # frequencies 8,4,2,1 at ranks 1..4: ln f = ln 8 - ln 2 * ln r /
    # ... construct text with exact halving counts; slope of ln f vs
    # ln r for f = 16/r is exactly -1 at r in {1,2,4,8}... use direct
    # check against numpy polyfit instead of a closed form
    words = (["a"] * 8 + ["b"] * 4 + ["c"] * 2 + ["d"])
    docs = ray.data.from_items([{"doc_id": 0, "text": " ".join(words)}])
    out = zipf_slope(docs).to_pandas()
    assert out.loc[0, "vocab_size"] == 4
    assert out.loc[0, "total_tokens"] == 15
    assert out.loc[0, "n_freq_classes"] == 4
    import numpy as np

    x = np.log(np.arange(1, 5, dtype=float))
    y = np.log(np.array([8.0, 4.0, 2.0, 1.0]))
    slope_ref = np.polyfit(x, y, 1)[0]
    assert abs(out.loc[0, "slope"] - slope_ref) < 1e-9


def test_zipf_slope_tied_frequencies_average_rank():
    from pyrdf2vec_ray.ops.text import zipf_slope

    # two tokens tied at f=3 (ranks 1,2 -> avg 1.5), one at f=1 (rank 3)
    docs = ray.data.from_items(
        [{"doc_id": 0, "text": "a a a b b b c"}])
    out = zipf_slope(docs).to_pandas()
    import numpy as np

    x = np.array([np.log(1.5), np.log(1.5), np.log(3.0)])
    y = np.array([np.log(3.0), np.log(3.0), np.log(1.0)])
    slope_ref = np.polyfit(x, y, 1)[0]
    assert abs(out.loc[0, "slope"] - slope_ref) < 1e-9


def test_zipf_slope_empty_corpus_nan():
    from pyrdf2vec_ray.ops.text import zipf_slope

    import math
    docs = ray.data.from_items([{"doc_id": 0, "text": ""}])
    out = zipf_slope(docs).to_pandas()
    assert out.loc[0, "vocab_size"] == 0
    assert math.isnan(out.loc[0, "slope"])


# ---- calibration_bins ------------------------------------------------------

def test_calibration_bins_hand_example():
    from pyrdf2vec_ray.ops.agg import calibration_bins

    # scores 0..9, label = score >= 5; 2 bins over [0, 10)
    rows = [{"s": i, "y": int(i >= 5)} for i in range(10)]
    out = (calibration_bins(ray.data.from_items(rows), "s", "y",
                            n_bins=2).to_pandas()
           .sort_values("bin").reset_index(drop=True))
    assert list(out["bin"]) == [0, 1]
    assert list(out["n"]) == [5, 5]
    assert list(out["n_pos"]) == [0, 5]
    assert out.loc[0, "pos_rate"] == 0.0
    assert out.loc[1, "pos_rate"] == 1.0
    assert out.loc[0, "mean_score"] == 2.0
    assert out.loc[1, "mean_score"] == 7.0


def test_calibration_bins_rejects_negative_scores():
    from pyrdf2vec_ray.ops.agg import calibration_bins

    with pytest.raises(Exception, match="non-negative"):
        calibration_bins(
            ray.data.from_items([{"s": -1, "y": 0}]), "s", "y")


def test_calibration_bins_rejects_score_max_below_observed():
    from pyrdf2vec_ray.ops.agg import calibration_bins

    rows = [{"s": i, "y": i % 2} for i in range(10)]
    with pytest.raises(ValueError, match="score_max"):
        calibration_bins(ray.data.from_items(rows), "s", "y", n_bins=2,
                         score_max=4)
    # score_max at the observed max is the default's binning
    out = calibration_bins(ray.data.from_items(rows), "s", "y", n_bins=2,
                           score_max=9).to_pandas()
    assert sorted(out["bin"]) == [0, 1]


# ---- p* zero-or-more paths -------------------------------------------------

def test_star_path_includes_zero_length():
    from pyrdf2vec_ray.ops.sparql import sparql_query

    tri = _tri([
        ("a", "up", "b"), ("b", "up", "c"),
        ("x", "other", "y"),
    ])
    out = sparql_query(tri, "SELECT ?t WHERE { a up* ?t }").to_pandas()
    assert sorted(out["t"]) == ["a", "b", "c"]
    # plus form excludes the zero-length binding
    out = sparql_query(tri, "SELECT ?t WHERE { a up+ ?t }").to_pandas()
    assert sorted(out["t"]) == ["b", "c"]


def test_star_path_cycle_stays_a_set():
    from pyrdf2vec_ray.ops.sparql import sparql_query

    tri = _tri([("a", "p", "b"), ("b", "p", "a")])
    # closure holds (a,a) via the cycle AND identity holds (a,a):
    # the relation must stay a set -> exactly one solution row each
    out = sparql_query(tri, "SELECT ?t WHERE { a p* ?t }").to_pandas()
    assert sorted(out["t"]) == ["a", "b"]


def test_star_path_alternation_form():
    from pyrdf2vec_ray.ops.sparql import sparql_query

    tri = _tri([("a", "p", "b"), ("b", "q", "c")])
    out = sparql_query(
        tri, "SELECT ?t WHERE { a (p|q)* ?t }").to_pandas()
    assert sorted(out["t"]) == ["a", "b", "c"]


# ---- grouped_auc -----------------------------------------------------------

def test_grouped_auc_matches_global_per_group():
    import numpy as np

    from pyrdf2vec_ray.ops.agg import auc_exact, grouped_auc

    rng = np.random.RandomState(3)
    rows = [{"g": ["a", "b"][i % 2], "s": int(rng.randint(0, 12)),
             "y": int(rng.rand() < 0.4)} for i in range(200)]
    got = (grouped_auc(ray.data.from_items(rows), "g", "s", "y")
           .to_pandas().set_index("g"))
    for gname in ("a", "b"):
        sub = [r for r in rows if r["g"] == gname]
        ref = auc_exact(ray.data.from_items(sub), "s", "y").to_pandas()
        assert got.loc[gname, "auc_num"] == ref.loc[0, "auc_num"]
        assert got.loc[gname, "auc_den"] == ref.loc[0, "auc_den"]


def test_grouped_auc_single_class_group_nan():
    import math

    from pyrdf2vec_ray.ops.agg import grouped_auc

    rows = [{"g": "ok", "s": 2, "y": 1}, {"g": "ok", "s": 1, "y": 0},
            {"g": "deg", "s": 5, "y": 1}, {"g": "deg", "s": 6, "y": 1}]
    out = (grouped_auc(ray.data.from_items(rows), "g", "s", "y")
           .to_pandas().set_index("g"))
    assert out.loc["ok", "auc"] == 1.0
    assert out.loc["deg", "auc_den"] == 0
    assert math.isnan(out.loc["deg", "auc"])


# ---- image aHash dedup -----------------------------------------------------

def _pgm(w, h, fn):
    import numpy as np
    y, x = np.mgrid[0:h, 0:w]
    img = fn(x, y).astype(np.uint8)
    return b"P5\n%d %d\n255\n" % (w, h) + img.tobytes()


def test_image_ahash_known_bits():
    from pyrdf2vec_ray.ops.multimodal import image_ahash

    # 8x8 image, left half 0 / right half 255: mean 127.5 ->
    # bits row-major = 00001111 repeated; cells k where j >= 4 set
    pay = _pgm(8, 8, lambda x, y: (x >= 4) * 255)
    ds = ray.data.from_items([{"doc_id": 1, "payload": pay}])
    out = image_ahash(ds, concurrency=1).to_pandas()
    hi = sum(1 << k for k in range(32) if (k % 8) >= 4)
    lo = sum(1 << (k - 32) for k in range(32, 64) if (k % 8) >= 4)
    assert out.loc[0, "hash_hi"] == hi
    assert out.loc[0, "hash_lo"] == lo


def test_image_dup_pairs_finds_rescaled_identical_content():
    from pyrdf2vec_ray.ops.multimodal import image_dup_pairs

    # same half-split pattern at two resolutions -> identical aHash;
    # the TRANSPOSED split (bright bottom, not bright right) must not
    # pair with them — note an x-gradient WOULD pair, by design: aHash
    # thresholds at the mean, so monotone-in-x images with the same
    # crossing are perceptual duplicates
    items = [
        {"doc_id": 1, "payload": _pgm(8, 8, lambda x, y: (x >= 4) * 255)},
        {"doc_id": 2, "payload": _pgm(16, 16, lambda x, y: (x >= 8) * 255)},
        {"doc_id": 3, "payload": _pgm(8, 8, lambda x, y: (y >= 4) * 255)},
    ]
    out = (image_dup_pairs(ray.data.from_items(items), concurrency=1)
           .to_pandas().sort_values(["id_a", "id_b"]))
    assert list(map(tuple, out[["id_a", "id_b"]].values)) == [(1, 2)]


def test_image_neardup_pairs_pigeonhole_exact():
    import numpy as np

    from pyrdf2vec_ray.ops.multimodal import (image_ahash,
                                              image_neardup_pairs)

    # base: left-bright split; near: same with ONE resample cell
    # flipped (paint an 1x1 block the resizer samples); far: transpose
    base = _pgm(8, 8, lambda x, y: (x >= 4) * 255)
    def near_fn(x, y):
        v = (x >= 4) * 255
        v = np.where((x == 0) & (y == 0), 255, v)  # flip cell (0,0)
        return v
    near = _pgm(8, 8, near_fn)
    far = _pgm(8, 8, lambda x, y: (y >= 4) * 255)
    items = [{"doc_id": 1, "payload": base},
             {"doc_id": 2, "payload": near},
             {"doc_id": 3, "payload": far}]
    ds = ray.data.from_items(items)
    h = image_ahash(ds, concurrency=1).to_pandas().set_index("doc_id")
    # sanity: base vs near differ in a small number of bits
    def pop(a, b):
        return bin(int(a) ^ int(b)).count("1")
    d12 = (pop(h.loc[1, "hash_hi"], h.loc[2, "hash_hi"])
           + pop(h.loc[1, "hash_lo"], h.loc[2, "hash_lo"]))
    assert 1 <= d12 <= 3
    out = (image_neardup_pairs(ds, max_hamming=3, concurrency=1)
           .to_pandas().sort_values(["id_a", "id_b"]))
    assert list(map(tuple, out[["id_a", "id_b"]].values)) == [(1, 2)]
    assert out.iloc[0]["hamming"] == d12


def test_image_neardup_rejects_unguaranteed_hamming():
    import pytest as _pytest

    from pyrdf2vec_ray.ops.multimodal import image_neardup_pairs

    with _pytest.raises(ValueError, match="pigeonhole"):
        image_neardup_pairs(
            ray.data.from_items([{"doc_id": 1, "payload": b""}]),
            max_hamming=4)


# ---- hll_sliding_estimate --------------------------------------------------

def test_hll_sliding_merges_windows():
    from pyrdf2vec_ray.ops.sketch import hll_sliding_estimate

    # day 0: users a,b ; day 1: users b,c ; window=2 -> day1 sees 3
    rows = ([{"day": 0, "u": "a"}, {"day": 0, "u": "b"},
             {"day": 1, "u": "b"}, {"day": 1, "u": "c"}])
    out = (hll_sliding_estimate(ray.data.from_items(rows), "day", "u",
                                window=2)
           .to_pandas().set_index("day")["est_distinct"])
    # small-range linear counting is near-exact at these cardinalities
    assert abs(out.loc[0] - 2) < 0.1
    assert abs(out.loc[1] - 3) < 0.1


def test_hll_sliding_window_one_equals_daily():
    import pandas as pd

    from pyrdf2vec_ray.ops.sketch import (hll_estimate,
                                          hll_registers_values,
                                          hll_sliding_estimate)

    rows = [{"day": d, "u": f"u{d}_{i}"} for d in range(3)
            for i in range(10 + d)]
    ds = ray.data.from_items(rows)
    slid = (hll_sliding_estimate(ds, "day", "u", window=1)
            .to_pandas().sort_values("day").reset_index(drop=True))
    regs = hll_registers_values(ds, "day", "u").to_pandas()
    daily = (hll_estimate(regs, "day").sort_values("day")
             .reset_index(drop=True))
    assert (abs(slid["est_distinct"]
                - daily["est_distinct"]) < 1e-9).all()


# ---- er_link_pairs ---------------------------------------------------------

def test_er_link_cross_table_only():
    from pyrdf2vec_ray.ops.er import er_link_pairs

    left = ray.data.from_items([
        {"id": 1, "name": "acme corp"}, {"id": 2, "name": "acne corp"}])
    right = ray.data.from_items([
        {"id": 10, "name": "acme corp"}, {"id": 11, "name": "zzzz inc"}])
    out = (er_link_pairs(left, right, "id", "name", max_dist=1)
           .to_pandas().sort_values(["id_l", "id_r"]))
    # within-left pair (1,2) must NOT appear; both lefts link to 10
    assert list(map(tuple, out[["id_l", "id_r", "dist"]].values)) == [
        (1, 10, 0), (2, 10, 1)]


def test_er_link_blocking_contract():
    from pyrdf2vec_ray.ops.er import er_link_pairs

    # same distance-1 names in DIFFERENT blocks never pair
    left = ray.data.from_items([{"id": 1, "name": "abc x"}])
    right = ray.data.from_items([{"id": 2, "name": "abd y"}])
    out = er_link_pairs(left, right, "id", "name",
                        max_dist=2).to_pandas()
    assert len(out) == 0


# ---- FILTER inside OPTIONAL ------------------------------------------------

def test_optional_filter_applies_before_left_join():
    from pyrdf2vec_ray.ops.sparql import sparql_query

    out = sparql_query(_tri(_KG), """
        SELECT ?c ?o WHERE {
          ?c in_nation ?n .
          OPTIONAL { ?o placed_by ?c . FILTER(?o = "o1") }
        }""").to_pandas().set_index("c")["o"].to_dict()
    # c1's o1 passes; c2's o2 is filtered INSIDE the group -> c2 keeps
    # its row with the unbound fill (post-join filtering would drop it)
    assert out == {"c1": "o1", "c2": "", "c3": ""}


def test_minus_with_inner_filter():
    from pyrdf2vec_ray.ops.sparql import sparql_query

    # MINUS prunes only solutions whose sub-BGP match SURVIVES the
    # inner filter: only c1 has an o1 order, so only c1 is removed
    out = sparql_query(_tri(_KG), """
        SELECT ?c WHERE {
          ?c in_nation ?n .
          MINUS { ?o placed_by ?c . FILTER(?o = "o1") }
        }""").to_pandas()
    assert sorted(out["c"]) == ["c2", "c3"]


def test_optional_filter_var_must_be_group_bound():
    from pyrdf2vec_ray.ops.sparql import sparql_query

    with pytest.raises(ValueError, match="not bound by the group"):
        sparql_query(_tri(_KG), """
            SELECT ?c WHERE {
              ?c in_nation ?n .
              OPTIONAL { ?o placed_by ?c . FILTER(?zzz = "x") }
            }""").to_pandas()


# ---- betweenness_sampled ---------------------------------------------------

def test_betweenness_diamond_hand_computed():
    from pyrdf2vec_ray.ops.graph import betweenness_sampled

    # s -> a,b ; a,b -> c ; c -> t : sigma(c)=2, delta(a)=delta(b)=1,
    # delta(c)=1, delta(t)=0 (Brandes from the single seed s)
    edges = ray.data.from_items([
        {"a": "s", "b": "a"}, {"a": "s", "b": "b"},
        {"a": "a", "b": "c"}, {"a": "b", "b": "c"},
        {"a": "c", "b": "t"},
    ])
    out = (betweenness_sampled(edges, ["s"], max_depth=3)
           .to_pandas().set_index("vertex")["betweenness"].to_dict())
    assert out == {"a": 1.0, "b": 1.0, "c": 1.0, "t": 0.0}


def test_betweenness_multi_seed_sums():
    from pyrdf2vec_ray.ops.graph import betweenness_sampled

    # path x -> y -> z, seeds x and y: from x delta(y)=1, z=0;
    # from y delta(z)=0 -> y: 1, z: 0
    edges = ray.data.from_items([
        {"a": "x", "b": "y"}, {"a": "y", "b": "z"}])
    out = (betweenness_sampled(edges, ["x", "y"], max_depth=2)
           .to_pandas().set_index("vertex")["betweenness"].to_dict())
    assert out == {"y": 1.0, "z": 0.0}


def test_betweenness_depth_bound_truncates():
    from pyrdf2vec_ray.ops.graph import betweenness_sampled

    edges = ray.data.from_items([
        {"a": "s", "b": "m"}, {"a": "m", "b": "t"}])
    # depth 1: t never reached -> m has no successors -> delta 0
    out = (betweenness_sampled(edges, ["s"], max_depth=1)
           .to_pandas().set_index("vertex")["betweenness"].to_dict())
    assert out == {"m": 0.0}


# ---- procrustes_align ------------------------------------------------------

def _rot(d, seed):
    import numpy as np
    rng = np.random.RandomState(seed)
    q, _ = np.linalg.qr(rng.randn(d, d))
    return q


def test_procrustes_recovers_planted_rotation():
    import numpy as np

    from pyrdf2vec_ray.ops.similarity import procrustes_align

    rng = np.random.RandomState(11)
    d = 8
    X = rng.randn(60, d)
    R0 = _rot(d, 5)
    Y = X @ R0
    src = ray.data.from_items(
        [{"vec_id": i, "embedding": X[i].tolist()} for i in range(60)])
    dst = ray.data.from_items(
        [{"vec_id": i, "embedding": Y[i].tolist()} for i in range(60)])
    R, aligned = procrustes_align(src, dst)
    assert np.allclose(R, R0, atol=1e-8)
    A = (aligned.to_pandas().sort_values("vec_id"))
    got = np.stack(A["embedding"].to_numpy())
    assert np.allclose(got, Y, atol=1e-8)


def test_procrustes_partial_overlap_and_noise():
    import numpy as np

    from pyrdf2vec_ray.ops.similarity import procrustes_align

    rng = np.random.RandomState(3)
    d = 6
    X = rng.randn(80, d)
    R0 = _rot(d, 9)
    Y = X @ R0 + 0.001 * rng.randn(80, d)
    src = ray.data.from_items(
        [{"vec_id": i, "embedding": X[i].tolist()} for i in range(80)])
    # dst only covers half the ids — the join anchors on the overlap
    dst = ray.data.from_items(
        [{"vec_id": i, "embedding": Y[i].tolist()}
         for i in range(0, 80, 2)])
    R, _ = procrustes_align(src, dst)
    assert np.allclose(R, R0, atol=1e-2)


def test_procrustes_no_overlap_raises():
    import pytest as _pytest

    from pyrdf2vec_ray.ops.similarity import procrustes_align

    src = ray.data.from_items([{"vec_id": 1, "embedding": [1.0, 0.0]}])
    dst = ray.data.from_items([{"vec_id": 9, "embedding": [0.0, 1.0]}])
    with _pytest.raises(ValueError, match="no shared ids"):
        procrustes_align(src, dst)


# ---- weighted_distances ----------------------------------------------------

def test_weighted_distances_prefers_cheap_long_path():
    from pyrdf2vec_ray.ops.graph import weighted_distances

    # s->t direct cost 10; s->a->t cost 2+3=5 (longer but cheaper)
    edges = ray.data.from_items([
        {"a": "s", "b": "t", "w": 10},
        {"a": "s", "b": "a", "w": 2},
        {"a": "a", "b": "t", "w": 3},
    ])
    out = (weighted_distances(edges, ["s"], rounds=2).to_pandas()
           .set_index("vertex")["dist"].to_dict())
    assert out == {"s": 0, "a": 2, "t": 5}
    # one round only sees the direct edge
    out1 = (weighted_distances(edges, ["s"], rounds=1).to_pandas()
            .set_index("vertex")["dist"].to_dict())
    assert out1 == {"s": 0, "a": 2, "t": 10}


def test_weighted_distances_multi_seed_and_zero_weight():
    from pyrdf2vec_ray.ops.graph import weighted_distances

    edges = ray.data.from_items([
        {"a": "x", "b": "y", "w": 0}, {"a": "y", "b": "z", "w": 7}])
    out = weighted_distances(edges, ["x", "y"], rounds=2).to_pandas()
    got = {(r.seed, r.vertex): r.dist for r in out.itertuples()}
    assert got == {("x", "x"): 0, ("x", "y"): 0, ("x", "z"): 7,
                   ("y", "y"): 0, ("y", "z"): 7}


def test_weighted_distances_rejects_negative():
    import pytest as _pytest

    from pyrdf2vec_ray.ops.graph import weighted_distances

    edges = ray.data.from_items([{"a": "s", "b": "t", "w": -1}])
    with _pytest.raises(Exception, match="non-negative"):
        weighted_distances(edges, ["s"], rounds=1).to_pandas()


# ---- JSONL source / sink ---------------------------------------------------

def test_jsonl_roundtrip_and_normalization(tmp_path):
    import json

    from pyrdf2vec_ray.sinks import write_table
    from pyrdf2vec_ray.sources.jsonl import read_documents_jsonl

    # write via the sink, read back via the source
    src = ray.data.from_items(
        [{"doc_id": i, "text": f"doc number {i}"} for i in range(20)])
    out_dir = str(tmp_path / "out")
    write_table(src, out_dir, fmt="jsonl")
    back = read_documents_jsonl(out_dir).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert list(back["doc_id"]) == list(range(20))
    assert back.loc[3, "text"] == "doc number 3"

    # loose field names + missing ids -> content-hash ids, stable
    loose = tmp_path / "loose.jsonl"
    with open(loose, "w") as fh:
        for t in ["alpha", "beta", "alpha"]:
            fh.write(json.dumps({"content": t, "meta": "x"}) + "\n")
    d1 = read_documents_jsonl(str(loose)).to_pandas()
    d2 = read_documents_jsonl(str(loose)).to_pandas()
    assert sorted(d1["doc_id"]) == sorted(d2["doc_id"])
    # duplicate texts collide on purpose (content-addressed)
    assert d1["doc_id"].nunique() == 2
    assert set(d1.columns) == {"doc_id", "text"}
    kept = read_documents_jsonl(str(loose), keep_extra=True).to_pandas()
    assert "meta" in kept.columns


def test_jsonl_missing_text_field_raises(tmp_path):
    import json

    from pyrdf2vec_ray.sources.jsonl import read_documents_jsonl

    p = tmp_path / "bad.jsonl"
    with open(p, "w") as fh:
        fh.write(json.dumps({"body": "x"}) + "\n")
    with pytest.raises(Exception, match="no text field"):
        read_documents_jsonl(str(p)).to_pandas()


def test_csv_sink_roundtrip(tmp_path):
    import ray.data as rd

    from pyrdf2vec_ray.sinks import write_table

    src = ray.data.from_items(
        [{"a": i, "b": f"s{i}"} for i in range(5)])
    out = str(tmp_path / "csvout")
    write_table(src, out, fmt="csv")
    back = rd.read_csv(out).to_pandas().sort_values("a")
    assert list(back["b"]) == [f"s{i}" for i in range(5)]


# ---- curate_corpus pipeline ------------------------------------------------

def test_curate_corpus_all_gates():
    from pyrdf2vec_ray.pipelines.curation import curate_corpus

    docs = ray.data.from_items([
        {"doc_id": 1, "text": "the quick brown fox jumps over it"},
        {"doc_id": 2, "text": "too short"},                   # length
        {"doc_id": 3, "text": "the quick brown fox jumps over it"},  # dup of 1
        {"doc_id": 4, "text": "benchmark sentence held out here ok"},
        {"doc_id": 5, "text": "spam spam spam spam spam spam spam"},  # repetition
    ])
    bench = ray.data.from_items(
        [{"doc_id": 99, "text": "benchmark sentence held out here ok"}])
    out = curate_corpus(docs, min_tokens=4, dedup="exact",
                        benchmark=bench,
                        max_top_token_ratio=0.5).to_pandas()
    assert sorted(out["doc_id"]) == [1]


def test_curate_corpus_language_gate():
    from pyrdf2vec_ray.pipelines.curation import curate_corpus

    docs = ray.data.from_items([
        {"doc_id": 1, "text": "the cat and the dog went to the park"},
        {"doc_id": 2, "text": "der hund und die katze sind nicht da"},
    ])
    out = curate_corpus(docs, languages=["en"], dedup=None).to_pandas()
    assert list(out["doc_id"]) == [1]


def test_curate_corpus_rejects_unknown_dedup():
    from pyrdf2vec_ray.pipelines.curation import curate_corpus

    with pytest.raises(ValueError, match="unknown dedup"):
        curate_corpus(ray.data.from_items(
            [{"doc_id": 1, "text": "x"}]), dedup="fuzzy")


# ---- SPARQL global aggregates ----------------------------------------------

def test_global_aggregates_without_group_by():
    from pyrdf2vec_ray.ops.sparql import sparql_query

    out = sparql_query(_tri(_KG), """
        SELECT (COUNT(?c) AS ?n) (COUNT(DISTINCT ?n2) AS ?d)
               (GROUP_CONCAT(?c) AS ?cs)
        WHERE { ?c in_nation ?n2 }""").to_pandas()
    assert len(out) == 1
    assert out.loc[0, "n"] == 3
    assert out.loc[0, "d"] == 2
    assert out.loc[0, "cs"] == "c1 c2 c3"
    assert "__g" not in out.columns


# ---- correlated VALUES rows ------------------------------------------------

def test_values_rows_correlated_pairs():
    from pyrdf2vec_ray.ops.sparql import sparql_query

    out = sparql_query(_tri(_KG), """
        SELECT ?c ?n WHERE {
          ?c in_nation ?n .
          VALUES (?c ?n) { ("c1" "n1") ("c3" "n2") ("c2" "n2") }
        }""").to_pandas().sort_values("c")
    # (c2, n2) is a WRONG pairing -> correlated semantics must drop it
    assert list(map(tuple, out[["c", "n"]].values)) == [
        ("c1", "n1"), ("c3", "n2")]


def test_values_rows_arity_mismatch_raises():
    from pyrdf2vec_ray.ops.sparql import SparqlSyntaxError, sparql_query

    with pytest.raises(SparqlSyntaxError, match="arity"):
        sparql_query(_tri(_KG), """
            SELECT ?c WHERE {
              ?c in_nation ?n .
              VALUES (?c ?n) { ("c1") }
            }""")


def test_values_rows_unbound_var_raises():
    from pyrdf2vec_ray.ops.sparql import sparql_query

    with pytest.raises(ValueError, match="not bound"):
        sparql_query(_tri(_KG), """
            SELECT ?c WHERE {
              ?c in_nation ?n .
              VALUES (?zz) { ("x") }
            }""").to_pandas()


# ---- modularity ------------------------------------------------------------

def test_modularity_two_cliques_hand_computed():
    from pyrdf2vec_ray.ops.graph import modularity

    # two triangles joined by one bridge: m=7; communities A={a1..a3},
    # B={b1..b3}: m_A=m_B=3; d_A = 2*3+1 = 7, d_B = 7
    # q_num = (4*7*3 - 49)*2 = (84-49)*2 = 70 ; q_den = 196
    edges = ray.data.from_items(
        [{"a": "a1", "b": "a2"}, {"a": "a2", "b": "a3"},
         {"a": "a3", "b": "a1"},
         {"a": "b1", "b": "b2"}, {"a": "b2", "b": "b3"},
         {"a": "b3", "b": "b1"},
         {"a": "a1", "b": "b1"}])
    labels = ray.data.from_items(
        [{"node": f"a{i}", "label": "A"} for i in (1, 2, 3)]
        + [{"node": f"b{i}", "label": "B"} for i in (1, 2, 3)])
    out = modularity(edges, labels).to_pandas()
    assert out.loc[0, "m"] == 7
    assert out.loc[0, "q_num"] == 70
    assert out.loc[0, "q_den"] == 196
    assert abs(out.loc[0, "modularity"] - 70 / 196) < 1e-12


def test_modularity_dedups_directed_and_selfloops():
    from pyrdf2vec_ray.ops.graph import modularity

    edges = ray.data.from_items(
        [{"a": "x", "b": "y"}, {"a": "y", "b": "x"},  # one edge
         {"a": "x", "b": "x"}])                        # dropped
    labels = ray.data.from_items(
        [{"node": "x", "label": "c"}, {"node": "y", "label": "c"}])
    out = modularity(edges, labels).to_pandas()
    assert out.loc[0, "m"] == 1
    # single intra edge, one community: Q = 1 - 1 = 0
    assert out.loc[0, "modularity"] == 0.0


# ---- heaps_fit -------------------------------------------------------------

def test_heaps_fit_power_law_recovered():
    import numpy as np

    from pyrdf2vec_ray.ops.text import heaps_fit

    # construct docs where V(n) = sqrt-ish growth: doc i introduces
    # new tokens only when i is a perfect square -> beta < 1
    docs = []
    vocab = 0
    for i in range(64):
        if int(np.sqrt(i + 1)) ** 2 == i + 1:
            vocab += 4
        # rotate through the CURRENT vocab so new tokens actually
        # appear as it grows
        toks = [f"w{(i * 8 + j) % vocab}" for j in range(8)]
        docs.append({"doc_id": i, "text": " ".join(toks)})
    out = heaps_fit(ray.data.from_items(docs), n_points=8).to_pandas()
    assert out.loc[0, "tokens_total"] == 64 * 8
    assert out.loc[0, "vocab_total"] == vocab
    assert 0.0 < out.loc[0, "beta"] < 1.0


def test_heaps_fit_constant_vocab_beta_zero():
    from pyrdf2vec_ray.ops.text import heaps_fit

    docs = [{"doc_id": i, "text": "a b c d"} for i in range(32)]
    out = heaps_fit(ray.data.from_items(docs), n_points=4).to_pandas()
    assert out.loc[0, "vocab_total"] == 4
    assert abs(out.loc[0, "beta"]) < 1e-9


# ---- funnel conversion window ----------------------------------------------

def test_funnel_within_window_cuts_late_conversions():
    import pandas as pd

    from pyrdf2vec_ray.ops.events import funnel

    t0 = pd.Timestamp("2026-01-01")
    rows = [
        # u1 converts within 1h; u2 converts after 3h (late)
        {"user_id": 1, "event_type": "view", "ts": t0},
        {"user_id": 1, "event_type": "buy",
         "ts": t0 + pd.Timedelta(minutes=30)},
        {"user_id": 2, "event_type": "view", "ts": t0},
        {"user_id": 2, "event_type": "buy",
         "ts": t0 + pd.Timedelta(hours=3)},
    ]
    ds = ray.data.from_pandas(pd.DataFrame(rows))
    no_win = (funnel(ds, ["view", "buy"]).to_pandas()
              .set_index("user_id")["stage_reached"].to_dict())
    assert no_win == {1: 2, 2: 2}
    win = (funnel(ds, ["view", "buy"],
                  within=pd.Timedelta(hours=1)).to_pandas()
           .set_index("user_id")["stage_reached"].to_dict())
    assert win == {1: 2, 2: 1}


# ---- ordered_pair_counts ---------------------------------------------------

def test_ordered_pairs_hand_example():
    import pandas as pd

    from pyrdf2vec_ray.ops.events import ordered_pair_counts

    t = pd.Timestamp("2026-01-01")
    rows = [
        {"user_id": 1, "event_type": "a", "ts": t},
        {"user_id": 1, "event_type": "b", "ts": t + pd.Timedelta("1h")},
        {"user_id": 2, "event_type": "b", "ts": t},
        {"user_id": 2, "event_type": "a", "ts": t + pd.Timedelta("1h")},
        {"user_id": 3, "event_type": "a", "ts": t},
        {"user_id": 3, "event_type": "a", "ts": t + pd.Timedelta("2h")},
        {"user_id": 4, "event_type": "a", "ts": t},
        {"user_id": 4, "event_type": "a", "ts": t},
    ]
    out = (ordered_pair_counts(ray.data.from_pandas(pd.DataFrame(rows)))
           .to_pandas())
    got = {(r.prev, r.next): r.n_users for r in out.itertuples()}
    # u1: a<b ; u2: b<a ; u3: a twice -> (a,a) ; u4: a twice at one
    # timestamp -> no a-event strictly before another, so no (a,a)
    assert got == {("a", "b"): 1, ("b", "a"): 1, ("a", "a"): 1}


# ---- isotropy_stats --------------------------------------------------------

def test_isotropy_collapsed_vs_isotropic():
    import numpy as np

    from pyrdf2vec_ray.ops.similarity import isotropy_stats

    # collapsed: all vectors identical -> anisotropy 1
    same = ray.data.from_items(
        [{"vec_id": i, "embedding": [1.0, 2.0, 2.0]} for i in range(20)])
    out = isotropy_stats(same).to_pandas()
    assert abs(out.loc[0, "anisotropy"] - 1.0) < 1e-12
    # centered symmetric pairs -> mu = 0 -> anisotropy 0
    rng = np.random.RandomState(0)
    V = rng.randn(30, 4)
    both = np.vstack([V, -V])
    iso = ray.data.from_items(
        [{"vec_id": i, "embedding": r.tolist()}
         for i, r in enumerate(both)])
    out = isotropy_stats(iso).to_pandas()
    assert abs(out.loc[0, "anisotropy"]) < 1e-12


# ---- ktruss_bounded --------------------------------------------------------

def _clique_edges(nodes):
    return [{"a": x, "b": y} for i, x in enumerate(nodes)
            for y in nodes[i + 1:]]


def test_ktruss_keeps_clique_drops_cycle_and_chain():
    from pyrdf2vec_ray.ops.graph import ktruss_bounded

    edges = (_clique_edges(["k1", "k2", "k3", "k4"])        # support 2
             + [{"a": "c1", "b": "c2"}, {"a": "c2", "b": "c3"},
                {"a": "c1", "b": "c3"}]                      # support 1
             + [{"a": "p1", "b": "p2"}])                     # support 0
    ds = ray.data.from_items(edges)
    out4 = (ktruss_bounded(ds, k=4, rounds=3).to_pandas()
            .sort_values(["a", "b"]))
    assert len(out4) == 6
    assert set(out4["a"]).union(out4["b"]) == {"k1", "k2", "k3", "k4"}
    assert (out4["support"] == 2).all()
    out3 = ktruss_bounded(ds, k=3, rounds=3).to_pandas()
    assert len(out3) == 9  # clique + triangle survive, chain drops


def test_ktruss_cascade_needs_second_round():
    from pyrdf2vec_ray.ops.graph import ktruss_bounded

    # triangle + a pendant triangle sharing one edge... build: two
    # triangles sharing edge (a,b): edges of each have support 1
    # except the shared one (support 2).  k=4: all drop round 1 except
    # none (shared has 2 >= 2 -> survives round 1, but its triangles
    # died) -> round 2 drops it: bounded rounds matter
    edges = [{"a": "a", "b": "b"}, {"a": "a", "b": "c"},
             {"a": "b", "b": "c"}, {"a": "a", "b": "d"},
             {"a": "b", "b": "d"}]
    ds = ray.data.from_items(edges)
    one = ktruss_bounded(ds, k=4, rounds=1).to_pandas()
    assert len(one) == 1  # the shared edge lingers after one peel
    two = ktruss_bounded(ds, k=4, rounds=2).to_pandas()
    assert len(two) == 0


def test_ktruss_rejects_small_k():
    import pytest as _pytest

    from pyrdf2vec_ray.ops.graph import ktruss_bounded

    with _pytest.raises(ValueError, match="k must be"):
        ktruss_bounded(ray.data.from_items(
            [{"a": "x", "b": "y"}]), k=2)


# ---- conductance -----------------------------------------------------------

def test_conductance_two_triangles_with_bridge():
    from pyrdf2vec_ray.ops.graph import conductance

    # two triangles + one bridge (the modularity fixture): m=7;
    # vol(A) = 7 (6 intra stubs + 1 bridge stub), cut(A) = 1,
    # den = min(7, 14-7) = 7 -> phi = 1/7 both sides
    edges = ray.data.from_items(
        [{"a": "a1", "b": "a2"}, {"a": "a2", "b": "a3"},
         {"a": "a3", "b": "a1"},
         {"a": "b1", "b": "b2"}, {"a": "b2", "b": "b3"},
         {"a": "b3", "b": "b1"},
         {"a": "a1", "b": "b1"}])
    labels = ray.data.from_items(
        [{"node": f"a{i}", "label": "A"} for i in (1, 2, 3)]
        + [{"node": f"b{i}", "label": "B"} for i in (1, 2, 3)])
    out = (conductance(edges, labels).to_pandas()
           .set_index("community"))
    for c in ("A", "B"):
        assert out.loc[c, "m_within"] == 3
        assert out.loc[c, "cut"] == 1
        assert out.loc[c, "volume"] == 7
        assert abs(out.loc[c, "conductance"] - 1 / 7) < 1e-12


def test_conductance_isolated_community_zero():
    from pyrdf2vec_ray.ops.graph import conductance

    edges = ray.data.from_items(
        [{"a": "x", "b": "y"}, {"a": "p", "b": "q"}])
    labels = ray.data.from_items(
        [{"node": n, "label": lab} for n, lab in
         (("x", "L"), ("y", "L"), ("p", "R"), ("q", "R"))])
    out = (conductance(edges, labels).to_pandas()
           .set_index("community"))
    assert out.loc["L", "cut"] == 0
    assert out.loc["L", "conductance"] == 0.0


# ---- audio_dup_pairs -------------------------------------------------------

def _wav(amp, n, rate=8000):
    import io
    import wave

    import numpy as np
    sig = np.repeat(np.tile(np.array([amp, -amp], np.int16), n // 16), 8)
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(rate)
        w.writeframes(sig.tobytes())
    return buf.getvalue()


def test_audio_dup_pairs_content_addressed():
    from pyrdf2vec_ray.ops.multimodal import audio_dup_pairs

    items = [
        {"doc_id": 1, "payload": _wav(1000, 800)},
        {"doc_id": 2, "payload": _wav(1000, 800)},   # identical PCM
        {"doc_id": 3, "payload": _wav(1500, 800)},   # different amp
        {"doc_id": 4, "payload": _wav(1000, 800, rate=16000)},  # rate
    ]
    out = (audio_dup_pairs(ray.data.from_items(items), concurrency=1)
           .to_pandas().sort_values(["id_a", "id_b"]))
    # same samples at a different rate are DIFFERENT audio
    assert list(map(tuple, out[["id_a", "id_b"]].values)) == [(1, 2)]
