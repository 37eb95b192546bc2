"""SPARQL text front-end: parser plans and end-to-end equivalence with
the bgp_match Python API on the toy graph."""
from __future__ import annotations

import pandas as pd
import pytest
import ray.data

from pyrdf2vec_ray.ops.sparql import (
    SparqlSyntaxError,
    parse_sparql,
    sparql_query,
)

TRIPLES = [
    ("alice", "lives_in", "ghent"),
    ("bob", "lives_in", "ghent"),
    ("carol", "lives_in", "paris"),
    ("ghent", "in_country", "be"),
    ("paris", "in_country", "fr"),
    ("alice", "knows", "bob"),
    ("bob", "knows", "alice"),
]


def _ds():
    s, p, o = zip(*TRIPLES)
    return ray.data.from_pandas(
        pd.DataFrame({"subj": s, "pred": p, "obj": o}))


def _rows(ds, cols):
    df = ds.to_pandas()
    return set(map(tuple, df[cols].itertuples(index=False)))


def test_parse_plan_shapes():
    q = parse_sparql("""
        SELECT ?c WHERE {
          ?c lives_in ?city .
          ?city in_country "be" .
          FILTER(?c != "bob")
          OPTIONAL { ?c knows ?f . }
          VALUES ?city { "ghent" "paris" }
        } LIMIT 10
    """)
    g = q["group"]
    assert q["select"] == ["c"] and q["limit"] == 10
    assert g["patterns"][0] == ("?c", "lives_in", "?city")
    assert g["patterns"][1] == ("?city", "in_country", "be")
    assert g["filters"] == [("c", "!=", "bob")]
    assert g["optional"] == [[("?c", "knows", "?f")]]
    assert g["values"] == {"city": ["ghent", "paris"]}


def test_select_end_to_end():
    out = sparql_query(_ds(), """
        SELECT ?c WHERE {
          ?c lives_in ?city .
          ?city in_country be .
          FILTER(?c != alice)
        }
    """)
    assert _rows(out, ["c"]) == {("bob",)}


def test_star_select_and_iri_brackets():
    out = sparql_query(_ds(), """
        SELECT * WHERE { ?w <lives_in> "paris" . }
    """)
    assert _rows(out, ["w"]) == {("carol",)}


def test_minus_group():
    out = sparql_query(_ds(), """
        SELECT ?w WHERE {
          ?w lives_in ?city .
          MINUS { ?w knows ?x . }
        }
    """)
    assert _rows(out.select_columns(["w"]), ["w"]) == {("carol",)}


def test_property_path_text():
    rows = [("a", "next", "b"), ("b", "next", "c"), ("c", "hop", "d")]
    s, p, o = zip(*rows)
    ds = ray.data.from_pandas(
        pd.DataFrame({"subj": s, "pred": p, "obj": o}))
    out = sparql_query(ds, "SELECT ?x WHERE { a (next|hop)+ ?x . }")
    assert _rows(out.select_columns(["x"]), ["x"]) == {
        ("b",), ("c",), ("d",)}
    out = sparql_query(ds, "SELECT ?x WHERE { a next+ ?x . }")
    assert _rows(out.select_columns(["x"]), ["x"]) == {("b",), ("c",)}


def test_construct_text():
    out = sparql_query(_ds(), """
        CONSTRUCT { ?a friend_city ?city } WHERE {
          ?a knows ?b .
          ?b lives_in ?city .
        }
    """)
    got = set(map(tuple, out.to_pandas()[["subj", "pred", "obj"]]
                  .itertuples(index=False)))
    assert got == {("alice", "friend_city", "ghent"),
                   ("bob", "friend_city", "ghent")}


def test_syntax_errors_name_the_problem():
    with pytest.raises(SparqlSyntaxError, match="only SELECT"):
        parse_sparql("INSERT { ?a ?b ?c } WHERE { ?a ?b ?c }")
    with pytest.raises(SparqlSyntaxError, match="unterminated group"):
        parse_sparql("SELECT ?a WHERE { ?a b ?c .")
    with pytest.raises(SparqlSyntaxError, match="FILTER lhs"):
        parse_sparql('SELECT ?a WHERE { ?a b ?c . FILTER("x" = ?a) }')
    with pytest.raises(SparqlSyntaxError, match="trailing"):
        parse_sparql("SELECT ?a WHERE { ?a b ?c } JUNK")


def test_ask_form():
    out = sparql_query(_ds(), 'ASK { alice knows ?x . }').to_pandas()
    assert out["ask"].tolist() == [True]
    out = sparql_query(_ds(), 'ASK WHERE { carol knows ?x . }').to_pandas()
    assert out["ask"].tolist() == [False]


def test_order_by_and_limit():
    out = sparql_query(_ds(), """
        SELECT ?w ?city WHERE { ?w lives_in ?city . }
        ORDER BY ?city DESC ?w LIMIT 2
    """).to_pandas()
    assert list(map(tuple, out[["city", "w"]].itertuples(index=False))) \
        == [("paris", "carol"), ("ghent", "alice")]


def test_group_by_count():
    out = sparql_query(_ds(), """
        SELECT ?city (COUNT(?w) AS ?n) WHERE {
          ?w lives_in ?city .
        } GROUP BY ?city ORDER BY ?city
    """).to_pandas()
    assert list(map(tuple, out[["city", "n"]].itertuples(index=False))) \
        == [("ghent", 2), ("paris", 1)]


def test_count_without_group_by_is_global_aggregate():
    # round 5: SPARQL's implicit single group — aggregates with no
    # GROUP BY reduce the whole solution set to one row
    out = sparql_query(_ds(), """
        SELECT (COUNT(?w) AS ?n) WHERE { ?w lives_in ?c . }
    """).to_pandas()
    assert len(out) == 1 and out.loc[0, "n"] > 0
    assert list(out.columns) == ["n"]


def test_global_aggregate_over_no_solutions_is_one_row():
    # the implicit group exists over an empty solution set too: one row,
    # COUNT = 0 and the other aggregates unbound (DuckDB: 0 and NULL)
    out = sparql_query(_ds(), """
        SELECT (COUNT(?w) AS ?n) (MIN(?c) AS ?lo) (AVG(?c) AS ?mean)
               (COUNT(DISTINCT ?c) AS ?nc)
        WHERE { ?w works_in ?c . }
    """).to_pandas()
    assert list(out.columns) == ["n", "lo", "mean", "nc"]
    assert len(out) == 1
    assert out.loc[0, "n"] == 0 and out.loc[0, "nc"] == 0
    assert pd.isna(out.loc[0, "lo"]) and pd.isna(out.loc[0, "mean"])
    # HAVING still filters the one group
    out = sparql_query(_ds(), """
        SELECT (COUNT(?w) AS ?n) WHERE { ?w works_in ?c . }
        HAVING (?n > 0)
    """).to_pandas()
    assert len(out) == 0


def test_describe_form():
    out = sparql_query(_ds(), """
        DESCRIBE ?city WHERE { ?city in_country "be" . }
    """).to_pandas()
    got = set(map(tuple, out[["subj", "pred", "obj"]]
                  .itertuples(index=False)))
    # every triple with a Belgian city as subject or object
    assert got == {("alice", "lives_in", "ghent"),
                   ("bob", "lives_in", "ghent"),
                   ("ghent", "in_country", "be")}


def test_describe_unbound_var_raises():
    with pytest.raises(ValueError, match="DESCRIBE var"):
        sparql_query(_ds(), "DESCRIBE ?zzz WHERE { ?a knows ?b . }")


def test_union_select_set_semantics():
    """{A} UNION {B}: branch-independent evaluation, projection to the
    SELECT vars, distinct concat (both branches bind alice → once)."""
    out = sparql_query(_ds(), """
        SELECT ?p WHERE {
          { ?p lives_in ghent . }
          UNION
          { ?p knows bob . }
        }
    """)
    assert _rows(out, ["p"]) == {("alice",), ("bob",)}


def test_union_branches_keep_own_modifiers():
    """A branch's FILTER applies to that branch only."""
    out = sparql_query(_ds(), """
        SELECT ?p ?city WHERE {
          { ?p lives_in ?city . FILTER(?city != "ghent") }
          UNION
          { ?p lives_in ?city . ?p knows ?q . }
        }
    """)
    assert _rows(out, ["p", "city"]) == {
        ("carol", "paris"), ("alice", "ghent"), ("bob", "ghent")}


def test_union_three_way_and_ask():
    out = sparql_query(_ds(), """
        SELECT ?x WHERE {
          { ?x lives_in paris . } UNION { ?x in_country be . }
          UNION { ?x knows alice . }
        }
    """)
    assert _rows(out, ["x"]) == {("carol",), ("ghent",), ("bob",)}
    ask = sparql_query(_ds(), """
        ASK { { ?x lives_in nowhere . } UNION { ?x knows bob . } }
    """).take_all()
    assert ask == [{"ask": True}]


def test_union_mixing_raises():
    with pytest.raises(SparqlSyntaxError, match="only member"):
        sparql_query(_ds(), """
            SELECT ?x WHERE {
              { ?x lives_in ghent . } UNION { ?x lives_in paris . }
              ?x knows ?y .
            }
        """)
    # a single nested PLAIN group is legal (round 5): it splices into
    # the parent — conjunction is associative
    out = _rows(sparql_query(_ds(), """
        SELECT ?x WHERE { { ?x lives_in ghent . } }
    """), ["x"])
    assert out == {("alice",), ("bob",)}


def test_numeric_aggregates():
    """SUM/AVG/MIN/MAX over string-stored numeric literals, grouped —
    one bucket_agg shuffle; AVG = sum/size after the shuffle."""
    rows = [
        ("o1", "placed_by", "alice"), ("o1", "amount", "10"),
        ("o2", "placed_by", "alice"), ("o2", "amount", "4"),
        ("o3", "placed_by", "bob"), ("o3", "amount", "7"),
    ]
    s, p, o = zip(*rows)
    ds = ray.data.from_pandas(pd.DataFrame({"subj": s, "pred": p, "obj": o}))
    out = sparql_query(ds, """
        SELECT ?c (SUM(?a) AS ?total) (AVG(?a) AS ?mean)
               (MIN(?a) AS ?lo) (MAX(?a) AS ?hi) (COUNT(?a) AS ?n)
        WHERE { ?o placed_by ?c . ?o amount ?a . } GROUP BY ?c
    """).to_pandas().set_index("c").sort_index()
    assert out.loc["alice", "total"] == 14.0
    assert out.loc["alice", "mean"] == 7.0
    assert out.loc["alice", "lo"] == "10"   # VARCHAR min: "10" < "4"
    assert out.loc["alice", "hi"] == "4"
    assert out.loc["alice", "n"] == 2
    assert out.loc["bob", "total"] == 7.0 and out.loc["bob", "n"] == 1


def test_aggregate_over_union():
    out = sparql_query(_ds(), """
        SELECT ?city (COUNT(?p) AS ?n) WHERE {
          { ?p lives_in ?city . } UNION { ?p knows ?q . ?q lives_in ?city . }
        } GROUP BY ?city
    """).to_pandas().set_index("city")
    # ghent: alice, bob (both branches agree after dedup); paris: carol
    assert out.loc["ghent", "n"] == 2 and out.loc["paris", "n"] == 1


def test_string_function_filters():
    out = _rows(sparql_query(_ds(), """
        SELECT ?p ?city WHERE {
          ?p lives_in ?city . FILTER(regex(?p, "^[ab]"))
        }
    """), ["p", "city"])
    assert out == {("alice", "ghent"), ("bob", "ghent")}

    out = _rows(sparql_query(_ds(), """
        SELECT ?p WHERE { ?p lives_in ?c . FILTER(CONTAINS(?c, "ent")) }
    """), ["p"])
    assert out == {("alice",), ("bob",)}

    out = _rows(sparql_query(_ds(), """
        SELECT ?p WHERE { ?p lives_in ?c . FILTER(STRSTARTS(?p, "car")) }
    """), ["p"])
    assert out == {("carol",)}

    out = _rows(sparql_query(_ds(), """
        SELECT ?p WHERE { ?p lives_in ?c . FILTER(STRENDS(?c, "ris")) }
    """), ["p"])
    assert out == {("carol",)}


def test_string_filter_needs_constant_pattern():
    with pytest.raises(SparqlSyntaxError):
        parse_sparql(
            'SELECT ?p WHERE { ?p knows ?q . FILTER(regex(?p, ?q)) }')


def _orders_ds():
    rows = []
    for c in range(4):
        for o in range(c + 1):
            oid = f"o{c}_{o}"
            rows.append((oid, "placed_by", f"cust{c}"))
            rows.append((oid, "amount", str(10 * (o + 1))))
            rows.append((oid, "tag", f"t{o % 2}"))
    s, p, o = zip(*rows)
    return ray.data.from_pandas(
        pd.DataFrame({"subj": s, "pred": p, "obj": o}))


def test_count_distinct_mixed_with_plain_aggs():
    """COUNT(DISTINCT ?v) rides its own (group, value)-distinct
    shuffle and hash_joins back onto the plain-aggregate result."""
    out = sparql_query(_orders_ds(), """
        SELECT ?c (COUNT(?o) AS ?n) (COUNT(DISTINCT ?t) AS ?nt)
               (SUM(?a) AS ?s)
        WHERE { ?o placed_by ?c . ?o amount ?a . ?o tag ?t . }
        GROUP BY ?c
    """).to_pandas().set_index("c").sort_index()
    # cust0 has 1 order (tag t0); cust3 has 4 orders but only 2 tags
    assert out.loc["cust0", "n"] == 1 and out.loc["cust0", "nt"] == 1
    assert out.loc["cust3", "n"] == 4 and out.loc["cust3", "nt"] == 2
    assert out.loc["cust3", "s"] == 100.0


def test_count_distinct_alone():
    out = sparql_query(_orders_ds(), """
        SELECT ?c (COUNT(DISTINCT ?t) AS ?nt)
        WHERE { ?o placed_by ?c . ?o tag ?t . } GROUP BY ?c
    """).to_pandas().set_index("c")
    assert out["nt"].to_dict() == {
        "cust0": 1, "cust1": 2, "cust2": 2, "cust3": 2}


def test_distinct_inside_non_count_raises():
    with pytest.raises(SparqlSyntaxError):
        parse_sparql("""
            SELECT ?c (SUM(DISTINCT ?a) AS ?s)
            WHERE { ?o placed_by ?c . ?o amount ?a . } GROUP BY ?c
        """)


def test_having_filters_groups():
    out = sparql_query(_orders_ds(), """
        SELECT ?c (COUNT(?o) AS ?n) WHERE { ?o placed_by ?c . }
        GROUP BY ?c HAVING(?n >= 2) ORDER BY ?c
    """).to_pandas()
    assert list(out["c"]) == ["cust1", "cust2", "cust3"]
    assert list(out["n"]) == [2, 3, 4]


def test_having_multiple_conditions():
    out = sparql_query(_orders_ds(), """
        SELECT ?c (COUNT(?o) AS ?n) (SUM(?a) AS ?s)
        WHERE { ?o placed_by ?c . ?o amount ?a . }
        GROUP BY ?c HAVING(?n >= 2) (?s < 100)
    """).to_pandas()
    assert set(out["c"]) == {"cust1", "cust2"}


def test_having_without_aggregates_raises():
    with pytest.raises(SparqlSyntaxError):
        sparql_query(_ds(), """
            SELECT ?p WHERE { ?p lives_in ?c . } HAVING(?p > "a")
        """)


def test_offset_and_limit_slice_after_sort():
    out = sparql_query(_orders_ds(), """
        SELECT ?o ?c WHERE { ?o placed_by ?c . }
        ORDER BY ?o LIMIT 3 OFFSET 2
    """).to_pandas()
    assert list(out["o"]) == ["o1_1", "o2_0", "o2_1"]
    # OFFSET before LIMIT parses too, same slice
    out2 = sparql_query(_orders_ds(), """
        SELECT ?o ?c WHERE { ?o placed_by ?c . }
        ORDER BY ?o OFFSET 2 LIMIT 3
    """).to_pandas()
    assert list(out2["o"]) == list(out["o"])


def test_offset_past_end_is_empty():
    out = sparql_query(_orders_ds(), """
        SELECT ?c WHERE { ?o placed_by ?c . } ORDER BY ?c OFFSET 999
    """).to_pandas()
    assert len(out) == 0


def test_sequence_path_expands_to_chained_patterns():
    q = parse_sparql("SELECT ?c ?k WHERE { ?c lives_in/in_country ?k . }")
    pats = q["group"]["patterns"]
    assert len(pats) == 2
    assert pats[0][:2] == ("?c", "lives_in")
    mid = pats[0][2]
    assert mid.startswith("?__seq")
    assert pats[1] == (mid, "in_country", "?k")


def test_sequence_path_end_to_end():
    out = _rows(sparql_query(_ds(), """
        SELECT ?c ?k WHERE { ?c lives_in/in_country ?k . }
    """), ["c", "k"])
    assert out == {("alice", "be"), ("bob", "be"), ("carol", "fr")}


def test_inverse_path_swaps_endpoints():
    out = _rows(sparql_query(_ds(), """
        SELECT ?p WHERE { "ghent" ^lives_in ?p . }
    """), ["p"])
    assert out == {("alice",), ("bob",)}


def test_inverse_inside_sequence():
    # co-residents: ?a lives_in ?city, ?city ^lives_in ?b (incl self)
    out = _rows(sparql_query(_ds(), """
        SELECT ?a ?b WHERE { ?a lives_in/^lives_in ?b . }
    """), ["a", "b"])
    assert ("alice", "bob") in out and ("bob", "alice") in out
    assert ("alice", "alice") in out          # identity pairs included
    assert ("alice", "carol") not in out      # different cities


def test_malformed_path_raises():
    with pytest.raises(SparqlSyntaxError):
        parse_sparql("SELECT ?a WHERE { ?a lives_in// ?b . }")
    with pytest.raises(SparqlSyntaxError):
        parse_sparql("SELECT ?a WHERE { ?a ^ ?b . }")


def test_iri_predicate_with_slash_is_not_a_path():
    q = parse_sparql(
        "SELECT ?a WHERE { ?a <http://ex.org/p> ?b . }")
    assert q["group"]["patterns"] == [("?a", "http://ex.org/p", "?b")]


def test_nested_plain_group_splices():
    out = _rows(sparql_query(_ds(), """
        SELECT ?c ?k WHERE {
          ?c lives_in ?city .
          { ?city in_country ?k . FILTER(?k = "be") }
        }
    """), ["c", "k"])
    assert out == {("alice", "be"), ("bob", "be")}


def test_nested_group_with_optional_raises():
    with pytest.raises(SparqlSyntaxError):
        parse_sparql("""
            SELECT ?c WHERE {
              ?c lives_in ?city .
              { ?city in_country ?k . OPTIONAL { ?c knows ?f . } }
            }
        """)


def test_bind_copies_and_constants():
    out = sparql_query(_ds(), """
        SELECT ?p ?alias ?tag WHERE {
          ?p lives_in ?city .
          BIND(?city AS ?alias)
          BIND("resident" AS ?tag)
        }
    """).to_pandas().sort_values("p").reset_index(drop=True)
    assert list(out.columns) == ["p", "alias", "tag"]
    assert list(out["alias"]) == ["ghent", "ghent", "paris"]
    assert set(out["tag"]) == {"resident"}


def test_bind_with_aggregates_raises():
    with pytest.raises(SparqlSyntaxError):
        sparql_query(_ds(), """
            SELECT ?city (COUNT(?p) AS ?n) WHERE {
              ?p lives_in ?city . BIND(?p AS ?q)
            } GROUP BY ?city
        """)
