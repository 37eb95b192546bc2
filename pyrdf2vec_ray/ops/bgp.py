"""SPARQL basic-graph-pattern (BGP) matching over a triples Dataset.

The reference engine's only query surface is a remote SPARQL endpoint
(`/root/reference/pyrdf2vec/connectors.py:89-134` — it ships the
per-entity hop query to a server and never evaluates patterns itself).
This module evaluates the core of SPARQL — a conjunctive set of triple
patterns with shared variables — *inside* the engine, directly over the
distributed triple set, so "what the endpoint answered" becomes a plain
Ray Data pipeline:

    bgp_match(triples, [("?c", "in_nation", "?n"),
                        ("?n", "in_region", "region:0")])
    -> Dataset[c, n]   (one row per SPARQL solution mapping)

Semantics (set algebra, matching SPARQL evaluation over a triple SET):

* a term starting with ``?`` is a variable; anything else is a constant
  matched by string equality,
* a pattern with a repeated variable (``?x p ?x``) matches only triples
  where those positions are equal,
* each pattern scan projects the triple set to its variable columns —
  because every non-variable position is pinned to a constant, the
  projection of distinct triples stays distinct, so NO per-pattern
  dedup shuffle is needed,
* patterns are combined by natural join on their shared variables;
  a natural join of sets is a set, so solutions come out distinct
  without a final dedup,
* ``select=[...]`` projects the solution set to a subset of variables
  WITH dedup (SPARQL ``SELECT DISTINCT`` semantics — plain bag
  projection would depend on join multiplicities that a set store
  does not define).

Scale shape: constants are pushed into the per-pattern scan (a
stateless vectorized ``map_batches`` filter over the triple stream —
at 100 TB this is the moment column/row pruning happens, one pass
shared by all patterns, pinned as one tagged set).  One more pass over
that pinned set yields the exact row count of every pattern scan, and
one after it collects every scan within ``ops/join.BROADCAST_ROWS``
rows to the driver.  Joins are then ADAPTIVE per hop (the AQE
strategy): a scan within the limit broadcasts into the still-lazy
accumulating solution set — a stateless merge fused into the chain's
map stage, no materialize and no shuffle.  Only a scan over the limit
stops the chain: one `ops/join.adaptive_join` materializes the
accumulating set and broadcasts it to every scan task while it fits,
else the hop is ONE int-bucket hash shuffle keyed on the shared
variables with schema hints keeping the chain single-execution.  Join
ORDER is chosen greedily — start at the most-constant (most selective)
pattern, then always extend with a pattern sharing at least one bound
variable, preferring fewer new variables — so intermediate results
shrink before they widen and no cartesian product is ever formed (a
disconnected BGP raises).  Skewed join variables inherit
`hash_join`'s bucket-count control via ``num_buckets``.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from pyrdf2vec_ray.ops.join import hash_join
from pyrdf2vec_ray.shuffle import distinct

_POS = ("subj", "pred", "obj")


def _is_var(term: str) -> bool:
    return isinstance(term, str) and term.startswith("?")


def _bgp_vars(patterns: list[tuple[str, str, str]]) -> list[str]:
    """Ordered-unique variable names across a pattern group."""
    out: list[str] = []
    for p in patterns:
        for t in p:
            if _is_var(t) and t[1:] not in out:
                out.append(t[1:])
    return out


def _path_relation(
    triples: ray.data.Dataset, pred: str, closure_rounds: int,
) -> ray.data.Dataset:
    """SPARQL 1.1 property-path relation for a ``p+`` / ``(p1|p2)+``
    predicate term — the transitive closure (path length ≥ 1) of the
    union of the named predicates' edges — or the ``p*`` / ``(p1|p2)*``
    zero-or-more form: the same closure UNIONED with the identity
    relation over every graph node (SPARQL's zero-length path binds
    ``?x = ?y`` for each term in the graph; restricting to the triple
    set's subj ∪ obj values is the standard store behavior).  Returned
    as a ``(subj, obj)`` Dataset.  Rides
    :func:`ops.graph.transitive_closure` (path doubling — O(log
    diameter) exchanges); ``closure_rounds`` bounds covered path
    length at ``2^rounds`` (the documented bounded-depth contract).
    Endpoint constants filter AFTER the closure — correct for the
    hierarchy-shaped relations closure is for; seed-restricted
    expansion is `ops/graph.bfs_distances`.  Note the ``*`` identity
    side is NODE-scale — a star path over an unconstrained pattern
    carries every graph term, on any engine."""
    from pyrdf2vec_ray.ops.graph import transitive_closure

    star = pred.endswith("*")
    body = pred[:-1]
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    alts = [a for a in body.split("|") if a]
    if not alts:
        raise ValueError(f"empty property path {pred!r}")

    def base(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(batch["pred"], value_set=pa.array(alts))
        kept = batch.filter(mask)
        return pa.table({"subj": kept["subj"], "obj": kept["obj"]})

    edges = triples.map_batches(base, batch_format="pyarrow")
    closed = transitive_closure(edges, rounds=closure_rounds,
                                a_col="subj", b_col="obj")

    def back(batch: pa.Table) -> pa.Table:
        return pa.table({"subj": batch["src"], "obj": batch["dst"]})

    rel = closed.map_batches(back, batch_format="pyarrow")
    if not star:
        return rel

    def nodes(batch: pa.Table) -> pa.Table:
        both = pa.concat_arrays([batch["subj"].combine_chunks(),
                                 batch["obj"].combine_chunks()])
        return pa.table({"subj": both, "obj": both})

    ident = triples.map_batches(nodes, batch_format="pyarrow")
    # a cyclic graph puts (n, n) in the CLOSURE too — one pair-distinct
    # keeps the relation a set (the BGP join algebra's invariant)
    return distinct(rel.union(ident), ["subj", "obj"])


def _is_path(term: str) -> bool:
    return (isinstance(term, str) and not _is_var(term)
            and (term.endswith("+") or term.endswith("*")))


def _pattern_scan_rel(
    rel: ray.data.Dataset, pat2: tuple[str, str],
) -> tuple[ray.data.Dataset, list[str]]:
    """_pattern_scan over a binary (subj, obj) relation — the
    property-path case, where the predicate position is consumed by
    the closure."""
    cols = ("subj", "obj")
    consts = [(c, t) for c, t in zip(cols, pat2) if not _is_var(t)]
    var_first: dict[str, str] = {}
    eqs: list[tuple[str, str]] = []
    for c, t in zip(cols, pat2):
        if _is_var(t):
            name = t[1:]
            if not name:
                raise ValueError("empty variable name '?' in pattern")
            if name in var_first:
                eqs.append((var_first[name], c))
            else:
                var_first[name] = c
    if not var_first:
        raise ValueError(
            f"property-path pattern {pat2} has no variables")

    def scan(batch: pa.Table) -> pa.Table:
        mask = None
        for col, val in consts:
            m = pc.equal(batch[col], val)
            mask = m if mask is None else pc.and_(mask, m)
        for a, b in eqs:
            m = pc.equal(batch[a], batch[b])
            mask = m if mask is None else pc.and_(mask, m)
        if mask is not None:
            batch = batch.filter(mask)
        return pa.table(
            {name: batch[col] for name, col in var_first.items()})

    return rel.map_batches(scan, batch_format="pyarrow"), list(var_first)


def _scan_spec(
    pat: tuple[str, str, str],
) -> tuple[list[tuple[str, str]], list[tuple[str, str]], list[str],
           list[str]]:
    """Parse one plain pattern: (constant (col, val) pins, repeated-
    variable (col, col) equalities, source columns per variable in
    first-occurrence order, variable names in the same order)."""
    consts = [(c, t) for c, t in zip(_POS, pat) if not _is_var(t)]
    var_first: dict[str, str] = {}  # var name -> first column holding it
    eqs: list[tuple[str, str]] = []  # same-var position pairs
    for c, t in zip(_POS, pat):
        if _is_var(t):
            name = t[1:]
            if not name:
                raise ValueError("empty variable name '?' in pattern")
            if name in var_first:
                eqs.append((var_first[name], c))
            else:
                var_first[name] = c
    if not var_first:
        raise ValueError(
            f"pattern {pat} has no variables; constant-only existence "
            "checks are not part of the BGP join (filter beforehand)")
    return consts, eqs, list(var_first.values()), list(var_first)


def _pattern_scan(
    triples: ray.data.Dataset, pat: tuple[str, str, str],
    closure_rounds: int = 6,
) -> tuple[ray.data.Dataset, list[str]]:
    """Filter the triple stream by the pattern's constants (and repeated-
    variable equalities), then project/rename to its variable columns.
    A predicate ``p+`` / ``(p1|p2)+`` swaps the triple stream for the
    property-path closure relation first.  Returns
    (scan, var_names-in-column-order).

    This is the SINGLE-pattern form (used for property paths and as a
    building block); a multi-pattern BGP goes through
    :func:`_multiplex_scans` so the corpus is read ONCE, not once per
    pattern."""
    if _is_path(pat[1]):
        rel = _path_relation(triples, pat[1], closure_rounds)
        return _pattern_scan_rel(rel, (pat[0], pat[2]))
    consts, eqs, cols, names = _scan_spec(pat)

    def scan(batch: pa.Table) -> pa.Table:
        mask = None
        for col, val in consts:
            m = pc.equal(batch[col], val)
            mask = m if mask is None else pc.and_(mask, m)
        for a, b in eqs:
            m = pc.equal(batch[a], batch[b])
            mask = m if mask is None else pc.and_(mask, m)
        if mask is not None:
            batch = batch.filter(mask)
        return pa.table(
            {name: batch[col] for name, col in zip(names, cols)})

    return (
        triples.map_batches(scan, batch_format="pyarrow"),
        list(names),
    )


def _multiplex_scans(
    triples: ray.data.Dataset,
    pats: list[tuple[str, str, str]],
) -> list[tuple[ray.data.Dataset, list[str], pa.Table | None]]:
    """ONE shared pass over the triple stream evaluating EVERY plain
    pattern's mask per batch (VERDICT r4 item 1: an N-pattern BGP must
    not read the corpus N times).  Each batch emits tagged rows
    ``(pid, v0, v1, v2)`` — the pattern id plus its projected variable
    values in positional slots — for all patterns at once; the tagged
    union is MATERIALIZED (pinned), so the per-pattern streams, and
    every AQE re-execution of them during the adaptive join chain, are
    cheap pid-filters over the PRUNED tagged set, never corpus
    re-scans.

    Returns ``(scan, var_names, local)`` per pattern.  ``local`` is the
    scan's rows as a driver-side Arrow table when the scan holds at most
    ``ops/join.BROADCAST_ROWS`` rows (``None`` otherwise): one pass over
    the pinned set counts every pattern's rows, and one more collects
    all the small scans at once, so a broadcast hop costs no job of its
    own.

    Scale note: the pinned tagged set is Σ per-pattern selectivities —
    for the constant-pinned patterns real queries are made of it is a
    small fraction of the corpus (and it spills via the object store
    if not; an unpinned ``?s ?p ?o`` pattern is corpus-sized on any
    engine)."""
    from pyrdf2vec_ray.ops import join
    from pyrdf2vec_ray.util import to_table

    if not pats:
        return []
    specs = [_scan_spec(p) for p in pats]
    slots = ("v0", "v1", "v2")

    def scan_all(batch: pa.Table) -> pa.Table:
        stype = batch.column("subj").type
        parts = []
        for pid, (consts, eqs, cols, _names) in enumerate(specs):
            mask = None
            for col, val in consts:
                m = pc.equal(batch[col], val)
                mask = m if mask is None else pc.and_(mask, m)
            for a, b in eqs:
                m = pc.equal(batch[a], batch[b])
                mask = m if mask is None else pc.and_(mask, m)
            kept = batch.filter(mask) if mask is not None else batch
            n = kept.num_rows
            data: dict = {"pid": pa.array(
                np.full(n, pid, dtype=np.int32))}
            for i, slot in enumerate(slots):
                if i < len(cols):
                    data[slot] = kept[cols[i]]
                else:
                    data[slot] = pa.nulls(n, stype)
            parts.append(pa.table(data))
        return pa.concat_tables(parts)

    tagged = triples.map_batches(
        scan_all, batch_format="pyarrow").materialize()

    def pid_counts(batch: pa.Table) -> pa.Table:
        n = np.bincount(batch["pid"].to_numpy(), minlength=len(specs))
        return pa.table({"n": n.astype(np.int64)})

    counts = np.zeros(len(specs), dtype=np.int64)
    per_batch = to_table(tagged.map_batches(
        pid_counts, batch_format="pyarrow"))
    if per_batch.num_rows:
        counts = per_batch["n"].to_numpy().reshape(
            -1, len(specs)).sum(axis=0)
    # the sizes are known, so the broadcast rule applies to them as is
    small = {pid for pid, n in enumerate(counts)
             if n <= join.BROADCAST_ROWS}
    wanted = pa.array([p for p in small if counts[p]], pa.int32())
    if len(wanted):
        def pick(batch: pa.Table) -> pa.Table:
            return batch.filter(
                pc.is_in(batch["pid"], value_set=wanted))

        got = to_table(tagged.map_batches(
            pick, batch_format="pyarrow"))

    out: list[tuple[ray.data.Dataset, list[str], pa.Table | None]]
    out = []
    for pid, (_c, _e, _cols, names) in enumerate(specs):
        def make(pid: int = pid, names: tuple = tuple(names)):
            def proj(batch: pa.Table) -> pa.Table:
                kept = batch.filter(
                    pc.equal(batch["pid"], pa.scalar(pid, pa.int32())))
                return pa.table(
                    {nm: kept[slots[i]]
                     for i, nm in enumerate(names)})
            return proj

        local = None
        if pid in small:
            local = (make()(got) if counts[pid] else
                     pa.table({nm: pa.array([], pa.string())
                               for nm in names}))
        out.append((tagged.map_batches(make(), batch_format="pyarrow"),
                    list(names), local))
    return out


_FILTER_OPS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

# SPARQL string-function filters (regex is an unanchored SEARCH, like
# DuckDB regexp_matches); constant rhs only — these run as vectorized
# pandas str kernels, and a variable rhs would force a per-row loop
_FILTER_STR_FUNCS = {
    "regex": lambda a, b: a.str.contains(b, regex=True, na=False),
    "contains": lambda a, b: a.str.contains(b, regex=False, na=False),
    "strstarts": lambda a, b: a.str.startswith(b, na=False),
    "strends": lambda a, b: a.str.endswith(b, na=False),
}
_FILTER_OPS.update(_FILTER_STR_FUNCS)


def _eval_group(
    scans: list[tuple[ray.data.Dataset, list[str], pa.Table | None]],
    patterns: list[tuple[str, str, str]],
    num_buckets: int | None,
) -> tuple[ray.data.Dataset, list[str]]:
    """Join a pattern group's pre-built scans into its solution set:
    greedy left-deep order (seed at the most-constant pattern, always
    extend across a shared variable, fewest new vars first — so
    intermediates shrink before they widen and no cartesian product is
    formed), each hop adaptive (AQE): a scan with a driver-side
    ``local`` table (within ``ops/join.BROADCAST_ROWS``, see
    :func:`_multiplex_scans`) broadcasts into the lazy accumulating
    solutions; past it, one ``ops/join.adaptive_join`` broadcasts the
    accumulating solutions while small, else hash-shuffles.  Returns
    (solutions, var-column names)."""
    from pyrdf2vec_ray.ops.join import adaptive_join, broadcast_join

    if not scans:
        raise ValueError("empty BGP")
    n_const = [sum(not _is_var(t) for t in p) for p in patterns]
    order = [max(range(len(scans)),
                 key=lambda i: (n_const[i], -len(scans[i][1])))]
    done = {order[0]}
    bound = set(scans[order[0]][1])
    while len(done) < len(scans):
        cands = [i for i in range(len(scans)) if i not in done
                 and bound & set(scans[i][1])]
        if not cands:
            missing = [patterns[i] for i in range(len(scans))
                       if i not in done]
            raise ValueError(
                f"disconnected BGP: {missing} share no variable with "
                "the rest; evaluate the components separately")
        nxt = min(cands, key=lambda i: (len(set(scans[i][1]) - bound),
                                        -n_const[i]))
        order.append(nxt)
        done.add(nxt)
        bound |= set(scans[nxt][1])

    o = np.dtype("O")
    acc, acc_vars, _ = scans[order[0]]
    for i in order[1:]:
        scan, svars, local = scans[i]
        on = [v for v in acc_vars if v in svars]
        if local is not None:
            # the scan's size is known and small: ship it to every
            # task of the accumulating chain, which stays lazy — the
            # hop fuses into the chain's map stage
            acc = broadcast_join(acc, local, on=on)
            acc_vars = (list(acc_vars)
                        + [v for v in svars if v not in acc_vars])
            continue
        # a large (or unsized property-path) scan: the accumulating
        # solutions broadcast to it while small, else ONE
        # co-partitioning hash shuffle.  Re-executing `scan` is a
        # pid-filter over the PINNED multiplexed tagged set (see
        # _multiplex_scans), not a corpus re-scan.
        acc = adaptive_join(scan, acc, on=on, num_buckets=num_buckets,
                            lschema={v: o for v in svars})
        acc_vars = list(svars) + [v for v in acc_vars if v not in svars]
    return acc, list(acc_vars)


def bgp_match(
    triples: ray.data.Dataset,
    patterns: list[tuple[str, str, str]],
    select: list[str] | None = None,
    optional: list[list[tuple[str, str, str]]] | None = None,
    filters: list[tuple[str, str, str]] | None = None,
    minus: list[list[tuple[str, str, str]]] | None = None,
    values: dict[str, list[str]] | None = None,
    exists: list[list[tuple[str, str, str]]] | None = None,
    not_exists: list[list[tuple[str, str, str]]] | None = None,
    values_rows: list[tuple[list[str], list[tuple]]] | None = None,
    unbound: str = "",
    closure_rounds: int = 6,
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Evaluate a conjunctive triple-pattern query (SPARQL BGP) over a
    deduplicated ``(subj, pred, obj)`` Dataset.  Output: one string
    column per distinct variable (without the ``?``), one row per
    solution mapping.  See the module docstring for semantics and the
    distributed plan.

    Extensions beyond the plain BGP:

    * ``filters=[("c", "!=", "customer:1"), ("a", "<", "?b"), ...]`` —
      SPARQL FILTER on bound variables; a value starting with ``?``
      compares against another variable, anything else is a string
      constant.  Applied as a vectorized row filter right after the
      mandatory joins (before OPTIONAL, matching SPARQL's
      group-then-extend evaluation order when the filter only touches
      mandatory variables — filters over OPTIONAL vars are not
      supported and raise).
    * ``optional=[[pattern, ...], ...]`` — SPARQL OPTIONAL groups: each
      group is evaluated as its own sub-BGP and LEFT-joined on the
      variables it shares with the mandatory part (≥1 required —
      SPARQL's unshared-OPTIONAL cartesian case raises).  Rows with no
      match keep the mandatory binding and fill the group's new
      variables with ``unbound`` (default ``""``) instead of NULL, so
      the output schema stays closed and null-free — the documented
      deviation from SPARQL's unbound-slot representation (oracle:
      ``coalesce(col, '')``).  A group may also be a dict
      ``{"patterns": [...], "filters": [...]}`` — the filters apply to
      the group's OWN solution set BEFORE the left join (SPARQL's
      filter-inside-OPTIONAL evaluation: a row failing the filter
      counts as no match, so the mandatory binding survives with
      unbound fills); filter variables must be bound by the group's
      patterns.
    * ``minus=[[pattern, ...], ...]`` — SPARQL MINUS groups: drop every
      solution for which the group's sub-BGP has at least one match on
      the shared variables (a key-bucket ANTI-join; ≥1 shared variable
      required — SPARQL's disjoint-domain MINUS no-op case raises
      instead of silently keeping everything).  Applied after filters,
      before OPTIONAL.
    * ``exists=[[pattern, ...], ...]`` / ``not_exists=[...]`` — SPARQL
      ``FILTER EXISTS { ... }`` / ``FILTER NOT EXISTS { ... }`` groups:
      keep (resp. drop) every solution for which the group's sub-BGP
      has at least one match on the shared variables — a key-bucket
      SEMI-join (resp. ANTI-join) against the sub-BGP's DISTINCT
      shared-variable keys, exactly the MINUS machinery with the
      polarity flipped (for this engine's null-free solution sets
      NOT EXISTS and MINUS coincide when ≥1 variable is shared — the
      SPARQL cases where they differ, unshared domains and unbound
      correlation, both raise here).  Applied after ``filters``,
      alongside MINUS, before OPTIONAL; the groups' plain patterns
      ride the same ONE multiplexed corpus scan.
    * ``values={"c": ["customer:1", ...], ...}`` — SPARQL VALUES with
      per-variable independent value lists (the parameterized-query
      form: "run this pattern for THESE entities"); a vectorized isin
      filter on the mandatory solution, the value set broadcast by
      closure (caller-bounded — it is inline query data, not corpus
      data).
    * ``values_rows=[(["c", "n"], [("customer:1", "nation:3"), ...]),
      ...]`` — SPARQL's correlated multi-variable VALUES: each entry
      is an inline SOLUTION TABLE inner-joined on its variable tuple
      (distinct rows broadcast once, stateless per-batch merge — zero
      exchanges; the single-variable ``values`` form stays the cheaper
      isin mask)."""
    if not patterns:
        raise ValueError("empty BGP")
    # normalize sub-groups: each may be a plain pattern list or a
    # dict with group-local filters applied to the SUB-solutions
    # before the group's join (left join for OPTIONAL, key
    # semi/anti-join for MINUS / [NOT] EXISTS)
    def _norm(gs):
        out: list[tuple[list, list]] = []
        for g in (gs or []):
            if isinstance(g, dict):
                out.append((list(g["patterns"]),
                            list(g.get("filters") or [])))
            else:
                out.append((list(g), []))
        return out

    opt_norm = _norm(optional)
    minus_norm = _norm(minus)
    exists_norm = _norm(exists)
    notex_norm = _norm(not_exists)
    # ONE multiplexed corpus pass covering the mandatory patterns AND
    # every MINUS / OPTIONAL group's plain patterns — property-path
    # patterns ride their own closure relation and can't share it
    groups: list[list[tuple[str, str, str]]] = (
        [list(patterns)]
        + [p for p, _f in minus_norm]
        + [p for p, _f in exists_norm]
        + [p for p, _f in notex_norm]
        + [p for p, _f in opt_norm])
    plain = [(gi, pi) for gi, g in enumerate(groups)
             for pi, p in enumerate(g) if not _is_path(p[1])]
    mux = _multiplex_scans(
        triples, [groups[gi][pi] for gi, pi in plain])
    scan_map = dict(zip(plain, mux))
    for gi, g in enumerate(groups):
        for pi, p in enumerate(g):
            if _is_path(p[1]):
                scan_map[(gi, pi)] = (
                    *_pattern_scan(triples, p, closure_rounds), None)

    def group_scans(gi: int) -> list:
        return [scan_map[(gi, pi)] for pi in range(len(groups[gi]))]

    acc, acc_vars = _eval_group(group_scans(0), patterns, num_buckets)

    if values:
        for var in values:
            if var not in acc_vars:
                raise ValueError(
                    f"VALUES variable {var!r} not bound by the "
                    f"mandatory patterns {sorted(acc_vars)}")
        vsets = {var: frozenset(vals) for var, vals in values.items()}

        def apply_values(batch, _v=vsets):
            mask = None
            for var, vals in _v.items():
                m = batch[var].isin(vals)
                mask = m if mask is None else (mask & m)
            return batch[mask]

        acc = acc.map_batches(apply_values, batch_format="pandas")

    for vars_, rows in (values_rows or []):
        # correlated VALUES: an inline SOLUTION TABLE inner-joined on
        # its variable tuple — SPARQL's multi-variable VALUES rows
        # ("run this pattern for THESE (entity, type) pairs").  The
        # inline table is query text, bounded by construction: its
        # distinct rows broadcast (`ray.put` once) and the join is a
        # stateless per-batch merge — zero exchanges.
        missing = [v for v in vars_ if v not in acc_vars]
        if missing:
            raise ValueError(
                f"VALUES variables {missing} not bound by the "
                f"mandatory patterns {sorted(acc_vars)}")
        import pandas as pd

        from pyrdf2vec_ray.ops.join import broadcast_join

        tbl = pd.DataFrame(rows, columns=list(vars_)) \
            .drop_duplicates().reset_index(drop=True)
        acc = broadcast_join(acc, ray.data.from_pandas(tbl),
                             on=list(vars_))

    if filters:
        for var, op, rhs in filters:
            if op not in _FILTER_OPS:
                raise ValueError(f"unsupported filter op {op!r}")
            if op in _FILTER_STR_FUNCS and _is_var(rhs):
                raise ValueError(
                    f"string filter {op!r} needs a constant pattern, "
                    f"got variable {rhs!r}")
            if var not in acc_vars:
                raise ValueError(
                    f"filter variable {var!r} not bound by the "
                    f"mandatory patterns {sorted(acc_vars)}")
            if _is_var(rhs) and rhs[1:] not in acc_vars:
                raise ValueError(
                    f"filter rhs {rhs!r} not bound by the mandatory "
                    f"patterns {sorted(acc_vars)}")

        def apply_filters(batch, _filters=list(filters)):
            mask = None
            for var, op, rhs in _filters:
                rv = batch[rhs[1:]] if _is_var(rhs) else rhs
                m = _FILTER_OPS[op](batch[var], rv)
                mask = m if mask is None else (mask & m)
            return batch[mask]

        acc = acc.map_batches(apply_filters, batch_format="pandas")

    o = np.dtype("O")
    semi_groups = (
        [(p, f, True, "MINUS") for p, f in minus_norm]
        + [(p, f, False, "FILTER EXISTS") for p, f in exists_norm]
        + [(p, f, True, "FILTER NOT EXISTS") for p, f in notex_norm])
    for gi, (group, gfilters, anti, kind) in enumerate(
            semi_groups, start=1):
        sub, _ = _eval_group(group_scans(gi), group, num_buckets)
        sub_vars = _bgp_vars(group)
        if gfilters:
            # group-local filters prune the SUB-solutions before the
            # key set distincts — MINUS { ... FILTER } / EXISTS with
            # an inner FILTER
            for var, op, rhs in gfilters:
                if op not in _FILTER_OPS:
                    raise ValueError(f"unsupported filter op {op!r}")
                if var not in sub_vars:
                    raise ValueError(
                        f"{kind} filter variable {var!r} not bound "
                        f"by the group's patterns {sorted(sub_vars)}")
                if _is_var(rhs) and rhs[1:] not in sub_vars:
                    raise ValueError(
                        f"{kind} filter rhs {rhs!r} not bound by "
                        f"the group's patterns {sorted(sub_vars)}")

            def apply_sub_filters(batch, _filters=list(gfilters)):
                mask = None
                for var, op, rhs in _filters:
                    rv = batch[rhs[1:]] if _is_var(rhs) else rhs
                    m = _FILTER_OPS[op](batch[var], rv)
                    mask = m if mask is None else (mask & m)
                return batch[mask]

            sub = sub.map_batches(apply_sub_filters,
                                  batch_format="pandas")
        on = [v for v in acc_vars if v in sub_vars]
        if not on:
            raise ValueError(
                f"{kind} group {group} shares no variable with the "
                "mandatory patterns (SPARQL's unshared-domain case "
                "— pass the shared variable or drop the group)")
        from pyrdf2vec_ray.ops.join import hash_semi_join

        keys = distinct(sub.select_columns(on), on,
                        num_buckets=num_buckets)
        acc = hash_semi_join(
            acc, keys, on=on, anti=anti, num_buckets=num_buckets,
            lschema={v: o for v in acc_vars},
            rschema={v: o for v in on})

    for gi, (group, gfilters) in enumerate(
            opt_norm, start=1 + len(semi_groups)):
        sub, _ = _eval_group(group_scans(gi), group, num_buckets)
        sub_vars = _bgp_vars(group)
        if gfilters:
            # filter-inside-OPTIONAL: applies to the group's OWN
            # solutions BEFORE the left join — a filtered-out row is
            # "no match", the mandatory binding survives unbound
            for var, op, rhs in gfilters:
                if op not in _FILTER_OPS:
                    raise ValueError(f"unsupported filter op {op!r}")
                if var not in sub_vars:
                    raise ValueError(
                        f"OPTIONAL filter variable {var!r} not bound "
                        f"by the group's patterns {sorted(sub_vars)}")
                if _is_var(rhs) and rhs[1:] not in sub_vars:
                    raise ValueError(
                        f"OPTIONAL filter rhs {rhs!r} not bound by "
                        f"the group's patterns {sorted(sub_vars)}")

            def apply_gfilters(batch, _filters=list(gfilters)):
                mask = None
                for var, op, rhs in _filters:
                    rv = batch[rhs[1:]] if _is_var(rhs) else rhs
                    m = _FILTER_OPS[op](batch[var], rv)
                    mask = m if mask is None else (mask & m)
                return batch[mask]

            sub = sub.map_batches(apply_gfilters,
                                  batch_format="pandas")
        on = [v for v in acc_vars if v in sub_vars]
        if not on:
            raise ValueError(
                f"OPTIONAL group {group} shares no variable with the "
                "mandatory patterns")
        new = [v for v in sub_vars if v not in on]
        acc = hash_join(acc, sub, on=on, how="left",
                        num_buckets=num_buckets,
                        lschema={v: o for v in acc_vars},
                        rschema={v: o for v in sub_vars})
        acc_vars = (on + [v for v in acc_vars if v not in on] + new)
        if new:
            def fill(batch, _new=list(new), _u=unbound):
                batch = batch.copy()
                for c in _new:
                    batch[c] = batch[c].fillna(_u)
                return batch

            acc = acc.map_batches(fill, batch_format="pandas")

    if select is not None:
        unknown = [v for v in select if v not in acc_vars]
        if unknown:
            raise ValueError(f"select vars {unknown} not in BGP vars "
                             f"{sorted(acc_vars)}")
        acc = distinct(acc.select_columns(select), select,
                       num_buckets=num_buckets)
    return acc


def bgp_construct(
    triples: ray.data.Dataset,
    patterns: list[tuple[str, str, str]],
    template: tuple[str, str, str],
    num_buckets: int | None = None,
    **match_kwargs,
) -> ray.data.Dataset:
    """SPARQL CONSTRUCT: evaluate the pattern group (full
    :func:`bgp_match` algebra — FILTER/OPTIONAL/MINUS pass through) and
    instantiate one NEW ``(subj, pred, obj)`` triple per solution from
    ``template`` (each term a ``?var`` bound by the group or a
    constant), deduplicated — deriving edges is how a BGP engine feeds
    KG construction ("customer buys_from supplier" from the
    order-part-supplier cycle) rather than just answering queries.

    Scale shape: a stateless vectorized projection over the solution
    stream + ONE distinct shuffle on the produced triple (the output
    is derived-edge-sized).  Templates whose variables don't cover the
    solution's distinguishing vars simply dedup harder."""
    for t in template:
        if _is_var(t) and not t[1:]:
            raise ValueError("empty variable name '?' in template")
    sols = bgp_match(triples, patterns, num_buckets=num_buckets,
                     **match_kwargs)
    tvars = [t[1:] for t in template if _is_var(t)]
    sol_vars = set(_bgp_vars(patterns))
    for g in match_kwargs.get("optional") or []:
        sol_vars |= set(_bgp_vars(
            g["patterns"] if isinstance(g, dict) else g))
    missing = [v for v in tvars if v not in sol_vars]
    if missing:
        raise ValueError(f"template vars {missing} not bound by the "
                         "pattern group")

    def instantiate(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = {}
        for name, term in zip(("subj", "pred", "obj"), template):
            if _is_var(term):
                cols[name] = batch[term[1:]]
            else:
                cols[name] = pa.array([term] * n, type=pa.string())
        return pa.table(cols)

    derived = sols.map_batches(instantiate, batch_format="pyarrow")
    return distinct(derived, ["subj", "pred", "obj"],
                    num_buckets=num_buckets)


def bgp_describe(
    triples: ray.data.Dataset,
    patterns: list[tuple[str, str, str]],
    var: str,
    num_buckets: int | None = None,
    **match_kwargs,
) -> ray.data.Dataset:
    """SPARQL DESCRIBE: every triple whose subject OR object is a
    binding of ``var`` in the pattern group's solutions — the
    "give me the subgraph around these resources" form.  The binding
    set stays distributed: two key-bucket SEMI-joins (subject side,
    object side) against the distinct bindings, then one triple
    distinct — no driver collection of the described set, so
    describing a million resources is the same plan as describing
    five."""
    from pyrdf2vec_ray.ops.join import hash_semi_join

    sols = bgp_match(triples, patterns, num_buckets=num_buckets,
                     **match_kwargs)
    if var not in _bgp_vars(patterns):
        raise ValueError(f"DESCRIBE var {var!r} not bound by the "
                         "pattern group")
    o = np.dtype("O")
    binds = distinct(sols.select_columns([var]), [var],
                     num_buckets=num_buckets)

    def as_col(name):
        def fn(batch: pa.Table) -> pa.Table:
            return pa.table({name: batch[var]})
        return fn

    tri_schema = {"subj": o, "pred": o, "obj": o}
    by_subj = hash_semi_join(
        triples, binds.map_batches(as_col("subj"),
                                   batch_format="pyarrow"),
        on=["subj"], num_buckets=num_buckets,
        lschema=tri_schema, rschema={"subj": o})
    by_obj = hash_semi_join(
        triples, binds.map_batches(as_col("obj"),
                                   batch_format="pyarrow"),
        on=["obj"], num_buckets=num_buckets,
        lschema=tri_schema, rschema={"obj": o})
    both = by_subj.union(by_obj.select_columns(["subj", "pred", "obj"]))
    return distinct(both, ["subj", "pred", "obj"],
                    num_buckets=num_buckets)
