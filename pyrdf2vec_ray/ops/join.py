"""General distributed equi-join — the relational primitive Ray Data's
Dataset API lacks (2.49 has no ``Dataset.join``), promoted to a
first-class operator from the co-partitioning pattern used by the
near-dup verifier (ops/dedup.verify_jaccard) and the as-of/interval
joins (ops/events).

Shape: tag each side, union (with TYPED zero fillers so both sides
carry identical column dtypes through the union — mixed-dtype pandas
unions crash Ray's block builder), ONE int-bucket shuffle on the key
columns, then a vectorized ``pandas.merge`` per bucket.  All rows of a
key co-locate, so per-bucket merges compose to the exact global join.

Skew: a hot key's rows all land in one bucket — the usual contract
(callers salt hot keys or pre-aggregate; see shuffle.py docstring).
When one side is small a broadcast join is the right call: one rule,
:data:`BROADCAST_ROWS` checked by :func:`small_table`, picks between
the two, and :func:`adaptive_join` applies it.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from pyrdf2vec_ray.shuffle import bucket_apply


def _np_dtypes(schema) -> dict:
    """column -> numpy dtype, from either an Arrow schema or Ray's
    PandasBlockSchema (whose .types are already numpy dtypes)."""
    out = {}
    for name, t in zip(schema.names, schema.types):
        if isinstance(t, pa.DataType):
            out[name] = np.dtype(t.to_pandas_dtype())
        else:
            out[name] = np.dtype(t)
    return out


def _dtypes_of(ds, hint) -> dict:
    """Schema hint resolution.  ``Dataset.schema()`` on a LAZY plan
    executes the upstream chain just to learn the columns — on a plan
    containing an all-to-all that is a full extra shuffle, and a chain
    of joins pays it at every hop.  Callers that know their columns
    pass ``hint`` as an ordered ``{col: numpy-dtype-like}`` dict (or a
    schema object) and the input stays lazy + single-execution."""
    if hint is None:
        return _np_dtypes(ds.schema())
    if isinstance(hint, dict):
        return {k: np.dtype(v) for k, v in hint.items()}
    return _np_dtypes(hint)


def _zeros(n: int, dt: np.dtype, index) -> pd.Series:
    if dt == np.dtype("O"):
        return pd.Series([""] * n, dtype=object, index=index)
    return pd.Series(np.zeros(n, dtype=dt), index=index)


def hash_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: list[str],
    how: str = "inner",
    rsuffix: str = "_r",
    num_buckets: int | None = None,
    lschema=None,
    rschema=None,
) -> ray.data.Dataset:
    """Equi-join ``left`` ⋈ ``right`` on the shared key columns ``on``.
    ``how`` ∈ {"inner", "left", "outer"}.  Non-key right columns
    colliding with left names get ``rsuffix``.  For ``how="left"``,
    unmatched right columns surface as pandas NA of the joined dtype
    (callers needing typed output fill them downstream); ``"outer"``
    (FULL OUTER) additionally keeps right rows with no left match, so
    BOTH sides' non-key columns go nullable — per-bucket correctness
    holds because co-partitioning puts every key's rows from both
    sides in one bucket, including the unmatched ones.  ``lschema``/``rschema`` are
    optional schema hints (ordered ``{col: dtype}``) — pass them when a
    side is a lazy shuffle chain so the join does not execute it just
    to read ``.schema()`` (see ``_dtypes_of``)."""
    if how not in ("inner", "left", "outer"):
        raise ValueError("how must be 'inner', 'left' or 'outer'")
    ldt_named = _dtypes_of(left, lschema)
    rdt_named = _dtypes_of(right, rschema)
    lcols = list(ldt_named)
    for key in on:
        if key not in lcols or key not in rdt_named:
            raise ValueError(f"join key {key!r} missing from a side")
    rmap = {
        c: (c + rsuffix if c in lcols and c not in on else c)
        for c in rdt_named
    }
    rcols = [rmap[c] for c in rdt_named if c not in on]
    l_extra = [c for c in lcols if c not in on]

    # typed fillers derived from each side's own dtypes, so the union
    # sees ONE schema (PandasBlockSchema equality is dtype-strict)
    ldt = ldt_named
    rdt = {rmap[c]: t for c, t in rdt_named.items()}

    def tag(side: str):
        def fn(batch: pd.DataFrame) -> pd.DataFrame:
            batch = batch.copy()
            if side == "r":
                batch = batch.rename(columns=rmap)
                for c in l_extra:
                    batch[c] = _zeros(len(batch), ldt[c], batch.index)
            else:
                for c in rcols:
                    batch[c] = _zeros(len(batch), rdt[c], batch.index)
            batch["_side"] = side == "l"
            return batch[on + l_extra + rcols + ["_side"]]

        return fn

    tagged = left.map_batches(tag("l"), batch_format="pandas").union(
        right.map_batches(tag("r"), batch_format="pandas")
    )

    # for how='left', unmatched rows surface right columns as nulls —
    # cast them to ONE nullable dtype per column in EVERY bucket, or
    # all-matched buckets would emit int64 blocks while buckets with
    # misses promote to float64 (dtype-strict block-schema hazard)
    # 'u' must map to UInt64: casting uint64 hash-style values >= 2^63
    # to Int64 raises (or corrupts via float promotion in miss buckets)
    _nullable = {"i": "Int64", "u": "UInt64", "f": "Float64", "b": "boolean"}

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        lb = g[g["_side"]][on + l_extra]
        rb = g[~g["_side"]][on + rcols]
        if how in ("left", "outer"):
            # cast BEFORE the merge: pandas promotes plain int/uint to
            # float64 when a bucket has unmatched rows, which both
            # splits the block schema across buckets AND silently
            # corrupts uint64 values >= 2^53 — nullable extension
            # dtypes merge without promotion
            rb = rb.copy()
            for c in rcols:
                ext = _nullable.get(np.dtype(rdt[c]).kind)
                if ext is not None:
                    rb[c] = rb[c].astype(ext)
        if how == "outer":
            # FULL OUTER also surfaces left misses — left non-key
            # columns need the same nullable treatment
            lb = lb.copy()
            for c in l_extra:
                ext = _nullable.get(np.dtype(ldt[c]).kind)
                if ext is not None:
                    lb[c] = lb[c].astype(ext)
        return lb.merge(rb, on=on, how=how)

    return bucket_apply(tagged, on, join_bucket,
                        num_buckets=num_buckets, batch_format="pandas")


def hash_semi_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: list[str],
    anti: bool = False,
    num_buckets: int | None = None,
    lschema=None,
    rschema=None,
) -> ray.data.Dataset:
    """Semi-join (``anti=False``: left rows WITH a key match in right)
    or anti-join (``anti=True``: left rows WITHOUT one), returning left
    columns only.  The scale path for filtering against a large key set
    — e.g. decontamination when the benchmark side outgrows the
    broadcast anti-join (ops/curate.decontaminate's contract): both
    sides shuffle once by key, no driver state at any size.

    Right is reduced to DISTINCT keys per batch BEFORE the shuffle (a
    semi-join never needs right's payload or multiplicity), so the
    right side of the exchange is bounded by its distinct-key count.
    ``lschema``/``rschema`` are optional schema hints as in
    :func:`hash_join`."""
    ldt = _dtypes_of(left, lschema)
    rnames = list(_dtypes_of(right, rschema))
    for key in on:
        if key not in ldt or key not in rnames:
            raise ValueError(f"join key {key!r} missing from a side")
    l_extra = [c for c in ldt if c not in on]

    def keys_only(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[on].drop_duplicates()

    def tag(side: str):
        def fn(batch: pd.DataFrame) -> pd.DataFrame:
            batch = batch.copy()
            if side == "r":
                for c in l_extra:
                    batch[c] = _zeros(len(batch), ldt[c], batch.index)
            batch["_side"] = side == "l"
            return batch[on + l_extra + ["_side"]]

        return fn

    tagged = left.map_batches(tag("l"), batch_format="pandas").union(
        right.map_batches(keys_only, batch_format="pandas")
        .map_batches(tag("r"), batch_format="pandas")
    )

    def filter_bucket(g: pd.DataFrame) -> pd.DataFrame:
        lb = g[g["_side"]][on + l_extra]
        rk = g[~g["_side"]][on].drop_duplicates()
        m = lb.merge(rk.assign(_hit=True), on=on, how="left")
        keep = m["_hit"].isna() if anti else m["_hit"].notna()
        return m[keep][on + l_extra]

    return bucket_apply(tagged, on, filter_bucket,
                        num_buckets=num_buckets, batch_format="pandas")


def broadcast_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: list[str],
    how: str = "inner",
    rsuffix: str = "_r",
) -> ray.data.Dataset:
    """Equi-join where ``right`` is SMALL (dimension-table scale): the
    right side is collected once, ``ray.put`` into the object store,
    and every left batch merges against the shared copy in a stateless
    map — ZERO shuffles, the strategy complement to :func:`hash_join`
    (both-sides-large, one co-partitioning exchange).  This is the
    same broadcast discipline as the entity-linker's candidate index
    (stages/link.CandidateIndex) promoted to a general join: use it
    when ``right`` fits comfortably in one worker's heap (dimension
    tables, fitted cut/stat tables), hash_join otherwise.

    The driver holds the right table exactly once (bounded by
    definition of "small side"); workers read the broadcast zero-copy
    from the object store, never per batch.  ``right`` may also be an
    Arrow table the caller already holds, which skips the collect
    job."""
    if how not in ("inner", "left"):
        raise ValueError("how must be 'inner' or 'left'")
    import ray

    from pyrdf2vec_ray.util import to_table

    rdf = (right if isinstance(right, pa.Table)
           else to_table(right)).to_pandas()
    for key in on:
        if key not in rdf.columns:
            raise ValueError(f"join key {key!r} missing from right")
    if how == "left":
        # same hazard hash_join.join_bucket guards: batches with
        # unmatched keys promote plain int/uint right columns to
        # float64 (splitting the block schema across batches AND
        # corrupting uint64 >= 2^53) — nullable extension dtypes
        # merge without promotion, so EVERY batch emits one schema
        _nullable = {"i": "Int64", "u": "UInt64", "f": "Float64",
                     "b": "boolean"}
        rdf = rdf.copy()
        for c in rdf.columns:
            if c in on:
                continue
            ext = _nullable.get(rdf[c].dtype.kind)
            if ext is not None:
                rdf[c] = rdf[c].astype(ext)
    ref = ray.put(rdf)

    def merge(batch: pd.DataFrame) -> pd.DataFrame:
        r = ray.get(ref)
        rmap = {c: (c + rsuffix if c in batch.columns and c not in on
                    else c) for c in r.columns}
        return batch.merge(r.rename(columns=rmap), on=on, how=how)

    return left.map_batches(merge, batch_format="pandas")


def diff_tables(
    a: ray.data.Dataset,
    b: ray.data.Dataset,
    key_cols: list[str],
    compare_cols: list[str],
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Snapshot diff: ``(key_cols..., status)`` for every key where the
    two tables disagree — ``'removed'`` (in a only), ``'added'`` (in b
    only), ``'changed'`` (in both, any ``compare_cols`` value differs).
    Unchanged keys are omitted, so the output is change-volume-sized.
    This is the validation complement of :func:`ops/dedup.upsert_latest`
    — after compacting yesterday's snapshot with today's change stream,
    diff the result against the source of truth (or two pipeline
    versions against each other) before promoting it.

    Contract: keys must be unique per side (snapshot semantics);
    ``compare_cols`` values are compared by equality with NaN == NaN
    (pandas isna on both sides).

    Scale shape: both sides project to key + compare columns, tag, and
    take ONE key-bucket shuffle; the per-bucket kernel is a vectorized
    outer merge + column compare.  No driver state, no broadcast — a
    full-outer join specialization whose output never exceeds the
    change volume."""
    cols = key_cols + compare_cols

    def tag(side: bool):
        def fn(batch: pd.DataFrame) -> pd.DataFrame:
            out = batch[cols].copy()
            out["_side"] = side
            return out
        return fn

    tagged = a.map_batches(tag(True), batch_format="pandas").union(
        b.map_batches(tag(False), batch_format="pandas"))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        la = g[g["_side"]][cols]
        lb = g[~g["_side"]][cols]
        m = la.merge(lb, on=key_cols, how="outer",
                     suffixes=("_a", "_b"), indicator=True)
        status = np.where(
            m["_merge"] == "left_only", "removed",
            np.where(m["_merge"] == "right_only", "added", "changed"))
        same = np.ones(len(m), dtype=bool)
        for c in compare_cols:
            ca, cb = m[c + "_a"], m[c + "_b"]
            same &= ((ca == cb) | (ca.isna() & cb.isna())).to_numpy()
        keep = (m["_merge"] != "both") | ~same
        out = m[keep][key_cols].reset_index(drop=True)
        out["status"] = status[keep.to_numpy()]
        return out

    return bucket_apply(tagged, key_cols, per_bucket,
                        num_buckets=num_buckets, batch_format="pandas")


BROADCAST_ROWS = 500_000
"""The one broadcast rule: a join side of at most this many rows ships
to every task of the other side (``ray.put`` once, a stateless map, no
exchange); a larger side goes through a hash shuffle."""


def small_table(ds: ray.data.Dataset) -> pa.Table | None:
    """A MATERIALIZED ``ds`` as one Arrow table when it holds at most
    :data:`BROADCAST_ROWS` rows, else ``None`` — the caller then takes
    its hash-shuffle path.  The row count of a materialized Dataset is
    block metadata, so the check runs no job."""
    if ds.count() > BROADCAST_ROWS:
        return None
    from pyrdf2vec_ray.util import to_table

    return to_table(ds)


def adaptive_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: list[str],
    how: str = "inner",
    num_buckets: int | None = None,
    lschema=None,
) -> ray.data.Dataset:
    """Equi-join (``how`` ∈ {"inner", "left"}) or semi/anti-join
    (``"semi"``/``"anti"``: left rows with/without a key match, left
    columns only) that picks its plan by :func:`small_table`: ``right``
    is materialized, and when it fits :data:`BROADCAST_ROWS` it ships
    once and ``left`` merges (or filters) against it in a stateless map
    — zero shuffles.  Otherwise the join is :func:`hash_join` /
    :func:`hash_semi_join`: both sides exchange once, no driver state.
    Pass the smaller side as ``right``; ``lschema`` is the schema hint
    of a lazy ``left`` (see :func:`_dtypes_of`).  Column order follows
    the plan: ``left``'s columns then ``right``'s when broadcast, the
    key columns first when hashed."""
    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError("how must be 'inner', 'left', 'semi' or 'anti'")
    semi = how in ("semi", "anti")
    if semi:
        # a semi-join needs right's keys only; one Arrow block type
        # also keeps Ray's block-type inference happy when the caller
        # unions pandas- and arrow-block Datasets
        def keys_of(batch: pa.Table) -> pa.Table:
            if batch.num_rows or set(on) <= set(batch.schema.names):
                return batch.select(on)
            # an EMPTY upstream reaches the UDF as a schema-less probe
            return pa.table({k: pa.array([], pa.string()) for k in on})

        right = right.map_batches(keys_of, batch_format="pyarrow")
    right = right.materialize()
    small = small_table(right)
    if small is None:
        if semi:
            return hash_semi_join(left, right, on=on, anti=how == "anti",
                                  num_buckets=num_buckets, lschema=lschema)
        return hash_join(left, right, on=on, how=how,
                         num_buckets=num_buckets, lschema=lschema)
    if not semi:
        return broadcast_join(left, small, on=on, how=how)
    keys = small.to_pandas()
    ref = ray.put(_key_index(keys, on) if len(keys) else pd.Index([]))

    def filt(batch: pd.DataFrame) -> pd.DataFrame:
        hit = _key_index(batch, on).isin(ray.get(ref))
        return batch[~hit] if how == "anti" else batch[hit]

    return left.map_batches(filt, batch_format="pandas")


def _key_index(df: pd.DataFrame, on: list[str]) -> pd.Index:
    return (pd.Index(df[on[0]]) if len(on) == 1
            else pd.MultiIndex.from_frame(df[on]))
