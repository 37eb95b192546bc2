"""Windowed aggregation over the `events` stream table.

Ray Data has no event-time windows (ray_guide.md "Streaming-shaped
workloads"): tumbling windows are expressed as a grouped aggregate on
(key, window_start) — partial per-batch combine, then one shuffle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data


def tumbling_window(
    events: ray.data.Dataset, freq: str = "h"
) -> ray.data.Dataset:
    """(user_id, window_start, n_events, sum_value): per-user tumbling
    window of `freq`; pre-aggregated inside map_batches before the
    groupby shuffle."""

    # single int64 shuffle key (user_id, window-start-epoch-seconds) packed
    # together: a one-key integer shuffle is far cheaper than an
    # (int, timestamp) multi-key sort
    M = 1 << 34  # epoch-second slots (covers ~year 2514); user_id < 2^29

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch[["user_id", "ts", "value"]].copy()
        # cast to seconds resolution first: raw int64 of a datetime column is
        # ns or us depending on the source, which would corrupt the packing
        slot = batch["ts"].dt.floor(freq).astype("datetime64[s]").astype("int64")
        batch["wkey"] = batch["user_id"].astype("int64") * M + slot
        g = (
            batch.groupby("wkey", as_index=False)
            .agg(n_events=("value", "size"), sum_value=("value", "sum"))
        )
        return g

    from pyrdf2vec_ray.shuffle import bucket_agg

    partials = events.map_batches(partial, batch_format="pandas", batch_size=65536)
    out = bucket_agg(
        partials, ["wkey"],
        {"n_events": ("n_events", "sum"), "sum_value": ("sum_value", "sum")},
        pre=False,
    )

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        wkey = batch["wkey"].astype("int64")
        return pd.DataFrame(
            {
                "user_id": wkey // M,
                # us resolution: matches the parquet/DuckDB timestamp unit so
                # value comparisons hash identically
                "window_start": pd.to_datetime(wkey % M, unit="s").astype(
                    "datetime64[us]"
                ),
                "n_events": batch["n_events"].astype("int64"),
                "sum_value": batch["sum_value"].astype("float64"),
            }
        )

    return out.map_batches(finish, batch_format="pandas")


def sessionize(
    events: ray.data.Dataset, gap_minutes: int = 30
) -> ray.data.Dataset:
    """Session windows per user: break a session when the within-user gap
    exceeds `gap_minutes`.  ONE int-bucket shuffle on user_id
    (shuffle.bucket_apply — Ray's sort-based groupby degrades with many
    group keys), then every user in the bucket is sessionized in a single
    vectorized pass: sort by (user, ts), a diff + boundary cumsum labels
    sessions across the whole bucket frame.  Partitioning assumption
    (documented): one user's events fit one bucket task's heap."""
    gap = pd.Timedelta(minutes=gap_minutes)

    from pyrdf2vec_ray.shuffle import bucket_apply

    def sessions_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts"], kind="mergesort")
        boundary = g["user_id"].ne(g["user_id"].shift()) | (g["ts"].diff() > gap)
        sid = boundary.cumsum()
        agg = g.groupby(sid).agg(
            user_id=("user_id", "first"),
            session_start=("ts", "min"),
            session_end=("ts", "max"),
            n_events=("ts", "size"),
        )
        return agg.reset_index(drop=True)[
            ["user_id", "session_start", "session_end", "n_events"]
        ]

    return bucket_apply(
        events, ["user_id"], sessions_bucket, num_buckets=None,
        batch_format="pandas",
    )


def session_paths(
    events: ray.data.Dataset,
    gap_minutes: int = 30,
    min_count: int = 1,
    sep: str = "->",
) -> ray.data.Dataset:
    """Session path mining: per-session ordered event-type sequences
    ("view->click->purchase") counted corpus-wide — the navigation-
    pattern summary a funnel analysis starts from (funnel() checks ONE
    fixed sequence; this surfaces which sequences exist).

    Shape: sessionize's user-bucket shuffle reused verbatim (sort by
    (user, ts, event_id) — the id tie-break makes equal-timestamp
    order engine-independent — gap boundary cumsum), then the bucket
    kernel emits PRE-COUNTED (path, n) partials and ONE path-keyed
    bucket_agg sums them; ``min_count`` prunes the long tail after
    the sum (the path vocabulary is corpus-sized in the worst case —
    the same contract as dedup_lines, never a broadcast)."""
    gap = pd.Timedelta(minutes=gap_minutes)

    from pyrdf2vec_ray.shuffle import bucket_agg, bucket_apply

    def paths_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"],
                          kind="mergesort")
        boundary = (g["user_id"].ne(g["user_id"].shift())
                    | (g["ts"].diff() > gap))
        sid = boundary.cumsum()
        paths = g.groupby(sid)["event_type"].agg(sep.join)
        counts = paths.value_counts()
        return pd.DataFrame({"path": counts.index.to_numpy(),
                             "n": counts.to_numpy().astype("int64")})

    partials = bucket_apply(events, ["user_id"], paths_bucket,
                            batch_format="pandas")
    summed = bucket_agg(partials, ["path"], {"n": ("n", "sum")})
    if min_count <= 1:
        return summed
    return summed.map_batches(
        lambda b: b[b["n"] >= min_count], batch_format="pandas")


def asof_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    by: str = "user_id",
    on: str = "ts",
    left_cols: tuple = ("event_id", "value"),
    right_cols: tuple = ("event_id", "value"),
    right_prefix: str = "r_",
    tolerance=None,
    lschema=None,
    rschema=None,
) -> ray.data.Dataset:
    """Distributed INNER as-of join: for every left row, the single
    right row with the same ``by`` key and the greatest ``on`` value
    <= the left row's (inclusive); left rows with no prior right row
    are dropped.  The operator Ray Data lacks and the task brief names;
    the time-attribution primitive ("which view preceded this click").
    ``tolerance`` (optional) bounds the lookback: a right row older
    than ``on − tolerance`` does not match (pass a ``pd.Timedelta``
    for datetime ``on`` columns, a plain number for numeric ones) —
    the marketing-attribution window.

    Shape: tag both sides, ONE co-partitioning bucket shuffle on ``by``
    (shuffle.bucket_apply), then a single ``pd.merge_asof`` (C-merge
    over the bucket frame sorted by ``on``) per bucket — no per-key
    Python loop.  Ties on (by, on) in the right side are broken
    deterministically: the row with the largest first right_col (the id)
    wins, and the right side is deduped to one row per (by, on) so the
    SQL oracle (DuckDB ASOF JOIN) is exact.  Partitioning assumption
    (as `sessionize`): one key's rows fit one bucket task."""
    import numpy as np

    from pyrdf2vec_ray.ops.join import _dtypes_of, _zeros
    from pyrdf2vec_ray.shuffle import bucket_apply

    # typed-filler tag-and-union (the hash_join pattern): each side
    # carries the OTHER side's payload columns as typed fillers under
    # distinct _l{i}/_r{i} names, so the union sees ONE schema even
    # when the two payload lists have different dtypes (e.g. a double
    # value on the left vs a string channel on the right)
    ldt = _dtypes_of(left, lschema)
    rdt = _dtypes_of(right, rschema)
    lpay = [(f"_l{i}", c) for i, c in enumerate(left_cols)]
    rpay = [(f"_r{i}", c) for i, c in enumerate(right_cols)]

    def tag(kind: int, own, other, other_dt):
        def fn(batch: pd.DataFrame) -> pd.DataFrame:
            out = pd.DataFrame(
                {by: batch[by].reset_index(drop=True),
                 on: batch[on].reset_index(drop=True),
                 "kind": np.int8(kind)}
            )
            for name, c in own:
                out[name] = batch[c].reset_index(drop=True)
            for name, c in other:
                out[name] = _zeros(len(out), other_dt[c], out.index)
            cols = ([by, on, "kind"] + [n for n, _ in lpay]
                    + [n for n, _ in rpay])
            return out[cols]

        return fn

    tagged = left.map_batches(
        tag(0, lpay, rpay, rdt), batch_format="pandas"
    ).union(right.map_batches(tag(1, rpay, lpay, ldt),
                              batch_format="pandas"))

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        lnames = [n for n, _ in lpay]
        rnames = [n for n, _ in rpay]
        l = g[g["kind"] == 0][[by, on] + lnames]
        r = g[g["kind"] == 1][[by, on] + rnames]
        # dedupe right to one row per (by, on): max id (first col) wins
        r = r.sort_values([by, on, rnames[0]], kind="mergesort")
        r = r.drop_duplicates([by, on], keep="last")
        l = l.sort_values(on, kind="mergesort")
        r = r.sort_values(on, kind="mergesort")
        m = pd.merge_asof(
            l, r, on=on, by=by, direction="backward", tolerance=tolerance,
        )
        m = m[m[rnames[0]].notna()]
        out = pd.DataFrame({by: m[by], on: m[on]})
        for name, c in lpay:
            out[c] = m[name]
        for name, c in rpay:
            v = m[name]
            if (pd.api.types.is_float_dtype(v)
                    and np.issubdtype(rdt[c], np.integer)):
                v = v.astype("int64")
            out[f"{right_prefix}{c}"] = v
        return out

    return bucket_apply(tagged, [by], join_bucket, batch_format="pandas")


def attribution(
    events: ray.data.Dataset,
    conversion_type: str = "purchase",
    touch_types: tuple = ("click", "view"),
    lookback=None,
    by: str = "user_id",
    on: str = "ts",
    type_col: str = "event_type",
    id_col: str = "event_id",
    value_col: str = "value",
) -> ray.data.Dataset:
    """Last-touch marketing attribution: every ``conversion_type``
    event is credited to the same user's most recent ``touch_types``
    event at-or-before it (optionally within a ``lookback`` window —
    a ``pd.Timedelta`` for datetime ``on``).  Pure composition: two
    pruned masks over ONE event pass feed :func:`asof_join` (one
    co-partitioning user-bucket shuffle, vectorized merge_asof per
    bucket); ties at the same timestamp break to the largest touch id,
    matching an ``ORDER BY ts DESC, id DESC LIMIT 1`` SQL oracle.
    Unattributed conversions (no touch in window) drop — inner
    semantics.  Output: (by, on, id_col, value_col,
    touch_<id_col>, channel).  A per-channel report is a group-scale
    ``bucket_agg`` over this (conversions are touch-bounded, so the
    rollup exchange is conversion-sized, never event-sized)."""
    import pyarrow.compute as pc

    def pick_conv(batch: "pa.Table") -> "pa.Table":
        return batch.filter(
            pc.equal(batch[type_col], conversion_type)
        ).select([by, on, id_col, value_col])

    def pick_touch(batch: "pa.Table") -> "pa.Table":
        return batch.filter(
            pc.is_in(batch[type_col],
                     value_set=pa.array(list(touch_types)))
        ).select([by, on, id_col, type_col])

    conv = events.map_batches(pick_conv, batch_format="pyarrow")
    touch = events.map_batches(pick_touch, batch_format="pyarrow")
    joined = asof_join(
        conv, touch, by=by, on=on,
        left_cols=(id_col, value_col),
        right_cols=(id_col, type_col),
        right_prefix="touch_", tolerance=lookback,
    )

    def rename(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.rename(columns={f"touch_{type_col}": "channel"})

    return joined.map_batches(rename, batch_format="pandas")


def json_extract_flat(
    ds: ray.data.Dataset,
    col: str = "props",
    keys: tuple = (("k", "int64"),),
    keep: tuple | None = None,
) -> ray.data.Dataset:
    """Vectorized FLAT-key JSON field extraction for machine-written
    JSON object columns (the events ``props`` shape, ``{"k": 69}``):
    each requested ``(key, dtype)`` compiles to ONE RE2-compatible
    regex ``str.extract`` per batch — never a per-row ``json.loads``
    loop.  Supported dtypes: "int64"/"float64" (numeric literals; →
    nullable Int64/Float64, missing = NA) and "str" (quoted values
    without escaped quotes — the documented subset; nested objects,
    arrays and escapes belong to a per-row UDF at per-row cost, which
    this operator deliberately is not).  ``keep`` limits the
    passthrough columns (default: all but ``col``).  Stateless and
    shuffle-free."""
    import re as _re

    extractors = []
    for key, dt in keys:
        esc = _re.escape(key)
        if dt in ("int64", "float64"):
            pat = f'"{esc}"\\s*:\\s*(-?[0-9][0-9.eE+-]*)'
        elif dt == "str":
            pat = f'"{esc}"\\s*:\\s*"([^"\\\\]*)"'
        else:
            raise ValueError(f"unsupported dtype {dt!r} for key {key!r}")
        extractors.append((key, dt, pat))

    def extract(batch: pd.DataFrame) -> pd.DataFrame:
        cols = list(batch.columns if keep is None else keep)
        out = batch[[c for c in cols if c != col]].copy()
        s = batch[col].astype(str)
        for key, dt, pat in extractors:
            v = s.str.extract(pat, expand=False)
            if dt == "int64":
                out[key] = pd.to_numeric(v).astype("Int64")
            elif dt == "float64":
                out[key] = pd.to_numeric(v).astype("Float64")
            else:
                out[key] = v
        return out

    return ds.map_batches(extract, batch_format="pandas")


def window_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    window,
    by: str = "user_id",
    on: str = "ts",
    left_cols: tuple = ("event_id",),
    right_cols: tuple = ("event_id",),
    right_prefix: str = "r_",
    lschema=None,
    rschema=None,
) -> ray.data.Dataset:
    """Symmetric stream-stream WINDOW join: every (l, r) pair sharing
    the ``by`` key with ``|l.on − r.on| ≤ window`` (inclusive both
    ends) — the third time-join primitive next to :func:`asof_join`
    (nearest single match at-or-before) and :func:`interval_join`
    (point-stabs-range).  ``window`` matches the ``on`` dtype
    (``pd.Timedelta`` for datetimes, a plain number otherwise).

    Shape: typed-filler tag-and-union, ONE ``by``-keyed co-partition
    bucket shuffle, then per bucket a vectorized searchsorted range
    sweep per left row (two binary searches into the (by, on)-sorted
    right frame + one repeat/arange expansion — no per-pair Python).
    Output volume = the true pair count; a hot key with dense
    timestamps produces quadratic pairs BY DEFINITION — callers bound
    ``window`` accordingly (the documented skew contract)."""
    import numpy as np

    from pyrdf2vec_ray.ops.join import _dtypes_of, _zeros
    from pyrdf2vec_ray.shuffle import bucket_apply

    ldt = _dtypes_of(left, lschema)
    rdt = _dtypes_of(right, rschema)
    lpay = [(f"_l{i}", c) for i, c in enumerate(left_cols)]
    rpay = [(f"_r{i}", c) for i, c in enumerate(right_cols)]
    if hasattr(window, "to_timedelta64"):  # pd.Timedelta → numpy
        window = window.to_timedelta64()

    def tag(kind: int, own, other, other_dt):
        def fn(batch: pd.DataFrame) -> pd.DataFrame:
            out = pd.DataFrame(
                {by: batch[by].reset_index(drop=True),
                 on: batch[on].reset_index(drop=True),
                 "kind": np.int8(kind)})
            for name, c in own:
                out[name] = batch[c].reset_index(drop=True)
            for name, c in other:
                out[name] = _zeros(len(out), other_dt[c], out.index)
            cols = ([by, on, "kind"] + [n for n, _ in lpay]
                    + [n for n, _ in rpay])
            return out[cols]

        return fn

    tagged = left.map_batches(
        tag(0, lpay, rpay, rdt), batch_format="pandas"
    ).union(right.map_batches(tag(1, rpay, lpay, ldt),
                              batch_format="pandas"))

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        lnames = [nm for nm, _ in lpay]
        rnames = [nm for nm, _ in rpay]
        l = g[g["kind"] == 0].sort_values(
            [by, on] + lnames, kind="mergesort")
        r = g[g["kind"] == 1].sort_values(
            [by, on] + rnames, kind="mergesort")
        if l.empty or r.empty:
            cols = {by: l[by][:0], on: l[on][:0], f"{right_prefix}{on}":
                    r[on][:0]}
            for nm, c in lpay:
                cols[c] = l[nm][:0]
            for nm, c in rpay:
                cols[f"{right_prefix}{c}"] = r[nm][:0]
            return pd.DataFrame(cols)
        # per-key offset spaces: both frames are (by, on)-sorted, so
        # key segments are contiguous ranges — one searchsorted pair
        # per key over ITS OWN slice (O(total rows), no boolean masks)
        keys = np.unique(np.concatenate(
            [l[by].to_numpy(), r[by].to_numpy()]))
        lk = np.searchsorted(keys, l[by].to_numpy())
        rk = np.searchsorted(keys, r[by].to_numpy())
        lt = l[on].to_numpy()
        rt = r[on].to_numpy()
        lseg = np.searchsorted(lk, np.arange(len(keys) + 1))
        rseg = np.searchsorted(rk, np.arange(len(keys) + 1))
        lo = np.zeros(len(l), dtype=np.int64)
        hi = np.zeros(len(l), dtype=np.int64)
        for k in range(len(keys)):
            la, lb = lseg[k], lseg[k + 1]
            a, b = rseg[k], rseg[k + 1]
            if la == lb:
                continue
            if a == b:
                lo[la:lb] = hi[la:lb] = a
                continue
            lo[la:lb] = a + np.searchsorted(rt[a:b], lt[la:lb] - window,
                                            side="left")
            hi[la:lb] = a + np.searchsorted(rt[a:b], lt[la:lb] + window,
                                            side="right")
        counts = hi - lo
        li = np.repeat(np.arange(len(l)), counts)
        ri = (np.repeat(lo, counts)
              + (np.arange(counts.sum())
                 - np.repeat(np.cumsum(counts) - counts, counts)))
        out = pd.DataFrame({by: l[by].to_numpy()[li],
                            on: lt[li],
                            f"{right_prefix}{on}": rt[ri]})
        for nm, c in lpay:
            out[c] = l[nm].to_numpy()[li]
        for nm, c in rpay:
            out[f"{right_prefix}{c}"] = r[nm].to_numpy()[ri]
        return out

    return bucket_apply(tagged, [by], join_bucket, batch_format="pandas")


def sliding_window(
    events: ray.data.Dataset,
    window_s: int = 3600,
    slide_s: int = 900,
) -> ray.data.Dataset:
    """(user_id, window_start_s, n_events, sum_value): per-user SLIDING
    event-time windows — length ``window_s`` seconds advancing every
    ``slide_s`` (must divide the window), so each event lands in exactly
    ``window_s // slide_s`` overlapping windows.  Completes the window
    family next to `tumbling_window` / `sessionize`.

    Shape: the per-batch combiner replicates each pre-aggregated
    (user, slide-slot) row k times with shifted window starts — the
    replication happens AFTER the in-batch slot aggregation, so the
    shuffle grows k-fold on the (small) aggregate rows, not the raw
    events.  Window keys are integer epoch seconds end to end (no
    timezone/round-trip traps; callers wanting timestamps cast once).
    """
    if window_s <= 0 or slide_s <= 0 or window_s % slide_s:
        raise ValueError("slide_s must divide window_s")
    k = window_s // slide_s
    M = 1 << 34

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        import numpy as np

        batch = batch[["user_id", "ts", "value"]].copy()
        sec = batch["ts"].astype("datetime64[s]").astype("int64")
        slot = sec // slide_s * slide_s
        # wkey packs (user_id, window_start) into one int64: user_id
        # must fit above the 2^34 slot field, and the k-1 backshifts
        # must not borrow into it (window starts near/below epoch 0)
        uid = batch["user_id"].astype("int64")
        if len(uid):
            if uid.max() >= (1 << 29) or uid.min() < 0:
                raise ValueError(
                    "user_id out of packing range [0, 2^29) — group by "
                    "two columns instead of the packed wkey"
                )
            if slot.min() < (k - 1) * slide_s:
                raise ValueError(
                    "timestamps too close to epoch 0 for the packed "
                    "window shift; re-base ts or widen the slot field"
                )
        batch["wkey"] = uid * M + slot
        g = (
            batch.groupby("wkey", as_index=False)
            .agg(n_events=("value", "size"), sum_value=("value", "sum"))
        )
        # replicate each slot row into its k covering windows
        rep = g.loc[g.index.repeat(k)].reset_index(drop=True)
        shift = np.tile(np.arange(k, dtype=np.int64) * slide_s, len(g))
        rep["wkey"] = rep["wkey"] - shift
        return rep

    from pyrdf2vec_ray.shuffle import bucket_agg

    partials = events.map_batches(
        partial, batch_format="pandas", batch_size=65536
    )
    out = bucket_agg(
        partials, ["wkey"],
        {"n_events": ("n_events", "sum"), "sum_value": ("sum_value", "sum")},
        pre=False,
    )

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        wkey = batch["wkey"].astype("int64")
        return pd.DataFrame(
            {
                "user_id": wkey // M,
                "window_start_s": wkey % M,
                "n_events": batch["n_events"].astype("int64"),
                "sum_value": batch["sum_value"].astype("float64"),
            }
        )

    return out.map_batches(finish, batch_format="pandas")


def interval_join(
    points: ray.data.Dataset,
    intervals: ray.data.Dataset,
    by: str = "user_id",
    on: str = "ts",
    start: str = "session_start",
    end: str = "session_end",
    point_cols: tuple = ("event_id",),
) -> ray.data.Dataset:
    """Distributed range join: match every point row to the interval
    (same ``by`` key) with ``start <= on <= end`` — inner, point rows
    outside every interval are dropped.  With `asof_join` and the window
    aggregates this completes the brief's custom-join trio; the driver
    query labels every event with its session.

    Requires the intervals of one key to be NON-OVERLAPPING (validated
    per bucket; session/tumbling outputs satisfy this by construction) —
    containment is then a single vectorized searchsorted per bucket.
    Shape: tag both sides, ONE co-partitioning bucket shuffle on ``by``,
    vectorized stab per bucket.  Same one-key-fits-a-bucket contract as
    `sessionize`."""
    import numpy as np

    from pyrdf2vec_ray.shuffle import bucket_apply

    def tag_points(batch: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {by: batch[by].reset_index(drop=True),
             "_t": batch[on].reset_index(drop=True),
             "_e": batch[on].reset_index(drop=True),
             "kind": np.int8(0)}
        )
        for i, c in enumerate(point_cols):
            out[f"_c{i}"] = batch[c].reset_index(drop=True)
        return out

    # typed fillers so the union's _c{i} columns unify with the point side
    base = points.schema().base_schema
    if hasattr(base, "field"):  # arrow schema
        fill_dtypes = [
            base.field(c).type.to_pandas_dtype() for c in point_cols
        ]
    else:  # PandasBlockSchema: parallel names/types lists
        by_name = dict(zip(base.names, base.types))
        fill_dtypes = [by_name[c] for c in point_cols]

    def tag_iv(batch: pd.DataFrame) -> pd.DataFrame:
        n = len(batch)
        out = pd.DataFrame(
            {by: batch[by].reset_index(drop=True),
             "_t": batch[start].reset_index(drop=True),
             "_e": batch[end].reset_index(drop=True),
             "kind": np.int8(1)}
        )
        for i, dt in enumerate(fill_dtypes):
            out[f"_c{i}"] = np.zeros(n, dtype=dt)  # filler, never read
        return out

    tagged = points.map_batches(
        tag_points, batch_format="pandas"
    ).union(intervals.map_batches(tag_iv, batch_format="pandas"))

    def stab_bucket(g: pd.DataFrame) -> pd.DataFrame:
        p = g[g["kind"] == 0]
        iv = g[g["kind"] == 1].sort_values([by, "_t"], kind="mergesort")
        # non-overlap check within each key: next start must be > prev end
        same = iv[by].to_numpy()[1:] == iv[by].to_numpy()[:-1]
        if np.any(same & (iv["_t"].to_numpy()[1:] <= iv["_e"].to_numpy()[:-1])):
            raise ValueError(
                "interval_join requires non-overlapping intervals per key"
            )
        # stab via composite (key-code, time) ordering
        codes = pd.factorize(
            np.concatenate([iv[by].to_numpy(), p[by].to_numpy()])
        )[0]
        iv_code, p_code = codes[: len(iv)], codes[len(iv):]
        order = np.lexsort((iv["_t"].to_numpy(), iv_code))
        iv = iv.iloc[order].reset_index(drop=True)
        iv_code = iv_code[order]
        # searchsorted over (code, start) record pairs; datetimes go
        # through int64 so the record comparison is plain integer
        def as_i8(a):
            a = np.asarray(a)
            if a.dtype.kind == "M":
                return a.astype("datetime64[us]").astype(np.int64)
            return a.astype(np.int64)

        t = p["_t"].to_numpy()
        ivs = iv["_t"].to_numpy()
        ive = iv["_e"].to_numpy()
        t_i, ivs_i, ive_i = as_i8(t), as_i8(ivs), as_i8(ive)
        # positions: last interval of the same code with start <= t
        keys_iv = np.rec.fromarrays([iv_code, ivs_i])
        keys_p = np.rec.fromarrays([p_code, t_i])
        pos = np.searchsorted(keys_iv, keys_p, side="right") - 1
        ok = pos >= 0
        safe = np.maximum(pos, 0)
        ok &= (iv_code[safe] == p_code) & (t_i <= ive_i[safe])
        m = p[ok]
        safe = safe[ok]
        out = pd.DataFrame(
            {by: m[by].to_numpy(),
             on: m["_t"].to_numpy(),
             start: ivs[safe],
             end: ive[safe]}
        )
        for i, c in enumerate(point_cols):
            out[c] = m[f"_c{i}"].to_numpy()
        return out

    return bucket_apply(tagged, [by], stab_bucket, batch_format="pandas")


def funnel(
    events: ray.data.Dataset,
    steps: list[str],
    user_col: str = "user_id",
    ts_col: str = "ts",
    type_col: str = "event_type",
    within: "pd.Timedelta | None" = None,
) -> ray.data.Dataset:
    """(user, stage_reached): ordered multi-step funnel analysis — the
    deepest prefix of ``steps`` each user completed, where step i+1
    must occur STRICTLY after the earliest completion time of step i
    (the standard strict-ordering funnel definition).  stage_reached
    is 0..len(steps).  ``within`` (optional pd.Timedelta) adds the
    standard CONVERSION-WINDOW constraint: step i+1 must also land no
    later than ``within`` after step i's qualifying time (the first
    step is unconstrained) — late conversions stop counting, the
    growth-analytics default.

    Shuffle shape: per-batch rows prune to the funnel's event types
    and pre-reduce to per-(user, type) min-timestamps (the combiner —
    the earliest qualifying time only ever moves earlier), then ONE
    user-bucket shuffle; the chained min-after-previous scan runs
    vectorized per bucket.  The exchange carries at most
    users x len(steps) rows regardless of event volume."""
    if not steps:
        raise ValueError("steps must be non-empty")

    def prune(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch[batch[type_col].isin(steps)]
        if not len(b):
            return pd.DataFrame(
                {user_col: pd.Series(dtype=batch[user_col].dtype),
                 type_col: pd.Series(dtype="object"),
                 ts_col: pd.Series(dtype=batch[ts_col].dtype)})
        # NOT a full combiner: step i+1's qualifying min depends on
        # step i's global min, so keep ALL candidate timestamps per
        # (user, type)?  No — a per-batch min per (user, type) is NOT
        # sufficient for steps > 1 (the strictly-after constraint can
        # disqualify the global min).  Keep every (user, type, ts) row
        # of the funnel types; they are already a small fraction of
        # the stream.
        return b[[user_col, type_col, ts_col]]

    from pyrdf2vec_ray.shuffle import bucket_apply

    pruned = events.map_batches(prune, batch_format="pandas")

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        users = pd.Index(sorted(g[user_col].unique()))
        reached = pd.Series(0, index=users, dtype="int64")
        prev_t = pd.Series(pd.Timestamp.min, index=users)
        alive = pd.Series(True, index=users)
        for i, step in enumerate(steps):
            ev = g[g[type_col] == step]
            # earliest occurrence of `step` strictly after prev_t
            # (and, with a conversion window, no later than
            # prev_t + within — the first step has no window)
            prev_at = prev_t.reindex(ev[user_col]).to_numpy()
            mask = ev[ts_col] > prev_at
            if within is not None and i > 0:
                mask &= ev[ts_col] <= prev_at + within
            t = ev[ts_col].where(mask)
            nxt = (pd.DataFrame({user_col: ev[user_col].to_numpy(),
                                 "t": t.to_numpy()})
                   .dropna().groupby(user_col)["t"].min())
            hit = alive & users.isin(nxt.index)
            reached[hit] = i + 1
            prev_t = nxt.reindex(users)
            alive = hit
            if not alive.any():
                break
        return pd.DataFrame(
            {user_col: users.to_numpy(), "stage_reached": reached.to_numpy()}
        )

    return bucket_apply(pruned, [user_col], per_bucket,
                        batch_format="pandas")


def retention_cohorts(
    events: ray.data.Dataset,
    user_col: str = "user_id",
    ts_col: str = "ts",
    period_s: int = 604_800,
) -> ray.data.Dataset:
    """(cohort, k, users): classic retention triangle — users whose
    FIRST activity fell in period ``cohort`` (epoch-seconds //
    period_s, integer math both engines reproduce exactly) counted as
    retained in each later period ``cohort + k`` they were active in
    (k = 0 is the cohort size).

    Shuffle shape: per-batch rows pre-reduce to DISTINCT (user,
    period) pairs (activity within a period is idempotent), ONE
    user-bucket shuffle computes each user's cohort and emits its
    (cohort, k) pairs, then a tiny pre-aggregated count shuffle over
    the cohort x k triangle — the second exchange is bounded by the
    number of periods squared, not by users or events."""

    def pairs(batch: pd.DataFrame) -> pd.DataFrame:
        ts = batch[ts_col]
        import numpy as np

        unit = np.datetime_data(ts.dtype)[0]        # 's'/'ms'/'us'/'ns'
        div = {"s": 1, "ms": 10**3, "us": 10**6, "ns": 10**9}[unit]
        sec = ts.astype("int64") // div
        period = (sec // period_s).astype("int64")
        return pd.DataFrame(
            {user_col: batch[user_col].to_numpy(), "period": period}
        ).drop_duplicates()

    from pyrdf2vec_ray.shuffle import bucket_apply, bucket_agg

    up = events.select_columns([user_col, ts_col]).map_batches(
        pairs, batch_format="pandas"
    )

    def per_user_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates().sort_values([user_col, "period"])
        first = g.groupby(user_col)["period"].transform("min")
        return pd.DataFrame(
            {"cohort": first.to_numpy(),
             "k": (g["period"] - first).to_numpy()}
        )

    ck = bucket_apply(up, [user_col], per_user_bucket,
                      batch_format="pandas")
    return bucket_agg(ck, ["cohort", "k"], {"users": ("k", "size")},
                      num_buckets=4)


def windowed_topk(
    events: ray.data.Dataset,
    k: int = 3,
    freq: str = "h",
    by: str = "user_id",
) -> ray.data.Dataset:
    """(window_start, <by>, n_events, rank): the k busiest ``by`` keys
    inside every tumbling window — "top talkers per hour", the standard
    streaming-analytics leaderboard.

    Composition of the two existing primitives: per-batch partial
    (window, key) counts collapse in ONE bucket shuffle (bucket_agg),
    then ops/agg.topk_by_group runs its combiner + ONE window-bucket
    shuffle over the already-shrunken count table.  All-integer
    arithmetic — the oracle (GROUP BY + ROW_NUMBER) matches exactly;
    count ties break by key asc on both engines."""
    from pyrdf2vec_ray.ops.agg import topk_by_group
    from pyrdf2vec_ray.shuffle import bucket_agg

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch[[by, "ts"]].copy()
        b["window_start"] = b["ts"].dt.floor(freq).astype("datetime64[us]")
        return (b.groupby(["window_start", by], as_index=False)
                .agg(cnt=(by, "size")))

    counts = bucket_agg(
        events.select_columns([by, "ts"]).map_batches(
            partial, batch_format="pandas", batch_size=65536),
        ["window_start", by], {"n_events": ("cnt", "sum")}, pre=False,
    )
    out = topk_by_group(counts, "window_start", "n_events", k, id_col=by)
    return out


def running_totals(
    events: ray.data.Dataset,
    user_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    value_col: str = "value",
) -> ray.data.Dataset:
    """Per-user running totals: for every event, its 1-based sequence
    number within the user's timeline and the cumulative sum of
    ``value_col`` up to and including it — the standard
    ``SUM(...) OVER (PARTITION BY user ORDER BY ts, id)`` window, the
    feature-engineering primitive behind lifetime-value and
    activity-curve features.

    Shuffle shape: events already carry everything the window needs,
    so this is ONE user-bucket shuffle (co-partitioning every user's
    rows) followed by a vectorized per-bucket sort + groupby cumsum /
    cumcount — no iteration, no driver state.  Ordering ties break on
    ``id_col`` so the output is deterministic across engines.  The
    exchange moves each event row exactly once; at corpus scale the
    bucket count autosizes to the data (shuffle.bucket_apply)."""
    from pyrdf2vec_ray.shuffle import bucket_apply

    cols = [id_col, user_col, ts_col, value_col]

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([user_col, ts_col, id_col])
        grp = g.groupby(user_col, sort=False)
        return pd.DataFrame(
            {id_col: g[id_col].to_numpy(),
             user_col: g[user_col].to_numpy(),
             "seq": (grp.cumcount() + 1).to_numpy(),
             "cum_value": grp[value_col].cumsum().to_numpy()})

    return bucket_apply(events.select_columns(cols), [user_col],
                        per_bucket, batch_format="pandas")


def interarrival(
    events: ray.data.Dataset,
    user_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
) -> ray.data.Dataset:
    """(event_id, user_id, gap_us): microseconds since the user's
    PREVIOUS event — the ``ts - LAG(ts) OVER (PARTITION BY user ORDER
    BY ts, id)`` window, the raw signal behind churn/recency features
    and bot detection (suspiciously regular gaps).  A user's first
    event gets ``gap_us = -1`` (not 0: a genuine zero gap — two events
    at the same microsecond — must stay distinguishable).

    Shuffle shape: ONE user-bucket exchange co-partitioning each
    user's rows, then a vectorized sort + per-user diff per bucket.
    All-integer (timestamps are datetime64[us]), so the SQL oracle
    matches bit-for-bit."""
    from pyrdf2vec_ray.shuffle import bucket_apply

    cols = [id_col, user_col, ts_col]

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([user_col, ts_col, id_col])
        prev = g.groupby(user_col, sort=False)[ts_col].shift(1)
        gap = (g[ts_col] - prev).dt.total_seconds() * 1e6
        gap = gap.round().fillna(-1).astype("int64")
        return pd.DataFrame(
            {id_col: g[id_col].to_numpy(),
             user_col: g[user_col].to_numpy(),
             "gap_us": gap.to_numpy()})

    return bucket_apply(events.select_columns(cols), [user_col],
                        per_bucket, batch_format="pandas")


def event_transitions(
    events: ray.data.Dataset,
    user_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    type_col: str = "event_type",
) -> ray.data.Dataset:
    """(prev_type, next_type, c, p): first-order Markov transition
    counts and conditional probabilities between CONSECUTIVE events of
    the same user (ordered by ts, then event id for ties) — the
    behavioral-sequence model behind next-action prediction and
    anomaly scoring.  ``p = c / Σ_next c`` per prev_type, one shared
    float64 division on both engines.

    Shuffle shape: one user-bucket exchange (each user's rows
    co-partitioned), vectorized per-user shift to form the transition
    pairs, per-bucket partial counts, then ONE pair-bucket reduce over
    the tiny (prev, next) table; the row-total per prev_type is a
    second reduce over that already-aggregated table, not over events.
    """
    import numpy as np

    from pyrdf2vec_ray.ops.join import hash_join
    from pyrdf2vec_ray.shuffle import bucket_agg, bucket_apply

    cols = [id_col, user_col, ts_col, type_col]

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([user_col, ts_col, id_col])
        prev_t = g.groupby(user_col, sort=False)[type_col].shift(1)
        keep = prev_t.notna()
        out = pd.DataFrame({"prev_type": prev_t[keep].to_numpy(),
                            "next_type": g[type_col][keep].to_numpy()})
        out["c"] = 1
        return out.groupby(["prev_type", "next_type"],
                           as_index=False).agg(c=("c", "sum"))

    partial = bucket_apply(events.select_columns(cols), [user_col],
                           pairs, batch_format="pandas")
    # the transition table is tiny (|types|^2 rows) and feeds BOTH the
    # totals and the join: pin it once so the event-scale shuffle runs
    # exactly once (a lazy .schema() hop would re-execute it)
    counts = bucket_agg(partial, ["prev_type", "next_type"],
                        {"c": ("c", "sum")}, pre=False).materialize()
    totals = bucket_agg(counts, ["prev_type"],
                        {"tot": ("c", "sum")}, pre=False)

    o, i8 = np.dtype("O"), np.dtype("int64")
    out = hash_join(counts, totals, on=["prev_type"],
                    rschema={"prev_type": o, "tot": i8})

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"prev_type": batch["prev_type"],
             "next_type": batch["next_type"],
             "c": batch["c"].to_numpy().astype(np.int64),
             "p": batch["c"].to_numpy(np.float64)
             / batch["tot"].to_numpy(np.float64)})

    return out.map_batches(finish, batch_format="pandas")


def rolling_daily(
    events: ray.data.Dataset,
    value_col: str = "value",
    ts_col: str = "ts",
    window_days: int = 7,
) -> ray.data.Dataset:
    """(day, total, rolling): daily value totals plus the trailing
    ``window_days``-day rolling sum (the ``SUM OVER (ORDER BY day RANGE
    k-1 PRECEDING)`` window) — the revenue/traffic trend feature.
    Money math is exact: values aggregate as integer cents
    (``floor(value*100 + 0.5)`` — explicit half-up, since np.round is
    half-to-even and DuckDB round() half-away-from-zero) and only the
    final output divides back to float, so the SQL window oracle
    matches bit-for-bit.

    Shuffle shape: per-batch partial (epoch-day, cents) sums, ONE tiny
    day-bucket reduce (the daily table is date-range-bounded, not
    event-bounded), then each day's total REPLICATES to its next
    ``window_days`` day slots — k tiny rows per day, never a re-scan of
    events — and a second day-bucket reduce; the inner join back onto
    the daily table keeps exactly the days that exist (RANGE window
    semantics).  Events are read once."""
    import numpy as np

    from pyrdf2vec_ray.ops.join import hash_join
    from pyrdf2vec_ray.shuffle import bucket_agg

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        day = (batch[ts_col].dt.floor("D").astype("datetime64[s]")
               .astype("int64") // 86400)
        # floor(x + 0.5): an EXPLICIT half-up in IEEE ops shared with
        # the SQL oracle — np.round is half-to-even while DuckDB
        # round() is half-away-from-zero, so neither builtin is
        # bit-portable on exact .5 products
        cents = np.floor(
            batch[value_col].to_numpy(np.float64) * 100 + 0.5
        ).astype(np.int64)
        return (pd.DataFrame({"day": day.to_numpy(), "c": cents})
                .groupby("day", as_index=False).agg(c=("c", "sum")))

    partials = events.select_columns([ts_col, value_col]).map_batches(
        partial, batch_format="pandas", batch_size=65536)
    daily = bucket_agg(partials, ["day"], {"c": ("c", "sum")},
                       pre=False).materialize()

    k = int(window_days)

    def replicate(batch: pd.DataFrame) -> pd.DataFrame:
        d = batch["day"].to_numpy()
        c = batch["c"].to_numpy()
        return pd.DataFrame(
            {"day": np.repeat(d, k) + np.tile(np.arange(k, dtype=np.int64),
                                              len(d)),
             "rc": np.repeat(c, k)})

    roll = bucket_agg(daily.map_batches(replicate, batch_format="pandas"),
                      ["day"], {"rc": ("rc", "sum")})

    i8 = np.dtype("int64")
    out = hash_join(daily, roll, on=["day"],
                    rschema={"day": i8, "rc": i8})

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        day = (batch["day"].to_numpy() * 86400).astype(
            "datetime64[s]").astype("datetime64[us]")
        return pd.DataFrame(
            {"day": day,
             "total": batch["c"].to_numpy(np.float64) / 100.0,
             "rolling": batch["rc"].to_numpy(np.float64) / 100.0})

    return out.map_batches(finish, batch_format="pandas")


def debounce(
    events: ray.data.Dataset,
    min_gap_s: int,
    by: tuple[str, ...] = ("user_id", "event_type"),
    ts_col: str = "ts",
    id_col: str = "event_id",
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Lag-debounce: drop an event when the PREVIOUS event of the same
    ``by`` key (ordered by ``(ts, id)``) is less than ``min_gap_s``
    seconds older — the double-fire/retry-storm suppressor.  These are
    LAG semantics (each row compares to its immediate predecessor,
    kept or not), which is vectorizable and replays exactly as a SQL
    ``lag()`` window; the keep-first-of-burst variant (compare to the
    last KEPT row) is a sequential scan with different semantics — use
    ``sessionize`` for burst grouping.

    Output: the surviving rows' ``(by..., id, ts)``.

    Scale shape: ONE key-bucket shuffle (`shuffle.bucket_apply`), then
    every key in the bucket is debounced in one vectorized sort + shift
    pass.  Partitioning assumption (as sessionize): one key's events
    fit one bucket task's heap."""
    from pyrdf2vec_ray.shuffle import bucket_apply

    gap = pd.Timedelta(seconds=min_gap_s)
    by = list(by)
    cols = by + [id_col, ts_col]

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(by + [ts_col, id_col], kind="mergesort")
        new_key = (g[by].ne(g[by].shift()).any(axis=1)
                   if len(by) > 1 else g[by[0]].ne(g[by[0]].shift()))
        keep = new_key | (g[ts_col].diff() >= gap)
        return g.loc[keep, cols]

    return bucket_apply(events.select_columns(cols), by, per_bucket,
                        num_buckets=num_buckets, batch_format="pandas")


def wma_daily(
    events: ray.data.Dataset,
    key_col: str = "event_type",
    ts_col: str = "ts",
    weights: tuple[int, ...] = (8, 4, 2, 1),
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Per-key daily event counts smoothed by a dyadic-weight moving
    average — the integer-exact stand-in for an EWMA trend line
    (float EWMA recursions are not order-stable; dyadic weights over
    the last ``len(weights)`` OBSERVED days give the same halving decay
    with exact int64 arithmetic, so the SQL lag() oracle replays
    bit-for-bit).  ``wma_k = Σ wᵢ·n_{k−i} / Σ wᵢ`` where the sums run
    over observations actually present (leading rows use fewer
    weights; day gaps are observation-indexed, not calendar-indexed —
    documented).  Output ``(key, day, n, wma)``.

    Scale shape: per-batch (key, day) count combiner → ONE tiny
    day-table reduce (date-range-bounded, not event-bounded) → one
    key-bucket pass whose kernel is ``len(weights)`` vectorized
    group-shifts.  No global sort; one key's days fit any task."""
    from pyrdf2vec_ray.shuffle import bucket_agg, bucket_apply

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({key_col: batch[key_col],
                          "day": batch[ts_col].dt.floor("D"), "n": 1})
        return g.groupby([key_col, "day"], as_index=False).sum()

    daily = bucket_agg(
        events.map_batches(partial, batch_format="pandas"),
        [key_col, "day"], {"n": ("n", "sum")}, pre=False,
        num_buckets=num_buckets)

    w = [int(x) for x in weights]

    def smooth(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, "day"], kind="mergesort")
        grp = g.groupby(key_col)["n"]
        num = np.zeros(len(g), dtype=np.int64)
        den = np.zeros(len(g), dtype=np.int64)
        for i, wi in enumerate(w):
            lag = grp.shift(i)
            have = lag.notna().to_numpy()
            num += wi * lag.fillna(0).to_numpy(np.int64)
            den += wi * have.astype(np.int64)
        return pd.DataFrame(
            {key_col: g[key_col].to_numpy(),
             "day": g["day"].to_numpy(),
             "n": g["n"].to_numpy().astype(np.int64),
             "wma": num.astype(np.float64) / den})

    return bucket_apply(daily, [key_col], smooth,
                        num_buckets=num_buckets, batch_format="pandas")


def peak_concurrency(
    intervals: ray.data.Dataset,
    start_col: str = "session_start",
    end_col: str = "session_end",
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Per-day concurrency profile over CLOSED time intervals
    (sessions): ``(day, n_active, peak)`` where ``n_active`` counts
    intervals overlapping the day at all and ``peak`` is the maximum
    number simultaneously active at any instant of that day — the
    capacity-planning sweep line.

    Semantics (deterministic under ties): an interval is active on
    [start, end] inclusive; at an instant where one interval ends and
    another starts BOTH are active (starts order before ends in the
    sweep), and a zero-length interval still counts at its instant.

    Scale shape: each interval replicates one (+1 at max(start, day),
    −1 at min(end, day⁺)) boundary pair per day it overlaps (a
    vectorized repeat — sessions span few days), then ONE day-bucket
    shuffle whose kernel is a sort + cumsum sweep per day.  Days
    partition the timeline, so parallelism grows with the date range,
    and the within-tie processing order cannot change the maximum
    (all +1s at a timestamp apply before any −1)."""
    from pyrdf2vec_ray.shuffle import bucket_apply

    day_us = np.int64(86_400_000_000)

    def boundaries(batch: pd.DataFrame) -> pd.DataFrame:
        s = batch[start_col].to_numpy("datetime64[us]").view(np.int64)
        e = batch[end_col].to_numpy("datetime64[us]").view(np.int64)
        d0 = s // day_us
        nd = (e // day_us - d0 + 1).astype(np.int64)
        row = np.repeat(np.arange(len(s)), nd)
        # k-th covered day of each interval
        prev = np.concatenate([[0], np.cumsum(nd)[:-1]])
        k = np.arange(nd.sum()) - np.repeat(prev, nd)
        day = (d0[row] + k) * day_us
        plus_t = np.maximum(s[row], day)
        minus_t = np.minimum(e[row], day + day_us)
        return pd.DataFrame(
            {"day": np.concatenate([day, day]),
             "t": np.concatenate([plus_t, minus_t]),
             "delta": np.concatenate(
                 [np.ones(len(day), dtype=np.int64),
                  -np.ones(len(day), dtype=np.int64)])})

    def sweep(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["day", "t", "delta"],
                          ascending=[True, True, False],
                          kind="mergesort")
        day = g["day"].to_numpy()
        run = np.cumsum(g["delta"].to_numpy())
        starts = np.flatnonzero(np.r_[True, day[1:] != day[:-1]])
        # reset the cumsum at each day boundary (every day's deltas
        # net to zero only when no interval crosses midnight — so
        # subtract the running value carried in from previous days)
        base = np.zeros(len(g), dtype=np.int64)
        carry = np.concatenate([[0], run[starts[1:] - 1]])
        base = np.repeat(carry, np.diff(np.r_[starts, len(g)]))
        run = run - base
        df = pd.DataFrame({"day": day, "run": run,
                           "plus": (g["delta"].to_numpy() > 0)})
        agg = df.groupby("day").agg(peak=("run", "max"),
                                    n_active=("plus", "sum"))
        return pd.DataFrame(
            {"day": agg.index.to_numpy().astype("datetime64[us]"),
             "n_active": agg["n_active"].to_numpy().astype(np.int64),
             "peak": agg["peak"].to_numpy().astype(np.int64)})

    return bucket_apply(
        intervals.map_batches(boundaries, batch_format="pandas"),
        ["day"], sweep, num_buckets=num_buckets,
        batch_format="pandas")


def fill_daily_gaps(
    daily: ray.data.Dataset,
    key_col: str = "event_type",
    day_col: str = "day",
    value_col: str = "n",
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Calendar densify: every key's daily series is completed over
    its OWN [min(day), max(day)] range, absent days filled with 0 —
    the step that turns observation-indexed reductions into
    calendar-indexed series (rolling windows, trend lines and
    change-point scans silently mis-index across gaps otherwise).

    Output: one row per (key, calendar day in range) with ``filled``
    marking synthesized rows.

    Scale shape: ONE key-bucket shuffle of the (already day-reduced)
    series; per bucket the expansion is a vectorized repeat over
    per-key day spans.  Output size is Σ_key span_days — bounded by
    keys × date range, never by event count; a key with a multi-year
    span costs rows, not memory (spans stream per bucket)."""
    from pyrdf2vec_ray.shuffle import bucket_apply

    day_us = np.int64(86_400_000_000)

    def densify(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, day_col], kind="mergesort")
        days = g[day_col].to_numpy("datetime64[us]").view(np.int64)
        keys = g[key_col].to_numpy()
        vals = g[value_col].to_numpy()
        codes, uniq = pd.factorize(keys)
        starts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
        ends = np.r_[starts[1:], len(g)]
        lo = (days[starts] // day_us)
        hi = (days[ends - 1] // day_us)
        span = (hi - lo + 1).astype(np.int64)
        prev = np.concatenate([[0], np.cumsum(span)[:-1]])
        k = np.arange(span.sum()) - np.repeat(prev, span)
        out_day = (np.repeat(lo, span) + k) * day_us
        out_key = np.repeat(uniq, span)
        out_val = np.zeros(len(out_day), dtype=vals.dtype)
        # scatter the observed values into their span slots:
        # prev[group] + (observed day - group's first day)
        obs_pos = (np.repeat(prev, ends - starts)
                   + (days // day_us
                      - np.repeat(lo, ends - starts)))
        out_val[obs_pos] = vals
        filled = np.ones(len(out_day), dtype=bool)
        filled[obs_pos] = False
        return pd.DataFrame(
            {key_col: out_key,
             day_col: out_day.astype("datetime64[us]"),
             value_col: out_val,
             "filled": filled})

    return bucket_apply(daily, [key_col], densify,
                        num_buckets=num_buckets, batch_format="pandas")


def cusum_scores(
    daily: ray.data.Dataset,
    slack_k: int,
    threshold_h: int,
    key_col: str = "event_type",
    day_col: str = "day",
    value_col: str = "n",
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """One-sided (upward) CUSUM change detection (Page 1954) over each
    key's day-ordered integer series: ``S_t = max(0, S_{t-1} + (x_t −
    k))``, alarm when ``S_t > h`` — the drift/level-shift monitor for
    event volumes.  Output: every input row plus ``(s, alarm)``.

    Exactness: the recursion has the closed form ``S_t = Q_t −
    min(0, min_{i≤t} Q_i)`` with ``Q_t = Σ(x−k)`` — a prefix sum minus
    a running minimum, BOTH vectorizable and both expressible as SQL
    windows, so integer inputs replay bit-exactly (no float recursion,
    no approximation).  Observation-indexed: run
    :func:`fill_daily_gaps` first when calendar indexing matters.

    Scale shape: ONE key-bucket shuffle of the day-reduced series;
    per bucket one sort + two accumulations (cumsum, cummin)."""
    from pyrdf2vec_ray.shuffle import bucket_apply

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, day_col], kind="mergesort")
        x = g[value_col].to_numpy(np.int64)
        codes, _ = pd.factorize(g[key_col].to_numpy())
        starts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
        q = np.cumsum(x - np.int64(slack_k))
        # restart the prefix sum at each key boundary
        base = np.repeat(np.r_[0, q[starts[1:] - 1]],
                         np.diff(np.r_[starts, len(g)]))
        q = q - base
        # per-key running minimum (loop over KEYS, not rows — series
        # are calendar-bounded and keys-per-bucket small)
        runmin = np.empty_like(q)
        for s0, s1 in zip(starts, np.r_[starts[1:], len(g)]):
            runmin[s0:s1] = np.minimum.accumulate(q[s0:s1])
        s = q - np.minimum(runmin, 0)
        out = g.copy()
        out["s"] = s
        out["alarm"] = s > np.int64(threshold_h)
        return out

    return bucket_apply(daily, [key_col], per_bucket,
                        num_buckets=num_buckets, batch_format="pandas")


def recency_scores(
    events: ray.data.Dataset,
    half_life_days: float = 7.0,
    user_col: str = "user_id",
    ts_col: str = "ts",
) -> ray.data.Dataset:
    """Recency-weighted activity per user: ``score = Σ_events
    2^(−age/half_life)`` with age measured from the corpus max
    timestamp — the standard decayed engagement feature (an event
    ``half_life_days`` old counts half).  Output
    ``(user, n_events, score)``.

    Two passes, both reduce-shaped: a tiny global max-ts aggregate
    (broadcast as a closure scalar — the RFM pattern), then a
    per-batch per-user combiner + ONE user-bucket reduce of partial
    float sums.  Each term is a pure function of (ts, max_ts) so the
    only engine-vs-oracle difference is summation order — covered by
    the rounding-tolerant compare (documented float-assoc class)."""
    from pyrdf2vec_ray.shuffle import bucket_agg

    max_ts = events.max(ts_col)
    max_us = np.int64(pd.Timestamp(max_ts).value // 1000)
    denom = 86_400_000_000.0 * float(half_life_days)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        ts = batch[ts_col].to_numpy("datetime64[us]").view(np.int64)
        age = (max_us - ts).astype(np.float64)
        w = np.power(2.0, -(age / denom))
        g = pd.DataFrame({user_col: batch[user_col], "n": 1,
                          "score": w})
        return g.groupby(user_col, as_index=False).sum()

    out = bucket_agg(events.map_batches(partial, batch_format="pandas"),
                     [user_col],
                     {"n": ("n", "sum"), "score": ("score", "sum")},
                     pre=False)

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {user_col: batch[user_col],
             "n_events": batch["n"].to_numpy().astype(np.int64),
             "score": batch["score"].to_numpy(np.float64)})

    return out.map_batches(finish, batch_format="pandas")

def sequence_examples(
    events: ray.data.Dataset,
    k: int = 3,
    user_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    type_col: str = "event_type",
    pad: str = "",
) -> ray.data.Dataset:
    """Next-event training examples from per-user event streams: for
    every event with at least one same-user predecessor (ordered by
    ``ts`` then ``id``), emit ``(user, event_id, ctx_k..ctx_1,
    target)`` where ``ctx_i`` is the type of the i-th previous event
    (``pad`` where the history is shorter) and ``target`` is the
    event's own type — the sequence-model dataset-construction step
    (next-action prediction / GPT-style next-token examples over
    behavioral logs) run as a data op, not a modeling one.

    Shuffle shape: ONE user-bucket exchange (each user's rows
    co-partition — the :func:`sessionize` contract), then a single
    per-bucket sort + k vectorized grouped shifts; output rows
    co-partition with the input, no second exchange, no per-row loop.
    The first event of each user is dropped (no context at all);
    everything else pads, so example count = n_events − n_users."""
    from pyrdf2vec_ray.shuffle import bucket_apply

    if k < 1:
        raise ValueError("k must be >= 1")
    cols = [id_col, user_col, ts_col, type_col]

    def examples(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([user_col, ts_col, id_col])
        grp = g.groupby(user_col, sort=False)[type_col]
        out = {user_col: g[user_col].to_numpy(),
               id_col: g[id_col].to_numpy()}
        prev1 = None
        for i in range(k, 0, -1):
            s = grp.shift(i)
            if i == 1:
                prev1 = s
            out[f"ctx_{i}"] = s.fillna(pad).to_numpy()
        out["target"] = g[type_col].to_numpy()
        df = pd.DataFrame(out)
        return df[prev1.notna().to_numpy()]

    return bucket_apply(events.select_columns(cols), [user_col],
                        examples, batch_format="pandas")


def ordered_pair_counts(
    events: ray.data.Dataset,
    user_col: str = "user_id",
    ts_col: str = "ts",
    type_col: str = "event_type",
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Behavioral precedence census: for every ORDERED pair of event
    types (a, b), how many users have some a-event strictly before
    some b-event — the any-gap generalization of
    :func:`event_transitions` (adjacent pairs) and the pairwise core
    of sequential-pattern mining (a 2-subsequence support count).
    Output ``(prev, next, n_users)``.  Self-pairs (a, a) count users
    whose a-events span at least two DISTINCT timestamps (the repeat
    signal): repeated a-events that all share one timestamp do not
    count, because no a-event is strictly before another.

    The existence test collapses to per-(user, type) MIN and MAX
    timestamps: user supports (a, b) iff ``min_ts(a) < max_ts(b)`` —
    so the corpus reduces to a per-batch (user, type, min, max)
    combiner, ONE user-bucket exchange of those rows (users ×
    type-domain, event-volume-independent), a vectorized per-user
    cross of its type table, and a tiny (prev, next) count reduce."""
    from pyrdf2vec_ray.shuffle import bucket_agg, bucket_apply

    def pre(batch: pd.DataFrame) -> pd.DataFrame:
        part = pd.DataFrame({
            "u": batch[user_col].to_numpy(),
            "t": batch[type_col].to_numpy(),
            "lo": batch[ts_col].to_numpy(),
            "hi": batch[ts_col].to_numpy()})
        return part.groupby(["u", "t"], as_index=False).agg(
            lo=("lo", "min"), hi=("hi", "max"))

    spans = bucket_agg(
        events.select_columns([user_col, ts_col, type_col])
        .map_batches(pre, batch_format="pandas"),
        ["u", "t"], {"lo": ("lo", "min"), "hi": ("hi", "max")},
        pre=False)

    def cross(g: pd.DataFrame) -> pd.DataFrame:
        # one vectorized self-merge per bucket (k = type-domain rows
        # per user, so the pair frame is users x k^2 — bounded by the
        # type domain, no per-user Python loop)
        m = g.merge(g, on="u", suffixes=("_a", "_b"))
        m = m[m["lo_a"] < m["hi_b"]]
        if not len(m):
            return pd.DataFrame(
                {"prev": pd.Series(dtype=object),
                 "next": pd.Series(dtype=object),
                 "n_users": pd.Series(dtype="int64")})
        part = pd.DataFrame({"prev": m["t_a"].to_numpy(),
                             "next": m["t_b"].to_numpy(),
                             "n_users": np.int64(1)})
        return part.groupby(["prev", "next"], as_index=False).sum()

    crossed = bucket_apply(spans, ["u"], cross,
                           num_buckets=num_buckets,
                           batch_format="pandas")
    return bucket_agg(crossed, ["prev", "next"],
                      {"n_users": ("n_users", "sum")},
                      num_buckets=num_buckets, pre=False)
