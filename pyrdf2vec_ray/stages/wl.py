"""Weisfeiler-Lehman relabeling (reference weisfeiler_lehman.py:69-129).

Vertices of the bipartite graph are entities AND per-triple predicate
instances; label propagation runs through both:

  L0(entity)         = name            L0(pinst(s,p,o)) = p
  Ln(pinst(s,p,o))   = H(L_{n-1}(pinst) + "-" + L_{n-1}(s))
  Ln(entity v)       = H(L_{n-1}(v) + "-" + join(sorted(set(
                           L_{n-1}(pinst) of triples with obj = v))))
  H(x) = str(md5(x).digest()[:md5_bytes])   (or x when md5_bytes is None)

Two fits with byte-identical output:

- ``wl_labels``: k vectorized passes over one whole-graph CSR's edge
  arrays, for graphs that fit one task (the reference oracle).
- ``wl_labels_from_dataset``: the join-rounds form over the triples
  Dataset (SURVEY.md A9) backing the sharded graph — the fit WL walks
  use.  L1(pinst) depends
  on the triple alone, so one obj-keyed exchange yields the entity
  names and the suffixes of rounds 0 and 1; rounds 2+ are block-local
  maps over its materialized, obj-bucketed output.  Ray Data jobs: 1
  for k ≤ 2, 2k − 3 for k > 2.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from pyrdf2vec_ray.state.graph_index import LocalGraph


def _hash_chunk(strings: np.ndarray, md5_bytes: int) -> np.ndarray:
    from hashlib import md5 as _md5

    # list comprehension, not fromiter+genexpr: ~25% less interpreter
    # overhead on the millions-of-distinct-labels iterations
    out = np.empty(len(strings), dtype=object)
    out[:] = [str(_md5(u.encode()).digest()[:md5_bytes]) for u in strings]
    return out


def _on_ray_driver() -> bool:
    """True only on an initialized Ray DRIVER — fanning out from inside
    a Ray task/actor would hold its CPU while waiting (deadlock risk)."""
    try:
        import ray

        if not ray.is_initialized():
            return False
        ctx = ray.get_runtime_context()
        return ctx.get_task_id() is None and ctx.get_actor_id() is None
    except Exception:
        return False


def _hash_distinct_codes(
    strings: np.ndarray, md5_bytes: int | None,
    parallel_threshold: int = 400_000,
) -> tuple[np.ndarray, np.ndarray]:
    """(hashed distinct values, codes) such that hashed[codes] hashes
    each input string, calling md5 only once per DISTINCT value: WL
    labels converge fast, so distinct labels << vertices/edges — this is
    what makes the relabeling vectorized rather than a per-vertex loop.

    pd.factorize (hash-based, object dtype) — NOT np.unique over a
    fixed-width string array: hub vertices produce suffix strings of
    100s of KB, and U-dtype pads every row to the longest one.

    Past `parallel_threshold` distinct labels (late WL iterations on
    big graphs, where pin labels approach edge count) the md5 pass fans
    out over Ray tasks in 16 chunks — A/B: 2.2s serial vs 1.2s for 2M
    labels; below it the ship cost eats the savings, so it stays
    inline.  Fan-out only from the DRIVER (see _on_ray_driver)."""
    codes, uniq = pd.factorize(strings, sort=False)
    if md5_bytes:
        if len(uniq) >= parallel_threshold and _on_ray_driver():
            import ray

            rf = ray.remote(num_cpus=1)(_hash_chunk)
            hashed = np.concatenate(ray.get([
                rf.remote(c, md5_bytes)
                for c in np.array_split(uniq, 16)
            ]))
        else:
            hashed = _hash_chunk(uniq, md5_bytes)
    else:
        hashed = np.asarray(uniq, dtype=object)
    return hashed, codes


def _hash_distinct(
    strings: np.ndarray, md5_bytes: int | None,
    parallel_threshold: int = 400_000,
) -> np.ndarray:
    hashed, codes = _hash_distinct_codes(strings, md5_bytes,
                                         parallel_threshold)
    return hashed[codes]


def _sorted_distinct_join(obj_codes: np.ndarray, n: int,
                          lab_codes: np.ndarray, lab_uniq) -> np.ndarray:
    """The WL entity suffix: for every object code v < n, "-".join of the
    DISTINCT labels ``lab_uniq[lab_codes[i]]`` of the rows i with
    ``obj_codes[i] == v`` ("" for none), in ``lab_uniq`` order — sorted
    labels (factorize(sort=True)) make it the sorted-distinct-join.  One
    int64 unique over (obj * L + code) yields the per-object distinct
    labels already sorted — no pandas lexsort/groupby pass."""
    L = max(1, len(lab_uniq))
    # packing bound: n * L must fit int64 (n≈2e5, L≈2e6 at sf0.1 → 4e11;
    # revisit packing for graphs past ~1e9 distinct labels)
    uk = np.unique(obj_codes.astype(np.int64) * L + lab_codes)
    objs_u = uk // L
    labs_u = uk % L
    starts = np.flatnonzero(np.diff(objs_u, prepend=-1))
    ends = np.r_[starts[1:], len(uk)]
    lab_uniq = np.asarray(lab_uniq, dtype=object)
    out = np.full(n, "", dtype=object)
    for s, e in zip(starts, ends):
        out[objs_u[s]] = "-".join(lab_uniq[labs_u[s:e]])
    return out


def wl_labels(
    g: LocalGraph, wl_iterations: int, md5_bytes: int | None = 8
) -> dict[str, list[str]]:
    """name → [label_0, ..., label_k] for every ENTITY vertex."""
    a = g.a
    nv = g.num_vertices
    names = a.names

    subj_per_edge = np.repeat(np.arange(nv), np.diff(a.fwd_indptr))
    obj_per_edge = a.fwd_obj.astype(np.int64)

    ent_labels = names.astype(object).copy()          # L_n(entity), start n=0
    pin_labels = names[a.fwd_pred.astype(np.int64)].astype(object)  # L_n(pinst)

    history: list[np.ndarray] = [ent_labels.copy()]

    pin_uniq = pin_codes = None  # carried from the previous _hash_distinct
    for _ in range(wl_iterations):
        # entity suffix: sorted distinct pinst labels of incoming triples.
        # factorize(sort=True) assigns label codes in lexicographic order,
        # so one int64 unique over (obj * L + code) yields the per-object
        # DISTINCT labels already sorted — no pandas lexsort/groupby pass.
        #
        # From iteration 2 on, the previous pin hashing pass already
        # factorized this exact array — re-sorting its DISTINCT values
        # (≤ distinct labels, often << edges) and rank-remapping the
        # carried codes replaces a full edge-count factorize.  md5 labels
        # are short ASCII reprs, so the sort runs on a fixed-width copy
        # (C comparisons); identical order to the object sort.  Falls
        # back to factorize if truncated-digest collisions made two code
        # slots share one label (fresh factorize would merge them).
        if pin_codes is not None:
            sortable = pin_uniq.astype(np.str_) if md5_bytes else pin_uniq
            order = np.argsort(sortable, kind="stable")
            srt = pin_uniq[order]
            if len(srt) > 1 and (srt[1:] == srt[:-1]).any():
                pin_codes = None      # digest collision: merge via factorize
            else:
                rank = np.empty(len(order), dtype=np.int64)
                rank[order] = np.arange(len(order))
                lab_codes, lab_uniq = rank[pin_codes], srt
        if pin_codes is None:
            lab_codes, lab_uniq = pd.factorize(pin_labels, sort=True)
        suffix_full = _sorted_distinct_join(obj_per_edge, nv, lab_codes,
                                            lab_uniq)

        # vectorized concat (C-level object add) + distinct-only hashing
        new_ent = _hash_distinct(ent_labels + "-" + suffix_full, md5_bytes)
        pin_uniq, pin_codes = _hash_distinct_codes(
            pin_labels + "-" + ent_labels[subj_per_edge], md5_bytes
        )
        ent_labels, pin_labels = new_ent, pin_uniq[pin_codes]
        history.append(ent_labels.copy())

    entity_ids = np.flatnonzero(a.is_entity)
    return {
        str(names[v]): [str(h[v]) for h in history] for v in entity_ids
    }


def wl_labels_from_dataset(
    triples_ds, wl_iterations: int, md5_bytes: int | None = 8,
    num_buckets: int | None = None,
) -> dict[str, list[str]]:
    """WL labels computed from the triples DATASET — the SURVEY A9
    join-rounds formulation backing the sharded graph (no CSR, the
    per-triple state NEVER lands on the driver).

    ``pin_1 = H(pred + "-" + subj)`` depends on the triple alone, so ONE
    obj-keyed exchange yields the entity name set, ``suffix_0`` (over
    the preds) and ``suffix_1`` (over the pin_1 labels) of every name:
    E_1 = H(E_0 + "-" + suffix_0), E_2 = H(E_1 + "-" + suffix_1).  The
    map emits every triple as (obj, pred, pin_1, subj) plus a presence
    row per batch-distinct subject; the bucket kernel returns one
    vocabulary row (name, suffix_0, suffix_1) per name, and the
    per-triple (subj, obj, pin_1) rows only when a later round reads
    them.

    Round n ≥ 2 (only for wl_iterations > 2) is a block-local map over
    the materialized obj-bucketed rows — the suffix key never changes,
    so no further exchange: pin_n = H(pin_{n-1} + "-" + E_{n-1}[subj])
    through the broadcast entity labels, then suffix_n per obj; the
    driver takes the vocabulary rows and sets E_{n+1} = H(E_n + "-" +
    suffix_n).  The last round emits no per-triple rows and is not
    materialized.

    Ray Data jobs: 1 for wl_iterations ≤ 2 (the exchange, collected);
    2k − 3 for k > 2 (materialize + vocabulary take per generation that
    a later round reads, one collect for the last).

    The returned name → [label_0..k] map is byte-identical to
    ``wl_labels`` over one whole-graph CSR (pinned by tests)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    import ray

    from pyrdf2vec_ray.shuffle import bucket_apply
    from pyrdf2vec_ray.util import to_table

    if num_buckets is None:
        # size buckets by DATA VOLUME (~85k triple rows each), not CPU
        # count: the exchange is overhead-bound when rows per bucket get
        # small (measured 48.8s @ 32 buckets vs 26.1s @ 16 on 1.36M
        # rows); count() on the parquet-backed triples Dataset is
        # metadata-only
        try:
            num_buckets = max(4, min(256, triples_ds.count() // 85_000 + 1))
        except Exception:
            num_buckets = None

    # tagged-union blocks: vocabulary rows (subj null: obj = name,
    # suffix0, suffix) and per-triple rows (suffix null: subj, obj, pin)
    schema = pa.schema([(c, pa.string()) for c in
                        ("subj", "obj", "pin", "suffix0", "suffix")])

    def tagged(g: pa.Table, keep: bool, suffix_of: dict) -> pa.Table:
        """``g`` holds every row of its objs; triple rows have a subj.
        One vocabulary row per distinct obj of ``g``, with the suffix of
        each ``suffix_of`` label column over the triple rows, and the
        triple rows themselves when ``keep``."""
        real = g["subj"].is_valid()
        codes, names = pd.factorize(g["obj"].to_numpy(zero_copy_only=False))
        t = g.filter(real)
        t_codes = codes[real.to_numpy(zero_copy_only=False)]
        vocab = {"obj": pa.array(names, pa.string())}
        for out, col in suffix_of.items():
            lab_codes, lab_uniq = pd.factorize(
                t[col].to_numpy(zero_copy_only=False), sort=True)
            vocab[out] = pa.array(_sorted_distinct_join(
                t_codes, len(names), lab_codes, lab_uniq), pa.string())
        parts = [vocab]
        if keep:
            parts.append({c: t[c] for c in ("subj", "obj", "pin")})
        return pa.concat_tables([pa.table(
            {c: p.get(c, pa.nulls(len(p["obj"]), pa.string()))
             for c in schema.names}, schema=schema) for p in parts])

    def triple_rows(batch: pa.Table) -> pa.Table:
        subj, pred, obj = (batch[c].combine_chunks().cast(pa.string())
                           for c in ("subj", "pred", "obj"))
        # pin_1 (and suffix_1) are read from wl_iterations 2 on
        pin = pred if wl_iterations < 2 else pa.array(_hash_distinct(
            pred.to_numpy(zero_copy_only=False) + "-"
            + subj.to_numpy(zero_copy_only=False), md5_bytes), pa.string())
        present = pc.unique(subj)
        none = pa.nulls(len(present), pa.string())
        return pa.table({
            "obj": pa.concat_arrays([obj, present]),
            "pred": pa.concat_arrays([pred, none]),
            "pin": pa.concat_arrays([pin, none]),
            "subj": pa.concat_arrays([subj, none]),
        })

    def first_round(g: pa.Table) -> pa.Table:
        return tagged(g, wl_iterations > 2, {"suffix0": "pred"} | (
            {"suffix": "pin"} if wl_iterations >= 2 else {}))

    def collect(ds, more: bool):
        """(vocabulary table, the materialized rows when ``more`` rounds
        read them else None)."""
        if not more:
            return to_table(ds), None
        ds = ds.materialize()
        return to_table(ds.map_batches(
            lambda b: b.filter(pc.is_null(b["subj"])),
            batch_format="pyarrow")), ds

    vocab, T = collect(bucket_apply(
        triples_ds.map_batches(triple_rows, batch_format="pyarrow"),
        ["obj"], first_round, num_buckets=num_buckets,
    ), wl_iterations > 2)
    raw_names = np.asarray(vocab["obj"].to_numpy(zero_copy_only=False))
    order = np.argsort(raw_names.astype(np.str_), kind="stable")
    ent_names = raw_names[order].astype(np.str_)
    suffixes = [np.asarray(vocab[c].to_numpy(zero_copy_only=False),
                           dtype=object)[order]
                for c in ("suffix0", "suffix")]

    ent_lab = ent_names.astype(object).copy()
    history = [ent_lab.copy()]
    for it in range(wl_iterations):
        if it >= 2:
            # pin_it = H(pin_{it-1} + "-" + E_{it-1}[subj]) through the
            # broadcast labels (a lookup join, block-local), fused with
            # the suffix grouping of the obj-bucketed rows
            lab_ref = ray.put((ent_names, history[-2]))

            def next_round(batch: pa.Table, lab_ref=lab_ref,
                           keep=it + 1 < wl_iterations) -> pa.Table:
                names, labs = ray.get(lab_ref)
                t = batch.filter(pc.is_valid(batch["subj"]))
                subj_lab = labs[np.searchsorted(
                    names, t["subj"].to_numpy(zero_copy_only=False))]
                pin = _hash_distinct(
                    t["pin"].to_numpy(zero_copy_only=False) + "-" + subj_lab,
                    md5_bytes)
                t = t.set_column(t.schema.get_field_index("pin"), "pin",
                                 pa.array(pin, pa.string()))
                return tagged(t, keep, {"suffix": "pin"})

            vocab, T = collect(T.map_batches(
                next_round, batch_size=None, batch_format="pyarrow"),
                it + 1 < wl_iterations)
            suf_obj = np.asarray(vocab["obj"].to_numpy(zero_copy_only=False))
            if len(np.unique(suf_obj)) != len(suf_obj):
                # Ray split a bucket's output block: raise num_buckets
                raise RuntimeError(
                    f"WL round {it}: one object's triples span two blocks")
            suffix = np.full(len(ent_names), "", dtype=object)
            suffix[np.searchsorted(ent_names, suf_obj)] = np.asarray(
                vocab["suffix"].to_numpy(zero_copy_only=False), dtype=object)
            suffixes.append(suffix)
        ent_lab = _hash_distinct(ent_lab + "-" + suffixes[it], md5_bytes)
        history.append(ent_lab.copy())

    return {
        str(name): [str(h[i]) for h in history]
        for i, name in enumerate(ent_names)
    }
