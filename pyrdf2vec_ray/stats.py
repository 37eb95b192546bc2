"""`vertex_stats` pipeline (FIXTURES.md F7): per-vertex degrees,
predicate counts, PageRank, community id — the fitted-sampler state as
one queryable table (SURVEY.md §2.4).

Every column comes from one whole-graph CSR index (``GraphIndex``):
degrees are its ``indptr`` differences, predicate counts a count of its
forward predicate ids, and PageRank and communities run over its
distinct edges (SURVEY.md A5/A10 document the join-iteration scale
path).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from pyrdf2vec_ray.samplers import pagerank_scores
from pyrdf2vec_ray.stages.community import detect_communities
from pyrdf2vec_ray.state.graph_index import GraphIndex


def vertex_stats(gi: GraphIndex, alpha: float = 0.85) -> ray.data.Dataset:
    g = gi.local()
    a = g.a
    pred_count = np.bincount(a.fwd_pred, minlength=g.num_vertices)
    pr = pagerank_scores(g, alpha=alpha)
    comm = detect_communities(g)
    table = pa.table(
        {
            "name": pa.array([str(n) for n in a.names], pa.string()),
            "in_deg": pa.array(g.in_deg(), pa.int64()),
            "out_deg": pa.array(g.out_deg(), pa.int64()),
            "pred_count": pa.array(pred_count, pa.int64()),
            "pagerank": pa.array(pr, pa.float64()),
            "community": pa.array(comm.community_of, pa.int32()),
        }
    )
    return ray.data.from_arrow(table)
