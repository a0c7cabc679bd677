"""SemDeDup: semantic deduplication by cluster-scoped cosine pruning
(Abbas et al. 2023, arXiv:2303.09540 — the public recipe: k-means the
embedding space, then within each cluster drop all but one member of
every semantic-duplicate set above a cosine threshold).

Distribution shape:
- spherical k-means is the existing streaming trainer
  (``ops/ann.kmeans_centroids`` — one pass per Lloyd iteration,
  centroids broadcast, driver folds (n_clusters × dim) partials);
- assignment is one map pass emitting (id, cluster, unit vector);
- a hash exchange on ``cluster`` co-locates each cluster, then ONE
  in-partition pass runs the greedy prune per cluster — the cluster
  structure is exactly what caps the quadratic cosine cost (the point
  of the paper), and no pair list ever reaches the driver.

Pruning rule (deterministic, id-ascending greedy): scan members by id;
drop a member whose cosine to an already-KEPT member ≥ threshold,
recording which kept doc it duplicates.  Greedy-by-id keeps exactly one
representative per duplicate set without the transitive-merge surprises
of connected components at loose thresholds.

``max_cluster`` caps the per-cluster O(c²): oversized clusters process
their first ``max_cluster`` members by id and report the skip loudly in
the returned stats (same contract as dedup.py's ``max_group``).
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa
import ray

from bitfunnel_ray.ops.ann import kmeans_centroids

_DROPS_SCHEMA = pa.schema(
    [
        ("vec_id", pa.int64()),
        ("dup_of", pa.int64()),
        ("cos", pa.float64()),
        ("cluster", pa.int64()),
    ]
)


def _assign(t: pa.Table, *, c_ref, vec_col: str, id_col: str) -> pa.Table:
    c = ray.get(c_ref) if isinstance(c_ref, ray.ObjectRef) else c_ref
    vecs = np.stack(t[vec_col].to_numpy(zero_copy_only=False)).astype(np.float64)
    unit = vecs / np.maximum(np.linalg.norm(vecs, axis=1, keepdims=True), 1e-12)
    assign = np.argmax(unit @ c.T, axis=1)
    dim = unit.shape[1]
    offsets = pa.array(np.arange(0, (len(t) + 1) * dim, dim, dtype=np.int32))
    return pa.table(
        {
            "vec_id": t[id_col].cast(pa.int64()),
            "cluster": pa.array(assign.astype(np.int64)),
            "unit": pa.ListArray.from_arrays(offsets, pa.array(unit.ravel(), pa.float64())),
        }
    )


def _prune_block(t: pa.Table, *, threshold: float, max_cluster: int) -> pa.Table:
    """One co-located partition: greedy prune each cluster it holds.
    Emits drop rows plus one stats row per truncated cluster
    (vec_id = -1, dup_of = n_skipped)."""
    if not len(t):
        return _DROPS_SCHEMA.empty_table()
    ids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    cl = t["cluster"].to_numpy(zero_copy_only=False).astype(np.int64)
    unit = np.stack(t["unit"].to_numpy(zero_copy_only=False))
    order = np.lexsort((ids, cl))
    ids, cl, unit = ids[order], cl[order], unit[order]
    starts = np.flatnonzero(np.diff(cl, prepend=-1))
    ends = np.append(starts[1:], len(cl))
    out_id, out_dup, out_cos, out_cl = [], [], [], []
    for s, e in zip(starts, ends):
        n = e - s
        c_id = int(cl[s])
        if n > max_cluster:
            # loud skip: the tail beyond the cap is not examined
            out_id.append(-1)
            out_dup.append(int(n - max_cluster))
            out_cos.append(0.0)
            out_cl.append(c_id)
            e = s + max_cluster
            n = max_cluster
        if n < 2:
            continue
        v = unit[s:e]
        g = v @ v.T  # (n, n) — bounded by max_cluster
        kept = np.zeros(n, dtype=bool)
        kept[0] = True
        for j in range(1, n):
            sims = g[j, :j][kept[:j]]
            m = float(sims.max()) if len(sims) else -1.0
            if m >= threshold:
                kept_idx = np.flatnonzero(kept[:j])[int(np.argmax(sims))]
                out_id.append(int(ids[s + j]))
                out_dup.append(int(ids[s + kept_idx]))
                out_cos.append(m)
                out_cl.append(c_id)
            else:
                kept[j] = True
    return pa.table(
        {
            "vec_id": pa.array(out_id, pa.int64()),
            "dup_of": pa.array(out_dup, pa.int64()),
            "cos": pa.array(out_cos, pa.float64()),
            "cluster": pa.array(out_cl, pa.int64()),
        }
    )


def semdedup(
    embeddings: "ray.data.Dataset",
    n_clusters: int = 16,
    threshold: float = 0.95,
    n_iter: int = 5,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    max_cluster: int = 8192,
    num_partitions: int = 16,
) -> "ray.data.Dataset":
    """Drop rows: (vec_id, dup_of, cos, cluster) for every semantic
    duplicate; ``vec_id = -1`` rows are per-cluster truncation reports
    (dup_of = members skipped past ``max_cluster``).  The drops Dataset
    stays in the object store — callers anti-join it against the corpus
    (``ops/joins.anti_join``), exactly like the other dedup ops."""
    from bitfunnel_ray.ops.exchange import exchange

    cents = kmeans_centroids(embeddings, n_clusters, n_iter, vec_col, id_col)
    c_ref = ray.put(cents)
    assigned = embeddings.select_columns([id_col, vec_col]).map_batches(
        partial(_assign, c_ref=c_ref, vec_col=vec_col, id_col=id_col),
        batch_format="pyarrow",
    )
    # whole partition: every cluster arrives complete
    return exchange(
        assigned,
        ["cluster"],
        partial(_prune_block, threshold=threshold, max_cluster=max_cluster),
        num_partitions=min(num_partitions, max(1, n_clusters)),
    )


def semdedup_table(embeddings: "ray.data.Dataset", **kw) -> pa.Table:
    """sf-scale wrapper: the drop rows as ONE deterministically sorted
    table (vec_id ascending; truncation reports first)."""
    out = semdedup(embeddings, **kw).to_pandas()
    if out.empty:
        return _DROPS_SCHEMA.empty_table()
    out = out.sort_values(["vec_id", "dup_of"]).reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False, schema=_DROPS_SCHEMA)
