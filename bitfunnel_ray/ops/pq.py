"""Product quantization for the embeddings table — the memory-compressed
ANN scale path (public technique: Jégou, Douze, Schmid, "Product
Quantization for Nearest Neighbor Search", TPAMI 2011).

A 64-dim float32 vector is 256 bytes; its PQ code is ``m`` bytes (one
uint8 centroid id per subspace).  At 10^11 vectors that is the
difference between a cluster-wide scan of 25 TB and 0.8 TB — the codes
dataset fits the object store and scans at memory bandwidth while the
raw vectors stay in cold storage and are touched only by the optional
exact-refine pass over the candidate ids.

Pipeline shapes (every stage streaming, codebooks always driver-small —
m × ks × dsub floats):

- ``train_pq``: per-subspace Lloyd iterations, ONE corpus pass per
  iteration computing (subspace, centroid) → (sum, count) partials for
  all m subspaces simultaneously; init is the same seeded hash-sample as
  IVF (deterministic, no first-block bias).
- ``encode_pq``: map-only pass → (vec_id, code list<uint8>[m]).
- ``pq_topk``: asymmetric distance computation (ADC) — each query
  builds an (m × ks) inner-product lookup table against the codebooks;
  scoring a batch is m uint8 gathers + adds, no float matmul over raw
  vectors; map-side top-k partials reduce exactly like the brute-force
  scan.  With ``refine > 0`` the top ``refine`` PQ candidates per query
  are re-ranked with EXACT cosine in one broadcast-filtered pass over
  the raw embeddings (the candidate id set is nq × refine — driver
  small), so returned cosines are exact float64 recomputations (equal
  to the brute-force scan up to BLAS summation order) and recall
  approaches 1 as refine grows.

Vectors are L2-normalized before training/encoding, so the ADC inner
product approximates cosine directly (the metric every other ANN op in
ops/ann.py ranks by).

Reference analog: none (BitFunnel has no dense-vector machinery); the
op completes the ANN family (brute/LSH/IVF/PQ) for the training-data
pipelines.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa

import ray

from bitfunnel_ray.ops.ann import (
    _batch_topk,
    _final_topk_reduce,
    _seeded_init_centroids,
)
from bitfunnel_ray.query.wand import topk_order


def _unit_rows(t: pa.Table, vec_col: str) -> np.ndarray:
    vecs = np.stack(t[vec_col].to_numpy(zero_copy_only=False)).astype(np.float64)
    return vecs / np.maximum(np.linalg.norm(vecs, axis=1, keepdims=True), 1e-12)


def _assign_subspaces(unit: np.ndarray, books: np.ndarray) -> np.ndarray:
    """(n, dim) unit rows × (m, ks, dsub) codebooks → (n, m) uint8 codes
    (Euclidean argmin per subspace = argmax of x·c - |c|²/2)."""
    m, ks, dsub = books.shape
    n = len(unit)
    codes = np.empty((n, m), dtype=np.uint8)
    for j in range(m):
        sub = unit[:, j * dsub : (j + 1) * dsub]
        c = books[j]
        score = sub @ c.T - 0.5 * np.sum(c * c, axis=1)
        codes[:, j] = np.argmax(score, axis=1).astype(np.uint8)
    return codes


def train_pq(
    embeddings: "ray.data.Dataset",
    m: int = 8,
    ks: int = 16,
    n_iter: int = 5,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
) -> np.ndarray:
    """Train (m, ks, dsub) sub-codebooks; dim must divide by m and
    ks <= 256 (codes are uint8)."""
    if ks > 256:
        raise ValueError("ks must fit a uint8 code (<= 256)")
    seed_rows = _seeded_init_centroids(embeddings, ks, vec_col, id_col)
    if seed_rows is None:
        first = embeddings.select_columns([vec_col]).limit(ks).to_pandas()
        seed_rows = np.stack(first[vec_col].to_numpy()).astype(np.float64)
    # seeds are raw rows — PQ trains on unit vectors (cosine metric)
    seed_rows = seed_rows / np.maximum(
        np.linalg.norm(seed_rows, axis=1, keepdims=True), 1e-12
    )
    dim = seed_rows.shape[1]
    if dim % m:
        raise ValueError(f"dim {dim} not divisible by m={m}")
    dsub = dim // m
    books = np.ascontiguousarray(
        seed_rows[:ks].reshape(ks, m, dsub).transpose(1, 0, 2)
    )  # (m, ks, dsub)

    def partials(t: pa.Table, *, b_ref) -> pa.Table:
        b = ray.get(b_ref) if isinstance(b_ref, ray.ObjectRef) else b_ref
        if len(t) == 0:
            return pa.table(
                {
                    "key": pa.array([], pa.int64()),
                    "count": pa.array([], pa.int64()),
                    "vsum": pa.array([], pa.list_(pa.float64())),
                }
            )
        unit = _unit_rows(t, vec_col)
        codes = _assign_subspaces(unit, b)
        m_, ks_, dsub_ = b.shape
        keys, counts, sums = [], [], []
        for j in range(m_):
            sub = unit[:, j * dsub_ : (j + 1) * dsub_]
            a = codes[:, j].astype(np.int64)
            order = np.argsort(a, kind="stable")
            a_s = a[order]
            starts = np.flatnonzero(np.diff(a_s, prepend=-1))
            keys.append(j * ks_ + a_s[starts])
            counts.append(np.diff(np.append(starts, len(a_s))))
            sums.append(np.add.reduceat(sub[order], starts, axis=0))
        keys = np.concatenate(keys)
        counts = np.concatenate(counts).astype(np.int64)
        sums = np.concatenate(sums, axis=0)
        offsets = pa.array(
            np.arange(0, (len(keys) + 1) * dsub_, dsub_, dtype=np.int32)
        )
        return pa.table(
            {
                "key": pa.array(keys, pa.int64()),
                "count": pa.array(counts, pa.int64()),
                "vsum": pa.ListArray.from_arrays(
                    offsets, pa.array(sums.ravel(), pa.float64())
                ),
            }
        )

    slim = embeddings.select_columns([vec_col])
    for _ in range(n_iter):
        b_ref = ray.put(books)
        part = slim.map_batches(
            partial(partials, b_ref=b_ref), batch_format="pyarrow"
        ).to_pandas()
        sums = np.zeros((m * ks, dsub))
        counts = np.zeros(m * ks)
        np.add.at(counts, part["key"].to_numpy(), part["count"].to_numpy())
        np.add.at(sums, part["key"].to_numpy(), np.stack(part["vsum"].to_numpy()))
        live = counts > 0
        flat = books.reshape(m * ks, dsub).copy()
        flat[live] = sums[live] / counts[live, None]
        books = flat.reshape(m, ks, dsub)  # empty cells keep their centroid
    return books


def encode_pq(
    embeddings: "ray.data.Dataset",
    codebooks: np.ndarray,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
) -> "ray.data.Dataset":
    """Map-only encode → (vec_id, code list<uint8>[m])."""
    b_ref = ray.put(np.ascontiguousarray(codebooks))
    m = codebooks.shape[0]

    def enc(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "code": pa.array([], pa.list_(pa.uint8())),
                }
            )
        b = ray.get(b_ref)
        codes = _assign_subspaces(_unit_rows(t, vec_col), b)
        offsets = pa.array(np.arange(0, (len(t) + 1) * m, m, dtype=np.int32))
        return pa.table(
            {
                id_col: t[id_col].cast(pa.int64()),
                "code": pa.ListArray.from_arrays(
                    offsets, pa.array(codes.ravel(), pa.uint8())
                ),
            }
        )

    return embeddings.select_columns([id_col, vec_col]).map_batches(
        enc, batch_format="pyarrow"
    )


def _adc_batch(
    t: pa.Table, *, lut_ref, k: int, id_col: str
) -> pa.Table:
    lut = ray.get(lut_ref) if isinstance(lut_ref, ray.ObjectRef) else lut_ref
    empty = pa.table(
        {
            "query_id": pa.array([], pa.int64()),
            "vec_id": pa.array([], pa.int64()),
            "cosine": pa.array([], pa.float64()),
        }
    )
    if len(t) == 0:
        return empty
    nq, m, ks = lut.shape
    import pyarrow.compute as pc

    code_col = t["code"].combine_chunks() if isinstance(t["code"], pa.ChunkedArray) else t["code"]
    codes = pc.list_flatten(code_col).to_numpy(zero_copy_only=False).reshape(len(t), m)
    ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    out_q, out_id, out_s = [], [], []
    for qi in range(nq):
        s = np.zeros(len(t), np.float64)
        for j in range(m):  # m uint8 gathers — the whole ADC scan
            s += lut[qi, j][codes[:, j]]
        sel = topk_order(s, ids, k)
        out_q.append(np.full(len(sel), qi, np.int64))
        out_id.append(ids[sel])
        out_s.append(s[sel])
    return pa.table(
        {
            "query_id": pa.array(np.concatenate(out_q)),
            "vec_id": pa.array(np.concatenate(out_id), pa.int64()),
            "cosine": pa.array(np.concatenate(out_s), pa.float64()),
        }
    )


def pq_topk(
    codes: "ray.data.Dataset",
    codebooks: np.ndarray,
    query_vectors: np.ndarray,
    k: int = 10,
    *,
    refine: int = 0,
    embeddings: "ray.data.Dataset | None" = None,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> "ray.data.Dataset":
    """ADC top-k over the codes dataset → (query_id, rank, vec_id,
    cosine).  ``refine > 0`` re-ranks the top ``refine`` PQ candidates
    per query with exact cosine over ``embeddings`` (required then);
    returned cosines are the approximation without refine, exact with."""
    q = np.asarray(query_vectors, dtype=np.float64)
    q = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-12)
    m, ks, dsub = codebooks.shape
    # (nq, m, ks) inner-product LUT: cosine(q, decode(code)) = Σ_j q_j · c
    lut = np.einsum("qjd,jkd->qjk", q.reshape(len(q), m, dsub), codebooks)
    lut_ref = ray.put(np.ascontiguousarray(lut))
    n_cand = max(k, refine)
    partials = codes.map_batches(
        partial(_adc_batch, lut_ref=lut_ref, k=n_cand, id_col=id_col),
        batch_format="pyarrow",
    )
    approx = _final_topk_reduce(partials, n_cand)
    if not refine:
        return approx
    if embeddings is None:
        raise ValueError("refine > 0 needs the raw embeddings dataset")
    cand = approx.select_columns(["vec_id"]).to_pandas()["vec_id"].to_numpy()
    cand_ref = ray.put(np.unique(cand))

    def keep_candidates(t: pa.Table) -> pa.Table:
        want = ray.get(cand_ref)
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.filter(pa.array(np.isin(ids, want)))

    q_ref = ray.put(q)
    exact = (
        embeddings.select_columns([id_col, vec_col])
        .map_batches(keep_candidates, batch_format="pyarrow")
        .map_batches(
            partial(_batch_topk, q_ref=q_ref, k=k, id_col=id_col, vec_col=vec_col),
            batch_format="pyarrow",
        )
    )
    return _final_topk_reduce(exact, k)
