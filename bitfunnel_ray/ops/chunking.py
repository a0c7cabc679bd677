"""Document chunking — split each document into overlapping fixed-size
token windows (the embedding / retrieval prep op: window=64, stride=32
style).  Map-only (embarrassingly parallel, no exchange; output stays
partitioned like the input) and fully vectorized: one whitespace split
per batch, window membership via arange arithmetic, chunk text
reassembled with a single ``pc.binary_join`` over a ListArray — no
per-document python.

Chunk count per doc = ceil(max(n_tokens - window, 0) / stride) + 1, so
every document yields at least one chunk and every token is covered;
the final chunk may be shorter than ``window``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from bitfunnel_ray.stages.tokenize import flat_tokens


def _chunk_block(t: pa.Table, *, window: int, stride: int) -> pa.Table:
    empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "chunk_idx": pa.array([], pa.int64()),
            "n_tokens": pa.array([], pa.int64()),
            "chunk_text": pa.array([], pa.string()),
        }
    )
    if len(t) == 0:
        return empty
    flat, _doc_of, doclen = flat_tokens(t["text"])
    n_docs = len(t)
    extra = np.maximum(doclen - window, 0)
    n_chunks = (extra + stride - 1) // stride + 1
    total_chunks = int(n_chunks.sum())
    doc_rep = np.repeat(np.arange(n_docs, dtype=np.int64), n_chunks)
    chunk0 = np.concatenate([[0], np.cumsum(n_chunks)])[:-1]
    chunk_idx = np.arange(total_chunks, dtype=np.int64) - np.repeat(chunk0, n_chunks)
    cs = chunk_idx * stride
    take_len = np.minimum(window, doclen[doc_rep] - cs)
    doc_flat0 = np.concatenate([[0], np.cumsum(doclen)])[:-1]
    tstart = doc_flat0[doc_rep] + cs
    len0 = np.concatenate([[0], np.cumsum(take_len)])
    total_toks = int(len0[-1])
    within = np.arange(total_toks, dtype=np.int64) - np.repeat(len0[:-1], take_len)
    idx = np.repeat(tstart, take_len) + within
    toks = pa.ListArray.from_arrays(
        pa.array(len0, pa.int32()), flat.take(pa.array(idx))
    )
    return pa.table(
        {
            "doc_id": pa.array(t["doc_id"].to_numpy(zero_copy_only=False)[doc_rep], pa.int64()),
            "chunk_idx": pa.array(chunk_idx, pa.int64()),
            "n_tokens": pa.array(take_len.astype(np.int64), pa.int64()),
            "chunk_text": pc.binary_join(toks, " "),
        }
    )


def chunk_documents(
    corpus: "ray.data.Dataset", window: int = 64, stride: int = 32
) -> "ray.data.Dataset":
    """Overlapping token-window chunks of each document's text."""
    from functools import partial

    if stride <= 0 or window <= 0 or stride > window:
        raise ValueError("need 0 < stride <= window")
    return corpus.select_columns(["doc_id", "text"]).map_batches(
        partial(_chunk_block, window=window, stride=stride), batch_format="pyarrow"
    )


def duplicated_passages(
    docs: "ray.data.Dataset",
    window: int = 64,
    stride: int = 32,
    min_docs: int = 2,
) -> pa.Table:
    """Boilerplate-passage detection: chunk texts appearing in at least
    ``min_docs`` DISTINCT documents, with doc and occurrence counts —
    the cross-document duplicated-span signal (navigation chrome,
    license headers, template boilerplate) used to clean training text.

    Scale shape: the exchange carries (chunk_hash int64, doc_id, occ)
    only — never chunk text.  A document's chunks are produced inside
    one block, so (hash, doc) rows are globally unique before the hash
    exchange; after it, each hash's doc list is complete in one block.
    Surviving hashes (boilerplate is FEW by nature) broadcast back for a
    second map-only pass that recovers one representative text each.
    Returns (chunk_text, n_docs, n_occurrences) sorted by text."""
    import ray

    from bitfunnel_ray.ops.exchange import exchange
    from bitfunnel_ray.stages.tokenize import hash_token_array

    chunks = chunk_documents(docs, window=window, stride=stride)

    def pair_rows(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table(
                {
                    "h": pa.array([], pa.int64()),
                    "doc_id": pa.array([], pa.int64()),
                    "occ": pa.array([], pa.int64()),
                }
            )
        h = hash_token_array(
            t["chunk_text"].combine_chunks()
            if isinstance(t["chunk_text"], pa.ChunkedArray)
            else t["chunk_text"]
        ).view(np.int64)
        d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((h, d))
        d, h = d[order], h[order]
        new = np.empty(len(d), dtype=bool)
        new[0] = True
        new[1:] = (d[1:] != d[:-1]) | (h[1:] != h[:-1])
        starts = np.flatnonzero(new)
        occ = np.diff(np.append(starts, len(d))).astype(np.int64)
        return pa.table(
            {
                "h": pa.array(h[starts], pa.int64()),
                "doc_id": pa.array(d[starts], pa.int64()),
                "occ": pa.array(occ, pa.int64()),
            }
        )

    pairs = chunks.map_batches(pair_rows, batch_format="pyarrow")

    def per_hash(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "h": pa.array([], pa.int64()),
                "n_docs": pa.array([], pa.int64()),
                "n_occurrences": pa.array([], pa.int64()),
            }
        )
        if len(t) == 0:
            return empty
        h = t["h"].to_numpy(zero_copy_only=False)
        occ = t["occ"].to_numpy(zero_copy_only=False)
        order = np.argsort(h, kind="stable")
        h, occ = h[order], occ[order]
        starts = np.flatnonzero(np.diff(h, prepend=h[0] - 1))
        nd = np.diff(np.append(starts, len(h)))
        keep = nd >= min_docs
        return pa.table(
            {
                "h": pa.array(h[starts][keep], pa.int64()),
                "n_docs": pa.array(nd[keep].astype(np.int64), pa.int64()),
                "n_occurrences": pa.array(
                    np.add.reduceat(occ, starts)[keep].astype(np.int64), pa.int64()
                ),
            }
        )

    stats = exchange(pairs, ["h"], per_hash)
    tables = [x for x in ray.get(stats.to_arrow_refs()) if len(x)]
    empty_out = pa.table(
        {
            "chunk_text": pa.array([], pa.string()),
            "n_docs": pa.array([], pa.int64()),
            "n_occurrences": pa.array([], pa.int64()),
        }
    )
    if not tables:
        return empty_out
    merged = pa.concat_tables(tables)
    surv = np.sort(merged["h"].to_numpy(zero_copy_only=False))
    surv_ref = ray.put(surv)

    def texts(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table(
                {"h": pa.array([], pa.int64()), "chunk_text": pa.array([], pa.string())}
            )
        sv = ray.get(surv_ref) if isinstance(surv_ref, ray.ObjectRef) else surv_ref
        arr = (
            t["chunk_text"].combine_chunks()
            if isinstance(t["chunk_text"], pa.ChunkedArray)
            else t["chunk_text"]
        )
        h = hash_token_array(arr).view(np.int64)
        m = np.isin(h, sv)
        return pa.table(
            {
                "h": pa.array(h[m], pa.int64()),
                "chunk_text": arr.filter(pa.array(m)),
            }
        )

    samples = pa.concat_tables(
        [
            x
            for x in ray.get(
                chunks.map_batches(texts, batch_format="pyarrow").to_arrow_refs()
            )
            if len(x)
        ]
    )
    # one representative text per hash (they are identical by definition
    # modulo 64-bit collisions)
    sdf = samples.to_pandas().drop_duplicates("h").set_index("h")["chunk_text"]
    out = merged.to_pandas()
    out["chunk_text"] = out["h"].map(sdf)
    out = out[["chunk_text", "n_docs", "n_occurrences"]].sort_values("chunk_text")
    return pa.Table.from_pandas(out.reset_index(drop=True), preserve_index=False)


def skipgram_pairs(
    docs: "ray.data.Dataset", window: int = 2
) -> "ray.data.Dataset":
    """(center, context) skip-gram pairs within ±``window`` token
    positions — the embedding-training data-prep op (word2vec-style).
    MAP-ONLY and fully vectorized: one tokenize per batch, then one
    shifted-array comparison per offset (2·window slices, never a python
    loop over tokens); output streams at tokens × 2·window rows.
    Columns (doc_id, pos, d, center, context) fully identify each pair
    (pos is the 1-based center position, d the signed offset), so the
    output is a well-defined multiset the SQL oracle reproduces."""
    from functools import partial as _bind

    from bitfunnel_ray.stages.tokenize import flat_tokens

    def batch(t: pa.Table, *, w: int) -> pa.Table:
        empty = pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "pos": pa.array([], pa.int64()),
                "d": pa.array([], pa.int64()),
                "center": pa.array([], pa.string()),
                "context": pa.array([], pa.string()),
            }
        )
        if len(t) == 0:
            return empty
        flat, doc_of, doclen = flat_tokens(t["text"])
        n = len(flat)
        if n == 0:
            return empty
        starts = np.concatenate([[0], np.cumsum(doclen)])[:-1]
        pos = np.arange(n, dtype=np.int64) - starts[doc_of] + 1  # 1-based
        doc_ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        parts = []
        for d in range(-w, w + 1):
            if d == 0:
                continue
            if d > 0:
                ci = np.arange(0, n - d)
                xi = ci + d
            else:
                ci = np.arange(-d, n)
                xi = ci + d
            same = doc_of[ci] == doc_of[xi]
            ci, xi = ci[same], xi[same]
            parts.append(
                pa.table(
                    {
                        "doc_id": pa.array(doc_ids[doc_of[ci]], pa.int64()),
                        "pos": pa.array(pos[ci], pa.int64()),
                        "d": pa.array(np.full(len(ci), d, np.int64), pa.int64()),
                        "center": flat.take(pa.array(ci)),
                        "context": flat.take(pa.array(xi)),
                    }
                )
            )
        return pa.concat_tables(parts) if parts else empty

    return docs.select_columns(["doc_id", "text"]).map_batches(
        _bind(batch, w=window), batch_format="pyarrow"
    )
