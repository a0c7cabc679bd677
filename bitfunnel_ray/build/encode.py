"""Posting-list segment encoding — the exact-index replacement for the
reference's bit-sliced RowTables.

Where the reference sets bits in rank-r RowTables per posting
(reference: src/Index/src/Shard.cpp:396-417,
src/Index/src/RowTableDescriptor.cpp:118-177), we encode each term's
postings as three LEB128 varint streams (doc-id deltas, tf, doclen) plus
per-block skip metadata (last doc id and max BM25 tf-normalization per
block of ``block_size`` postings).  The block-max metadata plays the role
of the reference's coarse high-rank rows (RankDown skipping,
src/Plan/src/ByteCodeInterpreter.cpp:237-247): it lets the query engine
skip regions that cannot contribute to the top-k (block-max WAND).

``encode_bucket`` encodes EVERY chunk of a shuffle bucket with whole-bucket
vectorized numpy (no per-term varint calls): per-chunk payload boundaries
are computed from per-value byte lengths, and block metadata via
repeat/reduceat segmented ops.

The doc-delta stream of a chunk uses the codec its treatment band names
(``CODECS``: varint or Elias–Fano).  This module owns both directions:
``decode_chunk`` decodes one chunk (engine, fsck) and
``decode_bucket_table`` a whole bucket (merge); both go through
``decode_deltas``, which rejects an unknown codec id.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import pyarrow as pa

from bitfunnel_ray.functions import varint
from bitfunnel_ray.functions.bm25 import tf_norm
from bitfunnel_ray.functions.ef import decode_ef, encode_ef

DICT_SCHEMA = pa.schema(
    [
        ("term_hash", pa.uint64()),
        ("gram_size", pa.uint8()),
        ("salt", pa.uint32()),
        ("n_postings", pa.int64()),
        ("cf", pa.int64()),
        # doc-delta stream codec id per chunk (treatment-band choice;
        # ids in ``CODECS`` below)
        ("codec", pa.uint8()),
        ("docs_payload", pa.large_binary()),
        ("tf_payload", pa.large_binary()),
        ("dl_payload", pa.large_binary()),
        ("last_docs", pa.list_(pa.uint64())),
        ("max_tfn", pa.list_(pa.float64())),
    ]
)


@dataclass(frozen=True)
class Codec:
    """One doc-delta codec: ``id`` is the dict ``codec`` value on disk."""

    id: int
    encode: Callable[[np.ndarray], np.ndarray]  # uint64 deltas → uint8 stream
    decode: Callable[[np.ndarray, int], np.ndarray]  # (stream, count) → deltas


CODEC_VARINT = 0
CODEC_EF = 2  # Elias–Fano (functions/ef.py); id 1 is retired (``decode_deltas``)
# treatment-band codec name → codec; ids are on disk, never renumber them
CODECS = {
    "varint": Codec(CODEC_VARINT, varint.encode, varint.decode),
    "ef": Codec(CODEC_EF, encode_ef, decode_ef),
}
_BY_ID = {c.id: c for c in CODECS.values()}


def check_bands(bands) -> None:
    """Reject a treatment band naming an unknown codec — run before any
    spill or encode, so a bad config fails before touching the corpus."""
    for band in bands or ():
        if len(band) > 2 and band[2] not in CODECS:
            raise ValueError(
                f"treatment band {tuple(band)!r}: unknown codec {band[2]!r} "
                f"(valid codecs: {sorted(CODECS)})"
            )


def decode_deltas(codec: int, buf: np.ndarray, count: int) -> np.ndarray:
    """One chunk's doc-delta payload → its ``count`` uint64 deltas."""
    c = _BY_ID.get(int(codec))
    if c is None:
        if int(codec) == 1:
            raise ValueError(
                "doc-delta codec id 1 (PFor) is retired: rebuild this segment "
                f"(codecs: {sorted(CODECS)})"
            )
        raise ValueError(f"unknown doc-delta codec id {codec} (known: {sorted(_BY_ID)})")
    return c.decode(buf, count)


def _binary_from_stream(stream: np.ndarray, cell_ends: np.ndarray) -> pa.LargeBinaryArray:
    """Split one encoded uint8 stream into per-chunk binary cells without
    copying per cell (offsets + shared data buffer)."""
    offsets = np.empty(len(cell_ends) + 1, dtype=np.int64)
    offsets[0] = 0
    offsets[1:] = cell_ends
    return pa.LargeBinaryArray.from_buffers(
        pa.large_binary(),
        len(cell_ends),
        [None, pa.py_buffer(offsets.tobytes()), pa.py_buffer(stream.tobytes())],
    )


def encode_bucket(
    term_hash: np.ndarray,
    gram_size: np.ndarray,
    salt: np.ndarray,
    doc_id: np.ndarray,
    tf: np.ndarray,
    doclen: np.ndarray,
    avgdl: float,
    k1: float,
    b: float,
    block_size: int = 128,
) -> pa.Table:
    """Encode all postings of one shuffle bucket → dict table (one row per
    (term_hash, gram_size, salt) chunk).  Input need not be sorted.

    Cache blocking: buckets above ~2×``_PART_ROWS`` postings are first
    radix-partitioned by the TOP bits of the term hash (one stable O(n)
    pass — bucket routing uses the LOW bits, so top bits are uniform) and
    each ~64k-row part is sorted + varint-encoded with cache-resident
    temporaries.  Part outputs concatenate into the exact table a
    whole-bucket encode would produce (parts are ordered by hash prefix,
    every chunk lives entirely inside one part).  Measured: the unblocked
    kernel is memory-bandwidth-bound and degrades ~4-8x under 16-32
    concurrent workers; the blocked kernel keeps its solo speed
    (BASELINE.md perf notes)."""
    from bitfunnel_ray.functions.mem import tune_allocator

    tune_allocator()  # big temporaries reuse worker heap pages (BASELINE.md)
    n = len(doc_id)
    if n == 0:
        return DICT_SCHEMA.empty_table()
    term_hash = np.ascontiguousarray(term_hash, dtype=np.uint64)
    if n <= 2 * _PART_ROWS:
        parts = [
            _encode_part(term_hash, gram_size, salt, doc_id, tf, doclen, avgdl, k1, b, block_size)
        ]
    else:
        nbits = max(1, int(np.ceil(np.log2(n / _PART_ROWS))))
        pb = (term_hash >> np.uint64(64 - nbits)).astype(np.uint32)
        order0 = np.argsort(pb, kind="stable")  # radix, O(n)
        h0 = term_hash[order0]
        g0 = np.asarray(gram_size)[order0]
        s0 = np.asarray(salt)[order0]
        d0 = np.asarray(doc_id)[order0]
        t0 = np.asarray(tf)[order0]
        dl0 = np.asarray(doclen)[order0]
        pb = pb[order0]
        cuts = np.flatnonzero(np.diff(pb)) + 1
        bounds = np.concatenate([[0], cuts, [n]])
        parts = [
            _encode_part(
                h0[lo:hi], g0[lo:hi], s0[lo:hi], d0[lo:hi], t0[lo:hi], dl0[lo:hi],
                avgdl, k1, b, block_size,
            )
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
    return _assemble(parts)


# target rows per cache-resident encode part (all temporaries ≈ a few MB)
_PART_ROWS = 1 << 16


def _encode_part(term_hash, gram_size, salt, doc_id, tf, doclen, avgdl, k1, b, block_size):
    """Sort + encode one hash-prefix slice; returns a dict of numpy pieces."""
    n = len(doc_id)
    # 3-pass stable sort: (gram, salt) pack into one uint64 tie-break key
    # (was a 4-key lexsort — each extra key is a full stable-sort pass)
    gs = (np.asarray(gram_size, dtype=np.uint64) << np.uint64(32)) | np.asarray(
        salt, dtype=np.uint64
    )
    order = np.lexsort((doc_id, gs, term_hash))
    h = term_hash[order].astype(np.uint64, copy=False)
    g = np.asarray(gram_size)[order].astype(np.uint8, copy=False)
    s = np.asarray(salt)[order].astype(np.uint32, copy=False)
    d = np.asarray(doc_id)[order].astype(np.uint64, copy=False)
    t = np.asarray(tf)[order]
    dl = np.asarray(doclen)[order]
    gs = gs[order]

    new_chunk = np.empty(n, dtype=bool)
    new_chunk[0] = True
    new_chunk[1:] = (h[1:] != h[:-1]) | (gs[1:] != gs[:-1])
    starts = np.flatnonzero(new_chunk)
    lens = np.diff(np.append(starts, n))

    # doc-id deltas with reset at chunk starts (first value absolute)
    deltas = np.empty(n, dtype=np.uint64)
    deltas[0] = d[0]
    deltas[1:] = d[1:] - d[:-1]
    deltas[starts] = d[starts]

    # whole-bucket varint encodes + per-chunk byte boundaries; byte lengths
    # are computed once per stream and shared between the encode and the
    # boundary reduceat (tf/doclen stay uint32 until varint's single cast)
    d_len = varint.byte_lengths(deltas)
    t_len = varint.byte_lengths(t)
    dl_len = varint.byte_lengths(dl)
    docs_stream = varint.encode(deltas, d_len)
    tf_stream = varint.encode(t, t_len)
    dl_stream = varint.encode(dl, dl_len)
    docs_ends = np.add.reduceat(d_len, starts).cumsum()
    tf_ends = np.add.reduceat(t_len, starts).cumsum()
    dl_ends = np.add.reduceat(dl_len, starts).cumsum()

    # block metadata (segmented by chunk, blocks of block_size postings).
    # block_size may be a df-banded treatment spec (ub, block_size[, codec])
    # — each chunk's skip granularity AND doc-delta codec then follow its
    # frequency band (TermTreatmentFactory analog); boundaries stay
    # self-describing via last_docs.
    if isinstance(block_size, int):
        bs_chunk = np.full(len(lens), block_size, dtype=np.int64)
        codec_chunk = np.zeros(len(lens), dtype=np.uint8)
    else:
        def _parse(band):
            return (
                band[0],
                int(band[1]),
                CODECS[band[2]].id if len(band) > 2 else CODEC_VARINT,
            )

        _, last_bs, last_cd = _parse(block_size[-1])
        bs_chunk = np.full(len(lens), last_bs, dtype=np.int64)
        codec_chunk = np.full(len(lens), last_cd, dtype=np.uint8)
        for band in reversed([b for b in block_size if b[0] is not None]):
            ub, bs, cd = _parse(band)
            m = lens <= int(ub)
            bs_chunk[m] = bs
            codec_chunk[m] = cd
    if codec_chunk.any():
        # splice packed doc-delta segments over the varint stream for the
        # (few, long) chunks whose band chose a packed codec
        sz = np.diff(np.concatenate([[0], docs_ends]))
        vstarts = docs_ends - sz
        new_sz = sz.copy()
        pieces = []
        cursor = 0
        for j in np.flatnonzero(codec_chunk != CODEC_VARINT):
            pieces.append(docs_stream[cursor : vstarts[j]])
            seg = _BY_ID[int(codec_chunk[j])].encode(deltas[starts[j] : starts[j] + lens[j]])
            pieces.append(seg)
            new_sz[j] = len(seg)
            cursor = int(docs_ends[j])
        pieces.append(docs_stream[cursor:])
        docs_stream = np.concatenate(pieces)
        docs_ends = np.cumsum(new_sz)
    nblocks = (lens + bs_chunk - 1) // bs_chunk
    total_blocks = int(nblocks.sum())
    block_cum0 = np.cumsum(nblocks)
    rep_start = np.repeat(starts, nblocks)
    rep_len = np.repeat(lens, nblocks)
    rep_bs = np.repeat(bs_chunk, nblocks)
    k = np.arange(total_blocks) - np.repeat(block_cum0 - nblocks, nblocks)  # ordinal in chunk
    blk_starts = rep_start + k * rep_bs
    blk_ends = rep_start + np.minimum((k + 1) * rep_bs, rep_len) - 1
    last_docs_flat = d[blk_ends]
    tfn = tf_norm(t, dl, avgdl, k1, b)  # float64
    max_tfn_flat = np.maximum.reduceat(tfn, blk_starts) if total_blocks else np.empty(0)
    cf = np.add.reduceat(t.astype(np.int64), starts)

    return {
        "term_hash": h[starts],
        "gram_size": g[starts],
        "salt": s[starts],
        "n_postings": lens.astype(np.int64),
        "cf": cf,
        "codec": codec_chunk,
        "docs_stream": docs_stream,
        "tf_stream": tf_stream,
        "dl_stream": dl_stream,
        "docs_ends": docs_ends,
        "tf_ends": tf_ends,
        "dl_ends": dl_ends,
        "nblocks": nblocks,
        "last_docs_flat": last_docs_flat,
        "max_tfn_flat": max_tfn_flat,
    }


def _cat(parts, key):
    if len(parts) == 1:
        return parts[0][key]
    return np.concatenate([p[key] for p in parts])


def _cat_ends(parts, key):
    """Concatenate per-part cumulative byte-ends, offsetting each part by
    the total stream bytes before it."""
    if len(parts) == 1:
        return parts[0][key]
    out, off = [], 0
    for p in parts:
        e = p[key]
        out.append(e + off)
        if len(e):
            off += int(e[-1])
    return np.concatenate(out)


def _assemble(parts) -> pa.Table:
    """Stitch per-part encode pieces into the dict table (identical to a
    whole-bucket encode: parts are disjoint hash-prefix ranges in order)."""
    parts = [p for p in parts if len(p["term_hash"])]
    if not parts:
        return DICT_SCHEMA.empty_table()
    nblocks = _cat(parts, "nblocks")
    block_offsets = np.empty(len(nblocks) + 1, dtype=np.int64)
    block_offsets[0] = 0
    np.cumsum(nblocks, out=block_offsets[1:])
    last_docs = pa.ListArray.from_arrays(
        pa.array(block_offsets, pa.int32()),
        pa.array(_cat(parts, "last_docs_flat"), pa.uint64()),
    )
    max_tfn = pa.ListArray.from_arrays(
        pa.array(block_offsets, pa.int32()),
        pa.array(_cat(parts, "max_tfn_flat"), pa.float64()),
    )
    return pa.table(
        {
            "term_hash": pa.array(_cat(parts, "term_hash"), pa.uint64()),
            "gram_size": pa.array(_cat(parts, "gram_size"), pa.uint8()),
            "salt": pa.array(_cat(parts, "salt"), pa.uint32()),
            "n_postings": pa.array(_cat(parts, "n_postings")),
            "cf": pa.array(_cat(parts, "cf")),
            "codec": pa.array(_cat(parts, "codec"), pa.uint8()),
            "docs_payload": _binary_from_stream(_cat(parts, "docs_stream"), _cat_ends(parts, "docs_ends")),
            "tf_payload": _binary_from_stream(_cat(parts, "tf_stream"), _cat_ends(parts, "tf_ends")),
            "dl_payload": _binary_from_stream(_cat(parts, "dl_stream"), _cat_ends(parts, "dl_ends")),
            "last_docs": last_docs,
            "max_tfn": max_tfn,
        },
        schema=DICT_SCHEMA,
    )


@dataclass
class DecodedChunk:
    doc_ids: np.ndarray  # uint64, ascending
    tf: np.ndarray       # uint64
    doclen: np.ndarray   # uint64


def decode_chunk(
    docs_payload: bytes,
    tf_payload: bytes,
    dl_payload: bytes,
    n_postings: int,
    codec: int = CODEC_VARINT,
) -> DecodedChunk:
    deltas = decode_deltas(codec, np.frombuffer(docs_payload, dtype=np.uint8), n_postings)
    doc_ids = np.cumsum(deltas, dtype=np.uint64)
    tf = varint.decode(np.frombuffer(tf_payload, dtype=np.uint8), count=n_postings)
    dl = varint.decode(np.frombuffer(dl_payload, dtype=np.uint8), count=n_postings)
    return DecodedChunk(doc_ids, tf, dl)


def _column_stream(col: "pa.ChunkedArray | pa.Array") -> np.ndarray:
    """Concatenated bytes of a large_binary column as one uint8 array."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    offs = np.frombuffer(arr.buffers()[1], dtype=np.int64, count=len(arr) + 1)
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
    return data[offs[0] : offs[-1]]


def decode_doc_deltas(t: pa.Table) -> np.ndarray:
    """Flat doc-delta stream of every chunk of a dict table (each chunk's
    first delta absolute).  All-varint tables decode in one whole-column
    pass; otherwise the varint rows still decode together and each
    packed chunk decodes through its codec."""
    n_post = t["n_postings"].to_numpy()
    total = int(n_post.sum())
    codec = (
        t["codec"].to_numpy(zero_copy_only=False)
        if "codec" in t.column_names
        else np.zeros(len(t), np.uint8)
    )
    if not codec.any():
        return varint.decode(_column_stream(t["docs_payload"]), count=total)
    deltas = np.empty(total, dtype=np.uint64)
    post_starts = np.concatenate([[0], np.cumsum(n_post)[:-1]]).astype(np.int64)
    v_rows = np.flatnonzero(codec == CODEC_VARINT)
    if len(v_rows):
        v_np = n_post[v_rows]
        v_deltas = varint.decode(
            _column_stream(t.take(pa.array(v_rows))["docs_payload"]), count=int(v_np.sum())
        )
        # scatter the varint rows' deltas back to their chunk slots
        idx = np.repeat(post_starts[v_rows], v_np) + (
            np.arange(int(v_np.sum())) - np.repeat(np.cumsum(v_np) - v_np, v_np)
        )
        deltas[idx] = v_deltas
    docs_col = t["docs_payload"]
    for r in np.flatnonzero(codec != CODEC_VARINT):
        n = int(n_post[r])
        deltas[post_starts[r] : post_starts[r] + n] = decode_deltas(
            codec[r], np.frombuffer(docs_col[int(r)].as_py(), dtype=np.uint8), n
        )
    return deltas


def decode_bucket_table(t: pa.Table):
    """dict table → flat posting arrays (term_hash, gram, salt, doc_id,
    tf, doclen), whole-bucket vectorized: one varint decode per stream and
    a segmented cumsum to undo the per-chunk delta encoding."""
    n_post = t["n_postings"].to_numpy()
    total = int(n_post.sum())
    if total == 0:
        e = np.empty(0, np.uint64)
        return e, np.empty(0, np.uint8), np.empty(0, np.uint32), e, e, e
    deltas = decode_doc_deltas(t)
    tf = varint.decode(_column_stream(t["tf_payload"]), count=total)
    dl = varint.decode(_column_stream(t["dl_payload"]), count=total)
    starts = np.concatenate([[0], np.cumsum(n_post)[:-1]]).astype(np.int64)
    # segmented cumsum: the first delta of each chunk is absolute, so
    # doc_id = running_total - running_total[chunk_start - 1]
    run = np.cumsum(deltas, dtype=np.uint64)
    prev = np.empty(len(starts), dtype=np.uint64)
    prev[0] = 0
    prev[1:] = run[starts[1:] - 1]
    doc_ids = run - np.repeat(prev, n_post)
    h = np.repeat(t["term_hash"].to_numpy(), n_post)
    g = np.repeat(t["gram_size"].to_numpy(), n_post)
    s = np.repeat(t["salt"].to_numpy(), n_post)
    return h, g, s, doc_ids, tf, dl
