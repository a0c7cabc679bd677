"""Tokenization → unique-posting extraction, vectorized over Arrow batches.

This is the Ray-Data re-expression of the reference's Document build
(reference: src/Chunks/src/Document.cpp:105-181): each document's token
stream is pushed through a 1..max_gram sliding window and every n-gram
prefix becomes a Term; postings are de-duplicated per document (the
reference keeps *presence only* — Document.cpp:178-181).  We additionally
keep the term frequency ``tf`` per (doc, term) because BM25 scoring needs
it (the reference drops it), and the unigram token count ``doclen`` for
BM25 length normalization.

Matching semantics inherited exactly:
- a term's identity is (murmur64a(text, seed 123456789), gram_size)
  combined left-to-right with rotl64^ for n-grams (Term.cpp:39-44,141-152);
- phrases at query time are the AND of their constituent n-gram terms
  (unordered co-occurrence, TermMatchTreeConverter.cpp:156-179) — which is
  why ingest indexes every 1..max_gram window.

Tokenization itself is whitespace splitting (the reference's chunk format
carries pre-tokenized text, ChunkReader.cpp:103-115; the corpus ``text``
column holds space-joined tokens with the byte-identical-per-url
invariant).  All kernels are pyarrow/numpy — no per-row Python in the hot
path except hashing the (memoized) unique vocabulary.

Dedup is dictionary-coded: the batch's tokens are Arrow
dictionary-encoded, each dictionary entry is hashed once, and a token's
code is the rank of its hash among the batch's unique hashes.  A
unigram-only batch then dedups on one int64 key (row, code) instead of
a three-key sort, and the code order is the hash order, so the postings
come out exactly as the (row, hash, gram) sort gives them (the
partition-instead-of-sort argument of "Partition, Don't Sort!", VLDB
2024).  The codes also give the per-batch vocabulary partial its df/cf
by ``np.bincount`` and its text straight from the dictionary
(``build/stats.partial_term_stats``).  N-gram batches keep the sort.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from bitfunnel_ray.functions.hashing import combine_ngram, hash_unique_terms


def flat_tokens(texts: pa.Array | pa.ChunkedArray):
    """Split a string column on whitespace → (flat token array [np object],
    doc_of [int64 per token], doclen [int64 per row]).

    Empty tokens from leading/trailing/repeated whitespace are dropped;
    null text rows tokenize to zero tokens.
    """
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n = len(texts)
    lists = pc.utf8_split_whitespace(pc.fill_null(texts, ""))
    lens = pc.fill_null(pc.list_value_length(lists), 0).to_numpy().astype(np.int64)
    flat = pc.list_flatten(lists)
    doc_of = np.repeat(np.arange(n, dtype=np.int64), lens)
    mask = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    if not mask.all():
        keep = np.flatnonzero(mask)
        flat = flat.take(pa.array(keep))
        doc_of = doc_of[keep]
    doclen = np.bincount(doc_of, minlength=n).astype(np.int64)
    return flat, doc_of, doclen


def hash_token_array(flat: pa.Array) -> np.ndarray:
    """Hash a flat token array via dictionary encoding (hash each unique
    token once, scatter by index)."""
    if len(flat) == 0:
        return np.empty(0, dtype=np.uint64)
    d = pc.dictionary_encode(flat)
    return hash_unique_terms(d.dictionary.to_pylist())[d.indices.to_numpy()]


def token_codes(flat: pa.Array) -> "tuple[np.ndarray, np.ndarray, pa.Array]":
    """Dictionary-code a flat token array → (code per token [int64],
    the batch's sorted unique hashes [uint64 per code], text per code).

    A token's code is the rank of its hash among the batch's unique
    hashes, so ordering by code is ordering by hash.  Two strings whose
    64-bit hashes collide share a code (they are one term, as everywhere
    else); the code's text is the first of them in token order (Arrow's
    dictionary keeps first-appearance order)."""
    d = pc.dictionary_encode(flat)
    hv = hash_unique_terms(d.dictionary.to_pylist())
    vocab_hash, first, dcode = np.unique(hv, return_index=True, return_inverse=True)
    code = dcode.astype(np.int64)[d.indices.to_numpy()]
    return code, vocab_hash, d.dictionary.take(pa.array(first))


def _dedup_postings(rows, hashes, grams, poss):
    """Sort one slice by (row, hash, gram) and collapse duplicates → tf,
    keeping the first-occurrence token position (for text reconstruction)."""
    order = np.lexsort((grams, hashes, rows))
    r_s, h_s, g_s = rows[order], hashes[order], grams[order]
    boundary = np.empty(len(order), dtype=bool)
    boundary[0] = True
    boundary[1:] = (r_s[1:] != r_s[:-1]) | (h_s[1:] != h_s[:-1]) | (g_s[1:] != g_s[:-1])
    starts_idx = np.flatnonzero(boundary)
    tf = np.diff(np.append(starts_idx, len(order))).astype(np.uint32)
    return r_s[starts_idx], h_s[starts_idx], g_s[starts_idx], tf, poss[order][starts_idx]


def _dedup_unigrams(doc_of, code, n_codes: int, edges):
    """Unique (row, code) postings of the tokens → (row, code, tf,
    first-occurrence position), sorted by (row, code).  The key is one
    int64 per token, ``row * n_codes + code``, so one sort per block of
    ``edges`` replaces the 3-key lexsort of ``_dedup_postings``."""
    bounds = np.searchsorted(doc_of, edges)
    parts = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        key = doc_of[a:b] * n_codes + code[a:b]
        ukey, first, tf = np.unique(key, return_index=True, return_counts=True)
        parts.append((ukey, first + a, tf))
    ukey, first, tf = (np.concatenate(c) for c in zip(*parts))
    rows = ukey // n_codes
    return rows, ukey - rows * n_codes, tf.astype(np.uint32), first.astype(np.int64)


# Cache blocking of the dedup sort by doc range: the unblocked sort over a
# whole batch is memory-bandwidth-bound and collapses under 16-32
# concurrent workers (same pathology as the encode kernel, see BASELINE.md
# perf notes).  The row is the primary sort key, so per-block outputs
# concatenate into exactly the unblocked result.
_DOC_BLOCK = 2048


def _block_edges(n_rows: int, n_postings: int) -> np.ndarray:
    """Row edges of the dedup's cache blocks (one block when small)."""
    if n_rows > 2 * _DOC_BLOCK and n_postings > (1 << 18):
        edges = np.arange(0, n_rows + _DOC_BLOCK, _DOC_BLOCK, dtype=np.int64)
        edges[-1] = n_rows
        return edges
    return np.array([0, n_rows], dtype=np.int64)


def _dedup_all_grams(doc_of, h1, max_gram: int, edges):
    """(row, hash, gram, tf, pos) of the unique 1..max_gram postings,
    deduplicated by ``_dedup_postings`` per block of ``edges``."""
    n_tok = len(h1)
    rows_parts, hash_parts, gram_parts, pos_parts = [], [], [], []
    h_prev = h1  # hashes of (g-1)-grams starting at positions 0..n-g+1
    for g in range(1, max_gram + 1):
        if g == 1:
            h_g = h1
            valid = np.ones(n_tok, dtype=bool)
            starts = doc_of
            pos = np.arange(n_tok, dtype=np.int64)
        else:
            m = n_tok - g + 1
            if m <= 0:
                break
            h_g = combine_ngram(h_prev[:m], h1[g - 1 :])
            starts = doc_of[:m]
            valid = starts == doc_of[g - 1 :]
            pos = np.arange(m, dtype=np.int64)
        sel = np.flatnonzero(valid) if not valid.all() else slice(None)
        rows_parts.append(starts[sel])
        hash_parts.append(h_g[sel])
        pos_parts.append(pos[sel])
        gram_parts.append(np.full(len(rows_parts[-1]), g, dtype=np.uint8))
        h_prev = h_g
    # each gram part's rows are ascending, so a block's slice bounds come
    # from searchsorted
    part_bounds = [np.searchsorted(rp, edges) for rp in rows_parts]
    blocks = []
    for i in range(len(edges) - 1):
        sl = [
            (rp[b[i]:b[i + 1]], hp[b[i]:b[i + 1]], gp[b[i]:b[i + 1]], pp[b[i]:b[i + 1]])
            for rp, hp, gp, pp, b in zip(rows_parts, hash_parts, gram_parts, pos_parts, part_bounds)
            if b[i + 1] > b[i]
        ]
        if sl:
            blocks.append(_dedup_postings(*(np.concatenate([s[j] for s in sl]) for j in range(4))))
    if not blocks:
        return (np.empty(0, np.int64), np.empty(0, np.uint64), np.empty(0, np.uint8),
                np.empty(0, np.uint32), np.empty(0, np.int64))
    return tuple(np.concatenate([b[j] for b in blocks]) for j in range(5))


@dataclass
class TokenizeResult:
    """Flattened unique postings for one batch of documents."""

    row: np.ndarray        # int64 — ordinal of the source row within the batch
    term_hash: np.ndarray  # uint64
    gram_size: np.ndarray  # uint8
    tf: np.ndarray         # uint32 — occurrences within the doc
    term: np.ndarray | None  # object — term text (space-joined for n-grams)
    doclen: np.ndarray     # int64 per source row — unigram token count
    n_postings: np.ndarray  # int64 per source row — unique 1..max_gram terms
    # the batch's token dictionary (``token_codes``): per posting, the
    # code of a unigram (-1 for an n-gram); per code, the hash and text
    code: np.ndarray       # int64 per posting
    vocab_hash: np.ndarray  # uint64 per code, ascending
    vocab_text: pa.Array   # string per code
    # lazy-text support (keep_pos=True): first-occurrence token position of
    # each posting + the flat token array, so a caller can reconstruct text
    # for a SUBSET of postings (e.g. one row per batch-unique n-gram — cost
    # ∝ vocabulary) instead of paying emit_text's per-posting string build
    pos: np.ndarray | None = None      # int64 per posting
    tokens: "pa.Array | None" = None   # flat whitespace tokens of the batch


def reconstruct_terms(flat: "pa.Array", pos: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Term text for selected postings: gather the gram-sized token window
    at each first-occurrence position (vectorized arrow take per gram)."""
    out = np.empty(len(pos), dtype=object)
    for g in np.unique(gram):
        m = gram == g
        p = pos[m]
        gathered = [flat.take(pa.array(p + j)).to_pylist() for j in range(int(g))]
        if g == 1:
            out[m] = np.asarray(gathered[0], dtype=object)
        else:
            out[m] = np.asarray(
                [" ".join(parts) for parts in zip(*gathered)], dtype=object
            )
    return out


def tokenize_batch(
    texts: pa.Array | pa.ChunkedArray,
    max_gram: int = 1,
    emit_text: bool = False,
    keep_pos: bool = False,
) -> TokenizeResult:
    """Tokenize a batch → deduplicated postings with tf, sorted by
    (row, term_hash, gram_size).

    The n-gram window is the vectorized equivalent of the reference's ring
    buffer (Document.cpp:105-181): gram g at token position i covers tokens
    i..i+g-1 and is valid iff all positions fall in the same document.

    Unigram-only batches dedup on one int64 key per token (``row *
    n_codes + code``, ``_dedup_unigrams``); with n-grams every posting
    goes through the (row, hash, gram) lexsort and unigram codes are
    looked up afterwards.  Both give the same postings in the same order.
    """
    flat, doc_of, doclen = flat_tokens(texts)
    n_tok, n_rows = len(flat), len(doclen)
    code, vocab_hash, vocab_text = token_codes(flat)
    edges = _block_edges(n_rows, n_tok * max_gram)
    if max_gram == 1:
        u_rows, u_code, tf, u_pos = _dedup_unigrams(doc_of, code, len(vocab_hash), edges)
        u_hash = vocab_hash[u_code]
        u_gram = np.ones(len(u_rows), dtype=np.uint8)
    else:
        u_rows, u_hash, u_gram, tf, u_pos = _dedup_all_grams(
            doc_of, vocab_hash[code], max_gram, edges
        )
        u_code = np.full(len(u_rows), -1, dtype=np.int64)
        uni = np.flatnonzero(u_gram == 1)
        u_code[uni] = np.searchsorted(vocab_hash, u_hash[uni])
    u_text = None
    if emit_text:
        # reconstruct text per unique (row, term) posting via first-
        # occurrence window gathers
        u_text = reconstruct_terms(flat, u_pos, u_gram)
    n_postings = np.bincount(u_rows, minlength=n_rows).astype(np.int64)
    return TokenizeResult(
        u_rows, u_hash, u_gram, tf, u_text, doclen, n_postings,
        u_code, vocab_hash, vocab_text,
        pos=u_pos if keep_pos else None,
        tokens=flat if keep_pos else None,
    )

