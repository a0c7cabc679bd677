"""Term hashing with reference parity.

The reference hashes every token with MurmurHash64A, fixed seed 123456789
(reference: src/Index/src/Term.cpp:335-344, impl
src/Common/Utilities/src/MurmurHash2.cpp — public-domain Austin Appleby
algorithm), and combines n-gram hashes non-commutatively as
``rotl64(left, 1) ^ right`` (reference: src/Index/src/Term.cpp:39-44 and
AddTerm at Term.cpp:141-152).  We reproduce both exactly so term identities
(and therefore df tables / posting lists / phrase formation) are comparable
against the reference fixture-for-fixture.

Hashing strategy for the hot path: batches carry millions of tokens but a
small unique vocabulary, so we hash only the unique values (scalar python
murmur with a per-process memo) and scatter back by index: the entries of
an Arrow dictionary go straight to ``hash_unique_terms``, any other input
through ``np.unique`` first (``hash_terms``); n-gram combination is then
pure uint64 numpy.
"""

from __future__ import annotations

import numpy as np

MURMUR_SEED_TEXT = 123456789  # Term.cpp:339
_M = 0xC6A4A7935BD1E995
_R = 47
_MASK = 0xFFFFFFFFFFFFFFFF


def murmur64a(data: bytes | str, seed: int = MURMUR_SEED_TEXT) -> int:
    """MurmurHash64A (64-bit platforms variant), byte-identical to the
    reference implementation (MurmurHash2.cpp:28-69, little-endian)."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    n = len(data)
    h = (seed ^ ((n * _M) & _MASK)) & _MASK
    nblocks = n // 8
    if nblocks:
        ks = np.frombuffer(data, dtype="<u8", count=nblocks)
        for k in ks.tolist():
            k = (k * _M) & _MASK
            k ^= k >> _R
            k = (k * _M) & _MASK
            h = ((h ^ k) * _M) & _MASK
    tail = data[nblocks * 8 :]
    if tail:
        t = int.from_bytes(tail, "little")
        h = ((h ^ t) * _M) & _MASK
    h ^= h >> _R
    h = (h * _M) & _MASK
    h ^= h >> _R
    return h


_memo: dict[str, int] = {}


def hash_unique_terms(terms: "list[str]", memoize: bool = True) -> np.ndarray:
    """Hash a list of DISTINCT term strings (an Arrow dictionary, the
    unique side of ``np.unique``) → uint64 per entry, in order.  No
    dedup pass: each entry is hashed (or found in the per-process memo)
    once.  ``memoize`` as in ``hash_terms``."""
    if not memoize:
        return np.array([murmur64a(t) for t in terms], dtype=np.uint64)
    memo = _memo
    vals = [memo.get(t) for t in terms]
    for i, v in enumerate(vals):
        if v is None:
            t = terms[i]
            vals[i] = v = murmur64a(t)
            if len(memo) < 4_000_000:  # bound the memo
                memo[t] = v
    return np.array(vals, dtype=np.uint64)


def hash_terms(terms, memoize: bool = True) -> np.ndarray:
    """Hash an array/sequence of term strings → uint64 array.

    Only unique values are hashed (``hash_unique_terms``, memoized per
    process); duplicates are scattered back with the inverse index from
    np.unique.

    ``memoize=False`` skips the process-global memo entirely — use it for
    HIGH-CARDINALITY non-term inputs (URLs, content strings): near-unique
    keys would pin hundreds of MB of strings per worker AND fill the
    4M-entry cap so real corpus terms stop being memoized.
    """
    arr = np.asarray(terms, dtype=object)
    if arr.size == 0:
        return np.empty(0, dtype=np.uint64)
    uniq, inv = np.unique(arr, return_inverse=True)
    return hash_unique_terms(uniq.tolist(), memoize)[inv]


def rotl1(x: np.ndarray) -> np.ndarray:
    """rotl64(x, 1) vectorized (Term.cpp:39-44)."""
    x = x.astype(np.uint64, copy=False)
    return ((x << np.uint64(1)) | (x >> np.uint64(63))).astype(np.uint64)


def combine_ngram(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Non-commutative n-gram hash combine: rotl64(left,1) ^ right
    (Term::AddTerm, Term.cpp:141-152)."""
    return rotl1(np.asarray(left, dtype=np.uint64)) ^ np.asarray(
        right, dtype=np.uint64
    )


def ngram_hash(token_hashes) -> int:
    """Hash of a phrase/n-gram from its unigram hashes, left-to-right
    (query-time formation must match ingest-time, Term.h:111-116)."""
    hs = [int(h) for h in token_hashes]
    acc = hs[0]
    for h in hs[1:]:
        acc = ((((acc << 1) | (acc >> 63)) & _MASK) ^ h) & _MASK
    return acc


# --- SQL-expressible deterministic sampling hash -------------------------
# The reference's RandomDocumentFilter draws from a sequential seeded RNG
# (src/Chunks/src/DocumentFilters.cpp:60-70) which is order-dependent and
# not parallel-safe.  We replace it with a Knuth multiplicative hash over a
# stable key — deterministic, order-free, and exactly expressible in ANSI
# SQL for the DuckDB oracle.
KNUTH = 2654435761


def knuth_hash32(keys) -> np.ndarray:
    k = np.asarray(keys).astype(np.uint64)
    return ((k * np.uint64(KNUTH)) & np.uint64(0xFFFFFFFF)).astype(np.uint64)


# Reserved stream id for document FACTS (IFactSet analog, reference:
# inc/BitFunnel/Index/IFactSet.h:30-46, src/Index/src/FactSetBase.cpp —
# facts are boolean per-document predicates indexed as private rows; here
# each fact is a synthetic term on its own stream, using the SAME
# hash + streamId general-hash fold as every other stream, Term.cpp:328-333).
# Far above any real stream id so fact hashes can't collide with a body
# term's fold.
FACT_STREAM_ID = 0x00FACC0000000000


def fact_term_hash(name: str) -> int:
    """Stored hash of the synthetic term for fact ``name``."""
    return (murmur64a(name) + FACT_STREAM_ID) & _MASK
