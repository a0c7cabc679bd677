"""SymSpell-style spelling correction ("did you mean") from the corpus's
own vocabulary.

The serving-side feature every search engine ships: map a misspelled
query term to the closest in-vocabulary term, ranked by (edit distance
asc, document frequency desc, term asc).  The reference has the raw
material (the df table, src/Index/src/DocumentFrequencyTableBuilder.cpp)
but no corrector; this is the standard public algorithm (Garbe's
SymSpell: index DELETION variants only, so candidate generation is a
hash join instead of a vocabulary scan).

Completeness: for Levenshtein distance ≤ d, some ≤d-deletion variant of
the query equals some ≤d-deletion variant of the vocab term, so joining
the two deletion sets yields EVERY candidate within distance d; an exact
DP verify then removes the false positives the join admits.  Results are
therefore identical to the brute-force `levenshtein() <= d` scan an SQL
oracle runs.

Scale shape (the vocabulary is the data, not the corpus):

- the deletion index is a ``map_batches`` over the (term, df) table —
  ~L + L²/2 variant rows per term, hashed to uint64; the corpus itself
  is never re-read;
- a query batch broadcasts its own (small) variant set via ``ray.put``;
  candidate harvesting is a map-side ``np.isin`` filter over the index,
  so only matching (variant, term) rows — dozens per query — leave the
  workers;
- the exact-DP verify runs on the harvested candidates (driver-side here;
  itself a ``map_batches`` if the query log is large).
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa
import ray
import ray.data

from bitfunnel_ray.functions.hashing import hash_terms
from bitfunnel_ray.ops.suggest import sum_by_term


def deletion_variants(term: str, max_dist: int) -> set[str]:
    """All strings reachable from ``term`` by ≤ max_dist single-character
    deletions (includes ``term`` itself = 0 deletions)."""
    out = {term}
    frontier = {term}
    for _ in range(max_dist):
        nxt = set()
        for w in frontier:
            for i in range(len(w)):
                nxt.add(w[:i] + w[i + 1 :])
        nxt -= out
        out |= nxt
        frontier = nxt
    return out


def _index_batch(t: pa.Table, *, max_dist: int) -> pa.Table:
    terms = t["term"].to_pylist()
    dfs = t["df"].to_numpy(zero_copy_only=False).astype(np.int64)
    v_hash, v_term, v_df = [], [], []
    for w, df in zip(terms, dfs):
        vs = list(deletion_variants(w, max_dist))
        v_hash.append(hash_terms(np.asarray(vs, dtype=object)))
        v_term.extend([w] * len(vs))
        v_df.append(np.full(len(vs), df, np.int64))
    if not v_hash:
        return pa.table(
            {
                "variant_hash": pa.array([], pa.uint64()),
                "term": pa.array([], pa.string()),
                "df": pa.array([], pa.int64()),
            }
        )
    return pa.table(
        {
            "variant_hash": pa.array(np.concatenate(v_hash), pa.uint64()),
            "term": pa.array(v_term, pa.string()),
            "df": pa.array(np.concatenate(v_df), pa.int64()),
        }
    )


def spelling_index(
    vocab: "ray.data.Dataset", max_dist: int = 2
) -> "ray.data.Dataset":
    """Deletion index over a (term, df) vocabulary dataset (e.g.
    ``document_frequency_table(...)`` restricted to unigrams).  One row
    per (deletion variant, term); variants travel as uint64 hashes."""
    return vocab.select_columns(["term", "df"]).map_batches(
        partial(_index_batch, max_dist=max_dist),
        batch_format="pyarrow",
        batch_size=None,
    )


def levenshtein(a: str, b: str) -> int:
    """Plain DP edit distance (ins/del/sub, unit costs) — the verify step
    and the oracle's `levenshtein()` contract."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = np.arange(len(b) + 1, dtype=np.int64)
    cur = np.empty(len(b) + 1, dtype=np.int64)
    bb = np.frombuffer(b.encode("utf-32-le"), dtype=np.uint32)
    for i, ca in enumerate(a):
        cur[0] = i + 1
        sub = prev[:-1] + (bb != ord(ca))
        # np.minimum chains cover ins/sub; the del recurrence is a scan
        np.minimum(sub, prev[1:] + 1, out=cur[1:])
        for j in range(1, len(b) + 1):  # del needs the just-written cell
            if cur[j - 1] + 1 < cur[j]:
                cur[j] = cur[j - 1] + 1
        prev, cur = cur, prev
    return int(prev[len(b)])


def serve_correct(
    query: str, cand_fn, max_dist: int = 2
) -> pa.Table:
    """Serve-time "did you mean" over an installed/striped vocabulary —
    the ONLINE twin of ``correct_terms`` (which is the offline Dataset
    op): for each plain query token, ``cand_fn(token, max_dist)`` yields
    [(term, df, dist)] vocabulary candidates (df already summed across
    shards by the caller; dist exact Levenshtein; the exact token
    appears with dist 0 when in-vocabulary).  Tokens that are
    in-vocabulary (a dist-0 candidate) or uncorrectable (no candidates)
    emit no row; otherwise the best candidate by (dist asc, df desc,
    term asc) does — the same ranking contract as ``correct_terms`` and
    the ``spell_correct`` oracle.

    Query operators (quotes, parens, |, -, ~d, field:, ranges) are left
    alone: only bare word tokens are candidates for correction."""
    rows = {"token": [], "suggestion": [], "dist": [], "df": []}
    special = set('"()|~:*[]')
    seen: set[str] = set()
    for tok in query.split():
        if not tok or tok[0] == "-" or any(c in special for c in tok):
            continue
        if tok in seen:  # one row (and one shard round) per distinct token
            continue
        seen.add(tok)
        cands = cand_fn(tok, max_dist)
        if not cands:
            continue
        if any(d == 0 for _t, _df, d in cands):
            continue  # in vocabulary — nothing to correct
        best = min(cands, key=lambda c: (c[2], -int(c[1]), str(c[0])))
        rows["token"].append(tok)
        rows["suggestion"].append(str(best[0]))
        rows["dist"].append(int(best[2]))
        rows["df"].append(int(best[1]))
    return pa.table(
        {
            "token": pa.array(rows["token"], pa.string()),
            "suggestion": pa.array(rows["suggestion"], pa.string()),
            "dist": pa.array(rows["dist"], pa.int64()),
            "df": pa.array(rows["df"], pa.int64()),
        }
    )


def make_cand_fn(terms_sorted, dfs, matcher):
    """The canonical did-you-mean candidate harvest shared by every
    caller (local engine, shard actors, bench, oracle entry): fuzzy
    matcher members → (term, df, exact levenshtein dist) triples via one
    searchsorted df lookup per member.  ``terms_sorted`` must be sorted
    ascending with ``dfs`` aligned (``SuggestIndex.terms/.dfs`` or a
    shard's sorted stripe)."""
    terms = np.asarray(terms_sorted)
    d_arr = np.asarray(dfs)

    def cand_fn(token: str, max_dist: int):
        out = []
        for c in matcher(token, int(max_dist)):
            i = int(np.searchsorted(terms, c))
            if i < len(terms) and terms[i] == c:
                out.append((str(c), int(d_arr[i]), levenshtein(token, str(c))))
        return out

    return cand_fn


def merge_candidate_partials(parts):
    """Merge per-shard (terms, dfs, dists) candidate partials into [(term,
    df, dist)]: df sums per term (doc shards hold partial dfs; split
    stripes likewise), dist is term-intrinsic."""
    dist = {str(t): int(d) for p in parts for t, d in zip(p[0], p[2])}
    terms, dfs = sum_by_term([(p[0], p[1]) for p in parts])
    return [(t, df, dist[t]) for t, df in zip(terms.tolist(), dfs.tolist())]


def _harvest(t: pa.Table, *, want_ref) -> pa.Table:
    want = ray.get(want_ref) if isinstance(want_ref, ray.ObjectRef) else want_ref
    vh = t["variant_hash"].to_numpy(zero_copy_only=False)
    keep = np.isin(vh, want, assume_unique=False)
    return t.filter(pa.array(keep))


def correct_terms(
    index: "ray.data.Dataset", queries: list[str], max_dist: int = 2
) -> pa.Table:
    """Best in-vocabulary suggestion per query term: min (levenshtein
    dist, -df, term).  Queries with no term within ``max_dist`` are
    omitted (the oracle's `WHERE dist <= d` does the same).  Returns a
    small (query, suggestion, dist, df) table sorted by query."""
    qvars: dict[str, set[str]] = {q: deletion_variants(q, max_dist) for q in queries}
    all_vars = sorted(set().union(*qvars.values())) if qvars else []
    want = np.sort(hash_terms(np.asarray(all_vars, dtype=object))) if all_vars else np.empty(0, np.uint64)
    want_ref = ray.put(want)
    hits = index.map_batches(
        partial(_harvest, want_ref=want_ref), batch_format="pyarrow", batch_size=None
    )
    tables = [t for t in ray.get(hits.to_arrow_refs()) if len(t)]
    rows = {"query": [], "suggestion": [], "dist": [], "df": []}
    if tables:
        cand = pa.concat_tables(tables).combine_chunks()
        c_hash = cand["variant_hash"].to_numpy(zero_copy_only=False)
        c_term = np.asarray(cand["term"].to_pylist(), dtype=object)
        c_df = cand["df"].to_numpy(zero_copy_only=False)
        for q in sorted(qvars):
            qh = hash_terms(np.asarray(sorted(qvars[q]), dtype=object))
            mask = np.isin(c_hash, qh)
            if not mask.any():
                continue
            # distinct candidate terms for this query, then exact verify
            terms_q, first = np.unique(c_term[mask], return_index=True)
            dfs_q = c_df[np.flatnonzero(mask)[first]]
            best = None
            for w, df in zip(terms_q, dfs_q):
                d = levenshtein(q, str(w))
                if d > max_dist:
                    continue
                key = (d, -int(df), str(w))
                if best is None or key < best:
                    best = key
            if best is not None:
                rows["query"].append(q)
                rows["suggestion"].append(best[2])
                rows["dist"].append(best[0])
                rows["df"].append(-best[1])
    return pa.table(
        {
            "query": pa.array(rows["query"], pa.string()),
            "suggestion": pa.array(rows["suggestion"], pa.string()),
            "dist": pa.array(rows["dist"], pa.int64()),
            "df": pa.array(rows["df"], pa.int64()),
        }
    )
