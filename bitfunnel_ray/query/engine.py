"""Exact boolean matching + BM25 top-k over index segments.

This replaces the reference's whole query backend — row plan, rank-down
compiler and bytecode/JIT row-intersection engines (reference:
src/Plan/src/QueryPlanner.cpp:51-117, src/Plan/src/ByteCodeInterpreter.cpp:
163-331, src/Plan/src/NativeCodeGenerator.cpp) — with exact posting-list
set algebra in numpy:

- Unigram  → its posting list (no false positives, unlike the reference's
  probabilistic rows, TermMatchTreeConverter.cpp:182-194);
- Phrase   → AND of all 1..max_gram sliding-window terms — the reference's
  unordered co-occurrence semantics, reproduced exactly
  (TermMatchTreeConverter.cpp:156-179 + ProcessNGramBuffer:216-229);
- AND/OR/NOT → sorted-array intersect/union/difference: the shortest
  list binary-searched into the others, one sort per OR
  (ByteCodeInterpreter AndRow/Or/Not, :183-276);
- soft delete → tombstone doc_id set subtracted from every match set (the
  DocumentActive row analog, Ingestor.cpp:302-327).

Scoring contract (rank-identity with the pytest oracle, SURVEY.md §7.5):
float64 BM25, contributions of the query's distinct positive terms added
in ascending (gram_size, term_hash) order, ties broken (score desc,
doc_id asc).

Ranking has one path: a ranked surface scores its candidates with
``score`` (BM25) or ``qld_scores`` (QLD) and hands them to the ranking
tail ``wand.top_k`` / ``wand.ranked_table`` — ``search`` and exhaustive
``topk_or`` through ``_rank`` (eval → score → tail), champion lists by
scoring their candidates as an OR, QLD by scoring the union of its
terms' postings; block-max ``topk_or`` ends in the same tail inside
``wand.wand_topk``.

One ``SearchEngine`` instance is the actor state for serving (the
ConfigureForServing analog, SimpleIndex.cpp:219-270): dictionaries load
once per actor; queries then run against read-only in-memory state.
Opening has one path: the constructor sets empty state and calls
``refresh()``, which opens the segments it does not hold yet and
re-derives the corpus constants (``QueryAlgebra._set_corpus``).
"""

from __future__ import annotations

import functools
import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from bitfunnel_ray.build import segment as seglib
from bitfunnel_ray.build.encode import decode_chunk
from bitfunnel_ray.functions import bm25
from bitfunnel_ray.functions.hashing import FACT_STREAM_ID, fact_term_hash, murmur64a, ngram_hash
from bitfunnel_ray.query import ast, wand
from bitfunnel_ray.query.parser import parse_query
from bitfunnel_ray.query.vocab import Vocab
from bitfunnel_ray.query.wand import (
    _TermCursor,
    check_sort_direction,
    ranked_table,
    top_k,
    topk_order,
)


class _Segment:
    """In-memory dictionary of one segment directory.

    ``buckets`` restricts the load to a subset of dict files — the unit
    of term-sharded serving (each shard actor opens only its buckets;
    see bitfunnel_ray/query/sharded.py)."""

    def __init__(self, seg_dir: str, buckets: "list[int] | None" = None):
        self.dir = seg_dir
        man = seglib.load_manifest(seg_dir)
        if man is None:
            raise FileNotFoundError(f"no manifest in {seg_dir}")
        self.manifest = man
        self.n_docs = int(man["n_docs"])
        self.sum_doclen = int(man["sum_doclen"])
        self.avgdl = float(man["avgdl"])
        cfg = man["config"]
        self.max_gram = int(cfg["max_gram"])
        self.num_buckets = int(cfg.get("num_buckets", 16))
        self.k1, self.b = float(cfg["k1"]), float(cfg["b"])
        self.streams = {name: int(sid) for (name, _col, sid) in cfg.get("streams", [["body", "text", 0]])}
        self.facts = [tuple(f) for f in cfg.get("facts", []) or []]
        if buckets is None:
            files = sorted(glob.glob(os.path.join(seg_dir, "dict-*.parquet")))
        else:
            files = [
                p
                for b in sorted(buckets)
                if os.path.exists(p := seglib.bucket_path(seg_dir, int(b)))
            ]
        tables = [pq.read_table(f) for f in files]
        self.dict = (
            pa.concat_tables(tables) if tables else None
        )
        if self.dict is not None and len(self.dict):
            self.dict = self.dict.combine_chunks()
            self._hash = self.dict["term_hash"].to_numpy()
            self._gram = self.dict["gram_size"].to_numpy()
            self._salt = self.dict["salt"].to_numpy()
            self._np = self.dict["n_postings"].to_numpy()
            self._order = np.lexsort((self._salt, self._gram, self._hash))
            self._h_sorted = self._hash[self._order]
        else:
            self._h_sorted = np.empty(0, dtype=np.uint64)

    def chunk_rows(self, term_hash: int, gram: int) -> list[int]:
        """dict row indices for a term, ascending salt (= ascending
        doc-id range, ranges disjoint by construction)."""
        if not len(self._h_sorted):
            return []
        # NB: the key must be a np.uint64 — a python int scalar is promoted
        # through float64 by searchsorted, which rounds 64-bit hashes and
        # matches neighboring values
        key = np.uint64(term_hash)
        lo = np.searchsorted(self._h_sorted, key, side="left")
        hi = np.searchsorted(self._h_sorted, key, side="right")
        rows = [int(self._order[i]) for i in range(lo, hi) if self._gram[self._order[i]] == gram]
        return rows

    def decode_rows(self, rows: list[int]):
        docs_col = self.dict["docs_payload"]
        tf_col = self.dict["tf_payload"]
        dl_col = self.dict["dl_payload"]
        # codec column absent in pre-treatment segments → all-varint
        codec_col = (
            self.dict["codec"] if "codec" in self.dict.column_names else None
        )
        parts = [
            decode_chunk(
                docs_col[r].as_py(),
                tf_col[r].as_py(),
                dl_col[r].as_py(),
                int(self._np[r]),
                int(codec_col[r].as_py()) if codec_col is not None else 0,
            )
            for r in rows
        ]
        return parts

    def block_meta_rows(self, rows: list[int], avgdl: float):
        """(last_docs, max_tfn) arrays per chunk row (build-time block-max
        metadata, bitfunnel_ray/build/encode.py), max_tfn inflated for a
        serving ``avgdl`` above this segment's build avgdl: tfn is monotone
        in avgdl with ratio bounded by avgdl_serve/avgdl_build, so the
        inflated maxima stay safe upper bounds."""
        infl = max(1.0, avgdl / self.avgdl) if self.avgdl > 0 else 1.0
        ld_col = self.dict["last_docs"]
        mt_col = self.dict["max_tfn"]
        return [
            (
                np.asarray(ld_col[r].as_py(), dtype=np.uint64),
                np.asarray(mt_col[r].as_py(), dtype=np.float64) * infl,
            )
            for r in rows
        ]


class Postings:
    """Merged posting list of one term across segments.

    ``block_last``/``block_max_tfn`` are the build-time block-max skip
    metadata (None when segments interleaved at merge — the WAND path then
    recomputes exact blocks from the decoded list).

    ``impacts(...)`` is the list's impact array: every posting's BM25
    contribution (``bm25.score_contrib``), built on first use and memoized
    under the full key (df, n_docs, avgdl, k1, b).  The key carries all
    of them because the same cached object serves changing statistics: a
    doc-shard engine scores under each request's global df / n_docs /
    avgdl, and ``refresh`` moves avgdl.  Memo and key are one tuple, so a
    concurrent reader never pairs an array with another key."""

    __slots__ = ("doc_ids", "tf", "doclen", "df", "block_last", "block_max_tfn", "_impacts")

    def __init__(self, doc_ids, tf, doclen, df, block_last=None, block_max_tfn=None):
        self.doc_ids, self.tf, self.doclen, self.df = doc_ids, tf, doclen, df
        self.block_last, self.block_max_tfn = block_last, block_max_tfn
        self._impacts = None

    def impacts(self, df, n_docs, avgdl, k1, b) -> np.ndarray:
        key = (df, n_docs, avgdl, k1, b)
        memo = self._impacts
        if memo is None or memo[0] != key:
            memo = (key, bm25.score_contrib(self.tf, self.doclen, *key))
            self._impacts = memo
        return memo[1]


_EMPTY = Postings(
    np.empty(0, np.uint64), np.empty(0, np.uint64), np.empty(0, np.uint64), 0
)


def merge_chunks(parts, metas) -> Postings:
    """Merge decoded chunks (ascending doc ranges per chunk) + block-max
    metadata into one Postings.  If chunk doc ranges interleave (multi
    segment / head-term salting across shards) the list is re-sorted and
    the block metadata dropped (WAND then recomputes exact blocks)."""
    if not parts:
        return _EMPTY
    docs = np.concatenate([p.doc_ids for p in parts])
    tf = np.concatenate([p.tf for p in parts])
    dl = np.concatenate([p.doclen for p in parts])
    block_last = np.concatenate([m[0] for m in metas])
    block_ub = np.concatenate([m[1] for m in metas])
    if len(parts) > 1 and not np.all(docs[1:] > docs[:-1]):
        order = np.argsort(docs, kind="stable")
        docs, tf, dl = docs[order], tf[order], dl[order]
        block_last = block_ub = None  # interleaved: metadata invalid
    return Postings(docs, tf, dl, len(docs), block_last, block_ub)


@functools.lru_cache(maxsize=1 << 16)
def _term_key(text: str, stream: int = 0) -> "tuple[int, int]":
    """(stored hash, gram) of a unigram: general hash = rawHash + streamId
    (ComputeGeneralHash parity).  A bounded memo, so a query term is
    hashed once rather than at every walk of its AST."""
    return ((murmur64a(text) + stream) & 0xFFFFFFFFFFFFFFFF, 1)


def _windows(n: int, max_gram: int) -> "list[tuple[int, int]]":
    """(start, length) of every 1..max_gram sliding window over n tokens."""
    return [(i, g) for i in range(n) for g in range(1, min(max_gram, n - i) + 1)]


@functools.lru_cache(maxsize=1 << 14)
def _phrase_keys(tokens: "tuple[str, ...]", stream: int, max_gram: int):
    """(hash, gram) of every window of a phrase — exactly the reference's
    ring-buffer emission (TermMatchTreeConverter::ProcessNGramBuffer);
    stream folded into each gram's stored hash."""
    h1 = [_term_key(t)[0] for t in tokens]
    return tuple(
        ((ngram_hash(h1[i : i + g]) + stream) & 0xFFFFFFFFFFFFFFFF, g)
        for i, g in _windows(len(tokens), max_gram)
    )


def _leaves(node: "ast.Node", negated: bool = False):
    """(leaf, negated) for every Term and Phrase leaf; negated = under an
    odd number of Nots."""
    if isinstance(node, ast.Not):
        yield from _leaves(node.child, not negated)
    elif isinstance(node, (ast.And, ast.Or, ast.AtLeast)):
        for c in node.children:
            yield from _leaves(c, negated)
    elif isinstance(node, (ast.Term, ast.Phrase)):
        yield node, negated


def _member(m: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Mask of the entries of sorted ``m`` found in sorted ``d``: ``m``
    is probed into ``d`` by binary search (small-into-large, as in HERO),
    so neither list is merged or sorted."""
    if not len(d):
        return np.zeros(len(m), dtype=bool)
    idx = np.searchsorted(d, m)
    idx[idx == len(d)] = 0
    return d[idx] == m


def _intersect(lists: "list[np.ndarray]") -> np.ndarray:
    """Intersection of sorted unique arrays, shortest probed into the rest."""
    lists = sorted(lists, key=len)
    m = lists[0]
    for d in lists[1:]:
        if not len(m):
            break
        m = m[_member(m, d)]
    return m


def _union(lists: "list[np.ndarray]") -> np.ndarray:
    """Union of sorted unique arrays: one sort of their concatenation."""
    return np.unique(np.concatenate(lists)) if lists else np.empty(0, np.uint64)


class QueryAlgebra:
    """Query-side algebra shared by the single-process ``SearchEngine``
    and the scatter-gather ``ShardedSearchEngine``
    (bitfunnel_ray/query/sharded.py).

    Subclasses provide the storage primitives:
      - ``postings(term_hash, gram) -> Postings``
      - ``_complement(sorted_docs) -> sorted doc ids NOT in the input``
    plus ``tombstones``, the corpus constants (``n_docs, avgdl, max_gram,
    k1, b, stream_map, fact_hashes``, set from the segments by
    ``_set_corpus``) and optionally ``urls``/``all_docs`` (URL decoration).

    NOT/complement never touches a global doc-id array here — it is a
    single ``_complement`` call, so a sharded engine can anti-join against
    per-shard doc ranges (the DocumentActive-row analog at cluster scale).
    """

    urls = None
    all_docs = None
    # stored hashes of configured FACT terms (IFactSet analog): facts
    # participate in boolean matching but score ZERO — they are rank-0
    # filter rows in the reference, not scored content
    fact_hashes: frozenset = frozenset()
    # per-engine instrumentation: posting rows touched by eval/score — the
    # QueryPipelineStatistics "quadwords read" analog
    # (reference: inc/BitFunnel/Plan/QueryInstrumentation.h:48-174); the
    # runner snapshots the counter around each query to emit a per-query
    # postings_rows column.
    stat_postings_rows = 0

    def _set_corpus(self, segments: "list[_Segment]") -> None:
        """The corpus constants of a segment set: ``n_docs`` and ``avgdl``
        from the summed totals, ``max_gram``/``k1``/``b`` and the streams
        (plus the fact stream) from the first segment, and the stored
        hashes of every segment's facts."""
        self.n_docs = sum(s.n_docs for s in segments)
        self.avgdl = sum(s.sum_doclen for s in segments) / self.n_docs if self.n_docs else 1.0
        s0 = segments[0]
        self.max_gram, self.k1, self.b = s0.max_gram, s0.k1, s0.b
        self.stream_map = dict(s0.streams)  # name -> id (StreamConfiguration analog)
        self.stream_map.setdefault("fact", FACT_STREAM_ID)
        self.fact_hashes = frozenset(fact_term_hash(n) for s in segments for (n, _c) in s.facts)

    def postings(self, term_hash: int, gram: int) -> Postings:  # pragma: no cover
        raise NotImplementedError

    def _complement(self, sorted_docs: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def _range_docs(self, col: str, lo: float, hi: float) -> np.ndarray:  # pragma: no cover
        """Sorted doc ids whose doc-values column is in [lo, hi] (the
        Range query node).  Local engines mask their cached doc-values
        array; sharded engines union per-shard stripe scans."""
        raise NotImplementedError(
            "range queries need a docmeta-backed engine (SearchEngine / "
            "ShardedSearchEngine)"
        )

    def docvalues_for(
        self, sorted_ids: np.ndarray, col: str
    ) -> np.ndarray:  # pragma: no cover
        """float64 doc values aligned to ``sorted_ids`` (NaN = null/absent).
        Local engines read one cached docmeta column; sharded engines
        scatter-gather their per-shard stripes."""
        raise NotImplementedError(
            "doc values need a docmeta-backed engine (SearchEngine / "
            "ShardedSearchEngine)"
        )

    def _docvalue_mask(
        self, matches: np.ndarray, col: str, lo: float, hi: float
    ) -> np.ndarray:
        if not len(matches):
            return np.zeros(0, dtype=bool)
        v = self.docvalues_for(matches, col)
        return (v >= lo) & (v < hi)  # NaN (null) compares False: excluded

    def term_postings(self, text: str, stream: int = 0) -> Postings:
        return self.postings(*_term_key(text, stream))

    # --- vocabulary: suggest, fuzzy ``term~d`` and "did you mean" ---------
    # dictionaries store hashes, not text, so these surfaces need a (term,
    # df) vocabulary: one a caller installs via set_* (it wins, and
    # survives refresh), else the segments' sidecars through the engine's
    # lazy ``vocab`` service (query/vocab.py; None on fronts without one)
    fuzzy_matcher = None
    suggest_index = None
    vocab = None

    def set_fuzzy_vocabulary(self, terms) -> None:
        """Install the vocabulary used to expand ``term~d`` fuzzy queries
        (an iterable / Arrow array of term strings; typically the df
        table's ``term`` column or the TermToText sidecar)."""
        from bitfunnel_ray.query.fuzzy import VocabFuzzyMatcher

        self.fuzzy_matcher = VocabFuzzyMatcher(terms)

    def set_suggest_vocabulary(self, terms, dfs) -> None:
        """Install the unigram (term, df) vocabulary behind ``suggest``
        (typically the df table's term/df columns)."""
        from bitfunnel_ray.ops.suggest import SuggestIndex

        self.suggest_index = SuggestIndex(terms, dfs)

    def _installed_or_sidecar(self, name: str):
        got = getattr(self, name)
        if got is None and self.vocab is not None:
            got = getattr(self.vocab, name)
        return got

    def suggest(self, prefix: str, k: int = 10) -> pa.Table:
        """Top-k prefix completions (df desc, term asc) — search-as-you-
        type over the vocabulary."""
        si = self._installed_or_sidecar("suggest_index")
        if si is None:
            raise RuntimeError(
                "no suggest vocabulary installed — call "
                "set_suggest_vocabulary(terms, dfs) with the df table / "
                "TermToText sidecar"
            )
        return si.complete(prefix, k)

    # --- "did you mean" (serve-time spelling correction) -------------------
    def correct_candidates(self, token: str, max_dist: int = 2):
        """Vocabulary candidates for one query token as [(term, df,
        dist)] — exact-token included with dist 0 when in-vocabulary, or
        None when no vocabulary is installed/available.  Backs
        ``correct()``; the sharded fronts gather it per shard."""
        si = self._installed_or_sidecar("suggest_index")
        m = self._installed_or_sidecar("fuzzy_matcher")
        if si is None or m is None:
            return None
        from bitfunnel_ray.ops.spell import make_cand_fn

        return make_cand_fn(si.terms, si.dfs, m)(token, int(max_dist))

    def correct(self, query: str, max_dist: int = 2) -> pa.Table:
        """Serve-time "did you mean": per misspelled (out-of-vocabulary)
        plain token, the best vocabulary replacement by (edit distance
        asc, df desc, term asc) — the online twin of the offline
        ``ops/spell.correct_terms`` Dataset op, powered by the same
        vocabulary the suggest/fuzzy surfaces use (vocab sidecar or
        set_* install).  Returns (token, suggestion, dist, df) rows."""
        from bitfunnel_ray.ops.spell import serve_correct

        probe = self.correct_candidates("", 0)
        if probe is None:
            raise RuntimeError(
                "correct() needs a vocabulary — build segments with "
                "vocab_sidecar (cli build --vocab) or install one via "
                "set_suggest_vocabulary + set_fuzzy_vocabulary"
            )
        return serve_correct(query, self.correct_candidates, int(max_dist))

    # --- result cache -------------------------------------------------------
    # bounded LRU over (query, k) for the static-argument search path; a
    # hit skips parse/eval/score entirely.  Engines clear it on refresh()
    # (new segments change results) — the standard serving-tier cache with
    # NRT invalidation.
    _result_cache = None

    def enable_result_cache(self, cap: int = 1024) -> None:
        from bitfunnel_ray.query.sharded import LruCache

        self._result_cache = LruCache(int(cap))

    def _invalidate_result_cache(self) -> None:
        if self._result_cache is not None:
            self.enable_result_cache(self._result_cache.cap)

    def _parse_rewritten(
        self, query: str, synonyms: dict[str, tuple[str, ...]] | None = None
    ) -> "ast.Node":
        """Parse + query rewrites shared by search/match_count/explain:
        synonym expansion first (a synonym member may itself be fuzzy-
        matched only if written that way), then fuzzy expansion against
        the installed vocabulary."""
        node = parse_query(query, self.stream_map)
        if synonyms:
            node = ast.expand_synonyms(node, synonyms)
        if ast.has_fuzzy(node):
            m = self._installed_or_sidecar("fuzzy_matcher")
            if m is None:
                raise ValueError(
                    "query uses the fuzzy operator (~d) but no vocabulary is "
                    "installed — call set_fuzzy_vocabulary(terms) first"
                )
            node = ast.expand_fuzzy(node, m)
        return node

    # --- term extraction --------------------------------------------------
    def _leaf_keys(self, leaf: "ast.Term | ast.Phrase") -> "tuple[tuple[int, int], ...]":
        """The (hash, gram) keys of one Term or Phrase leaf."""
        if isinstance(leaf, ast.Term):
            return (_term_key(leaf.text, leaf.stream),)
        return _phrase_keys(tuple(leaf.tokens), leaf.stream, self.max_gram)

    def query_pairs(self, node: ast.Node) -> "list[tuple[int, int]]":
        """Every (hash, gram) a query's evaluation will touch (positive AND
        negated terms — eval needs both).  This is the PLAN phase's work
        list: the runner resolves these against storage (dict lookup +
        decode, or one batched RPC per shard) before matching."""
        return sorted({k for leaf, _neg in _leaves(node) for k in self._leaf_keys(leaf)})

    def scoring_terms(self, node: ast.Node) -> list[tuple[int, int]]:
        """Distinct positive (hash, gram) terms, ascending (gram, hash) —
        the canonical BM25 accumulation order."""
        acc = {k for leaf, neg in _leaves(node) if not neg for k in self._leaf_keys(leaf)}
        if self.fact_hashes:
            acc = {p for p in acc if p[0] not in self.fact_hashes}
        return sorted(acc, key=lambda p: (p[1], p[0]))

    def scoring_boosts(self, node: ast.Node) -> dict[tuple[int, int], float]:
        """(hash, gram) → query-time boost for every positive scoring
        term whose boost is not 1.  A term occurring more than once takes
        the MAX over its occurrences, an unboosted one counting as 1.0
        (``t^0.5 t`` scores as ``t``, matching the dedupe in
        ``scoring_terms``); phrase boosts apply to every constituent
        gram.  Empty dict when nothing is boosted — the common case costs
        one AST walk and no score-path work."""
        pos = [leaf for leaf, neg in _leaves(node) if not neg]
        if all(leaf.boost == 1.0 for leaf in pos):
            return {}
        boosts: dict[tuple[int, int], float] = {}
        for leaf in pos:
            for key in self._leaf_keys(leaf):
                boosts[key] = max(boosts.get(key, leaf.boost), leaf.boost)
        return {key: b for key, b in boosts.items() if b != 1.0}

    # --- boolean evaluation ----------------------------------------------
    def eval(self, node: ast.Node) -> np.ndarray:
        """Sorted unique doc_id array matching the node."""
        m = self._eval(node)
        if self.tombstones is not None:
            m = m[~_member(m, self.tombstones)]
        return m

    def _eval(self, node: ast.Node) -> np.ndarray:
        if isinstance(node, ast.Term):
            return self.term_postings(node.text, node.stream).doc_ids
        if isinstance(node, ast.Range):
            return self._range_docs(node.col, node.lo, node.hi)
        if isinstance(node, ast.Phrase):
            return _intersect([self.postings(h, g).doc_ids for h, g in self._leaf_keys(node)])
        if isinstance(node, ast.And):
            pos = [c for c in node.children if not isinstance(c, ast.Not)]
            neg = [c.child for c in node.children if isinstance(c, ast.Not)]
            if not pos:
                # pure-negative conjunction: ONE complement of the union of
                # negated children (never materializes all_docs per child)
                return self._complement(_union([self._eval(c) for c in neg]))
            m = _intersect([self._eval(c) for c in pos])
            for c in neg:
                if not len(m):
                    break
                m = m[~_member(m, self._eval(c))]
            return m
        if isinstance(node, ast.Or):
            return _union([self._eval(c) for c in node.children])
        if isinstance(node, ast.Not):
            return self._complement(self._eval(node.child))
        if isinstance(node, ast.AtLeast):
            # minimum-should-match: each child's eval is unique, so a
            # doc's multiplicity across the concatenation IS its clause
            # count — one unique(return_counts) does the whole group
            lists = [self._eval(c) for c in node.children]
            ids = np.concatenate(lists) if lists else np.empty(0, np.uint64)
            if not len(ids):
                return np.empty(0, dtype=np.uint64)
            u, c = np.unique(ids, return_counts=True)
            return u[c >= node.m]
        raise TypeError(f"unknown node {node!r}")

    # --- scoring ----------------------------------------------------------
    # df_override: {(term_hash, gram): corpus-wide df} — set by
    # doc-sharded serving (query/docsharded.py), where each shard holds
    # only its documents' postings but BM25 idf must use the GLOBAL df
    # (two-phase distributed scoring: stats round, then scoring round).
    df_override: "dict[tuple[int, int], int] | None" = None

    def _df(self, h: int, g: int, p) -> int:
        o = self.df_override
        if o is None:
            return p.df
        return int(o.get((int(h), int(g)), p.df))

    def _impacts(self, df: int, p: Postings) -> np.ndarray:
        """``p``'s impact array under this engine's current statistics."""
        return p.impacts(df, self.n_docs, self.avgdl, self.k1, self.b)

    def score(self, node: ast.Node, matches: np.ndarray) -> np.ndarray:
        """float64 BM25 score of each match (canonical accumulation order):
        per term, a gather from its impact array, added to the total."""
        scores = np.zeros(len(matches), dtype=np.float64)
        if not len(matches):
            return scores
        boosts = self.scoring_boosts(node)
        for h, g in self.scoring_terms(node):
            p = self.postings(h, g)
            if not p.df:
                continue
            imp = self._impacts(self._df(h, g, p), p)
            if matches is p.doc_ids:  # a one-term query's own posting list
                rows, contrib = slice(None), imp
            else:
                idx = np.searchsorted(p.doc_ids, matches)
                idx[idx == len(p.doc_ids)] = 0
                rows = p.doc_ids[idx] == matches
                if rows.all():  # every match holds the term (a conjunct)
                    rows = slice(None)
                contrib = imp[idx[rows]]
            mult = boosts.get((h, g))
            scores[rows] += contrib * mult if mult is not None else contrib
        return scores

    # --- explain ----------------------------------------------------------
    def scoring_term_labels(self, node: "ast.Node") -> dict[tuple[int, int], str]:
        """(hash, gram) → human-readable label for every positive scoring
        term (phrases label their constituent 1..max_gram windows)."""
        labels: dict[tuple[int, int], str] = {}
        for leaf, neg in _leaves(node):
            if neg:
                continue
            if isinstance(leaf, ast.Term):
                labels[_term_key(leaf.text, leaf.stream)] = leaf.text
            else:
                toks = leaf.tokens
                texts = (" ".join(toks[i : i + g]) for i, g in _windows(len(toks), self.max_gram))
                labels.update(zip(self._leaf_keys(leaf), texts))
        return labels

    def explain(self, query: str, doc_id: int) -> pa.Table:
        """Per-term BM25 breakdown for one (query, doc) pair — the
        debugging surface every engine ships.  Columns (term, gram, tf,
        doclen, df, idf, contribution); each contribution is the doc's
        entry of the impact array ``score`` reads, boosted the same way,
        so the contributions sum bit-exactly to the document's score."""
        node = self._parse_rewritten(query)
        labels = self.scoring_term_labels(node)
        boosts = self.scoring_boosts(node)
        doc = np.uint64(doc_id)
        terms, grams, tfs, dls, dfs, idfs, contribs = [], [], [], [], [], [], []
        for h, g in self.scoring_terms(node):
            p = self.postings(h, g)
            if not p.df:
                continue
            i = int(np.searchsorted(p.doc_ids, doc))
            if i >= len(p.doc_ids) or p.doc_ids[i] != doc:
                continue
            df = self._df(h, g, p)
            terms.append(labels.get((h, g), f"0x{h:016x}"))
            grams.append(g)
            tfs.append(int(p.tf[i]))
            dls.append(int(p.doclen[i]))
            dfs.append(int(df))
            idfs.append(float(bm25.idf(df, self.n_docs)))
            c = float(self._impacts(df, p)[i])
            mult = boosts.get((h, g))
            contribs.append(c * mult if mult is not None else c)
        return pa.table(
            {
                "term": pa.array(terms, pa.string()),
                "gram": pa.array(grams, pa.uint8()),
                "tf": pa.array(tfs, pa.int64()),
                "doclen": pa.array(dls, pa.int64()),
                "df": pa.array(dfs, pa.int64()),
                "idf": pa.array(idfs, pa.float64()),
                "contribution": pa.array(contribs, pa.float64()),
            }
        )

    # --- top-k ------------------------------------------------------------
    def search(
        self,
        query: str,
        k: int = 10,
        after: tuple[float, int] | None = None,
        synonyms: dict[str, tuple[str, ...]] | None = None,
        range_filter: "tuple[str, float, float] | None" = None,
        sort_by: "tuple[str, str] | None" = None,
    ) -> pa.Table:
        """Parse → match → score → top-k (score desc, doc_id asc).

        ``after=(score, doc_id)`` is a search-after cursor (the last row of
        the previous page): only documents STRICTLY later in the total
        order (score desc, doc_id asc) are returned, so deep paging keeps a
        k-sized working set instead of an offset+k heap.  Cursors are
        copied from the engine's own output, so the float comparison is
        exact (same doubles).

        ``synonyms`` maps a term to its expansion group (see
        ``ast.expand_synonyms``): each matching unigram becomes an OR of
        its group, scored as an ordinary disjunction."""
        cacheable = (
            self._result_cache is not None
            and after is None
            and synonyms is None
            and range_filter is None
            and sort_by is None
        )
        if cacheable:
            hit = self._result_cache.get((query, k))
            if hit is not None:
                return hit
        doc_ids, scores = self._rank(
            self._parse_rewritten(query, synonyms), k, after, range_filter, sort_by
        )
        urls = None if self.urls is None else self.urls[np.searchsorted(self.all_docs, doc_ids)]
        out = ranked_table(doc_ids, scores, urls)
        if cacheable:
            self._result_cache.put((query, k), out)
        return out

    def _rank(self, node: "ast.Node", k: int, after=None, range_filter=None, sort_by=None):
        """eval → score → the ranking tail (``wand.top_k``): the top-k
        ``(doc_ids, scores)`` of ``node``."""
        matches = self.eval(node)
        if range_filter is not None:
            # doc-values fast-field filter (Lucene NumericDocValues /
            # Tantivy fast-field analog): [lo, hi) over a numeric docmeta
            # column, applied BEFORE scoring so filtered docs cost nothing
            col, lo, hi = range_filter
            matches = matches[self._docvalue_mask(matches, col, lo, hi)]
        sort = None
        if sort_by is not None:
            # sort-by-field (the Elasticsearch ``sort`` contract): order
            # matches by a doc-values column instead of relevance; score
            # is still computed and returned for display
            if after is not None:
                raise ValueError("sort_by and after (score cursor) conflict")
            direction = check_sort_direction(sort_by[1])
            sort = (self.docvalues_for(matches, sort_by[0]), direction)
        return top_k(matches, self.score(node, matches), k, after, sort)

    def match_count(self, query: str) -> int:
        return int(len(self.eval(self._parse_rewritten(query))))

    # --- ranked disjunctive top-k (vectorized block-max fast path) --------
    def _term_cursor(self, text: str):
        h, g = _term_key(text)
        p = self.postings(h, g)
        if not p.df:
            return None
        df = self._df(h, g, p)
        contrib = self._impacts(df, p)
        if p.block_last is not None:
            last, ub = p.block_last, bm25.term_weight(df, self.n_docs, self.k1) * p.block_max_tfn
        else:
            # interleaved segments: recompute exact blocks from decoded list
            bs = 128
            starts = np.arange(0, len(contrib), bs)
            last = p.doc_ids[np.minimum(starts + bs - 1, len(contrib) - 1)]
            ub = np.maximum.reduceat(contrib, starts)
        doc_ids = p.doc_ids
        if self.tombstones is not None:
            # dead postings leave the list, so the threshold is taken over
            # live documents only; the block bounds stay safe upper bounds
            live = ~np.isin(doc_ids, self.tombstones, assume_unique=True)
            doc_ids, contrib = doc_ids[live], contrib[live]
        return _TermCursor(doc_ids, contrib, last, ub)

    def topk_or(
        self,
        terms: list[str],
        k: int = 10,
        use_wand: bool = True,
        after: tuple[float, int] | None = None,
    ) -> pa.Table:
        """Exact top-k under disjunctive (sum over matching terms) BM25 —
        the block-max kernel (``query/wand.py``) drops blocks whose upper
        bound cannot reach a lower bound on the k-th score, then scores
        what is left in one vectorized pass; with ``use_wand=False`` scores
        the full union exhaustively (the reference the kernel is tested
        against).

        ``after`` is the search-after cursor (see ``search``).  On the
        kernel path it filters the scored documents and turns pruning off:
        page-2 documents score BELOW the cursor, so a threshold taken over
        the whole union could drop exactly the blocks that hold them.

        Tombstoned docs are excluded before ranking."""
        uniq = list(dict.fromkeys(terms))
        if use_wand:
            # canonical (hash) order so accumulation matches score() exactly
            uniq_sorted = sorted(uniq, key=_term_key)
            cursors = [c for c in (self._term_cursor(t) for t in uniq_sorted) if c]
            # looked up on the module at call time, so a tracer can wrap it
            doc_ids, scores = wand.wand_topk(cursors, k, after=after)
        else:
            node = ast.Or(tuple(ast.Term(t) for t in uniq)) if len(uniq) > 1 else ast.Term(uniq[0])
            doc_ids, scores = self._rank(node, k, after)
        return ranked_table(doc_ids, scores)

    def topk_or_approx(self, terms: list[str], k: int = 10, t: int = 128) -> pa.Table:
        """Approximate disjunctive top-k via CHAMPION LISTS (static index
        pruning — Carmel et al. SIGIR'01; "champion lists", Manning IIR
        §7.1.3): candidates = the union of each term's top-``t`` postings
        by BM25 contribution (deterministic tie-break on doc_id), then the
        candidates are scored EXACTLY over all terms.  Returned scores are
        exact; recall can miss a doc that is mediocre in every list but
        good in sum — overlap@k vs the exact engine is reported in bench
        extras.  Useful for WIDE disjunctions (PRF-expanded queries, MLT),
        where WAND's skip threshold degrades: cost is O(Σ t log t + |cand|
        × n_terms) after decode, independent of posting-list lengths.

        Tombstones are honored (dead docs never become candidates)."""
        uniq = list(dict.fromkeys(terms))
        cands = []
        for text in uniq:
            h, g = _term_key(text)
            p = self.postings(h, g)
            if len(p.doc_ids) > t:
                # top-t by contribution, ties broken toward lower doc_id
                contrib = self._impacts(self._df(h, g, p), p)
                cands.append(p.doc_ids[topk_order(contrib, p.doc_ids, t)])
            else:
                cands.append(p.doc_ids)
        cand = _union(cands)
        if self.tombstones is not None:
            cand = np.setdiff1d(cand, self.tombstones, assume_unique=True)
        # score() accumulates in the canonical order → scores bit-identical
        # to the exact engine's for every candidate it shares
        node = ast.Or(tuple(ast.Term(x) for x in uniq))
        return ranked_table(*top_k(cand, self.score(node, cand), k))

    def qld_topk(self, terms: list[str], k: int = 10, mu: float = 2000.0) -> pa.Table:
        """Query-likelihood ranking with Dirichlet-prior smoothing (Zhai &
        Lafferty, SIGIR 2001) — the standard language-model alternative to
        BM25 (Lucene ``LMDirichletSimilarity`` analog):

            score(q, d) = Σ_t  ln( (tf(t,d) + μ·p(t|C)) / (|d| + μ) )

        with p(t|C) = cf(t) / |C| (collection frequency over total corpus
        tokens).  Every query term contributes to every candidate — docs
        that miss a term pay the smoothed-background cost, so longer docs
        are not spuriously favored.  Candidates = docs matching ≥1 term
        (the usual driver set: docs matching nothing share a constant,
        strictly lower score).  OOV terms (cf = 0) are skipped — their
        contribution is an identical -inf for every document.

        cf comes from the decoded posting list (Σ tf), |C| from the
        segment manifests (sum_doclen) — no extra dictionary state.  Note
        cf/|C| are whole-index statistics: tombstoned docs are excluded
        from the candidates but still count toward the background model
        (exactly how a lazy-delete index behaves until compaction)."""
        docs = _union([p.doc_ids for p in map(self.term_postings, terms) if p.df])
        if self.tombstones is not None:
            docs = np.setdiff1d(docs, self.tombstones, assume_unique=True)
        scores = self.qld_scores(terms, docs, mu) if len(docs) else np.zeros(0)
        return ranked_table(*top_k(docs, scores, k))

    def qld_scores(
        self, terms: list[str], docs: np.ndarray, mu: float = 2000.0
    ) -> np.ndarray:
        """LM-Dirichlet scores (see ``qld_topk``) for a GIVEN sorted
        uint64 doc-id array — the feature-extraction entry point (LTR
        featurization wants scores for an externally chosen candidate
        set, e.g. the AND-match set, not the scorer's own top-k).  Every
        doc must match ≥ 1 surviving term (its doclen is recovered from a
        matching posting); docs matching none raise."""
        seen = set()
        uniq = [x for x in terms if not (x in seen or seen.add(x))]
        total_tokens = float(sum(s.sum_doclen for s in self.segments))
        plists = [p for p in (self.term_postings(x) for x in uniq) if p.df]
        if not plists or total_tokens <= 0:
            raise ValueError("no query term occurs in the corpus")
        dl = np.full(len(docs), -1.0, dtype=np.float64)
        tfs = []
        for p in plists:
            pos = np.searchsorted(p.doc_ids, docs)
            pos_c = np.minimum(pos, len(p.doc_ids) - 1)
            hit = p.doc_ids[pos_c] == docs
            dl[hit] = p.doclen[pos_c[hit]].astype(np.float64)
            tfv = np.zeros(len(docs), dtype=np.float64)
            tfv[hit] = p.tf[pos_c[hit]].astype(np.float64)
            tfs.append((p, tfv))
        if (dl < 0).any():
            raise ValueError("doc matches no query term; doclen unknown")
        denom = dl + mu
        scores = np.zeros(len(docs), dtype=np.float64)
        for p, tfv in tfs:
            mu_p = (mu * float(p.tf.sum())) / total_tokens
            scores += np.log((tfv + mu_p) / denom)
        return scores


class SearchEngine(QueryAlgebra):
    """Single-process query engine over one or more segments: every dict
    bucket and the full doc-id array live in THIS process (fine for tests,
    CLI and small indexes; serving at scale uses
    ``bitfunnel_ray.query.sharded.ShardedServer`` where each actor opens
    only its bucket subset)."""

    def __init__(
        self,
        index_dirs: str | list[str],
        load_urls: bool = True,
        tombstones: np.ndarray | None = None,
    ):
        self._locator = index_dirs  # pre-resolution, re-resolved by refresh()
        self._load_urls = bool(load_urls)
        self.tombstones = (
            np.sort(np.asarray(tombstones, dtype=np.uint64))
            if tombstones is not None and len(tombstones)
            else None
        )
        self.segments: list[_Segment] = []
        self.all_docs = np.empty(0, np.uint64)
        self.urls = np.empty(0, dtype=object) if load_urls else None
        self._cache: dict[tuple[int, int], Postings] = {}
        self._docvalues: dict[str, np.ndarray] = {}
        if not self.refresh():
            raise FileNotFoundError(f"no index segment in {index_dirs!r}")

    @property
    def _vocab_pending(self) -> bool:
        return self.vocab.pending

    def refresh(self) -> int:
        """Open the segments of the locator this engine does not hold yet
        (all of them when the engine is built) — the Lucene NRT-reopen
        analog (the reference ingests into a LIVE index, Ingestor::Add /
        src/Index/src/Ingestor.cpp; our additive-segment equivalent
        re-resolves the build root in place).  Corpus constants
        (``_set_corpus``), doc maps and both caches update; returns the
        number of newly opened segments (0 = nothing new)."""
        have = {s.dir for s in self.segments}
        new = [_Segment(d) for d in seglib.resolve_segment_dirs(self._locator) if d not in have]
        if not new:
            return 0
        self.segments.extend(new)
        self._set_corpus(self.segments)
        cols = ["doc_id", "url"] if self._load_urls else ["doc_id"]
        metas = [pq.read_table(os.path.join(s.dir, "docmeta"), columns=cols) for s in new]
        # docmeta keeps the corpus doc_id dtype (int64 for user-built
        # corpora, uint64 once lifted); align every segment's ids to uint64
        ids = np.concatenate([self.all_docs] + [m["doc_id"].to_numpy().astype(np.uint64) for m in metas])
        order = np.argsort(ids, kind="stable")
        self.all_docs = ids[order]
        if self._load_urls:
            urls = [np.asarray(m["url"].to_pylist(), dtype=object) for m in metas]
            self.urls = np.concatenate([self.urls] + urls)[order]
        # decoded postings merge ACROSS segments, doc values align to
        # all_docs, cached results and the docstore footer index cover the
        # old segment set — all stale now
        self._cache.clear()
        self._docvalues.clear()
        self._docstore = None
        self._invalidate_result_cache()
        # a sidecar vocabulary is a df snapshot: the next use re-merges
        # over the grown segment set (installed vocabularies stay)
        self.vocab = Vocab([s.dir for s in self.segments])
        return len(new)

    # --- stored fields (ES _source analog) ---------------------------------
    _docstore = None

    def fetch(self, doc_ids, fields: "list[str] | None" = None) -> pa.Table:
        """Stored-field rows for ``doc_ids`` — row-group-pruned point
        lookups over the segments' docstore sidecars (build/docstore.py);
        requires a build with ``EngineConfig(store_fields=...)``."""
        if self._docstore is None:
            from bitfunnel_ray.build.docstore import DocStore

            self._docstore = DocStore([s.dir for s in self.segments])
        return self._docstore.fetch(doc_ids, fields)

    def _range_docs(self, col: str, lo: float, hi: float) -> np.ndarray:
        v = self.docvalue(col)  # aligned to all_docs; NaN = null/absent
        return self.all_docs[(v >= lo) & (v <= hi)]  # NaN compares False

    # --- doc values (numeric fast fields) ----------------------------------
    def docvalue(self, col: str) -> np.ndarray:
        """float64 doc-values array aligned with ``all_docs`` (NaN where the
        column is null or the doc is absent) — one columnar docmeta read,
        cached; the Lucene NumericDocValues / Tantivy fast-field analog.
        Epoch-second timestamps and other <2^53 integers stay exact."""
        hit = self._docvalues.get(col)
        if hit is not None:
            return hit
        vals = np.full(len(self.all_docs), np.nan, dtype=np.float64)
        for s in self.segments:
            try:
                t = pq.read_table(os.path.join(s.dir, "docmeta"), columns=["doc_id", col])
            except Exception as exc:
                raise KeyError(
                    f"doc-values column {col!r} not in docmeta of {s.dir} "
                    "(built from a corpus without it?)"
                ) from exc
            ids = t["doc_id"].to_numpy().astype(np.uint64)
            v = t[col].to_numpy(zero_copy_only=False).astype(np.float64)
            vals[np.searchsorted(self.all_docs, ids)] = v
        self._docvalues[col] = vals
        return vals

    def docvalues_for(self, sorted_ids: np.ndarray, col: str) -> np.ndarray:
        if not len(sorted_ids):
            return np.empty(0, dtype=np.float64)
        return self.docvalue(col)[np.searchsorted(self.all_docs, sorted_ids)]

    # --- storage primitives ----------------------------------------------
    def postings(self, term_hash: int, gram: int) -> Postings:
        key = (int(term_hash), int(gram))
        hit = self._cache.get(key)
        if hit is not None:
            self.stat_postings_rows += len(hit.doc_ids)
            return hit
        parts, metas = [], []
        for s in self.segments:
            rows = s.chunk_rows(term_hash, gram)
            parts.extend(s.decode_rows(rows))
            metas.extend(s.block_meta_rows(rows, self.avgdl))
        out = merge_chunks(parts, metas)
        self.stat_postings_rows += len(out.doc_ids)
        if len(self._cache) < 100_000:
            self._cache[key] = out
        return out

    def _complement(self, sorted_docs: np.ndarray) -> np.ndarray:
        return np.setdiff1d(self.all_docs, sorted_docs, assume_unique=True)
