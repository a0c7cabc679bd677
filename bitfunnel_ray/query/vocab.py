"""One vocabulary service behind every serving front: prefix suggest,
fuzzy ``term~d`` expansion and "did you mean" candidates.

Posting dictionaries store term hashes, not text, so these surfaces read
the per-segment ``vocab/`` sidecar — (term, df, bucket) rows written by
``cli build --vocab`` — through ``Vocab``:

- lazy: nothing is read until the first suggest/fuzzy/correct call (a
  10^8-term vocabulary costs seconds and GBs; most engines never use it);
- ``shard=(shard_id, n_shards)`` keeps one term shard's stripe, the rows
  with ``bucket % n_shards == shard_id`` (the dict-bucket rule, so a
  shard completes exactly the terms it serves postings for);
- df sums per term across segments;
- a mix of segments with and without a sidecar raises, because a
  partial vocabulary gives silently wrong answers.

The local engine, both shard actor kinds and the fronts all use it: an
actor answers ``Vocab.<op>`` for its segments or stripe, and the front
merges the per-shard answers with ``gather``.

Prefix ranges are cut per shard at ``RANGE_CAP`` terms (df desc).  A cut
shard also reports its cut-off df — no term it left out has a larger
df — and ``gather`` certifies the merged top-k the way a distributed
sum-aggregate top-k does (Top-K Frequent Term Queries on Streaming Data,
ICDE 2019): a term's df lies between its known sum and that sum plus
the cut-off of every cut shard that may hold it but did not return it.
The top-k is returned only when it is provably the exact one; otherwise
the call raises instead of returning a possibly wrong ranking.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from bitfunnel_ray.ops.suggest import SuggestIndex, merge_suggest_partials, sum_by_term

RANGE_CAP = 4096  # terms per shard in a prefix range


def _mixed(where) -> RuntimeError:
    return RuntimeError(
        "segments without a vocab sidecar alongside segments that have one: "
        f"{where} — a partial vocabulary would return silently wrong "
        "completions, expansions and corrections; rebuild those segments "
        "with vocab_sidecar (cli build --vocab)"
    )


class Vocab:
    """The (term, df) vocabulary of ``seg_dirs``' sidecars, or of one term
    shard's stripe of them.  Every answer is None when no segment has a
    sidecar."""

    def __init__(self, seg_dirs, shard: "tuple[int, int] | None" = None):
        self.seg_dirs = list(seg_dirs)
        self.shard = shard
        self._index = None
        self._matcher = None

    @property
    def pending(self) -> bool:
        """Sidecars exist but none has been read yet."""
        return self._index is None and any(
            os.path.isdir(os.path.join(d, "vocab")) for d in self.seg_dirs
        )

    @property
    def suggest_index(self) -> "SuggestIndex | None":
        """Sorted terms + summed dfs, read on first use."""
        if self._index is None:
            missing = [
                d for d in self.seg_dirs if not os.path.isdir(os.path.join(d, "vocab"))
            ]
            if len(missing) == len(self.seg_dirs):
                return None
            if missing:
                raise _mixed(missing)
            parts = []
            for d in self.seg_dirs:
                t = pq.read_table(os.path.join(d, "vocab"), columns=["term", "df", "bucket"])
                if self.shard is not None:
                    sid, n = self.shard
                    t = t.filter(pa.array(t["bucket"].to_numpy(zero_copy_only=False) % n == sid))
                parts.append((np.asarray(t["term"].to_pylist(), dtype=str), t["df"].to_numpy()))
            self._index = SuggestIndex(*sum_by_term(parts))
        return self._index

    @property
    def fuzzy_matcher(self):
        if self._matcher is None and self.suggest_index is not None:
            from bitfunnel_ray.query.fuzzy import VocabFuzzyMatcher

            self._matcher = VocabFuzzyMatcher(self._index.terms)
        return self._matcher

    # --- wire answers: one per shard, merged by ``gather`` ---------------
    def prefix_range(self, prefix: str, k: int):
        """(terms, dfs, cut) of the prefix-matching terms, df desc.  The
        range is not cut to k: a term's df may be split across shards, so
        only the front's sum-then-cut is exact.  Past ``max(RANGE_CAP, k)``
        terms it is cut and ``cut`` is the smallest returned df (None when
        the range is whole)."""
        si = self.suggest_index
        if si is None:
            return None
        t, d = si.prefix_range(prefix)
        cap, cut = max(RANGE_CAP, int(k)), None
        if len(t) > cap:
            o = np.lexsort((t, -d))[:cap]
            t, d = t[o], d[o]
            cut = int(d[-1])
        return t.tolist(), d.tolist(), cut

    def fuzzy(self, text: str, dist: int):
        """Terms within edit distance ``dist`` (sorted tuple)."""
        m = self.fuzzy_matcher
        return None if m is None else m(text, int(dist))

    def candidates(self, token: str, max_dist: int):
        """Did-you-mean candidates as (terms, dfs, dists) lists."""
        m = self.fuzzy_matcher
        if m is None:
            return None
        from bitfunnel_ray.ops.spell import make_cand_fn

        c = make_cand_fn(self._index.terms, self._index.dfs, m)(token, int(max_dist))
        return [t for t, _, _ in c], [df for _, df, _ in c], [d for _, _, d in c]


def gather(op: str, parts: list, *args, owners=None):
    """Merge per-shard answers to ``Vocab.<op>(*args)``: None when no shard
    has a vocabulary, the mixed-state error when only some do; else the
    union of fuzzy members, or dfs summed per term (candidates, and the
    certified prefix top-k).  ``owners(terms)`` is an optional bool mask
    (n_terms, n_shards) of the shards that may hold each term's stripe;
    without it every shard may."""
    if all(p is None for p in parts):
        return None
    if any(p is None for p in parts):
        raise _mixed(f"shards {[i for i, p in enumerate(parts) if p is None]}")
    if op == "fuzzy":
        return tuple(sorted({m for p in parts for m in p}))
    if op == "candidates":
        from bitfunnel_ray.ops.spell import merge_candidate_partials

        return merge_candidate_partials(parts)
    prefix, k = args
    top = merge_suggest_partials([(t, d) for t, d, _ in parts], k)
    cuts = [c for _, _, c in parts]
    if k <= 0 or all(c is None for c in cuts):
        return top
    terms, known = sum_by_term([(t, d) for t, d, _ in parts])
    may = owners(terms) if owners is not None else np.ones((len(terms), len(parts)), bool)
    slack = np.zeros(len(terms), np.int64)  # df a cut shard may hold unreturned
    for i, (t, _d, c) in enumerate(parts):
        if c is not None:
            slack += c * (may[:, i] & ~np.isin(terms, t))
    order = np.lexsort((terms, -known))
    kth, rest = order[k - 1], order[k:]
    ub = known[rest] + slack[rest]
    ranks_below = (ub < known[kth]) | ((ub == known[kth]) & (terms[rest] > terms[kth]))
    unseen_ub = sum(c for c in cuts if c is not None)  # a term no shard returned
    # exact: every top-k sum is whole, and no other term's bound can
    # reach the k-th (ties go to the smaller term)
    if slack[order[:k]].any() or not ranks_below.all() or unseen_ub >= known[kth]:
        raise RuntimeError(
            f"prefix {prefix!r}: the top-{k} completions cannot be certified — "
            f"shard ranges were cut at {RANGE_CAP} terms and a term left out "
            "could still rank in the top-k; use a longer prefix"
        )
    return top
