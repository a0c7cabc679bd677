"""Correctness gate, run untimed after every measurement.

Each check is one line in ``Gate.failures`` when it fails; the run's
``exact_frac`` is the share of checks that passed, and any failure makes
the run's result ``correct: false``.

Reference results are exhaustive: match sets come from
``query.verify.BruteForceLogMatcher`` evaluated over the raw corpus text,
top-k lists from scoring every brute-force match with the local engine's
BM25 and sorting (score desc, doc_id asc), and disjunctions from
``topk_or(use_wand=False)``.
"""

from __future__ import annotations

import numpy as np

K = 10


class Gate:
    def __init__(self):
        self.passed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failures.append(what)

    @property
    def total(self) -> int:
        return self.passed + len(self.failures)

    @property
    def exact_frac(self) -> float:
        return self.passed / self.total if self.total else 0.0


def sample(items: list, n: int, seed: int) -> list:
    rng = np.random.default_rng(seed + 104729)
    idx = sorted(rng.choice(len(items), min(n, len(items)), replace=False))
    return [items[i] for i in idx]


def _rows(table) -> "list[tuple[int, float]]":
    return list(zip(table["doc_id"].to_pylist(), table["score"].to_pylist()))


def exhaustive_topk(reference, corpus, queries: "list[str]") -> "list[list[tuple[int, float]]]":
    """Brute-force match sets, scored by ``reference`` and sorted."""
    from bitfunnel_ray.query.parser import parse_query
    from bitfunnel_ray.query.verify import BruteForceLogMatcher

    truth = BruteForceLogMatcher(queries, reference.max_gram)(corpus)
    qidx = truth["query_idx"].to_numpy()
    docs = truth["doc_id"].to_numpy().astype(np.uint64)
    out = []
    for qi, q in enumerate(queries):
        want = np.sort(docs[qidx == qi])
        node = parse_query(q)
        scores = reference.score(node, want)
        order = np.lexsort((want, -scores))[:K]
        out.append((want, [(int(d), float(s)) for d, s in zip(want[order], scores[order])]))
    return out


def check_queries(gate: Gate, name: str, search, reference, corpus, queries, match_sets=None) -> None:
    """``search(q)`` must return the exhaustive top-k exactly (doc ids
    and scores); ``match_sets(q)``, when given, must equal the
    brute-force match set."""
    for q, (want, top) in zip(queries, exhaustive_topk(reference, corpus, queries)):
        gate.check(_rows(search(q)) == top, f"{name}: top-{K} differs from exhaustive for {q!r}")
        if match_sets is not None:
            got = match_sets(q)
            gate.check(np.array_equal(got, want), f"{name}: match set differs from brute force for {q!r}")


def check_wide(gate: Gate, name: str, engine, reference, term_sets) -> None:
    """Block-max WAND on ``engine`` against exhaustive scoring."""
    for terms in term_sets:
        got = _rows(engine.topk_or(terms, k=K))
        want = _rows(reference.topk_or(terms, k=K, use_wand=False))
        gate.check(got == want, f"{name}: WAND top-{K} differs from exhaustive for {len(terms)} terms")


def check_phrase(gate: Gate, name: str, match_count, n_docs: int) -> None:
    from perfbench.fixtures import PHRASE, phrase_docs

    got = match_count(PHRASE)
    gate.check(got == phrase_docs(n_docs), f"{name}: {PHRASE} matched {got} docs, want {phrase_docs(n_docs)}")


def check_fsck(gate: Gate, bad: "list[str]") -> None:
    gate.check(not bad, f"fsck flagged {bad}")


def audit_sample(seg_dirs: "list[str]", seed: int) -> "list[str]":
    """fsck of one seeded bucket file per segment plus every segment's
    docmeta, in this process (the full audit runs when the serving index
    is built)."""
    import glob
    import os

    from bitfunnel_ray.build.fsck import audit_bucket, audit_docmeta

    bad = []
    for d in seg_dirs:
        rows = [audit_docmeta(d)]
        files = sorted(glob.glob(os.path.join(d, "dict-*.parquet")))
        rows += [audit_bucket(d, f) for f in sample(files, 1, seed)]
        bad += [f"{os.path.basename(d)}/bucket {r['bucket']}" for r in rows if not r["ok"]]
    return bad
