"""Impact-array scoring and the probe set operations of ``_eval``.

``Postings.impacts`` memoizes every posting's BM25 contribution on the
cached posting list.  The same object serves changing statistics (a doc
shard scores under each request's global df / n_docs / avgdl; ``refresh``
moves avgdl; tombstones filter the cursors), so each case below warms an
engine under one set of statistics and must then equal, bit for bit, a
fresh engine that never saw another set.  The set operations (probe
intersection and difference, one-sort union) must equal numpy's sorted
set routines and leave every match set unchanged."""

import sys
import threading
from functools import reduce

import numpy as np
import pyarrow.parquet as pq
import pytest
import ray
import ray.data as rd

from bitfunnel_ray.build import segment as seglib
from bitfunnel_ray.build.builder import build_index, build_index_waves
from bitfunnel_ray.config import EngineConfig
from bitfunnel_ray.functions.bm25 import score_contrib
from bitfunnel_ray.query.docsharded import DocShardActor
from bitfunnel_ray.query.engine import Postings, SearchEngine, _intersect, _member, _union
from bitfunnel_ray.query.parser import parse_query
from bitfunnel_ray.sources.corpus import _lift_documents_batch, corpus_from_documents
from tests.oracle import OracleIndex

SF = "/root/testdata/sf0.001"
CFG = EngineConfig(max_gram=2, num_buckets=4)
QUERIES = [
    "table",
    "spark join",
    "merge | window",
    "table -join",
    '"batch batch"',
    "(spark | vector) batch -window",
    "spark^2.5 join",
    "(spark join merge)~2",
]
OR_TERMS = [["table"], ["spark", "join", "merge", "window"], ["the", "a", "batch"]]


def _same(a, b, what):
    assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), what
    assert a["score"].to_pylist() == b["score"].to_pylist(), what


@pytest.fixture(scope="module")
def seg(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("impacts") / "seg")
    build_index(corpus_from_documents(SF), out, CFG)
    return out


# --- set operations ------------------------------------------------------


def _sorted_set(rng, n, hi):
    return np.unique(rng.integers(0, hi, n, dtype=np.uint64, endpoint=False))


def _pairs(rng):
    top = np.array([2**64 - 3, 2**64 - 2, 2**64 - 1], dtype=np.uint64)
    e = np.empty(0, np.uint64)
    one = np.array([7], np.uint64)
    x = _sorted_set(rng, 50, 200)
    yield e, e
    yield e, x
    yield x, e
    yield x, x  # identical
    yield x, x + np.uint64(1000)  # disjoint
    yield one, x
    yield x, one
    yield one, one
    yield one, np.array([8], np.uint64)
    # neighbours near 2^64 collapse if anything promotes through float64
    yield top[:2], top[1:]
    for n_a, n_b, hi in ((5, 400, 1000), (300, 300, 600), (1, 50, 60), (40, 3, 2**64 - 1)):
        yield _sorted_set(rng, n_a, hi), _sorted_set(rng, n_b, hi)


@pytest.mark.parametrize("seed", range(8))
def test_probe_set_ops_equal_numpy(seed):
    rng = np.random.default_rng(seed)
    for a, b in _pairs(rng):
        for got, want in (
            (_intersect([a, b]), np.intersect1d(a, b, assume_unique=True)),
            (_intersect([b, a]), np.intersect1d(a, b, assume_unique=True)),
            (a[~_member(a, b)], np.setdiff1d(a, b, assume_unique=True)),
            (_union([a, b]), np.union1d(a, b)),
        ):
            assert got.dtype == np.uint64
            assert got.tolist() == want.tolist(), (a, b)
    lists = [_sorted_set(rng, int(n), 300) for n in rng.integers(1, 120, 5)]
    assert _intersect(lists).tolist() == reduce(np.intersect1d, lists).tolist()
    assert _union(lists).tolist() == reduce(np.union1d, lists).tolist()
    assert _union([lists[0]]).tolist() == lists[0].tolist()
    assert _union([]).dtype == np.uint64 and not len(_union([]))


SET_QUERIES = [
    "table -join",
    "table -join -spark",
    "spark batch -window -merge",
    '"batch batch" -table',
    "table -zzznope",
    "zzznope -table",
    "-table",
    "-table -join",
    "-(spark | join)",
    "(spark join merge)~2",
    "(spark | join | merge)~2",
    "(table join spark merge)~3",
    "(spark -join) | (merge -window)",
]


def test_eval_match_sets_equal_oracle(seg):
    """And with Not children, the pure-negative And, AtLeast and Or keep
    their match sets, with and without tombstones."""
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    oracle = OracleIndex(docs["doc_id"].to_pylist(), docs["text"].to_pylist(), max_gram=2)
    dead = np.asarray(docs["doc_id"].to_pylist()[::7], dtype=np.uint64)
    live = SearchEngine(seg, load_urls=False)
    tomb = SearchEngine(seg, load_urls=False, tombstones=dead)
    for q in SET_QUERIES:
        node = parse_query(q)
        assert live.eval(node).tolist() == oracle.search(q)["matches"], q
        assert tomb.eval(node).tolist() == oracle.search(q, tombstones=dead)["matches"], q


# --- memo invalidation ---------------------------------------------------


@pytest.fixture(scope="module")
def waved(tmp_path_factory, ray_session):
    docs = pq.read_table(f"{SF}/documents.parquet")
    tmp = tmp_path_factory.mktemp("impacts_waves")
    files = []
    for i in range(4):
        p = str(tmp / f"d{i}.parquet")
        pq.write_table(docs.slice(i * 125, 125), p)
        files.append(p)
    root = str(tmp / "root")
    build_index_waves(files, root, CFG, n_waves=4)
    return root


def test_shard_memo_follows_request_stats(waved):
    """One doc-shard actor scores the same queries under statistics that
    change one field at a time (n_docs, then avgdl, then df, then back);
    every answer equals a fresh actor's under those statistics."""
    shard = seglib.resolve_segment_dirs(waved)[:2]
    warm = DocShardActor.options(num_cpus=0.25).remote(shard)
    fresh = []
    try:
        pairs = sorted({p for ps, _ in ray.get(warm.scoring_pairs_many.remote(QUERIES)) for p in ps})
        df = dict(zip(pairs, ray.get(warm.term_stats.remote(pairs))))
        n, dl_sum = ray.get(warm.corpus_stats.remote())
        base = (df, 4 * n, dl_sum / n)
        runs = [
            base,
            (df, 9 * n, base[2]),  # n_docs only
            (df, 9 * n, 1.5 * base[2]),  # avgdl only
            ({p: 3 * v for p, v in df.items()}, 9 * n, 1.5 * base[2]),  # df only
            base,
        ]
        for stats in runs:
            got = ray.get(warm.search_topk_many.remote(QUERIES, 10, *stats))
            ref = DocShardActor.options(num_cpus=0.25).remote(shard)
            fresh.append(ref)
            want = ray.get(ref.search_topk_many.remote(QUERIES, 10, *stats))
            for q, (gd, gs), (wd, ws) in zip(QUERIES, got, want):
                assert gd.tolist() == wd.tolist(), (q, stats[1:])
                assert gs.tolist() == ws.tolist(), (q, stats[1:])
    finally:
        for a in [warm, *fresh]:
            ray.kill(a)


def test_refresh_memo_follows_avgdl(tmp_path, ray_session):
    """``refresh`` adds a segment, which moves n_docs and avgdl; the
    warmed engine then equals a fresh engine over both segments."""
    docs = pq.read_table(f"{SF}/documents.parquet")
    root = str(tmp_path / "nrt")
    build_index(rd.from_arrow(_lift_documents_batch(docs.slice(0, 250))), f"{root}/seg-000", CFG)
    eng = SearchEngine(root, load_urls=False)
    for q in QUERIES:
        eng.search(q, k=10)
    for terms in OR_TERMS:
        eng.topk_or(terms, k=10)
    avgdl = eng.avgdl
    build_index(rd.from_arrow(_lift_documents_batch(docs.slice(250))), f"{root}/seg-001", CFG)
    assert eng.refresh() == 1 and eng.avgdl != avgdl
    ref = SearchEngine(root, load_urls=False)
    for q in QUERIES:
        _same(eng.search(q, k=10), ref.search(q, k=10), q)
        top = ref.search(q, k=1)
        if len(top):
            d = top["doc_id"][0].as_py()
            assert eng.explain(q, d).equals(ref.explain(q, d)), q
    for terms in OR_TERMS:
        _same(eng.topk_or(terms, k=10), ref.topk_or(terms, k=10), terms)


def test_tombstoned_topk_or_after_warm_scoring(seg):
    """A tombstoned engine that has already scored searches (impact
    arrays filled over the full lists) runs ``topk_or`` exactly like a
    fresh tombstoned engine, and returns no dead document."""
    dead = np.arange(0, 500, 5, dtype=np.uint64)
    eng = SearchEngine(seg, load_urls=False, tombstones=dead)
    for q in QUERIES:
        eng.search(q, k=10)
    ref = SearchEngine(seg, load_urls=False, tombstones=dead)
    for terms in OR_TERMS:
        for use_wand in (True, False):
            a = eng.topk_or(terms, k=10, use_wand=use_wand)
            _same(a, ref.topk_or(terms, k=10, use_wand=use_wand), terms)
            assert not set(a["doc_id"].to_pylist()) & set(dead.tolist())
        _same(eng.topk_or_approx(terms, k=10, t=8), ref.topk_or_approx(terms, k=10, t=8), terms)


def test_impacts_memo_under_threads():
    """Doc-shard actors serve requests on several threads, each under its
    own statistics, against one cached ``Postings``: every call must get
    the array for its own key, never one built for another thread's."""
    rng = np.random.default_rng(3)
    n = 2000
    p = Postings(np.arange(n, dtype=np.uint64), rng.integers(1, 9, n).astype(np.uint64),
                 rng.integers(5, 90, n).astype(np.uint64), n)
    keys = [(n, 10 * n + i, 20.0 + i, 1.2, 0.75) for i in range(8)]
    want = [score_contrib(p.tf, p.doclen, *k) for k in keys]
    bad = []

    def run(i):
        for _ in range(300):
            if not np.array_equal(p.impacts(*keys[i]), want[i]):
                bad.append(i)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(keys))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not bad
