"""Block-max WAND exactness: identical top-k (doc_ids AND bit-identical
scores) to the exhaustive union scorer, across corpora, k values, term
mixes, salted builds and merged segments."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from bitfunnel_ray.build.builder import build_index
from bitfunnel_ray.config import EngineConfig
from bitfunnel_ray.query.engine import SearchEngine
from bitfunnel_ray.query.wand import _TermCursor, topk_order, wand_topk
from bitfunnel_ray.sources.corpus import corpus_from_documents, make_zipf_corpus

TERM_SETS = [
    ["table"],
    ["spark", "join"],
    ["spark", "join", "merge", "window"],
    ["the", "a", "batch"],
    ["zzznope", "table"],
    ["table", "table", "join"],  # duplicate input terms
]


@pytest.fixture(scope="module")
def index_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("wand") / "seg")
    build_index(
        corpus_from_documents("/root/testdata/sf0.001"),
        out,
        EngineConfig(max_gram=2, num_buckets=6),
    )
    return out


@pytest.fixture(scope="module")
def engine(index_dir):
    return SearchEngine(index_dir, load_urls=False)


@pytest.mark.parametrize("k", [1, 3, 10, 100])
def test_wand_equals_exhaustive(engine, k):
    for terms in TERM_SETS:
        a = engine.topk_or(terms, k, use_wand=True)
        b = engine.topk_or(terms, k, use_wand=False)
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), (terms, k)
        assert a["score"].to_pylist() == b["score"].to_pylist(), (terms, k)


def test_search_after_pages_stitch(engine):
    """Cursor paging: concatenating pages fetched via search_after equals
    one deep top-k, bit-identically (scores AND ids); a cursor past the
    last result yields an empty page."""
    q = "spark | join | merge"
    full = engine.search(q, k=40)
    pages, cursor, got_rows = [], None, 0
    while got_rows < len(full):
        p = engine.search(q, k=10, after=cursor)
        if len(p) == 0:
            break
        pages.append(p)
        got_rows += len(p)
        cursor = (p["score"][-1].as_py(), p["doc_id"][-1].as_py())
    got = pa.concat_tables(pages)
    n = min(len(full), len(got))
    assert got["doc_id"].to_pylist()[:n] == full["doc_id"].to_pylist()[:n]
    assert got["score"].to_pylist()[:n] == full["score"].to_pylist()[:n]
    # exhausted cursor → empty page
    everything = engine.search(q, k=10**6)
    tail = (everything["score"][-1].as_py(), everything["doc_id"][-1].as_py())
    assert len(engine.search(q, k=10, after=tail)) == 0


@pytest.mark.parametrize("k", [3, 10])
def test_wand_search_after_equals_exhaustive(engine, k):
    """WAND with an after-cursor returns exactly the exhaustive page —
    including score-tie boundaries (cursor placed mid-tie)."""
    for terms in TERM_SETS:
        p1 = engine.topk_or(terms, k, use_wand=False)
        if len(p1) == 0:
            continue
        cursor = (p1["score"][-1].as_py(), int(p1["doc_id"][-1].as_py()))
        a = engine.topk_or(terms, k, use_wand=True, after=cursor)
        b = engine.topk_or(terms, k, use_wand=False, after=cursor)
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), (terms, k)
        assert a["score"].to_pylist() == b["score"].to_pylist(), (terms, k)
        # pages never overlap and never regress the order
        assert set(a["doc_id"].to_pylist()).isdisjoint(p1["doc_id"].to_pylist())


def test_wand_on_zipf_corpus_with_salting(tmp_path):
    """Zipf head terms + forced salting: stress ties and block skipping."""
    out = str(tmp_path / "zipf")
    corpus = rd.from_arrow(make_zipf_corpus(800, vocab_size=500))
    build_index(
        corpus, out, EngineConfig(max_gram=1, num_buckets=5, head_df_threshold=50, salt_shift=6)
    )
    eng = SearchEngine(out, load_urls=False)
    for terms in [["t000000"], ["t000000", "t000001", "t000050"], ["t000400", "t000000"]]:
        for k in (5, 20):
            a = eng.topk_or(terms, k, use_wand=True)
            b = eng.topk_or(terms, k, use_wand=False)
            assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), (terms, k)
            assert a["score"].to_pylist() == b["score"].to_pylist(), (terms, k)


def test_wand_multi_segment(tmp_path):
    """Interleaved doc-id ranges across segments → metadata fallback path."""
    from bitfunnel_ray.sources.corpus import _lift_documents_batch

    docs = pq.read_table("/root/testdata/sf0.001/documents.parquet")
    # interleave: even ids in one segment, odd in the other
    even = docs.filter(pa.compute.equal(pa.compute.bit_wise_and(docs["doc_id"], 1), 0))
    odd = docs.filter(pa.compute.equal(pa.compute.bit_wise_and(docs["doc_id"], 1), 1))
    cfg = EngineConfig(max_gram=1, num_buckets=4)
    s1, s2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    build_index(rd.from_arrow(_lift_documents_batch(even)), s1, cfg)
    build_index(rd.from_arrow(_lift_documents_batch(odd)), s2, cfg)
    eng = SearchEngine([s1, s2], load_urls=False)
    p = eng.term_postings("table")
    assert p.block_last is None  # interleaved → stored metadata invalidated
    a = eng.topk_or(["table", "join"], 10, use_wand=True)
    b = eng.topk_or(["table", "join"], 10, use_wand=False)
    assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
    assert a["score"].to_pylist() == b["score"].to_pylist()


def test_champion_topk_exact_when_t_large(engine):
    """With t >= longest posting list the champion path IS exhaustive:
    identical doc ids and bit-identical scores to the exact engine."""
    terms = ["spark", "join", "merge", "window", "table"]
    exact = engine.topk_or(terms, k=10, use_wand=False)
    approx = engine.topk_or_approx(terms, k=10, t=10**9)
    assert exact["doc_id"].to_pylist() == approx["doc_id"].to_pylist()
    assert exact["score"].to_pylist() == approx["score"].to_pylist()


def test_champion_topk_small_t_scores_exact(engine):
    """With small t the candidate set shrinks, but every RETURNED score
    equals the exhaustive score of that document (no approximation in the
    scoring, only in candidate generation)."""
    import numpy as np

    terms = ["spark", "join", "merge"]
    exact = engine.topk_or(terms, k=500, use_wand=False).to_pandas()
    full = dict(zip(exact.doc_id, exact.score))
    approx = engine.topk_or_approx(terms, k=10, t=16).to_pandas()
    assert len(approx) == 10
    for d, s in zip(approx.doc_id, approx.score):
        assert s == full[int(d)]
    # recall improves monotonically-ish with t; by t=128 the fixture's
    # near-uniform tf distribution (champions' worst case) is covered
    top10 = set(exact.doc_id.head(10))
    o16 = len(set(approx.doc_id) & top10)
    o128 = len(
        set(engine.topk_or_approx(terms, k=10, t=128).to_pandas().doc_id) & top10
    )
    assert o128 >= o16 and o128 >= 8


def test_champion_topk_missing_terms(engine):
    out = engine.topk_or_approx(["zzznope", "spark"], k=5, t=8)
    assert len(out) == 5
    empty = engine.topk_or_approx(["zzznope"], k=5, t=8)
    assert len(empty) == 0


def test_wand_with_tombstones_equals_exhaustive(engine, index_dir):
    """Tombstoned postings leave the kernel's lists: it still equals the
    exhaustive scorer exactly and never returns a dead document."""
    live_top = engine.topk_or(["spark", "join", "merge"], k=20, use_wand=False)
    dead = live_top["doc_id"].to_numpy()[::2]
    eng = SearchEngine(index_dir, load_urls=False, tombstones=dead)
    for terms in TERM_SETS:
        for k in (1, 3, 10, 100):
            a = eng.topk_or(terms, k, use_wand=True)
            b = eng.topk_or(terms, k, use_wand=False)
            assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), (terms, k)
            assert a["score"].to_pylist() == b["score"].to_pylist(), (terms, k)
            assert not np.isin(a["doc_id"].to_numpy(), dead).any()


# --- the kernel on hand-built cursors --------------------------------------
def _cursor(doc_ids, contrib, block=2):
    """Cursor with ``block``-posting blocks and exact per-block bounds."""
    d = np.asarray(doc_ids, dtype=np.uint64)
    w = np.asarray(contrib, dtype=np.float64)
    starts = np.arange(0, len(d), block)
    last = d[np.minimum(starts + block - 1, len(d) - 1)]
    ub = np.maximum.reduceat(w, starts) if len(w) else np.empty(0)
    return _TermCursor(d, w, last, ub)


def _reference(cursors, k, after=None):
    """Plain numpy: every posting summed in cursor order, full lexsort."""
    lists = [c.doc_ids for c in cursors]
    docs = np.unique(np.concatenate(lists)) if lists else np.empty(0, np.uint64)
    scores = np.zeros(len(docs))
    for c in cursors:
        scores[np.searchsorted(docs, c.doc_ids)] += c.contrib
    if after is not None:
        keep = (scores < after[0]) | ((scores == after[0]) & (docs > np.uint64(after[1])))
        docs, scores = docs[keep], scores[keep]
    order = np.lexsort((docs, -scores))[:k]
    return docs[order].tolist(), scores[order].tolist()


def _kernel(cursors, k, after=None):
    docs, scores = wand_topk(cursors, k, after=after)
    return docs.tolist(), scores.tolist()


def _count_scored(monkeypatch):
    """Records the number of postings each kernel call accumulates."""
    seen = []
    real = np.bincount

    def spy(x, weights=None, minlength=0):
        seen.append(len(x))
        return real(x, weights=weights, minlength=minlength)

    monkeypatch.setattr(np, "bincount", spy)
    return seen


def test_kernel_prunes_low_blocks_and_stays_exact(monkeypatch):
    # k=2: theta = 9 from the first list; its two later blocks (bound
    # 0.5 + 1.0 and 0.2 + 1.0) cannot reach it and are never scored
    hi = _cursor([1, 2, 3, 4, 5, 6], [9.0, 9.0, 0.5, 0.5, 0.2, 0.1])
    lo = _cursor([3, 7], [1.0, 1.0])
    seen = _count_scored(monkeypatch)
    assert _kernel([hi, lo], 2) == _reference([hi, lo], 2) == ([1, 2], [9.0, 9.0])
    assert seen == [4]  # 2 of 6 postings kept from the first list, both of the second
    # the same lists with a search-after cursor: no pruning, still exact
    assert _kernel([hi, lo], 3, after=(9.0, 2)) == _reference([hi, lo], 3, after=(9.0, 2))
    assert seen[-1] == 8


def test_kernel_score_equal_to_threshold():
    # k=3: theta = 4; block 0 of ``a`` has bound 3 + 1 = 4 == theta, so
    # docs 1 and 2 (score exactly 4) must be kept; docs 11 and 12 tie at
    # 4 with larger ids than the selected doc 10 and are left out
    a = _cursor([1, 2, 3, 10, 11, 12], [3.0, 3.0, 0.5, 4.0, 4.0, 4.0], block=3)
    b = _cursor([1, 2], [1.0, 1.0])
    assert _kernel([a, b], 3) == _reference([a, b], 3) == ([1, 2, 10], [4.0, 4.0, 4.0])
    for k in (1, 2, 4, 5, 6, 7):
        assert _kernel([a, b], k) == _reference([a, b], k), k


def test_kernel_edge_sizes():
    a = _cursor([1, 4, 9], [0.5, 2.0, 1.0])
    b = _cursor([4, 5], [1.0, 3.0])
    empty = _cursor([], [])
    assert _kernel([a, b], 100) == _reference([a, b], 100)  # k > union
    assert len(_kernel([a, b], 100)[0]) == 4
    assert _kernel([a, b], 0) == ([], [])
    assert _kernel([], 10) == ([], [])
    assert _kernel([empty], 10) == ([], [])
    assert _kernel([a, empty, b], 2) == _reference([a, b], 2)


def test_kernel_after_cursor_mid_tie():
    a = _cursor([1, 2, 3, 4, 5, 6, 7], [2.0, 2.0, 2.0, 2.0, 1.0, 1.0, 0.5], block=3)
    b = _cursor([3, 6, 8], [0.0, 1.0, 3.0])
    for after in [(2.0, 2), (2.0, 3), (3.0, 8), (2.0, 6), (0.5, 7)]:
        for k in (1, 2, 3, 10):
            assert _kernel([a, b], k, after=after) == _reference([a, b], k, after=after)
    assert _kernel([a, b], 2, after=(2.0, 2)) == ([3, 4], [2.0, 2.0])


def test_kernel_random_lists_match_reference():
    """Seeded random lists with quantized contributions (many ties) and
    uneven block sizes: the kernel always equals the plain sum."""
    rng = np.random.default_rng(7)
    for _ in range(200):
        cursors = []
        for _t in range(int(rng.integers(1, 6))):
            n = int(rng.integers(0, 60))
            d = np.sort(rng.choice(200, n, replace=False))
            w = rng.integers(0, 8, n) * 0.25 * float(rng.choice([1.0, 0.1, 3.0]))
            cursors.append(_cursor(d, w, block=int(rng.integers(1, 9))))
        k = int(rng.integers(0, 30))
        assert _kernel(cursors, k) == _reference(cursors, k)
        ref = _reference(cursors, 200)
        if ref[0]:
            i = int(rng.integers(0, len(ref[0])))
            after = (ref[1][i], ref[0][i])
            assert _kernel(cursors, k, after=after) == _reference(cursors, k, after=after)


@pytest.mark.parametrize("k", [0, 1, 5, 37, 200, 500])
def test_topk_order_matches_lexsort(k):
    """Heavy ties at the k-th score: the helper's order equals the full
    lexsort (score desc, doc_id asc) prefix, including k = n and k > n."""
    rng = np.random.default_rng(k)
    n = 200
    scores = rng.integers(0, 4, n).astype(np.float64)
    ids = rng.permutation(10_000)[:n].astype(np.uint64)
    want = np.lexsort((ids, -scores))[:k]
    assert topk_order(scores, ids, k).tolist() == want.tolist()
