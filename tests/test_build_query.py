"""End-to-end: build segments → query → rank-identical to the brute-force
oracle (the verify-one-query analog, VerifyOneQuery.cpp:47-125 — but our
index is exact, so FP = FN = 0 and scores must be bit-identical)."""

import numpy as np
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from bitfunnel_ray.build.builder import build_index
from bitfunnel_ray.config import EngineConfig
from bitfunnel_ray.query.engine import SearchEngine
from bitfunnel_ray.sources.corpus import (
    corpus_from_documents,
    make_prime_factors_corpus,
)
from tests.oracle import OracleIndex

QUERIES = [
    "table",
    "spark join",
    "table & join",
    "merge | window",
    "table -join",
    "(spark | vector) batch",
    '"batch batch"',
    "table join merge sort",
    "-the",
    "spark | -join",
    "(spark join merge)~2",
    "(spark | join | merge)~2",
]


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("idx") / "seg0")
    cfg = EngineConfig(max_gram=2, num_buckets=7)
    corpus = corpus_from_documents("/root/testdata/sf0.001")
    manifest = build_index(corpus, out, cfg)
    docs = pq.read_table("/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"])
    oracle = OracleIndex(
        docs["doc_id"].to_pylist(), docs["text"].to_pylist(), max_gram=2
    )
    return out, cfg, manifest, oracle


def test_manifest_sane(built):
    out, cfg, manifest, oracle = built
    assert manifest["complete"] and manifest["n_docs"] == 500
    assert manifest["avgdl"] == pytest.approx(oracle.avgdl)
    # per-partition lineage + metrics (north-rule checkpoint contract)
    assert manifest["n_input_files"] == 1
    assert manifest["input_files"][0].endswith("documents.parquet")
    assert len(manifest["bucket_stats"]) == manifest["config"]["num_buckets"]


def test_match_sets_and_scores_rank_identical(built):
    out, cfg, manifest, oracle = built
    eng = SearchEngine(out)
    for q in QUERIES:
        want = oracle.search(q, k=10)
        from bitfunnel_ray.query.parser import parse_query

        node = parse_query(q)
        got_matches = eng.eval(node)
        assert got_matches.tolist() == want["matches"], f"match set differs for {q!r}"
        got = eng.search(q, k=10)
        got_pairs = list(zip(got["doc_id"].to_pylist(), got["score"].to_pylist()))
        assert [d for d, _ in got_pairs] == [d for d, _ in want["topk"]], f"rank differs for {q!r}"
        for (gd, gs), (wd, ws) in zip(got_pairs, want["topk"]):
            assert gs == ws, f"score differs for {q!r} doc {gd}: {gs} != {ws}"


def test_salted_build_identical_results(built, tmp_path):
    """Head-term salting (skew split) must not change any result."""
    out, cfg, manifest, oracle = built
    salted_dir = str(tmp_path / "salted")
    cfg2 = EngineConfig(max_gram=2, num_buckets=5, head_df_threshold=3, salt_shift=5)
    corpus = corpus_from_documents("/root/testdata/sf0.001")
    build_index(corpus, salted_dir, cfg2)
    a, b = SearchEngine(out), SearchEngine(salted_dir)
    for q in QUERIES:
        ta, tb = a.search(q, 10), b.search(q, 10)
        assert ta["doc_id"].to_pylist() == tb["doc_id"].to_pylist(), q
        assert ta["score"].to_pylist() == tb["score"].to_pylist(), q


def test_prime_factors_closed_form(tmp_path):
    """Conjunctive queries over the PrimeFactors corpus = divisibility
    (the IngestorTest analog, src/Index/test/IngestorTest.cpp:87-130)."""
    out = str(tmp_path / "pf")
    corpus = rd.from_arrow(make_prime_factors_corpus(64))
    build_index(corpus, out, EngineConfig(max_gram=1, num_buckets=3))
    eng = SearchEngine(out)
    for q, divisor in [("2", 2), ("3", 3), ("2 3", 6), ("2 5", 10), ("7", 7)]:
        got = eng.eval(__import__("bitfunnel_ray.query.parser", fromlist=["parse_query"]).parse_query(q))
        want = [d for d in range(2, 64) if d % divisor == 0]
        assert got.tolist() == want, q


def test_tombstones_soft_delete(built):
    out, cfg, manifest, oracle = built
    dead = np.array([1, 3, 5, 7, 11], dtype=np.uint64)
    eng = SearchEngine(out, tombstones=dead)
    for q in ["table", "spark join", "-the"]:
        want = oracle.search(q, k=10, tombstones=dead)
        node = __import__("bitfunnel_ray.query.parser", fromlist=["parse_query"]).parse_query(q)
        assert eng.eval(node).tolist() == want["matches"], q


def test_qld_topk_brute_force_and_tombstones(built):
    """LM-Dirichlet top-k vs a from-scratch brute force over the raw
    corpus; tombstoned docs excluded from candidates but not from the
    background model; OOV terms skipped."""
    out, cfg, manifest, oracle = built
    docs = pq.read_table(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
    )
    ids = docs["doc_id"].to_pylist()
    texts = [t.split() for t in docs["text"].to_pylist()]
    mu = 500.0
    terms = ["spark", "vector", "zzz_not_a_term"]
    total = float(sum(len(t) for t in texts))
    cf = {w: sum(t.count(w) for t in texts) for w in terms}
    live_terms = [w for w in terms if cf[w] > 0]
    assert cf["zzz_not_a_term"] == 0 and len(live_terms) == 2

    def brute(dead=frozenset()):
        rows = []
        for d, toks in zip(ids, texts):
            if d in dead:
                continue
            tfs = {w: toks.count(w) for w in live_terms}
            if not any(tfs.values()):
                continue
            s = sum(
                np.log((tfs[w] + (mu * cf[w]) / total) / (len(toks) + mu))
                for w in live_terms
            )
            rows.append((d, s))
        rows.sort(key=lambda r: (-r[1], r[0]))
        return rows[:10]

    for dead in (frozenset(), frozenset({1, 3, 5, 7, 11})):
        eng = SearchEngine(
            out,
            tombstones=(
                np.array(sorted(dead), dtype=np.uint64) if dead else None
            ),
        )
        got = eng.qld_topk(terms, k=10, mu=mu)
        want = brute(dead)
        assert got["doc_id"].to_pylist() == [d for d, _ in want]
        np.testing.assert_allclose(
            got["score"].to_numpy(), [s for _, s in want], rtol=1e-12
        )


def test_qld_scores_consistent_with_topk(built):
    """The feature-extraction entry point (qld_scores over a given doc
    set) must agree bit-exactly with qld_topk's own scores wherever the
    sets overlap."""
    out, cfg, manifest, oracle = built
    eng = SearchEngine(out)
    top = eng.qld_topk(["spark", "join"], k=50, mu=800.0)
    docs = np.sort(top["doc_id"].to_numpy().astype(np.uint64))
    got = eng.qld_scores(["spark", "join"], docs, mu=800.0)
    by_doc = dict(zip(top["doc_id"].to_pylist(), top["score"].to_pylist()))
    assert got.tolist() == [by_doc[int(d)] for d in docs]


def test_multi_segment_merge(tmp_path):
    """Two half-corpus segments must give identical results to one segment
    (additive segments = incremental ingest, SURVEY.md §1.4)."""
    docs = pq.read_table("/root/testdata/sf0.001/documents.parquet")
    half1, half2 = docs.slice(0, 250), docs.slice(250)
    from bitfunnel_ray.sources.corpus import _lift_documents_batch

    cfg = EngineConfig(max_gram=2, num_buckets=4)
    s1, s2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    build_index(rd.from_arrow(_lift_documents_batch(half1)), s1, cfg)
    build_index(rd.from_arrow(_lift_documents_batch(half2)), s2, cfg)
    full = str(tmp_path / "full")
    build_index(corpus_from_documents("/root/testdata/sf0.001"), full, cfg)
    merged = SearchEngine([s1, s2])
    single = SearchEngine(full)
    assert merged.n_docs == single.n_docs == 500
    for q in QUERIES:
        ta, tb = merged.search(q, 10), single.search(q, 10)
        assert ta["doc_id"].to_pylist() == tb["doc_id"].to_pylist(), q
        # scores: same avgdl/df/N across the two layouts → bit-identical
        assert ta["score"].to_pylist() == tb["score"].to_pylist(), q


@pytest.mark.parametrize("vocab", [False, True])
def test_resume_after_partial_build(tmp_path, vocab):
    """Kill-and-rerun: delete the manifest + some bucket files, rebuild,
    results identical (per-partition checkpoint, SURVEY.md §4).  With
    the vocab sidecar the killed buckets' stripes go too, and the rerun
    restores the full build's vocabulary."""
    import os

    cfg = EngineConfig(max_gram=2, num_buckets=6, extra={"vocab_sidecar": vocab})
    full = str(tmp_path / "full")
    corpus = corpus_from_documents("/root/testdata/sf0.001")
    build_index(corpus, full, cfg)
    ref_res = SearchEngine(full).search("spark join", 10)

    partial = str(tmp_path / "partial")
    build_index(corpus_from_documents("/root/testdata/sf0.001"), partial, cfg)
    # simulate a kill mid-build: drop manifest + two bucket files
    os.remove(os.path.join(partial, "manifest.json"))
    removed = 0
    for b in [1, 4]:
        p = os.path.join(partial, f"dict-{b:05d}.parquet")
        if os.path.exists(p):
            os.remove(p)
            removed += 1
        if vocab:
            os.remove(os.path.join(partial, "vocab", f"part-{b:05d}.parquet"))
    assert removed == 2
    m = build_index(corpus_from_documents("/root/testdata/sf0.001"), partial, cfg)
    assert m["complete"]
    got = SearchEngine(partial).search("spark join", 10)
    assert got["doc_id"].to_pylist() == ref_res["doc_id"].to_pylist()
    assert got["score"].to_pylist() == ref_res["score"].to_pylist()
    if vocab:
        def vocab_rows(seg):
            return pq.read_table(os.path.join(seg, "vocab")).sort_by("term")

        assert vocab_rows(partial).equals(vocab_rows(full))


def test_effective_num_buckets_scales_with_corpus():
    """Bucket auto-scaling: ~16Ki docs/bucket, power of two, never below
    the configured floor, metadata-count only (BASELINE.md round-2 perf
    notes: >~30k docs/bucket sends the encode stage superlinear)."""
    from bitfunnel_ray.build.builder import effective_num_buckets

    class FakeDs:
        def __init__(self, n):
            self._n = n

        def _meta_count(self):
            return self._n

    cfg = EngineConfig(num_buckets=16)
    assert effective_num_buckets(cfg, FakeDs(None)) == 16  # unknown count
    assert effective_num_buckets(cfg, FakeDs(1_000)) == 16  # never shrinks
    assert effective_num_buckets(cfg, FakeDs(600_000)) == 64  # bench scale
    assert effective_num_buckets(cfg, FakeDs(2_000_000)) == 128  # stress
    off = EngineConfig(num_buckets=16, extra={"auto_buckets": False})
    assert effective_num_buckets(off, FakeDs(2_000_000)) == 16


def test_waves_build_identical_results(built, tmp_path):
    """Streaming wave segments (overlapped encode) must return the same
    match sets, ranks and bit-identical scores as one monolithic build."""
    import pyarrow as pa

    from bitfunnel_ray.build.builder import build_index_waves

    out, cfg, manifest, oracle = built
    # split the corpus into 4 parquet files
    docs = pq.read_table("/root/testdata/sf0.001/documents.parquet")
    files = []
    for i in range(4):
        part = docs.slice(i * 125, 125)
        p = str(tmp_path / f"docs-{i}.parquet")
        pq.write_table(part, p)
        files.append(p)
    root = str(tmp_path / "waves")
    res = build_index_waves(files, root, EngineConfig(max_gram=2, num_buckets=5), n_waves=4)
    assert res["n_docs"] == 500 and len(res["segment_dirs"]) == 4
    eng_single = SearchEngine(out)
    eng_waves = SearchEngine(res["segment_dirs"])
    for q in QUERIES:
        a = eng_single.search(q, k=10)
        b = eng_waves.search(q, k=10)
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), q
        assert a["score"].to_pylist() == b["score"].to_pylist(), q


def test_waves_resume_skips_completed(tmp_path):
    """A second build_index_waves call over the same input is a no-op
    (per-wave manifests are the resume unit)."""
    from bitfunnel_ray.build.builder import build_index_waves

    docs = pq.read_table("/root/testdata/sf0.001/documents.parquet")
    files = []
    for i in range(2):
        p = str(tmp_path / f"d{i}.parquet")
        pq.write_table(docs.slice(i * 250, 250), p)
        files.append(p)
    root = str(tmp_path / "wroot")
    r1 = build_index_waves(files, root, EngineConfig(max_gram=1, num_buckets=4), n_waves=2)
    r2 = build_index_waves(files, root, EngineConfig(max_gram=1, num_buckets=4), n_waves=2)
    assert r1["n_docs"] == r2["n_docs"] == 500
    assert [m["complete"] for m in r2["waves"]] == [True, True]



def test_deferred_encode_caps_tasks_in_flight(tmp_path, monkeypatch, sf_tiny):
    """The overlapped (wave) encode keeps at most half the cluster's CPUs
    of encode tasks in flight, so the next wave's spill keeps CPUs; a
    plain build runs its encode wave uncapped."""
    import ray

    from bitfunnel_ray.build import builder

    caps = []
    real = builder.fan_out

    def spy(fn, items, **kw):
        caps.append(kw.get("max_in_flight"))
        return real(fn, items, **kw)

    monkeypatch.setattr(builder, "fan_out", spy)
    corpus = corpus_from_documents(sf_tiny)
    cfg = EngineConfig(max_gram=1, num_buckets=4)
    part = build_index(corpus, str(tmp_path / "deferred"), cfg, _defer_encode=True)
    assert part["deferred"] and caps == []
    assert part["finish"]()["complete"]
    build_index(corpus, str(tmp_path / "plain"), cfg)
    enc_cpus = builder._encode_num_cpus(cfg)
    assert caps == [max(1, int(ray.cluster_resources()["CPU"] // (2 * enc_cpus))), None]

def test_docvalues_fast_field(built):
    """warc_ts_s doc values: fixture warc_ts is 2024-01-01 + doc_id s
    (sources/corpus.py), so the aligned array is 1704067200 + all_docs."""
    out, cfg, manifest, oracle = built
    eng = SearchEngine(out, load_urls=False)
    v = eng.docvalue("warc_ts_s")
    assert np.array_equal(v, 1704067200 + eng.all_docs.astype(np.float64))
    with pytest.raises(KeyError):
        eng.docvalue("no_such_column")


def test_range_filter_equals_post_filter(built):
    out, cfg, manifest, oracle = built
    eng = SearchEngine(out, load_urls=False)
    lo, hi = 1704067200 + 50, 1704067200 + 300
    full = eng.search("spark join", k=500).to_pandas()
    want = full[(full.doc_id + 1704067200 >= lo) & (full.doc_id + 1704067200 < hi)]
    want = want.sort_values(["score", "doc_id"], ascending=[False, True]).head(10)
    got = eng.search("spark join", k=10, range_filter=("warc_ts_s", lo, hi)).to_pandas()
    assert got.doc_id.tolist() == want.doc_id.tolist()
    assert np.allclose(got.score.to_numpy(), want.score.to_numpy())
    # empty range filters everything
    assert len(eng.search("spark join", k=10, range_filter=("warc_ts_s", 0, 1))) == 0
