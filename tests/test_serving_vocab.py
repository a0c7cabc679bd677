"""Vocab sidecar end-to-end: the build's per-segment (term, df, bucket)
text stripes power autocomplete and fuzzy expansion on EVERY serving
surface — local engine (auto-install), term-sharded front (per-shard
stripes + scatter-gather merge), doc-sharded front (range merge with df
sums) — and stay fresh under NRT refresh (VERDICT r4 next-round tasks
#1 and #5)."""

import dataclasses

import numpy as np
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from bitfunnel_ray.build.builder import build_index
from bitfunnel_ray.config import EngineConfig
from bitfunnel_ray.ops.suggest import SuggestIndex
from bitfunnel_ray.query.engine import SearchEngine
from bitfunnel_ray.sources.corpus import _lift_documents_batch, corpus_from_documents

CFG = EngineConfig(max_gram=2, num_buckets=4)
VCFG = dataclasses.replace(CFG, extra={"vocab_sidecar": True})


@pytest.fixture(scope="module")
def vocab_index(tmp_path_factory, ray_session):
    """One full-corpus segment built WITH the vocab sidecar + the plain
    df-table ground truth."""
    root = tmp_path_factory.mktemp("vocab_idx")
    seg = str(root / "seg-000")
    build_index(corpus_from_documents("/root/testdata/sf0.001"), seg, VCFG)
    return str(root), seg


@pytest.fixture(scope="module")
def local_truth(vocab_index, ray_session):
    """The reference SuggestIndex/vocab built straight from the sidecar
    the segment wrote (sum-merged like the engine does)."""
    _root, seg = vocab_index
    t = pq.read_table(f"{seg}/vocab", columns=["term", "df"])
    terms = np.asarray(t["term"].to_pylist())
    dfs = t["df"].to_numpy(zero_copy_only=False).astype(np.int64)
    return SuggestIndex(terms, dfs)


def test_sidecar_written_and_unigram(vocab_index):
    _root, seg = vocab_index
    t = pq.read_table(f"{seg}/vocab")
    assert set(t.column_names) == {"term", "df", "bucket"}
    assert len(t) > 0
    assert all(" " not in s for s in t["term"].to_pylist())
    b = t["bucket"].to_numpy(zero_copy_only=False)
    assert b.min() >= 0 and b.max() < CFG.num_buckets
    # stripe rule matches the dict-bucket rule: bucket = hash % B
    from bitfunnel_ray.functions.hashing import murmur64a

    for term, bucket in zip(t["term"].to_pylist()[:50], b[:50]):
        assert murmur64a(term) % CFG.num_buckets == bucket


def _vocab_frame(seg_dir):
    """The sidecar's (term, df) rows, term-sorted."""
    t = pq.read_table(f"{seg_dir}/vocab", columns=["term", "df"]).to_pandas()
    return t.sort_values("term").reset_index(drop=True)


def _df_sum(seg_dirs):
    """Per-term df summed over the sources' sidecars, term-sorted."""
    import pandas as pd

    both = pd.concat([_vocab_frame(d) for d in seg_dirs])
    return both.groupby("term", as_index=False)["df"].sum().sort_values("term").reset_index(drop=True)


def _assert_striped(seg_dir, nb):
    """Every row's bucket is murmur64a(term) % nb and part-b holds only
    bucket b's rows."""
    import glob
    import os

    from bitfunnel_ray.functions.hashing import murmur64a

    parts = sorted(glob.glob(f"{seg_dir}/vocab/*.parquet"))
    assert parts
    for p in parts:
        t = pq.read_table(p)
        b = int(os.path.basename(p)[len("part-"):-len(".parquet")])
        assert set(t["bucket"].to_pylist()) <= {b}, p
        assert all(murmur64a(term) % nb == b for term in t["term"].to_pylist()), p


def test_sidecar_equals_unigram_df_table(tmp_path, ray_session, sf_tiny):
    """The sidecar holds exactly the unigram rows of the standalone df
    table over the same corpus, striped by term bucket.  The build
    tokenizes bigrams too (max_gram=2); the stripes hold unigrams only."""
    from bitfunnel_ray.build.stats import document_frequency_table

    corpus = corpus_from_documents(sf_tiny)
    seg = str(tmp_path / "seg")
    build_index(
        corpus, seg,
        EngineConfig(max_gram=2, num_buckets=6, extra={"vocab_sidecar": True}),
    )
    want = document_frequency_table(corpus, EngineConfig(max_gram=2)).to_pandas()
    want = want[want["gram_size"] == 1][["term", "df"]]
    want = want.sort_values("term").reset_index(drop=True)
    got = _vocab_frame(seg)
    assert len(got) == len(want) > 0
    assert got.equals(want.astype(got.dtypes.to_dict()))
    _assert_striped(seg, 6)


def test_local_engine_autoinstalls(vocab_index, local_truth):
    root, _seg = vocab_index
    eng = SearchEngine(root)
    # LAZY contract: nothing is read in __init__ (a 10^8-term vocabulary
    # costs seconds + GBs); first suggest/fuzzy use materializes both
    assert eng.suggest_index is None and eng.fuzzy_matcher is None
    assert eng._vocab_pending
    for pfx in ("s", "spa", "q", "zz"):
        got = eng.suggest(pfx, 8)
        want = local_truth.complete(pfx, 8)
        assert got.equals(want), pfx
    # fuzzy works with no manual install
    t = eng.search("spark~1", k=10)
    assert len(t) > 0


def test_sharded_front_suggest_and_fuzzy(vocab_index, local_truth, ray_session):
    from bitfunnel_ray.query.sharded import ShardedServer

    root, _seg = vocab_index
    srv = ShardedServer(root, n_shards=2)
    try:
        eng = srv.engine()
        for pfx in ("s", "spa", "q", "zz", ""):
            got = eng.suggest(pfx, 8)
            want = local_truth.complete(pfx, 8)
            assert got.equals(want), pfx
        # fuzzy parity: sharded expansion == local expansion ⇒ identical hits
        local = SearchEngine(root)
        for q in ("spark~1", "qqqqqq~1", "join~2 table"):
            a, b = eng.search(q, k=10), local.search(q, k=10)
            assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), q
            assert a["score"].to_pylist() == b["score"].to_pylist(), q
    finally:
        srv.shutdown()


def test_docsharded_front_suggest_and_fuzzy(tmp_path_factory, local_truth, ray_session):
    from bitfunnel_ray.query.docsharded import DocShardedServer

    docs = pq.read_table("/root/testdata/sf0.001/documents.parquet")
    root = tmp_path_factory.mktemp("vocab_docshard")
    build_index(
        rd.from_arrow(_lift_documents_batch(docs.slice(0, 250))),
        str(root / "seg-000"), VCFG,
    )
    build_index(
        rd.from_arrow(_lift_documents_batch(docs.slice(250))),
        str(root / "seg-001"), VCFG,
    )
    srv = DocShardedServer(str(root), n_shards=2)
    try:
        for pfx in ("s", "spa", "q", "zz"):
            got = srv.suggest(pfx, 8)
            want = local_truth.complete(pfx, 8)
            assert got.equals(want), pfx
        local = SearchEngine(str(root))
        for q in ("spark~1", "join~2 table"):
            a, b = srv.search(q, k=10), local.search(q, k=10)
            assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist(), q
            assert a["score"].to_pylist() == b["score"].to_pylist(), q
    finally:
        srv.shutdown()


def test_serve_correct_all_fronts(vocab_index, tmp_path_factory, ray_session):
    """Serve-time "did you mean" parity: local engine, term-sharded
    front and doc-sharded front return identical (token, suggestion,
    dist, df) rows — the doc-sharded path proves the partial-df
    sum-merge (each shard holds local dfs only)."""
    from bitfunnel_ray.query.docsharded import DocShardedServer
    from bitfunnel_ray.query.sharded import ShardedServer

    root, _seg = vocab_index
    q = "sparkk tble zzzzqqqq spark"
    local = SearchEngine(root).correct(q)
    toks = local["token"].to_pylist()
    assert "sparkk" in toks and "spark" not in toks  # OOV corrected, in-vocab skipped
    assert "zzzzqqqq" not in toks  # uncorrectable emits nothing
    srv = ShardedServer(root, n_shards=2)
    try:
        assert srv.engine().correct(q).equals(local)
    finally:
        srv.shutdown()
    # doc-sharded over TWO segments: dfs are split per shard and must sum
    docs = pq.read_table("/root/testdata/sf0.001/documents.parquet")
    root2 = tmp_path_factory.mktemp("correct_docshard")
    build_index(
        rd.from_arrow(_lift_documents_batch(docs.slice(0, 250))),
        str(root2 / "seg-000"), VCFG,
    )
    build_index(
        rd.from_arrow(_lift_documents_batch(docs.slice(250))),
        str(root2 / "seg-001"), VCFG,
    )
    ds_srv = DocShardedServer(str(root2), n_shards=2)
    try:
        assert ds_srv.correct(q).equals(local)
    finally:
        ds_srv.shutdown()


def test_split_df_across_shards_exact(tmp_path_factory, ray_session):
    """Segments with DIFFERENT bucket counts put the same term's stripe
    in different shards (bucket = hash % B differs per segment), so each
    shard holds a PARTIAL df.  The shard-side range + front-side
    sum-then-cut merge must still return the exact global top-k — a
    shard-side k-cut on partial dfs would drop split terms.  Three
    shards: with two, ``h % 4 % 2 == h % 6 % 2`` and no stripe would
    ever split."""
    from bitfunnel_ray.query.sharded import ShardedServer

    docs = pq.read_table("/root/testdata/sf0.001/documents.parquet")
    root = tmp_path_factory.mktemp("vocab_split")
    cfg_a = dataclasses.replace(
        CFG, num_buckets=4, extra={"vocab_sidecar": True}
    )
    cfg_b = dataclasses.replace(
        CFG, num_buckets=6, extra={"vocab_sidecar": True}
    )
    build_index(
        rd.from_arrow(_lift_documents_batch(docs.slice(0, 250))),
        str(root / "seg-000"), cfg_a,
    )
    build_index(
        rd.from_arrow(_lift_documents_batch(docs.slice(250))),
        str(root / "seg-001"), cfg_b,
    )
    import pyarrow as pa

    n_shards = 3
    both = pa.concat_tables(
        [
            pq.read_table(f"{root}/{seg}/vocab", columns=["term", "df", "bucket"])
            for seg in ("seg-000", "seg-001")
        ]
    ).to_pandas()
    # duplicate term rows (one per segment) sum like the engine merge does
    agg = both.groupby("term", as_index=False)["df"].sum()
    truth = SuggestIndex(agg["term"].to_numpy(), agg["df"].to_numpy())
    shards_of = (both["bucket"] % n_shards).groupby(both["term"]).nunique()
    srv = ShardedServer(str(root), n_shards=n_shards)
    split = 0
    try:
        eng = srv.engine()
        for pfx in ("s", "sp", "q", "a", ""):
            got = eng.suggest(pfx, 8)
            assert got.equals(truth.complete(pfx, 8)), pfx
            split += int((shards_of[got["term"].to_pylist()] > 1).sum())
    finally:
        srv.shutdown()
    # the case under test happened: some returned term's df was split
    assert split > 0


def test_compaction_preserves_vocab(tmp_path_factory, ray_session):
    """merge_segments over vocab-sidecar segments writes a merged vocab
    (distributed group-sum, re-striped to the merged bucket space), so a
    compacted index keeps suggest/fuzzy/correct working with the SAME
    results as serving the uncompacted segments."""
    from bitfunnel_ray.build.merge import merge_segments

    docs = pq.read_table("/root/testdata/sf0.001/documents.parquet")
    root = tmp_path_factory.mktemp("vocab_merge")
    s1, s2 = str(root / "seg-000"), str(root / "seg-001")
    build_index(rd.from_arrow(_lift_documents_batch(docs.slice(0, 250))), s1, VCFG)
    build_index(rd.from_arrow(_lift_documents_batch(docs.slice(250))), s2, VCFG)
    merged = str(root / "merged")
    merge_segments([s1, s2], merged)
    import os

    assert os.path.isdir(f"{merged}/vocab")
    eng_m = SearchEngine(merged)
    eng_u = SearchEngine([s1, s2])
    for pfx in ("s", "sp", "q", ""):
        assert eng_m.suggest(pfx, 10).equals(eng_u.suggest(pfx, 10)), pfx
    assert eng_m.correct("spurk").equals(eng_u.correct("spurk"))
    # the whole merged vocab is the per-term df sum of the sources
    assert _vocab_frame(merged).equals(_df_sum([s1, s2]))
    _assert_striped(merged, VCFG.num_buckets)
    # a source whose sidecar is one file of mixed buckets (the layout
    # written before stripes were per-bucket files) merges to the same table
    import shutil

    legacy = str(root / "seg-001-legacy")
    shutil.copytree(s2, legacy)
    vt = pq.read_table(f"{legacy}/vocab")
    shutil.rmtree(f"{legacy}/vocab")
    os.makedirs(f"{legacy}/vocab")
    pq.write_table(vt.take(np.random.default_rng(0).permutation(len(vt))),
                   f"{legacy}/vocab/0_000000_000000.parquet")
    merged2 = str(root / "merged-legacy")
    merge_segments([s1, legacy], merged2)
    assert _vocab_frame(merged2).equals(_vocab_frame(merged))
    _assert_striped(merged2, VCFG.num_buckets)
    # bucket column re-striped to the MERGED config's bucket count
    from bitfunnel_ray.functions.hashing import murmur64a

    vt = pq.read_table(f"{merged}/vocab")
    import json

    man = json.load(open(f"{merged}/manifest.json"))
    nb = int(man["config"]["num_buckets"])
    for term, bucket in zip(
        vt["term"].to_pylist()[:20],
        vt["bucket"].to_numpy(zero_copy_only=False)[:20],
    ):
        assert murmur64a(term) % nb == bucket


@pytest.fixture(scope="module")
def mixed_root(tmp_path_factory, ray_session):
    docs = pq.read_table("/root/testdata/sf0.001/documents.parquet")
    root = tmp_path_factory.mktemp("vocab_mixed")
    build_index(
        rd.from_arrow(_lift_documents_batch(docs.slice(0, 250))),
        str(root / "seg-000"), VCFG,
    )
    build_index(
        rd.from_arrow(_lift_documents_batch(docs.slice(250))),
        str(root / "seg-001"), CFG,  # no sidecar
    )
    return str(root)


@pytest.mark.parametrize("front", ["local", "sharded", "docsharded"])
def test_mixed_vocab_segments_raise(mixed_root, front):
    """A root mixing sidecar and sidecar-less segments must raise loudly
    on suggest/fuzzy/correct, with the one shared message on every front
    — silently partial vocabularies are worse than an error (review
    finding r5)."""
    from bitfunnel_ray.query.docsharded import DocShardedServer
    from bitfunnel_ray.query.sharded import ShardedServer

    srv = None
    if front == "local":
        eng = SearchEngine(mixed_root)
    elif front == "sharded":
        srv = ShardedServer(mixed_root, n_shards=2)
        eng = srv.engine()
    else:
        srv = eng = DocShardedServer(mixed_root, n_shards=2)
    try:
        with pytest.raises(RuntimeError, match="without a vocab sidecar"):
            eng.suggest("sp", 5)
        with pytest.raises(RuntimeError, match="without a vocab sidecar"):
            eng.correct("spurk")
        with pytest.raises((RuntimeError, ValueError)):
            eng.search("spark~1", k=5)
        if front == "local":
            # explicit install still works and wins over the broken sidecar state
            eng.set_suggest_vocabulary(np.array(["ok"]), np.array([3]))
            assert eng.suggest("o", 5)["term"].to_pylist() == ["ok"]
    finally:
        if srv is not None:
            srv.shutdown()


@pytest.fixture(scope="module")
def nrt_vocab(tmp_path_factory, ray_session):
    """Segment 1 from the test corpus; segment 2 adds docs with a term
    that exists NOWHERE in segment 1 ('zyzzogeton')."""
    root = tmp_path_factory.mktemp("vocab_nrt")
    docs = pq.read_table("/root/testdata/sf0.001/documents.parquet")
    build_index(
        rd.from_arrow(_lift_documents_batch(docs.slice(0, 400))),
        str(root / "seg-000"), VCFG,
    )
    return str(root), docs


def _grow_with_new_term(root, docs):
    import os

    import pyarrow as pa

    s2 = f"{root}/seg-001"
    if not os.path.exists(os.path.join(s2, "manifest.json")):
        tail = _lift_documents_batch(docs.slice(400))
        texts = [
            (t or "") + " zyzzogeton" for t in tail["text"].to_pylist()
        ]
        tail = tail.set_column(
            tail.column_names.index("text"), "text", pa.array(texts, pa.string())
        )
        build_index(rd.from_arrow(tail), s2, VCFG)
    return s2


def test_local_refresh_updates_vocab(nrt_vocab):
    root, docs = nrt_vocab
    eng = SearchEngine(root)
    assert len(eng.suggest("zyzz", 5)) == 0
    assert len(eng.search("zyzzogeton~1", k=5)) == 0
    _grow_with_new_term(root, docs)
    assert eng.refresh() == 1
    got = eng.suggest("zyzz", 5)
    assert got["term"].to_pylist() == ["zyzzogeton"]
    assert got["df"].to_pylist() == [100]  # 500 - 400 docs grew the term
    assert len(eng.search("zyzzogeton~1", k=5)) > 0  # fuzzy sees it too
    # hand-installed vocabularies are NOT clobbered by refresh: set_* is
    # the public install API and must survive NRT segment growth
    eng2 = SearchEngine(root)
    eng2.set_suggest_vocabulary(np.array(["custom"]), np.array([1]))
    eng2.segments = eng2.segments[:1]  # make seg-001 look new again
    eng2.refresh()
    assert eng2.suggest("cust", 5)["term"].to_pylist() == ["custom"]


def test_sharded_refresh_updates_vocab(nrt_vocab, tmp_path_factory, ray_session):
    """A term that exists only in a post-refresh segment becomes
    completable and fuzzy-matchable on the SHARDED front after
    srv.refresh() — the actor-side vocab stripes re-merge in place."""
    import os

    from bitfunnel_ray.query.sharded import ShardedServer

    root, docs = nrt_vocab
    s2 = _grow_with_new_term(root, docs)
    # staged root: segment 2 appears only after the server is up
    root2 = str(tmp_path_factory.mktemp("vocab_nrt_sharded"))
    os.symlink(f"{root}/seg-000", f"{root2}/seg-000")
    srv = ShardedServer(root2, n_shards=2)
    try:
        eng = srv.engine()
        assert len(eng.suggest("zyzz", 5)) == 0
        os.symlink(s2, f"{root2}/seg-001")
        assert srv.refresh() == 1
        eng = srv.engine()  # fronts are cheap snapshots (see refresh doc)
        got = eng.suggest("zyzz", 5)
        assert got["term"].to_pylist() == ["zyzzogeton"]
        local = SearchEngine(root2)
        a = eng.search("zyzzogeton~1", k=10)
        b = local.search("zyzzogeton~1", k=10)
        assert a["doc_id"].to_pylist() == b["doc_id"].to_pylist()
    finally:
        srv.shutdown()


@pytest.fixture(scope="module")
def over_cap_root(tmp_path_factory, ray_session):
    """Two segments (4 and 6 buckets) whose 20k+ "zq" terms overflow
    every shard's prefix range cap, plus a planted term whose df is split
    below each shard's cut-off but whose summed df ranks 5th:

    - heavy terms zqh0..zqh3: in all 16 docs (df 16);
    - fillers: 20000 terms in 4 docs of segment A (df 4);
    - planted: 3 docs in each segment (df 3 + 3 = 6), its stripe rows in
      different term shards (bucket % 3 differs between 4 and 6 buckets).
    """
    import itertools
    import string

    import pyarrow as pa

    from bitfunnel_ray.functions.hashing import murmur64a
    from bitfunnel_ray.query.vocab import RANGE_CAP

    letters = ("".join(p) for p in itertools.product(string.ascii_lowercase, repeat=4))
    fillers = ["zqf" + next(letters) for _ in range(5 * RANGE_CAP)]
    plant = next(
        t
        for t in ("zqa" + "".join(p) for p in itertools.product(string.ascii_lowercase, repeat=2))
        if (murmur64a(t) % 4) % 3 != murmur64a(t) % 3
    )
    heavy = " ".join(f"zqh{c}" for c in "abcd")
    a_texts = [
        " ".join([heavy] + (fillers if i < 4 else []) + ([plant] if i < 3 else []))
        for i in range(8)
    ]
    b_texts = [" ".join([heavy] + ([plant] if i < 3 else [])) for i in range(8)]
    root = tmp_path_factory.mktemp("vocab_over_cap")
    for name, nb, texts, first in (("seg-000", 4, a_texts, 0), ("seg-001", 6, b_texts, 8)):
        docs = pa.table(
            {
                "doc_id": pa.array(range(first, first + len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(["en"] * len(texts), pa.string()),
            }
        )
        cfg = dataclasses.replace(
            CFG, max_gram=1, num_buckets=nb, extra={"vocab_sidecar": True}
        )
        build_index(rd.from_arrow(_lift_documents_batch(docs)), str(root / name), cfg)
    both = pa.concat_tables(
        [pq.read_table(f"{root}/{s}/vocab", columns=["term", "df"]) for s in ("seg-000", "seg-001")]
    )
    agg = both.to_pandas().groupby("term", as_index=False)["df"].sum()
    return str(root), plant, SuggestIndex(agg["term"].to_numpy(), agg["df"].to_numpy())


@pytest.mark.parametrize("front", ["sharded", "docsharded"])
def test_prefix_merge_over_cap_certified_or_raises(over_cap_root, front):
    """Past the per-shard prefix range cap a shard's range is cut, and a
    term whose split dfs each fall below every cut is dropped although its
    summed df belongs in the top-k.  The front must return the brute-force
    top-k or raise — never a silently wrong ranking.  Term sharding uses 3
    shards: with 2, buckets 4 and 6 put a term's stripes in one shard."""
    from bitfunnel_ray.query.docsharded import DocShardedServer
    from bitfunnel_ray.query.sharded import ShardedServer

    root, plant, truth = over_cap_root
    if front == "sharded":
        srv = ShardedServer(root, n_shards=3, num_cpus_per_shard=0.5)
        eng = srv.engine()
    else:
        srv = eng = DocShardedServer(root, n_shards=2, num_cpus_per_shard=0.5)
    try:
        # the heavy terms clear every cut-off: certified, not raised
        assert eng.suggest("zq", 4).equals(truth.complete("zq", 4))
        want = truth.complete("zq", 5)
        assert want["term"].to_pylist()[-1] == plant
        try:
            got = eng.suggest("zq", 5)
        except RuntimeError as e:
            assert "'zq'" in str(e)
        else:
            assert got.equals(want)
    finally:
        srv.shutdown()


def test_gather_certifies_or_raises():
    """The front merge on hand-made shard answers: whole ranges sum-merge;
    a cut range certifies the top-k only when no left-out term can reach
    it; shards without a vocabulary next to shards with one raise."""
    from bitfunnel_ray.query.vocab import gather

    whole = [(["a", "b"], [5, 1], None), (["a", "c"], [2, 4], None)]
    assert gather("prefix_range", whole, "", 2).to_pydict() == {
        "term": ["a", "c"],
        "df": [7, 4],
    }
    # shard 0 cut at df 3: "c" (known 1) may hold up to 3 more there
    cut = [(["a", "b"], [9, 3], 3), (["a", "c"], [2, 1], None)]
    assert gather("prefix_range", cut, "", 1).to_pydict() == {"term": ["a"], "df": [11]}
    with pytest.raises(RuntimeError, match="cannot be certified"):
        gather("prefix_range", cut, "", 2)  # "c" (up to 4) could pass "b" (3)
    assert gather("prefix_range", [None, None], "", 2) is None
    with pytest.raises(RuntimeError, match="without a vocab sidecar"):
        gather("candidates", [None, (["a"], [1], [0])], "a", 0)


def test_one_cpu_build_and_merge_with_vocab(tmp_path, sf_tiny):
    """On a 1-CPU Ray session the salted vocab-sidecar build (its head
    scan is a hash exchange), the merge and a standalone df table must
    finish: no stage may wait on an exchange that cannot get a CPU.  Runs
    in its own process so it owns its Ray session."""
    import subprocess
    import sys
    import textwrap

    script = textwrap.dedent(
        f"""
        import pandas as pd
        import pyarrow.parquet as pq
        import ray
        import ray.data as rd

        ray.init(address="local", num_cpus=1, include_dashboard=False,
                 logging_level="ERROR")
        rd.DataContext.get_current().enable_progress_bars = False
        from bitfunnel_ray.build.builder import build_index
        from bitfunnel_ray.build.merge import merge_segments
        from bitfunnel_ray.build.stats import document_frequency_table
        from bitfunnel_ray.config import EngineConfig
        from bitfunnel_ray.sources.corpus import _lift_documents_batch

        docs = pq.read_table("{sf_tiny}/documents.parquet")
        cfg = EngineConfig(max_gram=1, num_buckets=4, head_df_threshold=20,
                           extra={{"vocab_sidecar": True}})
        segs = ["{tmp_path}/s1", "{tmp_path}/s2"]
        for seg, part in zip(segs, (docs.slice(0, 250), docs.slice(250))):
            build_index(rd.from_arrow(_lift_documents_batch(part)), seg, cfg)
            assert pq.read_table(seg + "/heads.parquet").num_rows > 0, "no head terms"
        merge_segments(segs, "{tmp_path}/m")
        corpus = rd.from_arrow(_lift_documents_batch(docs))
        assert document_frequency_table(corpus, cfg).count() > 0

        def vocab(d):
            return pq.read_table(d + "/vocab", columns=["term", "df"]).to_pandas()

        want = pd.concat([vocab(d) for d in segs]).groupby("term")["df"].sum()
        got = vocab("{tmp_path}/m").set_index("term")["df"].sort_index()
        assert got.index.is_unique and got.equals(want), "merged vocab != df sum"
        ray.shutdown()
        print("OK")
        """
    )
    import os

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.dirname(os.path.dirname(os.path.abspath(__file__))), os.environ.get("PYTHONPATH", "")]
    )}
    # own process group: a hung run is killed with the Ray daemons it started
    p = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, env=env,
                         start_new_session=True)
    try:
        out, err = p.communicate(timeout=180)
    except subprocess.TimeoutExpired:
        import signal

        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        raise AssertionError("1-CPU build + merge with vocab did not finish in 180 s")
    assert p.returncode == 0 and out.strip().endswith("OK"), err[-3000:]
