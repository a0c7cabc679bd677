"""Driver-facing query registry: one entry per implemented operator
(SURVEY.md §2), each with a DuckDB oracle SQL where expressible.

Contract (see __ray_entry__.py): each callable takes ``sf_dir`` and
returns a Dataset / pandas DataFrame / pyarrow Table whose column NAMES
and values match the oracle SQL run over the same parquet tables.
Ray is initialised by the caller.

Search queries run against a real index segment built (once per sf_dir,
cached under /tmp) by the full build pipeline — they exercise the
tokenize→shuffle→encode→serve path, not a shortcut.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data as rd
from ray.data.aggregate import Count, Sum

from bitfunnel_ray.build.builder import build_index
from bitfunnel_ray.build.stats import doc_meta, doclen_histogram, document_frequency_table
from bitfunnel_ray.config import EngineConfig
from bitfunnel_ray.query.engine import SearchEngine
from bitfunnel_ray.query.parser import parse_query
from bitfunnel_ray.sources.corpus import corpus_from_documents
from bitfunnel_ray.stages import filters
from bitfunnel_ray.ops import ann, dedup, redact, textstats
from bitfunnel_ray.ops.textstats import STOPWORDS

# store_fields: the driver-cache index carries the text docstore so
# stored-fields serving (fetch / stored snippets) is oracle-checkable
_CFG = EngineConfig(max_gram=2, num_buckets=8, store_fields=("text",))
_ENGINES: dict[str, SearchEngine] = {}

SHARD_BOUNDARIES = (32, 64, 128)  # ShardDefinition-style posting-count splits


def _i64_out(ds):
    """Cast unsigned-int columns (the corpus's carried uint64 DocIds) to
    int64 bit-views at the output boundary.  The driver's value hash is
    dtype-sensitive (oracle doc_id is BIGINT), and uint64 columns degrade
    Ray shuffles to the pickled-object fallback (see build/stats.py)."""

    def f(t: pa.Table) -> pa.Table:
        cols, changed = [], False
        for name, col in zip(t.column_names, t.columns):
            if pa.types.is_unsigned_integer(col.type):
                col, changed = pc.cast(col, pa.int64(), safe=False), True
            cols.append(col)
        return pa.table(dict(zip(t.column_names, cols))) if changed else t

    return ds.map_batches(f, batch_format="pyarrow")


def get_engine(sf_dir: str) -> SearchEngine:
    """Build (cached) and load the index segment for a testdata dir."""
    eng = _ENGINES.get(sf_dir)
    if eng is None:
        tag = sf_dir.strip("/").replace("/", "_")
        # v2: docmeta gained the warc_ts_s doc-values fast-field — version
        # the cache dir so pre-fast-field segments rebuild instead of resume
        # v3: segments gained the stored-fields docstore sidecar — version
        # the cache dir so pre-docstore segments rebuild instead of resume
        idx_dir = f"/tmp/bfr_idx_cache/{tag}-v3"
        os.makedirs(os.path.dirname(idx_dir), exist_ok=True)
        build_index(corpus_from_documents(sf_dir), idx_dir, _CFG)
        eng = SearchEngine(idx_dir, load_urls=False)
        _ENGINES[sf_dir] = eng
    return eng


def _search_docs(sf_dir: str, query: str) -> pa.Table:
    eng = get_engine(sf_dir)
    docs = eng.eval(parse_query(query))
    return pa.table({"doc_id": pa.array(docs.astype(np.int64), pa.int64())})


_FACT_ENGINES: dict[str, SearchEngine] = {}


def get_fact_engine(sf_dir: str) -> SearchEngine:
    """Index with document FACTS configured (IFactSet analog, reference
    inc/BitFunnel/Index/IFactSet.h:30-46 + src/Index/src/FactSetBase.cpp):
    ``en_doc`` (lang == 'en') and ``even_doc`` (doc_id % 2 == 0) ingest as
    boolean columns and serve as filter terms in the query language."""
    eng = _FACT_ENGINES.get(sf_dir)
    if eng is None:
        import pyarrow.compute as pc

        def add_facts(t: pa.Table) -> pa.Table:
            t = t.append_column("is_en", pc.equal(t["lang"], "en"))
            ids = t["doc_id"].to_numpy(zero_copy_only=False)
            return t.append_column("is_even", pa.array(ids % 2 == 0))

        tag = sf_dir.strip("/").replace("/", "_")
        idx_dir = f"/tmp/bfr_idx_cache/{tag}_facts"
        os.makedirs(os.path.dirname(idx_dir), exist_ok=True)
        cfg = EngineConfig(
            max_gram=2,
            num_buckets=8,
            facts=(("en_doc", "is_en"), ("even_doc", "is_even")),
        )
        corpus = corpus_from_documents(sf_dir).map_batches(
            add_facts, batch_format="pyarrow"
        )
        build_index(corpus, idx_dir, cfg)
        eng = SearchEngine(idx_dir, load_urls=False)
        _FACT_ENGINES[sf_dir] = eng
    return eng


def _tokens_sql(where: str = "") -> str:
    return (
        "SELECT doc_id, unnest(string_split(text, ' ')) AS term FROM documents" + where
    )


# ---------------------------------------------------------------------------
# each entry: name -> (callable(sf_dir), oracle_sql or None)
# ---------------------------------------------------------------------------


def q_df_table(sf_dir):
    ds = document_frequency_table(corpus_from_documents(sf_dir), EngineConfig(max_gram=1))
    return ds.select_columns(["term", "df", "cf"])


SQL_DF_TABLE = f"""
SELECT term, count(DISTINCT doc_id) AS df, count(*) AS cf
FROM ({_tokens_sql()}) GROUP BY term
"""


SQL_DF_ONLY_TABLE = f"""
SELECT term, count(DISTINCT doc_id) AS df
FROM ({_tokens_sql()}) GROUP BY term
"""


def q_fused_df_table(sf_dir):
    """Statistics FUSED into the build's tokenize/spill pass (the
    reference's own shape: statistics and ingestion are ONE corpus walk,
    tools/BitFunnel/src/StatisticsBuilder.cpp:114-187 drives both builders
    from a single ChunkIngestor): build a segment with the vocab sidecar
    and return its (term, df) stripes — no second corpus read.  The
    df-only form of the ``df_table`` oracle SQL proves the sidecar
    identical to the standalone scan."""
    import shutil as _sh

    from bitfunnel_ray.build.segment import VOCAB_SCHEMA

    tag = sf_dir.strip("/").replace("/", "_")
    idx_dir = f"/tmp/bfr_idx_cache/{tag}_fusedstats_idx"
    _sh.rmtree(idx_dir, ignore_errors=True)
    os.makedirs("/tmp/bfr_idx_cache", exist_ok=True)
    cfg = EngineConfig(max_gram=1, num_buckets=8, extra={"vocab_sidecar": True})
    build_index(corpus_from_documents(sf_dir), idx_dir, cfg)
    return pq.read_table(
        os.path.join(idx_dir, "vocab"), schema=VOCAB_SCHEMA, columns=["term", "df"]
    )


def q_doclen_histogram(sf_dir):
    return doclen_histogram(corpus_from_documents(sf_dir), EngineConfig(max_gram=1))


SQL_DOCLEN_HISTOGRAM = f"""
SELECT n_postings, count(*) AS n_docs FROM (
  SELECT count(DISTINCT term) AS n_postings FROM ({_tokens_sql()}) GROUP BY doc_id
) GROUP BY n_postings
"""


def q_doc_meta(sf_dir):
    # light=True: only doclen/n_bytes are selected, so skip the full
    # tokenize+dedup pass (the whitespace split alone yields doclen)
    ds = doc_meta(corpus_from_documents(sf_dir), EngineConfig(max_gram=1), light=True)
    return _i64_out(ds.select_columns(["doc_id", "doclen", "n_bytes"]))


SQL_DOC_META = """
SELECT doc_id, len(string_split(text, ' ')) AS doclen, length(text) AS n_bytes
FROM documents
"""


def q_ingest_totals(sf_dir):
    ds = doc_meta(corpus_from_documents(sf_dir), EngineConfig(max_gram=1))
    out = ds.aggregate(
        Count(alias_name="n_docs"),
        Sum("doclen", alias_name="total_tokens"),
        Sum("n_bytes", alias_name="total_bytes"),
    )
    return pa.table({k: pa.array([v], pa.int64()) for k, v in out.items()})


SQL_INGEST_TOTALS = """
SELECT count(*) AS n_docs,
       CAST(sum(len(string_split(text,' '))) AS BIGINT) AS total_tokens,
       CAST(sum(length(text)) AS BIGINT) AS total_bytes
FROM documents
"""


def q_search_and(sf_dir):
    return _search_docs(sf_dir, "spark join")


SQL_SEARCH_AND = f"""
SELECT doc_id FROM documents
WHERE list_contains(string_split(text,' '), 'spark')
  AND list_contains(string_split(text,' '), 'join')
"""


def q_search_or(sf_dir):
    return _search_docs(sf_dir, "merge | window")


SQL_SEARCH_OR = """
SELECT doc_id FROM documents
WHERE list_contains(string_split(text,' '), 'merge')
   OR list_contains(string_split(text,' '), 'window')
"""


def q_search_not(sf_dir):
    return _search_docs(sf_dir, "table -join")


SQL_SEARCH_NOT = """
SELECT doc_id FROM documents
WHERE list_contains(string_split(text,' '), 'table')
  AND NOT list_contains(string_split(text,' '), 'join')
"""


def q_search_phrase(sf_dir):
    return _search_docs(sf_dir, '"batch batch"')


SQL_SEARCH_PHRASE = """
SELECT doc_id FROM documents
WHERE ' ' || text || ' ' LIKE '% batch batch %'
"""


def q_search_boolean_mix(sf_dir):
    return _search_docs(sf_dir, "(spark | vector) batch -window")


SQL_SEARCH_BOOLEAN_MIX = """
SELECT doc_id FROM documents
WHERE (list_contains(string_split(text,' '), 'spark')
       OR list_contains(string_split(text,' '), 'vector'))
  AND list_contains(string_split(text,' '), 'batch')
  AND NOT list_contains(string_split(text,' '), 'window')
"""


_BM25_TERMS = ("spark", "join")


def q_docsharded_bm25_topk(sf_dir):
    """Doc-sharded serving (query/docsharded.py): 2 wave segments dealt
    across 2 doc-shard actors, two-phase global-stats BM25.  Same oracle
    as ``bm25_topk`` — the merged result must be bit-identical to the
    single-process engine (global idf, not local-idf federation)."""
    import shutil as _sh

    from bitfunnel_ray.build.builder import build_index_waves
    from bitfunnel_ray.query.docsharded import DocShardedServer

    tag = sf_dir.strip("/").replace("/", "_")
    root = f"/tmp/bfr_idx_cache/{tag}_docsharded"
    if not os.path.exists(os.path.join(root, "waves.json")):
        _sh.rmtree(root, ignore_errors=True)
        fdir = f"{root}_in"
        _sh.rmtree(fdir, ignore_errors=True)
        os.makedirs(fdir, exist_ok=True)
        docs = pq.read_table(f"{sf_dir}/documents.parquet")
        half = (len(docs) + 1) // 2
        files = []
        for i in range(2):
            p = os.path.join(fdir, f"d{i}.parquet")
            pq.write_table(docs.slice(i * half, half), p)
            files.append(p)
        build_index_waves(files, root, _CFG, n_waves=2)
    srv = DocShardedServer(root, n_shards=2, num_cpus_per_shard=0.25)
    try:
        t = srv.search(" ".join(_BM25_TERMS), k=10)
        return pa.table(
            {
                "rank": t["rank"].cast(pa.int64()),
                "doc_id": t["doc_id"].cast(pa.int64()),
                "score": pa.array(np.round(t["score"].to_numpy(), 6), pa.float64()),
            }
        )
    finally:
        srv.shutdown()


def q_docsharded_selective_topk(sf_dir):
    """Selective shard search (query/docsharded.py search_selective):
    shards probed in descending score-upper-bound order, skipped once
    they provably cannot displace the k-th result — the Taily/CORI
    shard-selection discipline with SAFE bounds, so the top-k is
    bit-identical to exhaustive fan-out and shares ``bm25_topk``'s SQL
    oracle."""
    q_docsharded_bm25_topk(sf_dir)  # ensures the waved index root exists
    from bitfunnel_ray.query.docsharded import DocShardedServer

    tag = sf_dir.strip("/").replace("/", "_")
    root = f"/tmp/bfr_idx_cache/{tag}_docsharded"
    srv = DocShardedServer(root, n_shards=2, num_cpus_per_shard=0.25)
    try:
        t = srv.search_selective(" ".join(_BM25_TERMS), k=10, wave=1)
        return pa.table(
            {
                "rank": t["rank"].cast(pa.int64()),
                "doc_id": t["doc_id"].cast(pa.int64()),
                "score": pa.array(np.round(t["score"].to_numpy(), 6), pa.float64()),
            }
        )
    finally:
        srv.shutdown()


def q_bpe_merges(sf_dir):
    """Distributed BPE trainer (ops/bpe.py): one corpus pass → word-count
    table → deterministic merge loop.  Iterative algorithm — no SQL
    oracle (driver rows-only check); merges are pytest-proven bit-equal
    to a from-scratch naive Sennrich reference (tests/test_bpe.py)."""
    from bitfunnel_ray.ops.bpe import merges_table, train_bpe_from_corpus

    merges = train_bpe_from_corpus(
        corpus_from_documents(sf_dir), n_merges=200, min_freq=2
    )
    return merges_table(merges)


def q_bpe_token_count_trained(sf_dir):
    """Token counts under the corpus-trained BPE (actor-pool apply with
    per-actor rank dict + encode cache).  Rows-only check; apply parity
    vs naive encode is pytest-proven."""
    from bitfunnel_ray.ops.bpe import bpe_token_counts, train_bpe_from_corpus

    corpus = corpus_from_documents(sf_dir)
    merges = train_bpe_from_corpus(corpus, n_merges=200, min_freq=2)
    return bpe_token_counts(corpus, merges)


def q_bm25_topk(sf_dir):
    eng = get_engine(sf_dir)
    t = eng.search(" ".join(_BM25_TERMS), k=10)
    return pa.table(
        {
            "rank": t["rank"].cast(pa.int64()),
            "doc_id": t["doc_id"].cast(pa.int64()),
            "score": pa.array(np.round(t["score"].to_numpy(), 6), pa.float64()),
        }
    )


_AUTO_ENGINES: dict[str, SearchEngine] = {}


def get_engine_auto_bands(sf_dir: str) -> SearchEngine:
    """Engine over a segment built with COST-DERIVED treatment bands
    (build/treatopt.py, the TreatmentOptimal analog): bands come from the
    default-band segment's real posting lists, then the corpus is
    rebuilt under them.  Deterministic (sampling is dict-file-ordered,
    decode costs are the documented constants), so the cache resumes."""
    eng = _AUTO_ENGINES.get(sf_dir)
    if eng is None:
        from bitfunnel_ray.build.treatopt import optimal_bands_for_segment
        import dataclasses

        base = get_engine(sf_dir)  # ensures the default segment exists
        bands = optimal_bands_for_segment(base.segments[0].dir)
        tag = sf_dir.strip("/").replace("/", "_")
        idx_dir = f"/tmp/bfr_idx_cache/{tag}-autobands-v1"
        build_index(
            corpus_from_documents(sf_dir),
            idx_dir,
            dataclasses.replace(_CFG, treatment_bands=bands),
        )
        eng = SearchEngine(idx_dir, load_urls=False)
        _AUTO_ENGINES[sf_dir] = eng
    return eng


def q_search_auto_bands(sf_dir):
    """BM25 top-10 served from the auto-band segment — same oracle as
    ``bm25_topk``: cost-driven treatments change the storage plan (codec
    + skip-block size per df band), never results."""
    eng = get_engine_auto_bands(sf_dir)
    t = eng.search(" ".join(_BM25_TERMS), k=10)
    return pa.table(
        {
            "rank": t["rank"].cast(pa.int64()),
            "doc_id": t["doc_id"].cast(pa.int64()),
            "score": pa.array(np.round(t["score"].to_numpy(), 6), pa.float64()),
        }
    )


def q_cross_dedup(sf_dir):
    """Incremental dedup (cross-corpus): treat odd doc_ids as this
    week's crawl and even ones as the kept corpus; drop new docs that
    exactly (content hash) or nearly (exact 3-gram Jaccard ≥ 0.5)
    duplicate a kept doc; return surviving new ids.  This oracle entry
    uses the EXACT sketch-free pair path (SQL-expressible); the scale
    path is ``dedup.minhash_cross_dedup`` (LSH candidates + exact
    verify), pytest-proven equivalent on planted duplicates."""
    import ray as _ray

    from bitfunnel_ray.ops.dedup import content_hash_batch, ngram_jaccard_pairs_table
    from bitfunnel_ray.ops.joins import anti_join

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def parity(p: int):
        def f(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].to_numpy()
            return t.filter(pa.array(ids % 2 == p))

        return f

    new = docs.map_batches(parity(1), batch_format="pyarrow")
    ref = docs.map_batches(parity(0), batch_format="pyarrow")

    def with_hash(t: pa.Table) -> pa.Table:
        return t.append_column("content_hash", content_hash_batch(t)["content_hash"])

    survivors = anti_join(
        new.map_batches(with_hash, batch_format="pyarrow"),
        ref.map_batches(content_hash_batch, batch_format="pyarrow").select_columns(
            ["content_hash"]
        ),
        key="content_hash",
        broadcast=False,
    )
    pairs = ngram_jaccard_pairs_table(docs, k=3, threshold=0.5, max_df=1024)
    a = pairs["doc_a"].to_numpy()
    b = pairs["doc_b"].to_numpy()
    cross = (a % 2) != (b % 2)
    drop = np.unique(np.where(a[cross] % 2 == 1, a[cross], b[cross]))
    drop_ref = _ray.put(drop)

    def not_dropped(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy().astype(np.int64)
        return t.filter(pa.array(~np.isin(ids, _ray.get(drop_ref))))

    out = survivors.map_batches(not_dropped, batch_format="pyarrow").select_columns(
        ["doc_id"]
    )
    return _i64_out(out).sort("doc_id")


SQL_CROSS_DEDUP = """
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS a FROM documents),
sh0 AS (
  SELECT DISTINCT doc_id, a[i] || ' ' || a[i+1] || ' ' || a[i+2] AS s
  FROM toks CROSS JOIN unnest(range(1, len(a)-1)) AS t(i)
  WHERE len(a) >= 3
),
hot AS (SELECT s FROM sh0 GROUP BY s HAVING count(*) > 1024),
sh AS (SELECT * FROM sh0 WHERE s NOT IN (SELECT s FROM hot)),
sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
inter AS (
  SELECT s1.doc_id AS da, s2.doc_id AS db, count(*) AS i
  FROM sh s1 JOIN sh s2 ON s1.s = s2.s AND s1.doc_id < s2.doc_id
  GROUP BY 1, 2
),
near AS (
  SELECT da, db FROM inter
  JOIN sizes sa ON sa.doc_id = da JOIN sizes sb ON sb.doc_id = db
  WHERE CAST(i AS DOUBLE)/(sa.n + sb.n - i) >= 0.5 AND da % 2 <> db % 2
),
exact_drop AS (
  SELECT n.doc_id FROM documents n JOIN documents r
  ON r.text = n.text AND n.doc_id % 2 = 1 AND r.doc_id % 2 = 0
),
near_drop AS (
  SELECT CASE WHEN da % 2 = 1 THEN da ELSE db END AS doc_id FROM near
)
SELECT doc_id FROM documents
WHERE doc_id % 2 = 1
  AND doc_id NOT IN (SELECT doc_id FROM exact_drop)
  AND doc_id NOT IN (SELECT doc_id FROM near_drop)
ORDER BY doc_id
"""


def q_seeded_shuffle(sf_dir):
    """Deterministic seeded global shuffle (ops/shuffleout.py): the
    (shard, pos) every doc gets in the shuffled training-shard output —
    a pure function of (seed, num_shards, ids), reproduced exactly by
    the oracle's HUGEINT arithmetic.  Small-id note: the oracle's
    128-bit product requires doc_id + seed < 2^63 (all fixtures and any
    sane id space; the op itself wraps mod 2^64 for the full range)."""
    from bitfunnel_ray.ops.shuffleout import shuffle_order

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    return shuffle_order(docs, seed=42, num_shards=4)


SQL_SEEDED_SHUFFLE = """
WITH k AS (
  SELECT doc_id,
         ((CAST(doc_id AS HUGEINT) + 42) * 11400714819323198485)
           % 18446744073709551616 AS key
  FROM documents
)
SELECT CAST(key % 4 AS BIGINT) AS shard,
       CAST(row_number() OVER (PARTITION BY key % 4 ORDER BY key) - 1 AS BIGINT) AS pos,
       doc_id
FROM k
"""


def q_suggest_prefix(sf_dir):
    """Prefix autocomplete over the unigram dictionary (ops/suggest.py):
    top-10 completions of 's' ranked by df desc, term asc — the map-side
    top-k shape (≤ k rows leave each block, never the vocabulary)."""
    from bitfunnel_ray.ops.suggest import suggest_terms

    dft = document_frequency_table(
        corpus_from_documents(sf_dir), EngineConfig(max_gram=1)
    )
    return suggest_terms(dft, "s", k=10)


SQL_SUGGEST_PREFIX = f"""
WITH uc AS (
  SELECT term, count(DISTINCT doc_id) AS df
  FROM ({_tokens_sql()}) WHERE term LIKE 's%' GROUP BY term
)
SELECT term, CAST(df AS BIGINT) AS df FROM uc ORDER BY df DESC, term LIMIT 10
"""


_QLD_TERMS = ("spark", "vector", "join")


def q_qld_topk(sf_dir):
    """LM-Dirichlet query-likelihood top-10 (Zhai & Lafferty 2001; Lucene
    LMDirichletSimilarity analog, μ=2000) — every query term contributes
    its smoothed-background cost to every candidate, so the scoring needs
    cf(t) (Σ tf from the decoded posting list) and total corpus tokens
    (segment manifests), not just the matched postings."""
    eng = get_engine(sf_dir)
    t = eng.qld_topk(list(_QLD_TERMS), k=10, mu=2000.0)
    return pa.table(
        {
            "rank": t["rank"].cast(pa.int64()),
            "doc_id": t["doc_id"].cast(pa.int64()),
            "score": pa.array(np.round(t["score"].to_numpy(), 6), pa.float64()),
        }
    )


def q_ltr_features(sf_dir):
    """Learning-to-rank featurization: one row per candidate document
    (the conjunctive match set of 'spark join') with the features an LTR
    trainer consumes — doc length, per-term tf, BM25 and LM-Dirichlet
    scores.  Composes the two oracle-verified scorers over one candidate
    set; ordered by doc_id."""
    from bitfunnel_ray.query.parser import parse_query

    eng = get_engine(sf_dir)
    node = parse_query(" ".join(_BM25_TERMS), eng.stream_map)
    matches = np.sort(eng.eval(node))
    bm25 = eng.score(node, matches)
    qld = eng.qld_scores(list(_BM25_TERMS), matches, mu=2000.0)
    cols = {"doc_id": pa.array(matches.astype(np.int64), pa.int64())}
    dl = None
    for term in _BM25_TERMS:
        p = eng.term_postings(term)
        pos = np.searchsorted(p.doc_ids, matches)
        assert (p.doc_ids[pos] == matches).all()  # AND set ⊆ postings
        cols[f"tf_{term}"] = pa.array(p.tf[pos].astype(np.int64), pa.int64())
        dl = p.doclen[pos].astype(np.int64)
    cols["dl"] = pa.array(dl, pa.int64())
    cols["bm25"] = pa.array(np.round(bm25, 6), pa.float64())
    cols["qld"] = pa.array(np.round(qld, 6), pa.float64())
    return pa.table(cols)


SQL_LTR_FEATURES = f"""
WITH toks AS ({{_TOKENS}}),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
st AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM dl),
tot AS (SELECT CAST(count(*) AS DOUBLE) AS c FROM toks),
tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
       WHERE term IN ('spark','join') GROUP BY doc_id, term),
df AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks
       WHERE term IN ('spark','join') GROUP BY term),
cf AS (SELECT term, count(*) AS cf FROM toks
       WHERE term IN ('spark','join') GROUP BY term),
matches AS (SELECT doc_id FROM tf GROUP BY doc_id HAVING count(DISTINCT term) = 2),
bm AS (
  SELECT t.doc_id,
         sum(ln((st.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
             * 2.2 * t.tf / (t.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / st.avgdl))) AS bm25
  FROM tf t JOIN df USING (term) JOIN dl USING (doc_id), st
  WHERE t.doc_id IN (SELECT doc_id FROM matches) GROUP BY t.doc_id
),
ql AS (
  SELECT t.doc_id,
         sum(ln((t.tf + 2000.0 * cf.cf / tot.c) / (dl.dl + 2000.0))) AS qld
  FROM tf t JOIN cf USING (term) JOIN dl USING (doc_id), tot
  WHERE t.doc_id IN (SELECT doc_id FROM matches) GROUP BY t.doc_id
)
SELECT m.doc_id,
       CAST(max(CASE WHEN tf.term = 'spark' THEN tf.tf END) AS BIGINT) AS tf_spark,
       CAST(max(CASE WHEN tf.term = 'join'  THEN tf.tf END) AS BIGINT) AS tf_join,
       CAST(max(dl.dl) AS BIGINT) AS dl,
       round(max(bm.bm25), 6) AS bm25,
       round(max(ql.qld), 6) AS qld
FROM matches m
JOIN tf ON tf.doc_id = m.doc_id
JOIN dl ON dl.doc_id = m.doc_id
JOIN bm ON bm.doc_id = m.doc_id
JOIN ql ON ql.doc_id = m.doc_id
GROUP BY m.doc_id
ORDER BY m.doc_id
""".replace("{_TOKENS}", _tokens_sql())


SQL_QLD_TOPK = f"""
WITH toks AS ({_tokens_sql()}),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
tot AS (SELECT count(*) AS c FROM toks),
cf AS (SELECT term, count(*) AS cf FROM toks
       WHERE term IN ('spark','vector','join') GROUP BY term),
tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
       WHERE term IN ('spark','vector','join') GROUP BY doc_id, term),
cand AS (SELECT DISTINCT doc_id FROM tf),
contrib AS (
  SELECT cand.doc_id,
         ln((coalesce(tf.tf, 0) + 2000.0 * cf.cf / tot.c) / (dl.dl + 2000.0)) AS cterm
  FROM cand CROSS JOIN cf
  LEFT JOIN tf ON tf.doc_id = cand.doc_id AND tf.term = cf.term
  JOIN dl ON dl.doc_id = cand.doc_id, tot
),
scores AS (SELECT doc_id, sum(cterm) AS score FROM contrib GROUP BY doc_id)
SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id) AS BIGINT) AS rank,
       doc_id, round(score, 6) AS score
FROM scores ORDER BY score DESC, doc_id LIMIT 10
"""


_PERCOLATE_QUERIES = {
    0: ["spark", "join"],
    1: ["merge", "window", "sort"],
    2: ["vector"],
}


def q_percolate(sf_dir):
    """Percolation (inverse search): which stored conjunctive queries
    match each document — map-only over the doc stream, query registry
    broadcast once."""
    from bitfunnel_ray.query.percolate import percolate

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return percolate(docs, _PERCOLATE_QUERIES)


def _percolate_sql() -> str:
    parts = []
    for qid, terms in _PERCOLATE_QUERIES.items():
        conds = " AND ".join(
            f"list_contains(string_split(text, ' '), '{t}')" for t in terms
        )
        parts.append(
            f"SELECT CAST({qid} AS BIGINT) AS query_id, doc_id FROM documents WHERE {conds}"
        )
    return "\nUNION ALL\n".join(parts) + "\nORDER BY query_id, doc_id"


SQL_PERCOLATE = _percolate_sql()


def q_autocomplete(sf_dir):
    """Query autocomplete: vocabulary terms with a given prefix, ranked
    by document frequency (df desc, term asc, top-10).  Streams the df
    table with a vectorized prefix test + map-side top-k — ≤ k rows per
    block reach the driver."""
    import pyarrow.compute as pc

    prefix, k = "s", 10

    def pick(t: pa.Table) -> pa.Table:
        m = pc.starts_with(t["term"], prefix)
        sub = t.select(["term", "df"]).filter(m)
        if len(sub) == 0:
            return pa.table(
                {"term": pa.array([], pa.string()), "df": pa.array([], pa.int64())}
            )
        df = sub["df"].to_numpy(zero_copy_only=False).astype(np.int64)
        terms = np.asarray(sub["term"].to_numpy(zero_copy_only=False), dtype=str)
        sel = np.lexsort((terms, -df))[:k]
        return pa.table(
            {
                "term": pa.array(terms[sel], pa.string()),
                "df": pa.array(df[sel], pa.int64()),
            }
        )

    dft = document_frequency_table(
        corpus_from_documents(sf_dir), EngineConfig(max_gram=1)
    )
    parts = dft.map_batches(pick, batch_format="pyarrow")
    merged = parts.to_pandas()
    merged = merged.sort_values(["df", "term"], ascending=[False, True]).head(k)
    return pa.table(
        {
            "term": pa.array(merged.term.tolist(), pa.string()),
            "df": pa.array(merged.df.to_numpy().astype(np.int64), pa.int64()),
        }
    )


SQL_AUTOCOMPLETE = f"""
WITH toks AS ({_tokens_sql()}),
vocab AS (SELECT term, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
          FROM toks GROUP BY term)
SELECT term, df FROM vocab WHERE term LIKE 's%'
ORDER BY df DESC, term LIMIT 10
"""


def q_related_terms(sf_dir):
    """Related searches for 'spark': terms ranked by PMI with the query
    term.  Co-occurrence df comes from the SAME distributed df-table
    stage run over the match-set-filtered corpus (the index supplies the
    match set; the filter is a broadcast np.isin); the final PMI rank is
    a vocab-sized driver computation."""
    eng = get_engine(sf_dir)
    match = np.sort(eng.eval(parse_query("spark")).astype(np.int64))
    n_docs = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    df_x = len(match)

    def keep(t: pa.Table) -> pa.Table:
        m = np.isin(t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64), match)
        return t.filter(pa.array(m))

    corpus = corpus_from_documents(sf_dir)
    sub = corpus.map_batches(keep, batch_format="pyarrow")
    cooc = (
        document_frequency_table(sub, EngineConfig(max_gram=1))
        .select_columns(["term", "df"]).to_pandas()
        .rename(columns={"df": "cooc"})
    )
    glob = (
        document_frequency_table(corpus, EngineConfig(max_gram=1))
        .select_columns(["term", "df"]).to_pandas()
    )
    m = cooc.merge(glob, on="term")
    m = m[m.term != "spark"]
    pmi = np.log(m["cooc"].to_numpy().astype(np.float64) * n_docs / (df_x * m["df"].to_numpy()))
    m["pmi"] = np.round(pmi, 6)
    m = m.sort_values(["pmi", "term"], ascending=[False, True]).head(15)
    return pa.table(
        {
            "term": pa.array(m.term.tolist(), pa.string()),
            "cooc": pa.array(m.cooc.to_numpy().astype(np.int64), pa.int64()),
            "df": pa.array(m.df.to_numpy().astype(np.int64), pa.int64()),
            "pmi": pa.array(m.pmi.to_numpy(), pa.float64()),
        }
    )


SQL_RELATED_TERMS = f"""
WITH toks AS ({_tokens_sql()}),
dt AS (SELECT DISTINCT doc_id, term FROM toks),
xdocs AS (SELECT doc_id FROM dt WHERE term = 'spark'),
n AS (SELECT count(*) AS n FROM documents),
dfx AS (SELECT count(*) AS c FROM xdocs),
co AS (
  SELECT term, count(*) AS cooc FROM dt
  WHERE doc_id IN (SELECT doc_id FROM xdocs) AND term <> 'spark'
  GROUP BY term
),
df AS (SELECT term, count(*) AS df FROM dt GROUP BY term)
SELECT co.term, CAST(cooc AS BIGINT) AS cooc, CAST(df.df AS BIGINT) AS df,
       round(ln(CAST(cooc AS DOUBLE) * n.n / (dfx.c * df.df)), 6) AS pmi
FROM co JOIN df USING (term), n, dfx
ORDER BY round(ln(CAST(cooc AS DOUBLE) * n.n / (dfx.c * df.df)), 6) DESC, co.term
LIMIT 15
"""


def q_search_snippets(sf_dir):
    """Serving-side snippet generation: BM25 top-10 for AND(spark, join),
    then a 15-token window around the first query-term hit in each result
    doc (map-only corpus scan filtered by the k doc_ids)."""
    from bitfunnel_ray.query.snippets import result_snippets

    eng = get_engine(sf_dir)
    t = eng.search(" ".join(_BM25_TERMS), k=10)
    results = pa.table(
        {
            "rank": t["rank"].cast(pa.int64()),
            "doc_id": t["doc_id"].cast(pa.int64()),
            "score": pa.array(np.round(t["score"].to_numpy(), 6), pa.float64()),
        }
    )
    return result_snippets(
        corpus_from_documents(sf_dir), results, _BM25_TERMS, before=5, after=9
    )


def q_stored_fields_fetch(sf_dir):
    """Stored-fields serving flow (ES GET _source analog): BM25 top-10,
    then render each result's stored text via the docstore sidecar —
    row-group-pruned point lookups (build/docstore.py), no corpus read.
    The oracle recomputes the same top-10 and joins the text from the
    source table, so the stored bytes must round-trip exactly."""
    eng = get_engine(sf_dir)
    t = eng.search(" ".join(_BM25_TERMS), k=10)
    stored = eng.fetch(t["doc_id"].to_pylist(), fields=["text"])
    ranks = pa.table(
        {
            "rank": t["rank"].cast(pa.int64()),
            "doc_id": t["doc_id"].cast(pa.int64()),
        }
    )
    return ranks.join(stored, keys="doc_id", join_type="inner").sort_by("rank")


# BM25(k1=1.2, b=0.75) with AND(spark, join) match semantics; two-term sum
# is order-independent in IEEE double, so scores are bit-comparable after
# round(.,6).
SQL_BM25_TOPK = f"""
WITH toks AS ({_tokens_sql()}),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
st AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM dl),
tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
       WHERE term IN ('spark','join') GROUP BY doc_id, term),
df AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks
       WHERE term IN ('spark','join') GROUP BY term),
matches AS (SELECT doc_id FROM tf GROUP BY doc_id HAVING count(DISTINCT term) = 2),
contrib AS (
  SELECT t.doc_id,
         ln((st.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
           * 2.2 * t.tf / (t.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / st.avgdl)) AS c
  FROM tf t JOIN df USING (term) JOIN dl USING (doc_id), st
  WHERE t.doc_id IN (SELECT doc_id FROM matches)
),
scores AS (SELECT doc_id, sum(c) AS score FROM contrib GROUP BY doc_id)
SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id) AS BIGINT) AS rank,
       doc_id, round(score, 6) AS score
FROM scores ORDER BY score DESC, doc_id LIMIT 10
"""


SQL_STORED_FIELDS_FETCH = f"""
WITH toks AS ({_tokens_sql()}),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
st AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM dl),
tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
       WHERE term IN ('spark','join') GROUP BY doc_id, term),
df AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks
       WHERE term IN ('spark','join') GROUP BY term),
matches AS (SELECT doc_id FROM tf GROUP BY doc_id HAVING count(DISTINCT term) = 2),
contrib AS (
  SELECT t.doc_id,
         ln((st.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
           * 2.2 * t.tf / (t.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / st.avgdl)) AS c
  FROM tf t JOIN df USING (term) JOIN dl USING (doc_id), st
  WHERE t.doc_id IN (SELECT doc_id FROM matches)
),
scores AS (SELECT doc_id, sum(c) AS score FROM contrib GROUP BY doc_id),
top AS (SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id) AS BIGINT) AS rank,
               doc_id
        FROM scores ORDER BY score DESC, doc_id LIMIT 10)
SELECT top.rank, top.doc_id, d.text
FROM top JOIN documents d USING (doc_id)
ORDER BY top.rank
"""


def q_search_after_page(sf_dir):
    """Cursor pagination (search_after): page 2 of the BM25 AND query.
    Page 1's last row is the cursor — the engine returns the next 10
    documents strictly later in (score desc, doc_id asc) order with a
    k-sized heap, never an offset+k heap (the Elasticsearch
    ``search_after`` deep-paging contract).  Exactness: the cursor floats
    come from the engine's own page-1 output, so the comparison is on
    identical doubles."""
    eng = get_engine(sf_dir)
    q = " ".join(_BM25_TERMS)
    p1 = eng.search(q, k=10)
    cursor = (p1["score"][-1].as_py(), p1["doc_id"][-1].as_py())
    t = eng.search(q, k=10, after=cursor)
    return pa.table(
        {
            "rank": t["rank"].cast(pa.int64()),
            "doc_id": t["doc_id"].cast(pa.int64()),
            "score": pa.array(np.round(t["score"].to_numpy(), 6), pa.float64()),
        }
    )


# page 2 of SQL_BM25_TOPK: same scoring CTE, rows 11-20, rank restarting
# at 1 (the rank is page-relative, as a cursor API reports it)
SQL_SEARCH_AFTER_PAGE = f"""
WITH toks AS ({_tokens_sql()}),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
st AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM dl),
tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
       WHERE term IN ('spark','join') GROUP BY doc_id, term),
df AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks
       WHERE term IN ('spark','join') GROUP BY term),
matches AS (SELECT doc_id FROM tf GROUP BY doc_id HAVING count(DISTINCT term) = 2),
contrib AS (
  SELECT t.doc_id,
         ln((st.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
           * 2.2 * t.tf / (t.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / st.avgdl)) AS c
  FROM tf t JOIN df USING (term) JOIN dl USING (doc_id), st
  WHERE t.doc_id IN (SELECT doc_id FROM matches)
),
scores AS (SELECT doc_id, sum(c) AS score FROM contrib GROUP BY doc_id)
SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id) - 10 AS BIGINT) AS rank,
       doc_id, round(score, 6) AS score
FROM scores ORDER BY score DESC, doc_id LIMIT 10 OFFSET 10
"""


def q_fact_filter_search(sf_dir):
    """BM25 top-10 of 'spark join' restricted by the ``en_doc`` fact
    (lang == 'en'), queried through the boolean language as
    ``spark join fact:en_doc``.  The fact participates in matching but
    contributes zero score (IFactSet semantics: facts are rank-0 filter
    rows, never scored content)."""
    eng = get_fact_engine(sf_dir)
    t = eng.search("spark join fact:en_doc", k=10)
    return pa.table(
        {
            "rank": t["rank"].cast(pa.int64()),
            "doc_id": t["doc_id"].cast(pa.int64()),
            "score": pa.array(np.round(t["score"].to_numpy(), 6), pa.float64()),
        }
    )


# same BM25 recipe as SQL_BM25_TOPK; the fact adds ONE predicate to the
# match set (global n/avgdl/df are unchanged — facts filter, never score)
SQL_FACT_FILTER_SEARCH = f"""
WITH toks AS ({_tokens_sql()}),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
st AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM dl),
tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
       WHERE term IN ('spark','join') GROUP BY doc_id, term),
df AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks
       WHERE term IN ('spark','join') GROUP BY term),
matches AS (SELECT doc_id FROM tf
            WHERE doc_id IN (SELECT doc_id FROM documents WHERE lang = 'en')
            GROUP BY doc_id HAVING count(DISTINCT term) = 2),
contrib AS (
  SELECT t.doc_id,
         ln((st.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
           * 2.2 * t.tf / (t.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / st.avgdl)) AS c
  FROM tf t JOIN df USING (term) JOIN dl USING (doc_id), st
  WHERE t.doc_id IN (SELECT doc_id FROM matches)
),
scores AS (SELECT doc_id, sum(c) AS score FROM contrib GROUP BY doc_id)
SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id) AS BIGINT) AS rank,
       doc_id, round(score, 6) AS score
FROM scores ORDER BY score DESC, doc_id LIMIT 10
"""


def q_fact_only_count(sf_dir):
    """Match count of a pure fact query (fact:even_doc OR fact:en_doc) —
    boolean algebra over fact rows alone."""
    eng = get_fact_engine(sf_dir)
    docs = eng.eval(parse_query("fact:even_doc | fact:en_doc", eng.stream_map))
    return pa.table({"doc_id": pa.array(docs.astype(np.int64), pa.int64())})


SQL_FACT_ONLY_COUNT = """
SELECT doc_id FROM documents WHERE doc_id % 2 = 0 OR lang = 'en'
"""


def q_bm25f_topk(sf_dir):
    """Field-weighted BM25F top-10 over (body, synthesized title=first 3
    tokens), title boosted 2.5x — the offline multi-field rerank scorer
    (ops/bm25f.py)."""
    import pyarrow.compute as pc

    from bitfunnel_ray.ops.bm25f import bm25f_topk

    def add_title(t: pa.Table) -> pa.Table:
        toks = pc.list_slice(pc.utf8_split_whitespace(t["text"]), 0, 3)
        return t.append_column("title", pc.binary_join(toks, " "))

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    docs = docs.map_batches(add_title, batch_format="pyarrow")
    return bm25f_topk(
        docs, terms=["merge", "window"], fields=[("text", 1.0), ("title", 2.5)], k=10
    )


SQL_BM25F_TOPK = """
WITH base AS (
  SELECT doc_id, text AS body,
         array_to_string((string_split(text, ' '))[1:3], ' ') AS title
  FROM documents
),
ftoks AS (
  SELECT doc_id, 'body' AS field, unnest(string_split(body, ' ')) AS term FROM base
  UNION ALL
  SELECT doc_id, 'title', unnest(string_split(title, ' ')) FROM base
),
dl AS (SELECT doc_id, field, count(*) AS dl FROM ftoks GROUP BY doc_id, field),
nd AS (SELECT count(*) AS n FROM documents),
ad AS (
  SELECT field, CAST(sum(dl) AS DOUBLE) / CAST((SELECT n FROM nd) AS DOUBLE) AS avgdl
  FROM dl GROUP BY field
),
tf AS (
  SELECT doc_id, field, term, count(*) AS tf FROM ftoks
  WHERE term IN ('merge', 'window') GROUP BY doc_id, field, term
),
dft AS (
  SELECT term, count(DISTINCT doc_id) AS df FROM ftoks
  WHERE term IN ('merge', 'window') GROUP BY term
),
tfh AS (
  SELECT t.doc_id, t.term,
         sum((CASE t.field WHEN 'body' THEN 1.0 ELSE 2.5 END)
             * (t.tf / (1 - 0.75 + 0.75 * (d.dl / a.avgdl)))) AS tfh
  FROM tf t
  JOIN dl d ON t.doc_id = d.doc_id AND t.field = d.field
  JOIN ad a ON t.field = a.field
  GROUP BY t.doc_id, t.term
),
contrib AS (
  SELECT f.doc_id,
         ln(((SELECT n FROM nd) - g.df + 0.5) / (g.df + 0.5) + 1.0)
           * (f.tfh / (1.2 + f.tfh)) AS c
  FROM tfh f JOIN dft g USING (term)
),
scores AS (SELECT doc_id, sum(c) AS score FROM contrib GROUP BY doc_id)
SELECT CAST(row_number() OVER (ORDER BY round(score, 6) DESC, doc_id) AS BIGINT) AS rank,
       doc_id, round(score, 6) AS score
FROM scores ORDER BY round(score, 6) DESC, doc_id LIMIT 10
"""


def q_cohort_retention(sf_dir):
    """Weekly retention matrix over the event stream: users bucketed by
    first-event ISO week, counted per later active week.  One exchange
    on user; driver merges a weeks² matrix, never users."""
    from bitfunnel_ray.ops.cohort import cohort_retention

    ev = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    return cohort_retention(ev)


SQL_COHORT_RETENTION = """
WITH f AS (
  SELECT user_id, date_trunc('week', min(ts)) AS cohort
  FROM events GROUP BY user_id
),
a AS (SELECT DISTINCT user_id, date_trunc('week', ts) AS wk FROM events),
j AS (
  SELECT a.user_id, f.cohort, datediff('week', f.cohort, a.wk) AS off
  FROM a JOIN f USING (user_id)
)
SELECT CAST(epoch_us(cohort) AS BIGINT) AS cohort_week_us,
       CAST(off AS BIGINT) AS week_offset,
       CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
FROM j GROUP BY cohort, off ORDER BY 1, 2
"""


def q_rolling_active_users(sf_dir):
    """Rolling 7-day distinct active users per day (WAU curve) — exact,
    via map-side (user, day) dedup + one user exchange + per-block
    coverage partials; driver merges calendar-sized rows."""
    from bitfunnel_ray.ops.cohort import rolling_active_users

    ev = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    return rolling_active_users(ev, window_days=7)


SQL_ROLLING_ACTIVE_USERS = """
WITH ud AS (
  SELECT DISTINCT user_id, CAST(date_trunc('day', ts) AS DATE) AS d FROM events
),
cov AS (
  SELECT DISTINCT user_id, d + CAST(i AS INTEGER) AS wd
  FROM ud CROSS JOIN unnest(range(0, 7)) t(i)
),
mx AS (SELECT max(d) AS m FROM ud)
SELECT CAST(epoch_us(CAST(wd AS TIMESTAMP)) AS BIGINT) AS day_us,
       CAST(count(*) AS BIGINT) AS n_users
FROM cov, mx WHERE wd <= mx.m
GROUP BY wd ORDER BY wd
"""


def q_normalize_text(sf_dir):
    """Canonical text normalization (lowercase + collapse non-alnum runs
    + trim): map-only Arrow kernels; RE2 on both sides so the oracle is
    byte-identical."""
    return _i64_out(textstats.normalize_text(corpus_from_documents(sf_dir)))


SQL_NORMALIZE_TEXT = """
SELECT doc_id,
       trim(regexp_replace(lower(text), '[^a-z0-9]+', ' ', 'g')) AS norm_text
FROM documents ORDER BY doc_id
"""


def q_funnel(sf_dir):
    """Two-step funnel over the event stream: users whose first 'view'
    is followed by a 'click' within 24 hours (first such click).
    Type-filter before the exchange; one hash exchange on user_id."""
    from bitfunnel_ray.ops.funnel import funnel

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"]
    )
    return funnel(ev, "view", "click", 24 * 3600 * 1_000_000)


SQL_FUNNEL = """
WITH v AS (
  SELECT user_id, min(ts) AS view_ts FROM events
  WHERE event_type = 'view' GROUP BY user_id
),
c AS (
  SELECT e.user_id, v.view_ts, min(e.ts) AS click_ts
  FROM events e JOIN v USING (user_id)
  WHERE e.event_type = 'click' AND e.ts > v.view_ts
    AND e.ts <= v.view_ts + INTERVAL 24 HOUR
  GROUP BY e.user_id, v.view_ts
)
SELECT CAST(user_id AS BIGINT) AS user_id,
       CAST(epoch_us(view_ts) AS BIGINT) AS trigger_ts_us,
       CAST(epoch_us(click_ts) AS BIGINT) AS target_ts_us
FROM c ORDER BY user_id
"""


def q_more_like_this(sf_dir):
    """Related docs for doc 42: corpus ranked by how many of the doc's
    top-3 TF-IDF keywords each doc contains (map-side top-k, ≤ k rows
    per block reach the driver)."""
    from bitfunnel_ray.ops.mlt import more_like_this

    n_docs = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    return more_like_this(
        corpus_from_documents(sf_dir), doc_id=42, n_docs=n_docs, m=3, k=10
    )


SQL_MORE_LIKE_THIS = f"""
WITH toks AS ({_tokens_sql()}),
tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
       WHERE doc_id = 42 GROUP BY doc_id, term),
df AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks GROUP BY term),
n AS (SELECT count(*) AS n FROM documents),
scored AS (
  SELECT tf.term, tf.tf * ln(CAST(n.n AS DOUBLE) / df.df) AS tfidf
  FROM tf JOIN df USING (term), n
),
kw AS (
  SELECT term FROM (
    SELECT term, row_number() OVER (ORDER BY tfidf DESC, term) AS rk FROM scored
  ) WHERE rk <= 3
),
shared AS (
  SELECT t.doc_id, count(DISTINCT t.term) AS shared
  FROM toks t JOIN kw USING (term)
  WHERE t.doc_id <> 42 GROUP BY t.doc_id
)
SELECT CAST(rk AS BIGINT) AS rank, CAST(doc_id AS BIGINT) AS doc_id,
       CAST(shared AS BIGINT) AS shared
FROM (SELECT *, row_number() OVER (ORDER BY shared DESC, doc_id) AS rk FROM shared)
WHERE rk <= 10 ORDER BY rank
"""


def q_fuzzy_terms(sf_dir):
    """Did-you-mean: vocabulary terms within edit distance 1 of each
    query term, via SymSpell deletion neighborhoods (equality tests only
    — no per-pair Levenshtein), streaming over the df table."""
    from bitfunnel_ray.ops.fuzzy import fuzzy_term_match

    dft = document_frequency_table(
        corpus_from_documents(sf_dir), EngineConfig(max_gram=1)
    )
    return fuzzy_term_match(dft, ["spark", "quer", "joinn", "sparc"])


SQL_FUZZY_TERMS = f"""
WITH toks AS ({_tokens_sql()}),
vocab AS (
  SELECT term, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
  FROM toks GROUP BY term
)
SELECT q.query_term, v.term, v.df
FROM vocab v CROSS JOIN (VALUES ('spark'), ('quer'), ('joinn'), ('sparc')) q(query_term)
WHERE levenshtein(q.query_term, v.term) <= 1
ORDER BY q.query_term, v.term
"""


def q_search_corrected(sf_dir):
    """Spell-corrected search, end to end: each (misspelled) query term
    is rewritten to the highest-df vocabulary term within edit distance
    1 (ties by term asc) via the deletion-neighborhood matcher, then the
    corrected conjunction runs through the real index."""
    from bitfunnel_ray.ops.fuzzy import fuzzy_term_match

    raw_terms = ["sparkk", "joinn"]
    dft = document_frequency_table(
        corpus_from_documents(sf_dir), EngineConfig(max_gram=1)
    )
    matches = fuzzy_term_match(dft, raw_terms).to_pandas()
    corrected = []
    for q in raw_terms:
        sub = matches[matches.query_term == q].sort_values(
            ["df", "term"], ascending=[False, True]
        )
        corrected.append(sub.term.iloc[0] if len(sub) else q)
    eng = get_engine(sf_dir)
    docs = eng.eval(parse_query(" ".join(corrected)))
    return pa.table({"doc_id": pa.array(np.sort(docs.astype(np.int64)), pa.int64())})


SQL_SEARCH_CORRECTED = f"""
WITH toks AS ({_tokens_sql()}),
vocab AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks GROUP BY term),
c1 AS (SELECT term FROM vocab WHERE levenshtein('sparkk', term) <= 1
       ORDER BY df DESC, term LIMIT 1),
c2 AS (SELECT term FROM vocab WHERE levenshtein('joinn', term) <= 1
       ORDER BY df DESC, term LIMIT 1)
SELECT doc_id FROM documents, c1, c2
WHERE list_contains(string_split(text, ' '), c1.term)
  AND list_contains(string_split(text, ' '), c2.term)
ORDER BY doc_id
"""


def q_doc_keywords(sf_dir):
    """Top-3 TF-IDF keywords per document: df table exchange once, then a
    map-only pass with the (hash → df) arrays broadcast; output streams
    (3 rows/doc, never driver-gathered)."""
    from bitfunnel_ray.ops.keywords import doc_keywords

    n_docs = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    return doc_keywords(
        corpus_from_documents(sf_dir), n_docs, m=3, cfg=EngineConfig(max_gram=1)
    )


SQL_DOC_KEYWORDS = """
WITH toks AS (SELECT doc_id, unnest(string_split(text, ' ')) AS term FROM documents),
tf AS (SELECT doc_id, term, count(*) AS tf FROM toks GROUP BY doc_id, term),
df AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks GROUP BY term),
n AS (SELECT count(*) AS n FROM documents),
scored AS (
  SELECT tf.doc_id, tf.term,
         tf.tf * ln(CAST(n.n AS DOUBLE) / df.df) AS tfidf
  FROM tf JOIN df USING (term), n
),
ranked AS (
  SELECT doc_id, term, tfidf,
         row_number() OVER (PARTITION BY doc_id ORDER BY tfidf DESC, term) AS rk
  FROM scored
)
SELECT CAST(doc_id AS BIGINT) AS doc_id, term,
       round(tfidf, 6) AS tfidf, CAST(rk AS BIGINT) AS rank
FROM ranked WHERE rk <= 3 ORDER BY doc_id, rank
"""


def q_distinct_terms(sf_dir):
    """Exact distinct-token count per source: block-deduped fixed-width
    (group, hash) pairs through ONE hash exchange, vectorized unique +
    segment count after."""
    from bitfunnel_ray.ops.sketch import distinct_terms_by_group

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["source", "text"])
    return distinct_terms_by_group(docs, "source")


SQL_DISTINCT_TERMS = """
SELECT source, CAST(count(DISTINCT term) AS BIGINT) AS n_terms
FROM (SELECT source, unnest(string_split(text, ' ')) AS term FROM documents)
GROUP BY source ORDER BY source
"""


def q_binary_stats(sf_dir):
    """Codec-free binary-column profiling (size, byte entropy, distinct
    bytes, magic sniff) over the corpus html payloads — the multimodal
    ingest-QA stage.  Rows-only (byte entropy isn't SQL-practical);
    known-entropy kernels are pytest-proven."""
    from bitfunnel_ray.ops.multimodal import binary_stats

    return binary_stats(corpus_from_documents(sf_dir), "html")


def q_distinct_terms_hll(sf_dir):
    """HyperLogLog distinct-token count per source — the no-exchange
    scale path (16 KiB mergeable registers per group per block).
    Approximate by design → rows-only driver check; the error bound and
    merge associativity are pytest-verified against the exact op."""
    from bitfunnel_ray.ops.sketch import distinct_terms_hll

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["source", "text"])
    return distinct_terms_hll(docs, "source")


def q_facet_counts(sf_dir):
    """Facet counts for AND(spark, join): matching-doc counts per
    (lang, source) — the search + analytics serving feature.  Match set
    broadcast once; map-side partial counts; driver merges
    facet-cardinality rows only."""
    from bitfunnel_ray.query.facets import facet_counts

    eng = get_engine(sf_dir)
    meta = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "source"]
    )
    return facet_counts(eng, meta, " ".join(_BM25_TERMS))


SQL_FACET_COUNTS = f"""
WITH toks AS ({_tokens_sql()}),
m AS (
  SELECT doc_id FROM toks WHERE term = 'spark'
  INTERSECT
  SELECT doc_id FROM toks WHERE term = 'join'
)
SELECT lang, source, CAST(count(*) AS BIGINT) AS n_docs
FROM documents WHERE doc_id IN (SELECT doc_id FROM m)
GROUP BY lang, source ORDER BY lang, source
"""


# Same ranking CTEs as SQL_BM25_TOPK, plus the snippet window: 1-based
# list slice a[p-5 : p+9] == the Ray side's 0-based tokens[f-5 : f+10].
SQL_SEARCH_SNIPPETS = f"""
WITH toks AS ({_tokens_sql()}),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
st AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM dl),
tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
       WHERE term IN ('spark','join') GROUP BY doc_id, term),
df AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks
       WHERE term IN ('spark','join') GROUP BY term),
matches AS (SELECT doc_id FROM tf GROUP BY doc_id HAVING count(DISTINCT term) = 2),
contrib AS (
  SELECT t.doc_id,
         ln((st.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
           * 2.2 * t.tf / (t.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / st.avgdl)) AS c
  FROM tf t JOIN df USING (term) JOIN dl USING (doc_id), st
  WHERE t.doc_id IN (SELECT doc_id FROM matches)
),
scores AS (SELECT doc_id, sum(c) AS score FROM contrib GROUP BY doc_id),
topk AS (
  SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id) AS BIGINT) AS rank,
         doc_id, round(score, 6) AS score
  FROM scores ORDER BY score DESC, doc_id LIMIT 10),
arr AS (SELECT doc_id, string_split(text, ' ') AS a FROM documents),
pos AS (SELECT t.rank, t.doc_id, t.score, a,
          least(list_position(a, 'spark'), list_position(a, 'join')) AS p
        FROM topk t JOIN arr USING (doc_id))
SELECT rank, CAST(doc_id AS BIGINT) AS doc_id, score,
       array_to_string(a[greatest(1, p-5):least(len(a), p+9)], ' ') AS snippet
FROM pos ORDER BY rank
"""


def q_sample_filter(sf_dir):
    ds = filters.sample_filter(corpus_from_documents(sf_dir), 0.25)
    return ds.map_batches(
        lambda t: pa.table({"doc_id": t["doc_id"].cast(pa.int64())}),
        batch_format="pyarrow",
    )


SQL_SAMPLE_FILTER = """
SELECT doc_id FROM documents
WHERE (doc_id * 2654435761) % 4294967296 < 0.25 * 4294967296
"""


def q_posting_count_filter(sf_dir):
    ds = filters.posting_count_filter(
        corpus_from_documents(sf_dir), 25, 35, EngineConfig(max_gram=1)
    )
    return ds.map_batches(
        lambda t: pa.table({"doc_id": t["doc_id"].cast(pa.int64())}),
        batch_format="pyarrow",
    )


SQL_POSTING_COUNT_FILTER = f"""
SELECT doc_id FROM (
  SELECT doc_id, count(DISTINCT term) AS np FROM ({_tokens_sql()}) GROUP BY doc_id
) WHERE np BETWEEN 25 AND 35
"""


def q_first_n(sf_dir):
    ds = filters.first_n(corpus_from_documents(sf_dir), 100)
    return ds.map_batches(
        lambda t: pa.table(
            {"doc_id": t["doc_id"].cast(pa.int64()), "lang": t["lang"]}
        ),
        batch_format="pyarrow",
    )


SQL_FIRST_N = "SELECT doc_id, lang FROM documents ORDER BY doc_id LIMIT 100"


def q_select_columns(sf_dir):
    return rd.read_parquet(f"{sf_dir}/part.parquet").select_columns(
        ["p_partkey", "p_name"]
    )


SQL_SELECT_COLUMNS = "SELECT p_partkey, p_name FROM part"


def q_source_histogram(sf_dir):
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["source", "lang"])
    en = ds.map_batches(
        lambda t: t.filter(pa.compute.equal(t["lang"], "en")), batch_format="pyarrow"
    )
    return en.groupby("source").aggregate(Count(alias_name="n_docs"))


SQL_SOURCE_HISTOGRAM = (
    "SELECT source, count(*) AS n_docs FROM documents WHERE lang = 'en' GROUP BY source"
)


def q_shard_assign(sf_dir):
    bounds = SHARD_BOUNDARIES

    def f(t: pa.Table) -> pa.Table:
        from bitfunnel_ray.stages.tokenize import tokenize_batch

        r = tokenize_batch(t["text"], 1, emit_text=False)
        shard = np.searchsorted(np.asarray(bounds), r.n_postings, side="right").astype(
            np.int64
        )
        return pa.table(
            {"doc_id": t["doc_id"].cast(pa.int64()), "shard": pa.array(shard)}
        )

    return corpus_from_documents(sf_dir).map_batches(f, batch_format="pyarrow")


SQL_SHARD_ASSIGN = f"""
SELECT doc_id,
       CASE WHEN np < 32 THEN 0 WHEN np < 64 THEN 1 WHEN np < 128 THEN 2 ELSE 3 END AS shard
FROM (SELECT doc_id, count(DISTINCT term) AS np FROM ({_tokens_sql()}) GROUP BY doc_id)
"""


def q_token_count(sf_dir):
    return _i64_out(textstats.token_count(corpus_from_documents(sf_dir)))


SQL_TOKEN_COUNT = "SELECT doc_id, len(string_split(text,' ')) AS n_tokens FROM documents"


def q_bpe_token_count(sf_dir):
    """Whitespace + BPE-ish-regex token counts (the GPT-2 pre-tokenizer
    split restricted to RE2) — training-budget estimation."""
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return textstats.regex_token_count(docs)


def _bpe_sql() -> str:
    from bitfunnel_ray.ops.textstats import BPE_SPLIT_RX

    rx = BPE_SPLIT_RX.replace("'", "''")
    return f"""
SELECT doc_id,
       CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tokens,
       CAST(len(regexp_extract_all(text, '{rx}')) AS BIGINT) AS n_bpe_tokens
FROM documents
"""


SQL_BPE_TOKEN_COUNT = _bpe_sql()


def q_quality_score(sf_dir):
    ds = textstats.quality_score(corpus_from_documents(sf_dir))

    def r6(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "n_tokens": t["n_tokens"],
                "n_unique": t["n_unique"],
                "avg_token_len": pa.array(np.round(t["avg_token_len"].to_numpy(), 6)),
                "stopword_ratio": pa.array(np.round(t["stopword_ratio"].to_numpy(), 6)),
                "quality": pa.array(np.round(t["quality"].to_numpy(), 6)),
            }
        )

    return ds.map_batches(r6, batch_format="pyarrow")


_STOP_SQL = ",".join(f"'{w}'" for w in STOPWORDS)
SQL_QUALITY_SCORE = f"""
WITH t AS ({_tokens_sql()}),
agg AS (
  SELECT doc_id, count(*) AS n_tokens, count(DISTINCT term) AS n_unique,
         sum(CASE WHEN term IN ({_STOP_SQL}) THEN 1 ELSE 0 END) AS n_stop,
         sum(length(term)) AS sum_len
  FROM t GROUP BY doc_id)
SELECT doc_id, n_tokens, n_unique,
       round(sum_len * 1.0 / n_tokens, 6) AS avg_token_len,
       round(n_stop * 1.0 / n_tokens, 6) AS stopword_ratio,
       round(least(n_tokens / 64.0, 1.0) * 0.4
           + least(n_unique * 1.0 / n_tokens, 1.0) * 0.4
           + least(1.0 - n_stop * 1.0 / n_tokens, 1.0) * 0.2, 6) AS quality
FROM agg
"""


def q_repetition_stats(sf_dir):
    """Gopher-rule repetition fractions per document (dup-token /
    top-token / top-bigram) — the boilerplate-detection quality pass."""
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return textstats.repetition_stats(docs)


SQL_REPETITION_STATS = f"""
WITH tf AS (
  SELECT doc_id, term, count(*) AS c FROM ({_tokens_sql()}) GROUP BY doc_id, term
),
agg AS (
  SELECT doc_id, CAST(sum(c) AS BIGINT) AS n, count(*) AS u, max(c) AS m
  FROM tf GROUP BY doc_id
),
d AS (SELECT doc_id, string_split(text, ' ') AS s FROM documents),
bg AS (
  SELECT doc_id, s[i] || ' ' || s[i+1] AS b
  FROM d, unnest(range(1, len(s))) AS t(i)
),
btf AS (SELECT doc_id, b, count(*) AS c FROM bg GROUP BY doc_id, b),
bagg AS (SELECT doc_id, max(c) AS mb FROM btf GROUP BY doc_id)
SELECT a.doc_id, n AS n_tokens,
       1 - u / n AS dup_token_frac,
       m / n AS top_token_frac,
       coalesce(mb / nullif(n - 1, 0), 0.0) AS top_bigram_frac
FROM agg a LEFT JOIN bagg USING (doc_id)
"""


def q_pii_redact(sf_dir):
    """PII + deny-list redaction over the corpus.  The deny-list entry
    matches real corpus tokens so the oracle check is non-vacuous; the
    PII patterns exercise the same RE2 path (planted-PII pytest covers
    their matching behavior)."""
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return redact.redact_text(docs, _REDACT_PATTERNS)


_REDACT_PATTERNS = (
    *redact.DEFAULT_PATTERNS,
    ("denylist", r"\b(customer|spark)\b", "<TERM>"),
)

SQL_PII_REDACT = redact.redact_sql(_REDACT_PATTERNS)


def q_token_budget(sf_dir):
    """Per-language token-budget prefix sample (mixture control): docs in
    doc_id order per lang until 20k tokens — an exact distributed prefix
    scan (ops/budget.py), no all-to-all sort."""
    from bitfunnel_ray.ops.budget import token_budget_sample

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "text"]
    )
    out = token_budget_sample(docs, budget=20_000, group_col="lang")
    return out.select_columns(["doc_id", "grp", "n_tokens", "cum_tokens"])


SQL_TOKEN_BUDGET = """
WITH t AS (
  SELECT doc_id, lang, CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tokens
  FROM documents
),
c AS (
  SELECT doc_id, lang AS grp, n_tokens,
         sum(n_tokens) OVER (PARTITION BY lang ORDER BY doc_id) AS cum_tokens
  FROM t
)
SELECT doc_id, grp, n_tokens, CAST(cum_tokens AS BIGINT) AS cum_tokens
FROM c WHERE cum_tokens <= 20000
"""


def q_head_coverage(sf_dir):
    """Head-coverage quality proxy (CCNet LM-score analog): fraction of
    each doc's tokens in the corpus's df-≥-390 vocabulary head."""
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return textstats.head_coverage(docs, min_df=390)


SQL_HEAD_COVERAGE = f"""
WITH df AS (
  SELECT term, count(DISTINCT doc_id) AS df FROM ({_tokens_sql()}) GROUP BY term
),
head AS (SELECT term FROM df WHERE df >= 390)
SELECT doc_id, CAST(count(*) AS BIGINT) AS n_tokens,
       CAST(sum(CASE WHEN h.term IS NOT NULL THEN 1 ELSE 0 END) AS BIGINT) AS n_common,
       sum(CASE WHEN h.term IS NOT NULL THEN 1 ELSE 0 END) / count(*) AS common_frac
FROM ({_tokens_sql()}) t LEFT JOIN head h USING (term)
GROUP BY doc_id
"""


def q_exact_dedup(sf_dir):
    ds = dedup.exact_dedup_keep(corpus_from_documents(sf_dir))
    return ds.select_columns(["doc_id"]).map_batches(
        lambda t: pa.table({"doc_id": t["doc_id"].cast(pa.int64())}),
        batch_format="pyarrow",
    )


SQL_EXACT_DEDUP = "SELECT min(doc_id) AS doc_id FROM documents GROUP BY text"


def q_events_hourly(sf_dir):
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "ts"])

    def f(t: pa.Table) -> pa.Table:
        secs = t["ts"].cast(pa.int64()).to_numpy() // 1_000_000
        return pa.table(
            {
                "event_type": t["event_type"],
                "hour_bucket": pa.array(secs // 3600, pa.int64()),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow").groupby(
        ["event_type", "hour_bucket"]
    ).aggregate(Count(alias_name="n"))


SQL_EVENTS_HOURLY = """
SELECT event_type, CAST(floor(epoch(ts) / 3600) AS BIGINT) AS hour_bucket,
       count(*) AS n
FROM events GROUP BY event_type, hour_bucket
"""


_ANN_QUERY_IDS = (0, 1, 2)


def _ann_query_matrix(sf_dir):
    # predicate pushdown: only the 3 query vectors' row groups leave the
    # file — never the whole embeddings table onto the driver
    tbl = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "in", list(_ANN_QUERY_IDS))],
    )
    df = tbl.to_pandas().set_index("vec_id")
    return np.stack([np.asarray(df.loc[i, "embedding"], dtype=np.float64) for i in _ANN_QUERY_IDS])


def q_ann_topk(sf_dir):
    emb = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    out = ann.brute_force_topk(emb, _ann_query_matrix(sf_dir), k=10).to_pandas()
    out["query_id"] = out["query_id"].map(lambda i: _ANN_QUERY_IDS[int(i)]).astype(np.int64)
    out["cosine"] = np.round(out["cosine"].to_numpy(), 5)
    return out[["query_id", "rank", "vec_id", "cosine"]]


def q_ann_filtered_topk(sf_dir):
    """Filtered vector search: exact cosine top-10 restricted to label=3
    vectors — metadata predicate applied per batch BEFORE scoring."""
    emb = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding", "label"]
    )
    out = ann.filtered_topk(
        emb, _ann_query_matrix(sf_dir), k=10, filter_col="label", filter_value=3
    ).to_pandas()
    out["query_id"] = out["query_id"].map(lambda i: _ANN_QUERY_IDS[int(i)]).astype(np.int64)
    out["cosine"] = np.round(out["cosine"].to_numpy(), 5)
    return out[["query_id", "rank", "vec_id", "cosine"]]


SQL_ANN_FILTERED_TOPK = f"""
WITH q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings
           WHERE vec_id IN (0, 1, 2)),
sims AS (SELECT q.qid AS query_id, e.vec_id,
                CAST(list_cosine_similarity(e.embedding, q.qe) AS DOUBLE) AS cosine
         FROM embeddings e CROSS JOIN q WHERE e.label = 3),
ranked AS (SELECT query_id, vec_id, cosine,
                  CAST(row_number() OVER (PARTITION BY query_id
                       ORDER BY cosine DESC, vec_id) AS BIGINT) AS rank
           FROM sims)
SELECT query_id, rank, vec_id, round(cosine, 5) AS cosine
FROM ranked WHERE rank <= 10
"""


SQL_ANN_TOPK = f"""
WITH q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings
           WHERE vec_id IN (0, 1, 2)),
sims AS (SELECT q.qid AS query_id, e.vec_id,
                CAST(list_cosine_similarity(e.embedding, q.qe) AS DOUBLE) AS cosine
         FROM embeddings e CROSS JOIN q),
ranked AS (SELECT query_id, vec_id, cosine,
                  CAST(row_number() OVER (PARTITION BY query_id
                       ORDER BY cosine DESC, vec_id) AS BIGINT) AS rank
           FROM sims)
SELECT query_id, rank, vec_id, round(cosine, 5) AS cosine
FROM ranked WHERE rank <= 10
"""


def q_hybrid_search(sf_dir):
    """Hybrid retrieval: lexical BM25-OR top-20 (block-max WAND over the
    real index) fused with dense cosine top-20 (brute-force ANN) by
    reciprocal-rank fusion, rrf = Σ 1/(60+rank) (Cormack et al. 2009,
    the public RRF constant).  vec_id and doc_id share the id domain in
    the test tables, so the fusion join is direct."""
    K = 20
    eng = get_engine(sf_dir)
    lex = eng.topk_or(["merge", "window"], k=K)
    lex_doc = lex["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)

    tbl = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    dfq = tbl.to_pandas().set_index("vec_id")
    qv = np.asarray(dfq.loc[7, "embedding"], dtype=np.float64)[None, :]
    emb = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    dense = ann.brute_force_topk(emb, qv, k=K).to_pandas()

    rrf: dict[int, float] = {}
    for r, d in enumerate(lex_doc, start=1):
        rrf[int(d)] = rrf.get(int(d), 0.0) + 1.0 / (60.0 + r)
    for r, d in zip(dense["rank"].to_numpy(), dense["vec_id"].to_numpy()):
        rrf[int(d)] = rrf.get(int(d), 0.0) + 1.0 / (60.0 + float(r))
    docs = np.array(sorted(rrf), dtype=np.int64)
    sc = np.array([rrf[int(d)] for d in docs])
    order = np.lexsort((docs, -sc))[:10]
    return pa.table(
        {
            "rank": pa.array(np.arange(1, len(order) + 1, dtype=np.int64), pa.int64()),
            "doc_id": pa.array(docs[order], pa.int64()),
            "rrf": pa.array(sc[order], pa.float64()),
        }
    )


SQL_HYBRID_SEARCH = f"""
WITH toks AS ({_tokens_sql()}),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
st AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM dl),
tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
       WHERE term IN ('merge','window') GROUP BY doc_id, term),
df AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks
       WHERE term IN ('merge','window') GROUP BY term),
contrib AS (
  SELECT t.doc_id,
         ln((st.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
           * 2.2 * t.tf / (t.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / st.avgdl)) AS c
  FROM tf t JOIN df USING (term) JOIN dl USING (doc_id), st
),
lexs AS (SELECT doc_id, sum(c) AS score FROM contrib GROUP BY doc_id),
lex AS (SELECT doc_id, r FROM (
  SELECT doc_id, row_number() OVER (ORDER BY score DESC, doc_id) AS r FROM lexs
) WHERE r <= 20),
qv AS (SELECT embedding AS qe FROM embeddings WHERE vec_id = 7),
sims AS (SELECT e.vec_id AS doc_id,
                CAST(list_cosine_similarity(e.embedding, qv.qe) AS DOUBLE) AS cosine
         FROM embeddings e, qv),
dense AS (SELECT doc_id, r FROM (
  SELECT doc_id, row_number() OVER (ORDER BY cosine DESC, doc_id) AS r FROM sims
) WHERE r <= 20),
fused AS (
  SELECT doc_id, sum(1.0 / (60 + r)) AS rrf
  FROM (SELECT * FROM lex UNION ALL SELECT * FROM dense) GROUP BY doc_id
)
SELECT CAST(row_number() OVER (ORDER BY rrf DESC, doc_id) AS BIGINT) AS rank,
       doc_id, rrf
FROM fused ORDER BY rrf DESC, doc_id LIMIT 10
"""


def q_hard_negatives(sf_dir):
    """Contrastive hard negatives: per anchor (vec_ids 0,1,2), top-5 most
    similar vectors with a DIFFERENT label (ops/ann.py::hard_negatives)."""
    tbl = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding", "label"]
    )
    df = tbl.to_pandas().set_index("vec_id")
    qv = np.stack(
        [np.asarray(df.loc[i, "embedding"], dtype=np.float64) for i in _ANN_QUERY_IDS]
    )
    ql = np.array([int(df.loc[i, "label"]) for i in _ANN_QUERY_IDS], dtype=np.int64)
    emb = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding", "label"]
    )
    out = ann.hard_negatives(emb, qv, ql, k=5).to_pandas()
    out["query_id"] = out["query_id"].map(lambda i: _ANN_QUERY_IDS[int(i)]).astype(np.int64)
    out["cosine"] = np.round(out["cosine"].to_numpy(), 5)
    return out[["query_id", "rank", "vec_id", "cosine"]]


SQL_HARD_NEGATIVES = f"""
WITH q AS (SELECT vec_id AS qid, embedding AS qe, label AS ql FROM embeddings
           WHERE vec_id IN (0, 1, 2)),
sims AS (SELECT q.qid AS query_id, e.vec_id,
                CAST(list_cosine_similarity(e.embedding, q.qe) AS DOUBLE) AS cosine
         FROM embeddings e CROSS JOIN q
         WHERE e.label <> q.ql),
ranked AS (SELECT query_id, vec_id, cosine,
                  CAST(row_number() OVER (PARTITION BY query_id
                       ORDER BY cosine DESC, vec_id) AS BIGINT) AS rank
           FROM sims)
SELECT query_id, rank, vec_id, round(cosine, 5) AS cosine
FROM ranked WHERE rank <= 5
"""


def q_bm25_or_topk(sf_dir):
    """Disjunctive BM25 top-k through the block-max WAND path."""
    eng = get_engine(sf_dir)
    t = eng.topk_or(list(_BM25_TERMS), k=10, use_wand=True)
    return pa.table(
        {
            "rank": t["rank"].cast(pa.int64()),
            "doc_id": t["doc_id"].cast(pa.int64()),
            "score": pa.array(np.round(t["score"].to_numpy(), 6), pa.float64()),
        }
    )


# same CTE as bm25_topk but OR match semantics (any term)
SQL_BM25_OR_TOPK = f"""
WITH toks AS ({_tokens_sql()}),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
st AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM dl),
tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
       WHERE term IN ('spark','join') GROUP BY doc_id, term),
df AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks
       WHERE term IN ('spark','join') GROUP BY term),
contrib AS (
  SELECT t.doc_id,
         ln((st.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
           * 2.2 * t.tf / (t.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / st.avgdl)) AS c
  FROM tf t JOIN df USING (term) JOIN dl USING (doc_id), st
),
scores AS (SELECT doc_id, sum(c) AS score FROM contrib GROUP BY doc_id)
SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id) AS BIGINT) AS rank,
       doc_id, round(score, 6) AS score
FROM scores ORDER BY score DESC, doc_id LIMIT 10
"""


_COOC_TERMS = ("spark", "join", "merge", "window", "batch")


def q_cooccurrence(sf_dir):
    from bitfunnel_ray.ops.cooccur import term_cooccurrence

    return term_cooccurrence(corpus_from_documents(sf_dir), list(_COOC_TERMS))


def _cooc_sql() -> str:
    flags = ", ".join(
        f"max(CASE WHEN term = '{t}' THEN 1 ELSE 0 END) AS h{i}"
        for i, t in enumerate(_COOC_TERMS)
    )
    pairs = " UNION ALL ".join(
        f"SELECT '{_COOC_TERMS[i]}' AS term_a, '{_COOC_TERMS[j]}' AS term_b, "
        f"CAST(sum(h{i} * h{j}) AS BIGINT) AS n_docs FROM f"
        for i in range(len(_COOC_TERMS))
        for j in range(i + 1, len(_COOC_TERMS))
    )
    return f"WITH t AS ({_tokens_sql()}), f AS (SELECT doc_id, {flags} FROM t GROUP BY doc_id) {pairs}"


SQL_COOCCURRENCE = _cooc_sql()


def q_annotate_shard(sf_dir):
    ds = filters.annotate_shard(corpus_from_documents(sf_dir), SHARD_BOUNDARIES)
    return ds.map_batches(
        lambda t: pa.table({"doc_id": t["doc_id"].cast(pa.int64()), "text": t["text"]}),
        batch_format="pyarrow",
    )


SQL_ANNOTATE_SHARD = f"""
SELECT doc_id, text || ' ' ||
  CASE WHEN np < 32 THEN 'SHARD_0_32' WHEN np < 64 THEN 'SHARD_32_64'
       WHEN np < 128 THEN 'SHARD_64_128' ELSE 'SHARD_128_inf' END AS text
FROM (SELECT d.doc_id, d.text, np FROM documents d JOIN
      (SELECT doc_id, count(DISTINCT term) AS np FROM ({_tokens_sql()}) GROUP BY doc_id)
      USING (doc_id))
"""


# --- rows-only entries (no faithful ANSI-SQL oracle) ----------------------


def q_minhash_dedup(sf_dir):
    # _table: the sf-scale deterministic wrapper (driver compare needs a
    # sorted table); the scale path is the Dataset-returning op
    return dedup.minhash_dedup_pairs_table(
        corpus_from_documents(sf_dir), k=3, bands=16, threshold=0.5
    )


def q_sessionize(sf_dir):
    """Gap-based session windows over the events stream (30-min gap) —
    the windowed-aggregate op Ray Data lacks natively; one hash exchange
    on user_id + a vectorized per-block kernel (ops/sessions.py)."""
    from bitfunnel_ray.ops.sessions import sessionize

    return sessionize(rd.read_parquet(f"{sf_dir}/events.parquet"), gap_minutes=30.0)


SQL_SESSIONIZE = """
WITH m AS (
  SELECT user_id, ts,
         CASE WHEN lag(ts) OVER w IS NULL
              OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
              THEN 1 ELSE 0 END AS new_s
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts)
),
s AS (
  SELECT user_id, ts,
         sum(new_s) OVER (PARTITION BY user_id ORDER BY ts
                          ROWS UNBOUNDED PRECEDING) AS sid
  FROM m
)
SELECT CAST(user_id AS BIGINT) AS user_id,
       CAST(epoch_us(min(ts)) AS BIGINT) AS session_start_us,
       CAST(epoch_us(max(ts)) AS BIGINT) AS session_end_us,
       CAST(count(*) AS BIGINT) AS n_events
FROM s GROUP BY user_id, sid
"""


def q_ngram_jaccard(sf_dir):
    """Exact n-gram Jaccard near-dup pairs — the sketch-free dedup path
    (fully SQL-expressible, unlike MinHash/SimHash).  Deterministic
    driver-Table form (audits/tests)."""
    return dedup.ngram_jaccard_pairs_table(
        corpus_from_documents(sf_dir), k=3, threshold=0.8, max_df=1024
    )


def q_ngram_jaccard_ds(sf_dir):
    """Same exact-Jaccard pairs as ``ngram_jaccard`` but through the
    composable Dataset-returning API (``dedup.ngram_jaccard_pairs``) —
    the form a 100 TB run consumes (write to parquet / feed connected
    components) without any driver gather.  Shares the SQL oracle with
    the Table twin, so both forms are driver-checked."""
    return dedup.ngram_jaccard_pairs(
        corpus_from_documents(sf_dir), k=3, threshold=0.8, max_df=1024
    )


def q_decontaminate(sf_dir):
    """Benchmark decontamination: docs whose distinct 3-shingle overlap
    with a deterministic held-out benchmark (doc_id % 13 == 0) is ≥ 10%.
    Broadcast small-side membership — no shuffle."""
    from bitfunnel_ray.ops.decontam import decontaminate

    return decontaminate(
        corpus_from_documents(sf_dir), k=3, threshold=0.1, benchmark_mod=13
    )


SQL_DECONTAMINATE = """
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS a FROM documents),
sh AS (
  SELECT DISTINCT doc_id, a[i] || ' ' || a[i+1] || ' ' || a[i+2] AS s
  FROM toks CROSS JOIN unnest(range(1, len(a)-1)) AS t(i)
  WHERE len(a) >= 3
),
bench AS (SELECT DISTINCT s FROM sh WHERE doc_id % 13 = 0),
stats AS (
  SELECT c.doc_id, count(*) AS n_sh,
         sum(CASE WHEN b.s IS NOT NULL THEN 1 ELSE 0 END) AS n_ov
  FROM sh c LEFT JOIN bench b ON c.s = b.s
  WHERE c.doc_id % 13 <> 0 GROUP BY c.doc_id
)
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       CAST(n_sh AS BIGINT) AS n_shingles,
       CAST(n_ov AS BIGINT) AS n_overlap,
       CAST(n_ov AS DOUBLE)/n_sh AS contamination
FROM stats
WHERE CAST(n_ov AS DOUBLE)/n_sh >= 0.1
ORDER BY doc_id
"""


SQL_NGRAM_JACCARD = """
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS a FROM documents),
sh0 AS (
  SELECT DISTINCT doc_id, a[i] || ' ' || a[i+1] || ' ' || a[i+2] AS s
  FROM toks CROSS JOIN unnest(range(1, len(a)-1)) AS t(i)
  WHERE len(a) >= 3
),
hot AS (SELECT s FROM sh0 GROUP BY s HAVING count(*) > 1024),
sh AS (SELECT * FROM sh0 WHERE s NOT IN (SELECT s FROM hot)),
sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
inter AS (
  SELECT s1.doc_id AS da, s2.doc_id AS db, count(*) AS i
  FROM sh s1 JOIN sh s2 ON s1.s = s2.s AND s1.doc_id < s2.doc_id
  GROUP BY 1, 2
)
SELECT CAST(da AS BIGINT) AS doc_a, CAST(db AS BIGINT) AS doc_b,
       CAST(i AS DOUBLE)/(sa.n + sb.n - i) AS jaccard
FROM inter JOIN sizes sa ON sa.doc_id = da JOIN sizes sb ON sb.doc_id = db
WHERE CAST(i AS DOUBLE)/(sa.n + sb.n - i) >= 0.8
"""


def q_asof_join(sf_dir):
    """For each purchase event, the latest click by the same user at or
    before the purchase — the as-of join the brief names as a custom
    operator Ray Data lacks (ops/joins.py: one ``cogroup`` exchange on
    user_id + vectorized forward-fill kernel)."""
    import pyarrow.compute as pc

    from bitfunnel_ray.ops.joins import asof_join

    ev = rd.read_parquet(f"{sf_dir}/events.parquet")

    def only(et):
        def f(t: pa.Table) -> pa.Table:
            return t.filter(pc.equal(t["event_type"], et))

        return f

    purchases = ev.map_batches(only("purchase"), batch_format="pyarrow")
    clicks = ev.map_batches(only("click"), batch_format="pyarrow")
    return asof_join(purchases, clicks, key="user_id", ts="ts", id_col="event_id")


SQL_ASOF_JOIN = """
WITH p AS (SELECT user_id, ts, event_id FROM events WHERE event_type = 'purchase'),
     c AS (SELECT user_id, ts, event_id FROM events WHERE event_type = 'click'),
     j AS (
  SELECT p.user_id AS key, p.event_id AS left_id, epoch_us(p.ts) AS left_ts_us,
         c.event_id AS right_id, epoch_us(c.ts) AS right_ts_us,
         row_number() OVER (PARTITION BY p.event_id
                            ORDER BY c.ts DESC, c.event_id DESC) AS rn
  FROM p JOIN c ON c.user_id = p.user_id AND c.ts <= p.ts
)
SELECT CAST(key AS BIGINT) AS key, CAST(left_id AS BIGINT) AS left_id,
       CAST(left_ts_us AS BIGINT) AS left_ts_us,
       CAST(right_id AS BIGINT) AS right_id,
       CAST(right_ts_us AS BIGINT) AS right_ts_us
FROM j WHERE rn = 1
"""


def q_range_join(sf_dir):
    """Point-in-interval join: events against two derived per-user promo
    windows ([first, first+30m) and [first+60m, first+90m)) — one tagged
    union + one hash exchange, vectorized sweep (ops/joins.py)."""
    from bitfunnel_ray.ops.joins import range_join

    ev = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id"])
    first = ev.groupby("user_id").min("ts")

    MIN30 = 30 * 60 * 1_000_000

    def to_windows(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False)
        t0 = t["min(ts)"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "user_id": pa.array(np.repeat(u, 2), pa.int64()),
                "start_us": pa.array(
                    np.column_stack([t0, t0 + 2 * MIN30]).ravel(), pa.int64()
                ),
                "end_us": pa.array(
                    np.column_stack([t0 + MIN30, t0 + 3 * MIN30]).ravel(), pa.int64()
                ),
                "iv_id": pa.array(
                    np.column_stack([np.zeros_like(u), np.ones_like(u)]).ravel(),
                    pa.int64(),
                ),
            }
        )

    iv = first.map_batches(to_windows, batch_format="pyarrow")
    out = range_join(ev, iv, key="user_id", ts="ts", id_col="event_id")
    return out.select_columns(["key", "left_id", "iv_id"])


SQL_RANGE_JOIN = """
WITH f AS (SELECT user_id, min(ts) AS t0 FROM events GROUP BY user_id),
iv AS (
  SELECT user_id, t0 AS s, t0 + INTERVAL 30 MINUTE AS e, 0 AS iv_id FROM f
  UNION ALL
  SELECT user_id, t0 + INTERVAL 60 MINUTE, t0 + INTERVAL 90 MINUTE, 1 FROM f
)
SELECT e.user_id AS key, e.event_id AS left_id, CAST(iv.iv_id AS BIGINT) AS iv_id
FROM events e JOIN iv ON e.user_id = iv.user_id AND e.ts >= iv.s AND e.ts < iv.e
"""


def q_group_zscore(sf_dir):
    """Per-source z-score of n_chars (within-group standardization) from
    exact integer (n, Σx, Σx²) sums — the metric-normalization pass used
    before cross-source quality thresholds."""
    from bitfunnel_ray.ops.grouped import group_zscore

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "n_chars"]
    )
    out = group_zscore(docs, group_col="source", value_col="n_chars")

    def cast_cols(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "source": t["source"],
                "n_chars": t["n_chars"].cast(pa.int64()),
                "zscore": t["zscore"],
            }
        )

    return out.map_batches(cast_cols, batch_format="pyarrow")


SQL_GROUP_ZSCORE = """
WITH st AS (
  SELECT source, count(*) AS n,
         CAST(sum(n_chars) AS BIGINT) AS s,
         CAST(sum(n_chars * n_chars) AS BIGINT) AS s2
  FROM documents GROUP BY source
)
SELECT d.doc_id, d.source, CAST(d.n_chars AS BIGINT) AS n_chars,
       CASE WHEN sqrt((s2 - s * s / n) / n) > 0
            THEN (d.n_chars - s / n) / sqrt((s2 - s * s / n) / n)
            ELSE 0.0 END AS zscore
FROM documents d JOIN st USING (source)
"""


def q_split_assign(sf_dir):
    """Deterministic 90/5/5 train/val/test routing by Knuth hash of
    doc_id (stages/filters.py::split_assign)."""
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    return filters.split_assign(docs)


SQL_SPLIT_ASSIGN = f"""
SELECT doc_id,
       CASE WHEN h < {int(0.9 * 4294967296)} THEN 'train'
            WHEN h < {int(0.95 * 4294967296)} THEN 'val'
            ELSE 'test' END AS split
FROM (SELECT doc_id, (doc_id * 2654435761) % 4294967296 AS h FROM documents)
"""


def q_region_rollup(sf_dir):
    """Customer account balances rolled up to region name — the
    broadcast-join pattern: the nation x region dims (30 rows) ship via
    ray.put once, customers join map-side, partials reduce through one
    tiny exchange (never a shuffle join of the big side)."""
    import pyarrow.parquet as _pq

    from bitfunnel_ray.ops.exchange import exchange
    from bitfunnel_ray.ops.joins import broadcast_dim_join

    nation = _pq.read_table(f"{sf_dir}/nation.parquet")
    region = _pq.read_table(f"{sf_dir}/region.parquet")
    dim = nation.join(region, keys="n_regionkey", right_keys="r_regionkey")
    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey", "c_acctbal"]
    )
    joined = broadcast_dim_join(
        cust, dim, big_key="c_nationkey", dim_key="n_nationkey", dim_cols=["r_name"]
    )

    def partial(t: pa.Table) -> pa.Table:
        # sum exact integer CENTS: float sums are accumulation-order-
        # dependent (partials here vs sequential in the oracle), so a
        # double sum can never be hash-compared — 2-dp money is exact
        # in int64 and order-independent
        df = t.select(["r_name", "c_acctbal"]).to_pandas()
        df["cents"] = np.round(df.pop("c_acctbal") * 100).astype("int64")
        g = df.groupby("r_name", as_index=False).agg(
            n_customers=("cents", "size"), sum_acctbal_cents=("cents", "sum")
        )
        g["n_customers"] = g["n_customers"].astype("int64")
        return pa.Table.from_pandas(g, preserve_index=False)

    def combine(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        g = df.groupby("r_name", as_index=False).agg(
            n_customers=("n_customers", "sum"),
            sum_acctbal_cents=("sum_acctbal_cents", "sum"),
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    return exchange(joined.map_batches(partial, batch_format="pyarrow"), ["r_name"], combine)


SQL_REGION_ROLLUP = """
SELECT r_name, CAST(count(*) AS BIGINT) AS n_customers,
       CAST(sum(CAST(round(c_acctbal * 100) AS BIGINT)) AS BIGINT)
         AS sum_acctbal_cents
FROM customer
JOIN nation ON c_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
GROUP BY r_name
"""


def q_doclen_percentiles(sf_dir):
    """Exact percentiles of document length (n_chars) via the distributed
    value-histogram (ops/quantiles.py) — domain-bounded exchange, no sort
    of the data."""
    from bitfunnel_ray.ops.quantiles import exact_percentiles

    return exact_percentiles(
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["n_chars"]), "n_chars"
    )


SQL_DOCLEN_PERCENTILES = """
SELECT CAST(0.25 AS DOUBLE) AS q, CAST(percentile_disc(0.25) WITHIN GROUP (ORDER BY n_chars) AS BIGINT) AS value FROM documents
UNION ALL
SELECT CAST(0.5 AS DOUBLE), CAST(percentile_disc(0.5) WITHIN GROUP (ORDER BY n_chars) AS BIGINT) FROM documents
UNION ALL
SELECT CAST(0.75 AS DOUBLE), CAST(percentile_disc(0.75) WITHIN GROUP (ORDER BY n_chars) AS BIGINT) FROM documents
UNION ALL
SELECT CAST(0.95 AS DOUBLE), CAST(percentile_disc(0.95) WITHIN GROUP (ORDER BY n_chars) AS BIGINT) FROM documents
UNION ALL
SELECT CAST(0.99 AS DOUBLE), CAST(percentile_disc(0.99) WITHIN GROUP (ORDER BY n_chars) AS BIGINT) FROM documents
"""


def q_grouped_percentiles(sf_dir):
    """Exact doc-length percentile_disc PER SOURCE: (group, value) count
    partials → one exchange on the group → percentiles read per block;
    the driver receives groups × quantiles rows only."""
    from bitfunnel_ray.ops.quantiles import grouped_percentiles

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "n_chars"]
    )
    return grouped_percentiles(docs, "n_chars", "source", (0.25, 0.5, 0.75, 0.95))


SQL_GROUPED_PERCENTILES = """
SELECT source, q, CAST(v AS BIGINT) AS value FROM (
  SELECT source, CAST(0.25 AS DOUBLE) AS q,
         percentile_disc(0.25) WITHIN GROUP (ORDER BY n_chars) AS v
  FROM documents GROUP BY source
  UNION ALL
  SELECT source, CAST(0.5 AS DOUBLE),
         percentile_disc(0.5) WITHIN GROUP (ORDER BY n_chars)
  FROM documents GROUP BY source
  UNION ALL
  SELECT source, CAST(0.75 AS DOUBLE),
         percentile_disc(0.75) WITHIN GROUP (ORDER BY n_chars)
  FROM documents GROUP BY source
  UNION ALL
  SELECT source, CAST(0.95 AS DOUBLE),
         percentile_disc(0.95) WITHIN GROUP (ORDER BY n_chars)
  FROM documents GROUP BY source
) ORDER BY source, q
"""


def q_customer_orders(sf_dir):
    """Per-market-segment order revenue via the engine's co-partitioned
    join (ops/joins.py ``inner_join_cp``, both sides big — the equi-join
    case where broadcast doesn't apply), then the map-side-partial +
    tiny-exchange aggregate."""
    from bitfunnel_ray.ops.exchange import exchange
    from bitfunnel_ray.ops.joins import inner_join_cp

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )
    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    ).rename_columns({"c_custkey": "o_custkey"})
    j = inner_join_cp(orders, cust, key="o_custkey")

    def partial(t: pa.Table) -> pa.Table:
        # integer-cents sum — see q_region_rollup for why double sums
        # can't be hash-compared across accumulation orders
        df = t.select(["c_mktsegment", "o_totalprice"]).to_pandas()
        df["cents"] = np.round(df.pop("o_totalprice") * 100).astype("int64")
        g = df.groupby("c_mktsegment", as_index=False).agg(
            n_orders=("cents", "size"), revenue_cents=("cents", "sum")
        )
        g["n_orders"] = g["n_orders"].astype("int64")
        return pa.Table.from_pandas(g, preserve_index=False)

    def combine(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        g = df.groupby("c_mktsegment", as_index=False).agg(
            n_orders=("n_orders", "sum"), revenue_cents=("revenue_cents", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    return exchange(j.map_batches(partial, batch_format="pyarrow"), ["c_mktsegment"], combine)


SQL_CUSTOMER_ORDERS = """
SELECT c_mktsegment, CAST(count(*) AS BIGINT) AS n_orders,
       CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
         AS revenue_cents
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY c_mktsegment
"""


def q_pricing_summary(sf_dir):
    """TPC-H Q1-style pricing summary over lineitem (the biggest table):
    shipdate row-filter at the read, map-side partial aggregation per
    block, one facet-cardinality exchange.  Money aggregates are exact
    scaled int64 — sum(ep·(1-disc)) as 1e-4 units, sum(ep·(1-disc)·
    (1+tax)) as 1e-6 units — so every column hash-compares bit-exactly
    (a float sum never can; see q_region_rollup)."""
    from bitfunnel_ray.ops.exchange import exchange

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_returnflag", "l_linestatus", "l_quantity",
            "l_extendedprice", "l_discount", "l_tax", "l_shipdate",
        ],
    )
    cutoff = np.datetime64("1998-09-02T00:00:00", "us")  # Q1's date - 90 days

    def partial(t: pa.Table) -> pa.Table:
        ship = t["l_shipdate"].to_numpy(zero_copy_only=False).astype("datetime64[us]")
        t = t.filter(pa.array(ship <= cutoff))
        if len(t) == 0:
            return pa.table(
                {
                    "l_returnflag": pa.array([], pa.string()),
                    "l_linestatus": pa.array([], pa.string()),
                    "sum_qty": pa.array([], pa.int64()),
                    "sum_base_cents": pa.array([], pa.int64()),
                    "sum_disc_e4": pa.array([], pa.int64()),
                    "sum_charge_e6": pa.array([], pa.int64()),
                    "n_rows": pa.array([], pa.int64()),
                }
            )
        df = t.select(["l_returnflag", "l_linestatus"]).to_pandas()
        ep = np.round(t["l_extendedprice"].to_numpy(zero_copy_only=False) * 100).astype("int64")
        disc = np.round(t["l_discount"].to_numpy(zero_copy_only=False) * 100).astype("int64")
        tax = np.round(t["l_tax"].to_numpy(zero_copy_only=False) * 100).astype("int64")
        df["sum_qty"] = np.round(t["l_quantity"].to_numpy(zero_copy_only=False)).astype("int64")
        df["sum_base_cents"] = ep
        df["sum_disc_e4"] = ep * (100 - disc)
        df["sum_charge_e6"] = ep * (100 - disc) * (100 + tax)
        df["n_rows"] = np.int64(1)
        g = df.groupby(["l_returnflag", "l_linestatus"], as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    def combine(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        g = df.groupby(["l_returnflag", "l_linestatus"], as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    return exchange(
        li.map_batches(partial, batch_format="pyarrow"), ["l_returnflag", "l_linestatus"], combine
    )


SQL_PRICING_SUMMARY = """
WITH f AS (
  SELECT l_returnflag, l_linestatus,
         CAST(round(l_quantity) AS BIGINT) AS qty,
         CAST(round(l_extendedprice * 100) AS BIGINT) AS ep_c,
         CAST(round(l_discount * 100) AS BIGINT) AS disc_h,
         CAST(round(l_tax * 100) AS BIGINT) AS tax_h
  FROM lineitem WHERE l_shipdate <= TIMESTAMP '1998-09-02 00:00:00'
)
SELECT l_returnflag, l_linestatus,
       CAST(sum(qty) AS BIGINT) AS sum_qty,
       CAST(sum(ep_c) AS BIGINT) AS sum_base_cents,
       CAST(sum(ep_c * (100 - disc_h)) AS BIGINT) AS sum_disc_e4,
       CAST(sum(ep_c * (100 - disc_h) * (100 + tax_h)) AS BIGINT) AS sum_charge_e6,
       CAST(count(*) AS BIGINT) AS n_rows
FROM f GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus
"""


def q_top_supplier_per_part(sf_dir):
    """Top supplier per part by total shipped quantity: lineitem partials
    exchange on partkey (co-locating every supplier of a part), one
    vectorized group+top-1 per block, then the part and supplier DIMS
    join map-side via broadcast (never a big-side shuffle)."""
    from bitfunnel_ray.ops.exchange import exchange
    from bitfunnel_ray.ops.joins import broadcast_dim_join

    def prep(t: pa.Table) -> pa.Table:
        qty = np.round(t["l_quantity"].to_numpy(zero_copy_only=False)).astype("int64")
        df = t.select(["l_partkey", "l_suppkey"]).to_pandas()
        df["qty"] = qty
        g = df.groupby(["l_partkey", "l_suppkey"], as_index=False).agg(
            qty=("qty", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_suppkey", "l_quantity"]
    ).map_batches(prep, batch_format="pyarrow")

    def top1(t: pa.Table) -> pa.Table:
        # all (part, supp) partials for a part are in this block
        df = t.to_pandas()
        g = df.groupby(["l_partkey", "l_suppkey"], as_index=False).agg(
            qty=("qty", "sum")
        )
        g = g.sort_values(
            ["l_partkey", "qty", "l_suppkey"], ascending=[True, False, True]
        ).groupby("l_partkey", as_index=False).head(1)
        return pa.Table.from_pandas(g, preserve_index=False)

    best = exchange(li, ["l_partkey"], top1)
    part = pq.read_table(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name"])
    supp = pq.read_table(f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"])
    j = broadcast_dim_join(
        best, part, big_key="l_partkey", dim_key="p_partkey", dim_cols=["p_name"]
    )
    j = broadcast_dim_join(
        j, supp, big_key="l_suppkey", dim_key="s_suppkey", dim_cols=["s_name"]
    )

    def rename(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "p_partkey": t["l_partkey"].cast(pa.int64()),
                "p_name": t["p_name"],
                "s_suppkey": t["l_suppkey"].cast(pa.int64()),
                "s_name": t["s_name"],
                "qty": t["qty"].cast(pa.int64()),
            }
        )

    return j.map_batches(rename, batch_format="pyarrow")


SQL_TOP_SUPPLIER_PER_PART = """
WITH ps AS (
  SELECT l_partkey, l_suppkey,
         CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS qty
  FROM lineitem GROUP BY l_partkey, l_suppkey
),
r AS (
  SELECT *, row_number() OVER (
    PARTITION BY l_partkey ORDER BY qty DESC, l_suppkey
  ) AS rk FROM ps
)
SELECT CAST(p_partkey AS BIGINT) AS p_partkey, p_name,
       CAST(s_suppkey AS BIGINT) AS s_suppkey, s_name, qty
FROM r JOIN part ON l_partkey = p_partkey
       JOIN supplier ON l_suppkey = s_suppkey
WHERE rk = 1 ORDER BY p_partkey
"""


def q_shipping_priority(sf_dir):
    """TPC-H Q3-style shipping priority: orders⋈customer on custkey
    (ops/joins.py ``inner_join_cp``), then ONE ``cogroup`` of lineitem
    with it on orderkey whose kernel joins, sums per-order revenue as
    exact 1e-4-scaled int64 and keeps a top-10, so only ≤ 10 rows per
    block reach the driver."""
    import ray

    from bitfunnel_ray.ops.exchange import cogroup
    from bitfunnel_ray.ops.joins import inner_join_cp

    cutoff = np.datetime64("1998-06-01T00:00:00", "us")
    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    ).map_batches(
        lambda t: pa.table(
            {"o_custkey": t["c_custkey"].cast(pa.int64())}
        ).filter(pa.array(t["c_mktsegment"].to_numpy(zero_copy_only=False) == "BUILDING")),
        batch_format="pyarrow",
    )

    def prep_orders(t: pa.Table) -> pa.Table:
        od = t["o_orderdate"].to_numpy(zero_copy_only=False).astype("datetime64[us]")
        t = t.filter(pa.array(od < cutoff))
        od_us = (
            t["o_orderdate"].to_numpy(zero_copy_only=False)
            .astype("datetime64[us]").view(np.int64)
        )
        return pa.table(
            {
                "o_orderkey": t["o_orderkey"].cast(pa.int64()),
                "o_custkey": t["o_custkey"].cast(pa.int64()),
                "o_orderdate_us": pa.array(od_us, pa.int64()),
            }
        )

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_orderdate"]
    ).map_batches(prep_orders, batch_format="pyarrow")

    def prep_li(t: pa.Table) -> pa.Table:
        ship = t["l_shipdate"].to_numpy(zero_copy_only=False).astype("datetime64[us]")
        t = t.filter(pa.array(ship > cutoff))
        ep = np.round(t["l_extendedprice"].to_numpy(zero_copy_only=False) * 100).astype("int64")
        disc = np.round(t["l_discount"].to_numpy(zero_copy_only=False) * 100).astype("int64")
        return pa.table(
            {
                "l_orderkey": t["l_orderkey"].cast(pa.int64()),
                "rev_e4": pa.array(ep * (100 - disc), pa.int64()),
            }
        )

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    ).map_batches(prep_li, batch_format="pyarrow")

    i64 = pa.int64()
    j1 = inner_join_cp(
        orders, cust, key="o_custkey",
        left_schema=pa.schema(
            [("o_orderkey", i64), ("o_custkey", i64), ("o_orderdate_us", i64)]
        ),
        right_schema=pa.schema([("o_custkey", i64)]),
    ).map_batches(
        lambda t: pa.table(
            {"l_orderkey": t["o_orderkey"], "o_orderdate_us": t["o_orderdate_us"]}
        ),
        batch_format="pyarrow",
    )

    def topk_block(li_t: pa.Table, o_t: pa.Table) -> pa.Table:
        # join, group and top-10 in one partition: groups are complete
        # here (cogroup on l_orderkey) → per-block top-10 partial by
        # (revenue desc, orderkey asc)
        df = li_t.join(o_t, "l_orderkey", join_type="inner").to_pandas()
        g = df.groupby(["l_orderkey", "o_orderdate_us"], as_index=False).agg(
            revenue_e4=("rev_e4", "sum")
        )
        g = g.sort_values(
            ["revenue_e4", "l_orderkey"], ascending=[False, True]
        ).head(10)
        return pa.Table.from_pandas(g, preserve_index=False)

    parts = cogroup(
        li, j1, ["l_orderkey"], topk_block,
        left_schema=pa.schema([("l_orderkey", i64), ("rev_e4", i64)]),
        right_schema=pa.schema([("l_orderkey", i64), ("o_orderdate_us", i64)]),
    )
    tables = [x for x in ray.get(parts.to_arrow_refs()) if len(x)]
    import pandas as _pd

    merged = _pd.concat([x.to_pandas() for x in tables]) if tables else _pd.DataFrame(
        columns=["l_orderkey", "o_orderdate_us", "revenue_e4"]
    )
    out = merged.sort_values(
        ["revenue_e4", "l_orderkey"], ascending=[False, True]
    ).head(10).reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


SQL_SHIPPING_PRIORITY = """
WITH li AS (
  SELECT l_orderkey,
         CAST(round(l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(round(l_discount * 100) AS BIGINT)) AS rev_e4
  FROM lineitem WHERE l_shipdate > TIMESTAMP '1998-06-01 00:00:00'
),
o AS (
  SELECT o_orderkey, o_orderdate
  FROM orders JOIN customer ON o_custkey = c_custkey
  WHERE c_mktsegment = 'BUILDING'
    AND o_orderdate < TIMESTAMP '1998-06-01 00:00:00'
),
g AS (
  SELECT l_orderkey, min(o_orderdate) AS o_orderdate,
         CAST(sum(rev_e4) AS BIGINT) AS revenue_e4
  FROM li JOIN o ON l_orderkey = o_orderkey GROUP BY l_orderkey
)
SELECT CAST(l_orderkey AS BIGINT) AS l_orderkey,
       CAST(epoch_us(o_orderdate) AS BIGINT) AS o_orderdate_us,
       revenue_e4
FROM g ORDER BY revenue_e4 DESC, l_orderkey LIMIT 10
"""


def q_connected_components(sf_dir):
    """Distributed connected components (ops/cc.py, alternating
    large-star/small-star) over a deterministic SQL-checkable edge set:
    (doc_id, doc_id+1) whenever the two docs share ``lang``.  Components
    are maximal consecutive same-lang runs — LONG chains, the worst case
    for label propagation and the case the star algorithm must close in
    O(log n) rounds.  Edge build is the engine's co-partitioned join
    (ops/joins.py, shifted key); output assigns EVERY doc (singletons =
    self)."""
    import pyarrow.compute as pc

    from bitfunnel_ray.ops.cc import connected_components
    from bitfunnel_ray.ops.joins import inner_join_cp, left_join_cp

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"])
    lang_t = docs.schema().base_schema.field("lang").type
    i64 = pa.int64()

    def shift(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_a": t["doc_id"].cast(pa.int64()),
                "lang_a": t["lang"],
                "nbr": pc.add(t["doc_id"].cast(pa.int64()), 1),
            }
        )

    def rhs(t: pa.Table) -> pa.Table:
        return pa.table(
            {"nbr": t["doc_id"].cast(pa.int64()), "lang_b": t["lang"]}
        )

    left = docs.map_batches(shift, batch_format="pyarrow")
    right = docs.map_batches(rhs, batch_format="pyarrow")
    edges = inner_join_cp(
        left, right, key="nbr",
        left_schema=pa.schema([("nbr", i64), ("doc_a", i64), ("lang_a", lang_t)]),
        right_schema=pa.schema([("nbr", i64), ("lang_b", lang_t)]),
    ).filter(expr="lang_a == lang_b")
    # the join materializes the matched key once, as "nbr" (== doc_b)
    assign = connected_components(edges, cols=("doc_a", "nbr"))

    def assign_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": t["node"], "component": t["component"]}
        )

    # every doc gets a row: docs not in any edge are their own component
    # (left-outer join against the assignment, null → self)
    full = left_join_cp(
        docs.map_batches(
            lambda t: pa.table({"doc_id": t["doc_id"].cast(pa.int64())}),
            batch_format="pyarrow",
        ),
        assign.map_batches(assign_rows, batch_format="pyarrow"),
        key="doc_id",
        left_schema=pa.schema([("doc_id", i64)]),
        right_schema=pa.schema([("doc_id", i64), ("component", i64)]),
    )

    def fill_self(t: pa.Table) -> pa.Table:
        comp = pc.coalesce(t["component"], t["doc_id"])
        return pa.table({"doc_id": t["doc_id"], "component": comp.cast(pa.int64())})

    return full.map_batches(fill_self, batch_format="pyarrow")


# gaps-and-islands: consecutive same-lang doc_ids share an island;
# component = the island's minimum doc_id (matches transitive closure of
# the (doc_id, doc_id+1, equal-lang) edge relation)
SQL_CONNECTED_COMPONENTS = """
WITH runs AS (
  SELECT doc_id, lang,
         doc_id - ROW_NUMBER() OVER (PARTITION BY lang ORDER BY doc_id) AS island
  FROM documents
)
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       CAST(MIN(doc_id) OVER (PARTITION BY lang, island) AS BIGINT) AS component
FROM runs
"""


def q_extract_text(sf_dir):
    """HTML → text extraction (stages/extract.py) over the canonical
    corpus; the oracle is the north-rule invariant itself — extracted
    text must be byte-identical to the reference ``text`` column per
    url/doc.  Map-only, zero exchanges."""
    from bitfunnel_ray.sources.corpus import corpus_from_documents
    from bitfunnel_ray.stages.extract import extract_text

    out = extract_text(corpus_from_documents(sf_dir), out_col="extracted")

    def proj(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "text": t["extracted"],
            }
        )

    return out.map_batches(proj, batch_format="pyarrow")


SQL_EXTRACT_TEXT = """
SELECT CAST(doc_id AS BIGINT) AS doc_id, COALESCE(text, '') AS text
FROM documents
"""


def q_dedup_canonical(sf_dir):
    """End-to-end near-dup REMOVAL: minhash pairs → transitive clusters
    (connected components) → corpus minus non-canonical members via the
    distributed anti-join.  Returns the surviving doc_ids (rows-only:
    minhash is not SQL-expressible; the transitivity semantics are
    pytest-proven in tests/test_cc.py)."""
    from bitfunnel_ray.ops.cc import dedup_canonical
    from bitfunnel_ray.ops.dedup import minhash_dedup_pairs
    from bitfunnel_ray.sources.corpus import corpus_from_documents

    corpus = corpus_from_documents(sf_dir)
    pairs = minhash_dedup_pairs(corpus, k=3, bands=16, threshold=0.7)
    kept = dedup_canonical(corpus.select_columns(["doc_id"]), pairs)
    out = kept.to_pandas().sort_values("doc_id").reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


def q_chunk_documents(sf_dir):
    """Overlapping 64-token / 32-stride chunks of each document — the
    embedding/retrieval prep op (ops/chunking.py; map-only, vectorized
    window take + one binary_join per block)."""
    from bitfunnel_ray.ops.chunking import chunk_documents

    return chunk_documents(
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]),
        window=64,
        stride=32,
    )


SQL_CHUNK_DOCUMENTS = """
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS a FROM documents),
c AS (
  SELECT doc_id, a, CAST(t.i AS BIGINT) AS chunk_idx
  FROM toks
  CROSS JOIN unnest(range(0,
      CAST(ceil(greatest(len(a) - 64, 0) / 32.0) AS BIGINT) + 1)) AS t(i)
)
SELECT CAST(doc_id AS BIGINT) AS doc_id, chunk_idx,
       CAST(least(64, len(a) - chunk_idx*32) AS BIGINT) AS n_tokens,
       array_to_string(a[chunk_idx*32 + 1 : chunk_idx*32 + 64], ' ') AS chunk_text
FROM c
"""


def q_duplicated_passages(sf_dir):
    """Boilerplate-passage detection: 64/32-window chunk texts shared by
    ≥ 2 distinct docs.  Exchange carries (hash, doc, occ) rows only;
    surviving hashes broadcast back to recover one text each."""
    from bitfunnel_ray.ops.chunking import duplicated_passages

    return duplicated_passages(
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]),
        window=64,
        stride=32,
        min_docs=2,
    )


SQL_DUPLICATED_PASSAGES = """
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS a FROM documents),
c AS (
  SELECT doc_id, a, CAST(t.i AS BIGINT) AS chunk_idx
  FROM toks CROSS JOIN unnest(range(0,
      CAST(ceil(greatest(len(a) - 64, 0) / 32.0) AS BIGINT) + 1)) AS t(i)
),
ch AS (
  SELECT doc_id,
         array_to_string(a[chunk_idx*32 + 1 : chunk_idx*32 + 64], ' ') AS chunk_text
  FROM c
)
SELECT chunk_text,
       CAST(count(DISTINCT doc_id) AS BIGINT) AS n_docs,
       CAST(count(*) AS BIGINT) AS n_occurrences
FROM ch GROUP BY chunk_text HAVING count(DISTINCT doc_id) >= 2
ORDER BY chunk_text
"""


def q_skipgram_pairs(sf_dir):
    """word2vec-style (center, context) skip-gram pairs within ±2 token
    positions — map-only, one shifted-slice comparison per offset."""
    from bitfunnel_ray.ops.chunking import skipgram_pairs

    return skipgram_pairs(
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]),
        window=2,
    )


SQL_SKIPGRAM_PAIRS = """
WITH t AS (SELECT doc_id, string_split(text, ' ') AS a FROM documents),
p AS (SELECT doc_id, a, CAST(s.i AS BIGINT) AS i
      FROM t CROSS JOIN unnest(range(1, len(a) + 1)) s(i)),
offs AS (SELECT CAST(x AS BIGINT) AS d FROM unnest([-2, -1, 1, 2]) u(x))
SELECT CAST(doc_id AS BIGINT) AS doc_id, i AS pos, d,
       a[i] AS center, a[i + d] AS context
FROM p CROSS JOIN offs
WHERE i + d >= 1 AND i + d <= len(a)
ORDER BY doc_id, pos, d
"""


def q_anti_join(sf_dir):
    """Drop documents from the two largest sources — the blocklist
    anti-join (ops/joins.py::anti_join): the blocklist (bounded by the
    source domain) broadcasts once via ray.put, rows filter map-side
    with np.isin; no exchange touches the big side."""
    from bitfunnel_ray.ops.joins import anti_join

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "source"])

    def counts(t: pa.Table) -> pa.Table:
        df = t.to_pandas().groupby("source", as_index=False).size()
        return pa.Table.from_pandas(df, preserve_index=False)

    hist = (
        docs.map_batches(counts, batch_format="pyarrow")
        .to_pandas()  # bounded by source cardinality, not rows
        .groupby("source", as_index=False)["size"].sum()
        .sort_values(["size", "source"], ascending=[False, True])
    )
    blocklist = hist["source"].head(2).to_numpy()
    return anti_join(docs, blocklist, key="source", broadcast=True)


SQL_ANTI_JOIN = """
WITH bl AS (SELECT source FROM documents
            GROUP BY source ORDER BY count(*) DESC, source LIMIT 2)
SELECT CAST(doc_id AS BIGINT) AS doc_id, source FROM documents
WHERE source NOT IN (SELECT source FROM bl)
"""


def q_pack_sequences(sf_dir):
    """Fixed-budget sequence packing over token counts (ops/packing.py)
    — next-fit-decreasing per block, one row per doc with its pack
    assignment.  No SQL oracle (greedy packing isn't SQL-expressible);
    invariants are pytest-covered."""
    from bitfunnel_ray.ops import textstats
    from bitfunnel_ray.ops.packing import pack_sequences

    return pack_sequences(textstats.token_count(corpus_from_documents(sf_dir)), budget=512)


def q_rolling_window(sf_dir):
    """Per-event trailing 60-minute (count, sum) of value for the same
    user — the moving-window feature op (ops/sessions.py::rolling_window;
    RANGE-frame semantics, oracle uses the equivalent window frame)."""
    from bitfunnel_ray.ops.sessions import rolling_window

    # value_scale=100: sum exact integer cents — float window sums are
    # accumulation-order-dependent and can't be hash-compared
    return rolling_window(
        rd.read_parquet(f"{sf_dir}/events.parquet"),
        window_minutes=60.0,
        value_scale=100,
    )


SQL_ROLLING_WINDOW = """
SELECT CAST(event_id AS BIGINT) AS event_id,
       CAST(user_id AS BIGINT) AS user_id,
       CAST(epoch_us(ts) AS BIGINT) AS ts_us,
       CAST(count(*) OVER w AS BIGINT) AS n_window,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) OVER w AS BIGINT) AS sum_window
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts
             RANGE BETWEEN INTERVAL 60 MINUTE PRECEDING AND CURRENT ROW)
"""


def q_top_per_source(sf_dir):
    """Top-3 documents per source by length — grouped top-k with the
    map-side-pruned exchange (ops/grouped.py: each block forwards <= k
    rows per group; the shuffle never carries the input)."""
    from bitfunnel_ray.ops.grouped import top_k_per_group

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "doc_id", "n_chars"]
    )
    return top_k_per_group(
        docs, group_col="source", order_col="n_chars", k=3,
        descending=True, tiebreak_col="doc_id",
    )


SQL_TOP_PER_SOURCE = """
SELECT source, CAST(doc_id AS BIGINT) AS doc_id, CAST(n_chars AS BIGINT) AS n_chars
FROM (SELECT source, doc_id, n_chars,
             row_number() OVER (PARTITION BY source
                                ORDER BY n_chars DESC, doc_id ASC) AS rn
      FROM documents) WHERE rn <= 3
"""


def q_stratified_sample(sf_dir):
    """Deterministic 20-docs-per-source sample (Knuth-hash order within
    each group) — the per-stratum sampler a training-data pipeline uses
    to balance sources; same two-level grouped-top-k shape."""
    from bitfunnel_ray.ops.grouped import stratified_sample

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["source", "doc_id"])
    return stratified_sample(docs, group_col="source", id_col="doc_id", n_per_group=20)


SQL_STRATIFIED_SAMPLE = """
SELECT source, CAST(doc_id AS BIGINT) AS doc_id
FROM (SELECT source, doc_id,
             row_number() OVER (PARTITION BY source
                 ORDER BY (doc_id * 2654435761) % 4294967296, doc_id) AS rn
      FROM documents) WHERE rn <= 20
"""


def q_simhash(sf_dir):
    return dedup.simhash(corpus_from_documents(sf_dir))


def q_embedding_dup_pairs(sf_dir):
    emb = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    return dedup.embedding_dup_pairs(emb, threshold=0.9)


def q_semdedup(sf_dir):
    """SemDeDup (Abbas et al. 2023): k-means the embeddings, greedy
    cosine prune per cluster (ops/semdedup.py).  Rows-only: the iterative
    Lloyd trainer isn't SQL-expressible; semantics are pytest-oracled on
    planted-duplicate fixtures (tests/test_semdedup.py)."""
    emb = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    from bitfunnel_ray.ops.semdedup import semdedup_table

    # fixture embeddings are well-spread (max pairwise cos 0.48), so the
    # demo threshold sits just under the in-cluster tail to yield rows
    return semdedup_table(emb, n_clusters=8, threshold=0.4)


def q_lang_id(sf_dir):
    """Two-stage language ID; on the (pure-ASCII) driver fixture the
    stopword-vote stage fully determines the output, so the oracle is the
    generated vote SQL (``textstats.lang_id_sql``) — argmax tie-break and
    the confidence division mirrored bit-exactly.  Script routing for
    non-ASCII text is pytest-covered."""
    return _i64_out(textstats.lang_id(corpus_from_documents(sf_dir)))


def q_fingerprint(sf_dir):
    return textstats.fingerprint(corpus_from_documents(sf_dir))


def q_ann_lsh_topk(sf_dir):
    emb = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    return ann.lsh_topk(emb, _ann_query_matrix(sf_dir), k=10)


def q_ann_ivf_topk(sf_dir):
    """IVF ANN: distributed spherical-k-means quantizer + nprobe search."""
    emb = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    return ann.ivf_topk(emb, _ann_query_matrix(sf_dir), k=10, n_clusters=8, nprobe=3)


def q_kll_quantiles(sf_dir):
    """KLL quantile sketch over n_chars (ops/kll.py) — the mergeable
    scale path beside the exact bounded-histogram percentiles; rank
    error measured < 1% at k=400 (pytest asserts the bound vs the exact
    sort — approximate by design, so no SQL hash oracle)."""
    from bitfunnel_ray.ops.kll import kll_quantiles

    return kll_quantiles(
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["n_chars"]),
        "n_chars",
        quantiles=(0.25, 0.5, 0.9, 0.99),
        k=400,
    )


def q_ann_pq_topk(sf_dir):
    """PQ ANN (ops/pq.py): 32-byte codes (8x compression of the raw
    float32 vectors), ADC scan over the codes dataset, exact-cosine
    refine of the top-50 candidates — the memory-compressed scale path
    of the ANN family."""
    from bitfunnel_ray.ops.pq import encode_pq, pq_topk, train_pq

    emb = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    books = train_pq(emb, m=32, ks=16, n_iter=6)
    codes = encode_pq(emb, books)
    return pq_topk(codes, books, _ann_query_matrix(sf_dir), k=10, refine=50, embeddings=emb)


def q_multimodal_features(sf_dir):
    from bitfunnel_ray.ops.multimodal import extract_features, html_to_media

    media = html_to_media(corpus_from_documents(sf_dir))
    feats = extract_features(media, backend="fake", dim=8)
    return feats.map_batches(
        lambda t: pa.table(
            {
                "media_id": t["media_id"].cast(pa.int64()),
                "f0": pc.list_element(t["features"].combine_chunks(), 0).cast(
                    pa.float32()
                ),
            }
        ),
        batch_format="pyarrow",
    )


def q_df_histogram(sf_dir):
    """Frequency-of-frequencies (the Zipf / Good-Turing diagnostic): how
    many vocabulary terms have each document frequency.  df-table
    exchange, then a vocab-sized groupby."""
    dft = document_frequency_table(
        corpus_from_documents(sf_dir), EngineConfig(max_gram=1), emit_text=False
    )

    def partial(t: pa.Table) -> pa.Table:
        v, c = np.unique(
            t["df"].to_numpy(zero_copy_only=False).astype(np.int64),
            return_counts=True,
        )
        return pa.table(
            {"df": pa.array(v, pa.int64()), "n_terms": pa.array(c.astype(np.int64))}
        )

    merged = dft.map_batches(partial, batch_format="pyarrow").to_pandas()
    g = merged.groupby("df", as_index=False).sum().sort_values("df")
    return pa.table(
        {
            "df": pa.array(g.df.to_numpy().astype(np.int64), pa.int64()),
            "n_terms": pa.array(g.n_terms.to_numpy().astype(np.int64), pa.int64()),
        }
    )


SQL_DF_HISTOGRAM = f"""
WITH toks AS ({_tokens_sql()}),
vocab AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks GROUP BY term)
SELECT CAST(df AS BIGINT) AS df, CAST(count(*) AS BIGINT) AS n_terms
FROM vocab GROUP BY df ORDER BY df
"""


def q_vocab_growth(sf_dir):
    """Cumulative distinct-term counts by first-appearance doc (the
    DocumentFrequencyTableBuilder cumulative-counts analog)."""
    from bitfunnel_ray.build.stats import vocabulary_growth

    return vocabulary_growth(corpus_from_documents(sf_dir), EngineConfig(max_gram=1))


SQL_VOCAB_GROWTH = f"""
WITH firsts AS (
  SELECT term, min(doc_id) AS first_doc FROM ({_tokens_sql()}) GROUP BY term
)
SELECT CAST(first_doc AS BIGINT) AS first_doc,
       CAST(count(*) AS BIGINT) AS new_terms,
       CAST(sum(count(*)) OVER (ORDER BY first_doc) AS BIGINT) AS cum_terms
FROM firsts GROUP BY first_doc ORDER BY first_doc
"""


def q_term_to_text(sf_dir):
    """Round-trip the TermToText sidecar (TermToText.cpp analog): write it
    from the corpus, load it, emit the unigram vocabulary it stores."""
    import pyarrow.compute as pc

    from bitfunnel_ray.build.stats import write_term_to_text

    tag = sf_dir.strip("/").replace("/", "_")
    path = f"/tmp/bfr_termtext/{tag}"
    if not os.path.exists(os.path.join(path, "_DONE")):
        import shutil

        shutil.rmtree(path, ignore_errors=True)
        write_term_to_text(corpus_from_documents(sf_dir), path, EngineConfig(max_gram=1))
        with open(os.path.join(path, "_DONE"), "w") as f:
            f.write("ok")
    t = pq.read_table(path, columns=["gram_size", "term"])
    terms = t.filter(pc.equal(t["gram_size"], 1))["term"]
    return pa.table({"term": terms.sort()})


SQL_TERM_TO_TEXT = f"""
SELECT DISTINCT term FROM ({_tokens_sql()}) ORDER BY term
"""


def q_verify_log(sf_dir):
    """Whole-log verification results (VerifyCommand CSV shape) — exact
    index, so every row must come back ok with fp = fn = 0."""
    from bitfunnel_ray.query.verify import verify_log

    eng = get_engine(sf_dir)
    return verify_log(
        corpus_from_documents(sf_dir),
        eng,
        ["table join", "merge | window", "table -join", '"batch batch"'],
    )


def q_pretrain_clean(sf_dir):
    """The end-to-end pretraining pipeline (clean → exact dedup → near
    dedup → budget → split) over the documents table; returns the written
    cleaned corpus.  Rows-only (minhash stage is not SQL-expressible);
    the stage semantics are each oracle-checked individually and the
    composition is pytest-verified with planted artifacts."""
    import tempfile

    from bitfunnel_ray.pipelines.pretrain import pretrain_pipeline

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    out_dir = tempfile.mkdtemp(prefix="bfr_pretrain_")
    pretrain_pipeline(docs, out_dir, budget_per_lang=10_000)
    return rd.read_parquet(out_dir).select_columns(["doc_id", "split"])


def q_analyze_bands(sf_dir):
    """IdfX10-banded storage stats of the built segment (RowTableAnalyzer
    analog) — runs over the same cached segment the search queries use."""
    from bitfunnel_ray.build.analyze import segment_band_stats

    eng = get_engine(sf_dir)  # ensures the segment is built
    # analyze the SAME directory get_engine built (the cache dir is
    # versioned — a hardcoded path here broke when docmeta went v2)
    return segment_band_stats(eng.segments[0].dir)


def q_local_supplier_volume(sf_dir):
    """TPC-H Q5-style local supplier volume: revenue per nation for 1996
    orders where customer and supplier share an ASIA nation.

    Shape: nation/region resolve driver-side (tiny dims); supplier →
    nationkey is a broadcast searchsorted lookup inside the lineitem scan
    (supplier is the classic small side — 10k rows/SF vs 6M lineitem);
    orders⋈customer and lineitem⋈(that) are co-partitioned joins
    (ops/joins.py ``inner_join_cp``); the final
    per-nation rollup needs no exchange at all — every block bincounts
    into ≤ 25 nation slots and the driver sums the tiny partials."""
    import ray

    from bitfunnel_ray.ops.joins import inner_join_cp

    nat = pq.read_table(f"{sf_dir}/nation.parquet")
    reg = pq.read_table(f"{sf_dir}/region.parquet")
    asia_keys = reg.filter(pc.equal(reg["r_name"], "ASIA"))["r_regionkey"]
    nat = nat.filter(pc.is_in(nat["n_regionkey"], value_set=asia_keys.combine_chunks()))
    nation_keys = nat["n_nationkey"].to_numpy().astype(np.int64)
    nation_names = {int(k): v for k, v in zip(nation_keys, nat["n_name"].to_pylist())}

    sup = pq.read_table(f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"])
    s_key = sup["s_suppkey"].to_numpy().astype(np.int64)
    s_nat = sup["s_nationkey"].to_numpy().astype(np.int64)
    in_asia = np.isin(s_nat, nation_keys)
    order_s = np.argsort(s_key[in_asia])
    sup_ref = ray.put((s_key[in_asia][order_s], s_nat[in_asia][order_s]))
    nat_ref = ray.put(np.sort(nation_keys))

    lo = np.datetime64("1996-01-01T00:00:00", "us")
    hi = np.datetime64("1997-01-01T00:00:00", "us")

    def prep_orders(t: pa.Table) -> pa.Table:
        od = t["o_orderdate"].to_numpy(zero_copy_only=False).astype("datetime64[us]")
        t = t.filter(pa.array((od >= lo) & (od < hi)))
        return pa.table(
            {
                "o_orderkey": t["o_orderkey"].cast(pa.int64()),
                "o_custkey": t["o_custkey"].cast(pa.int64()),
            }
        )

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_orderdate"]
    ).map_batches(prep_orders, batch_format="pyarrow")

    def prep_cust(t: pa.Table) -> pa.Table:
        allowed = ray.get(nat_ref)
        ck = t["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        nk = t["c_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = np.isin(nk, allowed)
        return pa.table(
            {
                "o_custkey": pa.array(ck[keep], pa.int64()),
                "c_nationkey": pa.array(nk[keep], pa.int64()),
            }
        )

    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).map_batches(prep_cust, batch_format="pyarrow")

    def prep_li(t: pa.Table) -> pa.Table:
        sk_sorted, snat_sorted = ray.get(sup_ref)
        lk = t["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        sk = t["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(sk_sorted, sk)
        pos_c = np.minimum(pos, max(len(sk_sorted) - 1, 0))
        match = (
            (sk_sorted[pos_c] == sk) if len(sk_sorted) else np.zeros(len(sk), bool)
        )
        ep = np.round(t["l_extendedprice"].to_numpy(zero_copy_only=False) * 100).astype(
            "int64"
        )
        disc = np.round(t["l_discount"].to_numpy(zero_copy_only=False) * 100).astype(
            "int64"
        )
        rev = ep * (100 - disc)
        return pa.table(
            {
                "l_orderkey": pa.array(lk[match], pa.int64()),
                "s_nationkey": pa.array(snat_sorted[pos_c[match]], pa.int64()),
                "rev_e4": pa.array(rev[match], pa.int64()),
            }
        )

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).map_batches(prep_li, batch_format="pyarrow")

    i64 = pa.int64()
    j1 = inner_join_cp(
        orders, cust, key="o_custkey",
        left_schema=pa.schema([("o_custkey", i64), ("o_orderkey", i64)]),
        right_schema=pa.schema([("o_custkey", i64), ("c_nationkey", i64)]),
    ).map_batches(
        lambda t: pa.table({"l_orderkey": t["o_orderkey"], "c_nationkey": t["c_nationkey"]}),
        batch_format="pyarrow",
    )
    j2 = inner_join_cp(
        li, j1, key="l_orderkey",
        left_schema=pa.schema([("l_orderkey", i64), ("s_nationkey", i64), ("rev_e4", i64)]),
        right_schema=pa.schema([("l_orderkey", i64), ("c_nationkey", i64)]),
    )

    def nation_partial(t: pa.Table) -> pa.Table:
        sn = t["s_nationkey"].to_numpy(zero_copy_only=False)
        cn = t["c_nationkey"].to_numpy(zero_copy_only=False)
        rev = t["rev_e4"].to_numpy(zero_copy_only=False)
        keep = sn == cn
        if not keep.any():
            return pa.table(
                {"nationkey": pa.array([], pa.int64()), "rev": pa.array([], pa.int64())}
            )
        sn, rev = sn[keep], rev[keep]
        keys = np.unique(sn)
        sums = np.zeros(len(keys), dtype=np.int64)
        np.add.at(sums, np.searchsorted(keys, sn), rev)
        return pa.table({"nationkey": pa.array(keys), "rev": pa.array(sums)})

    parts = j2.map_batches(nation_partial, batch_format="pyarrow", batch_size=None)
    tables = [x for x in ray.get(parts.to_arrow_refs()) if len(x)]
    agg: dict[int, int] = {}
    for x in tables:
        for k, v in zip(x["nationkey"].to_pylist(), x["rev"].to_pylist()):
            agg[k] = agg.get(k, 0) + v
    rows = sorted(agg.items(), key=lambda kv: (-kv[1], nation_names[kv[0]]))
    return pa.table(
        {
            "n_name": pa.array([nation_names[k] for k, _ in rows], pa.string()),
            "revenue_e4": pa.array([v for _, v in rows], pa.int64()),
        }
    )


SQL_LOCAL_SUPPLIER_VOLUME = """
WITH li AS (
  SELECT l_orderkey, l_suppkey,
         CAST(round(l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(round(l_discount * 100) AS BIGINT)) AS rev_e4
  FROM lineitem
)
SELECT n_name, CAST(sum(rev_e4) AS BIGINT) AS revenue_e4
FROM customer, orders, li, supplier, nation, region
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
  AND r_name = 'ASIA'
  AND o_orderdate >= TIMESTAMP '1996-01-01 00:00:00'
  AND o_orderdate <  TIMESTAMP '1997-01-01 00:00:00'
GROUP BY n_name ORDER BY revenue_e4 DESC, n_name
"""


def q_top_bigrams(sf_dir):
    """Corpus-wide top-100 bigram frequency table (Google-n-grams-style
    LM statistic; the collection-frequency analog of the reference's df
    pass, src/Index/src/DocumentFrequencyTableBuilder.cpp:33-58): block
    partial counts → one hash exchange → tie-aware map-side top-k."""
    from bitfunnel_ray.ops.ngrams import top_ngrams

    return top_ngrams(corpus_from_documents(sf_dir), n=2, k=100)


def q_significant_terms(sf_dir):
    """Elasticsearch significant_terms analog (JLH score): terms
    over-represented in documents containing 'spark' vs the whole corpus.
    One corpus pass (per-block df partials + sentinel totals row), one
    hash exchange, map-side tie-aware top-k."""
    from bitfunnel_ray.ops.keywords import significant_terms

    t = significant_terms(
        corpus_from_documents(sf_dir), fg_term="spark", min_fg_df=3, k=25
    )
    return pa.table(
        {
            "term": t["term"],
            "fg_df": t["fg_df"].cast(pa.int64()),
            "df": t["df"].cast(pa.int64()),
            "score": pa.array(np.round(t["score"].to_numpy(), 6), pa.float64()),
        }
    )


SQL_SIGNIFICANT_TERMS = """
WITH docs AS (SELECT doc_id, string_split(text, ' ') AS a FROM documents),
fg AS (SELECT doc_id FROM docs WHERE list_contains(a, 'spark')),
u AS (SELECT DISTINCT doc_id, unnest(a) AS term FROM docs),
tot AS (SELECT CAST((SELECT count(*) FROM docs) AS DOUBLE) AS bg_n,
               CAST((SELECT count(*) FROM fg) AS DOUBLE) AS fg_n),
stats AS (
  SELECT term, CAST(count(*) AS BIGINT) AS df,
         CAST(count(*) FILTER (WHERE doc_id IN (SELECT doc_id FROM fg)) AS BIGINT) AS fg_df
  FROM u GROUP BY term
),
scored AS (
  SELECT term, fg_df, df,
         ((CAST(fg_df AS DOUBLE) / tot.fg_n) - (CAST(df AS DOUBLE) / tot.bg_n))
           * ((CAST(fg_df AS DOUBLE) / tot.fg_n) / (CAST(df AS DOUBLE) / tot.bg_n)) AS score
  FROM stats, tot
  WHERE fg_df >= 3
    AND (CAST(fg_df AS DOUBLE) / tot.fg_n) > (CAST(df AS DOUBLE) / tot.bg_n)
)
SELECT term, fg_df, df, round(score, 6) AS score
FROM scored ORDER BY score DESC, term LIMIT 25
"""


def q_pmi_collocations(sf_dir):
    """Top-100 collocations by PMI (Church & Hanks 1990) with min_count=5
    support: bigram/unigram count tables joined by two repartition joins
    (no vocabulary broadcast), N1/N2 from one map-only scan, fixed float
    expression order mirrored in the oracle."""
    from bitfunnel_ray.ops.ngrams import pmi_collocations

    t = pmi_collocations(corpus_from_documents(sf_dir), min_count=5, k=100)
    return pa.table(
        {
            "gram": t["gram"],
            "pair_count": t["pair_count"].cast(pa.int64()),
            "pmi": pa.array(np.round(t["pmi"].to_numpy(), 6), pa.float64()),
        }
    )


SQL_PMI_COLLOCATIONS = """
WITH toks AS (SELECT doc_id, unnest(string_split(text, ' ')) AS term FROM documents),
n1 AS (SELECT CAST(count(*) AS DOUBLE) AS v FROM toks),
pairs AS (
  SELECT p[1] AS l, p[2] AS r, p[1] || ' ' || p[2] AS gram
  FROM (SELECT unnest(list_zip(string_split(text,' ')[1:-2],
                               string_split(text,' ')[2:])) AS p
        FROM documents)
),
n2 AS (SELECT CAST(count(*) AS DOUBLE) AS v FROM pairs),
uni AS (SELECT term, count(*) AS c FROM toks GROUP BY term),
big AS (SELECT gram, l, r, count(*) AS c FROM pairs
        GROUP BY gram, l, r HAVING count(*) >= 5),
scored AS (
  SELECT big.gram, big.c AS pair_count,
         ln((CAST(big.c AS DOUBLE) / n2.v)
            / ((CAST(ul.c AS DOUBLE) / n1.v) * (CAST(ur.c AS DOUBLE) / n1.v))) AS pmi
  FROM big JOIN uni ul ON ul.term = big.l
           JOIN uni ur ON ur.term = big.r, n1, n2
)
SELECT gram, CAST(pair_count AS BIGINT) AS pair_count, round(pmi, 6) AS pmi
FROM scored ORDER BY pmi DESC, gram LIMIT 100
"""


SQL_TOP_BIGRAMS = """
WITH pairs AS (
  SELECT p[1] || ' ' || p[2] AS gram
  FROM (SELECT unnest(list_zip(string_split(text,' ')[1:-2],
                               string_split(text,' ')[2:])) AS p
        FROM documents)
)
SELECT gram, CAST(count(*) AS BIGINT) AS "count" FROM pairs
GROUP BY gram ORDER BY "count" DESC, gram LIMIT 100
"""


def q_term_vectors(sf_dir):
    """Forward-index export (_termvectors analog): (doc_id, term, tf,
    first 0-based position) for doc_id < 20 — map-only, one np.unique
    over packed (doc, term-code) pairs per block."""
    from bitfunnel_ray.ops.scan import term_vectors

    return term_vectors(
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]),
        lambda ids: ids < 20,
    )


SQL_TERM_VECTORS = """
WITH docs AS (SELECT doc_id, string_split(text, ' ') AS a FROM documents
              WHERE doc_id < 20),
toks AS (SELECT doc_id, unnest(a) AS term FROM docs),
tf AS (SELECT doc_id, term, CAST(count(*) AS BIGINT) AS tf FROM toks
       WHERE term <> '' GROUP BY doc_id, term)
SELECT tf.doc_id, tf.term, tf.tf,
       CAST(list_indexof(docs.a, tf.term) - 1 AS BIGINT) AS first_pos
FROM tf JOIN docs USING (doc_id)
ORDER BY doc_id, term
"""


def q_substring_scan(sf_dir):
    """Distributed grep: documents containing the literal 'spark' with
    per-doc occurrence counts (map-only, no shuffle)."""
    from bitfunnel_ray.ops.scan import substring_scan

    return substring_scan(
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]),
        "spark",
    )


SQL_SUBSTRING_SCAN = """
SELECT doc_id,
       CAST((length(text) - length(replace(text, 'spark', ''))) // 5 AS BIGINT)
         AS n_hits
FROM documents WHERE text LIKE '%spark%'
"""


def q_regex_scan(sf_dir):
    """Distributed regex grep: per-doc non-overlapping RE2 match counts of
    's[a-z]+' (pyarrow and DuckDB both bind RE2, so counts are identical
    by construction)."""
    from bitfunnel_ray.ops.scan import regex_scan

    return regex_scan(
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]),
        "s[a-z]+",
    )


SQL_REGEX_SCAN = """
SELECT doc_id, CAST(len(regexp_extract_all(text, 's[a-z]+')) AS BIGINT) AS n_hits
FROM documents WHERE len(regexp_extract_all(text, 's[a-z]+')) > 0
"""


def q_embedding_exact_dups(sf_dir):
    """EXACT cosine-threshold near-duplicate self-join over the embeddings
    table — the distributed block-nested-loop (one task per row-group
    pair, LRU block cache per actor; ops/ann.py).  Threshold 0.42 sits in
    a measured gap of the fixture's cosine distribution (nearest pair at
    0.4227), so 5-dp rounding differences vs the oracle cannot flip
    membership."""
    from bitfunnel_ray.ops.ann import exact_dup_pairs

    return exact_dup_pairs(f"{sf_dir}/embeddings.parquet", threshold=0.42)


SQL_EMBEDDING_EXACT_DUPS = """
WITH s AS (
  SELECT a.vec_id AS id_a, b.vec_id AS id_b,
         round(CAST(list_cosine_similarity(a.embedding, b.embedding) AS DOUBLE), 5)
           AS cosine
  FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
)
SELECT id_a, id_b, cosine FROM s WHERE cosine >= 0.42
"""


def q_proximity_search(sf_dir):
    """NEAR/5 proximity query (spark within 5 tokens of join) — the
    position-aware scan the presence-only reference index cannot express
    (Document.cpp:105-181 keeps unordered postings); map-only, gap via
    one searchsorted per block."""
    from bitfunnel_ray.ops.proximity import proximity_search

    return proximity_search(
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]),
        "spark",
        "join",
        window=5,
    )


SQL_PROXIMITY_SEARCH = """
WITH toks AS (SELECT doc_id, string_split(text,' ') AS l FROM documents),
occ_a AS (SELECT doc_id,
                 unnest([i for i in range(1, len(l)+1) if l[i] = 'spark']) AS i
          FROM toks),
occ_b AS (SELECT doc_id,
                 unnest([i for i in range(1, len(l)+1) if l[i] = 'join']) AS i
          FROM toks)
SELECT occ_a.doc_id, CAST(min(abs(occ_a.i - occ_b.i)) AS BIGINT) AS min_gap
FROM occ_a JOIN occ_b ON occ_a.doc_id = occ_b.doc_id
GROUP BY occ_a.doc_id HAVING min(abs(occ_a.i - occ_b.i)) <= 5
"""


def q_wildcard_search(sf_dir):
    """Wildcard query '*n' (every term ending in n): expand the pattern
    against the vocabulary (streamed df-table scan, vectorized suffix
    test), then evaluate the expansion as one indexed OR — the classic
    two-step wildcard plan (pattern → dictionary → posting union)."""
    dft = document_frequency_table(
        corpus_from_documents(sf_dir), EngineConfig(max_gram=1)
    )

    def pick(t: pa.Table) -> pa.Table:
        return t.select(["term"]).filter(pc.ends_with(t["term"], "n"))

    terms = sorted(set(dft.map_batches(pick, batch_format="pyarrow").to_pandas()["term"]))
    if not terms:
        return pa.table({"doc_id": pa.array([], pa.int64())})
    return _search_docs(sf_dir, " | ".join(terms))


SQL_WILDCARD_SEARCH = f"""
WITH toks AS ({_tokens_sql()})
SELECT DISTINCT doc_id FROM toks WHERE term LIKE '%n'
"""


def q_regexp_search(sf_dir):
    """Regexp term query (the Lucene/ES regexp-query plan): the pattern
    expands against the vocabulary — a streamed df-table scan with ONE
    RE2 kernel call per block (pyarrow and DuckDB both bind RE2, so op
    and oracle agree by construction) — and the expansion evaluates as
    one indexed OR union, exactly like the wildcard plan."""
    dft = document_frequency_table(
        corpus_from_documents(sf_dir), EngineConfig(max_gram=1)
    )

    def pick(t: pa.Table) -> pa.Table:
        return t.select(["term"]).filter(
            pc.match_substring_regex(t["term"], r"^s.*(k|t)$")
        )

    terms = sorted(set(dft.map_batches(pick, batch_format="pyarrow").to_pandas()["term"]))
    if not terms:
        return pa.table({"doc_id": pa.array([], pa.int64())})
    return _search_docs(sf_dir, " | ".join(terms))


SQL_REGEXP_SEARCH = f"""
WITH toks AS ({_tokens_sql()})
SELECT DISTINCT doc_id FROM toks WHERE regexp_matches(term, '^s.*(k|t)$')
"""


def q_fuzzy_search(sf_dir):
    """Fuzzy query operator 'rowt~2 quary~1' (Lucene FuzzyQuery contract):
    each ~d term expands against the index vocabulary at exact edit
    distance <= d (query/fuzzy.py vectorized DP matcher; rowt~2 ->
    {row, sort}, quary~1 -> {query} on this corpus) and the expansion
    evaluates as an ordinary OR group — matching is AND of the groups,
    scoring sums the BM25 contributions of whichever members a document
    contains (per-member df, as with synonym expansion)."""
    eng = get_engine(sf_dir)
    if eng.fuzzy_matcher is None:
        dft = document_frequency_table(
            corpus_from_documents(sf_dir), EngineConfig(max_gram=1)
        )
        eng.set_fuzzy_vocabulary(
            dft.select_columns(["term"]).to_pandas()["term"].tolist()
        )
    t = eng.search("rowt~2 quary~1", k=10)
    return pa.table(
        {
            "rank": t["rank"].cast(pa.int64()),
            "doc_id": t["doc_id"].cast(pa.int64()),
            "score": pa.array(np.round(t["score"].to_numpy(), 6), pa.float64()),
        }
    )


SQL_FUZZY_SEARCH = f"""
WITH toks AS ({_tokens_sql()}),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
st AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM dl),
g1 AS (SELECT DISTINCT term FROM toks WHERE levenshtein(term, 'rowt') <= 2),
g2 AS (SELECT DISTINCT term FROM toks WHERE levenshtein(term, 'quary') <= 1),
qt AS (SELECT term FROM g1 UNION SELECT term FROM g2),
tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
       WHERE term IN (SELECT term FROM qt) GROUP BY doc_id, term),
df AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks
       WHERE term IN (SELECT term FROM qt) GROUP BY term),
matches AS (
  SELECT d.doc_id FROM dl d
  WHERE EXISTS (SELECT 1 FROM tf t JOIN g1 USING (term) WHERE t.doc_id = d.doc_id)
    AND EXISTS (SELECT 1 FROM tf t JOIN g2 USING (term) WHERE t.doc_id = d.doc_id)
),
contrib AS (
  SELECT t.doc_id,
         ln((st.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
           * 2.2 * t.tf / (t.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / st.avgdl)) AS c
  FROM tf t JOIN df USING (term) JOIN dl USING (doc_id), st
  WHERE t.doc_id IN (SELECT doc_id FROM matches)
),
scores AS (SELECT doc_id, sum(c) AS score FROM contrib GROUP BY doc_id)
SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id) AS BIGINT) AS rank,
       doc_id, round(score, 6) AS score
FROM scores ORDER BY score DESC, doc_id LIMIT 10
"""


def _variant_urls_batch(t: pa.Table) -> pa.Table:
    """Deterministic messy-URL fixture: five per-row variants (www+utm
    query, uppercase scheme+host, trailing slash, :443+fragment, clean)
    that all canonicalize to the same base; bases pair up via doc_id//2
    so canonical dedup halves the table."""
    ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    urls = []
    for i in ids.tolist():
        base = f"example.org/page/{i // 2:06d}"
        v = i % 5
        if v == 0:
            urls.append(f"https://www.{base}?utm_source=feed")
        elif v == 1:
            urls.append(f"HTTPS://{base.upper().split('/')[0]}/page/{i // 2:06d}")
        elif v == 2:
            urls.append(f"https://{base}/")
        elif v == 3:
            urls.append(f"https://example.org:443/page/{i // 2:06d}#frag")
        else:
            urls.append(f"https://{base}")
    return pa.table({"doc_id": pa.array(ids, pa.int64()), "url": pa.array(urls)})


_SQL_VARIANT_URLS = """
SELECT doc_id,
  CASE doc_id % 5
    WHEN 0 THEN 'https://www.example.org/page/' || printf('%06d', doc_id // 2) || '?utm_source=feed'
    WHEN 1 THEN 'HTTPS://EXAMPLE.ORG/page/' || printf('%06d', doc_id // 2)
    WHEN 2 THEN 'https://example.org/page/' || printf('%06d', doc_id // 2) || '/'
    WHEN 3 THEN 'https://example.org:443/page/' || printf('%06d', doc_id // 2) || '#frag'
    ELSE 'https://example.org/page/' || printf('%06d', doc_id // 2)
  END AS url
FROM documents
"""


def q_diversified_topk(sf_dir):
    """SERP host collapsing: BM25 matches capped at 2 results per host
    (fixture convention h<doc%4>.example.org) before the global top-10 —
    the diversity rule every production result page applies.  The
    collapse runs over the scored match list (vectorized numpy; the
    match set is driver-small after scoring, as in a real serving tier)."""
    eng = get_engine(sf_dir)
    t = eng.search(" ".join(_BM25_TERMS), k=1_000_000)
    doc = t["doc_id"].to_numpy().astype(np.int64)
    score = np.round(t["score"].to_numpy(), 6)
    order = np.lexsort((doc, -score))
    doc, score = doc[order], score[order]
    host = doc % 4
    # nth occurrence of each host in score order
    occ = np.zeros(len(doc), np.int64)
    counts = np.zeros(4, np.int64)
    for i, h in enumerate(host):  # match list is driver-small (serving tier)
        occ[i] = counts[h]
        counts[h] += 1
    keep = occ < 2
    doc, score, host = doc[keep][:10], score[keep][:10], host[keep][:10]
    digits = np.array([str(d) for d in range(10)])
    return pa.table(
        {
            "rank": pa.array(np.arange(1, len(doc) + 1), pa.int64()),
            "doc_id": pa.array(doc, pa.int64()),
            "host": pc.binary_join_element_wise(
                "h", pa.array(digits[host]), ".example.org", ""
            ),
            "score": pa.array(score, pa.float64()),
        }
    )


SQL_DIVERSIFIED_TOPK = f"""
WITH toks AS ({_tokens_sql()}),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
st AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM dl),
tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
       WHERE term IN ('spark','join') GROUP BY doc_id, term),
df AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks
       WHERE term IN ('spark','join') GROUP BY term),
matches AS (SELECT doc_id FROM tf GROUP BY doc_id HAVING count(DISTINCT term) = 2),
contrib AS (
  SELECT t.doc_id,
         ln((st.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
           * 2.2 * t.tf / (t.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / st.avgdl)) AS c
  FROM tf t JOIN df USING (term) JOIN dl USING (doc_id), st
  WHERE t.doc_id IN (SELECT doc_id FROM matches)
),
scores AS (SELECT doc_id, sum(c) AS score FROM contrib GROUP BY doc_id),
sel AS (SELECT doc_id, round(score, 6) AS score,
               'h' || CAST(doc_id % 4 AS VARCHAR) || '.example.org' AS host
        FROM scores),
div AS (SELECT *, row_number() OVER (PARTITION BY host ORDER BY score DESC, doc_id) AS rn
        FROM sel)
SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id) AS BIGINT) AS rank,
       doc_id, host, score
FROM div WHERE rn <= 2 ORDER BY score DESC, doc_id LIMIT 10
"""


def q_robots_filter(sf_dir):
    """robots.txt-style Disallow filtering over the messy-URL fixture:
    drop every URL under the www. host alias and the :443 explicit-port
    form (two Disallow prefixes) — anchored RE2 alternation compiled
    once, map-only (ops/urls.py filter_url_prefixes)."""
    from bitfunnel_ray.ops.urls import filter_url_prefixes

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    ).map_batches(_variant_urls_batch, batch_format="pyarrow")
    return filter_url_prefixes(
        ds, "url", ("https://www.example.org/", "https://example.org:443/")
    )


SQL_ROBOTS_FILTER = f"""
WITH u AS ({_SQL_VARIANT_URLS})
SELECT doc_id, url FROM u
WHERE NOT (url LIKE 'https://www.example.org/%'
        OR url LIKE 'https://example.org:443/%')
"""


def q_url_canonicalize(sf_dir):
    """URL canonicalization (fragment/query strip, scheme+host lowercase,
    default-port and www. drop, trailing-slash strip) over a planted
    messy-URL fixture — RE2 kernels; the oracle expression is generated
    from the same recipe constants (ops/urls.py)."""
    from bitfunnel_ray.ops.urls import canonicalize_urls

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    ).map_batches(_variant_urls_batch, batch_format="pyarrow")
    return canonicalize_urls(ds).select_columns(["doc_id", "canon_url"])


def _sql_url_canonicalize() -> str:
    from bitfunnel_ray.ops.urls import canonical_sql

    return (
        f"WITH u AS ({_SQL_VARIANT_URLS}) "
        f"SELECT doc_id, {canonical_sql('u.url')} AS canon_url FROM u"
    )


def q_url_dedup(sf_dir):
    """URL-level dedup: keep the min doc_id per canonical URL — one hash
    exchange on the canonical string, vectorized min-by-group per
    co-located block."""
    from bitfunnel_ray.ops.urls import url_dedup

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    ).map_batches(_variant_urls_batch, batch_format="pyarrow")
    return url_dedup(ds)


def _sql_url_dedup() -> str:
    from bitfunnel_ray.ops.urls import canonical_sql

    return (
        f"WITH u AS ({_SQL_VARIANT_URLS}) "
        f"SELECT {canonical_sql('u.url')} AS canon_url, "
        f"CAST(min(doc_id) AS BIGINT) AS doc_id FROM u GROUP BY 1"
    )


def q_heavy_hitters(sf_dir):
    """No-exchange approximate top-k tokens (mergeable Misra-Gries block
    summaries — ≤ k+1 fixed-width rows per block move, nothing shuffles).
    Approximate by design (counts are lower bounds within a reported
    error) → rows-only; the MG guarantee (presence of every token with
    true count > err, bounded undercount) is pytest-verified against
    exact counts."""
    from bitfunnel_ray.ops.sketch import heavy_hitters

    tbl, _err = heavy_hitters(corpus_from_documents(sf_dir), k=32)
    return tbl


def q_chunk_roundtrip(sf_dir):
    """Reference chunk-file interchange (grammar per
    src/Chunks/src/ChunkReader.cpp:42-100): write the documents table out
    as NUL-delimited chunk files, read it back through the chunk parser,
    and return (doc_id, text) — the oracle is the original table, so the
    round trip must be byte-identical."""
    import tempfile

    from bitfunnel_ray.sources.chunks import corpus_from_chunks, write_chunks

    out_dir = tempfile.mkdtemp(prefix="bfr_chunks_")
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    write_chunks(docs, out_dir)
    import glob

    back = corpus_from_chunks(sorted(glob.glob(os.path.join(out_dir, "*.chunk"))))

    def to_out(t: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": t["doc_id"].cast(pa.int64()), "text": t["text"]}
        )

    return back.map_batches(to_out, batch_format="pyarrow")


SQL_CHUNK_ROUNDTRIP = "SELECT doc_id, text FROM documents"


def q_range_query_syntax(sf_dir):
    """First-class range queries in the boolean language (Lucene
    ``col:[lo TO hi]``, bounds inclusive): the Range AST node evaluates
    against the warc_ts_s doc-values fast field and composes with terms
    through the ordinary AND — scoring ignores it (a filter, like
    facts).  Fixture warc_ts is 2024-01-01 + doc_id seconds, which the
    oracle re-derives."""
    eng = get_engine(sf_dir)
    t = eng.search("spark join warc_ts_s:[1704067300 TO 1704067599]", k=10)
    return pa.table(
        {
            "rank": t["rank"].cast(pa.int64()),
            "doc_id": t["doc_id"].cast(pa.int64()),
            "score": pa.array(np.round(t["score"].to_numpy(), 6), pa.float64()),
        }
    )


def q_span_near(sf_dir):
    """Ordered span-near (Lucene SpanNearQuery in_order=true): table <
    join < row by position with gap slop <= 12, per-doc minimum slop —
    vectorized greedy next-occurrence chain (ops/proximity.py), index-
    accelerated by the boolean AND superset."""
    from bitfunnel_ray.ops.proximity import span_near_search

    return span_near_search(
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]),
        ["table", "join", "row"],
        slop=12,
        engine=get_engine(sf_dir),
    )


SQL_SPAN_NEAR = """
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS l FROM documents),
p AS (SELECT doc_id, unnest(l) AS term, unnest(range(1, len(l)+1)) AS j FROM toks),
m AS (SELECT a.doc_id, CAST(min(c.j - a.j - 2) AS BIGINT) AS min_slop
      FROM p a
      JOIN p b ON b.doc_id = a.doc_id AND b.j > a.j AND b.term = 'join'
      JOIN p c ON c.doc_id = a.doc_id AND c.j > b.j AND c.term = 'row'
      WHERE a.term = 'table'
      GROUP BY a.doc_id)
SELECT doc_id, min_slop FROM m WHERE min_slop <= 12
"""


def _geo_docs(sf_dir):
    """Deterministic coordinates from doc_id (integer-degree grid, so the
    synthesis itself has zero float drift and SQL reproduces it exactly):
    lat in [-80, 79], lon in [-180, 179]."""

    def coords(t: pa.Table) -> pa.Table:
        i = t["doc_id"].to_numpy().astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(i, pa.int64()),
                "lat": pa.array(((i * 37) % 160 - 80).astype(np.float64)),
                "lon": pa.array(((i * 91) % 360 - 180).astype(np.float64)),
            }
        )

    return rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"]).map_batches(
        coords, batch_format="pyarrow"
    )


def q_weighted_sample(sf_dir):
    """Deterministic weighted sampling without replacement (A-ES,
    Efraimidis-Spirakis): 25 docs with probability proportional to
    n_chars, keys = ln(u)/w with u from the Knuth doc_id hash — stable
    across runs/layouts; the oracle recomputes the identical recipe and
    takes the same top-25."""
    from bitfunnel_ray.ops.wsample import weighted_sample

    t = weighted_sample(
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]),
        25,
        weight_col="n_chars",
    )
    return pa.table(
        {
            "doc_id": t["doc_id"],
            "weight": t["weight"],
            "key": pa.array(np.round(t["key"].to_numpy(), 9), pa.float64()),
        }
    )


SQL_WEIGHTED_SAMPLE = """
WITH k AS (
  SELECT doc_id, CAST(n_chars AS DOUBLE) AS weight,
         -- HUGEINT keeps the product exact for 63-bit doc ids (e.g. WARC
         -- url-hash ids); the op's uint64 wrap mod 2^64 then % 2^32 equals
         -- the true product mod 2^32, so the recipes agree for all int64 ids
         ln((CAST((CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296 AS DOUBLE) + 1.0)
            / 4294967297.0) / CAST(n_chars AS DOUBLE) AS key
  FROM documents WHERE n_chars > 0
)
SELECT doc_id, weight, round(key, 9) AS key
FROM k ORDER BY key DESC, doc_id LIMIT 25
"""


def q_geo_distance(sf_dir):
    """Geo-distance filter (ES geo_distance query): docs within 3000 km
    of (40, -74), haversine in float64 rounded to whole meters — the
    integer-meter contract both sides compare on (ops/geo.py)."""
    from bitfunnel_ray.ops.geo import geo_distance_filter

    return geo_distance_filter(_geo_docs(sf_dir), (40.0, -74.0), 3_000_000)


SQL_GEO_DISTANCE = """
WITH g AS (
  SELECT doc_id,
         CAST((doc_id * 37) % 160 - 80 AS DOUBLE) AS lat,
         CAST((doc_id * 91) % 360 - 180 AS DOUBLE) AS lon
  FROM documents
),
d AS (
  SELECT doc_id,
         round(2 * 6371000.0 * asin(sqrt(
             sin(radians(40.0 - lat) / 2) * sin(radians(40.0 - lat) / 2)
             + cos(radians(lat)) * cos(radians(40.0))
               * sin(radians(-74.0 - lon) / 2) * sin(radians(-74.0 - lon) / 2)
         ))) AS distance_m
  FROM g
)
SELECT doc_id, distance_m FROM d WHERE distance_m <= 3000000
"""


def q_all_terms_window(sf_dir):
    """Unordered multi-term window (Lucene SpanNearQuery in_order=false):
    table, join, row all inside some <= 15-token span (any order), per-doc
    minimum covering window — one forward-fill sweep per term over the
    flat token stream (ops/proximity.py), index-accelerated by the
    boolean AND."""
    from bitfunnel_ray.ops.proximity import all_terms_window

    return all_terms_window(
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]),
        ["table", "join", "row"],
        window=15,
        engine=get_engine(sf_dir),
    )


SQL_ALL_TERMS_WINDOW = """
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS l FROM documents),
p AS (SELECT doc_id, unnest(l) AS term, unnest(range(1, len(l)+1)) AS j FROM toks),
m AS (SELECT a.doc_id,
             CAST(min(greatest(a.j, b.j, c.j) - least(a.j, b.j, c.j) + 1) AS BIGINT)
               AS min_window
      FROM p a
      JOIN p b ON b.doc_id = a.doc_id AND b.term = 'join'
      JOIN p c ON c.doc_id = a.doc_id AND c.term = 'row'
      WHERE a.term = 'table'
      GROUP BY a.doc_id)
SELECT doc_id, min_window FROM m WHERE min_window <= 15
"""


def q_substring_dedup(sf_dir):
    """Exact substring dedup (Lee et al. 2022 keep-first span strip,
    ops/substrdedup.py): every duplicated 8-token window occurrence that
    is not the corpus-wide first occurrence is removed; a token survives
    iff no removed window covers it.  The 31-term synthetic vocabulary
    makes natural window duplication plentiful — no planting needed."""
    from bitfunnel_ray.ops.substrdedup import dedup_substrings

    return dedup_substrings(
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]),
        k=8,
    )


def _substring_dedup_sql(k: int = 8) -> str:
    return f"""
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS l FROM documents),
w AS (SELECT doc_id, unnest(range(1, len(l) - {k} + 2)) AS s, l FROM toks),
w2 AS (SELECT doc_id, s, array_to_string(l[s:s+{k}-1], ' ') AS win FROM w),
rem AS (SELECT doc_id, s FROM (
          SELECT doc_id, s,
                 row_number() OVER (PARTITION BY win ORDER BY doc_id, s) AS rn
          FROM w2) WHERE rn > 1),
tok AS (SELECT doc_id, unnest(l) AS term, unnest(range(1, len(l)+1)) AS j FROM toks),
kept AS (SELECT t.doc_id, t.j, t.term FROM tok t
         WHERE NOT EXISTS (SELECT 1 FROM rem r
                           WHERE r.doc_id = t.doc_id
                             AND r.s BETWEEN t.j - {k} + 1 AND t.j)),
agg AS (SELECT doc_id, string_agg(term, ' ' ORDER BY j) AS text
        FROM kept GROUP BY doc_id)
SELECT d.doc_id, COALESCE(a.text, '') AS text
FROM documents d LEFT JOIN agg a USING (doc_id)
"""


SQL_SUBSTRING_DEDUP = _substring_dedup_sql()


def q_warc_roundtrip(sf_dir):
    """WARC interchange (ISO 28500, the Common Crawl format): synthesize
    pages (url, warc_ts_s, html) from the documents table, write them as
    WARC resource records, read them back through the record parser
    (sources/warc.py — Content-Length framing, one task per file), and
    return the pages — the oracle reconstructs the same synthesis in
    SQL, so the round trip must be byte-identical."""
    import tempfile

    from bitfunnel_ray.sources.warc import pages_from_warc, write_warc

    digits = np.array([str(d) for d in range(10)])

    def make_pages(t: pa.Table) -> pa.Table:
        i = t["doc_id"].to_numpy().astype(np.int64)
        url = pc.binary_join_element_wise(
            "https://h",
            pa.array(digits[i % 4]),
            ".example.org/doc/",
            pa.array([f"{v:08d}" for v in i.tolist()]),
            "",
        )
        html = pc.binary_join_element_wise(
            "<html><body>", pc.cast(t["text"], pa.string()), "</body></html>", ""
        )
        return pa.table(
            {
                "url": url,
                "warc_ts_s": pa.array(1700000000 + i * 7, pa.int64()),
                "html": html.cast(pa.binary()),
            }
        )

    pages = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).map_batches(make_pages, batch_format="pyarrow")
    out_dir = tempfile.mkdtemp(prefix="bfr_warc_")
    write_warc(pages, out_dir)
    import glob as _glob

    back = pages_from_warc(sorted(_glob.glob(os.path.join(out_dir, "*.warc"))))

    def to_out(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "url": t["url"],
                "warc_ts_s": t["warc_ts_s"],
                "html": t["html"].cast(pa.string()),
            }
        )

    return back.map_batches(to_out, batch_format="pyarrow")


SQL_WARC_ROUNDTRIP = """
SELECT 'https://h' || CAST(doc_id % 4 AS VARCHAR) || '.example.org/doc/'
         || lpad(CAST(doc_id AS VARCHAR), 8, '0') AS url,
       1700000000 + doc_id * 7 AS warc_ts_s,
       '<html><body>' || text || '</body></html>' AS html
FROM documents
"""


def q_exact_phrase(sf_dir):
    """Exact ORDERED 3-token phrase — the semantics the engine's phrase
    operator deliberately approximates (reference parity: unordered
    co-occurrence of the 1..maxGram n-grams, TermMatchTreeConverter.cpp:
    156-179).  Positional scan, map-only."""
    from bitfunnel_ray.ops.proximity import exact_phrase_search

    return exact_phrase_search(
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]),
        ["order", "batch", "batch"],
    )


def q_exact_phrase_indexed(sf_dir):
    """Index-accelerated exact phrase: the co-occurrence phrase query is
    a strict SUPERSET of ordered-adjacency matches, so the index selects
    candidates and the position scan touches only those — same oracle as
    the full scan."""
    from bitfunnel_ray.ops.proximity import exact_phrase_search

    return exact_phrase_search(
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]),
        ["order", "batch", "batch"],
        engine=get_engine(sf_dir),
    )


SQL_EXACT_PHRASE = """
SELECT doc_id FROM documents
WHERE ' ' || text || ' ' LIKE '% order batch batch %'
"""


def q_proximity_indexed(sf_dir):
    """Index-accelerated NEAR/5: the boolean AND over posting lists
    selects candidates (broadcast once), the position scan touches only
    those — same answer as the full scan (same oracle), ~df(a AND b)/N
    of the text work."""
    from bitfunnel_ray.ops.proximity import indexed_proximity_search

    return indexed_proximity_search(
        get_engine(sf_dir),
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]),
        "spark",
        "join",
        window=5,
    )


def _new_corpus_batch(t: pa.Table) -> pa.Table:
    """Deterministic 're-crawl' variant of a documents block: doc_id%7==0
    vanished, doc_id%5==0 changed (text + ' drift'), doc_id%11==0 spawned
    an added doc at doc_id+1_000_000."""
    ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    text = t["text"].combine_chunks() if isinstance(t["text"], pa.ChunkedArray) else t["text"]
    keep = ids % 7 != 0
    kept_ids = ids[keep]
    kept_txt = text.filter(pa.array(keep))
    mod = kept_ids % 5 == 0
    suffix = pa.array(np.where(mod, " drift", "").tolist(), pa.string())
    kept_txt = pc.binary_join_element_wise(kept_txt, suffix, "")
    add = ids % 11 == 0
    add_ids = ids[add] + 1_000_000
    add_txt = pa.array([f"added doc {i}" for i in ids[add].tolist()], pa.string())
    return pa.table(
        {
            "doc_id": pa.array(np.concatenate([kept_ids, add_ids]), pa.int64()),
            "text": pa.concat_arrays([kept_txt.combine_chunks() if isinstance(kept_txt, pa.ChunkedArray) else kept_txt, add_txt]),
        }
    )


_SQL_NEW_CORPUS = """
SELECT doc_id,
       CASE WHEN doc_id % 5 = 0 THEN text || ' drift' ELSE text END AS text
FROM documents WHERE doc_id % 7 <> 0
UNION ALL
SELECT doc_id + 1000000, 'added doc ' || CAST(doc_id AS VARCHAR)
FROM documents WHERE doc_id % 11 = 0
"""


def q_corpus_diff(sf_dir):
    """Re-crawl delta: full outer compare of old vs new corpus by doc_id
    → (doc_id, status ∈ added/removed/changed).  One hash exchange on the
    id; per-block vectorized run compare (ops/diffstats.py)."""
    from bitfunnel_ray.ops.diffstats import corpus_diff

    old = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    new = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).map_batches(_new_corpus_batch, batch_format="pyarrow")
    return corpus_diff(old, new)


SQL_CORPUS_DIFF = f"""
WITH old AS (SELECT doc_id, text FROM documents),
new AS ({_SQL_NEW_CORPUS})
SELECT coalesce(o.doc_id, n.doc_id) AS doc_id,
       CASE WHEN o.doc_id IS NULL THEN 'added'
            WHEN n.doc_id IS NULL THEN 'removed'
            ELSE 'changed' END AS status
FROM old o FULL OUTER JOIN new n ON o.doc_id = n.doc_id
WHERE o.doc_id IS NULL OR n.doc_id IS NULL OR o.text <> n.text
"""


def q_drift_terms(sf_dir):
    """Distribution drift between the even- and odd-doc_id halves of the
    corpus: top-50 terms by |KL summand| with add-one smoothing.  Exact
    int counts aggregate distributively; each drift value is one fixed
    float expression (p·ln(p/q), rounded) so rows hash-compare; ordering
    uses the ROUNDED value on both sides so last-ulp libm differences
    cannot reorder ties."""
    from bitfunnel_ray.ops.diffstats import drift_terms

    def half(par: int):
        def f(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].to_numpy(zero_copy_only=False)
            return t.filter(pa.array(ids % 2 == par))

        return f

    def read():
        return rd.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        )

    even = read().map_batches(half(0), batch_format="pyarrow")
    odd = read().map_batches(half(1), batch_format="pyarrow")
    return drift_terms(even, odd, k=50)


SQL_DRIFT_TERMS = """
WITH pd AS (SELECT unnest(string_split(text,' ')) AS term FROM documents WHERE doc_id % 2 = 0),
qd AS (SELECT unnest(string_split(text,' ')) AS term FROM documents WHERE doc_id % 2 = 1),
pcnt AS (SELECT term, count(*) AS c FROM pd GROUP BY term),
qcnt AS (SELECT term, count(*) AS c FROM qd GROUP BY term),
vocab AS (SELECT term FROM pcnt UNION SELECT term FROM qcnt),
tot AS (SELECT (SELECT count(*) FROM pd) + (SELECT count(*) FROM vocab) AS np_tot,
               (SELECT count(*) FROM qd) + (SELECT count(*) FROM vocab) AS nq_tot),
j AS (SELECT v.term,
             CAST(coalesce(p.c, 0) + 1 AS DOUBLE) / (SELECT np_tot FROM tot) AS p,
             CAST(coalesce(q.c, 0) + 1 AS DOUBLE) / (SELECT nq_tot FROM tot) AS q
      FROM vocab v LEFT JOIN pcnt p USING (term) LEFT JOIN qcnt q USING (term))
SELECT term, round(p * ln(p / q), 9) AS drift
FROM j ORDER BY abs(round(p * ln(p / q), 9)) DESC, term LIMIT 50
"""


def q_score_explain(sf_dir):
    """BM25 explain: per-term contribution breakdown for the rank-1 doc
    of 'spark join' — same recipe and accumulation as scoring, so the
    contributions sum to the doc's score (pytest-bit-exact); floats
    rounded to 6 dp here for the oracle hash like the bm25 queries."""
    eng = get_engine(sf_dir)
    top = eng.search("spark join", k=1)
    doc = top["doc_id"][0].as_py()
    exp = eng.explain("spark join", doc)
    return pa.table(
        {
            "term": exp["term"],
            "tf": exp["tf"],
            "doclen": exp["doclen"],
            "df": exp["df"],
            "idf": pa.array([round(v, 6) for v in exp["idf"].to_pylist()], pa.float64()),
            "contribution": pa.array(
                [round(v, 6) for v in exp["contribution"].to_pylist()], pa.float64()
            ),
        }
    )


SQL_SCORE_EXPLAIN = f"""
WITH toks AS ({_tokens_sql()}),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
st AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM dl),
tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
       WHERE term IN ('spark','join') GROUP BY doc_id, term),
df AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks
       WHERE term IN ('spark','join') GROUP BY term),
matches AS (SELECT doc_id FROM tf GROUP BY doc_id HAVING count(DISTINCT term) = 2),
contrib AS (
  SELECT t.doc_id, t.term, t.tf, dl.dl, df.df,
         ln((st.n - df.df + 0.5) / (df.df + 0.5) + 1.0) AS idf,
         ln((st.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
           * 2.2 * t.tf / (t.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / st.avgdl)) AS c
  FROM tf t JOIN df USING (term) JOIN dl USING (doc_id), st
  WHERE t.doc_id IN (SELECT doc_id FROM matches)
),
top1 AS (SELECT doc_id FROM (SELECT doc_id, sum(c) AS score FROM contrib GROUP BY doc_id)
         ORDER BY score DESC, doc_id LIMIT 1)
SELECT term, CAST(tf AS BIGINT) AS tf, CAST(dl AS BIGINT) AS doclen,
       CAST(df AS BIGINT) AS df, round(idf, 6) AS idf, round(c, 6) AS contribution
FROM contrib WHERE doc_id = (SELECT doc_id FROM top1)
"""


def q_next_word(sf_dir):
    """Context-aware query completion: top-10 successors of 'data' by
    bigram frequency (the ngram table powering a next-word suggester;
    completes the prefix-autocomplete pair)."""
    from bitfunnel_ray.build.stats import top_k_by
    from bitfunnel_ray.ops.ngrams import ngram_counts

    grams = ngram_counts(corpus_from_documents(sf_dir), 2)

    def pick(t: pa.Table) -> pa.Table:
        keep = pc.starts_with(t["gram"], "data ")
        sub = t.filter(keep)
        nxt = pc.utf8_replace_slice(sub["gram"], 0, 5, "")
        return pa.table({"next_word": nxt, "count": sub["count"]})

    return top_k_by(
        grams.map_batches(pick, batch_format="pyarrow"),
        k=10,
        col="count",
        tiebreak="next_word",
    )


SQL_NEXT_WORD = """
WITH pairs AS (
  SELECT p[1] AS w1, p[2] AS w2
  FROM (SELECT unnest(list_zip(string_split(text,' ')[1:-2],
                               string_split(text,' ')[2:])) AS p
        FROM documents)
)
SELECT w2 AS next_word, CAST(count(*) AS BIGINT) AS "count"
FROM pairs WHERE w1 = 'data'
GROUP BY w2 ORDER BY "count" DESC, next_word LIMIT 10
"""


def _demo_edges(sf_dir):
    """Deterministic link graph over the documents table: doc i emits
    1 + i%3 edges, dst_j = (i*31 + j*j + 7) % N — multi-edges and
    self-loops possible and kept (edge multiplicity = weight), mirrored
    exactly by the oracle's UNNEST(generate_series) CTE."""
    import pyarrow.parquet as _pq

    n_docs = _pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows

    def gen(t: pa.Table) -> pa.Table:
        i = t["doc_id"].to_numpy().astype(np.int64)
        deg = 1 + (i % 3)
        src = np.repeat(i, deg)
        ends = np.cumsum(deg)
        j = np.arange(int(ends[-1]), dtype=np.int64) - np.repeat(ends - deg, deg) + 1
        dst = (src * 31 + j * j + 7) % n_docs
        return pa.table({"src": pa.array(src, pa.int64()), "dst": pa.array(dst, pa.int64())})

    return rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"]).map_batches(
        gen, batch_format="pyarrow"
    )


SQL_DEMO_EDGES = """
p0 AS (SELECT COUNT(*) AS n FROM documents),
e AS (SELECT d.doc_id AS src, (d.doc_id*31 + t.j*t.j + 7) % p0.n AS dst
      FROM documents d CROSS JOIN p0,
           UNNEST(generate_series(1, 1 + d.doc_id % 3)) AS t(j))
"""


def q_pagerank(sf_dir):
    """Distributed integer fixed-point PageRank, 3 iterations, over the
    deterministic demo link graph.  Integer sums are order-independent,
    so the distributed result is bit-identical to the oracle's unrolled
    CTE iterations (ops/graph.py docstring for the exact update rule)."""
    from bitfunnel_ray.ops.graph import pagerank

    return pagerank(_demo_edges(sf_dir), n_iter=3)


def _pagerank_iter_cte(i: int) -> str:
    return f"""
d{i} AS (SELECT COALESCE(SUM(rank),0) AS dang FROM r{i-1} WHERE outdeg = 0),
c{i} AS (SELECT e.dst AS node, SUM(r.rank // r.outdeg) AS inflow
         FROM e JOIN r{i-1} r ON r.node = e.src GROUP BY e.dst),
r{i} AS (SELECT nd.node, nd.outdeg,
          (1000000000000 * 3) // 20 // p.n
        + (d{i}.dang * 17) // 20 // p.n
        + (COALESCE(c{i}.inflow, 0) * 17) // 20 AS rank
        FROM nd CROSS JOIN p CROSS JOIN d{i} LEFT JOIN c{i} USING(node))"""


SQL_PAGERANK = (
    "WITH "
    + SQL_DEMO_EDGES.strip().rstrip()
    + """,
deg AS (SELECT src AS node, COUNT(*) AS outdeg FROM e GROUP BY src),
nodes AS (SELECT DISTINCT node FROM (SELECT src AS node FROM e UNION ALL SELECT dst FROM e)),
nd AS (SELECT nodes.node, COALESCE(deg.outdeg, 0) AS outdeg FROM nodes LEFT JOIN deg USING(node)),
p AS (SELECT COUNT(*) AS n FROM nd),
r0 AS (SELECT nd.node, nd.outdeg, 1000000000000 // p.n AS rank FROM nd CROSS JOIN p),"""
    + ",".join(_pagerank_iter_cte(i) for i in (1, 2, 3))
    + "\nSELECT node, CAST(rank AS BIGINT) AS rank FROM r3"
)


def _demo_pages(sf_dir):
    """Link-bearing pages over the documents table: doc i's html wraps
    its text plus two <a> links to l1=(i+1)%N and l2=(i*7+3)%N on host
    ``h<target%4>.example.org``, each with anchor text
    ``s<i%5> t<target%7>`` — src-derived and target-derived tokens so
    anchor aggregation/search is non-trivial and hosts vary for the
    host-graph rollup.  Fully vectorized (digit-table lookups, no
    per-row python except the zero-padded id strings, fixture-only)."""
    import pyarrow.parquet as _pq

    n_docs = _pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    digits = np.array([str(d) for d in range(10)])

    def make_html(t: pa.Table) -> pa.Table:
        i = t["doc_id"].to_numpy().astype(np.int64)
        a1 = (i + 1) % n_docs
        a2 = (i * 7 + 3) % n_docs
        html = pc.binary_join_element_wise(
            "<html><body>",
            pc.cast(t["text"], pa.string()),
            '<a href="https://h',
            pa.array(digits[a1 % 4]),
            ".example.org/doc/",
            pa.array([f"{v:08d}" for v in a1.tolist()]),
            '">s',
            pa.array(digits[i % 5]),
            " t",
            pa.array(digits[a1 % 7]),
            '</a><a href="https://h',
            pa.array(digits[a2 % 4]),
            ".example.org/doc/",
            pa.array([f"{v:08d}" for v in a2.tolist()]),
            '">s',
            pa.array(digits[i % 5]),
            " t",
            pa.array(digits[a2 % 7]),
            "</a></body></html>",
            "",
        )
        return pa.table({"doc_id": t["doc_id"].cast(pa.int64()), "html": html})

    return rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).map_batches(make_html, batch_format="pyarrow")


def q_link_extract(sf_dir):
    """href extraction over constructed link-bearing pages: the
    vectorized RE2 extractor (ops/graph.py) must recover exactly the
    planted hrefs — the oracle constructs the ground-truth strings
    directly (engine-independent)."""
    from bitfunnel_ray.ops.graph import extract_links

    return extract_links(_demo_pages(sf_dir), html_col="html", src_col="doc_id")


SQL_LINK_EXTRACT = """
WITH p0 AS (SELECT COUNT(*) AS n FROM documents)
SELECT doc_id, href FROM (
  SELECT d.doc_id,
         'https://h' || CAST(((d.doc_id + 1) % p0.n) % 4 AS VARCHAR) || '.example.org/doc/'
           || lpad(CAST((d.doc_id + 1) % p0.n AS VARCHAR), 8, '0') AS href
  FROM documents d CROSS JOIN p0
  UNION ALL
  SELECT d.doc_id,
         'https://h' || CAST(((d.doc_id * 7 + 3) % p0.n) % 4 AS VARCHAR) || '.example.org/doc/'
           || lpad(CAST((d.doc_id * 7 + 3) % p0.n AS VARCHAR), 8, '0') AS href
  FROM documents d CROSS JOIN p0
)
"""


# (src, dst, anchor) rows of the demo pages' link set — mirrors
# _demo_pages exactly; shared by the three anchor oracles below
SQL_DEMO_ANCHORS = """
p0 AS (SELECT COUNT(*) AS n FROM documents),
ea AS (
  SELECT d.doc_id AS src, (d.doc_id + 1) % p0.n AS dst,
         's' || CAST(d.doc_id % 5 AS VARCHAR) || ' t' ||
         CAST(((d.doc_id + 1) % p0.n) % 7 AS VARCHAR) AS anchor
  FROM documents d CROSS JOIN p0
  UNION ALL
  SELECT d.doc_id, (d.doc_id * 7 + 3) % p0.n,
         's' || CAST(d.doc_id % 5 AS VARCHAR) || ' t' ||
         CAST(((d.doc_id * 7 + 3) % p0.n) % 7 AS VARCHAR)
  FROM documents d CROSS JOIN p0
)
"""


def q_host_graph(sf_dir):
    """Page links rolled up to the host-level graph: src host assigned
    by the fixture convention h<doc%4>.example.org, dst host PARSED from
    each href — map-side partial counts, one small groupby exchange
    (ops/graph.py host_graph)."""
    from bitfunnel_ray.ops.graph import extract_links, host_graph

    digits = np.array([str(d) for d in range(10)])

    def add_src_host(t: pa.Table) -> pa.Table:
        i = t["doc_id"].to_numpy().astype(np.int64)
        host = pc.binary_join_element_wise(
            "h", pa.array(digits[i % 4]), ".example.org", ""
        )
        return t.append_column("src_host", host)

    links = extract_links(_demo_pages(sf_dir), html_col="html", src_col="doc_id")
    return host_graph(
        links.map_batches(add_src_host, batch_format="pyarrow"),
        src_host_col="src_host",
        href_col="href",
    )


SQL_HOST_GRAPH = (
    "WITH "
    + SQL_DEMO_ANCHORS.strip()
    + """
SELECT 'h' || CAST(src % 4 AS VARCHAR) || '.example.org' AS src_host,
       'h' || CAST(dst % 4 AS VARCHAR) || '.example.org' AS dst_host,
       COUNT(*) AS weight
FROM ea GROUP BY 1, 2
"""
)


def q_link_spam_score(sf_dir):
    """In-link host concentration per target (nepotistic-link signal):
    map-side (dst, host) partial counts, one exchange, two-level
    segmented reduce; share = one IEEE division of exact ints
    (ops/graph.py inlink_concentration)."""
    from bitfunnel_ray.ops.graph import inlink_concentration

    digits = np.array([str(d) for d in range(10)])

    def tag(t: pa.Table) -> pa.Table:
        s = t["src"].to_numpy().astype(np.int64)
        host = pc.binary_join_element_wise(
            "h", pa.array(digits[s % 4]), ".example.org", ""
        )
        return pa.table({"src_host": host, "dst": t["dst"]})

    links = _demo_edges(sf_dir).map_batches(tag, batch_format="pyarrow")
    return inlink_concentration(links)


SQL_LINK_SPAM_SCORE = (
    "WITH "
    + SQL_DEMO_EDGES.strip()
    + """,
hc AS (SELECT dst, 'h' || CAST(src % 4 AS VARCHAR) || '.example.org' AS host,
              COUNT(*) AS c
       FROM e GROUP BY 1, 2)
SELECT dst AS doc_id, CAST(SUM(c) AS BIGINT) AS n_inlinks,
       MAX(c) / CAST(SUM(c) AS DOUBLE) AS top_host_share
FROM hc GROUP BY dst
"""
)


def q_graph_degrees(sf_dir):
    """Per-node out/in degree over the demo link graph — map-side
    partial counts, one node-sized exchange (ops/graph.py degree_table)."""
    from bitfunnel_ray.ops.graph import degree_table

    return degree_table(_demo_edges(sf_dir))


SQL_GRAPH_DEGREES = (
    "WITH "
    + SQL_DEMO_EDGES.strip()
    + """,
o AS (SELECT src AS node, COUNT(*) AS c FROM e GROUP BY 1),
i AS (SELECT dst AS node, COUNT(*) AS c FROM e GROUP BY 1),
nodes AS (SELECT DISTINCT node FROM (SELECT src AS node FROM e UNION ALL SELECT dst FROM e))
SELECT n.node, COALESCE(o.c, 0) AS outdeg, COALESCE(i.c, 0) AS indeg
FROM nodes n LEFT JOIN o USING(node) LEFT JOIN i USING(node)
"""
)


def q_frontier_per_host(sf_dir):
    """Crawl-frontier shaping: PageRank over the demo graph, nodes
    bucketed by their host (h<node%4>.example.org), top-2 per host by
    rank — the per-host politeness-budgeted frontier a crawler feeds its
    fetchers.  Composition: integer fixed-point pagerank (bit-exact) →
    vectorized host tag → map-side-pruned grouped top-k."""
    from bitfunnel_ray.ops.graph import pagerank
    from bitfunnel_ray.ops.grouped import top_k_per_group

    digits = np.array([str(d) for d in range(10)])

    def add_host(t: pa.Table) -> pa.Table:
        n = t["node"].to_numpy().astype(np.int64)
        host = pc.binary_join_element_wise(
            "h", pa.array(digits[n % 4]), ".example.org", ""
        )
        return t.append_column("host", host)

    pr = pagerank(_demo_edges(sf_dir), n_iter=3).map_batches(
        add_host, batch_format="pyarrow"
    )
    top = top_k_per_group(
        pr, group_col="host", order_col="rank", k=2, descending=True,
        tiebreak_col="node",
    )
    return top.select_columns(["host", "node", "rank"])


SQL_FRONTIER_PER_HOST = (
    "WITH pr AS ("
    + SQL_PAGERANK
    + """)
SELECT host, node, rank FROM (
  SELECT host, node, rank,
         row_number() OVER (PARTITION BY host ORDER BY rank DESC, node) AS rn
  FROM (SELECT node, rank,
               'h' || CAST(node % 4 AS VARCHAR) || '.example.org' AS host
        FROM pr)
) WHERE rn <= 2
"""
)


def q_static_rank_topk(sf_dir):
    """Static-rank blending — what production web ranking actually does:
    text relevance (BM25, bit-exact float recipe) × a query-independent
    link prior (integer fixed-point PageRank over the demo graph).
    blended = round(bm25, 6) * pagerank_rank: one IEEE multiply of two
    exactly-reproducible quantities, so the result hash-compares against
    the SQL oracle.  Top-10 by blended desc, doc_id asc."""
    from bitfunnel_ray.ops.graph import pagerank

    eng = get_engine(sf_dir)
    t = eng.search(" ".join(_BM25_TERMS), k=1_000_000)  # all matches, scored
    scores = {
        int(d): round(float(s), 6)
        for d, s in zip(t["doc_id"].to_pylist(), t["score"].to_pylist())
    }
    match_ids = np.array(sorted(scores), dtype=np.int64)

    def pick(tbl: pa.Table) -> pa.Table:
        node = tbl["node"].to_numpy()
        keep = np.isin(node, match_ids)
        return tbl.filter(pa.array(keep))

    pr = (
        pagerank(_demo_edges(sf_dir), n_iter=3)
        .map_batches(pick, batch_format="pyarrow")
        .to_pandas()
    )
    bm = np.array([scores[int(n)] for n in pr["node"]], dtype=np.float64)
    blended = bm * pr["rank"].to_numpy().astype(np.float64)
    order = np.lexsort((pr["node"].to_numpy(), -blended))[:10]
    return pa.table(
        {
            "rank": pa.array(np.arange(1, len(order) + 1), pa.int64()),
            "doc_id": pa.array(pr["node"].to_numpy()[order], pa.int64()),
            "blended": pa.array(blended[order], pa.float64()),
        }
    )


SQL_STATIC_RANK_TOPK = (
    "WITH pr AS ("
    + SQL_PAGERANK
    + f"""),
toks AS ({_tokens_sql()}),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
st AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM dl),
tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
       WHERE term IN ('spark','join') GROUP BY doc_id, term),
df AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks
       WHERE term IN ('spark','join') GROUP BY term),
matches AS (SELECT doc_id FROM tf GROUP BY doc_id HAVING count(DISTINCT term) = 2),
contrib AS (
  SELECT t.doc_id,
         ln((st.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
           * 2.2 * t.tf / (t.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / st.avgdl)) AS c
  FROM tf t JOIN df USING (term) JOIN dl USING (doc_id), st
  WHERE t.doc_id IN (SELECT doc_id FROM matches)
),
scores AS (SELECT doc_id, sum(c) AS score FROM contrib GROUP BY doc_id),
blend AS (SELECT s.doc_id, round(s.score, 6) * CAST(pr.rank AS DOUBLE) AS blended
          FROM scores s JOIN pr ON pr.node = s.doc_id)
SELECT CAST(row_number() OVER (ORDER BY blended DESC, doc_id) AS BIGINT) AS rank,
       doc_id, blended
FROM blend ORDER BY blended DESC, doc_id LIMIT 10
"""
)


# Full oracle for the end-to-end web index: the extracted body text is
# the original text plus the page's own OUTGOING anchor tokens (they are
# visible text once tags are stripped, 4 extra tokens per doc), the link
# graph is exactly the ea edge set (hrefs canonical-join to their
# targets), and the blend is round(bm25,6) × the 2-iteration integer
# pagerank — every piece exactly reproducible in SQL.
SQL_WEB_INDEX_SEARCH = (
    "WITH "
    + SQL_DEMO_ANCHORS.strip()
    + """,
e AS (SELECT src, dst FROM ea),
deg AS (SELECT src AS node, COUNT(*) AS outdeg FROM e GROUP BY src),
nodes AS (SELECT DISTINCT node FROM (SELECT src AS node FROM e UNION ALL SELECT dst FROM e)),
nd AS (SELECT nodes.node, COALESCE(deg.outdeg, 0) AS outdeg FROM nodes LEFT JOIN deg USING(node)),
p AS (SELECT COUNT(*) AS n FROM nd),
r0 AS (SELECT nd.node, nd.outdeg, 1000000000000 // p.n AS rank FROM nd CROSS JOIN p),"""
    + ",".join(_pagerank_iter_cte(i) for i in (1, 2))
    + """,
pr AS (SELECT node, rank FROM r2),
docs2 AS (SELECT d.doc_id,
    d.text || ' s' || CAST(d.doc_id % 5 AS VARCHAR)
           || ' t' || CAST(((d.doc_id + 1) % p0.n) % 7 AS VARCHAR)
           || ' s' || CAST(d.doc_id % 5 AS VARCHAR)
           || ' t' || CAST(((d.doc_id * 7 + 3) % p0.n) % 7 AS VARCHAR) AS text
  FROM documents d CROSS JOIN p0),
toks AS (SELECT doc_id, unnest(string_split(text, ' ')) AS term FROM docs2),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
st AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM dl),
tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
       WHERE term IN ('spark','join') GROUP BY doc_id, term),
df AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks
       WHERE term IN ('spark','join') GROUP BY term),
matches AS (SELECT doc_id FROM tf GROUP BY doc_id HAVING count(DISTINCT term) = 2),
contrib AS (
  SELECT t.doc_id,
         ln((st.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
           * 2.2 * t.tf / (t.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / st.avgdl)) AS c
  FROM tf t JOIN df USING (term) JOIN dl USING (doc_id), st
  WHERE t.doc_id IN (SELECT doc_id FROM matches)
),
scores AS (SELECT doc_id, sum(c) AS score FROM contrib GROUP BY doc_id),
blend AS (SELECT s.doc_id,
                 round(s.score, 6)
                   * CAST(COALESCE(pr.rank, (SELECT MIN(rank) FROM pr)) AS DOUBLE)
                   AS blended
          FROM scores s LEFT JOIN pr ON pr.node = s.doc_id)
SELECT CAST(row_number() OVER (ORDER BY blended DESC, doc_id) AS BIGINT) AS rank,
       doc_id, blended
FROM blend ORDER BY blended DESC, doc_id LIMIT 10
"""
)


def q_canonical_by_rank(sf_dir):
    """Rank-aware canonical selection: within each canonical-URL
    duplicate cluster (messy-URL fixture, bases pair up via doc_id//2),
    keep the member with the HIGHEST PageRank (tie → lower doc_id) —
    what a search index actually keeps, vs url_dedup's min-id rule.
    Composition: canonicalize (RE2 recipe) → distributed join with the
    integer pagerank → grouped top-1 (map-side-pruned exchange)."""
    from bitfunnel_ray.ops.graph import pagerank
    from bitfunnel_ray.ops.grouped import top_k_per_group
    from bitfunnel_ray.ops.urls import canonicalize_urls

    urls = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    ).map_batches(_variant_urls_batch, batch_format="pyarrow")
    canon = canonicalize_urls(urls).select_columns(["doc_id", "canon_url"])
    pr = pagerank(_demo_edges(sf_dir), n_iter=3).map_batches(
        lambda t: pa.table({"doc_id": t["node"], "rank": t["rank"]}),
        batch_format="pyarrow",
    )
    from bitfunnel_ray.ops.joins import inner_join_cp

    joined = inner_join_cp(canon, pr, key="doc_id")
    best = top_k_per_group(
        joined, group_col="canon_url", order_col="rank", k=1,
        descending=True, tiebreak_col="doc_id",
    )
    return best.select_columns(["canon_url", "doc_id", "rank"])


from bitfunnel_ray.ops.urls import canonical_sql as _canon_sql_expr

SQL_CANONICAL_BY_RANK = (
    "WITH pr AS ("
    + SQL_PAGERANK
    + f"""),
u AS ({_SQL_VARIANT_URLS}),
canon AS (SELECT doc_id, {_canon_sql_expr('url')} AS canon_url FROM u),
j AS (SELECT c.canon_url, c.doc_id, pr.rank FROM canon c JOIN pr ON pr.node = c.doc_id)
SELECT canon_url, doc_id, rank FROM (
  SELECT *, row_number() OVER (PARTITION BY canon_url ORDER BY rank DESC, doc_id) AS rn
  FROM j
) WHERE rn = 1
"""
)


def q_web_index_search(sf_dir):
    """End-to-end web indexing (pipelines/webindex.py): demo pages with
    real URLs → robots filter → text + anchor extraction →
    canonical-URL link resolution → PageRank sidecar → two-stream index
    → BLENDED top-10 for 'spark join'.  Fully hash-checked: the oracle
    reconstructs the extracted body text (original text + the page's own
    outgoing anchor tokens), the resolved edge set, the 2-iteration
    integer pagerank, and the one-multiply blend entirely in SQL."""
    import shutil as _sh

    from bitfunnel_ray.pipelines.webindex import (
        blended_search,
        build_web_index,
        load_static_rank,
    )

    import pyarrow.parquet as _pq

    n_docs = _pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    digits = np.array([str(d) for d in range(10)])

    def add_url(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy().astype(np.int64)
        url = pc.binary_join_element_wise(
            "https://h",
            pa.array(digits[ids % 4]),
            ".example.org/doc/",
            pa.array([f"{v:08d}" for v in ids.tolist()]),
            "",
        )
        return pa.table(
            {"doc_id": t["doc_id"].cast(pa.int64()), "url": url, "html": t["html"]}
        )

    pages = _demo_pages(sf_dir).map_batches(add_url, batch_format="pyarrow")
    tag = sf_dir.strip("/").replace("/", "_")
    out = f"/tmp/bfr_idx_cache/{tag}_webidx"
    _sh.rmtree(out, ignore_errors=True)
    _sh.rmtree(f"{out}_rank", ignore_errors=True)
    os.makedirs("/tmp/bfr_idx_cache", exist_ok=True)
    manifest, rank_path = build_web_index(pages, out, pagerank_iters=2)
    eng = SearchEngine(out, load_urls=False)
    return blended_search(eng, load_static_rank(rank_path), "spark join", k=10)


def q_resolve_redirects(sf_dir):
    """Redirect chains planted in blocks of 8 (doc i with i%8<7
    redirects to i+1): the pointer-doubling resolver (ops/graph.py,
    3 distributed join rounds for chains ≤ 7 hops) must land every src
    on its block terminal — the oracle is the closed form
    ``i - i%8 + 7``, engine-independent."""
    from bitfunnel_ray.ops.graph import resolve_redirects

    def gen(t: pa.Table) -> pa.Table:
        i = t["doc_id"].to_numpy().astype(np.int64)
        src = i[i % 8 != 7]
        return pa.table(
            {"src": pa.array(src, pa.int64()), "dst": pa.array(src + 1, pa.int64())}
        )

    redirects = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    ).map_batches(gen, batch_format="pyarrow")
    return resolve_redirects(redirects)


SQL_RESOLVE_REDIRECTS = """
WITH p0 AS (SELECT COUNT(*) AS n FROM documents)
SELECT doc_id AS src,
       LEAST(doc_id - (doc_id % 8) + 7, p0.n) AS final,  -- last block truncates at N
       TRUE AS resolved
FROM documents CROSS JOIN p0 WHERE doc_id % 8 <> 7
"""


def q_communities(sf_dir):
    """Synchronous label propagation (community detection) over the
    undirected demo graph, 3 rounds — deterministic min-label tie-break
    makes the distributed result reproducible by the unrolled
    window-argmax oracle (ops/graph.py label_propagation)."""
    from bitfunnel_ray.ops.graph import label_propagation

    return label_propagation(_demo_edges(sf_dir), n_rounds=3)


def _lpa_iter_cte(i: int) -> str:
    return f"""
v{i} AS (SELECT u.dst AS node, l.label AS lab, COUNT(*) AS c
         FROM u JOIN l{i-1} l ON l.node = u.src GROUP BY 1, 2),
w{i} AS (SELECT node, lab FROM (
           SELECT node, lab,
                  row_number() OVER (PARTITION BY node ORDER BY c DESC, lab) AS rn
           FROM v{i}) WHERE rn = 1),
l{i} AS (SELECT p.node, COALESCE(w{i}.lab, p.label) AS label
         FROM l{i-1} p LEFT JOIN w{i} ON w{i}.node = p.node)"""


SQL_COMMUNITIES = (
    "WITH "
    + SQL_DEMO_EDGES.strip()
    + """,
u AS (SELECT src, dst FROM e UNION ALL SELECT dst AS src, src AS dst FROM e),
nodes AS (SELECT DISTINCT src AS node FROM u),
l0 AS (SELECT node, node AS label FROM nodes),"""
    + ",".join(_lpa_iter_cte(i) for i in (1, 2, 3))
    + "\nSELECT node, label FROM l3"
)


def q_crawl_depth(sf_dir):
    """Shortest link distance from the seed set (node%17==0) over the
    demo graph — crawl depth via synchronous min-plus relaxation (same
    two-exchange layout as pagerank, MIN-reduce kernels, early fixpoint
    stop).  Unreached nodes omitted (ops/graph.py bfs_depth)."""
    from bitfunnel_ray.ops.graph import bfs_depth

    return bfs_depth(_demo_edges(sf_dir), seed_mod=17, n_rounds=64)


SQL_CRAWL_DEPTH = (
    "WITH RECURSIVE "
    + SQL_DEMO_EDGES.strip()
    + """,
nodes AS (SELECT DISTINCT node FROM (SELECT src AS node FROM e UNION ALL SELECT dst FROM e)),
walk AS (
  SELECT node, 0 AS depth FROM nodes WHERE node % 17 = 0
  UNION
  SELECT e.dst AS node, walk.depth + 1 FROM walk JOIN e ON e.src = walk.node
  WHERE walk.depth < 64
)
SELECT node, CAST(MIN(depth) AS BIGINT) AS depth FROM walk GROUP BY node
"""
)


def q_reciprocal_links(sf_dir):
    """Link-exchange detection: unordered pairs linked in BOTH
    directions.  The organic demo graph has none (checked), so the
    fixture plants a mutual ring — every doc with doc_id%50==0
    exchanges links with doc_id+5 — which the op must recover exactly
    (ops/graph.py reciprocal_links)."""
    from bitfunnel_ray.ops.graph import reciprocal_links
    import pyarrow.parquet as _pq

    n_docs = _pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows

    def planted(t: pa.Table) -> pa.Table:
        i = t["doc_id"].to_numpy().astype(np.int64)
        s = i[i % 50 == 0]
        p = (s + 5) % n_docs
        return pa.table(
            {
                "src": pa.array(np.concatenate([s, p]), pa.int64()),
                "dst": pa.array(np.concatenate([p, s]), pa.int64()),
            }
        )

    ring = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    ).map_batches(planted, batch_format="pyarrow")
    return reciprocal_links(_demo_edges(sf_dir).union(ring))


def q_recency_topk(sf_dir):
    """Freshness-blended ranking: BM25-AND('spark join') top-100
    candidate pool, re-ranked by round(bm25,6) * 2^(-age/half-life)
    with now = 2024-03-01 and a 30-day half-life (ops/freshness.py —
    timestamps fetched by ONE broadcast-filtered map pass)."""
    from bitfunnel_ray.ops.freshness import recency_blend
    from bitfunnel_ray.sources.corpus import corpus_from_documents

    eng = get_engine(sf_dir)
    pool = eng.search("spark join", k=100)
    results = pa.table(
        {
            "rank": pool["rank"].cast(pa.int64()),
            "doc_id": pool["doc_id"].cast(pa.int64()),
            "score": pool["score"],
        }
    )
    now_s = 1709251200  # 2024-03-01T00:00:00Z
    return recency_blend(
        results, corpus_from_documents(sf_dir), now_s, half_life_days=30.0, k=10
    )


# warc_ts is fixture-deterministic (2024-01-01 + doc_id seconds,
# sources/corpus.py); the oracle re-derives it the same way
SQL_RECENCY_TOPK = f"""
WITH toks AS ({_tokens_sql()}),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
st AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM dl),
tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
       WHERE term IN ('spark','join') GROUP BY doc_id, term),
df AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks
       WHERE term IN ('spark','join') GROUP BY term),
matches AS (SELECT doc_id FROM tf GROUP BY doc_id HAVING count(DISTINCT term) = 2),
contrib AS (
  SELECT t.doc_id,
         ln((st.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
           * 2.2 * t.tf / (t.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / st.avgdl)) AS c
  FROM tf t JOIN df USING (term) JOIN dl USING (doc_id), st
  WHERE t.doc_id IN (SELECT doc_id FROM matches)
),
pool AS (SELECT doc_id, round(sum(c), 6) AS score FROM contrib GROUP BY doc_id
         ORDER BY sum(c) DESC, doc_id LIMIT 100),
aged AS (
  SELECT doc_id, score,
         CAST(1709251200 - (1704067200 + doc_id) AS DOUBLE) AS age_s
  FROM pool),
blended AS (
  SELECT doc_id,
         round(score * power(2.0, -age_s / (30.0 * 86400.0)), 6) AS blended,
         round(age_s / 86400.0, 6) AS age_days
  FROM aged)
SELECT CAST(row_number() OVER (ORDER BY blended DESC, doc_id) AS BIGINT) AS rank,
       doc_id, blended, age_days
FROM blended ORDER BY blended DESC, doc_id LIMIT 10
"""


def q_search_ts_range(sf_dir):
    """Serve-time timestamp range filter from numeric doc values (Lucene
    NumericDocValues / Tantivy fast-field analog): BM25 AND('spark join')
    restricted to warc_ts in [2024-01-01T00:01:40Z, 2024-01-01T00:06:40Z)
    — the mask comes from the docmeta ``warc_ts_s`` fast-field column the
    build wrote, never a corpus rescan.  Fixture warc_ts is
    2024-01-01 + doc_id seconds (sources/corpus.py), which the oracle
    re-derives."""
    eng = get_engine(sf_dir)
    lo, hi = 1704067200 + 100, 1704067200 + 400
    t = eng.search("spark join", k=10, range_filter=("warc_ts_s", lo, hi))
    return pa.table(
        {
            "rank": t["rank"].cast(pa.int64()),
            "doc_id": t["doc_id"].cast(pa.int64()),
            "score": pa.array(np.round(t["score"].to_numpy(), 6), pa.float64()),
        }
    )


SQL_SEARCH_TS_RANGE = f"""
WITH toks AS ({_tokens_sql()}),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
st AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM dl),
tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
       WHERE term IN ('spark','join') GROUP BY doc_id, term),
df AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks
       WHERE term IN ('spark','join') GROUP BY term),
matches AS (SELECT doc_id FROM tf GROUP BY doc_id
            HAVING count(DISTINCT term) = 2),
contrib AS (
  SELECT t.doc_id,
         ln((st.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
           * 2.2 * t.tf / (t.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / st.avgdl)) AS c
  FROM tf t JOIN df USING (term) JOIN dl USING (doc_id), st
  WHERE t.doc_id IN (SELECT doc_id FROM matches)
    AND 1704067200 + t.doc_id >= 1704067300
    AND 1704067200 + t.doc_id < 1704067600
),
scores AS (SELECT doc_id, sum(c) AS score FROM contrib GROUP BY doc_id)
SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id) AS BIGINT) AS rank,
       doc_id, round(score, 6) AS score
FROM scores ORDER BY score DESC, doc_id LIMIT 10
"""


def q_date_histogram(sf_dir):
    """ES-style date_histogram facet over the match set of 'spark':
    100-second buckets of the warc_ts_s doc-values column (fixture ts =
    2024-01-01 + doc_id s).  O(matches) numpy on doc values — no corpus
    rescan (query/aggs.py)."""
    from bitfunnel_ray.query.aggs import date_histogram

    return date_histogram(get_engine(sf_dir), "spark", interval_s=100)


SQL_DATE_HISTOGRAM = """
SELECT CAST(floor((1704067200 + doc_id) / 100) AS BIGINT) * 100 AS bucket_start_s,
       count(*) AS n_docs
FROM documents
WHERE list_contains(string_split(text, ' '), 'spark')
GROUP BY 1 ORDER BY 1
"""


def q_field_ts_stats(sf_dir):
    """ES-style stats aggregation: min/max/avg of warc_ts_s over the
    matches of 'spark join' (query/aggs.py)."""
    from bitfunnel_ray.query.aggs import field_stats

    t = field_stats(get_engine(sf_dir), "spark join")
    return pa.table(
        {
            "n_docs": t["n_docs"],
            "min_v": t["min_v"],
            "max_v": t["max_v"],
            "avg_v": pa.array(np.round(t["avg_v"].to_numpy(), 6), pa.float64()),
        }
    )


SQL_FIELD_TS_STATS = """
SELECT count(*) AS n_docs,
       CAST(min(1704067200 + doc_id) AS DOUBLE) AS min_v,
       CAST(max(1704067200 + doc_id) AS DOUBLE) AS max_v,
       round(avg(1704067200 + doc_id), 6) AS avg_v
FROM documents
WHERE list_contains(string_split(text, ' '), 'spark')
  AND list_contains(string_split(text, ' '), 'join')
"""


def q_field_ts_percentiles(sf_dir):
    """ES-style percentiles aggregation: quartiles of warc_ts_s over the
    matches of 'spark' (exact linear interpolation == SQL quantile_cont)."""
    from bitfunnel_ray.query.aggs import field_percentiles

    t = field_percentiles(get_engine(sf_dir), "spark", qs=(0.25, 0.5, 0.75))
    return pa.table(
        {
            "q": t["q"],
            "value": pa.array(np.round(t["value"].to_numpy(), 6), pa.float64()),
        }
    )


SQL_FIELD_TS_PERCENTILES = """
WITH m AS (
  SELECT CAST(1704067200 + doc_id AS DOUBLE) AS v FROM documents
  WHERE list_contains(string_split(text, ' '), 'spark')
)
SELECT q, round(value, 6) AS value FROM (
  SELECT 0.25 AS q, quantile_cont(v, 0.25) AS value FROM m
  UNION ALL SELECT 0.5, quantile_cont(v, 0.5) FROM m
  UNION ALL SELECT 0.75, quantile_cont(v, 0.75) FROM m
) ORDER BY q
"""


def q_search_sort_recent(sf_dir):
    """Sort-by-field (the ES ``sort`` contract): matches of 'spark join'
    ordered by the warc_ts_s doc-values column descending (newest first),
    BM25 score still computed and returned for display."""
    eng = get_engine(sf_dir)
    t = eng.search("spark join", k=10, sort_by=("warc_ts_s", "desc"))
    return pa.table(
        {
            "rank": t["rank"].cast(pa.int64()),
            "doc_id": t["doc_id"].cast(pa.int64()),
            "score": pa.array(np.round(t["score"].to_numpy(), 6), pa.float64()),
        }
    )


SQL_SEARCH_SORT_RECENT = f"""
WITH toks AS ({_tokens_sql()}),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
st AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM dl),
tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
       WHERE term IN ('spark','join') GROUP BY doc_id, term),
df AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks
       WHERE term IN ('spark','join') GROUP BY term),
matches AS (SELECT doc_id FROM tf GROUP BY doc_id
            HAVING count(DISTINCT term) = 2),
contrib AS (
  SELECT t.doc_id,
         ln((st.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
           * 2.2 * t.tf / (t.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / st.avgdl)) AS c
  FROM tf t JOIN df USING (term) JOIN dl USING (doc_id), st
  WHERE t.doc_id IN (SELECT doc_id FROM matches)
),
scores AS (SELECT doc_id, sum(c) AS score FROM contrib GROUP BY doc_id)
SELECT CAST(row_number() OVER (ORDER BY 1704067200 + doc_id DESC, doc_id) AS BIGINT) AS rank,
       doc_id, round(score, 6) AS score
FROM scores ORDER BY 1704067200 + doc_id DESC, doc_id LIMIT 10
"""


def q_search_msm(sf_dir):
    """Minimum-should-match group (Lucene/ES minimum_should_match as
    the ``(a b c)~2`` group suffix — beyond the reference's grammar):
    docs matching >= 2 of {spark, join, merge}, BM25 summed over the
    clauses that MATCHED (absent terms contribute zero, like a plain
    disjunction), top-10."""
    eng = get_engine(sf_dir)
    t = eng.search("(spark join merge)~2", k=10)
    return pa.table(
        {
            "rank": t["rank"].cast(pa.int64()),
            "doc_id": t["doc_id"].cast(pa.int64()),
            "score": pa.array(np.round(t["score"].to_numpy(), 6), pa.float64()),
        }
    )


SQL_SEARCH_MSM = f"""
WITH toks AS ({_tokens_sql()}),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
st AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM dl),
tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
       WHERE term IN ('spark','join','merge') GROUP BY doc_id, term),
df AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks
       WHERE term IN ('spark','join','merge') GROUP BY term),
matches AS (SELECT doc_id FROM tf GROUP BY doc_id
            HAVING count(DISTINCT term) >= 2),
contrib AS (
  SELECT t.doc_id,
         ln((st.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
           * 2.2 * t.tf / (t.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / st.avgdl)) AS c
  FROM tf t JOIN df USING (term) JOIN dl USING (doc_id), st
  WHERE t.doc_id IN (SELECT doc_id FROM matches)
),
scores AS (SELECT doc_id, sum(c) AS score FROM contrib GROUP BY doc_id)
SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id) AS BIGINT) AS rank,
       doc_id, round(score, 6) AS score
FROM scores ORDER BY score DESC, doc_id LIMIT 10
"""


def q_search_boosted(sf_dir):
    """Query-time term boosting (Lucene ^ syntax): 'spark^2 join' —
    match semantics unchanged (AND), spark's BM25 contribution doubled
    before the sum (query/parser.py boost grammar, engine
    scoring_boosts; boost 1.0 is bit-exact identity)."""
    eng = get_engine(sf_dir)
    t = eng.search("spark^2 join", k=10)
    return pa.table(
        {
            "rank": t["rank"].cast(pa.int64()),
            "doc_id": t["doc_id"].cast(pa.int64()),
            "score": pa.array(np.round(t["score"].to_numpy(), 6), pa.float64()),
        }
    )


SQL_SEARCH_BOOSTED = f"""
WITH toks AS ({_tokens_sql()}),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
st AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM dl),
tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
       WHERE term IN ('spark','join') GROUP BY doc_id, term),
df AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks
       WHERE term IN ('spark','join') GROUP BY term),
matches AS (SELECT doc_id FROM tf GROUP BY doc_id HAVING count(DISTINCT term) = 2),
contrib AS (
  SELECT t.doc_id,
         (ln((st.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
           * 2.2 * t.tf / (t.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / st.avgdl)))
         * (CASE WHEN t.term = 'spark' THEN 2.0 ELSE 1.0 END) AS c
  FROM tf t JOIN df USING (term) JOIN dl USING (doc_id), st
  WHERE t.doc_id IN (SELECT doc_id FROM matches)
),
scores AS (SELECT doc_id, sum(c) AS score FROM contrib GROUP BY doc_id)
SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id) AS BIGINT) AS rank,
       doc_id, round(score, 6) AS score
FROM scores ORDER BY score DESC, doc_id LIMIT 10
"""


_TOPIC_CATEGORIES = {
    "compute": ("spark", "batch", "vector"),
    "query": ("join", "filter", "sort"),
    "storage": ("table", "row", "column"),
}

_VOCAB_FIXTURE = (
    "the", "a", "spark", "join", "table", "merge", "window",
    "batch", "row", "data", "key", "sort",
)


def q_topic_assign(sf_dir):
    """Keyword-dictionary domain bucketing (the mixture-weight first
    pass of a pretraining pipeline): per-category keyword-token counts,
    argmax assignment with name-asc tie-break, 'other' when nothing
    hits (ops/topics.py — unique-vocab lookup per batch, map-only)."""
    from bitfunnel_ray.ops.topics import assign_topics

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return assign_topics(docs, _TOPIC_CATEGORIES)


def _topic_sql() -> str:
    whens = "\n".join(
        f"  WHEN term IN ({', '.join(repr(k) for k in kws)}) THEN '{name}'"
        for name, kws in _TOPIC_CATEGORIES.items()
    )
    return f"""
WITH toks AS ({_tokens_sql()}),
h AS (SELECT doc_id, CASE
{whens}
  END AS topic FROM toks
  WHERE CASE
{whens}
  END IS NOT NULL),
cnt AS (SELECT doc_id, topic, count(*) AS hits FROM h GROUP BY doc_id, topic),
best AS (SELECT doc_id, topic, hits,
                row_number() OVER (PARTITION BY doc_id ORDER BY hits DESC, topic) AS rn
         FROM cnt)
SELECT d.doc_id, COALESCE(b.topic, 'other') AS topic,
       CAST(COALESCE(b.hits, 0) AS BIGINT) AS hits
FROM documents d LEFT JOIN (SELECT * FROM best WHERE rn = 1) b USING (doc_id)
ORDER BY d.doc_id
"""


SQL_TOPIC_ASSIGN = _topic_sql()


def q_vocab_coverage(sf_dir):
    """Tokenizer-vocabulary coverage: per-doc in-vocab fraction + OOV
    count against a broadcast vocabulary (ops/topics.py — one np.isin
    over the batch's unique vocab, scattered by dictionary index)."""
    import ray as _ray

    from bitfunnel_ray.ops.topics import vocab_coverage

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    ref = _ray.put(np.asarray(_VOCAB_FIXTURE, dtype=object))
    return vocab_coverage(docs, ref)


SQL_VOCAB_COVERAGE = f"""
WITH toks AS ({_tokens_sql()}),
agg AS (
  SELECT doc_id, count(*) AS n_tokens,
         SUM(CASE WHEN term NOT IN ({", ".join(repr(v) for v in _VOCAB_FIXTURE)})
                  THEN 1 ELSE 0 END) AS n_oov
  FROM toks GROUP BY doc_id)
SELECT d.doc_id,
       CAST(COALESCE(a.n_tokens, 0) AS BIGINT) AS n_tokens,
       CAST(COALESCE(a.n_oov, 0) AS BIGINT) AS n_oov,
       round(CASE WHEN COALESCE(a.n_tokens, 0) > 0
                  THEN 1.0 - CAST(a.n_oov AS DOUBLE) / a.n_tokens
                  ELSE 1.0 END, 6) AS coverage
FROM documents d LEFT JOIN agg a USING (doc_id)
ORDER BY d.doc_id
"""


def q_prf_search(sf_dir):
    """RM3-lite pseudo-relevance feedback: BM25-AND('spark join') top-10
    as feedback docs → top-5 expansion terms by in-feedback count
    (excluding the originals) → BM25-OR re-rank over the widened term
    set (query/prf.py; Lavrenko-Croft / RM3 lineage, simplifications in
    the module doc)."""
    from bitfunnel_ray.query.prf import prf_search

    eng = get_engine(sf_dir)
    corpus = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    t = prf_search(eng, corpus, ["spark", "join"], k=10, k_docs=10, n_terms=5)
    return pa.table(
        {
            "rank": t["rank"].cast(pa.int64()),
            "doc_id": t["doc_id"].cast(pa.int64()),
            "score": pa.array(np.round(t["score"].to_numpy(), 6), pa.float64()),
            "expansion": t["expansion"],
        }
    )


SQL_PRF_SEARCH = f"""
WITH toks AS ({_tokens_sql()}),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
st AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM dl),
fbtf AS (SELECT doc_id, term, count(*) AS tf FROM toks
         WHERE term IN ('spark','join') GROUP BY doc_id, term),
fbdf AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks
         WHERE term IN ('spark','join') GROUP BY term),
fbmatch AS (SELECT doc_id FROM fbtf GROUP BY doc_id HAVING count(DISTINCT term) = 2),
fbcontrib AS (
  SELECT t.doc_id,
         ln((st.n - d.df + 0.5) / (d.df + 0.5) + 1.0)
           * 2.2 * t.tf / (t.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / st.avgdl)) AS c
  FROM fbtf t JOIN fbdf d USING (term) JOIN dl USING (doc_id), st
  WHERE t.doc_id IN (SELECT doc_id FROM fbmatch)
),
fbtop AS (SELECT doc_id FROM (SELECT doc_id, sum(c) AS score FROM fbcontrib GROUP BY doc_id)
          ORDER BY score DESC, doc_id LIMIT 10),
expn AS (SELECT term, count(*) AS cnt FROM toks
         WHERE doc_id IN (SELECT doc_id FROM fbtop)
           AND term NOT IN ('spark','join')
         GROUP BY term ORDER BY cnt DESC, term LIMIT 5),
qterms AS (SELECT term FROM expn UNION ALL SELECT unnest(['spark','join']) AS term),
tf2 AS (SELECT doc_id, term, count(*) AS tf FROM toks
        WHERE term IN (SELECT term FROM qterms) GROUP BY doc_id, term),
df2 AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks
        WHERE term IN (SELECT term FROM qterms) GROUP BY term),
contrib2 AS (
  SELECT t.doc_id,
         ln((st.n - d.df + 0.5) / (d.df + 0.5) + 1.0)
           * 2.2 * t.tf / (t.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / st.avgdl)) AS c
  FROM tf2 t JOIN df2 d USING (term) JOIN dl USING (doc_id), st
),
scores2 AS (SELECT doc_id, sum(c) AS score FROM contrib2 GROUP BY doc_id),
expstr AS (SELECT string_agg(term, ' ' ORDER BY cnt DESC, term) AS expansion FROM expn)
SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id) AS BIGINT) AS rank,
       doc_id, round(score, 6) AS score, expstr.expansion
FROM scores2 CROSS JOIN expstr
ORDER BY score DESC, doc_id LIMIT 10
"""


_EVAL_QUERIES = {
    0: ("spark join", "spark"),
    1: ("merge window", "merge"),
    2: ("table batch", "batch"),
}


def q_eval_ndcg(sf_dir):
    """Ranking-quality eval harness: NDCG@10 / recall@10 / MRR of the
    engine's BM25 top-10 against graded relevance (tf of a grade term
    over the query's match set) — the search-quality measurement loop
    (query/eval.py; standard Järvelin-Kekäläinen linear-gain DCG)."""
    from bitfunnel_ray.query.eval import rank_eval

    return rank_eval(get_engine(sf_dir), _EVAL_QUERIES, k=10)


def _eval_ndcg_sql() -> str:
    parts = []
    for qid, (qtext, grade) in _EVAL_QUERIES.items():
        t1, t2 = qtext.split()
        parts.append(f"""
SELECT * FROM (
WITH toks AS ({_tokens_sql()}),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
st AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM dl),
tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
       WHERE term IN ('{t1}','{t2}') GROUP BY doc_id, term),
df AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks
       WHERE term IN ('{t1}','{t2}') GROUP BY term),
matches AS (SELECT doc_id FROM tf GROUP BY doc_id HAVING count(DISTINCT term) = 2),
contrib AS (
  SELECT t.doc_id,
         ln((st.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
           * 2.2 * t.tf / (t.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / st.avgdl)) AS c
  FROM tf t JOIN df USING (term) JOIN dl USING (doc_id), st
  WHERE t.doc_id IN (SELECT doc_id FROM matches)
),
cand AS (
  SELECT doc_id, row_number() OVER (ORDER BY sum(c) DESC, doc_id) AS rnk
  FROM contrib GROUP BY doc_id
  ORDER BY sum(c) DESC, doc_id LIMIT 10
),
grade AS (SELECT doc_id, count(*) AS rel FROM toks
          WHERE term = '{grade}' GROUP BY doc_id),
mrel AS (SELECT m.doc_id, COALESCE(g.rel, 0) AS rel
         FROM matches m LEFT JOIN grade g USING (doc_id)),
crel AS (SELECT c.rnk, COALESCE(g.rel, 0) AS rel
         FROM cand c LEFT JOIN grade g USING (doc_id)),
ideal AS (SELECT rel, row_number() OVER (ORDER BY rel DESC) AS rn FROM mrel),
agg AS (
  SELECT
    (SELECT count(*) FROM mrel) AS n_matches,
    (SELECT COALESCE(SUM(rel / log2(rnk + 1.0)), 0) FROM crel) AS dcg,
    (SELECT COALESCE(SUM(rel / log2(rn + 1.0)), 0) FROM ideal WHERE rn <= 10) AS idcg,
    (SELECT count(*) FROM crel WHERE rel > 0) AS n_hit,
    (SELECT count(*) FROM mrel WHERE rel > 0) AS n_rel,
    (SELECT MIN(rnk) FROM crel WHERE rel > 0) AS first_hit
)
SELECT CAST({qid} AS BIGINT) AS query_id,
       CAST(n_matches AS BIGINT) AS n_matches,
       round(CASE WHEN idcg > 0 THEN dcg / idcg ELSE 0 END, 6) AS ndcg,
       round(CASE WHEN n_rel > 0
                  THEN CAST(n_hit AS DOUBLE) / LEAST(10, n_rel) ELSE 0 END, 6) AS recall,
       round(COALESCE(1.0 / first_hit, 0), 6) AS mrr
FROM agg
)""")
    return "\nUNION ALL\n".join(parts) + "\nORDER BY query_id"


SQL_EVAL_NDCG = _eval_ndcg_sql()


def q_search_synonyms(sf_dir):
    """Query-time synonym expansion: 'spark join' with join→{join,merge}
    matches spark AND (join OR merge) and scores each doc as the sum of
    the BM25 contributions of whichever of the three terms it contains
    (ast.expand_synonyms — member df stays per-term)."""
    eng = get_engine(sf_dir)
    t = eng.search("spark join", k=10, synonyms={"join": ("join", "merge")})
    return pa.table(
        {
            "rank": t["rank"].cast(pa.int64()),
            "doc_id": t["doc_id"].cast(pa.int64()),
            "score": pa.array(np.round(t["score"].to_numpy(), 6), pa.float64()),
        }
    )


SQL_SEARCH_SYNONYMS = f"""
WITH toks AS ({_tokens_sql()}),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
st AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM dl),
tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
       WHERE term IN ('spark','join','merge') GROUP BY doc_id, term),
df AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks
       WHERE term IN ('spark','join','merge') GROUP BY term),
matches AS (
  SELECT doc_id FROM tf GROUP BY doc_id
  HAVING max(CASE WHEN term = 'spark' THEN 1 ELSE 0 END) = 1
     AND max(CASE WHEN term IN ('join','merge') THEN 1 ELSE 0 END) = 1
),
contrib AS (
  SELECT t.doc_id,
         ln((st.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
           * 2.2 * t.tf / (t.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / st.avgdl)) AS c
  FROM tf t JOIN df USING (term) JOIN dl USING (doc_id), st
  WHERE t.doc_id IN (SELECT doc_id FROM matches)
),
scores AS (SELECT doc_id, sum(c) AS score FROM contrib GROUP BY doc_id)
SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id) AS BIGINT) AS rank,
       doc_id, round(score, 6) AS score
FROM scores ORDER BY score DESC, doc_id LIMIT 10
"""


def q_boilerplate(sf_dir):
    """Per-source template detection (CCNet/C4-style de-boilerplating):
    k=4 token shingles present in >=60% of a source's documents.  The
    fixture prepends a site template ('visit <source> portal page
    today') to ~5 of every 7 docs (doc_id mod 7 — 7 is coprime to the source stride, so every source gets ~5/7 coverage), which the op must recover — counting
    runs on 64-bit shingle hashes (text never enters the exchange);
    survivor text comes from a second broadcast-probe pass
    (ops/boilerplate.py)."""
    from bitfunnel_ray.ops.boilerplate import boilerplate_shingles

    def plant(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        tpl = pc.binary_join_element_wise(
            pa.array(["visit"] * len(t)), t["source"], pa.array(["portal page today"] * len(t)), " "
        )
        aug = pc.binary_join_element_wise(tpl, t["text"], " ")
        text = pc.if_else(pa.array(ids % 7 < 5), aug, t["text"])
        return pa.table({"doc_id": t["doc_id"], "source": t["source"], "text": text})

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "text"]
    ).map_batches(plant, batch_format="pyarrow")
    return boilerplate_shingles(docs, k=4, min_frac=0.6, min_docs=2)


SQL_BOILERPLATE = """
WITH aug AS (
  SELECT doc_id, source,
         CASE WHEN doc_id % 7 < 5
              THEN 'visit ' || source || ' portal page today ' || text
              ELSE text END AS text
  FROM documents
),
sh AS (
  SELECT DISTINCT doc_id, source, p[1]||' '||p[2]||' '||p[3]||' '||p[4] AS shingle
  FROM (SELECT doc_id, source,
               unnest(list_zip(a[1:-4], a[2:-3], a[3:-2], a[4:])) AS p
        FROM (SELECT doc_id, source, string_split(text,' ') AS a FROM aug))
),
tot AS (SELECT source, COUNT(*) AS t FROM documents GROUP BY source),
cnt AS (SELECT source, shingle, COUNT(*) AS n FROM sh GROUP BY source, shingle)
SELECT c.source, c.shingle, CAST(n AS BIGINT) AS n_docs,
       round(CAST(n AS DOUBLE) / t, 6) AS frac
FROM cnt c JOIN tot USING (source)
WHERE n >= 2 AND n >= 0.6 * t
ORDER BY source, shingle
"""


SQL_RECIPROCAL_LINKS = (
    "WITH "
    + SQL_DEMO_EDGES.strip()
    + """,
ring AS (SELECT d.doc_id AS src, (d.doc_id + 5) % p0.n AS dst
         FROM documents d CROSS JOIN p0 WHERE d.doc_id % 50 = 0
         UNION ALL
         SELECT (d.doc_id + 5) % p0.n, d.doc_id
         FROM documents d CROSS JOIN p0 WHERE d.doc_id % 50 = 0),
e2 AS (SELECT * FROM e UNION ALL SELECT * FROM ring),
c AS (SELECT LEAST(src, dst) AS a, GREATEST(src, dst) AS b,
             CAST(SUM(CASE WHEN src < dst THEN 1 ELSE 0 END) AS BIGINT) AS n_ab,
             CAST(SUM(CASE WHEN src > dst THEN 1 ELSE 0 END) AS BIGINT) AS n_ba
      FROM e2 WHERE src <> dst GROUP BY 1, 2)
SELECT a, b, n_ab, n_ba FROM c WHERE n_ab > 0 AND n_ba > 0
"""
)


def q_trustrank(sf_dir):
    """Seed-personalized PageRank (TrustRank): teleport mass only to the
    seed set (node%7==0); 3 integer fixed-point iterations, bit-exact
    against the unrolled-CTE oracle (ops/graph.py trustrank)."""
    from bitfunnel_ray.ops.graph import trustrank

    return trustrank(_demo_edges(sf_dir), seed_mod=7, n_iter=3)


def _trust_iter_cte(i: int) -> str:
    return f"""
d{i} AS (SELECT COALESCE(SUM(rank),0) AS dang FROM r{i-1} WHERE outdeg = 0),
c{i} AS (SELECT e.dst AS node, SUM(r.rank // r.outdeg) AS inflow
         FROM e JOIN r{i-1} r ON r.node = e.src GROUP BY e.dst),
r{i} AS (SELECT nd.node, nd.outdeg,
          CASE WHEN nd.node % 7 = 0
               THEN (1000000000000 * 3) // 20 // ns.k + (d{i}.dang * 17) // 20 // ns.k
               ELSE 0 END
        + (COALESCE(c{i}.inflow, 0) * 17) // 20 AS rank
        FROM nd CROSS JOIN ns CROSS JOIN d{i} LEFT JOIN c{i} USING(node))"""


SQL_TRUSTRANK = (
    "WITH "
    + SQL_DEMO_EDGES.strip().rstrip()
    + """,
deg AS (SELECT src AS node, COUNT(*) AS outdeg FROM e GROUP BY src),
nodes AS (SELECT DISTINCT node FROM (SELECT src AS node FROM e UNION ALL SELECT dst FROM e)),
nd AS (SELECT nodes.node, COALESCE(deg.outdeg, 0) AS outdeg FROM nodes LEFT JOIN deg USING(node)),
ns AS (SELECT COUNT(*) AS k FROM nd WHERE node % 7 = 0),
r0 AS (SELECT nd.node, nd.outdeg,
              CASE WHEN nd.node % 7 = 0 THEN 1000000000000 // ns.k ELSE 0 END AS rank
       FROM nd CROSS JOIN ns),"""
    + ",".join(_trust_iter_cte(i) for i in (1, 2, 3))
    + "\nSELECT node, CAST(rank AS BIGINT) AS rank FROM r3"
)


def q_hits(sf_dir):
    """Distributed integer fixed-point HITS (2 iterations) over the demo
    link graph — scalar-total normalization keeps every step
    order-independent, so the result is bit-identical to the oracle's
    unrolled CTE iterations (ops/graph.py hits docstring)."""
    from bitfunnel_ray.ops.graph import hits

    return hits(_demo_edges(sf_dir), n_iter=2)


def _hits_iter_cte(i: int) -> str:
    s = 10**6
    return f"""
ar{i} AS (SELECT n.node, COALESCE(s.v, 0) AS v FROM nodes n LEFT JOIN
          (SELECT e.dst AS node, SUM(h{i-1}.v) AS v FROM e
           JOIN h{i-1} ON h{i-1}.node = e.src GROUP BY e.dst) s USING(node)),
at{i} AS (SELECT SUM(v) AS t FROM ar{i}),
a{i} AS (SELECT node, CASE WHEN at{i}.t > 0 THEN (v * {s}) // at{i}.t ELSE v END AS v
         FROM ar{i} CROSS JOIN at{i}),
hr{i} AS (SELECT n.node, COALESCE(s.v, 0) AS v FROM nodes n LEFT JOIN
          (SELECT e.src AS node, SUM(a{i}.v) AS v FROM e
           JOIN a{i} ON a{i}.node = e.dst GROUP BY e.src) s USING(node)),
ht{i} AS (SELECT SUM(v) AS t FROM hr{i}),
h{i} AS (SELECT node, CASE WHEN ht{i}.t > 0 THEN (v * {s}) // ht{i}.t ELSE v END AS v
         FROM hr{i} CROSS JOIN ht{i})"""


SQL_HITS = (
    "WITH "
    + SQL_DEMO_EDGES.strip()
    + """,
nodes AS (SELECT DISTINCT node FROM (SELECT src AS node FROM e UNION ALL SELECT dst FROM e)),
h0 AS (SELECT node, CAST(1000000 AS BIGINT) AS v FROM nodes),"""
    + ",".join(_hits_iter_cte(i) for i in (1, 2))
    + "\nSELECT h2.node, CAST(h2.v AS BIGINT) AS hub, CAST(a2.v AS BIGINT) AS authority FROM h2 JOIN a2 USING(node)"
)


def q_anchor_extract(sf_dir):
    """(src, href, anchor) triples from the demo pages — the vectorized
    two-regex extractor (ops/anchors.py) must recover both the planted
    href and the anchor text between the tag's > and the next <."""
    from bitfunnel_ray.ops.anchors import extract_anchors

    return extract_anchors(_demo_pages(sf_dir), html_col="html", src_col="doc_id")


SQL_ANCHOR_EXTRACT = (
    "WITH "
    + SQL_DEMO_ANCHORS.strip()
    + """
SELECT src AS doc_id,
       'https://h' || CAST(dst % 4 AS VARCHAR) || '.example.org/doc/'
         || lpad(CAST(dst AS VARCHAR), 8, '0') AS href,
       anchor
FROM ea
"""
)


def _demo_anchor_table(sf_dir):
    """Dataset(doc_id, anchor_text): incoming anchors aggregated per
    target, targets parsed from the planted href id suffix."""
    from bitfunnel_ray.ops.anchors import aggregate_anchor_text, extract_anchors

    links = extract_anchors(_demo_pages(sf_dir), html_col="html", src_col="doc_id")

    def parse_target(t: pa.Table) -> pa.Table:
        tgt = pc.cast(
            pc.struct_field(pc.extract_regex(t["href"], "(?P<d>[0-9]{8})$"), "d"),
            pa.int64(),
        )
        return pa.table({"doc_id": tgt, "anchor": t["anchor"]})

    return aggregate_anchor_text(
        links.map_batches(parse_target, batch_format="pyarrow"),
        target_col="doc_id",
        anchor_col="anchor",
    )


def q_anchor_agg(sf_dir):
    """Per-target incoming anchor text (lexicographic order, space
    joined) — one hash exchange + per-block Arrow group/list/join kernel
    (ops/anchors.py aggregate_anchor_text)."""
    return _demo_anchor_table(sf_dir)


SQL_ANCHOR_AGG = (
    "WITH "
    + SQL_DEMO_ANCHORS.strip()
    + """
SELECT dst AS doc_id, string_agg(anchor, ' ' ORDER BY anchor) AS anchor_text
FROM ea GROUP BY dst
"""
)


_ANCHOR_ENGINES: dict[str, SearchEngine] = {}


def get_anchor_engine(sf_dir: str) -> SearchEngine:
    """Index with the aggregated anchor text as a second STREAM
    (StreamConfiguration analog — the anchor corpus is the classic use
    of per-document auxiliary streams): body on stream 0, incoming
    anchors on stream 1, joined to the corpus by a distributed
    left-outer hash join (ops/anchors.py anchor_corpus)."""
    eng = _ANCHOR_ENGINES.get(sf_dir)
    if eng is None:
        import shutil as _sh

        from bitfunnel_ray.ops.anchors import anchor_corpus

        tag = sf_dir.strip("/").replace("/", "_")
        idx_dir = f"/tmp/bfr_idx_cache/{tag}_anchors"
        _sh.rmtree(idx_dir, ignore_errors=True)
        os.makedirs("/tmp/bfr_idx_cache", exist_ok=True)
        digits = np.array([str(d) for d in range(10)])

        def add_host(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            host = pc.binary_join_element_wise(
                "h", pa.array(digits[ids % 4]), ".example.org", ""
            )
            return t.append_column("host", host)

        joined = anchor_corpus(
            corpus_from_documents(sf_dir).map_batches(
                add_host, batch_format="pyarrow"
            ),
            _demo_anchor_table(sf_dir),
        )
        cfg = EngineConfig(
            max_gram=1,
            num_buckets=8,
            streams=(
                ("body", "text", 0),
                ("anchor", "anchor_text", 1),
                # site: filtering — each doc's host (fixture convention
                # h<doc%4>.example.org) indexed as a one-token stream
                ("site", "host", 2),
            ),
        )
        build_index(joined, idx_dir, cfg)
        eng = SearchEngine(idx_dir, load_urls=False)
        _ANCHOR_ENGINES[sf_dir] = eng
    return eng


def q_anchor_search(sf_dir):
    """Boolean search mixing the anchor stream with body terms:
    ``anchor:s2 table`` = docs linked-to by some page with doc_id%5==2
    whose own body contains 'table'."""
    eng = get_anchor_engine(sf_dir)
    docs = eng.eval(parse_query("anchor:s2 table", eng.stream_map))
    return pa.table({"doc_id": pa.array(docs.astype(np.int64), pa.int64())})


def q_site_search(sf_dir):
    """`site:` filtering through the stream machinery — the classic web
    search operator: restrict a body query to one host.  Same index as
    anchor_search (three streams: body / anchor / site)."""
    eng = get_anchor_engine(sf_dir)
    docs = eng.eval(parse_query("site:h2.example.org join", eng.stream_map))
    return pa.table({"doc_id": pa.array(docs.astype(np.int64), pa.int64())})


SQL_SITE_SEARCH = """
SELECT doc_id FROM documents
WHERE doc_id % 4 = 2 AND list_contains(string_split(text, ' '), 'join')
"""


SQL_ANCHOR_SEARCH = (
    "WITH "
    + SQL_DEMO_ANCHORS.strip()
    + """
SELECT DISTINCT d.doc_id
FROM documents d JOIN ea ON ea.dst = d.doc_id
WHERE list_contains(string_split(ea.anchor, ' '), 's2')
  AND list_contains(string_split(d.text, ' '), 'table')
"""
)


def q_lm_perplexity(sf_dir):
    """Bigram-LM quality signal (CCNet-style): train a Laplace-smoothed
    bigram LM on the corpus itself, score every document with its mean
    bigram log-probability.  The oracle recomputes the identical closed
    form in SQL (counts, V, add-one smoothing)."""
    from bitfunnel_ray.ops import lm

    corpus = corpus_from_documents(sf_dir)
    model = lm.train_bigram_lm(corpus)
    return _i64_out(lm.perplexity_scores(corpus, model))


SQL_LM_PERPLEXITY = """
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS l FROM documents),
uc AS (SELECT w, count(*) AS c
       FROM (SELECT unnest(l) AS w FROM toks) GROUP BY w),
v AS (SELECT count(*) AS v FROM uc),
big AS (SELECT doc_id, l[i] AS w1, l[i + 1] AS w2
        FROM (SELECT doc_id, l, unnest([i for i in range(1, len(l))]) AS i
              FROM toks)),
bc AS (SELECT w1, w2, count(*) AS c FROM big GROUP BY w1, w2),
lp AS (SELECT big.doc_id,
              ln((bc.c + 1.0) / (uc.c + (SELECT v FROM v))) AS lp
       FROM big JOIN bc USING (w1, w2) JOIN uc ON uc.w = big.w1),
agg AS (SELECT doc_id, count(*) AS nb, sum(lp) / count(*) AS avg
        FROM lp GROUP BY doc_id)
SELECT d.doc_id,
       CAST(coalesce(agg.nb, 0) AS BIGINT) AS n_bigrams,
       round(coalesce(agg.avg, 0.0), 6) AS avg_logprob
FROM documents d LEFT JOIN agg USING (doc_id)
"""


def q_ppl_buckets(sf_dir):
    """CCNet perplexity bucketing (Wenzek et al. 2020): head/middle/tail
    terciles of the bigram-LM score PER LANGUAGE — bucket 0 = most
    language-like; training pipelines keep buckets < 2.  Exact bucket
    boundaries; ties (the 6-dp score domain) share the first member's
    bucket, which the oracle's RANK() reproduces."""
    from bitfunnel_ray.ops import lm

    corpus = corpus_from_documents(sf_dir)
    model = lm.train_bigram_lm(corpus)
    t = lm.perplexity_buckets(corpus, model, group_col="lang", n_buckets=3)
    return t.select(["doc_id", "lang", "avg_logprob", "bucket"]).sort_by("doc_id")


SQL_PPL_BUCKETS = """
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS l FROM documents),
uc AS (SELECT w, count(*) AS c
       FROM (SELECT unnest(l) AS w FROM toks) GROUP BY w),
v AS (SELECT count(*) AS v FROM uc),
big AS (SELECT doc_id, l[i] AS w1, l[i + 1] AS w2
        FROM (SELECT doc_id, l, unnest([i for i in range(1, len(l))]) AS i
              FROM toks)),
bc AS (SELECT w1, w2, count(*) AS c FROM big GROUP BY w1, w2),
lp AS (SELECT big.doc_id,
              ln((bc.c + 1.0) / (uc.c + (SELECT v FROM v))) AS lp
       FROM big JOIN bc USING (w1, w2) JOIN uc ON uc.w = big.w1),
agg AS (SELECT doc_id, sum(lp) / count(*) AS avg FROM lp GROUP BY doc_id),
scored AS (SELECT d.doc_id, d.lang, round(coalesce(agg.avg, 0.0), 6) AS avg_logprob
           FROM documents d LEFT JOIN agg USING (doc_id))
SELECT doc_id, lang, avg_logprob,
       LEAST(((RANK() OVER (PARTITION BY lang ORDER BY avg_logprob DESC) - 1) * 3)
               // (COUNT(*) OVER (PARTITION BY lang)), 2) AS bucket
FROM scored ORDER BY doc_id
"""


def q_gopher_gate(sf_dir):
    """Gopher-rule quality gate (Rae et al. 2021 §A1.1 family): one map
    pass computes the repetition signals AND the keep/drop decision with
    a reason bitmask (1 short, 2 long, 4 dup-frac, 8 top-token, 16
    top-bigram); thresholds sized to the synthetic fixture so both
    outcomes occur."""
    from bitfunnel_ray.ops.gate import gopher_gate

    return gopher_gate(
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]),
        min_tokens=20,
        max_tokens=90,
        max_dup_frac=0.65,
        max_top_token_frac=0.13,
        max_top_bigram_frac=0.10,
    )


SQL_GOPHER_GATE = f"""
WITH tf AS (
  SELECT doc_id, term, count(*) AS c FROM ({_tokens_sql()}) GROUP BY doc_id, term
),
agg AS (
  SELECT doc_id, CAST(sum(c) AS BIGINT) AS n, count(*) AS u, max(c) AS m
  FROM tf GROUP BY doc_id
),
d AS (SELECT doc_id, string_split(text, ' ') AS s FROM documents),
bg AS (
  SELECT doc_id, s[i] || ' ' || s[i+1] AS b
  FROM d, unnest(range(1, len(s))) AS t(i)
),
btf AS (SELECT doc_id, b, count(*) AS c FROM bg GROUP BY doc_id, b),
bagg AS (SELECT doc_id, max(c) AS mb FROM btf GROUP BY doc_id),
sig AS (
  SELECT a.doc_id, n AS n_tokens,
         1 - u / n AS dup_token_frac,
         m / n AS top_token_frac,
         coalesce(mb / nullif(n - 1, 0), 0.0) AS top_bigram_frac
  FROM agg a LEFT JOIN bagg USING (doc_id)
),
flags AS (
  SELECT *,
    (CASE WHEN n_tokens < 20 THEN 1 ELSE 0 END
     + CASE WHEN n_tokens > 90 THEN 2 ELSE 0 END
     + CASE WHEN dup_token_frac > 0.65 THEN 4 ELSE 0 END
     + CASE WHEN top_token_frac > 0.13 THEN 8 ELSE 0 END
     + CASE WHEN top_bigram_frac > 0.10 THEN 16 ELSE 0 END) AS reasons
  FROM sig
)
SELECT doc_id, n_tokens, dup_token_frac, top_token_frac, top_bigram_frac,
       CAST(reasons AS BIGINT) AS reasons, reasons = 0 AS keep
FROM flags
"""


def q_dsir_weights(sf_dir):
    """DSIR-style unigram importance weights toward the in-domain slice
    (target = lang 'en' documents, raw = whole corpus)."""
    from bitfunnel_ray.ops import lm

    corpus = corpus_from_documents(sf_dir)

    def only_en(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t["lang"], "en"))

    target = corpus.map_batches(only_en, batch_format="pyarrow")
    return _i64_out(lm.dsir_weights(corpus, target))


SQL_DSIR_WEIGHTS = """
WITH tok AS (SELECT d.doc_id, d.lang, unnest(string_split(d.text, ' ')) AS w
             FROM documents d),
ct AS (SELECT w, count(*) AS c FROM tok WHERE lang = 'en' GROUP BY w),
cr AS (SELECT w, count(*) AS c FROM tok GROUP BY w),
v AS (SELECT count(*) AS v FROM cr),
nt AS (SELECT coalesce(sum(c), 0) AS n FROM ct),
nr AS (SELECT coalesce(sum(c), 0) AS n FROM cr),
lr AS (SELECT tok.doc_id,
              ln((coalesce(ct.c, 0) + 1.0) / ((SELECT n FROM nt) + (SELECT v FROM v)))
            - ln((cr.c + 1.0) / ((SELECT n FROM nr) + (SELECT v FROM v))) AS lw
       FROM tok LEFT JOIN ct USING (w) JOIN cr USING (w)),
agg AS (SELECT doc_id, count(*) AS n_tokens, sum(lw) AS lw
        FROM lr GROUP BY doc_id)
SELECT d.doc_id,
       CAST(coalesce(agg.n_tokens, 0) AS BIGINT) AS n_tokens,
       round(coalesce(agg.lw, 0.0), 6) AS log_weight
FROM documents d LEFT JOIN agg USING (doc_id)
"""


_SPELL_QUERIES = ["tabel", "jion", "winow", "strem", "qery", "customer", "zzzzzz"]


def q_spell_correct(sf_dir):
    """SymSpell deletion-index spelling correction against the corpus
    vocabulary: best suggestion per query term by (levenshtein dist asc,
    df desc, term asc); queries with nothing within distance 2 omitted.
    Exact parity with the oracle's brute-force levenshtein scan."""
    from bitfunnel_ray.ops import spell

    vocab = document_frequency_table(
        corpus_from_documents(sf_dir), EngineConfig(max_gram=1)
    ).select_columns(["term", "df"])
    idx = spell.spelling_index(vocab, max_dist=2)
    return spell.correct_terms(idx, _SPELL_QUERIES, max_dist=2)


_SPELL_LIST_SQL = ",".join(f"'{q}'" for q in _SPELL_QUERIES)
SQL_SPELL_CORRECT = f"""
WITH vocab AS (SELECT term AS w, count(DISTINCT doc_id) AS df
               FROM ({_tokens_sql()}) GROUP BY term),
q AS (SELECT unnest([{_SPELL_LIST_SQL}]) AS query),
cand AS (SELECT q.query, v.w, levenshtein(q.query, v.w) AS dist, v.df
         FROM q CROSS JOIN vocab v
         WHERE levenshtein(q.query, v.w) <= 2),
best AS (SELECT query, w, dist, df,
                row_number() OVER (PARTITION BY query
                                   ORDER BY dist, df DESC, w) AS rk
         FROM cand)
SELECT query, w AS suggestion, CAST(dist AS BIGINT) AS dist,
       CAST(df AS BIGINT) AS df
FROM best WHERE rk = 1
"""


def q_serve_correct(sf_dir):
    """Serve-time "did you mean" (the path the engines/fronts run —
    ops/spell.serve_correct over SuggestIndex + VocabFuzzyMatcher
    candidates) checked against the same brute-force levenshtein oracle
    as the offline SymSpell twin.  Serve contract difference the SQL
    mirrors: IN-vocabulary tokens (a dist-0 candidate exists) emit no
    correction row (``dist > 0`` filter)."""
    from bitfunnel_ray.ops.spell import make_cand_fn, serve_correct
    from bitfunnel_ray.ops.suggest import SuggestIndex
    from bitfunnel_ray.query.fuzzy import VocabFuzzyMatcher

    vocab = (
        document_frequency_table(
            corpus_from_documents(sf_dir), EngineConfig(max_gram=1)
        )
        .select_columns(["term", "df"])
        .to_pandas()
    )
    si = SuggestIndex(vocab["term"].to_numpy(), vocab["df"].to_numpy())
    cands = make_cand_fn(si.terms, si.dfs, VocabFuzzyMatcher(si.terms))
    return serve_correct(" ".join(_SPELL_QUERIES), cands, 2)


SQL_SERVE_CORRECT = f"""
WITH vocab AS (SELECT term AS w, count(DISTINCT doc_id) AS df
               FROM ({_tokens_sql()}) GROUP BY term),
q AS (SELECT unnest([{_SPELL_LIST_SQL}]) AS query),
cand AS (SELECT q.query, v.w, levenshtein(q.query, v.w) AS dist, v.df
         FROM q CROSS JOIN vocab v
         WHERE levenshtein(q.query, v.w) <= 2),
best AS (SELECT query, w, dist, df,
                row_number() OVER (PARTITION BY query
                                   ORDER BY dist, df DESC, w) AS rk
         FROM cand)
SELECT query AS token, w AS suggestion, CAST(dist AS BIGINT) AS dist,
       CAST(df AS BIGINT) AS df
FROM best WHERE rk = 1 AND dist > 0
"""


def q_snippets(sf_dir):
    """Best highlight window (8 tokens) covering the most distinct query
    terms per matching document — SERP snippet generation."""
    from bitfunnel_ray.ops import snippets

    return snippets.best_snippets(
        corpus_from_documents(sf_dir), ["spark", "join"], window=8
    )


SQL_SNIPPETS = """
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS l FROM documents),
cand AS (SELECT doc_id, l,
                unnest([i for i in range(1, greatest(len(l) - 7, 1) + 1)]) AS s
         FROM toks),
scored AS (SELECT doc_id, l, s,
       (CASE WHEN list_contains(l[s : least(s + 7, len(l))], 'spark') THEN 1 ELSE 0 END
      + CASE WHEN list_contains(l[s : least(s + 7, len(l))], 'join') THEN 1 ELSE 0 END)
           AS n_hits
           FROM cand),
best AS (SELECT doc_id, s, n_hits,
                array_to_string(l[s : least(s + 7, len(l))], ' ') AS snippet,
                row_number() OVER (PARTITION BY doc_id
                                   ORDER BY n_hits DESC, s) AS rk
         FROM scored)
SELECT doc_id, CAST(s AS BIGINT) AS start, CAST(n_hits AS BIGINT) AS n_hits, snippet
FROM best WHERE rk = 1 AND n_hits >= 1
"""


REGISTRY: dict[str, tuple] = {
    "snippets": (q_snippets, SQL_SNIPPETS),
    "serve_correct": (q_serve_correct, SQL_SERVE_CORRECT),
    "spell_correct": (q_spell_correct, SQL_SPELL_CORRECT),
    "lm_perplexity": (q_lm_perplexity, SQL_LM_PERPLEXITY),
    "ppl_buckets": (q_ppl_buckets, SQL_PPL_BUCKETS),
    "gopher_gate": (q_gopher_gate, SQL_GOPHER_GATE),
    "dsir_weights": (q_dsir_weights, SQL_DSIR_WEIGHTS),
    "pagerank": (q_pagerank, SQL_PAGERANK),
    "hits": (q_hits, SQL_HITS),
    "trustrank": (q_trustrank, SQL_TRUSTRANK),
    "reciprocal_links": (q_reciprocal_links, SQL_RECIPROCAL_LINKS),
    "search_after_page": (q_search_after_page, SQL_SEARCH_AFTER_PAGE),
    "boilerplate_shingles": (q_boilerplate, SQL_BOILERPLATE),
    "search_synonyms": (q_search_synonyms, SQL_SEARCH_SYNONYMS),
    "eval_ndcg": (q_eval_ndcg, SQL_EVAL_NDCG),
    "prf_search": (q_prf_search, SQL_PRF_SEARCH),
    "topic_assign": (q_topic_assign, SQL_TOPIC_ASSIGN),
    "search_boosted": (q_search_boosted, SQL_SEARCH_BOOSTED),
    "search_msm": (q_search_msm, SQL_SEARCH_MSM),
    "search_ts_range": (q_search_ts_range, SQL_SEARCH_TS_RANGE),
    "date_histogram": (q_date_histogram, SQL_DATE_HISTOGRAM),
    "field_ts_stats": (q_field_ts_stats, SQL_FIELD_TS_STATS),
    "field_ts_percentiles": (q_field_ts_percentiles, SQL_FIELD_TS_PERCENTILES),
    "search_sort_recent": (q_search_sort_recent, SQL_SEARCH_SORT_RECENT),
    "recency_topk": (q_recency_topk, SQL_RECENCY_TOPK),
    "vocab_coverage": (q_vocab_coverage, SQL_VOCAB_COVERAGE),
    "crawl_depth": (q_crawl_depth, SQL_CRAWL_DEPTH),
    "communities": (q_communities, SQL_COMMUNITIES),
    "host_graph": (q_host_graph, SQL_HOST_GRAPH),
    "resolve_redirects": (q_resolve_redirects, SQL_RESOLVE_REDIRECTS),
    "graph_degrees": (q_graph_degrees, SQL_GRAPH_DEGREES),
    "link_spam_score": (q_link_spam_score, SQL_LINK_SPAM_SCORE),
    "static_rank_topk": (q_static_rank_topk, SQL_STATIC_RANK_TOPK),
    "robots_filter": (q_robots_filter, SQL_ROBOTS_FILTER),
    "diversified_topk": (q_diversified_topk, SQL_DIVERSIFIED_TOPK),
    "web_index_search": (q_web_index_search, SQL_WEB_INDEX_SEARCH),
    "canonical_by_rank": (q_canonical_by_rank, SQL_CANONICAL_BY_RANK),
    "frontier_per_host": (q_frontier_per_host, SQL_FRONTIER_PER_HOST),
    "site_search": (q_site_search, SQL_SITE_SEARCH),
    "link_extract": (q_link_extract, SQL_LINK_EXTRACT),
    "anchor_extract": (q_anchor_extract, SQL_ANCHOR_EXTRACT),
    "anchor_agg": (q_anchor_agg, SQL_ANCHOR_AGG),
    "anchor_search": (q_anchor_search, SQL_ANCHOR_SEARCH),
    "next_word": (q_next_word, SQL_NEXT_WORD),
    "score_explain": (q_score_explain, SQL_SCORE_EXPLAIN),
    "corpus_diff": (q_corpus_diff, SQL_CORPUS_DIFF),
    "drift_terms": (q_drift_terms, SQL_DRIFT_TERMS),
    "proximity_indexed": (q_proximity_indexed, SQL_PROXIMITY_SEARCH),
    "exact_phrase": (q_exact_phrase, SQL_EXACT_PHRASE),
    "exact_phrase_indexed": (q_exact_phrase_indexed, SQL_EXACT_PHRASE),
    "chunk_roundtrip": (q_chunk_roundtrip, SQL_CHUNK_ROUNDTRIP),
    "warc_roundtrip": (q_warc_roundtrip, SQL_WARC_ROUNDTRIP),
    "substring_dedup": (q_substring_dedup, SQL_SUBSTRING_DEDUP),
    "span_near": (q_span_near, SQL_SPAN_NEAR),
    "all_terms_window": (q_all_terms_window, SQL_ALL_TERMS_WINDOW),
    "geo_distance": (q_geo_distance, SQL_GEO_DISTANCE),
    "weighted_sample": (q_weighted_sample, SQL_WEIGHTED_SAMPLE),
    # [1704067300 TO 1704067599] inclusive == the kwarg filter's [lo, hi)
    # window — same SQL oracle
    "range_query_syntax": (q_range_query_syntax, SQL_SEARCH_TS_RANGE),
    "stored_fields_fetch": (q_stored_fields_fetch, SQL_STORED_FIELDS_FETCH),
    "url_canonicalize": (q_url_canonicalize, _sql_url_canonicalize()),
    "url_dedup": (q_url_dedup, _sql_url_dedup()),
    "lang_id": (q_lang_id, textstats.lang_id_sql()),
    "wildcard_search": (q_wildcard_search, SQL_WILDCARD_SEARCH),
    "fuzzy_search": (q_fuzzy_search, SQL_FUZZY_SEARCH),
    "regexp_search": (q_regexp_search, SQL_REGEXP_SEARCH),
    "proximity_search": (q_proximity_search, SQL_PROXIMITY_SEARCH),
    "local_supplier_volume": (q_local_supplier_volume, SQL_LOCAL_SUPPLIER_VOLUME),
    "top_bigrams": (q_top_bigrams, SQL_TOP_BIGRAMS),
    "pmi_collocations": (q_pmi_collocations, SQL_PMI_COLLOCATIONS),
    "significant_terms": (q_significant_terms, SQL_SIGNIFICANT_TERMS),
    "term_vectors": (q_term_vectors, SQL_TERM_VECTORS),
    "substring_scan": (q_substring_scan, SQL_SUBSTRING_SCAN),
    "regex_scan": (q_regex_scan, SQL_REGEX_SCAN),
    "embedding_exact_dups": (q_embedding_exact_dups, SQL_EMBEDDING_EXACT_DUPS),
    "df_table": (q_df_table, SQL_DF_TABLE),
    "fused_df_table": (q_fused_df_table, SQL_DF_ONLY_TABLE),
    "doclen_histogram": (q_doclen_histogram, SQL_DOCLEN_HISTOGRAM),
    "doc_meta": (q_doc_meta, SQL_DOC_META),
    "ingest_totals": (q_ingest_totals, SQL_INGEST_TOTALS),
    "search_and": (q_search_and, SQL_SEARCH_AND),
    "search_or": (q_search_or, SQL_SEARCH_OR),
    "search_not": (q_search_not, SQL_SEARCH_NOT),
    "search_phrase": (q_search_phrase, SQL_SEARCH_PHRASE),
    "search_boolean_mix": (q_search_boolean_mix, SQL_SEARCH_BOOLEAN_MIX),
    "bm25_topk": (q_bm25_topk, SQL_BM25_TOPK),
    "search_auto_bands": (q_search_auto_bands, SQL_BM25_TOPK),
    "suggest_prefix": (q_suggest_prefix, SQL_SUGGEST_PREFIX),
    "seeded_shuffle": (q_seeded_shuffle, SQL_SEEDED_SHUFFLE),
    "cross_dedup": (q_cross_dedup, SQL_CROSS_DEDUP),
    "qld_topk": (q_qld_topk, SQL_QLD_TOPK),
    "ltr_features": (q_ltr_features, SQL_LTR_FEATURES),
    "docsharded_bm25_topk": (q_docsharded_bm25_topk, SQL_BM25_TOPK),
    "docsharded_selective_topk": (q_docsharded_selective_topk, SQL_BM25_TOPK),
    "fact_filter_search": (q_fact_filter_search, SQL_FACT_FILTER_SEARCH),
    "fact_only_count": (q_fact_only_count, SQL_FACT_ONLY_COUNT),
    "bm25_or_topk": (q_bm25_or_topk, SQL_BM25_OR_TOPK),
    "sample_filter": (q_sample_filter, SQL_SAMPLE_FILTER),
    "posting_count_filter": (q_posting_count_filter, SQL_POSTING_COUNT_FILTER),
    "first_n": (q_first_n, SQL_FIRST_N),
    "select_columns": (q_select_columns, SQL_SELECT_COLUMNS),
    "source_histogram": (q_source_histogram, SQL_SOURCE_HISTOGRAM),
    "shard_assign": (q_shard_assign, SQL_SHARD_ASSIGN),
    "token_count": (q_token_count, SQL_TOKEN_COUNT),
    "quality_score": (q_quality_score, SQL_QUALITY_SCORE),
    "exact_dedup": (q_exact_dedup, SQL_EXACT_DEDUP),
    "repetition_stats": (q_repetition_stats, SQL_REPETITION_STATS),
    "pii_redact": (q_pii_redact, SQL_PII_REDACT),
    "token_budget": (q_token_budget, SQL_TOKEN_BUDGET),
    "head_coverage": (q_head_coverage, SQL_HEAD_COVERAGE),
    "bm25f_topk": (q_bm25f_topk, SQL_BM25F_TOPK),
    "hybrid_search": (q_hybrid_search, SQL_HYBRID_SEARCH),
    "hard_negatives": (q_hard_negatives, SQL_HARD_NEGATIVES),
    "events_hourly": (q_events_hourly, SQL_EVENTS_HOURLY),
    "ann_topk": (q_ann_topk, SQL_ANN_TOPK),
    "ann_filtered_topk": (q_ann_filtered_topk, SQL_ANN_FILTERED_TOPK),
    "related_terms": (q_related_terms, SQL_RELATED_TERMS),
    "autocomplete": (q_autocomplete, SQL_AUTOCOMPLETE),
    "grouped_percentiles": (q_grouped_percentiles, SQL_GROUPED_PERCENTILES),
    "rolling_active_users": (q_rolling_active_users, SQL_ROLLING_ACTIVE_USERS),
    "duplicated_passages": (q_duplicated_passages, SQL_DUPLICATED_PASSAGES),
    "percolate": (q_percolate, SQL_PERCOLATE),
    "skipgram_pairs": (q_skipgram_pairs, SQL_SKIPGRAM_PAIRS),
    "df_histogram": (q_df_histogram, SQL_DF_HISTOGRAM),
    "search_corrected": (q_search_corrected, SQL_SEARCH_CORRECTED),
    "cooccurrence": (q_cooccurrence, SQL_COOCCURRENCE),
    "annotate_shard": (q_annotate_shard, SQL_ANNOTATE_SHARD),
    "vocab_growth": (q_vocab_growth, SQL_VOCAB_GROWTH),
    "term_to_text": (q_term_to_text, SQL_TERM_TO_TEXT),
    "ngram_jaccard": (q_ngram_jaccard, SQL_NGRAM_JACCARD),
    "ngram_jaccard_ds": (q_ngram_jaccard_ds, SQL_NGRAM_JACCARD),
    "decontaminate": (q_decontaminate, SQL_DECONTAMINATE),
    "search_snippets": (q_search_snippets, SQL_SEARCH_SNIPPETS),
    "facet_counts": (q_facet_counts, SQL_FACET_COUNTS),
    "distinct_terms": (q_distinct_terms, SQL_DISTINCT_TERMS),
    "doc_keywords": (q_doc_keywords, SQL_DOC_KEYWORDS),
    "fuzzy_terms": (q_fuzzy_terms, SQL_FUZZY_TERMS),
    "more_like_this": (q_more_like_this, SQL_MORE_LIKE_THIS),
    "funnel": (q_funnel, SQL_FUNNEL),
    "normalize_text": (q_normalize_text, SQL_NORMALIZE_TEXT),
    "cohort_retention": (q_cohort_retention, SQL_COHORT_RETENTION),
    "pricing_summary": (q_pricing_summary, SQL_PRICING_SUMMARY),
    "shipping_priority": (q_shipping_priority, SQL_SHIPPING_PRIORITY),
    "top_supplier_per_part": (q_top_supplier_per_part, SQL_TOP_SUPPLIER_PER_PART),
    "sessionize": (q_sessionize, SQL_SESSIONIZE),
    "asof_join": (q_asof_join, SQL_ASOF_JOIN),
    "range_join": (q_range_join, SQL_RANGE_JOIN),
    "group_zscore": (q_group_zscore, SQL_GROUP_ZSCORE),
    "split_assign": (q_split_assign, SQL_SPLIT_ASSIGN),
    "bpe_token_count": (q_bpe_token_count, SQL_BPE_TOKEN_COUNT),
    "region_rollup": (q_region_rollup, SQL_REGION_ROLLUP),
    "doclen_percentiles": (q_doclen_percentiles, SQL_DOCLEN_PERCENTILES),
    "rolling_window": (q_rolling_window, SQL_ROLLING_WINDOW),
    "anti_join": (q_anti_join, SQL_ANTI_JOIN),
    "chunk_documents": (q_chunk_documents, SQL_CHUNK_DOCUMENTS),
    "customer_orders": (q_customer_orders, SQL_CUSTOMER_ORDERS),
    "connected_components": (q_connected_components, SQL_CONNECTED_COMPONENTS),
    "extract_text": (q_extract_text, SQL_EXTRACT_TEXT),
    "top_per_source": (q_top_per_source, SQL_TOP_PER_SOURCE),
    "stratified_sample": (q_stratified_sample, SQL_STRATIFIED_SAMPLE),
    # rows-only (non-SQL-expressible: sketch/LSH/model-stub operators)
    "pack_sequences": (q_pack_sequences, None),
    "bpe_merges": (q_bpe_merges, None),
    "bpe_token_count_trained": (q_bpe_token_count_trained, None),
    "verify_log": (q_verify_log, None),
    "analyze_bands": (q_analyze_bands, None),
    "minhash_dedup": (q_minhash_dedup, None),
    "simhash": (q_simhash, None),
    "embedding_dup_pairs": (q_embedding_dup_pairs, None),
    "semdedup": (q_semdedup, None),
    "fingerprint": (q_fingerprint, None),
    "ann_lsh_topk": (q_ann_lsh_topk, None),
    "ann_ivf_topk": (q_ann_ivf_topk, None),
    "ann_pq_topk": (q_ann_pq_topk, None),
    "kll_quantiles": (q_kll_quantiles, None),
    "multimodal_features": (q_multimodal_features, None),
    "dedup_canonical": (q_dedup_canonical, None),
    "distinct_terms_hll": (q_distinct_terms_hll, None),
    "binary_stats": (q_binary_stats, None),
    "pretrain_clean": (q_pretrain_clean, None),
    "heavy_hitters": (q_heavy_hitters, None),
}
