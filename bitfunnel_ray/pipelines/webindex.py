"""End-to-end web indexing: raw pages → queryable multi-stream index
with a link-derived static rank.

This is the composition a web-scale user actually runs, wired from the
repo's own oracle-checked parts — every stage is the distributed shape
documented in its module:

    pages (doc_id, url, html)
      ├─ robots filter            (ops/urls.filter_url_prefixes, map-only)
      ├─ text extraction          (stages/extract.extract_text, map-only)
      ├─ (href, anchor) extraction(ops/anchors.extract_anchors, map-only)
      │    └─ href → doc_id       (resolve_links: canonicalize both
      │         resolution          sides + ONE distributed hash join)
      ├─ PageRank over the edges  (ops/graph.pagerank — integer
      │    → static-rank parquet    fixed-point, bit-exact)
      ├─ anchor aggregation       (ops/anchors.aggregate_anchor_text,
      │    → corpus join            one exchange + distributed join)
      └─ build_index with streams body=0, anchor=1
           (build/builder — fused spill, salted heads, resumable)

Serving: ``blended_search`` = BM25 over body+anchor × the PageRank
prior (same one-multiply recipe as the ``static_rank_topk`` oracle).

The reference has no crawl-side tooling at all (it ingests
pre-extracted chunks, src/Chunks/src/ChunkReader.cpp) — this module is
the upstream pipeline its users run elsewhere, expressed Ray-Data-first.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from bitfunnel_ray.functions.hashing import hash_terms
from bitfunnel_ray.query.wand import topk_order


def _url_key_rows(t, *, col: str, id_col: str, out: str, url_out: str,
                  payload_col: str | None = None):
    """One side of a url join: (key = 64-bit hash of the canonical url,
    ``out`` = id or payload, ``url_out`` = the canonical url, which
    ``_same_url`` compares after the join).  Canonical-url hashing is
    NON-memoized — urls are near-unique, and the term-hash memo must stay
    for terms (functions/hashing.hash_terms docstring).  Zero-column empty
    blocks (Ray 2.49 skip-map artifacts) pass through typed."""
    from bitfunnel_ray.ops.urls import canonicalize_url_array

    out_type = pa.string() if payload_col else pa.int64()
    if len(t) == 0 or col not in t.column_names:
        return pa.table({"key": pa.array([], pa.int64()), out: pa.array([], out_type),
                         url_out: pa.array([], pa.string())})
    curl = canonicalize_url_array(t[col])
    h = hash_terms(np.asarray(curl.to_pylist(), dtype=object), memoize=False)
    val = (
        t[payload_col].cast(pa.string())
        if payload_col
        else t[id_col].cast(pa.int64())
    )
    return pa.table({"key": pa.array(h.view(np.int64), pa.int64()), out: val,
                     url_out: curl})


def _same_url(t, *, out: pa.Schema):
    """The ``out`` columns of the joined rows whose two canonical urls
    agree: equal 64-bit hashes of different urls are a collision, not a
    link."""
    if len(t) == 0 or "href_url" not in t.column_names:
        return out.empty_table()
    return t.filter(pc.equal(t["href_url"], t["page_url"])).select(out.names)


def resolve_links(links, pages_urls, *, href_col: str = "href",
                  url_col: str = "url", id_col: str = "doc_id",
                  num_partitions: int | None = None):
    """(src, href) × (doc_id, url) → (src, dst) edges: canonicalize BOTH
    sides with the same recipe (ops/urls), then one co-partitioned inner
    join (ops/joins.inner_join_cp) on the 64-bit hash of the canonical
    url — the same hash-identity space every other exchange in this
    engine uses (term hashes, content hashes; collision odds ~n²/2^64).
    Hrefs pointing outside the corpus simply don't join (dropped) —
    exactly what a crawler's frontier/dedup layer does with out-of-scope
    links.  inner_join_cp (not ``Dataset.join``) because link extraction
    yields EMPTY blocks for linkless page batches, which on this Ray
    (2.49) skip upstream schema-changing maps and kill the pyarrow join
    operator."""
    from functools import partial as _p

    from bitfunnel_ray.ops.joins import inner_join_cp

    left = links.select_columns([id_col, href_col]).map_batches(
        _p(_url_key_rows, col=href_col, id_col=id_col, out="src", url_out="href_url"),
        batch_format="pyarrow",
    )
    right = pages_urls.select_columns([id_col, url_col]).map_batches(
        _p(_url_key_rows, col=url_col, id_col=id_col, out="dst", url_out="page_url"),
        batch_format="pyarrow",
    )
    return inner_join_cp(
        left, right, key="key", num_partitions=num_partitions,
        # explicit: the link side is EMPTY for a linkless corpus and
        # schema inference would return None
        left_schema=pa.schema([("key", pa.int64()), ("src", pa.int64()),
                               ("href_url", pa.string())]),
        right_schema=pa.schema([("key", pa.int64()), ("dst", pa.int64()),
                                ("page_url", pa.string())]),
    ).map_batches(
        _p(_same_url, out=pa.schema([("src", pa.int64()), ("dst", pa.int64())])),
        batch_format="pyarrow",
    )


def build_web_index(
    pages,
    out_dir: str,
    *,
    cfg=None,
    blocked_prefixes: tuple = (),
    pagerank_iters: int = 3,
):
    """pages Dataset(doc_id, url, html) → index segment at ``out_dir``
    (body + anchor streams) plus ``{out_dir}_rank/`` static-rank parquet.
    Returns (manifest, rank_path)."""
    from bitfunnel_ray.build.builder import build_index
    from bitfunnel_ray.config import EngineConfig
    from bitfunnel_ray.ops.anchors import (
        aggregate_anchor_text,
        anchor_corpus,
        extract_anchors,
    )
    from bitfunnel_ray.ops.graph import pagerank
    from bitfunnel_ray.ops.urls import filter_url_prefixes
    from bitfunnel_ray.stages.extract import extract_text

    if blocked_prefixes:
        pages = filter_url_prefixes(pages, "url", tuple(blocked_prefixes))
    # one materialization point: every downstream arm (text, links,
    # url-resolution right side) reads the filtered pages
    pages = pages.materialize()

    links = extract_anchors(pages, html_col="html", src_col="doc_id")
    edges = resolve_links(
        links, pages.select_columns(["doc_id", "url"])
    ).materialize()

    rank_path = f"{out_dir}_rank"
    pagerank(edges, n_iter=pagerank_iters).write_parquet(rank_path)

    anchors = _resolve_anchor_targets(links, pages)
    anchor_table = aggregate_anchor_text(
        anchors, target_col="doc_id", anchor_col="anchor"
    )

    corpus = extract_text(pages, html_col="html", out_col="text", normalize_ws=True)
    joined = anchor_corpus(corpus, anchor_table)

    cfg = cfg or EngineConfig(
        max_gram=1,
        num_buckets=8,
        streams=(("body", "text", 0), ("anchor", "anchor_text", 1)),
        # the flagship pipeline serves users directly — ship the vocab
        # sidecar so suggest / term~d fuzzy / correct work on every
        # front out of the box (same spill pass, no extra corpus read)
        extra={"vocab_sidecar": True},
    )
    manifest = build_index(joined, out_dir, cfg)
    return manifest, rank_path


def _resolve_anchor_targets(links, pages, *, num_partitions: int | None = None):
    """(src, href, anchor) × pages(doc_id, url) → (doc_id=target, anchor):
    same co-partitioned canonical-url-hash join as ``resolve_links``
    (ops/joins.inner_join_cp) and url check, carrying the anchor text."""
    from functools import partial as _p

    from bitfunnel_ray.ops.joins import inner_join_cp

    left = links.select_columns(["href", "anchor"]).map_batches(
        _p(_url_key_rows, col="href", id_col="doc_id", out="anchor",
           url_out="href_url", payload_col="anchor"),
        batch_format="pyarrow",
    )
    right = pages.select_columns(["doc_id", "url"]).map_batches(
        _p(_url_key_rows, col="url", id_col="doc_id", out="doc_id", url_out="page_url"),
        batch_format="pyarrow",
    )
    return inner_join_cp(
        left, right, key="key", num_partitions=num_partitions,
        left_schema=pa.schema([("key", pa.int64()), ("anchor", pa.string()),
                               ("href_url", pa.string())]),
        right_schema=pa.schema([("key", pa.int64()), ("doc_id", pa.int64()),
                                ("page_url", pa.string())]),
    ).map_batches(
        _p(_same_url, out=pa.schema([("doc_id", pa.int64()), ("anchor", pa.string())])),
        batch_format="pyarrow",
    )


def load_static_rank(rank_path: str) -> dict:
    """Static-rank parquet → {doc_id: rank} (node-count sized — the
    rank table is O(corpus docs), served from memory like the doc map)."""
    import pyarrow.parquet as pq

    t = pq.read_table(rank_path)
    return dict(zip(t["node"].to_pylist(), t["rank"].to_pylist()))


def blended_search(eng, ranks: dict, query: str, k: int = 10) -> pa.Table:
    """BM25 over the index's streams × the PageRank prior:
    blended = round(bm25, 6) * rank (one IEEE multiply, same recipe the
    static_rank_topk oracle hash-checks).  Docs absent from the rank
    table (no in/out links survived) get the MINIMUM achieved rank as a
    neutral prior — integer fixed-point ranks sit near scale/N (~1e6 for
    a 1M-node graph at scale 1e12), so an earlier default of 1 buried
    orphan pages ~6 orders of magnitude below every linked page instead
    of letting pure-text relevance surface them."""
    t = eng.search(query, k=1_000_000)
    doc = t["doc_id"].to_numpy().astype(np.int64)
    score = np.round(t["score"].to_numpy(), 6)
    floor = min(ranks.values()) if ranks else 1
    prior = np.array([ranks.get(int(d), floor) for d in doc], dtype=np.float64)
    blended = score * prior
    order = topk_order(blended, doc, k)
    return pa.table(
        {
            "rank": pa.array(np.arange(1, len(order) + 1), pa.int64()),
            "doc_id": pa.array(doc[order], pa.int64()),
            "blended": pa.array(blended[order], pa.float64()),
        }
    )
