"""Anchor-text pipeline: extract (href, anchor) pairs from pages,
aggregate incoming anchor text per target document, and attach it to the
corpus as an extra indexed STREAM.

Anchor text is the classic link-derived relevance signal: the words
other pages use to link to a document often describe it better than its
own body (navigational queries resolve almost entirely on anchors).
The reference engine's stream machinery exists for exactly this kind of
per-document auxiliary text (StreamConfiguration,
/root/reference/src/Common/Configuration/src/StreamConfiguration.cpp:52-143;
chunk format carries per-document streams, ChunkReader.cpp:126-131) but
the reference ships no link extractor/aggregator — this module supplies
the missing half and feeds the existing multi-stream build
(``EngineConfig.streams``), so ``anchor:<term>`` queries work through
the ordinary boolean/BM25 path.

Scale shape (100 TB corpus):

* ``extract_anchors`` — map-only, vectorized (one split + two
  regex-extracts per block); output is (src, href, anchor) edge rows,
  a small fraction of page bytes.
* ``aggregate_anchor_text`` — ONE hash exchange keyed on the target
  doc id, then a per-block sort + Arrow ``hash_list`` + ``binary_join``
  kernel.  The anchor strings must co-locate with their target, so the
  exchange carries them — that's inherent to the problem, and anchor
  text is tiny next to page bodies.  Within-target order is
  lexicographic (sorted before grouping), so the result is
  deterministic under any block layout and matches a
  ``string_agg(anchor ORDER BY anchor)`` SQL oracle.
* ``anchor_corpus`` — the co-partitioned left-outer join
  (``ops/joins.left_join_cp``) of the corpus against the per-target
  anchor table, with its unique-per-doc check on; docs nobody links to
  get an empty anchor stream.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# fragment after splitting on `href="` looks like  URL">ANCHOR</a>rest
_HREF_RE = '^(?P<u>[^"]*)"'
_ANCHOR_RE = '^(?P<u>[^"]*)"[^<>]*>(?P<a>[^<]*)'


def extract_anchors_batch(
    batch: pa.Table, *, html_col: str = "html", src_col: str = "doc_id"
) -> pa.Table:
    """(src, html) rows → (src, href, anchor) rows, one per href
    occurrence, document order preserved.  ``anchor`` is the text
    between the tag's ``>`` and the next ``<``; a malformed tag (no
    closing ``>`` before the next ``<``) yields anchor ``''`` but keeps
    the href.  Unterminated hrefs (no closing quote) are dropped —
    same contract as graph.extract_links_batch."""
    s = pc.cast(pc.fill_null(batch[html_col], b""), pa.string())
    parts = pc.split_pattern(s, 'href="')
    lengths = pc.list_value_length(parts).to_numpy().astype(np.int64)
    flat = pc.list_flatten(parts)
    n = len(flat)
    keep = np.ones(n, bool)
    starts = np.concatenate([[0], np.cumsum(lengths[:-1])]).astype(np.int64)
    keep[starts[lengths > 0]] = False  # fragment 0 precedes any href
    closed = pc.match_substring(flat, '"').to_numpy(zero_copy_only=False)
    keep &= np.asarray(closed, bool)
    src_vals = batch[src_col].to_numpy(zero_copy_only=False)
    srcs = np.repeat(src_vals, lengths)[keep]
    kept = flat.filter(pa.array(keep))
    hrefs = pc.struct_field(pc.extract_regex(kept, _HREF_RE), "u")
    withtag = pc.extract_regex(kept, _ANCHOR_RE)
    anchors = pc.fill_null(pc.struct_field(withtag, "a"), "")
    return pa.table(
        {
            src_col: pa.array(srcs, pa.from_numpy_dtype(src_vals.dtype)),
            "href": hrefs,
            "anchor": anchors,
        }
    )


def extract_anchors(pages, *, html_col: str = "html", src_col: str = "doc_id"):
    """Dataset(src, html, ...) → Dataset(src, href, anchor)."""
    from functools import partial

    return pages.select_columns([src_col, html_col]).map_batches(
        partial(extract_anchors_batch, html_col=html_col, src_col=src_col),
        batch_format="pyarrow",
    )


def _agg_block(t: pa.Table, target_col: str, anchor_col: str) -> pa.Table:
    out_schema = pa.schema([(target_col, pa.int64()), ("anchor_text", pa.string())])
    if len(t) == 0:
        return out_schema.empty_table()
    t = pa.table(
        {
            target_col: t[target_col].cast(pa.int64()),
            anchor_col: pc.cast(pc.fill_null(t[anchor_col], ""), pa.string()),
        }
    )
    # deterministic within-target order: lexicographic by anchor
    t = t.take(
        pc.sort_indices(
            t, sort_keys=[(target_col, "ascending"), (anchor_col, "ascending")]
        )
    )
    g = t.group_by(target_col, use_threads=False).aggregate([(anchor_col, "list")])
    joined = pc.binary_join(g[f"{anchor_col}_list"], " ")
    return pa.table(
        {target_col: g[target_col], "anchor_text": joined}, schema=out_schema
    )


def aggregate_anchor_text(
    links, *, target_col: str = "doc_id", anchor_col: str = "anchor"
):
    """Dataset(target, anchor, ...) → Dataset(target, anchor_text) with
    one row per linked-to document; ``anchor_text`` is all incoming
    anchors (multiplicity kept) joined by a single space in
    lexicographic order.  One hash exchange on the target id."""
    from functools import partial

    from bitfunnel_ray.ops.exchange import exchange

    return exchange(
        links.select_columns([target_col, anchor_col]),
        [target_col],
        partial(_agg_block, target_col=target_col, anchor_col=anchor_col),
    )


def anchor_corpus(
    corpus,
    anchors,
    *,
    doc_col: str = "doc_id",
    anchor_text_col: str = "anchor_text",
    num_partitions: int | None = None,
):
    """Left-outer ATTACH: every corpus row appears exactly once and gains
    ``anchor_text`` ('' when nobody links to it).  Distributed — neither
    side is broadcast, both are hash-partitioned on ``doc_col``.

    Contract: ``anchors`` must be UNIQUE per ``doc_col`` (the
    ``aggregate_anchor_text`` output).  Duplicate anchor rows for a doc
    RAISE in the join kernel (they are co-located after the exchange,
    so the check is free) — the old ``Dataset.join`` silently duplicated
    corpus rows instead, which double-ingested documents downstream.

    ``ops/joins.left_join_cp`` rather than ``Dataset.join``: an
    anchorless corpus (or an anchorless shuffle partition) emits
    zero-column empty blocks, and on this Ray (2.49) those kill the
    pyarrow join operator ("No match for FieldRef doc_id")."""
    from bitfunnel_ray.ops.joins import left_join_cp

    base = corpus.schema().base_schema
    anchor_schema = pa.schema(
        [base.field(doc_col), pa.field(anchor_text_col, pa.string())]
    )
    names = base.names + [anchor_text_col]

    def fill(t: pa.Table) -> pa.Table:  # unlinked docs: null → ''
        i = t.schema.get_field_index(anchor_text_col)
        return t.set_column(i, anchor_text_col, pc.fill_null(t[i], "")).select(names)

    return left_join_cp(
        corpus,
        anchors.select_columns([doc_col, anchor_text_col]),
        key=doc_col,
        num_partitions=num_partitions,
        left_schema=base,
        right_schema=anchor_schema,
        right_unique=True,
    ).map_batches(fill, batch_format="pyarrow")
