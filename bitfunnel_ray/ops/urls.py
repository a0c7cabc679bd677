"""URL canonicalization + URL-level dedup for web corpora.

Common-Crawl-style pipelines dedup by canonical URL before any content
hashing: the same page is fetched as ``http://www.Example.org/a/``,
``https://example.org/a?utm_source=feed`` and ``https://example.org/a#x``.
Canonicalization here is a fixed, documented recipe applied with
RE2/vectorized kernels (pyarrow) whose DuckDB translation is generated
from the SAME recipe table (single source of truth, the
``redact.redact_sql`` pattern), so the oracle is byte-identical:

1. strip the fragment (``#...``),
2. strip the query string (``?...`` — tracking-param-only queries are
   the overwhelming web case; pipelines that must keep semantic queries
   would whitelist instead, same shape),
3. lowercase the ``scheme://host`` head (paths stay case-sensitive),
4. drop a default port (``:80``/``:443``) and a ``www.`` host prefix,
5. strip trailing slashes (idempotent — ``//`` tails collapse too).

URL dedup is then exact dedup on the canonical string: hash-partition by
canonical URL, keep the minimum doc_id per group — the shuffle carries
(canon_url, doc_id) only, never page bytes.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

# (applied in order to the full url) — strip fragment, then query
_STRIP_PATTERNS = (r"#.*$", r"\?.*$")
_HEAD_RE = r"^[a-zA-Z][a-zA-Z0-9+.-]*://[^/]*"


def canonicalize_url_array(url: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Vectorized canonicalization of a URL string column (see module
    docstring for the recipe)."""
    if isinstance(url, pa.ChunkedArray):
        url = url.combine_chunks()
    u = pc.fill_null(url, "")
    for pat in _STRIP_PATTERNS:
        u = pc.replace_substring_regex(u, pat, "")
    # split into scheme://host head (lowercased, port/www-normalized) + path tail
    head = pc.extract_regex(u, f"(?P<head>{_HEAD_RE})")
    head_s = pc.struct_field(head, "head")
    has_head = pc.is_valid(head_s)
    head_s = pc.fill_null(head_s, "")
    head_s = pc.utf8_lower(head_s)
    head_s = pc.replace_substring_regex(head_s, r":(80|443)$", "")
    head_s = pc.replace_substring_regex(head_s, r"://www\.", "://")
    tail = pc.replace_substring_regex(u, _HEAD_RE, "")
    tail = pc.replace_substring_regex(tail, r"/+$", "")
    joined = pc.binary_join_element_wise(head_s, tail, "")
    # rows with no scheme://host head pass through the stripped url
    return pc.if_else(has_head, joined, u)


def canonical_sql(url_expr: str) -> str:
    """The DuckDB expression computing the same canonicalization for a
    SQL url expression — generated from the same pattern constants."""
    u = url_expr
    for pat in _STRIP_PATTERNS:
        u = f"regexp_replace({u}, '{pat}', '', 'g')"
    head = f"lower(coalesce(regexp_extract({u}, '{_HEAD_RE}'), ''))"
    head = f"regexp_replace({head}, ':(80|443)$', '')"
    head = f"regexp_replace({head}, '://www\\.', '://')"
    tail = f"regexp_replace(regexp_replace({u}, '{_HEAD_RE}', ''), '/+$', '')"
    return (
        f"CASE WHEN regexp_matches({u}, '{_HEAD_RE}') "
        f"THEN {head} || {tail} ELSE {u} END"
    )


def canonicalize_urls(
    ds: "ray.data.Dataset", url_col: str = "url", out_col: str = "canon_url"
) -> "ray.data.Dataset":
    def batch(t: pa.Table) -> pa.Table:
        return t.append_column(out_col, canonicalize_url_array(t[url_col]))

    return ds.map_batches(batch, batch_format="pyarrow")


def url_dedup(
    ds: "ray.data.Dataset", url_col: str = "url", id_col: str = "doc_id"
) -> "ray.data.Dataset":
    """Keep the minimum ``id_col`` row id per canonical URL → (canon_url,
    doc_id) of survivors.  One hash exchange on the canonical string;
    per-block vectorized min-by-group on the co-located partitions."""
    from bitfunnel_ray.ops.exchange import exchange

    slim = canonicalize_urls(
        ds.select_columns([id_col, url_col]), url_col, "canon_url"
    ).select_columns(["canon_url", id_col])

    def keep_min(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table(
                {"canon_url": pa.array([], pa.string()), id_col: pa.array([], pa.int64())}
            )
        urls = t["canon_url"].combine_chunks() if isinstance(t["canon_url"], pa.ChunkedArray) else t["canon_url"]
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        d = pc.dictionary_encode(urls)
        idx = d.indices.to_numpy()
        best = np.full(len(d.dictionary), np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(best, idx, ids)
        return pa.table(
            {"canon_url": d.dictionary, id_col: pa.array(best, pa.int64())}
        )

    return exchange(slim, ["canon_url"], keep_min)


def filter_url_prefixes(
    ds: "ray.data.Dataset",
    url_col: str,
    blocked_prefixes: "tuple[str, ...] | list[str]",
    keep: bool = False,
) -> "ray.data.Dataset":
    """robots.txt-style Disallow filtering: drop (or with ``keep=True``,
    retain) rows whose URL starts with ANY blocked prefix.  Map-only —
    one anchored RE2 alternation per block, the prefix list compiled
    once at pipeline build time (it is driver-small, like a parsed
    robots rule set); no per-row python, no shuffle."""
    import re as _re

    if not blocked_prefixes:
        return ds if not keep else ds.limit(0)
    pat = "^(?:" + "|".join(_re.escape(p) for p in blocked_prefixes) + ")"

    def block(t: pa.Table) -> pa.Table:
        hit = pc.match_substring_regex(
            pc.cast(pc.fill_null(t[url_col], ""), pa.string()), pat
        )
        return t.filter(hit if keep else pc.invert(hit))

    return ds.map_batches(block, batch_format="pyarrow")
