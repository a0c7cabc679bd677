"""CLI — the BitFunnelTool surface re-expressed
(reference: tools/BitFunnel/src/BitFunnelTool.cpp:87-157 exposes
``filter | querylog | repl | shard | statistics | termtable``).

    python -m bitfunnel_ray.cli statistics <corpus_dir_or_sfdir> <out_dir>
    python -m bitfunnel_ray.cli build      <corpus_dir_or_sfdir> <index_dir>
    python -m bitfunnel_ray.cli filter     <corpus_dir_or_sfdir> <out_dir> [--sample F] [--min-postings N] [--max-postings N] [--count N] [--lang L]
    python -m bitfunnel_ray.cli querylog   <index_or_corpus> <out.parquet> [--count N]
    python -m bitfunnel_ray.cli query      <index_dir> "<query>" [-k K]
    python -m bitfunnel_ray.cli repl       <index_dir>
    python -m bitfunnel_ray.cli analyze    <index_dir>

``shard``/``termtable`` configuration steps are folded into ``build``
(segment layout replaces TermTable+slices; see SURVEY.md §7.6); ``analyze``
reports posting-list stats in place of bit densities
(RowTableAnalyzer analog, src/Index/src/RowTableAnalyzer.cpp:165-290).

Owns its Ray session (scripts init + shutdown; library code never does).
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _init_ray():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "8")),
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def _load_corpus(path: str):
    import ray.data as rd

    from bitfunnel_ray.sources.corpus import corpus_from_documents

    if os.path.isfile(path):  # a single parquet file is a corpus too
        return rd.read_parquet(path)
    if os.path.exists(os.path.join(path, "documents.parquet")):
        return corpus_from_documents(path)
    files = [os.path.join(path, f) for f in os.listdir(path) if f.endswith(".parquet")]
    return rd.read_parquet(files if files else path)


def cmd_statistics(args):
    from bitfunnel_ray.build.stats import doc_meta, doclen_histogram, document_frequency_table
    from bitfunnel_ray.config import EngineConfig

    cfg = EngineConfig(max_gram=args.gram)
    corpus = _load_corpus(args.corpus)
    os.makedirs(args.out, exist_ok=True)
    document_frequency_table(corpus, cfg).write_parquet(os.path.join(args.out, "docfreq"))
    doclen_histogram(_load_corpus(args.corpus), cfg).write_parquet(
        os.path.join(args.out, "histogram")
    )
    doc_meta(_load_corpus(args.corpus), cfg).write_parquet(os.path.join(args.out, "docmeta"))
    print(json.dumps({"out": args.out, "status": "ok"}))


def cmd_chunks_export(args):
    """Export a corpus as reference chunk files (the NUL-delimited format
    of src/Chunks/src/ChunkReader.cpp) — interchange back to the
    reference toolchain."""
    from bitfunnel_ray.sources.chunks import write_chunks

    n = write_chunks(_load_corpus(args.corpus), args.out)
    print(json.dumps({"out": args.out, "files": n, "status": "ok"}))


def cmd_chunks_import(args):
    """Ingest reference chunk files into a parquet corpus in the
    canonical schema (stream 0 -> text)."""
    import glob as _glob

    from bitfunnel_ray.sources.chunks import corpus_from_chunks

    paths = sorted(_glob.glob(os.path.join(args.chunks, "*.chunk"))) or args.chunks
    ds = corpus_from_chunks(paths)
    ds.write_parquet(args.out)
    print(json.dumps({"out": args.out, "status": "ok"}))


def cmd_dedup_spans(args):
    """Exact substring dedup (Lee et al. 2022 span strip, keep-first):
    rewrite the corpus with duplicated k-token spans removed from all but
    their first occurrence (ops/substrdedup.py)."""
    import pyarrow.compute as _pc

    from bitfunnel_ray.ops.substrdedup import dedup_substrings

    ds = _load_corpus(args.corpus)
    out = dedup_substrings(ds, k=args.k)
    out.write_parquet(args.out)
    import pyarrow.parquet as _pq
    import ray.data as _rd

    stats = (
        _rd.read_parquet(args.out)
        .map_batches(
            lambda t: __import__("pyarrow").table(
                {"chars": _pc.utf8_length(t["text"]).cast("int64")}
            ),
            batch_format="pyarrow",
        )
        .sum("chars")
    )
    print(
        json.dumps(
            {"out": args.out, "k": args.k, "chars_kept": int(stats), "status": "ok"}
        )
    )


def cmd_export(args):
    """Dump EVERY document matching a boolean query to partitioned
    parquet (the ES scroll/export analog): the index answers the match
    set, the candidate ids broadcast once, and the corpus streams through
    a vectorized isin filter — no pagination loop, no driver text."""
    import numpy as np
    import pyarrow as pa
    import ray

    from bitfunnel_ray.query.engine import SearchEngine

    eng = SearchEngine(args.index, load_urls=False)
    matches = eng.eval(eng._parse_rewritten(args.query))
    ids_ref = ray.put(np.sort(matches.astype(np.int64)))

    def keep(t: pa.Table) -> pa.Table:
        allowed = ray.get(ids_ref)
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.filter(pa.array(np.isin(ids, allowed)))

    out = _load_corpus(args.corpus).map_batches(keep, batch_format="pyarrow")
    out.write_parquet(args.out)
    print(
        json.dumps(
            {"out": args.out, "query": args.query, "n_matches": int(len(matches)), "status": "ok"}
        )
    )


def cmd_fetch(args):
    """Stored-field point lookup (ES GET _source analog): print the
    docstore rows for the given doc ids."""
    from bitfunnel_ray.query.engine import SearchEngine

    eng = SearchEngine(args.index, load_urls=False)
    t = eng.fetch([int(d) for d in args.doc_ids])
    print(t.to_pandas().to_string(index=False))


def cmd_shuffle_out(args):
    """Seeded deterministic shuffled-shard writer (ops/shuffleout.py) —
    the training-loader output layout: byte-identical reruns, per-shard
    resume."""
    from bitfunnel_ray.ops.shuffleout import write_shuffled_shards

    res = write_shuffled_shards(
        _load_corpus(args.corpus), args.out, seed=args.seed, num_shards=args.shards
    )
    print(json.dumps(res))


def cmd_snapshot(args):
    """Snapshot an index (any locator) into a repository directory —
    incremental: unchanged segment files are skipped by digest."""
    from bitfunnel_ray.build.snapshot import snapshot_index

    res = snapshot_index(args.index, args.snap)
    print(json.dumps({**res, "snap": args.snap, "status": "ok"}))


def cmd_snapshot_verify(args):
    """Re-digest every repository file against the snapshot manifest."""
    from bitfunnel_ray.build.snapshot import verify_snapshot

    bad = verify_snapshot(args.snap)
    print(
        json.dumps(
            {
                "snap": args.snap,
                "bad_files": len(bad),
                "status": "ok" if len(bad) == 0 else "corrupt",
            }
        )
    )
    return 0 if len(bad) == 0 else 1


def cmd_snapshot_gc(args):
    """Delete repository segments not referenced by the current snapshot
    manifest (retention after compaction/re-ingest changed the live set)."""
    from bitfunnel_ray.build.snapshot import gc_snapshot

    print(json.dumps({**gc_snapshot(args.snap), "snap": args.snap, "status": "ok"}))


def cmd_restore(args):
    """Restore a snapshot into a destination root (digest-verified,
    atomic per file; prints the restored segment dirs)."""
    from bitfunnel_ray.build.snapshot import restore_index

    dirs = restore_index(args.snap, args.dest)
    print(json.dumps({"dest": args.dest, "segments": dirs, "status": "ok"}))


def cmd_warc_import(args):
    """Ingest WARC files (Common Crawl interchange, sources/warc.py)
    into a parquet pages table (url, warc_ts_s, html)."""
    from bitfunnel_ray.sources.warc import find_warc_files, pages_from_warc

    pages_from_warc(find_warc_files(args.warc)).write_parquet(args.out)
    print(json.dumps({"out": args.out, "status": "ok"}))


def cmd_warc_export(args):
    """Export a parquet pages table (url, warc_ts_s, html) as WARC
    resource records (optionally gzipped)."""
    import ray.data as rd

    from bitfunnel_ray.sources.warc import write_warc

    n = write_warc(rd.read_parquet(args.pages), args.out, compress=args.gzip)
    print(json.dumps({"out": args.out, "files": n, "status": "ok"}))


def cmd_diff(args):
    """Re-crawl delta between two corpora: added/removed/changed doc
    counts (and optional per-doc parquet)."""
    from bitfunnel_ray.ops.diffstats import corpus_diff

    d = corpus_diff(_load_corpus(args.old), _load_corpus(args.new))
    if args.out:
        d.write_parquet(args.out)
        import pandas as _pd

        df = _pd.read_parquet(args.out)
    else:
        df = d.to_pandas()
    counts = df["status"].value_counts().to_dict() if len(df) else {}
    print(json.dumps({"added": int(counts.get("added", 0)),
                      "removed": int(counts.get("removed", 0)),
                      "changed": int(counts.get("changed", 0))}))


def cmd_drift(args):
    """Top drifted terms between two corpora (KL-summand ranking)."""
    from bitfunnel_ray.ops.diffstats import drift_terms

    t = drift_terms(_load_corpus(args.old), _load_corpus(args.new), k=args.k)
    for term, v in zip(t["term"].to_pylist(), t["drift"].to_pylist()):
        print(f"{v:+.9f}\t{term}")


def cmd_grep(args):
    """Distributed corpus grep: per-doc occurrence counts of a literal
    substring (or RE2 regex with --regex); prints a JSON summary and
    optionally writes the per-doc hits."""
    from bitfunnel_ray.ops.scan import regex_scan, substring_scan

    ds = _load_corpus(args.corpus).select_columns(["doc_id", "text"])
    hits = (regex_scan if args.regex else substring_scan)(ds, args.pattern)
    if args.out:
        hits.write_parquet(args.out)
        n_docs = None
    import pandas as _pd

    agg = hits.to_pandas() if args.out is None else _pd.read_parquet(args.out)
    print(
        json.dumps(
            {
                "pattern": args.pattern,
                "regex": bool(args.regex),
                "matching_docs": int(len(agg)),
                "total_hits": int(agg["n_hits"].sum()) if len(agg) else 0,
            }
        )
    )


def cmd_ngrams(args):
    """Top-k corpus n-grams by frequency (LM-statistics head)."""
    from bitfunnel_ray.ops.ngrams import top_ngrams

    t = top_ngrams(_load_corpus(args.corpus), n=args.n, k=args.k)
    for gram, cnt in zip(t["gram"].to_pylist(), t["count"].to_pylist()):
        print(f"{cnt}\t{gram}")


def cmd_build(args):
    from bitfunnel_ray.build.builder import build_index
    from bitfunnel_ray.config import EngineConfig

    cfg = EngineConfig(max_gram=args.gram, num_buckets=args.buckets)
    if getattr(args, "vocab", False):
        # per-segment (term, df, bucket) text stripes, written from the
        # SAME spill pass (no second corpus read) — enables suggest +
        # fuzzy on the local engine AND both sharded serving fronts
        import dataclasses as _dc

        cfg = _dc.replace(cfg, extra={**cfg.extra, "vocab_sidecar": True})
    out = {}
    if getattr(args, "auto_bands", False):
        # TreatmentOptimal analog (build/treatopt.py): statistics pass →
        # df distribution → cost-driven per-band (codec, block size) plan,
        # then build under the derived bands.  Results are identical to a
        # default-band build (bands change the storage plan only).
        from bitfunnel_ray.build.stats import document_frequency_table
        from bitfunnel_ray.build.treatopt import optimal_bands_from_df

        import numpy as _np
        import pyarrow as _pa

        corpus = _load_corpus(args.corpus)
        dft = document_frequency_table(corpus, cfg, emit_text=False)
        batches = [
            b for b in dft.select_columns(["df"]).iter_batches(
                batch_format="pyarrow", batch_size=65536)
        ]
        # empty corpus → no batches; optimal_bands_from_df's own fallback
        # emits the (None, 128, varint) catch-all
        dfs = (
            _pa.concat_tables(batches)["df"].to_numpy()
            if batches
            else _np.empty(0, _np.int64)
        )
        n_docs_est = corpus.count()
        bands = optimal_bands_from_df(dfs, n_docs_est)
        # dataclasses.replace keeps every earlier flag (e.g. --vocab's
        # extra['vocab_sidecar']) — rebuilding cfg from scratch here once
        # silently dropped the vocab sidecar when both flags were given
        import dataclasses as _dc2

        cfg = _dc2.replace(cfg, treatment_bands=bands)
        out["auto_bands"] = [list(b) for b in bands]
    else:
        corpus = _load_corpus(args.corpus)
    manifest = build_index(corpus, args.index, cfg)
    out.update({k: manifest[k] for k in ("n_docs", "avgdl", "build_seconds", "complete")})
    print(json.dumps(out))


def cmd_group(args):
    """Ingest-group lifecycle (IIngestor.h:158-176 analog; build/groups.py):
    `group ROOT open ID` / `close` / `expire ID` / `status` /
    `ingest CORPUS [--gram --buckets]`.  Expiry removes the group's
    segments; serving any engine on ROOT sees only non-expired groups."""
    from bitfunnel_ray.build import groups as grp

    if args.action == "open":
        grp.open_group(args.root, args.id)
        print(json.dumps({"opened": args.id}))
    elif args.action == "close":
        grp.close_group(args.root)
        print(json.dumps({"closed": True}))
    elif args.action == "expire":
        n = grp.expire_group(args.root, args.id)
        print(json.dumps({"expired": args.id, "segments_removed": n}))
    elif args.action == "ingest":
        from bitfunnel_ray.config import EngineConfig

        cfg = EngineConfig(max_gram=args.gram, num_buckets=args.buckets)
        man = grp.ingest(args.root, _load_corpus(args.id), cfg)
        print(json.dumps({k: man[k] for k in ("n_docs", "avgdl", "complete")}))
    else:
        print(json.dumps(grp.status(args.root)))


def cmd_filter(args):
    from bitfunnel_ray.config import EngineConfig
    from bitfunnel_ray.stages import filters

    ds = _load_corpus(args.corpus)
    if args.lang:
        ds = filters.lang_filter(ds, args.lang)
    if args.sample is not None:
        ds = filters.sample_filter(ds, args.sample)
    if args.min_postings is not None or args.max_postings is not None:
        ds = filters.posting_count_filter(
            ds, args.min_postings or 0, args.max_postings or 1 << 30, EngineConfig()
        )
    if args.count is not None:
        ds = filters.first_n(ds, args.count)
    ds.write_parquet(args.out)
    print(json.dumps({"out": args.out, "status": "ok"}))


def cmd_cross_dedup(args):
    """Incremental dedup: drop from CORPUS every doc that exactly or
    nearly duplicates a doc in REF (ops/dedup.py minhash_cross_dedup) —
    dedupe a fresh crawl against the already-kept corpus."""
    from bitfunnel_ray.ops.dedup import minhash_cross_dedup

    new_c = _load_corpus(args.corpus)
    n_in = new_c.count()  # metadata-only for parquet corpora
    out = minhash_cross_dedup(
        new_c,
        _load_corpus(args.ref),
        k=args.shingle,
        bands=args.bands,
        threshold=args.threshold,
    ).materialize()  # one execution serves both the count and the write
    n_out = out.count()
    out.write_parquet(args.out)
    print(json.dumps({"docs_in": n_in, "kept": n_out, "dropped": n_in - n_out}))


def cmd_dedup(args):
    """Near-dup-free corpus copy: MinHash+LSH candidate pairs →
    distributed exact-Jaccard verify → connected components → keep each
    cluster's minimum doc_id → anti-join → write partitioned parquet.
    The training-data dedup workflow as one command."""
    from bitfunnel_ray.ops.cc import dedup_canonical
    from bitfunnel_ray.ops.dedup import minhash_dedup_pairs

    ds = _load_corpus(args.corpus)
    pairs = minhash_dedup_pairs(
        ds, k=args.shingle, bands=args.bands, threshold=args.threshold
    )
    # dedup_canonical drops non-canonical cluster members via the
    # distributed anti-join — the removed set never lands on the driver
    # (the earlier version gathered the KEPT set, which is corpus-sized)
    out = dedup_canonical(ds, pairs)
    out.write_parquet(args.out)
    n_in, n_kept = ds.count(), out.count()
    print(
        json.dumps(
            {
                "out": args.out,
                "docs_in": int(n_in),
                "docs_kept": int(n_kept),
                "docs_removed": int(n_in - n_kept),
                "status": "ok",
            }
        )
    )


def cmd_percolate(args):
    """Match a corpus/stream against stored conjunctive queries (one
    query per line in a text file: whitespace-separated required terms);
    writes (query_id, doc_id) matches as parquet."""
    from bitfunnel_ray.query.percolate import percolate

    with open(args.queries) as fh:
        registry = {
            i: line.split() for i, line in enumerate(fh) if line.strip()
        }
    ds = _load_corpus(args.corpus)
    out = percolate(ds, registry)
    out.write_parquet(args.out)
    n = out.count()
    print(json.dumps({"out": args.out, "n_queries": len(registry), "matches": int(n), "status": "ok"}))


def cmd_querylog(args):
    import pyarrow.parquet as pq

    from bitfunnel_ray.build.stats import document_frequency_table
    from bitfunnel_ray.config import EngineConfig
    from bitfunnel_ray.pipelines.querylog import generate_query_log

    from bitfunnel_ray.build.stats import top_k_by

    df = top_k_by(
        document_frequency_table(_load_corpus(args.corpus), EngineConfig(max_gram=1))
        .select_columns(["term", "df", "term_hash"]),
        k=10000,
        col="df",
        tiebreak="term_hash",
    ).to_pandas()
    tbl = generate_query_log(df["term"].tolist(), args.count)
    pq.write_table(tbl, args.out)
    print(json.dumps({"out": args.out, "queries": len(tbl)}))


def cmd_query(args):
    from bitfunnel_ray.query.engine import SearchEngine

    tomb = None
    if getattr(args, "tombstones", None):
        import numpy as np
        import pyarrow.parquet as pq

        t = pq.read_table(args.tombstones, columns=["doc_id"])
        tomb = t["doc_id"].to_numpy().astype(np.uint64)
    eng = SearchEngine(args.index, tombstones=tomb)
    if getattr(args, "rank", None):
        from bitfunnel_ray.pipelines.webindex import blended_search, load_static_rank

        t = blended_search(eng, load_static_rank(args.rank), args.query, k=args.k)
    else:
        t = eng.search(args.query, k=args.k)
    print(t.to_pandas().to_string(index=False))


def cmd_delete_by_query(args):
    """Soft-delete every doc matching a boolean query (the Elasticsearch
    _delete_by_query analog): evaluate against the index, UNION the
    matching ids into the tombstones parquet (idempotent — already-listed
    ids don't double), print counts.  Deletions apply at serve time via
    ``SearchEngine(..., tombstones=...)`` / ``query --tombstones`` and
    are physically compacted away by ``merge``/``compact --tombstones``.
    ``--dry-run`` prints what WOULD be deleted and writes nothing."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from bitfunnel_ray.query.engine import SearchEngine
    from bitfunnel_ray.query.parser import parse_query

    existing = np.empty(0, dtype=np.uint64)
    if os.path.exists(args.tombstones):
        t = pq.read_table(args.tombstones, columns=["doc_id"])
        existing = np.sort(t["doc_id"].to_numpy().astype(np.uint64))
    # evaluate WITH existing tombstones applied, so n_deleted counts only
    # newly-dead docs and re-running the same query deletes zero
    eng = SearchEngine(
        args.index, load_urls=False,
        tombstones=existing if len(existing) else None,
    )
    matches = eng.eval(parse_query(args.query, eng.stream_map))
    merged = np.union1d(existing, matches)
    if not args.dry_run and len(matches):
        tmp = args.tombstones + ".tmp"
        pq.write_table(pa.table({"doc_id": pa.array(merged, pa.uint64())}), tmp)
        os.replace(tmp, args.tombstones)
    print(
        json.dumps(
            {
                "query": args.query,
                "n_deleted": int(len(matches)),
                "n_tombstones_total": int(len(merged)),
                "dry_run": bool(args.dry_run),
                "tombstones": args.tombstones,
            }
        )
    )


def cmd_webindex(args):
    """One-command web indexing: pages parquet (doc_id, url, html) →
    two-stream index + static-rank sidecar (pipelines/webindex.py)."""
    import json as _json

    import ray.data as rd

    from bitfunnel_ray.pipelines.webindex import build_web_index

    if args.from_warc:
        from bitfunnel_ray.sources.warc import (
            assign_doc_ids,
            find_warc_files,
            pages_from_warc,
        )

        pages = assign_doc_ids(pages_from_warc(find_warc_files(args.pages)))
    else:
        pages = rd.read_parquet(args.pages)
    blocked = tuple(args.disallow or ())
    manifest, rank_path = build_web_index(
        pages, args.index, blocked_prefixes=blocked, pagerank_iters=args.iters
    )
    print(_json.dumps({"n_docs": manifest.get("n_docs"), "index": args.index,
                       "rank": rank_path, "complete": bool(manifest.get("complete", True))}))


def cmd_explain(args):
    """Per-term BM25 contribution breakdown for (query, doc): the
    debugging surface for 'why did this doc rank here'."""
    from bitfunnel_ray.query.engine import SearchEngine

    eng = SearchEngine(args.index, load_urls=False)
    t = eng.explain(args.query, int(args.doc_id))
    print(t.to_pandas().to_string(index=False))


_REPL_HELP = """commands (BitFunnel Environment registry analog):
  query <q>      run a boolean/BM25 query (bare text works too)
  show term <t>  dict-row inspection: hash, df, cf, chunks, codec, bytes
  status         index totals (docs, avgdl, segments, dict rows)
  script <file>  execute commands from a file (reproducible sessions)
  fetch <doc_id> stored-field row for one document (needs a docstore)
  suggest <pfx>  df-ranked prefix completions (needs a suggest vocabulary)
  correct <q>    "did you mean" per out-of-vocabulary query token
  help           this text
  exit / quit    leave"""


def repl_execute(eng, line: str, *, _depth: int = 0) -> str:
    """Execute ONE REPL command and return its printable output — the
    command-registry analog of the reference REPL's Environment
    (tools/BitFunnel/src/Environment.cpp:78-98 registers query/show/
    script/status/... commands); factored out so scripts and tests drive
    the same dispatcher as the interactive loop."""
    line = line.strip()
    if not line or line.startswith("#"):
        return ""
    cmd, _, rest = line.partition(" ")
    rest = rest.strip()
    if cmd == "help":
        return _REPL_HELP
    if cmd == "status":
        rows = sum(len(s.dict) if s.dict is not None else 0 for s in eng.segments)
        return json.dumps(
            {
                "n_docs": eng.n_docs,
                "avgdl": round(eng.avgdl, 3),
                "segments": len(eng.segments),
                "dict_rows": int(rows),
                "max_gram": eng.max_gram,
            }
        )
    if cmd == "suggest":
        if not rest:
            return "usage: suggest <prefix>"
        try:
            t = eng.suggest(rest, k=10)
        except RuntimeError as e:
            return str(e)
        return json.dumps(
            [{"term": a, "df": b} for a, b in zip(t["term"].to_pylist(), t["df"].to_pylist())]
        )
    if cmd == "correct":
        if not rest:
            return "usage: correct <query>"
        try:
            t = eng.correct(rest)
        except RuntimeError as e:
            return str(e)
        return json.dumps(
            [
                {"token": a, "suggestion": b, "dist": c, "df": d}
                for a, b, c, d in zip(
                    t["token"].to_pylist(),
                    t["suggestion"].to_pylist(),
                    t["dist"].to_pylist(),
                    t["df"].to_pylist(),
                )
            ]
        )
    if cmd == "fetch":
        try:
            doc_id = int(rest.strip())
        except ValueError:
            return "usage: fetch <doc_id>"
        try:
            t = eng.fetch([doc_id])
        except FileNotFoundError as e:
            return str(e)
        if not len(t):
            return f"doc {doc_id}: not stored"
        return json.dumps({c: t[c][0].as_py() for c in t.column_names}, default=str)
    if cmd == "show":
        sub, _, term = rest.partition(" ")
        term = term.strip()
        if sub != "term" or not term:
            return "usage: show term <text>"
        # `BitFunnel show term` analog (REPL.cpp / Environment command
        # set): resolve text → stored hash → dict rows across segments
        from bitfunnel_ray.build.encode import CODECS
        from bitfunnel_ray.functions.hashing import murmur64a, ngram_hash

        toks = term.split()
        gram = len(toks)
        h = (
            murmur64a(term)
            if gram == 1
            else ngram_hash([murmur64a(t) for t in toks])
        )
        out = [f"term={term!r} gram={gram} hash=0x{h:016x}"]
        total_df = total_cf = total_chunks = total_bytes = 0
        for i, s in enumerate(eng.segments):
            rows = s.chunk_rows(h, gram)
            if not rows:
                continue
            np_col = s.dict["n_postings"]
            cf_col = s.dict["cf"]
            salt_col = s.dict["salt"]
            codec_col = s.dict["codec"] if "codec" in s.dict.column_names else None
            codec_names = {c.id: name for name, c in CODECS.items()}
            for r in rows:
                nbytes = sum(
                    len(s.dict[c][r].as_py())
                    for c in ("docs_payload", "tf_payload", "dl_payload")
                )
                out.append(
                    f"  seg {i} salt={salt_col[r].as_py()} "
                    f"df={np_col[r].as_py()} cf={cf_col[r].as_py()} "
                    f"codec={codec_names.get(codec_col[r].as_py() if codec_col is not None else 0, '?')} "
                    f"payload_bytes={nbytes}"
                )
                total_df += int(np_col[r].as_py())
                total_cf += int(cf_col[r].as_py())
                total_bytes += nbytes
                total_chunks += 1
        if total_chunks == 0:
            out.append("  (not in index)")
        else:
            out.append(
                f"  TOTAL chunks={total_chunks} df={total_df} cf={total_cf} "
                f"payload_bytes={total_bytes}"
            )
        return "\n".join(out)
    if cmd == "script":
        if _depth >= 4:
            return "error: script nesting too deep"
        try:
            with open(rest) as f:
                lines = f.read().splitlines()
        except OSError as e:
            return f"error: {e}"
        outs = []
        for ln in lines:
            if ln.strip() in ("exit", "quit"):
                break
            o = repl_execute(eng, ln, _depth=_depth + 1)
            if o:
                outs.append(o)
        return "\n".join(outs)
    q = rest if cmd == "query" else line
    try:
        return eng.search(q, k=10).to_pandas().to_string(index=False)
    except Exception as e:
        return f"error: {e}"


def cmd_links(args):
    """Extract href links (optionally with anchor text) from an html
    column into a (src, href[, anchor]) parquet — the crawl-side feed
    for the graph and anchor pipelines."""
    import ray.data as rd

    ds = rd.read_parquet(args.pages)
    if args.anchors:
        from bitfunnel_ray.ops.anchors import extract_anchors

        out = extract_anchors(ds, html_col=args.html_col, src_col=args.src_col)
    else:
        from bitfunnel_ray.ops.graph import extract_links

        out = extract_links(ds, html_col=args.html_col, src_col=args.src_col)
    out.write_parquet(args.out)
    print(f"links written to {args.out}")


def cmd_pagerank(args):
    """Integer fixed-point PageRank over a (src, dst) edge parquet;
    writes (node, rank) parquet.  Deterministic: same edges → bit-equal
    ranks under any layout."""
    import ray.data as rd

    from bitfunnel_ray.ops.graph import pagerank

    edges = rd.read_parquet(args.edges, columns=["src", "dst"])
    pagerank(edges, n_iter=args.iters).write_parquet(args.out)
    print(f"pagerank({args.iters} iters) written to {args.out}")


def cmd_repl(args):
    """Interactive command REPL — the ``BitFunnel repl`` analog
    (tools/BitFunnel/src/REPL.cpp + Environment.cpp command registry).
    ``--script <file>`` executes a command file non-interactively."""
    from bitfunnel_ray.query.engine import SearchEngine

    eng = SearchEngine(args.index)
    if getattr(args, "vocab", None):
        # df-table sidecar (`cli statistics` → <out>/docfreq): installs
        # the term-TEXT vocabulary that dictionaries don't store, enabling
        # the `suggest` command and `term~d` fuzzy queries in this session
        import numpy as _np
        import pyarrow.compute as _pc
        import pyarrow.parquet as _pq

        vt = _pq.read_table(args.vocab, columns=["term", "df", "gram_size"])
        vt = vt.filter(_pc.equal(vt["gram_size"], 1))
        terms = _np.asarray(vt["term"].to_pylist())
        eng.set_suggest_vocabulary(terms, vt["df"].to_numpy(zero_copy_only=False))
        eng.set_fuzzy_vocabulary(vt["term"])
    if getattr(args, "script", None):
        out = repl_execute(eng, f"script {args.script}")
        if out:
            print(out)
        return
    print(f"loaded {eng.n_docs} docs, avgdl {eng.avgdl:.1f}; 'help' for commands")
    while True:
        try:
            q = input("query> ").strip()
        except EOFError:
            break
        if q in ("exit", "quit"):
            break
        out = repl_execute(eng, q)
        if out:
            print(out)


def cmd_verify(args):
    """Engine vs distributed brute-force ground truth — the ``verify one``
    analog (VerifyCommand.cpp:106-167); exact index ⇒ fp == fn == 0."""
    from bitfunnel_ray.query.engine import SearchEngine
    from bitfunnel_ray.query.verify import verify_query

    eng = SearchEngine(args.index, load_urls=False)
    out = verify_query(_load_corpus(args.corpus), eng, args.query)
    print(json.dumps(out))
    if not out["ok"]:
        sys.exit(1)


def cmd_verify_log(args):
    """Whole-query-log verification — the ``verify log`` analog
    (VerifyCommand.cpp:169-232): one distributed brute-force pass computes
    ground truth for every query, the diff is emitted as a results table
    (CSV or parquet), and any fp/fn fails the run."""
    import pyarrow.csv as pacsv
    import pyarrow.parquet as pq

    from bitfunnel_ray.query.engine import SearchEngine
    from bitfunnel_ray.query.verify import verify_log

    if args.queries.endswith(".parquet"):
        qcol = pq.read_table(args.queries)
        name = "query" if "query" in qcol.column_names else qcol.column_names[0]
        queries = [q for q in qcol[name].to_pylist() if q]
    else:
        with open(args.queries) as f:
            queries = [ln.strip() for ln in f if ln.strip()]
    eng = SearchEngine(args.index, load_urls=False)
    out = verify_log(_load_corpus(args.corpus), eng, queries)
    if args.out:
        if args.out.endswith(".parquet"):
            pq.write_table(out, args.out)
        else:
            pacsv.write_csv(out, args.out)
    n_bad = int(sum(0 if ok else 1 for ok in out["ok"].to_pylist()))
    print(
        json.dumps(
            {
                "queries": len(queries),
                "ok": len(queries) - n_bad,
                "failed": n_bad,
                "fp_total": int(sum(out["fp"].to_pylist())),
                "fn_total": int(sum(out["fn"].to_pylist())),
            }
        )
    )
    if n_bad:
        sys.exit(1)


def cmd_report(args):
    """One-shot corpus QA report: totals, language/source mix, length
    percentiles, exact-dup rate, repetition/quality means — the hygiene
    dashboard a pipeline operator reads before committing a 100 TB run.
    Each section is a streaming pass with a driver-small result (counts,
    20-bin histograms, means); nothing materializes the corpus."""
    import numpy as np
    from ray.data.aggregate import Count, Mean, Sum

    from bitfunnel_ray.build.stats import doc_meta
    from bitfunnel_ray.config import EngineConfig
    from bitfunnel_ray.ops.dedup import exact_dedup_keep
    from bitfunnel_ray.ops.quantiles import exact_percentiles
    from bitfunnel_ray.ops.textstats import repetition_stats

    cfg = EngineConfig(max_gram=1)
    report: dict = {}

    meta = doc_meta(_load_corpus(args.corpus), cfg, light=True)
    tot = meta.aggregate(
        Count(alias_name="n_docs"),
        Sum("doclen", alias_name="total_tokens"),
        Sum("n_bytes", alias_name="total_bytes"),
    )
    report["totals"] = {k: int(v) for k, v in tot.items()}

    corpus = _load_corpus(args.corpus)
    for col in ("lang", "source"):
        if col in corpus.schema().names:
            rows = corpus.groupby(col).count().take_all()
            report[f"{col}_mix"] = {r[col]: int(r["count()"]) for r in rows}

    pct = exact_percentiles(
        doc_meta(_load_corpus(args.corpus), cfg, light=True), "doclen",
        (0.25, 0.5, 0.9, 0.99),
    ).to_pandas()
    report["doclen_percentiles"] = {
        f"p{int(q * 100)}": int(v) for q, v in zip(pct["q"], pct["value"])
    }

    n_docs = report["totals"]["n_docs"]
    n_kept = exact_dedup_keep(_load_corpus(args.corpus)).count()
    report["exact_dup"] = {
        "n_distinct_texts": int(n_kept),
        "dup_fraction": round(1.0 - n_kept / max(n_docs, 1), 6),
    }

    rep = repetition_stats(_load_corpus(args.corpus)).aggregate(
        Mean("dup_token_frac", alias_name="dup_token_frac"),
        Mean("top_token_frac", alias_name="top_token_frac"),
        Mean("top_bigram_frac", alias_name="top_bigram_frac"),
    )
    report["repetition_means"] = {k: round(float(v), 6) for k, v in rep.items()}

    out = json.dumps(report, sort_keys=True)
    if args.out:
        with open(args.out, "w") as f:
            f.write(out + "\n")
    print(out)


def cmd_pretrain(args):
    """End-to-end pretraining-data pipeline: clean (lang filter + PII
    redaction + Gopher-rule quality) → exact dedup → MinHash near dedup →
    optional per-language token budget → deterministic split → parquet
    partitioned by split.  Prints the per-stage report."""
    from bitfunnel_ray.pipelines.pretrain import pretrain_pipeline

    report = pretrain_pipeline(
        _load_corpus(args.corpus),
        args.out,
        langs=tuple(args.langs.split(",")) if args.langs else None,
        min_tokens=args.min_tokens,
        budget_per_lang=args.budget,
        jaccard_threshold=args.threshold,
    )
    report["out"] = args.out
    print(json.dumps(report, sort_keys=True))


def cmd_compact(args):
    """Size-tiered compaction: merge additive segments (streaming-wave or
    incremental-ingest outputs) down to --max-segments, always merging
    size PEERS first (LSM policy — bounded write amplification).  Reads
    waves.json under the root when present, else every seg-*/ with a
    manifest."""
    import glob as _glob

    from bitfunnel_ray.build.merge import compact_segments
    from bitfunnel_ray.build import segment as seglib

    root = args.root
    waves = os.path.join(root, "waves.json")
    if os.path.exists(waves):
        with open(waves) as f:
            seg_dirs = json.load(f)["segment_dirs"]
    else:
        seg_dirs = sorted(
            d for d in _glob.glob(os.path.join(root, "seg-*"))
            if seglib.load_manifest(d) is not None
        )
    tomb = None
    if args.tombstones:
        import numpy as np
        import pyarrow.parquet as pq

        t = pq.read_table(args.tombstones)
        col = "doc_id" if "doc_id" in t.column_names else t.column_names[0]
        tomb = t[col].to_numpy().astype(np.uint64)
    res = compact_segments(
        root, seg_dirs, max_segments=args.max_segments,
        tier_factor=args.tier_factor, tombstones=tomb,
    )
    print(
        json.dumps(
            {
                "segments_before": len(seg_dirs),
                "segments_after": len(res["segment_dirs"]),
                "merges": [
                    {"inputs": [os.path.basename(x) for x in m["inputs"]],
                     "output": os.path.basename(m["output"])}
                    for m in res["merges"]
                ],
            }
        )
    )


def cmd_merge(args):
    """Merge bucket-aligned segments into one (optionally compacting
    tombstoned docs away).  No shuffle: bucket b of every input holds the
    same term-hash range, so the merge is one task per bucket."""
    import numpy as np

    from bitfunnel_ray.build.merge import merge_segments

    tomb = None
    if args.tombstones:
        import pyarrow.parquet as pq

        t = pq.read_table(args.tombstones)
        col = "doc_id" if "doc_id" in t.column_names else t.column_names[0]
        tomb = t[col].to_numpy().astype(np.uint64)
    man = merge_segments(args.segments, args.out, tombstones=tomb)
    print(
        json.dumps(
            {
                "out": args.out,
                "n_docs": man["n_docs"],
                "buckets": len(man["buckets_completed"]),
                "n_tombstones_compacted": man["n_tombstones_compacted"],
            }
        )
    )


def cmd_verify_synthetic(args):
    """End-to-end self-check against the prime-factors synthetic corpus —
    the ``verify synthetic`` analog (VerifyOneQuerySynthetic.cpp): doc i's
    text is its sorted prime factorization, so ground truth is computed
    closed-form, independent of tokenizer/hash/codec/index.  Builds a
    fresh index over N docs and diffs every query shape."""
    import shutil
    import tempfile

    import ray.data as rd

    from bitfunnel_ray.build.builder import build_index
    from bitfunnel_ray.config import EngineConfig
    from bitfunnel_ray.query.engine import SearchEngine
    from bitfunnel_ray.query.verify import verify_synthetic
    from bitfunnel_ray.sources.corpus import make_prime_factors_corpus

    n = int(args.docs)
    queries = [
        "2", "2 3", "2 | 3", "-2", '"2 2"', "2 -3", '"3 5"', "7 11",
        "(2 | 3) -5", '"2 3"', "13", "-2 -3",
    ]
    tmp = tempfile.mkdtemp(prefix="bfr-synth-")
    try:
        build_index(
            rd.from_arrow(make_prime_factors_corpus(n)),
            os.path.join(tmp, "seg"),
            EngineConfig(max_gram=2, num_buckets=4),
        )
        eng = SearchEngine(os.path.join(tmp, "seg"), load_urls=False)
        out = verify_synthetic(eng, queries, n)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    n_bad = int(sum(0 if ok else 1 for ok in out["ok"].to_pylist()))
    print(
        json.dumps(
            {
                "docs": n,
                "queries": len(queries),
                "ok": len(queries) - n_bad,
                "failed": n_bad,
                "fp_total": int(sum(out["fp"].to_pylist())),
                "fn_total": int(sum(out["fn"].to_pylist())),
            }
        )
    )
    if n_bad:
        sys.exit(1)


def cmd_analyze(args):
    """Banded storage analysis — the RowTableAnalyzer analog
    (RowTableAnalyzer.cpp:165-290): per (IdfX10 band, gram) term counts,
    postings, payload bytes and bytes/posting, plus corpus-wide totals."""
    import pyarrow.parquet as pq

    from bitfunnel_ray.build.analyze import segment_band_stats

    bands = segment_band_stats(args.index)
    if args.out:
        pq.write_table(bands, args.out)
    bands_pd = bands.to_pandas()
    postings = int(bands_pd["n_postings"].sum())
    payload = int(bands_pd["payload_bytes"].sum())
    print(
        json.dumps(
            {
                "terms_chunks": int(bands_pd["n_chunks"].sum()),
                "postings": postings,
                "payload_bytes": payload,
                "bytes_per_posting": round(payload / postings, 3) if postings else None,
                "bands": bands_pd.to_dict("records"),
            }
        )
    )


def cmd_fsck(args):
    """Index integrity audit: decode every posting chunk, verify doc-id
    order, cf sums, block-max metadata (the WAND exactness contract),
    bucket routing and manifest↔docmeta totals.  Exit 1 on corruption."""
    from bitfunnel_ray.build.fsck import fsck_index

    t = fsck_index(args.index)
    pdt = t.to_pandas()
    bad = pdt[~pdt["ok"]]
    print(
        json.dumps(
            {
                "segments": int(pdt["segment"].nunique()),
                "buckets": int((pdt["bucket"] >= 0).sum()),
                "terms": int(pdt["n_terms"].sum()),
                "postings": int(pdt["n_postings"].sum()),
                "ok": bad.empty,
                "failures": bad.to_dict("records"),
            }
        )
    )
    return 0 if bad.empty else 1


def main(argv=None):
    p = argparse.ArgumentParser(prog="bitfunnel_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("statistics")
    s.add_argument("corpus"); s.add_argument("out"); s.add_argument("--gram", type=int, default=1)
    s.set_defaults(fn=cmd_statistics, needs_ray=True)

    s = sub.add_parser("build")
    s.add_argument("corpus"); s.add_argument("index")
    s.add_argument("--gram", type=int, default=2); s.add_argument("--buckets", type=int, default=16)
    s.add_argument("--auto-bands", action="store_true",
                   help="derive treatment bands from the corpus df distribution "
                        "(TreatmentOptimal analog) before building")
    s.add_argument("--vocab", action="store_true",
                   help="write the per-segment vocab sidecar (term/df/bucket "
                        "text stripes) enabling suggest + fuzzy on every "
                        "serving front")
    s.set_defaults(fn=cmd_build, needs_ray=True)

    s = sub.add_parser("links")
    s.add_argument("pages"); s.add_argument("out")
    s.add_argument("--html-col", default="html"); s.add_argument("--src-col", default="doc_id")
    s.add_argument("--anchors", action="store_true")
    s.set_defaults(fn=cmd_links, needs_ray=True)

    s = sub.add_parser("pagerank")
    s.add_argument("edges"); s.add_argument("out")
    s.add_argument("--iters", type=int, default=3)
    s.set_defaults(fn=cmd_pagerank, needs_ray=True)

    s = sub.add_parser("filter")
    s.add_argument("corpus"); s.add_argument("out")
    s.add_argument("--sample", type=float); s.add_argument("--min-postings", type=int)
    s.add_argument("--max-postings", type=int); s.add_argument("--count", type=int)
    s.add_argument("--lang")
    s.set_defaults(fn=cmd_filter, needs_ray=True)

    s = sub.add_parser("dedup")
    s.add_argument("corpus"); s.add_argument("out")
    s.add_argument("--shingle", type=int, default=5)
    s.add_argument("--bands", type=int, default=8)
    s.add_argument("--threshold", type=float, default=0.9)
    s.set_defaults(fn=cmd_dedup, needs_ray=True)

    s = sub.add_parser("cross-dedup")
    s.add_argument("corpus"); s.add_argument("ref"); s.add_argument("out")
    s.add_argument("--shingle", type=int, default=5)
    s.add_argument("--bands", type=int, default=8)
    s.add_argument("--threshold", type=float, default=0.9)
    s.set_defaults(fn=cmd_cross_dedup, needs_ray=True)

    s = sub.add_parser("percolate")
    s.add_argument("corpus"); s.add_argument("queries"); s.add_argument("out")
    s.set_defaults(fn=cmd_percolate, needs_ray=True)

    s = sub.add_parser("querylog")
    s.add_argument("corpus"); s.add_argument("out"); s.add_argument("--count", type=int, default=256)
    s.set_defaults(fn=cmd_querylog, needs_ray=True)

    s = sub.add_parser("query")
    s.add_argument("index"); s.add_argument("query"); s.add_argument("-k", type=int, default=10)
    s.add_argument("--rank", help="static-rank parquet dir: blend BM25 x prior")
    s.add_argument("--tombstones", default=None,
                   help="tombstones parquet (doc_id) — exclude soft-deleted docs")
    s.set_defaults(fn=cmd_query, needs_ray=False)

    s = sub.add_parser("delete-by-query")
    s.add_argument("index"); s.add_argument("query")
    s.add_argument("--tombstones", required=True,
                   help="tombstones parquet to create/extend (doc_id column)")
    s.add_argument("--dry-run", action="store_true")
    s.set_defaults(fn=cmd_delete_by_query, needs_ray=False)

    s = sub.add_parser("webindex")
    s.add_argument("pages"); s.add_argument("index")
    s.add_argument("--disallow", action="append", help="robots Disallow URL prefix (repeatable)")
    s.add_argument("--iters", type=int, default=3)
    s.add_argument("--from-warc", action="store_true",
                   help="PAGES is a directory of WARC files (Common Crawl interchange)")
    s.set_defaults(fn=cmd_webindex, needs_ray=True)

    s = sub.add_parser("explain")
    s.add_argument("index")
    s.add_argument("query")
    s.add_argument("doc_id")
    s.set_defaults(fn=cmd_explain, needs_ray=False)

    s = sub.add_parser("repl")
    s.add_argument("index")
    s.add_argument("--script", default=None, help="command file to execute")
    s.add_argument("--vocab", default=None,
                   help="df-table parquet (cli statistics <out>/docfreq): "
                        "enables `suggest` + fuzzy queries")
    s.set_defaults(fn=cmd_repl, needs_ray=False)

    s = sub.add_parser("verify")
    s.add_argument("index"); s.add_argument("corpus"); s.add_argument("query")
    s.set_defaults(fn=cmd_verify, needs_ray=True)

    s = sub.add_parser("verify-log")
    s.add_argument("index"); s.add_argument("corpus"); s.add_argument("queries")
    s.add_argument("--out", default=None)
    s.set_defaults(fn=cmd_verify_log, needs_ray=True)

    s = sub.add_parser("merge")
    s.add_argument("out"); s.add_argument("segments", nargs="+")
    s.add_argument("--tombstones", default=None)
    s.set_defaults(fn=cmd_merge, needs_ray=True)

    s = sub.add_parser("compact")
    s.add_argument("root")
    s.add_argument("--max-segments", type=int, default=4)
    s.add_argument("--tier-factor", type=float, default=4.0)
    s.add_argument("--tombstones", default=None)
    s.set_defaults(fn=cmd_compact, needs_ray=True)

    s = sub.add_parser("verify-synthetic")
    s.add_argument("--docs", type=int, default=1024)
    s.set_defaults(fn=cmd_verify_synthetic, needs_ray=True)

    s = sub.add_parser("analyze")
    s.add_argument("index")
    s.add_argument("--out", default=None)
    s.set_defaults(fn=cmd_analyze, needs_ray=True)

    s = sub.add_parser("fsck")
    s.add_argument("index")
    s.set_defaults(fn=cmd_fsck, needs_ray=True)

    s = sub.add_parser("report")
    s.add_argument("corpus")
    s.add_argument("--out", default=None)
    s.set_defaults(fn=cmd_report, needs_ray=True)

    s = sub.add_parser("diff")
    s.add_argument("old")
    s.add_argument("new")
    s.add_argument("--out", default=None)
    s.set_defaults(fn=cmd_diff, needs_ray=True)

    s = sub.add_parser("drift")
    s.add_argument("old")
    s.add_argument("new")
    s.add_argument("-k", type=int, default=30)
    s.set_defaults(fn=cmd_drift, needs_ray=True)

    s = sub.add_parser("grep")
    s.add_argument("corpus")
    s.add_argument("pattern")
    s.add_argument("--regex", action="store_true")
    s.add_argument("--out", default=None)
    s.set_defaults(fn=cmd_grep, needs_ray=True)

    s = sub.add_parser("ngrams")
    s.add_argument("corpus")
    s.add_argument("-n", type=int, default=2)
    s.add_argument("-k", type=int, default=50)
    s.set_defaults(fn=cmd_ngrams, needs_ray=True)

    s = sub.add_parser("chunks-export")
    s.add_argument("corpus")
    s.add_argument("out")
    s.set_defaults(fn=cmd_chunks_export, needs_ray=True)

    s = sub.add_parser("dedup-spans")
    s.add_argument("corpus")
    s.add_argument("out")
    s.add_argument("--k", type=int, default=50)
    s.set_defaults(fn=cmd_dedup_spans, needs_ray=True)

    s = sub.add_parser("export")
    s.add_argument("index")
    s.add_argument("corpus")
    s.add_argument("query")
    s.add_argument("out")
    s.set_defaults(fn=cmd_export, needs_ray=True)

    s = sub.add_parser("fetch")
    s.add_argument("index")
    s.add_argument("doc_ids", nargs="+")
    s.set_defaults(fn=cmd_fetch, needs_ray=False)

    s = sub.add_parser("shuffle-out")
    s.add_argument("corpus"); s.add_argument("out")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--shards", type=int, default=64)
    s.set_defaults(fn=cmd_shuffle_out, needs_ray=True)

    s = sub.add_parser("snapshot")
    s.add_argument("index")
    s.add_argument("snap")
    s.set_defaults(fn=cmd_snapshot, needs_ray=True)

    s = sub.add_parser("snapshot-verify")
    s.add_argument("snap")
    s.set_defaults(fn=cmd_snapshot_verify, needs_ray=False)

    s = sub.add_parser("snapshot-gc")
    s.add_argument("snap")
    s.set_defaults(fn=cmd_snapshot_gc, needs_ray=False)

    s = sub.add_parser("restore")
    s.add_argument("snap")
    s.add_argument("dest")
    s.set_defaults(fn=cmd_restore, needs_ray=False)

    s = sub.add_parser("warc-import")
    s.add_argument("warc")
    s.add_argument("out")
    s.set_defaults(fn=cmd_warc_import, needs_ray=True)

    s = sub.add_parser("warc-export")
    s.add_argument("pages")
    s.add_argument("out")
    s.add_argument("--gzip", action="store_true")
    s.set_defaults(fn=cmd_warc_export, needs_ray=True)

    s = sub.add_parser("chunks-import")
    s.add_argument("chunks")
    s.add_argument("out")
    s.set_defaults(fn=cmd_chunks_import, needs_ray=True)

    s = sub.add_parser("group")
    s.add_argument("root")
    s.add_argument("action", choices=["open", "close", "expire", "ingest", "status"])
    s.add_argument("id", nargs="?", default=None,
                   help="group id (open/expire) or corpus path (ingest)")
    s.add_argument("--gram", type=int, default=2)
    s.add_argument("--buckets", type=int, default=16)
    s.set_defaults(fn=cmd_group, needs_ray=True)

    s = sub.add_parser("pretrain")
    s.add_argument("corpus")
    s.add_argument("out")
    s.add_argument("--langs", default=None, help="comma-separated allow-list")
    s.add_argument("--min-tokens", type=int, default=8, dest="min_tokens")
    s.add_argument("--budget", type=int, default=None, help="tokens per language")
    s.add_argument("--threshold", type=float, default=0.8, help="jaccard near-dup bar")
    s.set_defaults(fn=cmd_pretrain, needs_ray=True)

    args = p.parse_args(argv)
    if args.needs_ray:
        _init_ray()
    try:
        rc = args.fn(args)
    finally:
        if args.needs_ray:
            import ray

            ray.shutdown()
    if rc:
        raise SystemExit(rc)


if __name__ == "__main__":
    main()
