"""Benchmark inputs: the synthetic corpus, the staged segment inputs, the
cached serving index and the seeded query logs.

Everything here is a pure function of the corpus size, the build settings
and the seed.  Files live under ``<checkout>/.perfbench`` (see ``work_dir``)
and nowhere else.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil

# Corpus: FIXTURES §1b Zipf web text, built as two equal segments.
N_DOCS = 10_000
N_SEGMENTS = 2
# Head-term salting engaged: the threshold sits below the df of the hottest
# terms of a 5k-doc segment (the sampled head scan marks about 4 per
# segment), so the salting path does real work.
HEAD_DF_THRESHOLD = 1_800
SALT_SHIFT = 10
NUM_BUCKETS = 8
PHRASE = '"alpha beta gamma"'  # planted in every 97th doc (doc_id % 97 == 0)

HOT_TERMS = 300  # serve_hot draws from the 300 highest-df terms
WIDE_EVERY = 50  # every 50th serve_hot request is a ranked 16-term OR
WIDE_TERMS = 16
WIDE_POOL = 64  # mid-df pool the 16-term disjunctions are drawn from


def repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def work_dir() -> str:
    return os.path.join(repo_root(), ".perfbench")


def engine_config():
    """The flagship ``build_web_index`` setting (max_gram=1, vocab sidecar)
    with head-term salting engaged."""
    from bitfunnel_ray.config import EngineConfig

    return EngineConfig(
        max_gram=1,
        num_buckets=NUM_BUCKETS,
        head_df_threshold=HEAD_DF_THRESHOLD,
        salt_shift=SALT_SHIFT,
        extra={"vocab_sidecar": True},
    )


def phrase_docs(n_docs: int) -> int:
    return math.ceil(n_docs / 97)


def source_key(n_docs: int) -> str:
    """Digest of the program sources and the build settings: a serving
    index cached by different code or settings is never reused."""
    h = hashlib.sha256(
        repr((n_docs, N_SEGMENTS, HEAD_DF_THRESHOLD, SALT_SHIFT, NUM_BUCKETS)).encode()
    )
    pkg = os.path.join(repo_root(), "bitfunnel_ray")
    for base, dirs, files in os.walk(pkg):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                p = os.path.join(base, f)
                h.update(os.path.relpath(p, pkg).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def serving_index_dir(n_docs: int) -> str:
    return os.path.join(work_dir(), f"serve-{n_docs}-{source_key(n_docs)}")


def serving_index_ready(n_docs: int) -> bool:
    return os.path.exists(os.path.join(serving_index_dir(n_docs), "READY.json"))


def corpus_files(n_docs: int) -> "list[str]":
    """Parquet files of the n_docs-doc synthetic corpus, generated once
    per checkout with ``sources.corpus.write_synth_corpus``."""
    from bitfunnel_ray.sources.corpus import write_synth_corpus

    d = os.path.join(work_dir(), f"corpus-{n_docs}")
    if not os.path.exists(os.path.join(d, "_DONE")):
        tmp = d + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.rmtree(d, ignore_errors=True)
        write_synth_corpus(tmp, n_docs, kind="zipf")
        with open(os.path.join(tmp, "_DONE"), "w") as f:
            f.write("ok")
        os.replace(tmp, d)
    return sorted(
        os.path.join(d, f) for f in os.listdir(d) if f.endswith(".parquet")
    )


def load_corpus(n_docs: int):
    """The whole corpus as one pyarrow table (doc_id, text), for the
    brute-force correctness gate."""
    import pyarrow.parquet as pq

    t = pq.read_table(corpus_files(n_docs), columns=["doc_id", "text"])
    return t.sort_by("doc_id")


def stage_segment_inputs(n_docs: int, out_root: str) -> "list[str]":
    """Split the corpus by doc-id range into N_SEGMENTS parquet inputs,
    four files each (the ingest workload's set-up step)."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    table = pq.read_table(corpus_files(n_docs))
    ids = table["doc_id"]
    per = n_docs // N_SEGMENTS
    shutil.rmtree(out_root, ignore_errors=True)
    dirs = []
    for s in range(N_SEGMENTS):
        lo, hi = s * per, (n_docs if s == N_SEGMENTS - 1 else (s + 1) * per)
        part = table.filter(
            pc.and_(pc.greater_equal(ids, lo), pc.less(ids, hi))
        ).sort_by("doc_id")
        d = os.path.join(out_root, f"input-{s}")
        os.makedirs(d)
        step = math.ceil(len(part) / 4)
        for i in range(0, len(part), step):
            pq.write_table(part.slice(i, step), os.path.join(d, f"part-{i // step}.parquet"))
        dirs.append(d)
    return dirs


def build_segments(input_dirs: "list[str]", out_root: str, on_build=None):
    """Build one segment per staged input with ``build_index``.  Returns
    ``(seg_dirs, manifests, seconds)``; ``on_build(i, seconds)`` is
    called after each segment."""
    import time

    import ray.data as rd

    from bitfunnel_ray.build.builder import build_index

    cfg = engine_config()
    seg_dirs, manifests, secs = [], [], []
    for i, inp in enumerate(input_dirs):
        d = os.path.join(out_root, f"seg-{i:04d}")
        shutil.rmtree(d, ignore_errors=True)
        files = sorted(os.path.join(inp, f) for f in os.listdir(inp))
        t0 = time.perf_counter()
        manifests.append(build_index(rd.read_parquet(files), d, cfg))
        secs.append(time.perf_counter() - t0)
        seg_dirs.append(d)
        if on_build is not None:
            on_build(i, secs[-1])
    return seg_dirs, manifests, secs


def fsck_clean(table) -> "list[str]":
    """Names of the segments/buckets a ``fsck_index`` table flags."""
    bad = []
    for row in table.to_pylist():
        if not row["ok"]:
            bad.append(f"{os.path.basename(row['segment'])}/bucket {row['bucket']}")
    return bad


def ensure_serving_index(n_docs: int) -> "list[str]":
    """The serving workloads' two segments, built once per checkout (and
    per program source) with the ingest workload's own build path and
    audited in full with ``fsck_index``."""
    from bitfunnel_ray.build.fsck import fsck_index

    root = serving_index_dir(n_docs)
    ready = os.path.join(root, "READY.json")
    if not os.path.exists(ready):
        shutil.rmtree(root, ignore_errors=True)
        inputs = stage_segment_inputs(n_docs, os.path.join(root, "inputs"))
        seg_dirs, _m, _s = build_segments(inputs, root)
        shutil.rmtree(os.path.join(root, "inputs"), ignore_errors=True)
        bad = fsck_clean(fsck_index(seg_dirs))
        with open(ready + ".tmp", "w") as f:
            json.dump({"segments": [os.path.basename(d) for d in seg_dirs], "fsck_bad": bad}, f)
        os.replace(ready + ".tmp", ready)
    with open(ready) as f:
        info = json.load(f)
    if info["fsck_bad"]:
        raise RuntimeError(f"cached serving index failed fsck: {info['fsck_bad']}")
    return [os.path.join(root, s) for s in info["segments"]]


def terms_by_df(seg_dirs: "list[str]") -> "list[str]":
    """Unigram vocabulary sorted by corpus df (desc, then term), read
    from the segments' vocab sidecars."""
    import pyarrow.parquet as pq

    df: dict[str, int] = {}
    for d in seg_dirs:
        t = pq.read_table(os.path.join(d, "vocab"), columns=["term", "df"])
        for term, v in zip(t["term"].to_pylist(), t["df"].to_pylist()):
            df[term] = df.get(term, 0) + int(v)
    return sorted(df, key=lambda w: (-df[w], w))


def query_log(terms: "list[str]", n: int, seed: int) -> "list[str]":
    """FIXTURES §2 boolean mix over ``terms`` (uniform draw), seeded."""
    from bitfunnel_ray.pipelines.querylog import generate_query_log

    return generate_query_log(terms, n, seed=seed)["query"].to_pylist()


def wide_or_sets(terms: "list[str]", n: int, seed: int) -> "list[list[str]]":
    """``n`` seeded 16-term disjunctions over a fixed pool of mid-df terms
    (df rank len/50 onward)."""
    import numpy as np

    start = len(terms) // 50
    pool = terms[start : start + WIDE_POOL]
    rng = np.random.default_rng(seed + 7919)
    return [
        [pool[i] for i in rng.choice(len(pool), WIDE_TERMS, replace=False)]
        for _ in range(n)
    ]
