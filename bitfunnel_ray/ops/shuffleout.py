"""Seeded global shuffle for training-data output.

Training loaders want examples in (reproducibly) random order — a corpus
written in crawl/source order feeds correlated batches.  The naive
``Dataset.random_shuffle()`` is a full all-to-all materialization with
non-deterministic placement; the scalable deterministic form used here
is a KEYED shuffle:

    key(doc)  = (doc_id + seed) * K  mod 2^64      (K odd ⇒ bijective)
    shard     = key mod num_shards
    order     = ascending key within shard

One hash exchange on ``shard`` co-locates each output shard, a
within-block sort orders it, and every byte of the output is a pure
function of (seed, num_shards, input ids) — rerunning the job, at any
cluster size or block layout, yields identical shard files.  That makes
the write RESUMABLE: shard files have deterministic names and a rerun
skips the ones already present.

Reference analog: none (the reference writes chunks in ingest order);
this is the standard output stage of large-scale pretraining pipelines
(cf. the shuffled-shard layouts of public corpus tooling).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

_K = np.uint64(0x9E3779B97F4A7C15)  # 2^64 / golden ratio, odd


def shuffle_keys(doc_ids: np.ndarray, seed: int) -> np.ndarray:
    """uint64 shuffle keys — a seeded bijection of the id space (odd
    multiplier mod 2^64), so keys are unique whenever ids are."""
    with np.errstate(over="ignore"):
        return (doc_ids.astype(np.uint64) + np.uint64(seed)) * _K


def _assign(t: pa.Table, *, seed: int, num_shards: int) -> pa.Table:
    ids = t["doc_id"].to_numpy(zero_copy_only=False)
    key = shuffle_keys(ids, seed)
    return t.append_column(
        "_shuffle_key", pa.array(key.view(np.int64), pa.int64())
    ).append_column(
        "_shard", pa.array((key % np.uint64(num_shards)).astype(np.int64), pa.int64())
    )


def shuffle_order(ds, seed: int, num_shards: int):
    """(shard, pos, doc_id) for every input row — the order the shard
    writer produces, in oracle-checkable form."""
    from functools import partial

    from bitfunnel_ray.ops.exchange import exchange

    def block(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table(
                {
                    "shard": pa.array([], pa.int64()),
                    "pos": pa.array([], pa.int64()),
                    "doc_id": pa.array([], pa.int64()),
                }
            )
        shard = t["_shard"].to_numpy(zero_copy_only=False)
        key = t["_shuffle_key"].to_numpy(zero_copy_only=False).view(np.uint64)
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        # one block may hold SEVERAL whole shards (hash collisions):
        # order by (shard, key) and restart pos at each shard boundary
        order = np.lexsort((ids, key, shard))
        shard, ids = shard[order], ids[order]
        starts = np.flatnonzero(np.diff(shard, prepend=shard[0] - 1))
        lens = np.diff(np.append(starts, len(shard)))
        pos = np.arange(len(shard)) - np.repeat(starts, lens)
        return pa.table(
            {
                "shard": pa.array(shard, pa.int64()),
                "pos": pa.array(pos, pa.int64()),
                "doc_id": pa.array(ids, pa.int64()),
            }
        )

    assigned = ds.select_columns(["doc_id"]).map_batches(
        partial(_assign, seed=seed, num_shards=num_shards), batch_format="pyarrow"
    )
    return exchange(assigned, ["_shard"], block)


def write_shuffled_shards(
    ds,
    out_dir: str,
    seed: int,
    num_shards: int,
    columns: "list[str] | None" = None,
) -> dict:
    """Write ``ds`` as ``num_shards`` deterministic shuffled parquet
    shards (``shard-%05d.parquet``).  The hash exchange on the shard id
    hands each shard WHOLE to exactly one write task (``ops/exchange``:
    one block per partition), which sorts it by shuffle key
    and publishes atomically; existing shard files are SKIPPED on rerun
    (resume after a partial failure re-does only the missing shards).
    Pick ``num_shards`` so a shard fits a worker heap — the usual
    shard-size knob.  Returns {"shards", "rows", "skipped"}."""
    import json

    from functools import partial

    from bitfunnel_ray.ops.exchange import exchange

    os.makedirs(out_dir, exist_ok=True)
    # config manifest: a rerun with a DIFFERENT seed/num_shards into the
    # same dir must fail loudly, not silently keep stale shards while
    # reporting current-run row counts
    man_path = os.path.join(out_dir, "_shuffle_manifest.json")
    cfg = {"seed": int(seed), "num_shards": int(num_shards)}
    if os.path.exists(man_path):
        with open(man_path) as f:
            prior = json.load(f)
        if prior != cfg:
            raise ValueError(
                f"{out_dir} was written with {prior}, rerun requests {cfg} — "
                "clear the output dir to reshuffle under the new config"
            )
    else:
        with open(man_path, "w") as f:
            json.dump(cfg, f)

    def write_block(t: pa.Table, *, dest: str) -> pa.Table:
        empty = pa.table(
            {
                "shard": pa.array([], pa.int64()),
                "rows": pa.array([], pa.int64()),
                "skipped": pa.array([], pa.int64()),
            }
        )
        if len(t) == 0:
            return empty
        key = t["_shuffle_key"].to_numpy(zero_copy_only=False).view(np.uint64)
        shard = t["_shard"].to_numpy(zero_copy_only=False)
        order = np.lexsort((key, shard))
        t = t.take(pa.array(order))
        shard = shard[order]
        starts = np.flatnonzero(np.diff(shard, prepend=shard[0] - 1))
        ends = np.append(starts[1:], len(shard))
        rows = []
        for s0, e in zip(starts, ends):
            sid = int(shard[s0])
            path = os.path.join(dest, f"shard-{sid:05d}.parquet")
            sub = t.slice(s0, e - s0).drop_columns(["_shuffle_key", "_shard"])
            if os.path.exists(path):  # a prior (partial) run published it
                # resume-safety: the skip is only valid if the prior run
                # had the same (seed, num_shards, input) — the manifest
                # check in the driver catches config drift, and the row
                # count catches a changed input (deterministic sharding
                # ⇒ same input must yield the same per-shard count)
                if pq.read_metadata(path).num_rows != len(sub):
                    raise ValueError(
                        f"{path} exists with a different row count than this "
                        "run produces — the input changed since the previous "
                        "(partial) write; clear the output dir to rewrite"
                    )
                rows.append({"shard": sid, "rows": len(sub), "skipped": 1})
                continue
            tmp = path + ".tmp"
            pq.write_table(sub, tmp)
            os.replace(tmp, path)  # atomic publish = exactly-once
            rows.append({"shard": sid, "rows": len(sub), "skipped": 0})
        return pa.Table.from_pylist(rows) if rows else empty

    src = ds if columns is None else ds.select_columns(columns)
    assigned = src.map_batches(
        partial(_assign, seed=seed, num_shards=num_shards), batch_format="pyarrow"
    )
    stats = exchange(assigned, ["_shard"], partial(write_block, dest=out_dir)).to_pandas()
    return {
        "shards": int(stats["shard"].nunique()) if len(stats) else 0,
        "rows": int(stats["rows"].sum()) if len(stats) else 0,
        "skipped": int(stats["skipped"].sum()) if len(stats) else 0,
    }
