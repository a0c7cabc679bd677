"""Cost-driven treatment selection — the TreatmentOptimal analog.

The reference brute-force-searches the best bit-sliced row configuration
per IdfX10 band from a density/signal cost model and packs the term
table from it (``src/Index/src/TreatmentOptimal.cpp`` Analyzer::Go /
FindOptimalConfiguration, driven per IdfX10 by
``src/Index/src/TermTableBuilder.cpp:96-202``).  This engine stores
exact posting lists, so the optimized degrees of freedom differ —
per-band doc-delta CODEC {varint, ef} and WAND skip-block size —
but the discipline is the same: derive each frequency band's storage
treatment from MEASURED data instead of hand-tuned defaults, under an
explicit cost model.  Like the reference's treatments, the choice
changes the storage plan only, never results (bands are self-describing
at decode time; pytest + the oracle-checked ``search_auto_bands`` entry
prove identity).

Cost model, per IdfX10 band (idf_x10 = round(10·log10(N/df)), clipped
to [0, 60] like the reference's Term.h MaxIdfX10Value):

  storage  bytes/posting of each codec, measured by RE-ENCODING the
           band's actual doc-delta streams (sampled chunks from a built
           segment), or deterministic synthetic geometric gaps with the
           band's density when no segment exists yet (``from_df``).
  query    query_weight·(decode_rel_cost[codec] − 1) — the premium, in
           bytes/posting-equivalents, charged for a codec that decodes
           slower than varint (rel costs measured, documented below;
           ``measure_decode_costs()`` recalibrates on-box — kept OUT of
           the default path so band choice is deterministic).
           query_weight=0 optimizes pure storage (archival tiers);
           larger values protect serve-path CPU.
  blocks   skip-block size balances block-metadata overhead (16 B per
           block: last_doc + max_tfn) against expected WAND overshoot
           (~half a block of postings decoded per boundary touched):
           minimizing 16·df/bs + c·bs gives bs* = sqrt(16·df/c) = 4·√df
           at c=1 byte-equivalent — clipped to [64, 512] and rounded to
           a power of two so short lists aren't drowned in metadata and
           long lists keep fine skip granularity.

The chosen per-band treatments are coalesced into the
``EngineConfig.treatment_bands`` tuple format ((df_ub, block_size,
codec), …, (None, block_size, codec)) — emitting a boundary only where
the treatment changes as df ascends.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pyarrow.parquet as pq

from bitfunnel_ray.build.encode import CODECS

# relative decode cost per posting, normalized to varint=1.0 — MEASURED
# on the dev box across list lengths 1k-200k and gap densities 8-100
# (varint is this implementation's fastest vectorized decode; ef pays
# ~1.6-3.9x in extra numpy passes).  Calibrate with
# measure_decode_costs() and pass the result in — the defaults keep the
# default path deterministic.
DECODE_REL_COST = {"varint": 1.0, "ef": 2.5}

_BS_MIN, _BS_MAX = 64, 512


def suggest_block_size(df_typical: float) -> int:
    """bs* = 4·√df clipped to [64, 512], rounded to a power of two —
    the closed-form minimizer of 16·df/bs + bs (metadata bytes vs
    expected overshoot postings at 1 byte-equivalent each)."""
    if df_typical <= 0:
        return _BS_MIN
    bs = 4.0 * float(df_typical) ** 0.5
    bs = min(max(bs, _BS_MIN), _BS_MAX)
    return int(2 ** round(np.log2(bs)))


def measure_decode_costs(
    n: int = 200_000, mean_gap: float = 8.0, seed: int = 0, repeats: int = 3
) -> dict:
    """On-box decode cost per codec, normalized to varint=1.0 — pass the
    result as ``decode_rel_cost`` to calibrate band choice.  Timing is
    inherently nondeterministic, which is why this is opt-in."""
    import time

    rng = np.random.Generator(np.random.PCG64(seed))
    deltas = rng.geometric(1.0 / mean_gap, size=n).astype(np.uint64)
    out = {}
    for name, codec in CODECS.items():
        buf = codec.encode(deltas)
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            codec.decode(buf, n)
            best = min(best, time.perf_counter() - t0)
        out[name] = best
    base = out["varint"] or 1e-12
    return {k: v / base for k, v in out.items()}


def _pick_codec(
    bytes_pp: dict, query_weight: float, decode_rel_cost: dict, min_gain: float
) -> str:
    """argmin over storage + query_weight·decode cost; a packed codec
    must beat varint by at least ``min_gain`` bytes/posting of TOTAL
    cost (hysteresis: don't churn the plan for noise-level savings)."""
    cost = {
        c: bytes_pp[c] + query_weight * (decode_rel_cost.get(c, 1.0) - 1.0)
        for c in bytes_pp
    }
    best = min(cost, key=lambda c: (cost[c], c != "varint"))
    if best != "varint" and cost["varint"] - cost[best] < min_gain:
        return "varint"
    return best


def _coalesce(band_rows: "list[tuple[int, int, int, str]]") -> tuple:
    """[(idf_x10, df_ub, block_size, codec)] (df ascending) → the
    treatment_bands tuple, emitting a boundary only where the treatment
    changes; the last band becomes the (None, …) catch-all."""
    # floor-rounding at tiny N can collapse adjacent idf bands onto one
    # df_ub — keep the later (denser) band for a duplicated boundary
    dedup: "list[tuple[int, int, int, str]]" = []
    for row in band_rows:
        if dedup and row[1] <= dedup[-1][1]:
            dedup[-1] = row
        else:
            dedup.append(row)
    band_rows = dedup
    out = []
    for i, (_idf, df_ub, bs, cd) in enumerate(band_rows):
        last = i == len(band_rows) - 1
        if not last and out and out[-1][1:] == (bs, cd):
            out.pop()  # extend the previous run to this band's boundary
        out.append((None if last else int(df_ub), int(bs), cd))
    if len(out) >= 2 and out[-1][1:] == out[-2][1:]:
        out.pop(-2)
    return tuple(out)


def _bands_from_samples(
    samples: "dict[int, list[np.ndarray]]",
    counts: "dict[int, tuple[int, float]]",
    n_docs: int,
    query_weight: float,
    decode_rel_cost: "dict | None",
    min_gain: float,
) -> tuple:
    rel = dict(DECODE_REL_COST if decode_rel_cost is None else decode_rel_cost)
    rows = []
    # idf descending == df ascending (rare terms first)
    for idf in sorted(samples, reverse=True):
        deltas = np.concatenate(samples[idf]) if samples[idf] else np.empty(0, np.uint64)
        n_post = max(1, int(len(deltas)))
        bytes_pp = {
            name: len(c.encode(deltas)) / n_post for name, c in CODECS.items()
        }
        codec = _pick_codec(bytes_pp, query_weight, rel, min_gain)
        _n_chunks, df_typ = counts[idf]
        bs = suggest_block_size(df_typ)
        # largest chunk length still in this idf band: df such that
        # round(10·log10(N/df)) == idf ⇒ df ≤ N·10^(-(idf-0.5)/10)
        df_ub = int(np.floor(n_docs * 10.0 ** (-(idf - 0.5) / 10.0)))
        rows.append((idf, max(df_ub, 1), bs, codec))
    if not rows:
        return ((None, 128, "varint"),)
    return _coalesce(rows)


def optimal_bands_for_segment(
    seg_dir: str,
    sample_chunks_per_band: int = 32,
    query_weight: float = 0.3,
    decode_rel_cost: "dict | None" = None,
    min_gain: float = 0.05,
) -> tuple:
    """Derive treatment bands from a BUILT segment's real posting lists:
    per idf band, decode up to ``sample_chunks_per_band`` chunks' doc
    payloads and trial-encode the actual deltas with every codec.
    Deterministic: chunks are taken in dict-file order.

    Two passes so the driver never holds payload columns for the whole
    dictionary (they are the bulk of a segment): pass 1 reads ONLY the
    fixed-width ``n_postings`` column to band every chunk and pick the
    sample rows; pass 2 reads payload bytes for just the sampled rows,
    one row group at a time (parquet's pruning unit)."""
    from bitfunnel_ray.build import segment as seglib
    from bitfunnel_ray.build.encode import decode_doc_deltas

    man = seglib.load_manifest(seg_dir)
    if man is None:
        raise FileNotFoundError(f"no manifest in {seg_dir}")
    n_docs = max(1, int(man["n_docs"]))
    files = sorted(glob.glob(os.path.join(seg_dir, "dict-*.parquet")))

    # pass 1: band every chunk from n_postings alone; choose sample rows
    samples: dict[int, list[np.ndarray]] = {}
    n_chunks: dict[int, int] = {}
    sum_len: dict[int, int] = {}
    wanted: dict[str, list[int]] = {}  # file -> sorted row ordinals to decode
    for f in files:
        lens = pq.read_table(f, columns=["n_postings"])["n_postings"].to_numpy()
        idf = np.clip(
            np.round(10.0 * np.log10(n_docs / np.maximum(lens.astype(np.float64), 1.0))),
            0,
            60,
        ).astype(np.int64)
        for b in np.unique(idf):
            rows_b = np.flatnonzero(idf == b)
            bi = int(b)
            n_chunks[bi] = n_chunks.get(bi, 0) + len(rows_b)
            sum_len[bi] = sum_len.get(bi, 0) + int(lens[rows_b].sum())
            have = len(samples.setdefault(bi, []))
            take = rows_b[: max(0, sample_chunks_per_band - have)]
            if len(take):
                wanted.setdefault(f, []).extend(int(r) for r in take)
                # reserve the slots; filled with real deltas in pass 2
                samples[bi].extend([None] * len(take))

    # pass 2: decode ONLY the sampled rows, row group by row group
    fills: dict[int, list[np.ndarray]] = {b: [] for b in samples}
    for f, rows in wanted.items():
        rows_sorted = sorted(rows)
        pf = pq.ParquetFile(f)
        rg_sizes = [pf.metadata.row_group(i).num_rows for i in range(pf.metadata.num_row_groups)]
        rg_starts = np.concatenate([[0], np.cumsum(rg_sizes)]).astype(np.int64)
        by_rg: dict[int, list[int]] = {}
        for r in rows_sorted:
            g = int(np.searchsorted(rg_starts, r, side="right") - 1)
            by_rg.setdefault(g, []).append(r - int(rg_starts[g]))
        has_codec = "codec" in pf.schema_arrow.names  # pre-codec segments
        cols = ["n_postings", "docs_payload"] + (["codec"] if has_codec else [])
        for g, local_rows in by_rg.items():
            t = pf.read_row_group(g, columns=cols).take(local_rows)
            lens = t["n_postings"].to_numpy()
            idf = np.clip(
                np.round(
                    10.0 * np.log10(n_docs / np.maximum(lens.astype(np.float64), 1.0))
                ),
                0,
                60,
            ).astype(np.int64)
            chunks = np.split(decode_doc_deltas(t), np.cumsum(lens)[:-1])
            for band, deltas in zip(idf, chunks):
                fills[int(band)].append(deltas)
    samples = fills
    counts = {
        b: (n_chunks[b], sum_len[b] / n_chunks[b]) for b in n_chunks
    }
    return _bands_from_samples(
        samples, counts, n_docs, query_weight, decode_rel_cost, min_gain
    )


def optimal_bands_from_df(
    df_values: np.ndarray,
    n_docs: int,
    seed: int = 0,
    sample_terms_per_band: int = 32,
    query_weight: float = 0.3,
    decode_rel_cost: "dict | None" = None,
    min_gain: float = 0.05,
) -> tuple:
    """Derive treatment bands BEFORE any segment exists, from the
    statistics stage's df table alone: per idf band, synthesize
    geometric doc-gap streams at the band's measured density (seeded —
    the same df table always yields the same bands) and trial-encode
    them.  ``cli build --auto-bands`` runs this between the statistics
    pass and the build."""
    df_values = np.asarray(df_values, dtype=np.int64)
    df_values = df_values[df_values > 0]
    n_docs = max(1, int(n_docs))
    if not len(df_values):
        return ((None, 128, "varint"),)
    idf = np.clip(
        np.round(10.0 * np.log10(n_docs / df_values.astype(np.float64))), 0, 60
    ).astype(np.int64)
    rng = np.random.Generator(np.random.PCG64(seed))
    samples: dict[int, list[np.ndarray]] = {}
    counts: dict[int, tuple[int, float]] = {}
    for b in np.unique(idf):
        dfs = df_values[idf == b]
        counts[int(b)] = (int(len(dfs)), float(dfs.mean()))
        take = dfs[np.argsort(dfs, kind="stable")[: sample_terms_per_band]]
        bucket = []
        for df in take:
            mean_gap = max(1.0, n_docs / float(df))
            gaps = rng.geometric(1.0 / mean_gap, size=int(df)).astype(np.uint64)
            bucket.append(gaps)
        samples[int(b)] = bucket
    return _bands_from_samples(
        samples, counts, n_docs, query_weight, decode_rel_cost, min_gain
    )
