"""KLL quantile sketch — the mergeable scale path for percentiles over
UNBOUNDED value domains.

``ops/quantiles.py`` computes exact percentiles by exchanging a bounded
value histogram — the right tool when values are small integers (doc
lengths, counts).  For arbitrary floats at 100 TB the histogram is the
data; a quantile sketch moves O(k · log(n/k)) values per block instead.
This is the KLL sketch (Karnin, Lang, Liberty, "Optimal Quantile
Approximation in Streams", FOCS 2016): a ladder of compactors where
level i holds values of weight 2^i; a full compactor sorts and promotes
every other element to the level above.  Rank error is bounded by
eps·n with eps ≈ O(1/k) for the top compactor capacity k.

Determinism: the classic sketch flips a coin per compaction to pick the
odd/even survivors; here the flip ALTERNATES per compactor (the known
deterministic variant — same O(1/k) error bound with a slightly larger
constant), so every run, resume, and merge order produces an identical
sketch for an identical input order, and the pytest can assert
reproducibility.

Distributed shape: one sketch per block (map-side), serialized as
(level, values) rows — a few KB regardless of block size; a single
final reduce merges the ladders (concat per level, recompress).  Only
sketch rows ever enter the exchange; the value column itself never
moves.

Reference analog: none (the reference's statistics are exact df/length
histograms); this generalizes the statistics stage to arbitrary-domain
quantiles.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa


class KLL:
    """Deterministic KLL sketch over float64 values."""

    def __init__(self, k: int = 200):
        if k < 8:
            raise ValueError("k must be >= 8")
        self.k = int(k)
        self.levels: list[np.ndarray] = [np.empty(0, np.float64)]
        self.n = 0
        self._flips = [False]

    # --- capacities -------------------------------------------------------
    def _cap(self, level: int) -> int:
        # top compactor holds k; each level below holds (2/3)^depth of it
        depth = len(self.levels) - 1 - level
        return max(8, int(np.ceil(self.k * (2.0 / 3.0) ** depth)))

    def _size(self) -> int:
        return sum(len(lv) for lv in self.levels)

    def _capacity_total(self) -> int:
        return sum(self._cap(i) for i in range(len(self.levels)))

    # --- updates ----------------------------------------------------------
    def update_many(self, values: np.ndarray) -> None:
        v = np.asarray(values, np.float64)
        v = v[~np.isnan(v)]
        if not len(v):
            return
        self.levels[0] = np.concatenate([self.levels[0], v])
        self.n += len(v)
        self._compress()

    def _compress(self) -> None:
        while self._size() > self._capacity_total():
            for i in range(len(self.levels)):
                if len(self.levels[i]) > self._cap(i):
                    self._compact(i)
                    break
            else:
                break

    def _compact(self, i: int) -> None:
        lv = np.sort(self.levels[i])
        off = 1 if self._flips[i] else 0
        self._flips[i] = not self._flips[i]  # deterministic alternation
        promoted = lv[off::2]
        self.levels[i] = np.empty(0, np.float64)
        if i + 1 == len(self.levels):
            self.levels.append(np.empty(0, np.float64))
            self._flips.append(False)
        self.levels[i + 1] = np.concatenate([self.levels[i + 1], promoted])

    # --- merge ------------------------------------------------------------
    def merge(self, other: "KLL") -> "KLL":
        while len(self.levels) < len(other.levels):
            self.levels.append(np.empty(0, np.float64))
            self._flips.append(False)
        for i, lv in enumerate(other.levels):
            if len(lv):
                self.levels[i] = np.concatenate([self.levels[i], lv])
        self.n += other.n
        self._compress()
        return self

    # --- queries ----------------------------------------------------------
    def _weighted(self) -> tuple[np.ndarray, np.ndarray]:
        vals = np.concatenate([lv for lv in self.levels if len(lv)] or [np.empty(0)])
        wts = np.concatenate(
            [np.full(len(lv), 1 << i, np.int64) for i, lv in enumerate(self.levels) if len(lv)]
            or [np.empty(0, np.int64)]
        )
        order = np.argsort(vals, kind="stable")
        return vals[order], wts[order]

    def quantile(self, q: float) -> float:
        vals, wts = self._weighted()
        if not len(vals):
            return float("nan")
        cum = np.cumsum(wts)
        target = q * cum[-1]
        return float(vals[min(int(np.searchsorted(cum, target)), len(vals) - 1)])

    def rank(self, x: float) -> int:
        """Estimated number of values <= x."""
        vals, wts = self._weighted()
        if not len(vals):
            return 0
        i = int(np.searchsorted(vals, x, side="right"))
        return int(np.cumsum(wts)[i - 1]) if i else 0

    # --- serialization (sketch rows for the exchange) ----------------------
    def to_rows(self) -> pa.Table:
        levels, values = [], []
        for i, lv in enumerate(self.levels):
            if len(lv):
                levels.append(i)
                values.append(lv.tolist())
        return pa.table(
            {
                "level": pa.array(levels, pa.int64()),
                "n": pa.array([self.n] + [0] * (len(levels) - 1) if levels else [], pa.int64()),
                "values": pa.array(values, pa.list_(pa.float64())),
            }
        )

    @classmethod
    def from_rows(cls, t: pa.Table, k: int) -> "KLL":
        s = cls(k)
        max_level = int(max(t["level"].to_pylist(), default=0))
        while len(s.levels) <= max_level:
            s.levels.append(np.empty(0, np.float64))
            s._flips.append(False)
        for level, vals in zip(t["level"].to_pylist(), t["values"].to_pylist()):
            s.levels[level] = np.concatenate(
                [s.levels[level], np.asarray(vals, np.float64)]
            )
        s.n = int(sum(t["n"].to_pylist()))
        s._compress()
        return s


def kll_sketch(
    ds: "ray.data.Dataset", col: str, k: int = 200
) -> KLL:
    """One sketch per block, merged to a single driver-small KLL."""

    def per_block(t: pa.Table) -> pa.Table:
        s = KLL(k)
        s.update_many(t[col].to_numpy(zero_copy_only=False).astype(np.float64))
        return s.to_rows()

    rows = ds.select_columns([col]).map_batches(
        per_block, batch_format="pyarrow"
    )
    import ray

    merged = KLL(k)
    for t in ray.get(rows.to_arrow_refs()):
        if len(t):
            merged.merge(KLL.from_rows(t, k))
    return merged


def kll_quantiles(
    ds: "ray.data.Dataset",
    col: str,
    quantiles: tuple = (0.5, 0.9, 0.99),
    k: int = 200,
) -> pa.Table:
    """Approximate quantiles of ``col`` → (q, value); rank error bounded
    by ~O(1/k)·n."""
    s = kll_sketch(ds, col, k)
    return pa.table(
        {
            "q": pa.array(list(quantiles), pa.float64()),
            "value": pa.array([s.quantile(q) for q in quantiles], pa.float64()),
        }
    )


def grouped_kll_quantiles(
    ds: "ray.data.Dataset",
    value_col: str,
    group_col: str,
    quantiles: tuple = (0.5, 0.9, 0.99),
    k: int = 200,
) -> pa.Table:
    """Per-group approximate quantiles — the unbounded-domain counterpart
    of ``grouped_percentiles`` (ops/quantiles.py): each block builds one
    KLL per group IT sees, the exchange moves only (group, level, values)
    sketch rows (O(k log n) per group per block, never the value column),
    and the per-group finish merges co-located sketches.  Returns
    (group, q, value) sorted."""
    from bitfunnel_ray.ops.exchange import exchange

    def per_block(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "grp": pa.array([], pa.string()),
                "level": pa.array([], pa.int64()),
                "n": pa.array([], pa.int64()),
                "values": pa.array([], pa.list_(pa.float64())),
            }
        )
        if len(t) == 0:
            return empty
        import pyarrow.compute as pc

        g = pc.dictionary_encode(
            t[group_col].cast(pa.string()).combine_chunks()
            if isinstance(t[group_col], pa.ChunkedArray)
            else t[group_col].cast(pa.string())
        )
        idx = g.indices.to_numpy()
        vals = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        out = []
        for gi, name in enumerate(g.dictionary.to_pylist()):
            s = KLL(k)
            s.update_many(vals[idx == gi])
            rows = s.to_rows()
            out.append(
                rows.add_column(0, "grp", pa.array([name] * len(rows), pa.string()))
            )
        return pa.concat_tables(out) if out else empty

    def finish(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "grp": pa.array([], pa.string()),
                "q": pa.array([], pa.float64()),
                "value": pa.array([], pa.float64()),
            }
        )
        if len(t) == 0:
            return empty
        out_g, out_q, out_v = [], [], []
        import pyarrow.compute as pc

        for name in pc.unique(t["grp"]).to_pylist():
            sub = t.filter(pc.equal(t["grp"], name))
            s = KLL.from_rows(sub.drop_columns(["grp"]), k)
            for q in quantiles:
                out_g.append(name)
                out_q.append(q)
                out_v.append(s.quantile(q))
        return pa.table(
            {
                "grp": pa.array(out_g, pa.string()),
                "q": pa.array(out_q, pa.float64()),
                "value": pa.array(out_v, pa.float64()),
            }
        )

    import ray

    rows = ds.select_columns([group_col, value_col]).map_batches(
        per_block, batch_format="pyarrow"
    )
    per_group = exchange(rows, ["grp"], finish)
    tables = [x for x in ray.get(per_group.to_arrow_refs()) if len(x)]
    out = (
        pa.concat_tables(tables)
        if tables
        else pa.table(
            {
                "grp": pa.array([], pa.string()),
                "q": pa.array([], pa.float64()),
                "value": pa.array([], pa.float64()),
            }
        )
    )
    return out.rename_columns([group_col, "q", "value"]).sort_by(
        [(group_col, "ascending"), ("q", "ascending")]
    )
