"""Property tests for the autocomplete ranking and the treatment-band
coalescer against brute-force python references (kernel level — no Ray
session needed)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bitfunnel_ray.build.treatopt import _coalesce, suggest_block_size
from bitfunnel_ray.ops.suggest import SuggestIndex

# ---------------------------------------------------------------------------
# SuggestIndex.complete == brute-force filter + sort
# ---------------------------------------------------------------------------

term_st = st.text(alphabet="abs ", min_size=1, max_size=6)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(term_st, st.integers(min_value=1, max_value=50)),
        min_size=0,
        max_size=40,
        unique_by=lambda kv: kv[0],
    ),
    st.text(alphabet="abs", max_size=3),
    st.integers(min_value=1, max_value=8),
)
def test_suggest_index_equals_bruteforce(rows, prefix, k):
    terms = np.array([r[0] for r in rows], dtype=object)
    dfs = np.array([r[1] for r in rows], dtype=np.int64)
    idx = SuggestIndex(terms, dfs)
    got = idx.complete(prefix, k=k)
    want = sorted(
        (
            (t, d)
            for t, d in rows
            if t.startswith(prefix) and " " not in t  # unigrams only
        ),
        key=lambda kv: (-kv[1], kv[0]),
    )[:k]
    assert got["term"].to_pylist() == [t for t, _ in want]
    assert got["df"].to_pylist() == [d for _, d in want]


# ---------------------------------------------------------------------------
# _coalesce invariants: every df maps to the treatment of ITS band
# ---------------------------------------------------------------------------


def _treatment_for(bands: tuple, length: int):
    """Replicate encode.py's band matching: reversed iteration over the
    non-catch-all bands applies the SMALLEST matching ub last."""
    bs, cd = bands[-1][1], bands[-1][2]
    for ub, b, c in reversed([x for x in bands[:-1]]):
        if length <= ub:
            bs, cd = b, c
    return bs, cd


band_row_st = st.tuples(
    st.integers(min_value=0, max_value=60),  # idf (descending later)
    st.integers(min_value=1, max_value=10**6),  # df_ub
    st.sampled_from([64, 128, 256, 512]),
    st.sampled_from(["varint", "ef"]),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(band_row_st, min_size=1, max_size=12))
def test_coalesce_preserves_band_treatments(rows):
    # make the input well-formed: df ascending, idf descending (what
    # _bands_from_samples produces)
    rows = sorted(rows, key=lambda r: (r[1], -r[0]))
    bands = _coalesce(rows)
    # shape invariants
    assert bands[-1][0] is None
    ubs = [b[0] for b in bands[:-1]]
    assert all(isinstance(u, int) for u in ubs)
    assert ubs == sorted(ubs) and len(set(ubs)) == len(ubs)
    # semantic invariant: for every input band's boundary df, the
    # coalesced spec assigns the treatment of the band that OWNED that
    # df (the last input row with that df_ub — later rows overwrite on
    # duplicated boundaries, mirroring _coalesce's dedup rule)
    owner = {}
    for _idf, ub, bs, cd in rows:
        owner[ub] = (bs, cd)
    seen_ubs = set()
    for _idf, ub, bs, cd in rows:
        if ub in seen_ubs:
            continue
        seen_ubs.add(ub)
        assert _treatment_for(bands, ub) == owner[ub], (ub, bands)


def test_block_size_monotone():
    prev = 0
    for df in [0, 1, 10, 100, 1000, 10**4, 10**5, 10**6, 10**9]:
        bs = suggest_block_size(df)
        assert bs >= prev
        prev = bs
