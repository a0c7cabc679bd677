import numpy as np
import pyarrow as pa

from bitfunnel_ray.functions.hashing import murmur64a, ngram_hash
from bitfunnel_ray.stages.tokenize import flat_tokens, tokenize_batch


def test_flat_tokens_handles_whitespace_nulls():
    flat, doc_of, doclen = flat_tokens(pa.array(["a b  c", "", None, "  x "]))
    assert flat.to_pylist() == ["a", "b", "c", "x"]
    assert doc_of.tolist() == [0, 0, 0, 3]
    assert doclen.tolist() == [3, 0, 0, 1]


def test_unigram_postings_dedup_and_tf():
    r = tokenize_batch(pa.array(["cat dog cat cat", "dog"]), max_gram=1, emit_text=True)
    # postings unique per (doc, term); tf kept
    got = {(int(row), t): int(tf) for row, t, tf in zip(r.row, r.term, r.tf)}
    assert got == {(0, "cat"): 3, (0, "dog"): 1, (1, "dog"): 1}
    assert r.doclen.tolist() == [4, 1]
    assert r.n_postings.tolist() == [2, 1]
    # hashes match scalar murmur
    for row, t, h in zip(r.row, r.term, r.term_hash):
        assert int(h) == murmur64a(t)


def test_ngram_window_semantics():
    # doc "a b c" with max_gram=3: terms a,b,c,"a b","b c","a b c"
    r = tokenize_batch(pa.array(["a b c"]), max_gram=3, emit_text=True)
    terms = set(r.term.tolist())
    assert terms == {"a", "b", "c", "a b", "b c", "a b c"}
    by_text = {t: int(h) for t, h in zip(r.term, r.term_hash)}
    ha, hb, hc = murmur64a("a"), murmur64a("b"), murmur64a("c")
    assert by_text["a b"] == ngram_hash([ha, hb])
    assert by_text["a b c"] == ngram_hash([ha, hb, hc])
    # n-grams never cross document boundaries
    r2 = tokenize_batch(pa.array(["a b", "c d"]), max_gram=2, emit_text=True)
    assert "b c" not in set(r2.term.tolist())
    # gram sizes recorded
    gs = {t: int(g) for t, g in zip(r.term, r.gram_size)}
    assert gs["a b c"] == 3 and gs["a"] == 1


def test_ngram_tf_counts_repeats():
    r = tokenize_batch(pa.array(["x y x y x"]), max_gram=2, emit_text=True)
    got = {t: int(tf) for t, tf in zip(r.term, r.tf)}
    assert got == {"x": 3, "y": 2, "x y": 2, "y x": 2}


# --- brute-force reference: tokenize_batch and partial_term_stats ---------

import pytest  # noqa: E402

from bitfunnel_ray.build.stats import partial_term_stats  # noqa: E402
from bitfunnel_ray.functions import hashing  # noqa: E402
from bitfunnel_ray.stages import tokenize  # noqa: E402


def _zipf_docs(seed: int, n: int = 300) -> list:
    """Seeded Zipf word soup, plus empty, null and whitespace-only docs."""
    rng = np.random.default_rng(seed)
    docs = []
    for _ in range(n):
        ranks = np.minimum(rng.zipf(1.3, int(rng.integers(0, 40))), 500)
        docs.append(" ".join(f"w{r}" for r in ranks))
    for d in ["", None, "   ", "\t \n", None, ""]:
        docs.insert(int(rng.integers(0, len(docs) + 1)), d)
    return docs


def _reference(docs, max_gram: int, h=hashing.murmur64a):
    """Per document, a Counter over its 1..max_gram windows keyed by
    (ngram_hash, gram): postings (row, hash, gram, tf, first position) in
    (row, hash, gram) order, and the batch's (hash, gram) → (df, cf, text
    of the first window in token order) table."""
    postings, stats, base = [], {}, 0
    for row, text in enumerate(docs):
        toks = (text or "").split()
        tf, first = {}, {}
        for g in range(1, max_gram + 1):
            for i in range(len(toks) - g + 1):
                key = (ngram_hash([h(t) for t in toks[i:i + g]]), g)
                tf[key] = tf.get(key, 0) + 1
                first.setdefault(key, base + i)
                if key not in stats:
                    stats[key] = [0, 0, " ".join(toks[i:i + g])]
        for key in sorted(tf):
            postings.append((row, key[0], key[1], tf[key], first[key]))
            stats[key][0] += 1
            stats[key][1] += tf[key]
        base += len(toks)
    return postings, [(k[0], k[1], *stats[k]) for k in sorted(stats)]


def _check(docs, max_gram, ref_hash=hashing.murmur64a):
    r = tokenize_batch(pa.array(docs, pa.string()), max_gram, keep_pos=True)
    want_p, want_s = _reference(docs, max_gram, ref_hash)
    got_p = list(zip(r.row.tolist(), r.term_hash.tolist(), r.gram_size.tolist(), r.tf.tolist(), r.pos.tolist()))
    assert got_p == want_p
    assert r.n_postings.tolist() == np.bincount([p[0] for p in want_p], minlength=len(docs)).tolist()
    st = partial_term_stats(r)
    got_s = list(zip(st["term_hash"].to_numpy().view(np.uint64).tolist(), st["gram_size"].to_pylist(),
                     st["df_part"].to_pylist(), st["cf_part"].to_pylist(), st["term"].to_pylist()))
    assert got_s == want_s
    uni = partial_term_stats(r, emit_text=False, max_gram=1)
    assert uni["term_hash"].to_numpy().view(np.uint64).tolist() == [s[0] for s in want_s if s[1] == 1]
    return r


@pytest.fixture(params=[False, True], ids=["one-block", "blocked"])
def blocks(request, monkeypatch):
    """``blocked``: cache blocks of 7 rows, so the block concatenation
    runs on small batches too."""
    if request.param:
        monkeypatch.setattr(tokenize, "_block_edges",
                            lambda n_rows, n: np.append(np.arange(0, n_rows, 7), n_rows))


@pytest.mark.parametrize("max_gram", [1, 2, 3])
@pytest.mark.parametrize("seed", [3, 17])
def test_tokenize_matches_brute_force(seed, max_gram, blocks):
    _check(_zipf_docs(seed), max_gram)


@pytest.mark.parametrize("max_gram", [1, 2, 3])
def test_planted_hash_collision_merges_postings(max_gram, monkeypatch, blocks):
    """Two distinct tokens with one 64-bit hash are one term: their
    postings merge (tf summed, first position of either), and the
    partial's text is the one met first."""
    hit = {"w2": hashing.murmur64a("w1")}
    for t, v in hit.items():
        monkeypatch.setitem(hashing._memo, t, v)
    docs = ["w2 w3 w1 w2", "w1 w4", "w3 w2 w2", "", "w5 w1 w3 w2 w1"] + _zipf_docs(5, 40)
    r = _check(docs, max_gram, lambda t: hit.get(t, hashing.murmur64a(t)))
    row0 = r.row == 0
    h1 = hashing.murmur64a("w1")
    assert r.tf[row0 & (r.term_hash == h1) & (r.gram_size == 1)].tolist() == [3]
