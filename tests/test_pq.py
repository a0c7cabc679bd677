"""Product quantization ANN (ops/pq.py): codes, ADC recall, exact refine."""

import numpy as np
import pyarrow.parquet as pq
import pytest

import ray.data as rd

from bitfunnel_ray.ops.ann import brute_force_topk
from bitfunnel_ray.ops.pq import encode_pq, pq_topk, train_pq

SF = "/root/testdata/sf0.001/embeddings.parquet"


@pytest.fixture(scope="module")
def fixture(ray_session):
    emb = rd.read_parquet(SF)
    t = pq.read_table(SF)
    Q = np.stack(t["embedding"].to_numpy(zero_copy_only=False)[[5, 123, 400]]).astype(
        np.float64
    )
    books = train_pq(emb, m=32, ks=16, n_iter=6)
    codes = encode_pq(emb, books)
    exact = brute_force_topk(emb, Q, k=10).to_pandas()
    return emb, Q, books, codes, exact


def _recall(a, b, nq=3, k=10):
    return sum(
        len(set(a[a.query_id == qi]["vec_id"]) & set(b[b.query_id == qi]["vec_id"])) / k
        for qi in range(nq)
    ) / nq


def test_shapes_and_determinism(fixture):
    emb, Q, books, codes, exact = fixture
    assert books.shape == (32, 16, 2)
    ct = codes.to_pandas()
    assert len(ct) == 500 and all(len(c) == 32 for c in ct["code"][:5])
    # retraining is bit-identical (seeded init, no RNG)
    books2 = train_pq(emb, m=32, ks=16, n_iter=6)
    assert np.array_equal(books, books2)


def test_adc_recall_and_exact_refine(fixture):
    emb, Q, books, codes, exact = fixture
    approx = pq_topk(codes, books, Q, k=10).to_pandas()
    assert _recall(approx, exact) >= 0.4  # 32-byte codes, no refine
    ref = pq_topk(codes, books, Q, k=10, refine=50, embeddings=emb).to_pandas()
    assert _recall(ref, exact) >= 0.9
    # refined cosines are exact recomputations (equal to the brute-force
    # scan up to BLAS summation order — the candidate matmul has a
    # different shape, so the last bit can differ)
    m = ref.merge(exact, on=["query_id", "vec_id"], suffixes=("_r", "_e"))
    assert np.allclose(m["cosine_r"], m["cosine_e"], rtol=0, atol=1e-12)
    # refine requires the raw vectors
    with pytest.raises(ValueError, match="refine"):
        pq_topk(codes, books, Q, k=10, refine=50)


def test_validation(fixture):
    emb, Q, books, codes, exact = fixture
    with pytest.raises(ValueError, match="uint8"):
        train_pq(emb, m=8, ks=512)
    with pytest.raises(ValueError, match="divisible"):
        train_pq(emb, m=7, ks=16)


def test_adc_ties_at_the_cut_keep_the_smallest_ids(ray_session):
    """Vectors with the same code score the same: at the top-k cut the
    smallest vec_ids win, whatever their order in the block."""
    import pyarrow as pa

    books = np.array([[[1.0], [0.0]], [[1.0], [0.0]]])  # (m=2, ks=2, dsub=1)
    ids = np.random.default_rng(3).permutation(40)
    code = np.ones((40, 2), np.uint8)  # score 0
    code[ids < 30] = (0, 1)  # 30 tied rows at score 1/sqrt(2)
    code[np.isin(ids, [37, 12, 25])] = (0, 0)  # three best, score sqrt(2)
    codes = rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "code": pa.array(code.tolist(), pa.list_(pa.uint8())),
            }
        )
    )
    got = pq_topk(codes, books, np.array([[1.0, 1.0]]), k=6).to_pandas()
    assert got["vec_id"].tolist() == [12, 25, 37, 0, 1, 2]
