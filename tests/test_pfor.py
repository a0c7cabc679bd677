"""Codec treatment bands over a mixed varint/EF layout.

The module name survives from the retired PFor codec so the test id stays
stable; the packed head band is Elias–Fano now.
"""

import numpy as np


def test_codec_band_build_identical_results(tmp_path, ray_session):
    """A packed head band must change bytes, never results/scores; both
    bands must be present and the packed one must shrink docs payloads."""
    import glob

    import pyarrow.parquet as pq

    from bitfunnel_ray.build.builder import build_index
    from bitfunnel_ray.build.encode import CODEC_EF, CODEC_VARINT
    from bitfunnel_ray.config import EngineConfig
    from bitfunnel_ray.query.engine import SearchEngine
    from bitfunnel_ray.sources.corpus import corpus_from_documents

    sf = "/root/testdata/sf0.001"
    flat_dir, ef_dir = str(tmp_path / "flat"), str(tmp_path / "ef")
    build_index(
        corpus_from_documents(sf), flat_dir, EngineConfig(max_gram=2, num_buckets=4)
    )
    cfg = EngineConfig(
        max_gram=2,
        num_buckets=4,
        treatment_bands=((64, 128), (None, 128, "ef")),
    )
    build_index(corpus_from_documents(sf), ef_dir, cfg)
    a = SearchEngine(flat_dir, load_urls=False)
    b = SearchEngine(ef_dir, load_urls=False)
    for q in ["table join", "merge | window", "table -join", '"batch batch"', "-table"]:
        ra, rb = a.search(q, k=10).to_pandas(), b.search(q, k=10).to_pandas()
        assert ra["doc_id"].tolist() == rb["doc_id"].tolist(), q
        assert np.allclose(ra["score"], rb["score"]), q

    def stats(d):
        codecs, docs_bytes = [], 0
        for f in glob.glob(f"{d}/dict-*.parquet"):
            t = pq.read_table(f)
            if "codec" in t.column_names:
                codecs.extend(t["codec"].to_pylist())
            docs_bytes += sum(len(x) for x in t["docs_payload"].to_pylist())
        return codecs, docs_bytes

    codecs, ef_bytes = stats(ef_dir)
    _, flat_bytes = stats(flat_dir)
    assert CODEC_EF in codecs and CODEC_VARINT in codecs  # both bands present
    assert ef_bytes < flat_bytes
