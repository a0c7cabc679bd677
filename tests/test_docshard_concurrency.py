"""A doc-shard actor serves several requests at once (``max_concurrency``),
and each scores under its own global statistics: concurrent requests with
different df maps must each get the answer they get alone."""

import threading

import ray

from bitfunnel_ray.build.builder import build_index
from bitfunnel_ray.config import EngineConfig
from bitfunnel_ray.query.docsharded import DocShardActor
from bitfunnel_ray.sources.corpus import corpus_from_documents

QA = ["spark join", "table", "merge | window"] * 5
QB = ["vector batch", "window", "spark | table"] * 5


def test_concurrent_requests_keep_their_own_statistics(tmp_path, ray_session):
    seg = str(tmp_path / "seg")
    build_index(corpus_from_documents("/root/testdata/sf0.001"), seg, EngineConfig(max_gram=2, num_buckets=4))
    actor = DocShardActor.options(num_cpus=0.25).remote([seg])
    try:
        n, dl_sum = ray.get(actor.corpus_stats.remote())

        def stats(qs, mult):
            pairs = sorted({p for ps, _ in ray.get(actor.scoring_pairs_many.remote(qs)) for p in ps})
            df = dict(zip(pairs, ray.get(actor.term_stats.remote(pairs))))
            return {p: v * mult for p, v in df.items()}, 10 * n, dl_sum / n

        reqs = {"A": (QA, stats(QA, 3)), "B": (QB, stats(QB, 2))}
        want = {k: ray.get(actor.search_topk_many.remote(qs, 10, *st)) for k, (qs, st) in reqs.items()}
        answered, wrong = [], []

        def run(name):
            qs, st = reqs[name]
            for _ in range(10):
                got = ray.get(actor.search_topk_many.remote(qs, 10, *st), timeout=60)
                answered.append(name)
                if any(g[1].tolist() != w[1].tolist() for g, w in zip(got, want[name])):
                    wrong.append(name)

        threads = [threading.Thread(target=run, args=(k,)) for k in reqs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads) and len(answered) == 20
        assert wrong == []
    finally:
        ray.kill(actor)
