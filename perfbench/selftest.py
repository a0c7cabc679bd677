#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size (600 docs, 1 s loops).

    python3 perfbench/selftest.py

Checks that
  1. every workload runs in both modes and prints every metric named in
     BENCHMARK.json with its unit (end_to_end untraced, per_layer traced);
  2. the correctness gate passes the engine's own top-k and fails a
     planted wrong top-k (two results swapped, one score changed);
  3. a checkout holding only BENCHMARK.json and perfbench/ makes run.py
     exit non-zero without printing a result.
Takes a few minutes; prints one line per check and exits 1 on a failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench import fixtures, gate as gatelib  # noqa: E402

DOCS = 600
FAILURES: list[str] = []


def report(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=900,
    )


def check_metrics(spec: dict) -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        for w in spec["workloads"]:
            p = run(["--workload", w["name"], "--seed", "1", "--seconds", "1",
                     "--trace", str(trace), "--docs", str(DOCS)])
            lines = p.stdout.strip().splitlines()
            try:
                res = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                report(False, f"{w['name']} trace={trace}: no result line (exit {p.returncode})")
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            report(p.returncode == 0 and res["correct"] and res["failed"] == 0,
                   f"{w['name']} trace={trace}: exit 0, correct, no failed requests")
            report(got == want, f"{w['name']} trace={trace}: every {section} metric with its unit")


class _Planted:
    """A front that returns the engine's top-k with a planted error."""

    def __init__(self, engine):
        self.engine = engine

    def search(self, q: str, k: int):
        import pyarrow as pa

        t = self.engine.search(q, k=k)
        if t.num_rows < 2:
            return pa.table({"doc_id": pa.array([1 << 40], pa.uint64()), "score": [1.0]})
        ids, scores = t["doc_id"].to_pylist(), t["score"].to_pylist()
        ids[0], ids[1] = ids[1], ids[0]
        scores[-1] += 1e-9
        return pa.table({"doc_id": pa.array(ids, pa.uint64()), "score": scores})


def check_gate() -> None:
    from bitfunnel_ray.query.engine import SearchEngine

    if not fixtures.serving_index_ready(DOCS):
        report(False, "gate check: the runs above did not leave a serving index")
        return
    seg_dirs = fixtures.ensure_serving_index(DOCS)  # built by the runs above
    engine = SearchEngine(seg_dirs)
    corpus = fixtures.load_corpus(DOCS)
    qs = gatelib.sample(fixtures.query_log(fixtures.terms_by_df(seg_dirs), 500, 5), 20, 5)
    good = gatelib.Gate()
    gatelib.check_queries(good, "engine", lambda q: engine.search(q, k=gatelib.K), engine, corpus, qs)
    report(not good.failures and good.exact_frac == 1.0, "gate passes the engine's own top-k")
    bad = gatelib.Gate()
    planted = _Planted(engine)
    gatelib.check_queries(bad, "planted", lambda q: planted.search(q, k=gatelib.K), engine, corpus, qs)
    report(len(bad.failures) == len(qs) and bad.exact_frac == 0.0,
           f"gate fails every planted wrong top-k ({len(bad.failures)}/{len(qs)})")


def check_bare_checkout() -> None:
    bare = os.path.join(fixtures.work_dir(), "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = run(["--workload", "serve_hot", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    report(p.returncode != 0 and not p.stdout.strip(), "bare checkout: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_bare_checkout()
    check_metrics(spec)
    check_gate()
    print("selftest:", "FAILED" if FAILURES else "passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
