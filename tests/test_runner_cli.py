"""Query runner (actor pool), query-log generator, shard DP, CLI, idf math."""

import json
import subprocess
import sys

import numpy as np
import pytest

from bitfunnel_ray.build.builder import build_index
from bitfunnel_ray.build.shardopt import choose_shard_boundaries
from bitfunnel_ray.config import EngineConfig
from bitfunnel_ray.functions.bm25 import (
    compute_idf_x10,
    frequency_at_rank,
    idf_x10_to_frequency,
)
from bitfunnel_ray.pipelines.querylog import generate_query_log
from bitfunnel_ray.query.engine import SearchEngine
from bitfunnel_ray.query.parser import parse_query
from bitfunnel_ray.query.runner import eval_queries, run_query_log, summarize
from bitfunnel_ray.sources.corpus import corpus_from_documents


@pytest.fixture(scope="module")
def idx(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("runner") / "seg")
    build_index(
        corpus_from_documents("/root/testdata/sf0.001"),
        out,
        EngineConfig(max_gram=2, num_buckets=4),
    )
    return out


def test_query_log_deterministic_and_mixed():
    terms = [f"t{i}" for i in range(100)]
    a = generate_query_log(terms, 200, seed=43)
    b = generate_query_log(terms, 200, seed=43)
    assert a.equals(b)
    qs = a["query"].to_pylist()
    assert any("|" in q for q in qs) and any(q.startswith('"') or '"' in q for q in qs)
    assert any("-" in q for q in qs)


def test_runner_matches_direct_engine(idx):
    qlog = generate_query_log(["table", "join", "spark", "merge"], 32, seed=7)
    res = run_query_log(qlog, idx, k=5, concurrency=2, batch_size=8).to_pandas()
    eng = SearchEngine(idx, load_urls=False)
    stats = summarize(run_query_log(qlog, idx, k=5, concurrency=2, batch_size=8))
    assert stats["n_errors"] == 0 and stats["n_queries"] == 32
    for qid, q in zip(qlog["query_id"].to_pylist(), qlog["query"].to_pylist()):
        want = eng.search(q, 5)
        got = res[(res.query_id == qid) & (res["rank"] > 0)].sort_values("rank")
        assert got["doc_id"].tolist() == want["doc_id"].to_pylist(), q
        assert got["score"].tolist() == want["score"].to_pylist(), q


def test_runner_per_query_errors(idx):
    import pyarrow as pa

    qlog = pa.table(
        {
            "query_id": pa.array([0, 1], pa.uint32()),
            "query": pa.array(["table", '"unterminated'], pa.string()),
        }
    )
    res = run_query_log(qlog, idx, k=5, concurrency=2).to_pandas()
    stats_err = res[res.query_id == 1]
    assert (stats_err["error"] != "").all()
    assert (res[res.query_id == 0]["error"] == "").all()


def test_shard_boundaries_dp():
    # uniform histogram → DP splits it; boundaries ascending, start at 0
    hist = [(p, 10) for p in range(1, 101)]
    bounds = choose_shard_boundaries(hist, max_shards=4)
    assert bounds[0] == 0 and bounds == sorted(bounds) and len(bounds) <= 4
    # two well-separated clusters → a cut between them
    hist2 = [(10, 1000), (1000, 10)]
    b2 = choose_shard_boundaries(hist2, max_shards=2)
    assert len(b2) == 2 and b2[1] == 1000


def test_idf_math_reference_parity():
    # Term::ComputeIdfX10 (Term.cpp:232-246): round(10*log10(N/df)), capped
    assert compute_idf_x10(1, 1000) == 30
    assert compute_idf_x10(1000, 1000) == 0
    assert compute_idf_x10(0, 1000) == 60
    assert compute_idf_x10(1, 10**12) == 60  # cap
    assert idf_x10_to_frequency(10) == pytest.approx(0.1)
    # FrequencyAtRank: f_r = 1 - (1-f)^(2^r) (Term.cpp:270-283)
    assert frequency_at_rank(0.1, 0) == pytest.approx(0.1)
    assert frequency_at_rank(0.1, 1) == pytest.approx(1 - 0.81)


def test_cli_end_to_end(tmp_path):
    env = {"PYTHONPATH": "/root/repo", "PATH": "/usr/bin:/bin", "HOME": "/root", "RAY_GRAFT_CPUS": "4"}
    idx_dir = str(tmp_path / "cli_idx")
    r = subprocess.run(
        [sys.executable, "-m", "bitfunnel_ray.cli", "build", "/root/testdata/sf0.001", idx_dir, "--buckets", "4"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    out = json.loads(r.stdout.strip().splitlines()[-1])
    assert out["n_docs"] == 500 and out["complete"]
    r2 = subprocess.run(
        [sys.executable, "-m", "bitfunnel_ray.cli", "query", idx_dir, "spark join", "-k", "3"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert r2.returncode == 0 and "doc_id" in r2.stdout
    r3 = subprocess.run(
        [sys.executable, "-m", "bitfunnel_ray.cli", "analyze", idx_dir],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert r3.returncode == 0
    stats = json.loads(r3.stdout)
    assert stats["postings"] > 0


def test_cli_dedup_writes_cleaned_corpus(tmp_path):
    env = {"PYTHONPATH": "/root/repo", "PATH": "/usr/bin:/bin", "HOME": "/root", "RAY_GRAFT_CPUS": "4"}
    out_dir = str(tmp_path / "deduped")
    r = subprocess.run(
        [sys.executable, "-m", "bitfunnel_ray.cli", "dedup",
         "/root/testdata/sf0.001", out_dir,
         "--shingle", "3", "--bands", "16", "--threshold", "0.7"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    rep = json.loads(r.stdout.strip().splitlines()[-1])
    assert rep["docs_in"] == 500
    assert rep["docs_kept"] + rep["docs_removed"] == 500
    assert rep["docs_removed"] > 0  # the synthetic corpus plants near-dups
    import pyarrow.parquet as pq

    kept = pq.read_table(out_dir, columns=["doc_id"])
    assert kept.num_rows == rep["docs_kept"]


def test_cli_percolate_matches(tmp_path):
    env = {"PYTHONPATH": "/root/repo", "PATH": "/usr/bin:/bin", "HOME": "/root", "RAY_GRAFT_CPUS": "4"}
    qf = tmp_path / "alerts.txt"
    qf.write_text("spark join\nvector\n")
    out_dir = str(tmp_path / "matches")
    r = subprocess.run(
        [sys.executable, "-m", "bitfunnel_ray.cli", "percolate",
         "/root/testdata/sf0.001", str(qf), out_dir],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    rep = json.loads(r.stdout.strip().splitlines()[-1])
    assert rep["n_queries"] == 2 and rep["matches"] > 0
    import pyarrow.parquet as pq

    m = pq.read_table(out_dir)
    assert m.num_rows == rep["matches"]
    assert set(m.column_names) == {"query_id", "doc_id"}


def test_cli_report_corpus_qa(tmp_path):
    env = {"PYTHONPATH": "/root/repo", "PATH": "/usr/bin:/bin", "HOME": "/root", "RAY_GRAFT_CPUS": "4"}
    out_file = str(tmp_path / "report.json")
    r = subprocess.run(
        [sys.executable, "-m", "bitfunnel_ray.cli", "report",
         "/root/testdata/sf0.001", "--out", out_file],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    rep = json.loads(open(out_file).read())
    assert rep["totals"]["n_docs"] == 500
    assert sum(rep["lang_mix"].values()) == 500
    assert rep["exact_dup"]["n_distinct_texts"] <= 500
    assert rep["doclen_percentiles"]["p25"] <= rep["doclen_percentiles"]["p99"]
    assert 0.0 <= rep["repetition_means"]["dup_token_frac"] <= 1.0


def test_per_query_postings_rows(idx):
    """QueryPipelineStatistics analog: each query row reports the posting
    rows its evaluation touched (cache hits count — the reference counts
    quadwords READ)."""
    eng = SearchEngine(idx, load_urls=False)
    t = eval_queries(
        eng,
        np.array([0, 1], dtype=np.uint32),
        [parse_query("spark"), parse_query("spark join")],
        [None, None],
        5,
    )
    df = t.to_pandas()
    r0 = df[df.query_id == 0].postings_rows.iloc[0]
    r1 = df[df.query_id == 1].postings_rows.iloc[0]
    assert r0 > 0 and r1 > r0  # AND touches both terms' lists


def test_explain_sums_to_score(idx):
    """explain() per-term contributions sum bit-exactly to the doc's
    score for boolean and phrase queries."""
    eng = SearchEngine(idx, load_urls=False)
    for q in ("spark join", '"batch batch"', "spark | merge"):
        res = eng.search(q, k=1)
        if res.num_rows == 0:
            continue
        doc = res["doc_id"][0].as_py()
        score = res["score"][0].as_py()
        exp = eng.explain(q, doc)
        assert exp.num_rows > 0
        assert sum(exp["contribution"].to_pylist()) == pytest.approx(score, abs=0.0), q
        assert all(t for t in exp["term"].to_pylist())  # labeled, no raw hashes


def test_explain_boosted_sums_to_score(idx):
    """A boosted term's explain row is its unboosted contribution times
    the boost (every gram of a boosted phrase), and the rows still sum
    bit-exactly to the document's score."""
    eng = SearchEngine(idx, load_urls=False)
    cases = [
        ("spark^2.5 join", "spark join", {"spark": 2.5}),
        ("spark^2 | merge", "spark | merge", {"spark": 2.0}),
        ('"batch batch"^3', '"batch batch"', {"batch": 3.0, "batch batch": 3.0}),
    ]
    checked = 0
    for q, plain, boosts in cases:
        res = eng.search(q, k=1)
        if res.num_rows == 0:
            continue
        doc = res["doc_id"][0].as_py()
        exp = eng.explain(q, doc).to_pydict()
        base = eng.explain(plain, doc).to_pydict()
        assert exp["term"] == base["term"], q
        assert sum(exp["contribution"]) == res["score"][0].as_py(), q
        for term, c, c0 in zip(exp["term"], exp["contribution"], base["contribution"]):
            assert c == c0 * boosts.get(term, 1.0), (q, term)
        checked += 1
    assert checked == len(cases)


def test_query_phase_split_sums_to_latency(tmp_path):
    """parse/plan/match/score phase columns exist and plan+match+score ≈
    the independently measured latency_s (QuerySummaryStatistics analog)."""
    import numpy as np
    import pyarrow as pa

    import ray.data as rd
    from bitfunnel_ray.build.builder import build_index
    from bitfunnel_ray.config import EngineConfig
    from bitfunnel_ray.query.runner import run_query_log, summarize
    from bitfunnel_ray.sources.corpus import corpus_from_documents

    idx = str(tmp_path / "phidx")
    build_index(
        corpus_from_documents("/root/testdata/sf0.001"), idx,
        EngineConfig(max_gram=2, num_buckets=4),
    )
    qlog = pa.table(
        {
            "query_id": pa.array(range(4), pa.int64()),
            "query": pa.array(
                ["table", "spark join", "merge | window", "-table"], pa.string()
            ),
        }
    )
    res = run_query_log(qlog, idx, k=5, concurrency=1).to_pandas()
    for col in ("parse_s", "plan_s", "match_s", "score_s"):
        assert col in res.columns
    per_q = res.groupby("query_id").first()
    phase_sum = per_q["plan_s"] + per_q["match_s"] + per_q["score_s"]
    # phases are measured inside the same window as latency_s: the sum must
    # account for (almost) all of it
    assert (phase_sum <= per_q["latency_s"] + 1e-9).all()
    assert ((per_q["latency_s"] - phase_sum) < 0.005).all()
    s = summarize(rd.from_pandas(res))
    for key in ("mean_parse_ms", "mean_plan_ms", "mean_match_ms", "mean_score_ms"):
        assert key in s and s[key] >= 0.0


def test_cli_repl_script_and_show_term(tmp_path):
    """``cli repl --script``: batch a command file (reference REPL's
    ``script`` command, Environment.cpp:78-98) with query / show term /
    status outputs."""
    import ray.data as rd
    from bitfunnel_ray.build.builder import build_index
    from bitfunnel_ray.config import EngineConfig
    from bitfunnel_ray.sources.corpus import corpus_from_documents

    idx = str(tmp_path / "repl_idx")
    build_index(
        corpus_from_documents("/root/testdata/sf0.001"), idx,
        EngineConfig(max_gram=2, num_buckets=4),
    )
    script = tmp_path / "session.bfs"
    script.write_text(
        "# reproducible session\n"
        "status\n"
        "show term table\n"
        "show term nonexistenttermxyz\n"
        "query spark join\n"
        "table -join\n"
    )
    env = {"PYTHONPATH": "/root/repo", "PATH": "/usr/bin:/bin", "HOME": "/root"}
    r = subprocess.run(
        [sys.executable, "-m", "bitfunnel_ray.cli", "repl", idx, "--script", str(script)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    out = r.stdout
    assert '"n_docs": 500' in out                  # status
    assert "term='table' gram=1 hash=0x" in out    # show term resolves hash
    assert "TOTAL chunks=" in out                  # dict rows found
    assert "(not in index)" in out                 # missing term handled
    assert "doc_id" in out                         # query results printed


def test_repl_execute_show_term_df_matches_search(tmp_path):
    """show term's TOTAL df equals the term's match count."""
    from bitfunnel_ray.build.builder import build_index
    from bitfunnel_ray.cli import repl_execute
    from bitfunnel_ray.config import EngineConfig
    from bitfunnel_ray.query.engine import SearchEngine
    from bitfunnel_ray.sources.corpus import corpus_from_documents

    idx = str(tmp_path / "repl_idx2")
    build_index(
        corpus_from_documents("/root/testdata/sf0.001"), idx,
        EngineConfig(max_gram=2, num_buckets=4),
    )
    eng = SearchEngine(idx, load_urls=False)
    out = repl_execute(eng, "show term table")
    total_line = [l for l in out.splitlines() if "TOTAL" in l][0]
    df = int(total_line.split("df=")[1].split()[0])
    assert df == eng.match_count("table")


def test_cli_group_lifecycle(tmp_path):
    """open → ingest → close → status → expire from the command line
    (cli group; build/groups.py)."""
    env = {"PYTHONPATH": "/root/repo", "PATH": "/usr/bin:/bin", "HOME": "/root", "RAY_GRAFT_CPUS": "4"}
    root = str(tmp_path / "grp_root")

    def run(*args, timeout=300):
        r = subprocess.run(
            [sys.executable, "-m", "bitfunnel_ray.cli", "group", root, *args],
            capture_output=True, text=True, env=env, timeout=timeout,
        )
        assert r.returncode == 0, r.stderr[-2000:]
        return json.loads(r.stdout.strip().splitlines()[-1])

    assert run("open", "day1") == {"opened": "day1"}
    out = run("ingest", "/root/testdata/sf0.001", "--buckets", "4")
    assert out["n_docs"] == 500 and out["complete"]
    run("close")
    st = run("status")
    assert st["groups"]["day1"] == {"state": "closed", "n_segments": 1, "n_docs": 500}
    # the root serves as an index locator while the group is live
    r = subprocess.run(
        [sys.executable, "-m", "bitfunnel_ray.cli", "query", root, "spark join", "-k", "3"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert r.returncode == 0 and "doc_id" in r.stdout
    out = run("expire", "day1")
    assert out["segments_removed"] == 1
    assert run("status")["groups"]["day1"]["state"] == "expired"


def test_cli_delete_by_query(tmp_path, idx):
    """_delete_by_query analog: delete matches, idempotent on re-run,
    query --tombstones excludes the deleted docs."""
    env = {"PYTHONPATH": "/root/repo", "PATH": "/usr/bin:/bin", "HOME": "/root"}
    tomb = str(tmp_path / "tomb.parquet")
    base = [sys.executable, "-m", "bitfunnel_ray.cli"]
    rd = subprocess.run(
        base + ["delete-by-query", idx, "spark join", "--tombstones", tomb, "--dry-run"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert rd.returncode == 0, rd.stderr[-2000:]
    dry = json.loads(rd.stdout)
    assert dry["dry_run"] and dry["n_deleted"] > 0
    import os as _os
    assert not _os.path.exists(tomb)  # dry run writes nothing
    r1 = subprocess.run(
        base + ["delete-by-query", idx, "spark join", "--tombstones", tomb],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert r1.returncode == 0, r1.stderr[-2000:]
    d1 = json.loads(r1.stdout)
    assert d1["n_deleted"] == dry["n_deleted"] > 0
    # idempotent: the same query deletes nothing the second time
    r2 = subprocess.run(
        base + ["delete-by-query", idx, "spark join", "--tombstones", tomb],
        capture_output=True, text=True, env=env, timeout=120,
    )
    d2 = json.loads(r2.stdout)
    assert d2["n_deleted"] == 0
    assert d2["n_tombstones_total"] == d1["n_tombstones_total"]
    # serve-time exclusion: the deleted docs never match again
    rq = subprocess.run(
        base + ["query", idx, "spark join", "-k", "5", "--tombstones", tomb],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert rq.returncode == 0, rq.stderr[-2000:]
    import pyarrow.parquet as _pq

    dead = _pq.read_table(tomb)["doc_id"].to_numpy().astype(np.uint64)
    eng = SearchEngine(idx, load_urls=False, tombstones=dead)
    assert len(eng.eval(parse_query("spark join"))) == 0
    assert len(np.intersect1d(eng.eval(parse_query("spark")), dead)) == 0


def test_cli_dedup_spans_and_snapshot(tmp_path):
    env = {"PYTHONPATH": "/root/repo", "PATH": "/usr/bin:/bin", "HOME": "/root", "RAY_GRAFT_CPUS": "4"}
    out_dir = str(tmp_path / "spans")
    r = subprocess.run(
        [sys.executable, "-m", "bitfunnel_ray.cli", "dedup-spans",
         "/root/testdata/sf0.001", out_dir, "--k", "8"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    rep = json.loads(r.stdout.strip().splitlines()[-1])
    assert rep["status"] == "ok" and rep["chars_kept"] > 0
    import pyarrow.parquet as pq

    cleaned = pq.read_table(out_dir, columns=["doc_id", "text"])
    assert cleaned.num_rows == 500  # every doc survives (possibly shorter)

    # snapshot → verify → restore chain through the CLI
    idx = str(tmp_path / "idx")
    r = subprocess.run(
        [sys.executable, "-m", "bitfunnel_ray.cli", "build",
         "/root/testdata/sf0.001", idx, "--buckets", "2"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    snap, dest = str(tmp_path / "snap"), str(tmp_path / "restored")
    for args, want_rc in (
        (["snapshot", idx, snap], 0),
        (["snapshot-verify", snap], 0),
        (["restore", snap, dest], 0),
    ):
        r = subprocess.run(
            [sys.executable, "-m", "bitfunnel_ray.cli", *args],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert r.returncode == want_rc, (args, r.stderr[-2000:])
    r = subprocess.run(
        [sys.executable, "-m", "bitfunnel_ray.cli", "query", dest, "spark join", "-k", "3"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert r.returncode == 0 and "doc_id" in r.stdout


def test_repl_fetch_command(tmp_path):
    """REPL ``fetch <doc_id>`` renders the stored-field row (or a clear
    message without a docstore)."""
    from bitfunnel_ray.build.builder import build_index
    from bitfunnel_ray.cli import repl_execute
    from bitfunnel_ray.config import EngineConfig
    from bitfunnel_ray.query.engine import SearchEngine
    from bitfunnel_ray.sources.corpus import corpus_from_documents

    idx = str(tmp_path / "repl_ds")
    build_index(
        corpus_from_documents("/root/testdata/sf0.001"), idx,
        EngineConfig(max_gram=1, num_buckets=2, store_fields=("text",)),
    )
    eng = SearchEngine(idx, load_urls=False)
    out = json.loads(repl_execute(eng, "fetch 42"))
    assert out["doc_id"] == 42 and len(out["text"]) > 0
    assert "not stored" in repl_execute(eng, "fetch 999999999")
    assert "usage" in repl_execute(eng, "fetch notanumber")

    bare = str(tmp_path / "repl_bare")
    build_index(
        corpus_from_documents("/root/testdata/sf0.001"), bare,
        EngineConfig(max_gram=1, num_buckets=2),
    )
    assert "docstore" in repl_execute(SearchEngine(bare, load_urls=False), "fetch 1")


def test_cli_export_matches(tmp_path):
    """cli export: every matching doc (and only those) lands in parquet."""
    env = {"PYTHONPATH": "/root/repo", "PATH": "/usr/bin:/bin", "HOME": "/root", "RAY_GRAFT_CPUS": "4"}
    idx = str(tmp_path / "idx")
    r = subprocess.run(
        [sys.executable, "-m", "bitfunnel_ray.cli", "build",
         "/root/testdata/sf0.001", idx, "--buckets", "2"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    out = str(tmp_path / "matches")
    r = subprocess.run(
        [sys.executable, "-m", "bitfunnel_ray.cli", "export",
         idx, "/root/testdata/sf0.001", "table -join", out],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    rep = json.loads(r.stdout.strip().splitlines()[-1])
    import pyarrow.parquet as pq

    t = pq.read_table(out, columns=["text"])
    assert t.num_rows == rep["n_matches"] > 0
    toks = [set(x.split()) for x in t["text"].to_pylist()]
    assert all("table" in s and "join" not in s for s in toks)


def test_repl_vocab_enables_suggest_and_fuzzy(idx, tmp_path):
    """cli repl --vocab <df-table>: the statistics sidecar installs the
    term-text vocabulary, enabling `suggest` and `term~d` in the REPL."""
    from bitfunnel_ray.build.stats import document_frequency_table

    stats = str(tmp_path / "docfreq")
    document_frequency_table(
        corpus_from_documents("/root/testdata/sf0.001"), EngineConfig(max_gram=1)
    ).write_parquet(stats)
    import subprocess, sys

    script = tmp_path / "script.txt"
    script.write_text("suggest sp\nquery spurk~1\n")
    r = subprocess.run(
        [sys.executable, "-m", "bitfunnel_ray.cli", "repl", idx,
         "--vocab", stats, "--script", str(script)],
        capture_output=True, text=True, cwd="/root/repo",
    )
    assert r.returncode == 0, r.stderr[-500:]
    out = r.stdout
    assert '"term": "spark"' in out          # suggest completion
    assert "doc_id" in out                   # fuzzy query matched and ranked


def test_repl_correct_command(idx, tmp_path):
    """REPL `correct <q>`: did-you-mean per OOV token from the installed
    vocabulary (same vocabulary lifecycle as suggest/fuzzy)."""
    from bitfunnel_ray.build.stats import document_frequency_table

    stats = str(tmp_path / "docfreq")
    document_frequency_table(
        corpus_from_documents("/root/testdata/sf0.001"), EngineConfig(max_gram=1)
    ).write_parquet(stats)
    import subprocess, sys

    script = tmp_path / "script.txt"
    script.write_text("correct spurk table\n")
    r = subprocess.run(
        [sys.executable, "-m", "bitfunnel_ray.cli", "repl", idx,
         "--vocab", stats, "--script", str(script)],
        capture_output=True, text=True, cwd="/root/repo",
    )
    assert r.returncode == 0, r.stderr[-500:]
    assert '"suggestion": "spark"' in r.stdout   # OOV token corrected
    assert '"token": "table"' not in r.stdout    # in-vocab token untouched
