#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload <ingest|serve_hot>
                             --seed <n> --seconds <s> --trace <0|1>

Runs one workload in a child process (``harness.py``) under a wall-clock
deadline, then stops every process of the run's Ray session and prints
the result as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit code 0 only when the run finished and passed the correctness gate.
A run that exceeds its deadline is killed and reported with the stage it
was in.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench import fixtures  # noqa: E402
from perfbench.procs import kill_session  # noqa: E402

DEADLINE_S = 170  # whole run, set-up and gate included
# a run that first has to build the checkout's cached serving index
FIRST_BUILD_DEADLINE_S = 840
# Ray's socket paths (<dir>/session_<date>_<pid>/sockets/plasma_store)
# must stay under 108 bytes
MAX_RAY_DIR = 44


def ray_dir() -> str:
    d = os.path.join(ROOT, ".perfbench", "ray")
    if len(d) > MAX_RAY_DIR:
        d = os.path.join(ROOT, ".pbr")
    if len(d) > MAX_RAY_DIR:
        raise SystemExit(
            f"checkout path too long for Ray's socket paths: {d} "
            f"(at most {MAX_RAY_DIR} characters)"
        )
    return d


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--docs", type=int, default=fixtures.N_DOCS, help=argparse.SUPPRESS)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "bitfunnel_ray")):
        print(f"perfbench: no bitfunnel_ray package under {ROOT}", file=sys.stderr)
        return 2
    work = fixtures.work_dir()
    os.makedirs(work, exist_ok=True)
    rdir = ray_dir()
    kill_session(rdir)  # leftovers of a run that was itself killed
    shutil.rmtree(rdir, ignore_errors=True)
    os.makedirs(rdir)
    result_path = os.path.join(work, "result.json")
    stage_path = os.path.join(work, "stage")
    for p in (result_path, stage_path):
        if os.path.exists(p):
            os.remove(p)
    deadline = DEADLINE_S
    if args.workload != "ingest" and not fixtures.serving_index_ready(args.docs):
        deadline = FIRST_BUILD_DEADLINE_S

    cmd = [
        sys.executable, os.path.join(HERE, "harness.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--docs", str(args.docs), "--ray-dir", rdir,
        "--result", result_path, "--stage-file", stage_path,
    ]
    env = dict(os.environ, PYTHONPATH=ROOT)
    # a SIGTERM to this process still stops the child and the Ray session
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # the child's output goes to stderr: stdout carries only the result line
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True)
    timed_out, code = False, None
    try:
        code = child.wait(timeout=deadline)
    except subprocess.TimeoutExpired:
        timed_out = True
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
        kill_session(rdir)
    shutil.rmtree(rdir, ignore_errors=True)

    stage = open(stage_path).read().strip() if os.path.exists(stage_path) else "start"
    if timed_out:
        print(f"perfbench: {args.workload} exceeded its {deadline} s deadline in stage: {stage}", file=sys.stderr)
        return 3
    if code != 0 or not os.path.exists(result_path):
        print(f"perfbench: {args.workload} failed (exit {code}) in stage: {stage}", file=sys.stderr)
        return 1
    with open(result_path) as f:
        result = json.load(f)
    os.remove(result_path)
    print(json.dumps(result))
    return 0 if result["correct"] else 4


if __name__ == "__main__":
    sys.exit(main())
