"""Spans recorded from the benchmark's side of each layer boundary.

The program is not modified: ``Tracer.wrap`` swaps a public function or
method for a timing wrapper and ``Tracer.restore`` puts the original
back.  Spans live in memory and are written out as JSON lines at the end
of a run.  A request's self time in a layer is its span minus the child
spans nested inside it.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (request id, span id, parent id, name, t0, t1, attrs)
        self._stack: list[int] = []
        self._rid = -1
        self._next = 0
        self._patches: list[tuple] = []

    # --- spans ------------------------------------------------------------
    def begin(self, name: str, **attrs) -> int:
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self._rid, sid, parent, name, time.perf_counter(), None, attrs])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][5] = time.perf_counter()
        self._stack.pop()

    def request(self, kind: str):
        """Context manager for one request; all spans inside share its id."""
        tracer = self

        class _Req:
            def __enter__(self):
                tracer._rid += 1
                self.sid = tracer.begin("request", kind=kind)
                return self

            def __exit__(self, *exc):
                tracer.end(self.sid)
                return False

        return _Req()

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` of the innermost open span."""
        if self._stack:
            attrs = self.spans[self._stack[-1]][6]
            attrs[name] = attrs.get(name, 0) + n

    # --- instrumentation ----------------------------------------------------
    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` with a wrapper that records span ``name``
        around each call.  ``before(span_attrs, *args)`` and
        ``after(span_attrs, result)`` may annotate the span."""
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def timed(*args, **kwargs):
            sid = tracer.begin(name)
            if before is not None:
                before(tracer.spans[sid][6], *args)
            try:
                result = orig(*args, **kwargs)
                if after is not None:
                    after(tracer.spans[sid][6], result)
                return result
            finally:
                tracer.end(sid)

        had_own = attr in getattr(owner, "__dict__", {})
        self._patches.append((owner, attr, orig, had_own))
        setattr(owner, attr, timed)

    def restore(self) -> None:
        while self._patches:
            owner, attr, orig, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)

    # --- output -------------------------------------------------------------
    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for rid, sid, parent, name, t0, t1, attrs in self.spans:
                f.write(
                    json.dumps(
                        {"request": rid, "span": sid, "parent": parent, "name": name,
                         "start": t0, "end": t1, "attrs": attrs}
                    )
                    + "\n"
                )

    def requests(self, kind: "str | None" = None) -> "list[dict]":
        """Per-request summary: wall ms, self ms per span name, counts, and
        the ms no child span accounts for."""
        children: dict[int, list] = defaultdict(list)
        for s in self.spans:
            children[s[2]].append(s)
        out = []
        for s in self.spans:
            if s[3] != "request" or (kind is not None and s[6].get("kind") != kind):
                continue
            wall = (s[5] - s[4]) * 1e3
            self_ms: dict[str, float] = defaultdict(float)
            counts: dict[str, int] = defaultdict(int)
            stack = list(children[s[1]])
            covered = sum((c[5] - c[4]) * 1e3 for c in children[s[1]])
            while stack:
                c = stack.pop()
                kids = children[c[1]]
                self_ms[c[3]] += (c[5] - c[4]) * 1e3 - sum((k[5] - k[4]) * 1e3 for k in kids)
                counts[c[3]] += 1
                for k, v in c[6].items():
                    if isinstance(v, (int, float)) and not isinstance(v, bool):
                        counts[k] += v
                stack.extend(kids)
            for k, v in s[6].items():
                if isinstance(v, (int, float)) and not isinstance(v, bool):
                    counts[k] += v
            out.append({"wall_ms": wall, "self_ms": self_ms, "counts": counts,
                        "unattributed_ms": wall - covered})
        return out


def mean(xs) -> float:
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


def instrument_query_engine(tracer: Tracer, engine) -> None:
    """Spans for parse / match / score / postings (the plan step) and WAND
    on an engine that runs ``QueryAlgebra`` in this process (the local
    ``SearchEngine`` or the term-sharded front's ``ShardedSearchEngine``)."""
    from bitfunnel_ray.query import engine as engine_mod
    from bitfunnel_ray.query import wand as wand_mod

    tracer.wrap(engine_mod, "parse_query", "parse")
    tracer.wrap(wand_mod, "wand_topk", "wand")
    tracer.wrap(engine, "eval", "match", after=lambda attrs, m: attrs.update(matches=len(m)))
    tracer.wrap(engine, "score", "score")

    def postings_attrs(attrs, term_hash, gram):
        # a call that finds the key in the engine's postings cache is a hit
        attrs["postings_hit"] = int((int(term_hash), int(gram)) in engine._cache)
        attrs["postings_calls"] = 1

    tracer.wrap(engine, "postings", "postings", before=postings_attrs)
    if hasattr(engine, "prefetch"):
        tracer.wrap(engine, "prefetch", "prefetch")


def instrument_actor_calls(tracer: Tracer) -> None:
    """Count every actor method call (``handle.method.remote``) issued from
    this process: one per shard RPC."""
    import ray.actor

    orig = ray.actor.ActorMethod.remote

    def remote(self, *args, **kwargs):
        tracer.count("rpcs")
        return orig(self, *args, **kwargs)

    tracer._patches.append((ray.actor.ActorMethod, "remote", orig, True))
    ray.actor.ActorMethod.remote = remote
