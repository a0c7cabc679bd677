"""Ingest-group lifecycle: OpenGroup / CloseGroup / ExpireGroup.

The reference declares group management on its ingestion interface
(``/root/reference/inc/BitFunnel/Index/IIngestor.h:158-176``): a *group*
is the sequence of documents ingested between the group's opening and
its sealing; a closed group is immutable; expiring a group deletes all
data for its documents (the rolling-index pattern — e.g. one group per
crawl day, expire the oldest).  The reference never implemented it
(``/root/reference/src/Index/src/Ingestor.cpp:391-406`` throws
NotImplemented); here the additive-segment model makes it natural:
a group is a named set of segment dirs, expiry unlinks them, and the
query engine simply never opens expired segments — no tombstone scan,
no per-document delete, data removal is O(segments), not O(docs).

Layout (one ``groups.json`` per index root, atomically rewritten):

    root/
      groups.json              # {"groups": {gid: {state, segment_dirs}},
                               #  "open": gid | null}
      g-<gid>/seg-0000/...     # one build root per ingest() call

Crash safety: ``expire_group`` marks the group expired in groups.json
FIRST (readers exclude it from that instant), then unlinks the segment
dirs — a crash between the two steps leaks disk, never resurrects
documents.  ``ingest`` appends segment dirs only after the underlying
``build_index`` published its manifest, so a crash mid-build leaves the
group unchanged and the partial segment resumes on retry (idempotent
bucket checkpoints, build/builder.py).

Doc-id contract: as with all additive segments (build/merge.py), doc_ids
must be disjoint across ingests; group membership adds no per-document
state anywhere — the group IS its segments.
"""

from __future__ import annotations

import json
import os
import shutil
import uuid

from . import segment as seglib
from .builder import build_index

GROUPS = "groups.json"


def _load(root: str) -> dict:
    p = os.path.join(root, GROUPS)
    if not os.path.exists(p):
        return {"groups": {}, "open": None}
    with open(p) as f:
        return json.load(f)


def _save(root: str, state: dict) -> None:
    os.makedirs(root, exist_ok=True)
    tmp = os.path.join(root, f".{GROUPS}.tmp-{uuid.uuid4().hex}")
    with open(tmp, "w") as f:
        json.dump(state, f, indent=1, sort_keys=True)
    os.replace(tmp, os.path.join(root, GROUPS))


def open_group(root: str, group_id: str) -> None:
    """Open a new group; the previously open group (if any) is closed.
    A group id can never be reused — a closed group cannot be reopened
    (IIngestor.h:166-168)."""
    gid = str(group_id)
    st = _load(root)
    if gid in st["groups"]:
        raise ValueError(f"group {gid!r} already exists ({st['groups'][gid]['state']}); "
                         "closed groups cannot be reopened")
    if st["open"] is not None:
        st["groups"][st["open"]]["state"] = "closed"
    st["groups"][gid] = {"state": "open", "segment_dirs": []}
    st["open"] = gid
    _save(root, st)


def close_group(root: str) -> None:
    """Seal the currently open group, if any (IIngestor.h:172-173)."""
    st = _load(root)
    if st["open"] is not None:
        st["groups"][st["open"]]["state"] = "closed"
        st["open"] = None
        _save(root, st)


def ingest(root: str, corpus, cfg=None) -> dict:
    """Build one additive segment from ``corpus`` into the open group.

    Returns the segment manifest.  Requires an open group — the analog
    of the reference contract that additions go to the current group."""
    st = _load(root)
    gid = st["open"]
    if gid is None:
        raise RuntimeError("no open group: call open_group(root, id) before ingest")
    n = len(st["groups"][gid]["segment_dirs"])
    seg_dir = os.path.join(root, f"g-{gid}", f"seg-{n:04d}")
    man = build_index(corpus, seg_dir, cfg)
    # publish membership only after the segment manifest exists — a crash
    # inside build_index leaves groups.json unchanged (segment resumes)
    st = _load(root)
    if st["open"] != gid:
        raise RuntimeError(f"group {gid!r} was closed during ingest")
    if seg_dir not in st["groups"][gid]["segment_dirs"]:
        st["groups"][gid]["segment_dirs"].append(seg_dir)
        _save(root, st)
    return man


def expire_group(root: str, group_id: str) -> int:
    """Delete all data for the group's documents (IIngestor.h:175-176).

    The group must be closed (expiring the open ingest target is almost
    certainly a bug — close it first).  Returns the number of segment
    dirs removed.  Metadata-first ordering: readers exclude the group as
    soon as groups.json lands; the unlink that follows can crash without
    resurrecting anything."""
    gid = str(group_id)
    st = _load(root)
    if gid not in st["groups"]:
        raise KeyError(f"unknown group {gid!r}")
    g = st["groups"][gid]
    if g["state"] == "open":
        raise ValueError(f"group {gid!r} is open; close_group() before expiring")
    dirs = list(g["segment_dirs"])
    g["state"] = "expired"
    g["segment_dirs"] = []
    _save(root, st)
    for d in dirs:
        shutil.rmtree(d, ignore_errors=True)
    return len(dirs)


def status(root: str) -> dict:
    """{"open": gid|None, "groups": {gid: {"state", "n_segments", "n_docs"}}}"""
    st = _load(root)
    out = {"open": st["open"], "groups": {}}
    for gid, g in st["groups"].items():
        n_docs = 0
        for d in g["segment_dirs"]:
            man = seglib.load_manifest(d)
            if man:
                n_docs += int(man.get("n_docs", 0))
        out["groups"][gid] = {
            "state": g["state"],
            "n_segments": len(g["segment_dirs"]),
            "n_docs": n_docs,
        }
    return out
