"""Index snapshot / restore — the Elasticsearch snapshot-repository
analog over immutable segments.

A snapshot is a content-verified copy of every file of every segment an
index locator resolves to, plus a manifest recording (segment, file,
bytes, sha256).  Because segments are immutable (additive ingest +
compaction never rewrite a published file, build/merge.py), snapshots
are naturally INCREMENTAL: a file already present in the repository
with a matching digest is skipped, so a re-snapshot after one new
ingest wave copies only the new wave's segment.

Scale shape: one Ray task per segment directory (the natural parallel
unit — segments are built independently and sized by the build's bucket
count); each task streams its files and returns only (file, bytes,
digest) manifest rows.  At cluster scale the destination is shared
storage; the sandbox exercises the same code against a local path.

Restore verifies every digest before publishing (atomic per-file
tmp+rename, a final ``_RESTORED`` marker after the full set verifies),
so a torn restore is never mistaken for a healthy index.

Reference analog: none in-tree (the reference's TermTable/slice
serialization at src/Index/src/TermTable.cpp:86-153 writes one process's
in-memory state; it has no repository/copy tooling) — this is the
operational layer its production users would need.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import pyarrow as pa

from bitfunnel_ray.build.segment import load_manifest, resolve_segment_dirs

_MANIFEST = "snapshot.json"
_MARKER = "_RESTORED"


def _iter_segment_files(seg_dir: str):
    """Every regular file under a segment dir, repo-relative, sorted."""
    for root, _dirs, files in os.walk(seg_dir):
        for f in sorted(files):
            if f.startswith("."):
                continue  # in-flight tmp files are never part of a segment
            p = os.path.join(root, f)
            yield os.path.relpath(p, seg_dir), p


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _copy_hash(src: str, tmp: str) -> str:
    """ONE streamed read: hash while copying (segments can be TBs — a
    separate hash pass + copy pass + verify pass tripled the I/O)."""
    h = hashlib.sha256()
    with open(src, "rb") as f, open(tmp, "wb") as out:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
            out.write(block)
    return h.hexdigest()


def _copy_segment(
    seg_dir: str, dest_root: str, seg_name: str, known: "dict[str, tuple[int, str]]"
) -> list[dict]:
    """Copy one segment into the repository; return its manifest rows.
    ``known`` maps repo-relative paths already recorded by a previous
    snapshot to (bytes, sha256, mtime_ns) — a file whose size AND source
    mtime both match and which exists in the repo is skipped WITHOUT
    re-reading it.  The mtime guards against a segment rebuilt in place
    (same path, same doc count, same byte size but different content —
    e.g. rebuilt with different treatment bands), which a size-only key
    would silently snapshot stale; ``verify_snapshot`` remains the
    integrity audit when distrust is warranted."""
    rows = []
    out_dir = os.path.join(dest_root, seg_name)
    os.makedirs(out_dir, exist_ok=True)
    for rel, src in _iter_segment_files(seg_dir):
        key = f"{seg_name}/{rel}"
        st = os.stat(src)
        size, mtime_ns = st.st_size, st.st_mtime_ns
        dst = os.path.join(out_dir, rel)
        prior = known.get(key)
        if (
            prior is not None
            and prior[0] == size
            and prior[2] == mtime_ns  # None (pre-mtime manifest) never matches
            and os.path.exists(dst)
        ):
            digest = prior[1]
        else:
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            tmp = dst + ".tmp"
            digest = _copy_hash(src, tmp)
            os.replace(tmp, dst)
        rows.append(
            {
                "segment": seg_name,
                "file": rel,
                "bytes": size,
                "sha256": digest,
                "src_mtime_ns": mtime_ns,
            }
        )
    return rows


def snapshot_index(index_locator, snap_dir: str) -> dict:
    """Snapshot every segment the locator resolves to into ``snap_dir``.
    Returns {"segments": n, "files": n, "bytes": n}."""
    from bitfunnel_ray.ops.exchange import fan_out

    seg_dirs = resolve_segment_dirs(index_locator)
    os.makedirs(snap_dir, exist_ok=True)
    names = []
    for d in seg_dirs:
        man = load_manifest(d)
        # repository name = basename + n_docs + a hash of the ABSOLUTE
        # source path: stable across re-snapshots of the same segment
        # (incremental skip works), collision-free across distinct
        # segments that happen to share basename + doc count
        path_tag = hashlib.sha256(
            os.path.abspath(d).encode()
        ).hexdigest()[:8]
        names.append(
            f"{os.path.basename(os.path.normpath(d))}-{man['n_docs']}-{path_tag}"
        )
    if len(set(names)) != len(names):
        raise ValueError(f"snapshot segment name collision: {names}")

    # prior manifest digests enable the incremental skip without re-reads
    known: dict[str, tuple[int, str, "int | None"]] = {}
    prior_manifest = os.path.join(snap_dir, _MANIFEST)
    if os.path.exists(prior_manifest):
        with open(prior_manifest) as f:
            for r in json.load(f)["files"]:
                mt = r.get("src_mtime_ns")
                known[f"{r['segment']}/{r['file']}"] = (
                    int(r["bytes"]),
                    r["sha256"],
                    int(mt) if mt is not None else None,
                )

    row_lists = fan_out(
        lambda dn: _copy_segment(dn[0], snap_dir, dn[1], known),
        list(zip(seg_dirs, names)),
        num_cpus=0.5,
    )
    all_rows = [r for rows in row_lists for r in rows]
    manifest = {
        "segments": names,
        "files": all_rows,
        "n_docs": sum(int(load_manifest(d)["n_docs"]) for d in seg_dirs),
    }
    tmp = os.path.join(snap_dir, "." + _MANIFEST + ".tmp")
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1)
    os.replace(tmp, os.path.join(snap_dir, _MANIFEST))
    return {
        "segments": len(names),
        "files": len(all_rows),
        "bytes": int(sum(r["bytes"] for r in all_rows)),
    }


def gc_snapshot(snap_dir: str) -> dict:
    """Delete repository segment directories no longer referenced by the
    CURRENT manifest (old segments accumulate as compaction/re-ingest
    changes the live set — the manifest always describes the latest
    snapshot, so anything outside it is garbage).  Returns
    {"removed_segments": n, "freed_bytes": n}."""
    with open(os.path.join(snap_dir, _MANIFEST)) as f:
        manifest = json.load(f)
    live = set(manifest["segments"])
    removed = 0
    freed = 0
    for name in sorted(os.listdir(snap_dir)):
        p = os.path.join(snap_dir, name)
        if not os.path.isdir(p) or name in live:
            continue
        for root, _dirs, files in os.walk(p):
            freed += sum(os.path.getsize(os.path.join(root, x)) for x in files)
        shutil.rmtree(p)
        removed += 1
    return {"removed_segments": removed, "freed_bytes": int(freed)}


def verify_snapshot(snap_dir: str) -> pa.Table:
    """Re-digest every repository file against the manifest → one row per
    mismatch/missing file (empty table = healthy)."""
    with open(os.path.join(snap_dir, _MANIFEST)) as f:
        manifest = json.load(f)
    bad_seg, bad_file, reason = [], [], []
    for r in manifest["files"]:
        p = os.path.join(snap_dir, r["segment"], r["file"])
        if not os.path.exists(p):
            bad_seg.append(r["segment"]); bad_file.append(r["file"]); reason.append("missing")
        elif _sha256(p) != r["sha256"]:
            bad_seg.append(r["segment"]); bad_file.append(r["file"]); reason.append("digest-mismatch")
    return pa.table(
        {
            "segment": pa.array(bad_seg, pa.string()),
            "file": pa.array(bad_file, pa.string()),
            "reason": pa.array(reason, pa.string()),
        }
    )


def restore_index(snap_dir: str, dest_root: str) -> list[str]:
    """Restore a snapshot into ``dest_root`` (one subdirectory per
    segment) and return the restored segment dirs.  Every file's digest
    is verified BEFORE the marker publishes; a failed restore leaves no
    marker and raises."""
    bad = verify_snapshot(snap_dir)
    if len(bad):
        raise IOError(
            f"snapshot {snap_dir} fails verification: "
            + ", ".join(
                f"{s}/{f} ({r})"
                for s, f, r in zip(
                    bad["segment"].to_pylist()[:3],
                    bad["file"].to_pylist()[:3],
                    bad["reason"].to_pylist()[:3],
                )
            )
        )
    with open(os.path.join(snap_dir, _MANIFEST)) as f:
        manifest = json.load(f)
    os.makedirs(dest_root, exist_ok=True)
    out_dirs = []
    for seg in manifest["segments"]:
        src = os.path.join(snap_dir, seg)
        dst = os.path.join(dest_root, seg)
        out_dirs.append(dst)
        for r in [x for x in manifest["files"] if x["segment"] == seg]:
            sp = os.path.join(src, r["file"])
            dp = os.path.join(dst, r["file"])
            os.makedirs(os.path.dirname(dp), exist_ok=True)
            tmp = dp + ".tmp"
            shutil.copyfile(sp, tmp)
            if _sha256(tmp) != r["sha256"]:
                os.unlink(tmp)
                raise IOError(f"restore digest mismatch for {sp}")
            os.replace(tmp, dp)
        if load_manifest(dst) is None:
            raise IOError(f"restored segment {dst} has no readable manifest")
    # waves.json makes the restore root a first-class index locator —
    # SearchEngine / ShardedServer / CLI take dest_root directly
    tmp = os.path.join(dest_root, ".waves.json.tmp")
    with open(tmp, "w") as f:
        json.dump({"segment_dirs": [os.path.abspath(d) for d in out_dirs]}, f)
    os.replace(tmp, os.path.join(dest_root, "waves.json"))
    with open(os.path.join(dest_root, _MARKER), "w") as f:
        f.write(json.dumps({"snapshot": os.path.abspath(snap_dir)}))
    return out_dirs
