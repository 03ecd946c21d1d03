"""Checkpoint / commit manifest — the durable lineage record of a lake table.

Direct descendant of the reference's ``BatchMetadata`` + ``batches.json``
(``batch_manager.py:35-91`` dataclass; ``batch_manager.py:155-174`` persists
the manifest after every mutation; sha256 checksums at
``batch_manager.py:261``). Differences, driven by distributed execution:

- one commit RECORD per ``(partition_id, batch_id)`` instead of one mutable
  JSON file. Records are written only by :func:`.sink.commit_partition`,
  through the storage seam's ``put_if_absent``: concurrent partition commits
  never contend, a torn write is impossible, and the record file name is the
  commit marker — re-committing the same (partition, batch) is a no-op
  (exactly-once under Ray task retries, SURVEY.md §7.5.1).
- batch lifecycle (PENDING→ACTIVE→SUPERSEDED, ``batch_manager.py:26-32``) is
  *derived*, not mutated: the active version of a partition is its record
  with the highest ``lsn_hi``; every earlier record is implicitly superseded
  but remains addressable for point-in-time reads
  (``batch_manager.py:506-528``).
- ``_meta.json`` and status overrides go through the same atomic put
  (:data:`.commitfs.DEFAULT_FS`), so every file in the table is written by
  one protocol.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

from .commitfs import DEFAULT_FS


@dataclass
class TableMeta:
    """Per-lake-table invariants, fixed at table creation so the
    key→partition mapping stays stable across every later ingest."""

    num_partitions: int = 64
    salt_buckets: int = 8
    hot_convs: list[str] = field(default_factory=list)
    key_hash: str = "xxh64"  # pinned key→partition hash impl (see partition.py)
    #: sample hash vector recorded at table creation; verified at every load
    #: so an environment whose hash impl changed (e.g. a polars upgrade that
    #: alters .hash()) fails loudly instead of silently remapping keys
    hash_probe: list[int] = field(default_factory=list)
    format_version: int = 1


@dataclass
class CommitRecord:
    partition_id: int
    batch_id: str
    lsn_lo: int
    lsn_hi: int
    file: str  # relative to lake dir
    row_count: int
    event_count: int
    checksum: str
    committed_at: str
    wall_sec: float
    status: str = "active"


MANIFEST_DIR = "_manifest"
META_FILE = "_meta.json"


def _verify_hash_probe(meta: TableMeta) -> TableMeta:
    if meta.hash_probe:
        from ..functions.hashing import hash_probe

        now = hash_probe(meta.key_hash)
        if now != meta.hash_probe:
            raise RuntimeError(
                f"lake table was created with key_hash={meta.key_hash!r} whose "
                f"implementation has CHANGED in this environment (probe "
                f"{meta.hash_probe} != {now}); reading it would remap keys to "
                "wrong partitions. Pin the original dependency versions or "
                "rewrite the table."
            )
    return meta


def load_or_create_meta(lake_dir: str, default: TableMeta) -> TableMeta:
    path = os.path.join(lake_dir, META_FILE)
    if os.path.exists(path):
        with open(path) as f:
            return _verify_hash_probe(TableMeta(**json.load(f)))
    if not default.hash_probe:
        from ..functions.hashing import hash_probe

        default.hash_probe = hash_probe(default.key_hash)
    os.makedirs(os.path.join(lake_dir, MANIFEST_DIR), exist_ok=True)
    write_meta(lake_dir, default)
    return default


def write_meta(lake_dir: str, meta: TableMeta) -> None:
    DEFAULT_FS.put_atomic(
        os.path.join(lake_dir, META_FILE),
        json.dumps(asdict(meta), indent=1).encode(),
    )


def load_meta(lake_dir: str) -> TableMeta:
    with open(os.path.join(lake_dir, META_FILE)) as f:
        return _verify_hash_probe(TableMeta(**json.load(f)))


def _record_path(lake_dir: str, partition_id: int, batch_id: str) -> str:
    return os.path.join(
        lake_dir, MANIFEST_DIR, f"p{partition_id:05d}-{batch_id}.json"
    )


OVERRIDE_PREFIX = "override-"

STATUS_ACTIVE = "active"
STATUS_ARCHIVED = "archived"
STATUS_DELETED = "deleted"


def load_records(lake_dir: str) -> list[CommitRecord]:
    """Every commit record with its status override applied — one listing
    of ``_manifest/``."""
    mdir = os.path.join(lake_dir, MANIFEST_DIR)
    if not os.path.isdir(mdir):
        return []
    out: list[CommitRecord] = []
    overrides: dict[tuple[int, str], str] = {}
    for name in sorted(os.listdir(mdir)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(mdir, name)) as f:
            obj = json.load(f)
        if name.startswith(OVERRIDE_PREFIX):
            overrides[(obj["partition_id"], obj["batch_id"])] = obj["status"]
        else:
            out.append(CommitRecord(**obj))
    for rec in out:
        rec.status = overrides.get((rec.partition_id, rec.batch_id), rec.status)
    return out


def batch_ids(lake_dir: str) -> list[str]:
    return sorted({r.batch_id for r in load_records(lake_dir)})


def _set_status(lake_dir: str, batch_id: str, status: str) -> int:
    """Write status-override records for every partition version of a batch
    (append-only, atomic per record — the lifecycle flip is a manifest
    append, never a mutation, SURVEY.md §2.8)."""
    n = 0
    for rec in load_records(lake_dir):
        if rec.batch_id != batch_id:
            continue
        path = os.path.join(
            lake_dir,
            MANIFEST_DIR,
            f"{OVERRIDE_PREFIX}p{rec.partition_id:05d}-{batch_id}.json",
        )
        DEFAULT_FS.put_atomic(
            path,
            json.dumps(
                {
                    "partition_id": rec.partition_id,
                    "batch_id": batch_id,
                    "status": status,
                }
            ).encode(),
        )
        n += 1
    return n


def _guard_not_active(lake_dir: str, batch_id: str, verb: str) -> None:
    """Reference guard: cannot archive/delete the ACTIVE batch
    (``batch_manager.py:560-605``)."""
    for pid, rec in active_versions(lake_dir).items():
        if rec.batch_id == batch_id:
            raise ValueError(
                f"cannot {verb} batch {batch_id!r}: it is the active version "
                f"of partition {pid}"
            )


def archive_batch(lake_dir: str, batch_id: str) -> int:
    _guard_not_active(lake_dir, batch_id, "archive")
    return _set_status(lake_dir, batch_id, STATUS_ARCHIVED)


def delete_batch(lake_dir: str, batch_id: str, *, hard: bool = False) -> int:
    """Soft delete marks versions DELETED (excluded from snapshots); hard
    delete also removes the data files (mirrors soft/hard delete,
    ``batch_manager.py:560-605``)."""
    _guard_not_active(lake_dir, batch_id, "delete")
    n = _set_status(lake_dir, batch_id, STATUS_DELETED)
    if hard:
        for rec in load_records(lake_dir):
            if rec.batch_id == batch_id:
                path = os.path.join(lake_dir, rec.file)
                if os.path.exists(path):
                    os.remove(path)
    return n


def active_versions(
    lake_dir: str, *, at_lsn: int | None = None
) -> dict[int, CommitRecord]:
    """Per-partition active commit record; with ``at_lsn`` the point-in-time
    variant (highest ``lsn_hi <= at_lsn``) — batch-granularity addressing
    exactly like the reference's ``get_state_at_batch``
    (``batch_manager.py:506-528``)."""
    best: dict[int, CommitRecord] = {}
    for rec in load_records(lake_dir):
        if rec.status in (STATUS_ARCHIVED, STATUS_DELETED):
            continue
        if at_lsn is not None and rec.lsn_hi > at_lsn:
            continue
        cur = best.get(rec.partition_id)
        # tie-break on commit time: a compaction/resalt rewrite commits the
        # SAME lsn_hi as the version it replaces and must become active
        if cur is None or (rec.lsn_hi, rec.committed_at) > (cur.lsn_hi, cur.committed_at):
            best[rec.partition_id] = rec
    return best


def watermarks(lake_dir: str) -> dict[int, int]:
    """Per-partition highest committed lsn — the dedup/resume watermark."""
    return {p: r.lsn_hi for p, r in active_versions(lake_dir).items()}


def watermark_floor(versions: dict[int, CommitRecord], num_partitions: int) -> int:
    """Lowest lsn every one of the table's ``num_partitions`` partitions
    has committed through, given its :func:`active_versions`, or -1 while
    any partition has no commit yet. A partition with no record has
    effective watermark -1: after a crash that committed some partitions
    but never a given partition's first commit, pruning a read at
    min(existing watermarks) would drop that partition's events forever,
    so a read may prune below this floor only."""
    if len(versions) < num_partitions:
        return -1
    return min(r.lsn_hi for r in versions.values())
