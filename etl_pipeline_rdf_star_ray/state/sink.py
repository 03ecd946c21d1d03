"""Exactly-once partitioned Parquet sink.

The commit step of the lake (SURVEY.md §2.2 "Batch loader" row): serialize
the partition's new state → sha256 checksum (reference:
``batch_manager.py:261``) → atomic data put → conditional marker put. All
names are DETERMINISTIC functions of ``(partition_id, batch_id)``, so a
retried Ray task re-produces byte-identical artifacts, the data put is an
idempotent overwrite, and the marker's put-if-absent makes exactly one
attempt the committer (SURVEY.md §7.5.1) — the distributed replacement for
the reference's "fresh named graph per run + idempotent ``Store.add``"
(``batch_manager.py:231-283``).

Storage is injectable (:mod:`.commitfs`): :class:`~.commitfs.PosixCommitFS`
(default — local disk/NFS, fsynced file + directory) or any object store
exposing atomic put + put-if-absent (S3 conditional writes, GCS
generation-match). The exactly-once contract is proven against the fake
object store's race/crash/fault injection in ``tests/test_lifecycle.py``.

Layout: one directory per hash partition (``part=NNNNN/``), one file per
committed version — resumable output: a failed run re-runs only partitions
without a commit marker, and never one giant file.

Ordering invariant: the data put completes (durably, on POSIX) BEFORE the
marker put, so a marker can never reference missing data; a crash between
the two leaves an invisible orphan file that the retry overwrites
byte-identically.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, replace
from datetime import datetime, timezone

import pyarrow as pa
import pyarrow.parquet as pq

from .commitfs import DEFAULT_FS
from .manifest import CommitRecord, _record_path


def commit_partition(
    table: pa.Table,
    *,
    lake_dir: str,
    partition_id: int,
    batch_id: str,
    lsn_lo: int,
    lsn_hi: int,
    event_count: int,
    wall_start: float,
    fs=None,
) -> CommitRecord:
    """Durably write one partition version and append its commit record.

    Idempotent AND race-safe: the marker is a conditional put — if the
    ``(partition_id, batch_id)`` marker already exists (a prior attempt or
    a racing duplicate task fully committed), this attempt degrades to a
    no-op and reports ``status="duplicate"``.
    """
    fs = fs or DEFAULT_FS
    rel = os.path.join(f"part={partition_id:05d}", f"{batch_id}.parquet")
    final = os.path.join(lake_dir, rel)
    marker = _record_path(lake_dir, partition_id, batch_id)

    dup = CommitRecord(
        partition_id=partition_id,
        batch_id=batch_id,
        lsn_lo=lsn_lo,
        lsn_hi=lsn_hi,
        file=rel,
        row_count=table.num_rows,
        event_count=event_count,
        checksum="",
        committed_at="",
        wall_sec=0.0,
        status="duplicate",
    )
    if fs.exists(marker):
        # a prior attempt fully committed — nothing to do (exactly-once)
        return dup

    sink = pa.BufferOutputStream()
    pq.write_table(table, sink, compression="zstd")
    data = sink.getvalue().to_pybytes()
    checksum = hashlib.sha256(data).hexdigest()
    # data BEFORE marker: a marker must never reference missing bytes; the
    # deterministic name makes a retry's overwrite byte-identical
    fs.put_atomic(final, data)
    rec = replace(
        dup,
        checksum=checksum,
        committed_at=datetime.now(timezone.utc).isoformat(),
        wall_sec=time.monotonic() - wall_start,
        status="active",
    )
    # put-if-absent: losing the marker race means the rival's commit stands
    return rec if fs.put_if_absent(marker, json.dumps(asdict(rec)).encode()) else dup
