"""The CDC ingest pipeline: change log → partitioned LWW upsert → exactly-once
Parquet lake commit, with checkpoint/resume.

Ray-Data lifecycle (SURVEY.md §3.4): every change event passes a stateless
partition+watermark stage that pid-clusters its block, the block exchange
(``stages/exchange.py``) routes the blocks' runs by ``partition_id``
driver-side, and each partition merges with its current lake version and
commits durably *inside the worker task* — only tiny manifest rows return
to the driver. No stage materializes the full dataset. A Ray Dataset log
runs the stage as a ``map_batches`` operator; a list of log files (the
tail path, :func:`tail_once`) runs it in one plain task per file, which
reads only the rows past the lake's watermark floor and routes its block
in the same task — no Ray Data execution per round.

Replacing (not porting) the reference loop ``batch_cli.py:36-87`` +
``batch_manager.load_batch_from_file`` (``batch_manager.py:231-283``): what
the reference does as "run engine → write whole-store TriG → load file into a
fresh named graph → supersede predecessor" becomes per-partition
copy-on-write versions addressed by a commit manifest.
"""

from __future__ import annotations

import os
from functools import partial

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from ..schema import MANIFEST_SCHEMA
from ..stages import exchange
from ..stages.partition import (
    detect_hot_convs,
    hot_candidates,
    make_partition_stage,
)
from ..state import manifest as mf


def _manifest_table(recs: list[mf.CommitRecord]) -> pa.Table:
    cols = {name: [getattr(r, name) for r in recs] for name in MANIFEST_SCHEMA.names}
    return pa.table(cols, schema=MANIFEST_SCHEMA)


def log_files(log_dir: str) -> list[str]:
    """The change log's files, sorted, as ``ray.data.read_parquet(log_dir)``
    finds them: every file under ``log_dir``, recursively, except those
    with a path component (below ``log_dir``) that starts with ``.`` or
    ``_`` — a producer's in-flight ``.tmp`` file, ``_SUCCESS``."""
    out = []
    for root, dirs, files in os.walk(log_dir):
        dirs[:] = [d for d in dirs if not d.startswith((".", "_"))]
        out += [
            os.path.join(root, f) for f in files if not f.startswith((".", "_"))
        ]
    return sorted(out)


def footer_max_lsn(path: str) -> int | None:
    """The highest ``lsn`` a log file's Parquet footer vouches for, or None
    when the footer cannot say: no row groups, no ``lsn`` column, or a row
    group without ``lsn`` min/max statistics."""
    md = pq.read_metadata(path)
    cols = [md.schema.column(j).path for j in range(md.num_columns)]
    if md.num_row_groups == 0 or "lsn" not in cols:
        return None
    j = cols.index("lsn")
    hi = None
    for i in range(md.num_row_groups):
        st = md.row_group(i).column(j).statistics
        if st is None or not st.has_min_max:
            return None
        hi = st.max if hi is None else max(hi, st.max)
    return hi


def _read_partitioned(path: str, floor: int, stage) -> pa.Table:
    """One log file's rows past ``floor`` (row groups below it are pruned
    at the read), through the partition stage."""
    return stage(pq.read_table(path, filters=[("lsn", ">", floor)]))


def ingest(
    changelog: "rd.Dataset | list[str]",
    lake_dir: str,
    *,
    batch_id: str | None = None,
    num_partitions: int = 64,
    salt_buckets: int = 8,
    hot_convs: list[str] | str = "auto",
    transport: str = "auto",
) -> pa.Table:
    """Apply one micro-batch of change events to the lake table.

    Returns the manifest rows of this ingest (one per touched partition).
    Safe to re-run with the same input: the watermark filter drops all
    already-committed events and nothing is rewritten.

    ``changelog`` is a Ray Dataset of change events, or a list of Parquet
    log files. Files are read by one task each, which reads only rows above
    the lake's watermark floor (:func:`manifest.watermark_floor`, from the
    same manifest scan as the watermarks); a file whose footer shows every
    ``lsn`` at or below the floor is not read at all.

    The partitioned log goes through the block exchange
    (``stages/exchange.exchange_ingest``): no sort shuffle; the touched
    partitions are packed into one merge+commit task per CPU, which merges
    and commits them one by one. ``transport`` picks its data plane
    (``"auto"``: ranges on one node, slice objects on several).

    ``hot_convs="auto"`` on a fresh lake finds the hot set in the same
    read: each routed block reports its candidate conversations, and
    :func:`stages.partition.detect_hot_convs` counts them exactly and
    salts their rows before the first merge. The set is exact, and it is
    pinned in ``_meta.json`` before any partition commits. On a lake that
    exists, the pinned set is used and nothing is detected.
    """
    meta = mf.TableMeta(num_partitions=num_partitions, salt_buckets=salt_buckets)
    os.makedirs(lake_dir, exist_ok=True)
    # the hot set is decided once, at table creation, then pinned in
    # _meta.json so the key→partition mapping is stable for the table's
    # lifetime; "auto" on a fresh lake finds it in this ingest's routed
    # blocks and pins it before the first merge (pin_hot_set below)
    detect = hot_convs == "auto" and not os.path.exists(
        os.path.join(lake_dir, mf.META_FILE)
    )
    if not detect:
        if hot_convs != "auto":
            meta.hot_convs = sorted(hot_convs or [])
        meta = mf.load_or_create_meta(lake_dir, meta)
    # one manifest scan: the watermarks ARE the active versions' lsn_hi
    versions = mf.active_versions(lake_dir)
    wm = {p: r.lsn_hi for p, r in versions.items()}
    active = {p: os.path.join(lake_dir, r.file) for p, r in versions.items()}
    if batch_id is None:
        batch_id = f"ingest-{max(wm.values(), default=-1) + 1:020d}"

    stage = make_partition_stage(
        num_partitions=meta.num_partitions,
        salt_buckets=meta.salt_buckets,
        hot_convs=frozenset(meta.hot_convs),
        watermarks=wm,
        key_hash=meta.key_hash,
    )
    if isinstance(changelog, rd.Dataset):
        partitioned = changelog.map_batches(
            # whole-block batches: one pid-clustered run per (block, pid),
            # so the exchange routes O(partitions) slices per block instead
            # of O(partitions x sub-batches)
            stage, batch_format="pyarrow", batch_size=None
        )
    else:
        floor = mf.watermark_floor(versions, meta.num_partitions)
        # a file the footer cannot vouch for (None) is always read
        partitioned = [
            partial(_read_partitioned, path, floor, stage)
            for path in changelog
            if (hi := footer_max_lsn(path)) is None or hi > floor
        ]

    hooks = {}
    if detect:

        def pin_hot_set(pid_slices: dict, candidates: list) -> None:
            meta.hot_convs = detect_hot_convs(
                pid_slices,
                candidates,
                num_partitions=meta.num_partitions,
                salt_buckets=meta.salt_buckets,
                key_hash=meta.key_hash,
            )
            # before any merge: a crash up to here re-detects on re-run,
            # one after it reuses the pinned set
            mf.load_or_create_meta(lake_dir, meta)

        hooks = {
            "probe": partial(hot_candidates, num_partitions=meta.num_partitions),
            "on_routed": pin_hot_set,
        }
    recs = exchange.exchange_ingest(
        partitioned,
        lake_dir,
        batch_id=batch_id,
        active_files=active,
        transport=transport,
        **hooks,
    )
    return _manifest_table([mf.CommitRecord(**r) for r in recs])


def replay(
    changelog_factory,
    lake_dir: str,
    *,
    lsn_splits: list[int],
    **ingest_kw,
) -> list[pa.Table]:
    """Replay a change log as consecutive micro-batches split at the given
    lsn boundaries. ``changelog_factory(lo, hi)`` must return the dataset for
    the half-open lsn range ``[lo, hi)``; each micro-batch is one durable
    ingest, so a crash resumes from the last committed watermark
    (``resume_from_checkpoint`` = simply calling :func:`replay` again — the
    per-partition watermark filter skips everything already committed)."""
    out = []
    bounds = [0, *lsn_splits]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        ds = changelog_factory(lo, hi)
        out.append(
            ingest(ds, lake_dir, batch_id=f"b{lo:020d}_{hi:020d}", **ingest_kw)
        )
    return out


def upsert_dataset(
    changelog: "rd.Dataset",
    *,
    num_partitions: int = 64,
    salt_buckets: int = 8,
    hot_convs: list[str] | None = None,
) -> "rd.Dataset":
    """Pure streaming upsert with no durable sink: change log → final table
    state as a Dataset (used by queries and as the in-memory flagship path).
    Same block exchange as :func:`ingest`, minus the lake."""
    stage = make_partition_stage(
        num_partitions=num_partitions,
        salt_buckets=salt_buckets,
        hot_convs=frozenset(hot_convs or []),
    )
    partitioned = changelog.map_batches(
        stage, batch_format="pyarrow", batch_size=None
    )
    return exchange.exchange_upsert(partitioned)


def tail_once(log_dir: str, lake_dir: str, **ingest_kw) -> pa.Table:
    """One tailing round over a growing change-log directory: list its files
    (:func:`log_files`) and :func:`ingest` them. The ingest reads only rows
    past the lake's watermark floor — whole files by their footers, row
    groups at the Parquet read (SURVEY.md 'prune at the read') — in one
    task per file; its per-partition watermark filter handles the
    finer-grained dedup."""
    return ingest(log_files(log_dir), lake_dir, **ingest_kw)
