"""Hash partitioning on ``conv_id`` with explicit salting for hot
conversations, plus the per-partition watermark filter.

This is the CDC shuffle key choice (SURVEY.md §7.4): all events for one
conversation meet the same merge partition, except conversations known to be
hot, which are salted into sub-partitions by ``turn_idx % salt_buckets``.
Because the upsert key is ``(conv_id, turn_idx)`` and the salt depends only on
``turn_idx``, a key NEVER splits across salt buckets — last-writer-wins
correctness is preserved without a second merge pass (SURVEY.md §7.5.2).

The hot-conversation set is decided once per lake table and persisted in the
table metadata, so the key→partition mapping is stable across every later
ingest (a requirement the reference never faces: its single in-memory store is
one "partition", ``rdf_star_etl_yarrrml.py:131``). It is found while the
table's first ingest runs, from the blocks its exchange has already routed
(:func:`detect_hot_convs`): the change log is read once, and the set is exact
— every conversation above :func:`hot_share` of the log, whatever its size.

The watermark filter drops events already committed to their partition
(``lsn <= watermark[pid]``) — replay idempotence and resume-from-checkpoint
happen HERE, before the exchange, so replayed data never moves (SURVEY.md
§2.10; descendant of the reference's batch supersession bookkeeping,
``batch_manager.py:387-394``).
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import combine64, hash64_column, xxh64_column
from .exchange import cluster_by_pid, reroute

#: key-hash implementations a lake table can pin (TableMeta.key_hash):
#: "xxh64"  — vectorized C hashing, right for high-cardinality keys;
#: "blake2b" — portable-forever, Python per UNIQUE key (dictionary-encoded),
#:             right when unique conversations ≪ rows per batch.
KEY_HASH_IMPLS = ("xxh64", "blake2b")
PARTITION_COL = "partition_id"


def partition_ids(
    conv: pa.ChunkedArray | pa.Array,
    turn_idx: np.ndarray,
    *,
    num_partitions: int,
    salt_buckets: int,
    hot_set: frozenset[str],
    key_hash: str = "xxh64",
) -> np.ndarray:
    if isinstance(conv, pa.ChunkedArray):
        conv = conv.combine_chunks()
    h = xxh64_column(conv) if key_hash == "xxh64" else hash64_column(conv)
    pid = (h % np.uint64(num_partitions)).astype(np.int32)
    if salt_buckets > 1 and hot_set:
        hot = (
            pc.is_in(conv, value_set=pa.array(sorted(hot_set), pa.string()))
            .to_numpy(zero_copy_only=False)
            .astype(bool)
        )
        if hot.any():
            salt = (turn_idx.astype(np.uint64)) % np.uint64(salt_buckets)
            salted = (combine64(h, salt) % np.uint64(num_partitions)).astype(np.int32)
            pid = np.where(hot, salted, pid)
    return pid


def make_partition_stage(
    *,
    num_partitions: int,
    salt_buckets: int,
    hot_convs: frozenset[str] | set[str],
    watermarks: dict[int, int] | None = None,
    key_hash: str = "xxh64",
):
    """Build the ``map_batches`` function that appends ``partition_id``,
    applies the per-partition watermark filter and pid-clusters its output
    (:func:`stages.exchange.cluster_by_pid`). ``watermarks`` and
    ``hot_convs`` are small driver-side lookups captured by value (Ray ships
    them once per task, and they are tiny: P ints / a few strings).

    Clustering here, inside the ``map_batches`` task that builds the batch,
    means each event is materialized into the object store exactly ONCE
    before its merge. (Ray Data does not fuse this stage into the read: its
    fusion rule refuses an upstream ``ReadParquet->SplitBlocks(k)`` with
    k > 1, so an 8-file log read runs 8 read tasks and 16 separate
    ``MapBatches(stage)`` tasks.) On
    virtualized hosts that materialize guest memory lazily (measured: 30-1000
    MB/s fault-in vs 7 GB/s warm on the round-2 bench VM) that write volume
    IS the bottleneck — see BASELINE.md "memory materialization" notes."""
    hot = frozenset(hot_convs)
    wm_arr = None
    if watermarks:
        wm_arr = np.full(num_partitions, -1, dtype=np.int64)
        for p, w in watermarks.items():
            wm_arr[p] = w

    def stage(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column(PARTITION_COL, pa.array([], pa.int32()))
        turn = batch.column("turn_idx").to_numpy()
        pid = partition_ids(
            batch.column("conv_id"),
            turn,
            num_partitions=num_partitions,
            salt_buckets=salt_buckets,
            hot_set=hot,
            key_hash=key_hash,
        )
        out = batch.append_column(PARTITION_COL, pa.array(pid, pa.int32()))
        if wm_arr is not None:
            lsn = batch.column("lsn").to_numpy()
            keep = lsn > wm_arr[pid]
            if not keep.all():
                out = out.filter(pa.array(keep))
        return cluster_by_pid(out)

    return stage


def hot_share(num_partitions: int) -> float:
    """The share of a log above which one conversation counts as hot: half
    a partition's fair share concentrated in ONE conversation."""
    return 0.5 / num_partitions


def hot_candidates(block: pa.Table, *, num_partitions: int) -> list[str]:
    """The conversations holding at least :func:`hot_share` of ``block``'s
    rows — the exchange's per-block probe on a fresh lake. A conversation
    above the share in the whole log is above it in at least one block
    (were it below in every block, it would be below in their union), so
    the union of the blocks' candidates contains every hot conversation."""
    if len(block) == 0:  # len() spans pa.Table AND a passthrough pandas block
        return []
    vc = pc.value_counts(block.column("conv_id"))
    conv = vc.field("values")
    keep = pc.and_(
        pc.greater_equal(
            vc.field("counts"), hot_share(num_partitions) * block.num_rows
        ),
        pc.is_valid(conv),
    )
    return pc.filter(conv, keep).to_pylist()


def _salt_hot(
    rows: pa.Table,
    candidates: list[str],
    total_rows: int,
    *,
    num_partitions: int,
    salt_buckets: int,
    key_hash: str,
):
    """One home partition's step of :func:`detect_hot_convs`: count its
    ``candidates`` exactly, keep those above :func:`hot_share` of
    ``total_rows``, and re-tag their rows with the salted partition ids.
    Returns ``(retagged rows or None, hot)`` for :func:`exchange.reroute`."""
    conv = rows.column("conv_id").combine_chunks()
    vc = pc.value_counts(
        pc.filter(conv, pc.is_in(conv, value_set=pa.array(candidates, pa.string())))
    )
    hot = sorted(
        c
        for c, n in zip(vc.field("values").to_pylist(), vc.field("counts").to_pylist())
        if n / total_rows > hot_share(num_partitions)
    )
    pid = partition_ids(
        conv,
        rows.column("turn_idx").to_numpy(),
        num_partitions=num_partitions,
        salt_buckets=salt_buckets,
        hot_set=frozenset(hot),
        key_hash=key_hash,
    )
    col = rows.schema.get_field_index(PARTITION_COL)
    if np.array_equal(pid, rows.column(col).to_numpy()):
        return None, hot
    return rows.set_column(col, PARTITION_COL, pa.array(pid, pa.int32())), hot


def detect_hot_convs(
    pid_slices: dict[int, list],
    candidates: list[list[str]],
    *,
    num_partitions: int,
    salt_buckets: int,
    key_hash: str = "xxh64",
) -> list[str]:
    """The hot conversations of a fresh lake's first ingest, found in the
    blocks its exchange has already routed — the log is read once.

    The partition stage ran with an empty hot set, so every row of a
    conversation sits in that conversation's unsalted home partition.
    ``candidates`` holds each routed block's :func:`hot_candidates`; one
    task per candidate home partition recounts them exactly over that
    partition's slices, keeps those whose share of the whole log exceeds
    :func:`hot_share`, and salts their rows (:func:`exchange.reroute`
    swaps the re-tagged rows into ``pid_slices`` in place; the other
    partitions are not touched). A log without candidates costs only the
    per-block count.

    The result is exact. The caller pins it in ``_meta.json`` before any
    merge, so the key→partition mapping is fixed for the table's
    lifetime; a conversation that turns hot later is handled by the
    ``ops.resalt`` migration.
    """
    cands = sorted({c for found in candidates for c in found})
    if not cands:
        return []
    total = sum(n for slices in pid_slices.values() for _ref, _s, n in slices)
    home = partition_ids(
        pa.array(cands, pa.string()),
        np.zeros(len(cands), np.int32),
        num_partitions=num_partitions,
        salt_buckets=salt_buckets,
        hot_set=frozenset(),
        key_hash=key_hash,
    )
    by_home: dict[int, list[str]] = {}
    for conv, pid in zip(cands, home.tolist()):
        by_home.setdefault(pid, []).append(conv)
    found = reroute(
        pid_slices,
        {
            pid: partial(
                _salt_hot,
                candidates=convs,
                total_rows=total,
                num_partitions=num_partitions,
                salt_buckets=salt_buckets,
                key_hash=key_hash,
            )
            for pid, convs in by_home.items()
        },
    )
    return sorted(c for hot in found.values() for c in hot)
