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
one "partition", ``rdf_star_etl_yarrrml.py:131``).

The watermark filter drops events already committed to their partition
(``lsn <= watermark[pid]``) — replay idempotence and resume-from-checkpoint
happen HERE, before the exchange, so replayed data never moves (SURVEY.md
§2.10; descendant of the reference's batch supersession bookkeeping,
``batch_manager.py:387-394``).
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import combine64, hash64_column, xxh64_column
from .exchange import cluster_by_pid

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

    Clustering here, inside the fused read→partition task, means each event
    is materialized into the object store exactly ONCE before its merge. On
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


def detect_hot_convs(
    ds,
    *,
    num_partitions: int,
    sample_rows: int | None = 200_000,
    threshold: float | None = None,
    seed: int = 42,
) -> list[str]:
    """Cheap hot-key pre-pass (SURVEY.md §4.2 "skew"): STRATIFIED sample of
    the change log — block order is randomized (a free metadata operation)
    before the row cap, so the sample covers the whole log instead of its
    head (round-1 verdict fix: a conversation that only turns hot later in
    the log was invisible to a head sample). Events per conversation are
    counted with a per-batch ``Counter`` partial; conversations whose
    sampled share would materially skew a partition are flagged
    (share > ``threshold``, default ``0.5 / num_partitions`` — half a
    partition's fair share concentrated in ONE conversation).

    ``sample_rows=None`` runs the exact full pass. This is a bounded
    driver-side reduction over tiny per-batch partials — not a shuffle and
    not a full materialization.

    A conversation that turns hot only AFTER the table was created is
    handled by the ``ops.resalt`` migration (the hot set is otherwise pinned
    in ``_meta.json`` for mapping stability).
    """
    if threshold is None:
        threshold = 0.5 / num_partitions

    def partial(batch: pa.Table) -> pa.Table:
        vc = batch.column("conv_id").value_counts()
        return pa.table(
            {
                "conv_id": vc.field("values"),
                "n": vc.field("counts"),
            }
        )

    sampled = ds
    if sample_rows is not None:
        sampled = sampled.randomize_block_order(seed=seed).limit(sample_rows)
    total = 0
    counts: Counter = Counter()
    for b in sampled.map_batches(partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        for conv, n in zip(b.column("conv_id").to_pylist(), b.column("n").to_pylist()):
            counts[conv] += n
            total += n
    if total == 0:
        return []
    return sorted(c for c, n in counts.items() if n / total > threshold)
