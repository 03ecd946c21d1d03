"""Range-partitioned distributed total-order sort.

Ray Data's native ``Dataset.sort`` is a sort-based shuffle with a
multi-second fixed serial phase on this node at ANY input size (round-3
profile, BASELINE.md); every other hot path in this repo avoids it via the
block exchange (``stages/exchange.py``). This module gives the one thing
the exchange family lacked: a GLOBAL ordering, the classic way —

1. one streaming pass samples the sort key (every ``n/samples_per_block``-th
   non-null value per block — deterministic, no RNG);
2. the driver reduces the tiny sample to ``num_shards - 1`` range split
   points (quantile positions of the sorted sample);
3. a streaming stage tags each row with its range partition id
   (``np.searchsorted`` against the broadcast splits — vectorized, typed:
   int64 keys never round-trip through float64) and pid-clusters the batch
   (the exchange's block-layout rule);
4. the exchange colocates each range; ONE call per shard does a vectorized
   Arrow ``sort_by`` over all ``keys``.

``exchange_apply`` emits output blocks in ascending pid order and every
shard is internally sorted, so the concatenation of output blocks is the
total order — without any all-to-all sort shuffle: each row moves exactly
once, and the only driver traffic is the sample and the routing metadata.

Semantics: ascending on every key, NULLS LAST (SQL default ``ORDER BY``).
The FIRST key drives the range partitioning; rows with equal first keys
colocate, so secondary keys order them correctly within their single shard.
Skew caveat: a first-key value occupying >> 1/num_shards of the data lands
in one shard (same caveat as any range sort — pick a higher-cardinality
leading key or pre-salt upstream).

Reference parity note: the reference engine has no distributed sort at all
(its ORDER BY runs in pyoxigraph/polars on one thread); this operator is
part of the beyond-reference training-data surface (sorted exports,
curriculum ordering).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data as rd  # noqa: F401  (docstring type refs)

from .exchange import cluster_by_pid, exchange_apply


def _key_numpy(col: pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray]:
    """(values, null_mask) for a key column, typed so comparisons are exact:
    int64 stays int64 (no float64 hop — 2^53 exactness, same contract as
    ``functions.hashing.key_hash_column``), strings become numpy unicode
    (vectorized C comparisons), temporals compare on their integer storage."""
    t = col.type
    null = np.asarray(col.is_null())
    if pa.types.is_integer(t) or pa.types.is_temporal(t):
        storage = col
        if not pa.types.is_integer(t):
            if t.bit_width == 32:
                storage = storage.cast(pa.int32())
            storage = storage.cast(pa.int64())
        vals = storage.fill_null(0).to_numpy(zero_copy_only=False)
    elif pa.types.is_floating(t):
        vals = col.fill_null(0.0).to_numpy(zero_copy_only=False)
    elif pa.types.is_string(t) or pa.types.is_large_string(t):
        vals = np.asarray(col.fill_null("").to_pylist(), dtype=np.str_)
    else:
        raise TypeError(f"unsupported sort key type {t}")
    return vals, null


def range_tag(
    ds: "rd.Dataset",
    key0: str,
    *,
    num_shards: int = 64,
    samples_per_block: int = 64,
) -> "rd.Dataset":
    """Steps 1–3 of the range sort as a reusable primitive: sample ``key0``,
    reduce the sample to split points on the driver, and return the dataset
    tagged with a ``partition_id`` column where shard ids ASCEND with the
    key (NULLS LAST on the top shard) and each batch pid-clustered (the
    exchange's block-layout rule). Consumers that need
    a key-ordered contiguous-range layout without a full sort — the ordered
    prefix scan (``pipelines/training.pack_sequences``), range-partitioned
    writes — share this instead of re-deriving splits.

    Note: sampling executes ``ds`` once and tagging executes it again —
    pass a (cheap or materialized) slim dataset."""

    def sample(batch: pa.Table) -> pa.Table:
        col = batch.column(key0).drop_null()
        n = len(col)
        if n == 0:
            return pa.table({key0: pa.array([], batch.column(key0).type)})
        step = max(1, n // samples_per_block)
        idx = pa.array(np.arange(0, n, step, dtype=np.int64))
        return pa.table({key0: col.take(idx)})

    samp_tabs = [
        t
        for t in ray.get(
            ds.map_batches(sample, batch_format="pyarrow").to_arrow_refs()
        )
        # len() spans both: Ray collapses empty output blocks to zero
        # columns AND passes 0-row input blocks through as pandas without
        # running the UDF
        if len(t)
    ]
    if not samp_tabs:
        splits_vals: np.ndarray | None = None
    else:
        samp = pa.concat_tables(samp_tabs).column(key0)
        vals, _ = _key_numpy(samp.combine_chunks())
        vals = np.sort(vals, kind="mergesort")  # copy: Arrow views are RO
        pos = (np.arange(1, num_shards) * len(vals)) // num_shards
        splits_vals = np.unique(vals[pos])
    n_shards = 1 + (0 if splits_vals is None else len(splits_vals))

    def add_pid(batch: pa.Table) -> pa.Table:
        if splits_vals is None or batch.num_rows == 0:
            pid = np.zeros(batch.num_rows, dtype=np.int32)
        else:
            vals, null = _key_numpy(batch.column(key0))
            pid = np.searchsorted(splits_vals, vals, side="left").astype(
                np.int32
            )
            pid[null] = n_shards - 1  # NULLS LAST: nulls ride the top shard
        out = batch.append_column("partition_id", pa.array(pid))
        return cluster_by_pid(out.replace_schema_metadata(None))

    return ds.map_batches(add_pid, batch_format="pyarrow")


def sort_global(
    ds: "rd.Dataset",
    *,
    keys: list[str],
    num_shards: int = 64,
    samples_per_block: int = 64,
) -> "rd.Dataset":
    """Totally ordered dataset (ascending on ``keys``, NULLS LAST): output
    blocks ascend in range order and each block is internally sorted, so
    iterating blocks in order yields the global ``ORDER BY keys``."""
    if not keys:
        raise ValueError("need at least one sort key")

    tagged = range_tag(
        ds, keys[0], num_shards=num_shards, samples_per_block=samples_per_block
    )

    def shard_sort(t: pa.Table) -> pa.Table:
        t = t.drop_columns(["partition_id"])
        return t.sort_by([(k, "ascending") for k in keys])

    return exchange_apply(tagged, shard_sort)
