"""HyperLogLog distinct-count sketch — the brief's "novel sketch" operator.

Why a sketch at 100 TB: an exact ``COUNT(DISTINCT key)`` is an all-to-all
shuffle of every distinct key; an HLL register array is 2^p bytes (16 KiB at
p=14, ~0.8 % relative error) and merges with an elementwise ``max`` — the
associative/commutative shape that lets every batch produce a partial
sketch, every block merge locally, and the driver reduce #blocks tiny
arrays. No Ray shuffle at any point.

Vectorization notes: ranks need EXACT bit lengths — ``log2`` on float64
mis-rounds values above 2^53 (exactly the small-rank/common case), so bit
length is computed with ``np.searchsorted`` over the 64 power-of-two
thresholds (exact uint64 compares, C speed). Hashing reuses
:func:`~.hashing.hash64_column` (dictionary-encoded stable hashing).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .hashing import hash64_column

_POW2 = (np.uint64(1) << np.arange(64, dtype=np.uint64)).astype(np.uint64)


def _alpha(m: int) -> float:
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1 + 1.079 / m)


def hll_registers(values: pa.Array | pa.ChunkedArray, p: int = 14) -> np.ndarray:
    """Register array (uint8, len 2^p) for one batch of values."""
    if isinstance(values, pa.ChunkedArray):
        values = values.combine_chunks()
    h = hash64_column(values.cast(pa.string()))
    return hll_registers_from_hashes(h, p)


def hll_registers_from_hashes(h: np.ndarray, p: int = 14) -> np.ndarray:
    m = 1 << p
    h = h.astype(np.uint64, copy=False)
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    w = (h << np.uint64(p)) & np.uint64(0xFFFFFFFFFFFFFFFF)
    # exact bit length via threshold search: bitlen(w) = #thresholds <= w
    bitlen = np.searchsorted(_POW2, w, side="right").astype(np.int64)
    rank = np.minimum(64 - bitlen + 1, 64 - p + 1).astype(np.uint8)
    regs = np.zeros(m, dtype=np.uint8)
    np.maximum.at(regs, idx, rank)
    return regs


def hll_merge(*register_arrays: np.ndarray) -> np.ndarray:
    """Associative + commutative: elementwise max."""
    return np.maximum.reduce(list(register_arrays))


def hll_estimate(regs: np.ndarray) -> float:
    """Raw HLL estimate with the standard small-range linear counting."""
    m = len(regs)
    est = _alpha(m) * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    if est <= 2.5 * m:
        zeros = int(np.count_nonzero(regs == 0))
        if zeros:
            return m * np.log(m / zeros)
    return float(est)


# ---------------------------------------------------------------------------
# Ray Data plumbing
# ---------------------------------------------------------------------------


def hll_distinct(ds, col: str, *, p: int = 14) -> float:
    """Approximate COUNT(DISTINCT col) over a Dataset: one partial register
    array per batch (streamed), driver merges #blocks × 2^p bytes."""

    def partial(batch: pa.Table) -> pa.Table:
        regs = hll_registers(batch.column(col), p)
        return pa.table({"regs": pa.array([regs], pa.list_(pa.uint8()))})

    rows = ds.map_batches(partial, batch_format="pyarrow").take_all()
    merged = hll_merge(
        *[np.asarray(r["regs"], dtype=np.uint8) for r in rows]
    )
    return hll_estimate(merged)


def hll_distinct_grouped(
    ds, key_col: str, col: str, *, p: int = 12, num_shards: int = 64
):
    """Per-group approximate distinct counts: each batch emits one partial
    register row per key present in the batch; rows hash-shard on key and
    one call per shard merges + estimates every key of the shard (no
    per-group Python calls — ``stages/exchange.sharded_groups`` shape).

    Returns a Dataset of ``(key_col, approx_distinct: int64)``."""
    import pandas as pd

    from ..stages.exchange import sharded_groups

    m = 1 << p

    def partial(batch: pa.Table) -> pa.Table:
        keys = batch.column(key_col).to_numpy(zero_copy_only=False)
        h = hash64_column(batch.column(col).cast(pa.string()))
        out_keys, out_regs = [], []
        for k in np.unique(keys):
            out_keys.append(k)
            out_regs.append(hll_registers_from_hashes(h[keys == k], p))
        return pa.table(
            {
                key_col: pa.array(out_keys),
                "regs": pa.array(
                    [r for r in out_regs], pa.list_(pa.uint8(), m)
                ),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for k, grp in g.groupby(key_col, sort=False):
            regs = np.maximum.reduce(
                [np.asarray(r, dtype=np.uint8) for r in grp["regs"]]
            )
            rows.append((k, int(round(hll_estimate(regs)))))
        return pd.DataFrame(rows, columns=[key_col, "approx_distinct"]).astype(
            {"approx_distinct": np.int64}
        )

    return sharded_groups(partials, [key_col], per_shard, num_shards=num_shards)
