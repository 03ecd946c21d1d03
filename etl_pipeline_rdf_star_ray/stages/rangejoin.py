"""Keyed interval (range) join — the banded-join custom operator the brief
names as one Ray Data lacks ("as-of join, range join, windowed aggregate").

``interval_join_sharded(left, right)`` matches each LEFT row to the RIGHT
rows of the same key whose fixed-width window ``[lo, lo + width)`` contains
the left row's timestamp — the funnel-attribution / validity-window shape
(SQL: ``JOIN ON l.key = r.key AND r.lo <= l.ts AND l.ts < r.lo + width``).

Scale shape (the documented partitioning assumption): both sides stream
through a cheap tagging ``map_batches`` into ONE union-schema dataset —
left rows carry their ``(key, time-bucket)`` once, right rows REPLICATE to
the ≤ 2 width-sized buckets their window can reach (``ts ∈ [lo, lo+width)``
⟹ ``bucket(ts) ∈ {bucket(lo), bucket(lo)+1}``) — then ONE exchange on
``hash(key, bucket)`` colocates every possible match and a per-shard pandas
merge on ``(key, bucket)`` + the EXACT band filter runs at C speed. The
intermediate is bounded by rows per ``(key, bucket)`` cell products —
time-localized, never the per-key cross product a plain equi-join + filter
would materialize. Hot ``(key, bucket)`` cells are the skew unit; salt them
upstream like ``stages/join.py`` hot keys. NULL keys / timestamps never
match (SQL semantics) and are dropped before the exchange — pandas merge
would otherwise match NaN to NaN."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


_SIDE = "__side"
_BUCKET = "__bucket"
_TS = "__ts_us"
_LO = "__lo_us"


def interval_join_sharded(
    left,  # rd.Dataset
    right,  # rd.Dataset
    *,
    on: str,
    right_on: str | None = None,
    ts_col: str,
    lo_col: str,
    width_us: int,
    num_shards: int = 64,
    suffix: str = "_r",
):
    """Inner keyed interval join (see module docstring). Emits every left
    column plus every right column (suffixed on name collision; the right
    key column is dropped — it equals the left key)."""
    from .exchange import sharded_groups

    if width_us <= 0:
        raise ValueError("width_us must be positive")
    right_on = right_on or on
    l_schema, r_schema = left.schema(), right.schema()
    if l_schema is None or r_schema is None:
        # a fully-empty side (Ray reports schema() None): inner join is
        # empty; the surviving side's empty dataset is the degenerate result
        return left if l_schema is None else right
    l_names = list(l_schema.names)
    r_keep = [c for c in r_schema.names if c != right_on]
    out_r = {c: (c + suffix if c in l_names else c) for c in r_keep}
    width = np.int64(width_us)

    l_types = dict(zip(l_schema.names, l_schema.types))
    r_types = dict(zip(r_schema.names, r_schema.types))
    union_fields = (
        [(c, l_types[c]) for c in l_names]
        + [(out_r[c], r_types[c]) for c in r_keep]
        + [(_SIDE, pa.int8()), (_BUCKET, pa.int64()),
           (_TS, pa.int64()), (_LO, pa.int64())]
    )
    union_schema = pa.schema(union_fields)

    def _us(col) -> pa.Array:
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        return col.cast(pa.int64()) if not pa.types.is_int64(col.type) else col

    def tag_left(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.and_(
                pc.is_valid(batch.column(on)), pc.is_valid(batch.column(ts_col))
            )
        )
        ts = _us(batch.column(ts_col).cast(pa.int64()))
        n = batch.num_rows
        cols = {}
        for c, typ in union_fields:
            if c in batch.column_names:
                cols[c] = batch.column(c)
            elif c == _SIDE:
                cols[c] = pa.array(np.zeros(n, np.int8), pa.int8())
            elif c == _BUCKET:
                b = ts.to_numpy(zero_copy_only=False) // width
                cols[c] = pa.array(b, pa.int64())
            elif c == _TS:
                cols[c] = ts
            else:
                cols[c] = pa.nulls(n, typ)
        return pa.table(cols, schema=union_schema)

    def tag_right(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.and_(
                pc.is_valid(batch.column(right_on)),
                pc.is_valid(batch.column(lo_col)),
            )
        )
        lo = batch.column(lo_col).cast(pa.int64())
        if isinstance(lo, pa.ChunkedArray):
            lo = lo.combine_chunks()
        lo_np = lo.to_numpy(zero_copy_only=False)
        n = batch.num_rows
        # replicate to the two buckets a window can reach
        idx = np.repeat(np.arange(n), 2)
        buckets = np.empty(2 * n, np.int64)
        buckets[0::2] = lo_np // width
        buckets[1::2] = lo_np // width + 1
        rep = batch.take(pa.array(idx, pa.int64()))
        lo_rep = pa.array(lo_np[idx], pa.int64())
        cols = {}
        for c, typ in union_fields:
            if c == on:
                cols[c] = rep.column(right_on)
            elif c in rep.column_names and c in l_names:
                cols[c] = pa.nulls(2 * n, typ)  # left-only name
            elif c == _SIDE:
                cols[c] = pa.array(np.ones(2 * n, np.int8), pa.int8())
            elif c == _BUCKET:
                cols[c] = pa.array(buckets, pa.int64())
            elif c == _LO:
                cols[c] = lo_rep
            elif c == _TS:
                cols[c] = pa.nulls(2 * n, pa.int64())
            else:
                src = {v: k for k, v in out_r.items()}.get(c)
                if src is not None and src in rep.column_names:
                    cols[c] = rep.column(src)
                else:
                    cols[c] = pa.nulls(2 * n, typ)
        return pa.table(cols, schema=union_schema)

    tagged = left.map_batches(tag_left, batch_format="pyarrow").union(
        right.map_batches(tag_right, batch_format="pyarrow")
    )

    out_cols = l_names + [out_r[c] for c in r_keep]

    def per_shard(s: pd.DataFrame) -> pd.DataFrame:
        s = s.drop(columns=["shard"])
        lmask = s[_SIDE].to_numpy(dtype=np.int8) == 0
        l = s[lmask]
        r = s[~lmask]
        if not len(l) or not len(r):
            return pd.DataFrame({c: pd.Series(dtype=s[c].dtype) for c in out_cols})
        m = l[l_names + [_BUCKET, _TS]].merge(
            r[[on, _BUCKET, _LO] + [out_r[c] for c in r_keep if out_r[c] != on]],
            on=[on, _BUCKET],
        )
        ts = m[_TS].to_numpy(dtype=np.int64)
        lo = m[_LO].to_numpy(dtype=np.int64)
        m = m[(lo <= ts) & (ts < lo + width)]
        return m[out_cols]

    return sharded_groups(
        tagged, [on, _BUCKET], per_shard, num_shards=num_shards
    )
