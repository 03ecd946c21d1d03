"""As-of join: attach to each left row the latest right row with the same
key and ``right.on <= left.on`` (events × slowly-changing dimension
history), or — ``direction="forward"`` on the broadcast path — the
EARLIEST right row with ``right.on >= left.on`` (next-touch attribution).
The sharded path is backward-only today; forward next-touch over two
large sides would mirror it with ``merge_asof(direction="forward")``.

The reference engine has no as-of operator (its joins are the annotation
equality join, ``rdf_star_etl_yarrrml.py:451-530``); this is one of the
brief's named custom operators for large-scale pipelines, built two ways:

- :func:`asof_join_broadcast` — the common case: the right side is a
  dimension HISTORY (small by nature). Driver sorts it once by
  ``(by, on, tiebreak)``, de-duplicates to the last row per ``(by, on)``,
  ``ray.put``s the arrays ONCE; each ``map_batches`` task binary-searches
  per unique batch key (numpy ``searchsorted`` — no Python row loop, no
  shuffle, left side streams).
- :func:`asof_join_sharded` — both sides large: tag + union the two
  datasets into a common schema, hash-shard on the key, and run pandas
  ``merge_asof`` (C merge over sorted frames) once per shard — one task
  per shard regardless of key count, the same sharded-group shape as
  ``stages/exchange.sharded_groups``. Partitioning assumption: a single
  key's history + events fit one shard (keys are hash-spread; a skewed
  key needs salting upstream like the CDC path).

Tie semantics (both paths + the DuckDB oracle): the right side is first
reduced to ONE row per ``(by, on)`` — the row with the greatest
``tiebreak`` — so results are deterministic.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import shard_ids
from .exchange import cluster_by_pid, exchange_apply


def _temporal_i64(col, target_type=None) -> np.ndarray:
    """Comparable int64 view of an ordering column. Temporal columns are
    normalized to ``timestamp[us]`` FIRST so a left in microseconds never
    compares against raw seconds of a differently-united right side (that
    would silently match everything); ``target_type`` (the other side's
    type) is applied first when given so both sides go through the same
    normalization."""
    if target_type is not None and col.type != target_type:
        col = col.cast(target_type)
    if pa.types.is_temporal(col.type) and col.type != pa.timestamp("us"):
        col = col.cast(pa.timestamp("us"))
    return col.cast(pa.int64()).to_numpy(zero_copy_only=False)


def _key_slices(bk: np.ndarray):
    """Yield (key, row_indices) per distinct key — one stable argsort, no
    per-key full-batch masks (O(n log n), not O(keys × n))."""
    order = np.argsort(bk, kind="stable")
    uniq, starts = np.unique(bk[order], return_index=True)
    bounds = np.append(starts, len(bk))
    for i, k in enumerate(uniq):
        yield k, order[bounds[i] : bounds[i + 1]]


def _attach_values(batch: pa.Table, vals: pa.Table, match: np.ndarray, cols):
    """Append value columns by match index (-1 ⇒ null); safe on an empty
    broadcast side."""
    found = match >= 0
    miss = pa.array(~found)
    out = batch
    for c in cols:
        if vals.num_rows == 0:
            col = pa.nulls(len(match), vals.schema.field(c).type)
        else:
            col = vals.column(c).take(pa.array(np.where(found, match, 0), pa.int64()))
            col = pc.if_else(miss, pa.nulls(len(match), col.type), col)
        out = out.append_column(c, col)
    return out, found


def _dedupe_right(right: pa.Table, on: str, by: str, tiebreak: str) -> pa.Table:
    """Last row per (by, on) under tiebreak ordering — deterministic ties.
    Rows with a NULL ``on`` drop first: SQL's ``right_on <= / >= left_on``
    can never match them, and in the forward search a NULL would sort to
    the end of its key slice as NaN and get matched by any left timestamp
    past the key's last real one (third review pass)."""
    right = right.filter(pc.is_valid(right.column(on)))
    r = right.sort_by(
        [(by, "ascending"), (on, "ascending"), (tiebreak, "ascending")]
    )
    keys = r.column(by).to_numpy(zero_copy_only=False)
    ons = _temporal_i64(r.column(on))
    last = np.ones(r.num_rows, dtype=bool)
    if r.num_rows > 1:
        last[:-1] = (keys[:-1] != keys[1:]) | (ons[:-1] != ons[1:])
    return r.filter(pa.array(last))


def asof_join_broadcast(
    left,  # rd.Dataset
    right: pa.Table,
    *,
    on: str,
    by: str,
    right_on: str | None = None,
    right_by: str | None = None,
    value_cols: list[str] | None = None,
    tiebreak: str | None = None,
    direction: str = "backward",
):
    """Broadcast as-of join (right = small dimension history). Returns the
    left dataset with ``value_cols`` attached (null where no right row
    matches the key). ``direction="backward"`` (default) attaches the
    LATEST right row with ``right_on <= on`` — events × dimension
    history; ``direction="forward"`` attaches the EARLIEST right row with
    ``right_on >= on`` — next-touch attribution (what did the user do
    NEXT). Both are one binary search per unique batch key over the same
    broadcast arrays."""
    import ray

    if direction not in ("backward", "forward"):
        raise ValueError("direction must be 'backward' or 'forward'")

    right_on = right_on or on
    right_by = right_by or by
    value_cols = value_cols or [
        c for c in right.column_names if c not in (right_on, right_by)
    ]
    tiebreak = tiebreak or value_cols[0]
    r = _dedupe_right(right, right_on, right_by, tiebreak)
    l_on_type = None  # right on-column normalized against the left's type
    try:
        sch = left.schema()
        l_on_type = dict(zip(sch.names, sch.types))[on]
    except Exception:
        pass
    ref = ray.put(
        (
            r.column(right_by).to_numpy(zero_copy_only=False),
            _temporal_i64(r.column(right_on), l_on_type),
            r.select(value_cols),
        )
    )

    def stage(batch: pa.Table) -> pa.Table:
        keys, ons, vals = ray.get(ref)
        bk = batch.column(by).to_numpy(zero_copy_only=False)
        bt = _temporal_i64(batch.column(on))
        match = np.full(len(bk), -1, dtype=np.int64)
        for k, rows in _key_slices(bk):
            lo = np.searchsorted(keys, k, side="left")
            hi = np.searchsorted(keys, k, side="right")
            if lo == hi:
                continue
            if direction == "backward":
                pos = (
                    lo
                    + np.searchsorted(ons[lo:hi], bt[rows], side="right")
                    - 1
                )
                pos[pos < lo] = -1
            else:
                pos = lo + np.searchsorted(ons[lo:hi], bt[rows], side="left")
                pos[pos >= hi] = -1
            match[rows] = pos
        # SQL: a NULL left ``on`` compares with nothing (NaN would sort
        # past every right row and match the key's latest one)
        match[pc.is_null(batch.column(on)).to_numpy(zero_copy_only=False)] = -1
        out, _found = _attach_values(batch, vals, match, value_cols)
        return out

    return left.map_batches(stage, batch_format="pyarrow")


def asof_join_sharded(
    left,  # rd.Dataset
    right,  # rd.Dataset
    *,
    on: str,
    by: str,
    right_on: str | None = None,
    right_by: str | None = None,
    value_cols: list[str],
    tiebreak: str | None = None,
    num_shards: int = 64,
):
    """Sharded as-of join for a large right side: union the two sides into
    one tagged common-schema stream, hash-shard on the key, pandas
    ``merge_asof`` per shard (C-speed sorted merge; one call per shard)."""
    right_on = right_on or on
    right_by = right_by or by
    tiebreak = tiebreak or value_cols[0]

    l_schema = left.schema()
    r_schema = right.schema()
    l_types = dict(zip(l_schema.names, l_schema.types))
    r_types = dict(zip(r_schema.names, r_schema.types))
    left_names = list(l_schema.names)
    # unified column order: left cols, then value cols, then tags
    vtypes = {c: r_types[c] for c in value_cols}

    def tag_left(batch: pa.Table) -> pa.Table:
        cols = {c: batch.column(c) for c in left_names}
        for c in value_cols:
            cols[c] = pa.nulls(batch.num_rows, vtypes[c])
        cols["partition_id"] = shard_ids(batch, [by], num_shards)
        cols["__side"] = pa.nulls(batch.num_rows, pa.int8()).fill_null(0)
        return cluster_by_pid(pa.table(cols))

    def tag_right(batch: pa.Table) -> pa.Table:
        renames = {right_by: by, right_on: on}
        src = {renames.get(c, c): batch.column(c) for c in batch.column_names}
        cols = {}
        for c in left_names:
            cols[c] = (
                src[c] if c in src else pa.nulls(batch.num_rows, l_types[c])
            )
        for c in value_cols:
            cols[c] = src[c]
        cols["partition_id"] = shard_ids(batch, [right_by], num_shards)
        cols["__side"] = pa.nulls(batch.num_rows, pa.int8()).fill_null(1)
        return cluster_by_pid(pa.table(cols))

    unioned = left.map_batches(tag_left, batch_format="pyarrow").union(
        right.map_batches(tag_right, batch_format="pyarrow")
    )

    def join_shard(g: pd.DataFrame) -> pd.DataFrame:
        # SQL: a NULL ``on`` matches nothing — right rows drop, left rows
        # pass through with NULL values (merge_asof rejects NULL keys)
        lf = g[g["__side"] == 0].drop(columns=["__side", "partition_id", *value_cols])
        l_null = lf[on].isna()
        rf = (
            g[(g["__side"] == 1) & g[on].notna()]
            .sort_values([by, on, tiebreak])
            .drop_duplicates([by, on], keep="last")[[by, on, *value_cols]]
        )
        lf_valid = lf[~l_null].sort_values(on, kind="mergesort")
        rf = rf.sort_values(on, kind="mergesort")
        out = pd.merge_asof(
            lf_valid, rf, on=on, by=by, direction="backward",
            allow_exact_matches=True,
        )
        if l_null.any():
            out = pd.concat(
                [out, lf[l_null].reindex(columns=out.columns)], ignore_index=True
            )
        return out

    def run(t: pa.Table) -> pa.Table:
        return pa.Table.from_pandas(
            join_shard(t.to_pandas()), preserve_index=False
        ).replace_schema_metadata(None)

    # one call per shard over the exchange's data plane (metadata-only
    # routing; Ray's sort groupby pays ~3s fixed per call — round-3 profile)
    return exchange_apply(unioned, run)


# ---------------------------------------------------------------------------
# Range (interval) join — same broadcast binary-search family
# ---------------------------------------------------------------------------


def range_join_broadcast(
    left,  # rd.Dataset
    intervals: pa.Table,
    *,
    on: str,
    by: str | None,
    lo: str,
    hi: str,
    attach: list[str],
    inner: bool = True,
):
    """Interval-membership join: attach ``attach`` columns of the interval
    containing ``left.on`` (``lo <= on <= hi``), per key when ``by`` is
    given.

    Partitioning assumption (documented per the brief): intervals are
    NON-OVERLAPPING within a key — one binary search over the sorted
    ``lo`` endpoints finds the only candidate, so each batch does numpy
    ``searchsorted`` per unique key, no shuffle, interval table broadcast
    once via ``ray.put``. Overlapping intervals need the sharded variant
    of :func:`asof_join_sharded` with an explode step instead."""
    import ray

    if by:
        # a NULL key matches nothing (SQL ``=``); dropping those intervals
        # also keeps the key array int64 (a null would float it)
        intervals = intervals.filter(pc.is_valid(intervals.column(by)))
    sort_keys = ([(by, "ascending")] if by else []) + [(lo, "ascending")]
    iv = intervals.sort_by(sort_keys)
    iv_keys = iv.column(by).to_numpy(zero_copy_only=False) if by else None
    l_on_type = None
    try:
        sch = left.schema()
        l_on_type = dict(zip(sch.names, sch.types))[on]
    except Exception:
        pass
    iv_lo = _temporal_i64(iv.column(lo), l_on_type)
    iv_hi = _temporal_i64(iv.column(hi), l_on_type)
    ref = ray.put((iv_keys, iv_lo, iv_hi, iv.select(attach)))

    def stage(batch: pa.Table) -> pa.Table:
        keys, los, his, vals = ray.get(ref)
        bt = _temporal_i64(batch.column(on))
        match = np.full(len(bt), -1, dtype=np.int64)
        if keys is None:
            if len(los):
                pos = np.searchsorted(los, bt, side="right") - 1
                ok = (pos >= 0) & (bt <= his[np.clip(pos, 0, None)])
                match = np.where(ok, pos, -1)
        else:
            bk = batch.column(by).to_numpy(zero_copy_only=False)
            for k, rows in _key_slices(bk):
                klo = np.searchsorted(keys, k, side="left")
                khi = np.searchsorted(keys, k, side="right")
                if klo == khi:
                    continue
                pos = klo + np.searchsorted(los[klo:khi], bt[rows], side="right") - 1
                ok = (pos >= klo) & (bt[rows] <= his[np.clip(pos, 0, None)])
                match[rows] = np.where(ok, pos, -1)
        out, found = _attach_values(batch, vals, match, attach)
        if inner:
            out = out.filter(pa.array(found))
        return out

    return left.map_batches(stage, batch_format="pyarrow")
