"""General distributed equi-join over the block exchange.

Two shapes, picked by the size of the build side:

- :func:`hash_join_broadcast` — right side fits a worker: ``ray.put`` the
  right table once, every left batch probes it with a vectorized pandas
  merge. No shuffle; the canonical dimension-join shape.
- :func:`hash_join_sharded` — both sides large: union the two sides into one
  tagged common-schema stream, hash-shard on the join key, one pandas
  ``merge`` per shard over the exchange's data plane (driver-routed block
  slices; Ray's sort-based ``groupby`` pays a multi-second fixed shuffle
  cost per call — see ``stages/exchange.py``). Each shard task sees every
  row of its keys from BOTH sides (the exchange's colocation contract), so
  inner/left/right/full-outer semantics are local to the shard.

The reference has no general join operator (its engines join only the
quoted-triple annotation path, ``rdf-workbench.py``); this is engine
completeness for the 100-TB pipeline target: fact×fact joins (lineitem ⋈
orders) can't broadcast and must colocate.

Null keys follow SQL semantics: a null join key matches nothing (rows with
null keys are dropped from inner joins and pass through with null
right-columns in left joins) — pandas ``merge`` would otherwise pair NaN
keys with each other.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import shard_ids
from .exchange import cluster_by_pid, exchange_apply

_SIDE = "__side"
_PID = "partition_id"


def detect_hot_join_keys(
    ds,
    on: str,
    *,
    num_shards: int,
    sample_rows: int | None = 200_000,
    threshold: float | None = None,
    seed: int = 42,
) -> list:
    """Cheap skew pre-pass for :func:`hash_join_sharded`: stratified
    sample (randomized block order, then row cap), per-batch
    ``value_counts`` partials, keys whose sampled share exceeds half a
    shard's fair share flagged. Bounded driver-side reduction, no
    shuffle."""
    import pyarrow.compute as _pc

    if threshold is None:
        threshold = 0.5 / num_shards

    def partial(batch: pa.Table) -> pa.Table:
        # drop nulls BEFORE counting: value_counts emits a null row, and a
        # null in the partial would float an int64 key column on the driver
        # (corrupting keys >= 2^53 — the exact hazard key_hash_column guards)
        vc = _pc.value_counts(batch.column(on).drop_null())
        if isinstance(vc, pa.ChunkedArray):
            vc = vc.combine_chunks()
        return pa.table(
            {"k": vc.field("values"), "n": _pc.cast(vc.field("counts"), pa.int64())}
        )

    sampled = ds
    if sample_rows is not None:
        sampled = sampled.randomize_block_order(seed=seed).limit(sample_rows)
    parts = sampled.map_batches(partial, batch_format="pyarrow").to_pandas()
    if parts.empty:
        return []
    counts = parts.groupby("k", sort=False, dropna=True)["n"].sum()
    total = counts.sum()
    return sorted(counts[counts / total > threshold].index.tolist())


def hash_join_broadcast(
    left,  # rd.Dataset
    right: pa.Table,
    *,
    on: str,
    right_on: str | None = None,
    how: str = "inner",
    suffix: str = "_r",
):
    """Broadcast equi-join: ``right`` (small side) is shipped to the object
    store once; each left batch probes it with one vectorized pandas merge.
    ``how`` ∈ {"inner", "left"}."""
    import ray

    if how not in ("inner", "left"):
        raise ValueError(f"hash_join_broadcast supports inner/left, got {how!r}")
    right_on = right_on or on
    rdf = right.to_pandas()
    # null build keys never match — drop them from the probe table
    rdf = rdf[rdf[right_on].notna()]
    ref = ray.put(rdf)
    r_types = {f.name: f.type for f in right.schema}

    def stage(batch: pa.Table) -> pa.Table:
        r = ray.get(ref)
        l_types = {f.name: f.type for f in batch.schema}
        ldf = batch.to_pandas()
        out = ldf.merge(
            r,
            left_on=on,
            right_on=right_on,
            how=how,
            suffixes=("", suffix),
        )
        if how == "inner":
            out = out[out[on].notna()]
        # left-join misses float pandas int columns — cast back to the
        # declared Arrow types (NaN → null). Lookup order matters: an
        # unsuffixed match in either schema wins BEFORE suffix-stripping,
        # so a right column natively named "foo_r" keeps its own type
        # instead of stealing an unrelated "foo"'s.
        cols = {}
        for c in out.columns:
            t = l_types.get(c) or r_types.get(c)
            if t is None and c.endswith(suffix):
                t = r_types.get(c[: -len(suffix)])
            cols[c] = (
                pa.Array.from_pandas(out[c], type=t)
                if t is not None
                else pa.Array.from_pandas(out[c])
            )
        return pa.table(cols)

    return left.map_batches(stage, batch_format="pyarrow")


def bloom_filter_left(
    left,
    right,
    *,
    on: str,
    right_on: str | None = None,
    fp_rate: float = 0.01,
    left_key_type=None,
):
    """Bloom semi-join pushdown: drop left rows whose key CANNOT match any
    right key BEFORE they enter the exchange — the classic shuffle-volume
    reduction for selective inner/semi/right joins (a left row without a
    right partner contributes nothing to those join types, so removing it
    early is semantics-preserving; Bloom false positives only let a few
    doomed rows through to be dropped in the shard merge — never a false
    negative, so results are exact).

    The right side is ``materialize()``d (it is consumed twice: key scan +
    join tagging) — no extra cost in practice, because the exchange's
    routing step materializes every tagged block anyway; this just moves
    the materialization one stage earlier. The bit array is built from
    per-block partials (one Ray task per block, OR-merged on the driver —
    ``functions/bloom`` mergeable contract) and broadcast once via
    ``ray.put``: ~1.2 MB per million right keys at fp=1e-2.

    Right keys are cast to the LEFT key type before hashing (the same
    normalization the join's tag stage applies) so both sides probe one
    canonical representation. NULL left keys are dropped too — inner/semi/
    right joins emit nothing for them.

    Returns ``(filtered_left, materialized_right)``; pass BOTH onward so
    the join reuses the materialized right."""
    import ray

    from ..functions.bloom import (
        bloom_build,
        bloom_contains,
        bloom_merge,
        bloom_params,
    )

    right_on = right_on or on
    right = right.materialize()
    n = right.count()
    m, k = bloom_params(n, fp_rate)
    cast_to = left_key_type
    if cast_to is None:
        lsch = left.schema()
        if lsch is None:
            # fully-empty left: Ray reports schema() None (same quirk
            # distinct_set_op handles). An empty left filters to empty for
            # every join type this prefilter serves (inner/semi/right-probe),
            # so skip the Bloom build and hand back the pair unchanged.
            return left, right
        cast_to = dict(zip(lsch.names, lsch.types))[on]

    @ray.remote(num_cpus=1)
    def _partial(ref_tbl: pa.Table) -> np.ndarray:
        col = ref_tbl.column(right_on)
        if col.type != cast_to:
            col = col.cast(cast_to)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        return bloom_build(col.drop_null(), m, k)

    parts = [_partial.remote(r) for r in right.to_arrow_refs()]
    bits = (
        bloom_merge(*ray.get(parts))
        if parts
        else np.zeros((m + 7) // 8, dtype=np.uint8)
    )
    bits_ref = ray.put(bits)

    def prefilter(batch: pa.Table) -> pa.Table:
        key = batch.column(on)
        if isinstance(key, pa.ChunkedArray):
            key = key.combine_chunks()
        mask = bloom_contains(ray.get(bits_ref), key, m, k)
        keep = pa.array(mask & np.asarray(key.is_valid()))
        return batch.filter(keep)

    return left.map_batches(prefilter, batch_format="pyarrow"), right


def hash_join_sharded(
    left,  # rd.Dataset
    right,  # rd.Dataset
    *,
    on: str,
    right_on: str | None = None,
    how: str = "inner",
    num_shards: int = 64,
    suffix: str = "_r",
    hot_keys=None,
    salt_buckets: int = 8,
    bloom_prefilter: bool = False,
    bloom_fp_rate: float = 0.01,
):
    """Sharded equi-join for two large sides. ``on``/``right_on`` take one
    column name or a list (composite keys: the shard hash chains the
    per-column typed hashes with ``combine64``, SQL ``=`` semantics apply
    per component — ANY null component means no match).
    ``how`` ∈ {"inner", "left", "right", "outer", "semi", "anti"}.
    ``semi``/``anti`` return LEFT rows only (filtered by right-key
    existence — the ``WHERE [NOT] EXISTS`` shape; anti is the large×large
    decontamination filter when the exclusion set is too big to broadcast).

    Scale shape: both inputs stream through a cheap tagging ``map_batches``
    (append ``partition_id`` = hash(key) % shards and a side flag, null-fill
    the other side's columns so the union has ONE schema), the exchange
    colocates each key's rows from both sides into one shard task, and the
    per-shard pandas ``merge`` runs at C speed. Nothing materializes the
    inputs; the join output streams out as Arrow blocks.

    Skew: pass ``hot_keys`` (the few keys whose rows would exceed a
    worker's heap — :func:`detect_hot_join_keys` finds them) to
    SALT them: a hot key's LEFT rows spread cyclically over
    ``salt_buckets`` consecutive shards, and its RIGHT rows replicate into
    all of them (broadcast-the-build-side-of-one-key, the standard skew
    join). Supported for inner/left/semi/anti — right/outer would emit the
    replicated right rows multiple times on misses and raises instead."""
    if how not in ("inner", "left", "right", "outer", "semi", "anti"):
        raise ValueError(f"unsupported how={how!r}")
    ons = [on] if isinstance(on, str) else list(on)
    right_on = right_on or on
    r_ons = [right_on] if isinstance(right_on, str) else list(right_on)
    if len(ons) != len(r_ons):
        raise ValueError("on and right_on must name the same number of columns")
    semi_anti = how in ("semi", "anti")
    if bloom_prefilter:
        # only join types where an unmatched LEFT row contributes nothing
        # may drop left rows early; left/outer/anti must keep them all
        if how not in ("inner", "semi", "right"):
            raise ValueError(
                "bloom_prefilter is valid for inner/semi/right joins only"
            )
        if len(ons) > 1:
            raise ValueError("bloom_prefilter supports single-column keys")
        left, right = bloom_filter_left(
            left, right, on=ons[0], right_on=r_ons[0], fp_rate=bloom_fp_rate
        )
    if isinstance(hot_keys, str) and hot_keys == "auto":
        if len(ons) > 1:
            raise ValueError("hot_keys='auto' supports single-column keys")
        hot_keys = detect_hot_join_keys(left, ons[0], num_shards=num_shards)
    hot_list = list(hot_keys) if hot_keys else []
    if hot_list and how in ("right", "outer"):
        raise ValueError(
            "hot-key salting replicates right rows; right/outer joins would "
            "duplicate unmatched right output — use inner/left/semi/anti"
        )
    if hot_list and len(ons) > 1:
        raise ValueError("hot-key salting supports single-column keys")
    # offsets wrap mod num_shards: more salt buckets than shards would land
    # >=2 replicas of the same right row in one shard and DUPLICATE matches
    salt_buckets = min(salt_buckets, num_shards)

    l_schema = left.schema()
    r_schema = right.schema()
    # a fully-empty side reports schema() None (the Ray quirk
    # distinct_set_op documents). Degenerate joins resolve without running
    # the exchange; the missing side's columns are unknowable, so — like
    # the set-op precedent — the surviving side IS the result:
    #   empty left : inner/left/semi/anti are empty (return left);
    #                right/outer are the right rows (key under the right
    #                name; no left columns to null-fill)
    #   empty right: inner/right/semi are empty (return right);
    #                left/outer/anti are the left rows unchanged
    if l_schema is None:
        return left if how in ("inner", "left", "semi", "anti") else right
    if r_schema is None:
        return right if how in ("inner", "right", "semi") else left
    l_names = list(l_schema.names)
    l_types = dict(zip(l_schema.names, l_schema.types))
    # semi/anti only test key existence — the right side ships key-only
    # rows through the exchange (no value bytes move)
    r_names = [] if semi_anti else [c for c in r_schema.names if c not in r_ons]
    r_types = dict(zip(r_schema.names, r_schema.types))
    r_key_of = dict(zip(ons, r_ons))  # left key name -> right key name
    # right non-key columns that collide with a left name get the suffix
    # (pandas-merge convention), and the right key column is exposed under
    # the LEFT key name for inner/left joins — callers of right/outer joins
    # still see one unified key column
    out_r_names = {c: (c + suffix if c in l_names else c) for c in r_names}

    hot_arr = pa.array(hot_list, l_types[ons[0]]) if hot_list else None

    def _salted_left_pid(batch: pa.Table) -> pa.Array:
        pid = shard_ids(batch, ons, num_shards).to_numpy().astype(np.int64)
        key = batch.column(ons[0])
        # cyclic spread PER HOT KEY (a shared counter would bias the spread
        # when several hot keys interleave — e.g. strict alternation of two
        # hot keys gives each only every other bucket); hot keys are few by
        # construction so the per-key loop is over a handful of keys.
        # The phase seeds from the batch's base-pid sum so blocks carrying
        # only a FEW hot rows each don't all restart at offset 0 and pile
        # the hot key back onto its base shard (correctness is placement-
        # independent: the right side replicates into every salted shard).
        phase = int(pid.sum()) % salt_buckets
        for hk in hot_list:
            # per-key row mask built in Arrow: a numpy view of a
            # null-bearing int64 key column floats to float64, where two
            # distinct hot keys >= 2^53 can collide and the second key's
            # pass would re-offset already-salted rows out of the replica
            # range — silently dropping matches
            rows = np.asarray(
                pc.equal(key, pa.scalar(hk, key.type)).fill_null(False)
            )
            cnt = int(rows.sum())
            if cnt:
                pid[rows] = (
                    pid[rows] + (phase + np.arange(cnt)) % salt_buckets
                ) % num_shards
        return pa.array(pid.astype(np.int32), pa.int32())

    def tag_left(batch: pa.Table) -> pa.Table:
        cols = {c: batch.column(c) for c in l_names}
        for c in r_names:
            cols[out_r_names[c]] = pa.nulls(batch.num_rows, r_types[c])
        if hot_arr is not None:
            cols[_PID] = _salted_left_pid(batch)
        else:
            cols[_PID] = shard_ids(batch, ons, num_shards)
        cols[_SIDE] = pa.nulls(batch.num_rows, pa.int8()).fill_null(0)
        return cluster_by_pid(pa.table(cols))

    def tag_right(batch: pa.Table) -> pa.Table:
        cols = {}
        # normalize keys to the LEFT types BEFORE hashing — hashing raw
        # right columns would shard e.g. timestamp[ms] keys differently
        # from the left's timestamp[s] storage ints and silently never join
        keys = {
            c: batch.column(r_key_of[c]).cast(l_types[c]) for c in ons
        }
        tbl = pa.table(
            {**{out_r_names[c]: batch.column(c) for c in r_names}, **keys}
        )
        offsets = None
        if hot_arr is not None:
            # replicate each hot-key right row into every salted shard:
            # replicas go last and add their salt offset to the base shard
            hot = pc.is_in(tbl.column(ons[0]), value_set=hot_arr).fill_null(
                False
            )
            n = int(np.asarray(hot).sum())
            if n:
                take = np.repeat(np.arange(n), salt_buckets)
                reps = tbl.filter(hot).take(pa.array(take, pa.int64()))
                tbl = pa.concat_tables([tbl.filter(pc.invert(hot)), reps])
                offsets = np.tile(np.arange(salt_buckets), n)
        pid = shard_ids(tbl, ons, num_shards)
        if offsets is not None:
            p = pid.to_numpy().astype(np.int64)
            p[len(p) - len(offsets):] += offsets
            pid = pa.array((p % num_shards).astype(np.int32), pa.int32())
        n_out = tbl.num_rows
        for c in l_names:
            cols[c] = tbl.column(c) if c in keys else pa.nulls(n_out, l_types[c])
        for c in r_names:
            cols[out_r_names[c]] = tbl.column(out_r_names[c])
        cols[_PID] = pid
        cols[_SIDE] = pa.nulls(n_out, pa.int8()).fill_null(1)
        return cluster_by_pid(pa.table(cols))

    unioned = left.map_batches(
        tag_left, batch_format="pyarrow", batch_size=None
    ).union(
        right.map_batches(tag_right, batch_format="pyarrow", batch_size=None)
    )
    rcols = [out_r_names[c] for c in r_names]

    def join_shard(g: pd.DataFrame, g_null: pd.DataFrame) -> pd.DataFrame:
        lf = g[g[_SIDE] == 0].drop(columns=[_SIDE, _PID, *rcols])
        rf = g[g[_SIDE] == 1][[*ons, *rcols]]
        # SQL null semantics: null keys never match. Null-key rows arrive
        # pre-split (g_null) so this frame's key column keeps its integer
        # dtype — a mixed null/int64 pandas column floats to float64 and
        # collides keys >= 2^53 inside the merge.
        lf_null = g_null[g_null[_SIDE] == 0].drop(columns=[_SIDE, _PID, *rcols])
        rf_null = g_null[g_null[_SIDE] == 1][[*ons, *rcols]]
        if semi_anti:
            probe = rf[ons].drop_duplicates()
            m = lf.merge(probe, on=ons, how="left", indicator=True)
            hit = (m["_merge"] == "both").to_numpy()
            if how == "semi":
                return lf[hit]
            # anti: null-key left rows never match, so NOT EXISTS keeps them
            return pd.concat([lf[~hit], lf_null], ignore_index=True)
        out = lf.merge(rf, on=ons, how=how)
        if how in ("left", "outer") and len(lf_null):
            out = pd.concat([out, lf_null], ignore_index=True)
        if how in ("right", "outer") and len(rf_null):
            out = pd.concat([out, rf_null], ignore_index=True)
        return out

    # declared output types: the tagged union null-fills each side's missing
    # columns, which floats pandas int columns (NaN) — cast every output
    # column back to its source Arrow type (NaN → null) so join output
    # schema matches the inputs regardless of match rate
    out_types = {c: l_types[c] for c in l_names}
    for c in r_names:
        out_types[out_r_names[c]] = r_types[c]

    def run(t: pa.Table) -> pa.Table:
        # ANY null key component → no match (SQL `=` semantics)
        null_mask = pc.is_null(t.column(ons[0]))
        for c in ons[1:]:
            null_mask = pc.or_(null_mask, pc.is_null(t.column(c)))
        df = join_shard(
            t.filter(pc.invert(null_mask)).to_pandas(),
            t.filter(null_mask).to_pandas(),
        )
        return pa.table(
            {c: pa.Array.from_pandas(df[c], type=out_types[c]) for c in df.columns}
        )

    return exchange_apply(unioned, run)
