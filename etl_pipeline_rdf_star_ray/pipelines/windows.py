"""Grouped window operators: per-group top-k (ranking), running cumulative
aggregates, stratified deterministic sampling.

All three ride the hash-sharded-group plane (``exchange.sharded_groups`` over
the block exchange): groups are colocated by key hash, ONE task per shard
does the window work for every group of the shard in a single vectorized
pandas pass — no per-group task, no sort shuffle. The only rows that move
are the input rows themselves, once.

SQL mirrors (the driver oracles): ``row_number() OVER (PARTITION BY …
ORDER BY …)`` / ``SUM(…) OVER (PARTITION BY … ORDER BY … ROWS UNBOUNDED
PRECEDING)`` — the window-function family the reference's SPARQL surface
cannot express at all (SURVEY.md §2.7 note).

Scale note: a shard task holds only its shard's rows (corpus / num_shards);
a single GROUP must fit a worker's heap — true for per-user event streams
and per-conversation transcripts (the 100-TB dimension is group COUNT).
Skewed groups: salt hot keys upstream (``stages/partition.py`` pattern).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd  # noqa: F401  (type refs in docstrings)

from ..stages.exchange import pandas_block_apply, sharded_groups


def argmax_rows(
    ds: "rd.Dataset",
    *,
    group_cols: list[str],
    order_by: list[str],
    ascending: list[bool],
    num_shards: int = 64,
) -> "rd.Dataset":
    """Single best row per group — the distributed ``QUALIFY row_number()
    OVER (PARTITION BY … ORDER BY … NULLS LAST) = 1`` — with the MAP-SIDE
    PARTIAL REDUCE that :func:`rank_within_groups` (arbitrary k) cannot do:
    arg-max is associative, so every input block first collapses to its own
    per-group best row (one vectorized sort + ``drop_duplicates`` pass) and
    the exchange then carries at most (distinct groups per block) rows
    instead of every input row. At 100 TB with bounded group cardinality the
    shuffle volume is blocks × groups-per-block, not corpus rows — the same
    combiner argument as the aggregate partial plane, applied to whole rows.

    Semantics pinned to the SQL oracle: NULLs sort LAST in every ordering
    column regardless of direction (DuckDB's default null order); a NULL
    group key forms its own partition (``dropna=False``).
    ``order_by``/``ascending`` must make the order total within a group
    (include a unique tiebreak column) for deterministic output."""

    def best(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            order_by,
            ascending=ascending,
            kind="mergesort",
            na_position="last",
        )
        # drop_duplicates treats NA group keys as equal — the NULL partition
        # keeps exactly one (best) row, matching PARTITION BY
        return df.drop_duplicates(subset=group_cols, keep="first")

    reduced = ds.map_batches(
        lambda b: pandas_block_apply(b, best),
        batch_format="pyarrow",
    )

    def per_shard(s: pd.DataFrame) -> pd.DataFrame:
        return best(s.drop(columns=["shard"]))

    return sharded_groups(
        reduced,
        group_cols,
        per_shard,
        num_shards=num_shards,
    )


def rank_within_groups(
    ds: "rd.Dataset",
    *,
    group_cols: list[str],
    order_by: list[str],
    ascending: list[bool],
    k: int,
    rank_col: str = "rn",
    method: str = "row_number",
) -> "rd.Dataset":
    """Top-k rows per group with their 1-based rank: the distributed
    ``QUALIFY <rank fn>() OVER (PARTITION BY group ORDER BY …) <= k``.

    ``method`` picks the SQL ranking function:

    - ``"row_number"`` (default): ties broken by position —
      ``order_by``/``ascending`` must make the order total (include a
      unique tiebreak column) for deterministic output;
    - ``"rank"``: tied rows share the FIRST row number of their run and
      the next distinct value jumps past the run (SQL ``rank()``);
    - ``"dense_rank"``: tied rows share a rank and ranks are consecutive
      (SQL ``dense_rank()``).

    For ``rank``/``dense_rank`` a tie is rows equal on EVERY ``order_by``
    column under SQL null semantics (NULL ties with NULL — ORDER BY groups
    nulls together), and ``<= k`` keeps every tied row like QUALIFY does —
    output row COUNT can exceed k·groups, but the row SET and rank values
    are deterministic without a tiebreak column."""
    if method not in ("row_number", "rank", "dense_rank"):
        raise ValueError(f"unknown rank method {method!r}")

    def per_shard(s: pd.DataFrame) -> pd.DataFrame:
        s = s.drop(columns=["shard"]).sort_values(
            order_by, ascending=ascending, kind="mergesort",
            na_position="last",
        )
        # dropna=False: SQL's PARTITION BY keeps NULL as its own partition;
        # pandas' default would silently drop null-key rows AND float the
        # rank column (NaN cumcount) in shards containing them
        grp = s.groupby(group_cols, sort=False, dropna=False)
        rn = grp.cumcount() + 1
        if method == "row_number":
            s = s.assign(**{rank_col: rn})
            return s[s[rank_col] <= k]
        # null-safe "differs from the previous row OF THE SAME GROUP" per
        # order column (grouped shift — a global shift would compare
        # against another group's row since rows are sorted by order_by
        # only), reset at each group's first row (rn == 1)
        changed = rn == 1
        for c in order_by:
            col, prev = s[c], grp[c].shift()
            # nullable dtypes propagate NA through ==; fillna(False) keeps
            # the mask a plain bool (NA == anything is "not same" unless
            # both sides are null)
            same = ((col == prev) | (col.isna() & prev.isna())).fillna(
                False
            ).astype(bool)
            changed = changed | ~same
        if method == "dense_rank":
            rank = changed.groupby(
                [s[c] for c in group_cols], sort=False, dropna=False
            ).cumsum()
        else:  # rank: first row number of the tie run, carried forward
            rank = (
                rn.where(changed)
                .groupby([s[c] for c in group_cols], sort=False, dropna=False)
                .ffill()
            )
        s = s.assign(**{rank_col: rank.astype(np.int64)})
        return s[s[rank_col] <= k]

    return sharded_groups(ds, group_cols, per_shard)


def offset_window(
    ds: "rd.Dataset",
    *,
    group_cols: list[str],
    order_by: list[str],
    ascending: list[bool],
    lead: dict[str, str] | None = None,
    lag: dict[str, str] | None = None,
    first_value: dict[str, str] | None = None,
    last_value: dict[str, str] | None = None,
) -> "rd.Dataset":
    """Offset / frame-boundary window family completing ``rank``/``lag``
    (r4 verdict item 5): the distributed ``LEAD(x) OVER w`` / ``LAG(x)
    OVER w`` / ``FIRST_VALUE(x) OVER w`` / ``LAST_VALUE(x) OVER (w ROWS
    BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING)`` for
    ``w = (PARTITION BY group_cols ORDER BY order_by)``.

    Each ``dict`` maps output column → source column. Same shard plane as
    :func:`rank_within_groups`: groups hash-colocate once, one vectorized
    pandas pass per shard. ``first_value``/``last_value`` take the literal
    boundary ROW's value (SQL semantics — NOT pandas' skip-null
    ``first``/``last`` aggregations): rows sort group-contiguously and the
    boundary values are gathered by position, so a NULL in the boundary
    row propagates exactly like SQL. Ties must be broken by ``order_by``
    (include a unique tiebreak column) for deterministic output."""
    lead = lead or {}
    lag = lag or {}
    first_value = first_value or {}
    last_value = last_value or {}

    def per_shard(s: pd.DataFrame) -> pd.DataFrame:
        s = (
            s.drop(columns=["shard"])
            .sort_values(
                group_cols + order_by,
                ascending=[True] * len(group_cols) + list(ascending),
                kind="mergesort",
                na_position="last",
            )
            .reset_index(drop=True)
        )
        out = {}
        grp = s.groupby(group_cols, sort=False, dropna=False)
        for dst, src in lead.items():
            out[dst] = grp[src].shift(-1)
        for dst, src in lag.items():
            out[dst] = grp[src].shift(1)
        if first_value or last_value:
            n = len(s)
            same_all = np.ones(n, dtype=bool)
            for c in group_cols:
                col, prev = s[c], s[c].shift()
                same = (
                    ((col == prev) | (col.isna() & prev.isna()))
                    .fillna(False)
                    .to_numpy(dtype=bool)
                )
                same_all &= same
            changed = ~same_all
            if n:
                changed[0] = True
            gid = np.cumsum(changed) - 1
            starts = np.flatnonzero(changed)
            ends = (
                np.concatenate([starts[1:] - 1, [n - 1]])
                if n
                else np.empty(0, np.int64)
            )
            for dst, src in first_value.items():
                out[dst] = s[src].iloc[starts[gid]].reset_index(drop=True)
            for dst, src in last_value.items():
                out[dst] = s[src].iloc[ends[gid]].reset_index(drop=True)
        return s.assign(**out)

    return sharded_groups(ds, group_cols, per_shard)


def rank_fractions(
    ds: "rd.Dataset",
    *,
    group_cols: list[str],
    order_by: list[str],
    ascending: list[bool],
    pr_col: str = "pr",
    cd_col: str = "cd",
) -> "rd.Dataset":
    """``percent_rank()`` and ``cume_dist()`` per group — the fractional
    ranking pair completing row_number/rank/dense_rank (round 5):
    ``percent_rank = (rank − 1) / (n − 1)`` (0 for single-row groups) and
    ``cume_dist = |rows ≤ current| / n``, both under SQL tie semantics (a
    tie run shares the run's FIRST row number for rank and its LAST for
    the ≤-count). The divisions are single float64 ops identical to the
    SQL engine's definition, so values compare bit-exactly — no flooring
    needed. Same one-exchange shard plane as :func:`rank_within_groups`."""

    def per_shard(s: pd.DataFrame) -> pd.DataFrame:
        s = (
            s.drop(columns=["shard"])
            .sort_values(
                group_cols + order_by,
                ascending=[True] * len(group_cols) + list(ascending),
                kind="mergesort",
                na_position="last",
            )
            .reset_index(drop=True)
        )
        grp = s.groupby(group_cols, sort=False, dropna=False)
        n = grp[order_by[0]].transform("size").to_numpy(dtype=np.float64)
        rn = (grp.cumcount() + 1).to_numpy(dtype=np.int64)
        # a new tie run starts at each group's first row or when ANY order
        # column differs from the previous row (null-safe: NULL ties NULL)
        changed = rn == 1
        for c in group_cols + order_by:
            col, prev = s[c], s[c].shift()
            same = (
                ((col == prev) | (col.isna() & prev.isna()))
                .fillna(False)
                .to_numpy(dtype=bool)
            )
            changed = changed | ~same
        run = np.cumsum(changed)
        rs = pd.Series(rn)
        first = rs.groupby(run).transform("min").to_numpy(dtype=np.float64)
        last = rs.groupby(run).transform("max").to_numpy(dtype=np.float64)
        pr = np.where(n > 1, (first - 1.0) / (n - 1.0), 0.0)
        return s.assign(**{pr_col: pr, cd_col: last / n})

    return sharded_groups(ds, group_cols, per_shard)


def running_totals(
    ds: "rd.Dataset",
    *,
    key_cols: list[str],
    order_by: list[str],
    value_col: str,
    out_col: str = "running",
) -> "rd.Dataset":
    """Per-key running cumulative sum in ``order_by`` order — the
    distributed ``SUM(value) OVER (PARTITION BY key ORDER BY … ROWS
    UNBOUNDED PRECEDING)``. ``value_col`` should already be exact-typed
    (int64 cents for money — see ``analytics._cents``). ``order_by`` must
    be total within each key (include a unique tiebreak column): with ties,
    per-row running values depend on tie order in ANY engine (the SQL
    window is equally non-deterministic there).

    Null semantics match SQL: a null value contributes nothing but the row
    still carries the running sum of PRIOR non-null values (leading null
    rows get NULL); integer value columns yield a nullable int64 output in
    EVERY shard (pandas would float null-bearing shards, giving one
    Dataset blocks with disagreeing schemas)."""
    sch = ds.schema()
    int_out = pa.types.is_integer(dict(zip(sch.names, sch.types))[value_col])

    def per_shard(s: pd.DataFrame) -> pd.DataFrame:
        s = s.drop(columns=["shard"]).sort_values(
            key_cols + order_by, kind="mergesort"
        )
        # integer inputs accumulate on pandas nullable Int64 — never through
        # float64, so running totals beyond 2^53 stay exact (hash parity with
        # the SQL SUM OVER oracle at any magnitude)
        src = s[value_col].astype("Int64") if int_out else s[value_col]
        keys = [s[c] for c in key_cols]
        # dropna=False: null-key rows form their own partition (SQL window
        # semantics) instead of getting NaN running values
        run = src.groupby(keys, sort=False, dropna=False).cumsum()
        # SQL SUM OVER skips NULL values but still reports the running sum
        # on their rows — pandas cumsum leaves NA there; forward-fill
        # within the key (leading nulls stay NULL, as in SQL)
        run = run.groupby(keys, sort=False, dropna=False).ffill()
        s[out_col] = (
            run if int_out else run.to_numpy(dtype=np.float64, na_value=np.nan)
        )
        return s

    return sharded_groups(ds, key_cols, per_shard)


def rolling_window_sum(
    ds: "rd.Dataset",
    *,
    key_cols: list[str],
    order_by: list[str],
    value_col: str,
    window: int,
    out_col: str = "rolling",
) -> "rd.Dataset":
    """Per-key rolling sum over the last ``window`` rows in ``order_by``
    order — the distributed ``SUM(value) OVER (PARTITION BY key ORDER BY …
    ROWS BETWEEN window-1 PRECEDING AND CURRENT ROW)``. Same total-order
    requirement on ``order_by`` as :func:`running_totals`.

    Integer values stay EXACT at any magnitude: the rolling sum is computed
    as the difference of two nullable-Int64 cumulative sums (``cs[i] −
    cs[i−window]``) instead of pandas ``groupby.rolling().sum()``, which
    accumulates in float64 and loses integers beyond 2^53. SQL null
    semantics preserved: nulls contribute nothing, an all-null window
    yields NULL (tracked with a parallel non-null-count cumsum)."""
    # output dtype decided from the DECLARED Arrow type, not the shard's
    # pandas dtype: a null-bearing shard floats to float64 and would emit a
    # different block schema than its null-free siblings
    sch = ds.schema()
    int_out = pa.types.is_integer(dict(zip(sch.names, sch.types))[value_col])

    def per_shard(s: pd.DataFrame) -> pd.DataFrame:
        s = s.drop(columns=["shard"]).sort_values(
            key_cols + order_by, kind="mergesort"
        )
        if int_out:
            keys = [s[c] for c in key_cols]
            v = s[value_col].astype("Int64")
            cs = v.fillna(0).groupby(keys, sort=False, dropna=False).cumsum()
            lag = cs.groupby(keys, sort=False, dropna=False).shift(window)
            roll = cs - lag.fillna(0)
            nn = v.notna().astype("int64")
            cnt = nn.groupby(keys, sort=False, dropna=False).cumsum()
            cnt_lag = cnt.groupby(keys, sort=False, dropna=False).shift(window)
            in_window = (cnt - cnt_lag.fillna(0)) > 0
            s[out_col] = roll.where(in_window, other=pd.NA).astype("Int64")
        else:
            s[out_col] = (
                s.groupby(key_cols, sort=False, dropna=False)[value_col]
                .rolling(window, min_periods=1)
                .sum()
                .reset_index(drop=True)
                .to_numpy()
            )
        return s

    return sharded_groups(ds, key_cols, per_shard)


def stratified_sample(
    ds: "rd.Dataset",
    *,
    stratum_cols: list[str],
    id_col: str,
    n_per_stratum: int,
) -> "rd.Dataset":
    """Deterministic stratified sample: the ``n`` rows per stratum whose
    ``md5(str(id))`` sorts lowest — reproducible across runs, processes and
    engines (same property as ``corpus.sample_hash``, but with an exact
    per-stratum quota instead of a global rate). SQL mirror:
    ``QUALIFY row_number() OVER (PARTITION BY stratum
    ORDER BY md5(CAST(id AS VARCHAR)), id) <= n``.

    Composition: one streaming stage attaches the vectorized md5 order key
    (DuckDB C++ kernel, zero-copy Arrow in/out), then this IS
    :func:`rank_within_groups` on (md5, id) — the rank column and order key
    are dropped from the output."""

    ranked = rank_within_groups(
        ds.map_batches(_add_md5(id_col), batch_format="pyarrow"),
        group_cols=stratum_cols,
        order_by=["__h", id_col],
        ascending=[True, True],
        k=n_per_stratum,
        rank_col="__rn",
    )
    drop = ["__h", "__rn"]
    return ranked.map_batches(
        lambda b: b.drop_columns(drop).replace_schema_metadata(None),
        batch_format="pyarrow",
    )


def _add_md5(id_col: str):
    """Stage attaching the deterministic md5 order key ``__h`` (shared by
    the stratified / mixture samplers)."""

    def add_md5(batch: pa.Table) -> pa.Table:
        from ..functions.hashing import md5_hex_column

        h = md5_hex_column(batch.column(id_col))
        return batch.append_column("__h", h).replace_schema_metadata(None)

    return add_md5


def mixture_sample(
    ds: "rd.Dataset",
    *,
    source_col: str,
    id_col: str,
    quotas: dict[str, int],
) -> "rd.Dataset":
    """Deterministic weighted mixture: for each source, keep exactly its
    quota of rows (the ones whose ``md5(str(id))`` sorts lowest — same
    reproducibility contract as :func:`stratified_sample`, but with a
    PER-SOURCE quota, i.e. a training-data mixture recipe: ``{'web': 1e6,
    'code': 3e5, …}``). Sources absent from ``quotas`` (including NULL)
    are dropped. Short sources keep all their rows.

    SQL mirror: ``QUALIFY row_number() OVER (PARTITION BY source ORDER BY
    md5(CAST(id AS VARCHAR)), id) <= CASE source WHEN … THEN … ELSE 0 END``.

    Scale shape: one streaming md5 stage, then ONE exchange on the source
    hash (``rank_within_groups`` with the max quota), then a vectorized
    per-batch quota filter against the broadcast quota map — no global
    sort, no driver materialization."""
    if not quotas:
        raise ValueError("quotas must name at least one source")
    if any(q < 0 for q in quotas.values()):
        raise ValueError("quotas must be non-negative")
    ranked = rank_within_groups(
        ds.map_batches(_add_md5(id_col), batch_format="pyarrow"),
        group_cols=[source_col],
        order_by=["__h", id_col],
        ascending=[True, True],
        k=max(quotas.values()),
        rank_col="__rn",
    )
    keys = pa.array(list(quotas), pa.string())
    vals = np.fromiter(quotas.values(), dtype=np.int64)

    def quota_filter(batch: pa.Table) -> pa.Table:
        src = batch.column(source_col)
        if pa.types.is_null(src.type):
            # an all-NULL source shard comes back from the exchange with a
            # null-typed column (pandas round-trip) — restore the declared
            # type so this block's schema agrees with its siblings; all its
            # rows drop anyway (NULL source → quota 0)
            i = batch.schema.get_field_index(source_col)
            batch = batch.set_column(
                i, source_col, src.cast(keys.type)
            )
        pos = pc.index_in(batch.column(source_col), value_set=keys)
        q = np.where(
            np.asarray(pos.is_null()),
            0,  # unknown / NULL source → quota 0 (SQL CASE ELSE 0)
            vals[pos.fill_null(0).to_numpy(zero_copy_only=False)],
        )
        rn = batch.column("__rn").to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(rn <= q)).drop_columns(["__h", "__rn"])

    return ranked.map_batches(quota_filter, batch_format="pyarrow")


def ntile_global(
    ds: "rd.Dataset",
    *,
    keys: list[str],
    n: int,
    out_col: str = "bucket",
    num_shards: int = 64,
    samples_per_block: int = 64,
) -> "rd.Dataset":
    """Global ``ntile(n) OVER (ORDER BY keys)`` — equal-size bucket
    assignment over the TOTAL order (curriculum binning, difficulty
    deciles) without any global sort shuffle.

    SQL ntile semantics exactly: with ``N`` total rows, ``k = N // n``,
    ``m = N % n``, the first ``m`` buckets hold ``k + 1`` rows and the
    rest hold ``k``; ties are broken by the remaining sort keys, so pass a
    unique tiebreaker as the last key for a deterministic assignment.
    NULLS LAST like ``ORDER BY``.

    Shape: the same distributed ordered-prefix machinery as
    ``training.pack_items`` but counting ROWS — range-partition on the
    first key (equal first keys colocate, so composite ordering is exact
    within one shard), per-shard row counts reduce to ``num_shards``
    scalars, the driver's exclusive scan broadcasts back as each shard's
    global row offset, and one exchange later every shard computes its
    rows' bucket ids from pure arithmetic. Rows move exactly once."""
    import ray

    from ..stages.exchange import exchange_apply
    from ..stages.sortrange import range_tag

    if n <= 0:
        raise ValueError("n must be positive")
    if not keys:
        raise ValueError("need at least one order key")

    tagged = range_tag(
        ds, keys[0], num_shards=num_shards,
        samples_per_block=samples_per_block,
    ).materialize()

    def partial_counts(t: pa.Table) -> pa.Table:
        agg = t.group_by("partition_id", use_threads=False).aggregate(
            [([], "count_all")]
        )
        return agg

    parts = tagged.map_batches(
        partial_counts, batch_format="pyarrow"
    ).take_all()
    n_pids = 1 + max((int(r["partition_id"]) for r in parts), default=0)
    totals = np.zeros(n_pids, dtype=np.int64)
    for r in parts:
        totals[int(r["partition_id"])] += int(r["count_all"])
    total_rows = int(totals.sum())
    bases = np.concatenate([[0], np.cumsum(totals)[:-1]])
    meta_ref = ray.put((bases, total_rows))

    k, m = divmod(total_rows, n) if total_rows else (0, 0)

    def bucket_shard(t: pa.Table) -> pa.Table:
        base_offsets, _N = ray.get(meta_ref)
        pid = int(t.column("partition_id")[0].as_py())
        t = t.drop_columns(["partition_id"]).sort_by(
            [(c, "ascending") for c in keys]
        )
        r = base_offsets[pid] + np.arange(t.num_rows, dtype=np.int64)
        if k == 0:
            # fewer rows than buckets: row r lands in bucket r
            bucket = r
        else:
            cut = m * (k + 1)
            bucket = np.where(
                r < cut, r // (k + 1), m + (r - cut) // max(k, 1)
            )
        return t.append_column(
            out_col, pa.array(bucket + 1, pa.int64())  # ntile is 1-based
        )

    out = exchange_apply(tagged, bucket_shard)
    return out
