"""Generic analytic operators over the driver tables: grouped aggregates
with partial pre-aggregation, broadcast joins, top-k, windowed/sessionized
event analytics.

These demonstrate the engine's generic operator surface (SURVEY.md §2.6-2.7)
with the scale patterns applied: per-batch COMBINERS before the ``groupby``
shuffle (only partials move), broadcast of small dimension tables via
``ray.put``, column-pruned reads, and exact integer (cents) arithmetic for
money sums so results are order-independent and bit-identical with the SQL
oracle (float sums commute only approximately; int64 sums exactly)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..sources import read_parquet_clean
from ray.data.aggregate import Sum


def _cents(col) -> pa.Array:
    """double currency → exact int64 cents (values are 2-decimal by data
    contract; per-element round then int sums are order-independent)."""
    return pc.cast(pc.round(pc.multiply(col, 100.0)), pa.int64())


def _sum_partials(
    partials, key_cols: list[str], sum_cols: list[str], *, num_shards: int = 64
):
    """The tiny second exchange every two-level distinct/count operator
    ends with (tool_transitions, conv_role_patterns, cohort_retention):
    partial rows grouped by ``key_cols``, each ``sum_cols`` summed — one
    implementation so dtype/empty-shard fixes land once (second review
    pass extracted the third copy)."""
    from ..stages.exchange import sharded_groups

    def combine(s: pd.DataFrame) -> pd.DataFrame:
        return (
            s.groupby(key_cols, sort=False)
            .agg({c: "sum" for c in sum_cols})
            .reset_index()
        )

    return sharded_groups(
        partials,
        key_cols,
        combine,
        num_shards=num_shards,
    )


def _pricing_finest(sf_dir: str, cutoff: str) -> pd.DataFrame:
    """Finest-grain pricing aggregate — one row per (returnflag, linestatus)
    with exact int64 cents sums — via the partial-combine plane: each batch
    collapses to one row per group BEFORE the shuffle, so the groupby moves
    O(groups × blocks) rows instead of O(rows). Raw lineitem data is touched
    exactly once; `pricing_summary` and `pricing_rollup` both derive their
    outputs from this (small) result."""
    ds = read_parquet_clean(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_shipdate",
        ],
        filter=pc.field("l_shipdate") < pa.scalar(np.datetime64(cutoff, "us")),
    )

    def partial(batch: pa.Table) -> pa.Table:
        qty = pc.cast(batch.column("l_quantity"), pa.int64())
        price_c = _cents(batch.column("l_extendedprice"))
        disc_c = _cents(batch.column("l_discount"))
        t = pa.table(
            {
                "l_returnflag": batch.column("l_returnflag"),
                "l_linestatus": batch.column("l_linestatus"),
                "qty": qty,
                "price_c": price_c,
                "disc_c": disc_c,
            }
        )
        df = t.to_pandas()
        g = (
            df.groupby(["l_returnflag", "l_linestatus"], sort=False)
            .agg(
                sum_qty=("qty", "sum"),
                sum_base_c=("price_c", "sum"),
                sum_disc_c=("disc_c", "sum"),
                n=("qty", "size"),
            )
            .reset_index()
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    from ..stages.exchange import sharded_groups

    def combine(shard: pd.DataFrame) -> pd.DataFrame:
        return (
            shard.groupby(["l_returnflag", "l_linestatus"], sort=False)
            .agg(
                sum_qty=("sum_qty", "sum"),
                sum_base_c=("sum_base_c", "sum"),
                sum_disc_c=("sum_disc_c", "sum"),
                count_order=("n", "sum"),
            )
            .reset_index()
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return (
        sharded_groups(
            partials,
            ["l_returnflag", "l_linestatus"],
            combine,
        )
        .to_pandas()
        .sort_values(["l_returnflag", "l_linestatus"])
        .reset_index(drop=True)
    )


def pricing_summary(sf_dir: str, *, cutoff: str = "1996-01-01") -> pa.Table:
    """TPC-H Q1-shaped pricing summary over the finest-grain cents partials
    (see :func:`_pricing_finest` for the scale shape)."""
    final = _pricing_finest(sf_dir, cutoff)
    final["sum_base"] = final.pop("sum_base_c") / 100.0
    final["avg_disc"] = np.floor(
        final.pop("sum_disc_c") / final["count_order"] / 100.0 * 10000
    ) / 10000
    out = final[
        ["l_returnflag", "l_linestatus", "sum_qty", "sum_base", "avg_disc", "count_order"]
    ]
    return pa.Table.from_pandas(out, preserve_index=False)


def pricing_rollup(sf_dir: str, *, cutoff: str = "1996-01-01") -> pa.Table:
    """``GROUP BY ROLLUP (l_returnflag, l_linestatus)`` — the hierarchical
    grouping-sets aggregate: the finest level plus each coarser prefix level
    (per returnflag, grand total), rolled-up columns NULL exactly as SQL
    emits them.

    Scale shape: raw data is scanned ONCE for the finest level (partial
    combine inside :func:`_pricing_finest` — only per-batch group partials
    move); every coarser level re-aggregates the previous level's already
    tiny result (O(groups) rows) on the driver, never the raw table. Sums
    stay int64 cents through every level so the rollup totals are exact and
    hash-identical to the oracle regardless of aggregation order."""
    return _pricing_grouping_sets(
        sf_dir,
        cutoff,
        [("l_returnflag", "l_linestatus"), ("l_returnflag",), ()],
    )


def pricing_cube(sf_dir: str, *, cutoff: str = "1996-01-01") -> pa.Table:
    """``GROUP BY CUBE (l_returnflag, l_linestatus)`` — ALL 2^k grouping
    sets (finest, per-flag, per-status, grand total). Non-hierarchical
    sets (per-status) cannot reuse a prefix rollup, but every set is still
    a re-aggregation of the FINEST level's tiny result — raw data is
    scanned once, same as :func:`pricing_rollup`."""
    return _pricing_grouping_sets(
        sf_dir,
        cutoff,
        [
            ("l_returnflag", "l_linestatus"),
            ("l_returnflag",),
            ("l_linestatus",),
            (),
        ],
    )


def _pricing_grouping_sets(
    sf_dir: str, cutoff: str, sets: list[tuple]
) -> pa.Table:
    """Shared grouping-sets engine for ROLLUP / CUBE: the finest level is
    computed once through the partial-combine plane; every other grouping
    set re-aggregates that already-tiny frame (O(groups) rows, driver-side
    by design); int64 cents throughout so totals are exact at any
    aggregation order."""
    all_keys = ["l_returnflag", "l_linestatus"]
    fin = _pricing_finest(sf_dir, cutoff).drop(columns=["sum_disc_c"])

    def reagg(keys: list[str]) -> pd.DataFrame:
        if keys == all_keys:
            g = fin.copy()
        elif keys:
            g = (
                fin.groupby(keys, sort=False)
                .agg(
                    sum_qty=("sum_qty", "sum"),
                    sum_base_c=("sum_base_c", "sum"),
                    count_order=("count_order", "sum"),
                )
                .reset_index()
            )
        else:
            g = pd.DataFrame(
                {
                    "sum_qty": [fin["sum_qty"].sum()],
                    "sum_base_c": [fin["sum_base_c"].sum()],
                    "count_order": [fin["count_order"].sum()],
                }
            )
        for missing in all_keys:
            if missing not in keys:
                g[missing] = None
        return g

    out = pd.concat([reagg(list(s)) for s in sets], ignore_index=True)
    out["sum_base"] = out.pop("sum_base_c") / 100.0
    out = out[all_keys + ["sum_qty", "sum_base", "count_order"]]
    tbl = pa.Table.from_pandas(out, preserve_index=False)
    # the all-NULL rolled-up key columns must stay typed string (a pure-None
    # pandas object column round-trips as Arrow `null` otherwise)
    for name in all_keys:
        i = tbl.schema.get_field_index(name)
        if pa.types.is_null(tbl.schema.field(i).type):
            tbl = tbl.set_column(i, name, tbl.column(i).cast(pa.string()))
    return tbl


def top_customers_by_revenue(sf_dir: str, *, k: int = 10) -> pa.Table:
    """Revenue per customer: orders pre-aggregate per batch → exchange-backed
    per-shard combine with a LOCAL top-k (customers are hash-colocated, so
    any global top-k customer is in its shard's top-k) → the driver merges
    ≤ k·shards survivors and joins the k winners against the customer
    dimension locally (round-3: replaced the global ``sort().limit()`` over
    every customer and the broadcast name-lookup map stage — only k rows
    ever need the dimension columns)."""
    cust = read_parquet_clean(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name", "c_mktsegment"]
    ).to_pandas()
    orders = read_parquet_clean(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        df = pa.table(
            {
                "o_custkey": batch.column("o_custkey"),
                "total_c": _cents(batch.column("o_totalprice")),
            }
        ).to_pandas()
        g = df.groupby("o_custkey", sort=False)["total_c"].sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    from ..stages.exchange import sharded_groups

    def shard_topk(s: pd.DataFrame) -> pd.DataFrame:
        g = s.groupby("o_custkey", sort=False).agg(total_c=("total_c", "sum")).reset_index()
        return g.sort_values(
            ["total_c", "o_custkey"], ascending=[False, True], kind="mergesort"
        ).head(k)

    survivors = sharded_groups(
        orders.map_batches(partial, batch_format="pyarrow"),
        ["o_custkey"],
        shard_topk,
    ).to_pandas()

    top = survivors.sort_values(
        ["total_c", "o_custkey"], ascending=[False, True], kind="mergesort"
    ).head(k)
    out = top.merge(cust, left_on="o_custkey", right_on="c_custkey", how="left")
    # keep the FACT key: an orders row whose custkey is missing from the
    # dimension (dirty data) must not lose its identity to the merge's
    # null right-side key — dimension columns stay null, key survives
    out["c_custkey"] = out["o_custkey"]
    out["revenue"] = out["total_c"].astype("float64") / 100.0
    out = out[["c_custkey", "c_name", "c_mktsegment", "revenue"]].reset_index(drop=True)
    return pa.Table.from_pandas(out, preserve_index=False)


def top_orders(sf_dir: str, *, k: int = 10) -> "rd.Dataset":
    """Global top-k WITHOUT a global sort: each batch keeps its local top-k
    (vectorized pandas sort over one batch), the driver merges the
    ≤ k·num_blocks survivors (round-3: replaced ``sort().limit(k)``, which
    full-sorts the entire table — an all-to-all shuffle — to pick 10 rows)."""
    cols = ["o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"]

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(
            ["o_totalprice", "o_orderkey"], ascending=[False, True], kind="mergesort"
        ).head(k)

    survivors = (
        read_parquet_clean(f"{sf_dir}/orders.parquet", columns=cols)
        .map_batches(local_topk, batch_format="pandas")
        .to_pandas()
    )
    top = survivors.sort_values(
        ["o_totalprice", "o_orderkey"], ascending=[False, True], kind="mergesort"
    ).head(k)
    return rd.from_arrow(
        pa.Table.from_pandas(top.reset_index(drop=True), preserve_index=False)
        .replace_schema_metadata(None)
    )


def event_type_counts(sf_dir: str) -> "rd.Dataset":
    """Distinct event types with counts: per-batch value_counts partials,
    exchange-backed combine — only (type, partial_n) rows move."""
    from ..stages.exchange import sharded_groups

    def partial(batch: pa.Table) -> pa.Table:
        vc = batch.column("event_type").combine_chunks().value_counts()
        return pa.table(
            {
                "event_type": vc.field("values"),
                "n": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    return sharded_groups(
        read_parquet_clean(
            f"{sf_dir}/events.parquet", columns=["event_type"]
        ).map_batches(partial, batch_format="pyarrow"),
        ["event_type"],
        lambda s: s.groupby("event_type", sort=False)
        .agg(n=("n", "sum"))
        .reset_index(),
    )


def events_hourly(sf_dir: str) -> "rd.Dataset":
    """Tumbling-window aggregate: events per (event_type, hour) with exact
    distinct users — the width==hop special case of :func:`events_sliding`
    (ONE shared implementation: per-batch (type, window, user) partials,
    global triple dedup, per-window combine; both shuffles move
    pre-aggregated partials only — review r4 deduplicated the two copies).
    Output: ``(event_type, hour, n, n_users, sum_value_c)``."""
    return events_sliding(
        sf_dir, width_hours=1, hop_hours=1, window_col="hour"
    )

def _sessionize(g: "pd.DataFrame", gap: "np.timedelta64") -> "pd.DataFrame":
    """Shared session-boundary computation: sorted by (user, ts, event_id),
    ``new_s`` marks a session start (user change OR inactivity > gap),
    ``session_idx`` is the per-user running session number. Both
    :func:`user_sessions` and :func:`session_intervals` derive from this so
    boundary semantics can never diverge."""
    g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
    # NULL-safe user change: a NULL user_id is one user (SQL PARTITION BY),
    # and ``eq`` on nullable ints would yield NA for it
    user = g.groupby("user_id", sort=False, dropna=False).ngroup().to_numpy()
    same_user = np.r_[False, user[1:] == user[:-1]]
    new_s = ~same_user | (g["ts"].diff() > gap).to_numpy()
    g = g.assign(new_s=new_s.astype(np.int64))
    g["session_idx"] = g.groupby(user, sort=False)["new_s"].cumsum()
    return g


def _events_by_user(sf_dir: str) -> "rd.Dataset":
    return read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id"]
    )


def user_sessions(sf_dir: str, *, gap_minutes: int = 30, num_shards: int = 64) -> "rd.Dataset":
    """Sessionization: per user, count sessions split at >gap inactivity.
    Users are hash-sharded (all events of a user land in one shard), one task
    per SHARD sessionizes every user of the shard in a single vectorized
    pandas pass (`_sessionize`). No per-user Python calls (round-1 verdict
    fix)."""
    from ..stages.exchange import sharded_groups

    gap = np.timedelta64(gap_minutes * 60, "s")

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = _sessionize(g, gap)
        out = (
            g.groupby("user_id", sort=False, dropna=False)
            .agg(n_events=("new_s", "size"), n_sessions=("new_s", "sum"))
            .reset_index()
        )
        out["n_events"] = out["n_events"].astype(np.int64)
        out["n_sessions"] = out["n_sessions"].astype(np.int64)
        return out

    return sharded_groups(
        _events_by_user(sf_dir), ["user_id"], per_shard, num_shards=num_shards
    )


def session_intervals(
    sf_dir: str, *, gap_minutes: int = 30, num_shards: int = 64
) -> "rd.Dataset":
    """Per-user session intervals ``(user_id, session_idx, s_start, s_end)``
    — same sharded sessionization as :func:`user_sessions` (shared
    `_sessionize` boundaries), emitting the interval table (the broadcast
    side of the event→session range join)."""
    from ..stages.exchange import sharded_groups

    gap = np.timedelta64(gap_minutes * 60, "s")

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = _sessionize(g, gap)
        out = (
            g.groupby(["user_id", "session_idx"], sort=False, dropna=False)
            .agg(s_start=("ts", "min"), s_end=("ts", "max"))
            .reset_index()
        )
        out["session_idx"] = out["session_idx"].astype(np.int64)
        return out

    return sharded_groups(
        _events_by_user(sf_dir), ["user_id"], per_shard, num_shards=num_shards
    )


def event_sessions(sf_dir: str, *, gap_minutes: int = 30) -> "rd.Dataset":
    """Assign every event its session via a per-user interval range join:
    session intervals are small (users × sessions) → computed distributed,
    broadcast once, events stream through a binary-search ``map_batches``
    (``stages/asof.range_join_broadcast``)."""
    import ray

    from ..stages.asof import range_join_broadcast

    iv_blocks = [
        b
        for b in ray.get(
            session_intervals(sf_dir, gap_minutes=gap_minutes).to_arrow_refs()
        )
        if b.num_rows
    ]
    intervals = (
        pa.concat_tables(iv_blocks)
        if iv_blocks
        else pa.table(
            {
                "user_id": pa.array([], pa.int64()),
                "session_idx": pa.array([], pa.int64()),
                "s_start": pa.array([], pa.timestamp("us")),
                "s_end": pa.array([], pa.timestamp("us")),
            }
        )
    )
    events = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
    )
    return range_join_broadcast(
        events, intervals,
        on="ts", by="user_id", lo="s_start", hi="s_end",
        attach=["session_idx"],
    )


def conv_stats(state: "rd.Dataset") -> "rd.Dataset":
    """Per-conversation rollup over the upserted transcript state:
    ``(conv_id, n_turns, n_roles, n_chars, last_ts)`` — the transcript-side
    sibling of :func:`events_hourly`, same two-level partial-aggregation
    shape (zero per-group Python calls):

    level 1 collapses each batch to (conv_id, role) partials and one global
    groupby dedups roles; level 2 collapses those already-tiny rows per
    conv_id. Both shuffles move pre-aggregated partials only."""

    def per_role_partial(batch: pa.Table) -> pa.Table:
        df = pa.table(
            {
                "conv_id": batch.column("conv_id"),
                # null role must still count toward n_turns/n_chars (ADVICE
                # r2: pandas groupby drops NaN keys by default); role never
                # reaches the output, so a sentinel stands in for NULL — it
                # also keeps the Ray-level groupby free of null keys
                "role": pc.fill_null(batch.column("role"), "\x00<null-role>"),
                "chars": pc.cast(
                    pc.utf8_length(batch.column("text")), pa.int64()
                ),
                "ts": batch.column("ts"),
            }
        ).to_pandas()
        g = (
            df.groupby(["conv_id", "role"], sort=False)
            .agg(n=("chars", "size"), chars=("chars", "sum"), last_ts=("ts", "max"))
            .reset_index()
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    from ..stages.exchange import sharded_groups

    per_role = sharded_groups(
        state.map_batches(per_role_partial, batch_format="pyarrow"),
        ["conv_id", "role"],
        lambda s: s.groupby(["conv_id", "role"], sort=False)
        .agg(n=("n", "sum"), chars=("chars", "sum"), last_ts=("last_ts", "max"))
        .reset_index(),
    )

    def per_conv_partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        # SQL mirror is count(DISTINCT role): the null-role sentinel group
        # contributes its turns/chars but NOT a role
        df["is_role"] = (df["role"] != "\x00<null-role>").astype(np.int64)
        g = (
            df.groupby("conv_id", sort=False)
            .agg(
                n_turns=("n", "sum"),
                n_roles=("is_role", "sum"),
                n_chars=("chars", "sum"),
                last_ts=("last_ts", "max"),
            )
            .reset_index()
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    def cast_ts(batch: pa.Table) -> pa.Table:
        # restore timestamp[us] after the shuffle's pandas ns round-trip
        i = batch.schema.get_field_index("last_ts")
        return batch.set_column(
            i, "last_ts", pc.cast(batch.column("last_ts"), pa.timestamp("us"))
        )

    return sharded_groups(
        per_role.map_batches(per_conv_partial, batch_format="pyarrow"),
        ["conv_id"],
        lambda s: s.groupby("conv_id", sort=False)
        .agg(
            n_turns=("n_turns", "sum"),
            n_roles=("n_roles", "sum"),
            n_chars=("n_chars", "sum"),
            last_ts=("last_ts", "max"),
        )
        .reset_index(),
    ).map_batches(cast_ts, batch_format="pyarrow")


def turn_gaps(state: "rd.Dataset", *, num_shards: int = 64) -> "rd.Dataset":
    """Per-turn lag window over the transcript state: for every turn, the
    microseconds elapsed since the previous turn of the SAME conversation
    (NULL for each conversation's first turn) — the window-function
    (``lag() OVER (PARTITION BY conv_id ORDER BY turn_idx)``) operator.

    Conversations are hash-sharded (all turns of one conv land in one
    shard); one call per shard computes every conversation's lag in a single
    vectorized pandas pass — same de-grouped shape as
    :func:`user_sessions`. Output: ``(conv_id, turn_idx, gap_us)``."""

    from ..stages.exchange import sharded_groups

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        # normalize to µs explicitly — pandas ≥2 preserves the Arrow unit, so
        # ts may arrive as datetime64[us] OR datetime64[ns] depending on the
        # shuffle path; a blind int64 view would be unit-ambiguous. NaT must
        # be masked BEFORE the int64 view: it aliases the -2^63 sentinel and
        # would otherwise yield garbage gaps instead of NULL (ADVICE r2)
        ts64 = g["ts"].to_numpy().astype("datetime64[us]")
        us = pd.Series(
            pd.array(ts64.astype(np.int64), dtype="Int64"), index=g.index
        )
        us[np.isnat(ts64)] = pd.NA
        prev = us.groupby(g["conv_id"], sort=False).shift()
        gap = pd.array(us - prev, dtype="Int64")
        return pd.DataFrame(
            {
                "conv_id": g["conv_id"].to_numpy(),
                "turn_idx": g["turn_idx"].to_numpy(),
                "gap_us": gap,
            }
        )

    pruned = state.select_columns(["conv_id", "turn_idx", "ts"])
    return sharded_groups(
        pruned,
        ["conv_id"],
        per_shard,
        num_shards=num_shards,
    )


def tool_transitions(state: "rd.Dataset", *, num_shards: int = 64) -> "rd.Dataset":
    """Tool-call transition matrix over agent transcripts: for every ordered
    pair of consecutive tool calls WITHIN a conversation (non-tool turns
    skipped), the global call count and the number of distinct conversations
    exhibiting that transition — the agent-behavior-mining operator
    (``lag(tool) OVER (PARTITION BY conv_id ORDER BY turn_idx)`` on the
    tool-bearing rows, then ``GROUP BY prev_tool, tool``).

    Scale shape: tool-bearing rows are a small filtered projection of the
    state (3 columns, tool turns only) — the filter runs per batch in Arrow
    before anything moves. Conversations are hash-sharded (one conv never
    splits), so each shard's vectorized lag is exact AND its per-pair
    ``nunique(conv_id)`` partial is exact: a conversation contributes to
    exactly one shard, so distinct-conv partials SUM to the true global
    distinct count with no distinct-merge problem. A second tiny exchange
    (≤ |tools|² rows per shard) combines the partials.

    Output: ``(prev_tool, tool, n_calls, n_convs)``."""
    from ..stages.exchange import sharded_groups

    def only_tools(batch: pa.Table) -> pa.Table:
        t = batch.select(["conv_id", "turn_idx", "tool"])
        return t.filter(pc.is_valid(t.column("tool")))

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        prev = g.groupby(g["conv_id"], sort=False)["tool"].shift()
        m = prev.notna().to_numpy()
        pairs = pd.DataFrame(
            {
                "prev_tool": prev.to_numpy()[m],
                "tool": g["tool"].to_numpy()[m],
                "conv_id": g["conv_id"].to_numpy()[m],
            }
        )
        out = (
            pairs.groupby(["prev_tool", "tool"], sort=False)
            .agg(n_calls=("conv_id", "size"), n_convs=("conv_id", "nunique"))
            .reset_index()
        )
        # pin dtypes: a shard whose conversations all have ≤1 tool call
        # emits zero pairs, and empty object columns would round-trip as
        # Arrow `null` type (one schema per block — round-4 invariant)
        return out.astype(
            {
                "prev_tool": "string",
                "tool": "string",
                "n_calls": np.int64,
                "n_convs": np.int64,
            }
        )

    per_conv_shard = sharded_groups(
        state.map_batches(only_tools, batch_format="pyarrow"),
        ["conv_id"],
        per_shard,
        num_shards=num_shards,
    )

    return _sum_partials(
        per_conv_shard,
        ["prev_tool", "tool"],
        ["n_calls", "n_convs"],
        num_shards=num_shards,
    )


def scrub_repeated_turns(
    state: "rd.Dataset", *, num_shards: int = 64
) -> "rd.Dataset":
    """Transcript cleaning: drop every turn whose ``(role, text)`` is
    NULL-safely identical to the immediately preceding turn of the SAME
    conversation (ordered by ``turn_idx``) — collapsing stutter runs to
    their first occurrence, the standard repeated-assistant-turn /
    retry-echo scrub applied to chat corpora before training.

    SQL mirror: ``lag(role)``/``lag(text)`` over
    ``(PARTITION BY conv_id ORDER BY turn_idx)``, keep when ``rn = 1 OR NOT
    (role IS NOT DISTINCT FROM prev_role AND text IS NOT DISTINCT FROM
    prev_text)``.

    Scale shape: conversation-hash exchange (a conv never splits), one
    vectorized grouped-shift comparison per shard; rows move once and the
    operator is a strict filter (no new columns, schema preserved).

    Output: ``(conv_id, turn_idx, role, text)`` — the surviving turns."""
    from ..stages.exchange import sharded_groups

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        grp = g.groupby(g["conv_id"], sort=False)
        prev_role = grp["role"].shift()
        prev_text = grp["text"].shift()
        first = grp.cumcount() == 0
        same_role = (g["role"] == prev_role) | (
            g["role"].isna() & prev_role.isna()
        )
        same_text = (g["text"] == prev_text) | (
            g["text"].isna() & prev_text.isna()
        )
        keep = first | ~(same_role & same_text)
        return g.loc[keep, ["conv_id", "turn_idx", "role", "text"]]

    pruned = state.select_columns(["conv_id", "turn_idx", "role", "text"])
    return sharded_groups(
        pruned,
        ["conv_id"],
        per_shard,
        num_shards=num_shards,
    )


def events_sliding(
    sf_dir: str,
    *,
    width_hours: int = 3,
    hop_hours: int = 1,
    window_col: str = "wstart",
) -> "rd.Dataset":
    """Sliding (hopping) window aggregate: events per ``(event_type,
    window_start)`` with distinct users, where windows are ``width_hours``
    wide and hop every ``hop_hours`` — each event belongs to
    ``width/hop`` overlapping windows (the tumbling :func:`events_hourly`
    is the width==hop special case).

    Scale shape: the ×(width/hop) expansion happens INSIDE the per-batch
    partial — the replicated rows live only within the batch and collapse
    to ``(event_type, window, user)`` partials before anything moves; the
    two shuffles then carry pre-aggregated partials exactly like
    :func:`events_hourly` (window count per event is a small constant, so
    shuffle volume is ≤ k × the tumbling partials, usually far less after
    collapse). No per-window Python calls anywhere.

    Output: ``(event_type, <window_col>, n, n_users, sum_value_c)``."""
    if width_hours <= 0 or hop_hours <= 0 or width_hours % hop_hours:
        raise ValueError("width_hours must be a positive multiple of hop_hours")
    k = width_hours // hop_hours
    hop_us = np.int64(hop_hours) * 3_600_000_000

    ds = read_parquet_clean(
        f"{sf_dir}/events.parquet",
        columns=["event_type", "ts", "user_id", "value"],
    )

    def per_user_partial(batch: pa.Table) -> pa.Table:
        base = pa.table(
            {
                "event_type": batch.column("event_type"),
                # hop-aligned bucket of the event itself (its newest window)
                "w0": pc.floor_temporal(
                    batch.column("ts"), multiple=hop_hours, unit="hour"
                ),
                "user_id": batch.column("user_id"),
                "value_c": pc.cast(
                    pc.floor(pc.multiply(batch.column("value"), 100.0)),
                    pa.int64(),
                ),
            }
        ).to_pandas()
        n = len(base)
        rep = base.iloc[np.repeat(np.arange(n), k)].reset_index(drop=True)
        offs = np.tile(np.arange(k, dtype=np.int64), n) * hop_us
        w64 = rep["w0"].to_numpy().astype("datetime64[us]").astype(np.int64)
        rep[window_col] = (w64 - offs).astype("datetime64[us]")
        g = (
            rep.groupby(["event_type", window_col, "user_id"], sort=False)
            .agg(n=("value_c", "size"), sum_value_c=("value_c", "sum"))
            .reset_index()
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    from ..stages.exchange import sharded_groups

    per_user = sharded_groups(
        ds.map_batches(per_user_partial, batch_format="pyarrow"),
        ["event_type", window_col, "user_id"],
        lambda s: s.groupby(["event_type", window_col, "user_id"], sort=False)
        .agg(n=("n", "sum"), sum_value_c=("sum_value_c", "sum"))
        .reset_index(),
    )

    def per_window_partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = (
            df.groupby(["event_type", window_col], sort=False)
            .agg(
                n=("n", "sum"),
                n_users=("user_id", "size"),
                sum_value_c=("sum_value_c", "sum"),
            )
            .reset_index()
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    def cast_ts(batch: pa.Table) -> pa.Table:
        i = batch.schema.get_field_index(window_col)
        return batch.set_column(
            i, window_col,
            pc.cast(batch.column(window_col), pa.timestamp("us")),
        )

    return sharded_groups(
        per_user.map_batches(per_window_partial, batch_format="pyarrow"),
        ["event_type", window_col],
        lambda s: s.groupby(["event_type", window_col], sort=False)
        .agg(
            n=("n", "sum"),
            n_users=("n_users", "sum"),
            sum_value_c=("sum_value_c", "sum"),
        )
        .reset_index(),
    ).map_batches(cast_ts, batch_format="pyarrow")


def conv_role_patterns(
    state: "rd.Dataset", *, num_shards: int = 64
) -> "rd.Dataset":
    """Conversation-shape mining: group conversations by their ordered ROLE
    SIGNATURE — roles joined with ``>`` in turn order (NULL role renders as
    the empty string, SQL ``coalesce``) — and count how many conversations
    exhibit each shape. The transcript-corpus audit that surfaces dialogue
    patterns (``user>assistant>user>…`` vs tool-heavy agent loops) and their
    prevalence before sampling/mixing decisions.

    SQL mirror: ``string_agg(coalesce(role,''), '>' ORDER BY turn_idx)
    GROUP BY conv_id`` then ``GROUP BY pattern``.

    Scale shape (same two-level plan as :func:`tool_transitions`): the
    conv-hash exchange colocates each conversation, one vectorized pass per
    shard builds every signature and collapses them to per-shard
    ``(pattern, n)`` partials — exact under summation because a conversation
    lives in exactly one shard — then a second tiny pattern-hash exchange
    sums partials (≤ distinct-patterns rows per shard). Raw turns move
    once; the second exchange moves pattern rows only.

    Output: ``(pattern, n_convs)``."""
    from ..stages.exchange import sharded_groups

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        roles = g["role"].fillna("").astype(str)
        sig = (
            pd.DataFrame({"conv_id": g["conv_id"], "r": roles})
            .groupby("conv_id", sort=False)["r"]
            .agg(">".join)
        )
        out = (
            sig.value_counts()
            .rename_axis("pattern")
            .rename("n_convs")
            .reset_index()
        )
        # pin dtypes: an all-empty shard's object column would round-trip
        # as Arrow `null` type (one schema per block)
        return out.astype({"pattern": "string", "n_convs": np.int64})

    pruned = state.select_columns(["conv_id", "turn_idx", "role"])
    partials = sharded_groups(
        pruned,
        ["conv_id"],
        per_shard,
        num_shards=num_shards,
    )

    return _sum_partials(
        partials, ["pattern"], ["n_convs"], num_shards=num_shards
    )


def _q_name(q, suffix: str) -> str:
    """Exact percent label for a quantile column: the quantile is read as
    its DECIMAL string (0.29 → p29, 0.125 → p12_5, 0.0625 → p6_25) —
    ``int(q * 100)`` on the binary double truncates 0.29·100 = 28.999… to
    28 and collides 0.56/0.57 (review r4). Any decimal works; labeling
    never rejects a quantile the statistic itself can compute (second
    review pass)."""
    from decimal import Decimal

    pct = (Decimal(str(q)) * 100).normalize()
    text = format(pct, "f")
    return f"p{text.replace('.', '_')}{suffix}"


def _hist_group_stats(sf_dir: str, names: list[str], group_stat):
    """Shared scaffolding for every histogram-walk statistic
    (:func:`grouped_quantiles`, :func:`grouped_quantiles_cont`,
    :func:`grouped_mad`): build the summed per-group value histogram once,
    then one shard call per group hash runs ``group_stat(vals, cnt, cum,
    n)`` with the value-sorted histogram arrays and emits the named int64
    stat columns."""
    from ..stages.exchange import sharded_groups

    hist = _event_value_hist(sf_dir)

    def per_shard(shard: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in shard.groupby("event_type", sort=False):
            g = g.sort_values("value_c")
            cnt = g["n"].to_numpy()
            vals = g["value_c"].to_numpy()
            cum = np.cumsum(cnt)
            rows.append([et, *group_stat(vals, cnt, cum, int(cum[-1]))])
        return pd.DataFrame(rows, columns=["event_type", *names]).astype(
            {c: np.int64 for c in names}
        )

    return sharded_groups(
        hist,
        ["event_type"],
        per_shard,
        num_shards=8,
    )


def grouped_quantiles(
    sf_dir: str, *, quantiles: tuple[float, ...] = (0.25, 0.5, 0.75, 0.95)
) -> "rd.Dataset":
    """Exact per-group quantiles WITHOUT a global sort: the value domain is
    bounded (2-decimal currency → ≤ ~56k distinct int64 cents), so each batch
    collapses to a (event_type, value_c) → n histogram partial, one groupby
    sums histograms, and the quantiles fall out of a cumulative-count walk
    over each group's (small) histogram — shuffles move histogram rows, never
    data rows. This is the standard scale shape for quantiles over
    low-cardinality domains; for unbounded domains a mergeable t-digest/KLL
    sketch would slot into the same partial/combine stages.

    Rank convention mirrors DuckDB's ``quantile_disc``: element at 1-indexed
    rank ``ceil(q·n)``. Output: ``(event_type, p25_c, p50_c, p75_c, p95_c)``
    in int64 cents (exact, hash-comparable)."""
    qs = list(quantiles)

    def stat(vals, cnt, cum, n):
        ranks = [max(1, int(np.ceil(q * n))) for q in qs]
        return [int(vals[np.searchsorted(cum, r)]) for r in ranks]

    return _hist_group_stats(sf_dir, [_q_name(q, "_c") for q in qs], stat)


def _event_value_hist(sf_dir: str) -> "rd.Dataset":
    """Summed (event_type, value_c) → n histogram, shared by the discrete
    and continuous grouped-quantile operators: per-batch histogram partials
    (each batch collapses before the shuffle), one combine over the
    exchange — histogram rows move, data rows never do."""
    from ..stages.exchange import sharded_groups

    ds = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )

    def hist_partial(batch: pa.Table) -> pa.Table:
        df = pa.table(
            {
                "event_type": batch.column("event_type"),
                "value_c": _cents(batch.column("value")),
            }
        ).to_pandas()
        g = (
            df.groupby(["event_type", "value_c"], sort=False)
            .size()
            .rename("n")
            .reset_index()
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    return sharded_groups(
        ds.map_batches(hist_partial, batch_format="pyarrow"),
        ["event_type", "value_c"],
        lambda s: s.groupby(["event_type", "value_c"], sort=False)
        .agg(n=("n", "sum"))
        .reset_index(),
    )


def grouped_quantiles_cont(
    sf_dir: str, *, quantiles: tuple[float, ...] = (0.25, 0.5, 0.75, 0.95)
) -> "rd.Dataset":
    """Interpolated (continuous) per-group percentiles — SQL
    ``quantile_cont`` / ``percentile_cont`` — from the SAME summed-histogram
    plane as :func:`grouped_quantiles` (shuffles move histogram rows, never
    data rows; no global sort).

    Position ``h = (n-1)·q`` between the 0-indexed order statistics
    ``v[⌊h⌋]`` and ``v[⌈h⌉]``. The interpolation is computed in EXACT
    integer arithmetic: each quantile is taken as its decimal fraction
    ``p/r`` (so 0.95 means 19/20, not the binary double), ``rem =
    ((n-1)·p) mod r``, and the result is emitted in int64 MILLI-cents
    ``v_lo·1000 + rem·(v_hi−v_lo)·(1000/r)`` — exact whenever ``r`` divides
    1000 (any 3-decimal quantile), which is validated. Integer output keeps
    the oracle comparison hash-exact with no float laundering, and at
    n ~ 10^12 rows the exact ``(n−1)·p mod r`` avoids the double-precision
    drift DuckDB's own ``(n-1)*q`` would show. Output:
    ``(event_type, p25_cont_mc, …)``."""
    from fractions import Fraction

    qs = [Fraction(str(q)) for q in quantiles]
    for q in qs:
        if 1000 % q.denominator:
            raise ValueError(
                f"quantile {q} needs a denominator dividing 1000 for exact "
                "milli-cent output"
            )

    def stat(vals, cnt, cum, n):
        out = []
        for q in qs:
            hp = (n - 1) * q.numerator
            r = q.denominator
            lo_i, rem = divmod(hp, r)
            lo = int(vals[np.searchsorted(cum, lo_i + 1)])
            if rem:
                hi = int(vals[np.searchsorted(cum, lo_i + 2)])
                mc = lo * 1000 + rem * (hi - lo) * (1000 // r)
            else:
                mc = lo * 1000
            out.append(mc)
        return out

    return _hist_group_stats(
        sf_dir, [_q_name(q, "_cont_mc") for q in quantiles], stat
    )


def grouped_mad(sf_dir: str) -> "rd.Dataset":
    """Robust per-group dispersion: median and Median Absolute Deviation
    (MAD = median of |v − median|) per event type, integer-exact in cents —
    the outlier-robust scale statistic (quality-filter thresholds like
    "keep docs within k·MAD of the median" beat mean/σ under heavy tails).

    Both statistics fall out of ONE summed histogram (:func:`_event_value_hist`
    — data rows never shuffle): the shard task walks each group's histogram
    for the median, then rebuilds the |v − med| histogram IN-SHARD (pure
    integer arithmetic on the same rows) and walks it again. ``quantile_disc``
    rank convention (element at rank ⌈n/2⌉) for both walks, matching the SQL
    oracle exactly. Output: ``(event_type, median_c, mad_c)``."""
    def stat(vals, cnt, cum, n):
        rank = max(1, int(np.ceil(0.5 * n)))
        med = int(vals[np.searchsorted(cum, rank)])
        # |v − med| histogram: same counts, folded values, re-sorted
        dev = np.abs(vals - med)
        order = np.argsort(dev, kind="stable")
        dcum = np.cumsum(cnt[order])
        return [med, int(dev[order][np.searchsorted(dcum, rank)])]

    return _hist_group_stats(sf_dir, ["median_c", "mad_c"], stat)


def mad_outlier_rows(sf_dir: str, *, k: int = 3) -> "rd.Dataset":
    """Row-level robust outlier filter (round 5): keep every event whose
    integer-cent value deviates from its type's median by MORE than
    ``k·MAD`` — the quality-filter application the :func:`grouped_mad`
    docstring promises ("keep docs within k·MAD of the median"), here
    emitting the rejects for inspection.

    Scale shape: the per-type (median, MAD) stats are a handful of rows
    (one per event type) computed on the histogram plane — the driver
    collects them and the row filter streams as ONE Arrow ``map_batches``
    with a C-speed hash lookup (pandas ``map``) per batch; the data rows
    themselves never shuffle. Rows with a NULL type or NULL value are
    excluded exactly like the SQL join+WHERE NULL propagation. Output:
    ``(event_id, event_type, value_c, dev_c)`` — all int64."""
    stats = grouped_mad(sf_dir).to_pandas()  # tiny: one row per type
    med = dict(zip(stats["event_type"], stats["median_c"]))
    mad = dict(zip(stats["event_type"], stats["mad_c"]))

    def flag(batch: pa.Table) -> pa.Table:
        et = pd.Series(batch.column("event_type").to_numpy(zero_copy_only=False))
        vc = _cents(batch.column("value"))
        if isinstance(vc, pa.ChunkedArray):
            vc = vc.combine_chunks()
        m = et.map(med).to_numpy(dtype=np.float64, na_value=np.nan)
        s = et.map(mad).to_numpy(dtype=np.float64, na_value=np.nan)
        v = vc.to_numpy(zero_copy_only=False).astype(np.float64)
        with np.errstate(invalid="ignore"):
            dev = np.abs(v - m)
            keep = dev > k * s  # NaN comparisons are False: NULLs drop
        keep &= ~np.isnan(v) & ~np.isnan(m)
        out = batch.filter(pa.array(keep))
        dev_k = dev[keep].astype(np.int64)
        return pa.table(
            {
                "event_id": out.column("event_id"),
                "event_type": out.column("event_type"),
                "value_c": _cents(out.column("value")),
                "dev_c": pa.array(dev_k, pa.int64()),
            }
        )

    ds = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "value"]
    )
    return ds.map_batches(flag, batch_format="pyarrow")


def funnel_depth(
    sf_dir: str,
    *,
    steps: tuple[str, ...] = ("view", "click", "purchase"),
    num_shards: int = 64,
) -> "rd.Dataset":
    """Ordered-funnel (conversion) analysis: for every user, how many of
    the ordered ``steps`` completed, where step *i+1* counts only with an
    occurrence STRICTLY after step *i*'s first qualifying occurrence —
    the classic product funnel, equally the agent-behavior sequence check
    (user → assistant → tool) on transcripts.

    Scale shape: users are hash-sharded (one user never splits), each
    shard runs ``len(steps)`` vectorized masked groupby-mins — no per-user
    Python, rows move once. ALL event rows ride the exchange on purpose:
    depth-0 users whose only events are non-funnel types must still appear
    in the output (filtering funnel types at the read would drop them).
    Output: ``(user_id, depth)`` for every user with ≥1 event of any kind
    (depth 0 = never entered)."""
    from ..stages.exchange import sharded_groups

    ds = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type", "ts"]
    )

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        users = g["user_id"].drop_duplicates().reset_index(drop=True)
        depth = pd.Series(np.zeros(len(users), np.int64), index=users)
        prev: pd.Series | None = None  # first qualifying ts per user
        for i, step in enumerate(steps):
            is_step = g["event_type"] == step
            if i == 0:
                mask = is_step
            else:
                bound = g["user_id"].map(prev)
                mask = is_step & bound.notna() & (g["ts"] > bound)
            cur = g.loc[mask].groupby("user_id", sort=False)["ts"].min()
            if cur.empty:
                break
            depth.loc[cur.index] = i + 1
            prev = cur
        return pd.DataFrame(
            {"user_id": users.to_numpy(), "depth": depth.to_numpy()}
        )

    # the funnel only needs rows of funnel types for the mins, but depth-0
    # users must still appear — keep all rows of each user's shard (the
    # shard groupby sees every user) and let the masks do the filtering
    return sharded_groups(
        ds,
        ["user_id"],
        per_shard,
        num_shards=num_shards,
    )


def cohort_retention(
    sf_dir: str, *, num_shards: int = 64
) -> "rd.Dataset":
    """Weekly cohort retention matrix: users are cohorted by the epoch-week
    of their FIRST ``signup`` event; for every ``(cohort_week,
    week_offset ≥ 0)`` cell, the number of DISTINCT cohort users with ANY
    event in that week — the classic retention triangle.

    Weeks are plain epoch arithmetic (``epoch_us // 604800e6``) so the
    Python and SQL sides share one definition (DuckDB's ISO
    ``date_trunc('week')`` would anchor to Monday; the epoch week anchors
    to the 1970-01-01 Thursday — either works as long as both sides
    agree).

    Scale shape: each batch first collapses MAP-SIDE to its distinct
    ``(user_id, week, is_signup)`` triples (Arrow ``group_by`` with an
    ``is_signup`` min — everything the cohort math needs, idempotent under
    re-dedup), so the user-hash exchange carries at most one row per
    (user, week, signup-flag) per block instead of every event (second
    review pass: the file's pre-aggregation contract). Each shard then
    computes its users' cohorts and distinct cells exactly — a user lives
    in one shard, so per-cell distinct-user partials sum exactly — and a
    tiny cell-hash exchange totals them. Events before the signup week
    (negative offset) are excluded like the SQL filter."""
    from ..stages.exchange import sharded_groups

    WEEK_US = np.int64(604_800_000_000)

    ds = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type", "ts"]
    )

    def week_partial(batch: pa.Table) -> pa.Table:
        # drop NULL-ts rows up front: a null week can neither define a
        # cohort nor count as activity (the SQL oracle excludes them by
        # NULL propagation), and casting nulls through numpy would either
        # raise or fabricate epoch-week 0
        batch = batch.filter(pc.is_valid(batch.column("ts")))
        ts = batch.column("ts")
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        week = pa.array(
            ts.cast(pa.int64()).to_numpy(zero_copy_only=False) // WEEK_US,
            pa.int64(),
        )
        sign = pc.cast(
            pc.equal(batch.column("event_type"), "signup"), pa.int8()
        ).fill_null(0)
        t = pa.table(
            {
                "user_id": batch.column("user_id"),
                "week": week,
                "is_signup": sign,
            }
        )
        return (
            t.group_by(["user_id", "week"])
            .aggregate([("is_signup", "max")])
            .rename_columns(["user_id", "week", "is_signup"])
        )

    triples = ds.map_batches(week_partial, batch_format="pyarrow")

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        sign = (
            g[np.asarray(g["is_signup"], dtype=np.int8) == 1]
            .groupby("user_id", sort=False)["week"]
            .min()
        )
        cohort = g["user_id"].map(sign)
        keep = cohort.notna().to_numpy()
        # week cannot be null here — week_partial filtered NULL-ts rows —
        # so no na_value substitution (0 would fabricate epoch week 0)
        week = g["week"].to_numpy(dtype=np.int64)
        cells = pd.DataFrame(
            {
                "cohort_w": cohort.to_numpy()[keep].astype(np.int64),
                "week_offset": week[keep]
                - cohort.to_numpy()[keep].astype(np.int64),
                "user_id": g["user_id"].to_numpy()[keep],
            }
        )
        cells = cells[cells["week_offset"] >= 0].drop_duplicates()
        out = (
            cells.groupby(["cohort_w", "week_offset"], sort=False)
            .agg(n_users=("user_id", "size"))
            .reset_index()
        )
        return out.astype(
            {
                "cohort_w": np.int64,
                "week_offset": np.int64,
                "n_users": np.int64,
            }
        )

    partials = sharded_groups(
        triples,
        ["user_id"],
        per_shard,
        num_shards=num_shards,
    )
    return _sum_partials(
        partials, ["cohort_w", "week_offset"], ["n_users"],
        num_shards=num_shards,
    )

def pivot_counts(
    ds: "rd.Dataset",
    *,
    row_key: str,
    col_key: str,
    values: list[str],
) -> "rd.Dataset":
    """Pivot a long table into a wide per-``row_key`` count matrix: one
    int64 column per entry of ``values`` (the distinct ``col_key`` values —
    pass them explicitly; discovering them is a tiny ``groupby`` the caller
    can run first). Each batch collapses to a partial wide matrix (pandas
    crosstab), then one groupby sums the partials — only wide partial rows
    shuffle, bounded by |row keys per block| × |values|."""

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select([row_key, col_key]).to_pandas()
        wide = pd.crosstab(df[row_key], df[col_key])
        wide = wide.reindex(columns=values, fill_value=0).astype(np.int64)
        wide.columns = list(values)
        return pa.Table.from_pandas(
            wide.reset_index(), preserve_index=False
        ).replace_schema_metadata(None)

    from ..stages.exchange import sharded_groups

    return sharded_groups(
        ds.map_batches(partial, batch_format="pyarrow"),
        [row_key],
        lambda s: s.groupby(row_key, sort=False)
        .agg({v: "sum" for v in values})
        .reset_index(),
    )


def unpivot(
    ds: "rd.Dataset",
    *,
    id_cols: list[str],
    value_cols: list[str],
    var_name: str = "variable",
    value_name: str = "value",
) -> "rd.Dataset":
    """Unpivot (melt) a wide table back to long ``(id_cols…, variable,
    value)`` rows — the inverse of :func:`pivot_counts`. Purely per-batch
    (one vectorized ``pd.melt`` per block, rows multiply by
    ``len(value_cols)``), no shuffle at any point. SQL mirror: ``UNPIVOT``
    / a ``UNION ALL`` over the value columns."""

    def stage(batch: pa.Table) -> pa.Table:
        df = batch.select([*id_cols, *value_cols]).to_pandas()
        long = pd.melt(
            df,
            id_vars=id_cols,
            value_vars=value_cols,
            var_name=var_name,
            value_name=value_name,
        )
        return pa.Table.from_pandas(long, preserve_index=False).replace_schema_metadata(
            None
        )

    return ds.map_batches(stage, batch_format="pyarrow")


def lineitem_filter_stats(sf_dir: str, *, returnflag: str = "R") -> pa.Table:
    """Filter+project with pushdown: row-group filter at the read, partial
    sums per batch, single-row result."""
    ds = read_parquet_clean(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity"],
        filter=pc.field("l_returnflag") == returnflag,
    )

    def partial(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "n": pa.array([batch.num_rows], pa.int64()),
                "sum_qty": pa.array(
                    [pc.sum(pc.cast(batch.column("l_quantity"), pa.int64())).as_py() or 0],
                    pa.int64(),
                ),
            }
        )

    row = ds.map_batches(partial, batch_format="pyarrow").aggregate(
        Sum("n", alias_name="n"), Sum("sum_qty", alias_name="sum_qty")
    )
    return pa.table({"n": [row["n"]], "sum_qty": [row["sum_qty"]]})


def table_profile(
    sf_dir: str,
    *,
    table: str = "events",
    columns: tuple = (
        ("user_id", "int"),
        ("event_type", "str"),
        ("value", "cents"),
    ),
    num_shards: int = 64,
) -> pa.Table:
    """Per-column data-quality profile (round 5): for each requested column
    emit ``(col, n_rows, n_null, n_distinct, min_s, max_s)`` — the
    first-look audit every ingest of an unknown 100-TB table starts with.

    Scale shape: ONE pruned scan feeds two planes. (1) ``n/n_null/min/max``
    are per-block scalar partials (one row per column per block — the
    driver combines O(blocks × cols) scalars, never data rows). (2) exact
    ``n_distinct`` for ALL columns rides a SINGLE exchange: each block
    unpivots to its DISTINCT ``(col, val)`` pairs (map-side combine), pairs
    hash-shard on the composite key so one value lives in exactly one
    shard, per-shard distinct counts sum exactly. Kinds: ``int`` profiles
    the int64 domain, ``cents`` the exact ×100 integer domain, ``str`` the
    bytewise string domain — min/max render as canonical VARCHAR exactly
    like the SQL oracle's CAST."""
    from ..stages.exchange import sharded_groups

    names = [c for c, _ in columns]
    kinds = dict(columns)
    ds = read_parquet_clean(f"{sf_dir}/{table}.parquet", columns=names)

    def _typed(batch: pa.Table, c: str):
        col = batch.column(c)
        k = kinds[c]
        if k == "cents":
            return _cents(col)
        if k == "int":
            return pc.cast(col, pa.int64())
        return col

    def scalar_partial(batch: pa.Table) -> pa.Table:
        rows = {k: [] for k in (
            "col", "n", "n_null", "min_i", "max_i", "min_t", "max_t")}
        for c in names:
            raw = batch.column(c)
            v = _typed(batch, c)
            mm = pc.min_max(v)
            rows["col"].append(c)
            rows["n"].append(batch.num_rows)
            rows["n_null"].append(raw.null_count)
            if kinds[c] == "str":
                rows["min_i"].append(None)
                rows["max_i"].append(None)
                rows["min_t"].append(mm["min"].as_py())
                rows["max_t"].append(mm["max"].as_py())
            else:
                rows["min_i"].append(mm["min"].as_py())
                rows["max_i"].append(mm["max"].as_py())
                rows["min_t"].append(None)
                rows["max_t"].append(None)
        return pa.table(
            {
                "col": pa.array(rows["col"], pa.string()),
                "n": pa.array(rows["n"], pa.int64()),
                "n_null": pa.array(rows["n_null"], pa.int64()),
                "min_i": pa.array(rows["min_i"], pa.int64()),
                "max_i": pa.array(rows["max_i"], pa.int64()),
                "min_t": pa.array(rows["min_t"], pa.string()),
                "max_t": pa.array(rows["max_t"], pa.string()),
            }
        )

    def distinct_partial(batch: pa.Table) -> pa.Table:
        col_arr, val_arr = [], []
        for c in names:
            s = pc.cast(_typed(batch, c), pa.string())
            if isinstance(s, pa.ChunkedArray):
                s = s.combine_chunks()
            u = pc.unique(s.drop_null())
            col_arr.append(pa.array([c] * len(u), pa.string()))
            val_arr.append(u)
        return pa.table(
            {
                "col": pa.concat_arrays(col_arr),
                "val": pa.concat_arrays(
                    [a.cast(pa.string()) for a in val_arr]
                ),
            }
        )

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        return (
            g.drop_duplicates(["col", "val"])
            .groupby("col", sort=False)
            .size()
            .rename("nd")
            .reset_index()
        )

    nd_partials = sharded_groups(
        ds.map_batches(distinct_partial, batch_format="pyarrow"),
        ["col", "val"],
        per_shard,
        num_shards=num_shards,
    )
    nd = _sum_partials(nd_partials, ["col"], ["nd"], num_shards=8).to_pandas()
    ndmap = dict(zip(nd["col"], nd["nd"]))

    # tiny: one dict per column per block (take_all keeps int64 exact —
    # a pandas round-trip would float null-bearing min_i/max_i)
    parts = ds.map_batches(scalar_partial, batch_format="pyarrow").take_all()
    out = {k: [] for k in (
        "col", "n_rows", "n_null", "n_distinct", "min_s", "max_s")}
    for c in names:
        rs = [r for r in parts if r["col"] == c]
        out["col"].append(c)
        out["n_rows"].append(sum(r["n"] for r in rs))
        out["n_null"].append(sum(r["n_null"] for r in rs))
        out["n_distinct"].append(int(ndmap.get(c, 0)))
        key = "min_t" if kinds[c] == "str" else "min_i"
        mins = [r[key] for r in rs if r[key] is not None]
        maxs = [r[key.replace("min", "max")] for r in rs
                if r[key.replace("min", "max")] is not None]
        to_s = (lambda v: v) if kinds[c] == "str" else (lambda v: str(int(v)))
        out["min_s"].append(to_s(min(mins)) if mins else None)
        out["max_s"].append(to_s(max(maxs)) if maxs else None)
    return pa.table(
        {
            "col": pa.array(out["col"], pa.string()),
            "n_rows": pa.array(out["n_rows"], pa.int64()),
            "n_null": pa.array(out["n_null"], pa.int64()),
            "n_distinct": pa.array(out["n_distinct"], pa.int64()),
            "min_s": pa.array(out["min_s"], pa.string()),
            "max_s": pa.array(out["max_s"], pa.string()),
        }
    )


def hourly_gapfill(sf_dir: str, *, num_shards: int = 64) -> "rd.Dataset":
    """Dense zero-filled hourly time series (round 5): event counts per
    ``(event_type, epoch_hour)`` over the FULL observed hour range — hours
    with no events appear with ``n = 0`` (the resample/gap-fill step every
    time-series model input needs; plain groupby silently drops them).

    Scale shape: the raw scan collapses map-side (per-block Arrow
    ``group_by`` to (type, hour) partials) and ONE tiny exchange sums them
    — the observed-counts result is bounded by the output grid
    (types × hours: years of hourly data ≈ 10^5 rows per type), so it is
    collected, packed into a dense int64 matrix, broadcast once via
    ``ray.put``, and the dense grid streams out of ``rd.range`` with a
    vectorized gather per batch. Epoch hours are non-negative by data
    contract (``//`` truncation == floor)."""
    US_H = 3_600_000_000
    ds = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        h = pc.divide(pc.cast(batch.column("ts"), pa.int64()), US_H)
        t = pa.table({"event_type": batch.column("event_type"), "h": h})
        g = t.group_by(["event_type", "h"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "event_type": g.column("event_type"),
                "h": g.column("h"),
                "n": pc.cast(g.column("count_all"), pa.int64()),
            }
        )

    counts = _sum_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["event_type", "h"],
        ["n"],
        num_shards=num_shards,
    ).to_pandas()  # bounded by the output grid

    empty = pa.table(
        {
            "event_type": pa.array([], pa.string()),
            "hour_e": pa.array([], pa.int64()),
            "n": pa.array([], pa.int64()),
        }
    )
    if counts.empty:
        return rd.from_arrow(empty)

    lo, hi = int(counts["h"].min()), int(counts["h"].max())
    n_hours = hi - lo + 1
    types = sorted(counts["event_type"].unique())
    tidx = {t: i for i, t in enumerate(types)}
    mat = np.zeros((len(types), n_hours), dtype=np.int64)
    mat[
        counts["event_type"].map(tidx).to_numpy(dtype=np.int64),
        counts["h"].to_numpy(dtype=np.int64) - lo,
    ] = counts["n"].to_numpy(dtype=np.int64)
    mref = ray.put(mat)
    types_arr = np.array(types, dtype=object)

    def fill(batch: pa.Table) -> pa.Table:
        ids = batch.column("id").to_numpy()
        m = ray.get(mref)
        ti, hh = ids // n_hours, ids % n_hours
        return pa.table(
            {
                "event_type": pa.array(types_arr[ti], pa.string()),
                "hour_e": pa.array(lo + hh, pa.int64()),
                "n": pa.array(m[ti, hh], pa.int64()),
            }
        )

    return rd.range(len(types) * n_hours).map_batches(
        fill, batch_format="pyarrow"
    )


def grouped_corr(sf_dir: str) -> pa.Table:
    """Per-group Pearson correlation from EXACT integer sufficient
    statistics (round 5): corr(quantity units, discount cents) per
    ``l_returnflag``. Each block emits one partial row per group with the
    six exact int64 sums ``(n, Σx, Σy, Σx², Σy², Σxy)`` — the driver
    combines O(groups × blocks) scalar rows in arbitrary-precision Python
    ints (never data rows), then evaluates the correlation in double with
    the IDENTICAL operation sequence the SQL oracle uses
    (``(nΣxy−ΣxΣy)/√(nΣx²−(Σx)²)/√(nΣy²−(Σy)²)``), floored at 4 decimals
    — bit-exact both sides because the inputs to the float expression are
    exact integers. Zero-variance groups yield NULL like SQL."""
    import math

    ds = read_parquet_clean(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_discount"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        x = pc.cast(pc.round(batch.column("l_quantity")), pa.int64())
        y = _cents(batch.column("l_discount"))
        t = pa.table(
            {
                "l_returnflag": batch.column("l_returnflag"),
                "x": x,
                "y": y,
                "xx": pc.multiply(x, x),
                "yy": pc.multiply(y, y),
                "xy": pc.multiply(x, y),
            }
        )
        g = t.group_by(["l_returnflag"]).aggregate(
            [("x", "sum"), ("y", "sum"), ("xx", "sum"), ("yy", "sum"),
             ("xy", "sum"), ([], "count_all")]
        )
        return pa.table(
            {
                "l_returnflag": g.column("l_returnflag"),
                "n": pc.cast(g.column("count_all"), pa.int64()),
                "sx": g.column("x_sum"),
                "sy": g.column("y_sum"),
                "sxx": g.column("xx_sum"),
                "syy": g.column("yy_sum"),
                "sxy": g.column("xy_sum"),
            }
        )

    acc: dict = {}
    for r in ds.map_batches(partial, batch_format="pyarrow").take_all():
        a = acc.setdefault(r["l_returnflag"], [0, 0, 0, 0, 0, 0])
        for i, k in enumerate(("n", "sx", "sy", "sxx", "syy", "sxy")):
            a[i] += int(r[k])

    flags, ns, corrs = [], [], []
    for flag in sorted(acc):
        n, sx, sy, sxx, syy, sxy = acc[flag]
        d1, d2 = n * sxx - sx * sx, n * syy - sy * sy
        flags.append(flag)
        ns.append(n)
        if d1 > 0 and d2 > 0:
            r = float(n * sxy - sx * sy) / math.sqrt(float(d1)) / math.sqrt(
                float(d2)
            )
            corrs.append(math.floor(r * 10000))
        else:
            corrs.append(None)
    return pa.table(
        {
            "l_returnflag": pa.array(flags, pa.string()),
            "n": pa.array(ns, pa.int64()),
            "corr4": pa.array(corrs, pa.int64()),
        }
    )


def minmax_normalize(sf_dir: str) -> "rd.Dataset":
    """Per-group min-max feature scaling (round 5): each event's value
    rescaled to [0, 1] within its type, emitted as EXACT integer
    basis-points ``norm4 = ((c − min)·10000) // (max − min)`` — no float
    touches the data path, so the result is bit-identical to the SQL
    mirror by construction (integer floor division both sides; the
    numerator is non-negative so // truncation == floor).

    Scale shape: per-type (min, max) are per-block Arrow ``group_by``
    partials — the driver combines O(groups × blocks) scalar rows — then
    the rows stream through ONE vectorized Arrow map with a code-indexed
    int64 gather; data rows never shuffle. Degenerate groups (max == min)
    yield NULL like SQL; NULL type/value rows drop like the SQL
    join+WHERE propagation."""
    ds = read_parquet_clean(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "event_type", "value"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "event_type": batch.column("event_type"),
                "c": _cents(batch.column("value")),
            }
        )
        g = t.group_by(["event_type"]).aggregate([("c", "min"), ("c", "max")])
        return pa.table(
            {
                "event_type": g.column("event_type"),
                "mn": g.column("c_min"),
                "mx": g.column("c_max"),
            }
        )

    stats: dict = {}
    for r in ds.map_batches(partial, batch_format="pyarrow").take_all():
        if r["event_type"] is None or r["mn"] is None:
            continue
        mn, mx = stats.get(r["event_type"], (r["mn"], r["mx"]))
        stats[r["event_type"]] = (min(mn, r["mn"]), max(mx, r["mx"]))
    types = sorted(stats)
    code = {t: i for i, t in enumerate(types)}
    mn_arr = np.array([stats[t][0] for t in types], dtype=np.int64)
    mx_arr = np.array([stats[t][1] for t in types], dtype=np.int64)

    def scale(batch: pa.Table) -> pa.Table:
        et = pd.Series(
            batch.column("event_type").to_numpy(zero_copy_only=False)
        )
        ci = et.map(code).to_numpy(dtype=np.float64, na_value=np.nan)
        vc = _cents(batch.column("value"))
        if isinstance(vc, pa.ChunkedArray):
            vc = vc.combine_chunks()
        v = vc.to_numpy(zero_copy_only=False).astype(np.float64)
        keep = ~np.isnan(ci) & ~np.isnan(v)
        out = batch.filter(pa.array(keep))
        idx = ci[keep].astype(np.int64)
        cv = v[keep].astype(np.int64)
        mn, mx = mn_arr[idx], mx_arr[idx]
        d = mx - mn
        norm = (cv - mn) * 10000 // np.maximum(d, 1)
        return pa.table(
            {
                "event_id": out.column("event_id"),
                "event_type": out.column("event_type"),
                "value_c": pa.array(cv, pa.int64()),
                # degenerate groups (max == min) are NULL like SQL
                "norm4": pa.array(norm, pa.int64(), mask=d <= 0),
            }
        )

    return ds.map_batches(scale, batch_format="pyarrow")


def active_users_sliding(
    sf_dir: str, *, window_days: int = 7, num_shards: int = 64
) -> "rd.Dataset":
    """Trailing-window distinct active users (the WAU/MAU family): for
    every day with at least one event, the number of DISTINCT users with
    any event in the trailing ``window_days`` days (inclusive of the day
    itself). Days are plain epoch arithmetic (``epoch_us // 86400e6``),
    shared verbatim with the SQL oracle like :func:`cohort_retention`.

    A sliding DISTINCT cannot be rolled up from per-day distinct counts
    (users repeat across days), which is what makes it expensive at scale.
    Scale shape: each batch first collapses MAP-SIDE to its distinct
    ``(user_id, day)`` pairs (Arrow ``group_by``) so the ONE user-hash
    exchange carries activity pairs, not events; each shard then expands
    its pairs by the ``window_days`` trailing offsets (numpy repeat/tile,
    no Python loop) and counts its users' distinct ``(window_day, user)``
    pairs exactly — a user lives in exactly one shard, so per-day
    distinct-user partials sum exactly; a tiny day-hash exchange totals
    them. Offset-0 rows mark days with real activity; window days that no
    event landed on are dropped at the combine, mirroring the oracle's
    active-day domain.

    Output: ``(day, n_users)`` for every active day."""
    from ..stages.exchange import sharded_groups

    DAY_US = np.int64(86_400_000_000)
    W = int(window_days)
    if W <= 0:
        raise ValueError("window_days must be positive")

    ds = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )

    def day_partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.and_(
                pc.is_valid(batch.column("ts")),
                pc.is_valid(batch.column("user_id")),
            )
        )
        ts = batch.column("ts")
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        day = pa.array(
            ts.cast(pa.int64()).to_numpy(zero_copy_only=False) // DAY_US,
            pa.int64(),
        )
        t = pa.table({"user_id": batch.column("user_id"), "day": day})
        return t.group_by(["user_id", "day"]).aggregate([])

    pairs = ds.map_batches(day_partial, batch_format="pyarrow")

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates()
        n = len(g)
        u = g["user_id"].to_numpy(dtype=np.int64)
        d = g["day"].to_numpy(dtype=np.int64)
        offs = np.tile(np.arange(W, dtype=np.int64), n)
        exp = pd.DataFrame(
            {
                "day": np.repeat(d, W) + offs,
                "user_id": np.repeat(u, W),
                "on_day": (offs == 0).astype(np.int64),
            }
        )
        cells = (
            exp.groupby(["day", "user_id"], sort=False)["on_day"]
            .max()
            .reset_index()
        )
        out = (
            cells.groupby("day", sort=False)
            .agg(n_users=("user_id", "size"), active=("on_day", "max"))
            .reset_index()
        )
        return out.astype(
            {"day": np.int64, "n_users": np.int64, "active": np.int64}
        )

    partials = sharded_groups(
        pairs,
        ["user_id"],
        per_shard,
        num_shards=num_shards,
    )

    def combine(s: pd.DataFrame) -> pd.DataFrame:
        out = (
            s.groupby("day", sort=False)
            .agg(n_users=("n_users", "sum"), active=("active", "max"))
            .reset_index()
        )
        out = out[out["active"] == 1].drop(columns=["active"])
        return out.astype({"day": np.int64, "n_users": np.int64})

    return sharded_groups(
        partials,
        ["day"],
        combine,
        num_shards=num_shards,
    )


def user_diversity(sf_dir: str, *, num_shards: int = 64) -> "rd.Dataset":
    """Per-user behavioral diversity: the Gini–Simpson index of each
    user's event-type distribution, ``1 − Σ pᵢ²`` (0 = every event the
    same type, →1 = evenly spread) — the corpus-quality analog of
    per-document repetition, over users instead of documents.

    Chosen over Shannon entropy deliberately: the index is computable
    from EXACT integer aggregates (Σc, Σc²) with a single float divide
    and subtract at the end — IEEE-correctly-rounded ops the SQL engine
    performs identically, so the oracle comparison is bit-exact with no
    flooring. Entropy would need per-term ``log2`` whose last-ulp
    rounding differs across libm implementations.

    Scale shape: per-batch Arrow collapse to ``(user, event_type)``
    counts, ONE user-hash exchange; each shard finishes its users exactly
    (a user lives in one shard). Output: ``(user_id, n_events, n_types,
    simpson)``."""
    from ..stages.exchange import sharded_groups

    ds = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.and_(
                pc.is_valid(batch.column("user_id")),
                pc.is_valid(batch.column("event_type")),
            )
        )
        t = pa.table(
            {
                "user_id": batch.column("user_id"),
                "event_type": batch.column("event_type"),
                "n": pa.array(np.ones(len(batch), dtype=np.int64)),
            }
        )
        return (
            t.group_by(["user_id", "event_type"])
            .aggregate([("n", "sum")])
            .rename_columns(["user_id", "event_type", "n"])
        )

    counts = ds.map_batches(partial, batch_format="pyarrow")

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        c = (
            g.groupby(["user_id", "event_type"], sort=False)["n"]
            .sum()
            .reset_index()
        )
        cn = c["n"].to_numpy(dtype=np.int64)
        c["sq"] = cn * cn
        out = (
            c.groupby("user_id", sort=False)
            .agg(
                n_events=("n", "sum"),
                n_types=("event_type", "size"),
                ssq=("sq", "sum"),
            )
            .reset_index()
        )
        n = out["n_events"].to_numpy(dtype=np.int64)
        ssq = out["ssq"].to_numpy(dtype=np.int64)
        # n² must fit int64 (n < 2^31.5 ≈ 3.03e9 events per user) — numpy
        # would wrap SILENTLY where the SQL oracle's BIGINT multiply
        # errors; fail loudly at the same bound instead
        if len(n) and int(n.max()) > 3_037_000_499:
            raise OverflowError(
                "user_diversity: a user exceeds 3.03e9 events; n*n would "
                "overflow int64 (use a wider accumulator)"
            )
        # the ONLY float ops, in the same order the SQL oracle performs
        # them: 1.0 - (double(ssq) / double(n*n))
        simpson = 1.0 - ssq.astype(np.float64) / (n * n).astype(np.float64)
        return pd.DataFrame(
            {
                "user_id": out["user_id"].to_numpy(dtype=np.int64),
                "n_events": n,
                "n_types": out["n_types"].to_numpy(dtype=np.int64),
                "simpson": simpson,
            }
        )

    return sharded_groups(
        counts,
        ["user_id"],
        per_shard,
        num_shards=num_shards,
    )


def key_skew_profile(
    sf_dir: str,
    *,
    table: str = "orders",
    col: str = "o_custkey",
    k: int = 20,
    num_shards: int = 64,
) -> pa.Table:
    """Shuffle-planning skew audit: the top-``k`` hottest values of a key
    column with exact counts and share-of-total in basis points — the
    measurement you run BEFORE choosing a partitioning key or deciding
    which keys to salt (`stages/join.py` hot-key salting needs exactly
    this list). Integer shares (``n·10000 // total``) keep the oracle
    comparison exact.

    Scale shape: per-batch Arrow ``value_counts`` partials, ONE key-hash
    exchange with a per-shard LOCAL top-k (a key lives in one shard, so
    every global top-k key survives its shard's top-k); the driver merges
    ≤ k·shards survivor rows plus per-shard totals — never the key
    domain. Ties break deterministically by (count desc, key asc) on both
    sides."""
    from ..stages.exchange import sharded_groups

    ds = read_parquet_clean(f"{sf_dir}/{table}.parquet", columns=[col])

    def partial(batch: pa.Table) -> pa.Table:
        vc = pc.value_counts(batch.column(col).drop_null())
        if isinstance(vc, pa.ChunkedArray):
            vc = vc.combine_chunks()
        return pa.table(
            {
                col: vc.field("values"),
                "n": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    def shard_topk(s: pd.DataFrame) -> pd.DataFrame:
        g = s.groupby(col, sort=False)["n"].sum().reset_index()
        shard_total = np.int64(g["n"].sum())
        top = g.sort_values(
            ["n", col], ascending=[False, True], kind="mergesort"
        ).head(k)
        # key column keeps its native dtype (int, string, …) — the audit
        # is generic over any key column (review finding: an int64 cast
        # crashed on string keys)
        top = top.astype({"n": np.int64})
        # carry the shard's total on its FIRST survivor row only (0 on the
        # rest): two shards may legitimately share the same total value, so
        # a distinct-totals sum driver-side would under-count
        totals = np.zeros(len(top), dtype=np.int64)
        if len(totals):
            totals[0] = shard_total
        top["shard_total"] = totals
        return top

    survivors = sharded_groups(
        ds.map_batches(partial, batch_format="pyarrow"),
        [col],
        shard_topk,
        num_shards=num_shards,
    ).to_pandas()

    # each shard put its total on exactly one survivor row (0 elsewhere),
    # so the global total is a plain sum; empty shards contribute 0
    total = np.int64(survivors["shard_total"].sum())
    top = survivors.sort_values(
        ["n", col], ascending=[False, True], kind="mergesort"
    ).head(k)
    n = top["n"].to_numpy(dtype=np.int64)
    out = pd.DataFrame(
        {
            col: top[col].to_numpy(),
            "n": n,
            "share_bp": n * 10000 // max(total, 1),
        }
    )
    return pa.Table.from_pandas(
        out.reset_index(drop=True), preserve_index=False
    ).replace_schema_metadata(None)


def ohlc_bars(sf_dir: str, *, num_shards: int = 64) -> "rd.Dataset":
    """Time-series downsampling bars: per ``(event_type, hour)``, the
    open / high / low / close of ``value`` (exact int64 cents) plus the
    event count — the classic OHLC resample every metrics store performs,
    and the repo's demonstration of an ORDER-SENSITIVE mergeable partial
    (first/last need their (ts, event_id) order keys carried through the
    merge, unlike plain min/max/sum).

    Scale shape: each block collapses to one partial row per (type, hour)
    it contains — open/close WITH their order keys, lo/hi/n — so the ONE
    group-hash exchange carries O(groups × blocks) partial rows, never
    events; per-shard combine re-applies the same first/last-by-key merge
    (associative because (ts, event_id) is a total order). NULL ts/value
    rows drop like the SQL oracle's WHERE.

    Output: ``(event_type, hour, open_c, high_c, low_c, close_c, n)``."""
    from ..stages.exchange import sharded_groups

    ds = read_parquet_clean(
        f"{sf_dir}/events.parquet",
        columns=["event_type", "ts", "value", "event_id"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.and_(
                pc.and_(
                    pc.is_valid(batch.column("ts")),
                    pc.is_valid(batch.column("value")),
                ),
                pc.is_valid(batch.column("event_type")),
            )
        )
        ts = batch.column("ts")
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        ts_us = ts.cast(pa.int64()).to_numpy(zero_copy_only=False)
        df = pd.DataFrame(
            {
                "event_type": batch.column("event_type").to_pandas(),
                "hour": ts_us - ts_us % 3_600_000_000,
                "c": _cents(batch.column("value")).to_numpy(
                    zero_copy_only=False
                ),
                "o_ts": ts_us,
                "o_id": batch.column("event_id").to_numpy(
                    zero_copy_only=False
                ),
            }
        )
        df = df.sort_values(
            ["event_type", "hour", "o_ts", "o_id"], kind="mergesort"
        )
        gb = df.groupby(["event_type", "hour"], sort=False)
        first = gb.head(1).rename(
            columns={"c": "open_c", "o_ts": "open_ts", "o_id": "open_id"}
        )
        last = gb.tail(1).rename(
            columns={"c": "close_c", "o_ts": "close_ts", "o_id": "close_id"}
        )
        stats = gb["c"].agg(["min", "max", "size"]).reset_index()
        stats.columns = ["event_type", "hour", "low_c", "high_c", "n"]
        out = stats.merge(first, on=["event_type", "hour"]).merge(
            last, on=["event_type", "hour"]
        )
        return pa.Table.from_pandas(
            out, preserve_index=False
        ).replace_schema_metadata(None)

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        fa = g.sort_values(
            ["event_type", "hour", "open_ts", "open_id"], kind="mergesort"
        )
        first = (
            fa.groupby(["event_type", "hour"], sort=False)
            .head(1)[["event_type", "hour", "open_c"]]
        )
        la = g.sort_values(
            ["event_type", "hour", "close_ts", "close_id"], kind="mergesort"
        )
        last = (
            la.groupby(["event_type", "hour"], sort=False)
            .tail(1)[["event_type", "hour", "close_c"]]
        )
        stats = (
            g.groupby(["event_type", "hour"], sort=False)
            .agg(low_c=("low_c", "min"), high_c=("high_c", "max"), n=("n", "sum"))
            .reset_index()
        )
        out = stats.merge(first, on=["event_type", "hour"]).merge(
            last, on=["event_type", "hour"]
        )
        out = out[
            ["event_type", "hour", "open_c", "high_c", "low_c", "close_c", "n"]
        ]
        return out.astype(
            {
                "hour": np.int64,
                "open_c": np.int64,
                "high_c": np.int64,
                "low_c": np.int64,
                "close_c": np.int64,
                "n": np.int64,
            }
        )

    def cast_hour(batch: pa.Table) -> pa.Table:
        i = batch.schema.get_field_index("hour")
        return batch.set_column(
            i, "hour", pc.cast(batch.column("hour"), pa.timestamp("us"))
        )

    return sharded_groups(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["event_type", "hour"],
        per_shard,
        num_shards=num_shards,
    ).map_batches(cast_hour, batch_format="pyarrow")


def winsorize(
    sf_dir: str, *, q_lo: float = 0.1, q_hi: float = 0.9
) -> "rd.Dataset":
    """Per-group percentile clamping (winsorization): every value is
    clamped into its event type's ``[p(q_lo), p(q_hi)]`` band — the
    standard tail-taming transform before feature scaling or training,
    robust where min-max normalization (:func:`minmax_normalize`) lets a
    single outlier set the range.

    The band edges come from the SAME summed-histogram plane as
    :func:`grouped_quantiles` (``quantile_disc`` rank convention, exact
    int64 cents — data rows never shuffle to compute them); the per-group
    ``(lo, hi)`` table is tiny and broadcast once via ``ray.put``, and the
    clamp itself is one vectorized pass per batch. Rows with NULL value or
    type drop like the SQL oracle's join/WHERE. Output: ``(event_id,
    event_type, value_c, wins_c)`` — all exact int64, no float anywhere."""

    def stat(vals, cnt, cum, n):
        out = []
        for q in (q_lo, q_hi):
            rank = max(1, int(np.ceil(q * n)))
            out.append(int(vals[np.searchsorted(cum, rank)]))
        return out

    bands = _hist_group_stats(sf_dir, ["lo_c", "hi_c"], stat).to_pandas()
    band_ref = ray.put(
        {
            et: (np.int64(lo), np.int64(hi))
            for et, lo, hi in zip(
                bands["event_type"], bands["lo_c"], bands["hi_c"]
            )
        }
    )

    ds = read_parquet_clean(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "event_type", "value"],
    )

    def clamp(batch: pa.Table) -> pa.Table:
        lut = ray.get(band_ref)
        batch = batch.filter(
            pc.and_(
                pc.is_valid(batch.column("value")),
                pc.is_valid(batch.column("event_type")),
            )
        )
        # dictionary-encode the type column once, gather band edges by code
        # (no per-row Python): the type domain is tiny, the batch is not
        codes_arr = pc.dictionary_encode(
            batch.column("event_type").combine_chunks()
        )
        uniq = codes_arr.dictionary.to_pylist()
        codes = codes_arr.indices.to_numpy(zero_copy_only=False)
        lo_by_code = np.array([lut[t][0] for t in uniq], dtype=np.int64)
        hi_by_code = np.array([lut[t][1] for t in uniq], dtype=np.int64)
        lo = lo_by_code[codes]
        hi = hi_by_code[codes]
        c = _cents(batch.column("value")).to_numpy(zero_copy_only=False)
        wins = np.minimum(np.maximum(c, lo), hi)
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "event_type": batch.column("event_type"),
                "value_c": pa.array(c, pa.int64()),
                "wins_c": pa.array(wins, pa.int64()),
            }
        )

    return ds.map_batches(clamp, batch_format="pyarrow")


def zscore_normalize(sf_dir: str) -> "rd.Dataset":
    """Per-group z-score standardization (population σ), completing the
    scaler family (:func:`minmax_normalize` range-scales,
    :func:`winsorize` tail-clamps, this one centers): ``z4 =
    floor((c − mean)/σ · 10000)`` per event type.

    Exactness: the sufficient statistics (n, Σc, Σc²) are EXACT integer
    per-block partials combined driver-side in arbitrary-precision Python
    ints; all three convert to float64 exactly (each < 2⁵³ at any
    plausible test scale — Σc² ≈ n·10¹⁰), and the float expression —
    mean = s/n, var = ssq/n − mean², z = (c − mean)/√var·10⁴ — is the
    IDENTICAL correctly-rounded op sequence the SQL mirror executes, so
    the floored result is bit-exact with no tolerance. Constant groups
    hit var == 0 EXACTLY (integer c ⇒ s/n and ssq/n round to the exact
    integer quotients) and yield NULL like SQL.

    Scale shape: per-block Arrow ``group_by`` partials (driver combines
    O(groups × blocks) scalar rows), broadcast (mean, σ) arrays, one
    vectorized code-indexed map — data rows never shuffle."""
    ds = read_parquet_clean(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "event_type", "value"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        # drop null value/type rows BEFORE counting: Arrow's sum skips
        # nulls but a ones-sum would still count the row in n, silently
        # shifting mean/var off the oracle's join+WHERE domain (review
        # finding: a block mixing null and non-null values of one type
        # diverged on every row)
        batch = batch.filter(
            pc.and_(
                pc.is_valid(batch.column("value")),
                pc.is_valid(batch.column("event_type")),
            )
        )
        c = _cents(batch.column("value"))
        t = pa.table(
            {
                "event_type": batch.column("event_type"),
                "c": c,
                "sq": pc.multiply(c, c),
                "one": pa.array(np.ones(len(batch), dtype=np.int64)),
            }
        )
        g = t.group_by(["event_type"]).aggregate(
            [("one", "sum"), ("c", "sum"), ("sq", "sum")]
        )
        return g.rename_columns(["event_type", "n", "s", "ssq"])

    stats: dict = {}
    for r in ds.map_batches(partial, batch_format="pyarrow").take_all():
        if r["event_type"] is None or r["s"] is None:
            continue
        n0, s0, q0 = stats.get(r["event_type"], (0, 0, 0))
        # python ints: the combine itself never overflows or rounds
        stats[r["event_type"]] = (
            n0 + int(r["n"]), s0 + int(r["s"]), q0 + int(r["ssq"])
        )
    types = sorted(stats)
    code = {t: i for i, t in enumerate(types)}
    mean_arr = np.empty(len(types), dtype=np.float64)
    std_arr = np.empty(len(types), dtype=np.float64)
    ok_arr = np.zeros(len(types), dtype=bool)
    for i, t in enumerate(types):
        n, s, ssq = stats[t]
        mean = np.float64(s) / np.float64(n)
        var = np.float64(ssq) / np.float64(n) - mean * mean
        mean_arr[i] = mean
        if var > 0:
            std_arr[i] = np.sqrt(var)
            ok_arr[i] = True
        else:
            std_arr[i] = 1.0  # unused; masked NULL below

    def scale(batch: pa.Table) -> pa.Table:
        et = pd.Series(
            batch.column("event_type").to_numpy(zero_copy_only=False)
        )
        ci = et.map(code).to_numpy(dtype=np.float64, na_value=np.nan)
        vc = _cents(batch.column("value"))
        if isinstance(vc, pa.ChunkedArray):
            vc = vc.combine_chunks()
        v = vc.to_numpy(zero_copy_only=False).astype(np.float64)
        keep = ~np.isnan(ci) & ~np.isnan(v)
        out = batch.filter(pa.array(keep))
        idx = ci[keep].astype(np.int64)
        c = v[keep]
        z = np.floor((c - mean_arr[idx]) / std_arr[idx] * 10000.0)
        return pa.table(
            {
                "event_id": out.column("event_id"),
                "event_type": out.column("event_type"),
                "value_c": pa.array(c.astype(np.int64), pa.int64()),
                # zero-variance groups are NULL like SQL
                "z4": pa.array(
                    z.astype(np.int64), pa.int64(), mask=~ok_arr[idx]
                ),
            }
        )

    return ds.map_batches(scale, batch_format="pyarrow")
