"""Classic TPC-H composite pipelines (round 5): Q3 (shipping priority) and
Q5 (local supplier volume) re-expressed over the repo's own planes — the
point is COMPOSITION: semi/inner sharded hash joins, map-side revenue
partials, broadcast dimension maps, and the local-top-k merge, chained the
way a real reporting pipeline chains them.

Revenue is EXACT int64 throughout: ``rev_c4 = Σ price_cents · (100 −
discount_cents)`` (10⁻⁴-dollar units), so grouped sums are
order-independent and hash-identical to the SQL oracle with no float
laundering. Adapted to the driver schema: ``orders`` has no
``o_shippriority`` so Q3 carries ``o_orderpriority``; dates are
``timestamp[us]``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..sources import read_parquet_clean
from .analytics import _cents, _sum_partials


def _rev_c4(batch: pa.Table) -> pa.Array:
    """Exact per-row revenue in 10⁻⁴-dollar units:
    ``price_cents · (100 − discount_cents)`` — int64, overflow-safe to
    ~10¹⁴ rows per group."""
    price_c = _cents(batch.column("l_extendedprice"))
    disc_c = _cents(batch.column("l_discount"))
    return pc.multiply(price_c, pc.subtract(pa.scalar(100, pa.int64()), disc_c))


def q3_shipping_priority(
    sf_dir: str,
    *,
    segment: str = "BUILDING",
    cutoff: str = "1998-01-01",
    k: int = 10,
) -> "rd.Dataset":
    """TPC-H Q3: top-k unshipped orders of one market segment by revenue.

    Plan (3 exchanges, every input pruned at the read):
    1. lineitem (shipped AFTER cutoff) collapses map-side to per-block
       ``(l_orderkey, rev_c4)`` partials, then ONE orderkey-hash exchange
       sums them — the join below moves one row per qualifying order, not
       one per lineitem.
    2. orders (placed BEFORE cutoff) SEMI-joins the segment's customers on
       the sharded join plane (the honest scale path — a segment is ~1/5
       of a 100-TB customer table, far past any broadcast budget).
    3. revenue ⋈ orders inner-join on orderkey, then the global top-k
       rides the local-top-k + driver-merge pattern (no global sort):
       deterministic total order (rev DESC, o_orderdate, o_orderkey)."""
    from ..stages.join import hash_join_sharded

    cut = pa.scalar(np.datetime64(cutoff, "us"))

    li = read_parquet_clean(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
        filter=pc.field("l_shipdate") > cut,
    )

    def rev_partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {"l_orderkey": batch.column("l_orderkey"), "rev": _rev_c4(batch)}
        )
        g = t.group_by(["l_orderkey"]).aggregate([("rev", "sum")])
        return pa.table(
            {
                "o_orderkey": g.column("l_orderkey"),
                "revenue_c4": g.column("rev_sum"),
            }
        )

    revenue = _sum_partials(
        li.map_batches(rev_partial, batch_format="pyarrow"),
        ["o_orderkey"],
        ["revenue_c4"],
    )

    cust = read_parquet_clean(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_mktsegment"],
        filter=pc.field("c_mktsegment") == segment,
    )
    orders = read_parquet_clean(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
        filter=pc.field("o_orderdate") < cut,
    )
    orders_seg = hash_join_sharded(
        orders, cust, on="o_custkey", right_on="c_custkey", how="semi"
    ).drop_columns(["o_custkey"])

    joined = hash_join_sharded(revenue, orders_seg, on="o_orderkey", how="inner")

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(
            ["revenue_c4", "o_orderdate", "o_orderkey"],
            ascending=[False, True, True],
            kind="mergesort",
        ).head(k)

    survivors = joined.map_batches(local_topk, batch_format="pandas").to_pandas()
    top = local_topk(survivors)[
        ["o_orderkey", "revenue_c4", "o_orderdate", "o_orderpriority"]
    ]
    return rd.from_arrow(
        pa.Table.from_pandas(top.reset_index(drop=True), preserve_index=False)
        .replace_schema_metadata(None)
    )


def q5_local_supplier_volume(
    sf_dir: str,
    *,
    region: str = "ASIA",
    date_lo: str = "1996-01-01",
    date_hi: str = "1998-01-01",
) -> "rd.Dataset":
    """TPC-H Q5: revenue per nation where the supplier and the ordering
    customer share the nation, within one region and order-date year band.

    Plan: nation ⋈ region resolve driver-side (fixed 25×5 rows);
    orders (date band) ⋈ customer carries ``c_nationkey`` through one
    sharded join; lineitem ⋈ that result on orderkey is the second big
    join; the supplier dimension — the SMALLEST fact-scaled table —
    broadcasts as a suppkey→nationkey int64 map (``ray.put`` once; above
    the broadcast budget this swaps to a third ``hash_join_sharded`` on
    ``l_suppkey``, same shape as the other two); the local-supplier
    predicate ``s_nationkey == c_nationkey`` filters vectorized per batch
    and per-block (nation, rev) partials ride one TINY final exchange
    (≤ 25 rows per block)."""
    from ..stages.join import hash_join_sharded

    lo = pa.scalar(np.datetime64(date_lo, "us"))
    hi = pa.scalar(np.datetime64(date_hi, "us"))

    nation = read_parquet_clean(f"{sf_dir}/nation.parquet").to_pandas()
    reg = read_parquet_clean(f"{sf_dir}/region.parquet").to_pandas()
    rkeys = set(reg.loc[reg["r_name"] == region, "r_regionkey"])
    nat = nation[nation["n_regionkey"].isin(rkeys)]
    nat_name = dict(zip(nat["n_nationkey"].astype(np.int64), nat["n_name"]))

    sup = read_parquet_clean(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    ).to_pandas()
    sup = sup[sup["s_nationkey"].isin(nat_name)]
    sup_map = ray.put(
        dict(
            zip(
                sup["s_suppkey"].astype(np.int64),
                sup["s_nationkey"].astype(np.int64),
            )
        )
    )

    orders = read_parquet_clean(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=(pc.field("o_orderdate") >= lo) & (pc.field("o_orderdate") < hi),
    ).drop_columns(["o_orderdate"])
    cust = read_parquet_clean(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    orders_n = hash_join_sharded(
        orders, cust, on="o_custkey", right_on="c_custkey", how="inner"
    ).drop_columns(["o_custkey"])

    li = read_parquet_clean(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )

    def slim(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_orderkey": batch.column("l_orderkey"),
                "l_suppkey": batch.column("l_suppkey"),
                "rev": _rev_c4(batch),
            }
        )

    joined = hash_join_sharded(
        li.map_batches(slim, batch_format="pyarrow"),
        orders_n,
        on="l_orderkey",
        right_on="o_orderkey",
        how="inner",
    )

    def nation_partial(batch: pa.Table) -> pa.Table:
        m = ray.get(sup_map)
        sk = pd.Series(batch.column("l_suppkey").to_numpy(zero_copy_only=False))
        s_nat = sk.map(m).to_numpy(dtype=np.float64, na_value=np.nan)
        c_nat = (
            batch.column("c_nationkey")
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )
        keep = ~np.isnan(s_nat) & (s_nat == c_nat)
        if not keep.any():
            return pa.table(
                {
                    "n_name": pa.array([], pa.string()),
                    "revenue_c4": pa.array([], pa.int64()),
                }
            )
        names = pd.Series(s_nat[keep].astype(np.int64)).map(nat_name)
        rev = batch.column("rev").to_numpy(zero_copy_only=False)[keep]
        g = pd.DataFrame({"n_name": names.to_numpy(), "revenue_c4": rev}).groupby(
            "n_name", sort=False
        )["revenue_c4"].sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False).replace_schema_metadata(
            None
        )

    return _sum_partials(
        joined.map_batches(nation_partial, batch_format="pyarrow"),
        ["n_name"],
        ["revenue_c4"],
        num_shards=8,
    )


def q10_returned_item_revenue(
    sf_dir: str,
    *,
    date_lo: str = "1996-01-01",
    date_hi: str = "1996-04-01",
    k: int = 20,
) -> "rd.Dataset":
    """TPC-H Q10: the top-k customers by revenue lost to returned items
    (``l_returnflag = 'R'``) for orders placed in one quarter, with their
    nation — the classic churn-investigation composite.

    Plan (3 exchanges): lineitem (returned only) collapses map-side to
    per-block ``(l_orderkey, rev)`` partials; those join the quarter's
    orders on the sharded plane carrying only ``o_custkey``; the
    per-custkey revenue partials then SEMI-join the customer table's keys
    (the oracle's ``JOIN customer`` membership — a dangling custkey must
    not consume a top-k slot; second review pass reproduced exactly that
    divergence) before the custkey-hash exchange whose per-shard LOCAL
    top-k (a customer lives in one shard) leaves ≤ k·shards survivor
    rows for the driver merge. The survivor keys (≤ k·shards) point-read
    the customer dimension columns, and nation is a 25-row driver-side
    map — no dimension broadcast, no global sort."""
    from ..stages.join import hash_join_sharded
    from ..stages.exchange import sharded_groups

    lo = pa.scalar(np.datetime64(date_lo, "us"))
    hi = pa.scalar(np.datetime64(date_hi, "us"))

    li = read_parquet_clean(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_orderkey", "l_extendedprice", "l_discount", "l_returnflag",
        ],
        filter=pc.field("l_returnflag") == "R",
    )

    def rev_partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {"l_orderkey": batch.column("l_orderkey"), "rev": _rev_c4(batch)}
        )
        g = t.group_by(["l_orderkey"]).aggregate([("rev", "sum")])
        return g.rename_columns(["l_orderkey", "rev"])

    orders = read_parquet_clean(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=(pc.field("o_orderdate") >= lo) & (pc.field("o_orderdate") < hi),
    ).drop_columns(["o_orderdate"])

    joined = hash_join_sharded(
        li.map_batches(rev_partial, batch_format="pyarrow"),
        orders,
        on="l_orderkey",
        right_on="o_orderkey",
        how="inner",
    )

    def cust_partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "o_custkey": batch.column("o_custkey"),
                "revenue_c4": batch.column("rev"),
            }
        )
        g = t.group_by(["o_custkey"]).aggregate([("revenue_c4", "sum")])
        return g.rename_columns(["o_custkey", "revenue_c4"])

    def shard_topk(s: pd.DataFrame) -> pd.DataFrame:
        # min_count=1: a customer whose revenue is all NULL keeps a NULL
        # sum, as in SQL, and sorts after every non-NULL revenue
        g = (
            s.groupby("o_custkey", sort=False)["revenue_c4"]
            .sum(min_count=1)
            .reset_index()
        )
        return g.sort_values(
            ["revenue_c4", "o_custkey"], ascending=[False, True],
            kind="mergesort",
        ).head(k).astype({"o_custkey": np.int64, "revenue_c4": "Int64"})

    # the oracle's JOIN customer (and JOIN nation) is a MEMBERSHIP filter
    # before LIMIT: a dangling custkey — or a customer whose nationkey is
    # NULL/dangling — must not consume a shard's top-k slot (second and
    # third review passes reproduced the eviction) — semi-join the
    # revenue partials against the nation-resolvable customer keys on the
    # sharded plane (nation is 25 driver rows, filtered at the read)
    nation_keys = (
        read_parquet_clean(
            f"{sf_dir}/nation.parquet", columns=["n_nationkey"]
        )
        .to_pandas()["n_nationkey"]
        .astype(np.int64)
        .tolist()
    )
    cust_keys = read_parquet_clean(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_nationkey"],
        filter=pc.field("c_nationkey").isin(nation_keys),
    ).drop_columns(["c_nationkey"])
    cust_rev = hash_join_sharded(
        joined.map_batches(cust_partial, batch_format="pyarrow"),
        cust_keys,
        on="o_custkey",
        right_on="c_custkey",
        how="semi",
    )

    survivors = sharded_groups(
        cust_rev,
        ["o_custkey"],
        shard_topk,
    ).to_pandas()
    # a NULL revenue arrives as a float NaN; back to nullable int64
    survivors["revenue_c4"] = survivors["revenue_c4"].astype("Int64")

    keys = survivors["o_custkey"].astype(np.int64).tolist()
    cust = read_parquet_clean(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_acctbal", "c_nationkey"],
        filter=pc.field("c_custkey").isin(keys),
    ).to_pandas()
    nation = read_parquet_clean(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).to_pandas()
    out = survivors.merge(
        cust, left_on="o_custkey", right_on="c_custkey", how="inner"
    ).merge(nation, left_on="c_nationkey", right_on="n_nationkey", how="inner")
    out = out.sort_values(
        ["revenue_c4", "o_custkey"], ascending=[False, True], kind="mergesort"
    ).head(k)
    out["c_custkey"] = out["o_custkey"].astype(np.int64)
    # nullable Int64: a NULL c_acctbal stays NULL like the oracle's
    # round(NULL) (third review pass: a plain int64 cast raised on NaN)
    out["acctbal_c"] = (
        (out["c_acctbal"] * 100.0).round().astype("Int64")
    )
    out = out[["c_custkey", "c_name", "revenue_c4", "acctbal_c", "n_name"]]
    return rd.from_arrow(
        pa.Table.from_pandas(out.reset_index(drop=True), preserve_index=False)
        .replace_schema_metadata(None)
    )


def q14_promo_revenue(
    sf_dir: str,
    *,
    date_lo: str = "1996-01-01",
    date_hi: str = "1996-04-01",
) -> pa.Table:
    """TPC-H Q14: the share of revenue shipped in a window that came from
    promotional parts — the fact⋈dimension + conditional-aggregate
    composite, reduced to ONE row.

    The share is EXACT integer basis points (``promo·10000 // total``) so
    the oracle comparison needs no float convention at all. The sorted
    deduplicated part-key domain plus per-key match/promo COUNTS
    broadcast once via ``ray.put`` (``searchsorted`` gather per batch) —
    the whole domain, not just promo keys, because the inner join's
    semantics must be reproducible per row: NULL / dangling ``l_partkey``
    rows leave BOTH sums, and a duplicated part key fans a lineitem out
    once per matching part row. At 100-TB scale, where part is
    fact-scaled past any broadcast budget, the honest swap is a sharded
    join on ``l_partkey`` — the same documented budget trade as Q5's
    supplier map. Every block contributes two scalars; the driver folds
    O(blocks) rows."""
    lo = pa.scalar(np.datetime64(date_lo, "us"))
    hi = pa.scalar(np.datetime64(date_hi, "us"))

    # broadcast the WHOLE part-key domain (sorted, deduplicated) with TWO
    # parallel count columns — total matches m and promo matches p per
    # key — not just the promo keys: the oracle's INNER JOIN part
    # excludes lineitems with a NULL or dangling l_partkey from BOTH
    # sums, and FANS OUT a lineitem once per matching part row when a
    # key is duplicated (second review pass: single-flag membership
    # under-counted duplicates nondeterministically). NULL p_partkey
    # dimension rows drop like the join's null semantics.
    part = read_parquet_clean(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"]
    ).to_pandas()
    part = part[part["p_partkey"].notna()]
    grp = (
        pd.DataFrame(
            {
                "key": part["p_partkey"].to_numpy(dtype=np.int64),
                "promo": (part["p_type"].to_numpy() == "PROMO").astype(
                    np.int64
                ),
            }
        )
        .groupby("key", sort=True)
        .agg(m=("promo", "size"), p=("promo", "sum"))
        .reset_index()
    )
    part_keys_ref = ray.put(grp["key"].to_numpy(dtype=np.int64))
    match_counts_ref = ray.put(grp["m"].to_numpy(dtype=np.int64))
    promo_counts_ref = ray.put(grp["p"].to_numpy(dtype=np.int64))

    li = read_parquet_clean(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"],
        filter=(pc.field("l_shipdate") >= lo) & (pc.field("l_shipdate") < hi),
    )

    def partial(batch: pa.Table) -> pa.Table:
        # NULL l_partkey rows drop first (the inner join excludes them)
        batch = batch.filter(pc.is_valid(batch.column("l_partkey")))
        keys = ray.get(part_keys_ref)
        m_cnt = ray.get(match_counts_ref)
        p_cnt = ray.get(promo_counts_ref)
        # NULL price/discount make the row's revenue NULL — SQL's sum
        # skips it in both sums, so it contributes 0 AND must not count
        # as a non-null term (the NULL-iff-no-terms bookkeeping below)
        raw = _rev_c4(batch).to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        rev_valid = ~np.isnan(raw)
        rev = np.nan_to_num(raw).astype(np.int64)
        pk = batch.column("l_partkey").to_numpy(zero_copy_only=False)
        if len(keys):
            i = np.searchsorted(keys, pk)
            i[i == len(keys)] = 0
            joined = keys[i] == pk
            # fan-out: a lineitem counts once per matching part row
            m = np.where(joined, m_cnt[i], 0)
            p = np.where(joined, p_cnt[i], 0)
        else:
            m = np.zeros(len(pk), np.int64)
            p = m
        # SQL sum() is NULL iff it saw ZERO non-null terms. total's terms
        # are the fan-out copies with non-null revenue; promo's CASE adds
        # a literal (non-null) 0 for every non-promo copy, so its terms
        # are (m − p) for all joined rows plus p where revenue is valid.
        t_terms = np.int64((np.where(rev_valid, m, 0)).sum())
        p_terms = np.int64(
            (m - p).sum() + (np.where(rev_valid, p, 0)).sum()
        )
        return pa.table(
            {
                "promo_rev_c4": pa.array(
                    [np.int64((rev * p).sum())], pa.int64()
                ),
                "total_rev_c4": pa.array(
                    [np.int64((rev * m).sum())], pa.int64()
                ),
                "promo_terms": pa.array([p_terms], pa.int64()),
                "total_terms": pa.array([t_terms], pa.int64()),
            }
        )

    parts = li.map_batches(partial, batch_format="pyarrow").to_pandas()
    # Python ints: promo * 10000 overflows int64 once promo passes ~9.2e14
    # c4 units (ADVICE 4)
    promo = sum(int(x) for x in parts["promo_rev_c4"])
    total = sum(int(x) for x in parts["total_rev_c4"])
    p_terms = int(parts["promo_terms"].sum())
    t_terms = int(parts["total_terms"].sum())
    # NULL propagation like the oracle: each sum is NULL when it saw no
    # non-null term, and the integer division is NULL when either side is
    # NULL or the divisor is 0 (DuckDB x // 0 → NULL)
    promo_null = p_terms == 0
    total_null = t_terms == 0
    bp_null = promo_null or total_null or total == 0
    return pa.table(
        {
            "promo_bp": pa.array(
                [None if bp_null else promo * 10000 // total], pa.int64()
            ),
            "promo_rev_c4": pa.array(
                [None if promo_null else promo], pa.int64()
            ),
            "total_rev_c4": pa.array(
                [None if total_null else total], pa.int64()
            ),
        }
    )
