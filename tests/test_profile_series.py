"""Round-5 data-quality + time-series + extraction operators: per-column
table profile, zero-filled hourly gap-fill, sufficient-statistics grouped
correlation, and regex extract-to-rows — each checked with the
driver-identical oracle comparison at sf0.001 plus hand-built edges the
driver data cannot express (nulls, gaps, zero variance, no-match docs)."""

import os
import sys
import tempfile

import pyarrow as pa
import pyarrow.parquet as pq

sys.path.insert(0, "/root/repo/tests")
from oracle_harness import run as oracle_run

SF = "/root/testdata/sf0.001"


def test_round5_profile_series_oracles(ray_session):
    assert (
        oracle_run(
            SF,
            [
                "table_profile",
                "hourly_gapfill",
                "grouped_corr",
                "doc_regex_tokens",
            ],
        )
        == 0
    )


def test_table_profile_null_edges(ray_session):
    """min/max/distinct skip NULLs; n_null counts them; an all-null block
    must not poison the combine."""
    from etl_pipeline_rdf_star_ray.pipelines.analytics import table_profile

    t = pa.table(
        {
            "user_id": pa.array([3, None, 11, 3, None], pa.int64()),
            "event_type": pa.array(["b", None, "a", "b", None], pa.string()),
            "value": pa.array([1.25, None, -0.5, 1.25, None], pa.float64()),
        }
    )
    with tempfile.TemporaryDirectory() as d:
        pq.write_table(t, os.path.join(d, "events.parquet"))
        got = table_profile(d).to_pandas().set_index("col")
    assert got.loc["user_id"].tolist() == [5, 2, 2, "3", "11"]
    assert got.loc["event_type"].tolist() == [5, 2, 2, "a", "b"]
    # cents domain: -0.5 → -50, 1.25 → 125 (dedup'd)
    assert got.loc["value"].tolist() == [5, 2, 2, "-50", "125"]


def test_hourly_gapfill_fills_zeros(ray_session):
    """Hours with no events appear with n=0; every type spans the GLOBAL
    [min, max] hour range, not its own."""
    from etl_pipeline_rdf_star_ray.pipelines.analytics import hourly_gapfill

    US_H = 3_600_000_000
    t = pa.table(
        {
            "event_type": pa.array(["a", "a", "b"], pa.string()),
            # a: hours 10 and 13 (gap at 11, 12); b: hour 11 only
            "ts": pa.array(
                [10 * US_H, 13 * US_H + 5, 11 * US_H], pa.timestamp("us")
            ),
        }
    )
    with tempfile.TemporaryDirectory() as d:
        pq.write_table(t, os.path.join(d, "events.parquet"))
        got = hourly_gapfill(d).to_pandas()
    cells = got.set_index(["event_type", "hour_e"])["n"].to_dict()
    assert cells == {
        ("a", 10): 1, ("a", 11): 0, ("a", 12): 0, ("a", 13): 1,
        ("b", 10): 0, ("b", 11): 1, ("b", 12): 0, ("b", 13): 0,
    }


def test_grouped_corr_exact_and_degenerate(ray_session):
    """corr4 = 10000 on an exactly-linear group (integer sufficient stats
    make r == 1.0 exactly); a zero-variance group yields NULL like SQL."""
    from etl_pipeline_rdf_star_ray.pipelines.analytics import grouped_corr

    t = pa.table(
        {
            "l_returnflag": pa.array(["P", "P", "Z", "Z"], pa.string()),
            "l_quantity": pa.array([1.0, 2.0, 5.0, 7.0], pa.float64()),
            # P: discount == quantity cents/100 → perfect corr;
            # Z: constant discount → zero variance → NULL
            "l_discount": pa.array([0.01, 0.02, 0.03, 0.03], pa.float64()),
        }
    )
    with tempfile.TemporaryDirectory() as d:
        pq.write_table(t, os.path.join(d, "lineitem.parquet"))
        got = grouped_corr(d).to_pandas().set_index("l_returnflag")
    assert got.loc["P", "corr4"] == 10000
    assert got.loc["P", "n"] == 2
    assert got.loc["Z", "n"] == 2
    assert got["corr4"].isna().loc["Z"]


def test_regex_extract_rows_edges(ray_session):
    """No-match and NULL docs emit nothing; seq is the 1-based occurrence
    index in document order; overlapping-free greedy matches like RE2."""
    import ray.data as rd

    from etl_pipeline_rdf_star_ray.pipelines.corpus import regex_extract_rows

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(
                ["alpha xy gamma", "no", None], pa.string()
            ),
        }
    )
    got = (
        regex_extract_rows(rd.from_arrow(t))
        .to_pandas()
        .sort_values(["doc_id", "seq"])
    )
    assert got["doc_id"].tolist() == [1, 1]
    assert got["seq"].tolist() == [1, 2]
    assert got["tok"].tolist() == ["alpha", "gamma"]


def test_round5_normalize_pmi_oracles(ray_session):
    assert oracle_run(SF, ["minmax_normalize", "token_pmi"]) == 0


def test_minmax_normalize_edges(ray_session):
    """min row → 0, max row → 10000, interior floor division; degenerate
    (constant) group → NULL; NULL type/value rows drop."""
    from etl_pipeline_rdf_star_ray.pipelines.analytics import minmax_normalize

    t = pa.table(
        {
            "event_id": pa.array(range(7), pa.int64()),
            "event_type": pa.array(
                ["a", "a", "a", "z", "z", None, "a"], pa.string()
            ),
            "value": pa.array(
                [1.0, 4.0, 2.0, 5.0, 5.0, 1.0, None], pa.float64()
            ),
        }
    )
    with tempfile.TemporaryDirectory() as d:
        pq.write_table(t, os.path.join(d, "events.parquet"))
        got = (
            minmax_normalize(d).to_pandas().set_index("event_id").sort_index()
        )
    assert got.index.tolist() == [0, 1, 2, 3, 4]  # null rows dropped
    # a: range 100..400 cents → (c-100)*10000 // 300
    assert got.loc[0, "norm4"] == 0
    assert got.loc[1, "norm4"] == 10000
    assert got.loc[2, "norm4"] == (100 * 10000) // 300  # 3333
    # z: constant → NULL both rows
    assert got.loc[[3, 4], "norm4"].isna().all()


def test_token_pmi_edges(ray_session):
    """Within-doc repeats count once (distinct co-occurrence); pairs below
    min_count drop; pmi4 matches the hand formula from exact counts."""
    import math

    import ray.data as rd

    from etl_pipeline_rdf_star_ray.pipelines.corpus import token_pmi

    docs = rd.from_arrow(
        pa.table(
            {
                "text": pa.array(
                    [
                        "cat dog cat dog",  # repeats: one co-occurrence
                        "cat dog",
                        "cat fish",
                        "bird",
                    ],
                    pa.string(),
                )
            }
        )
    )
    got = token_pmi(docs, min_count=2).to_pandas()
    assert len(got) == 1  # only (cat, dog) reaches min_count
    row = got.iloc[0]
    assert (row["tok_a"], row["tok_b"], row["n_ab"]) == ("cat", "dog", 2)
    # N=4 docs, df_cat=3, df_dog=2 → pmi = ln(4·2 / (3·2))
    want = math.floor((math.log(4 * 2 / (3 * 2)) + 1e-9) * 10000)
    assert row["pmi4"] == want


def test_tpch_q3_q5_oracles(ray_session):
    assert (
        oracle_run(SF, ["q3_shipping_priority", "q5_local_supplier_volume"])
        == 0
    )


def test_q5_local_supplier_predicate(ray_session):
    """Only rows where the SUPPLIER nation equals the CUSTOMER nation count
    — and only inside the region; revenue is exact int64 1e-4 dollars."""
    from etl_pipeline_rdf_star_ray.pipelines.tpch import (
        q5_local_supplier_volume,
    )

    import numpy as np

    d = tempfile.mkdtemp()
    pq.write_table(
        pa.table({"r_regionkey": pa.array([0, 1], pa.int64()),
                  "r_name": ["ASIA", "EUROPE"]}),
        os.path.join(d, "region.parquet"),
    )
    pq.write_table(
        pa.table({"n_nationkey": pa.array([10, 20], pa.int64()),
                  "n_name": ["JAPAN", "FRANCE"],
                  "n_regionkey": pa.array([0, 1], pa.int64())}),
        os.path.join(d, "nation.parquet"),
    )
    pq.write_table(
        pa.table({"s_suppkey": pa.array([1, 2], pa.int64()),
                  "s_nationkey": pa.array([10, 20], pa.int64())}),
        os.path.join(d, "supplier.parquet"),
    )
    pq.write_table(
        pa.table({"c_custkey": pa.array([5, 6], pa.int64()),
                  "c_nationkey": pa.array([10, 20], pa.int64())}),
        os.path.join(d, "customer.parquet"),
    )
    ts = np.datetime64("1996-06-01", "us")
    pq.write_table(
        pa.table({"o_orderkey": pa.array([100, 101], pa.int64()),
                  "o_custkey": pa.array([5, 6], pa.int64()),
                  "o_orderdate": pa.array([ts, ts], pa.timestamp("us"))}),
        os.path.join(d, "orders.parquet"),
    )
    # l1: japan supplier + japan customer → counts (rev = 100c·(100−0))
    # l2: japan supplier + FRANCE customer → local-supplier predicate fails
    # l3: france supplier + france customer → EUROPE region, excluded
    pq.write_table(
        pa.table({"l_orderkey": pa.array([100, 101, 101], pa.int64()),
                  "l_suppkey": pa.array([1, 1, 2], pa.int64()),
                  "l_extendedprice": pa.array([1.0, 1.0, 1.0], pa.float64()),
                  "l_discount": pa.array([0.0, 0.0, 0.0], pa.float64())}),
        os.path.join(d, "lineitem.parquet"),
    )
    got = q5_local_supplier_volume(d).to_pandas()
    assert got.set_index("n_name")["revenue_c4"].to_dict() == {"JAPAN": 10000}


def test_tpch_q10_q14_oracles(ray_session):
    """Driver-identical comparison for the round-5 Q10 (returned-item
    customer revenue) and Q14 (promo revenue share) composites."""
    assert oracle_run(SF, ["q10_returned_items", "q14_promo_share"]) == 0


def test_q14_promo_share_hand_values(ray_session, tmp_path):
    """The basis-point share must be promo·10000 // total over EXACT cents
    revenue, counting only lineitems inside the ship window and only parts
    typed PROMO."""
    import numpy as np
    import pyarrow.parquet as pq_

    from etl_pipeline_rdf_star_ray.pipelines.tpch import q14_promo_revenue

    part = pa.table(
        {
            "p_partkey": pa.array([1, 2, 3], pa.int64()),
            "p_type": pa.array(["PROMO", "STANDARD", "PROMO"]),
        }
    )
    D = np.datetime64("1996-02-01", "us")
    OUT = np.datetime64("1999-01-01", "us")
    li = pa.table(
        {
            "l_partkey": pa.array([1, 2, 3, 1], pa.int64()),
            # rev_c4 per row: price_c · (100 − disc_c)
            "l_extendedprice": pa.array([10.0, 20.0, 30.0, 40.0]),
            "l_discount": pa.array([0.0, 0.5, 0.0, 0.0]),
            "l_shipdate": pa.array([D, D, D, OUT], pa.timestamp("us")),
        }
    )
    pq_.write_table(part, str(tmp_path / "part.parquet"))
    pq_.write_table(li, str(tmp_path / "lineitem.parquet"))
    got = q14_promo_revenue(str(tmp_path)).to_pandas()
    # in-window rows: part1 1000·100=100000 (promo), part2 2000·50=100000,
    # part3 3000·100=300000 (promo); the OUT row is excluded
    assert got["total_rev_c4"].tolist() == [500000]
    assert got["promo_rev_c4"].tolist() == [400000]
    assert got["promo_bp"].tolist() == [8000]

    # promo = 1e11 · 100 · 100 = 1e15 c4 units: promo · 10000 = 1e19 wraps
    # in int64, so the basis-point math must run in Python ints
    big = pa.table(
        {
            "l_partkey": pa.array([1, 2], pa.int64()),
            "l_extendedprice": pa.array([1e11, 1e11]),
            "l_discount": pa.array([0.0, 0.0]),
            "l_shipdate": pa.array([D, D], pa.timestamp("us")),
        }
    )
    pq_.write_table(big, str(tmp_path / "lineitem.parquet"))
    got = q14_promo_revenue(str(tmp_path)).to_pandas()
    assert got["promo_rev_c4"].tolist() == [10**15]
    assert got["total_rev_c4"].tolist() == [2 * 10**15]
    assert got["promo_bp"].tolist() == [5000]


def test_q14_all_dropped_rows_yield_nulls(ray_session, tmp_path):
    """Regression (third review pass): when NO lineitem joins part, the
    oracle's sums are NULL (sum over zero rows) and the division is NULL
    — not a (0, 0, 0) row."""
    import numpy as np
    import pyarrow.parquet as pq_

    from etl_pipeline_rdf_star_ray.pipelines.tpch import q14_promo_revenue

    part = pa.table(
        {
            "p_partkey": pa.array([1], pa.int64()),
            "p_type": pa.array(["PROMO"]),
        }
    )
    D = np.datetime64("1996-02-01", "us")
    li = pa.table(
        {
            "l_partkey": pa.array([99], pa.int64()),  # dangles
            "l_extendedprice": pa.array([10.0]),
            "l_discount": pa.array([0.0]),
            "l_shipdate": pa.array([D], pa.timestamp("us")),
        }
    )
    pq_.write_table(part, str(tmp_path / "part.parquet"))
    pq_.write_table(li, str(tmp_path / "lineitem.parquet"))
    got = q14_promo_revenue(str(tmp_path)).to_pandas()
    assert got["promo_bp"].isna().tolist() == [True]
    assert got["promo_rev_c4"].isna().tolist() == [True]
    assert got["total_rev_c4"].isna().tolist() == [True]


def test_q10_all_null_revenue_stays_null(ray_session, tmp_path):
    """A customer whose returned lineitems all have a NULL
    ``l_extendedprice`` has NULL revenue in SQL (a sum over NULLs), which
    ``ORDER BY revenue_c4 DESC`` puts after every non-NULL revenue — not
    a revenue of 0. ``k`` (20) exceeds the customer count, so every
    customer is in the answer."""
    import duckdb
    import numpy as np
    import pyarrow.parquet as pq_

    from etl_pipeline_rdf_star_ray.pipelines.tpch import q10_returned_item_revenue
    from etl_pipeline_rdf_star_ray.queries import ORACLE_Q10

    D = np.datetime64("1996-02-01", "us")
    tables = {
        "nation": pa.table(
            {"n_nationkey": pa.array([0, 1], pa.int64()), "n_name": ["A", "B"]}
        ),
        "customer": pa.table(
            {
                "c_custkey": pa.array([1, 2, 3], pa.int64()),
                "c_name": ["c1", "c2", "c3"],
                "c_acctbal": [1.5, -2.25, 3.0],
                "c_nationkey": pa.array([0, 1, 0], pa.int64()),
            }
        ),
        "orders": pa.table(
            {
                "o_orderkey": pa.array([10, 20, 30, 31], pa.int64()),
                "o_custkey": pa.array([1, 2, 3, 3], pa.int64()),
                "o_orderdate": pa.array([D] * 4, pa.timestamp("us")),
            }
        ),
        "lineitem": pa.table(
            {
                "l_orderkey": pa.array([10, 10, 20, 30, 31], pa.int64()),
                # customer 3's returned lineitems are all NULL-priced
                "l_extendedprice": pa.array([10.0, 5.0, 0.5, None, None]),
                "l_discount": [0.1, 0.0, 0.0, 0.0, 0.2],
                "l_returnflag": ["R", "R", "R", "R", "R"],
            }
        ),
    }
    con = duckdb.connect()
    for name, t in tables.items():
        pq_.write_table(t, str(tmp_path / f"{name}.parquet"))
        con.sql(
            f"CREATE VIEW {name} AS SELECT * FROM '{tmp_path}/{name}.parquet'"
        )
    want = con.sql(ORACLE_Q10).fetchall()
    got = q10_returned_item_revenue(str(tmp_path)).to_pandas()
    got = [
        tuple(None if v is pa.NA or v != v else v for v in row)
        for row in got[
            ["c_custkey", "c_name", "revenue_c4", "acctbal_c", "n_name"]
        ].astype(object).itertuples(index=False)
    ]
    assert want[-1][0] == 3 and want[-1][2] is None
    assert got == want
