"""As-of join tests: hand-computed semantics, broadcast == sharded ==
DuckDB ASOF JOIN on interleaved data with ties, misses and future-only
history rows."""

import duckdb
import pyarrow as pa
import pytest
import ray.data as rd

from etl_pipeline_rdf_star_ray.stages.asof import (
    asof_join_broadcast,
    asof_join_sharded,
)

LEFT = pa.table(
    {
        "eid": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        "k": pa.array([10, 10, 10, 20, 20, 30], pa.int64()),
        "ts": pa.array([5, 15, 25, 8, 100, 7], pa.int64()),
    }
)

# key 10: history at 10 and 20 (with a TIE at 20); key 20: only at 50
# (future for eid=4, past for eid=5); key 30: no history at all
RIGHT = pa.table(
    {
        "rk": pa.array([10, 10, 10, 20], pa.int64()),
        "rts": pa.array([10, 20, 20, 50], pa.int64()),
        "ver": pa.array([1, 2, 3, 9], pa.int64()),
        "price": pa.array([1.0, 2.0, 3.0, 9.0], pa.float64()),
    }
)

EXPECTED = {  # eid -> (ver, price)
    1: (None, None),  # ts=5 before any history
    2: (1, 1.0),  # latest <= 15 is rts=10
    3: (3, 3.0),  # tie at rts=20 resolved to max tiebreak (ver=3)
    4: (None, None),  # history only in the future
    5: (9, 9.0),
    6: (None, None),  # no history for key 30
}


def _check(rows):
    assert len(rows) == 6
    for r in rows:
        ver, price = EXPECTED[r["eid"]]
        assert r["ver"] == ver and r["price"] == price, r


def test_broadcast_semantics(ray_session):
    out = asof_join_broadcast(
        rd.from_arrow(LEFT), RIGHT,
        on="ts", by="k", right_on="rts", right_by="rk",
        value_cols=["ver", "price"], tiebreak="ver",
    )
    _check(_norm(out.to_pandas()[["eid", "ver", "price"]]))


def _norm(df):
    import pandas as pd

    return [
        {
            "eid": int(r["eid"]),
            "ver": None if pd.isna(r["ver"]) else int(r["ver"]),
            "price": None if pd.isna(r["price"]) else float(r["price"]),
        }
        for _, r in df.iterrows()
    ]


def test_sharded_matches_broadcast(ray_session):
    out = asof_join_sharded(
        rd.from_arrow(LEFT), rd.from_arrow(RIGHT),
        on="ts", by="k", right_on="rts", right_by="rk",
        value_cols=["ver", "price"], tiebreak="ver", num_shards=4,
    ).to_pandas()
    _check(_norm(out[["eid", "ver", "price"]]))


# NULL ``on`` values on both sides: SQL compares a NULL with nothing, so a
# NULL left ts gets NULL values and a NULL right rts never matches
LEFT_NULL_TS = pa.concat_tables(
    [
        LEFT,
        pa.table(
            {
                "eid": pa.array([7, 8], pa.int64()),
                "k": pa.array([10, 20], pa.int64()),
                "ts": pa.array([None, None], pa.int64()),
            }
        ),
    ]
)
RIGHT_NULL_TS = pa.concat_tables(
    [
        RIGHT,
        pa.table(
            {
                "rk": pa.array([10], pa.int64()),
                "rts": pa.array([None], pa.int64()),
                "ver": pa.array([7], pa.int64()),
                "price": pa.array([7.0], pa.float64()),
            }
        ),
    ]
)


def test_matches_duckdb_asof(ray_session):
    """The broadcast join (both directions) and the sharded join (backward)
    equal DuckDB on the interleaved fixture and on one with NULL ``on``
    values on both sides. The oracle states the as-of condition as a plain
    LEFT JOIN + arg_max/arg_min, which follows SQL's NULL comparison
    semantics; DuckDB's own ASOF operator pairs a NULL left ts with the
    key's latest right row, so it is checked only on the NULL-free
    fixture."""
    kw = dict(
        on="ts", by="k", right_on="rts", right_by="rk",
        value_cols=["ver", "price"], tiebreak="ver",
    )
    dedup = """
        WITH rr AS (
          SELECT rk, rts, max(ver) AS ver, arg_max(price, ver) AS price
          FROM r GROUP BY rk, rts
        )"""
    for left, right in ((LEFT, RIGHT), (LEFT_NULL_TS, RIGHT_NULL_TS)):
        con = duckdb.connect()
        con.register("l", left)
        con.register("r", right)
        for direction, cmp, pick in (
            ("backward", ">=", "arg_max"),
            ("forward", "<=", "arg_min"),
        ):
            oracle = _norm(
                con.sql(
                    f"""{dedup}
                    SELECT l.eid, {pick}(rr.ver, rr.rts) AS ver,
                           {pick}(rr.price, rr.rts) AS price
                    FROM l LEFT JOIN rr ON l.k = rr.rk AND l.ts {cmp} rr.rts
                    GROUP BY l.eid ORDER BY l.eid
                    """
                ).df()
            )
            if left is LEFT:
                assert oracle == _norm(
                    con.sql(
                        f"""{dedup}
                        SELECT l.eid, rr.ver, rr.price
                        FROM l ASOF LEFT JOIN rr ON l.k = rr.rk AND l.ts {cmp} rr.rts
                        ORDER BY l.eid
                        """
                    ).df()
                )
            got = asof_join_broadcast(
                rd.from_arrow(left), right, direction=direction, **kw
            ).to_pandas()
            assert _norm(got.sort_values("eid")) == oracle, direction
            if direction == "backward":
                got = asof_join_sharded(
                    rd.from_arrow(left), rd.from_arrow(right), num_shards=4, **kw
                ).to_pandas()
                assert _norm(got.sort_values("eid")) == oracle


def test_broadcast_on_real_tables(ray_session):
    """sf0.001 events × orders: every non-null match must satisfy the as-of
    invariant (order date <= event ts, and it is the latest such)."""
    import pyarrow.parquet as pq

    sf = "/root/testdata/sf0.001"
    events = rd.read_parquet(f"{sf}/events.parquet", columns=["event_id", "user_id", "ts"])
    orders = pq.read_table(
        f"{sf}/orders.parquet",
        columns=["o_custkey", "o_orderdate", "o_orderkey", "o_totalprice"],
    )
    out = asof_join_broadcast(
        events, orders, on="ts", by="user_id",
        right_on="o_orderdate", right_by="o_custkey",
        value_cols=["o_orderkey", "o_totalprice"], tiebreak="o_orderkey",
    ).to_pandas()
    odates = {
        k.as_py(): d.as_py()
        for k, d in zip(orders.column("o_orderkey"), orders.column("o_orderdate"))
    }
    matched = out[out["o_orderkey"].notna()]
    assert len(matched) > 0
    for _, row in matched.head(200).iterrows():
        assert odates[int(row.o_orderkey)] <= row.ts


# ---------------------------------------------------------------------------
# range join
# ---------------------------------------------------------------------------


def test_range_join_keyed_and_misses(ray_session):
    from etl_pipeline_rdf_star_ray.stages.asof import range_join_broadcast

    left = pa.table(
        {
            "eid": pa.array([1, 2, 3, 4], pa.int64()),
            "k": pa.array([1, 1, 1, 2], pa.int64()),
            "t": pa.array([5, 10, 21, 12], pa.int64()),
        }
    )
    iv = pa.table(
        {
            "k": pa.array([1, 1, 2], pa.int64()),
            "lo": pa.array([0, 10, 100], pa.int64()),
            "hi": pa.array([9, 20, 200], pa.int64()),
            "tag": pa.array(["a", "b", "c"], pa.string()),
        }
    )
    out = (
        range_join_broadcast(
            rd.from_arrow(left), iv, on="t", by="k", lo="lo", hi="hi",
            attach=["tag"],
        )
        .to_pandas()
        .sort_values("eid")
    )
    # eid 3 (t=21 past hi=20) and eid 4 (key 2 interval starts at 100) drop
    assert out["eid"].tolist() == [1, 2]
    assert out["tag"].tolist() == ["a", "b"]

    outer = (
        range_join_broadcast(
            rd.from_arrow(left), iv, on="t", by="k", lo="lo", hi="hi",
            attach=["tag"], inner=False,
        )
        .to_pandas()
        .sort_values("eid")
    )
    assert outer["tag"].tolist()[2:] == [None, None]


def test_range_join_keyless_boundaries(ray_session):
    from etl_pipeline_rdf_star_ray.stages.asof import range_join_broadcast

    left = pa.table({"t": pa.array([0, 9, 10, 15, 16], pa.int64())})
    iv = pa.table(
        {
            "lo": pa.array([0, 10], pa.int64()),
            "hi": pa.array([9, 15], pa.int64()),
            "bucket": pa.array([1, 2], pa.int64()),
        }
    )
    out = (
        range_join_broadcast(
            rd.from_arrow(left), iv, on="t", by=None, lo="lo", hi="hi",
            attach=["bucket"], inner=False,
        )
        .to_pandas()
        .sort_values("t")
    )
    assert [None if b != b else int(b) for b in out["bucket"]] == [1, 1, 2, 2, None]


def test_empty_right_side_all_null(ray_session):
    """Empty dimension history: left-outer semantics, no crash."""
    empty = RIGHT.slice(0, 0)
    out = asof_join_broadcast(
        rd.from_arrow(LEFT), empty,
        on="ts", by="k", right_on="rts", right_by="rk",
        value_cols=["ver", "price"], tiebreak="ver",
    ).to_pandas()
    assert len(out) == 6 and out["ver"].isna().all()

    from etl_pipeline_rdf_star_ray.stages.asof import range_join_broadcast

    iv = pa.table(
        {
            "lo": pa.array([], pa.int64()),
            "hi": pa.array([], pa.int64()),
            "bucket": pa.array([], pa.int64()),
        }
    )
    r = range_join_broadcast(
        rd.from_arrow(pa.table({"t": pa.array([1, 2], pa.int64())})),
        iv, on="t", by=None, lo="lo", hi="hi", attach=["bucket"],
    ).to_pandas()
    assert len(r) == 0  # inner join over empty intervals


def test_mismatched_timestamp_units_normalized(ray_session):
    """Right history in seconds vs left events in microseconds must compare
    on the time line, not on raw storage integers."""
    left = pa.table(
        {
            "eid": pa.array([1, 2], pa.int64()),
            "k": pa.array([1, 1], pa.int64()),
            "ts": pa.array([10_000_000, 30_000_000], pa.timestamp("us")),
        }
    )
    right = pa.table(
        {
            "rk": pa.array([1], pa.int64()),
            "rts": pa.array([20], pa.timestamp("s")),  # = 20s on the time line
            "ver": pa.array([7], pa.int64()),
        }
    )
    out = (
        asof_join_broadcast(
            rd.from_arrow(left), right,
            on="ts", by="k", right_on="rts", right_by="rk",
            value_cols=["ver"], tiebreak="ver",
        )
        .to_pandas()
        .sort_values("eid")
    )
    # event at 10s predates the 20s history row; event at 30s matches it
    assert out["ver"].isna().tolist() == [True, False]
    assert out["ver"].dropna().tolist() == [7.0]


def test_forward_asof_hand_case(ray_session):
    """direction='forward' attaches the EARLIEST right row at-or-after the
    left timestamp: exact-ts matches itself, a later event with no
    following history row gets null, keys never cross."""
    left = pa.table(
        {
            "eid": pa.array([0, 1, 2, 3], pa.int64()),
            "k": pa.array([1, 1, 1, 2], pa.int64()),
            "ts": pa.array([5, 20, 31, 5], pa.timestamp("s")),
        }
    )
    right = pa.table(
        {
            "rk": pa.array([1, 1, 2], pa.int64()),
            "rts": pa.array([10, 30, 50], pa.timestamp("s")),
            "ver": pa.array([7.0, 9.0, 4.0]),
        }
    )
    out = (
        asof_join_broadcast(
            rd.from_arrow(left), right,
            on="ts", by="k", right_on="rts", right_by="rk",
            value_cols=["ver"], tiebreak="ver", direction="forward",
        )
        .to_pandas()
        .sort_values("eid")
        .reset_index(drop=True)
    )
    # eid0 (5s) → next row 10s ver 7; eid1 (20s) → 30s ver 9;
    # eid2 (31s) → nothing after → null; eid3 (k2, 5s) → 50s ver 4
    import pandas as pd

    assert out["ver"].tolist()[:2] == [7.0, 9.0]
    assert pd.isna(out["ver"][2])
    assert out["ver"][3] == 4.0


def test_forward_asof_driver_row(ray_session):
    """Driver-identical comparison for the forward as-of driver query."""
    import sys

    sys.path.insert(0, "/root/repo/tests")
    from oracle_harness import run as oracle_run

    assert oracle_run("/root/testdata/sf0.001", ["asof_next_order"]) == 0


def test_forward_asof_null_right_ts_never_matches(ray_session):
    """Regression (third review pass): a right row with a NULL timestamp
    sorts to the end of its key slice as NaN and used to be matched by
    any left ts past the key's last real row — SQL's comparison can never
    match a NULL, so it must be dropped for BOTH directions."""
    import pandas as pd

    left = pa.table(
        {
            "eid": pa.array([0], pa.int64()),
            "k": pa.array([1], pa.int64()),
            "ts": pa.array([31], pa.timestamp("s")),
        }
    )
    right = pa.table(
        {
            "rk": pa.array([1, 1, 1], pa.int64()),
            "rts": pa.array([10, 30, None], pa.timestamp("s")),
            "ver": pa.array([7.0, 9.0, 5.0]),
        }
    )
    fwd = asof_join_broadcast(
        rd.from_arrow(left), right,
        on="ts", by="k", right_on="rts", right_by="rk",
        value_cols=["ver"], tiebreak="ver", direction="forward",
    ).to_pandas()
    assert pd.isna(fwd["ver"][0])  # nothing at/after 31s — NOT the NULL row
    bwd = asof_join_broadcast(
        rd.from_arrow(left), right,
        on="ts", by="k", right_on="rts", right_by="rk",
        value_cols=["ver"], tiebreak="ver",
    ).to_pandas()
    assert bwd["ver"][0] == 9.0  # latest REAL row at/before 31s
