"""Map-side-reduced arg-max (windows.argmax_rows): the distributed
``row_number() OVER (PARTITION BY … ORDER BY … NULLS LAST) = 1`` whose
exchange carries per-block group bests instead of every row. DuckDB parity
on hand-built multi-block frames (NULL keys, NULL order values, 2^53 ids,
mixed directions), block-count invariance, a direct check that the partial
reduce actually shrinks what the exchange moves, and the driver query vs
its oracle at sf0.001."""

import sys

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

sys.path.insert(0, "/root/repo/tests")
from oracle_harness import run as oracle_run

from etl_pipeline_rdf_star_ray.pipelines.windows import argmax_rows

SF = "/root/testdata/sf0.001"


def test_driver_query_matches_oracle():
    assert oracle_run(SF, ["latest_events"]) == 0


def _collect(ds) -> list:
    tabs = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    tbl = pa.concat_tables(tabs, promote_options="default")
    return sorted((sorted(r.items()) for r in tbl.to_pylist()), key=str)


def _oracle(tbl: pa.Table, part: str, order: str) -> list:
    con = duckdb.connect()
    con.register("t", tbl)
    got = con.sql(
        f"SELECT * FROM t QUALIFY row_number() OVER "
        f"(PARTITION BY {part} ORDER BY {order}) = 1"
    ).arrow()
    return sorted((sorted(r.items()) for r in got.to_pylist()), key=str)


def test_matches_sql_with_nulls_and_big_ints(ray_session):
    """NULL group key forms its own partition; NULL order values sort last
    on BOTH directions; ids beyond 2^53 keep exact identity."""
    tbl = pa.table(
        {
            "k": pa.array([1, 1, None, None, 2, 2, 2], pa.int64()),
            "v": pa.array([5, None, 3, 9, 2**53 + 1, 2**53 + 2, None], pa.int64()),
            "id": pa.array([10, 11, 12, 13, 14, 15, 16], pa.int64()),
        }
    )
    got = _collect(
        argmax_rows(
            rd.from_arrow(tbl).repartition(3),
            group_cols=["k"],
            order_by=["v", "id"],
            ascending=[False, False],
            num_shards=4,
        )
    )
    want = _oracle(tbl, "k", "v DESC NULLS LAST, id DESC NULLS LAST")
    assert got == want
    # the 2^53 pair must resolve to +2, not a float-aliased tie
    vals = {dict(r)["k"]: dict(r)["v"] for r in [dict(x) for x in got]}
    assert vals[2] == 2**53 + 2


def test_ascending_and_timestamps(ray_session):
    """ascending=True picks the earliest; timestamp[us] survives the two
    pandas round-trips (partial + shard) without unit drift."""
    tbl = pa.table(
        {
            "k": ["a", "a", "b", "b", "b"],
            "ts": pa.array([30, 10, 20, None, 5], pa.timestamp("us")),
            "id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        }
    )
    out_ds = argmax_rows(
        rd.from_arrow(tbl).repartition(2),
        group_cols=["k"],
        order_by=["ts", "id"],
        ascending=[True, True],
        num_shards=4,
    )
    tabs = [t for t in ray.get(out_ds.to_arrow_refs()) if t.num_rows]
    out = pa.concat_tables(tabs, promote_options="default")
    assert out.schema.field("ts").type == pa.timestamp("us")
    got = sorted((sorted(r.items()) for r in out.to_pylist()), key=str)
    assert got == _oracle(tbl, "k", "ts ASC NULLS LAST, id ASC NULLS LAST")


def test_block_count_invariance(ray_session):
    """Same result at 1, 3 and 11 input blocks (the partial reduce must be
    associative — block boundaries cannot change the answer)."""
    rng = np.random.default_rng(5)
    n = 300
    tbl = pa.table(
        {
            "k": pa.array(rng.integers(0, 25, n), pa.int64()),
            "v": pa.array(rng.integers(0, 50, n), pa.int64()),
            "id": pa.array(np.arange(n), pa.int64()),
        }
    )
    results = [
        _collect(
            argmax_rows(
                rd.from_arrow(tbl).repartition(b),
                group_cols=["k"],
                order_by=["v", "id"],
                ascending=[False, True],
                num_shards=8,
            )
        )
        for b in (1, 3, 11)
    ]
    assert results[0] == results[1] == results[2]
    assert results[0] == _oracle(tbl, "k", "v DESC NULLS LAST, id ASC NULLS LAST")


def test_partial_reduce_shrinks_exchange(ray_session):
    """The map-side reduce is real: with 1000 rows over 10 keys in 4
    blocks, the reduced dataset entering the exchange holds ≤ 40 rows."""
    rng = np.random.default_rng(9)
    n = 1000
    tbl = pa.table(
        {
            "k": pa.array(rng.integers(0, 10, n), pa.int64()),
            "v": pa.array(rng.integers(0, 10**6, n), pa.int64()),
            "id": pa.array(np.arange(n), pa.int64()),
        }
    )
    from etl_pipeline_rdf_star_ray.stages.exchange import pandas_block_apply

    def best(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["v", "id"], ascending=[False, True], kind="mergesort",
            na_position="last",
        )
        return df.drop_duplicates(subset=["k"], keep="first")

    reduced = (
        rd.from_arrow(tbl)
        .repartition(4)
        .map_batches(
            lambda b: pandas_block_apply(b, best),
            batch_format="pyarrow",
        )
    )
    assert reduced.count() <= 40
    got = _collect(
        argmax_rows(
            rd.from_arrow(tbl).repartition(4),
            group_cols=["k"],
            order_by=["v", "id"],
            ascending=[False, True],
            num_shards=8,
        )
    )
    assert len(got) == 10
    assert got == _oracle(tbl, "k", "v DESC NULLS LAST, id ASC NULLS LAST")
