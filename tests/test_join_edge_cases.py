"""Regression tests for the round-3 review findings: typed key hashing
(date32, mixed timestamp units, >=2^53 keys, null batches), null-group
window semantics, broadcast suffix restore, truncated-PNG fallback."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from etl_pipeline_rdf_star_ray.functions.hashing import key_hash_column
from etl_pipeline_rdf_star_ray.pipelines.windows import (
    rank_within_groups,
    running_totals,
)
from etl_pipeline_rdf_star_ray.stages.join import (
    hash_join_broadcast,
    hash_join_sharded,
)

BIG = 9007199254740993  # 2^53 + 1: not representable in float64


def test_key_hash_date32_and_time32():
    d = pa.array([18000, 18001, None], pa.date32())
    h = key_hash_column(d)
    assert len(h) == 3 and h[2] == 0 and h[0] != h[1]
    t = pa.array([1000, 2000], pa.time32("s"))
    assert len(key_hash_column(t)) == 2


def test_key_hash_batch_independent_above_2_53():
    clean = pa.array([BIG], pa.int64())
    with_null = pa.array([BIG, None], pa.int64())
    assert key_hash_column(clean)[0] == key_hash_column(with_null)[0]
    # uint64 keys >= 2^63 (simhash band hashes, md5 halves) hash their bits
    # instead of failing a checked cast to int64
    big_u = pa.array([2**63 + 1, 2**64 - 1], pa.uint64())
    big_u_null = pa.array([2**63 + 1, 2**64 - 1, None], pa.uint64())
    h = key_hash_column(big_u_null)
    assert list(key_hash_column(big_u)) == list(h[:2]) and h[2] == 0
    assert h[0] != h[1]


def test_group_key_hash_batch_independent_above_2_53():
    # shard_ids is the one routing rule of every sharded operator: a row's
    # shard must not depend on the other rows of its batch (a NULL floats
    # a numpy view of int64), on the string layout or on chunking
    from etl_pipeline_rdf_star_ray.functions.hashing import shard_ids

    s = ["a", "doc-b", "naïve-中文"]
    cases = [
        (pa.array([BIG, BIG + 2, 5], pa.int64()),
         pa.array([BIG, BIG + 2, 5, None], pa.int64())),
        (pa.array([2**63 + 1, 2**64 - 1], pa.uint64()),
         pa.array([2**63 + 1, 2**64 - 1, None], pa.uint64())),
        (pa.array(s, pa.string()), pa.array(s + [None], pa.large_string())),
        (pa.array(s, pa.string()), pa.array(s + [None]).dictionary_encode()),
        (pa.array([BIG, 7], pa.timestamp("us")),
         pa.chunked_array([pa.array([BIG], pa.timestamp("us")),
                           pa.array([7, None], pa.timestamp("us"))])),
        (pa.array([18000, 19000], pa.date32()),
         pa.array([18000, 19000, None], pa.date32())),
    ]
    tables = [(pa.table({"k": a}), pa.table({"k": b}), ["k"]) for a, b in cases]
    # two-column key: int64 with a NULL elsewhere in the batch + strings
    tables.append((
        pa.table({"k": pa.array([BIG, 1], pa.int64()), "s": s[:2]}),
        pa.table({
            "k": pa.array([BIG, 1, None], pa.int64()),
            "s": pa.array(s, pa.large_string()),
        }),
        ["k", "s"],
    ))
    for ta, tb, keys in tables:
        n = ta.num_rows
        for num_shards in (64, 2**31 - 1):
            a = shard_ids(ta, keys, num_shards).to_pylist()
            b = shard_ids(tb, keys, num_shards).to_pylist()
            assert a == b[:n], (keys, ta.schema, tb.schema)
            assert all(0 <= x < num_shards for x in b)


def test_running_totals_null_value_sql_semantics(ray_session):
    from etl_pipeline_rdf_star_ray.pipelines.windows import running_totals

    t = pa.table(
        {
            "k": pa.array([1, 1, 1, 2], pa.int64()),
            "o": pa.array([1, 2, 3, 1], pa.int64()),
            "v": pa.array([10, None, 20, None], pa.int64()),
        }
    )
    out = (
        running_totals(
            rd.from_arrow(t), key_cols=["k"], order_by=["o"], value_col="v",
            out_col="run",
        )
        .to_pandas()
        .sort_values(["k", "o"])
        .reset_index(drop=True)
    )
    # SQL SUM OVER: null contributes nothing, row carries prior running sum;
    # leading null -> NULL
    assert out["run"].tolist()[0] == 10
    assert out["run"].tolist()[1] == 10
    assert out["run"].tolist()[2] == 30
    assert pd.isna(out["run"].iloc[3])


def test_join_mixed_timestamp_units(ray_session):
    left = pa.table(
        {
            "k": pa.array([1_000_000, 2_000_000], pa.timestamp("us")),
            "lv": pa.array([1, 2], pa.int64()),
        }
    )
    right = pa.table(
        {
            "rk": pa.array([1_000, 2_000, 3_000], pa.timestamp("ms")),
            "rv": pa.array([10, 20, 30], pa.int64()),
        }
    )
    out = hash_join_sharded(
        rd.from_arrow(left), rd.from_arrow(right),
        on="k", right_on="rk", how="inner", num_shards=4,
    ).to_pandas()
    # same instants despite different units: both rows must join
    assert sorted(out["rv"].tolist()) == [10, 20]


def test_join_big_keys_with_null_in_same_shard(ray_session):
    # BIG and BIG-1 collide in float64; a null-key row forces the pandas
    # float path unless nulls are pre-split in Arrow
    left = pa.table(
        {
            "k": pa.array([BIG, BIG - 1, None], pa.int64()),
            "lv": pa.array([1, 2, 3], pa.int64()),
        }
    )
    right = pa.table(
        {
            "rk": pa.array([BIG], pa.int64()),
            "rv": pa.array([100], pa.int64()),
        }
    )
    out = hash_join_sharded(
        rd.from_arrow(left), rd.from_arrow(right),
        on="k", right_on="rk", how="left", num_shards=1,
    ).to_pandas()
    by_lv = out.set_index("lv")["rv"]
    assert by_lv[1] == 100  # exact BIG match
    assert pd.isna(by_lv[2])  # BIG-1 must NOT float-collide into a match
    assert pd.isna(by_lv[3])  # null key never matches


def test_rank_and_running_keep_null_groups(ray_session):
    t = pa.table(
        {
            "g": pa.array(["a", "a", None, None], pa.string()),
            "eid": pa.array([1, 2, 3, 4], pa.int64()),
            "v": pa.array([5, 6, 7, 8], pa.int64()),
        }
    )
    ranked = rank_within_groups(
        rd.from_arrow(t), group_cols=["g"], order_by=["v", "eid"],
        ascending=[False, True], k=1,
    ).to_pandas()
    # the NULL group is its own partition (SQL semantics): its top row stays
    assert len(ranked) == 2
    assert ranked["rn"].dtype == np.int64
    assert set(ranked["eid"]) == {2, 4}

    run = running_totals(
        rd.from_arrow(t), key_cols=["g"], order_by=["eid"], value_col="v",
        out_col="run",
    ).to_pandas().sort_values("eid")
    assert run["run"].tolist() == [5, 11, 7, 15]


def test_broadcast_native_suffix_column(ray_session):
    left = pa.table(
        {"k": pa.array([1, 2], pa.int64()), "lv": pa.array([1, 2], pa.int64())}
    )
    # right natively carries a column whose name ends with the suffix AND a
    # 'foo' of a different type — the restore must not cross-type them
    right = pa.table(
        {
            "k": pa.array([1, 2], pa.int64()),
            "foo": pa.array(["x", "y"], pa.string()),
            "foo_r": pa.array([10, 20], pa.int64()),
        }
    )
    out = hash_join_broadcast(rd.from_arrow(left), right, on="k", how="inner")
    types = dict(zip(out.schema().names, out.schema().types))
    assert types["foo"] == pa.string()
    assert types["foo_r"] == pa.int64()


def test_salting_more_buckets_than_shards_no_duplicates(ray_session):
    # salt_buckets (default 8) > num_shards=4 must not wrap replicas onto
    # the same shard and duplicate matches
    left = pa.table(
        {
            "k": pa.array([7] * 50 + list(range(50)), pa.int64()),
            "lv": pa.array(list(range(100)), pa.int64()),
        }
    )
    right = pa.table(
        {
            "rk": pa.array(list(range(51)), pa.int64()),
            "rv": pa.array([x * 2 for x in range(51)], pa.int64()),
        }
    )
    out = hash_join_sharded(
        rd.from_arrow(left), rd.from_arrow(right),
        on="k", right_on="rk", how="inner", num_shards=4,
        hot_keys=[7], salt_buckets=8,
    ).to_pandas()
    assert len(out) == 100  # one match per left row, no duplicates


def test_grouped_quantile_sketch_null_group(ray_session):
    from etl_pipeline_rdf_star_ray.functions.qsketch import (
        grouped_quantile_sketch,
    )

    t = pa.table(
        {
            "g": pa.array(["a"] * 50 + [None] * 50, pa.string()),
            "x": pa.array(
                [float(i) for i in range(50)] + [float(100 + i) for i in range(50)],
                pa.float64(),
            ),
        }
    )
    out = grouped_quantile_sketch(
        rd.from_arrow(t), "g", "x", B=64, quantiles=(0.5,)
    ).to_pandas()
    # the null group is kept as its own partition with its own quantiles
    assert len(out) == 2
    med_null = out[out["g"].isna()]["value"].iloc[0]
    assert 120 <= med_null <= 130
    med_a = out[out["g"] == "a"]["value"].iloc[0]
    assert 20 <= med_a <= 30


def test_rolling_all_null_window_is_null(ray_session):
    from etl_pipeline_rdf_star_ray.pipelines.windows import rolling_window_sum

    t = pa.table(
        {
            "k": pa.array([1, 1, 1], pa.int64()),
            "o": pa.array([1, 2, 3], pa.int64()),
            "v": pa.array([None, 5, 7], pa.int64()),
        }
    )
    out = (
        rolling_window_sum(
            rd.from_arrow(t), key_cols=["k"], order_by=["o"], value_col="v",
            window=2, out_col="r",
        )
        .to_pandas()
        .sort_values("o")
    )
    # first window is all-null -> NULL (SQL SUM semantics), not INT64_MIN
    assert pd.isna(out["r"].iloc[0])
    assert out["r"].iloc[1] == 5 and out["r"].iloc[2] == 12


def test_frame_sample_truncated_png_fake_fallback():
    import pytest

    from etl_pipeline_rdf_star_ray.functions import png as p
    from etl_pipeline_rdf_star_ray.pipelines import multimodal as mm

    truncated = p.PNG_MAGIC + b"\x00\x00\x00\x0dIHDR"  # cut mid-chunk
    # a frame whose IHDR declares length 0: split succeeds, png_dims hits
    # struct.unpack of empty bytes (struct.error, NOT a ValueError)
    import struct as _struct
    import zlib as _zlib

    def chunk(ctype, body):
        crc = _zlib.crc32(ctype + body) & 0xFFFFFFFF
        return (
            _struct.pack(">I", len(body)) + ctype + body + _struct.pack(">I", crc)
        )

    bad_ihdr = p.PNG_MAGIC + chunk(b"IHDR", b"") + chunk(b"IEND", b"")
    for payload in (truncated, bad_ihdr):
        batch = pa.table(
            {
                "media_id": pa.array([1], pa.int64()),
                "payload": pa.array([payload], pa.binary()),
            }
        )
        # permissive mode: never raises, emits deterministic fake frames
        out = mm.FrameSampleStage(stride=3, allow_fake=True)(batch)
        assert out.num_rows >= 1
        # strict mode: the parse error surfaces
        with pytest.raises((ValueError, _struct.error)):
            mm.FrameSampleStage(stride=3, allow_fake=False)(batch)


def test_bloom_prefilter_parity_and_reduction(ray_session):
    """Bloom semi-join pushdown: inner/semi/right results are IDENTICAL
    with and without the prefilter (no false negatives by construction;
    false positives die in the shard merge), the prefiltered left is a
    small superset of the matchable rows, and invalid configurations are
    rejected."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from etl_pipeline_rdf_star_ray.stages.join import (
        bloom_filter_left,
        hash_join_sharded,
    )

    rng = np.random.default_rng(17)
    n_left = 5000
    # left keys 0..999, right matches only keys 0..49 → ~95% of left rows
    # cannot match and should vanish before the exchange
    lk = rng.integers(0, 1000, n_left).astype(np.int64)
    lk[rng.random(n_left) < 0.01] = -1  # sentinel for null
    left = pa.table(
        {
            "k": pa.array([None if v == -1 else int(v) for v in lk], pa.int64()),
            "lv": pa.array(np.arange(n_left), pa.int64()),
        }
    )
    right = pa.table(
        {
            "k": pa.array(rng.integers(0, 50, 300), pa.int64()),
            "rv": pa.array(np.arange(300), pa.int64()),
        }
    )
    lds = rd.from_arrow(left).repartition(4)
    rds = rd.from_arrow(right).repartition(3)

    filtered, _right_mat = bloom_filter_left(lds, rds, on="k")
    n_filtered = filtered.count()
    n_matchable = sum(1 for v in lk if 0 <= v < 50)
    assert n_matchable <= n_filtered <= n_matchable + 0.05 * n_left

    for how in ("inner", "semi", "right"):
        base = hash_join_sharded(
            rd.from_arrow(left).repartition(4),
            rd.from_arrow(right).repartition(3),
            on="k", how=how, num_shards=8,
        ).to_pandas()
        fast = hash_join_sharded(
            rd.from_arrow(left).repartition(4),
            rd.from_arrow(right).repartition(3),
            on="k", how=how, num_shards=8, bloom_prefilter=True,
        ).to_pandas()
        key = lambda d: sorted(map(tuple, d.astype(str).values.tolist()))
        assert key(base) == key(fast), how

    import pytest as _pytest

    with _pytest.raises(ValueError, match="inner/semi/right"):
        hash_join_sharded(lds, rds, on="k", how="left", bloom_prefilter=True)
    with _pytest.raises(ValueError, match="single-column"):
        hash_join_sharded(
            lds.map_batches(lambda b: b.append_column("k2", b.column("k")),
                            batch_format="pyarrow"),
            rds.map_batches(lambda b: b.append_column("k2", b.column("k")),
                            batch_format="pyarrow"),
            on=["k", "k2"], how="inner", bloom_prefilter=True,
        )


def test_bloom_prefilter_fully_empty_left(ray_session):
    """Regression (r4 advice): a fully-EMPTY left dataset reports
    schema() None (Ray quirk), which used to crash bloom_filter_left's
    key-type inference with AttributeError. The prefilter must short-circuit
    and the join must return the correct (empty / right-null) result."""
    import pyarrow as pa
    import ray.data as rd

    from etl_pipeline_rdf_star_ray.stages.join import (
        bloom_filter_left,
        hash_join_sharded,
    )

    empty_left = rd.from_arrow(
        pa.table({"k": pa.array([], pa.int64()), "lv": pa.array([], pa.int64())})
    ).filter(lambda r: False)
    assert empty_left.schema() is None  # the quirk under test
    right = rd.from_arrow(
        pa.table({"k": pa.array([1, 2], pa.int64()),
                  "rv": pa.array([10, 20], pa.int64())})
    )

    fl, _r = bloom_filter_left(empty_left, right, on="k")
    assert fl.count() == 0

    def _mk_empty():
        return rd.from_arrow(
            pa.table({"k": pa.array([], pa.int64()),
                      "lv": pa.array([], pa.int64())})
        ).filter(lambda r: False)

    for how, want in (("inner", 0), ("semi", 0), ("right", 2)):
        out = hash_join_sharded(
            _mk_empty(), right, on="k", how=how, num_shards=4,
            bloom_prefilter=True,
        )
        assert out.count() == want, how


def test_interval_join_band_edges_and_buckets(ray_session):
    """Round-5 keyed interval join: hand table pinning the half-open band
    [lo, lo+width), bucket-boundary crossing (match found when ts and lo
    fall in different width-buckets), NULL key/ts exclusion, and
    exactly-once output despite the 2-bucket right replication."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from etl_pipeline_rdf_star_ray.stages.rangejoin import interval_join_sharded

    W = 100  # width_us
    left = pa.table(
        {
            "lid": pa.array([0, 1, 2, 3, 4, 5], pa.int64()),
            "k": pa.array([1, 1, 1, 2, None, 1], pa.int64()),
            "ts": pa.array([100, 199, 200, 150, 150, None], pa.int64()),
        }
    )
    right = pa.table(
        {
            "rid": pa.array([10, 11, 12, 13], pa.int64()),
            "rk": pa.array([1, 1, 2, None], pa.int64()),
            "lo": pa.array([100, 150, 150, 150], pa.int64()),
        }
    )
    got = (
        interval_join_sharded(
            rd.from_arrow(left),
            rd.from_arrow(right),
            on="k",
            right_on="rk",
            ts_col="ts",
            lo_col="lo",
            width_us=W,
            num_shards=4,
        )
        .to_pandas()
        .sort_values(["lid", "rid"])
        .reset_index(drop=True)
    )
    # window [100,200): ts=100 in, ts=199 in, ts=200 OUT (half-open)
    # window [150,250): ts=199 in (bucket of 199 is 1, bucket of 150 is 1),
    #   ts=200 in (bucket 2 vs lo bucket 1 — crosses the bucket boundary)
    # k=2: ts=150 in [150,250)
    # NULL key (lid 4 / rid 13) and NULL ts (lid 5) never match
    pairs = list(zip(got["lid"], got["rid"]))
    assert pairs == [(0, 10), (1, 10), (1, 11), (2, 11), (3, 12)]
    assert got["lo"].tolist() == [100, 100, 150, 150, 150]


def test_interval_join_oracle_and_empty_sides(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from oracle_harness import run as oracle_run
    from etl_pipeline_rdf_star_ray.stages.rangejoin import interval_join_sharded

    assert oracle_run("/root/testdata/sf0.001", ["interval_view_purchase"]) == 0

    empty = rd.from_arrow(
        pa.table({"lid": pa.array([], pa.int64()), "k": pa.array([], pa.int64()),
                  "ts": pa.array([], pa.int64())})
    ).filter(lambda r: False)
    right = rd.from_arrow(
        pa.table({"rid": pa.array([1], pa.int64()), "rk": pa.array([1], pa.int64()),
                  "lo": pa.array([0], pa.int64())})
    )
    out = interval_join_sharded(
        empty, right, on="k", right_on="rk", ts_col="ts", lo_col="lo",
        width_us=10,
    )
    assert out.count() == 0


def _session_events() -> tuple[pa.Table, pa.Table]:
    """Two event blocks for user 2^53+1; only the first also holds a NULL
    user (whose two events are 45 minutes apart: two sessions)."""
    ts = pa.timestamp("us")
    hour = 3_600_000_000
    t1 = pa.table({
        "user_id": pa.array([BIG, None, None, 5], pa.int64()),
        "ts": pa.array([0, 0, 3 * hour // 4, hour], ts),
        "event_id": pa.array([1, 2, 3, 4], pa.int64()),
    })
    t2 = pa.table({
        "user_id": pa.array([BIG, BIG, 5], pa.int64()),
        "ts": pa.array([hour // 6, 2 * hour, 2 * hour], ts),
        "event_id": pa.array([5, 6, 7], pa.int64()),
    })
    return t1, t2


def test_user_sessions_null_user_and_big_id_match_oracle(tmp_path):
    # ORACLE_SESSIONS partitions by user_id, so the NULL user is one user;
    # user 2^53+1 has events in both files and must come back as one row
    import duckdb
    import pyarrow.parquet as pq

    from etl_pipeline_rdf_star_ray.pipelines.analytics import user_sessions
    from etl_pipeline_rdf_star_ray.queries import ORACLE_SESSIONS

    events = tmp_path / "events.parquet"
    events.mkdir()
    t1, t2 = _session_events()
    pq.write_table(t1, events / "part-0.parquet")
    pq.write_table(t2, events / "part-1.parquet")
    got = sorted(
        ((r["user_id"], r["n_events"], r["n_sessions"])
         for r in user_sessions(str(tmp_path), num_shards=64).take_all()),
        key=str,
    )
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{events}/*.parquet'")
    want = sorted(con.sql(ORACLE_SESSIONS).fetchall(), key=str)
    assert got == want
    assert (None, 2, 2) in got and (BIG, 3, 2) in got


def test_sharded_groups_big_user_once_across_null_block():
    # a raw ``user_id.to_numpy()`` shard key floats the block holding the
    # NULL, so user 2^53+1 would land in two shards (two rows, n=1 and
    # n=2); routing by column name hashes the exact int64 in both blocks
    from etl_pipeline_rdf_star_ray.stages.exchange import sharded_groups

    t1, t2 = _session_events()
    out = sharded_groups(
        rd.from_arrow([t1, t2]),
        ["user_id"],
        lambda s: s.groupby("user_id", sort=False, dropna=False)
        .size()
        .reset_index(name="n"),
        num_shards=64,
    ).take_all()
    assert sorted(((r["user_id"], r["n"]) for r in out), key=str) == [
        (5, 2), (BIG, 3), (None, 2)
    ]
