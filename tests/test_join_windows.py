"""General equi-join (stages/join.py) and grouped-window operators
(pipelines/windows.py): hand-computed semantics vs DuckDB on small frames —
inner/left/right/outer, SQL null-key semantics, name collisions, rank ties,
running totals, stratified quotas."""

import duckdb
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from etl_pipeline_rdf_star_ray.pipelines.windows import (
    rank_within_groups,
    running_totals,
    stratified_sample,
)
from etl_pipeline_rdf_star_ray.stages.join import (
    hash_join_broadcast,
    hash_join_sharded,
)

LEFT = pa.table(
    {
        "k": pa.array([1, 1, 2, 3, None, 5], pa.int64()),
        "lv": pa.array([10, 11, 20, 30, 40, 50], pa.int64()),
        "name": pa.array(["a", "b", "c", "d", "e", "f"], pa.string()),
    }
)
# key 1 matches twice on the right (fan-out), key 2 once, key 3 missing,
# null keys on both sides must never match, key 9 is right-only
RIGHT = pa.table(
    {
        "rk": pa.array([1, 1, 2, None, 9], pa.int64()),
        "rv": pa.array([100, 101, 200, 300, 900], pa.int64()),
        "name": pa.array(["x", "y", "z", "n", "w"], pa.string()),
    }
)


def _sql(how: str) -> pd.DataFrame:
    con = duckdb.connect()
    con.register("l", LEFT.to_pandas())
    con.register("r", RIGHT.to_pandas())
    join_kw = {"inner": "JOIN", "left": "LEFT JOIN", "right": "RIGHT JOIN",
               "outer": "FULL OUTER JOIN"}[how]
    return con.execute(
        f"""SELECT COALESCE(l.k, r.rk) AS k, l.lv, l.name AS name,
                   r.rv, r.name AS name_r
            FROM l {join_kw} r ON l.k = r.rk"""
    ).fetchdf()


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        df[c] = df[c].astype("object").where(df[c].notna(), None)
    return df.sort_values(
        list(df.columns), key=lambda s: s.map(lambda v: (v is None, v))
    ).reset_index(drop=True)


@pytest.mark.parametrize("how", ["inner", "left", "right", "outer"])
def test_sharded_join_matches_sql(ray_session, how):
    got = hash_join_sharded(
        rd.from_arrow(LEFT), rd.from_arrow(RIGHT),
        on="k", right_on="rk", how=how, num_shards=4,
    ).to_pandas()
    # unified key column: the sharded join exposes the right key under the
    # left name — mirror COALESCE(l.k, r.rk) from the SQL
    want = _sql(how).rename(columns={"rk": "k"})
    pd.testing.assert_frame_equal(_norm(got), _norm(want), check_dtype=False)


def test_sharded_semi_anti_join(ray_session):
    semi = hash_join_sharded(
        rd.from_arrow(LEFT), rd.from_arrow(RIGHT),
        on="k", right_on="rk", how="semi", num_shards=4,
    ).to_pandas()
    anti = hash_join_sharded(
        rd.from_arrow(LEFT), rd.from_arrow(RIGHT),
        on="k", right_on="rk", how="anti", num_shards=4,
    ).to_pandas()
    # semi: left rows whose key exists on the right (no fan-out, left cols only)
    assert sorted(semi["lv"].tolist()) == [10, 11, 20]
    assert sorted(semi.columns) == sorted(LEFT.column_names)
    # anti = NOT EXISTS: unmatched keys AND the null-key left row survive
    assert sorted(anti["lv"].tolist()) == [30, 40, 50]
    # partition: every left row in exactly one of semi/anti
    assert len(semi) + len(anti) == LEFT.num_rows


def test_sharded_join_hot_key_salting(ray_session):
    """A skewed key joined with and without salting gives identical output;
    salting spreads the hot key's left rows over salt_buckets shards and
    replicates its right rows into each."""
    import numpy as np

    rng = np.random.default_rng(13)
    n = 5_000
    # 60% of left rows share key 7 (the hot key)
    keys = np.where(rng.uniform(size=n) < 0.6, 7, rng.integers(0, 200, n))
    left = pa.table(
        {
            "k": pa.array(keys, pa.int64()),
            "lv": pa.array(np.arange(n), pa.int64()),
        }
    )
    right = pa.table(
        {
            "rk": pa.array(list(range(200)), pa.int64()),
            "rv": pa.array([x * 10 for x in range(200)], pa.int64()),
        }
    )
    plain = hash_join_sharded(
        rd.from_arrow(left), rd.from_arrow(right),
        on="k", right_on="rk", how="inner", num_shards=8,
    ).to_pandas()
    salted = hash_join_sharded(
        rd.from_arrow(left), rd.from_arrow(right),
        on="k", right_on="rk", how="inner", num_shards=8,
        hot_keys=[7], salt_buckets=4,
    ).to_pandas()
    pd.testing.assert_frame_equal(_norm(plain), _norm(salted))
    # semi/anti under salting too
    s = hash_join_sharded(
        rd.from_arrow(left), rd.from_arrow(right),
        on="k", right_on="rk", how="anti", num_shards=8,
        hot_keys=[7], salt_buckets=4,
    ).to_pandas()
    assert len(s) == 0  # every key 0..199 exists on the right
    import pytest

    with pytest.raises(ValueError):
        hash_join_sharded(
            rd.from_arrow(left), rd.from_arrow(right),
            on="k", right_on="rk", how="outer", hot_keys=[7],
        )
    # auto-detection finds the 60% key and gives identical output
    from etl_pipeline_rdf_star_ray.stages.join import detect_hot_join_keys

    assert detect_hot_join_keys(rd.from_arrow(left), "k", num_shards=8) == [7]
    auto = hash_join_sharded(
        rd.from_arrow(left), rd.from_arrow(right),
        on="k", right_on="rk", how="inner", num_shards=8, hot_keys="auto",
    ).to_pandas()
    pd.testing.assert_frame_equal(_norm(plain), _norm(auto))


def test_sharded_join_schema_stays_typed(ray_session):
    out = hash_join_sharded(
        rd.from_arrow(LEFT), rd.from_arrow(RIGHT),
        on="k", right_on="rk", how="left", num_shards=4,
    )
    sch = out.schema()
    types = dict(zip(sch.names, sch.types))
    # unmatched rows introduce nulls, but int columns must stay int64
    assert types["rv"] == pa.int64()
    assert types["lv"] == pa.int64()


def test_composite_key_join(ray_session):
    left = pa.table(
        {
            "a": pa.array([1, 1, 2, 2, None], pa.int64()),
            "b": pa.array(["x", "y", "x", None, "x"], pa.string()),
            "lv": pa.array([10, 11, 20, 21, 30], pa.int64()),
        }
    )
    right = pa.table(
        {
            "ra": pa.array([1, 2, 1], pa.int64()),
            "rb": pa.array(["x", "x", "z"], pa.string()),
            "rv": pa.array([100, 200, 300], pa.int64()),
        }
    )
    got = hash_join_sharded(
        rd.from_arrow(left), rd.from_arrow(right),
        on=["a", "b"], right_on=["ra", "rb"], how="left", num_shards=4,
    ).to_pandas()
    by_lv = got.set_index("lv")["rv"]
    assert by_lv[10] == 100 and by_lv[20] == 200
    # (1,'y') unmatched; any-null key components never match
    assert pd.isna(by_lv[11]) and pd.isna(by_lv[21]) and pd.isna(by_lv[30])
    # semi/anti on composite keys
    semi = hash_join_sharded(
        rd.from_arrow(left), rd.from_arrow(right),
        on=["a", "b"], right_on=["ra", "rb"], how="semi", num_shards=4,
    ).to_pandas()
    assert sorted(semi["lv"]) == [10, 20]
    anti = hash_join_sharded(
        rd.from_arrow(left), rd.from_arrow(right),
        on=["a", "b"], right_on=["ra", "rb"], how="anti", num_shards=4,
    ).to_pandas()
    assert sorted(anti["lv"]) == [11, 21, 30]


def test_broadcast_join_matches_sharded(ray_session):
    for how in ("inner", "left"):
        a = hash_join_broadcast(
            rd.from_arrow(LEFT), RIGHT, on="k", right_on="rk", how=how
        ).to_pandas()
        b = hash_join_sharded(
            rd.from_arrow(LEFT), rd.from_arrow(RIGHT),
            on="k", right_on="rk", how=how, num_shards=4,
        ).to_pandas()
        # broadcast keeps both key columns (pandas merge) — align on the
        # shared ones
        a = a.drop(columns=["rk"])
        pd.testing.assert_frame_equal(_norm(a), _norm(b), check_dtype=False)


EVENTS = pa.table(
    {
        "eid": pa.array(list(range(8)), pa.int64()),
        "g": pa.array(["a", "a", "a", "a", "b", "b", "b", "b"], pa.string()),
        "v": pa.array([5.0, 5.0, 3.0, 9.0, 1.0, 2.0, 2.0, 0.5], pa.float64()),
    }
)


def test_rank_within_groups_ties_and_k(ray_session):
    got = (
        rank_within_groups(
            rd.from_arrow(EVENTS),
            group_cols=["g"], order_by=["v", "eid"],
            ascending=[False, True], k=2,
        )
        .to_pandas()
        .sort_values(["g", "rn"])
        .reset_index(drop=True)
    )
    # group a: v=9 (eid 3) then the v=5 TIE broken by eid → eid 0
    # group b: v=2 tie broken by eid → eids 5 then 6
    assert got["eid"].tolist() == [3, 0, 5, 6]
    assert got["rn"].tolist() == [1, 2, 1, 2]


def test_running_totals_matches_window_sql(ray_session):
    t = pa.table(
        {
            "k": pa.array([1, 1, 1, 2, 2], pa.int64()),
            "o": pa.array([3, 1, 2, 1, 2], pa.int64()),
            "v": pa.array([10, 1, 100, 7, 8], pa.int64()),
        }
    )
    got = (
        running_totals(
            rd.from_arrow(t), key_cols=["k"], order_by=["o"],
            value_col="v", out_col="run",
        )
        .to_pandas()
        .sort_values(["k", "o"])
        .reset_index(drop=True)
    )
    assert got["run"].tolist() == [1, 101, 111, 7, 15]


def test_running_totals_exact_beyond_2_53(ray_session):
    """Int64 running sums above 2^53 (where float64 loses integers) must
    stay exact, including on null-bearing shards (ADVICE r3: the cumsum
    used to route through float64)."""
    big = 2**60
    t = pa.table(
        {
            "k": pa.array([1, 1, 1, 1], pa.int64()),
            "o": pa.array([1, 2, 3, 4], pa.int64()),
            "v": pa.array([big, 3, None, 5], pa.int64()),
        }
    )
    got = (
        running_totals(
            rd.from_arrow(t), key_cols=["k"], order_by=["o"],
            value_col="v", out_col="run",
        )
        .to_pandas()
        .sort_values("o")
        .reset_index(drop=True)
    )
    # float64 would render big+3 as big+4 or big+2; exact Int64 must not
    assert got["run"].tolist() == [big, big + 3, big + 3, big + 8]


def test_running_totals_exact_beyond_2_53_odd_value_with_nulls(ray_session):
    """Review r4: a null-bearing int64 shard used to float through
    to_pandas BEFORE the Int64 cumsum, silently rounding odd values at
    2^53+1. The shard plane's nullable-int conversion must keep them exact."""
    odd = 2**53 + 1  # not representable in float64 (rounds to 2^53)
    t = pa.table(
        {
            "k": pa.array([1, 1, 1], pa.int64()),
            "o": pa.array([1, 2, 3], pa.int64()),
            "v": pa.array([odd, None, 2], pa.int64()),
        }
    )
    import ray

    out = running_totals(
        rd.from_arrow(t), key_cols=["k"], order_by=["o"],
        value_col="v", out_col="run",
    )
    # read back as ARROW: pandas would itself float the null-bearing int64
    # columns and mask the very exactness under test
    tbl = pa.concat_tables(ray.get(out.to_arrow_refs())).sort_by("o")
    assert tbl.column("run").to_pylist() == [odd, odd, odd + 2]
    assert tbl.column("v").to_pylist()[0] == odd  # value column survived too


def test_rolling_sum_exact_beyond_2_53_and_null_windows(ray_session):
    """Rolling sums share the precision class: cumsum-difference on Int64
    must stay exact beyond 2^53 and keep SQL null semantics (all-null
    window → NULL, partial windows truncated at partition start)."""
    from etl_pipeline_rdf_star_ray.pipelines.windows import rolling_window_sum

    odd = 2**53 + 1
    t = pa.table(
        {
            "k": pa.array([1, 1, 1, 1, 2, 2], pa.int64()),
            "o": pa.array([1, 2, 3, 4, 1, 2], pa.int64()),
            "v": pa.array([odd, 2, None, 4, None, None], pa.int64()),
        }
    )
    import ray

    out = rolling_window_sum(
        rd.from_arrow(t), key_cols=["k"], order_by=["o"],
        value_col="v", window=2, out_col="roll",
    )
    tbl = pa.concat_tables(ray.get(out.to_arrow_refs())).sort_by(
        [("k", "ascending"), ("o", "ascending")]
    )
    vals = tbl.column("roll").to_pylist()
    # k=1: [odd], [odd+2], [2+null→2], [null+4→4]; k=2 all-null windows → NULL
    assert vals[:4] == [odd, odd + 2, 2, 4]
    assert vals[4] is None or pd.isna(vals[4])
    assert vals[5] is None or pd.isna(vals[5])
    # cross-check against the SQL window oracle
    con = duckdb.connect()
    con.register("t", t.to_pandas().assign(v=pd.array(
        [odd, 2, None, 4, None, None], dtype="Int64")))
    # Arrow readback + BIGINT cast: DuckDB sums BIGINT into HUGEINT and
    # fetchdf() would float it — the same precision trap under test
    want = con.execute(
        """SELECT CAST(SUM(v) OVER (PARTITION BY k ORDER BY o
             ROWS BETWEEN 1 PRECEDING AND CURRENT ROW) AS BIGINT) AS roll
           FROM t ORDER BY k, o"""
    ).arrow().column("roll").to_pylist()
    assert vals == want


def test_hot_key_salting_float_colliding_bigint_keys(ray_session):
    """Two DISTINCT hot int64 keys that collide in float64 (2^53 and
    2^53+1) on a null-bearing key column: the per-hot-key mask must match
    each key exactly, not via a floated numpy view that would re-offset the
    second key's rows out of the replica range (ADVICE r3)."""
    hk_a, hk_b = 2**53, 2**53 + 1
    assert float(hk_a) == float(hk_b)  # the collision under test
    left = pa.table(
        {
            "k": pa.array([hk_a] * 30 + [hk_b] * 30 + [None, 5], pa.int64()),
            "lv": pa.array(list(range(62)), pa.int64()),
        }
    )
    right = pa.table(
        {
            "rk": pa.array([hk_a, hk_b, 5], pa.int64()),
            "rv": pa.array([1, 2, 3], pa.int64()),
        }
    )
    plain = hash_join_sharded(
        rd.from_arrow(left), rd.from_arrow(right),
        on="k", right_on="rk", how="inner", num_shards=8,
    ).to_pandas()
    salted = hash_join_sharded(
        rd.from_arrow(left), rd.from_arrow(right),
        on="k", right_on="rk", how="inner", num_shards=8,
        hot_keys=[hk_a, hk_b], salt_buckets=4,
    ).to_pandas()
    assert len(salted) == 61  # 30 + 30 matches + key 5, none dropped
    pd.testing.assert_frame_equal(_norm(plain), _norm(salted))


def test_stratified_sample_quota_and_determinism(ray_session):
    docs = pa.table(
        {
            "doc_id": pa.array(list(range(40)), pa.int64()),
            "lang": pa.array(["en", "de"] * 20, pa.string()),
        }
    )
    a = stratified_sample(
        rd.from_arrow(docs), stratum_cols=["lang"], id_col="doc_id",
        n_per_stratum=3,
    ).to_pandas()
    assert a.groupby("lang").size().tolist() == [3, 3]
    con = duckdb.connect()
    con.register("docs", docs.to_pandas())
    want = con.execute(
        """SELECT doc_id, lang FROM (
             SELECT doc_id, lang, row_number() OVER (
               PARTITION BY lang
               ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) AS rn
             FROM docs) WHERE rn <= 3"""
    ).fetchdf()
    pd.testing.assert_frame_equal(_norm(a), _norm(want), check_dtype=False)


def test_mixture_sample_quotas_null_and_short_sources(ray_session):
    """Per-source quotas: capped sources keep exactly their quota of
    lowest-md5 ids, short sources keep everything, sources outside the
    recipe (and NULL) are dropped — matching the QUALIFY CASE oracle."""
    from etl_pipeline_rdf_star_ray.pipelines.windows import mixture_sample

    docs = pa.table(
        {
            "doc_id": pa.array(list(range(30)), pa.int64()),
            "lang": pa.array(
                ["en"] * 12 + ["de"] * 2 + ["zz"] * 10 + [None] * 6,
                pa.string(),
            ),
        }
    )
    got = mixture_sample(
        rd.from_arrow(docs), source_col="lang", id_col="doc_id",
        quotas={"en": 5, "de": 7},
    ).to_pandas()
    assert got.groupby("lang").size().to_dict() == {"en": 5, "de": 2}
    con = duckdb.connect()
    con.register("docs", docs.to_pandas())
    want = con.execute(
        """SELECT * FROM docs QUALIFY row_number() OVER (
             PARTITION BY lang
             ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id)
           <= CASE lang WHEN 'en' THEN 5 WHEN 'de' THEN 7 ELSE 0 END"""
    ).fetchdf()
    pd.testing.assert_frame_equal(_norm(got), _norm(want), check_dtype=False)


def test_mixture_sample_validates_quotas(ray_session):
    from etl_pipeline_rdf_star_ray.pipelines.windows import mixture_sample

    ds = rd.from_arrow(pa.table({"doc_id": [1], "lang": ["en"]}))
    with pytest.raises(ValueError):
        mixture_sample(ds, source_col="lang", id_col="doc_id", quotas={})
    with pytest.raises(ValueError):
        mixture_sample(
            ds, source_col="lang", id_col="doc_id", quotas={"en": -1}
        )


def test_ntile_global_matches_duckdb(ray_session):
    import numpy as np
    """Global ntile over composite keys with nulls and ties: exact SQL
    semantics (first N%n buckets get the extra row, NULLS LAST, 1-based)
    at several bucket counts including n > N."""
    import duckdb

    from etl_pipeline_rdf_star_ray.pipelines.windows import ntile_global

    rng = np.random.default_rng(13)
    m = 1000
    k = [None if rng.random() < 0.05 else int(x)
         for x in rng.integers(0, 50, m)]
    df = pd.DataFrame(
        {"k": pd.array(k, dtype="Int64"),
         "id": np.arange(m, dtype=np.int64)}
    )
    con = duckdb.connect()
    con.register("t", df)
    for n in (1, 3, 10, 1500):
        got = (
            ntile_global(
                rd.from_pandas(df).repartition(5), keys=["k", "id"], n=n,
                num_shards=7,
            )
            .to_pandas()
            .sort_values("id")
            .reset_index(drop=True)
        )
        want = con.execute(
            f"SELECT k, id, ntile({n}) OVER (ORDER BY k, id) AS bucket "
            "FROM t ORDER BY id"
        ).df()
        pd.testing.assert_frame_equal(
            got[["k", "id", "bucket"]], want, check_dtype=False
        )


def test_ntile_global_shard_invariance_and_validation(ray_session):
    import numpy as np
    from etl_pipeline_rdf_star_ray.pipelines.windows import ntile_global

    df = pd.DataFrame(
        {"k": np.arange(97, dtype=np.int64) % 13,
         "id": np.arange(97, dtype=np.int64)}
    )
    ref = None
    for shards, blocks in [(1, 1), (5, 3), (19, 6)]:
        got = (
            ntile_global(
                rd.from_pandas(df).repartition(blocks), keys=["k", "id"],
                n=7, num_shards=shards,
            )
            .to_pandas()
            .sort_values("id")
            .reset_index(drop=True)
        )
        if ref is None:
            ref = got
        else:
            pd.testing.assert_frame_equal(got, ref)
    with pytest.raises(ValueError, match="n must be positive"):
        ntile_global(rd.from_pandas(df), keys=["k"], n=0)
    with pytest.raises(ValueError, match="order key"):
        ntile_global(rd.from_pandas(df), keys=[], n=4)


def test_rank_methods_match_duckdb(ray_session):
    """rank() and dense_rank() vs DuckDB on random tie-heavy data with
    NULL order values and NULL group keys: tied rows share the rank, every
    tied row survives the <= k QUALIFY, rank jumps past runs while
    dense_rank stays consecutive."""
    import duckdb
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from etl_pipeline_rdf_star_ray.pipelines.windows import rank_within_groups

    rng = np.random.default_rng(41)
    n = 400
    tbl = pa.table(
        {
            "g": pa.array(
                [None if rng.random() < 0.1 else int(v)
                 for v in rng.integers(0, 12, n)],
                pa.int64(),
            ),
            # tiny value domain → heavy ties; ~15% null order values
            "v": pa.array(
                [None if rng.random() < 0.15 else int(x)
                 for x in rng.integers(0, 5, n)],
                pa.int64(),
            ),
            "rid": pa.array(np.arange(n), pa.int64()),
        }
    )
    con = duckdb.connect()
    con.register("t", tbl)
    for method, fn in (("rank", "rank"), ("dense_rank", "dense_rank")):
        got = (
            rank_within_groups(
                rd.from_arrow(tbl).repartition(5),
                group_cols=["g"],
                order_by=["v"],
                ascending=[True],
                k=3,
                rank_col="r",
                method=method,
            )
            .to_pandas()
            .sort_values(["g", "v", "rid"])
            .reset_index(drop=True)
        )
        want = con.sql(
            f"""SELECT g, v, rid,
                  {fn}() OVER (PARTITION BY g ORDER BY v NULLS LAST)::BIGINT
                    AS r
                FROM t QUALIFY r <= 3
                ORDER BY g, v, rid"""
        ).df()
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
        # the tie semantics are live: some rank value appears >1× per group
        dup = got.groupby(["g", "r"], dropna=False).size()
        assert (dup > 1).any(), method

    import pytest as _pytest

    with _pytest.raises(ValueError, match="unknown rank method"):
        rank_within_groups(
            rd.from_arrow(tbl), group_cols=["g"], order_by=["v"],
            ascending=[True], k=1, method="percent_rank",
        )


def test_offset_window_matches_duckdb(ray_session):
    """lead/lag/first_value/last_value vs the SQL window functions on a
    frame with a NULL group key, NULL order values, and NULL payloads in
    the boundary rows (SQL first_value/last_value take the literal
    boundary row's value — no null-skipping)."""
    from etl_pipeline_rdf_star_ray.pipelines.windows import offset_window

    t = pa.table(
        {
            "g": pa.array([1, 1, 1, 2, 2, None, None, 3], pa.int64()),
            "o": pa.array([3, 1, 2, 1, None, 2, 1, 1], pa.int64()),
            "id": pa.array([0, 1, 2, 3, 4, 5, 6, 7], pa.int64()),
            "v": pa.array([None, "b", "c", None, "e", "f", None, None], pa.string()),
        }
    )
    out = offset_window(
        rd.from_arrow(t),
        group_cols=["g"],
        order_by=["o", "id"],
        ascending=[True, True],
        lead={"nx": "v"},
        lag={"pv": "v"},
        first_value={"fv": "v"},
        last_value={"lv": "v"},
    )
    # int64 group key must survive null-bearing shards un-floated in the
    # ARROW blocks (pandas conversion floats nullable int64 by design)
    assert out.schema().base_schema.field("g").type == pa.int64()
    got = out.to_pandas().sort_values("id").reset_index(drop=True)
    con = duckdb.connect()
    con.register("t", t)
    want = con.sql(
        """
        SELECT id, g,
               lead(v) OVER w AS nx, lag(v) OVER w AS pv,
               first_value(v) OVER w AS fv,
               last_value(v) OVER (PARTITION BY g ORDER BY o, id
                 ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING) AS lv
        FROM t WINDOW w AS (PARTITION BY g ORDER BY o, id)
        ORDER BY id
        """
    ).df()
    for c in ["nx", "pv", "fv", "lv"]:
        a, b = got[c], want[c]
        assert ((a == b) | (a.isna() & b.isna())).all(), (c, got, want)


def test_rank_fractions_ties_and_nulls(ray_session):
    """percent_rank/cume_dist vs DuckDB on tie-heavy null-bearing data:
    tie runs share the FIRST row number for percent_rank and the LAST
    <=-count for cume_dist; NULL order values tie together NULLS LAST;
    single-row groups get percent_rank 0."""
    from etl_pipeline_rdf_star_ray.pipelines.windows import rank_fractions

    t = pa.table(
        {
            "g": pa.array([1, 1, 1, 1, 2, None, 1], pa.int64()),
            "v": pa.array([10, 10, 20, None, 5, 7, None], pa.int64()),
            "id": pa.array([0, 1, 2, 3, 4, 5, 6], pa.int64()),
        }
    )
    got = (
        rank_fractions(
            rd.from_arrow(t),
            group_cols=["g"],
            order_by=["v"],
            ascending=[True],
        )
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", t)
    want = con.sql(
        """
        SELECT id, percent_rank() OVER w AS pr, cume_dist() OVER w AS cd
        FROM t WINDOW w AS (PARTITION BY g ORDER BY v) ORDER BY id
        """
    ).df()
    assert got["pr"].tolist() == want["pr"].tolist()
    assert got["cd"].tolist() == want["cd"].tolist()


def test_route_affinity_single_node(ray_session):
    """The slices transport's affinity map: one alive node -> every pid
    pinned to it; _merge_opts produces a soft NodeAffinity strategy."""
    import ray

    from etl_pipeline_rdf_star_ray.sources.synthetic import changelog_dataset
    from etl_pipeline_rdf_star_ray.stages.exchange import _merge_opts, _route
    from etl_pipeline_rdf_star_ray.stages.partition import make_partition_stage

    stage = make_partition_stage(
        num_partitions=4, salt_buckets=1, hot_convs=frozenset()
    )
    part = changelog_dataset(2000, n_convs=20).map_batches(
        stage, batch_format="pyarrow", batch_size=None
    )
    routed, affinity = _route(part, "slices")
    alive = {n["NodeID"] for n in ray.nodes() if n.get("Alive")}
    assert set(affinity) == set(routed)
    assert set(affinity.values()) <= alive and len(set(affinity.values())) == 1
    opts = _merge_opts(next(iter(affinity)), affinity)
    strat = opts["scheduling_strategy"]
    assert strat.soft is True and strat.node_id in alive
    # ranges transport: no affinity
    routed2, affinity2 = _route(part, "ranges")
    assert affinity2 == {} and _merge_opts(0, affinity2) == {}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_round5_ops_randomized_duckdb_parity(ray_session, seed):
    """Randomized multi-seed parity for the round-5 operators on one
    generated frame: offset_window (lead/lag/first/last), rank_fractions
    (percent_rank/cume_dist) and interval_join_sharded vs DuckDB, with
    null-bearing keys, heavy ties, and bucket-straddling windows."""
    import numpy as np

    from etl_pipeline_rdf_star_ray.pipelines.windows import (
        offset_window,
        rank_fractions,
    )
    from etl_pipeline_rdf_star_ray.stages.rangejoin import interval_join_sharded

    rng = np.random.default_rng(seed)
    n = 400
    g = rng.integers(0, 8, n).astype(float)
    g[rng.uniform(size=n) < 0.1] = np.nan
    o = rng.integers(0, 12, n).astype(float)  # heavy ties
    o[rng.uniform(size=n) < 0.1] = np.nan
    v = rng.integers(0, 5, n).astype(float)
    v[rng.uniform(size=n) < 0.15] = np.nan
    t = pa.table(
        {
            "g": pa.array([None if np.isnan(x) else int(x) for x in g], pa.int64()),
            "o": pa.array([None if np.isnan(x) else int(x) for x in o], pa.int64()),
            "v": pa.array([None if np.isnan(x) else int(x) for x in v], pa.int64()),
            "id": pa.array(range(n), pa.int64()),
        }
    )
    con = duckdb.connect()
    con.register("t", t)

    got = (
        offset_window(
            rd.from_arrow(t),
            group_cols=["g"],
            order_by=["o", "id"],
            ascending=[True, True],
            lead={"nx": "v"},
            lag={"pv": "v"},
            first_value={"fv": "v"},
            last_value={"lv": "v"},
        )
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    want = con.sql(
        """
        SELECT id, lead(v) OVER w AS nx, lag(v) OVER w AS pv,
               first_value(v) OVER w AS fv,
               last_value(v) OVER (PARTITION BY g ORDER BY o, id
                 ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING) AS lv
        FROM t WINDOW w AS (PARTITION BY g ORDER BY o, id) ORDER BY id
        """
    ).df()
    for c in ["nx", "pv", "fv", "lv"]:
        a, b = got[c].astype(float), want[c].astype(float)
        assert ((a == b) | (a.isna() & b.isna())).all(), (seed, c)

    fr = (
        rank_fractions(
            rd.from_arrow(t),
            group_cols=["g"],
            order_by=["o"],
            ascending=[True],
        )
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    wf = con.sql(
        """
        SELECT id, percent_rank() OVER w AS pr, cume_dist() OVER w AS cd
        FROM t WINDOW w AS (PARTITION BY g ORDER BY o) ORDER BY id
        """
    ).df()
    assert fr["pr"].tolist() == wf["pr"].tolist(), seed
    assert fr["cd"].tolist() == wf["cd"].tolist(), seed

    # interval join: points t.id/ts=o vs windows of width 3 (straddles the
    # width-3 buckets constantly); null keys/timestamps excluded
    left = pa.table(
        {
            "lid": t.column("id"),
            "k": t.column("g"),
            "ts": t.column("o"),
        }
    )
    m = 120
    rk = rng.integers(0, 8, m).astype(float)
    rk[rng.uniform(size=m) < 0.1] = np.nan
    rlo = rng.integers(-2, 12, m)
    right = pa.table(
        {
            "rid": pa.array(range(m), pa.int64()),
            "rk": pa.array([None if np.isnan(x) else int(x) for x in rk], pa.int64()),
            "lo": pa.array(rlo, pa.int64()),
        }
    )
    con.register("l", left)
    con.register("r", right)
    gotj = (
        interval_join_sharded(
            rd.from_arrow(left),
            rd.from_arrow(right),
            on="k",
            right_on="rk",
            ts_col="ts",
            lo_col="lo",
            width_us=3,
            num_shards=8,
        )
        .to_pandas()
        .sort_values(["lid", "rid"])
        .reset_index(drop=True)
    )
    wantj = con.sql(
        """
        SELECT l.lid, r.rid FROM l JOIN r
          ON l.k = r.rk AND r.lo <= l.ts AND l.ts < r.lo + 3
        ORDER BY l.lid, r.rid
        """
    ).df()
    assert gotj["lid"].tolist() == wantj["lid"].tolist(), seed
    assert gotj["rid"].tolist() == wantj["rid"].tolist(), seed


def test_event_value_fractions_oracle(ray_session):
    """Driver-identical comparison for the fractional-rank driver query
    (beyond-window round-5 entry)."""
    import sys

    sys.path.insert(0, "/root/repo/tests")
    from oracle_harness import run as oracle_run

    assert oracle_run("/root/testdata/sf0.001", ["event_value_fractions"]) == 0
