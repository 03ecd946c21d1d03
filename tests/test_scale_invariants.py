"""Scale-behavior invariants: hot-key salting actually balances partitions,
schema evolution across multiple late columns, and the block exchange's
arrival-order independence and colocation."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from etl_pipeline_rdf_star_ray.sources.synthetic import changelog_table
from etl_pipeline_rdf_star_ray.stages.merge import lww_merge
from etl_pipeline_rdf_star_ray.stages.partition import make_partition_stage


def test_salting_balances_hot_partition():
    """60%-hot changelog: without salting one partition holds ~60% of all
    events; with salting no partition exceeds ~3× fair share."""
    t = changelog_table(20_000, hot_frac=0.6, hot_turns=20_000)
    P = 16
    unsalted = make_partition_stage(
        num_partitions=P, salt_buckets=1, hot_convs=frozenset()
    )(t)
    salted = make_partition_stage(
        num_partitions=P, salt_buckets=16, hot_convs=frozenset({"conv_hot"})
    )(t)

    def max_share(out):
        vc = out.column("partition_id").value_counts()
        return max(vc.field("counts").to_pylist()) / out.num_rows

    assert max_share(unsalted) > 0.55
    assert max_share(salted) < 3.0 / P
    # correctness invariant: same key still always in one partition
    import pandas as pd

    df = pd.DataFrame(
        {
            "conv": salted.column("conv_id").to_pylist(),
            "turn": salted.column("turn_idx").to_pylist(),
            "pid": salted.column("partition_id").to_pylist(),
        }
    )
    assert (df.groupby(["conv", "turn"])["pid"].nunique() == 1).all()


def test_multi_stage_schema_evolution(tmp_path):
    """Two DIFFERENT late columns arriving in different micro-batches widen
    the lake cumulatively without touching earlier files."""
    import ray.data as rd

    from etl_pipeline_rdf_star_ray.pipelines import cdc
    from etl_pipeline_rdf_star_ray.state.lake import state_table

    def chunk(lo, hi, extra=None):
        t = changelog_table(hi - lo, lsn_start=lo)
        if extra:
            t = t.append_column(
                extra, pa.array([f"{extra}-{i}" for i in range(t.num_rows)])
            )
        return rd.from_arrow(t)

    lake = str(tmp_path / "lake")
    cdc.ingest(chunk(0, 500), lake, num_partitions=4, batch_id="b0")
    cdc.ingest(chunk(500, 1000, "tool_args"), lake, num_partitions=4, batch_id="b1")
    cdc.ingest(chunk(1000, 1500, "model_id"), lake, num_partitions=4, batch_id="b2")
    st = state_table(lake)
    assert {"tool_args", "model_id"} <= set(st.column_names)
    # winners from each era carry their era's columns; others null
    lsns = st.column("lsn").to_numpy()
    ta = st.column("tool_args").to_numpy(zero_copy_only=False)
    mid = st.column("model_id").to_numpy(zero_copy_only=False)
    assert all(x is None for x in ta[lsns < 500])
    assert all(x is not None for x in ta[(lsns >= 500) & (lsns < 1000)])
    assert all(x is not None for x in mid[lsns >= 1000])


def test_exchange_block_order_independence(tmp_path):
    """The block exchange must produce identical lake state regardless of
    the order (and split) in which change blocks arrive — driven through
    the public ingest path with permuted block layouts."""
    import ray.data as rd

    from etl_pipeline_rdf_star_ray.pipelines import cdc
    from etl_pipeline_rdf_star_ray.state.lake import state_table

    t = changelog_table(3000)
    perm = np.random.RandomState(3).permutation(t.num_rows)
    shuffled = t.take(pa.array(perm))

    def run(tag, table, blocks):
        lake = str(tmp_path / tag)
        cdc.ingest(
            rd.from_arrow(table).repartition(blocks), lake,
            num_partitions=4, salt_buckets=1, hot_convs=[], batch_id="b",
        )
        return (
            state_table(lake)
            .sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
        )

    a = run("a", t, 2)
    b = run("b", shuffled, 7)
    assert a.equals(b)


def _late_hot_log(n=4000, hot="conv_late_hot"):
    """Change log where the hot conversation contributes NOTHING in the
    first half and ~60% of the second half (round-1 verdict item 7)."""
    import numpy as np
    import pyarrow as pa

    rng = np.random.RandomState(7)
    convs, turns = [], []
    for i in range(n):
        if i >= n // 2 and rng.rand() < 0.6:
            convs.append(hot)
            turns.append(int(rng.randint(0, 2000)))
        else:
            convs.append(f"c{rng.randint(0, 100):03d}")
            turns.append(int(rng.randint(0, 50)))
    return pa.table(
        {
            "op": pa.array(["insert"] * n),
            "lsn": pa.array(np.arange(n, dtype=np.int64)),
            "conv_id": pa.array(convs, pa.string()),
            "turn_idx": pa.array(np.array(turns, np.int32)),
            "role": pa.array(["user"] * n),
            "text": pa.array([f"t{i}" for i in range(n)]),
            "tool": pa.array([None] * n, pa.string()),
            "ts": pa.array([None] * n, pa.timestamp("us")),
        }
    )


def test_stratified_detection_sees_late_hot_conv(tmp_path):
    """A conversation that is hot only in the second half of the log is
    still detected when the log creates the lake (a head sample of the log
    would miss it entirely)."""
    import ray.data as rd

    from etl_pipeline_rdf_star_ray.pipelines import cdc
    from etl_pipeline_rdf_star_ray.state import manifest as mf

    lake = str(tmp_path / "lake")
    ds = rd.from_arrow(_late_hot_log()).repartition(16)
    cdc.ingest(ds, lake, num_partitions=8, hot_convs="auto")
    assert "conv_late_hot" in mf.load_meta(lake).hot_convs


def test_resalt_migrates_late_hot_conversation(tmp_path):
    """Lake created before the skew existed: resalt moves the hot rows to
    salted partitions, preserves exact state, and later ingests spread."""
    import duckdb
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from etl_pipeline_rdf_star_ray.pipelines import cdc, ops
    from etl_pipeline_rdf_star_ray.state import manifest as mf
    from etl_pipeline_rdf_star_ray.state.lake import state_table

    log = _late_hot_log()
    lake = str(tmp_path / "lake")
    cdc.ingest(rd.from_arrow(log), lake, num_partitions=8, salt_buckets=4,
               hot_convs=[])

    def hot_partitions():
        st = state_table(lake).to_pandas()
        return st[st["conv_id"] == "conv_late_hot"]["partition_id"].nunique()

    assert hot_partitions() == 1  # pinned skew before migration

    res = ops.resalt(lake, ["conv_late_hot"])
    assert res["moved_rows"] > 0
    assert "conv_late_hot" in mf.load_meta(lake).hot_convs
    assert hot_partitions() > 1  # spread after migration

    def oracle(t):
        con = duckdb.connect()
        con.register("log", t)
        return con.sql(
            """SELECT conv_id, turn_idx, text FROM (
                 SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx
                                              ORDER BY lsn DESC) rn FROM log)
               WHERE rn = 1 AND op <> 'delete' ORDER BY conv_id, turn_idx"""
        ).df()

    got = (
        state_table(lake).to_pandas()[["conv_id", "turn_idx", "text"]]
        .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, oracle(log), check_dtype=False)

    # resalt is idempotent / convergent on re-run
    assert ops.resalt(lake, ["conv_late_hot"])["moved_rows"] == 0

    # post-migration ingest routes new hot events by the NEW mapping
    extra = _late_hot_log(n=1000)
    extra = extra.set_column(
        extra.schema.get_field_index("lsn"), "lsn",
        pa.array(np.arange(4000, 5000, dtype=np.int64)),
    )
    cdc.ingest(rd.from_arrow(extra), lake, num_partitions=8, salt_buckets=4)
    full = pa.concat_tables([log, extra])
    got2 = (
        state_table(lake).to_pandas()[["conv_id", "turn_idx", "text"]]
        .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got2, oracle(full), check_dtype=False)
    assert hot_partitions() > 1


def test_exchange_apply_colocates_groups(ray_session):
    """exchange_apply (the sharded_groups shuffle plane) must deliver EVERY
    row of a partition to exactly ONE fn call, preserve total rows, and
    never split a key across calls. Its producer follows the block-layout
    rule (cluster_by_pid), so no pid is routed more slices than there are
    input blocks — a producer that forgot to cluster would stay correct
    but fan in one slice per row."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray
    import ray.data as rd

    from etl_pipeline_rdf_star_ray.stages.exchange import (
        _route,
        _routed,
        cluster_by_pid,
        exchange_apply,
    )

    n, shards = 10_000, 7
    keys = np.arange(n, dtype=np.int64) % 23
    t = pa.table(
        {
            "k": pa.array(keys),
            "v": pa.array(np.arange(n, dtype=np.int64)),
            "partition_id": pa.array((keys % shards).astype(np.int32)),
        }
    )
    ds = (
        rd.from_arrow(t)
        .repartition(4)
        .map_batches(cluster_by_pid, batch_format="pyarrow")
        .materialize()
    )
    routed, _affinity = _route(ds)
    assert max(len(s) for s in routed.values()) <= ds.num_blocks()

    def summarize(shard: pa.Table) -> pa.Table:
        ks = sorted(set(shard.column("k").to_pylist()))
        pids = set(shard.column("partition_id").to_pylist())
        assert len(pids) == 1  # one partition per call
        return pa.table(
            {
                "pid": pa.array([pids.pop()] * len(ks), pa.int32()),
                "k": pa.array(ks, pa.int64()),
                "rows": pa.array(
                    [shard.filter(pc.equal(shard.column("k"), k)).num_rows
                     for k in ks],
                    pa.int64(),
                ),
            }
        )

    # fewer CPUs than partitions: the exchange groups partitions per task
    assert len(_routed(ds, "ranges")) < shards
    blocks = ray.get(exchange_apply(ds, summarize).to_arrow_refs())
    # one fn call (one output block) per partition, in ascending pid —
    # stages/sortrange.py relies on that order
    assert [set(b.column("pid").to_pylist()) for b in blocks] == [
        {pid} for pid in range(shards)
    ]
    out = pa.concat_tables(blocks)
    # every key appears in exactly one shard's output
    assert out.num_rows == 23
    assert pc.sum(out.column("rows")).as_py() == n
    # and each key landed in its hash shard
    for r in out.to_pylist():
        assert r["pid"] == r["k"] % shards


def test_ingest_submits_one_merge_task_per_cpu(tmp_path, monkeypatch):
    """A 64-partition ingest submits at most one merge task per CPU, each
    bin in ascending pid, and its lake equals, checksum for checksum, a
    reference that merges and commits each partition on its own, in this
    process, from the same slices."""
    import pyarrow.parquet as pq
    import ray

    from etl_pipeline_rdf_star_ray.pipelines import cdc
    from etl_pipeline_rdf_star_ray.schema import concat_evolving
    from etl_pipeline_rdf_star_ray.sources.synthetic import changelog_dataset
    from etl_pipeline_rdf_star_ray.stages import exchange
    from etl_pipeline_rdf_star_ray.stages.merge import merge_state_and_events
    from etl_pipeline_rdf_star_ray.state import manifest as mf
    from etl_pipeline_rdf_star_ray.state.sink import commit_partition

    real_task = exchange._merge_commit_task
    submitted = []

    class Counting:
        def options(self, **opts):
            self.opts = opts
            return self

        def remote(self, *args):
            submitted.append(args)
            return real_task.options(**self.opts).remote(*args)

    monkeypatch.setattr(exchange, "_merge_commit_task", Counting())
    lake, ref_lake = str(tmp_path / "lake"), str(tmp_path / "ref")
    kw = dict(num_partitions=64, hot_convs=[])
    cdc.ingest(changelog_dataset(8_000, n_convs=400), lake, batch_id="b0", **kw)
    cdc.ingest(
        changelog_dataset(4_000, lsn_start=8_000, n_convs=400), lake,
        batch_id="b1", **kw,
    )
    b1 = [args for args in submitted if args[2] == "b1"]
    assert 1 < len(b1) <= ray.cluster_resources()["CPU"]

    for group, _lake, batch_id, priors in submitted:
        pids = [pid for pid, _slices in group]
        assert pids == sorted(pids)
        for pid, slices in group:
            refs = list(dict.fromkeys(ref for ref, _s, _n in slices))
            blocks = dict(zip(refs, ray.get(refs)))
            events = concat_evolving(
                [blocks[ref].slice(start, n) for ref, start, n in slices]
            )
            # priors name the lake's files; the reference reads its own
            state = (
                pq.read_table(
                    os.path.join(ref_lake, os.path.relpath(priors[pid], lake))
                )
                if pid in priors
                else None
            )
            lsns = events.column("lsn")
            commit_partition(
                merge_state_and_events(state, events),
                lake_dir=ref_lake,
                partition_id=pid,
                batch_id=batch_id,
                lsn_lo=pc.min(lsns).as_py(),
                lsn_hi=pc.max(lsns).as_py(),
                event_count=events.num_rows,
                wall_start=0.0,
            )

    def checksums(d):
        return {(r.partition_id, r.batch_id): r.checksum for r in mf.load_records(d)}

    got = checksums(lake)
    assert len({pid for pid, batch in got if batch == "b1"}) > 32
    assert got == checksums(ref_lake)
