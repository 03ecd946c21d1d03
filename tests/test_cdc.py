"""CDC upsert correctness: LWW merge, salting, exactly-once sink,
resume-from-checkpoint, schema evolution, point-in-time — each checked
against a single-process pandas/duckdb oracle replay (SURVEY.md §5
carry-over)."""

import glob
import os

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray.data as rd

from etl_pipeline_rdf_star_ray.pipelines import cdc
from etl_pipeline_rdf_star_ray.sources.synthetic import (
    changelog_dataset,
    changelog_table,
)
from etl_pipeline_rdf_star_ray.stages.merge import (
    lww_merge,
    merge_state_and_events,
)
from etl_pipeline_rdf_star_ray.stages.partition import (
    make_partition_stage,
    partition_ids,
)
from etl_pipeline_rdf_star_ray.state import manifest as mf
from etl_pipeline_rdf_star_ray.state.lake import state_table


def oracle_replay(table: pa.Table) -> pd.DataFrame:
    """Single-process LWW oracle via duckdb (independent of engine code)."""
    con = duckdb.connect()
    con.register("log", table)
    cols = [c for c in table.column_names if c != "op"]
    return con.sql(
        f"""
        SELECT {", ".join(cols)} FROM (
          SELECT *, row_number() OVER (
            PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
          FROM log)
        WHERE rn = 1 AND op <> 'delete'
        ORDER BY conv_id, turn_idx
        """
    ).df()


def assert_frames_equal(a: pd.DataFrame, b: pd.DataFrame):
    a = a.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)[sorted(a.columns)]
    b = b.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)[sorted(b.columns)]
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def test_lww_merge_matches_oracle():
    t = changelog_table(4000)
    merged = lww_merge(t).drop_columns(["op"]).to_pandas()
    assert_frames_equal(merged, oracle_replay(t))


def test_lww_merge_out_of_order_within_batch():
    t = changelog_table(1000)
    perm = np.random.RandomState(0).permutation(t.num_rows)
    shuffled = t.take(pa.array(perm))
    assert_frames_equal(lww_merge(shuffled).drop_columns(["op"]).to_pandas(), oracle_replay(t))


def test_lww_delete_then_reinsert():
    rows = [
        {"op": "insert", "lsn": 1, "conv_id": "c", "turn_idx": 0, "role": "user",
         "text": "v1", "tool": None, "ts": None},
        {"op": "delete", "lsn": 2, "conv_id": "c", "turn_idx": 0, "role": None,
         "text": None, "tool": None, "ts": None},
        {"op": "insert", "lsn": 3, "conv_id": "c", "turn_idx": 0, "role": "user",
         "text": "v3", "tool": None, "ts": None},
        {"op": "delete", "lsn": 4, "conv_id": "c", "turn_idx": 1, "role": None,
         "text": None, "tool": None, "ts": None},
    ]
    t = pa.Table.from_pylist(rows)
    out = lww_merge(t)
    assert out.num_rows == 1
    assert out.column("text")[0].as_py() == "v3"


def test_merge_state_and_events_schema_evolution():
    state = pa.table(
        {"conv_id": ["c"], "turn_idx": pa.array([0], pa.int32()), "lsn": [1],
         "text": ["old"]}
    )
    events = pa.Table.from_pylist(
        [{"op": "update", "lsn": 5, "conv_id": "c", "turn_idx": 0,
          "text": "new", "tool_args": "a1"},
         {"op": "insert", "lsn": 6, "conv_id": "d", "turn_idx": 0,
          "text": "x", "tool_args": None}]
    )
    out = merge_state_and_events(state, events)
    assert "tool_args" in out.column_names
    got = {r["conv_id"]: r for r in out.to_pylist()}
    assert got["c"]["text"] == "new" and got["c"]["tool_args"] == "a1"


# ---------------------------------------------------------------------------
# partitioning / salting
# ---------------------------------------------------------------------------


def test_partition_ids_stable_and_key_consistent():
    conv = pa.array(["a", "b", "a", "conv_hot"] * 10)
    turn = np.arange(40, dtype=np.int32)
    p1 = partition_ids(conv, turn, num_partitions=16, salt_buckets=4,
                       hot_set=frozenset({"conv_hot"}))
    p2 = partition_ids(conv, turn, num_partitions=16, salt_buckets=4,
                       hot_set=frozenset({"conv_hot"}))
    assert (p1 == p2).all()


def test_salting_never_splits_a_key():
    """Same (conv_id, turn_idx) must always land in the same partition even
    for salted hot conversations (SURVEY.md §7.5.2)."""
    conv = pa.array(["conv_hot"] * 1000)
    turn = np.array([i % 50 for i in range(1000)], dtype=np.int32)
    pid = partition_ids(conv, turn, num_partitions=8, salt_buckets=4,
                        hot_set=frozenset({"conv_hot"}))
    df = pd.DataFrame({"turn": turn, "pid": pid})
    assert (df.groupby("turn")["pid"].nunique() == 1).all()


def test_salting_spreads_hot_conversation():
    conv = pa.array(["conv_hot"] * 1000)
    turn = np.arange(1000, dtype=np.int32)
    pid = partition_ids(conv, turn, num_partitions=8, salt_buckets=8,
                        hot_set=frozenset({"conv_hot"}))
    assert len(np.unique(pid)) > 1
    # without salting the conversation serializes into one partition
    pid0 = partition_ids(conv, turn, num_partitions=8, salt_buckets=8,
                         hot_set=frozenset())
    assert len(np.unique(pid0)) == 1


def test_watermark_filter_drops_committed():
    stage = make_partition_stage(
        num_partitions=4, salt_buckets=1, hot_convs=frozenset(),
        watermarks={0: 10**9, 1: 10**9, 2: 10**9, 3: 10**9},
    )
    out = stage(changelog_table(100))
    assert out.num_rows == 0


# ---------------------------------------------------------------------------
# end-to-end lake ingest
# ---------------------------------------------------------------------------

N_EVENTS = 6000


def _mk_log(lo, hi, **kw):
    return changelog_dataset(hi - lo, lsn_start=lo, **kw)


def test_full_replay_matches_oracle(tmp_path):
    lake = str(tmp_path / "lake")
    cdc.ingest(_mk_log(0, N_EVENTS), lake, num_partitions=8)
    got = state_table(lake).to_pandas().drop(columns=["partition_id"])
    expect = oracle_replay(changelog_table(N_EVENTS))
    assert_frames_equal(got, expect)


def test_resume_halves_equals_full(tmp_path):
    lake_a = str(tmp_path / "a")
    lake_b = str(tmp_path / "b")
    cdc.ingest(_mk_log(0, N_EVENTS), lake_a, num_partitions=8)
    cdc.replay(_mk_log, lake_b, lsn_splits=[N_EVENTS // 2, N_EVENTS],
               num_partitions=8)
    a = state_table(lake_a).to_pandas()
    b = state_table(lake_b).to_pandas()
    assert_frames_equal(a.drop(columns=["partition_id"]),
                        b.drop(columns=["partition_id"]))


def test_replay_idempotent(tmp_path):
    """Re-ingesting an already-committed lsn range is a no-op: no new
    manifest records, identical state (FIXTURES.md §2 duplicate events)."""
    lake = str(tmp_path / "lake")
    cdc.ingest(_mk_log(0, N_EVENTS), lake, num_partitions=8, batch_id="b0")
    before = state_table(lake).to_pandas()
    n_rec = len(mf.load_records(lake))
    res = cdc.ingest(_mk_log(0, N_EVENTS), lake, num_partitions=8, batch_id="b1")
    assert res.num_rows == 0
    assert len(mf.load_records(lake)) == n_rec
    assert_frames_equal(before, state_table(lake).to_pandas())


def test_merge_bin_crash_after_first_commit_stays_exactly_once(
    tmp_path, monkeypatch
):
    """A merge task commits its bin's partitions one after another. If it
    dies after the first one committed, Ray re-runs the whole bin: the
    committed partition must come back as a duplicate, not a second
    version, and re-running the ingest must converge on the oracle state
    with exactly one commit record per partition."""
    import ray

    from etl_pipeline_rdf_star_ray.stages import exchange

    lake = str(tmp_path / "lake")
    bins = []

    class InProcess:
        """Stands in for the remote: runs the bin body in this process."""

        def options(self, **_opts):
            return self

        def remote(self, *args):
            bins.append(args)
            return ray.put(exchange.merge_commit_group(*args))

    real_commit = exchange.commit_partition
    commits = []

    def crash_on_second(*args, **kwargs):
        commits.append(kwargs["partition_id"])
        if len(commits) == 2:
            raise RuntimeError("injected crash")
        return real_commit(*args, **kwargs)

    monkeypatch.setattr(exchange, "_merge_commit_task", InProcess())
    monkeypatch.setattr(exchange, "commit_partition", crash_on_second)
    kw = dict(num_partitions=8, hot_convs=[], batch_id="b0")
    with pytest.raises(RuntimeError, match="injected crash"):
        cdc.ingest(_mk_log(0, N_EVENTS), lake, **kw)
    group, _lake, batch_id, priors = bins[0]
    assert len(group) > 1 and commits == [group[0][0], group[1][0]]
    assert [r.partition_id for r in mf.load_records(lake)] == [group[0][0]]

    # Ray's retry of the dead task: the same bin, whole
    monkeypatch.setattr(exchange, "commit_partition", real_commit)
    recs = exchange.merge_commit_group(group, lake, batch_id, priors)
    assert [r["status"] for r in recs] == ["duplicate"] + ["active"] * (
        len(group) - 1
    )

    monkeypatch.undo()
    cdc.ingest(_mk_log(0, N_EVENTS), lake, **kw)
    got = state_table(lake).to_pandas()
    touched = set(got["partition_id"])
    per_pid = {}
    for r in mf.load_records(lake):
        assert r.batch_id == "b0"
        per_pid[r.partition_id] = per_pid.get(r.partition_id, 0) + 1
    assert len(touched) > len(group)
    assert per_pid == {pid: 1 for pid in touched}
    for pid in touched:
        files = glob.glob(os.path.join(lake, f"part={pid:05d}", "*.parquet"))
        assert len(files) == 1
    assert_frames_equal(
        got.drop(columns=["partition_id"]), oracle_replay(changelog_table(N_EVENTS))
    )


def test_commit_marker_makes_sink_idempotent(tmp_path):
    from etl_pipeline_rdf_star_ray.state.sink import commit_partition

    lake = str(tmp_path / "lake")
    os.makedirs(os.path.join(lake, "_manifest"))
    t = pa.table({"conv_id": ["c"], "turn_idx": pa.array([0], pa.int32())})
    r1 = commit_partition(t, lake_dir=lake, partition_id=0, batch_id="x",
                          lsn_lo=0, lsn_hi=5, event_count=1, wall_start=0.0)
    r2 = commit_partition(t, lake_dir=lake, partition_id=0, batch_id="x",
                          lsn_lo=0, lsn_hi=5, event_count=1, wall_start=0.0)
    assert r1.status == "active" and r2.status == "duplicate"
    assert len(glob.glob(os.path.join(lake, "part=00000", "*.parquet"))) == 1
    assert len(mf.load_records(lake)) == 1


def test_point_in_time_snapshot(tmp_path):
    lake = str(tmp_path / "lake")
    mid = N_EVENTS // 2
    cdc.replay(_mk_log, lake, lsn_splits=[mid, N_EVENTS], num_partitions=8)
    got = state_table(lake, at_lsn=mid - 1).to_pandas().drop(columns=["partition_id"])
    expect = oracle_replay(changelog_table(mid))
    assert_frames_equal(got, expect)


def test_schema_evolution_mid_replay(tmp_path):
    """A late-appearing tool_args column widens the lake without rewriting
    old partitions (SURVEY.md §7.5.4)."""
    lake = str(tmp_path / "lake")
    mid = N_EVENTS // 2
    cdc.ingest(_mk_log(0, mid), lake, num_partitions=8)
    cdc.ingest(_mk_log(mid, N_EVENTS, with_tool_args=True), lake,
               num_partitions=8)
    got = state_table(lake).to_pandas().drop(columns=["partition_id"])
    full = pa.concat_tables(
        [changelog_table(mid),
         changelog_table(N_EVENTS - mid, lsn_start=mid, with_tool_args=True)],
        promote_options="permissive",
    )
    expect = oracle_replay(full)
    assert "tool_args" in got.columns
    assert_frames_equal(got, expect)


def test_hot_conv_auto_detection_pinned_in_meta(tmp_path):
    lake = str(tmp_path / "lake")
    cdc.ingest(_mk_log(0, 4000), lake, num_partitions=8)
    meta = mf.load_meta(lake)
    assert "conv_hot" in meta.hot_convs


def test_fresh_auto_ingest_reads_log_once(tmp_path):
    """Detecting a fresh lake's hot set rides on the ingest's own read: the
    change log's producer sees every row exactly once."""
    seen = tmp_path / "rows.txt"

    def tap(batch: pa.Table) -> pa.Table:
        with open(seen, "a") as f:
            f.write(f"{batch.num_rows}\n")
        return batch

    log = _mk_log(0, N_EVENTS).map_batches(tap, batch_format="pyarrow")
    cdc.ingest(log, str(tmp_path / "lake"), num_partitions=8, hot_convs="auto")
    assert sum(map(int, seen.read_text().split())) == N_EVENTS


def _oracle_hot(table: pa.Table, num_partitions: int) -> list[str]:
    con = duckdb.connect()
    con.register("log", table)
    return [
        r[0]
        for r in con.sql(
            f"""SELECT conv_id FROM log GROUP BY conv_id
                HAVING count(*)::DOUBLE / (SELECT count(*) FROM log)
                       > 0.5 / {num_partitions}
                ORDER BY conv_id"""
        ).fetchall()
    ]


def test_auto_hot_set_is_exact(tmp_path):
    """``hot_convs="auto"`` on a fresh lake pins exactly the conversations
    whose share of the first ingest exceeds 0.5/P — here many sit close to
    that line — salts them, and gives the same lake on both transports."""
    P, n, half = 32, 6000, 3000
    knobs = dict(hot_frac=0.3, n_convs=45)
    first = changelog_table(half, **knobs)
    full = pa.concat_tables(
        [first, changelog_table(n - half, lsn_start=half, with_tool_args=True,
                                **knobs)],
        promote_options="permissive",
    )
    want_hot = _oracle_hot(first, P)
    assert len(want_hot) >= 2 and "conv_hot" in want_hot

    lakes = {}
    for transport in ("ranges", "slices"):
        lake = str(tmp_path / transport)
        cdc.ingest(_mk_log(0, half, override_num_blocks=5, **knobs), lake,
                   num_partitions=P, hot_convs="auto", transport=transport)
        cdc.ingest(_mk_log(half, n, with_tool_args=True, **knobs), lake,
                   num_partitions=P, hot_convs="auto", transport=transport)
        assert mf.load_meta(lake).hot_convs == want_hot
        st = state_table(lake).to_pandas()
        assert not st.duplicated(["conv_id", "turn_idx"]).any()
        spread = st[st.conv_id.isin(want_hot)].groupby("conv_id").partition_id
        assert (spread.nunique() > 1).all()
        assert_frames_equal(st.drop(columns=["partition_id"]), oracle_replay(full))
        with open(os.path.join(lake, mf.META_FILE)) as f:
            lakes[transport] = (f.read(), st)
    assert lakes["ranges"][0] == lakes["slices"][0]
    assert_frames_equal(lakes["ranges"][1], lakes["slices"][1])


def test_auto_reuses_pinned_hot_set(tmp_path, monkeypatch):
    """A lake whose ``_meta.json`` already pins a hot set never re-detects."""
    lake = str(tmp_path / "lake")
    mf.load_or_create_meta(
        lake, mf.TableMeta(num_partitions=8, hot_convs=["conv_3"])
    )

    def boom(*a, **kw):
        raise AssertionError("detection ran on a pinned lake")

    monkeypatch.setattr(cdc, "detect_hot_convs", boom)
    cdc.ingest(_mk_log(0, 2000), lake, num_partitions=8, hot_convs="auto")
    assert mf.load_meta(lake).hot_convs == ["conv_3"]
    st = state_table(lake).to_pandas()
    assert st[st.conv_id == "conv_3"].partition_id.nunique() > 1
    assert_frames_equal(
        st.drop(columns=["partition_id"]), oracle_replay(changelog_table(2000))
    )


def test_upsert_dataset_matches_oracle():
    got = cdc.upsert_dataset(
        changelog_dataset(3000), num_partitions=8,
        hot_convs=["conv_hot"],
    ).to_pandas()
    assert_frames_equal(got, oracle_replay(changelog_table(3000)))


def test_tail_growing_log(tmp_path):
    """Log files appear over time; each tail round ingests only the new
    events and the final state equals a full one-shot replay."""
    import pyarrow.parquet as pq

    log = tmp_path / "log"
    log.mkdir()
    lake = str(tmp_path / "lake")
    pq.write_table(changelog_table(1500), str(log / "000.parquet"))
    cdc.tail_once(str(log), lake, num_partitions=4)
    r1 = state_table(lake).num_rows
    pq.write_table(
        changelog_table(1500, lsn_start=1500), str(log / "001.parquet")
    )
    res = cdc.tail_once(str(log), lake, num_partitions=4)
    assert res.num_rows > 0
    # third round with nothing new: no commits
    assert cdc.tail_once(str(log), lake, num_partitions=4).num_rows == 0
    got = state_table(lake).to_pandas().drop(columns=["partition_id"])
    assert_frames_equal(got, oracle_replay(changelog_table(3000)))
    assert r1 <= got.shape[0] + 200  # first round really was partial


def test_one_manifest_scan_per_ingest(tmp_path, monkeypatch):
    """An ingest into an existing lake lists ``_manifest/`` once (watermarks
    and prior files come from the same scan), and so does ``tail_once``:
    its read floor comes from that scan too."""
    import pyarrow.parquet as pq

    log = tmp_path / "log"
    log.mkdir()
    lake = str(tmp_path / "lake")
    pq.write_table(changelog_table(1000), str(log / "000.parquet"))
    cdc.ingest(_mk_log(0, 500), lake, num_partitions=4)
    scans = []
    load_records = mf.load_records
    monkeypatch.setattr(
        mf, "load_records", lambda d: scans.append(d) or load_records(d)
    )
    cdc.ingest(_mk_log(500, 800), lake, num_partitions=4)
    assert len(scans) == 1
    scans.clear()
    assert cdc.tail_once(str(log), lake, num_partitions=4).num_rows > 0
    assert len(scans) == 1


def _spy_submitted(monkeypatch) -> list:
    """Record the log files each ingest hands the exchange (its producers
    are ``partial(_read_partitioned, path, ...)``)."""
    from etl_pipeline_rdf_star_ray.stages import exchange

    submitted = []
    orig = exchange.exchange_ingest

    def spy(partitioned, *args, **kwargs):
        submitted.append([p.args[0] for p in partitioned])
        return orig(partitioned, *args, **kwargs)

    monkeypatch.setattr(exchange, "exchange_ingest", spy)
    return submitted


def test_tail_skips_files_at_or_below_floor(tmp_path, monkeypatch):
    """A log file whose footer max lsn is at or below the watermark floor is
    never handed to a task: a 30-file log tailed after 29 files are
    committed submits exactly the last file. A file with no row groups, or
    without lsn statistics, is always read."""
    import pyarrow.parquet as pq

    from etl_pipeline_rdf_star_ray.schema import CHANGELOG_SCHEMA

    log = tmp_path / "log"
    log.mkdir()
    lake = str(tmp_path / "lake")
    full = changelog_table(3000)
    for i in range(29):
        pq.write_table(full.slice(i * 100, 100), str(log / f"{i:03d}.parquet"))
    # one partition: the floor is the last committed lsn
    cdc.tail_once(str(log), lake, num_partitions=1)
    pq.write_table(full.slice(2900, 100), str(log / "029.parquet"))
    submitted = _spy_submitted(monkeypatch)
    assert cdc.tail_once(str(log), lake).num_rows == 1
    assert submitted == [[str(log / "029.parquet")]]

    empty, nostats = str(log / "030.parquet"), str(log / "031.parquet")
    pq.ParquetWriter(empty, CHANGELOG_SCHEMA).close()
    pq.write_table(full.slice(0, 100), nostats, write_statistics=False)
    assert pq.read_metadata(empty).num_row_groups == 0
    assert cdc.footer_max_lsn(empty) is None
    assert cdc.footer_max_lsn(nostats) is None
    assert cdc.footer_max_lsn(str(log / "029.parquet")) == 2999
    submitted.clear()
    assert cdc.tail_once(str(log), lake).num_rows == 0
    assert submitted == [[empty, nostats]]
    got = state_table(lake).to_pandas().drop(columns=["partition_id"])
    assert_frames_equal(got, oracle_replay(full))


def test_tail_lists_log_like_read_parquet(tmp_path, monkeypatch):
    """``tail_once`` finds the files ``ray.data.read_parquet(log_dir)``
    would: recursively, skipping paths that start with ``.`` or ``_`` (an
    in-flight producer file, ``_SUCCESS``), across a schema change. It runs
    no Ray Data read at all, so a log of more than 24 files starts no
    metadata tasks."""
    import pyarrow.parquet as pq

    log = tmp_path / "log"
    (log / "late").mkdir(parents=True)
    lake = str(tmp_path / "lake")
    old = changelog_table(2600)
    for i in range(26):
        sub = log / "late" if i >= 20 else log
        pq.write_table(old.slice(i * 100, 100), str(sub / f"{i:03d}.parquet"))
    # an unfinished producer write and a commit marker: neither is log data
    pq.write_table(changelog_table(50, lsn_start=9000), str(log / ".inflight"))
    (log / "_SUCCESS").write_bytes(b"")

    def no_ray_data(*args, **kwargs):
        raise AssertionError("tail_once must not run a Ray Data read")

    monkeypatch.setattr(rd, "read_parquet", no_ray_data)
    cdc.tail_once(str(log), lake, num_partitions=4)
    new = changelog_table(400, lsn_start=2600, with_tool_args=True)
    pq.write_table(new, str(log / "late" / "026.parquet"))
    assert cdc.tail_once(str(log), lake).num_rows > 0
    assert len(cdc.log_files(str(log))) == 27

    got = state_table(lake).to_pandas().drop(columns=["partition_id"])
    want = pa.concat_tables([old, new], promote_options="default")
    assert_frames_equal(got, oracle_replay(want))


@pytest.mark.parametrize("transport", ["ranges", "slices"])
def test_tail_file_tasks_match_dataset_ingest(tmp_path, transport):
    """On a fresh lake the file-task tail path gives the same hot set and
    the same commits (checksums included) as an ingest of the same files
    as a Ray Dataset, on both transports."""
    import json

    import pyarrow.parquet as pq

    log = tmp_path / "log"
    log.mkdir()
    full = changelog_table(6000)
    for i in range(3):
        pq.write_table(full.slice(i * 2000, 2000), str(log / f"{i:03d}.parquet"))
    lakes = {"tail": str(tmp_path / "tail"), "dataset": str(tmp_path / "ds")}
    kw = {"num_partitions": 8, "batch_id": "b0", "transport": transport}
    cdc.tail_once(str(log), lakes["tail"], **kw)
    cdc.ingest(rd.read_parquet(cdc.log_files(str(log))), lakes["dataset"], **kw)

    def lake_facts(lake):
        with open(os.path.join(lake, mf.META_FILE)) as f:
            hot = json.load(f)["hot_convs"]
        recs = sorted(
            (r.partition_id, r.checksum, r.row_count, r.event_count,
             r.lsn_lo, r.lsn_hi)
            for r in mf.load_records(lake)
        )
        return hot, recs

    hot, recs = lake_facts(lakes["tail"])
    assert hot  # the log has a hot conversation, so salting ran
    assert (hot, recs) == lake_facts(lakes["dataset"])


def test_tail_resume_after_partial_first_commit(tmp_path):
    """ADVICE round-1 (high): a crash that committed SOME partitions before a
    straggler partition's first-ever commit must not lose that partition's
    events on resume — tail_once may only prune at min(watermark) when every
    partition has committed at least once."""
    import pyarrow.parquet as pq
    import ray.data as rd
    from etl_pipeline_rdf_star_ray.stages.partition import partition_ids

    log = tmp_path / "log"
    log.mkdir()
    lake = str(tmp_path / "lake")
    t = changelog_table(2000)
    pq.write_table(t, str(log / "000.parquet"))

    pid = partition_ids(
        t.column("conv_id"),
        t.column("turn_idx").combine_chunks().to_numpy(zero_copy_only=False),
        num_partitions=4, salt_buckets=1, hot_set=frozenset(),
    )
    victim = int(pid[0])
    survivors = t.filter(pa.array(pid != victim))
    assert survivors.num_rows < t.num_rows

    # "crash": the first ingest commits every partition except the victim's
    # first-ever commit (its merge task died before commit_partition)
    cdc.ingest(rd.from_arrow(survivors), lake, num_partitions=4,
               salt_buckets=1, hot_convs=[], batch_id="crashed")
    assert victim not in mf.watermarks(lake)

    # resume by tailing the full log: the victim partition's events all have
    # lsn below the other partitions' watermarks, so a min-over-committed
    # pre-filter would drop them forever
    cdc.tail_once(str(log), lake, num_partitions=4, salt_buckets=1)
    got = state_table(lake).to_pandas().drop(columns=["partition_id"])
    assert_frames_equal(got, oracle_replay(t))


def test_block_ranges_matches_cluster_block_routing():
    """`_block_ranges` over one partition-stage block routes every row
    exactly once: per-pid routed rows equal the bincount of the pids
    computed from the raw input, each run is a homogeneous pid span, and
    the clustered block has ONE run per pid."""
    import ray

    from etl_pipeline_rdf_star_ray.stages.exchange import _block_ranges

    t = pa.table(
        {
            "conv_id": pa.array([f"c{i % 7}" for i in range(100)]),
            "turn_idx": pa.array(np.arange(100, dtype=np.int32)),
            "lsn": pa.array(np.arange(100, dtype=np.int64)),
        }
    )
    want = np.bincount(
        partition_ids(
            t.column("conv_id"), t.column("turn_idx").to_numpy(),
            num_partitions=4, salt_buckets=1, hot_set=frozenset(),
        ),
        minlength=4,
    )
    block = make_partition_stage(
        num_partitions=4, salt_buckets=1, hot_convs=frozenset()
    )(t)
    assert block.sort_by("lsn").drop_columns(["partition_id"]).equals(t)

    runs = ray.get(_block_ranges.remote(ray.put(block)))
    pids = block.column("partition_id").to_numpy()
    routed = np.zeros(4, dtype=np.int64)
    for pid, start, length in runs:
        assert set(pids[start : start + length].tolist()) == {pid}
        routed[pid] += length
    assert routed.tolist() == want.tolist()
    assert len(runs) == np.count_nonzero(want)


def test_block_ranges_covers_multi_run_blocks():
    """A map output block can be a CONCATENATION of per-batch sorted runs
    (map_batches sub-batching): the routing must cover every row even when
    the same pid owns several runs (the dict-keyed version silently dropped
    all but one run per pid — bench lake count regression)."""
    import numpy as np
    import ray

    from etl_pipeline_rdf_star_ray.stages.exchange import _block_ranges

    run = pa.table(
        {
            "partition_id": pa.array([0, 0, 1, 2, 2, 2], pa.int32()),
            "lsn": pa.array(np.arange(6), pa.int64()),
        }
    )
    block = pa.concat_tables([run, run, run])  # 3 sorted runs, repeated pids
    runs = ray.get(_block_ranges.remote(ray.put(block)))
    assert sum(n for _pid, _s, n in runs) == block.num_rows
    per_pid = {}
    for pid, s, n in runs:
        per_pid[pid] = per_pid.get(pid, 0) + n
        assert set(block.column("partition_id").to_pylist()[s : s + n]) == {pid}
    assert per_pid == {0: 6, 1: 3, 2: 9}


def test_slice_transport_matches_ranges_and_bounds_fetch_bytes(tmp_path):
    """`transport="slices"` (the multi-node data plane) must (a) produce the
    identical lake state as the single-node ranges transport and (b) hand
    each merge task ONLY its partition's bytes — the round-2 verdict's
    fetch-amplification criterion: fetched bytes ≈ partition bytes, not
    dataset bytes."""
    import ray

    from etl_pipeline_rdf_star_ray.sources.synthetic import changelog_dataset
    from etl_pipeline_rdf_star_ray.stages.exchange import (
        _route,
        _slice_block,
    )
    from etl_pipeline_rdf_star_ray.stages.partition import make_partition_stage

    stage = make_partition_stage(
        num_partitions=4, salt_buckets=1, hot_convs=frozenset()
    )
    log = changelog_dataset(5000, n_convs=50)
    partitioned = log.map_batches(stage, batch_format="pyarrow", batch_size=None)

    lake_a, lake_b = str(tmp_path / "ranges"), str(tmp_path / "slices")
    got = {}
    for lake, transport in ((lake_a, "ranges"), (lake_b, "slices")):
        cdc.ingest(
            changelog_dataset(5000, n_convs=50),
            lake,
            num_partitions=4,
            salt_buckets=1,
            hot_convs=[],
            batch_id="b0",
            transport=transport,
        )
        got[transport] = state_table(lake).to_pandas()
    assert_frames_equal(got["ranges"], got["slices"])

    # byte accounting on the routing tables themselves. Round 5: slices are
    # GROUPED per destination node (one object per (block, node), pids as
    # zero-copy spans) — single-node test = one group, so every pid's span
    # must carve exactly its own rows out of the shared group object and
    # the group objects together must cover the dataset exactly once.
    routed, affinity = _route(partitioned, "slices")
    assert affinity and len(set(affinity.values())) == 1  # one node
    seen_refs = {}
    covered_rows = 0
    for pid, entries in routed.items():
        for ref, start, length in entries:
            assert start is not None and length is not None
            t = ray.get(ref)
            seen_refs[ref] = t.nbytes
            view = t.slice(start, length)
            assert set(view.column("partition_id").to_pylist()) == {pid}
            covered_rows += length
    assert covered_rows == sum(ray.get(r).num_rows for r in seen_refs)
    # spans within each group object are disjoint and exhaustive
    by_ref: dict = {}
    for entries in routed.values():
        for ref, start, length in entries:
            by_ref.setdefault(ref, []).append((start, length))
    for ref, spans in by_ref.items():
        spans.sort()
        pos = 0
        for start, length in spans:
            assert start == pos
            pos += length
        assert pos == ray.get(ref).num_rows


def test_slice_block_covers_multi_run_blocks():
    """The slice transport must compact EVERY run of a pid in a multi-run
    block (same trap as the _block_ranges row-loss regression)."""
    import numpy as np
    import ray

    from etl_pipeline_rdf_star_ray.stages.exchange import _slice_block

    run = pa.table(
        {
            "partition_id": pa.array([0, 0, 1, 2, 2, 2], pa.int32()),
            "lsn": pa.array(np.arange(6), pa.int64()),
        }
    )
    block = pa.concat_tables([run, run, run])
    out = ray.get(_slice_block.remote(block))

    def span_rows(entries):
        got = {}
        for pid, ref, start, n in entries:
            view = ray.get(ref).slice(start, n)
            assert set(view.column("partition_id").to_pylist()) == {pid}
            got[pid] = got.get(pid, 0) + view.num_rows
        return got

    assert span_rows(out) == {0: 6, 1: 3, 2: 9}
    # an unclustered block is still covered exactly (just with more runs)
    shuffled = block.take(pa.array(np.random.default_rng(0).permutation(18)))
    out2 = ray.get(_slice_block.remote(shuffled))
    assert span_rows(out2) == {0: 6, 1: 3, 2: 9}
    # grouped form: pids split across 2 node groups by pid % 2, spans
    # still exact per pid
    out3 = ray.get(_slice_block.remote(block, 2))
    assert span_rows(out3) == {0: 6, 1: 3, 2: 9}
    assert len({ref for _p, ref, _s, _n in out3}) == 2
    # group 0 holds pids {0, 2}, group 1 holds pid {1}
    by_ref: dict = {}
    for pid, ref, _s, _n in out3:
        by_ref.setdefault(ref, set()).add(pid)
    assert sorted(map(sorted, by_ref.values())) == [[0, 2], [1]]


def test_tail_soak_crash_between_ticks(tmp_path):
    """Continuous-tail soak (r3 verdict item 8): a growing log replayed
    across 4 ticks with a simulated crash BETWEEN ticks (one partition's
    merge task dies before its commit) — the final exactly-once lake state
    must equal a single-shot replay of the whole log, and an idle tick must
    commit nothing."""
    import pyarrow.parquet as pq
    from etl_pipeline_rdf_star_ray.stages.partition import partition_ids

    log = tmp_path / "log"
    log.mkdir()
    lake = str(tmp_path / "lake")

    # tick 1: first 1000 events
    pq.write_table(changelog_table(1000), str(log / "000.parquet"))
    cdc.tail_once(str(log), lake, num_partitions=4, salt_buckets=1)

    # tick 2 "crashes": the next 1000 events land in the log, but the
    # ingest commits every partition EXCEPT one victim (its merge task died
    # before commit_partition) — exactly the torn state a real crash leaves
    t2 = changelog_table(1000, lsn_start=1000)
    pq.write_table(t2, str(log / "001.parquet"))
    pid = partition_ids(
        t2.column("conv_id"),
        t2.column("turn_idx").combine_chunks().to_numpy(zero_copy_only=False),
        num_partitions=4, salt_buckets=1, hot_set=frozenset(),
    )
    victim = int(pid[0])
    cdc.ingest(
        rd.from_arrow(t2.filter(pa.array(pid != victim))), lake,
        num_partitions=4, salt_buckets=1, hot_convs=[], batch_id="tick2-torn",
    )

    # tick 3: more events arrive; the tail must re-deliver the victim's
    # tick-2 rows (below other partitions' watermarks) AND ingest the new
    pq.write_table(
        changelog_table(1000, lsn_start=2000), str(log / "002.parquet")
    )
    cdc.tail_once(str(log), lake, num_partitions=4, salt_buckets=1)

    # tick 4: idle — nothing new, nothing committed
    assert (
        cdc.tail_once(str(log), lake, num_partitions=4, salt_buckets=1)
        .num_rows == 0
    )

    got = state_table(lake).to_pandas().drop(columns=["partition_id"])
    assert_frames_equal(got, oracle_replay(changelog_table(3000)))

    # and byte-equal to a fresh single-shot lake built from the same log
    fresh = str(tmp_path / "fresh")
    cdc.ingest(
        rd.read_parquet(str(log)), fresh, num_partitions=4, salt_buckets=1,
        hot_convs=[],
    )
    want = state_table(fresh).to_pandas().drop(columns=["partition_id"])
    assert_frames_equal(got, want)


def test_exchange_skips_empty_passthrough_blocks(ray_session):
    """Ray's map_batches SKIPS the UDF on zero-row blocks, so a 1-row
    pandas dataset repartitioned to 3 blocks hands the exchange two empty
    PANDAS blocks straight from the input. _route must skip zero-row
    bundles and the block tasks must tolerate non-Arrow empties (round-4
    fuzz regression — the crash was `'DataFrame' object has no attribute
    'num_rows'` inside _block_ranges)."""
    import pandas as pd

    from etl_pipeline_rdf_star_ray.stages.exchange import exchange_apply

    df = pd.DataFrame({"k": [7], "v": ["x"]})
    ds = rd.from_pandas(df).repartition(3)

    def tag(batch: pa.Table) -> pa.Table:
        pid = pa.array(np.zeros(batch.num_rows, dtype=np.int32))
        return batch.append_column("partition_id", pid)

    tagged = ds.map_batches(tag, batch_format="pyarrow")
    out = exchange_apply(tagged, lambda t: t.drop_columns(["partition_id"]))
    got = out.to_pandas()
    assert got.k.tolist() == [7] and got.v.tolist() == ["x"]


def test_retention_vacuum_expires_and_keeps_salted_hot(tmp_path):
    """TTL vacuum (ops.retention): conversations whose latest surviving lsn
    is below the cutoff are physically dropped; the salted hot conversation
    — whose rows spread over multiple partitions — survives INTACT whenever
    its GLOBAL max clears the cutoff, even though most of its
    sub-partitions' local maxima do not (the phase-0 scan); a re-run with
    the same cutoff is a marker no-op."""
    from etl_pipeline_rdf_star_ray.pipelines import ops as lakeops

    lake = str(tmp_path / "lake")
    cdc.ingest(_mk_log(0, 4000), lake, num_partitions=8)
    assert "conv_hot" in mf.load_meta(lake).hot_convs
    before = state_table(lake).to_pandas()
    hot = before[before["conv_id"] == "conv_hot"]
    assert hot["partition_id"].nunique() > 1  # really salted
    # cutoff = the hot conv's global max: every sub-partition except the one
    # holding that max has a LOCAL max below the cutoff — a partition-local
    # vacuum would wrongly expire them
    cutoff = int(hot["lsn"].max())
    per_conv_max = before.groupby("conv_id")["lsn"].max()
    keep = set(per_conv_max[per_conv_max >= cutoff].index)
    drop = set(per_conv_max.index) - keep
    assert "conv_hot" in keep and drop  # both classes live

    res = lakeops.retention(lake, cutoff)
    after = state_table(lake).to_pandas()
    assert set(after["conv_id"].unique()) == keep
    # the hot conversation survives with EVERY row, across all partitions
    assert len(after[after["conv_id"] == "conv_hot"]) == len(hot)
    assert res["rows_dropped"] == len(before) - len(after)
    expect = before[before["conv_id"].isin(keep)]
    assert_frames_equal(
        after.drop(columns=["partition_id"]).sort_values(
            ["conv_id", "turn_idx"]).reset_index(drop=True),
        expect.drop(columns=["partition_id"]).sort_values(
            ["conv_id", "turn_idx"]).reset_index(drop=True),
    )

    # idempotent re-run: same cutoff → same batch_id → marker no-op
    res2 = lakeops.retention(lake, cutoff)
    assert res2["rows_dropped"] == 0
    again = state_table(lake).to_pandas()
    assert len(again) == len(after)


def test_retention_vacuum_after_ingest_at_same_watermark(tmp_path):
    """Regression (r4 advice): the default batch_id must change when the
    lake state changes. vacuum → ingest a DELETE that lowers a
    conversation's latest surviving lsn below the old watermark → vacuum at
    the SAME min_lsn must physically drop that conversation and report the
    honest count (previously: marker no-op + phantom rows_dropped). An
    explicit re-used batch_id must report 0, not a recomputed delta."""
    from etl_pipeline_rdf_star_ray.pipelines import ops as lakeops

    def _log(rows):
        return rd.from_arrow(
            pa.table(
                {
                    "op": pa.array([r[0] for r in rows]),
                    "lsn": pa.array([r[1] for r in rows], pa.int64()),
                    "conv_id": pa.array([r[2] for r in rows]),
                    "turn_idx": pa.array([r[3] for r in rows], pa.int32()),
                    "role": pa.array(["user"] * len(rows)),
                    "text": pa.array([f"t{r[1]}" for r in rows]),
                    "tool": pa.array([None] * len(rows), pa.string()),
                    "ts": pa.array([None] * len(rows), pa.timestamp("us")),
                }
            )
        )

    lake = str(tmp_path / "lake")
    # A: stale (max lsn 3 < 5). B: turn0@2 + turn1@10 → max 10, survives.
    cdc.ingest(
        _log(
            [
                ("insert", 1, "A", 0),
                ("insert", 3, "A", 1),
                ("insert", 2, "B", 0),
                ("insert", 10, "B", 1),
            ]
        ),
        lake,
        num_partitions=4,
        hot_convs=[],
    )
    res1 = lakeops.retention(lake, 5)
    assert res1["rows_dropped"] == 2  # A's two turns
    s1 = state_table(lake).to_pandas()
    assert set(s1["conv_id"]) == {"B"}

    # delete B's fresh turn → B's latest SURVIVING lsn is now 2 (< 5);
    # C arrives fresh and must survive
    cdc.ingest(
        _log([("delete", 20, "B", 1), ("insert", 21, "C", 0)]),
        lake,
        num_partitions=4,
        hot_convs=[],
    )
    res2 = lakeops.retention(lake, 5)  # SAME watermark
    s2 = state_table(lake).to_pandas()
    assert set(s2["conv_id"]) == {"C"}, "stale B must be physically dropped"
    assert res2["rows_dropped"] == 1  # B's surviving turn0 row

    # explicit batch_id reuse: duplicate commits report 0, never a
    # recomputed (phantom) delta
    r_a = lakeops.retention(lake, 5, batch_id="vac-x")
    r_b = lakeops.retention(lake, 5, batch_id="vac-x")
    assert r_b["rows_dropped"] == 0


def test_scd2_intervals_hand_changelog(ray_session):
    """SCD2 semantics on a hand log: updates supersede (half-open chain),
    a delete CLOSES the last interval without emitting a row, a re-insert
    after the delete opens a NEW current version, and a single-version key
    stays current."""
    from etl_pipeline_rdf_star_ray.pipelines.ops import scd2_intervals

    t = pa.table(
        {
            "op": pa.array(
                ["insert", "update", "delete", "insert", "insert"]
            ),
            "lsn": pa.array([1, 5, 9, 12, 3], pa.int64()),
            "conv_id": pa.array(["c1", "c1", "c1", "c1", "c2"]),
            "turn_idx": pa.array([0, 0, 0, 0, 7], pa.int32()),
            "role": pa.array(["user"] * 5),
            "text": pa.array(["v1", "v2", None, "v3", "solo"]),
            "tool": pa.array([None] * 5, pa.string()),
            "ts": pa.array([0] * 5, pa.timestamp("us")),
        }
    )
    got = (
        scd2_intervals(rd.from_arrow(t), num_partitions=4)
        .to_pandas()
        .sort_values(["conv_id", "from_lsn"])
        .reset_index(drop=True)
    )
    assert got["conv_id"].tolist() == ["c1", "c1", "c1", "c2"]
    assert got["from_lsn"].tolist() == [1, 5, 12, 3]
    # v1 superseded at 5; v2 closed by the DELETE at 9; v3 and solo open
    to = got["to_lsn"].tolist()
    assert to[0] == 5 and to[1] == 9
    assert pd.isna(to[2]) and pd.isna(to[3])
    assert got["is_current"].tolist() == [False, False, True, True]
    assert got["text"].tolist() == ["v1", "v2", "v3", "solo"]


def test_scd2_intervals_driver_row(ray_session):
    """Driver-identical comparison for the SCD2 build (beyond-window
    round-5 entry)."""
    import sys

    sys.path.insert(0, "/root/repo/tests")
    from oracle_harness import run as oracle_run

    assert oracle_run("/root/testdata/sf0.001", ["scd2_intervals"]) == 0
