"""The `ray job submit` replay-job entrypoint: full replay to exhaustion,
LSN-chunked micro-batch checkpoints, crash resume by resubmission, and the
per-partition lineage report (north rule: "resumable from checkpoint with
per-partition lineage + metrics, run via ray job submit")."""

import pyarrow.parquet as pq

from etl_pipeline_rdf_star_ray.job import replay_job
from etl_pipeline_rdf_star_ray.sources.synthetic import changelog_table
from etl_pipeline_rdf_star_ray.state.lake import state_table

from test_cdc import assert_frames_equal, oracle_replay

N = 3000


def _write_log(tmp_path):
    log = tmp_path / "log"
    log.mkdir()
    t = changelog_table(N)
    pq.write_table(t.slice(0, N // 2), str(log / "000.parquet"))
    pq.write_table(t.slice(N // 2), str(log / "001.parquet"))
    return str(log), t


def test_replay_job_chunked_matches_oracle_and_is_idempotent(tmp_path):
    log, t = _write_log(tmp_path)
    lake = str(tmp_path / "lake")

    rep = replay_job(log, lake, chunk_lsns=1000, num_partitions=8, lineage="full")
    assert rep["total_events"] == N
    assert len(rep["rounds"]) == 3  # LSNs 0..2999 in 1000-wide chunks
    assert rep["max_lsn"] == N - 1
    assert not rep["already_complete"]
    assert_frames_equal(
        state_table(lake).to_pandas().drop(columns=["partition_id"]), oracle_replay(t)
    )

    # lineage: every partition reports its commit chain, watermarks at tip
    assert rep["partitions"]
    for p in rep["partitions"].values():
        assert p["commits"] == len(p["chain"]) >= 1
        assert p["lsn_hi"] <= N - 1

    # resubmitting the identical job is a no-op (exactly-once)
    rep2 = replay_job(log, lake, chunk_lsns=1000, num_partitions=8)
    assert rep2["already_complete"] and rep2["total_events"] == 0
    # partitions untouched by the final chunk keep a lower watermark, so the
    # rerun may do catch-up rounds — every one must dedup to zero events
    assert all(r["events"] == 0 for r in rep2["rounds"])
    assert_frames_equal(
        state_table(lake).to_pandas().drop(columns=["partition_id"]), oracle_replay(t)
    )


def test_replay_job_crash_resume(tmp_path):
    log, t = _write_log(tmp_path)
    lake = str(tmp_path / "lake")

    # "crash" after the first committed chunk: max_rounds caps the job
    rep1 = replay_job(log, lake, chunk_lsns=1200, max_rounds=1, num_partitions=8)
    assert rep1["total_events"] < N and len(rep1["rounds"]) == 1

    # resume = submit the same job again; it continues from the watermark
    # floor and the final state equals a single uninterrupted replay
    rep2 = replay_job(log, lake, chunk_lsns=1200, num_partitions=8)
    assert rep1["total_events"] + rep2["total_events"] == N
    assert_frames_equal(
        state_table(lake).to_pandas().drop(columns=["partition_id"]), oracle_replay(t)
    )


def test_job_main_subprocess_smoke(tmp_path):
    """`python -m etl_pipeline_rdf_star_ray.job` — the literal command a
    `ray job submit` invocation runs — in its own process with its own Ray
    session, emitting the JSON report on stdout."""
    import json
    import subprocess
    import sys

    log, t = _write_log(tmp_path)
    lake = str(tmp_path / "lake")
    env = {"PYTHONPATH": "/root/repo", "PATH": "/usr/bin:/bin",
           "HOME": "/root", "RAY_ADDRESS": "local"}
    r = subprocess.run(
        [sys.executable, "-m", "etl_pipeline_rdf_star_ray.job",
         "--log", log, "--lake", lake, "--num-partitions", "4",
         "--chunk-lsns", "2000", "--num-cpus", "2"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    rep = json.loads(r.stdout.strip().splitlines()[-1])
    assert rep["total_events"] == N and len(rep["rounds"]) == 2
    assert rep["partitions"] and not rep["already_complete"]
    assert_frames_equal(
        state_table(lake).to_pandas().drop(columns=["partition_id"]), oracle_replay(t)
    )


def test_replay_job_unbounded_single_round(tmp_path):
    log, t = _write_log(tmp_path)
    lake = str(tmp_path / "lake")
    rep = replay_job(log, lake, num_partitions=8)
    assert len(rep["rounds"]) == 1 and rep["total_events"] == N
    assert_frames_equal(
        state_table(lake).to_pandas().drop(columns=["partition_id"]), oracle_replay(t)
    )


def test_replay_job_max_lsn_from_footers(tmp_path):
    """The replay target comes from the log files' Parquet footers; a file
    without lsn statistics has its lsn column read, and an empty file adds
    nothing. It equals the pyarrow max over the whole log."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from etl_pipeline_rdf_star_ray.schema import CHANGELOG_SCHEMA

    log, t = _write_log(tmp_path)
    pq.ParquetWriter(f"{log}/002.parquet", CHANGELOG_SCHEMA).close()
    tail = changelog_table(500, lsn_start=N)
    pq.write_table(tail, f"{log}/003.parquet", write_statistics=False)
    whole = pa.concat_tables([t, tail])
    lake = str(tmp_path / "lake")
    rep = replay_job(log, lake, chunk_lsns=1000, num_partitions=4)
    assert rep["max_lsn"] == pc.max(whole.column("lsn")).as_py() == N + 499
    assert rep["total_events"] == whole.num_rows
    assert_frames_equal(
        state_table(lake).to_pandas().drop(columns=["partition_id"]),
        oracle_replay(whole),
    )
