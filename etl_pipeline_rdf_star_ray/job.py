"""Cluster replay job — the ``ray job submit`` entrypoint.

The north-star rule (BASELINE.json) asks for the full replay to be
"resumable from checkpoint with per-partition lineage + metrics, run via
``ray job submit`` on a fixed-size multi-node Ray cluster". This module is
that job. On a real cluster:

    ray job submit --working-dir . -- \\
        python -m etl_pipeline_rdf_star_ray.job \\
        --log /shared/changelog --lake /shared/lake --num-partitions 512

Inside a Ray job the supervisor exports ``RAY_ADDRESS``, so the guarded
``ray.init()`` attaches to the submitting cluster; standalone it starts a
local session. This is a CLI entry point and therefore owns its Ray
session — the library functions it calls never init Ray.

Replay semantics: the log is consumed in bounded micro-batches
(``--chunk-lsns`` events of LSN space per round; unbounded = one pass).
Each round is one durable exactly-once micro-batch (commit markers +
per-partition watermarks, ``state/sink.py``), so a crashed or preempted
job is resumed by SUBMITTING THE SAME JOB AGAIN: the read prunes below the
lake's committed watermark floor and the per-partition filter drops every
already-committed event — completed chunks are skipped, the in-flight one
is re-done idempotently, nothing is rewritten. ``--chunk-lsns`` is the
mid-replay checkpoint granularity: at 10^10 events a restart loses at most
one chunk of work, not the replay.

Exit report: one JSON document on stdout (the job log) with per-round and
whole-job throughput plus per-partition lineage (commit chain: batch_id,
LSN range, rows, file checksum) from the manifest — the reference's run
statistics report (``batch_cli.py`` ``status``/``list`` verbs) as a
machine-readable job artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import pyarrow.compute as pc


def replay_job(
    log_dir: str,
    lake_dir: str,
    *,
    chunk_lsns: int | None = None,
    max_rounds: int | None = None,
    lineage: str = "summary",
    **ingest_kw,
) -> dict:
    """Replay ``log_dir`` into ``lake_dir`` to exhaustion; return the job
    report. Resume-safe: re-running continues from the committed watermark
    floor (see module docstring). ``ingest_kw`` is forwarded to
    :func:`pipelines.cdc.ingest` (num_partitions, salt_buckets, ...)."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from .pipelines.cdc import footer_max_lsn, ingest, log_files
    from .state import manifest as mf

    # The replay target, from the log files' footers (a file without lsn
    # statistics reads its lsn column). Lets chunked rounds distinguish
    # "gap in LSN space" from "log exhausted".
    max_lsn = -1
    for path in log_files(log_dir):
        hi = footer_max_lsn(path)
        if hi is None:
            hi = pc.max(pq.read_table(path, columns=["lsn"]).column("lsn")).as_py()
        if hi is not None:
            max_lsn = max(max_lsn, hi)

    def floor() -> int:
        if not os.path.exists(os.path.join(lake_dir, mf.META_FILE)):
            return -1
        return mf.watermark_floor(
            mf.active_versions(lake_dir), mf.load_meta(lake_dir).num_partitions
        )

    # The cursor re-derives from the lake's committed watermark floor, so a
    # resubmitted job starts where the last durable chunk ended. Advancing
    # it by chunk even when a chunk is empty (LSN gap) keeps the loop
    # terminating; a floor that lags the cursor (chunk touched only some
    # partitions) costs only read I/O — ingest's per-partition filter is
    # the exact dedup either way.
    rounds: list[dict] = []
    t_job = time.perf_counter()
    total_events = 0
    cursor = floor()
    while cursor < max_lsn and (max_rounds is None or len(rounds) < max_rounds):
        flt = pc.field("lsn") > cursor
        hi = max_lsn
        if chunk_lsns is not None:
            hi = min(cursor + chunk_lsns, max_lsn)
            flt = flt & (pc.field("lsn") <= hi)
        t0 = time.perf_counter()
        recs = ingest(rd.read_parquet(log_dir, filter=flt), lake_dir, **ingest_kw)
        sec = time.perf_counter() - t0
        events = sum(recs.column("event_count").to_pylist()) if recs.num_rows else 0
        total_events += events
        cursor = hi
        rounds.append(
            {
                "round": len(rounds),
                "events": events,
                "sec": round(sec, 3),
                "events_per_sec": int(events / sec) if sec > 0 else 0,
                "lsn_cursor": cursor,
                "wm_floor_after": floor(),
            }
        )

    wall = time.perf_counter() - t_job

    # Per-partition lineage from the manifest (the checkpoint itself).
    parts: dict[int, dict] = {}
    if os.path.exists(os.path.join(lake_dir, mf.MANIFEST_DIR)):
        for r in sorted(mf.load_records(lake_dir), key=lambda r: (r.partition_id, r.lsn_hi)):
            p = parts.setdefault(
                r.partition_id,
                {"commits": 0, "rows": 0, "events": 0, "lsn_hi": -1, "chain": []},
            )
            p["commits"] += 1
            p["rows"] = r.row_count  # latest active row count
            p["events"] += r.event_count
            p["lsn_hi"] = max(p["lsn_hi"], r.lsn_hi)
            if lineage == "full":
                p["chain"].append(
                    {
                        "batch_id": r.batch_id,
                        "lsn_lo": r.lsn_lo,
                        "lsn_hi": r.lsn_hi,
                        "rows": r.row_count,
                        "events": r.event_count,
                        "file": r.file,
                        "checksum": r.checksum,
                        "status": r.status,
                    }
                )
    if lineage != "full":
        for p in parts.values():
            p.pop("chain")

    return {
        "job": "cdc_replay",
        "log": log_dir,
        "lake": lake_dir,
        "max_lsn": max_lsn,
        "rounds": rounds,
        "total_events": total_events,
        "wall_sec": round(wall, 3),
        "events_per_sec": int(total_events / wall) if wall > 0 else 0,
        "already_complete": total_events == 0,
        "partitions": {str(k): v for k, v in sorted(parts.items())},
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="python -m etl_pipeline_rdf_star_ray.job")
    p.add_argument("--log", required=True, help="change-log parquet dir")
    p.add_argument("--lake", required=True, help="lake table dir")
    p.add_argument("--num-partitions", type=int, default=64)
    p.add_argument("--salt-buckets", type=int, default=8)
    p.add_argument("--chunk-lsns", type=int, default=None,
                   help="micro-batch size in LSN space (checkpoint granularity)")
    p.add_argument("--max-rounds", type=int, default=None)
    p.add_argument("--lineage", choices=["summary", "full"], default="summary")
    p.add_argument("--num-cpus", type=int, default=None,
                   help="local-mode CPU cap (ignored when attached to a cluster)")
    args = p.parse_args(argv)

    import ray

    if not ray.is_initialized():
        # Under `ray job submit` RAY_ADDRESS points at the cluster; passing
        # num_cpus there is an error (ray.init rejects resource caps when
        # connecting to an existing cluster — ADVICE r2), so the flag is
        # only honored for standalone/local starts.
        addr = os.environ.get("RAY_ADDRESS", "")
        kwargs: dict = {"logging_level": "ERROR"}
        if addr in ("", "local"):
            kwargs.update(
                num_cpus=args.num_cpus, include_dashboard=False
            )
        ray.init(**kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    report = replay_job(
        args.log,
        args.lake,
        chunk_lsns=args.chunk_lsns,
        max_rounds=args.max_rounds,
        lineage=args.lineage,
        num_partitions=args.num_partitions,
        salt_buckets=args.salt_buckets,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
