"""CDC ingest benchmark: one workload per invocation, one JSON line at the end.

Usage, from the repository root::

    python3 perfbench/run.py --workload replay_bulk --seed 1 --seconds 14 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics instead (see README.md in this directory). The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``.
Everything the run writes stays under ``.bench_work/`` and ``.rt/`` in the
repository root.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import statistics
import sys
import threading
import traceback
from contextlib import nullcontext

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_work")
#: Ray sessions per run; each sets up once, so setup_s is their median
SESSIONS = 2
#: Ray keeps its unix sockets under its temp dir; their paths must stay
#: within the AF_UNIX limit of 107 bytes
RAY_TEMP = os.path.join(ROOT, ".rt")
RAY_SOCKET_SUFFIX = len("/session_2026-01-01_00-00-00_000000_0000000/sockets/plasma_store")


def nproc() -> int:
    """CPUs this process may run on. The ``nproc`` command can print fewer:
    it honours ``OMP_NUM_THREADS``."""
    return len(os.sched_getaffinity(0))


def start_ray() -> None:
    """Start a local Ray session sized to this host. Idle workers are kept
    alive: with the default idle-worker reaping, the session restarts a
    worker process on alternate tail rounds (about 1 s each), which buries
    the engine's own round cost."""
    import ray
    from ray.data import DataContext

    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    if ROOT not in paths:  # Ray workers import the engine from the checkout
        os.environ["PYTHONPATH"] = os.pathsep.join(p for p in [ROOT, *paths] if p)
    kwargs = {}
    if len(RAY_TEMP) + RAY_SOCKET_SUFFIX <= 107:
        kwargs["_temp_dir"] = RAY_TEMP
    else:
        print("perfbench: checkout path too long for Ray sockets; using "
              "Ray's default temp dir", file=sys.stderr)
    ray.init(
        address="local",
        num_cpus=nproc(),
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=600 * 1024 * 1024,
        _system_config={
            "num_workers_soft_limit": 2,
            "idle_worker_killing_time_threshold_ms": 3_600_000,
        },
        **kwargs,
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def stop_ray() -> None:
    """Shut Ray down and wait until every process it started has ended."""
    import ray
    import psutil  # vendored by Ray: importable once ray is

    if not ray.is_initialized():
        return
    procs = psutil.Process().children(recursive=True)
    ray.shutdown()
    _, alive = psutil.wait_procs(procs, timeout=15)
    for p in alive:
        p.kill()
    psutil.wait_procs(alive, timeout=5)


def _session_pids() -> list[int]:
    import ray  # noqa: F401  (puts Ray's vendored psutil on sys.path)
    import psutil

    me = psutil.Process()
    return [me.pid, *(p.pid for p in me.children(recursive=True))]


def _hwm_bytes(pid: int) -> int | None:
    """The kernel's peak-RSS mark (``VmHWM``) of ``pid``; None once it exited."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except (FileNotFoundError, ProcessLookupError):
        pass
    return None


class PeakRss:
    """Sum over this process and every process it started of each one's
    peak RSS during the timed part. The kernel keeps each peak
    (``VmHWM``), so no short spike is missed between samples; the marks are
    reset when the timed part starts, and read again every second so a
    process that exits early keeps its last mark. Pages a process shares
    (the object store, libraries) count once per process that touched them,
    and the processes need not peak together: the sum is an upper bound on
    the session's peak footprint."""

    def __init__(self):
        self.marks: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    @property
    def peak(self) -> int:
        return sum(self.marks.values())

    def _read(self) -> None:
        for pid in _session_pids():
            mark = _hwm_bytes(pid)
            if mark is not None:
                self.marks[pid] = mark

    def _loop(self) -> None:
        while not self._stop.wait(1.0):
            self._read()

    def __enter__(self):
        for pid in _session_pids():
            try:
                with open(f"/proc/{pid}/clear_refs", "w") as f:
                    f.write("5")  # 5: reset the peak-RSS mark to current RSS
            except (FileNotFoundError, ProcessLookupError):
                pass
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._read()


def end_to_end(rec, setups, peaks) -> dict:
    """Steal-adjusted timings (``Timed.time``) pooled over the sessions."""
    times = [r.time for r in rec.rounds]
    first, last = [], []
    for s in sorted({r.session for r in rec.rounds}):
        ts = [r.time for r in rec.rounds if r.session == s]
        k = min(20, len(ts) // 2)
        first += ts[:k]
        last += ts[-k:]
    in_bytes = sum(r.in_bytes for r in rec.rounds)
    return {
        "setup_s": (statistics.median(t.time for t in setups), "s"),
        "events_per_s": (statistics.median(r.events / r.time for r in rec.rounds), "1/s"),
        "round_p50_s": (statistics.median(times), "s"),
        "round_p90_s": (statistics.quantiles(times, n=10, method="inclusive")[-1], "s"),
        "round_growth": (statistics.median(last) / statistics.median(first), "ratio"),
        "snapshot_read_s": (statistics.median(t.time for t in rec.snapshots), "s"),
        "write_amp": (rec.lake_bytes / in_bytes, "ratio"),
        "peak_rss_mb": (statistics.median(peaks) / 1e6, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="a workload name, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=14)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, ROOT)
    try:
        from etl_pipeline_rdf_star_ray.pipelines import cdc  # noqa: F401
    except ImportError as e:
        print(f"perfbench: the engine package is not importable: {e}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    # keep every library's temp files inside the checkout too
    os.environ["TMPDIR"] = os.path.join(WORK, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)

    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        print(f"perfbench: unknown workload {args.workload!r}; choose 'all' or "
              f"one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    results = []
    for name in names:
        run_dir = os.path.join(WORK, f"run-{os.getpid()}")
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        try:
            result = measure(WORKLOADS[name], args, run_dir)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
            shutil.rmtree(RAY_TEMP, ignore_errors=True)
        if result is None:
            return 1
        results.append((name, result))

    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["failed"] == 0 for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": {
            (f"{name}.{m}" if prefix else m): {"value": v, "unit": u}
            for name, r in results
            for m, (v, u) in r["metrics"].items()
        },
    }), flush=True)
    return 0


def measure(workload_cls, args, run_dir: str) -> dict | None:
    """Run ``SESSIONS`` sessions of one workload: each starts Ray, sets up,
    runs the timed part and stops Ray. The last session also runs the
    checks. Timings are pooled over the sessions: a Ray session's round
    times move by about 10% as a whole, so one session per run would make
    that the run-to-run spread."""
    import check
    from workloads import Recorder, timed

    from etl_pipeline_rdf_star_ray.state import lake

    workload = workload_cls(args.seed, args.seconds / SESSIONS, WORK)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    rec = Recorder(tracer=tracer)
    setups, peaks = [], []

    def set_up(session_dir: str) -> None:
        start_ray()
        workload.setup(session_dir)

    try:
        for s in range(SESSIONS):
            session_dir = os.path.join(run_dir, f"session{s}")
            os.makedirs(session_dir)
            rec.session = s
            try:
                seed_scope = tracer is not None and workload.SEEDS_LAKE
                with tracer.scope("seed") if seed_scope else nullcontext():
                    setups.append(timed(lambda: set_up(session_dir))[1])

                with PeakRss() as rss:
                    try:
                        workload.run(rec)
                    except Exception:
                        traceback.print_exc()
                        rec.failed += 1
                peaks.append(rss.peak)
                if tracer is not None:
                    tracer.collect_timeline()
                    tracer.kernel_pass(os.path.join(session_dir, "kernel"))
                if s == SESSIONS - 1 and rec.rounds and rec.snapshots:
                    snap = lake.state_table(workload.lake_dir)
                    diff = check.state_diff_rows([f.path for f in workload.files], snap)
                    new_commits, unchanged = check.exactly_once(workload, snap)
                    rec.attempted += 2
                    rec.failed += int(diff != 0) + int(new_commits != 0 or not unchanged)
            finally:
                stop_ray()
                shutil.rmtree(session_dir, ignore_errors=True)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if not rec.rounds or not rec.snapshots:
        print("perfbench: no round completed", file=sys.stderr)
        return None

    if tracer is not None:
        tracer.dump(os.path.join(WORK, f"trace-{workload.name}-s{args.seed}.json"))
        metrics = tracer.metrics(rec.rounds)
    else:
        metrics = end_to_end(rec, setups, peaks)
    print(f"workload {workload.name} seed {args.seed}: {SESSIONS} sessions, "
          f"{len(rec.rounds)} rounds, {len(rec.snapshots)} snapshot reads; share "
          f"of busy vCPU time stolen by the host: "
          f"{statistics.median(r.stolen for r in rec.rounds):.1%} median, "
          f"{max(r.stolen for r in rec.rounds):.1%} max over rounds")
    for name, (value, unit) in metrics.items():
        print(f"  {name:30s} {value:14.6g} {unit}")
    print(f"  state_diff_rows {diff}; re-ingest new commits {new_commits}, "
          f"snapshot unchanged {unchanged}; failed_ops {rec.failed}/{rec.attempted}")
    return {"attempted": rec.attempted, "failed": rec.failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
