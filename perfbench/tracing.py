"""Per-layer tracing from outside the engine.

The tracer replaces public functions of the engine's modules with timing
wrappers (in the benchmark process only), reads task spans from ``ray.timeline()``, and
re-runs the merge kernels in this process over the exact slices the traced
rounds routed. Spans stay in memory; :meth:`Tracer.dump` writes them once.

Spans carry a *scope*: ``round`` (inside a traced ingest round),
``snapshot`` (inside a traced snapshot read) or ``seed`` (the set-up ingest
that creates the tail workload's lake). Wrappers record nothing outside a
scope.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float  # epoch seconds, comparable with ray.timeline()
    dur: float
    depth: int  # nesting depth within its layer
    scope: str
    extra: dict = field(default_factory=dict)


class TimingFS:
    """CommitFS that times the data put and the marker operations."""

    def __init__(self, inner):
        self.inner = inner
        self.put_s = self.marker_s = 0.0
        self.bytes = 0

    def put_atomic(self, path: str, data: bytes) -> None:
        t0 = time.perf_counter()
        self.inner.put_atomic(path, data)
        self.put_s += time.perf_counter() - t0
        self.bytes += len(data)

    def put_if_absent(self, path: str, data: bytes) -> bool:
        t0 = time.perf_counter()
        created = self.inner.put_if_absent(path, data)
        self.marker_s += time.perf_counter() - t0
        return created

    def exists(self, path: str) -> bool:
        t0 = time.perf_counter()
        found = self.inner.exists(path)
        self.marker_s += time.perf_counter() - t0
        return found

    def read(self, path: str) -> bytes:
        return self.inner.read(path)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.tasks: list[dict] = []
        self.kernel: dict = {}
        self._scope: str | None = None
        self._depth: dict[str, int] = {}
        self._restore: list = []
        self._route = None
        self._routes: list[dict] = []

    # -- wrappers ---------------------------------------------------------

    def install(self) -> None:
        from etl_pipeline_rdf_star_ray.pipelines import cdc
        from etl_pipeline_rdf_star_ray.stages import exchange
        from etl_pipeline_rdf_star_ray.state import lake
        from etl_pipeline_rdf_star_ray.state import manifest as mf

        self._wrap(cdc, "ingest", "cdc")
        self._wrap(cdc, "detect_hot_convs", "partition")
        self._wrap(exchange, "exchange_ingest", "exchange", self._on_exchange)
        self._wrap(exchange, "_route", "route", self._on_route)
        for name in ("watermarks", "active_versions", "load_records"):
            self._wrap(mf, name, "manifest", self._on_manifest)
        self._wrap(lake, "snapshot_files", "lake")
        self._wrap(lake, "state_table", "lake")

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._restore):
            setattr(module, attr, orig)
        self._restore.clear()

    def _wrap(self, module, attr: str, layer: str, on_result=None) -> None:
        orig = getattr(module, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if self._scope is None:
                return orig(*args, **kwargs)
            depth = self._depth.get(layer, 0)
            self._depth[layer] = depth + 1
            start, t0 = time.time(), time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                self._depth[layer] = depth
            span = Span(f"{module.__name__}.{attr}", start,
                        time.perf_counter() - t0, depth, self._scope)
            if on_result is not None:
                on_result(span, args, kwargs, out)
            self.spans.append(span)
            return out

        setattr(module, attr, wrapper)
        self._restore.append((module, attr, orig))

    def _on_route(self, span, args, kwargs, out) -> None:
        pid_slices = out[0]
        self._route = pid_slices
        fanin = [len(s) for s in pid_slices.values()]
        span.extra = {
            "blocks": len({ref for s in pid_slices.values() for ref, _, _ in s}),
            "fanin": fanin,
        }

    def _on_exchange(self, span, args, kwargs, out) -> None:
        # keep the routed slices (and the refs that pin their blocks) for
        # the in-process kernel pass
        self._routes.append(
            {
                "slices": self._route,
                "active": dict(kwargs["active_files"]),
                "batch_id": kwargs["batch_id"],
            }
        )
        self._route = None

    def _on_manifest(self, span, args, kwargs, out) -> None:
        if span.name.endswith("load_records"):
            span.extra = {"records": len(out)}

    @contextmanager
    def scope(self, name: str):
        self._scope = name
        try:
            yield
        finally:
            self._scope = None

    # -- after the timed part ----------------------------------------------

    def collect_timeline(self) -> None:
        """Add the session's task spans from Ray's task events (flushed about
        once a second); call before the session stops."""
        import ray

        time.sleep(1.5)
        self.tasks += [
            {"cat": e["cat"], "start": e["ts"] / 1e6, "dur": e["dur"] / 1e6}
            for e in ray.timeline()
            if e.get("ph") == "X" and str(e.get("cat", "")).startswith("task::")
        ]

    def kernel_pass(self, kernel_dir: str) -> None:
        """Re-run concat → LWW merge → commit in this process over the
        routed slices of the session's traced rounds, as
        ``_merge_commit_task`` does, with a timing CommitFS; call before the
        session stops. Slices are ``(block ref, start, length)`` ranges: a
        one-node session always routes with the ranges transport."""
        import pyarrow.compute as pc
        import pyarrow.parquet as pq
        import ray

        from etl_pipeline_rdf_star_ray.schema import concat_evolving
        from etl_pipeline_rdf_star_ray.stages.merge import merge_state_and_events
        from etl_pipeline_rdf_star_ray.state.commitfs import DEFAULT_FS
        from etl_pipeline_rdf_star_ray.state.sink import commit_partition

        fs = TimingFS(DEFAULT_FS)
        concat_s = lww_s = commit_s = 0.0
        for i, route in enumerate(self._routes):
            out_dir = os.path.join(kernel_dir, str(i))
            for pid, slices in sorted(route["slices"].items()):
                refs = list(dict.fromkeys(ref for ref, _, _ in slices))
                blocks = dict(zip(refs, ray.get(refs)))
                parts = [blocks[ref].slice(start, n) for ref, start, n in slices]
                prior = route["active"].get(pid)
                state = pq.read_table(prior) if prior is not None else None
                t0 = time.perf_counter()
                events = concat_evolving(parts)
                t1 = time.perf_counter()
                new_state = merge_state_and_events(state, events)
                t2 = time.perf_counter()
                lsns = events.column("lsn")
                commit_partition(
                    new_state,
                    lake_dir=out_dir,
                    partition_id=pid,
                    batch_id=route["batch_id"],
                    lsn_lo=pc.min(lsns).as_py(),
                    lsn_hi=pc.max(lsns).as_py(),
                    event_count=events.num_rows,
                    wall_start=t2,
                    fs=fs,
                )
                t3 = time.perf_counter()
                concat_s, lww_s, commit_s = (
                    concat_s + t1 - t0, lww_s + t2 - t1, commit_s + t3 - t2
                )
            shutil.rmtree(out_dir, ignore_errors=True)
        self._routes.clear()  # releases the pinned blocks
        for name, value in (
            ("schema.concat_s", concat_s),
            ("merge.lww_s", lww_s),
            ("sink.commit_s", commit_s),
            ("sink.put_s", fs.put_s),
            ("sink.marker_s", fs.marker_s),
            ("sink.bytes", fs.bytes),
        ):
            self.kernel[name] = self.kernel.get(name, 0) + value

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(
                {
                    "spans": [asdict(s) for s in self.spans],
                    "tasks": self.tasks,
                    "kernel": self.kernel,
                },
                f,
            )

    # -- metrics -----------------------------------------------------------

    def metrics(self, rounds) -> dict[str, tuple[float, str]]:
        def spans(suffix, scopes=("round",), depth=None):
            return [
                s for s in self.spans
                if s.name.endswith(suffix) and s.scope in scopes
                and (depth is None or s.depth == depth)
            ]

        ingests = spans("cdc.ingest", depth=0)
        windows = [(s.start, s.start + s.dur) for s in ingests]

        def in_window(t):
            return any(lo <= t["start"] <= hi for lo, hi in windows)

        tasks = [t for t in self.tasks if in_window(t)]
        part_tasks = [
            t["dur"] for t in tasks
            if "ReadParquet" in t["cat"] or "MapBatches(stage)" in t["cat"]
        ]
        merges = [t["dur"] for t in tasks if t["cat"].endswith("_merge_commit_task")]
        exch = spans("exchange_ingest")
        pre = [x.start - i.start for i, x in zip(ingests, exch)]
        routes = spans("_route")
        fanin = [n for r in routes for n in r.extra["fanin"]]
        manifest = [s for s in spans("", depth=0) if ".manifest." in s.name]
        records = sum(s.extra.get("records", 0) for s in spans("load_records"))
        snap_files = spans("snapshot_files", ("snapshot",))
        reads = spans("state_table", ("snapshot",), depth=0)

        traced = [r for r in rounds if r.traced]
        untraced = [r for r in rounds if not r.traced]

        def eps(rs):
            return sum(r.events for r in rs) / sum(r.time for r in rs) if rs else 0.0

        ingest_wall = sum(s.dur for s in ingests)
        task_iv = [(t["start"], t["start"] + t["dur"]) for t in tasks]
        pre_iv = [(i.start, x.start) for i, x in zip(ingests, exch)]
        out = {
            "cdc.ingest_s": (ingest_wall, "s"),
            "cdc.driver_pre_s": (sum(pre), "s"),
            "manifest.calls": (len(manifest), "count"),
            "manifest.read_s": (sum(s.dur for s in manifest), "s"),
            "manifest.records": (records, "count"),
            "partition.task_busy_s": (sum(part_tasks), "s"),
            "partition.keep_ratio": (
                sum(r.committed for r in traced)
                / max(1, sum(r.rows_read for r in traced)),
                "ratio",
            ),
            "partition.detect_hot_s": (
                sum(s.dur for s in spans("detect_hot_convs", ("round", "seed"))), "s"
            ),
            "exchange.blocks": (sum(r.extra["blocks"] for r in routes), "count"),
            "exchange.route_s": (sum(s.dur for s in routes), "s"),
            "exchange.fanin_mean": (statistics.fmean(fanin) if fanin else 0.0, "count"),
            "exchange.fanin_max": (max(fanin, default=0), "count"),
            "exchange.merge_tasks": (len(fanin), "count"),
            "exchange.merge_busy_s": (sum(merges), "s"),
            "exchange.merge_p50_s": (statistics.median(merges) if merges else 0.0, "s"),
            "exchange.merge_max_s": (max(merges, default=0.0), "s"),
            "lake.snapshot_files_s": (sum(s.dur for s in snap_files), "s"),
            "lake.read_s": (
                sum(s.dur for s in reads) - sum(s.dur for s in snap_files), "s"
            ),
            "trace.events_per_s": (eps(traced), "1/s"),
            "trace.untraced_events_per_s": (eps(untraced), "1/s"),
            "trace.slowdown": (
                eps(untraced) / eps(traced) if traced and untraced else 1.0, "ratio"
            ),
            "trace.task_share": (_covered(task_iv) / ingest_wall, "ratio"),
            "trace.coverage": (_covered(task_iv + pre_iv) / ingest_wall, "ratio"),
        }
        for name, value in self.kernel.items():
            out[name] = (value, "bytes" if name == "sink.bytes" else "s")
        return out


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total
