"""The three ingest workloads and the timed loop that records their rounds.

A *round* is one call that ingests new log data and returns when its
commits are durable; its wall time runs from the moment its log file is on
disk until that call returns. A *pass* is a fixed list of rounds on a fresh
lake. A run holds several Ray *sessions* (see ``run.py``); each session
sets up, then does the same timed work on lakes of its own. The amount of
timed work is fixed by ``--seconds`` alone, so both sides of a comparison
do the same work.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field

from inputs import LogFile, LogShape, materialize

SNAPSHOT_READS = 3


def cpu_ticks() -> tuple[int, int]:
    """Ticks the host's vCPUs have so far spent busy, and ticks the
    hypervisor has stolen from them while they had work, from the first line
    of ``/proc/stat`` (user nice system idle iowait irq softirq steal ...)."""
    with open("/proc/stat") as f:
        v = [int(x) for x in f.readline().split()[1:]]
    return v[0] + v[1] + v[2] + v[5] + v[6], v[7] if len(v) > 7 else 0


@dataclass
class Timed:
    """One timed call: its wall time, and the share of the time its vCPUs
    had work that the hypervisor gave to other machines instead."""

    wall: float
    stolen: float

    @property
    def time(self) -> float:
        """Wall time with the stolen share taken out: the call's runnable
        threads waited that share of their time, so its critical path did
        too. Equal to ``wall`` on a host that steals nothing."""
        return self.wall * (1 - self.stolen)


def timed(fn) -> tuple:
    """Call ``fn``; return its result and a :class:`Timed`."""
    b0, s0 = cpu_ticks()
    t0 = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - t0
    b1, s1 = cpu_ticks()
    busy, stolen = b1 - b0, s1 - s0
    return out, Timed(wall, stolen / (busy + stolen) if busy + stolen else 0.0)


@dataclass
class Round(Timed):
    events: int
    in_bytes: int
    session: int
    traced: bool
    committed: int
    rows_read: int


@dataclass
class Recorder:
    """Timed-part bookkeeping: round walls, snapshot-read walls, lake bytes
    written and failures. With a tracer, every other *unit* is traced (a
    pass, or five rounds where a pass is one long closed loop), starting
    with the second, so traced and untraced work is alike and the first,
    coldest unit stays untraced."""

    tracer: object | None = None
    rounds: list[Round] = field(default_factory=list)
    snapshots: list[Timed] = field(default_factory=list)
    lake_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    unit: int = -1
    session: int = -1

    def next_unit(self) -> None:
        self.unit += 1

    @property
    def traced(self) -> bool:
        return self.tracer is not None and self.unit % 2 == 1

    def round(self, fn, events: int, in_bytes: int, rows_read=None) -> None:
        traced = self.traced
        # rows the round's read yields, derived from the lake state before it;
        # traced rounds only, outside the timed span
        read = rows_read() if traced and rows_read else events
        self.attempted += 1
        with self._scope(traced, "round"):
            manifest_rows, t = timed(fn)
        committed = sum(manifest_rows.column("event_count").to_pylist())
        self.rounds.append(
            Round(t.wall, t.stolen, events, in_bytes, self.session, traced,
                  committed, read)
        )

    def snapshot(self, lake_dir: str, reads: int = SNAPSHOT_READS) -> None:
        """Read the live snapshot ``reads`` times in a row: a single small
        read is at the mercy of the Ray processes' background work."""
        from etl_pipeline_rdf_star_ray.state import lake

        for _ in range(reads):
            self.attempted += 1
            with self._scope(self.traced, "snapshot"):
                self.snapshots.append(timed(lambda: lake.state_table(lake_dir))[1])

    def _scope(self, traced: bool, scope: str):
        from contextlib import nullcontext

        return self.tracer.scope(scope) if traced else nullcontext()


def lake_bytes(lake_dir: str) -> int:
    """Bytes of every partition data file under the lake."""
    total = 0
    for entry in os.scandir(lake_dir):
        if entry.is_dir() and entry.name.startswith("part="):
            total += sum(f.stat().st_size for f in os.scandir(entry.path))
    return total


def _durable_copy(src: str, dst: str) -> None:
    shutil.copyfile(src, dst)
    for path, flags in ((dst, os.O_RDONLY), (os.path.dirname(dst), os.O_RDONLY)):
        fd = os.open(path, flags)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def _read(files: list[LogFile]):
    import ray.data as rd

    return rd.read_parquet([f.path for f in files])


class Workload:
    """Base: ``files`` are the cached log files; ``seconds`` is the timed
    work of one session; ``session_dir`` is the current session's scratch
    directory. Subclasses define the shape, the passes and the re-ingest of
    the last round used by the exactly-once check."""

    name = ""
    #: whether set-up seeds the lake the timed rounds write (traced as "seed")
    SEEDS_LAKE = False

    #: files the set-up's warm-up ingest reads, and the workload's
    #: ``cdc.ingest`` options
    WARM_FILES = 1
    INGEST_KW: dict = {}

    def __init__(self, seed: int, seconds: float, work_dir: str):
        self.seconds = seconds
        self.files = materialize(self.shape(), seed, work_dir)
        self.session_dir = ""
        self.lake_dir = ""

    def shape(self) -> LogShape:
        raise NotImplementedError

    def setup(self, session_dir: str) -> None:
        """Set-up after Ray starts (part of ``setup_s``): an ingest of the
        first ``WARM_FILES`` files, with the workload's options, into a
        throw-away lake, so the workers, Ray Data's operators and the
        engine's imports are warm before the first timed round."""
        from etl_pipeline_rdf_star_ray.pipelines import cdc

        self.session_dir = session_dir
        files = self.files[: self.WARM_FILES]
        cdc.ingest(_read(files), self.fresh_dir("warm-lake"), **self.INGEST_KW)

    def run(self, rec: Recorder) -> None:
        raise NotImplementedError

    def reingest_last_round(self) -> None:
        raise NotImplementedError

    def fresh_dir(self, name: str) -> str:
        path = os.path.join(self.session_dir, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path


class ReplayBulk(Workload):
    """One ``cdc.ingest`` of the whole log into a fresh 64-partition lake,
    repeated once per pass, with a snapshot read after each ingest. A
    quarter of the log is warm-up enough: the first timed pass is no slower
    than the rest."""

    name = "replay_bulk"
    EVENTS, FILES = 200_000, 8
    #: a pass and its snapshot read take about this long on a 4-vCPU host
    PASS_SECONDS = 2.5
    WARM_FILES = 2
    INGEST_KW = {"num_partitions": 64}

    def shape(self) -> LogShape:
        step = self.EVENTS // self.FILES
        return LogShape(
            self.name,
            tuple((i * step, (i + 1) * step, False) for i in range(self.FILES)),
            (("hot_frac", 0.10), ("n_convs", self.EVENTS // 5)),
        )

    def _ingest(self):
        from etl_pipeline_rdf_star_ray.pipelines import cdc

        return cdc.ingest(_read(self.files), self.lake_dir, **self.INGEST_KW)

    def run(self, rec: Recorder) -> None:
        events = sum(f.rows for f in self.files)
        in_bytes = sum(f.bytes for f in self.files)
        for p in range(max(2, round(self.seconds / self.PASS_SECONDS))):
            self.lake_dir = self.fresh_dir(f"lake{p}")
            rec.next_unit()
            rec.round(self._ingest, events, in_bytes)
            rec.lake_bytes += lake_bytes(self.lake_dir)
            rec.snapshot(self.lake_dir, reads=1)

    def reingest_last_round(self) -> None:
        self._ingest()


class EvolveHot(Workload):
    """A skewed, update-heavy log ingested in 8 rounds; ``tool_args`` appears
    from file 9 of 16 on, so round 4 (counting from 0) mixes both schemas and
    every later round merges wide events into narrower state."""

    name = "evolve_hot"
    EVENTS, FILES, ROUNDS, EVOLVE_AT = 160_000, 16, 8, 9
    PASS_SECONDS = 7
    WARM_FILES = FILES // ROUNDS
    INGEST_KW = {"num_partitions": 64, "hot_convs": "auto"}

    def shape(self) -> LogShape:
        step = self.EVENTS // self.FILES
        return LogShape(
            self.name,
            tuple(
                (i * step, (i + 1) * step, i >= self.EVOLVE_AT)
                for i in range(self.FILES)
            ),
            (("hot_frac", 0.30), ("hot_turns", 50_000), ("update_pct", 60)),
        )

    def _round_files(self, r: int) -> list[LogFile]:
        per = self.FILES // self.ROUNDS
        return self.files[r * per : (r + 1) * per]

    def _ingest(self, r: int):
        from etl_pipeline_rdf_star_ray.pipelines import cdc

        return cdc.ingest(_read(self._round_files(r)), self.lake_dir, **self.INGEST_KW)

    def run(self, rec: Recorder) -> None:
        for p in range(max(1, round(self.seconds / self.PASS_SECONDS))):
            self.lake_dir = self.fresh_dir(f"lake{p}")
            rec.next_unit()
            for r in range(self.ROUNDS):
                files = self._round_files(r)
                rec.round(
                    lambda r=r: self._ingest(r),
                    sum(f.rows for f in files),
                    sum(f.bytes for f in files),
                )
                if r % 4 == 3:
                    rec.snapshot(self.lake_dir)
            rec.lake_bytes += lake_bytes(self.lake_dir)

    def reingest_last_round(self) -> None:
        self._ingest(self.ROUNDS - 1)


class TailMicrobatch(Workload):
    """A closed loop over a lake seeded (during set-up) from a 50k-event log
    file: each round the producer appends one durable 2,000-event file to the
    log and ``cdc.tail_once`` catches up; a snapshot read follows every 5th
    round.

    Set-up also runs ``WARM_ROUNDS`` rounds: the first round after the seed
    takes about twice as long as the rest. At ``--seconds 14`` the log ends
    with 21 files; past 24, ``ray.data.read_parquet`` fetches file metadata
    with remote tasks and about one round in six takes over a second."""

    name = "tail_microbatch"
    SEEDS_LAKE = True
    SEED_EVENTS, ROUND_EVENTS, PARTITIONS = 50_000, 2_000, 16
    WARM_ROUNDS = 2
    #: a round, with its share of snapshot reads, takes about this long on a
    #: 4-vCPU host
    ROUND_SECONDS = 0.38

    def rounds(self) -> int:
        return max(10, round(self.seconds / self.ROUND_SECONDS))

    def shape(self) -> LogShape:
        n, step = self.SEED_EVENTS, self.ROUND_EVENTS
        files = [(0, n, False)]
        files += [
            (n + i * step, n + (i + 1) * step, False)
            for i in range(self.WARM_ROUNDS + self.rounds())
        ]
        return LogShape(
            self.name, tuple(files), (("hot_frac", 0.10), ("n_convs", n // 5))
        )

    def setup(self, session_dir: str) -> None:
        """Seed the lake from the first log file, then run the warm-up
        rounds over the next ones."""
        from etl_pipeline_rdf_star_ray.pipelines import cdc

        self.session_dir = session_dir
        self.log_dir = self.fresh_dir("log")
        self.lake_dir = os.path.join(session_dir, "lake")
        for i, f in enumerate(self.files[: 1 + self.WARM_ROUNDS]):
            self._append(f)
            kw = {"num_partitions": self.PARTITIONS} if i == 0 else {}
            cdc.tail_once(self.log_dir, self.lake_dir, **kw)

    def _append(self, f: LogFile) -> None:
        _durable_copy(f.path, os.path.join(self.log_dir, os.path.basename(f.path)))

    def _tail(self):
        from etl_pipeline_rdf_star_ray.pipelines import cdc

        return cdc.tail_once(self.log_dir, self.lake_dir)

    def _rows_read(self, appended: list[LogFile]):
        """Rows ``tail_once`` reads: the log rows past the minimum watermark
        once every partition has committed (its row-level read filter)."""
        from etl_pipeline_rdf_star_ray.state import manifest as mf

        wm = mf.watermarks(self.lake_dir)
        floor = min(wm.values()) if len(wm) >= self.PARTITIONS else -1
        return sum(max(0, f.lsn_hi - max(f.lsn_lo, floor + 1)) for f in appended)

    def run(self, rec: Recorder) -> None:
        before = lake_bytes(self.lake_dir)
        appended = self.files[: 1 + self.WARM_ROUNDS]
        for i, f in enumerate(self.files[1 + self.WARM_ROUNDS :]):
            self._append(f)
            appended.append(f)
            if i % 5 == 0:  # a unit is one snapshot cycle of five rounds
                rec.next_unit()
            rec.round(
                self._tail, f.rows, f.bytes, lambda: self._rows_read(appended)
            )
            if i % 5 == 4:
                rec.snapshot(self.lake_dir)
        rec.lake_bytes += lake_bytes(self.lake_dir) - before

    def reingest_last_round(self) -> None:
        self._tail()


WORKLOADS = {w.name: w for w in (ReplayBulk, TailMicrobatch, EvolveHot)}
