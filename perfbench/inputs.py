"""Seeded change-log inputs, generated in this process and cached on disk.

Every log file comes from ``sources.synthetic.synth_changelog_batch`` over a
contiguous lsn range, so the same seed and shape always give byte-identical
files. Generation runs before Ray starts: no Ray tasks, no threads of its own.
A finished log is cached under ``<work>/inputs/<name>-s<seed>-<shape hash>/``
with an ``index.json`` that records each file's rows and bytes; those bytes
are the ``write_amp`` denominator.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass

import numpy as np
import pyarrow.parquet as pq


@dataclass(frozen=True)
class LogShape:
    """One workload's log: ``files`` is a tuple of ``(lsn_lo, lsn_hi,
    with_tool_args)``; ``knobs`` are ``synth_changelog_batch`` keyword
    arguments as sorted ``(name, value)`` pairs."""

    name: str
    files: tuple
    knobs: tuple


@dataclass(frozen=True)
class LogFile:
    path: str
    rows: int
    bytes: int
    lsn_lo: int
    lsn_hi: int


def materialize(shape: LogShape, seed: int, work_dir: str) -> list[LogFile]:
    """Return the shape's log files for ``seed``, generating them once."""
    key = hashlib.sha256(repr(shape).encode()).hexdigest()[:12]
    out_dir = os.path.join(work_dir, "inputs", f"{shape.name}-s{seed}-{key}")
    index_path = os.path.join(out_dir, "index.json")
    if not os.path.exists(index_path):
        _generate(shape, seed, out_dir)
    with open(index_path) as f:
        index = json.load(f)
    return [LogFile(path=os.path.join(out_dir, e.pop("file")), **e) for e in index]


def _generate(shape: LogShape, seed: int, out_dir: str) -> None:
    from etl_pipeline_rdf_star_ray.sources.synthetic import synth_changelog_batch

    tmp = f"{out_dir}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    index = []
    for i, (lo, hi, tool_args) in enumerate(shape.files):
        table = synth_changelog_batch(
            np.arange(lo, hi, dtype=np.int64),
            seed=seed,
            with_tool_args=tool_args,
            **dict(shape.knobs),
        )
        name = f"{i:05d}.parquet"
        pq.write_table(table, os.path.join(tmp, name))
        index.append(
            {
                "file": name,
                "rows": hi - lo,
                "bytes": os.path.getsize(os.path.join(tmp, name)),
                "lsn_lo": lo,
                "lsn_hi": hi,
            }
        )
    with open(os.path.join(tmp, "index.json"), "w") as f:
        json.dump(index, f)
    # publish atomically: a crashed generation leaves only a .tmp dir
    shutil.rmtree(out_dir, ignore_errors=True)
    os.replace(tmp, out_dir)
