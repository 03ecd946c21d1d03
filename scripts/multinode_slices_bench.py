"""Two-node localhost measurement of the slices exchange transport.

The sandbox has one machine, but Ray happily runs TWO node processes on it
(`ray start --head` + `ray start --address=...`), which exercises the real
multi-node code path: `_resolve_transport("auto")` sees alive>1 and picks
"slices" (stages/exchange.py), slice objects are created node-local and
fetched across the (loopback) object-store transport by merge tasks that
may land on either node.

Usage:
    ray stop --force
    ray start --head --port=6379 --num-cpus=16
    ray start --address=127.0.0.1:6379 --num-cpus=16
    python scripts/multinode_slices_bench.py
    ray stop --force

Prints ONE JSON line with:
- nodes / total CPUs seen
- transport the auto-selector picked
- ranges-vs-slices lake parity on a 2M-event replay (row-for-row equal)
- 8M-event replay wall time + events/s on the slices plane
- shipped-bytes accounting on a 1M-event exchange: total slice-object
  bytes vs the partitioned input's block bytes (the slices transport's
  contract: the network carries each partition's bytes exactly once, so
  the ratio should be ~1.0)
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import pandas as pd  # noqa: E402
import ray  # noqa: E402

SCRATCH = "/tmp/multinode_slices"


def main() -> None:
    ray.init(
        address=os.environ.get("RAY_MULTINODE_ADDR", "127.0.0.1:6379"),
        include_dashboard=False,
        logging_level="ERROR",
        ignore_reinit_error=True,
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from etl_pipeline_rdf_star_ray.pipelines import cdc
    from etl_pipeline_rdf_star_ray.sources.synthetic import changelog_dataset
    from etl_pipeline_rdf_star_ray.stages.exchange import (
        _resolve_transport,
        _route,
    )
    from etl_pipeline_rdf_star_ray.stages.partition import make_partition_stage
    from etl_pipeline_rdf_star_ray.state.lake import state_table

    nodes = [n for n in ray.nodes() if n.get("Alive")]
    cpus = sum(int(n["Resources"].get("CPU", 0)) for n in nodes)
    picked = _resolve_transport("auto")
    out: dict = {
        "metric": "multinode_slices",
        "nodes": len(nodes),
        "cpus": cpus,
        "auto_transport": picked,
    }
    if len(nodes) < 2:
        out["error"] = "need two ray nodes (see module docstring)"
        print(json.dumps(out))
        return

    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)

    # -- parity: ranges vs slices lakes over the same 2M-event replay ------
    frames = {}
    for transport in ("ranges", "slices"):
        lake = f"{SCRATCH}/lake_{transport}"
        cdc.replay(
            lambda lo, hi: changelog_dataset(hi - lo, lsn_start=lo),
            lake,
            lsn_splits=[1_000_000, 2_000_000],
            num_partitions=32,
            hot_convs=[],
            transport=transport,
        )
        frames[transport] = (
            state_table(lake)
            .to_pandas()
            .drop(columns=["partition_id"])
            .sort_values(["conv_id", "turn_idx"])
            .reset_index(drop=True)
        )
    pd.testing.assert_frame_equal(frames["ranges"], frames["slices"])
    out["parity_rows"] = int(len(frames["ranges"]))
    out["parity"] = "ranges==slices"

    # -- throughput: 8M-event replay on the slices plane -------------------
    lake = f"{SCRATCH}/lake_8m"
    n_events = 8_000_000
    t0 = time.monotonic()
    cdc.replay(
        lambda lo, hi: changelog_dataset(hi - lo, lsn_start=lo),
        lake,
        lsn_splits=[2_000_000, 4_000_000, 6_000_000, 8_000_000],
        num_partitions=64,
        hot_convs=[],
        transport="slices",
    )
    dt = time.monotonic() - t0
    out["replay_events"] = n_events
    out["replay_sec"] = round(dt, 3)
    out["events_per_sec"] = int(n_events / dt)
    out["lake_rows"] = int(state_table(lake).num_rows)

    # -- shipped-bytes accounting on a 1M-event exchange --------------------
    stage = make_partition_stage(
        num_partitions=32, salt_buckets=8, hot_convs=frozenset()
    )
    mat = (
        changelog_dataset(1_000_000)
        .map_batches(stage, batch_format="pyarrow", batch_size=None)
        .materialize()
    )
    block_refs = [
        r for b in mat.iter_internal_ref_bundles() for r in b.block_refs
    ]
    input_bytes = sum(t.nbytes for t in ray.get(block_refs))
    pid_slices, affinity = _route(mat, "slices")
    # round 5: slices are grouped per destination node — the same group
    # object backs every pid of the group, so DEDUPE refs before summing
    slice_refs = list({ref for sl in pid_slices.values() for ref, _s, _l in sl})
    slice_bytes = sum(t.nbytes for t in ray.get(slice_refs))
    out["merge_affinity_nodes"] = len(set(affinity.values()))
    out["exchange_input_bytes"] = int(input_bytes)
    out["exchange_slice_bytes"] = int(slice_bytes)
    out["shipped_ratio"] = round(slice_bytes / input_bytes, 4)

    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main()
