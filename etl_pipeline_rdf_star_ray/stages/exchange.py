"""Block exchange — the one way rows reach a per-partition task.

Every grouped operator (the CDC ingest and upsert, sharded groups, joins,
range sorts) tags its rows with an int32 ``partition_id`` and hands the
tagged input here. The input is a Ray Dataset or a list of block
producers. For a Dataset the exchange streams its OWN block refs on the
driver (``iter_internal_ref_bundles`` — metadata only, no rows touch the
driver) and asks a ``num_cpus=0`` :func:`_block_ranges` task per block for
its ``(pid, start, len)`` runs. A producer (the CDC tail reads one log
file per producer) runs as one :func:`_produce_block` task that builds its
block and routes it in the same task, so a small input pays one task per
block and no Ray Data execution. Either way the driver records ``{pid:
[(ref, start, len)]}`` routing metadata through one consumer,
:func:`_route`. Then the partitions are packed into one bin per CPU
(largest first by routed rows), and one task per bin fetches each distinct
block once and runs the per-partition work for its partitions in
ascending pid, consuming their slices ZERO-COPY from plasma. Sizing the
tasks to the cores rather than to the partitions (morsel-driven
execution) is what keeps a 64-partition ingest from paying 64 dispatches
and 64 fetches of every block.

**Block-layout rule: every block is pid-clustered runs.** Producers call
:func:`cluster_by_pid` on each output batch (a stable argsort by
``partition_id``, skipped when the batch is already clustered), inside the
map task that builds the batch — so each row is materialized into the
object store exactly once, and a pid owns one run per producer batch.
Routing never depends on the rule for correctness (:func:`_pid_runs`
is run-aware and the row-conservation check in :func:`_route` holds for
any layout); a producer that forgets to cluster stays correct but fans in
one slice per ROW instead of one per batch.

A caller may act on the routing table before the first merge: ``probe``
runs inside every block's routing task, ``on_routed`` sees the table and
the probe results on the driver, and :func:`reroute` re-tags chosen
partitions in place. The CDC ingest finds and salts a fresh lake's hot
conversations this way, without a second read of its input.

Why not a Ray Data ``groupby`` on ``partition_id``: on one 32-CPU node Ray
Data's sort-based shuffle of the change log topped out near ~450k events/s
REGARDLESS of CPU count (a serial merge phase dominates; 8→32 CPUs gave
only 1.4× — BASELINE.md bench notes), and it costs ~3 s fixed at any input
size for small grouped operators.

Multi-node data plane: a clustered block holds runs for ~every partition,
so with range routing every merge node would fetch (almost) every block —
≈ N_nodes × data bytes over the network. ``transport="slices"`` (the
``auto`` default whenever the cluster has >1 node) therefore rewrites the
exchange's data plane: the task that routes a block compacts each
destination node's rows of it into its own object (one extra LOCAL copy,
:func:`_group_slices`), and the
network then carries each partition's bytes exactly once to its merge
task. Single-node keeps ``transport="ranges"``: zero extra copies, merges
slice the producer blocks via plasma mmap. Memory is bounded by Ray's
native object spilling in both modes.

Correctness properties:

- **Exactly-once sink**: merge tasks funnel into the marker-idempotent
  ``commit_partition``; re-running an ingest with the same batch id skips
  committed partitions via markers, and the watermark filter upstream
  drops already-committed events entirely. A bin that dies after some of
  its partitions committed is retried whole; the committed ones come back
  as ``status="duplicate"``.
- **Out-of-order arrival**: the per-partition LWW merge is order-independent
  (argmax lsn per key, tombstones applied against prior lake state).
- **Failure recovery**: a lost block object before its merge task consumes
  it fails the ingest; a re-run resumes from the per-partition watermarks,
  re-streaming exactly the uncommitted events. A crash between two
  partition commits of the same batch is the normal resume case.
"""

from __future__ import annotations

import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from ..functions.hashing import shard_ids
from ..schema import concat_evolving
from ..state.sink import commit_partition
from .merge import lww_merge, merge_state_and_events


def cluster_by_pid(t: pa.Table) -> pa.Table:
    """The exchange's block-layout rule for one producer batch: stable-sort
    ``t`` by its ``partition_id`` column so every pid is one contiguous
    run. Returns ``t`` itself (no copy) when it is already clustered."""
    pid = t.column("partition_id").to_numpy()
    if not np.any(np.diff(pid) < 0):
        return t
    return t.take(pa.array(np.argsort(pid, kind="stable")))


def _pid_runs(block: pa.Table) -> list:
    """``[(pid, start, len), ...]`` — one entry per contiguous
    ``partition_id`` run of ``block``, read zero-copy from the object
    store.

    Run-aware on purpose: a map output block may concatenate several
    producer batches, so a block is a sequence of clustered RUNS and the
    same pid can own multiple runs. (A dict keyed by pid here silently
    dropped all but the last run — caught by the bench's lake row count,
    now pinned by ``test_block_ranges_covers_multi_run_blocks``.)"""
    if len(block) == 0:  # len() spans pa.Table AND a passthrough pandas block
        return []
    pids = block.column("partition_id").combine_chunks().to_numpy(
        zero_copy_only=False
    )
    bounds = np.flatnonzero(np.diff(pids)) + 1
    starts = np.concatenate([[0], bounds])
    ends = np.concatenate([bounds, [len(pids)]])
    return [(int(pids[s]), int(s), int(e - s)) for s, e in zip(starts, ends)]


def _group_slices(block: pa.Table, n_groups: int) -> list:
    """Multi-node transport: materialize each DESTINATION NODE's rows of
    ``block`` as one compact object-store object, returning ``[(pid, ref,
    start, len)]`` — per-pid zero-copy spans within the node-group object.

    The ranges transport routes metadata only and lets merge tasks slice
    the block zero-copy — optimal single-node, but on a multi-node cluster
    a clustered block holds runs for ~every partition, so every merge node
    must fetch (almost) every block: ≈ N_nodes × data bytes over the
    network (round-2 verdict item 2). This runs node-local to the block
    (in the task that holds it) and pays ONE compacting copy (``take`` —
    pickling an Arrow slice ships the full parent buffers, so a view is
    not enough).

    Slices are GROUPED by destination node — ``pid % n_groups`` picks the
    group, matching the merge tasks' soft node-affinity assignment
    (:func:`_merge_opts`) — because a per-pid ``ray.put`` was measured to
    DOMINATE slice-build cost (~3 ms fixed plasma overhead per object).
    One object per (block, node) cuts puts per block from num_partitions to
    num_nodes; a task rescheduled off its node (soft affinity, node loss)
    just fetches its group object remotely — correctness unaffected."""
    runs_by_pid: dict[int, list] = {}
    for pid, s, n in _pid_runs(block):
        runs_by_pid.setdefault(pid, []).append((s, s + n))
    group_pids: dict[int, list] = {}
    for pid in sorted(runs_by_pid):
        group_pids.setdefault(pid % max(1, n_groups), []).append(pid)
    out = []
    for _g, plist in sorted(group_pids.items()):
        idxs, spans, off = [], [], 0
        for pid in plist:
            runs = runs_by_pid[pid]
            ln = sum(e - s for s, e in runs)
            idxs.extend(np.arange(s, e) for s, e in runs)
            spans.append((pid, off, ln))
            off += ln
        part = block.take(pa.array(np.concatenate(idxs)))
        ref = ray.put(part)
        out.extend((pid, ref, start, ln) for pid, start, ln in spans)
    return out


def _route_block(block: pa.Table, n_groups: int | None, probe=None):
    """The exchange's routing body for one block, shared by every task that
    routes one: its :func:`_pid_runs` on the ranges transport
    (``n_groups`` None), its :func:`_group_slices` on the slices
    transport. With a ``probe``, returns ``(entries, probe(block))`` (see
    :func:`_route`)."""
    out = _pid_runs(block) if n_groups is None else _group_slices(block, n_groups)
    return out if probe is None else (out, probe(block))


@ray.remote(num_cpus=0)
def _block_ranges(block: pa.Table, probe=None):
    """Route one Dataset block on the ranges transport, next to the block,
    so only the run list reaches the driver. The block itself is never
    copied. ``num_cpus=0``: microseconds of work, must not compete with
    read/merge tasks for slots."""
    return _route_block(block, None, probe)


@ray.remote(num_cpus=1)
def _slice_block(block: pa.Table, n_groups: int = 1, probe=None):
    """Route one Dataset block on the slices transport (Ray's
    locality-aware scheduling places the task with its argument)."""
    return _route_block(block, n_groups, probe)


@ray.remote(num_cpus=1, num_returns=2)
def _produce_block(make_block, n_groups: int | None, probe=None):
    """Build one partitioned block with ``make_block()`` (e.g. read one log
    file and run the partition stage) and route it in the same task, so a
    producer costs one task and no Ray Data execution. Returns the block
    as its own object (the caller owns it; None on the slices transport,
    whose group objects hold the rows), then ``(rows, routing)`` with
    ``routing`` as :func:`_route_block` returns it."""
    block = make_block()
    routing = (len(block), _route_block(block, n_groups, probe))
    return (block if n_groups is None else None), routing


def _fetch_group(group: list) -> list[tuple[int, list[pa.Table]]]:
    """Resolve one bin's ``[(pid, [(ref, start, len)])]`` to ``[(pid,
    [view])]``, fetching each DISTINCT object exactly once with a single
    batched ``ray.get``, however many of the bin's partitions slice it.

    A block can carry several runs for the same partition, and a per-slice
    ``ray.get`` re-deserializes the block's Arrow metadata every time —
    measured 1.6 s of a 3 s merge task at 8M events (round-3 profile)."""
    refs = list(dict.fromkeys(r for _pid, slices in group for r, _s, _n in slices))
    blocks = dict(zip(refs, ray.get(refs)))
    return [
        (pid, [blocks[ref].slice(start, n) for ref, start, n in slices])
        for pid, slices in group
    ]


def merge_commit_group(
    group: list, lake_dir: str, batch_id: str, priors: dict[int, str]
) -> list[dict]:
    """One bin of :func:`exchange_ingest`: for each ``(pid, slices)`` in
    ascending pid, concat the partition's events, LWW-merge them with its
    prior lake version ``priors.get(pid)`` and commit it. A partition's
    commit depends only on its own rows and ``(pid, batch_id)``, so a bin
    that dies mid-way and is re-run rewrites nothing it had committed: the
    marker turns those partitions into ``status="duplicate"`` records."""
    out = []
    # zero-copy: plasma blocks are mmapped, slices are views; the only copy
    # is the sort inside the LWW merge
    for pid, parts in _fetch_group(group):
        t0 = time.monotonic()
        events = concat_evolving(parts)
        prior = priors.get(pid)
        state = pq.read_table(prior) if prior is not None else None
        new_state = merge_state_and_events(state, events)
        lsns = events.column("lsn")
        rec = commit_partition(
            new_state,
            lake_dir=lake_dir,
            partition_id=pid,
            batch_id=batch_id,
            lsn_lo=pc.min(lsns).as_py(),
            lsn_hi=pc.max(lsns).as_py(),
            event_count=events.num_rows,
            wall_start=t0,
        )
        out.append(rec.__dict__)
    return out


@ray.remote(num_cpus=1)
def _merge_commit_task(
    group: list, lake_dir: str, batch_id: str, priors: dict[int, str]
) -> list[dict]:
    return merge_commit_group(group, lake_dir, batch_id, priors)


@ray.remote(num_cpus=1)
def _apply_task(group: list, fn):
    """Generic shard-apply over one bin: ``fn`` on each partition's
    assembled Arrow table, ascending pid, one return value per partition
    (the caller sets ``num_returns``)."""
    out = [fn(concat_evolving(parts)) for _pid, parts in _fetch_group(group)]
    return out if len(out) > 1 else out[0]


def _resolve_transport(transport: str) -> str:
    if transport == "auto":
        try:
            alive = sum(1 for n in ray.nodes() if n.get("Alive"))
        except Exception:  # pragma: no cover - detached/uninitialized
            alive = 1
        return "slices" if alive > 1 else "ranges"
    if transport not in ("ranges", "slices"):
        raise ValueError(f"unknown exchange transport {transport!r}")
    return transport


def _alive_node_ids() -> list[str]:
    try:
        return sorted(n["NodeID"] for n in ray.nodes() if n.get("Alive"))
    except Exception:  # pragma: no cover - detached/uninitialized
        return []


def _route(partitioned, transport: str = "ranges", probe=None) -> tuple:
    """Route the partitioned input's blocks and build the ``{pid: [(ref,
    start, len)]}`` routing table, plus the merge-task node-affinity map
    ``{pid: node_id}`` (empty for the ranges transport). With a ``probe``,
    each block's routing task also runs ``probe(block)`` and a third
    element lists those results, one per routed block.

    ``partitioned`` is either a Ray Dataset, whose OWN block refs stream
    on the driver (``iter_internal_ref_bundles``) and are routed by one
    task per block, or a list of producers — zero-argument callables that
    each build one pid-clustered block — run as one :func:`_produce_block`
    task each, which builds and routes its block with no Ray Data
    execution. Both kinds of task run the same :func:`_route_block`.

    ``transport="ranges"`` routes metadata only (:func:`_pid_runs`) —
    merge tasks slice the original blocks zero-copy. ``transport="slices"``
    ships each NODE GROUP's rows of each block as one compact object
    (:func:`_group_slices`): one extra local copy, but a multi-node merge
    fetches ONLY its node's bytes instead of ~every block, and the merge
    tasks are (softly) pinned to their group's node so each group object
    crosses the network at most once; routing entries carry the pid's span
    within its group object."""
    nodes = _alive_node_ids() if transport == "slices" else []
    n_groups = max(1, len(nodes)) if transport == "slices" else None
    produced = isinstance(partitioned, list)
    pending = []  # (routing ref, block ref on the ranges transport else None)
    expected_rows = 0
    rows_known = True
    if produced:
        for make_block in partitioned:
            block_ref, meta_ref = _produce_block.remote(make_block, n_groups, probe)
            pending.append((meta_ref, block_ref if n_groups is None else None))
    else:
        for bundle in partitioned.iter_internal_ref_bundles():
            n = bundle.num_rows()
            if n == 0:
                # zero-row bundle: routes nothing. Also dodges Ray's
                # empty-block passthrough, which can hand a 0-row PANDAS
                # block straight from the input (map_batches skips the UDF
                # on empty blocks) to tasks that expect Arrow.
                continue
            if n is None:
                # block metadata without a row count: folding None to 0
                # would make the conservation check fire spuriously (ADVICE
                # r2) — downgrade to routed-rows-only accounting
                rows_known = False
            else:
                expected_rows += n
            for block_ref in bundle.block_refs:
                if n_groups is None:
                    pending.append((_block_ranges.remote(block_ref, probe), block_ref))
                else:
                    pending.append(
                        (_slice_block.remote(block_ref, n_groups, probe), None)
                    )
    pid_slices: dict[int, list] = {}
    probed = []
    routed_rows = 0
    metas = ray.get([m for m, _b in pending])
    for runs, (_m, block_ref) in zip(metas, pending):
        if produced:
            n, runs = runs
            expected_rows += n
        if probe is not None:
            runs, found = runs
            probed.append(found)
        # ranges: (pid, start, len) within block_ref; slices: (pid, group
        # object ref, start, len)
        for pid, *span in runs:
            ref, start, length = span if block_ref is None else (block_ref, *span)
            routed_rows += length
            pid_slices.setdefault(pid, []).append((ref, start, length))
    # conservation invariant: every produced row is routed to exactly one
    # partition slice — a routing bug (e.g. overlapping/dropped runs) fails
    # loudly here instead of silently shrinking the lake
    if rows_known and routed_rows != expected_rows:
        raise RuntimeError(
            f"exchange routing lost rows: streamed {expected_rows}, "
            f"routed {routed_rows}"
        )
    affinity = (
        {pid: nodes[pid % n_groups] for pid in pid_slices} if nodes else {}
    )
    if probe is None:
        return pid_slices, affinity
    return pid_slices, affinity, probed


def _merge_opts(pid: int, affinity: dict[int, str]) -> dict:
    """Soft node-affinity options for a merge task: run on the node its
    group object was built FOR (so the object crosses the network once);
    soft=True keeps correctness on node loss — the task just fetches its
    group object remotely."""
    node = affinity.get(pid)
    if node is None:
        return {}
    from ray.util.scheduling_strategies import NodeAffinitySchedulingStrategy

    return {
        "scheduling_strategy": NodeAffinitySchedulingStrategy(
            node_id=node, soft=True
        )
    }


def _cpu_count() -> int:
    return int(ray.cluster_resources().get("CPU", 1))


def _pack(pid_slices: dict[int, list], n_bins: int) -> list[list]:
    """Pack partitions into ``min(len(pid_slices), n_bins)`` bins, largest
    first by routed rows, each into the bin with the fewest rows so far.
    Returns ``[[(pid, slices), ...], ...]``, each bin in ascending pid."""
    rows = {pid: sum(n for _r, _s, n in s) for pid, s in pid_slices.items()}
    bins: list[list[int]] = [[] for _ in range(min(len(rows), n_bins))]
    load = [0] * len(bins)
    for pid in sorted(rows, key=lambda p: (-rows[p], p)):
        i = load.index(min(load))
        bins[i].append(pid)
        load[i] += rows[pid]
    return [[(pid, pid_slices[pid]) for pid in sorted(b)] for b in bins]


def _routed(
    partitioned, transport: str, probe=None, on_routed=None
) -> list[tuple[list, dict]]:
    """Route ``partitioned`` (see :func:`_route`) and group its partitions
    into one task's work per CPU: ``[(bin, task_options)]``, where ``bin``
    is ``[(pid, slices)]`` in ascending pid. Each affinity group (the
    cluster on the ranges transport, one node on the slices transport) gets
    ``min(partitions, CPUs)`` bins (:func:`_pack`), the CPUs being
    ``ray.cluster_resources()`` split evenly over the groups. A task per
    bin instead of per partition pays one dispatch and one fetch of each
    block for many partitions. ``on_routed(pid_slices, probed)`` sees the
    routing table and the per-block ``probe`` results before any task
    consumes the table, and may rewrite it in place (:func:`reroute`)."""
    routed = _route(partitioned, _resolve_transport(transport), probe)
    pid_slices, affinity = routed[:2]
    if probe is not None:
        on_routed(pid_slices, routed[2])
    by_node: dict = {}
    for pid, slices in sorted(pid_slices.items()):
        by_node.setdefault(affinity.get(pid), {})[pid] = slices
    slots = max(1, _cpu_count() // max(1, len(by_node)))
    return [
        (group, _merge_opts(group[0][0], affinity))
        for node_slices in by_node.values()
        for group in _pack(node_slices, slots)
    ]


@ray.remote(num_cpus=1)
def _reroute_task(group: list, fns: dict):
    """One bin of :func:`reroute`: ``fns[pid]`` on each partition's rows,
    ascending pid. Returns each partition's pid-clustered retagged rows
    (or None) as its own object, then one ``[(info, runs)]`` list (the
    caller sets ``num_returns``)."""
    outs, metas = [], []
    for pid, parts in _fetch_group(group):
        out, info = fns[pid](concat_evolving(parts))
        if out is not None:
            out = cluster_by_pid(out)
        outs.append(out)
        metas.append((info, None if out is None else _pid_runs(out)))
    return (*outs, metas)


def reroute(pid_slices: dict[int, list], fns: dict) -> dict:
    """Re-tag the rows of some routed partitions and swap the result into
    the routing table ``pid_slices`` in place, one task per bin of
    partitions (:func:`_pack`, as for the exchange's merges).

    ``fns[pid](rows)`` receives partition ``pid``'s rows and returns
    ``(retagged, info)``: ``retagged`` is the rows with a new
    ``partition_id`` column, or None to leave the partition as routed. A
    retagged partition becomes one pid-clustered object whose runs replace
    that partition's slices; the other partitions' slices are untouched.
    Returns ``{pid: info}``."""
    groups = _pack({pid: pid_slices[pid] for pid in fns}, _cpu_count())
    tasks = [
        _reroute_task.options(num_returns=len(group) + 1).remote(
            group, {pid: fns[pid] for pid, _s in group}
        )
        for group in groups
    ]
    metas = ray.get([refs[-1] for refs in tasks])
    done = sorted(
        (pid, obj, meta)
        for group, refs, group_metas in zip(groups, tasks, metas)
        for (pid, _s), obj, meta in zip(group, refs, group_metas)
    )
    # drop every retagged partition's slices before adding any new run: a
    # run may land in another partition that is itself being retagged
    moved = []
    for pid, obj, (_info, runs) in done:
        if runs is not None:
            del pid_slices[pid]
            moved.append((obj, runs))
    for obj, runs in moved:
        for pid, start, length in runs:
            pid_slices.setdefault(pid, []).append((obj, start, length))
    return {pid: info for pid, _obj, (info, _runs) in done}


def _as_dataset(refs: list) -> "ray.data.Dataset":
    import ray.data as rd

    if not refs:
        return rd.from_items([]).limit(0)
    return rd.from_arrow_refs(refs)


def exchange_apply(partitioned, fn, *, transport: str = "auto") -> "ray.data.Dataset":
    """Generic grouped-shard primitive over the exchange's data plane:
    route blocks by their ``partition_id`` column, then run
    ``fn(shard_table) -> pa.Table`` once per partition, in one task per
    bin (:func:`_routed`). Every row of a partition lands in exactly one
    ``fn`` call; output blocks come back in ascending pid order."""
    refs = {}
    for group, opts in _routed(partitioned, transport):
        out = _apply_task.options(num_returns=len(group), **opts).remote(group, fn)
        refs.update(zip([pid for pid, _s in group], out if len(group) > 1 else [out]))
    return _as_dataset([refs[pid] for pid in sorted(refs)])


def _lww_state(events: pa.Table) -> pa.Table:
    merged = lww_merge(events)
    return merged.drop_columns(
        [c for c in ("op", "partition_id") if c in merged.column_names]
    )


def exchange_upsert(partitioned, *, transport: str = "auto") -> "ray.data.Dataset":
    """Sinkless block-exchange upsert: :func:`exchange_apply` of the LWW
    merge, so each partition's state returns as an Arrow block and the
    result is a Dataset (``from_arrow_refs`` — blocks never touch the
    driver)."""
    return exchange_apply(partitioned, _lww_state, transport=transport)


def exchange_ingest(
    partitioned,  # pid-tagged, watermark-filtered Dataset or block producers
    lake_dir: str,
    *,
    batch_id: str,
    active_files: dict[int, str],
    transport: str = "auto",
    probe=None,
    on_routed=None,
) -> list[dict]:
    """Run the block exchange: route each block's pid runs (``partitioned``
    is a Dataset or a list of block producers, see :func:`_route`), then
    merge+commit the partitions in parallel, one
    :func:`merge_commit_group` task per bin (:func:`_routed`). Returns
    manifest records in ascending pid. ``transport`` picks the data plane
    (see :func:`_route`); ``"auto"`` = ranges on one node, per-node slice
    objects on a multi-node cluster. ``probe``/``on_routed`` (both or
    neither) hook the driver in between routing and the first merge."""
    refs = [
        _merge_commit_task.options(**opts).remote(
            group,
            lake_dir,
            batch_id,
            {pid: active_files[pid] for pid, _s in group if pid in active_files},
        )
        for group, opts in _routed(partitioned, transport, probe, on_routed)
    ]
    recs = [rec for group_recs in ray.get(refs) for rec in group_recs]
    return sorted(recs, key=lambda r: r["partition_id"])


# ---------------------------------------------------------------------------
# shard plane: hash-sharded groups over the exchange
# ---------------------------------------------------------------------------


#: pandas nullable dtypes for Arrow's signed ints: a null-bearing int64
#: column must never float (keys >= 2^53 would lose their identity)
_NULLABLE_INTS = {
    pa.int64(): pd.Int64Dtype(),
    pa.int32(): pd.Int32Dtype(),
    pa.int16(): pd.Int16Dtype(),
    pa.int8(): pd.Int8Dtype(),
}.get


def pandas_block_apply(t: pa.Table, fn) -> pa.Table:
    """One Arrow→pandas→Arrow application under the shard plane's exactness
    contract (shared by :func:`sharded_groups`' shard task and map-side
    partial reducers — e.g. ``windows.argmax_rows`` — so both apply the
    identical conversion rules):

    - signed integer columns always arrive as pandas nullable extension
      dtypes (``Int64`` …), so a null-bearing int64 column never floats
      and ``fn`` sees NULL as ``pd.NA`` in every block alike;
    - metadata is stripped so every output block hashes to one schema;
    - a column that is ALL null in this block round-trips through pandas
      as Arrow ``null`` type — restore the input's declared type so every
      block carries the same schema (Ray's schema unification otherwise
      warns, and downstream Arrow kernels that dispatch on type, e.g.
      ``is_in``/``index_in``, reject the block).

    The shard functions stay pandas because sessionization, rolling
    windows and ``merge_asof`` have no pyarrow kernel."""
    g = t.to_pandas(types_mapper=_NULLABLE_INTS)
    out = pa.Table.from_pandas(
        fn(g), preserve_index=False
    ).replace_schema_metadata(None)
    in_types = {f.name: f.type for f in t.schema}
    for i, f in enumerate(out.schema):
        want = in_types.get(f.name)
        if (
            pa.types.is_null(f.type)
            and want is not None
            and not pa.types.is_null(want)
        ):
            out = out.set_column(i, f.name, out.column(i).cast(want))
    return out


def sharded_groups(
    ds: "ray.data.Dataset",
    keys: list[str],
    shard_fn,
    *,
    num_shards: int = 64,
) -> "ray.data.Dataset":
    """Group-parallel processing WITHOUT per-group task overhead: rows are
    hash-sharded on the key columns ``keys`` (routing is
    :func:`~..functions.hashing.shard_ids`, so all rows of one group land
    in one shard whatever their block), ``shard_fn`` runs once per SHARD
    over :func:`exchange_apply` and does the fine-grained per-group work
    with vectorized pandas inside. With tens of thousands of tiny groups
    (LSH buckets, fingerprints) a per-group call would dominate by 10×+;
    this pattern pushes the loop into C.

    ``shard_fn`` receives the pandas shard WITH its ``shard`` column,
    converted by :func:`pandas_block_apply` (ints stay exact). A route
    derived from values (not one or more plain columns) becomes a column
    in the map step that feeds ``ds``."""

    def add_pid(batch: pa.Table) -> pa.Table:
        return cluster_by_pid(
            batch.append_column(
                "partition_id", shard_ids(batch, keys, num_shards)
            ).replace_schema_metadata(None)
        )

    def run(t: pa.Table) -> pa.Table:
        names = [
            "shard" if c == "partition_id" else c for c in t.column_names
        ]
        return pandas_block_apply(t.rename_columns(names), shard_fn)

    return exchange_apply(ds.map_batches(add_pid, batch_format="pyarrow"), run)
