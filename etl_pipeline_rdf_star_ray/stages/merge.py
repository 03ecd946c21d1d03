"""Last-writer-wins merge kernels — the CDC upsert core.

Row-granularity descendant of the reference's batch supersession + set-dedup
semantics (``batch_manager.py:387-394`` marks the previous ACTIVE batch
SUPERSEDED; ``pyoxigraph.Store.add`` dedups identical quads): here every key
``(conv_id, turn_idx)`` keeps the payload of its highest ``lsn`` event, and a
winning ``op='delete'`` removes the key (tombstone applied, not retained —
cross-batch ordering is guaranteed by the per-partition watermark filter in
``stages/partition.py``).

The kernel is fully vectorized Arrow: one multi-key sort + boundary compare,
no per-row Python, no hash maps — so per-partition merge cost is
O(n log n) in the partition's rows and the memory footprint is the Arrow
table itself (SURVEY.md §7.5.3: sorted-run merge instead of hash map for
full-replay mode).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..schema import concat_evolving

_SORT_KEYS = [
    ("conv_id", "ascending"),
    ("turn_idx", "ascending"),
    ("lsn", "ascending"),
]


def _last_per_key_mask(t: pa.Table) -> np.ndarray:
    """Boolean mask selecting the last row of each (conv_id, turn_idx) run in
    a table already sorted by (conv_id, turn_idx, lsn)."""
    n = t.num_rows
    mask = np.empty(n, dtype=bool)
    mask[-1] = True
    conv = t.column("conv_id").combine_chunks()
    turn = t.column("turn_idx").combine_chunks()
    diff_conv = pc.not_equal(conv.slice(1), conv.slice(0, n - 1))
    diff_turn = pc.not_equal(turn.slice(1), turn.slice(0, n - 1))
    boundary = pc.or_(diff_conv, diff_turn)
    mask[:-1] = boundary.to_numpy(zero_copy_only=False)
    return mask


def lww_merge(table: pa.Table, *, drop_deletes: bool = True) -> pa.Table:
    """Collapse a change-log-shaped table to final state: per key keep the
    highest-lsn event; drop keys whose winning op is delete. Output is sorted
    by (conv_id, turn_idx) — the stable-ordering invariant of BASELINE.md —
    as a free by-product of the sort-based merge."""
    if table.num_rows == 0:
        return table
    t = table.sort_by(_SORT_KEYS)
    mask = _last_per_key_mask(t)
    if drop_deletes:
        is_del = (
            pc.equal(t.column("op"), "delete")
            .combine_chunks()
            .to_numpy(zero_copy_only=False)
            .astype(bool)
        )
        mask &= ~is_del
    return t.filter(pa.array(mask))


def merge_state_and_events(
    state: pa.Table | None, events: pa.Table
) -> pa.Table:
    """Merge a partition's current lake state with its new change events.

    State rows re-enter the merge as ``op='insert'`` at the lsn they were
    committed with; since the watermark filter guarantees every new event has
    a strictly higher lsn, last-writer-wins over the union reproduces exactly
    "apply new events over current state". Schemas may differ (schema
    evolution): the union is widened with ``concat_evolving``.
    """
    if state is not None and state.num_rows:
        if "op" not in state.column_names:
            state = state.append_column(
                "op", pa.array(np.full(state.num_rows, "insert", object), pa.string())
            )
        both = concat_evolving([state, events])
    else:
        both = events
    merged = lww_merge(both, drop_deletes=True)
    return merged.drop_columns(["op"])

