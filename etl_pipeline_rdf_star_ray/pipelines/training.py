"""Training-data assembly over transcripts and documents.

The reference pipeline ends at the RDF lake; a training-data user of the
same corpus needs these further steps, each expressed Ray-Data-first:

- :func:`training_pairs` — supervised fine-tuning pair extraction over the
  upserted transcript state: for every turn of a target role, the
  concatenated previous-``k``-turn context and the turn's text as the
  response. The window semantics are exactly SQL's
  ``string_agg(line) OVER (PARTITION BY conv_id ORDER BY turn_idx ROWS
  BETWEEN k PRECEDING AND 1 PRECEDING)``, so the driver oracle is
  hash-exact.
- :func:`training_pairs_delta` / :func:`changed_keys` — the incremental
  (CDC-native) variant: the change-log delta reduces to its distinct
  conversation set, broadcast once, and only touched conversations (with
  their FULL turn history) re-enter the assembly.
- :func:`pack_items` / :func:`pack_sequences` /
  :func:`conversation_weights` — context-window packing of weighted items
  (token counts, per-conversation token sums, any positive integer
  weight) into fixed-capacity bins over the GLOBAL ``id`` order, via a
  distributed ordered prefix sum (range-partition by id, per-shard local
  sums, driver-side exclusive scan over ``num_shards`` scalars, broadcast
  bases). Two deterministic, SQL-expressible modes:

  * ``mode="split"`` — documents may straddle bins; every bin except the
    last holds exactly ``capacity`` tokens (the concat-then-chunk layout
    used for pretraining). One output row per (document, bin) overlap
    with the token slice.
  * ``mode="whole"`` — documents never split; a document goes into the
    bin its starting offset falls in (``pack_id = floor(prefix/capacity)``
    — cumulative binning; bins target ``capacity`` and may overflow by
    less than one document, the standard scalable approximation of
    greedy packing that stays order-stable and shard-count-invariant,
    unlike first-fit whose bin boundaries depend on worker boundaries).

Scale shape: ``training_pairs`` is one conversation-hash exchange + a
vectorized pandas window pass per shard (no sort shuffle, k shifted-column
passes — no Python loop over rows). ``pack_sequences`` materializes only a
slim ``(id, n_tokens)`` projection (16 B/doc), samples it for range splits,
moves it through ONE exchange, and the only driver traffic is the sample,
the per-(block, shard) partial sums and the ``num_shards`` base offsets.
Nothing re-reads or re-ships the documents' text.

Reference parity: the reference has no training-data surface at all (its
pipeline ends at the triple store — ``etl_pipeline.py:1-120``); these
operators are part of the beyond-reference LLM-pipeline family the brief
requires (sibling of ``pipelines/corpus.chunk_tokens`` /
``windows.mixture_sample`` / ``dataset_split``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd  # noqa: F401  (docstring type refs)

from ..functions.text import token_count


def training_pairs(
    state: "rd.Dataset",
    *,
    k: int = 4,
    target_role: str = "assistant",
    num_shards: int = 64,
) -> "rd.Dataset":
    """(conv_id, turn_idx, context, response) for every ``target_role``
    turn: ``context`` is the newline-joined ``role: text`` lines of the up
    to ``k`` immediately preceding turns of the same conversation in
    ``turn_idx`` order (NULL for a conversation-opening turn — SQL
    ``string_agg`` over an empty frame), ``response`` is the turn's text.

    One conversation-hash exchange colocates each conversation; the per-
    shard pass is ``k`` vectorized grouped shifts — never a Python loop
    over turns."""
    from ..stages.exchange import sharded_groups

    if k <= 0:
        raise ValueError("k must be positive")

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        line = g["role"].fillna("") + ": " + g["text"].fillna("")
        grp = line.groupby(g["conv_id"], sort=False)
        # assemble oldest -> newest so the join order matches the frame's
        ctx = pd.Series(np.full(len(g), None, dtype=object), index=g.index)
        for i in range(k, 0, -1):
            part = grp.shift(i)
            has = part.notna().to_numpy()
            grow = has & ctx.notna().to_numpy()
            start = has & ~grow
            ctx[grow] = ctx[grow] + "\n" + part[grow]
            ctx[start] = part[start]
        m = (g["role"] == target_role).to_numpy()
        # pin string dtypes: an all-NULL object column would otherwise
        # infer Arrow `null` and drift the block schema (r1 hygiene item)
        return pd.DataFrame(
            {
                "conv_id": pd.array(g["conv_id"].to_numpy()[m], dtype="string"),
                "turn_idx": g["turn_idx"].to_numpy()[m],
                "context": pd.array(ctx.to_numpy()[m], dtype="string"),
                "response": pd.array(g["text"].to_numpy()[m], dtype="string"),
            }
        )

    pruned = state.select_columns(["conv_id", "turn_idx", "role", "text"])
    return sharded_groups(
        pruned,
        ["conv_id"],
        per_shard,
        num_shards=num_shards,
    )


def _token_lengths(
    docs: "rd.Dataset", id_col: str, text_col: str
) -> "rd.Dataset":
    """Slim ``(id, n_tokens)`` projection, empty/null-text docs dropped
    (they contribute no tokens to any bin)."""

    def stage(batch: pa.Table) -> pa.Table:
        text = batch.column(text_col)
        if pa.types.is_null(text.type):  # all-NULL block: no tokens at all
            text = text.cast(pa.string())
        n = token_count(text).fill_null(0)
        t = pa.table({id_col: batch.column(id_col), "n_tokens": n})
        return t.filter(pc.greater(n, 0)).replace_schema_metadata(None)

    return docs.map_batches(stage, batch_format="pyarrow")


def pack_items(
    items: "rd.Dataset",
    *,
    weight_col: str,
    capacity: int,
    mode: str = "split",
    id_col: str = "doc_id",
    num_shards: int = 64,
    samples_per_block: int = 64,
    id_type: "pa.DataType | None" = None,
) -> "rd.Dataset":
    """Pack weighted items into ``capacity``-weight bins over the global
    ascending ``id_col`` order. The generic core under
    :func:`pack_sequences` (weights = token counts) and
    :func:`pack_conversations` (weights = per-conversation token sums);
    any positive integer weight works (bytes, rows, samples). Items with
    weight <= 0 (or NULL) are dropped — they occupy no bin space.

    ``mode="split"`` emits one row per (item, bin) overlap:
    ``(id, pack_id, tok_lo, tok_hi)`` — the item's weight slice
    ``[tok_lo, tok_hi)`` lands in ``pack_id``; every bin is exactly full
    except the last. ``mode="whole"`` emits one row per item:
    ``(id, pack_id, <weight_col>)`` with ``pack_id = prefix // capacity``
    (cumulative binning — never splits an item, bins may overflow by
    less than one item's weight).

    Distributed ordered prefix sum: the slim (id, weight) projection is
    materialized once, range-partitioned by id (``stages/sortrange.range_
    tag``), per-shard weight totals reduce to ``num_shards`` scalars on the
    driver whose exclusive scan is broadcast back as each shard's base
    offset; one exchange then lets each shard emit its rows from a purely
    local cumulative sum. No global sort, no second pass over payloads."""
    import ray

    from ..stages.exchange import exchange_apply
    from ..stages.sortrange import range_tag

    if capacity <= 0:
        raise ValueError("capacity must be positive")
    if mode not in ("split", "whole"):
        raise ValueError(f"unknown pack mode {mode!r}")

    def project(batch: pa.Table) -> pa.Table:
        wcol = batch.column(weight_col)
        if pa.types.is_null(wcol.type):  # all-NULL block: nothing to pack
            wcol = wcol.cast(pa.int64())
        w = pc.cast(wcol.fill_null(0), pa.int64())
        t = pa.table({id_col: batch.column(id_col), weight_col: w})
        return t.filter(pc.greater(w, 0)).replace_schema_metadata(None)

    # slim projection materialized once: sampling, partial sums and the
    # exchange all read these blocks instead of re-reading the input
    slim = items.map_batches(project, batch_format="pyarrow").materialize()

    def _empty() -> "rd.Dataset":
        # id type: slim's schema when any row survived; the caller's hint
        # (pack_sequences passes the source docs' id type) when the whole
        # input weighed zero and even `items` has no derivable schema
        sch = slim.schema()
        if sch is not None:
            itype = dict(zip(sch.names, sch.types))[id_col]
        elif id_type is not None:
            itype = id_type
        else:
            isch = items.schema()
            if isch is None:
                raise ValueError(
                    "pack_items: empty input with no derivable schema — "
                    "pass id_type="
                )
            itype = dict(zip(isch.names, isch.types))[id_col]
        cols = (
            {id_col: itype, "pack_id": pa.int64(), weight_col: pa.int64()}
            if mode == "whole"
            else {
                id_col: itype,
                "pack_id": pa.int64(),
                "tok_lo": pa.int64(),
                "tok_hi": pa.int64(),
            }
        )
        return rd.from_arrow(
            pa.table({c: pa.array([], t) for c, t in cols.items()})
        )

    if slim.count() == 0:
        # an all-empty input can leave a 0-row passthrough block in a
        # non-Arrow format; nothing to pack either way
        return _empty()

    tagged = range_tag(
        slim, id_col, num_shards=num_shards, samples_per_block=samples_per_block
    ).materialize()

    def partial_sums(t: pa.Table) -> pa.Table:
        return t.group_by("partition_id", use_threads=False).aggregate(
            [(weight_col, "sum")]
        )

    parts = tagged.map_batches(partial_sums, batch_format="pyarrow").take_all()
    n_pids = 1 + max((int(r["partition_id"]) for r in parts), default=0)
    totals = np.zeros(n_pids, dtype=np.int64)
    for r in parts:
        totals[int(r["partition_id"])] += int(r[f"{weight_col}_sum"])
    bases = np.concatenate([[0], np.cumsum(totals)[:-1]])
    bases_ref = ray.put(bases)

    def pack_shard(t: pa.Table) -> pa.Table:
        base_offsets = ray.get(bases_ref)
        pid = int(t.column("partition_id")[0].as_py())
        t = t.drop_columns(["partition_id"]).sort_by(
            [(id_col, "ascending")]
        )
        n = t.column(weight_col).to_numpy(zero_copy_only=False)
        s = base_offsets[pid] + np.cumsum(n) - n  # exclusive global prefix
        ids = t.column(id_col)
        if mode == "whole":
            return pa.table(
                {
                    id_col: ids,
                    "pack_id": pa.array(s // capacity, pa.int64()),
                    weight_col: pa.array(n, pa.int64()),
                }
            )
        first = s // capacity
        last = (s + n - 1) // capacity
        npk = last - first + 1
        total = int(npk.sum())
        doc_idx = np.repeat(np.arange(len(n)), npk)
        first_out = np.cumsum(npk) - npk
        pack_id = first[doc_idx] + (np.arange(total) - np.repeat(first_out, npk))
        s_d, n_d = s[doc_idx], n[doc_idx]
        tok_lo = np.maximum(0, pack_id * capacity - s_d)
        tok_hi = np.minimum(n_d, (pack_id + 1) * capacity - s_d)
        return pa.table(
            {
                id_col: ids.take(pa.array(doc_idx, pa.int64())),
                "pack_id": pa.array(pack_id, pa.int64()),
                "tok_lo": pa.array(tok_lo, pa.int64()),
                "tok_hi": pa.array(tok_hi, pa.int64()),
            }
        )

    out = exchange_apply(tagged, pack_shard)
    if out.count() == 0:
        # zero-row exchange output carries no schema; pin the declared one
        return _empty()
    return out


def pack_sequences(
    docs: "rd.Dataset",
    *,
    capacity: int,
    mode: str = "split",
    id_col: str = "doc_id",
    text_col: str = "text",
    num_shards: int = 64,
    samples_per_block: int = 64,
) -> "rd.Dataset":
    """Pack whitespace-tokenized documents into ``capacity``-token bins
    over the global ascending ``id_col`` order — :func:`pack_items` with
    weights = :func:`~..functions.text.token_count`. See ``pack_items``
    for modes, output layout and the distributed-prefix-sum shape."""
    dsch = docs.schema()
    return pack_items(
        _token_lengths(docs, id_col, text_col),
        weight_col="n_tokens",
        capacity=capacity,
        mode=mode,
        id_col=id_col,
        num_shards=num_shards,
        samples_per_block=samples_per_block,
        id_type=(
            dict(zip(dsch.names, dsch.types))[id_col]
            if dsch is not None
            else None
        ),
    )


def conversation_weights(
    state: "rd.Dataset",
    *,
    conv_col: str = "conv_id",
    text_col: str = "text",
    num_shards: int = 64,
) -> "rd.Dataset":
    """Exact per-conversation token totals ``(conv_id, n_tokens)``: a
    map-side combine (vectorized per-batch groupby-sum) slims each block
    to one row per conversation BEFORE the conversation-hash exchange, so
    the shuffle carries at most blocks × distinct-convs tiny rows; one
    task per shard folds the partials."""
    from ..stages.exchange import sharded_groups

    def combine(batch: pa.Table) -> pa.Table:
        text = batch.column(text_col)
        if pa.types.is_null(text.type):
            text = text.cast(pa.string())
        n = token_count(text).fill_null(0)
        t = pa.table({conv_col: batch.column(conv_col), "n_tokens": n})
        agg = t.group_by(conv_col, use_threads=False).aggregate(
            [("n_tokens", "sum")]
        )
        return agg.select([conv_col, "n_tokens_sum"]).rename_columns(
            [conv_col, "n_tokens"]
        )

    partials = state.select_columns([conv_col, text_col]).map_batches(
        combine, batch_format="pyarrow"
    )

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(conv_col, sort=False, dropna=False)["n_tokens"].sum()
        return pd.DataFrame(
            {
                conv_col: pd.array(out.index.to_numpy(), dtype="string"),
                "n_tokens": out.to_numpy().astype(np.int64),
            }
        )

    return sharded_groups(
        partials,
        [conv_col],
        per_shard,
        num_shards=num_shards,
    )


def changed_keys(
    delta: "rd.Dataset", *, key_col: str = "conv_id"
) -> pa.Array:
    """Distinct key values touched by a change-log delta, reduced via
    per-batch vectorized ``unique`` partials (only each block's distinct
    keys leave the task — the delta's key set, not its rows, reaches the
    driver). Returns a deduplicated Arrow array for broadcast.

    Scale bound: the result is the number of DISTINCT entities in the
    delta window — for incremental refresh that is ≤ the delta row count
    and typically ≪ the corpus; callers that expect pathological deltas
    should bound the window (the same contract as the minhash
    verification rounds)."""

    def partial(batch: pa.Table) -> pa.Table:
        col = batch.column(key_col)
        if pa.types.is_null(col.type):
            col = col.cast(pa.string())
        u = pc.unique(col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col)
        return pa.table({key_col: u}).replace_schema_metadata(None)

    parts = [
        t
        for t in delta.select_columns([key_col])
        .map_batches(partial, batch_format="pyarrow")
        .to_arrow_refs()
    ]
    import ray

    tabs = [t for t in ray.get(parts) if len(t)]
    if not tabs:
        # typed empty set: the caller's is_in must see the key column's
        # real type (an int key vs a string empty set would throw)
        sch = delta.schema()
        ktype = (
            dict(zip(sch.names, sch.types))[key_col]
            if sch is not None
            else pa.string()
        )
        if ktype is None or pa.types.is_null(ktype):
            ktype = pa.string()
        return pa.array([], ktype)
    merged = pa.concat_tables(tabs).column(key_col)
    if isinstance(merged, pa.ChunkedArray):
        merged = merged.combine_chunks()
    # NULL keys never match (SQL join semantics: NULL = NULL is not true),
    # so a delta row with a NULL key marks nothing as changed
    return pc.unique(merged).drop_null()


def training_pairs_delta(
    state: "rd.Dataset",
    delta: "rd.Dataset",
    *,
    k: int = 4,
    target_role: str = "assistant",
    key_col: str = "conv_id",
    num_shards: int = 64,
) -> "rd.Dataset":
    """Incremental SFT-pair refresh: recompute :func:`training_pairs` ONLY
    for conversations the change-log ``delta`` touched — the CDC-native
    training-data maintenance step (new turns arrive → only their
    conversations' pairs are re-emitted; untouched conversations cost
    nothing downstream).

    The changed-key set (:func:`changed_keys`) is broadcast once via
    ``ray.put``; a vectorized ``pc.is_in`` filter keeps each changed
    conversation's FULL turn history (contexts need the old turns too),
    then the standard windowed assembly runs on the filtered subset. One
    streaming filter + one conversation-hash exchange over only the
    changed conversations' rows."""
    import ray

    keys = changed_keys(delta, key_col=key_col)
    keys_ref = ray.put(keys)

    def keep(batch: pa.Table) -> pa.Table:
        ks = ray.get(keys_ref)
        col = batch.column(key_col)
        if pa.types.is_null(col.type):
            col = col.cast(pa.string())
        mask = pc.is_in(col, value_set=ks)
        return batch.filter(pc.fill_null(mask, False)).replace_schema_metadata(
            None
        )

    touched = state.map_batches(keep, batch_format="pyarrow")
    return training_pairs(
        touched, k=k, target_role=target_role, num_shards=num_shards
    )
