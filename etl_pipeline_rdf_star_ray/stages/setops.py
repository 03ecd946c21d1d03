"""Distributed DISTINCT set operations: SQL ``EXCEPT`` / ``INTERSECT``.

The reference engine has no set operators (its only multi-source combine is
the annotation equality join, ``rdf_star_etl_yarrrml.py:451-530``); these are
the relational completions of the dedup family — "which distinct rows appear
on one side and (not) on the other" — needed for corpus difference/overlap
audits (e.g. which (user, event_type) behaviors exist only above a value
threshold, which eval ids leaked into train).

Semantics are SQL set-op semantics, NOT join semantics:

- output is DISTINCT (one copy of each qualifying row, like ``EXCEPT`` /
  ``INTERSECT`` without ``ALL``);
- ``NULL`` compares EQUAL to ``NULL`` (set ops bucket nulls together —
  ``SELECT NULL EXCEPT SELECT NULL`` is empty, unlike a join on NULL keys).

Scale shape (both sides arbitrarily large):

1. each block collapses to its DISTINCT rows map-side via Arrow
   ``group_by`` over all columns (null-safe, C-speed) — the exchange
   carries at most the per-block distinct count per side, never raw rows;
2. rows gain a 128-bit md5 fingerprint over a canonical field-separated
   rendering (DuckDB's C md5 kernel, zero-copy Arrow in/out — the same
   exactness standard as ``pipelines/dedup.dedup_exact``'s content md5;
   ``chr(30)`` separators + a NUL null sentinel make the rendering
   injective for any value mix);
3. ONE fingerprint exchange colocates equal rows from both sides
   (equal rows ⇒ equal fingerprints ⇒ same shard);
4. each shard emits its left-distinct rows filtered by right presence —
   pure numpy membership on the two int64 fingerprint halves, no pandas
   null-equality edge cases anywhere.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

__all__ = ["distinct_set_op"]

#: canonical rendering, INJECTIVE for any value mix including values that
#: contain the separator/escape bytes themselves: NUL is the escape char
#: (NUL → NUL+'e'), the RS (0x1e) field separator is escaped to NUL+'s',
#: and NULL renders as NUL+'N' — in an escaped value every NUL is followed
#: by 'e' or 's', so no real value can render as the NULL sentinel, and no
#: bare RS survives inside a value to masquerade as a field boundary
#: (review r4: "x\x1ey","z" vs "x","y\x1ez" must NOT collide).
_SEP = "chr(30)"
_NULL = "chr(0)||'N'"


def _fingerprint_sql(cols: list[str]) -> str:
    canon = ", ".join(
        "coalesce(replace(replace(CAST(\"{c}\" AS VARCHAR), chr(0), "
        "chr(0)||'e'), chr(30), chr(0)||'s'), {null})".format(
            c=c, null=_NULL
        )
        for c in cols
    )
    return f"concat_ws({_SEP}, {canon})"


def _distinct_fp_stage(cols: list[str], side: int):
    """Per-block map: the block's DISTINCT rows with their within-block
    multiplicity (``__n``) + (fp_lo, fp_hi, side) columns. Distinct ops
    ignore ``__n``; the ALL (bag) ops sum it per shard."""

    def stage(batch: pa.Table) -> pa.Table:
        if batch.num_rows:
            batch = (
                batch.select(cols)
                .group_by(cols)
                .aggregate([([], "count_all")])
                .rename_columns(cols + ["__n"])
            )
        else:
            batch = batch.select(cols).append_column(
                "__n", pa.array([], pa.int64())
            )
        import duckdb

        fp = _fingerprint_sql(cols)
        block = batch  # noqa: F841 (DuckDB replacement scan)
        out = duckdb.execute(
            f"SELECT *, md5_number_lower({fp}) AS __fp_lo, "
            f"md5_number_upper({fp}) AS __fp_hi FROM block"
        ).arrow()
        # DuckDB returns uint64 halves; keep them (Arrow uint64 survives the
        # exchange; the shard task views them as numpy uint64 directly)
        out = out.append_column(
            "__side", pa.array(np.full(out.num_rows, side, np.int8))
        )
        return out.replace_schema_metadata(None)

    return stage


def distinct_set_op(
    left: "object",
    right: "object",
    *,
    op: str = "except",
    num_shards: int = 64,
) -> "object":
    """SQL set operations over ALL of ``left``'s columns, NULL equals NULL:

    - ``"except"`` / ``"intersect"``: DISTINCT output (set semantics);
    - ``"except_all"`` / ``"intersect_all"``: bag semantics — per distinct
      row with left multiplicity ``cl`` and right multiplicity ``cr``, the
      output carries ``max(0, cl − cr)`` / ``min(cl, cr)`` copies (the SQL
      ``EXCEPT ALL`` / ``INTERSECT ALL`` multiset laws). Multiplicities are
      summed from per-block ``count_all`` partials, so the exchange still
      moves at most each block's DISTINCT rows per side.

    ``right`` must carry the same column names; its columns are aligned to
    ``left``'s order and cast to ``left``'s types (a mismatch that cannot
    cast raises at execution). Returns the qualifying rows of ``left``.
    """
    if op not in ("except", "intersect", "except_all", "intersect_all"):
        raise ValueError(
            "op must be one of except/intersect/except_all/intersect_all, "
            f"got {op!r}"
        )
    all_mode = op.endswith("_all")
    lsch = left.schema()
    if lsch is None:
        # a fully empty left (Ray reports no schema) has an empty result
        # for every op; the left dataset IS that result. Caveat: with no
        # left schema there are no column names to validate against, so a
        # mismatched right side cannot be detected on empty-left runs —
        # callers wanting a deterministic mismatch error should validate
        # schemas themselves before data-dependent filters
        return left
    cols = list(lsch.names)
    ltypes = dict(zip(lsch.names, lsch.types))
    rsch = right.schema()
    if rsch is None:
        # empty right: INTERSECT* is empty, EXCEPT* is left-distinct (or
        # left-as-bag) — run the normal plan with zero right rows
        rnames = set(cols)
    else:
        rnames = set(rsch.names)
    if set(cols) != rnames:
        raise ValueError(
            f"set-op sides must share column names: left={cols} "
            f"right={sorted(rnames)}"
        )

    def align_right(batch: pa.Table) -> pa.Table:
        arrays = []
        for c in cols:
            col = batch.column(c)
            want = ltypes[c]
            if col.type != want and not pa.types.is_null(want):
                col = col.cast(want)
            arrays.append(col)
        return pa.table(dict(zip(cols, arrays)))

    tagged_l = left.map_batches(
        _distinct_fp_stage(cols, 0), batch_format="pyarrow"
    )
    tagged_r = right.map_batches(align_right, batch_format="pyarrow").map_batches(
        _distinct_fp_stage(cols, 1), batch_format="pyarrow"
    )
    both = tagged_l.union(tagged_r)

    keep_present = op in ("intersect", "intersect_all")
    drop_cols = ["__fp_lo", "__fp_hi", "__side", "__n", "shard"]

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        lo = g["__fp_lo"].to_numpy(np.uint64)
        hi = g["__fp_hi"].to_numpy(np.uint64)
        side = g["__side"].to_numpy(np.int8)
        # one integer identity per distinct 128-bit fingerprint in this
        # shard (np.unique over the stacked halves — fully vectorized)
        uniq, inv = np.unique(
            np.stack([lo, hi], axis=1), axis=0, return_inverse=True
        )
        ids = inv.reshape(-1)
        is_l = side == 0
        # representative left row per identity: first occurrence
        lidx = np.flatnonzero(is_l)
        lids = ids[lidx]
        order = np.argsort(lids, kind="stable")
        keep_first = np.ones(len(order), bool)
        keep_first[1:] = lids[order][1:] != lids[order][:-1]
        lidx, lids = lidx[order][keep_first], lids[order][keep_first]
        if all_mode:
            # exact int64 multiplicity sums per identity and side (no
            # float-weighted bincount — counts must stay exact)
            n = np.asarray(g["__n"], dtype=np.int64)
            k = len(uniq)
            cl = np.zeros(k, np.int64)
            cr = np.zeros(k, np.int64)
            np.add.at(cl, ids[is_l], n[is_l])
            np.add.at(cr, ids[~is_l], n[~is_l])
            mult = (
                np.minimum(cl, cr) if keep_present
                else np.maximum(cl - cr, 0)
            )[lids]
            take = np.repeat(lidx, mult)
            return g.iloc[take].drop(columns=drop_cols)
        present = np.isin(lids, ids[~is_l])
        keep = lidx[present if keep_present else ~present]
        return g.iloc[np.sort(keep)].drop(columns=drop_cols)

    from .exchange import sharded_groups

    # no trailing map_batches: sharded_groups already restores each shard's
    # declared column types (all-null shards included), and Ray rewrites
    # zero-row blocks to zero-column blocks when a map stage follows —
    # a shard whose every left row is filtered out would then emit a
    # schema-drifting empty block
    return sharded_groups(
        both,
        ["__fp_lo", "__fp_hi"],
        per_shard,
        num_shards=num_shards,
    )
