"""Text export of triple records: N-Triples / N-Quads / TriG-style lines.

Interop parity with the reference's serializers (SURVEY.md §2.2: TriG writer
``rdf_star_etl_yarrrml.py:611-648``; format-by-extension dispatch
``batch_cli.py:227-233``), re-expressed as a vectorized formatting
``map_batches`` stage feeding ``Dataset.write_text`` — the lake stays
Parquet; text formats are an export, not the store."""

from __future__ import annotations

import uuid

import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd


def _escape_literal(arr):
    """N-Triples literal escaping: backslash, quote, newline, CR, tab."""
    for old, new in [
        ("\\", "\\\\"),
        ('"', '\\"'),
        ("\n", "\\n"),
        ("\r", "\\r"),
        ("\t", "\\t"),
    ]:
        arr = pc.replace_substring(arr, old, new)
    return arr


def _str_col(batch: pa.Table, name: str):
    """Column as string type (all-null columns arrive as Arrow null type)."""
    col = batch.column(name)
    if pa.types.is_null(col.type):
        return pa.nulls(batch.num_rows, pa.string())
    return col


def format_ntriples(batch: pa.Table, *, with_graph: bool = False) -> pa.Table:
    subj = pc.binary_join_element_wise("<", batch.column("subject"), ">", "")
    pred = pc.binary_join_element_wise("<", batch.column("predicate"), ">", "")
    val = _str_col(batch, "object_value")
    is_iri = pc.equal(batch.column("object_type"), "iri")
    iri_obj = pc.binary_join_element_wise("<", val, ">", "")
    lit = pc.binary_join_element_wise('"', _escape_literal(pc.fill_null(val, "")), '"', "")
    dt = _str_col(batch, "object_datatype")
    lang = _str_col(batch, "object_lang")
    typed = pc.binary_join_element_wise(lit, "^^<", pc.fill_null(dt, ""), ">", "")
    langed = pc.binary_join_element_wise(lit, "@", pc.fill_null(lang, ""), "")
    lit_final = pc.if_else(
        pc.is_valid(dt), typed, pc.if_else(pc.is_valid(lang), langed, lit)
    )
    obj = pc.if_else(is_iri, iri_obj, lit_final)
    parts = [subj, pred, obj]
    if with_graph and "graph" in batch.column_names:
        g = _str_col(batch, "graph")
        gq = pc.if_else(
            pc.is_valid(g),
            pc.binary_join_element_wise("<", pc.fill_null(g, ""), ">", ""),
            pa.scalar(None, pa.string()),
        )
        line4 = pc.binary_join_element_wise(subj, pred, obj, gq, ".", " ")
        line3 = pc.binary_join_element_wise(subj, pred, obj, ".", " ")
        line = pc.if_else(pc.is_valid(g), line4, line3)
    else:
        line = pc.binary_join_element_wise(*parts, ".", " ")
    return pa.table({"text": line})


def export_lines(
    triples: "rd.Dataset", *, fmt: str = "nt"
) -> "rd.Dataset":
    """Format triple records as text lines. ``fmt``: ``nt`` (N-Triples) or
    ``nq`` (N-Quads, graph column as 4th term, reference format dispatch
    ``batch_cli.py:227-233``)."""
    if fmt not in ("nt", "nq"):
        raise ValueError(f"unsupported export format: {fmt!r} (nt|nq)")
    with_graph = fmt == "nq"
    return triples.map_batches(
        lambda b: format_ntriples(b, with_graph=with_graph),
        batch_format="pyarrow",
    )


def export_to_path(triples: "rd.Dataset", path: str, *, fmt: str = "nt") -> None:
    """Write formatted lines as sharded plain-text files (this Ray release
    has no ``write_csv`` variant that omits headers/quoting reliably for raw
    lines, so each task writes its shard directly — still streaming and
    parallel, one file per block)."""
    import os

    os.makedirs(path, exist_ok=True)

    def write_shard(batch: pa.Table) -> pa.Table:
        lines = batch.column("text").to_pylist()
        if lines:
            # unique per shard: id(batch) is NOT unique (CPython reuses ids
            # after GC, so two blocks in one worker could collide and the
            # later shard would overwrite the earlier one)
            shard = os.path.join(path, f"shard-{uuid.uuid4().hex}.{fmt}")
            with open(shard, "w", encoding="utf-8") as f:
                f.write("\n".join(lines) + "\n")
        return pa.table({"n": [len(lines)]})

    export_lines(triples, fmt=fmt).map_batches(
        write_shard, batch_format="pyarrow"
    ).count()


def export_jsonl(
    ds: "rd.Dataset",
    root: str,
    *,
    shard_key_col: str,
    num_shards: int = 64,
    fs=None,
) -> pa.Table:
    """Resumable sharded JSONL export — the standard LLM training-corpus
    output format (one JSON object per row, one file per hash shard,
    ``root/shard-<i>.jsonl``). Each shard commits atomically through the
    injectable commit filesystem with a ``_SUCCESS.<i>`` marker, so a
    crashed export re-runs and SKIPS finished shards (the same
    resumable-output contract as :func:`write_partitioned`; never one
    giant file). Rows hash on ``shard_key_col`` so a re-run routes every
    row to the same shard regardless of input block layout, and rows
    WITHIN a shard are written in sorted-key order — byte-deterministic
    output. JSON is ``orient=records`` with NaN-free nulls (``null``),
    UTF-8, no ASCII escaping. Each marker records the string hash's probe
    vector (``hash_probe("xxh64")``): string keys route through it, so a
    resume whose probe differs (or finds a marker without one) raises
    instead of skipping a shard that now holds other rows. Returns
    manifest rows ``(shard, path, rows, skipped)``."""
    import json as _json
    import os

    from ..functions.hashing import hash_probe
    from ..state.commitfs import PosixCommitFS
    from ..stages.exchange import sharded_groups

    fs = fs or PosixCommitFS()
    os.makedirs(root, exist_ok=True)
    probe = hash_probe("xxh64")

    def write_shard(s: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd

        shard_id = int(s["shard"].iloc[0]) if len(s) else 0
        body = s.drop(columns=["shard"]).sort_values(
            shard_key_col, kind="mergesort"
        )
        path = os.path.join(root, f"shard-{shard_id:05d}.jsonl")
        marker = os.path.join(root, f"_SUCCESS.{shard_id:05d}")
        if fs.exists(marker):
            if _json.loads(fs.read(marker)).get("hash_probe") != probe:
                raise RuntimeError(
                    f"{marker} was written under another shard hash "
                    "(hash_probe mismatch): resuming would mix routings; "
                    "export to a fresh root"
                )
            return pd.DataFrame(
                [(shard_id, path, 0, True)],
                columns=["shard", "path", "rows", "skipped"],
            )
        # pandas' C JSON writer: timestamps as ISO strings, NaN/NaT -> null
        payload = body.to_json(
            orient="records", lines=True, date_format="iso", force_ascii=False
        )
        if payload and not payload.endswith("\n"):
            payload += "\n"
        fs.put_atomic(path, payload.encode("utf-8"))
        fs.put_if_absent(
            marker,
            _json.dumps({"rows": len(body), "hash_probe": probe}).encode(),
        )
        return pd.DataFrame(
            [(shard_id, path, len(body), False)],
            columns=["shard", "path", "rows", "skipped"],
        )

    manifest = sharded_groups(
        ds,
        [shard_key_col],
        write_shard,
        num_shards=num_shards,
    ).to_pandas()
    return pa.Table.from_pandas(
        manifest.reset_index(drop=True), preserve_index=False
    ).replace_schema_metadata(None)


DEFAULT_PREFIX_BLOCK = """@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@prefix ex: <http://example.org/> .
"""


def _encode_partition_value(value: str) -> str:
    """Percent-encode a partition value for the hive ``col=value`` directory
    name (Spark/Hive escaping convention): '/', '=' and '%' become inert
    percent escapes, so a hostile value like ``a/../../x`` cannot escape
    the output root (its slashes are encoded; a bare ``..`` value stays a
    single directory named ``col=..`` under root) and every value maps to
    exactly one directory. A literal string ``__NULL__`` is additionally escaped
    (``%5F``-encoded underscores) so the null sentinel — reserved for actual
    nulls — can never collide with real data."""
    from urllib.parse import quote

    key = quote(value, safe="")
    if key == "__NULL__":
        key = key.replace("_", "%5F")
    return key


def write_partitioned(
    ds: "rd.Dataset",
    root: str,
    *,
    partition_col: str,
    num_shards: int = 64,
    fs=None,
) -> pa.Table:
    """Resumable hive-style partitioned Parquet write: one directory per
    distinct ``partition_col`` value (``root/<col>=<value>/part.parquet``),
    each committed atomically (temp → fsync → rename via the injectable
    commit filesystem, ``state/commitfs.py``) with a ``_SUCCESS`` marker —
    re-running after a crash SKIPS every partition whose marker exists and
    rewrites only the missing ones (the brief's "resumable output" rule:
    never one giant file, never rewrite finished work).

    Scale shape: partition values are hash-colocated over the block
    exchange (``exchange.sharded_groups``), ONE task per shard writes all its
    partitions' files. Returns manifest rows
    ``(partition, path, rows, skipped)`` — tiny, driver-side."""
    import json
    import os

    from ..state.commitfs import PosixCommitFS
    from ..stages.exchange import sharded_groups

    fs = fs or PosixCommitFS()

    def write_shard(s: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd

        out = []
        for value, g in s.drop(columns=["shard"]).groupby(
            partition_col, sort=False, dropna=False
        ):
            key = "__NULL__" if pd.isna(value) else _encode_partition_value(
                str(value)
            )
            pdir = os.path.join(root, f"{partition_col}={key}")
            marker = os.path.join(pdir, "_SUCCESS")
            path = os.path.join(pdir, "part.parquet")
            if fs.exists(marker):
                out.append((key, path, 0, True))
                continue
            import io

            import pyarrow.parquet as pq

            buf = io.BytesIO()
            pq.write_table(
                pa.Table.from_pandas(g, preserve_index=False)
                .replace_schema_metadata(None),
                buf,
            )
            fs.put_atomic(path, buf.getvalue())
            fs.put_if_absent(
                marker, json.dumps({"rows": len(g)}).encode()
            )
            out.append((key, path, len(g), False))
        return pd.DataFrame(
            out, columns=["partition", "path", "rows", "skipped"]
        )

    manifest = sharded_groups(
        ds,
        [partition_col],
        write_shard,
        num_shards=num_shards,
    ).to_pandas()
    return pa.Table.from_pandas(
        manifest.reset_index(drop=True), preserve_index=False
    ).replace_schema_metadata(None)


def format_trig(batch: pa.Table) -> pa.Table:
    """TriG lines: named-graph triples wrapped in ``GRAPH <g> { ... }``
    blocks (repeated blocks per graph are valid TriG), default-graph triples
    bare — the reference's primary output format
    (``rdf_star_etl_yarrrml.py:611-648``; full IRIs, prefix block emitted
    separately as a header)."""
    nt = format_ntriples(batch)["text"]
    g = _str_col(batch, "graph") if "graph" in batch.column_names else pa.nulls(
        batch.num_rows, pa.string()
    )
    wrapped = pc.binary_join_element_wise(
        "GRAPH <", pc.fill_null(g, ""), "> { ", nt, " }", ""
    )
    return pa.table({"text": pc.if_else(pc.is_valid(g), wrapped, nt)})


def export_trig(triples: "rd.Dataset", path: str) -> None:
    """Sharded TriG export with one canonical prefix header (reference
    writes one ``@prefix`` block then the body, ``:611-648``)."""
    import os

    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "00-prefixes.trig"), "w") as f:
        f.write(DEFAULT_PREFIX_BLOCK + "\n")

    def write_shard(batch: pa.Table) -> pa.Table:
        lines = batch.column("text").to_pylist()
        if lines:
            shard = os.path.join(path, f"shard-{uuid.uuid4().hex}.trig")
            with open(shard, "w", encoding="utf-8") as f:
                f.write("\n".join(lines) + "\n")
        return pa.table({"n": [len(lines)]})

    triples.map_batches(format_trig, batch_format="pyarrow").map_batches(
        write_shard, batch_format="pyarrow"
    ).count()
