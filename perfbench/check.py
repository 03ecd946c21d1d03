"""Untimed correctness checks run after the timed part.

- ``state_diff_rows``: a DuckDB last-writer-wins oracle over the whole log
  (highest ``lsn`` per ``(conv_id, turn_idx)``, winning deletes dropped)
  compared with the lake snapshot by ``EXCEPT ALL`` in both directions, over
  every oracle column, ``tool_args`` included. A column the snapshot lacks is
  compared as NULLs, so a dropped column shows up as differing rows.
- exactly-once: re-running the last round must add no commit record and
  leave the snapshot unchanged.
"""

from __future__ import annotations

import pyarrow as pa

_ORACLE_SQL = """
SELECT * EXCLUDE (op, rn) FROM (
    SELECT *, row_number() OVER (
        PARTITION BY conv_id, turn_idx ORDER BY lsn DESC) AS rn
    FROM read_parquet({files}, union_by_name = true))
WHERE rn = 1 AND op <> 'delete'
"""

_DIFF_SQL = """
SELECT (SELECT count(*) FROM (SELECT * FROM oracle EXCEPT ALL SELECT * FROM snap))
     + (SELECT count(*) FROM (SELECT * FROM snap EXCEPT ALL SELECT * FROM oracle))
"""


def _conform(snap: pa.Table, schema: pa.Schema) -> pa.Table:
    cols = [
        snap.column(f.name).cast(f.type)
        if f.name in snap.column_names
        else pa.nulls(snap.num_rows, f.type)
        for f in schema
    ]
    return pa.table(cols, schema=schema)


def state_diff_rows(log_paths: list[str], snap: pa.Table) -> int:
    import duckdb

    files = "[" + ", ".join("'" + p.replace("'", "''") + "'" for p in log_paths) + "]"
    con = duckdb.connect()
    try:
        con.execute("SET threads TO 1")
        oracle = con.execute(_ORACLE_SQL.format(files=files)).arrow()
        if not isinstance(oracle, pa.Table):  # newer duckdb returns a reader
            oracle = oracle.read_all()
        snap = _conform(snap, oracle.schema)
        con.register("oracle", oracle)
        con.register("snap", snap)
        return int(con.execute(_DIFF_SQL).fetchone()[0])
    finally:
        con.close()


def exactly_once(workload, snap: pa.Table) -> tuple[int, bool]:
    """Re-run the last round; return (new commit records, snapshot same)."""
    from etl_pipeline_rdf_star_ray.state import lake
    from etl_pipeline_rdf_star_ray.state import manifest as mf

    before = len(mf.load_records(workload.lake_dir))
    workload.reingest_last_round()
    new = len(mf.load_records(workload.lake_dir)) - before
    return new, lake.state_table(workload.lake_dir).equals(snap)
