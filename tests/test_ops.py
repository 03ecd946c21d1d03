"""Diff / value-history / status / compaction / export tests, mirroring the
reference's batch-manager test coverage (``tests/test_batch_manager.py:278-362``)."""

import duckdb
import pandas as pd
import pyarrow as pa
import ray.data as rd

from etl_pipeline_rdf_star_ray.pipelines import cdc, derived, ops
from etl_pipeline_rdf_star_ray.pipelines.export import export_lines, format_ntriples
from etl_pipeline_rdf_star_ray.sources.synthetic import changelog_dataset, changelog_table
from etl_pipeline_rdf_star_ray.state import manifest as mf

N = 4000
MID = 2000


def _mk_log(lo, hi, **kw):
    return changelog_dataset(hi - lo, lsn_start=lo, **kw)


def _evolving_log(lo, hi):
    """The second half of the log adds the ``tool_args`` column."""
    return _mk_log(lo, hi, with_tool_args=lo >= MID)


def _lake(tmp_path, factory=_mk_log):
    lake = str(tmp_path / "lake")
    cdc.replay(factory, lake, lsn_splits=[MID, N], num_partitions=8)
    return lake


def _oracle_diff(n_a, n_b, log=None):
    """Independent duckdb diff oracle over the synthetic changelog (every
    payload column of ``log`` compared NULL-safely)."""
    log = changelog_table(N) if log is None else log
    con = duckdb.connect()
    con.register("log", log)
    payload = [c for c in ("text", "role", "tool", "ts", "tool_args")
               if c in log.column_names]
    same = " AND ".join(f"a.{c} IS NOT DISTINCT FROM b.{c}" for c in payload)
    snap = """
      SELECT * FROM (
        SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx
                                     ORDER BY lsn DESC) rn
        FROM log WHERE lsn < {n})
      WHERE rn = 1 AND op <> 'delete'
    """
    return con.sql(
        f"""
        WITH a AS ({snap.format(n=n_a)}), b AS ({snap.format(n=n_b)})
        SELECT coalesce(a.conv_id, b.conv_id) conv_id,
               coalesce(a.turn_idx, b.turn_idx) turn_idx,
               CASE WHEN a.conv_id IS NULL THEN 'added'
                    WHEN b.conv_id IS NULL THEN 'removed'
                    WHEN {same} THEN 'unchanged' ELSE 'modified' END
                 AS change_type
        FROM a FULL OUTER JOIN b
          ON a.conv_id = b.conv_id AND a.turn_idx = b.turn_idx
        ORDER BY conv_id, turn_idx
        """
    ).df()


def test_diff_matches_oracle(tmp_path):
    """Also across a schema-evolution boundary (``tool_args`` appears in the
    second half); on the same lake ``derived.changed_rows`` retracts every
    removed/modified key and asserts every added/modified one."""
    evolved = pa.concat_tables(
        [
            changelog_table(MID),
            changelog_table(N - MID, lsn_start=MID, with_tool_args=True),
        ],
        promote_options="default",
    )
    for name, factory, log in [
        ("plain", _mk_log, changelog_table(N)),
        ("evolving", _evolving_log, evolved),
    ]:
        lake = _lake(tmp_path / name, factory)
        got = (
            ops.diff(lake, MID - 1, N - 1)
            .to_pandas()
            .sort_values(["conv_id", "turn_idx"])
            .reset_index(drop=True)
        )
        expect = _oracle_diff(MID, N, log).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, expect, check_dtype=False)
        n = got["change_type"].value_counts()
        delta = derived.changed_rows(lake, MID - 1, N - 1).to_pandas()
        d = delta["delta_op"].value_counts()
        assert d.get(derived.DELTA_RETRACT, 0) == n.get("removed", 0) + n.get("modified", 0)
        assert d.get(derived.DELTA_ASSERT, 0) == n.get("added", 0) + n.get("modified", 0)


def test_diff_identical_snapshots_all_unchanged(tmp_path):
    lake = _lake(tmp_path)
    s = ops.diff_summary(lake, N - 1, N - 1)
    assert s["added"] == s["removed"] == s["modified"] == 0
    assert s["unchanged"] > 0


def test_value_history_matches_sql():
    ds = changelog_dataset(N)
    got = (
        ops.value_history(ds, num_partitions=8)
        .to_pandas()
        .drop(columns=["partition_id"], errors="ignore")
        .sort_values(["conv_id", "turn_idx"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("log", changelog_table(N))
    expect = con.sql(
        """
        WITH live AS (
          SELECT conv_id, turn_idx, text, lsn,
                 lag(text) OVER (PARTITION BY conv_id, turn_idx ORDER BY lsn) pt
          FROM log WHERE op <> 'delete'),
        ver AS (
          SELECT conv_id, turn_idx, count(*)::BIGINT n_versions,
                 sum(CASE WHEN pt IS NULL OR text <> pt THEN 1 ELSE 0 END)::BIGINT n_changes
          FROM live GROUP BY 1, 2),
        ev AS (
          SELECT conv_id, turn_idx, count(*)::BIGINT n_events,
                 arg_max(op, lsn) last_op
          FROM log GROUP BY 1, 2)
        SELECT ev.conv_id, ev.turn_idx, n_events, last_op,
               coalesce(n_versions, 0) n_versions, coalesce(n_changes, 0) n_changes
        FROM ev LEFT JOIN ver USING (conv_id, turn_idx)
        ORDER BY conv_id, turn_idx
        """
    ).df()
    got = got[["conv_id", "turn_idx", "n_events", "last_op", "n_versions", "n_changes"]]
    pd.testing.assert_frame_equal(got, expect, check_dtype=False)


def test_status_and_compact(tmp_path):
    lake = _lake(tmp_path)
    st = ops.status(lake)
    assert st["active_versions"] == 8
    assert st["row_count"] > 0
    rows_before = st["row_count"]
    n = ops.compact(lake)
    assert n == 8
    st2 = ops.status(lake)
    assert st2["row_count"] == rows_before
    # compaction is itself idempotent (same batch_id → markers skip)
    assert ops.compact(lake) == 8
    assert ops.status(lake)["commits"] == st2["commits"]


def test_format_ntriples_and_nquads():
    t = pa.table(
        {
            "subject": ["http://e/s1", "http://e/s2", "http://e/s3"],
            "predicate": ["http://e/p"] * 3,
            "object_value": ['va"l\n1', "http://e/o", "bonjour"],
            "object_type": ["literal", "iri", "literal"],
            "object_datatype": ["http://www.w3.org/2001/XMLSchema#string", None, None],
            "object_lang": [None, None, "fr"],
            "graph": ["http://e/g", None, "http://e/g"],
        }
    )
    nt = format_ntriples(t)["text"].to_pylist()
    assert nt[0] == '<http://e/s1> <http://e/p> "va\\"l\\n1"^^<http://www.w3.org/2001/XMLSchema#string> .'
    assert nt[1] == "<http://e/s2> <http://e/p> <http://e/o> ."
    assert nt[2] == '<http://e/s3> <http://e/p> "bonjour"@fr .'
    nq = format_ntriples(t, with_graph=True)["text"].to_pylist()
    assert nq[0].endswith("<http://e/g> .")
    assert nq[1] == "<http://e/s2> <http://e/p> <http://e/o> ."


def test_export_lines_dataset():
    t = pa.table(
        {
            "subject": ["http://e/s"],
            "predicate": ["http://e/p"],
            "object_value": ["x"],
            "object_type": ["literal"],
            "object_datatype": [None],
            "object_lang": [None],
            "graph": [None],
        }
    )
    out = export_lines(rd.from_arrow(t), fmt="nt").take_all()
    assert out[0]["text"] == '<http://e/s> <http://e/p> "x" .'


def test_hash_probe_detects_changed_hash_impl(tmp_path):
    """A lake created under one hash implementation must refuse to load if
    the environment's hash changed (silent key→partition remap protection)."""
    import json
    import os

    import pytest

    from etl_pipeline_rdf_star_ray.state import manifest as mf

    lake = str(tmp_path / "lake")
    os.makedirs(lake)
    meta = mf.load_or_create_meta(lake, mf.TableMeta(num_partitions=4))
    assert meta.hash_probe  # recorded at creation
    assert mf.load_meta(lake).num_partitions == 4  # verifies clean

    path = os.path.join(lake, mf.META_FILE)
    with open(path) as f:
        doc = json.load(f)
    doc["hash_probe"] = [1, 2, 3, 4]
    with open(path, "w") as f:
        json.dump(doc, f)
    with pytest.raises(RuntimeError, match="CHANGED"):
        mf.load_meta(lake)
