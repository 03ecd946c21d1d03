"""Batch lifecycle (archive / delete with ACTIVE guard), provenance lookup,
static provenance annotations, TriG export, shuffle-join annotation path —
mirroring the reference's lifecycle tests (``tests/test_batch_manager.py``)."""

import glob
import os

import pyarrow as pa
import pytest
import ray.data as rd

from etl_pipeline_rdf_star_ray.mapping import parse_yarrrml
from etl_pipeline_rdf_star_ray.pipelines import cdc, ops
from etl_pipeline_rdf_star_ray.pipelines.export import export_trig, format_trig
from etl_pipeline_rdf_star_ray.sources.synthetic import changelog_dataset
from etl_pipeline_rdf_star_ray.stages.annotate import (
    annotate_broadcast,
    annotate_shuffle,
    attach_static_annotations,
    build_annotation_index,
    compile_annotation,
)
from etl_pipeline_rdf_star_ray.stages.lift import lift_dataset
from etl_pipeline_rdf_star_ray.state import manifest as mf
from etl_pipeline_rdf_star_ray.state.lake import state_table


def _mk(lo, hi, **kw):
    return changelog_dataset(hi - lo, lsn_start=lo, **kw)


def test_archive_delete_lifecycle(tmp_path):
    lake = str(tmp_path / "lake")
    cdc.replay(_mk, lake, lsn_splits=[1000, 2000], num_partitions=4)
    batches = mf.batch_ids(lake)
    assert len(batches) == 2
    old, new = batches
    # cannot archive/delete the ACTIVE batch (reference guard)
    with pytest.raises(ValueError):
        mf.archive_batch(lake, new)
    with pytest.raises(ValueError):
        mf.delete_batch(lake, new)
    # archiving the superseded batch removes it from point-in-time reads
    n = mf.archive_batch(lake, old)
    assert n == 4
    assert state_table(lake, at_lsn=999).num_rows == 0
    # current state unaffected
    assert state_table(lake).num_rows > 0
    # hard delete removes files
    assert mf.delete_batch(lake, old, hard=True) == 4
    assert not any(
        old in f for f in glob.glob(os.path.join(lake, "part=*", "*.parquet"))
    )


SPEC = parse_yarrrml(
    """
prefixes: {ex: "http://example.org/"}
mappings:
  factTM:
    sources: [['d~parquet']]
    s: ex:f/$(id)
    po:
      - [ex:v, $(v)]
  annTM:
    sources: [['a~parquet']]
    subject:
      - function: join(quoted=factTM, equal(str1=$(fid), str2=$(id)))
    po:
      - [ex:note, $(note)]
"""
)


def test_annotate_shuffle_matches_broadcast():
    facts = rd.from_arrow(pa.table({"id": ["1", "2", "3"], "v": ["x", "y", "z"]}))
    anns_tab = pa.table({"fid": ["1", "1", "3"], "note": ["a", "b", "c"]})
    triples = lift_dataset(facts, SPEC, ["factTM"], carry_columns=("id",))
    kernel = compile_annotation(SPEC, "annTM")
    got = (
        annotate_shuffle(
            triples, rd.from_arrow(anns_tab), kernel, key_column="id",
            num_partitions=2,
        )
        .to_pandas()
        .sort_values(["subject", "object_value"])
        .reset_index(drop=True)
    )
    assert len(got) == 3
    assert got["object_value"].tolist() == ["a", "b", "c"]
    assert got["subject"].str.startswith("<< http://example.org/f/").all()


def test_provenance_for_subject():
    facts = rd.from_arrow(pa.table({"id": ["1", "2"], "v": ["x", "y"]}))
    triples = lift_dataset(facts, SPEC, ["factTM"], carry_columns=("id",))
    kernel = compile_annotation(SPEC, "annTM")
    index = build_annotation_index(
        pa.table({"fid": ["1"], "note": ["n"]}), kernel
    )
    annotated = annotate_broadcast(triples, index, key_column="id")
    df = ops.provenance_for_subject(annotated, "http://example.org/f/1")
    assert len(df) == 1
    assert df.iloc[0]["ann_value"] == "n"
    df2 = ops.provenance_for_subject(annotated, "http://example.org/f/2")
    assert df2.iloc[0]["ann_value"] is None


def test_attach_static_annotations():
    t = pa.table(
        {
            "subject": ["s1", "s2"],
            "predicate": ["p", "p"],
            "object_value": ["a", "b"],
        }
    )
    out = attach_static_annotations(
        rd.from_arrow(t),
        [
            {"predicate": "http://w3.org/prov#wasAttributedTo", "value": "sys"},
            {"predicate": "http://example.org/confidence", "value": 0.9,
             "datatype": "http://www.w3.org/2001/XMLSchema#decimal"},
        ],
    ).to_pandas()
    assert all(len(a) == 2 for a in out["annotations"])
    assert out["annotations"][0][1]["value"] == "0.9"


def test_trig_export(tmp_path):
    t = pa.table(
        {
            "subject": ["http://e/s1", "http://e/s2"],
            "predicate": ["http://e/p", "http://e/p"],
            "object_value": ["v", "http://e/o"],
            "object_type": ["literal", "iri"],
            "object_datatype": [None, None],
            "object_lang": [None, None],
            "graph": ["http://e/g1", None],
        }
    )
    lines = format_trig(t)["text"].to_pylist()
    assert lines[0] == 'GRAPH <http://e/g1> { <http://e/s1> <http://e/p> "v" . }'
    assert lines[1] == "<http://e/s2> <http://e/p> <http://e/o> ."
    out = str(tmp_path / "trig")
    export_trig(rd.from_arrow(t), out)
    files = sorted(os.listdir(out))
    assert files[0] == "00-prefixes.trig"
    body = "".join(open(os.path.join(out, f)).read() for f in files[1:])
    assert "GRAPH <http://e/g1>" in body


# ---------------------------------------------------------------------------
# exactly-once commit protocol vs object-store semantics (commitfs seam)
# ---------------------------------------------------------------------------


def _commit(fs, lake="mem://lake", pid=3, batch="b1", rows=(1, 2, 3)):
    import time

    from etl_pipeline_rdf_star_ray.state.sink import commit_partition

    t = pa.table({"conv_id": ["c"] * len(rows),
                  "turn_idx": pa.array(rows, pa.int32()),
                  "lsn": pa.array(rows, pa.int64())})
    return commit_partition(
        t, lake_dir=lake, partition_id=pid, batch_id=batch,
        lsn_lo=min(rows), lsn_hi=max(rows), event_count=len(rows),
        wall_start=time.monotonic(), fs=fs,
    )


def test_fake_object_store_full_commit_then_duplicate():
    import json

    from etl_pipeline_rdf_star_ray.state.commitfs import FakeObjectStoreCommitFS

    fs = FakeObjectStoreCommitFS()
    rec = _commit(fs)
    assert rec.status == "active"
    data_keys = [k for k in fs.objects if k.endswith(".parquet")]
    marker_keys = [k for k in fs.objects if k.endswith(".json")]
    assert len(data_keys) == 1 and len(marker_keys) == 1
    stored = json.loads(fs.read(marker_keys[0]))
    assert stored["checksum"] == rec.checksum and stored["status"] == "active"
    # retry after full commit: no-op, no new puts
    n_puts = len(fs.put_log)
    rec2 = _commit(fs)
    assert rec2.status == "duplicate"
    assert len(fs.put_log) == n_puts


def test_fake_object_store_crash_between_data_and_marker():
    from etl_pipeline_rdf_star_ray.state.commitfs import (
        CommitFSError,
        FakeObjectStoreCommitFS,
    )

    fs = FakeObjectStoreCommitFS()
    fs.crash_after_data_put = True
    with pytest.raises(CommitFSError):
        _commit(fs)
    # data landed, marker did not: the commit is invisible
    assert any(k.endswith(".parquet") for k in fs.objects)
    assert not any(k.endswith(".json") for k in fs.objects)
    # the retry re-puts byte-identical data and wins the marker
    first_data = next(v for k, v in fs.objects.items() if k.endswith(".parquet"))
    rec = _commit(fs)
    assert rec.status == "active"
    again = next(v for k, v in fs.objects.items() if k.endswith(".parquet"))
    assert again == first_data  # deterministic artifact
    assert sum(k.endswith(".json") for k in fs.objects) == 1


def test_fake_object_store_transient_error_then_retry():
    from etl_pipeline_rdf_star_ray.state.commitfs import (
        CommitFSError,
        FakeObjectStoreCommitFS,
    )

    fs = FakeObjectStoreCommitFS()
    fs.fail_next_puts = 1
    with pytest.raises(CommitFSError):
        _commit(fs)
    assert not fs.objects  # failed BEFORE any write
    assert _commit(fs).status == "active"


def test_fake_object_store_marker_race_loser_noops():
    from etl_pipeline_rdf_star_ray.state.commitfs import FakeObjectStoreCommitFS

    fs = FakeObjectStoreCommitFS()
    fs.race_marker = b'{"rival": true}'
    rec = _commit(fs)
    assert rec.status == "duplicate"  # conditional write lost
    marker = next(v for k, v in fs.objects.items() if k.endswith(".json"))
    assert marker == b'{"rival": true}'  # the winner's marker stands


def test_posix_put_if_absent_is_first_writer_wins(tmp_path):
    from etl_pipeline_rdf_star_ray.state.commitfs import PosixCommitFS

    fs = PosixCommitFS()
    p = str(tmp_path / "m" / "p00001-b1.json")
    assert fs.put_if_absent(p, b"first") is True
    assert fs.put_if_absent(p, b"second") is False
    assert fs.read(p) == b"first"
    # no temp litter in the marker directory
    assert sorted(os.listdir(tmp_path / "m")) == ["p00001-b1.json"]


def test_jsonl_export_roundtrip_resume_determinism(ray_session, tmp_path):
    """Round-5 JSONL training-corpus sink: (a) roundtrip — every row comes
    back through a JSON reader value-identical (timestamps ISO, nulls
    null); (b) resumable — a re-run skips every committed shard; (c)
    deterministic — a different input block layout produces byte-identical
    shard files (hash routing + in-shard key sort)."""
    import json

    import duckdb
    import pyarrow as pa
    import ray.data as rd

    from etl_pipeline_rdf_star_ray.pipelines.export import export_jsonl

    t = pa.table(
        {
            "doc_id": pa.array(range(200), pa.int64()),
            "text": pa.array(
                [f"doc {i} ünïcode" if i % 7 else None for i in range(200)]
            ),
            "score": pa.array(
                [None if i % 11 == 0 else i / 4 for i in range(200)],
                pa.float64(),
            ),
        }
    )
    root = tmp_path / "jsonl"
    m1 = export_jsonl(
        rd.from_arrow(t), str(root), shard_key_col="doc_id", num_shards=8
    ).to_pandas()
    assert not m1["skipped"].any()
    assert m1["rows"].sum() == 200

    rows = []
    for p in sorted(root.glob("shard-*.jsonl")):
        for line in p.read_text(encoding="utf-8").splitlines():
            rows.append(json.loads(line))
    assert len(rows) == 200
    by_id = {r["doc_id"]: r for r in rows}
    assert by_id[8]["text"] == "doc 8 ünïcode" and by_id[7]["text"] is None
    assert by_id[0]["score"] is None and by_id[1]["score"] == 0.25
    # DuckDB can read it back directly
    con = duckdb.connect()
    n = con.sql(
        f"SELECT count(*) FROM read_json_auto('{root}/shard-*.jsonl')"
    ).fetchone()[0]
    assert n == 200

    # resume: every shard skipped, files untouched
    before = {p.name: p.read_bytes() for p in root.glob("shard-*.jsonl")}
    m2 = export_jsonl(
        rd.from_arrow(t), str(root), shard_key_col="doc_id", num_shards=8
    ).to_pandas()
    assert m2["skipped"].all()
    assert {p.name: p.read_bytes() for p in root.glob("shard-*.jsonl")} == before

    # determinism under a different block layout
    root2 = tmp_path / "jsonl2"
    relaid = rd.from_arrow(t).repartition(13)
    export_jsonl(relaid, str(root2), shard_key_col="doc_id", num_shards=8)
    after = {p.name: p.read_bytes() for p in root2.glob("shard-*.jsonl")}
    assert after == before


def test_jsonl_export_resume_checks_hash_probe(ray_session, tmp_path, monkeypatch):
    """String shard keys route through the xxh64 string hash, so every
    ``_SUCCESS.<i>`` marker records its probe vector: a resume under a
    different probe, or over a marker without one, raises instead of
    skipping a shard that would now hold other rows."""
    import json

    from etl_pipeline_rdf_star_ray.functions import hashing
    from etl_pipeline_rdf_star_ray.pipelines.export import export_jsonl

    t = pa.table({"doc_id": [f"d{i}" for i in range(40)], "n": list(range(40))})
    root = tmp_path / "jsonl"

    def run():
        return export_jsonl(
            rd.from_arrow(t), str(root), shard_key_col="doc_id", num_shards=4
        ).to_pandas()

    assert not run()["skipped"].any()
    markers = sorted(root.glob("_SUCCESS.*"))
    probe = hashing.hash_probe("xxh64")
    assert markers
    assert all(json.loads(m.read_text())["hash_probe"] == probe for m in markers)
    assert run()["skipped"].all()  # same probe: a plain resume

    with monkeypatch.context() as mp:
        mp.setattr(hashing, "hash_probe", lambda *a, **k: [1, 2, 3, 4])
        with pytest.raises(Exception, match="hash_probe mismatch"):
            run()
    markers[0].write_text(json.dumps({"rows": 1}))  # a probe-less marker
    with pytest.raises(Exception, match="hash_probe mismatch"):
        run()
