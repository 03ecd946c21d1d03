import pyarrow as pa
import pytest

from etl_pipeline_rdf_star_ray import schema as sch


def test_conform_adds_missing_columns_as_nulls():
    t = pa.table({"conv_id": ["a"], "turn_idx": pa.array([1], pa.int32())})
    target = pa.schema(
        [
            ("conv_id", pa.string()),
            ("turn_idx", pa.int32()),
            ("tool_args", pa.string()),
        ]
    )
    out = sch.conform(t, target)
    assert out.schema == target
    assert out.column("tool_args").null_count == 1


def test_conform_casts_and_orders():
    t = pa.table({"b": [1], "a": ["x"]})
    target = pa.schema([("a", pa.string()), ("b", pa.int32())])
    out = sch.conform(t, target)
    assert out.column_names == ["a", "b"]
    assert out.schema.field("b").type == pa.int32()


def test_unify_widens():
    s1 = pa.schema([("a", pa.string())])
    s2 = pa.schema([("a", pa.string()), ("late", pa.int64())])
    u = sch.unify(s1, s2)
    assert set(u.names) == {"a", "late"}


def test_concat_evolving():
    t1 = pa.table({"a": ["x"]})
    t2 = pa.table({"a": ["y"], "late": [1]})
    out = sch.concat_evolving([t1, t2])
    assert out.num_rows == 2
    assert out.column("late").null_count == 1


def test_concat_evolving_empty_raises():
    with pytest.raises(ValueError):
        sch.concat_evolving([])


def _slices(t: pa.Table, n: int) -> list[pa.Table]:
    step = t.num_rows // n
    return [t.slice(i * step, step) for i in range(n)]


def test_concat_evolving_same_schema_matches_unify_conform(monkeypatch):
    """Same-schema slices skip unify/conform, and the result equals the
    unify+conform result column for column."""
    from etl_pipeline_rdf_star_ray.sources.synthetic import changelog_table

    parts = _slices(changelog_table(600), 6)
    target = sch.unify(*[p.schema for p in parts])
    expect = pa.concat_tables([sch.conform(p, target) for p in parts])

    def no_unify(*_schemas):
        raise AssertionError("unify called on same-schema tables")

    monkeypatch.setattr(sch, "unify", no_unify)
    got = sch.concat_evolving(parts)
    assert got.schema.equals(expect.schema, check_metadata=True)
    for name in expect.column_names:
        assert got.column(name).equals(expect.column(name)), name


def test_concat_evolving_mixed_tool_args_widens_with_typed_nulls():
    from etl_pipeline_rdf_star_ray.sources.synthetic import changelog_table

    plain = _slices(changelog_table(200), 2)
    evolved = _slices(changelog_table(200, lsn_start=200, with_tool_args=True), 2)
    assert "tool_args" not in plain[0].column_names
    got = sch.concat_evolving([plain[0], *evolved, plain[1]])
    tool_args = got.column("tool_args")
    assert tool_args.type == evolved[0].schema.field("tool_args").type
    assert tool_args.slice(0, 100).null_count == 100
    assert tool_args.slice(300, 100).null_count == 100
    assert tool_args.slice(100, 200).equals(
        pa.chunked_array([e.column("tool_args").combine_chunks() for e in evolved])
    )
