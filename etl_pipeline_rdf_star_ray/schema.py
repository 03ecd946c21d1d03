"""Arrow schemas and schema-evolution helpers.

The data model re-expresses the reference's abstractions (SURVEY.md §1.4):

- transcript row  <- the reference's tabular source row (reference:
  ``sources/__init__.py:128-130`` returns a polars DataFrame; here every table
  is a ``ray.data.Dataset`` whose blocks are ``pyarrow.Table``).
- CDC envelope (``op``, ``lsn``) <- the reference's batch-supersession
  versioning dimension (reference: ``batch_manager.py:387-394``) pushed down to
  row granularity.
- flat triple record with an ``annotations`` list column <- the reference's
  ``Quad`` + RDF-star reifier annotations (reference:
  ``rdf_star_etl_yarrrml.py:495-524``) collapsed into one nested Arrow column,
  so no blank-node bookkeeping is needed.

Schema evolution: the reference silently ignores unmapped columns and
substitutes ``''`` for missing ones (reference: ``yarrrml_parser.py:495``).
Here evolution is explicit: ``unify`` widens schemas with
``pa.unify_schemas(..., promote_options="permissive")`` and ``conform``
null-backfills missing columns so old lake partitions and new change-log
chunks can be concatenated without rewriting history.
"""

from __future__ import annotations

import pyarrow as pa

# ---------------------------------------------------------------------------
# Transcript table (BASELINE.json input_hint)
# ---------------------------------------------------------------------------

TRANSCRIPT_FIELDS: list[tuple[str, pa.DataType]] = [
    ("conv_id", pa.string()),
    ("turn_idx", pa.int32()),
    ("role", pa.string()),
    ("text", pa.string()),
    ("tool", pa.string()),
    ("ts", pa.timestamp("us")),
]

TRANSCRIPT_SCHEMA = pa.schema(TRANSCRIPT_FIELDS)

#: upsert key — all events for one key must meet the same merge state
KEY_COLUMNS = ("conv_id", "turn_idx")

# ---------------------------------------------------------------------------
# CDC change-log envelope (FIXTURES.md §2)
# ---------------------------------------------------------------------------

OP_INSERT = "insert"
OP_UPDATE = "update"
OP_DELETE = "delete"

CHANGELOG_SCHEMA = pa.schema(
    [("op", pa.string()), ("lsn", pa.int64())] + TRANSCRIPT_FIELDS
)

#: columns every change event must carry (payload may be null for deletes)
CHANGELOG_REQUIRED = ("op", "lsn", "conv_id", "turn_idx")

# ---------------------------------------------------------------------------
# Triple-record table (mapping-stage output; SURVEY.md §1.4 / FIXTURES.md §7)
# ---------------------------------------------------------------------------

ANNOTATION_STRUCT = pa.struct(
    [
        ("predicate", pa.string()),
        ("value", pa.string()),
        ("datatype", pa.string()),
    ]
)

ANNOTATIONS_TYPE = pa.list_(ANNOTATION_STRUCT)

#: object_type values
OBJ_IRI = "iri"
OBJ_LITERAL = "literal"

TRIPLE_FIELDS: list[tuple[str, pa.DataType]] = [
    ("subject", pa.string()),
    ("predicate", pa.string()),
    ("object_value", pa.string()),
    ("object_type", pa.string()),  # "iri" | "literal"
    ("object_datatype", pa.string()),  # XSD IRI or null
    ("object_lang", pa.string()),  # BCP-47 tag or null
    ("graph", pa.string()),  # named graph / batch IRI or null
]

TRIPLE_SCHEMA = pa.schema(TRIPLE_FIELDS)

ANNOTATED_TRIPLE_SCHEMA = pa.schema(
    TRIPLE_FIELDS + [("annotations", ANNOTATIONS_TYPE)]
)

# ---------------------------------------------------------------------------
# Checkpoint-manifest record (descendant of the reference's BatchMetadata,
# ``batch_manager.py:35-91``, persisted like ``batches.json``
# ``batch_manager.py:155-174``)
# ---------------------------------------------------------------------------

MANIFEST_SCHEMA = pa.schema(
    [
        ("partition_id", pa.int32()),
        ("batch_id", pa.string()),
        ("lsn_lo", pa.int64()),
        ("lsn_hi", pa.int64()),  # per-partition dedup watermark after commit
        ("file", pa.string()),
        ("row_count", pa.int64()),
        ("event_count", pa.int64()),
        ("checksum", pa.string()),
        ("committed_at", pa.string()),  # ISO-8601, informational only
        ("wall_sec", pa.float64()),
        ("status", pa.string()),  # active | superseded
    ]
)


# ---------------------------------------------------------------------------
# Evolution helpers
# ---------------------------------------------------------------------------


def unify(*schemas: pa.Schema) -> pa.Schema:
    """Widen schemas permissively (null-typed fields promote, ints widen)."""
    return pa.unify_schemas(list(schemas), promote_options="permissive")


def conform(table: pa.Table, schema: pa.Schema) -> pa.Table:
    """Project ``table`` onto ``schema``: missing columns become nulls, column
    order follows ``schema``, types are cast. Extra columns are dropped (the
    caller is expected to have unified first if it wants to keep them) —
    mirroring the reference's "unmapped columns are ignored" contract
    (``yarrrml_parser.py:512-532``) but with explicit typed nulls instead of
    silent ``''`` substitution.
    """
    n = table.num_rows
    cols = []
    for field in schema:
        if field.name in table.column_names:
            col = table.column(field.name)
            if col.type != field.type:
                col = col.cast(field.type)
            cols.append(col)
        else:
            cols.append(pa.nulls(n, type=field.type))
    return pa.Table.from_arrays(cols, schema=schema)


def concat_evolving(tables: list[pa.Table]) -> pa.Table:
    """Concatenate tables whose schemas may differ by added columns. Tables
    that all share one schema are concatenated as they are; only schemas
    that really differ are unified and conformed (typed NULLs fill the
    columns a table lacks)."""
    tables = [t for t in tables if t is not None]
    if not tables:
        raise ValueError("no tables to concatenate")
    first = tables[0].schema
    if all(t.schema.equals(first) for t in tables[1:]):
        return pa.concat_tables(tables)
    target = unify(*[t.schema for t in tables])
    return pa.concat_tables([conform(t, target) for t in tables])
