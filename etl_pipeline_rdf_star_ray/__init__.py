"""Ray-Data-native CDC / incremental-ingest engine.

A brand-new engine (NOT a port) with the data-processing capabilities of the
reference ``Rxcthefirst/ETL-Pipeline-RDF-Star``: it tails a change log of
multi-turn conversation/agent transcript rows, applies a YARRRML-style
declarative mapping stage that lifts Arrow row batches into RDF-star-like
annotated triple records, and merges the stream into partitioned Parquet lake
tables via key-partitioned last-writer-wins upsert with an exactly-once sink
and a checkpoint manifest.

Execution is `ray.data.Dataset` streaming throughout: zero-copy
``map_batches(batch_format="pyarrow")`` for per-batch transforms, hash
partitioning on ``conv_id`` (salted for hot conversations), and the block
exchange (``stages/exchange.py``) for the per-partition merge+commit.

See SURVEY.md for the structural analysis of the reference and the build plan.
"""

__version__ = "0.1.0"
