"""Deterministic, process-stable vectorized hashing.

Used for: hash partitioning on ``conv_id`` (the CDC shuffle key), content
fingerprints for exact dedup and diff, the salted sub-partitioning of hot
conversations, and the shard plane's routing rule (:func:`shard_ids`).
Everything here must be stable across processes and Python versions (no
builtin ``hash`` — PYTHONHASHSEED), and vectorized (no per-row Python in
hot stages).

Two string hashes: :func:`xxh64_column` (polars' xxhash, C-speed at any
cardinality; what :func:`key_hash_column` and therefore every shard, join
and export route use) and :func:`hash64_column` (blake2b over the
dictionary-encoded uniques; portable forever, cheap when uniques << rows).
The CDC lake pins its choice per table in ``TableMeta.key_hash``.
Integers and temporals never go through a string: they mix through
:func:`splitmix64`.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa

# polars sizes its thread pool to ALL machine cores at import; inside Ray
# workers that oversubscribes (workers × cores threads). One thread per
# worker is right — Ray provides the process-level parallelism. Must be set
# before the first polars import in each worker process; this module is
# imported before any polars use in this package.
os.environ.setdefault("POLARS_MAX_THREADS", "1")

__all__ = [
    "hash64_str",
    "hash64_column",
    "splitmix64",
    "combine64",
]

_U64 = np.uint64


def hash64_str(s: str) -> int:
    """Stable 64-bit hash of one Python string (blake2b, first 8 bytes)."""
    return int.from_bytes(
        hashlib.blake2b(s.encode("utf-8"), digest_size=8).digest(), "little"
    )


def _hash_unique_strings(values: pa.Array) -> np.ndarray:
    out = np.empty(len(values), dtype=_U64)
    for i, v in enumerate(values):
        py = v.as_py()
        out[i] = 0 if py is None else hash64_str(py)
    return out


def hash64_column(arr: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Stable 64-bit hashes for a string column, vectorized via dictionary
    encoding (hash uniques once, scatter by code)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if pa.types.is_dictionary(arr.type):
        dict_arr = arr
    else:
        dict_arr = arr.dictionary_encode()
    uniq = _hash_unique_strings(dict_arr.dictionary)
    if len(uniq) == 0:
        # ALL-null column: the dictionary is empty, so the scatter below
        # would index into a zero-length array — every null hashes to 0
        return np.zeros(len(dict_arr), dtype=_U64)
    codes = dict_arr.indices.to_numpy(zero_copy_only=False)
    # null indices come back as the sentinel from to_numpy with nulls → mask
    if dict_arr.indices.null_count:
        # with nulls, to_numpy falls back to a float array with NaNs
        mask = np.asarray(dict_arr.indices.is_null())
        codes = np.where(mask, 0, codes).astype(np.int64)
        out = uniq[codes]
        out[mask] = 0
        return out
    return uniq[codes.astype(np.int64)]


def xxh64_column(arr: pa.ChunkedArray | pa.Array, *, seed: int = 42) -> np.ndarray:
    """Vectorized 64-bit string hash via polars (xxhash family): C-speed for
    ANY key cardinality, deterministic for a fixed polars version. Lake
    tables pin their hash implementation in ``TableMeta.key_hash`` — a table
    created with ``xxh64`` must be read/written with the same polars major
    version (production would vendor a fixed xxhash64); ``blake2b``
    (:func:`hash64_column`) is the portable-forever alternative, efficient
    when unique keys ≪ rows."""
    import polars as pl

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    s = pl.from_arrow(arr)
    return s.hash(seed=seed).to_numpy().astype(_U64)


#: fixed probe keys whose hashes are recorded in every lake table's
#: ``_meta.json`` at creation — ``xxh64`` is polars' ``.hash()``, which
#: polars documents as unstable across versions, so a dependency upgrade
#: could silently remap conv_id→partition and break LWW merge (same key in
#: two partitions). Verifying the probe vector at table load turns that
#: silent corruption into a hard error (round-1 ADVICE).
PROBE_KEYS = ["", "conv-000042", "the quick brown fox", "naïve-中文-🦊"]


def hash_probe(key_hash: str = "xxh64", *, seed: int = 42) -> list[int]:
    """Hashes of :data:`PROBE_KEYS` under the named column-hash impl."""
    arr = pa.array(PROBE_KEYS, pa.string())
    h = xxh64_column(arr, seed=seed) if key_hash == "xxh64" else hash64_column(arr)
    return [int(x) for x in h]


def splitmix64(x: np.ndarray | int) -> np.ndarray | int:
    """SplitMix64 finalizer — stable integer mixing (public-domain constant
    set from the SplitMix64 PRNG, Steele et al.). uint64 wraparound is the
    algorithm (mod-2^64 arithmetic); numpy only warns for 0-d inputs, so
    silence locally."""
    with np.errstate(over="ignore"):
        z = np.asarray(x, dtype=_U64) + _U64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
        return z ^ (z >> _U64(31))


def combine64(a: np.ndarray, b: np.ndarray | int) -> np.ndarray:
    """Order-dependent combination of two 64-bit hash arrays."""
    a = np.asarray(a, dtype=_U64)
    b = np.asarray(b, dtype=_U64) if not np.isscalar(b) else _U64(b)
    return splitmix64(a ^ (b * _U64(0xC2B2AE3D27D4EB4F)))


def key_hash_column(arr: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """uint64 hash of one key column, dispatched on type: integers mix
    directly through splitmix64 (no string round-trip — casting int64 keys
    to strings before hashing cost ~2 s per million keys in the
    sharded-join profile; uint64 reinterprets its bits, so keys >= 2^63
    hash too), temporal types hash their int64 storage view, everything
    else is cast to plain ``string`` and hashed with :func:`xxh64_column`
    (the cast makes ``large_string`` and dictionary-encoded columns hash
    like ``string``). NULL hashes to 0 in every branch."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    t = arr.type
    if pa.types.is_integer(t) or pa.types.is_temporal(t):
        storage = arr
        if t == pa.uint64():
            storage = storage.view(pa.int64())
        elif not pa.types.is_integer(t):
            # 32-bit temporal storage (date32/time32) has no direct ->int64
            # cast in Arrow: hop through its bit-width integer first
            if t.bit_width == 32:
                storage = storage.cast(pa.int32())
            storage = storage.cast(pa.int64())
        elif t != pa.int64():
            storage = storage.cast(pa.int64())
        # fill_null BEFORE to_numpy: a null-bearing int64 column would
        # otherwise round-trip through float64 and corrupt keys >= 2^53
        # (batch-dependent hashes break the exchange colocation contract)
        vals = storage.fill_null(0).to_numpy(zero_copy_only=False).view(_U64)
        out = np.asarray(splitmix64(vals))
    else:
        arr = arr.cast(pa.string())
        out = xxh64_column(arr)
    if arr.null_count:
        out[np.asarray(arr.is_null())] = 0
    return out


def shard_ids(batch: pa.Table, keys: list[str], num_shards: int) -> pa.Array:
    """int32 ``partition_id`` column for the block exchange: the shard of
    each row's key — :func:`key_hash_column` per key column, folded left
    to right with :func:`combine64`, mod ``num_shards``. The one routing
    rule of every sharded operator (sharded groups, equi-join, as-of and
    range joins, export): rows with equal keys must land in one shard
    whichever block they arrive in, so there is no second rule to drift
    from."""
    h = key_hash_column(batch.column(keys[0]))
    for c in keys[1:]:
        h = combine64(h, key_hash_column(batch.column(c)))
    return pa.array((h % _U64(num_shards)).astype(np.int32), pa.int32())


def md5_hex_column(
    arr: pa.ChunkedArray | pa.Array, *, prefix: int | None = None
) -> pa.ChunkedArray:
    """``md5(CAST(x AS VARCHAR))`` hex digest per value, optionally truncated
    to the first ``prefix`` chars — the shared deterministic order/sample key
    behind ``sample_hash`` / ``stratified_sample`` / ``dataset_split`` /
    ``mixture_sample``. Vectorized through DuckDB's C++ md5 kernel over the
    zero-copy Arrow column (no per-row hashlib loop); byte-identical to the
    SQL oracles' ``md5(CAST(x AS VARCHAR))``."""
    import duckdb

    ids_tbl = pa.table({"id": arr})  # noqa: F841 (DuckDB replacement scan)
    expr = "md5(CAST(id AS VARCHAR))"
    if prefix is not None:
        expr = f"substr({expr}, 1, {int(prefix)})"
    return duckdb.execute(f"SELECT {expr} AS h FROM ids_tbl").arrow().column("h")
