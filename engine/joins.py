"""One planner for dimension (key → value) joins.

A dimension join gives every probe row the value its key maps to on a build
side: customer → market segment, part → brand, order → (segment, month).
``plan_dim_join`` picks one of two strategies for each join:

  - **broadcast** when the build side has at most ``max_rows`` rows (the
    callers pass ``engine.queries.DIM_BROADCAST_MAX_ROWS``, the only gate)
    and its non-NULL keys are unique.  A ``stages.BroadcastMap`` of sorted
    int64 keys → int codes reaches every worker once, and each probe batch
    does one vectorized ``lookup``.  Nothing is shuffled.
  - **shuffle** otherwise: ``stages.exchange_join``, the build and probe
    sides hashed into the same parts and one Arrow join per part.

Uniqueness rule: a map holds one value per key, but SQL joins a probe row
with EVERY build row of its key.  A repeated key would silently drop those
fan-out rows, so a build side with one falls back to the shuffle.

Off-driver build: one Ray task concatenates the materialized build side's
Arrow blocks, drops NULL keys, encodes the values, sorts the keys, checks
them for repeats, and leaves the map in the object store.  The driver
intake is O(1) rows plus O(distinct values): the map's ObjectRef, the build
side's row count and the value dictionary — never the build side itself.

NULL keys never match, under either strategy: ``lookup`` masks them, and
an Arrow join matches no NULL key.  A combiner in front of the shuffle
drops them with ``valid_keys`` first: its numpy key column cannot hold a
NULL.  NULL values are values: the dictionary keeps NULL as an entry of its
own, so it groups as SQL's GROUP BY does.

Each plan logs one INFO record on the ``engine.joins`` logger naming the
join, the strategy, the build-side rows and the reason: ``under gate``,
``over gate`` or ``duplicate keys``.

The planner's users finish with ``stages.group_aggregate``, which groups
NULL values as SQL does.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

log = logging.getLogger(__name__)

BROADCAST, SHUFFLE = "broadcast", "shuffle"


@dataclass(frozen=True)
class DimJoin:
    """A planned dimension join.  ``build`` is the materialized build side
    for the shuffle strategy to join (None on broadcast); worker closures
    capture ``map_ref``, never the plan."""

    strategy: str
    rows: int
    build: Any
    map_ref: Any = None            # ObjectRef of the BroadcastMap
    values: list | None = None     # code → value (broadcast only)

    @property
    def broadcast(self) -> bool:
        return self.strategy == BROADCAST


def dictionary_codes(column) -> tuple[np.ndarray, list]:
    """Codes and values of a dictionary-encoded column, NULL an entry of its
    own.  The code dtype is sized to the dictionary: int8 would wrap past
    127 values."""
    if isinstance(column, pa.ChunkedArray):
        column = column.combine_chunks()
    enc = pc.dictionary_encode(column, null_encoding="encode")
    values = enc.dictionary.to_pylist()
    for dt in (np.int8, np.int16, np.int32):
        if len(values) <= np.iinfo(dt).max:
            break
    return enc.indices.to_numpy().astype(dt), values


def _encode_column(value_col: str, t: pa.Table) -> tuple[np.ndarray, list]:
    return dictionary_codes(t.column(value_col))


@ray.remote(num_returns=2)
def _build_map(key: str, encode: Callable, *blocks: pa.Table):
    """(BroadcastMap or None, (keys unique, value dictionary))."""
    from engine.stages import BroadcastMap

    blocks = [b for b in blocks if b.num_rows]    # a join emits zero-column blocks
    if not blocks:
        return BroadcastMap(np.empty(0, np.int64), np.empty(0, np.int8)), (True, [])
    t = pa.concat_tables(blocks)
    t = t.filter(pc.is_valid(t.column(key)))
    codes, values = encode(t)
    bm = BroadcastMap(t.column(key).to_numpy(), codes)
    if (bm.keys[1:] == bm.keys[:-1]).any():
        return None, (False, None)
    return bm, (True, values)


def plan_dim_join(build, key: str, encode: str | Callable, *, max_rows: int,
                  name: str) -> DimJoin:
    """Plan the join of a probe side with ``build`` on its int64 ``key``.

    ``encode`` names the value column to dictionary-encode, or is a
    function ``table -> (int codes, value dictionary)`` run in the build
    task (for values packed from several columns)."""
    build = build.materialize()
    rows = build.count()
    if rows > max_rows:
        return _planned(name, SHUFFLE, rows, "over gate", build)
    if isinstance(encode, str):
        encode = functools.partial(_encode_column, encode)
    map_ref, meta_ref = _build_map.remote(key, encode, *build.to_arrow_refs())
    unique, values = ray.get(meta_ref)
    if not unique:
        return _planned(name, SHUFFLE, rows, "duplicate keys", build)
    return _planned(name, BROADCAST, rows, "under gate", None, map_ref, values)


def _planned(name: str, strategy: str, rows: int, reason: str, build,
             map_ref=None, values=None) -> DimJoin:
    log.info("%s: %s join, build side %d rows (%s)", name, strategy, rows, reason)
    return DimJoin(strategy, rows, build, map_ref, values)


def lookup(map_ref, keys) -> tuple[np.ndarray, np.ndarray]:
    """Worker side of a broadcast: (codes, found) for an Arrow key column.
    The map is fetched once per worker process.  NULL keys are never found;
    codes at rows not found are arbitrary."""
    from engine.stages import _broadcast_from_ref

    valid = None
    if keys.null_count:
        valid = np.asarray(pc.is_valid(keys))
        keys = pc.fill_null(keys, 0)
    codes, found = _broadcast_from_ref(map_ref).lookup(np.asarray(keys))
    return codes, found if valid is None else found & valid


def sum_by_code(codes: np.ndarray, **measures) -> tuple[np.ndarray, dict]:
    """Per-batch combiner after a lookup: the distinct codes, and each
    measure summed per code as int64 (``None`` counts rows)."""
    uniq, inv = np.unique(codes, return_inverse=True)
    return uniq, {name: np.bincount(inv, weights=w).astype(np.int64)
                  for name, w in measures.items()}


def valid_keys(batch: pa.Table, key: str) -> pa.Table:
    """The rows of ``batch`` whose ``key`` is not NULL."""
    col = batch.column(key)
    return batch.filter(pc.is_valid(col)) if col.null_count else batch

