"""Whole-table column profiler — the per-column statistics surface of the
validation engine (count / null-rate / distinct / min-max per column), the
tabular generalization of the reference's single-document inspection
(/root/reference/src/json_repair/json_repair.py:100-226 reports on ONE
document; a validation engine must report on every column of 10^12 rows).

One read, one exchange; every aggregate shares the pass (LMFAO's shape):

  1. A map turns each batch into typed keys: per column, its distinct
     valid values, plus one row of the batch's row and NULL counts whose
     value keys are NULL.  A key is the column index (int32) and either an
     int64 (ints, timestamps, and floats by their bits, every NaN as one
     NaN, -0.0 as 0.0) or, for a string column only, a large_string.
     Distinctness is DuckDB's value equality: one NaN, and -0.0 = 0.0.
     A uint64 value above 2^63 - 1 has no int64 key: its cast raises.
  2. ``stages.exchange`` on those keys brings every copy of a value to one
     part.  Per column a part counts its distinct values, sums the rows and
     NULLs, and takes min/max over its distinct values decoded back to
     their type, in DuckDB's order: NaN above every number.
  3. The driver combines at most parts x columns rows and formats the
     min/max reprs (%.6f for floats, matching DuckDB printf).  A signed
     zero prints as 0.000000; DuckDB prints whichever zero it met first,
     so its repr depends on the input order.

The keys are batch-deduped, so a repetitive column ships far fewer rows
than it has.  At 100 TB use ``profile_table_approx`` below — ONE pass, HLL
registers over the same keys instead of an exchange — and keep this exact
form as the oracle companion.
"""

from __future__ import annotations

import functools
import json

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_NAN_BITS = 0x7FF8000000000000
_PART_SCHEMA = pa.schema([
    ("c", pa.int32()), ("n_rows", pa.int64()), ("n_nulls", pa.int64()),
    ("n_distinct", pa.int64()), ("min_i", pa.int64()), ("max_i", pa.int64()),
    ("min_s", pa.large_string()), ("max_s", pa.large_string())])


def _column_kind(t: pa.DataType) -> str:
    if pa.types.is_timestamp(t):
        return "ts"
    if pa.types.is_integer(t):
        return "int"
    if pa.types.is_floating(t):
        return "float"
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return "str"
    raise TypeError(f"unprofilable column type {t}")


def _kinds(ds, columns: list[str]) -> list[str]:
    kinds = {f.name: _column_kind(f.type)
             for f in ds.schema().base_schema if f.name in set(columns)}
    missing = [c for c in columns if c not in kinds]
    if missing:
        raise KeyError(f"columns not in dataset: {missing}")
    return [kinds[c] for c in columns]


def _encode(vals: pa.Array, kind: str) -> pa.Array:
    """Non-NULL values as keys: large_string for a string column, else
    int64, a float by its bits with every NaN payload as one NaN and -0.0
    as 0.0 (``+ 0.0`` turns -0.0 into 0.0 and leaves NaN a NaN)."""
    if kind == "str":
        return vals.cast(pa.large_string())
    if kind != "float":
        return vals.cast(pa.int64())
    f = vals.cast(pa.float64()).to_numpy(zero_copy_only=False) + 0.0
    return pa.array(np.where(np.isnan(f), _NAN_BITS, f.view(np.int64)))


def _keys(col, kind: str) -> pa.Array:
    """The distinct valid values of ``col`` as keys."""
    keys = _encode(pc.unique(col.drop_null()), kind)
    return pc.unique(keys) if kind == "float" else keys


def _decode(keys, kind: str) -> pa.Array:
    if kind == "float":
        return pa.array(keys.to_numpy(zero_copy_only=False).view(np.float64))
    return keys


def _min_max(vals: pa.Array, kind: str) -> tuple:
    """Min and max of non-empty, non-NULL ``vals`` in DuckDB's
    order, where NaN is above every number.  Arrow's ``min_max`` skips NaN
    (and gives inf/-inf on an all-NaN input)."""
    mm = pc.min_max(vals)
    n_nan = pc.sum(pc.is_nan(vals)).as_py() if kind == "float" else 0
    if n_nan:
        nan = float("nan")
        return (nan if n_nan == len(vals) else mm["min"].as_py()), nan
    return mm["min"].as_py(), mm["max"].as_py()


def _typed_keys(columns: list[str], kinds: list[str], batch: pa.Table) -> pa.Table:
    """Map step of :func:`profile_table`: each column's row and NULL counts
    (one row, value keys NULL), then its distinct valid values as keys."""
    m = len(columns)
    out = [pa.table({"c": pa.array(range(m), pa.int32()),
                     "i": pa.nulls(m, pa.int64()), "s": pa.nulls(m, pa.large_string()),
                     "n": pa.array([batch.num_rows] * m, pa.int64()),
                     "nulls": pa.array([batch.column(c).null_count for c in columns],
                                       pa.int64())})]
    for ci, (c, kind) in enumerate(zip(columns, kinds)):
        k = _keys(batch.column(c), kind)
        none = pa.nulls(len(k), pa.int64())
        out.append(pa.table({
            "c": pa.array(np.full(len(k), ci, np.int32)),
            "i": none if kind == "str" else k,
            "s": k if kind == "str" else pa.nulls(len(k), pa.large_string()),
            "n": none, "nulls": none}))
    return pa.concat_tables(out)


def _profile_part(kinds: list[str], part: pa.Table) -> pa.Table:
    """Reduce step of :func:`profile_table`: per column of the part, its
    distinct count, summed rows and NULLs, and the min/max of its distinct
    values as keys (NULL when it has none)."""
    rows = []
    sums = part.group_by("c", use_threads=False).aggregate(
        [("n", "sum"), ("nulls", "sum")])
    for ci, n, nulls in zip(*(sums.column(k).to_pylist()
                              for k in ("c", "n_sum", "nulls_sum"))):
        kind = kinds[ci]
        col = "s" if kind == "str" else "i"
        vals = _decode(pc.unique(part.filter(pc.equal(part.column("c"), ci))
                                 .column(col).drop_null()), kind)
        lo = hi = None
        if len(vals):
            lo, hi = _encode(pa.array(list(_min_max(vals, kind)), vals.type), kind).to_pylist()
        rows.append({"c": ci, "n_rows": n or 0, "n_nulls": nulls or 0,
                     "n_distinct": len(vals), f"min_{col}": lo, f"max_{col}": hi})
    return pa.Table.from_pylist(rows, schema=_PART_SCHEMA)


def _repr_out(v, kind: str) -> str | None:
    if v is None:
        return None
    return f"{v:.6f}" if kind == "float" else str(v)


def _table(columns: list[str], kinds: list[str], stats: list[list],
           distinct: str) -> pa.Table:
    """One row per column, sorted by name, from its ``[n_rows, n_nulls,
    n_distinct, min, max]``.  A NULL min/max (an empty or all-NULL column,
    as SQL's MIN/MAX) stays NULL; a float prints as %.6f, as DuckDB's
    printf."""
    rows = sorted(zip(columns, kinds, stats))
    return pa.table({
        "col_name": pa.array([c for c, _, _ in rows], pa.string()),
        **{name: pa.array([st[j] for _, _, st in rows], pa.int64())
           for j, name in enumerate(("n_rows", "n_nulls", distinct))},
        **{name: pa.array([_repr_out(st[j], k) for _, k, st in rows], pa.string())
           for j, name in ((3, "min_repr"), (4, "max_repr"))}})


def profile_table(ds, columns: list[str]) -> pa.Table:
    """Profile ``columns`` of ``ds``: one output row per column with
    n_rows, n_nulls, n_distinct (exact), min_repr, max_repr (col_name keys the row)."""
    import ray

    from engine.stages import exchange_parts

    kinds = _kinds(ds, columns)
    keys = ds.map_batches(functools.partial(_typed_keys, columns, kinds),
                          batch_format="pyarrow", zero_copy_batch=True)
    refs = exchange_parts(keys, ["c", "i", "s"], functools.partial(_profile_part, kinds),
                          _PART_SCHEMA)
    parts = [r for t in ray.get(refs) for r in t.to_pylist()]   # <= parts x columns rows

    def column(ci: int, kind: str) -> list:
        rs = [r for r in parts if r["c"] == ci]
        key = "s" if kind == "str" else "i"
        out = [sum(r[k] for r in rs) for k in ("n_rows", "n_nulls", "n_distinct")]
        for j, end in enumerate(("min", "max")):
            vs = [r[f"{end}_{key}"] for r in rs if r[f"{end}_{key}"] is not None]
            out.append(_min_max(_decode(pa.array(vs), kind), kind)[j] if vs else None)
        return out

    return _table(columns, kinds, [column(ci, k) for ci, k in enumerate(kinds)],
                  "n_distinct")


def profile_table_approx(ds, columns: list[str], *, p: int = 14) -> pa.Table:
    """The 100-TB shape of ``profile_table``: ONE streaming pass, no
    distinct exchange.  Each batch emits count/null/min/max partials plus
    one HyperLogLog register set per column (2^p bytes); partials merge
    associatively (sums, min/max, register-wise max) through the bounded
    tree reduction, so the only data movement is O(batches × columns × 2^p)
    sketch bytes — independent of row count and of column cardinality.

    Output schema matches ``profile_table`` except ``n_distinct`` becomes
    ``n_distinct_approx`` (standard error ≈ 1.04/sqrt(2^p) ≈ 0.8% at the
    default p=14).  The registers hash the exact pass's keys, so both
    paths count the same value identity.
    """
    from engine.checks.sketches import HyperLogLog
    from engine.stages import keyed_tree_reduce

    kinds = _kinds(ds, columns)

    def partial(batch: pa.Table) -> pa.Table:
        st = {}
        for c, kind in zip(columns, kinds):
            keys = _keys(batch.column(c), kind)
            hll = HyperLogLog(p)
            if len(keys):
                hll.update(keys.to_numpy(zero_copy_only=False))
            mm = pc.min_max(_decode(keys, kind))
            st[c] = {"n": batch.num_rows, "nulls": batch.column(c).null_count,
                     "min": mm["min"].as_py(), "max": mm["max"].as_py(),
                     "hll": hll.state()}
        return pa.table({"state": pa.array([json.dumps(st)], pa.large_string())})

    def merge(a: dict, b: dict) -> dict:
        lo = [v for v in (a["min"], b["min"]) if v is not None]
        hi = [v for v in (a["max"], b["max"]) if v is not None]
        return {"n": a["n"] + b["n"], "nulls": a["nulls"] + b["nulls"],
                "min": min(lo) if lo else None, "max": max(hi) if hi else None,
                "hll": HyperLogLog.from_state(a["hll"])
                .merge(HyperLogLog.from_state(b["hll"])).state()}

    merged = keyed_tree_reduce(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True), merge)
    return _table(columns, kinds, [
        [m["n"], m["nulls"], int(round(HyperLogLog.from_state(m["hll"]).estimate())),
         m["min"], m["max"]] if (m := merged.get(c)) else [0, 0, 0, None, None]
        for c in columns], "n_distinct_approx")
