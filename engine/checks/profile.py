"""Whole-table column profiler — the per-column statistics surface of the
validation engine (count / null-rate / distinct / min-max per column), the
tabular generalization of the reference's single-document inspection
(/root/reference/src/json_repair/json_repair.py:100-226 reports on ONE
document; a validation engine must report on every column of 10^12 rows).

Two scale-correct passes:

  1. count/nulls/min/max — per-batch partials (one tiny dict per batch)
     merged by keyed_tree_reduce: zero shuffle, O(batches x columns) rows.
  2. exact distinct — a hash-partitioned exchange counted in Arrow.  Each
     batch emits its distinct (column, canonical value) pairs;
     ``stages.exchange`` brings every copy of a pair to one part, where
     two Arrow hash aggregates dedup the pairs and count them per column.
     The driver sums at most parts x columns counts.  The pairs are
     batch-deduped, so a repetitive column ships far fewer rows than it
     has.  At 100 TB use ``profile_table_approx`` below — ONE pass, HLL
     registers instead of a (column, value) exchange — and keep this exact
     form as the oracle companion.

Values cross the exchange as canonical strings: ints/epochs via str(),
floats via float.hex() (exact, locale-free), strings as themselves — so
distinctness matches SQL value equality (caveat: float.hex distinguishes
-0.0 from 0.0; profile corpora with signed zeros through the HLL path).
min/max reprs are formatted once on the driver (%.6f for floats, matching
DuckDB printf).
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa

_KINDS = ("int", "float", "str", "ts")


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


def _canonical(vals: np.ndarray, kind: str) -> list[str]:
    if kind == "float":
        return [float(v).hex() for v in vals]
    return [str(v) for v in vals]


def _repr_out(v, kind: str) -> str:
    if kind == "float":
        return f"{float(v):.6f}"
    return str(v)


def profile_table(ds, columns: list[str]) -> pa.Table:
    """Profile ``columns`` of ``ds``: one output row per column with
    n_rows, n_nulls, n_distinct (exact), min_repr, max_repr (col_name keys the row)."""
    import pyarrow.compute as pc

    from engine.stages import exchange, keyed_tree_reduce

    kinds: dict[str, str] = {
        f.name: _column_kind(f.type)
        for f in ds.schema().base_schema if f.name in set(columns)}
    missing = [c for c in columns if c not in kinds]
    if missing:
        raise KeyError(f"columns not in dataset: {missing}")

    def norm(col: pa.ChunkedArray | pa.Array, kind: str):
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        if kind == "ts":
            arr = arr.cast(pa.int64())
        return arr

    def stats_partial(batch: pa.Table) -> pa.Table:
        st = {}
        for c in columns:
            arr = norm(batch.column(c), kinds[c])
            nulls = arr.null_count
            sub = {"n": len(arr), "nulls": nulls, "min": None, "max": None}
            if len(arr) > nulls:
                sub["min"] = pc.min(arr).as_py()
                sub["max"] = pc.max(arr).as_py()
            st[c] = sub
        return pa.table({"state": pa.array([json.dumps(st)],
                                           pa.large_string())})

    def merge(a: dict, b: dict) -> dict:
        lo = [v for v in (a["min"], b["min"]) if v is not None]
        hi = [v for v in (a["max"], b["max"]) if v is not None]
        return {"n": a["n"] + b["n"], "nulls": a["nulls"] + b["nulls"],
                "min": min(lo) if lo else None,
                "max": max(hi) if hi else None}

    merged = keyed_tree_reduce(
        ds.map_batches(stats_partial, batch_format="pyarrow",
                       zero_copy_batch=True), merge)

    def distinct_pairs(batch: pa.Table) -> pa.Table:
        cols, vals = [], []
        for c in columns:
            arr = norm(batch.column(c), kinds[c])
            uniq = pc.unique(arr.drop_null()).to_numpy(zero_copy_only=False)
            canon = _canonical(uniq, kinds[c])
            cols.extend([c] * len(canon))
            vals.extend(canon)
        return pa.table({"col_name": pa.array(cols, pa.string()),
                         "v": pa.array(vals, pa.large_string())})

    def count_part(part: pa.Table) -> pa.Table:
        # One partition holds every copy of its values: dedup the pairs,
        # then count them per column — two Arrow hash aggregates.
        pairs = part.group_by(["col_name", "v"], use_threads=False) \
            .aggregate([])
        g = pairs.group_by("col_name", use_threads=False) \
            .aggregate([([], "count_all")])
        return pa.table({"col_name": g.column("col_name"),
                         "n": g.column("count_all")})

    distinct: dict[str, int] = {}
    for r in exchange(ds.map_batches(distinct_pairs, batch_format="pyarrow",
                                     zero_copy_batch=True),
                      ["col_name", "v"], count_part,
                      pa.schema([("col_name", pa.string()), ("n", pa.int64())])) \
            .take_all():   # <= parts x columns rows
        distinct[r["col_name"]] = distinct.get(r["col_name"], 0) + r["n"]

    rows = sorted(columns)
    return pa.table({
        "col_name": pa.array(rows, pa.string()),
        "n_rows": pa.array([merged[c]["n"] if c in merged else 0
                            for c in rows], pa.int64()),
        "n_nulls": pa.array([merged[c]["nulls"] if c in merged else 0
                             for c in rows], pa.int64()),
        "n_distinct": pa.array([distinct.get(c, 0) for c in rows],
                               pa.int64()),
        # SQL MIN/MAX of an empty/all-null column is NULL — mirror that
        # (an empty-corpus profile must hash-match the oracle).
        "min_repr": pa.array(
            [_repr_out(merged[c]["min"], kinds[c])
             if c in merged and merged[c]["min"] is not None else None
             for c in rows], pa.string()),
        "max_repr": pa.array(
            [_repr_out(merged[c]["max"], kinds[c])
             if c in merged and merged[c]["max"] is not None else None
             for c in rows], pa.string()),
    })


def profile_table_approx(ds, columns: list[str], *, p: int = 14) -> pa.Table:
    """The 100-TB shape of ``profile_table``: ONE streaming pass, no
    distinct exchange.  Each batch emits count/null/min/max partials plus
    one HyperLogLog register set per column (2^p bytes); partials merge
    associatively (sums, min/max, register-wise max) through the bounded
    tree reduction, so the only data movement is O(batches × columns × 2^p)
    sketch bytes — independent of row count and of column cardinality.

    Output schema matches ``profile_table`` except ``n_distinct`` becomes
    ``n_distinct_approx`` (standard error ≈ 1.04/sqrt(2^p) ≈ 0.8% at the
    default p=14).  Values are canonicalized exactly as the exact pass
    (float.hex etc.), so both paths count the same value identity.
    """
    import pyarrow.compute as pc

    from engine.checks.sketches import HyperLogLog
    from engine.stages import keyed_tree_reduce

    kinds: dict[str, str] = {
        f.name: _column_kind(f.type)
        for f in ds.schema().base_schema if f.name in set(columns)}
    missing = [c for c in columns if c not in kinds]
    if missing:
        raise KeyError(f"columns not in dataset: {missing}")

    def norm(col: pa.ChunkedArray | pa.Array, kind: str):
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        if kind == "ts":
            arr = arr.cast(pa.int64())
        return arr

    def partial(batch: pa.Table) -> pa.Table:
        st = {}
        for c in columns:
            arr = norm(batch.column(c), kinds[c])
            nulls = arr.null_count
            sub = {"n": len(arr), "nulls": nulls, "min": None, "max": None}
            if len(arr) > nulls:
                sub["min"] = pc.min(arr).as_py()
                sub["max"] = pc.max(arr).as_py()
            hll = HyperLogLog(p)
            uniq = pc.unique(arr.drop_null()).to_numpy(zero_copy_only=False)
            if uniq.size:
                hll.update(np.asarray(_canonical(uniq, kinds[c]),
                                      dtype=object))
            sub["hll"] = hll.registers.tobytes().hex()
            st[c] = sub
        return pa.table({"state": pa.array([json.dumps(st)],
                                           pa.large_string())})

    def merge(a: dict, b: dict) -> dict:
        lo = [v for v in (a["min"], b["min"]) if v is not None]
        hi = [v for v in (a["max"], b["max"]) if v is not None]
        ra = np.frombuffer(bytes.fromhex(a["hll"]), dtype=np.uint8)
        rb = np.frombuffer(bytes.fromhex(b["hll"]), dtype=np.uint8)
        return {"n": a["n"] + b["n"], "nulls": a["nulls"] + b["nulls"],
                "min": min(lo) if lo else None,
                "max": max(hi) if hi else None,
                "hll": np.maximum(ra, rb).tobytes().hex()}

    merged = keyed_tree_reduce(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True), merge)

    def est(c: str) -> int:
        if c not in merged:
            return 0
        hll = HyperLogLog(p)
        hll.registers = np.frombuffer(
            bytes.fromhex(merged[c]["hll"]), dtype=np.uint8).copy()
        return int(round(hll.estimate()))

    rows = sorted(columns)
    return pa.table({
        "col_name": pa.array(rows, pa.string()),
        "n_rows": pa.array([merged[c]["n"] if c in merged else 0
                            for c in rows], pa.int64()),
        "n_nulls": pa.array([merged[c]["nulls"] if c in merged else 0
                             for c in rows], pa.int64()),
        "n_distinct_approx": pa.array([est(c) for c in rows], pa.int64()),
        "min_repr": pa.array(
            [_repr_out(merged[c]["min"], kinds[c])
             if c in merged and merged[c]["min"] is not None else None
             for c in rows], pa.string()),
        "max_repr": pa.array(
            [_repr_out(merged[c]["max"], kinds[c])
             if c in merged and merged[c]["max"] is not None else None
             for c in rows], pa.string()),
    })
