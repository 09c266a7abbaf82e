"""Declarative tabular constraint suite — the repair-or-reject contract
generalized from one JSON document to table rows.

The reference decides per DOCUMENT: repair what it can, reject (strict mode)
what it can't, and log every heuristic fired
(/root/reference/src/json_repair/json_parser.py:338-348).  On a table the
same contract is a RULE SET evaluated per row: every rule failure becomes a
violation ROW ``(key..., rule)`` (never an exception that kills a task), and
per-rule counts aggregate into the run summary — the deequ-style constraint
surface named in the north star ("schema + constraint checker").

Rules are plain dicts (JSON-able, so a suite ships in a run config and
broadcasts for free):

    {"name": "qty_le_30",   "kind": "le",      "col": "l_quantity", "value": 30}
    {"name": "tax_range",   "kind": "between", "col": "l_tax", "lo": 0, "hi": 0.05}
    {"name": "flag_known",  "kind": "in_set",  "col": "l_returnflag", "values": ["A", "N"]}
    {"name": "disc_le_tax", "kind": "le_col",  "col": "l_discount", "other": "l_tax"}
    {"name": "has_key",     "kind": "not_null", "col": "l_orderkey"}

Evaluation is one vectorized pyarrow.compute kernel per rule per batch — a
stateless scan, zero shuffle, embarrassingly parallel at any scale.  NULL
comparisons follow SQL WHERE semantics (NULL is not a violation) except
``not_null``, which exists to catch them.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _rule_mask(rule: dict, batch: pa.Table) -> pa.Array:
    """Boolean violation mask (True = row violates the rule)."""
    col = batch.column(rule["col"])
    kind = rule["kind"]
    if kind == "not_null":
        return pc.is_null(col)
    if kind == "le":
        ok = pc.less_equal(col, rule["value"])
    elif kind == "ge":
        ok = pc.greater_equal(col, rule["value"])
    elif kind == "lt":
        ok = pc.less(col, rule["value"])
    elif kind == "gt":
        ok = pc.greater(col, rule["value"])
    elif kind == "between":
        ok = pc.and_(pc.greater_equal(col, rule["lo"]),
                     pc.less_equal(col, rule["hi"]))
    elif kind == "in_set":
        ok = pc.is_in(col, value_set=pa.array(rule["values"]))
    elif kind == "le_col":
        ok = pc.less_equal(col, batch.column(rule["other"]))
    else:
        raise ValueError(f"unknown rule kind {kind!r}")
    # SQL WHERE semantics: a NULL comparison is neither pass nor violation.
    # (pyarrow is_in maps NULL to plain False — the is_valid AND restores
    # NULL-neutrality there too; use not_null to catch NULLs explicitly.)
    viol = pc.invert(pc.fill_null(ok, True))
    return pc.and_(viol, pc.is_valid(col))


class ConstraintSuite:
    """A compiled rule set: per-batch violation rows + associative summary
    partials (run it inside ``map_batches``; ``summary_table`` sums them with
    ``stages.group_aggregate``)."""

    def __init__(self, rules: list[dict], key_cols: list[str]) -> None:
        names = [r["name"] for r in rules]
        if len(set(names)) != len(names):
            raise ValueError("duplicate rule names")
        self.rules = rules
        self.key_cols = key_cols

    def violations_batch(self, batch: pa.Table) -> pa.Table:
        """One row per (row, violated rule), key columns + ``rule``."""
        parts = []
        for rule in self.rules:
            mask = _rule_mask(rule, batch)
            hit = batch.select(self.key_cols).filter(mask)
            parts.append(hit.append_column(
                "rule", pa.array([rule["name"]] * len(hit), pa.string())))
        schema = pa.schema([*(batch.schema.field(c) for c in self.key_cols),
                            pa.field("rule", pa.string())])
        if not parts:
            return pa.table({f.name: pa.array([], f.type) for f in schema})
        return pa.concat_tables([p.cast(schema) for p in parts])

    def summary_partial(self, batch: pa.Table) -> dict:
        """{rule: [n_checked, n_violations]} — associative under pairwise
        list addition."""
        out = {}
        for rule in self.rules:
            mask = _rule_mask(rule, batch)
            out[rule["name"]] = [len(batch),
                                 int(pc.sum(mask).as_py() or 0)]
        return out

    def violations_stage(self):
        def fn(batch: pa.Table) -> pa.Table:
            return self.violations_batch(batch)
        return fn

    def summary_table(self, ds) -> pa.Table:
        """One streaming pass -> (rule, n_checked, n_violations) table."""
        from engine.stages import group_aggregate

        schema = pa.schema([("rule", pa.string()), ("n_checked", pa.int64()),
                            ("n_violations", pa.int64())])

        def partial(batch: pa.Table) -> pa.Table:
            return pa.Table.from_pylist(
                [{"rule": r, "n_checked": c, "n_violations": v}
                 for r, (c, v) in self.summary_partial(batch).items()], schema=schema)

        g = group_aggregate(
            ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
            ["rule"], {"n_checked": "sum", "n_violations": "sum"}, schema)
        # An empty input has no partial rows: every rule then reports 0, 0.
        merged = {r["rule"]: r for r in g.to_pylist()}
        return pa.Table.from_pylist(
            [merged.get(n, {"rule": n, "n_checked": 0, "n_violations": 0})
             for n in sorted(r["name"] for r in self.rules)], schema=schema)
