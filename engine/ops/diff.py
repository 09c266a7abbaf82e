"""Table diff — classify rows as added / removed / modified between two
versions of a keyed table.

The regression surface of a validation engine: after a pipeline change,
diff the new output corpus against the previous run's and review exactly
what moved (the tabular generalization of the reference's repair log — it
records WHAT the repair changed, /root/reference/src/json_repair/
json_parser.py:338-348; a table diff records what a pipeline run changed).

Scale shape: each side collapses to (key, content-hash) inside map_batches
(one md5 per row, the binary/text payload never crosses the exchange), then
ONE full-outer ``stages.exchange_join`` on the key classifies every row.
Unchanged rows are dropped right after each part's join, so the result is
proportional to the CHANGE SET, not the corpus.
"""

from __future__ import annotations

import hashlib

import pyarrow as pa


def _hash_stage(key_col: str, text_col: str, h: str):
    # NULL text hashes like '' (a NULL<->'' change is deliberately not a
    # diff); the key keeps its own type — any hashable Arrow type joins.
    def fn(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        hs = [hashlib.md5((t or "").encode("utf-8", "ignore")).hexdigest()
              for t in texts]
        return pa.table({"key": batch.column(key_col), h: pa.array(hs, pa.string())})
    return fn


def table_diff(a_ds, b_ds, *, key_col: str, text_col: str):
    """Diff two datasets by ``key_col`` content-hashing ``text_col``.

    Returns (key, change) rows — a Dataset, or a typed empty pyarrow
    Table when BOTH sides are empty — change in {'added', 'removed',
    'modified'}; identical rows are dropped.  The diff is one
    ``stages.exchange_join`` full outer join of the (key, hash) sides: a
    key with no hash on one side was added or removed.  A side with no
    rows joins as keys only, so its hash column is then absent.
    """
    from engine.stages import exchange_join

    a, b = (ds.map_batches(_hash_stage(key_col, text_col, h), batch_format="pyarrow",
                           zero_copy_batch=True).materialize()
            for ds, h in ((a_ds, "h_a"), (b_ds, "h_b")))
    if a.count() == 0 and b.count() == 0:
        # A typed pyarrow Table, not a Dataset: Ray reports schema None
        # for a Dataset whose every block is empty, and to_pandas would
        # drop the columns (round-3 finding).
        key_type = pa.int64()
        for src_ds in (a_ds, b_ds):
            s = src_ds.schema()
            if s is not None and key_col in s.names:
                key_type = s.types[s.names.index(key_col)]
                break
        return pa.table({"key": pa.array([], key_type),
                         "change": pa.array([], pa.string())})

    def classify(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ha, hb = (batch.column(h) if h in batch.column_names
                  else pa.nulls(batch.num_rows, pa.string()) for h in ("h_a", "h_b"))
        # Vectorized: unchanged rows (the bulk) die here without touching
        # Python — the operator's cost really is O(change set).
        change = pc.if_else(pc.is_null(ha), "added",
                            pc.if_else(pc.is_null(hb), "removed",
                                       pc.if_else(pc.not_equal(ha, hb), "modified",
                                                  pa.scalar(None, pa.string()))))
        out = pa.table({"key": batch.column("key"),
                        "change": change.cast(pa.string())})
        return out.filter(pc.is_valid(out.column("change")))

    return exchange_join(a, b, ["key"], how="full outer").map_batches(
        classify, batch_format="pyarrow", zero_copy_batch=True)
