"""``stages.exchange`` and ``stages.range_exchange`` on Ray: every key's rows
reach one part, NULL keys form one group as in SQL, and the task and object
counts stay inside their bounds."""

import math

import numpy as np
import pyarrow as pa


def _counts_fn():
    """The per-key sum and count step.  Nested, so Ray pickles it by value:
    the workers cannot import this test module."""
    def counts(part: pa.Table) -> pa.Table:
        g = part.group_by("k", use_threads=False).aggregate([("v", "sum"), ([], "count_all")])
        return pa.table({"k": g.column("k"), "v": g.column("v_sum"),
                         "n": g.column("count_all")})
    return counts


_counts = _counts_fn()
COUNTS = pa.schema([("k", pa.string()), ("v", pa.int64()), ("n", pa.int64())])


def _want(blocks: list[pa.Table]) -> list[dict]:
    return _counts(pa.concat_tables(blocks)).sort_by("k").to_pylist()


def _blocks(rng, n_blocks: int, keys: np.ndarray, rows: int = 20) -> list[pa.Table]:
    return [pa.table({"k": pa.array(keys[rng.integers(0, keys.size, rows)], pa.string()),
                      "v": pa.array(rng.integers(-50, 50, rows), pa.int64())})
            for _ in range(n_blocks)]


def _n_cpus() -> int:
    import ray

    return int(ray.cluster_resources()["CPU"])


def _check_bounds(tel: dict, n_blocks: int, driver_rows: int) -> None:
    n = _n_cpus()
    assert tel["parts"] == n
    assert tel["splits"] <= max(n, math.ceil(n_blocks / 64))
    assert tel["objects"] <= tel["splits"] * n
    assert tel["driver_rows"] == driver_rows


def test_exchange_groups_each_key_in_one_part(ray_session):
    """A key whose rows were split across parts would show up as two
    output rows.  NULL and the empty string stay two groups; 300 blocks
    make more bundles than parts, each of at most GROUP_FAN_IN blocks."""
    import ray.data

    from engine import stages

    rng = np.random.default_rng(5)
    keys = np.array(["a", "b", None, "", "hot"] + [f"u{i}" for i in range(40)], dtype=object)
    for n_blocks in (300, 9):
        blocks = _blocks(rng, n_blocks, keys)
        blocks.append(blocks[0].slice(0, 0))
        tel: dict = {}
        out = stages.exchange(ray.data.from_arrow(blocks), ["k"], _counts, COUNTS,
                              telemetry=tel)
        rows = sorted(out.take_all(), key=lambda r: (r["k"] is None, r["k"]))
        want = _want(blocks)
        assert rows == sorted(want, key=lambda r: (r["k"] is None, r["k"]))
        assert sum(r["k"] is None for r in rows) == 1
        _check_bounds(tel, len(blocks), driver_rows=0)
    assert math.ceil(301 / 64) > _n_cpus()   # the GROUP_FAN_IN cap was exercised


def test_exchange_one_key_null_keys_and_empty_input(ray_session):
    """One key for every row: one part holds it all.  Only-NULL keys over
    several blocks: one group.  An empty input: the typed empty table with
    ``sort``, a zero-row Dataset without."""
    import ray.data

    from engine import stages

    rng = np.random.default_rng(8)
    for key in ("hot", None):
        blocks = _blocks(rng, 12, np.array([key], dtype=object))
        out = stages.exchange(ray.data.from_arrow(blocks), ["k"], _counts, COUNTS,
                              sort="k")
        assert out.take_all() == _want(blocks)
        assert out.count() == 1

    empty = ray.data.from_arrow(pa.table({"k": pa.array([], pa.string()),
                                          "v": pa.array([], pa.int64())}))
    tel: dict = {}
    out = stages.exchange(empty, ["k"], _counts, COUNTS, sort="k", telemetry=tel)
    assert isinstance(out, pa.Table) and out.schema == COUNTS and out.num_rows == 0
    assert tel["driver_rows"] == 0
    assert stages.exchange(empty, ["k"], _counts, COUNTS).count() == 0


def test_exchange_two_keys_group_as_sql(ray_session):
    """A composite key with NULLs in each column: the groups equal one
    Arrow group_by over all rows, an int key hashes alike in a block with
    NULLs (read as float by numpy) and in one without."""
    import ray.data

    from engine import stages

    rng = np.random.default_rng(11)

    def block(with_nulls: bool) -> pa.Table:
        a = rng.integers(0, 6, 30).astype(object)
        if with_nulls:
            a[rng.integers(0, 30, 5)] = None
        b = np.array(["x", "y", None], dtype=object)[rng.integers(0, 3, 30)]
        return pa.table({"a": pa.array(a, pa.int64()), "b": pa.array(b, pa.string()),
                         "v": pa.array(np.ones(30, np.int64))})

    def sums(t: pa.Table) -> pa.Table:
        g = t.group_by(["a", "b"], use_threads=False).aggregate([("v", "sum")])
        return pa.table({"a": g.column("a"), "b": g.column("b"), "v": g.column("v_sum")})

    blocks = [block(i % 2 == 0) for i in range(10)]
    schema = pa.schema([("a", pa.int64()), ("b", pa.string()), ("v", pa.int64())])
    out = stages.exchange(ray.data.from_arrow(blocks), ["a", "b"], sums, schema)
    assert sorted(out.take_all(), key=str) == \
        sorted(sums(pa.concat_tables(blocks)).to_pylist(), key=str)


def test_range_exchange_parts_are_sorted_ranges(ray_session):
    """The parts concatenate in key order, each ``start`` is the rows
    before its part, a run of equal first keys is never split, and only the
    n part counts reach the driver."""
    import ray.data

    from engine import stages

    rng = np.random.default_rng(21)
    firsts = rng.integers(0, 30, 2000)
    table = pa.table({"f": pa.array(firsts, pa.int64()),
                      "id": pa.array(rng.permutation(2000), pa.int64())})
    schema = pa.schema([("f", pa.int64()), ("id", pa.int64()), ("start", pa.int64()),
                        ("n", pa.int64())])

    def tag(part: pa.Table, start: int) -> pa.Table:
        return part.append_column("start", pa.array(np.full(part.num_rows, start))) \
            .append_column("n", pa.array(np.full(part.num_rows, part.num_rows)))

    tel: dict = {}
    out = stages.range_exchange(ray.data.from_arrow(table).repartition(13), ["f", "id"],
                                tag, schema, telemetry=tel)
    got = pa.concat_tables(ray.get(out.to_arrow_refs()))
    want = table.sort_by([("f", "ascending"), ("id", "ascending")])
    assert got.select(["f", "id"]).equals(want)
    starts = got.column("start").to_numpy()
    pos = np.arange(got.num_rows)
    assert np.all((starts <= pos) & (pos < starts + got.column("n").to_numpy()))
    f = got.column("f").to_numpy()
    assert np.all(starts[1:][f[1:] == f[:-1]] == starts[:-1][f[1:] == f[:-1]])
    _check_bounds(tel, 13, driver_rows=_n_cpus())


def test_range_exchange_refuses_nan_keys(ray_session):
    import pytest
    import ray.data

    from engine import stages

    ds = ray.data.from_arrow(pa.table({"f": pa.array([1.0, float("nan")])}))
    with pytest.raises(Exception, match="sort key column 'f' has 1 NULL/NaN"):
        stages.range_exchange(ds, ["f"], lambda t, s: t,
                              pa.schema([("f", pa.float64())]))


JOINS = ("inner", "full outer", "left anti")


def _merge_reference(left, right, how: str, lk: str, rk: str) -> list[tuple]:
    """SQL's join of two Arrow tables by pandas merge: a NULL key matches
    nothing (pandas alone would match NaN with NaN).  Rows as tuples, the
    left columns then the right non-key columns, lists as tuples."""
    import pandas as pd

    ldf, rdf = left.to_pandas(), right.to_pandas()
    lnull, rnull = ldf[ldf[lk].isna()], rdf[rdf[rk].isna()]
    ldf, rdf = ldf[ldf[lk].notna()], rdf[rdf[rk].notna()]
    if how == "left anti":
        out = pd.concat([ldf[~ldf[lk].isin(rdf[rk])], lnull])
    else:
        m = ldf.merge(rdf, how="inner" if how == "inner" else "outer",
                      left_on=lk, right_on=rk, suffixes=("", "_r"))
        if how == "full outer":
            m[lk] = m[lk].where(m[lk].notna(), m.get(rk, m[lk]))
            m = pd.concat([m, lnull, rnull.rename(columns={rk: lk})])
        out = m[[*left.column_names, *(c for c in right.column_names if c != rk)]]
    return _rows(out.to_dict("records"))


def _rows(records) -> list[tuple]:
    def norm(v):
        if isinstance(v, (list, np.ndarray)):
            return tuple(int(x) for x in v)
        if v is None or (isinstance(v, float) and np.isnan(v)):
            return None
        return v.item() if isinstance(v, np.generic) else v
    return sorted((tuple(norm(v) for v in r.values()) for r in records), key=repr)


def test_exchange_join_matches_pandas_merge(ray_session):
    """Each ``how`` of ``stages.exchange_join`` against a pandas merge
    reference: NULL keys on both sides, a list payload (Acero refuses one
    in a join), one empty side and then both, int32 keys against int64
    keys, string keys, and a key repeated on both sides (fan-out)."""
    import ray.data

    from engine import stages

    left = pa.table({"k": pa.array([1, 2, 2, 3, None, 5, -1], pa.int64()),
                     "tags": pa.array([[1], [2, 2], [], [3], [9], None, [7]],
                                      pa.list_(pa.int64())),
                     "lv": pa.array(range(7), pa.int64())})
    right = pa.table({"rk": pa.array([2, 2, 3, None, 4, -1], pa.int64()),
                      "rv": pa.array(["a", "b", "c", "n", "d", "m"], pa.string())})
    cases = [(left, right), (left.slice(0, 0), right), (left, right.slice(0, 0)),
             (left.slice(0, 0), right.slice(0, 0)),
             (left.cast(left.schema.set(0, pa.field("k", pa.int32()))), right),
             (left.set_column(0, "k", pa.array(["x", "y", "y", "z", None, "v", ""])),
              right.set_column(0, "rk", pa.array(["y", "y", "z", None, "w", ""])))]
    for lt, rt in cases:
        for how in JOINS:
            tel: dict = {}
            out = stages.exchange_join(
                ray.data.from_arrow([lt.slice(0, 3), lt.slice(3)]),
                ray.data.from_arrow(rt), ["k"], ["rk"], how=how, telemetry=tel)
            got = out.take_all()
            assert _rows(got) == _merge_reference(lt, rt, how, "k", "rk"), (how, lt.schema)
            if got:
                assert list(got[0]) == lt.column_names + (
                    [] if how == "left anti" else ["rv"])
            assert tel["parts"] == _n_cpus() and tel["driver_rows"] == 0
            if lt.num_rows and how == "left anti":
                assert out.schema().names == lt.column_names
    with np.testing.assert_raises(ValueError):
        stages.exchange_join(ray.data.from_arrow(left), ray.data.from_arrow(right),
                             ["k"], ["rk"], how="left outer")
