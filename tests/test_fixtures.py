"""FIXTURES.md contracts: golden doc pair, corpus-as-table kernel, referential,
drift-on-shifted-epoch."""

import json

import numpy as np
import pyarrow as pa
import pytest

from engine.data.golden import golden_pair
from engine.repair import from_file, loads


def test_golden_pair_repairs_to_valid():
    valid, invalid = golden_pair()
    assert 8_000 < len(valid) < 12_000
    want = json.loads(valid)
    assert len(want) == 6
    assert loads(invalid) == want
    assert loads(invalid, skip_json_loads=True) == want


def test_golden_pair_chunked_file(tmp_path):
    valid, invalid = golden_pair()
    p = tmp_path / "invalid.json"
    p.write_text(invalid)
    assert from_file(p, chunk_length=2) == json.loads(valid)


def test_corpus_as_table_through_map_batches(ray_session):
    """Run the ported conformance corpus through the engine as a TABLE —
    the columnar fixture form from FIXTURES.md §2."""
    import ray.data

    from engine.stages import RepairJsonStage
    from tests.test_repair_kernel import SERIALIZE_CASES

    table = pa.table({
        "case_id": pa.array([f"case:{i}" for i in range(len(SERIALIZE_CASES))], pa.string()),
        "raw": pa.array([c[0] for c in SERIALIZE_CASES], pa.string()),
        "expected": pa.array([c[1] for c in SERIALIZE_CASES], pa.string()),
    })
    out = ray.data.from_arrow(table).map_batches(
        RepairJsonStage, fn_constructor_kwargs={"col": "raw"},
        batch_format="pyarrow", concurrency=2, batch_size=64,
    ).take_all()
    bad = [r for r in out if r["raw_repaired"] != r["expected"]]
    assert not bad, bad[:3]


def test_referential_check(ray_session):
    from engine.data.clips import make_clips_batch, speakers_table
    from engine.stages import build_fk_probe, fk_check_batch

    import ray

    t = make_clips_batch({"id": np.arange(3000)})
    bloom_state, exact = build_fk_probe(speakers_table().column("speaker_id").to_pylist())
    out = fk_check_batch(t, ray.put(bloom_state), ray.put(exact))
    fk = out.column("fk_ok").to_numpy(zero_copy_only=False)
    orphans = [s for s, ok in zip(out.column("speaker_id").to_pylist(), fk) if not ok]
    assert 0 < len(orphans) < 30                        # ~0.3% planted
    assert all(s.startswith("spk-orphan-") for s in orphans)
    assert fk.sum() + len(orphans) == 3000


def test_drift_fires_on_shifted_epoch(ray_session):
    import ray.data

    from engine.data.clips import make_clips_batch
    from engine.run import drift_report, validate_clips_dataset
    from engine.stages import merge_sketch_partials, sketch_partials_batch

    ds = ray.data.range(1500).map_batches(
        lambda b: make_clips_batch(b, drift=True), batch_format="numpy", batch_size=512)
    checked = validate_clips_dataset(ds, batch_size=256)
    rows = checked.map_batches(sketch_partials_batch, batch_format="pyarrow",
                               zero_copy_batch=True).take_all()
    merged = merge_sketch_partials([json.loads(r["partial"]) for r in rows])
    rep = drift_report(merged["hists"])
    assert rep["available"]
    assert rep["dur_ms"]["drifted"], rep
    assert not rep["snr_db"]["drifted"]
    assert not rep["confidence"]["drifted"]


def test_io_seam_parquet_fallback(ray_session, tmp_path):
    import ray.data

    from engine.io import have_lance, read_table, write_table

    assert not have_lance()        # this sandbox: parquet fallback expected
    ds = ray.data.from_arrow(pa.table({"x": pa.array([1, 2, 3], pa.int64())}))
    write_table(ds, str(tmp_path / "t"))
    back = read_table(str(tmp_path / "t"), columns=["x"])
    assert sorted(r["x"] for r in back.take_all()) == [1, 2, 3]


def test_strict_stage_flags(ray_session):
    import ray.data

    from engine.stages import RepairJsonStage

    t = pa.table({"raw": pa.array(['[{"key": "a", "key": "b"}]', '{"ok": 1}'], pa.string())})
    out = ray.data.from_arrow(t).map_batches(
        RepairJsonStage,
        fn_constructor_kwargs={"col": "raw", "strict": True, "skip_json_loads": True},
        batch_format="pyarrow", concurrency=1,
    ).take_all()
    by_raw = {r["raw"]: r for r in out}
    assert not by_raw['[{"key": "a", "key": "b"}]']["raw_ok"]     # strict rejects dup key
    assert by_raw['{"ok": 1}']["raw_ok"]


def test_check_registry_builtins_and_custom(ray_session):
    import pyarrow as pa
    import ray.data

    from engine.checks.registry import available_checks, register_check, run_checks

    assert {"row_counts", "null_rates", "numeric_stats", "distinct_approx"} <= set(available_checks())

    @register_check
    class MaxLen:
        name = "max_text_len"

        def batch_partial(self, batch):
            texts = batch.column("text").to_pylist()
            return {"max": max((len(t or "") for t in texts), default=0)}

        def merge(self, a, b):
            return {"max": max(a["max"], b["max"])}

        def finalize(self, state):
            return state

    ds = ray.data.from_arrow(pa.table({
        "clip_id": pa.array([f"c{i % 50}" for i in range(200)], pa.string()),
        "text": pa.array(["x" * (i % 17) for i in range(200)], pa.string()),
        "v": pa.array([float(i) for i in range(200)]),
    }))
    out = run_checks(ds, ["row_counts", "null_rates", "numeric_stats",
                          "distinct_approx", "max_text_len"])
    assert out["row_counts"]["rows"] == 200
    assert out["null_rates"]["text"] == 0.0
    assert out["numeric_stats"]["v"]["count"] == 200
    assert abs(out["distinct_approx"]["distinct"] - 50) <= 2
    assert out["max_text_len"]["max"] == 16


def test_tree_merge_partials_matches_flat_merge(ray_session):
    import json as _json

    import ray.data

    from engine.data.clips import make_clips_batch
    from engine.run import validate_clips_dataset
    from engine.stages import merge_sketch_partials, sketch_partials_batch, tree_merge_partials

    ds = ray.data.range(1200).map_batches(
        lambda b: make_clips_batch(b), batch_format="numpy", batch_size=100)
    partials = validate_clips_dataset(ds, batch_size=100).map_batches(
        sketch_partials_batch, batch_format="pyarrow", zero_copy_batch=True)
    partials = partials.materialize()

    flat = merge_sketch_partials([_json.loads(r["partial"]) for r in partials.take_all()])
    tree = tree_merge_partials(partials, fan_in=3, driver_threshold=2)
    assert tree["totals"] == flat["totals"]
    assert abs(tree["hll"].estimate() - flat["hll"].estimate()) < 1e-9
    for col in flat["hists"]:
        assert (tree["hists"][col].counts == flat["hists"][col].counts).all()


def test_tree_reduce_states_bounds_driver_intake(ray_session):
    """Round-1 VERDICT finding 3: sketch reduction must never hand the driver
    one row per block.  1000 partials with fan_in=8/threshold=16 must reach
    the driver as <=16 rows and still combine to the exact flat-merge value."""
    import json as _json

    import pyarrow as pa
    import ray.data

    from engine.stages import tree_reduce_states

    states = [{"n": i, "mx": i % 37} for i in range(1000)]
    ds = ray.data.from_arrow(pa.table({
        "state": pa.array([_json.dumps(s) for s in states], pa.large_string())
    })).repartition(100)

    def combine(sts):
        return {"n": sum(s["n"] for s in sts), "mx": max(s["mx"] for s in sts)}

    telemetry = {}
    got = tree_reduce_states(ds, combine, fan_in=8, driver_threshold=16,
                             telemetry=telemetry)
    assert got == {"n": sum(range(1000)), "mx": 36}
    assert telemetry["driver_rows"] <= 16
    assert telemetry["rounds"] >= 2

    # Empty input must be a clean None, not a crash.
    empty = ray.data.from_arrow(pa.table({"state": pa.array([], pa.large_string())}))
    assert tree_reduce_states(empty, combine) is None


def test_tree_reduce_states_merge_order_is_content_defined(ray_session):
    """The same sketch states in shuffled row orders merge to the same bits:
    the ColumnStats means are float sums, whose last bit depends on their
    order, so a merge in arrival order drifts between runs."""
    import ray.data

    from engine.checks.sketches import ColumnStats
    from engine.stages import tree_reduce_states

    rng = np.random.default_rng(7)
    states = []
    for _ in range(40):
        s = ColumnStats()
        s.update(rng.normal(694.879, 200.0, size=int(rng.integers(1, 60))))
        states.append(json.dumps(s.state()))

    def combine(sts):
        out = ColumnStats()
        for st in sts:
            out.merge(ColumnStats.from_state(st))
        return out.state()

    def merged(order):
        ds = ray.data.from_arrow(pa.table({"state": pa.array(
            [states[i] for i in order], pa.large_string())})).repartition(4)
        return json.dumps(tree_reduce_states(ds, combine))

    orders = [rng.permutation(len(states)) for _ in range(4)]
    # The orders do reorder the float sums: merged as given, they differ.
    assert len({json.dumps(combine([json.loads(states[i]) for i in o]))
                for o in orders}) > 1
    assert len({merged(o) for o in orders}) == 1


def test_fk_orphans_semijoin(ray_session):
    import pyarrow as pa
    import ray.data

    from engine.stages import fk_orphans_semijoin

    dim = ray.data.from_arrow(pa.table({"speaker_id": pa.array(
        [f"spk-{i:04d}" for i in range(500)], pa.string())}))
    fact_keys = [f"spk-{i % 500:04d}" for i in range(5000)] + ["orphan-a", "orphan-b"]
    fact = ray.data.from_arrow(pa.table({"speaker_id": pa.array(fact_keys, pa.string())}))
    orphans = sorted(r["speaker_id"] for r in
                     fk_orphans_semijoin(fact, dim, fact_key="speaker_id",
                                         dim_key="speaker_id").take_all())
    assert orphans == ["orphan-a", "orphan-b"]


def test_fk_orphans_semijoin_sparse_many_blocks(ray_session):
    """Regression for the 32-CPU 'No match for key field' crash: with many
    tiny blocks most suspect batches are EMPTY; the semijoin must survive an
    all-empty-block suspect side (ADVICE.md high, round 1)."""
    import pyarrow as pa
    import ray.data

    from engine.stages import fk_orphans_semijoin

    dim = ray.data.from_arrow(pa.table({"k": pa.array(
        [f"d-{i:03d}" for i in range(200)], pa.string())})).repartition(32)
    # One orphan in 3000 fact rows sliced into 64 blocks -> ~63 empty
    # suspect batches after the Bloom prefilter.
    fact_keys = [f"d-{i % 200:03d}" for i in range(3000)] + ["lonely"]
    fact = ray.data.from_arrow(
        pa.table({"k": pa.array(fact_keys, pa.string())})).repartition(64)
    got = sorted(r["k"] for r in fk_orphans_semijoin(
        fact, dim, fact_key="k", dim_key="k").take_all())
    assert got == ["lonely"]

    # Zero-orphan case: output must be empty, not an error.
    clean = ray.data.from_arrow(pa.table({"k": pa.array(
        [f"d-{i % 200:03d}" for i in range(1000)], pa.string())})).repartition(48)
    assert fk_orphans_semijoin(clean, dim, fact_key="k", dim_key="k").count() == 0


def test_fk_semijoin_payload_and_partition_dispatch(ray_session, monkeypatch):
    """Round-2 VERDICT items 3+4: (a) payload columns ride the shuffle so a
    full orphan report streams without a driver key set, and (b) the
    anti-join is one stages.exchange on the key: one step per part, the
    cluster's CPUs, not per distinct key, and no row reaches the driver."""
    import pyarrow as pa
    import ray
    import ray.data

    import engine.stages
    from engine.stages import fk_orphans_semijoin

    calls = []
    exchange_join = engine.stages.exchange_join

    def spy(left, right, keys, right_keys=None, how="inner"):
        telemetry = {}
        calls.append((keys, how, telemetry))
        return exchange_join(left, right, keys, right_keys, how, telemetry=telemetry)

    monkeypatch.setattr(engine.stages, "exchange_join", spy)

    n = 6000                                   # thousands of DISTINCT keys
    dim = ray.data.from_arrow(pa.table({"ck": pa.array(
        range(0, n, 2), pa.int64())}))         # even keys exist
    fact = ray.data.from_arrow(pa.table({
        "ck": pa.array(range(n), pa.int64()),
        "orderkey": pa.array(range(100, 100 + n), pa.int64()),
    }))
    out = fk_orphans_semijoin(fact, dim, fact_key="ck", dim_key="ck",
                              fact_payload=["orderkey"])
    rows = sorted((r["ck"], r["orderkey"]) for r in out.take_all())
    assert rows == [(k, 100 + k) for k in range(1, n, 2)]  # odd keys orphan
    [(keys, how, telemetry)] = calls
    assert keys == ["ck"] and how == "left anti"
    assert telemetry["parts"] == int(ray.cluster_resources()["CPU"])
    assert telemetry["driver_rows"] == 0


def test_broadcast_map_lookup():
    import numpy as np

    from engine.stages import BroadcastMap

    bm = BroadcastMap(np.array([30, 10, 20], dtype=np.int64),
                      np.array([3, 1, 2], dtype=np.int8))
    vals, found = bm.lookup(np.array([10, 15, 20, 30, 99], dtype=np.int64))
    assert found.tolist() == [True, False, True, True, False]
    assert vals[found].tolist() == [1, 2, 3]

    empty = BroadcastMap(np.array([], dtype=np.int64), np.array([], dtype=np.int8))
    vals, found = empty.lookup(np.array([1, 2], dtype=np.int64))
    assert found.tolist() == [False, False]


def test_fk_semijoin_exact_catches_bloom_collisions(ray_session):
    """Round-2 review finding: Bloom misses are definite orphans, but an
    orphan key COLLIDING in the filter must still be caught — only the exact
    (default) mode guarantees that; the screening mode documents recall
    1 - fp_rate and must still never report a valid key as orphan."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from engine.checks.sketches import BloomFilter
    from engine.stages import fk_orphans_semijoin

    dim_keys = [f"d-{i:05d}" for i in range(2000)]
    # Reconstruct the filter geometry fk_orphans_semijoin(fp_rate=0.02) uses
    # and hunt for an orphan key that false-positives in it.
    bf = BloomFilter(2000, 0.02)
    bf.add(np.asarray(dim_keys, dtype=object))
    colliding = next(
        (f"orphan-{j}" for j in range(200_000)
         if bf.contains(np.asarray([f"orphan-{j}"], dtype=object))[0]), None)
    assert colliding is not None, "no collision found; raise the search range"

    dim = ray.data.from_arrow(pa.table({"k": pa.array(dim_keys, pa.string())}))
    fact = ray.data.from_arrow(pa.table({"k": pa.array(
        dim_keys[:500] + [colliding, "orphan-plain"], pa.string())}))

    exact = sorted(r["k"] for r in fk_orphans_semijoin(
        fact, dim, fact_key="k", dim_key="k", fp_rate=0.02).take_all())
    assert exact == sorted([colliding, "orphan-plain"])

    screened = sorted(r["k"] for r in fk_orphans_semijoin(
        fact, dim, fact_key="k", dim_key="k", fp_rate=0.02,
        exact=False).take_all())
    # precision 1 (never flags a valid key); the colliding orphan is missed
    assert "orphan-plain" in screened
    assert colliding not in screened
    assert not set(screened) & set(dim_keys)


def test_asof_join_backward(ray_session):
    """Backward as-of join edge cases: inclusive equal-ts match, latest-of-
    several, unmatched left (NULL right), many blocks, co-partitioned keys."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from engine.stages import asof_join

    left = ray.data.from_arrow(pa.table({
        "uid": pa.array([1, 1, 2, 3], pa.int64()),
        "t": pa.array([100, 50, 10, 500], pa.int64()),
        "lid": pa.array([10, 11, 12, 13], pa.int64()),
    })).repartition(3)
    right = ray.data.from_arrow(pa.table({
        "uid": pa.array([1, 1, 1, 2], pa.int64()),
        "t": pa.array([40, 100, 90, 20], pa.int64()),
        "rid": pa.array([70, 71, 72, 73], pa.int64()),
    })).repartition(2)

    out = {r["lid"]: r for r in asof_join(
        left, right, by="uid", on="t",
        left_cols=["lid", "uid", "t"], right_cols=["rid", "t"],
        direction="backward").take_all()}
    assert out[10]["rid"] == 71          # equal t=100 matches inclusively
    assert out[11]["rid"] == 70          # latest of rights <= 50 is t=40
    assert out[12]["rid"] is None        # right t=20 > left t=10: no match
    assert out[13]["rid"] is None        # uid 3 has no right rows at all
    assert out[10]["t_r"] == 100 and out[11]["t_r"] == 40


def test_co_partitioned_joins_null_keys_and_empty_sides(ray_session):
    """A NULL key in a block must not move that block's other keys to other
    parts than the same keys from a NULL-free block: every non-NULL left
    row of asof_join and interval_count_join meets its right row, and the
    NULL row meets none.  fk_orphans_semijoin returns exactly SQL's
    ``LEFT JOIN ... WHERE dim.key IS NULL`` rows, the NULL key's included.
    An empty left or right side gives typed columns."""
    import duckdb
    import pyarrow as pa
    import ray.data

    from engine.stages import asof_join, fk_orphans_semijoin, interval_count_join

    n = 200
    left_t = pa.table({                       # one block, NULL key included
        "uid": pa.array(list(range(n)) + [None], pa.int64()),
        "t": pa.array([10] * (n + 1), pa.int64()),
        "lid": pa.array(range(n + 1), pa.int64())})
    right_t = pa.table({
        "uid": pa.array(range(n), pa.int64()),
        "t": pa.array([5] * n, pa.int64()),
        "rid": pa.array(range(n), pa.int64())})

    def joins(left, right):
        return (asof_join(left, right, by="uid", on="t", left_cols=["lid"],
                          right_cols=["rid"]),
                interval_count_join(left, right, by="uid", on="t",
                                    lo_offset=-10, hi_offset=10,
                                    left_cols=["lid"]))

    asof, counts = joins(ray.data.from_arrow(left_t), ray.data.from_arrow(right_t))
    assert {r["lid"]: r["rid"] for r in asof.take_all()} == \
        {**{i: i for i in range(n)}, n: None}
    assert {r["lid"]: r["n_in_range"] for r in counts.take_all()} == \
        {**{i: 1 for i in range(n)}, n: 0}

    fact_t = pa.table({"k": pa.array(list(range(n)) + [None], pa.int64()),
                       "oid": pa.array(range(n + 1), pa.int64())})
    dim_t = pa.table({"k": pa.array(range(0, n, 2), pa.int64())})
    got = sorted(((r["k"], r["oid"]) for r in fk_orphans_semijoin(
        ray.data.from_arrow(fact_t), ray.data.from_arrow(dim_t),
        fact_key="k", dim_key="k", fact_payload=["oid"]).take_all()),
        key=lambda r: r[1])
    want = duckdb.sql("SELECT f.k, f.oid FROM fact_t f LEFT JOIN dim_t d "
                      "ON f.k = d.k WHERE d.k IS NULL ORDER BY f.oid").fetchall()
    assert got == want and (None, n) in got

    for left, right in ((left_t.slice(0, 0), right_t), (left_t, right_t.slice(0, 0))):
        asof, counts = joins(ray.data.from_arrow(left), ray.data.from_arrow(right))
        assert [r["rid"] for r in asof.take_all()] == [None] * left.num_rows
        assert asof.schema().types == [pa.int64(), pa.int64()]
        assert [r["n_in_range"] for r in counts.take_all()] == [0] * left.num_rows
        assert counts.schema().names == ["lid", "n_in_range"]
    for fact, dim in ((fact_t.slice(0, 0), dim_t), (fact_t, dim_t.slice(0, 0))):
        out = fk_orphans_semijoin(ray.data.from_arrow(fact), ray.data.from_arrow(dim),
                                  fact_key="k", dim_key="k", fact_payload=["oid"])
        assert out.count() == fact.num_rows
        assert out.schema().types == [pa.int64(), pa.int64()]


def test_with_row_number_matches_lexsort(ray_session):
    """Global row numbers over a non-key float order + tiebreaker must equal
    the numpy lexsort rank across many blocks; duplicated composites raise
    loudly; empty input stays typed."""
    import numpy as np
    import pyarrow as pa
    import pytest
    import ray.data

    from engine.stages import with_row_number

    rng = np.random.default_rng(13)
    vals = rng.choice(np.linspace(0.5, 200.5, 80), size=500)  # heavy ties
    ids = rng.permutation(500)
    ds = ray.data.from_arrow(pa.table({
        "v": pa.array(vals, pa.float64()),
        "id": pa.array(ids, pa.int64())})).repartition(9)
    out = with_row_number(ds, ["v", "id"], out_col="rn").take_all()
    order = np.lexsort((ids, vals))
    want = {int(ids[j]): int(pos + 1) for pos, j in enumerate(order)}
    assert {r["id"]: r["rn"] for r in out} == want

    # Duplicated composites: if the sort splits the tie run across blocks
    # the guard must raise; if Ray coalesces it into one block the
    # numbering is still a valid permutation (within-tie order arbitrary).
    dup = ray.data.from_arrow(pa.table({
        "v": pa.array([1.0] * 40, pa.float64())})).repartition(4)
    try:
        rows = with_row_number(dup, ["v"]).take_all()
    except ValueError as exc:
        assert "total order" in str(exc)
    else:
        assert sorted(r["row_number"] for r in rows) == list(range(1, 41))

    empty = ray.data.from_arrow(pa.table({"v": pa.array([], pa.float64())}))
    assert with_row_number(empty, ["v"]).count() == 0

    # A string first key, and one first-key value for every row (the whole
    # input lands in one range part): both still number like the lexsort.
    names = np.array([f"k{i:02d}" for i in rng.integers(0, 60, 500)])
    for first in (names, np.full(500, 7.5)):
        ds = ray.data.from_arrow(pa.table({"v": pa.array(first),
                                           "id": pa.array(ids, pa.int64())})).repartition(7)
        out = with_row_number(ds, ["v", "id"], out_col="rn").take_all()
        order = np.lexsort((ids, first))
        want = {int(ids[j]): int(pos + 1) for pos, j in enumerate(order)}
        assert {r["id"]: r["rn"] for r in out} == want


def test_with_row_number_rejects_null_and_nan_keys(ray_session):
    """NULL (and NaN) sort-key values have no total order the driver-side
    offset sort can reproduce — the operator must raise loudly, naming the
    column, instead of crashing on None-vs-str compares or mis-numbering."""
    import pyarrow as pa
    import pytest
    import ray.data

    from engine.stages import with_row_number

    ds = ray.data.from_arrow(pa.table({
        "k": pa.array(["b", None, "a", "c"], pa.string()),
        "id": pa.array([1, 2, 3, 4], pa.int64())})).repartition(2)
    with pytest.raises(ValueError, match="'k'.*NULL/NaN"):
        with_row_number(ds, ["k", "id"])

    nan_ds = ray.data.from_arrow(pa.table({
        "v": pa.array([1.0, float("nan"), 2.0], pa.float64()),
        "id": pa.array([1, 2, 3], pa.int64())})).repartition(2)
    with pytest.raises(ValueError, match="'v'.*NULL/NaN"):
        with_row_number(nan_ds, ["v", "id"])


def test_ntile_exact_sizes_small_n(ray_session, tmp_path):
    """NTILE tile sizes on n % k != 0: first n%k tiles get the extra row
    (SQL rule), including the n < k edge."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from engine.queries import orders_value_quartile

    for n in (3, 5, 6, 11):
        pq.write_table(pa.table({
            "o_orderkey": pa.array(range(n), pa.int64()),
            "o_totalprice": pa.array([float(100 + i) for i in range(n)]),
        }), tmp_path / "orders.parquet")
        got = {r["o_orderkey"]: r["quartile"]
               for r in orders_value_quartile(str(tmp_path)).take_all()}
        con = duckdb.connect()
        want = dict(con.sql(
            "SELECT o_orderkey, NTILE(4) OVER (ORDER BY o_totalprice, "
            f"o_orderkey) FROM read_parquet('{tmp_path}/orders.parquet') "
            "ORDER BY o_orderkey").fetchall())
        assert got == want, n


def test_interval_count_join_matches_bruteforce(ray_session):
    """Randomized range-count join vs an O(n*m) brute force: inclusive
    bounds at BOTH ends, asymmetric offsets, keys with zero right rows,
    duplicate timestamps, many blocks."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from engine.stages import interval_count_join

    rng = np.random.default_rng(11)
    lk = rng.integers(0, 9, 150)          # key 8 has no right rows
    lt = rng.integers(0, 300, 150)
    rk = rng.integers(0, 8, 400)
    rt = rng.integers(0, 300, 400)
    lo, hi = -7, 12

    lds = ray.data.from_arrow(pa.table({
        "uid": pa.array(lk, pa.int64()), "t": pa.array(lt, pa.int64()),
        "lid": pa.array(np.arange(150), pa.int64())})).repartition(4)
    rds = ray.data.from_arrow(pa.table({
        "uid": pa.array(rk, pa.int64()), "t": pa.array(rt, pa.int64()),
        "rid": pa.array(np.arange(400), pa.int64())})).repartition(3)

    got = {r["lid"]: r["n_in_range"] for r in interval_count_join(
        lds, rds, by="uid", on="t", lo_offset=lo, hi_offset=hi,
        left_cols=["lid"]).take_all()}
    want = {int(i): int(((rk == lk[i]) & (rt >= lt[i] + lo)
                         & (rt <= lt[i] + hi)).sum())
            for i in range(150)}
    assert got == want


def test_asof_join_directions_match_pandas(ray_session):
    """forward/nearest/backward against pandas merge_asof on a randomized
    corpus (200 left x 300 right rows, 8 keys, duplicate timestamps,
    keyless rows) across many blocks — the same property pandas defines:
    nearest ties resolve backward (earlier right row)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from engine.stages import asof_join

    rng = np.random.default_rng(7)
    left = pd.DataFrame({
        "uid": rng.integers(0, 8, 200),
        "t": rng.integers(0, 400, 200),
        "lid": np.arange(200),
    })
    right = pd.DataFrame({
        "uid": rng.integers(0, 6, 300),   # uids 6,7 unmatched on purpose
        "t": rng.integers(0, 400, 300),
        "rid": np.arange(300),
    })
    # merge_asof is ambiguous when several right rows share (uid, t): keep
    # one per (uid, t) so the expected match is well-defined on both sides.
    right = right.drop_duplicates(["uid", "t"]).reset_index(drop=True)

    lds = ray.data.from_arrow(pa.Table.from_pandas(left)).repartition(5)
    rds = ray.data.from_arrow(pa.Table.from_pandas(right)).repartition(3)

    for direction in ("backward", "forward", "nearest"):
        got = {r["lid"]: r["rid"] for r in asof_join(
            lds, rds, by="uid", on="t", left_cols=["lid", "uid", "t"],
            right_cols=["rid"], direction=direction).take_all()}
        want_df = pd.merge_asof(
            left.sort_values("t", kind="stable"),
            right.sort_values("t", kind="stable"),
            on="t", by="uid", direction=direction)
        want = {int(r.lid): (None if pd.isna(r.rid) else int(r.rid))
                for r in want_df.itertuples()}
        assert got == want, direction
