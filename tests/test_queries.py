"""Driver-contract queries vs DuckDB oracles at sf0.001 (fast subset)."""

import numpy as np
import pyarrow as pa
import pytest

SF_DIR = "/root/testdata/sf0.001"

FAST_ORACLED = [
    "q1_pricing_summary",
    "stats_lineitem_quantity",
    "grouped_stats_orderpriority",
    "dedup_exact_documents",
    "distinct_users_events",
    "orphan_orders",
    "orders_per_segment",
    "orders_price_bands",
    "top10_orders",
    "repair_extract_events",
    "stream_stable_events",
    "repair_typed_extract_events",
    "token_stats_documents",
    "events_daily_by_type",
    "knn_cosine_top10",
    "sessionize_events",
    "revenue_by_segment_day",
    "sample_documents",
    "lang_quality_documents",
    "drift_divergences_split",
    "user_range_window_events",
    "repetition_stats_documents",
    "decontaminate_documents",
    "decontaminate_documents_bloom",
    "vocab_coverage_documents",
    "per_group_sample_documents",
    "user_order_activity",
    "profile_events",
    "lineitem_constraint_violations",
    "lineitem_constraint_summary",
    "term_frequency_spectrum",
    "token_diversity_documents",
    "clips_speech_rate",
    "orc_events_daily",
    "boilerplate_ngrams",
    "ipc_events_daily",
    "documents_diff",
    "profile_lineitem",
    "events_checks_report",
    "events_key_skew",
    "event_type_transitions",
    "user_transition_diversity",
    "source_quality_report",
    "quantity_histogram",
    "duplicate_clusters_distributed",
    # rotated out of the driver oracle cap — keep per-commit coverage here:
    "user_running_value",
    "purchase_attribution_forward",
    "lineitem_quantity_ranks",
    "g711_audio_features",
    "dedup_near_documents",
    "drift_events_split",
    # the rest of the per-key window family (stages.window_by_key):
    "cap_events_per_user",
    "user_first_last_event",
    "large_gap_events",
    "user_event_rank_stats",
    "top_events_per_user",
    "doc_edit_distance_adjacent",
    # the users of stages.asof_join / interval_count_join and the top-k of
    # ops.text.top_terms_per_doc:
    "purchase_attribution",
    "purchase_attribution_nearest",
    "clicks_near_purchase",
    "top_terms_per_document",
    # the two users of stages.with_row_number:
    "orders_row_number",
    "orders_value_quartile",
    # the synthetic-corpus codec queries: they never read SF_DIR, so this
    # run is their full gate at every scale
    "audio_features",
    "adpcm_audio_features",
    "flac_audio_features",
    "flac_stereo_features",
    "audio_trim_report",
    "audio_resample_report",
    "audio_spectrogram_report",
    "audio_chunks",
    "image_dims",
    "image_resize",
    "image_metadata",
    "gif_image_metadata",
    "png_image_metadata",
    "jpeg_image_metadata",
    "video_dims",
    "video_frame_sample",
]


@pytest.fixture(scope="module")
def oracle_con():
    import duckdb

    con = duckdb.connect()
    for t in ("region nation customer supplier part orders lineitem events "
              "documents embeddings").split():
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')")
    return con


def _float_null_nan_counts(result) -> dict[str, tuple[int, int]]:
    """(NULL count, NaN count) of every float column of a query result."""
    import pyarrow.compute as pc

    batches = [result] if isinstance(result, pa.Table) else \
        result.iter_batches(batch_format="pyarrow")
    counts: dict[str, tuple[int, int]] = {}
    for batch in batches:
        for name, col in zip(batch.column_names, batch.columns):
            if pa.types.is_floating(col.type):
                nulls, nans = counts.get(name, (0, 0))
                counts[name] = (nulls + col.null_count,
                                nans + (pc.sum(pc.is_nan(col)).as_py() or 0))
    return counts


def _assert_matches_oracle(name, sf_dir, con):
    """Hash match, and SQL NULLs stay NULL: the stringified hash cannot
    tell a NaN from a NULL, so float columns must also carry exactly the
    oracle's NULL count and no NaN."""
    import __ray_entry__ as entrymod
    from tools.check_oracles import canonical_hash, to_pandas

    result = entrymod.queries()[name](sf_dir)
    if hasattr(result, "materialize"):
        result = result.materialize()
    mine = to_pandas(result)
    sql = entrymod.oracle_sql()[name]
    want = con.sql(sql).df()
    assert len(mine) == len(want)
    assert sorted(mine.columns) == sorted(want.columns)
    assert canonical_hash(mine) == canonical_hash(want)
    floats = _float_null_nan_counts(result)
    if floats:
        want_nulls = con.sql(sql).arrow()
        for col, (nulls, nans) in floats.items():
            assert (col, nulls) == (col, want_nulls.column(col).null_count)
            assert (col, nans) == (col, 0)


@pytest.mark.parametrize("name", FAST_ORACLED)
def test_query_matches_oracle(name, ray_session, oracle_con):
    _assert_matches_oracle(name, SF_DIR, oracle_con)


# The query_mix benchmark's queries plus four multi-pass ones (a window_by_key
# exchange, a range exchange, an interval-count join and a per-document top-k).
MULTI_ROW_GROUP_QUERIES = [
    "q1_pricing_summary", "grouped_stats_orderpriority", "events_daily_by_type",
    "dedup_exact_documents", "orders_row_number", "revenue_by_segment_day",
    "repair_extract_events", "profile_events", "sessionize_events",
    "orders_value_quartile", "clicks_near_purchase", "top_terms_per_document",
]


@pytest.fixture(scope="module")
def multi_row_group_dir(tmp_path_factory):
    """The sf0.001 tables with lineitem, orders, customer, events and
    documents rewritten as 4 row groups each, the last one short; the other
    tables are links to the originals."""
    import pathlib

    import duckdb
    import pyarrow.parquet as pq

    d = tmp_path_factory.mktemp("multi_row_group")
    con = duckdb.connect()
    for src in pathlib.Path(SF_DIR).glob("*.parquet"):
        if src.stem in ("lineitem", "orders", "customer", "events", "documents"):
            t = pq.read_table(src)
            pq.write_table(t, d / src.name, row_group_size=t.num_rows * 2 // 7)
            assert pq.ParquetFile(d / src.name).metadata.num_row_groups == 4, src.stem
        else:
            (d / src.name).symlink_to(src)
        con.sql(f"CREATE VIEW {src.stem} AS SELECT * FROM read_parquet('{d / src.name}')")
    return d, con


@pytest.mark.parametrize("name", MULTI_ROW_GROUP_QUERIES)
def test_query_matches_oracle_on_multi_row_group_tables(name, ray_session,
                                                        multi_row_group_dir):
    """Every table of several row groups reads as several blocks, so the
    multi-block paths run: the exchange bundles, the group_aggregate merges
    and the tree-reduce rounds."""
    d, con = multi_row_group_dir
    _assert_matches_oracle(name, str(d), con)


# The near-dup family has no DuckDB oracle (LSH recall < 1 by design): its
# sf0.001 rows are pinned by row count, columns and canonical_hash.
NEAR_DUP_PINS = {
    "minhash_near_dup": (28, ["a", "b", "max(est_jaccard)"],
                         "6af290b4137aa29e62efb574db409259d0275e07176be1b76659d40e8e9416f7"),
    "simhash_near_dup": (22, ["a", "b", "min(hamming)"],
                         "34196493aa922b378a6b2878a5d3a48921caaf7dbe302af04cf1df96f785d22c"),
    "jaccard_near_dup": (28, ["a", "b", "jaccard"],
                         "ee413cd682a794a5062c321593cf89a43890576a6c8ceec7dd9d08d7fea31cd9"),
    "near_dup_clusters": (256, ["doc_id", "cluster_id"],
                          "ca0335a13af08de999145fb232f444e4faff40b449d9283860b613b96f66f200"),
}


@pytest.mark.parametrize("name", sorted(NEAR_DUP_PINS))
def test_near_dup_query_keeps_its_pinned_rows(name, ray_session):
    import __ray_entry__ as entrymod
    from tools.check_oracles import canonical_hash, to_pandas

    mine = to_pandas(entrymod.queries()[name](SF_DIR))
    assert (len(mine), list(mine.columns), canonical_hash(mine)) == NEAR_DUP_PINS[name]


def test_driver_cap_curation():
    """The driver's correctness gate samples the FIRST 50 keys of queries()
    in dict order (r04 lesson): both dicts follow the catalog's row order,
    so they lead with the same 50 names, and every one carries SQL."""
    import __ray_entry__ as entrymod

    rows = entrymod._catalog()
    qkeys = list(entrymod.queries())
    okeys = list(entrymod.oracle_sql())
    assert qkeys == [name for name, _, _ in rows]
    assert okeys == [name for name, _, sql in rows if sql is not None]
    assert qkeys[:50] == okeys[:50]
    assert all(sql is not None for _, _, sql in rows[:50])


def test_catalog_names_unique(monkeypatch):
    """A dict built from the catalog would drop a repeated name silently,
    so queries() and oracle_sql() refuse one."""
    import __ray_entry__ as entrymod

    rows = entrymod._catalog()
    names = [name for name, _, _ in rows]
    assert len(names) == len(set(names))
    monkeypatch.setattr(entrymod, "_catalog", lambda: rows + rows[:1])
    for view in (entrymod.queries, entrymod.oracle_sql):
        with pytest.raises(ValueError, match=rows[0][0]):
            view()


def test_name_lists_exist_in_catalog():
    """Every hand-kept list of query names names a real query (the oracled
    lists a SQL-oracled one)."""
    import __ray_entry__ as entrymod
    from bench import QUERY_BENCH_NAMES
    from perfbench.workloads import QUERY_MIX
    from tests.test_empty_input import EMPTY_SAFE

    qs, oracled = set(entrymod.queries()), set(entrymod.oracle_sql())
    for names, known in ((FAST_ORACLED, oracled), (NULL_KEY_QUERIES, oracled),
                         (EMPTY_SAFE, oracled), (QUERY_MIX, oracled),
                         (QUERY_BENCH_NAMES, qs)):
        assert set(names) <= known, sorted(set(names) - known)


def test_entry_smoke(ray_session):
    import __ray_entry__ as entrymod

    ds = entrymod.entry()
    n = ds.count()
    assert n == 1000
    assert "parse_ok" in ds.schema().names


def test_hll_close_to_exact(ray_session, oracle_con):
    import __ray_entry__ as entrymod

    approx = entrymod.queries()["hll_distinct_users"](SF_DIR).to_pandas()["n_users_approx"][0]
    exact = oracle_con.sql("SELECT COUNT(DISTINCT user_id) FROM events").fetchone()[0]
    assert abs(approx - exact) / exact < 0.05


def test_tdigest_close_to_exact(ray_session, oracle_con):
    import __ray_entry__ as entrymod

    got = entrymod.queries()["tdigest_quantity"](SF_DIR).to_pandas()
    true_p50 = oracle_con.sql("SELECT quantile_cont(l_quantity, 0.5) FROM lineitem").fetchone()[0]
    assert abs(got["p50"][0] - true_p50) <= 1.0


DIM_JOIN_USERS = ["orders_per_segment", "revenue_by_segment_day", "revenue_by_brand"]


@pytest.mark.parametrize("name", DIM_JOIN_USERS)
def test_dim_join_gate_paths_agree(name, ray_session, monkeypatch):
    """The join planner's two strategies must give the same result: a gate
    of 0 rows forces every join of the query onto the shuffle join."""
    from engine import queries as q
    from tools.check_oracles import canonical_hash, to_pandas

    fn = getattr(q, name)
    broadcast = to_pandas(fn(SF_DIR))
    monkeypatch.setattr(q, "DIM_BROADCAST_MAX_ROWS", 0)
    shuffled = to_pandas(fn(SF_DIR))
    assert len(broadcast) == len(shuffled) > 0
    assert canonical_hash(broadcast) == canonical_hash(shuffled)


def _write_dim_tables(d, customer: dict, orders: dict, lineitem: dict, part: dict):
    """Small TPC-H-shaped tables for the dimension-join queries, plus a
    DuckDB connection over them."""
    import duckdb
    import pyarrow.parquet as pq

    types = {"c_custkey": pa.int64(), "c_mktsegment": pa.string(),
             "o_orderkey": pa.int64(), "o_custkey": pa.int64(),
             "o_orderdate": pa.timestamp("us"),
             "l_orderkey": pa.int64(), "l_partkey": pa.int64(),
             "l_extendedprice": pa.float64(), "l_discount": pa.float64(),
             "p_partkey": pa.int64(), "p_brand": pa.string()}
    con = duckdb.connect()
    for t, cols in (("customer", customer), ("orders", orders),
                    ("lineitem", lineitem), ("part", part)):
        pq.write_table(pa.table({c: pa.array(v, types[c]) for c, v in cols.items()}),
                       str(d / f"{t}.parquet"))
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{d}/{t}.parquet')")
    return con


def _dates(*days):
    import datetime as dt

    return [None if x is None else dt.datetime(1995, 1, 1) + dt.timedelta(days=x)
            for x in days]


def _assert_dim_query_matches_oracle(name, d, con):
    import __ray_entry__ as entrymod
    from tools.check_oracles import canonical_hash, to_pandas

    mine = to_pandas(entrymod.queries()[name](str(d)))
    want = con.sql(entrymod.oracle_sql()[name]).df()
    assert sorted(mine.columns) == sorted(want.columns)
    assert len(mine) == len(want)
    assert canonical_hash(mine) == canonical_hash(want), (mine, want)


@pytest.mark.parametrize("gate", ["default", "zero"])
@pytest.mark.parametrize("name", DIM_JOIN_USERS)
def test_dim_join_duplicate_keys_fan_out_like_sql(name, gate, ray_session,
                                                  monkeypatch, tmp_path):
    """A build key that repeats joins a probe row with every build row, as
    in SQL: customer 2 is in segments C and D, order 12 appears twice, part
    101 has brands Y and Z.  A broadcast map would keep one of each."""
    from engine import queries as q

    con = _write_dim_tables(
        tmp_path,
        customer={"c_custkey": [1, 2, 2], "c_mktsegment": ["A", "C", "D"]},
        orders={"o_orderkey": [10, 11, 12, 12], "o_custkey": [1, 2, 1, 2],
                "o_orderdate": _dates(0, 40, 80, 120)},
        lineitem={"l_orderkey": [10, 11, 12, 12], "l_partkey": [100, 101, 101, 100],
                  "l_extendedprice": [10.0, 20.5, 30.25, 40.0],
                  "l_discount": [0.0, 0.1, 0.05, 0.0]},
        part={"p_partkey": [100, 101, 101], "p_brand": ["X", "Y", "Z"]})
    if gate == "zero":
        monkeypatch.setattr(q, "DIM_BROADCAST_MAX_ROWS", 0)
    _assert_dim_query_matches_oracle(name, tmp_path, con)


@pytest.mark.parametrize("gate", ["default", "zero"])
@pytest.mark.parametrize("name", DIM_JOIN_USERS)
def test_dim_join_nulls_follow_sql(name, gate, ray_session, monkeypatch, tmp_path):
    """NULL join keys match nothing on either strategy, not even key 0; a
    NULL segment, brand or order date groups as NULL."""
    from engine import queries as q

    con = _write_dim_tables(
        tmp_path,
        customer={"c_custkey": [0, 1, 2, 3, None],
                  "c_mktsegment": ["Z", "A", None, "B", "E"]},
        orders={"o_orderkey": [0, 10, 11, 12, 13, None],
                "o_custkey": [0, 1, 2, None, 3, 1],
                "o_orderdate": _dates(200, 0, 40, 80, None, 0)},
        lineitem={"l_orderkey": [10, 11, 12, 13, None, 10, 13, 0],
                  "l_partkey": [100, None, 101, 102, 100, 103, 101, 0],
                  "l_extendedprice": [10.0, 20.5, 30.25, 40.0, 50.0, 60.0, 70.0, 5.0],
                  "l_discount": [0.0, 0.1, 0.05, 0.0, 0.0, 0.02, 0.0, 0.0]},
        part={"p_partkey": [0, 100, 101, 102, None],
              "p_brand": ["V", "X", None, "Y", "W"]})
    if gate == "zero":
        monkeypatch.setattr(q, "DIM_BROADCAST_MAX_ROWS", 0)
    _assert_dim_query_matches_oracle(name, tmp_path, con)


def test_group_aggregate_rounds_keep_null_groups(ray_session, monkeypatch):
    """133 blocks force a worker round, so the driver's last combine takes
    at most GROUP_FAN_IN blocks.  Sums, minima and maxima equal one Arrow
    group_by over all the rows; NULL and the empty string stay two groups,
    and NULLs sort last."""
    import ray.data

    from engine import stages

    rng = np.random.default_rng(3)
    segs = np.array(["A", "B", None, ""], dtype=object)
    months = np.array(["1995-01", None, "1996-12"], dtype=object)

    def block(n: int = 30) -> pa.Table:
        v = pa.array(rng.integers(-1000, 1000, n), pa.int64())
        return pa.table({"seg": pa.array(segs[rng.integers(0, 4, n)], pa.string()),
                         "month": pa.array(months[rng.integers(0, 3, n)], pa.string()),
                         "n": v, "lo": v, "hi": v})

    blocks = [block() for _ in range(133)]
    blocks.append(blocks[0].slice(0, 0))
    aggs = {"n": "sum", "lo": "min", "hi": "max"}
    schema = pa.schema([("seg", pa.string()), ("month", pa.string()),
                        *((c, pa.int64()) for c in aggs)])

    driver_blocks, round_tasks = [], []
    combine, task = stages._group_blocks, stages._group_task

    class CountingTask:
        def remote(self, *args):
            round_tasks.append(len(args) - 3)
            return task.remote(*args)

    def driver_combine(keys, aggs, schema, *blocks):
        driver_blocks.append(len(blocks))
        return combine(keys, aggs, schema, *blocks)

    monkeypatch.setattr(stages, "_group_blocks", driver_combine)
    monkeypatch.setattr(stages, "_group_task", CountingTask())
    out = stages.group_aggregate(ray.data.from_arrow(blocks), ["seg", "month"], aggs, schema)

    g = pa.concat_tables(blocks).group_by(["seg", "month"]).aggregate(list(aggs.items()))
    want = pa.table({"seg": g.column("seg"), "month": g.column("month"),
                     **{c: g.column(f"{c}_{op}") for c, op in aggs.items()}}) \
        .sort_by([("seg", "ascending"), ("month", "ascending")])
    assert round_tasks and max(round_tasks) <= stages.GROUP_FAN_IN
    assert len(driver_blocks) == 1 and driver_blocks[0] <= stages.GROUP_FAN_IN
    assert out.schema == schema
    assert out.to_pylist() == want.to_pylist()
    assert want.num_rows == 12


def test_dim_join_logs_its_strategy(ray_session, monkeypatch, caplog, tmp_path):
    """One INFO record per join on ``engine.joins``: the strategy, the
    build-side rows and the reason."""
    import logging

    from engine import queries as q

    caplog.set_level(logging.INFO, logger="engine.joins")

    def planned(sf_dir):
        caplog.clear()
        q.orders_per_segment(sf_dir)
        return [r.getMessage() for r in caplog.records if r.name == "engine.joins"]

    assert planned(SF_DIR) == [
        "orders_per_segment: broadcast join, build side 150 rows (under gate)"]
    _write_dim_tables(
        tmp_path,
        customer={"c_custkey": [1, 2, 2], "c_mktsegment": ["A", "C", "D"]},
        orders={"o_orderkey": [10], "o_custkey": [2], "o_orderdate": _dates(0)},
        lineitem={"l_orderkey": [10], "l_partkey": [100],
                  "l_extendedprice": [1.0], "l_discount": [0.0]},
        part={"p_partkey": [100], "p_brand": ["X"]})
    assert planned(str(tmp_path)) == [
        "orders_per_segment: shuffle join, build side 3 rows (duplicate keys)"]
    monkeypatch.setattr(q, "DIM_BROADCAST_MAX_ROWS", 0)
    assert planned(SF_DIR) == [
        "orders_per_segment: shuffle join, build side 150 rows (over gate)"]


NULL_KEY_QUERIES = ["events_daily_by_type", "events_dow_pivot",
                    "events_hopping_window", "supplier_stats_by_region"]


@pytest.mark.parametrize("name", NULL_KEY_QUERIES)
def test_null_group_keys_follow_sql(name, ray_session, tmp_path):
    """A NULL event_type groups as NULL, as in DuckDB.  A supplier whose
    nation or region is missing, or whose nation key is NULL, joins
    nothing; a region with a NULL name groups as NULL."""
    import datetime as dt

    import duckdb
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from tools.check_oracles import canonical_hash, to_pandas

    hour = dt.timedelta(hours=1)
    t0 = dt.datetime(2024, 1, 1, 5)
    tables = {
        "events": {"event_type": pa.array(["click", None, "view", None, "click", None, "view"]),
                   "ts": pa.array([t0, t0, t0 + 4 * hour, t0 + 30 * hour, t0 + 50 * hour,
                                   t0 + 50 * hour, t0 + 100 * hour], pa.timestamp("us")),
                   "value": pa.array([1.25, 2.5, 3.0, 4.75, 5.5, 6.0, 7.125])},
        "supplier": {"s_nationkey": pa.array([0, 1, 2, 3, None, 7, 1, 0], pa.int32()),
                     "s_acctbal": pa.array([10.5, 20.25, 30.0, 40.0, 50.0, 60.0, 70.0, -5.5])},
        "nation": {"n_nationkey": pa.array([0, 1, 2, 3], pa.int32()),
                   "n_regionkey": pa.array([0, 1, 9, 0], pa.int32())},
        "region": {"r_regionkey": pa.array([0, 1], pa.int32()),
                   "r_name": pa.array(["AFRICA", None], pa.string())},
    }
    con = duckdb.connect()
    for t, cols in tables.items():
        pq.write_table(pa.table(cols), str(tmp_path / f"{t}.parquet"))
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{tmp_path}/{t}.parquet')")

    mine = to_pandas(entrymod.queries()[name](str(tmp_path)))
    want = con.sql(entrymod.oracle_sql()[name]).df()
    key = "region" if name == "supplier_stats_by_region" else "event_type"
    assert want[key].isna().any()
    assert sorted(mine.columns) == sorted(want.columns)
    assert len(mine) == len(want)
    assert canonical_hash(mine) == canonical_hash(want), (mine, want)


def test_dedup_exact_keeps_null_text_apart(ray_session, tmp_path):
    """SQL's GROUP BY text puts the NULL texts in one group of their own:
    the empty string hashes like NULL, so the exchange key carries the NULL
    flag too."""
    import duckdb
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod

    pq.write_table(pa.table({"doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
                             "text": pa.array(["", None, "a", None, "a"], pa.string())}),
                   str(tmp_path / "documents.parquet"))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{tmp_path}/documents.parquet')")
    want = con.sql(entrymod.oracle_sql()["dedup_exact_documents"]).df()["doc_id"].tolist()
    got = entrymod.queries()["dedup_exact_documents"](str(tmp_path)).to_pandas()
    assert want == [1, 2, 3]
    assert got["doc_id"].tolist() == want


@pytest.mark.parametrize("name,key", [("user_first_last_event", "user_id"),
                                      ("top_events_per_user", "user_id"),
                                      ("event_type_transitions", "user_id"),
                                      ("doc_edit_distance_adjacent", "lang")])
def test_null_window_key_raises(name, key, ray_session, tmp_path):
    """SQL puts NULL keys in one PARTITION BY partition; the per-key windows
    refuse them with a ValueError naming the column and the count instead
    of diverging silently (one NULL-user row each, or every NULL-user row
    ranked 1)."""
    import datetime as dt

    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod

    t0 = dt.datetime(2024, 1, 1)
    pq.write_table(pa.table({
        "user_id": pa.array([1, None, 2, None, 1, None, 2], pa.int64()),
        "event_id": pa.array(range(7), pa.int64()),
        "ts": pa.array([t0 + dt.timedelta(hours=h) for h in range(7)], pa.timestamp("us")),
        "event_type": pa.array(["click", "view", "click", "view", "view", "click", "view"]),
        "value": pa.array([1.5, 2.0, 3.25, 4.0, 5.0, 6.5, 7.0])}),
        str(tmp_path / "events.parquet"))
    pq.write_table(pa.table({
        "doc_id": pa.array(range(7), pa.int64()),
        "text": pa.array(["a b", "a c", "b c", "c d", "d e", "e f", "f g"]),
        "lang": pa.array(["en", None, "en", None, "de", None, "de"])}),
        str(tmp_path / "documents.parquet"))
    with pytest.raises(ValueError, match=rf"key column '{key}' has \d NULL values"):
        entrymod.queries()[name](str(tmp_path))


@pytest.mark.parametrize("n,n_keys,order", [
    (1, 1, ["a", ("b", "descending")]),
    (60, 1, ["a", ("b", "descending")]),
    (300, 7, ["a", ("b", "descending")]),
    (500, 90, [("a", "descending"), "b"]),
    (400, 5, ["a"]),                       # ties: the sort must be stable
])
@pytest.mark.parametrize("key", ["k", "s"])
def test_key_runs_matches_lexsort(n, n_keys, order, key):
    """window_by_key's per-part step on a multi-chunk table: the row order
    and the key-run starts equal an np.lexsort reference."""
    from engine.stages import key_runs

    rng = np.random.default_rng(n + n_keys)
    k = rng.integers(0, n_keys, n)
    a = rng.integers(0, 4, n)
    b = rng.random(n)
    t = pa.table({"k": k, "s": pa.array([f"u{v:03d}" for v in k]), "a": a, "b": b,
                  "row": np.arange(n)})
    cuts = sorted(set(rng.integers(0, n + 1, 3).tolist()) | {0, n})
    multi = pa.concat_tables([t.slice(lo, hi - lo) for lo, hi in zip(cuts, cuts[1:])])
    cols = {"a": a, "b": b}
    ref = [cols[o] if isinstance(o, str) else -cols[o[0]] for o in order]
    want = np.lexsort((*ref[::-1], k))
    part, starts = key_runs(multi, key, order)
    assert part.column("row").to_numpy().tolist() == want.tolist()
    ks = k[want]
    assert starts.tolist() == [i for i in range(n) if i == 0 or ks[i] != ks[i - 1]]


@pytest.mark.parametrize("bad", [-0.01, float("nan"), float("inf"), None])
def test_orders_price_bands_rejects_out_of_contract_prices(
        ray_session, tmp_path, bad):
    """The band probe would put a negative price in band1 and NaN in band5
    where the SQL join drops them: such a price must raise, naming the
    column, instead of diverging silently."""
    import pyarrow.parquet as pq

    from engine import queries as q

    prices = [10.0, 60_000.0, bad, 500_000.0]
    pq.write_table(pa.table({"o_totalprice": pa.array(prices, pa.float64())}),
                   str(tmp_path / "orders.parquet"))
    with pytest.raises(ValueError, match="o_totalprice"):
        q.orders_price_bands(str(tmp_path))


def test_key_skew_cv_is_correctly_rounded():
    """cv = sqrt(n·Σc² − (Σc)²) / Σc from exact integer sums: on random large
    counts the result must be the double nearest the exact value, checked
    with Fraction arithmetic (no float in the reference)."""
    import math
    from fractions import Fraction

    from engine.queries import _exact_cv

    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(1, 400))
        cnt = rng.integers(1, 10 ** int(rng.integers(1, 13)), size=n)
        cs = [int(x) for x in cnt]
        s1, s2 = sum(cs), sum(x * x for x in cs)
        exact_sq = Fraction(n * s2 - s1 * s1, s1 * s1)
        cv = _exact_cv(cnt)
        if exact_sq == 0:
            assert cv == 0.0
            continue
        lo = (Fraction(math.nextafter(cv, 0.0)) + Fraction(cv)) / 2
        hi = (Fraction(math.nextafter(cv, math.inf)) + Fraction(cv)) / 2
        assert lo * lo <= exact_sq <= hi * hi, (cs, cv)
    assert _exact_cv(np.array([5, 5, 5])) == 0.0
    assert _exact_cv(np.array([1, 3])) == 0.5


def test_orphan_orders_scale_path_streams(ray_session, monkeypatch, tmp_path):
    """Round-2 VERDICT item 4: the big-dimension path must produce the same
    report as the broadcast path, end to end as a Dataset (o_orderkey carried
    through the shuffle), with planted orphans."""
    import pyarrow.parquet as pq

    from engine import queries as q
    from tools.check_oracles import to_pandas

    pq.write_table(pa.table({
        "c_custkey": pa.array(range(100), pa.int64()),
    }), str(tmp_path / "customer.parquet"))
    # custkeys 100..109 have no customer: their orders are orphans.
    pq.write_table(pa.table({
        "o_orderkey": pa.array(range(1000, 1220), pa.int64()),
        "o_custkey": pa.array([i % 110 for i in range(220)], pa.int64()),
    }), str(tmp_path / "orders.parquet"))

    broadcast = to_pandas(q.orphan_orders(str(tmp_path)))
    monkeypatch.setattr(q, "DIM_BROADCAST_MAX_ROWS", 0)
    scale = to_pandas(q.orphan_orders(str(tmp_path)))
    assert len(broadcast) == 20                  # 2 orders per orphan custkey
    assert broadcast["o_orderkey"].tolist() == scale["o_orderkey"].tolist()


def test_query_vector_reads_ids_one_row_group_at_a_time(tmp_path, monkeypatch):
    """The minimum vec_id is in the last of four row groups; one row group
    holds a NULL among its ids and another only NULLs.  The id column never
    reaches the driver whole."""
    import pyarrow.parquet as pq

    from engine.queries import _query_vector

    ids = [5, None, 7, None, None, None, 3, 4, 9, 2]
    pq.write_table(pa.table({"vec_id": pa.array(ids, pa.int64()),
                             "embedding": pa.array([[float(i or 0), 1.0] for i in ids],
                                                   pa.list_(pa.float32()))}),
                   str(tmp_path / "embeddings.parquet"), row_group_size=3)
    assert pq.ParquetFile(str(tmp_path / "embeddings.parquet")).metadata.num_row_groups == 4

    def whole_table(*args, **kwargs):
        raise AssertionError("read the whole vec_id column")

    monkeypatch.setattr(pq, "read_table", whole_table)
    np.testing.assert_array_equal(_query_vector(str(tmp_path)), [2.0, 1.0])


def test_dim_map_wide_dictionary_and_nulls(ray_session):
    """More than 127 distinct values must not wrap the int8 code dtype; a
    NULL value is a value of its own; a NULL probe key is never found."""
    import ray
    import ray.data

    from engine import joins

    n_seg = 300                                  # needs int16 codes
    keys = list(range(n_seg + 1))
    segs = [f"SEG{i:03d}" for i in range(n_seg)] + [None]
    ds = ray.data.from_arrow(pa.table({
        "c_custkey": pa.array(keys, pa.int64()),
        "c_mktsegment": pa.array(segs, pa.string()),
    }))
    plan = joins.plan_dim_join(ds, "c_custkey", "c_mktsegment",
                               max_rows=10_000, name="wide")
    assert plan.broadcast and plan.rows == n_seg + 1
    assert ray.get(plan.map_ref).values.dtype == np.int16
    assert None in plan.values and len(plan.values) == n_seg + 1
    codes, found = joins.lookup(plan.map_ref, pa.array(keys + [None, 10_000], pa.int64()))
    assert found.tolist() == [True] * len(keys) + [False, False]
    assert [plan.values[c] for c in codes[found]] == segs   # every code round-trips


def test_sessionize_two_stage_mega_user(ray_session):
    """Round-2 VERDICT item 5: the boundary-merge path must be exact with a
    planted mega-user whose history spans many buckets and 64 input blocks —
    no task may need the whole history colocated (cells spread by (user,
    bucket) hash)."""
    import pandas as pd
    import ray.data

    from engine.queries import _sessionize_single_stage, _sessionize_two_stage

    rng = np.random.default_rng(17)
    base = np.datetime64("2025-06-01T00:00:00", "us").astype(np.int64)
    uids, tss = [], []
    # Mega user 0: 20k events over ~10 days, gaps straddling the 30-min
    # session gap AND the 6h bucket boundary.
    gaps = rng.choice([60, 1200, 2400, 7200], size=20_000,
                      p=[0.5, 0.3, 0.15, 0.05]).astype(np.int64) * 1_000_000
    tss.append(base + np.cumsum(gaps))
    uids.append(np.zeros(20_000, dtype=np.int64))
    # 200 normal users, 5-50 events each.
    for u in range(1, 201):
        k = int(rng.integers(5, 50))
        g = rng.choice([30, 900, 3600], size=k).astype(np.int64) * 1_000_000
        tss.append(base + int(rng.integers(0, 86_400)) * 1_000_000 + np.cumsum(g))
        uids.append(np.full(k, u, dtype=np.int64))
    uid = np.concatenate(uids)
    ts = np.concatenate(tss)
    perm = rng.permutation(uid.size)             # arbitrary storage order
    events = ray.data.from_arrow(pa.table({
        "user_id": pa.array(uid[perm]),
        "ts": pa.array(ts[perm].astype("datetime64[us]")),
    })).repartition(64)

    gap_us = 30 * 60 * 1_000_000
    two = _sessionize_two_stage(events, gap_us,
                                bucket_us=6 * 3_600 * 1_000_000) \
        .sort("user_id").take_all()
    one = _sessionize_single_stage(events, gap_us) \
        .sort("user_id").take_all()
    assert two == one

    # Independent pandas reference.
    df = pd.DataFrame({"user_id": uid, "ts_us": ts}).sort_values(
        ["user_id", "ts_us"])
    new_sess = (df.groupby("user_id")["ts_us"].diff().fillna(np.inf) > gap_us)
    ref = df.assign(s=new_sess).groupby("user_id").agg(
        n_events=("ts_us", "size"), n_sessions=("s", "sum")).reset_index()
    got = pd.DataFrame(two)
    assert got["user_id"].tolist() == ref["user_id"].tolist()
    assert got["n_events"].tolist() == ref["n_events"].tolist()
    assert got["n_sessions"].tolist() == ref["n_sessions"].astype(int).tolist()
    # The mega user genuinely spans many buckets and sessions.
    assert got.loc[got.user_id == 0, "n_sessions"].iloc[0] > 100


def test_sessionize_two_stage_matches_oracle_path(ray_session):
    """two_stage=True over the real events table returns exactly the default
    path's (oracled) result."""
    from engine.queries import sessionize_events

    one = sessionize_events(SF_DIR).take_all()
    two = sessionize_events(SF_DIR, two_stage=True).take_all()
    assert one == two


def test_drift_clips_query(ray_session):
    t = __import__("__ray_entry__").queries()["drift_clips"](SF_DIR)
    rows = {r["column"]: r for r in t.to_pylist()}
    assert {"dur_ms", "snr_db", "confidence"} <= set(rows)
    # same-epoch corpus: nothing drifts vs the frozen baseline
    assert not any(r["drifted"] for r in rows.values()), rows
    assert all(0 <= r["psi"] < 0.2 for r in rows.values())
    assert all(0 <= r["ks"] <= 1 for r in rows.values())


def test_exact_group_quantiles_matches_numpy(ray_session):
    """exact_group_quantiles == np.percentile(linear) on a skewed discrete
    corpus (the percentile_cont interpolation contract), across group sizes
    that hit every floor/ceil branch."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from engine.stages import exact_group_quantiles

    rng = np.random.default_rng(7)
    keys, vals = [], []
    for k, n in (("a", 1), ("b", 2), ("c", 997), ("d", 10_000)):
        keys += [k] * n
        vals += list(rng.integers(0, 40, n).astype(np.float64))
    ds = ray.data.from_arrow(pa.table({"k": keys, "v": vals})).repartition(8)
    out = exact_group_quantiles(ds, "k", "v",
                                {"p25": 0.25, "p50": 0.5, "p95": 0.95})
    got = {r["k"]: r for r in out.to_pylist()}
    arr = {"a": vals[:1], "b": vals[1:3], "c": vals[3:1000], "d": vals[1000:]}
    for k, a in arr.items():
        for name, q in (("p25", 25), ("p50", 50), ("p95", 95)):
            expected = float(np.percentile(np.array(a), q, method="linear"))
            assert abs(got[k][name] - expected) < 1e-9, (k, name)


def test_drift_events_split_identical_halves_is_zero(ray_session, tmp_path):
    """PSI and KS are exactly 0 when the two epochs carry identical
    distributions (the engine and SQL binning/eps conventions agree on the
    degenerate case too)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from engine.queries import drift_events_split

    n = 1000
    ts = np.array(
        ["2024-01-05T12:00:00"] * n + ["2024-01-25T12:00:00"] * n,
        dtype="datetime64[us]")
    types = (["click", "view", "error", "signup", "purchase"] * (n // 5)) * 2
    values = np.tile(np.linspace(0.5, 480.5, n), 2)
    t = pa.table({
        "ts": pa.array(ts),
        "event_type": pa.array(types, pa.string()),
        "value": pa.array(values, pa.float64()),
    })
    d = tmp_path / "events_ident"
    d.mkdir()
    pq.write_table(t, d / "events.parquet")
    out = drift_events_split(str(d)).to_pylist()
    assert {r["axis"] for r in out} == {"event_type", "value"}
    for r in out:
        assert r["psi"] == 0.0 and r["ks"] == 0.0, r


def test_events_hopping_window_counts(ray_session, tmp_path):
    """Every event lands in exactly WINDOW_SPAN windows, window starts are
    hop-aligned, and a planted single-window corpus reproduces closed-form
    counts."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from engine.queries import WINDOW_SPAN, events_hopping_window

    ts = np.array(["2024-01-01T00:30:00"] * 3 + ["2024-01-01T03:30:00"] * 2,
                  dtype="datetime64[us]")
    t = pa.table({
        "ts": pa.array(ts),
        "event_type": pa.array(["click"] * 5, pa.string()),
        "value": pa.array([1.0, 2.0, 3.0, 10.0, 20.0], pa.float64()),
    })
    d = tmp_path / "events_hop"
    d.mkdir()
    pq.write_table(t, d / "events.parquet")
    rows = events_hopping_window(str(d)).to_pandas()
    # 5 events x 2 windows = 10 window-memberships
    assert int(rows["n"].sum()) == 5 * WINDOW_SPAN
    got = {r.window_start: (r.n, r.sum_value) for r in rows.itertuples()}
    # [00:00, 06:00) sees all 5; [21:00 prev day, 03:00) sees the first 3;
    # [03:00, 09:00) sees the last 2.
    assert got["2024-01-01T00:00:00"] == (5, 36.0)
    assert got["2023-12-31T21:00:00"] == (3, 6.0)
    assert got["2024-01-01T03:00:00"] == (2, 30.0)


def test_stratified_sample_balances_strata(ray_session):
    """Equal allocation: every language lands near the cap (md5 variance
    aside), dominant strata no longer dwarf the rest, and the rule is
    deterministic across runs."""
    from collections import Counter

    from engine.queries import stratified_sample_documents

    rows = stratified_sample_documents(SF_DIR, cap=50).take_all()
    again = stratified_sample_documents(SF_DIR, cap=50).take_all()
    assert rows == again
    by_lang = Counter(r["lang"] for r in rows)
    assert len(by_lang) >= 3
    assert all(20 <= n <= 80 for n in by_lang.values()), by_lang
    # cap larger than any stratum keeps the corpus whole
    total = stratified_sample_documents(SF_DIR, cap=10**6).count()
    import pyarrow.parquet as pq
    assert total == pq.read_metadata(f"{SF_DIR}/documents.parquet").num_rows


def test_long_tail_threshold_matches_numpy(ray_session):
    """The rational-rank threshold must equal numpy's exact discrete p90,
    and every emitted doc must strictly exceed its language's threshold."""
    import pyarrow.parquet as pq

    from engine.queries import long_tail_documents

    rows = long_tail_documents(SF_DIR).take_all()
    tbl = pq.read_table(f"{SF_DIR}/documents.parquet",
                        columns=["doc_id", "lang", "n_chars"]).to_pylist()
    by_lang: dict[str, list[int]] = {}
    for r in tbl:
        by_lang.setdefault(r["lang"], []).append(r["n_chars"])
    expect_thr = {}
    for lang, vals in by_lang.items():
        vals.sort()
        n = len(vals)
        expect_thr[lang] = vals[-(-9 * n // 10) - 1]   # ceil(0.9n), 1-based
    expect = sorted(r["doc_id"] for r in tbl
                    if r["n_chars"] > expect_thr[r["lang"]])
    assert sorted(r["doc_id"] for r in rows) == expect
    assert all(r["n_chars"] > r["p90"] == expect_thr[r["lang"]] for r in rows)


def test_large_gap_events_matches_pandas(ray_session):
    """LAG semantics vs a pandas shift ground truth (ties broken by
    event_id, first event per user never emitted)."""
    import pandas as pd
    import pyarrow.parquet as pq

    from engine.queries import large_gap_events

    rows = large_gap_events(SF_DIR, gap_seconds=3600).take_all()
    df = pq.read_table(f"{SF_DIR}/events.parquet",
                       columns=["user_id", "event_id", "ts"]).to_pandas()
    df = df.sort_values(["user_id", "ts", "event_id"])
    us = df["ts"].astype("datetime64[us]").astype("int64")
    prev = us.groupby(df["user_id"]).shift()
    gap = us - prev                                  # integer microseconds
    want = df[gap > 3600 * 1_000_000]
    assert sorted(r["event_id"] for r in rows) == sorted(want["event_id"])
    got = {r["event_id"]: r["gap_us"] for r in rows}
    for eid, g in zip(want["event_id"], gap[gap > 3600 * 1_000_000]):
        assert got[eid] == int(g)


def test_hll_by_type_tracks_exact(ray_session):
    """Per-group HLL estimates must be within 2% of the exact grouped
    COUNT DISTINCT (p=14 standard error is ~0.8%)."""
    from engine.queries import distinct_users_by_type, hll_users_by_type

    exact = {r["event_type"]: r["n_users"]
             for r in distinct_users_by_type(SF_DIR).to_pylist()}
    est = {r["event_type"]: r["n_users_est"]
           for r in hll_users_by_type(SF_DIR).to_pylist()}
    assert set(exact) == set(est) and len(exact) >= 3
    for t, n in exact.items():
        assert abs(est[t] - n) <= max(2, 0.02 * n), (t, n, est[t])


def test_jsonl_repair_recovers_planted_malformations(ray_session):
    """The JSONL text source must contain genuinely malformed lines (brace
    dropped / trailing comma) and the repair pipeline must still match the
    parquet ground truth row for row."""
    import json as _json

    from engine.queries import _events_jsonl_cache, jsonl_repair_events, repair_extract_events

    path = _events_jsonl_cache(SF_DIR)
    broken = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            try:
                _json.loads(line)
            except _json.JSONDecodeError:
                broken += 1
    assert broken > 0, "cache must plant malformed lines"

    got = jsonl_repair_events(SF_DIR).take_all()
    want = repair_extract_events(SF_DIR).take_all()
    assert [(r["event_id"], r["k"]) for r in got] \
        == [(r["event_id"], r["k"]) for r in want]


def test_repair_extract_events_matches_per_row_loop(ray_session, tmp_path):
    """repair_extract_events over a crafted events table (three row groups)
    gives what a per-row json.loads-then-repair loop gives: whitespace,
    trailing data, duplicate keys, NaN, non-objects and malformed props.
    A NULL props gives a NULL k."""
    import json as _json

    import pyarrow.parquet as pq

    from engine.queries import repair_extract_events
    from engine.repair.api import loads as tolerant_loads

    props = ['{"k": 1}', ' {"k": 2} ', '{"k": 3} x', '{"k": 1, "k": 4}',
             '{"k": 5, "v": NaN}', '{"k": 6.9}', '{"k": "7"}', '{"k": true}',
             '[1]', '"s"', 'null', '{"j": 1}', "{'k': 8}", '{"k": 9',
             '{"k": 10,}', '{k: 11}', '', 'abc', '{"k": -12}', '\t{"k":13}\n']
    eids = list(range(len(props)))
    pq.write_table(pa.table({"event_id": pa.array(eids[::-1], pa.int64()),
                             "props": pa.array(props[::-1], pa.string())}),
                   tmp_path / "events.parquet", row_group_size=7)

    def per_row(s):
        try:
            v = _json.loads(s)
        except (_json.JSONDecodeError, TypeError, ValueError):
            v = tolerant_loads(s, skip_json_loads=True)
        return int(v["k"]) if isinstance(v, dict) and "k" in v else None

    got = [(r["event_id"], r["k"]) for r in repair_extract_events(str(tmp_path)).take_all()]
    assert got == [(e, per_row(s)) for e, s in zip(eids, props)]
    assert sum(k is not None for _, k in got) >= 12

    pq.write_table(pa.table({"event_id": pa.array([0, 1], pa.int64()),
                             "props": pa.array([None, '{"k": 1}'], pa.string())}),
                   tmp_path / "events.parquet")
    assert [r["k"] for r in repair_extract_events(str(tmp_path)).take_all()] == [None, 1]


@pytest.mark.parametrize("gate", ["default", "zero"])
def test_orphan_orders_finds_orphans_like_sql(gate, ray_session, monkeypatch, tmp_path):
    """The sf0.001 orders with every third customer removed: orphan_orders
    must report the orders of the missing customers as DuckDB does, on the
    broadcast path and (gate 0) on the exchange anti-join."""
    import duckdb
    import pyarrow.parquet as pq

    from engine import queries as q

    cust = pq.read_table(f"{SF_DIR}/customer.parquet")
    keep = cust.column("c_custkey").to_numpy() % 3 != 0
    pq.write_table(cust.filter(pa.array(keep)), tmp_path / "customer.parquet")
    (tmp_path / "orders.parquet").symlink_to(f"{SF_DIR}/orders.parquet")
    con = duckdb.connect()
    for t in ("customer", "orders"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{tmp_path}/{t}.parquet')")
    n_orphans = con.sql(q.ORPHAN_ORDERS_SQL).arrow().num_rows
    assert 0 < n_orphans < con.sql("SELECT COUNT(*) FROM orders").fetchone()[0]
    if gate == "zero":
        monkeypatch.setattr(q, "DIM_BROADCAST_MAX_ROWS", 0)
    _assert_matches_oracle("orphan_orders", str(tmp_path), con)


def test_jsonl_gz_source_matches_plaintext(ray_session):
    """The gzip-sharded source must decompress-stream to exactly the same
    rows as the plaintext JSONL path, from genuinely multiple shards."""
    import os

    from engine.queries import (_events_jsonl_gz_cache, jsonl_gz_repair_events,
                                jsonl_repair_events)

    d = _events_jsonl_gz_cache(SF_DIR)
    shards = [f for f in os.listdir(d) if f.endswith(".jsonl.gz")]
    assert len(shards) > 1, "parallelism comes from shard count"
    want = [(r["event_id"], r["k"]) for r in jsonl_repair_events(SF_DIR).take_all()]
    got = [(r["event_id"], r["k"]) for r in jsonl_gz_repair_events(SF_DIR).take_all()]
    assert got == want

    from engine.queries import jsonl_zst_repair_events

    got_z = [(r["event_id"], r["k"])
             for r in jsonl_zst_repair_events(SF_DIR).take_all()]
    assert got_z == want


def test_jsonl_parse_null_on_invalid(ray_session, tmp_path, monkeypatch):
    """Lines whose repair yields a non-dict, a missing/garbage event_id, or
    null props must become NULL cells (json_extract semantics), never a
    worker-killing raise (round-3 ADVICE)."""
    from engine import queries as q

    path = tmp_path / "events.jsonl"
    path.write_text("\n".join([
        '{"event_id": 1, "props": "{\\"k\\": 7}"}',   # clean
        '[1, 2, 3',                                    # repairs to a list
        '{"event_id": 2, "props": null}',              # null props
        '{"props": "{\\"k\\": 9}"}',                   # missing event_id
        '{"event_id": "zap", "props": "{\\"k\\": 1}"}',  # garbage id
        '{"event_id": 3, "props": "{\\"k\\": \\"x\\"}"}',  # non-int k
    ]) + "\n", encoding="utf-8")
    monkeypatch.setattr(q, "_events_jsonl_cache", lambda sf: str(path))
    rows = q.jsonl_repair_events(SF_DIR).take_all()
    got = sorted(((r["event_id"], r["k"]) for r in rows),
                 key=lambda p: (p[0] is None, p[0] or 0, p[1] is None, p[1] or 0))
    assert got == [(1, 7), (2, None), (3, None),
                   (None, 1), (None, 9), (None, None)]


def test_orphan_orders_all_orphan_stays_streaming(ray_session, tmp_path,
                                                  monkeypatch):
    """Adversarial input — the customer dimension is LOST, so 100% of orders
    are orphans.  Above the driver cap the report must come back as a
    streaming Dataset (blocks stay in the spillable object store), not a
    driver-side take_all of the whole fact table; under the cap it stays a
    typed pyarrow Table."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from engine import queries as q

    n = 500
    pq.write_table(pa.table({"c_custkey": pa.array([], pa.int64())}),
                   tmp_path / "customer.parquet")
    pq.write_table(pa.table({
        "o_orderkey": pa.array(range(n), pa.int64()),
        "o_custkey": pa.array([i % 37 for i in range(n)], pa.int64()),
    }), tmp_path / "orders.parquet")

    monkeypatch.setattr(q, "ORPHAN_REPORT_DRIVER_CAP", 100)
    out = q.orphan_orders(str(tmp_path))
    assert isinstance(out, ray.data.Dataset), "above-cap report must stream"
    assert out.count() == n

    monkeypatch.setattr(q, "ORPHAN_REPORT_DRIVER_CAP", 10_000)
    out = q.orphan_orders(str(tmp_path))
    assert isinstance(out, pa.Table) and out.num_rows == n
    assert out.column("o_orderkey").to_pylist() == list(range(n))


def test_except_query_finds_planted_nonpurchasers(ray_session, tmp_path):
    """users_never_purchased must surface users once they exist (the real
    corpus is dense, so the oracle only proves the empty case)."""
    import pyarrow.parquet as pq

    from engine.queries import users_never_purchased, users_purchase_and_error

    pq.write_table(pa.table({
        "user_id": pa.array([1, 1, 2, 2, 3, 3], pa.int64()),
        "event_type": pa.array(["purchase", "error", "view", "click",
                                "purchase", "view"]),
    }), str(tmp_path / "events.parquet"))
    never = users_never_purchased(str(tmp_path))
    assert never.column("user_id").to_pylist() == [2]
    both = [r["user_id"]
            for r in users_purchase_and_error(str(tmp_path)).take_all()]
    assert both == [1]


def test_orders_rollup_empty_input_emits_grand_row(ray_session, tmp_path):
    """SQL ROLLUP emits one (NULL, NULL, 0) grand row even on empty input;
    the engine must match (a map over zero blocks would emit nothing)."""
    import pyarrow.parquet as pq

    from engine.queries import orders_rollup

    pq.write_table(pa.table({
        "o_orderpriority": pa.array([], pa.string()),
        "o_orderdate": pa.array([], pa.timestamp("us")),
        "o_totalprice": pa.array([], pa.float64()),
    }), str(tmp_path / "orders.parquet"))
    t = orders_rollup(str(tmp_path))
    assert t.num_rows == 1
    assert t.column("priority").to_pylist() == [None]
    assert t.column("month").to_pylist() == [None]
    assert t.column("n").to_pylist() == [0]


def test_user_range_window_ties_include_peers(ray_session, tmp_path):
    """RANGE frames include PEER rows (equal ts) regardless of tiebreak
    order — the semantic that separates RANGE from ROWS.  Tied-ts rows are
    rare in the corpus, so plant them explicitly and oracle with DuckDB."""
    import duckdb
    import pyarrow.parquet as pq

    from engine.queries import USER_RANGE_WINDOW_SQL, user_range_window_events

    base = np.datetime64("2024-01-01T00:00:00", "us")
    ts = [base, base, base + np.timedelta64(30, "m"),
          base + np.timedelta64(90, "m"), base + np.timedelta64(90, "m"),
          base + np.timedelta64(90, "m"), base, base + np.timedelta64(61, "m")]
    t = pa.table({
        "user_id": pa.array([1, 1, 1, 1, 1, 1, 2, 2], pa.int64()),
        "event_id": pa.array([1, 2, 3, 4, 5, 6, 7, 8], pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "value": pa.array([10.5, 20.5, 30.5, 40.5, 50.5, 60.5, 5.5, 6.5]),
    })
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(t, sf / "events.parquet")

    got = user_range_window_events(str(sf)).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM read_parquet('{sf}/events.parquet')")
    want = con.sql(USER_RANGE_WINDOW_SQL).df()
    pd_got = got.sort_values(["user_id", "event_id"]).reset_index(drop=True)
    pd_want = want.sort_values(["user_id", "event_id"]).reset_index(drop=True)
    assert pd_got["cnt_1h"].tolist() == pd_want["cnt_1h"].tolist()
    assert pd_got["sum_1h"].astype(int).tolist() == pd_want["sum_1h"].astype(int).tolist()
    # the three ts=90m peers see each other PLUS the 30m event sitting
    # exactly on the inclusive frame edge (90m - 1h): cnt 4 for all three
    assert pd_got.loc[pd_got.event_id.isin([4, 5, 6]), "cnt_1h"].tolist() == [4, 4, 4]
    # the two ts=0 peers see only each other
    assert pd_got.loc[pd_got.event_id.isin([1, 2]), "cnt_1h"].tolist() == [2, 2]


def test_transcript_repair_distance_semantics(ray_session):
    """Planted invariants under the TOLERANT contract: clean rows parse ok
    with distance >= 0; bad_json rows parse ok with heuristics fired and a
    nonzero rewrite; junk rows still parse (tolerant repair demotes them
    to a plain string — the reference contract) but move far from the raw
    text.  The -1 (unrepairable) branch is exercised directly through a
    strict-mode stage on a pinned strict-error input."""
    import __ray_entry__ as entrymod
    from engine.data.clips import _row_defect

    out = entrymod._transcript_repair_distance(SF_DIR).to_pandas()
    assert len(out) > 0
    # dup_id defect rows duplicate clip ids — keep one per id for .loc
    by_id = out.drop_duplicates("clip_id").set_index("clip_id")
    checked = {"junk": 0, "bad_json": 0, "clean": 0}
    bad_signal = 0
    for i in range(2000):
        d = _row_defect(i, 42)
        cid = f"clip-{i:012d}"
        if cid not in by_id.index or d not in checked:
            continue
        row = by_id.loc[cid]
        assert row["repair_distance"] >= 0
        if d == "bad_json":
            # Some malformations repair without a LOGGED heuristic (the
            # missing-comma path) and some sit past the 64-byte prefix,
            # so the rewrite signal is asserted in aggregate below.
            assert row["parse_ok"]
            if row["n_repairs"] > 0 or row["repair_distance"] > 0:
                bad_signal += 1
        elif d == "junk":
            # junk includes EMPTY transcripts (repair maps "" -> ""), so
            # only the tolerant parse itself is guaranteed, not movement
            assert row["parse_ok"]
        checked[d] += 1
    assert all(v > 0 for v in checked.values())
    assert bad_signal >= 0.8 * checked["bad_json"]

    # -1 branch: a strict-mode stage returns None for a pinned strict error.
    from engine.ops.text import myers_distance_batch64
    from engine.stages import RepairJsonStage

    t = pa.table({"transcript": pa.array(['{"a" 1}', '{"a": 1}'], pa.string())})
    rep = RepairJsonStage(col="transcript", strict=True,
                          skip_json_loads=True)(t)
    reps = rep.column("transcript_repaired").to_pylist()
    assert reps[0] is None and reps[1] is not None
    ok = rep.column("transcript_ok").to_numpy(zero_copy_only=False)
    dist = myers_distance_batch64(
        [(x or "").encode()[:64] for x in rep.column("transcript").to_pylist()],
        [(x or "").encode()[:64] for x in reps])
    final = np.where(ok, dist, -1)
    assert final[0] == -1 and final[1] >= 0


def test_user_order_activity_one_sided_empty(ray_session, tmp_path):
    """Review finding: a FULL OUTER join with exactly one empty side crashed
    Ray's hash-join aggregator (KeyError 'key').  One-sided inputs must
    produce the surviving side with the absent count zeroed."""
    import pyarrow.parquet as pq

    from engine import queries as q

    pq.write_table(pa.table({
        "user_id": pa.array([7, 7, 9], pa.int64()),
        "ts": pa.array([1, 2, 3], pa.timestamp("us")),
        "event_type": pa.array(["click"] * 3, pa.string()),
        "value": pa.array([1.0, 2.0, 3.0], pa.float64()),
        "event_id": pa.array([0, 1, 2], pa.int64()),
        "props": pa.array(["{}"] * 3, pa.string()),
    }), str(tmp_path / "events.parquet"))
    empty_orders = pa.table({
        "o_orderkey": pa.array([], pa.int64()),
        "o_custkey": pa.array([], pa.int64()),
    })
    pq.write_table(empty_orders, str(tmp_path / "orders.parquet"))
    out = q.user_order_activity(str(tmp_path)).to_pandas()
    assert out["key"].tolist() == [7, 9]
    assert out["n_events"].tolist() == [2, 1]
    assert out["n_orders"].tolist() == [0, 0]
    assert out["in_events"].tolist() == [1, 1]
    assert out["in_orders"].tolist() == [0, 0]

    # mirrored: events empty, orders present
    pq.write_table(pa.table({
        "o_orderkey": pa.array([1, 2], pa.int64()),
        "o_custkey": pa.array([4, 4], pa.int64()),
    }), str(tmp_path / "orders.parquet"))
    pq.write_table(pa.table({
        "user_id": pa.array([], pa.int64()),
        "ts": pa.array([], pa.timestamp("us")),
        "event_type": pa.array([], pa.string()),
        "value": pa.array([], pa.float64()),
        "event_id": pa.array([], pa.int64()),
        "props": pa.array([], pa.string()),
    }), str(tmp_path / "events.parquet"))
    out = q.user_order_activity(str(tmp_path)).to_pandas()
    assert out["key"].tolist() == [4]
    assert out["n_orders"].tolist() == [2]
    assert out["n_events"].tolist() == [0] and out["in_events"].tolist() == [0]


def test_user_order_activity_null_keys_match_sql(ray_session, tmp_path):
    """A NULL key matches nothing in SQL's FULL OUTER JOIN: the NULL user's
    events and the NULL customer's orders come back as two rows, each with
    the other side's count 0 and both ``in_`` flags 0 (``e.key IS NOT
    NULL``), exactly as DuckDB returns them."""
    import duckdb
    import pyarrow.parquet as pq

    from engine import queries as q
    from tools.check_oracles import canonical_hash, to_pandas

    pq.write_table(pa.table({"user_id": pa.array([7, None, 7, None, 9], pa.int64())}),
                   str(tmp_path / "events.parquet"))
    pq.write_table(pa.table({"o_orderkey": pa.array([1, 2, 3], pa.int64()),
                             "o_custkey": pa.array([None, 9, 4], pa.int64())}),
                   str(tmp_path / "orders.parquet"))
    con = duckdb.connect()
    for t in ("events", "orders"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{tmp_path}/{t}.parquet')")
    want = con.sql(q.USER_ORDER_ACTIVITY_SQL).df()
    got = to_pandas(q.user_order_activity(str(tmp_path)))
    assert len(want) == 5 and canonical_hash(got) == canonical_hash(want)


# Ray Data executions (StreamingExecutor.execute calls) one call of each
# query_mix query starts, its output consumed as perfbench consumes it.  A
# query's shuffle or broadcast steps outside Ray Data (stages.exchange's
# tasks, group_aggregate's combines) start none.
QUERY_MIX_EXECUTIONS = {
    "q1_pricing_summary": 1,
    "grouped_stats_orderpriority": 1,
    "events_daily_by_type": 1,
    "dedup_exact_documents": 2,
    "orders_row_number": 2,
    "revenue_by_segment_day": 3,
    "repair_extract_events": 1,
    "profile_events": 1,
}


@pytest.mark.parametrize("name", sorted(QUERY_MIX_EXECUTIONS))
def test_query_mix_executions_per_call(ray_session, monkeypatch, name):
    """Each query_mix query starts a pinned number of Ray Data executions
    per call on the sf0.001 tables (one-row-group tables, so one read task
    each): a change that adds an execution to a judged query fails here."""
    import __ray_entry__ as entrymod
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    execute = StreamingExecutor.execute
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(1)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    query = entrymod.queries()[name]
    for _ in range(2):
        calls.clear()
        out = query(SF_DIR)
        if not isinstance(out, pa.Table):
            out.materialize()
        assert len(calls) == QUERY_MIX_EXECUTIONS[name], name
