"""Empty-input schema stability (round-3 VERDICT item 1).

Ray Data's Aggregate emits zero-column blocks for empty partitions and
map_batches SKIPS the UDF on zero-row blocks, so a query that finalizes a
low-cardinality group report through a second groupby degrades to a
schema-less empty dataset on an all-filtered input — while DuckDB returns a
TYPED empty result.  The queries here finalize through
``stages.group_aggregate`` or ``stages.window_by_key`` (which return a
zero-row table of the caller's schema), a JSON keyed tree reduction, or an
explicit typed guard, and must
hash-match DuckDB on a fully empty corpus, typed columns included.
"""
from __future__ import annotations

import pyarrow.parquet as pq
import pytest

SF_DIR = "/root/testdata/sf0.001"
TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()

# Queries whose finalize previously went through a low-cardinality groupby
# (the BENCH_r03 RefBundle-warning set) — each must return a typed result on
# an empty corpus, matching the DuckDB oracle exactly.
EMPTY_SAFE = ["distinct_users_by_type", "distinct_users_events",
              "q1_pricing_summary", "grouped_stats_orderpriority",
              "orders_per_segment",
              # session-4 additions whose finalize is keyed-tree-reduce or
              # an explicit typed guard (user_order_activity previously
              # CRASHED in the hash-join aggregator on empty input):
              "per_group_sample_documents", "profile_events",
              "lineitem_constraint_summary", "term_frequency_spectrum",
              "boilerplate_ngrams", "user_order_activity",
              "event_type_transitions",
              # round-5: zero rows on empty input (SQL HAVING guard)
              "events_key_skew",
              # finalized through group_aggregate:
              "orders_price_bands", "quantity_histogram", "source_quality_report",
              "drift_events_split", "drift_divergences_split", "heavy_hitter_terms",
              "events_daily_by_type", "csv_events_daily", "csv_gz_events_daily",
              "orc_events_daily", "ipc_events_daily", "orders_rollup", "orders_cube",
              "orders_grouping_sets", "events_dow_pivot", "supplier_stats_by_region",
              "events_hopping_window", "quantiles_by_returnflag",
              "mad_quantity_by_returnflag", "mode_quantity_by_returnflag",
              "lineitem_quantity_ranks", "revenue_by_segment_day", "revenue_by_brand",
              # per-key windows (stages.window_by_key returns schema.empty_table()):
              "sessionize_events", "cap_events_per_user", "user_first_last_event",
              "user_running_value", "large_gap_events", "user_transition_diversity",
              "user_range_window_events", "user_event_rank_stats", "top_events_per_user",
              "doc_edit_distance_adjacent",
              # stages.exchange with sort= / stages.sorted_or_empty:
              "dedup_exact_documents", "orders_row_number", "orders_value_quartile"]


@pytest.fixture(scope="module")
def empty_sf_dir(tmp_path_factory):
    """Schema-preserving 0-row copies of every driver table."""
    d = tmp_path_factory.mktemp("sf_empty")
    for t in TABLES:
        schema = pq.read_schema(f"{SF_DIR}/{t}.parquet")
        pq.write_table(schema.empty_table(), d / f"{t}.parquet")
    return str(d)


@pytest.fixture(scope="module")
def empty_oracle_con(empty_sf_dir):
    import duckdb

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM "
                f"read_parquet('{empty_sf_dir}/{t}.parquet')")
    return con


@pytest.mark.parametrize("name", EMPTY_SAFE)
def test_query_on_empty_corpus_matches_oracle(name, ray_session, empty_sf_dir,
                                              empty_oracle_con):
    import __ray_entry__ as entrymod
    from tools.check_oracles import canonical_hash, to_pandas

    mine = to_pandas(entrymod.queries()[name](empty_sf_dir))
    want = empty_oracle_con.sql(entrymod.oracle_sql()[name]).df()
    assert len(mine) == len(want)
    assert sorted(mine.columns) == sorted(want.columns), \
        "empty input must keep the typed schema"
    assert canonical_hash(mine) == canonical_hash(want)


def test_hll_by_type_empty_corpus_typed(ray_session, empty_sf_dir):
    """Rows-only companion: the HLL report on an empty corpus is an empty
    TYPED table (event_type: string, n_users_est: int64), not a schema-less
    dataset."""
    import pyarrow as pa

    from engine.queries import hll_users_by_type

    t = hll_users_by_type(empty_sf_dir)
    assert isinstance(t, pa.Table) and t.num_rows == 0
    assert t.schema.field("event_type").type == pa.string()
    assert t.schema.field("n_users_est").type == pa.int64()
