"""Unit tests for the bench.py per-query regression tripwire (no Ray)."""

import json

import bench


def _hist(tmp_path, records):
    p = tmp_path / "history.jsonl"
    p.write_text("".join(json.dumps(r) + "\n" for r in records))
    return str(p)


def test_tripwire_flags_only_past_threshold(tmp_path):
    hist = _hist(tmp_path, [
        {"sf": "sf0.1", "queries": {"a": 1.0, "b": 2.0}},
        {"sf": "sf0.1", "queries": {"a": 1.0, "b": 2.0}},
        {"sf": "sf0.1", "queries": {"a": 1.2, "b": 1.8}},
    ])
    tw = bench._tripwire({"a": 2.0, "b": 2.1}, hist_path=hist)
    assert tw["threshold_ratio"] == bench.TRIPWIRE_RATIO
    assert tw["eligible_queries"] == 2
    # a: 2.0 vs median 1.0 -> 2.0x, flagged; b: 2.1 vs 2.0 -> 1.05x, clean
    assert set(tw["flagged"]) == {"a"}
    assert tw["flagged"]["a"]["ratio"] == 2.0
    assert tw["flagged"]["a"]["history_points"] == 3


def test_tripwire_scopes_history_by_sf(tmp_path):
    # other-sf records must not contribute history points
    hist = _hist(tmp_path, [
        {"sf": "sf0.001", "queries": {"a": 0.01}},
        {"sf": "sf0.001", "queries": {"a": 0.01}},
    ])
    tw = bench._tripwire({"a": 5.0}, hist_path=hist)
    assert tw["eligible_queries"] == 0 and tw["flagged"] == {}


def test_tripwire_needs_two_history_points(tmp_path):
    hist = _hist(tmp_path, [{"sf": "sf0.1", "queries": {"a": 1.0}}])
    tw = bench._tripwire({"a": 100.0}, hist_path=hist)
    assert tw["eligible_queries"] == 0 and tw["flagged"] == {}


def test_tripwire_survives_missing_and_garbage_history(tmp_path):
    tw = bench._tripwire({"a": 1.0}, hist_path=str(tmp_path / "absent.jsonl"))
    assert tw["flagged"] == {}
    garbage = tmp_path / "garbage.jsonl"
    garbage.write_text("not json\n{\"sf\": \"sf0.1\"}\n")
    tw = bench._tripwire({"a": 1.0}, hist_path=str(garbage))
    assert tw["flagged"] == {} and tw["eligible_queries"] == 0


def test_tripwire_scopes_history_by_cpu_count(tmp_path):
    # records from another CPU count must not contribute history points
    other = bench.NUM_CPUS * 2
    hist = _hist(tmp_path, [
        {"sf": "sf0.1", "num_cpus": other, "queries": {"a": 0.01}},
        {"sf": "sf0.1", "num_cpus": other, "queries": {"a": 0.01}},
        {"sf": "sf0.1", "num_cpus": bench.NUM_CPUS, "queries": {"b": 1.0}},
        {"sf": "sf0.1", "num_cpus": bench.NUM_CPUS, "queries": {"b": 1.0}},
    ])
    tw = bench._tripwire({"a": 5.0, "b": 5.0}, hist_path=hist)
    assert tw["eligible_queries"] == 1
    assert set(tw["flagged"]) == {"b"}
    assert tw["flagged"]["b"]["history_points"] == 2
