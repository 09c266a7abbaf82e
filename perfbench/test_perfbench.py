"""Self-tests of the benchmark.  They need no Ray:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import statistics
from pathlib import Path

import numpy as np
import pytest

from perfbench import compare, corpora, run, trace
from perfbench.workloads import SIZES

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


README = (Path(__file__).resolve().parent / "README.md").read_text()


# ---------------------------------------------------------------- generators


def test_transcript_repair_generator_is_seeded():
    a, labels_a = corpora.transcript_repair_table(40, seed=3)
    b, labels_b = corpora.transcript_repair_table(40, seed=3)
    c, _ = corpora.transcript_repair_table(40, seed=4)
    assert a.equals(b) and labels_a == labels_b
    assert not a.column("transcript").equals(c.column("transcript"))
    assert not a.column("bytes").equals(c.column("bytes"))


def test_query_tables_are_seeded():
    a, b, c = (corpora.query_tables(0.0005, seed) for seed in (3, 3, 4))
    assert a.keys() == b.keys() == set(corpora.QM_ROWS)
    for name in a:
        assert a[name].equals(b[name])
    assert not a["lineitem"].equals(c["lineitem"])
    assert not a["documents"].equals(c["documents"])


def test_clips_corpus_is_seeded():
    from engine.data.clips import make_clips_batch

    ids = {"id": np.arange(12)}
    a, b, c = (make_clips_batch(ids, seed=s) for s in (3, 3, 4))
    assert a.equals(b)
    assert not a.equals(c)


def test_transcript_repair_shares_and_lengths_match_the_stated_input():
    row = next(line for line in README.splitlines() if line.startswith("| `transcript_repair`"))
    stated = {k: int(re.search(rf"(\d+)% `?{k}`?", row).group(1)) / 100
              for k in ("malformed", "schema_bad", "junk")}
    lo_kb, hi_kb = map(float, re.search(r"\(([\d.]+)–([\d.]+) KB\)", row).groups())
    assert int(re.search(r"([\d,]+) generated clips", row).group(1).replace(",", "")) \
        == SIZES["transcript_repair"]
    assert stated == {"malformed": corpora.TR_SHARES["bad_json"],
                      "schema_bad": corpora.TR_SHARES["schema_bad"],
                      "junk": corpora.TR_SHARES["junk"]}

    table, labels = corpora.transcript_repair_table(800, seed=1)
    n = len(labels)
    for label, key in (("bad_json", "malformed"), ("schema_bad", "schema_bad"),
                       ("junk", "junk")):
        share = labels.count(label) / n
        assert abs(share - stated[key]) < 4 * (stated[key] * (1 - stated[key]) / n) ** 0.5
    sizes = [len(t) for t, d in zip(table.column("transcript").to_pylist(), labels)
             if d == "clean"]
    assert min(sizes) >= 0.9 * lo_kb * 1000 and max(sizes) <= 1.1 * hi_kb * 1000
    assert set(table.column("codec").to_pylist()) == {"pcm16"}
    assert set(table.column("sr_hz").to_pylist()) == {corpora.TR_SR_HZ}


# ------------------------------------------------------------ output checks


def test_repaired_count_repeats_within_a_run_only(tmp_path):
    from perfbench.workloads import CheckFailed, ClipsWorkload

    truth = {"rows": 10, "meta_ok": 9, "audio_ok": 8, "fk_ok": 10,
             "parse_ok_fixed": 6, "bad_json": 3}
    (tmp_path / "expected.json").write_text(json.dumps({"10": truth}))
    totals = {k: truth[k] for k in ("rows", "meta_ok", "audio_ok", "fk_ok")}
    run_a = ClipsWorkload("clips_validate", 1, str(tmp_path))
    run_a.check(10, {**totals, "parse_ok": 8})
    run_a.check(10, {**totals, "parse_ok": 8})
    with pytest.raises(CheckFailed, match="earlier job repaired 2"):
        run_a.check(10, {**totals, "parse_ok": 9})
    # Another run on the same prepared input (say, of another commit) is
    # checked against its own count, not the first run's.
    ClipsWorkload("clips_validate", 1, str(tmp_path)).check(10, {**totals, "parse_ok": 9})
    with pytest.raises(CheckFailed, match="planted range"):
        ClipsWorkload("clips_validate", 1, str(tmp_path)).check(10, {**totals, "parse_ok": 10})
    with pytest.raises(CheckFailed, match="audio_ok"):
        run_a.check(10, {**totals, "audio_ok": 7, "parse_ok": 8})
    assert list(tmp_path.iterdir()) == [tmp_path / "expected.json"]


# -------------------------------------------------------------- statistics


def test_quartiles_match_statistics_module():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 8.0, 6.0, 10.0]
    q1, med, q3 = compare.quartiles(values)
    assert (q1, med, q3) == tuple(statistics.quantiles(values, n=4))
    assert med == 5.5
    assert (q1, q3) == (2.75, 8.25)
    assert compare.spread(values) == pytest.approx(5.5 / 5.5)


def test_pair_wins_counts_ties_for_neither_side():
    assert compare.pair_wins([1, 2, 3, 4], [2, 2, 1, 5], "higher") == 0.5
    assert compare.pair_wins([1, 2, 3, 4], [2, 2, 1, 5], "lower") == 0.25


def test_verdicts():
    parent = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    assert compare.verdict(parent, faster, "lower", 0.1) == "improved"
    assert compare.verdict(parent, slower, "lower", 0.1) == "regressed"
    assert compare.verdict(parent, parent, "lower", 0.1) == "unchanged"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, noisy, "lower", 0.1) == "unresolved"
    # Too few pairs to claim a gain, however large.
    assert compare.verdict(parent[:5], faster[:5], "lower", 0.1) == "unchanged"


# ----------------------------------------------------------------- tracing


def test_self_time_subtracts_children():
    spans = [
        [1, 1, 0, "pool", 0, 100, {"rows": 4}],
        [1, 2, 1, "audio", 10, 90, {"rows": 4}],
        [1, 3, 2, "decode", 20, 50, {"codec": "flac"}],
        [1, 4, 2, "decode", 50, 60, {"codec": "pcm16", "raised": "AudioDecodeError"}],
    ]
    agg = trace.aggregate(spans)
    assert agg["pool"]["self_s"] == pytest.approx(20e-9)
    assert agg["audio"]["self_s"] == pytest.approx(40e-9)
    assert agg["decode"]["calls"] == 2 and agg["decode.flac"]["calls"] == 1
    metrics, _rows = trace.layer_table(agg, [])
    assert metrics["decode.fail_ratio"][0] == 0.5
    assert metrics["pool.audio_share"][0] == pytest.approx(0.8)
    assert metrics["audio.rows_per_s"][0] == pytest.approx(4 / 40e-9)


def test_printed_metrics_are_the_contract():
    from perfbench.workloads import QUERY_MIX

    layer, _rows = trace.layer_table({}, list(QUERY_MIX))
    printed = set(layer) | set(trace.op_metrics({})) | {"tracing_overhead"}
    assert printed == {m["name"] for m in SPEC["per_layer"]}
    units = {**{k: u for k, (_v, u) in layer.items()},
             **{k: u for k, (_v, u) in trace.op_metrics({}).items()},
             "tracing_overhead": "ratio"}
    assert units == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    e2e = run.end_to_end_metrics({"walls": [2.0, 1.0, 3.0], "items": [10, 10, 10]},
                                 [4.0, 5.0, 6.0], 100.0)
    assert {k: v["unit"] for k, v in e2e.items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert e2e["wall_s"]["value"] == 2.0 and e2e["items_per_s"]["value"] == 5.0
    assert e2e["setup_s"]["value"] == 5.0
    failed_job = run.end_to_end_metrics({"walls": [2.0, 1.0, 3.0], "items": [10, 10]},
                                        [4.0], 100.0)
    assert failed_job["items_per_s"]["value"] == 20 / 6
