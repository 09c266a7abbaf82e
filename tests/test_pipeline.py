"""End-to-end validation pipeline on a small clips corpus (needs Ray)."""

import json
import os
import subprocess
import sys

import pytest


@pytest.fixture(scope="module")
def small_run(ray_session, tmp_path_factory):
    from engine.run import run_validation

    out = tmp_path_factory.mktemp("valrun")
    metrics = run_validation(600, str(out), n_partitions=2, batch_size=128)
    return out, metrics


def test_metrics_shape(small_run):
    _out, m = small_run
    assert m["rows"] == 600
    assert 0 < m["parse_ok"] <= 600
    assert m["violations"] > 0           # defects are planted by design
    assert m["duplicate_id_groups"] >= 0
    assert "dur_ms" in m["column_stats"]
    assert m["drift"]["available"]
    for col in ("snr_db", "dur_ms", "confidence"):
        assert not m["drift"][col]["drifted"], f"{col} should not drift vs baseline"


def test_outputs_on_disk(small_run):
    import pyarrow.parquet as pq

    out, _m = small_run
    verdicts = list((out / "verdicts").rglob("*.parquet"))
    violations = list((out / "violations").rglob("*.parquet"))
    manifests = list((out / "manifest").glob("part=*.json"))
    assert verdicts and violations and len(manifests) == 2
    t = pq.read_table(verdicts[0])
    assert {"clip_id", "parse_ok", "audio_ok", "snr_db"} <= set(t.schema.names)
    manifest = json.loads(manifests[0].read_text())
    assert manifest["row_range"] and "metrics" in manifest


def test_resume_skips_done_partitions(small_run, monkeypatch):
    """Behavioral, not timed: a fully-finished run's resume must never enter
    the per-partition compute path at all (a wall-clock bound here flaked
    under machine load — round-3)."""
    import engine.run as runmod
    from engine.run import run_validation

    out, m = small_run

    def bomb(*a, **k):
        raise AssertionError("resume recomputed a finished partition")

    monkeypatch.setattr(runmod, "_run_partition", bomb)
    m2 = run_validation(600, str(out), n_partitions=2, batch_size=128)
    assert m2["violations"] == m["violations"]
    assert m2["rows"] == m["rows"]


def test_determinism_across_runs(ray_session, tmp_path):
    from engine.run import run_validation

    a = run_validation(300, str(tmp_path / "a"), n_partitions=1, batch_size=128)
    b = run_validation(300, str(tmp_path / "b"), n_partitions=1, batch_size=128)
    for key in ("parse_ok", "audio_ok", "meta_ok", "violations", "repairs", "duplicate_id_groups"):
        assert a[key] == b[key]


def test_crash_mid_partition_resume_is_exactly_once(ray_session, tmp_path):
    """Round-1 VERDICT item 9: kill a run mid-partition, re-run, and prove
    the re-run (a) skips finished manifests, (b) clears the crashed
    partition's partial output instead of double-counting it, and (c)
    produces verdicts identical to an uninterrupted run."""
    import pyarrow.parquet as pq

    import engine.run as runmod
    from engine.run import run_validation

    def verdict_rows(out):
        files = sorted((out / "verdicts").rglob("*.parquet"))
        tbl = pq.read_table([str(f) for f in files])
        df = tbl.to_pandas().sort_values(
            ["clip_id", "dur_ms", "sr_hz", "codec"]).reset_index(drop=True)
        return df

    # Ground truth: clean uninterrupted run.
    clean = tmp_path / "clean"
    m_clean = run_validation(450, str(clean), n_partitions=3, batch_size=128)

    # Crashing run: partition 1 dies AFTER writing partial verdict output but
    # BEFORE its manifest lands (the worst-case window).
    crashed = tmp_path / "crashed"
    real_run_partition = runmod._run_partition

    def dying_run_partition(part, lo, hi, out, *args, **kwargs):
        metrics = real_run_partition(part, lo, hi, out, *args, **kwargs)
        if part == 1:
            # Simulate the kill: output written, manifest never recorded.
            raise KeyboardInterrupt("simulated mid-run kill")
        return metrics

    runmod._run_partition = dying_run_partition
    try:
        with pytest.raises(KeyboardInterrupt):
            run_validation(450, str(crashed), n_partitions=3, batch_size=128)
    finally:
        runmod._run_partition = real_run_partition

    # Partition 0 completed; partition 1 left partial files and no manifest.
    assert (crashed / "manifest" / "part=0.json").exists()
    assert not (crashed / "manifest" / "part=1.json").exists()
    assert list((crashed / "verdicts" / "part=1").rglob("*.parquet")), \
        "test premise: the kill must leave partial output behind"

    # Resume: partition 0 must be skipped (its _run_partition never called),
    # partitions 1-2 recomputed.
    ran_parts = []

    def recording_run_partition(part, *args, **kwargs):
        ran_parts.append(part)
        return real_run_partition(part, *args, **kwargs)

    runmod._run_partition = recording_run_partition
    try:
        m_resumed = run_validation(450, str(crashed), n_partitions=3, batch_size=128)
    finally:
        runmod._run_partition = real_run_partition
    assert ran_parts == [1, 2]

    # Verdicts identical to the uninterrupted run, no duplicated rows.
    df_clean, df_resumed = verdict_rows(clean), verdict_rows(crashed)
    assert len(df_resumed) == 450
    assert df_clean.equals(df_resumed)
    for key in ("rows", "parse_ok", "audio_ok", "meta_ok", "violations", "repairs"):
        assert m_resumed[key] == m_clean[key]


def test_cross_partition_duplicates_detected(ray_session, tmp_path):
    """Round-2 review finding 1: a planted dup pair (row 436 carries row
    435's clip_id) split across a partition boundary must still be counted.
    With per_part=436 the pair straddles partitions 0|1 exactly."""
    import glob

    import pyarrow.parquet as pq

    from engine.run import run_validation

    out = tmp_path / "xpart"
    # n=872, 2 partitions -> per_part=436: rows 0-435 | 436-871.
    m = run_validation(872, str(out), n_partitions=2, batch_size=128)

    files = glob.glob(str(out / "verdicts" / "**" / "*.parquet"), recursive=True)
    ids = pq.read_table(files, columns=["clip_id"]).column("clip_id").to_pylist()
    from collections import Counter
    exact_groups = sum(1 for c in Counter(ids).values() if c > 1)
    assert exact_groups >= 1
    assert m["duplicate_id_groups"] == exact_groups
    # the boundary pair specifically
    assert Counter(ids)["clip-000000000435"] == 2
    assert not m["overall_pass"]


def test_resume_rejects_mismatched_manifests(ray_session, tmp_path):
    """Round-2 review finding 2: a manifest from a DIFFERENT run shape
    (row range / params) must be recomputed, not silently resumed."""
    import glob

    import pyarrow.parquet as pq

    from engine.run import run_validation

    out = tmp_path / "mismatch"
    m1 = run_validation(400, str(out), n_partitions=2, batch_size=128)
    assert m1["rows"] == 400 and m1["clips_processed"] == 400

    # Same out dir, doubled corpus: old manifests cover [0,200) and
    # [200,400) but the new ranges are [0,400) and [400,800).
    m2 = run_validation(800, str(out), n_partitions=2, batch_size=128)
    assert m2["rows"] == 800
    assert m2["clips_processed"] == 800          # nothing stale was reused
    files = glob.glob(str(out / "verdicts" / "**" / "*.parquet"), recursive=True)
    total = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
    assert total == 800

    # Unchanged parameters now resume cleanly with zero processing.
    m3 = run_validation(800, str(out), n_partitions=2, batch_size=128)
    assert m3["rows"] == 800 and m3["clips_processed"] == 0


def test_shrinking_partitions_purges_stale_output(ray_session, tmp_path):
    """Round-2 advice (medium): re-running the same out dir with FEWER
    partitions must delete part=K output for K >= n_partitions.  Without the
    purge, run(800, parts=4) then run(800, parts=2) leaves parts 2-3
    (rows [400,800)) on disk beside the recomputed part 1 ([400,800)):
    verdict rows double-count and duplicate_id_groups inflates."""
    import glob

    import pyarrow.parquet as pq

    from engine.run import run_validation

    out = tmp_path / "shrink"
    m4 = run_validation(800, str(out), n_partitions=4, batch_size=128)
    assert m4["rows"] == 800

    m2 = run_validation(800, str(out), n_partitions=2, batch_size=128)
    assert m2["rows"] == 800
    # Exactly this run's partitions remain on disk.
    assert sorted(p.name for p in (out / "manifest").glob("part=*.json")) == \
        ["part=0.json", "part=1.json"]
    assert sorted(p.name for p in (out / "verdicts").glob("part=*")) == \
        ["part=0", "part=1"]
    files = glob.glob(str(out / "verdicts" / "**" / "*.parquet"), recursive=True)
    total = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
    assert total == 800                      # no double-counted rows
    # Same duplicate accounting as a fresh 800-row run (only the planted
    # defects, not resume artifacts).
    fresh = run_validation(800, str(tmp_path / "fresh"), n_partitions=2,
                           batch_size=128)
    assert m2["duplicate_id_groups"] == fresh["duplicate_id_groups"]
    assert m2["overall_pass"] == fresh["overall_pass"]


# One small-cluster run in a fresh process: the flagship chain (check, fk,
# sketch partials, tree merge) on clips_dataset(n), printing the totals.
_SMALL_CLUSTER_RUN = """
import json, sys
import ray
ray.init(address="local", num_cpus=int(sys.argv[1]), include_dashboard=False)
import ray.data
ray.data.DataContext.get_current().enable_progress_bars = False
from engine.data.clips import clips_dataset
from engine.run import attach_fk_check, validate_clips_dataset
from engine.stages import sketch_partials_batch, tree_merge_partials
checked = attach_fk_check(validate_clips_dataset(
    clips_dataset(int(sys.argv[2]), seed=42), batch_size=64))
merged = tree_merge_partials(checked.map_batches(
    sketch_partials_batch, batch_format="pyarrow", zero_copy_batch=True).materialize())
print("TOTALS " + json.dumps(merged["totals"]))
ray.shutdown()
"""


@pytest.mark.slow
@pytest.mark.parametrize("num_cpus", [1, 2])
def test_clip_check_finishes_on_small_clusters(num_cpus):
    """The check stage needs no pool sizing: on a 1- or 2-CPU cluster the
    check, fk and sketch chain finishes (no placement deadlock, which a
    pinned 2-actor pool had at 2 CPUs) and its totals equal the planted
    truth."""
    from tools.make_clips_truth import clips_truth_table

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    n = 300
    proc = subprocess.run(
        [sys.executable, "-c", _SMALL_CLUSTER_RUN, str(num_cpus), str(n)],
        capture_output=True, text=True, timeout=300, cwd=repo,
        env={**os.environ, "PYTHONPATH": repo}, check=False)
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = [ln for ln in proc.stdout.splitlines() if ln.startswith("TOTALS ")][-1]
    totals = json.loads(line[len("TOTALS "):])

    truth = clips_truth_table(n, seed=42).to_pandas()
    defect = truth["defect"]
    assert totals["rows"] == n
    assert totals["parse_ok"] == int((defect != "junk").sum())
    assert totals["meta_ok"] == int((defect != "sr_out").sum())
    assert totals["audio_ok"] == int((~defect.isin(
        ["sr_out", "dur_lie", "audio_corrupt", "audio_trunc"])).sum())
    assert totals["fk_ok"] == int((~truth["orphan"]).sum())
    # The corpus exercises every check family at this size.
    assert set(defect.unique()) >= {"junk", "sr_out", "dur_lie",
                                    "audio_corrupt", "audio_trunc"}
    assert truth["orphan"].any()


def test_clip_check_batch_keeps_one_stage_per_config():
    """The task form of the check builds one ClipCheckStage per process and
    config: equal schemas deserialized into new dicts (as in every Ray
    task) share a stage, and a different threshold gets its own."""
    import copy

    import numpy as np

    import engine.stages as stages
    from engine.data.clips import TRANSCRIPT_SCHEMA, make_clips_batch

    batch = make_clips_batch({"id": np.arange(64)}, seed=42)
    stages._clip_stage.cache_clear()
    first = stages.clip_check_batch(batch, schema=copy.deepcopy(TRANSCRIPT_SCHEMA))
    again = stages.clip_check_batch(batch, schema=copy.deepcopy(TRANSCRIPT_SCHEMA))
    assert stages._clip_stage.cache_info().currsize == 1
    verdicts = ["parse_ok", "repair_count", "meta_ok", "audio_ok", "audio_error"]
    assert again.select(verdicts).equals(first.select(verdicts))
    assert first.column("audio_ok").to_numpy().any()

    strict = stages.clip_check_batch(batch, schema=copy.deepcopy(TRANSCRIPT_SCHEMA),
                                     min_snr_db=1e9)
    assert stages._clip_stage.cache_info().currsize == 2
    assert not strict.column("audio_ok").to_numpy().any()
    assert strict.column("parse_ok").equals(first.column("parse_ok"))


@pytest.mark.parametrize("n,max_rows", [(150, 64), (150, 150), (150, 400), (0, 64)])
def test_clip_check_batch_row_cap_matches_one_call(n, max_rows):
    """Capping the rows per stage call checks a block in slices: the rows,
    in order, equal one uncapped call, whether or not the cap divides the
    block, when it covers the whole block, and on an empty block."""
    import numpy as np
    import pandas as pd

    import engine.stages as stages
    from engine.data.clips import make_clips_batch

    batch = make_clips_batch({"id": np.arange(150)}, seed=42).slice(0, n)
    want = stages.clip_check_batch(batch)
    got = stages.clip_check_batch(batch, max_rows=max_rows)
    assert got.schema == want.schema
    pd.testing.assert_frame_equal(got.to_pandas(), want.to_pandas())
    if n:
        assert not want.column("audio_ok").to_numpy().all()   # the defects are in


def _row_group_check_plan(tmp_path, row_groups=4):
    """The flagship chain (check, fk, sketch partials) over a clips table of
    ``row_groups`` row groups of 50 rows, as a lazy Dataset."""
    import numpy as np
    import pyarrow.parquet as pq

    from engine.data.clips import make_clips_batch
    from engine.io import read_table
    from engine.run import attach_fk_check, validate_clips_dataset
    from engine.stages import sketch_partials_batch

    path = str(tmp_path / "clips.parquet")
    pq.write_table(make_clips_batch({"id": np.arange(50 * row_groups)}, seed=42), path,
                   row_group_size=50)
    checked = attach_fk_check(validate_clips_dataset(read_table(path), batch_size=32))
    return checked.map_batches(sketch_partials_batch, batch_format="pyarrow",
                               zero_copy_batch=True)


def test_clip_check_fuses_with_the_row_group_read(ray_session, tmp_path):
    """The check runs in the read task: one operator, one task per row
    group, and no read operator of its own (whose output blocks, audio
    payloads included, would go through the object store)."""
    import re

    stats = _row_group_check_plan(tmp_path).materialize().stats()
    assert re.search(r"ReadRowGroupParquet->MapBatches\(clip_check_batch\)"
                     r"->MapBatches\(<lambda>\)->MapBatches\(sketch_partials_batch\): "
                     r"4 tasks executed", stats), stats
    assert not re.search(r"ReadRowGroupParquet: ", stats), stats


def test_clip_check_reads_a_one_row_group_table_on_every_cpu(ray_session, tmp_path):
    """A 128-clip clips table (a clips_validate session's warm-up) is one
    row group.  Its check plans as one fused read-and-check operator of 4
    row-range tasks, which run in 4 worker processes, so every worker is
    warm before the first timed job; the verdicts equal, row for row, one
    check over the same rows."""
    import glob
    import os
    import re

    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from engine.data.clips import cached_clips_dataset
    from engine.run import validate_clips_dataset
    from engine.stages import clip_check_batch

    ds = cached_clips_dataset(128, seed=1731, cache_root=str(tmp_path))
    [path] = glob.glob(str(tmp_path / "*" / "*.parquet"))
    assert pq.ParquetFile(path).metadata.num_row_groups == 1

    def with_pid(t: pa.Table) -> pa.Table:
        return t.append_column("pid", pa.array([os.getpid()] * t.num_rows, pa.int64()))

    checked = validate_clips_dataset(ds, batch_size=32).map_batches(
        with_pid, batch_format="pyarrow", zero_copy_batch=True).materialize()
    stats = checked.stats()
    assert re.search(r"ReadRowGroupParquet->MapBatches\(clip_check_batch\)"
                     r"->MapBatches\(with_pid\): 4 tasks executed", stats), stats
    got = pa.concat_tables(ray.get(checked.to_arrow_refs())).sort_by("clip_id")
    assert len(set(got.column("pid").to_pylist())) == 4
    want = clip_check_batch(pq.read_table(path), max_rows=32).sort_by("clip_id")
    assert got.num_rows == 128
    pd.testing.assert_frame_equal(got.drop_columns(["pid"]).to_pandas(), want.to_pandas())


def test_clip_check_admits_one_task_per_cpu_before_its_first_output(ray_session, tmp_path):
    """Until a task has returned an output, Ray Data reserves object store
    for it from its block bound, and the executor's budget is half the
    store.  The check's reservation lets 4 tasks start on a 768 MB store
    (Ray's default bound reserves 256 MB, and one task runs alone), and it
    comes from the check Dataset's own context, not the global one."""
    import ray.data
    from ray.data._internal.logical.optimizers import get_execution_plan
    from ray.data.context import DEFAULT_TARGET_MAX_BLOCK_SIZE

    ds = _row_group_check_plan(tmp_path)
    op = get_execution_plan(ds._logical_plan).dag
    assert op.name.startswith("ReadRowGroupParquet->MapBatches(clip_check_batch)")
    reserved = op.incremental_resource_usage().object_store_memory
    assert 0 < 4 * reserved <= 768 * 1024 ** 2 / 2, reserved
    assert (ray.data.DataContext.get_current().target_max_block_size
            == DEFAULT_TARGET_MAX_BLOCK_SIZE)
