"""Validation pipeline assembly: clips table → verdicts, violations, metrics.

Execution model (north_rule):

  clips (Dataset, streaming blocks: a read task's packed parquet row groups,
         or a generated block)
    → clip_check_batch          [task, fused with the read or generation
                                 map: transcript repair + audio check, with
                                 a per-worker-process ClipCheckStage;
                                 batch_size caps the rows per stage call]
    → fk_check_batch            [task, fused with the check by Ray Data]
    → fan-out:
        a) verdict rows         → write_parquet(part=K/)   [resumable]
        b) violation rows       → write_parquet(part=K/)
        c) sketch partials      → tiny rows → driver merge [combiner pattern]
        d) grouped stats        → partials → groupby(codec).map_groups merge
        e) exact dedup          → project clip_id → exchange, count > 1
    → metrics.json + per-partition manifest (lineage + counts)

Resume: the run is split into deterministic partitions (contiguous id
ranges).  Each partition writes outputs then an atomic manifest; a re-run
skips partitions whose manifest exists.  This is the Lance-checkpoint stand-in
(Lance is not installed here — storage seam kept in one place, see SURVEY §7.6).

Drift: per-run histograms are compared (PSI / KS) against a frozen baseline
sketch shipped with the repo (engine/data/baseline_sketch.json), regenerated
by ``python -m engine.baseline``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from engine.checks.sketches import Histogram, ks_statistic, psi
from engine.data.clips import clips_dataset
from engine.io import bounded
from engine.stages import (
    MIN_SNR_DB,
    clip_check_batch,
    exchange,
    grouped_stats_partials,
    merge_grouped_states,
    sketch_partials_batch,
    violations_batch,
)

BASELINE_SKETCH_PATH = Path(__file__).parent / "data" / "baseline_sketch.json"

VERDICT_COLS = [
    "clip_id", "sr_hz", "dur_ms", "codec", "speaker_id", "parse_ok",
    "repair_count", "lang", "confidence", "text_len", "audio_ok", "snr_db",
    "meta_ok", "fk_ok",
]


def validate_clips_dataset(ds, *, batch_size: int = 256, concurrency: int | None = None,
                           schema: dict | None = None, min_snr_db: float | None = None):
    """Attach the fused transcript + audio check to a clips Dataset (lazy).

    The check is a stateless task (``clip_check_batch``) over whole input
    blocks, so Ray Data fuses it with the read or map before it and the
    task maps after it (fk check, sketch partials) into one operator: a
    read task's row groups are read, checked and summarised in one task,
    audio payloads never cross the object store, and the worker processes,
    with their per-process stages, are reused across jobs.  A parquet input
    from ``engine.io.read_table`` plans a whole number of waves of one
    balanced task per CPU: whole row groups packed, so each worker checks
    about the same rows and goes from one row group to the next inside its
    task, without waiting for Ray Data to notice a finished task and start
    the next; or, for fewer row groups than CPUs, row ranges, so a
    one-row-group table (a session's 128-clip warm-up) is checked, and
    warms a worker, on every CPU (``engine.io`` docstring).  ``batch_size`` caps
    the rows one stage call sees; it is not passed to Ray Data, whose
    ``batch_size`` maps do not fuse with the operator before them.
    ``concurrency`` optionally caps the concurrent check tasks (a capped
    stage does not fuse with uncapped maps).  ``schema`` / ``min_snr_db``
    override the default transcript schema and SNR threshold (run-config
    surface).

    The check Dataset's own context bounds its blocks at
    ``engine.io.CHECK_BLOCK_BYTES`` = 16 MB (``engine.io.bounded``; a
    ``read_table`` input already has it), so every CPU runs a check task
    from the first one on: a task reserves 32 MB before its first output,
    and four fit in half of a 256 MB store.  The bound still holds a
    3,000-clip table's check output block whole: a task's 512 + 238 clips
    are at most 13.6 MiB uncompressed (seed 1731), and the check adds five
    small columns.
    No bound at all admits the same first wave, but ``python -m engine
    validate --clips 4000`` then took about twice as long (19.3-21.5 s
    against 9.1-11.3 s at 16 MB, on a loaded 4-CPU box).
    """
    checked = ds.map_batches(
        clip_check_batch,
        fn_kwargs={"schema": schema,
                   "min_snr_db": MIN_SNR_DB if min_snr_db is None else min_snr_db,
                   "max_rows": batch_size},
        batch_format="pyarrow",
        concurrency=concurrency,
        zero_copy_batch=True,
    )
    return bounded(checked)


def attach_fk_check(ds, seed: int = 42):
    """Append the broadcast-Bloom referential check (fk_ok column)."""
    import ray

    from engine.data.clips import speakers_table
    from engine.stages import build_fk_probe, fk_check_batch

    bloom_state, exact = build_fk_probe(
        speakers_table(seed=seed).column("speaker_id").to_pylist())
    bloom_ref, exact_ref = ray.put(bloom_state), ray.put(exact)
    return ds.map_batches(
        lambda t: fk_check_batch(t, bloom_ref, exact_ref),
        batch_format="pyarrow", zero_copy_batch=True,
    )


def drift_report(hists: dict, baseline_path: Path = BASELINE_SKETCH_PATH) -> dict:
    """PSI + KS of this run's histograms vs the frozen baseline sketch."""
    if not baseline_path.exists():
        return {"available": False}
    frozen = json.loads(baseline_path.read_text())
    out: dict = {"available": True}
    for col, state in frozen["hists"].items():
        if col not in hists:
            continue
        expected = Histogram.from_state(state)
        observed = hists[col]
        try:
            p = psi(expected, observed)
            k = ks_statistic(expected, observed)
        except ValueError as exc:
            # Edge layouts diverged (baseline frozen under different bin
            # edges): report incompatibility instead of crashing finalize
            # after every partition has already been computed.
            return {"available": False, "reason": f"incompatible baseline: {exc}"}
        out[col] = {"psi": round(p, 6), "ks": round(k, 6), "drifted": p > 0.2}
    return out


def _purge_stale_partitions(out: Path, n_partitions: int, per_part: int,
                            n_clips: int, run_params: dict) -> None:
    """Delete on-disk output for partition ids that the CURRENT run will not
    produce, so ``out`` holds exactly this run's partitions before _finalize
    / _global_duplicate_groups scan the whole directory.

    Without this, re-running with fewer partitions (or fewer clips) leaves
    part=K dirs for K >= n_partitions (or for empty ranges) that overlap the
    recomputed ranges: duplicate_id_groups inflates, overall_pass flips, and
    the parquet dataset double-counts rows (round-2 advice, medium)."""
    import re
    import shutil

    part_re = re.compile(r"^part=(\d+)(?:\.json)?$")
    seen: set[int] = set()
    for sub in ("manifest", "verdicts", "violations"):
        d = out / sub
        if not d.exists():
            continue
        for entry in d.iterdir():
            m = part_re.match(entry.name)
            if m:
                seen.add(int(m.group(1)))

    def valid(part: int) -> bool:
        if part >= n_partitions:
            return False
        lo = part * per_part
        hi = min(lo + per_part, n_clips)
        if lo >= hi:
            return False
        mp = out / "manifest" / f"part={part}.json"
        if not mp.exists():
            # No manifest: the main loop will recompute and _run_partition
            # clears the data dirs itself — nothing stale survives.
            return True
        try:
            manifest = json.loads(mp.read_text())
        except (OSError, json.JSONDecodeError):
            return False
        return (manifest.get("row_range") == [lo, hi]
                and manifest.get("run_params") == run_params)

    for part in seen:
        if valid(part):
            continue
        mp = out / "manifest" / f"part={part}.json"
        if mp.exists():
            mp.unlink()
        for sub in ("verdicts", "violations"):
            d = out / sub / f"part={part}"
            if d.exists():
                shutil.rmtree(d)


def run_validation(
    n_clips: int,
    out_dir: str,
    *,
    seed: int = 42,
    n_partitions: int = 4,
    batch_size: int = 256,
    resume: bool = True,
    concurrency=None,
    min_snr_db: float | None = None,
    schema: dict | None = None,
) -> dict:
    """Full resumable validation run.  Returns the metrics dict."""
    out = Path(out_dir)
    (out / "manifest").mkdir(parents=True, exist_ok=True)
    per_part = -(-n_clips // n_partitions)
    t_start = time.time()
    run_params = {
        "seed": seed,
        "min_snr_db": min_snr_db,
        "schema_key": json.dumps(schema, sort_keys=True) if schema else None,
    }
    # The finalize pass scans the WHOLE out dir; clear partitions a previous
    # run wrote that this run's (n_clips, n_partitions) will not overwrite.
    _purge_stale_partitions(out, n_partitions, per_part, n_clips, run_params)

    all_metrics: list[dict] = []
    n_processed = 0
    for part in range(n_partitions):
        manifest_path = out / "manifest" / f"part={part}.json"
        lo = part * per_part
        hi = min(lo + per_part, n_clips)
        if lo >= hi:
            continue
        if resume and manifest_path.exists():
            manifest = json.loads(manifest_path.read_text())
            # A manifest only proves completion of the SAME work: a changed
            # row range, seed, or check config must recompute, or resumed
            # output silently mixes runs (round-2 review finding 2).
            params_ok = (manifest.get("run_params") == run_params
                         if "run_params" in manifest
                         else manifest.get("seed") == seed)
            if manifest.get("row_range") == [lo, hi] and params_ok:
                all_metrics.append(manifest["metrics"])
                continue
            manifest_path.unlink()           # stale: fall through to recompute
        metrics = _run_partition(part, lo, hi, out, seed, batch_size, concurrency,
                                 min_snr_db=min_snr_db, schema=schema)
        manifest = {
            "partition": part,
            "row_range": [lo, hi],
            "seed": seed,
            "run_params": run_params,
            "engine_version": "0.1.0",
            "written_at": time.time(),
            "metrics": metrics,
        }
        tmp = manifest_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(manifest))
        os.replace(tmp, manifest_path)  # atomic: manifest present == partition done
        all_metrics.append(metrics)
        n_processed += hi - lo

    summary = _finalize(all_metrics, out)
    summary["wall_s"] = round(time.time() - t_start, 3)
    # Throughput counts only rows processed THIS invocation: a fully-resumed
    # run did ~no processing and must not report n_clips/0.1s.
    summary["clips_processed"] = n_processed
    summary["clips_per_s"] = round(n_processed / max(summary["wall_s"], 1e-9), 1)
    (out / "metrics.json").write_text(json.dumps(summary, default=str, indent=2))
    return summary


def _run_partition(part: int, lo: int, hi: int, out: Path, seed: int,
                   batch_size: int, concurrency, *, min_snr_db=None, schema=None) -> dict:
    import shutil

    import ray.data

    from engine.data.clips import make_clips_batch

    # No manifest == the partition never completed.  A previous attempt may
    # have crashed mid-write, leaving partial parquet files that a fresh
    # write_parquet would sit alongside (uuid filenames) and double-count —
    # clear them so resume is exactly-once per partition.
    for sub in ("verdicts", "violations"):
        stale = out / sub / f"part={part}"
        if stale.exists():
            shutil.rmtree(stale)

    ds = ray.data.range(hi - lo).map_batches(
        lambda b: make_clips_batch({"id": np.asarray(b["id"]) + lo}, seed=seed),
        batch_format="numpy",
        batch_size=min(512, batch_size),
    )
    checked = validate_clips_dataset(ds, batch_size=batch_size, concurrency=concurrency,
                                     min_snr_db=min_snr_db, schema=schema)
    # Referential check: broadcast Bloom + exact set built from the speakers
    # dimension table once per partition run.
    checked = attach_fk_check(checked, seed)
    # Audio payloads must not flow past this point: project them away before
    # any wide/fan-out consumer.
    slim = checked.select_columns(VERDICT_COLS + ["transcript_error", "meta_error", "audio_error"])
    slim = slim.materialize()  # bounded: verdict columns only (no audio bytes)

    # a) verdict rows (resumable layout: one dir per partition)
    slim.select_columns(VERDICT_COLS).write_parquet(str(out / "verdicts" / f"part={part}"))

    # b) violation rows (materialized once: a lazy write+count would execute
    #    violations_batch twice)
    viol = slim.map_batches(violations_batch, batch_format="pyarrow",
                            zero_copy_batch=True).materialize()
    viol.write_parquet(str(out / "violations" / f"part={part}"))
    n_violations = viol.count()

    # c) sketch partials → tree-reduce in workers (driver intake bounded by
    #    the reduce threshold even for a 10^8-row partition)
    from engine.stages import tree_merge_partials

    merged = tree_merge_partials(
        slim.map_batches(sketch_partials_batch, batch_format="pyarrow",
                         zero_copy_batch=True).materialize())

    # d) grouped stats by skewed codec — partials bound the shuffle
    grouped = (
        slim.map_batches(grouped_stats_partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("codec")
        .map_groups(merge_grouped_states, batch_format="pyarrow")
        .take_all()
    )

    # e) exact dedup: exchange only the key column
    dup_rows = sorted(_duplicate_groups(slim.select_columns(["clip_id"])).take_all(),
                      key=lambda r: r["clip_id"])

    totals = merged["totals"]
    return {
        "partition": part,
        "rows": totals["rows"],
        "parse_ok": totals["parse_ok"],
        "audio_ok": totals["audio_ok"],
        "meta_ok": totals["meta_ok"],
        "fk_ok": totals.get("fk_ok", 0),
        "repairs": totals["repairs"],
        "violations": int(n_violations),
        "duplicate_ids": dup_rows,
        "stats": {c: s.state() for c, s in merged["stats"].items()},
        "digest_dur_p50": merged["digests"]["dur_ms"].quantile(0.5),
        "digest_snr_p05": merged["digests"]["snr_db"].quantile(0.05),
        "hll_clip_id": merged["hll"].state(),
        "hists": {c: h.state() for c, h in merged["hists"].items()},
        "grouped_codec": grouped,
    }


def _count_duplicates(part: pa.Table) -> pa.Table:
    g = part.group_by("clip_id", use_threads=False).aggregate([([], "count_all")])
    return pa.table({"clip_id": g.column("clip_id"), "count": g.column("count_all")}) \
        .filter(pc.field("count") > 1)


def _duplicate_groups(ds):
    """The clip_ids of ``ds`` that appear more than once, with their counts:
    one ``stages.exchange`` of the key column."""
    return exchange(ds, ["clip_id"], _count_duplicates,
                    pa.schema([("clip_id", pa.string()), ("count", pa.int64())]))


def _global_duplicate_groups(out: Path) -> int:
    """Exact count of clip_id groups appearing more than once across ALL
    partitions' verdicts (key-only read + key-only exchange)."""
    from engine.io import read_table

    verdicts = out / "verdicts"
    if not verdicts.exists():
        return 0
    return _duplicate_groups(read_table(str(verdicts), columns=["clip_id"])).count()


def _finalize(parts: list[dict], out: Path) -> dict:
    from engine.checks.sketches import ColumnStats, HyperLogLog

    rows = sum(p["rows"] for p in parts)
    stats: dict[str, ColumnStats] = {}
    hll = HyperLogLog()
    hists: dict[str, Histogram] = {}
    for p in parts:
        for col, st in p["stats"].items():
            cs = ColumnStats.from_state(st)
            stats[col] = stats[col].merge(cs) if col in stats else cs
        hll.merge(HyperLogLog.from_state(p["hll_clip_id"]))
        for col, st in p["hists"].items():
            h = Histogram.from_state(st)
            hists[col] = hists[col].merge(h) if col in hists else h
    # GLOBAL exact dedup over the written verdicts: per-partition groupbys
    # cannot see a duplicate id pair split across a partition boundary
    # (round-2 review finding 1 — the planted dup_id collides with the
    # PREVIOUS row, exactly the boundary case).  The scan reads only the
    # 8-byte-ish key column of the partitioned parquet.
    dup_total = _global_duplicate_groups(out)
    partition_pass = [p["violations"] == 0 and not p["duplicate_ids"] for p in parts]
    return {
        "rows": rows,
        "partitions": len(parts),
        "parse_ok": sum(p["parse_ok"] for p in parts),
        "audio_ok": sum(p["audio_ok"] for p in parts),
        "meta_ok": sum(p["meta_ok"] for p in parts),
        "fk_ok": sum(p.get("fk_ok", 0) for p in parts),
        "repairs": sum(p["repairs"] for p in parts),
        "violations": sum(p["violations"] for p in parts),
        "duplicate_id_groups": dup_total,
        "distinct_clip_ids_approx": round(hll.estimate()),
        "column_stats": {c: s.summary() for c, s in stats.items()},
        "drift": drift_report(hists),
        "per_partition_pass": [
            {"partition": p["partition"], "pass": ok}
            for p, ok in zip(parts, partition_pass)
        ],
        "overall_pass": all(partition_pass) and dup_total == 0,
    }
