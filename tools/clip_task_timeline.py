"""Per-task timeline of the clip check in clips_validate jobs.

Wraps ``clip_check_batch`` as ``engine.run`` sees it (the name is kept, so
the check still fuses with the read), runs the ``clips_validate`` job of
``perfbench`` (read, check, fk, sketch partials, tree merge) on a cached
clips table, and prints, for each warm job, every check task's worker
process, start, end and rows (seconds from the job's start), plus the job's
wall, its summed check-UDF time and Σ UDF / wall: how many CPUs the check
kept busy on average.

    PYTHONPATH=. python tools/clip_task_timeline.py [--clips 3000] [--seed 1731] [--jobs 5]

Ray starts as ``perfbench`` starts it (4 CPUs, a 768 MB object store).
A 128-clip job warms the worker processes up, as ``perfbench``'s warm-up
does; it is not reported.  The first job of ``--clips`` after it is
reported apart: its wall against the warm jobs' median, and its tasks,
each marked ``cold`` when its worker ran no task of the warm-up.  A first
job well above the warm median, with cold workers, is a cold start that
the warm-up did not absorb.  The table is cached under
``.bench_build/timeline`` (git-ignored).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WARM_CLIPS = 128


def timed(fn, log: str):
    """``fn`` that appends (task id, pid, start, end, rows) of each call to
    the file ``log``."""
    @functools.wraps(fn)
    def wrapper(batch, *args, **kwargs):
        import ray

        t0 = time.time()
        out = fn(batch, *args, **kwargs)
        t1 = time.time()
        rec = [ray.get_runtime_context().get_task_id(), os.getpid(), t0, t1, batch.num_rows]
        with open(log, "a") as f:
            f.write(json.dumps(rec) + "\n")
        return out

    return wrapper


def run_job(n: int, seed: int, cache_root: str):
    """The clips_validate job: validated clips' totals."""
    import ray

    import engine.stages as stages
    from engine.data.clips import cached_clips_dataset, speakers_table
    from engine.run import validate_clips_dataset

    bloom_state, exact = stages.build_fk_probe(
        speakers_table(seed=seed).column("speaker_id").to_pylist())
    checked = validate_clips_dataset(cached_clips_dataset(n, seed=seed, cache_root=cache_root),
                                     batch_size=512)
    bloom_ref, exact_ref = ray.put(bloom_state), ray.put(exact)
    checked = checked.map_batches(
        lambda t: stages.fk_check_batch(t, bloom_ref, exact_ref),
        batch_format="pyarrow", zero_copy_batch=True)
    partials = checked.map_batches(stages.sketch_partials_batch, batch_format="pyarrow",
                                   zero_copy_batch=True).materialize()
    return stages.tree_merge_partials(partials)["totals"]


def timeline(log: str, start: float) -> tuple[list[tuple], float]:
    """The job's check tasks as (pid, start, end, rows) from ``start``, by
    start time, and its summed check-UDF seconds."""
    tasks: dict[str, list] = {}
    udf = 0.0
    with open(log) as f:
        for line in f:
            task, pid, t0, t1, rows = json.loads(line)
            udf += t1 - t0
            t = tasks.setdefault(task, [pid, t0, t1, 0])
            t[1], t[2], t[3] = min(t[1], t0), max(t[2], t1), t[3] + rows
    return sorted(((pid, t0 - start, t1 - start, n) for pid, t0, t1, n in tasks.values()),
                  key=lambda r: r[1]), udf


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--clips", type=int, default=3000)
    ap.add_argument("--seed", type=int, default=1731)
    ap.add_argument("--jobs", type=int, default=5, help="warm jobs reported")
    ap.add_argument("--cache-root", default=str(ROOT / ".bench_build" / "timeline"))
    args = ap.parse_args()

    import ray

    import engine.run
    from perfbench.run import start_ray

    logs = tempfile.mkdtemp(prefix="clip_timeline_")
    check = engine.run.clip_check_batch
    start_ray()
    runs = []
    try:
        # The warm-up, the first job, then the warm jobs.
        for job in range(args.jobs + 2):
            log = os.path.join(logs, f"job{job}.jsonl")
            open(log, "w").close()
            engine.run.clip_check_batch = timed(check, log)
            t0 = time.time()
            totals = run_job(WARM_CLIPS if job == 0 else args.clips, args.seed,
                             args.cache_root)
            wall = time.time() - t0
            runs.append((totals, wall, *timeline(log, t0)))
    finally:
        engine.run.clip_check_batch = check
        ray.shutdown()
        shutil.rmtree(logs, ignore_errors=True)
    (_, _, warm_up, _), (first_totals, first_wall, first, _), *warm = runs
    for job, (totals, wall, tasks, udf) in enumerate(warm, 1):
        print(f"job {job}: {totals['rows']} clips, wall {wall:.3f} s, "
              f"Σ UDF {udf:.3f} s, Σ UDF / wall {udf / wall:.2f}")
        print_tasks(tasks)
    ratios = [udf / wall for _, wall, _, udf in warm]
    print(f"Σ UDF / wall over {len(warm)} warm jobs: median {statistics.median(ratios):.2f}, "
          f"min {min(ratios):.2f}, max {max(ratios):.2f}")
    median = statistics.median(wall for _, wall, _, _ in warm)
    warmed = {pid for pid, *_ in warm_up}
    print(f"first job after the {WARM_CLIPS}-clip warm-up ({len(warm_up)} check tasks "
          f"on {len(warmed)} workers): {first_totals['rows']} clips, wall {first_wall:.3f} s "
          f"against a warm median of {median:.3f} s ({first_wall / median:.2f}x)")
    print_tasks(first, warmed)
    return 0


def print_tasks(tasks: list[tuple], warmed: set | None = None) -> None:
    """A job's check tasks; with ``warmed``, a worker outside it is cold."""
    print("  worker     start     end   rows")
    for pid, start, end, rows in tasks:
        cold = "  cold" if warmed is not None and pid not in warmed else ""
        print(f"  {pid:>7} {start:8.3f} {end:7.3f} {rows:6d}{cold}")


if __name__ == "__main__":
    sys.exit(main())
