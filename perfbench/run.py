"""Benchmark driver: one workload, one seed, one run.

    python3 perfbench/run.py --workload clips_validate --seed 1 --seconds 14 --trace 0

Run from the repository root.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace
0`` the metrics are the end-to-end ones of BENCHMARK.json; with ``--trace
1`` they are the per-layer ones, from a traced window that follows an
untraced one.  ``--record FILE`` appends the full result set (job times,
set-up times, environment, hardware anchor, layer table) to FILE as one
JSON line, for ``perfbench/compare.py``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import uuid
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NUM_CPUS = 4                 # fixed, recorded; never derived from the machine
SETUP_REPEATS = 2            # sessions per run; each adds 7-15 s of Ray start, warm-up, stop
OBJECT_STORE_BYTES = 768 * 1024 * 1024
PREPARE_TIMEOUT_S = 170
RUN_DEADLINE_S = 120         # stop starting jobs past this, whatever --seconds says
# Ray puts AF_UNIX sockets (at most 107 bytes) up to 64 bytes under its temp dir.
MAX_RAY_TEMP_DIR = 40


def _fail(msg: str, code: int = 2) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def _parse_args(argv=None) -> argparse.Namespace:
    from perfbench.workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", help="append the full result set to this JSON-lines file")
    return p.parse_args(argv)


def environment() -> dict:
    import numpy
    import pyarrow
    import ray

    cpus = os.cpu_count() or 1
    return {
        "num_cpus": NUM_CPUS, "os_cpu_count": cpus,
        "python": platform.python_version(), "ray": ray.__version__,
        "pyarrow": pyarrow.__version__, "numpy": numpy.__version__,
        "scaling": {"skipped": f"the 2->8-CPU legs need 8 CPUs; this machine has {cpus}"}
        if cpus < 8 else {"skipped": "not part of this benchmark"},
    }


# ------------------------------------------------------------------- prepare


def prepare(workload: str, seed: int) -> str:
    """Build (or reuse) the inputs for (workload, size, seed) in a child
    process; returns their directory."""
    from perfbench.workloads import SIZES

    out = ROOT / ".bench_build" / "perfbench" / f"{workload}-{SIZES[workload]}-{seed}"
    if not out.is_dir():
        out.parent.mkdir(parents=True, exist_ok=True)
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.prepare", workload, str(seed), str(out)],
            cwd=ROOT, env=_child_env(), timeout=PREPARE_TIMEOUT_S,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            _fail(f"prepare failed for {workload} seed {seed}:\n{proc.stderr[-4000:]}", 1)
    return str(out)


def _child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": f"{ROOT}{os.pathsep}{path}" if path else str(ROOT)}


def ray_temp_dir() -> str | None:
    """Ray's temp dir inside the checkout when its socket paths fit."""
    path = ROOT / ".bench_build" / "ray"
    return str(path) if len(str(path)) <= MAX_RAY_TEMP_DIR else None


def start_ray(runtime_env: dict | None = None) -> None:
    import ray
    import ray.data

    temp_dir = ray_temp_dir()
    if temp_dir:
        os.makedirs(temp_dir, exist_ok=True)
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             object_store_memory=OBJECT_STORE_BYTES, log_to_driver=False,
             runtime_env=runtime_env, _temp_dir=temp_dir)
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False


# -------------------------------------------------------------------- anchor


ANCHOR_DOC = ("Model output: {'text': 'the quick brown fox', 'lang': en, 'words': ["
              + ", ".join(f"{{'w': 'w{i}', 't0': {i * 10}, 't1': {i * 10 + 9}}}"
                          for i in range(40)) + "], 'confidence': 0.91")


def hardware_anchor() -> dict:
    """A fixed single-process loop, reported as context next to every result
    set.  It never scales or gates a metric."""
    import numpy as np

    from engine.audio import reference_signal
    from engine.flac import decode_flac, encode_flac
    from engine.repair.api import repair_json

    a = np.random.default_rng(0).standard_normal((256, 256))
    payload = encode_flac(np.round(reference_signal("anchor", 16000, 16000) * 32767)
                          .astype(np.int16), 16000)

    def median_us(fn, reps: int) -> float:
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return statistics.median(times) * 1e6

    return {
        "matmul_256_us": median_us(lambda: a @ a, 30),
        "repair_json_us": median_us(lambda: repair_json(ANCHOR_DOC, return_objects=True,
                                                        skip_json_loads=True), 30),
        "decode_flac_1s_us": median_us(lambda: decode_flac(payload), 7),
    }


# --------------------------------------------------------------------- runs


def measure(wl, seconds: float, started: float) -> dict:
    """Closed loop: one job at a time; each is checked outside its timed
    window before the next starts.  Stops once the timed jobs add up to
    ``seconds``; with ``seconds <= 0`` it runs no job."""
    walls, items, datasets, failures = [], [], [], []
    attempted = 0
    while sum(walls) < seconds and time.monotonic() - started < RUN_DEADLINE_S:
        attempted += 1
        t0 = time.perf_counter()
        try:
            n, out = wl.job()
        except Exception:                     # noqa: BLE001 - counted, reported
            failures.append(traceback.format_exc(limit=3))
            walls.append(time.perf_counter() - t0)
            continue
        walls.append(time.perf_counter() - t0)
        try:
            wl.check_job(out)
        except Exception:                     # noqa: BLE001 - counted, reported
            failures.append(traceback.format_exc(limit=3))
            continue
        items.append(n)
        datasets.extend(wl.datasets(out))
    return {"walls": walls, "items": items, "datasets": datasets,
            "attempted": attempted, "failures": failures}


def make_workload(args, data_dir: str):
    """One workload object per run: it carries what must repeat across the
    run's sessions (the bad_json repaired count)."""
    from perfbench.workloads import WORKLOADS

    return WORKLOADS[args.workload](args.workload, args.seed, data_dir)


def untraced_run(args, data_dir: str, started: float) -> tuple[dict, dict]:
    """SETUP_REPEATS sessions, each set up from scratch: the set-up samples
    give ``setup_s``.  Session i measures until the run's timed jobs add up
    to (i + 1) / SETUP_REPEATS of ``--seconds``, so short jobs spread over
    every session, and a job longer than the whole window (a query_mix
    pass) runs once, in the first session."""
    # Import the driver side of every workload first, so that the first
    # set-up does not also pay for the driver's module imports.
    import __ray_entry__  # noqa: F401
    import engine.run  # noqa: F401
    import ray.data  # noqa: F401
    import tools.check_oracles  # noqa: F401

    wl = make_workload(args, data_dir)
    setups = []
    res = {"walls": [], "items": [], "datasets": [], "attempted": 0, "failures": []}
    for i in range(SETUP_REPEATS):
        window = args.seconds * (i + 1) / SETUP_REPEATS - sum(res["walls"])
        part, _start, setup_s = session(wl, started, window)
        setups.append(setup_s)
        for key in res:
            res[key] += part[key]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return res, {"metrics": end_to_end_metrics(res, setups, rss_mb), "setup_samples": setups}


def end_to_end_metrics(res: dict, setups: list[float], rss_mb: float) -> dict:
    """Throughput over all timed jobs, and the median of the set-ups.

    The jobs of one run come from different sessions.  On a machine whose
    speed swings, a median of a few jobs snaps to a fast or a slow one; work
    done over time spent, the throughput a batch user sees, averages them
    (measured: a quartile spread of 13% against 21% for the median, over ten
    query_mix runs of three jobs each)."""
    timed = sum(res["walls"])
    return {
        "items_per_s": {"value": sum(res["items"]) / timed, "unit": "1/s"},
        "wall_s": {"value": timed / len(res["walls"]), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "driver_peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def session(wl, started: float, seconds: float, runtime_env=None, install=None):
    """One Ray session: start, warm up, one measured window of ``seconds``.
    ``install`` (trace dir, run id) records spans in the driver too.
    Returns the window's result, its start on the span clock, and the
    set-up time (Ray start plus warm-up).  A failed warm-up counts as a
    failed job of the run."""
    import ray

    from perfbench import trace

    t0 = time.perf_counter()
    start_ray(runtime_env)
    try:
        if install:
            trace.install(*install)
        try:
            wl.warm()
            warm_failures = []
        except Exception:                     # noqa: BLE001 - counted, reported
            warm_failures = ["warm-up: " + traceback.format_exc(limit=3)]
        setup_s = time.perf_counter() - t0
        window_start_ns = time.perf_counter_ns()
        res = measure(wl, seconds, started)
        res["attempted"] += len(warm_failures)
        res["failures"] = warm_failures + res["failures"]
        return res, window_start_ns, setup_s
    finally:
        ray.shutdown()


def traced_run(args, data_dir: str, started: float) -> tuple[dict, dict]:
    """An untraced window, then a traced one in a fresh session with the
    span wrappers in the driver and in every Ray worker."""
    import shutil

    from perfbench import trace
    from perfbench.workloads import QUERY_MIX

    wl = make_workload(args, data_dir)
    base, _start, _setup = session(wl, started, args.seconds)
    run_id = uuid.uuid4().hex
    trace_dir = str(ROOT / ".bench_build" / "trace" / run_id)
    runtime_env = {"worker_process_setup_hook": "perfbench.trace.worker_setup",
                   "env_vars": {trace.TRACE_DIR_ENV: trace_dir, trace.RUN_ID_ENV: run_id}}
    try:
        res, window_start_ns, _setup = session(wl, started, args.seconds, runtime_env,
                                               install=(trace_dir, run_id))
        spans = [s for s in trace.collect(trace_dir, run_id) if s[4] >= window_start_ns]
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    metrics, rows = trace.layer_table(trace.aggregate(spans), list(QUERY_MIX))
    ops = trace.op_stats(res["datasets"])
    metrics.update(trace.op_metrics(ops))
    metrics["tracing_overhead"] = (statistics.mean(res["walls"])
                                   / statistics.mean(base["walls"]), "ratio")
    res["attempted"] += base["attempted"]
    res["failures"] += base["failures"]
    return res, {"metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                 "layer_rows": rows, "ops": ops, "spans": len(spans),
                 "untraced_walls": base["walls"]}


def print_report(args, res: dict, detail: dict, anchor: dict, env: dict) -> None:
    """Human-readable context; everything before the final JSON line."""
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"num_cpus={env['num_cpus']} os_cpu_count={env['os_cpu_count']}")
    print("# anchor " + " ".join(f"{k}={v:.1f}" for k, v in anchor.items()))
    print(f"# jobs={len(res['walls'])} wall_s=" + ",".join(f"{w:.3f}" for w in res["walls"]))
    if "setup_samples" in detail:
        print("# setup_s=" + ",".join(f"{s:.3f}" for s in detail["setup_samples"]))
    for fail in res["failures"]:
        print("# FAILED " + fail.replace("\n", "\n#   "))
    if "layer_rows" in detail:
        print(f"# {'layer':34s} {'count':>9s} {'us per':>14s}")
        for label, n, per, us in detail["layer_rows"]:
            if n:
                print(f"# {label:34s} {n:9d} {us:10.1f}/{per}")
        print(f"# {'Ray Data operator':60s} {'wall_s':>8s} {'rows_out':>9s}")
        for name, o in sorted(detail["ops"].items()):
            print(f"# {name[:60]:60s} {o['wall_s']:8.3f} {o['rows_out']:9d}")


def main(argv=None) -> int:
    started = time.monotonic()
    for need in ("engine", "tools", "__ray_entry__.py"):
        if not (ROOT / need).exists():
            _fail(f"{ROOT / need} is missing: run from a full checkout of the repository")
    sys.path.insert(0, str(ROOT))
    args = _parse_args(argv)
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    os.environ.update(_child_env())
    data_dir = prepare(args.workload, args.seed)
    env = environment()
    anchor = hardware_anchor()
    res, detail = (traced_run if args.trace else untraced_run)(args, data_dir, started)
    if not res["walls"]:
        _fail("no job ran", 1)
    result = {"correct": not res["failures"], "attempted": res["attempted"],
              "failed": len(res["failures"]), "metrics": detail["metrics"]}
    print_report(args, res, detail, anchor, env)
    if args.record:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": env, "anchor": anchor,
                  "walls": res["walls"], "result": result,
                  **{k: v for k, v in detail.items() if k in ("setup_samples", "untraced_walls",
                                                             "layer_rows", "ops")}}
        with open(args.record, "a") as fd:
            fd.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
