"""Span tracing for the traced benchmark run, and the per-layer table.

Tracing wraps the engine's public functions from outside, without changing
the engine: ``install()`` replaces each function in the table below with a
pass-through wrapper that records a span, in the driver and, through Ray's
``worker_process_setup_hook``, in every Ray worker.  Names are patched where
they are looked up: ``engine.stages`` imports ``repair_json`` and
``check_clip_audio`` by value, so the wrappers replace those names there.

A span is ``[id, parent_id, name, start_ns, end_ns, notes]``; spans of one
process share its pid and the run id.  They stay in memory until the
outermost span of the process closes, and are then appended to
``<trace_dir>/<pid>.jsonl`` (Ray Data stops its actors when a Dataset
finishes, so memory alone would lose them).  ``collect()`` reads them back
when the run ends.  Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import contextlib
import functools
import glob
import json
import os
import statistics
import threading
import time
from collections import defaultdict

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
RUN_ID_ENV = "PERFBENCH_RUN_ID"
CODECS = ("pcm16", "pcm8", "opus", "flac")
AUDIO_ERRORS = ("decode", "sr_mismatch", "duration_mismatch", "low_snr")


class Recorder:
    """Per-process span store.  The open-span stack is per thread."""

    def __init__(self, trace_dir: str, run_id: str) -> None:
        self.trace_dir = trace_dir
        self.run_id = run_id
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack, st.done = [], []
        return st

    def open(self, name: str, notes: dict | None = None) -> list:
        st = self._state()
        with self._lock:
            self._next_id += 1
            sid = self._next_id
        span = [sid, st.stack[-1][0] if st.stack else 0, name,
                time.perf_counter_ns(), 0, notes or {}]
        st.stack.append(span)
        return span

    def close(self, span: list, notes: dict | None = None) -> None:
        span[4] = time.perf_counter_ns()
        if notes:
            span[5].update(notes)
        st = self._state()
        st.stack.pop()
        st.done.append(span)
        if not st.stack:
            self.flush()

    def flush(self) -> None:
        st = self._state()
        if not st.done:
            return
        lines = "".join(json.dumps([self.run_id] + s) + "\n" for s in st.done)
        st.done = []
        with self._lock, open(os.path.join(self.trace_dir, f"{os.getpid()}.jsonl"), "a") as fd:
            fd.write(lines)

    @contextlib.contextmanager
    def span(self, name: str, **notes):
        span = self.open(name, notes)
        try:
            yield span
        except BaseException as exc:
            self.close(span, {"raised": type(exc).__name__})
            raise
        self.close(span)


_RECORDER: Recorder | None = None


def recorder() -> Recorder | None:
    return _RECORDER


def _wrap(fn, name: str, *, before=None, after=None, outermost=False):
    """Pass-through wrapper recording one span per call.  ``before(args)``
    and ``after(args, result)`` return notes; ``outermost`` records only
    the outermost call of a recursive function, and keeps the nested calls
    cheap."""
    nested = threading.local()

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec = _RECORDER
        if rec is None or getattr(nested, "active", False):
            return fn(*args, **kwargs)
        span = rec.open(name, before(args) if before else None)
        nested.active = outermost
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            rec.close(span, {"raised": type(exc).__name__})
            raise
        finally:
            nested.active = False
        rec.close(span, after(args, out) if after else None)
        return out

    traced.__wrapped_by_perfbench__ = True
    return traced


def _tree_reduce_wrapper(fn):
    """tree_reduce_states, with its telemetry hook filled in."""

    @functools.wraps(fn)
    def traced(states_ds, combine, **kwargs):
        rec = _RECORDER
        if rec is None:
            return fn(states_ds, combine, **kwargs)
        telemetry = kwargs.setdefault("telemetry", {})
        with rec.span("tree_reduce") as span:
            out = fn(states_ds, combine, **kwargs)
            span[5].update(rounds=telemetry.get("rounds", 0),
                           driver_rows=telemetry.get("driver_rows", 0),
                           state_bytes=len(json.dumps(out)) if out is not None else 0)
        return out

    traced.__wrapped_by_perfbench__ = True
    return traced


def _rows(args) -> dict:
    """Rows of the batch passed to a stage's ``__call__(self, batch)``."""
    return {"rows": args[1].num_rows}


def _audio_error(args, out) -> dict:
    err = out.get("audio_error") if isinstance(out, dict) else None
    return {"error": err.split(":", 1)[0]} if err else {}


def _patch_table():
    """(owner, attribute, wrapper) for every layer the table reports."""
    import engine.audio
    import engine.checks.sketches
    import engine.flac
    import engine.repair.schema
    import engine.stages as stages

    return [
        (stages.ClipCheckStage, "__call__", dict(name="pool", before=_rows)),
        (stages.TranscriptRepairStage, "__call__", dict(name="transcript", before=_rows)),
        (stages.AudioCheckStage, "__call__", dict(name="audio", before=_rows)),
        (stages, "repair_json", dict(
            name="repair",
            after=lambda a, out: {"fixes": len(out[1]) if isinstance(out, tuple) else 0})),
        (engine.repair.schema.SchemaFixer, "fix", dict(name="schema_fix", outermost=True)),
        (stages, "check_clip_audio", dict(name="check_audio", after=_audio_error)),
        (engine.audio, "decode_any", dict(name="decode", before=lambda a: {"codec": a[1]})),
        (engine.flac, "decode_flac", dict(name="decode_flac")),
        (engine.audio, "reference_signal", dict(name="reference_signal")),
        (engine.audio, "snr_db", dict(name="snr")),
        (stages, "fk_check_batch", dict(name="fk", before=lambda a: {"rows": a[0].num_rows})),
        (engine.checks.sketches.BloomFilter, "contains", dict(
            name="bloom", after=lambda a, out: {"n": int(out.size),
                                               "positives": int(out.sum())})),
        (stages, "sketch_partials_batch", dict(name="sketch")),
        (stages, "tree_reduce_states", None),
    ]


def install(trace_dir: str, run_id: str) -> None:
    """Start recording in this process and wrap every traced function."""
    global _RECORDER
    os.makedirs(trace_dir, exist_ok=True)
    _RECORDER = Recorder(trace_dir, run_id)
    for owner, attr, spec in _patch_table():
        fn = getattr(owner, attr)
        if getattr(fn, "__wrapped_by_perfbench__", False):
            continue
        setattr(owner, attr, _tree_reduce_wrapper(fn) if spec is None
                else _wrap(fn, spec.pop("name"), **spec))


def worker_setup() -> None:
    """Ray ``worker_process_setup_hook``: trace inside every worker."""
    install(os.environ[TRACE_DIR_ENV], os.environ[RUN_ID_ENV])


def collect(trace_dir: str, run_id: str) -> list[list]:
    """All spans of ``run_id``, as ``[pid, id, parent, name, start, end, notes]``."""
    spans = []
    for path in glob.glob(os.path.join(trace_dir, "*.jsonl")):
        pid = int(os.path.basename(path).split(".")[0])
        with open(path) as fd:
            for line in fd:
                rec = json.loads(line)
                if rec[0] == run_id:
                    spans.append([pid] + rec[1:])
    return spans


# ------------------------------------------------------------------ the table


def aggregate(spans: list[list]) -> dict:
    """Per span name: calls, total seconds, self seconds, summed notes,
    per-call durations, and a by-codec split for decode spans."""
    child_ns: dict[tuple, int] = defaultdict(int)
    for pid, _sid, parent, _name, start, end, _notes in spans:
        if parent:
            child_ns[(pid, parent)] += end - start
    agg: dict[str, dict] = {}
    for pid, sid, _parent, name, start, end, notes in spans:
        keys = [name] + ([f"{name}.{notes['codec']}"] if "codec" in notes else [])
        for key in keys:
            a = agg.setdefault(key, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                     "durations": [], "notes": defaultdict(int)})
            dur = end - start
            a["calls"] += 1
            a["s"] += dur / 1e9
            a["self_s"] += (dur - child_ns.get((pid, sid), 0)) / 1e9
            a["durations"].append(dur / 1e9)
            for k, v in notes.items():
                if isinstance(v, (int, float)) and not isinstance(v, bool):
                    a["notes"][k] += v
                else:
                    a["notes"][f"{k}={v}"] += 1
    return agg


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _raised(a: dict) -> int:
    """Calls of an aggregate that raised."""
    return sum(v for k, v in a["notes"].items() if k.startswith("raised="))


def layer_table(agg: dict, query_names: list[str]) -> tuple[dict, list[tuple]]:
    """Return (per_layer metrics by name, rows of the printed table).

    Metrics of the contract use counts, ratios and rates (calls per second
    of the layer's own time), which stay defined on a workload that never
    enters the layer; the printed table adds the per-call times."""
    def get(name):
        return agg.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": [],
                              "notes": defaultdict(int)})

    m: dict[str, tuple[float, str]] = {}
    rows: list[tuple] = []

    def layer(label, name, *, count_note=None, use_self=False, unit_label="call"):
        a = get(name)
        n = a["notes"][count_note] if count_note else a["calls"]
        busy = a["self_s"] if use_self else a["s"]
        rows.append((label, n, unit_label, 1e6 * _ratio(busy, n)))
        return a, n, busy

    a, t_rows, busy = layer("transcript (self)", "transcript", count_note="rows",
                            use_self=True, unit_label="row")
    m["transcript.rows"] = (t_rows, "count")
    m["transcript.rows_per_s"] = (_ratio(t_rows, busy), "1/s")
    a, n, busy = layer("repair_json", "repair")
    m["repair.calls"] = (n, "count")
    m["repair.calls_per_s"] = (_ratio(n, busy), "1/s")
    m["repair.fast_path_ratio"] = (_ratio(t_rows - n, t_rows), "ratio")
    m["repair.ok_ratio"] = (_ratio(n - _raised(a), n), "ratio")
    m["repair.fixes_per_call"] = (_ratio(a["notes"]["fixes"], n), "count")
    a, n, busy = layer("SchemaFixer.fix", "schema_fix")
    m["schema_fix.calls"] = (n, "count")
    m["schema_fix.calls_per_s"] = (_ratio(n, busy), "1/s")
    m["schema_fix.reject_ratio"] = (_ratio(_raised(a), n), "ratio")
    a, a_rows, busy = layer("audio (self)", "audio", count_note="rows", use_self=True,
                            unit_label="row")
    m["audio.rows"] = (a_rows, "count")
    m["audio.rows_per_s"] = (_ratio(a_rows, busy), "1/s")
    dec = get("decode")
    for codec in CODECS:
        _a, n, busy = layer(f"decode {codec}", f"decode.{codec}")
        m[f"decode.{codec}.calls"] = (n, "count")
        m[f"decode.{codec}.calls_per_s"] = (_ratio(n, busy), "1/s")
    m["decode.fail_ratio"] = (_ratio(_raised(dec), dec["calls"]), "ratio")
    for label, name in (("reference_signal", "reference_signal"), ("snr_db", "snr")):
        _a, n, busy = layer(label, name)
        m[f"{name}.calls"] = (n, "count")
        m[f"{name}.calls_per_s"] = (_ratio(n, busy), "1/s")
    chk = get("check_audio")
    for err in AUDIO_ERRORS:
        m[f"audio.error.{err}"] = (chk["notes"][f"error={err}"], "count")
    a, n, busy = layer("fk_check_batch", "fk", count_note="rows", unit_label="row")
    m["fk.rows"] = (n, "count")
    m["fk.rows_per_s"] = (_ratio(n, busy), "1/s")
    bloom = get("bloom")
    m["fk.bloom_positive_ratio"] = (_ratio(bloom["notes"]["positives"], bloom["notes"]["n"]),
                                    "ratio")
    _a, n, busy = layer("sketch_partials_batch", "sketch", unit_label="batch")
    m["sketch.batches"] = (n, "count")
    m["sketch.batches_per_s"] = (_ratio(n, busy), "1/s")
    a, n, busy = layer("tree_reduce_states", "tree_reduce")
    m["tree_reduce.calls"] = (n, "count")
    m["tree_reduce.s"] = (busy, "s")
    for k in ("rounds", "driver_rows"):
        m[f"tree_reduce.{k}"] = (a["notes"][k], "count")
    m["tree_reduce.state_bytes"] = (a["notes"]["state_bytes"], "B")
    pool = get("pool")
    m["pool.rows"] = (pool["notes"]["rows"], "count")
    m["pool.audio_share"] = (_ratio(get("audio")["s"], pool["s"]), "ratio")
    m["pool.repair_share"] = (_ratio(get("repair")["s"] + get("schema_fix")["s"], pool["s"]),
                              "ratio")
    q_calls = 0
    for q in query_names:
        a = get(f"query.{q}")
        q_calls += a["calls"]
        med = statistics.median(a["durations"]) if a["durations"] else 0.0
        rows.append((f"query {q}", a["calls"], "call", 1e6 * med))
        m[f"query.{q}.calls_per_s"] = (_ratio(a["calls"], a["s"]), "1/s")
    m["query.calls"] = (q_calls, "count")
    return m, rows


def op_stats(datasets: list) -> dict:
    """Ray Data's own per-operator stats, summed over the timed Datasets
    and every Dataset upstream of them."""
    ops: dict[str, dict] = {}

    def add(summary) -> None:
        for parent in summary.parents:
            add(parent)
        for op in summary.operators_stats:
            o = ops.setdefault(op.operator_name, {"wall_s": 0.0, "rows_out": 0, "bytes_out": 0})
            o["wall_s"] += op.time_total_s
            o["rows_out"] += int((op.output_num_rows or {}).get("sum", 0))
            o["bytes_out"] += int((op.output_size_bytes or {}).get("sum", 0))

    for ds in datasets:
        add(ds._get_stats_summary())       # Ray Data's DatasetStatsSummary
    return ops


def op_metrics(ops: dict) -> dict[str, tuple[float, str]]:
    """The operator summary of the contract: reads, and all operators."""
    read = [o for name, o in ops.items() if name.startswith("Read")]
    return {
        "op.read.wall_s": (sum(o["wall_s"] for o in read), "s"),
        "op.read.rows_out": (sum(o["rows_out"] for o in read), "count"),
        "read.bytes": (sum(o["bytes_out"] for o in read), "B"),
        "op.all.wall_s": (sum(o["wall_s"] for o in ops.values()), "s"),
    }
