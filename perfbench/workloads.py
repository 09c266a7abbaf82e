"""The three benchmark workloads: inputs, one job, warm-up, output check.

A job is one batch run through the engine's public entry points.  The
benchmark runs jobs as a closed loop, and checks each job's output outside
its timed window.
"""

from __future__ import annotations

import json
import os

import numpy as np

# Input size of one job: clips for the clips workloads, the scale factor of
# the generated tables for query_mix.  WARM_SIZES is the input of the
# warm-up job that ends each set-up.
SIZES = {"clips_validate": 3_000, "transcript_repair": 2_000, "query_mix": 0.1}
WARM_SIZES = {"clips_validate": 128, "transcript_repair": 128, "query_mix": 0.002}
BATCH_SIZE = 512

# One query_mix pass: (query, calls per pass).  The short queries repeat so
# that profile_events and revenue_by_segment_day do not dominate the pass.
QUERY_MIX = {
    "q1_pricing_summary": 2, "grouped_stats_orderpriority": 2,
    "events_daily_by_type": 1, "dedup_exact_documents": 1, "orders_row_number": 1,
    "revenue_by_segment_day": 1, "repair_extract_events": 2, "profile_events": 1,
}
# The warm-up runs every query of the mix once on the small tables: the
# first call of a query in a Ray session pays for starting and importing
# into its workers.
WARM_QUERIES = tuple(QUERY_MIX)


class CheckFailed(Exception):
    """A job's output disagrees with its expected value."""


def _load(path: str) -> dict:
    with open(path) as fd:
        return json.load(fd)


class ClipsWorkload:
    """The flagship pipeline of bench.py's ``run_flagship``: read parquet,
    the fused ClipCheckStage actor pool, fk_check_batch,
    sketch_partials_batch, tree_merge_partials."""

    def __init__(self, name: str, seed: int, data_dir: str) -> None:
        self.name, self.seed, self.data_dir = name, seed, data_dir
        self.n = SIZES[name]
        self.expected = _load(os.path.join(data_dir, "expected.json"))
        # The bad_json rows' repaired count is engine-defined; it must repeat
        # across the jobs of one run.  It is kept in memory only, so a change
        # to the repair kernel is never checked against another commit's count.
        self.repaired: dict[str, int] = {}

    def dataset(self, n: int):
        import ray.data

        if self.name == "clips_validate":
            from engine.data.clips import cached_clips_dataset

            return cached_clips_dataset(n, seed=self.seed,
                                        cache_root=os.path.join(self.data_dir, "clips"))
        return ray.data.read_parquet(os.path.join(self.data_dir, f"clips_n{n}"))

    def _fk_probe(self):
        from engine.data.clips import speakers_table
        from engine.stages import build_fk_probe

        return build_fk_probe(speakers_table(seed=self.seed).column("speaker_id").to_pylist())

    def run_job(self, n: int):
        """One job; returns (totals, the materialized partials Dataset)."""
        import ray

        import engine.stages as stages
        from engine.run import validate_clips_dataset

        bloom_state, exact = self._fk_probe()
        checked = validate_clips_dataset(self.dataset(n), batch_size=BATCH_SIZE)
        bloom_ref, exact_ref = ray.put(bloom_state), ray.put(exact)
        checked = checked.map_batches(
            lambda t: stages.fk_check_batch(t, bloom_ref, exact_ref),
            batch_format="pyarrow", zero_copy_batch=True)
        partials = checked.map_batches(stages.sketch_partials_batch, batch_format="pyarrow",
                                       zero_copy_batch=True).materialize()
        merged = stages.tree_merge_partials(partials)
        return merged["totals"], partials

    def check(self, n: int, totals: dict) -> None:
        exp = self.expected[str(n)]
        for key in ("rows", "meta_ok", "audio_ok", "fk_ok"):
            if totals[key] != exp[key]:
                raise CheckFailed(f"{key}={totals[key]}, planted truth says {exp[key]}")
        repaired = totals["parse_ok"] - exp["parse_ok_fixed"]
        if not 0 <= repaired <= exp["bad_json"]:
            raise CheckFailed(f"parse_ok={totals['parse_ok']} outside the planted range "
                              f"[{exp['parse_ok_fixed']}, "
                              f"{exp['parse_ok_fixed'] + exp['bad_json']}]")
        seen = self.repaired.setdefault(str(n), repaired)
        if seen != repaired:
            raise CheckFailed(f"{repaired} bad_json rows repaired; an earlier job repaired {seen}")

    def warm(self) -> None:
        n = WARM_SIZES[self.name]
        self.check(n, self.run_job(n)[0])

    def job(self) -> tuple[int, tuple]:
        """One timed job: (clips validated, output)."""
        return self.n, self.run_job(self.n)

    def check_job(self, out: tuple) -> None:
        self.check(self.n, out[0])

    def datasets(self, out: tuple) -> list:
        """The Datasets a job executed, for Ray Data's operator stats."""
        return [out[1]]


class QueryMixWorkload:
    """A fixed set of DuckDB-oracled driver queries over generated tables."""

    def __init__(self, name: str, seed: int, data_dir: str) -> None:
        self.name, self.seed, self.data_dir = name, seed, data_dir
        self.expected = _load(os.path.join(data_dir, "expected.json"))
        calls = [q for q, reps in QUERY_MIX.items() for _ in range(reps)]
        self.order = [calls[i] for i in np.random.default_rng(seed).permutation(len(calls))]

    def _run(self, label: str, names, traced: bool) -> list:
        import __ray_entry__ as entry
        from perfbench import trace

        queries = entry.queries()
        tables = os.path.join(self.data_dir, label)
        rec = trace.recorder() if traced else None
        results = []
        for q in names:
            if rec is None:
                out = _consume(queries[q](tables))
            else:
                with rec.span(f"query.{q}"):
                    out = _consume(queries[q](tables))
            results.append((q, out))
        return results

    def check(self, label: str, results) -> None:
        from tools.check_oracles import canonical_hash, to_pandas

        for q, out in results:
            want = self.expected[label][q]
            got = to_pandas(out)
            if len(got) != want["rows"] or sorted(got.columns) != want["cols"]:
                raise CheckFailed(f"{q}: {len(got)} rows {sorted(got.columns)}, oracle has "
                                  f"{want['rows']} rows {want['cols']}")
            if canonical_hash(got) != want["hash"]:
                raise CheckFailed(f"{q}: value hash differs from its oracle")

    def warm(self) -> None:
        self.check("warm", self._run("warm", WARM_QUERIES, traced=False))

    def job(self) -> tuple[int, list]:
        """One timed pass over the mix: (queries run, results)."""
        results = self._run("main", self.order, traced=True)
        return len(results), results

    def check_job(self, results: list) -> None:
        self.check("main", results)

    def datasets(self, results: list) -> list:
        return [out for _q, out in results if not _is_table(out)]


def _is_table(out) -> bool:
    import pyarrow as pa

    return isinstance(out, pa.Table)


def _consume(out):
    """Execute a lazy result inside the timed window."""
    return out if _is_table(out) else out.materialize()


WORKLOADS = {"clips_validate": ClipsWorkload, "transcript_repair": ClipsWorkload,
             "query_mix": QueryMixWorkload}
