"""Prepare step: build a workload's inputs and expected outputs once.

    python3 -m perfbench.prepare <workload> <seed> <out_dir>

Runs in its own process before the benchmark starts Ray, so neither the
timed window nor ``setup_s`` nor the driver's peak RSS includes it.  The
result is cached by (workload, size, seed): ``out_dir`` is only published,
by an atomic rename, once everything in it is complete.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor

import pyarrow.parquet as pq

from perfbench import corpora
from perfbench.workloads import QUERY_MIX, SIZES, WARM_QUERIES, WARM_SIZES


def _clips_expected(n: int, seed: int) -> dict:
    """Verdict totals the planted truth implies, through the oracle's own
    defect -> verdict mapping (CLIPS_VERDICTS_PLANTED_SQL)."""
    import duckdb

    import __ray_entry__ as entry
    from tools.make_clips_truth import clips_truth_table

    source = f"read_parquet('{entry._CLIPS_TRUTH_PARQUET}')"
    if source not in entry.CLIPS_VERDICTS_PLANTED_SQL:
        raise RuntimeError("CLIPS_VERDICTS_PLANTED_SQL no longer reads the truth "
                           "parquet; update perfbench/prepare.py")
    mapping = entry.CLIPS_VERDICTS_PLANTED_SQL.replace(source, "truth")
    con = duckdb.connect()
    con.register("truth", clips_truth_table(n, seed))
    row = con.sql(f"""
        SELECT COUNT(*), SUM(CAST(meta_ok AS INT)), SUM(CAST(audio_ok AS INT)),
               SUM(CAST(fk_ok AS INT)), SUM(COALESCE(parse_ok, 0)),
               COUNT(*) - COUNT(parse_ok)
        FROM ({mapping})""").fetchone()
    keys = ("rows", "meta_ok", "audio_ok", "fk_ok", "parse_ok_fixed", "bad_json")
    return {k: int(v) for k, v in zip(keys, row)}


def _clips_validate(seed: int, out: str) -> None:
    import ray

    from engine.data.clips import cached_clips_dataset
    from perfbench.run import start_ray

    sizes = (SIZES["clips_validate"], WARM_SIZES["clips_validate"])
    # The truth replay is single-threaded; it runs while this thread waits
    # for the Ray workers that write the corpus.
    with ThreadPoolExecutor(1) as pool:
        expected = pool.submit(lambda: {str(n): _clips_expected(n, seed) for n in sizes})
        start_ray()
        try:
            for n in sizes:
                cached_clips_dataset(n, seed=seed, cache_root=os.path.join(out, "clips"))
        finally:
            ray.shutdown()
        with open(os.path.join(out, "expected.json"), "w") as fd:
            json.dump(expected.result(), fd)


def _transcript_repair(seed: int, out: str) -> None:
    expected = {}
    for n in (SIZES["transcript_repair"], WARM_SIZES["transcript_repair"]):
        table, labels = corpora.transcript_repair_table(n, seed)
        path = os.path.join(out, f"clips_n{n}")
        os.makedirs(path)
        # Files of ~500 rows, so the actor pool sees more than one block.
        for part, lo in enumerate(range(0, n, 500)):
            pq.write_table(table.slice(lo, 500), os.path.join(path, f"part-{part:04d}.parquet"))
        counts = {d: labels.count(d) for d in corpora.TR_SHARES}
        expected[str(n)] = {
            "rows": n, "meta_ok": n, "audio_ok": n, "fk_ok": n,
            "parse_ok_fixed": counts["clean"] + counts["schema_bad"],
            "bad_json": counts["bad_json"], "labels": counts,
        }
    with open(os.path.join(out, "expected.json"), "w") as fd:
        json.dump(expected, fd)


def _query_mix(seed: int, out: str) -> None:
    import duckdb

    import __ray_entry__ as entry
    from tools.check_oracles import canonical_hash

    oracles = entry.oracle_sql()
    expected = {}
    for label, sf in (("main", SIZES["query_mix"]), ("warm", WARM_SIZES["query_mix"])):
        tables = os.path.join(out, label)
        corpora.write_query_tables(sf, seed, tables)
        con = duckdb.connect()
        for t in corpora.QM_ROWS:
            con.sql(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{os.path.join(tables, t + '.parquet')}')")
        expected[label] = {}
        for name in QUERY_MIX if label == "main" else WARM_QUERIES:
            want = con.sql(oracles[name]).df()
            expected[label][name] = {"rows": len(want), "cols": sorted(want.columns),
                                     "hash": canonical_hash(want)}
    with open(os.path.join(out, "expected.json"), "w") as fd:
        json.dump(expected, fd)


PREPARERS = {"clips_validate": _clips_validate, "transcript_repair": _transcript_repair,
             "query_mix": _query_mix}


def main() -> int:
    workload, seed, out = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    tmp = f"{out}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        PREPARERS[workload](seed, tmp)
        os.replace(tmp, out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
