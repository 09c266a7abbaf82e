"""Seeded input generators for the benchmark workloads.

Every table here is a pure function of ``(size, seed)``, so a run can be
reproduced from its seed alone.  The generators run in the prepare step,
outside every timed window and outside ``setup_s``; the engine only ever
reads the parquet files they leave behind.

``clips_validate`` uses the engine's own corpus (``engine.data.clips``),
written in the layout ``cached_clips_dataset`` reads back.  The other two
corpora are defined here, not in the engine, so that a change to the
engine's fixtures cannot silently change what those workloads measure.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# ------------------------------------------------------------ transcript_repair

# Shares of the transcript_repair corpus, by planted defect.  ``bad_json``
# rows use the six malformation styles of engine/data/clips.py.
TR_SHARES = {"bad_json": 0.70, "schema_bad": 0.15, "junk": 0.03, "clean": 0.12}
TR_WORDS = (16, 102)          # words per transcript: ~0.7 KB to ~4.6 KB of JSON
TR_SR_HZ = 8000
TR_DUR_MS = (200, 400)
TR_STYLES = ("single_quotes", "truncated", "code_fence", "missing_comma",
             "unquoted_value", "prose_wrapper")
_LANGS = ["en", "es", "de", "fr", "zh"]
_VOCAB = (
    "the quick brown fox jumps over a lazy dog while rain falls on green hills "
    "and data streams flow through the valley of sound"
).split()


def _malform(raw: str, style: int) -> str:
    """The six repairable malformations of engine/data/clips.py, by index."""
    if style == 0:
        return raw.replace('"', "'")
    if style == 1:
        return raw[: int(len(raw) * 0.8)]
    if style == 2:
        return "```json\n" + raw + "\n```"
    if style == 3:
        return raw.replace('", "', '" "', 1)
    if style == 4:
        return raw.replace(': "', ": ", 1).replace('", "lang"', ', "lang"', 1)
    return "Model output: " + raw + " hope this helps!"


def _long_transcript(rng: np.random.Generator, defect: str) -> str:
    n_words = int(rng.integers(TR_WORDS[0], TR_WORDS[1] + 1))
    words = [_VOCAB[j] for j in rng.integers(0, len(_VOCAB), n_words)]
    t = 0
    word_objs = []
    for w, step in zip(words, rng.integers(150, 400, n_words)):
        word_objs.append({"w": w, "t0": t, "t1": t + int(step)})
        t += int(step)
    doc = {"text": " ".join(words), "lang": _LANGS[int(rng.integers(0, 5))],
           "confidence": round(float(rng.uniform(0.5, 1.0)), 4),
           "words": word_objs}
    if defect == "schema_bad":
        doc["confidence"] = str(doc["confidence"])
        doc["words"] = json.dumps(doc["words"])
        return json.dumps(doc)
    if defect == "junk":
        return ""
    raw = json.dumps(doc)
    if defect == "bad_json":
        return _malform(raw, int(rng.integers(0, len(TR_STYLES))))
    return raw


def transcript_repair_table(n: int, seed: int) -> tuple[pa.Table, list[str]]:
    """Short clean pcm16 clips with long, mostly malformed transcripts.

    Returns the clips table (the engine's clips schema) and the planted
    defect label of every row."""
    from engine.audio import encode_audio, reference_signal
    from engine.data.clips import n_speakers_for

    rng = np.random.default_rng([seed, 0x7E])
    names = list(TR_SHARES)
    defects = rng.choice(len(names), size=n, p=list(TR_SHARES.values()))
    n_spk = n_speakers_for()
    cols: dict[str, list] = {k: [] for k in
                             ("clip_id", "bytes", "sr_hz", "dur_ms", "codec",
                              "transcript", "speaker_id")}
    labels = []
    for i in range(n):
        defect = names[defects[i]]
        cid = f"tr{seed}-{i:09d}"
        dur_ms = int(rng.integers(TR_DUR_MS[0], TR_DUR_MS[1] + 1))
        n_samples = int(round(TR_SR_HZ * dur_ms / 1000.0))
        cols["clip_id"].append(cid)
        cols["bytes"].append(encode_audio(reference_signal(cid, TR_SR_HZ, n_samples),
                                          TR_SR_HZ, "pcm16"))
        cols["sr_hz"].append(TR_SR_HZ)
        cols["dur_ms"].append(dur_ms)
        cols["codec"].append("pcm16")
        cols["transcript"].append(_long_transcript(rng, defect))
        cols["speaker_id"].append(f"spk-{int(rng.integers(0, n_spk)):06d}")
        labels.append(defect)
    table = pa.table({
        "clip_id": pa.array(cols["clip_id"], pa.string()),
        "bytes": pa.array(cols["bytes"], pa.large_binary()),
        "sr_hz": pa.array(cols["sr_hz"], pa.int32()),
        "dur_ms": pa.array(cols["dur_ms"], pa.int32()),
        "codec": pa.array(cols["codec"], pa.string()),
        "transcript": pa.array(cols["transcript"], pa.string()),
        "speaker_id": pa.array(cols["speaker_id"], pa.string()),
    })
    return table, labels


# -------------------------------------------------------------------- query_mix

# Row counts per unit of scale factor, as in the engine's sf test tables.
QM_ROWS = {"customer": 150_000, "orders": 1_500_000, "lineitem": 6_000_000,
           "events": 1_000_000, "documents": 50_000}
QM_DOC_DUP_SHARE = 0.002         # the engine's sf0.1 documents: 0.16% exact duplicates
_DOC_VOCAB = ("a the row key agg scan slow fast table value part hash merge "
              "batch spark line sort window data column join small big query "
              "order group filter stream vector customer").split()
_US_PER_DAY = 86_400_000_000
_EPOCH_1995 = 788_918_400_000_000          # 1995-01-01 in µs since 1970
_EPOCH_2024 = 1_704_067_200_000_000        # 2024-01-01


def query_tables(sf: float, seed: int) -> dict[str, pa.Table]:
    """TPC-H-ish customer/orders/lineitem plus events and documents, with
    the schemas, row counts and value ranges of the engine's sf test tables.
    All values are exact at two decimals, so cent-based engine sums and the
    DuckDB oracle agree."""
    rng = np.random.default_rng([seed, 0x9A])
    n = {t: max(1, int(r * sf)) for t, r in QM_ROWS.items()}
    ts = pa.timestamp("us")

    def cents(lo: float, hi: float, size: int) -> np.ndarray:
        return rng.integers(int(lo * 100), int(hi * 100), size) / 100.0

    def choose(values: list[str], size: int) -> pa.Array:
        return pa.array(np.asarray(values, dtype=object)[rng.integers(0, len(values), size)],
                        pa.string())

    nc, no, nl, ne, nd = (n[t] for t in ("customer", "orders", "lineitem", "events", "documents"))
    customer = pa.table({
        "c_custkey": pa.array(np.arange(nc, dtype=np.int64)),
        "c_name": pa.array([f"Customer#{i:09d}" for i in range(nc)], pa.string()),
        "c_nationkey": pa.array(rng.integers(0, 25, nc).astype(np.int32)),
        "c_acctbal": pa.array(cents(-999.99, 9999.99, nc)),
        "c_mktsegment": choose(["AUTOMOBILE", "BUILDING", "FURNITURE",
                                "HOUSEHOLD", "MACHINERY"], nc),
    })
    orders = pa.table({
        "o_orderkey": pa.array(np.arange(no, dtype=np.int64)),
        "o_custkey": pa.array(rng.integers(0, nc, no).astype(np.int64)),
        "o_orderstatus": choose(["F", "O", "P"], no),
        "o_totalprice": pa.array(cents(1000.0, 500000.0, no)),
        "o_orderdate": pa.array(_EPOCH_1995 + rng.integers(0, 2400, no) * _US_PER_DAY, ts),
        "o_orderpriority": choose(["1-URGENT", "2-HIGH", "3-MEDIUM",
                                   "4-NOT SPECIFIED", "5-LOW"], no),
    })
    lineitem = pa.table({
        "l_orderkey": pa.array(rng.integers(0, no, nl).astype(np.int64)),
        "l_partkey": pa.array(rng.integers(0, max(1, nc * 4 // 3), nl).astype(np.int64)),
        "l_suppkey": pa.array(rng.integers(0, max(1, nc // 15), nl).astype(np.int64)),
        "l_linenumber": pa.array(rng.integers(1, 8, nl).astype(np.int32)),
        "l_quantity": pa.array(rng.integers(1, 51, nl).astype(np.float64)),
        "l_extendedprice": pa.array(cents(900.0, 105000.0, nl)),
        "l_discount": pa.array(rng.integers(0, 11, nl) / 100.0),
        "l_tax": pa.array(rng.integers(0, 9, nl) / 100.0),
        "l_returnflag": choose(["A", "N", "R"], nl),
        "l_linestatus": choose(["F", "O"], nl),
        "l_shipdate": pa.array(_EPOCH_1995 + rng.integers(0, 2500, nl) * _US_PER_DAY, ts),
    })
    event_ts = _EPOCH_2024 + np.sort(rng.integers(0, 30 * _US_PER_DAY, ne))
    events = pa.table({
        "event_id": pa.array(np.arange(ne, dtype=np.int64)),
        "ts": pa.array(event_ts, ts),
        "user_id": pa.array(rng.integers(0, max(1, int(15_000 * sf)), ne).astype(np.int64)),
        "event_type": choose(["click", "error", "purchase", "signup", "view"], ne),
        # Exponential with a mean of 50, as in the engine's sf test tables.
        "value": pa.array(np.minimum(np.rint(rng.exponential(5000.0, ne)), 60000) / 100.0),
        "props": pa.array([f'{{"k": {k}}}' for k in rng.integers(0, 100, ne)], pa.string()),
    })
    texts = []
    for i in range(nd):
        if i and rng.random() < QM_DOC_DUP_SHARE:
            texts.append(texts[int(rng.integers(0, i))])          # exact duplicate
        else:
            words = rng.integers(0, len(_DOC_VOCAB), int(rng.integers(8, 90)))
            texts.append(" ".join(_DOC_VOCAB[j] for j in words))
    documents = pa.table({
        "doc_id": pa.array(np.arange(nd, dtype=np.int64)),
        "text": pa.array(texts, pa.string()),
        "lang": choose(_LANGS, nd),
        "source": pa.array([f"src{i % 20}" for i in range(nd)], pa.string()),
        "n_chars": pa.array(np.array([len(t) for t in texts], dtype=np.int64)),
    })
    return {"customer": customer, "orders": orders, "lineitem": lineitem,
            "events": events, "documents": documents}


def write_query_tables(sf: float, seed: int, out_dir: str) -> None:
    """One parquet file per table, as in the engine's sf test directories."""
    os.makedirs(out_dir, exist_ok=True)
    for name, table in query_tables(sf, seed).items():
        pq.write_table(table, os.path.join(out_dir, f"{name}.parquet"))
