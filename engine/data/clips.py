"""Deterministic synthetic clips table (audio + transcript pairs).

BASELINE.json input_hint fixes the shape:

    clip_id:string  bytes:binary  sr_hz:int32  dur_ms:int32
    codec:string    transcript:string

No external data: every cell is a pure function of (seed, row index), so any
scale can be regenerated identically on every node — generation itself runs
distributed as ``ray.data.range(n).map_batches(make_clips_batch)``.

Planted defects (rates deterministic per seed) exercise every check family:

    dup_id        duplicate clip_id             → exact-dedup shuffle
    bad_json      malformed transcript          → repair kernel (repairable)
    junk          unrepairable transcript       → violation row
    schema_bad    wrong field types             → schema fixer coercion
    audio_corrupt noise-replaced audio          → SNR < 30 dB
    audio_trunc   truncated payload             → decode error
    sr_out        sr_hz outside {8000..48000}   → range check
    dur_lie       dur_ms != payload length      → duration check

The ``codec`` column is deliberately skewed (~70% pcm16) to exercise
skew-aware salted groupbys (north_rule).
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa

from engine.audio import encode_audio, reference_signal

CODECS = np.array(["pcm16", "pcm8", "opus", "flac"])
CODEC_P = np.array([0.70, 0.20, 0.07, 0.03])
SR_CHOICES = np.array([8000, 16000, 22050, 44100], dtype=np.int32)
SR_P = np.array([0.5, 0.3, 0.15, 0.05])
LANGS = ["en", "es", "de", "fr", "zh"]
WORDS = (
    "the quick brown fox jumps over a lazy dog while rain falls on green hills "
    "and data streams flow through the valley of sound"
).split()

# Defect rates (fractions of rows).
RATES = {
    "dup_id": 0.005,
    "bad_json": 0.08,
    "junk": 0.01,
    "schema_bad": 0.04,
    "audio_corrupt": 0.01,
    "audio_trunc": 0.005,
    "sr_out": 0.004,
    "dur_lie": 0.006,
}

# Referential-integrity fixture: clips carry a speaker_id FK into the
# ``speakers`` dimension table; a small fraction are orphans.
FK_ORPHAN_RATE = 0.003

TRANSCRIPT_SCHEMA = {
    "type": "object",
    "properties": {
        "text": {"type": "string"},
        "lang": {"type": "string"},
        "confidence": {"type": "number"},
        "words": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "w": {"type": "string"},
                    "t0": {"type": "integer"},
                    "t1": {"type": "integer"},
                },
                "required": ["w"],
            },
        },
    },
    "required": ["text", "lang"],
}


def _defect_for(rng: np.random.Generator) -> str:
    """Pick at most one defect class per row, deterministically (consumes
    exactly one draw from the row's rng stream)."""
    u = rng.random()
    acc = 0.0
    for name, rate in RATES.items():
        acc += rate
        if u < acc:
            return name
    return "clean"


def _row_defect(i: int, seed: int) -> str:
    """Defect of row i without touching any live rng stream."""
    return _defect_for(np.random.default_rng((seed << 20) ^ int(i)))


def _make_transcript(rng: np.random.Generator, dur_ms: int, defect: str) -> str:
    n_words = max(1, int(dur_ms / 300))
    words = [WORDS[rng.integers(0, len(WORDS))] for _ in range(n_words)]
    t = 0
    word_objs = []
    for w in words:
        t1 = t + int(rng.integers(150, 400))
        word_objs.append({"w": w, "t0": t, "t1": min(t1, dur_ms)})
        t = t1
    doc = {
        "text": " ".join(words),
        "lang": LANGS[rng.integers(0, len(LANGS))],
        "confidence": round(float(rng.uniform(0.5, 1.0)), 4),
        "words": word_objs,
    }
    raw = json.dumps(doc)
    if defect == "schema_bad":
        doc["confidence"] = str(doc["confidence"])          # number as string
        doc["words"] = json.dumps(doc["words"])             # array as JSON string
        return json.dumps(doc)
    if defect == "bad_json":
        # Repairable malformations, in the reference's input domain.
        style = int(rng.integers(0, 6))
        if style == 0:
            return raw.replace('"', "'")
        if style == 1:
            return raw[: int(len(raw) * 0.8)]                # truncated stream
        if style == 2:
            return "```json\n" + raw + "\n```"
        if style == 3:
            return raw.replace('", "', '" "', 1)             # missing comma
        if style == 4:
            return raw.replace(': "', ': ', 1).replace('", "lang"', ', "lang"', 1)  # unquoted value
        return "Model output: " + raw + " hope this helps!"
    if defect == "junk":
        return ""  # nothing recoverable
    return raw


def n_speakers_for(n_clips_hint: int = 100_000) -> int:
    return max(20, n_clips_hint // 50)


def speakers_table(n_clips_hint: int = 100_000, *, seed: int = 42) -> pa.Table:
    """Dimension table for referential checks: every non-orphan clip's
    speaker_id appears here."""
    n = n_speakers_for(n_clips_hint)
    rng = np.random.default_rng(seed ^ 0x5EA4E5)
    names = [f"{WORDS[rng.integers(0, len(WORDS))]}-{WORDS[rng.integers(0, len(WORDS))]}"
             for _ in range(n)]
    return pa.table({
        "speaker_id": pa.array([f"spk-{i:06d}" for i in range(n)], pa.string()),
        "name": pa.array(names, pa.string()),
    })


def _speaker_for(i: int, seed: int, n_clips_hint: int) -> str:
    # Separate rng stream so adding the FK column never perturbs the
    # audio/transcript draws (baseline sketches stay valid).
    rng = np.random.default_rng((seed << 21) ^ (int(i) * 2 + 1))
    if rng.random() < FK_ORPHAN_RATE:
        return f"spk-orphan-{int(i):06d}"         # planted orphan FK
    return f"spk-{int(rng.integers(0, n_speakers_for(n_clips_hint))):06d}"


def make_clips_batch(batch: dict, *, seed: int = 42, drift: bool = False,
                     n_clips_hint: int = 100_000) -> pa.Table:
    """Vector-of-rows generator: {'id': ndarray} → clips rows (pyarrow Table).

    Use with ``ray.data.range(n).map_batches(make_clips_batch, batch_format="numpy")``.
    ``drift=True`` produces a duration-shifted epoch applied AFTER all rng
    draws: every rng stream position matches the undrifted corpus, so the
    distributions of sr/codec/confidence etc. are unchanged — but columns
    DERIVED from dur_ms (audio byte length, transcript word count) shift
    with it; only dur_ms-independent columns are value-identical across
    epochs.  The fixture for PSI/KS drift detection.
    """
    ids = np.asarray(batch["id"], dtype=np.int64)
    clip_ids: list[str] = []
    blobs: list[bytes] = []
    srs = np.empty(ids.size, dtype=np.int32)
    durs = np.empty(ids.size, dtype=np.int32)
    codecs: list[str] = []
    transcripts: list[str] = []
    speaker_ids: list[str] = []

    for row, i in enumerate(ids):
        rng = np.random.default_rng((seed << 20) ^ int(i))
        defect = _defect_for(rng)

        if defect == "dup_id" and i > 0:
            # Collide with the nearest PRECEDING row that kept its own id:
            # if row i-1 also drew dup_id, clip-(i-1) never exists and the
            # "duplicate" would be unique (round-2 review finding).
            j = int(i) - 1
            while j > 0 and _row_defect(j, seed) == "dup_id":
                j -= 1
            cid = f"clip-{j:012d}"
        else:
            cid = f"clip-{int(i):012d}"

        sr = int(SR_CHOICES[rng.choice(len(SR_CHOICES), p=SR_P)])
        if defect == "sr_out":
            sr = int(rng.choice([300, 192000]))
        dur_ms = int(rng.integers(200, 1200))
        if drift:
            dur_ms = int(dur_ms * 1.4) + 150      # shifted epoch (post-draw)
        n_samples = int(round(sr * dur_ms / 1000.0))
        codec = str(CODECS[rng.choice(len(CODECS), p=CODEC_P)])

        sig = reference_signal(cid, sr, n_samples)
        if defect == "audio_corrupt":
            sig = rng.normal(0.0, 0.3, n_samples).astype(np.float32)
        # flac rows carry REAL FLAC bytes (engine/flac.py) — lossless over
        # the same int16 grid as pcm16, so planted verdicts are unchanged.
        raw = encode_audio(sig, sr, codec)
        if defect == "audio_trunc":
            raw = raw[: max(10, len(raw) // 3)]
        if defect == "dur_lie":
            dur_ms = dur_ms + int(rng.integers(50, 200))

        clip_ids.append(cid)
        blobs.append(raw)
        srs[row] = sr
        durs[row] = dur_ms
        codecs.append(codec)
        transcripts.append(_make_transcript(rng, dur_ms, defect))
        speaker_ids.append(_speaker_for(int(i), seed, n_clips_hint))

    return pa.table(
        {
            "clip_id": pa.array(clip_ids, pa.string()),
            "bytes": pa.array(blobs, pa.large_binary()),
            "sr_hz": pa.array(srs, pa.int32()),
            "dur_ms": pa.array(durs, pa.int32()),
            "codec": pa.array(codecs, pa.string()),
            "transcript": pa.array(transcripts, pa.string()),
            "speaker_id": pa.array(speaker_ids, pa.string()),
        }
    )


def clips_dataset(n_clips: int, *, seed: int = 42, parallelism: int = -1,
                  drift: bool = False):
    """Distributed deterministic clips table as a ray.data.Dataset."""
    import ray.data

    ds = ray.data.range(n_clips, override_num_blocks=parallelism if parallelism > 0 else None)
    # One global speaker universe (default n_clips_hint) regardless of scale,
    # so the speakers dimension table is the same for every corpus size.
    return ds.map_batches(
        lambda b: make_clips_batch(b, seed=seed, drift=drift),
        batch_format="numpy",
        batch_size=512,
    )


def cached_clips_dataset(n_clips: int, *, seed: int = 42,
                         cache_root: str = "/tmp/graft_clips_cache",
                         columns: list | None = None):
    """clips_dataset materialized once to partitioned parquet, then read back.

    Synthesis is deterministic, so the cache key is (n, seed).  Written to a
    temp dir then atomically renamed, so concurrent callers never see a
    partial table.  The read goes through the storage seam
    (``engine.io.read_table``), the ingest path production uses: row
    groups packed into balanced read tasks, or cut into row ranges when
    there are fewer row groups than CPUs, so a table of ~2000-row files and
    the one-row-group 128-clip warm-up table both feed every CPU
    (``ray.data.read_parquet`` would read each file in one task).  Pass
    ``columns`` to prune at the read (a metadata-only query must not ship
    audio bytes).
    """
    import os

    from engine.io import read_table

    # v2: ~2000-row files (v1 wrote one tiny file per generation block); the
    # version token forces hosts with an old cache to rebuild in the new
    # layout — row-count validation alone cannot tell the layouts apart.
    path = f"{cache_root}/v4_n{n_clips}_seed{seed}"  # v4: real FLAC payloads
    if os.path.isdir(path):
        # Validate the cache (guards against a partially-deleted build).
        import pyarrow.parquet as _pq

        try:
            total = sum(_pq.ParquetFile(os.path.join(path, f)).metadata.num_rows
                        for f in os.listdir(path) if f.endswith(".parquet"))
        except Exception:
            total = -1
        if total != n_clips:
            import shutil

            shutil.rmtree(path, ignore_errors=True)
            if os.path.isdir(path):
                # Never silently serve a cache we know is wrong (e.g. the
                # delete failed on permissions in a shared cache_root).
                raise RuntimeError(
                    f"clips cache {path} holds {total} rows (expected "
                    f"{n_clips}) and could not be removed — delete it "
                    "manually or point cache_root elsewhere")
    if not os.path.isdir(path):
        import shutil

        tmp = f"{path}.tmp-{os.getpid()}"
        # ~2000 rows (~45 MB of audio) per file: generation blocks are tiny,
        # and writing one file per block produced hundreds of KB-sized files
        # whose per-file overhead dominated every downstream read.
        n_files = max(1, n_clips // 2000)
        try:
            clips_dataset(n_clips, seed=seed).repartition(n_files).write_parquet(tmp)
            os.replace(tmp, path)
        except OSError:
            if not os.path.isdir(path):
                # Not a lost race: no winner exists, so surface the error
                # instead of failing later with a confusing read miss.
                raise
        finally:
            # A failed build (or a lost race) must not leak tmp dirs.
            shutil.rmtree(tmp, ignore_errors=True)
    return read_table(path, columns=columns)


def clips_count_for_sf_dir(sf_dir: str) -> int:
    """Scale the synthetic clips table with the test-data scale factor."""
    if "0.001" in sf_dir:
        return 1_000
    if "0.01" in sf_dir:
        return 10_000
    return 100_000
