"""Audio payload handling: synth, encode, decode, SNR invariant.

The clips table carries encoded audio as an opaque ``binary`` column
(BASELINE.json input_hint).  This module provides:

  - deterministic per-clip waveform synthesis (seeded by clip_id) so the
    validator can recompute the reference signal without shipping it;
  - a minimal RIFF/WAV encoder + vectorized decoder for PCM16 / PCM8
    (stdlib-free fast path: numpy.frombuffer on the data chunk);
  - REAL IMA/DVI ADPCM (vectorized block codec, below) and REAL FLAC
    (engine/flac.py — lossless, Rice-coded, CRC+MD5-verified);
  - stubbed decode for opus only — libopus is not in this container, so
    opus bytes are WAV payloads tagged with the codec name and decoded
    through a clearly-marked deterministic fake (`StubCodecDecoder`); the
    Ray-side plumbing (schema, actor signature, batch layout) is real;
  - the per-row invariant from the north rule: decoded-PCM allclose with
    SNR >= 30 dB against the recomputed reference signal.
"""

from __future__ import annotations

import numpy as np

PCM_CODECS = ("pcm16", "pcm8")
G711_CODECS = ("ulaw", "alaw")       # telephony companding, real decode below
ADPCM_CODECS = ("adpcm",)            # IMA/DVI ADPCM, real codec below
FLAC_CODECS = ("flac",)              # real lossless codec, engine/flac.py
STUB_CODECS = ("opus",)              # no libopus in this container
ALL_CODECS = PCM_CODECS + STUB_CODECS + FLAC_CODECS

_WAV_FMT = {"pcm16": (16, np.int16), "pcm8": (8, np.uint8)}

# WAVE format tags (public RIFF registry): 6 = G.711 A-law, 7 = G.711 mu-law,
# 0x11 = IMA/DVI ADPCM.
_WAVE_FMT_ALAW = 6
_WAVE_FMT_ULAW = 7
_WAVE_FMT_IMA_ADPCM = 0x11


def _g711_tables() -> tuple[np.ndarray, np.ndarray]:
    """256-entry int16 decode tables from the G.711 bit layout (public
    formula; byte-identical to the classic CCITT reference tables —
    verified against stdlib audioop in tests)."""
    u = np.arange(256, dtype=np.int32)
    c = (~u) & 0xFF                                   # mu-law: complement
    mag = ((((c & 0x0F) << 3) + 0x84) << ((c >> 4) & 7)) - 0x84
    ulaw = np.where(c & 0x80, -mag, mag).astype(np.int16)
    a = u ^ 0x55                                      # A-law: even-bit flip
    ea, ma = (a >> 4) & 7, a & 0x0F
    maga = np.where(ea == 0, (ma << 4) + 8,
                    ((ma << 4) + 0x108) << np.maximum(ea - 1, 0))
    alaw = np.where(a & 0x80, maga, -maga).astype(np.int16)
    return ulaw, alaw


_ULAW_DECODE, _ALAW_DECODE = _g711_tables()


def _g711_encode(pcm: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Nearest-codeword companding: for each int16 sample, the byte whose
    decoded value is closest (convention-proof inverse of the decode table;
    encode(decode(b)) == b for all 256 bytes by construction)."""
    order = np.argsort(table, kind="stable")
    sorted_vals = table[order].astype(np.int32)
    pos = np.searchsorted(sorted_vals, pcm.astype(np.int32))
    pos = np.clip(pos, 1, 255)
    left, right = sorted_vals[pos - 1], sorted_vals[pos]
    take_left = (pcm.astype(np.int32) - left) <= (right - pcm.astype(np.int32))
    idx = np.where(take_left, pos - 1, pos)
    return order[idx].astype(np.uint8)


# -------------------------------------------------------------- IMA ADPCM
#
# IMA/DVI ADPCM (WAVE format tag 0x11), the classic 4-bit block codec.  The
# tables and step/index update rules are the public IMA specification (the
# same algorithm stdlib ``audioop`` implements — the core decode is verified
# byte-exact against ``audioop.adpcm2lin`` in tests/test_audio.py).  The WAV
# block layout is the standard mono layout: per block a 4-byte header
# (int16 first sample, uint8 step index, reserved byte) followed by packed
# nibbles, LOW nibble first; samples_per_block = 2*(block_align-4) + 1.
#
# Scale note: blocks are self-contained (header carries the full predictor
# state), so decode vectorizes ACROSS blocks — the sequential recurrence
# runs once per sample-slot as a numpy op over all blocks of a clip at once
# (the same axis-flip that vectorizes PNG forward filtering in
# engine/image.py).  The encoder resets state per block for the same
# independence, picking each block's initial step index from the block's
# own mean |delta| (stored in the header, so any spec decoder reads it).

_IMA_STEP_TABLE = np.array([
    7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31,
    34, 37, 41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107, 118, 130, 143,
    157, 173, 190, 209, 230, 253, 279, 307, 337, 371, 408, 449, 494, 544,
    598, 658, 724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878,
    2066, 2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358, 5894,
    6484, 7132, 7845, 8630, 9493, 10442, 11487, 12635, 13899, 15289, 16818,
    18500, 20350, 22385, 24623, 27086, 29794, 32767], dtype=np.int32)

_IMA_INDEX_TABLE = np.array(
    [-1, -1, -1, -1, 2, 4, 6, 8] * 2, dtype=np.int32)


def ima_decode_nibbles(nibbles: np.ndarray, preds: np.ndarray,
                       idxs: np.ndarray) -> np.ndarray:
    """Core IMA decode: (nblocks, m) uint8 nibbles + per-block initial state
    → (nblocks, m) int16 samples.  Sequential over the sample axis,
    vectorized over the block axis."""
    nblocks, m = nibbles.shape
    preds = preds.astype(np.int32).copy()
    idxs = idxs.astype(np.int32).copy()
    out = np.empty((nblocks, m), dtype=np.int16)
    for j in range(m):
        d = nibbles[:, j].astype(np.int32)
        step = _IMA_STEP_TABLE[idxs]
        vpdiff = (step >> 3) + np.where(d & 4, step, 0) \
            + np.where(d & 2, step >> 1, 0) + np.where(d & 1, step >> 2, 0)
        preds = np.clip(np.where(d & 8, preds - vpdiff, preds + vpdiff),
                        -32768, 32767)
        idxs = np.clip(idxs + _IMA_INDEX_TABLE[d], 0, 88)
        out[:, j] = preds
    return out


def ima_encode_block(samples: np.ndarray, preds: np.ndarray,
                     idxs: np.ndarray) -> np.ndarray:
    """Core IMA encode: (nblocks, m) int samples (the samples AFTER each
    block's header sample) + per-block initial state → (nblocks, m) uint8
    nibbles.  Mirrors the decoder's state update exactly."""
    nblocks, m = samples.shape
    preds = preds.astype(np.int32).copy()
    idxs = idxs.astype(np.int32).copy()
    out = np.empty((nblocks, m), dtype=np.uint8)
    for j in range(m):
        step = _IMA_STEP_TABLE[idxs]
        delta = samples[:, j].astype(np.int32) - preds
        sign = delta < 0
        mag = np.abs(delta)
        b4 = mag >= step
        mag = np.where(b4, mag - step, mag)
        b2 = mag >= (step >> 1)
        mag = np.where(b2, mag - (step >> 1), mag)
        b1 = mag >= (step >> 2)
        nib = (np.where(sign, 8, 0) + np.where(b4, 4, 0)
               + np.where(b2, 2, 0) + np.where(b1, 1, 0)).astype(np.uint8)
        out[:, j] = nib
        d = nib.astype(np.int32)
        vpdiff = (step >> 3) + np.where(d & 4, step, 0) \
            + np.where(d & 2, step >> 1, 0) + np.where(d & 1, step >> 2, 0)
        preds = np.clip(np.where(d & 8, preds - vpdiff, preds + vpdiff),
                        -32768, 32767)
        idxs = np.clip(idxs + _IMA_INDEX_TABLE[d], 0, 88)
    return out


def encode_adpcm(pcm: np.ndarray, sr_hz: int, block_align: int = 256) -> bytes:
    """int16 mono PCM → RIFF/WAV IMA-ADPCM bytes (fmt tag 0x11).

    Each block stores its own (first sample, step index) header; the initial
    index per block is chosen from the block's mean |successive delta| so
    blocks encode independently (vectorized across blocks)."""
    pcm = np.asarray(pcm, dtype=np.int16)
    n = pcm.size
    if block_align < 5:
        raise ValueError("block_align must be >= 5")
    spb = 2 * (block_align - 4) + 1
    nblocks = max(1, -(-n // spb))
    padded = np.zeros(nblocks * spb, dtype=np.int16)
    padded[:n] = pcm
    if n:                                   # pad with the last real sample:
        padded[n:] = pcm[-1]                # zero-delta tail costs 0 signal
    mat = padded.reshape(nblocks, spb)
    heads = mat[:, 0].astype(np.int32)
    body = mat[:, 1:]
    # Initial step index per block: closest step to the mean |delta|.
    deltas = np.abs(np.diff(mat.astype(np.int32), axis=1))
    mean_d = deltas.mean(axis=1) if spb > 1 else np.zeros(nblocks)
    idx0 = np.searchsorted(_IMA_STEP_TABLE, mean_d).clip(0, 88).astype(np.int32)
    nibs = ima_encode_block(body, heads, idx0)
    # Pack: header (int16 pred, uint8 index, 0) + nibbles low-first.
    blocks = np.zeros((nblocks, block_align), dtype=np.uint8)
    blocks[:, 0] = (heads & 0xFF).astype(np.uint8)
    blocks[:, 1] = ((heads >> 8) & 0xFF).astype(np.uint8)
    blocks[:, 2] = idx0.astype(np.uint8)
    lo = nibs[:, 0::2]
    hi = nibs[:, 1::2]
    packed = lo.copy()
    packed[:, :hi.shape[1]] |= hi << 4
    blocks[:, 4:4 + packed.shape[1]] = packed
    data = blocks.tobytes()
    byte_rate = max(1, sr_hz * block_align // max(1, spb))
    fmt = (
        _WAVE_FMT_IMA_ADPCM.to_bytes(2, "little")
        + (1).to_bytes(2, "little")            # mono
        + sr_hz.to_bytes(4, "little")
        + byte_rate.to_bytes(4, "little")
        + block_align.to_bytes(2, "little")
        + (4).to_bytes(2, "little")            # bits per (coded) sample
        + (2).to_bytes(2, "little")            # cbSize
        + spb.to_bytes(2, "little")            # wSamplesPerBlock
    )
    fact = b"fact" + (4).to_bytes(4, "little") + n.to_bytes(4, "little")
    body_chunks = (b"fmt " + len(fmt).to_bytes(4, "little") + fmt + fact
                   + b"data" + len(data).to_bytes(4, "little") + data)
    return (b"RIFF" + (4 + len(body_chunks)).to_bytes(4, "little") + b"WAVE"
            + body_chunks)


def _decode_adpcm_data(data: bytes, block_align: int,
                       total_samples: int | None) -> np.ndarray:
    """IMA-ADPCM data chunk → int16 samples (vectorized across blocks)."""
    if block_align < 5:
        raise AudioDecodeError(f"bad ADPCM block_align={block_align}")
    if not data:
        return np.zeros(0, dtype=np.int16)
    raw = np.frombuffer(data, dtype=np.uint8)
    nblocks = -(-raw.size // block_align)
    padded = np.zeros(nblocks * block_align, dtype=np.uint8)
    padded[:raw.size] = raw
    blocks = padded.reshape(nblocks, block_align)
    if raw.size % block_align and raw.size % block_align < 4:
        raise AudioDecodeError("truncated ADPCM block header")
    preds = (blocks[:, 0].astype(np.int32)
             | (blocks[:, 1].astype(np.int32) << 8))
    preds = np.where(preds >= 0x8000, preds - 0x10000, preds)
    idxs = blocks[:, 2].astype(np.int32)
    if (idxs > 88).any():
        raise AudioDecodeError("ADPCM step index out of range")
    nib_bytes = blocks[:, 4:]
    nibs = np.empty((nblocks, 2 * nib_bytes.shape[1]), dtype=np.uint8)
    nibs[:, 0::2] = nib_bytes & 0x0F
    nibs[:, 1::2] = nib_bytes >> 4
    body = ima_decode_nibbles(nibs, preds, idxs)
    spb = 1 + 2 * (block_align - 4)
    out = np.empty((nblocks, spb), dtype=np.int16)
    out[:, 0] = preds.astype(np.int16)
    out[:, 1:] = body
    flat = out.reshape(-1)
    if total_samples is not None:
        if total_samples > flat.size:
            raise AudioDecodeError(
                f"ADPCM fact promises {total_samples} samples, "
                f"payload holds {flat.size}")
        return flat[:total_samples]
    return flat


# ----------------------------------------------------------------- synthesis


def clip_seed(clip_id: str) -> int:
    """Stable 64-bit seed from a clip id (no Python hash randomization)."""
    h = np.uint64(1469598103934665603)
    for b in clip_id.encode():
        h = np.uint64((int(h) ^ b) * 1099511628211 & 0xFFFFFFFFFFFFFFFF)
    return int(h)


def reference_signal(clip_id: str, sr_hz: int, n_samples: int) -> np.ndarray:
    """Deterministic float32 waveform in [-1, 1] for a clip id.

    Computed in float32 end-to-end: this function runs twice per clip (once in
    the generator, once in the validator) and is the audio stage's hot loop.
    """
    rng = np.random.default_rng(clip_seed(clip_id))
    f0 = rng.uniform(80.0, 1200.0)
    f1 = f0 * rng.uniform(1.5, 3.0)
    a0, a1 = np.float32(rng.uniform(0.3, 0.6)), np.float32(rng.uniform(0.1, 0.3))
    t = np.arange(n_samples, dtype=np.float32) * np.float32(1.0 / sr_hz)
    sig = a0 * np.sin(np.float32(2 * np.pi * f0) * t) + a1 * np.sin(np.float32(2 * np.pi * f1) * t)
    sig += rng.standard_normal(n_samples, dtype=np.float32) * np.float32(0.01)
    return np.clip(sig, -1.0, 1.0)


# -------------------------------------------------------------------- encode


def _wav_container(data: bytes, sr_hz: int, bits: int, fmt_tag: int) -> bytes:
    byte_rate = sr_hz * bits // 8
    return (
        b"RIFF" + (36 + len(data)).to_bytes(4, "little") + b"WAVE"
        + b"fmt " + (16).to_bytes(4, "little")
        + fmt_tag.to_bytes(2, "little")
        + (1).to_bytes(2, "little")              # mono
        + sr_hz.to_bytes(4, "little")
        + byte_rate.to_bytes(4, "little")
        + (bits // 8).to_bytes(2, "little")
        + bits.to_bytes(2, "little")
        + b"data" + len(data).to_bytes(4, "little")
    ) + data


def encode_wav(signal: np.ndarray, sr_hz: int, codec: str = "pcm16") -> bytes:
    """float [-1,1] → RIFF/WAV bytes (PCM16, PCM8, or G.711 ulaw/alaw)."""
    if codec in G711_CODECS:
        pcm = np.round(signal * 32767.0).astype(np.int16)
        table = _ULAW_DECODE if codec == "ulaw" else _ALAW_DECODE
        tag = _WAVE_FMT_ULAW if codec == "ulaw" else _WAVE_FMT_ALAW
        return _wav_container(_g711_encode(pcm, table).tobytes(), sr_hz, 8, tag)
    bits, dtype = _WAV_FMT["pcm16" if codec in STUB_CODECS else codec]
    if bits == 16:
        pcm = np.round(signal * 32767.0).astype(np.int16)
    else:
        pcm = np.round((signal * 0.5 + 0.5) * 255.0).astype(np.uint8)
    return _wav_container(pcm.tobytes(), sr_hz, bits, 1)


# -------------------------------------------------------------------- decode


class AudioDecodeError(ValueError):
    pass


def decode_wav(raw: bytes) -> tuple[np.ndarray, int]:
    """WAV bytes → (float32 signal in [-1,1], sample_rate).  Raises AudioDecodeError."""
    if len(raw) < 44 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise AudioDecodeError("not a RIFF/WAVE payload")
    # Walk chunks (fmt may not be first in the wild).
    pos = 12
    fmt = None
    data = None
    fact_samples = None
    while pos + 8 <= len(raw):
        cid = bytes(raw[pos:pos + 4])
        size = int.from_bytes(raw[pos + 4:pos + 8], "little")
        body = raw[pos + 8:pos + 8 + size]
        if len(body) < size:
            # Chunk size field promises more bytes than exist: a truncated
            # payload is a DECODE error, not a shorter-but-valid clip that
            # would be misread as a duration mismatch.
            raise AudioDecodeError(f"truncated {cid!r} chunk: {len(body)} < {size}")
        if cid == b"fmt ":
            fmt = body
        elif cid == b"data":
            data = body
        elif cid == b"fact" and size >= 4:
            fact_samples = int.from_bytes(body[0:4], "little")
        pos += 8 + size + (size & 1)
    if fmt is None or data is None or len(fmt) < 16:
        raise AudioDecodeError("missing fmt/data chunk")
    audio_format = int.from_bytes(fmt[0:2], "little")
    channels = int.from_bytes(fmt[2:4], "little")
    sr_hz = int.from_bytes(fmt[4:8], "little")
    bits = int.from_bytes(fmt[14:16], "little")
    if channels != 1:
        raise AudioDecodeError(f"unsupported wav channels={channels}")
    if audio_format in (_WAVE_FMT_ULAW, _WAVE_FMT_ALAW):
        if bits != 8:
            raise AudioDecodeError(f"G.711 requires 8-bit samples, got {bits}")
        table = (_ULAW_DECODE if audio_format == _WAVE_FMT_ULAW
                 else _ALAW_DECODE)
        sig = table[np.frombuffer(data, dtype=np.uint8)].astype(np.float32) / 32767.0
        if sr_hz <= 0:
            raise AudioDecodeError("invalid sample rate")
        return sig, sr_hz
    if audio_format == _WAVE_FMT_IMA_ADPCM:
        if bits != 4:
            raise AudioDecodeError(f"IMA ADPCM requires 4-bit samples, got {bits}")
        block_align = int.from_bytes(fmt[12:14], "little")
        pcm = _decode_adpcm_data(data, block_align, fact_samples)
        if sr_hz <= 0:
            raise AudioDecodeError("invalid sample rate")
        return pcm.astype(np.float32) / 32767.0, sr_hz
    if audio_format != 1:
        raise AudioDecodeError(f"unsupported wav format={audio_format}")
    if bits == 16:
        if len(data) % 2:
            raise AudioDecodeError("odd PCM16 data length")
        sig = np.frombuffer(data, dtype=np.int16).astype(np.float32) / 32767.0
    elif bits == 8:
        sig = (np.frombuffer(data, dtype=np.uint8).astype(np.float32) / 255.0 - 0.5) * 2.0
    else:
        raise AudioDecodeError(f"unsupported bit depth {bits}")
    if sr_hz <= 0:
        raise AudioDecodeError("invalid sample rate")
    return sig, sr_hz


class StubCodecDecoder:
    """Deterministic FAKE decoder for the one remaining stub codec (opus).

    libopus is not installed in this environment; in this corpus,
    opus-tagged rows carry a WAV payload, so the stub simply strips the tag
    and decodes WAV.  Swap this class for a real binding (e.g. pyogg) in
    production — the actor-pool stage signature stays identical.  (flac is
    REAL — engine/flac.py — and dispatches by container magic below.)
    """

    def __init__(self, codec: str) -> None:
        if codec not in STUB_CODECS:
            raise NotImplementedError(f"no decoder for codec {codec!r}")
        self.codec = codec

    def decode(self, raw: bytes) -> tuple[np.ndarray, int]:
        return decode_wav(raw)


def decode_flac_signal(raw: bytes) -> tuple[np.ndarray, int]:
    """Real FLAC decode (engine/flac.py) → float32 signal in [-1, 1]."""
    from engine.flac import decode_flac

    pcm, sr_hz = decode_flac(raw)
    return pcm.astype(np.float32) / 32767.0, sr_hz


def encode_audio(signal: np.ndarray, sr_hz: int, codec: str) -> bytes:
    """float [-1,1] → encoded bytes in the named codec's REAL container
    (WAV family, IMA-ADPCM, or FLAC; opus falls back to the WAV stub)."""
    if codec == "flac":
        from engine.flac import encode_flac

        return encode_flac(np.round(signal * 32767.0).astype(np.int16), sr_hz)
    if codec in ADPCM_CODECS:
        return encode_adpcm(np.round(signal * 32767.0).astype(np.int16), sr_hz)
    return encode_wav(signal, sr_hz, codec)


def decode_any(raw: bytes, codec: str) -> tuple[np.ndarray, int]:
    if raw is None:                     # a NULL cell of the bytes column
        raise AudioDecodeError("null payload")
    if codec in PCM_CODECS or codec in G711_CODECS or codec in ADPCM_CODECS:
        return decode_wav(raw)
    if codec == "flac":
        if raw[:4] == b"fLaC":
            return decode_flac_signal(raw)
        # Legacy corpora tag WAV payloads "flac"; a truncated real-FLAC
        # payload that lost its magic is still a decode error (short
        # streams fail the RIFF sniff in decode_wav).
        return decode_wav(raw)
    if codec in STUB_CODECS:
        return StubCodecDecoder(codec).decode(raw)
    raise NotImplementedError(f"no decoder for codec {codec!r}")


# ------------------------------------------------------------------ invariant


def snr_db(reference: np.ndarray, decoded: np.ndarray) -> float:
    """Signal-to-noise ratio of decoded vs reference, in dB."""
    n = min(reference.size, decoded.size)
    if n == 0:
        return -np.inf
    ref = reference[:n].astype(np.float64)
    err = ref - decoded[:n].astype(np.float64)
    p_sig = float(np.mean(ref ** 2))
    p_err = float(np.mean(err ** 2))
    if p_err == 0.0:
        return np.inf
    if p_sig == 0.0:
        return -np.inf
    return 10.0 * np.log10(p_sig / p_err)


def check_clip_audio(clip_id: str, raw: bytes, sr_hz: int, dur_ms: int, codec: str,
                     min_snr_db: float = 30.0) -> dict:
    """Full audio invariant for one row.  Returns a verdict dict (never raises).

    ``raw`` is bytes or an unsigned-byte memoryview of them (the decoders
    only slice, index and ``np.frombuffer`` it)."""
    out = {"audio_ok": False, "snr_db": None, "audio_error": None}
    try:
        decoded, wav_sr = decode_any(raw, codec)
    except (AudioDecodeError, NotImplementedError) as exc:
        out["audio_error"] = f"decode: {exc}"
        return out
    if wav_sr != sr_hz:
        out["audio_error"] = f"sr_mismatch: wav={wav_sr} column={sr_hz}"
        return out
    expected_samples = int(round(sr_hz * dur_ms / 1000.0))
    if decoded.size != expected_samples:
        out["audio_error"] = f"duration_mismatch: samples={decoded.size} expected={expected_samples}"
        return out
    ref = reference_signal(clip_id, sr_hz, expected_samples)
    s = snr_db(ref, decoded)
    out["snr_db"] = float(s) if np.isfinite(s) else (1e9 if s > 0 else -1e9)
    if s < min_snr_db:
        out["audio_error"] = f"low_snr: {s:.1f} dB"
        return out
    out["audio_ok"] = True
    return out
