"""WAV codec + SNR invariant."""

import numpy as np
import pytest

from engine.audio import (
    AudioDecodeError,
    check_clip_audio,
    decode_any,
    decode_wav,
    encode_wav,
    reference_signal,
    snr_db,
)


def test_pcm16_roundtrip_high_snr():
    sig = reference_signal("clip-x", 16000, 8000)
    raw = encode_wav(sig, 16000, "pcm16")
    decoded, sr = decode_wav(raw)
    assert sr == 16000 and decoded.size == 8000
    assert snr_db(sig, decoded) > 60


def test_pcm8_roundtrip_moderate_snr():
    sig = reference_signal("clip-y", 8000, 4000)
    raw = encode_wav(sig, 8000, "pcm8")
    decoded, sr = decode_wav(raw)
    assert 30 < snr_db(sig, decoded) < 60


def test_stub_codec_path():
    sig = reference_signal("clip-z", 8000, 1000)
    raw = encode_wav(sig, 8000, "opus")   # wav payload tagged opus
    decoded, sr = decode_any(raw, "opus")
    assert sr == 8000 and decoded.size == 1000
    with pytest.raises(NotImplementedError):
        decode_any(raw, "mp3")


def test_g711_tables_match_reference_and_roundtrip():
    """The computed mu-law/A-law expansion tables must be byte-identical to
    the classic CCITT reference (stdlib audioop — an independent public
    implementation), every decoded codeword must survive an
    encode(decode(b)) round trip, and companding a sine must land in the
    G.711 ballpark (~35-40 dB SNR)."""
    import warnings

    from engine.audio import (_ALAW_DECODE, _ULAW_DECODE, _g711_encode,
                              decode_any)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        import audioop
    ref_u = np.frombuffer(audioop.ulaw2lin(bytes(range(256)), 2), dtype="<i2")
    ref_a = np.frombuffer(audioop.alaw2lin(bytes(range(256)), 2), dtype="<i2")
    assert (_ULAW_DECODE == ref_u).all()
    assert (_ALAW_DECODE == ref_a).all()

    for table in (_ULAW_DECODE, _ALAW_DECODE):
        enc = _g711_encode(table.astype(np.int16), table)
        assert (table[enc] == table).all()

    sig = reference_signal("clip-g711", 8000, 8000)
    for codec in ("ulaw", "alaw"):
        raw = encode_wav(sig, 8000, codec)
        decoded, sr = decode_any(raw, codec)
        assert sr == 8000 and decoded.size == 8000
        assert 30 < snr_db(sig, decoded) < 60

    # sign-flip property used by the oracle corpus: b ^ 0x80 negates
    b = np.arange(256, dtype=np.int64)
    assert (_ULAW_DECODE[b ^ 0x80] == -_ULAW_DECODE[b]).all()
    assert (_ALAW_DECODE[b ^ 0x80] == -_ALAW_DECODE[b]).all()


def test_decode_rejects_garbage():
    with pytest.raises(AudioDecodeError):
        decode_wav(b"not audio at all")
    with pytest.raises(AudioDecodeError):
        decode_wav(b"RIFF....WAVE" + b"\0" * 40)


def test_check_clip_audio_verdicts():
    cid, sr, dur = "clip-ok", 16000, 500
    n = sr * dur // 1000
    good = encode_wav(reference_signal(cid, sr, n), sr, "pcm16")
    v = check_clip_audio(cid, good, sr, dur, "pcm16")
    assert v["audio_ok"] and v["snr_db"] > 30

    noise = encode_wav(np.random.default_rng(0).normal(0, 0.3, n).astype(np.float32), sr, "pcm16")
    v = check_clip_audio(cid, noise, sr, dur, "pcm16")
    assert not v["audio_ok"] and "low_snr" in v["audio_error"]

    v = check_clip_audio(cid, good[:30], sr, dur, "pcm16")
    assert not v["audio_ok"] and "decode" in v["audio_error"]

    v = check_clip_audio(cid, good, sr, dur + 100, "pcm16")
    assert not v["audio_ok"] and "duration_mismatch" in v["audio_error"]


# ------------------------------------------------------------------ IMA ADPCM


def test_ima_adpcm_core_matches_audioop():
    """The IMA nibble state machine must be byte-identical to stdlib
    audioop.adpcm2lin (an independent public Intel/DVI implementation;
    audioop consumes the HIGH nibble of each byte first, the WAV block
    layout the LOW — the comparison feeds both the same nibble SEQUENCE)."""
    audioop = pytest.importorskip("audioop")
    from engine.audio import ima_decode_nibbles

    rng = np.random.default_rng(1234)
    for trial in range(5):
        n = int(rng.integers(10, 2000)) * 2
        nibs = rng.integers(0, 16, size=n, dtype=np.uint8)
        packed = ((nibs[0::2] << 4) | nibs[1::2]).astype(np.uint8).tobytes()
        with np.errstate(all="ignore"):
            frag, _state = audioop.adpcm2lin(packed, 2, (0, 0))
        ref = np.frombuffer(frag, dtype=np.int16)
        mine = ima_decode_nibbles(
            nibs.reshape(1, -1), np.array([0]), np.array([0]))[0]
        assert np.array_equal(ref, mine)


def test_ima_adpcm_roundtrip_snr_and_layout():
    from engine.audio import encode_adpcm

    t = np.arange(16000, dtype=np.float64) / 16000
    sig = 0.5 * np.sin(2 * np.pi * 220 * t) + 0.2 * np.sin(2 * np.pi * 555 * t)
    pcm = np.round(sig * 32767).astype(np.int16)
    raw = encode_adpcm(pcm, 16000, block_align=256)
    dec, sr = decode_wav(raw)
    assert sr == 16000 and dec.size == pcm.size
    # 4-bit ADPCM on a smooth two-tone signal: well above the 30 dB bar.
    assert snr_db(pcm.astype(np.float32) / 32767.0, dec) > 35
    # Block headers carry the exact first sample of each block.
    spb = 2 * (256 - 4) + 1
    dec_i = np.round(dec * 32767.0).astype(np.int32)
    assert int(dec_i[0]) == int(pcm[0])
    assert int(dec_i[spb]) == int(pcm[spb])
    # ~4.06 bits/sample on the wire vs 16 raw.
    assert len(raw) < pcm.size


def test_ima_adpcm_edges_and_errors():
    from engine.audio import encode_adpcm

    for n in (0, 1, 2, 505, 506):
        p = (np.arange(n) % 7 * 100 - 300).astype(np.int16)
        d, _ = decode_wav(encode_adpcm(p, 8000, block_align=32))
        assert d.size == n
        if n:
            assert int(round(float(d[0]) * 32767)) == int(p[0])
    raw = encode_adpcm(np.zeros(100, dtype=np.int16), 8000, block_align=32)
    # Step index byte out of range must be a decode error, not garbage PCM.
    bad = bytearray(raw)
    data_at = raw.index(b"data") + 8
    bad[data_at + 2] = 200
    with pytest.raises(AudioDecodeError):
        decode_wav(bytes(bad))


def test_synth_adpcm_closed_form():
    """The oracle corpus contract: decoded stream is P, P+d, P, ... with the
    step pinned at 7 (engine/data/audio_synth.py:synth_adpcm)."""
    from engine.data.audio_synth import synth_adpcm

    d_of_m = {1: 1, 2: 3, 3: 4}
    for i in (0, 1, 4, 9, 14, 37, 4095):
        raw, codec = synth_adpcm(i)
        sig, _sr = decode_any(raw, codec)
        ba = 32 + 4 * (i % 8)
        spb = 2 * (ba - 4) + 1
        nb = 2 + (i % 3)
        trim = (1 + (i % 7)) if i % 5 == 4 else 0
        n = nb * spb - trim
        sign = 1 if i % 2 == 0 else -1
        p = sign * (10 + (i * 37) % 20000)
        d = d_of_m[1 + (i % 3)]
        assert sig.size == n
        ints = np.round(sig * 32767.0).astype(np.int32)
        expect = np.empty(nb * spb, dtype=np.int32)
        blk = np.full(spb, p)
        blk[1::2] = p + d
        expect[:] = np.tile(blk, nb)
        assert np.array_equal(ints, expect[:n])


def test_binary_views_are_zero_copy_slices():
    """binary_views hands out memoryviews INTO the Arrow data buffer (no
    per-row copy), honouring chunk offsets, nulls and both offset widths."""
    import pyarrow as pa

    from engine.stages import binary_views

    values = [b"RIFF....", None, b"", b"fLaC" * 3, b"x"]
    for typ in (pa.large_binary(), pa.binary()):
        arr = pa.array(values, typ)
        col = pa.chunked_array([arr.slice(1), pa.array([], typ), arr.slice(0, 2)])
        views = binary_views(col)
        assert [None if v is None else bytes(v) for v in views] == values[1:] + values[:2]
        data = arr.buffers()[2]
        for v, want in zip(views, values[1:]):
            if v is not None and len(v):
                addr = np.frombuffer(v, dtype=np.uint8).ctypes.data
                assert data.address <= addr < data.address + data.size
                assert v[0] == want[0]          # unsigned bytes, as with bytes
    assert binary_views(pa.chunked_array([], pa.large_binary())) == []


def test_audio_stage_verdicts_match_bytes_payloads():
    """AudioCheckStage on zero-copy views gives exactly the verdicts of
    check_clip_audio on bytes copies, defects (truncated, garbled, wrong
    duration, low SNR) included."""
    from engine.data.clips import make_clips_batch
    from engine.stages import AudioCheckStage

    t = make_clips_batch({"id": np.arange(1500)}, seed=11)
    out = AudioCheckStage()(t)
    blobs = t.column("bytes").to_pylist()
    want = [check_clip_audio(c, b, s, d, k) for c, b, s, d, k in zip(
        t.column("clip_id").to_pylist(), blobs, t.column("sr_hz").to_pylist(),
        t.column("dur_ms").to_pylist(), t.column("codec").to_pylist())]
    meta_ok = out.column("meta_ok").to_pylist()
    errors = out.column("audio_error").to_pylist()
    assert {e.split(":")[0] for e in errors if e} >= {"decode", "low_snr",
                                                       "duration_mismatch"}
    for i, (w, ok) in enumerate(zip(want, meta_ok)):
        if not ok:
            continue
        assert errors[i] == w["audio_error"], i
        assert out.column("audio_ok")[i].as_py() == w["audio_ok"], i
        snr = out.column("snr_db")[i].as_py()
        assert (snr is None or snr != snr) if w["snr_db"] is None else snr == w["snr_db"], i


def _batch_with_a_null_payload(codec: str):
    """Two clips of one codec: a NULL ``bytes`` cell, then a good payload."""
    import pyarrow as pa

    from engine.audio import encode_audio

    sr, dur_ms = 16_000, 250
    good = encode_audio(reference_signal("clip-1", sr, sr * dur_ms // 1000), sr, codec)
    batch = pa.table({
        "clip_id": ["clip-0", "clip-1"],
        "sr_hz": pa.array([sr, sr], pa.int64()),
        "dur_ms": pa.array([dur_ms, dur_ms], pa.int64()),
        "codec": [codec, codec],
        "bytes": pa.array([None, good], pa.large_binary()),
    })
    return batch, check_clip_audio("clip-1", good, sr, dur_ms, codec)


@pytest.mark.parametrize("codec", ["pcm16", "pcm8", "opus", "flac"])
def test_null_payload_fails_its_row_in_the_check_stage(codec):
    """A NULL payload is a decode error of its own row; the rest of the
    batch is checked as usual."""
    from engine.stages import AudioCheckStage

    batch, want = _batch_with_a_null_payload(codec)
    out = AudioCheckStage()(batch)
    assert out.column("audio_ok").to_pylist() == [False, want["audio_ok"]]
    assert out.column("audio_error").to_pylist() == ["decode: null payload",
                                                     want["audio_error"]]


@pytest.mark.parametrize("codec", ["pcm16", "pcm8", "opus", "flac"])
def test_null_payload_becomes_a_manifest_error_in_the_shard_sink(codec, tmp_path):
    """The shard sink writes a NULL-payload clip as a manifest row with a
    NULL shard and the decode error, and still packs the good clip."""
    from engine.io import AudioShardSink, read_shard_clip

    batch, _ = _batch_with_a_null_payload(codec)
    manifest = AudioShardSink(str(tmp_path))(batch).to_pylist()
    assert manifest[0]["shard"] is None
    assert manifest[0]["error"] == "decode: null payload"
    good = manifest[1]
    assert good["error"] is None and good["n_samples"] == 4_000
    raw = read_shard_clip(str(tmp_path), good["shard"], good["offset"], good["length"])
    assert raw[:4] == b"fLaC" and len(raw) == good["length"]
