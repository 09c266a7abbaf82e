"""FLAC subset codec (engine/flac.py, RFC 9639).

Encoder-path coverage via lossless roundtrips; decoder-only paths (LPC,
rice2 method, partition orders, escaped partitions, wasted bits) via
hand-crafted bitstreams checked against independently-computed expected
samples."""

import hashlib

import numpy as np
import pytest

from engine.audio import AudioDecodeError
from engine.flac import (
    _BitReader,
    _decode_residual,
    _rice_bits,
    _signed_bits_vec,
    _uint_bits,
    _utf8_number,
    crc8,
    crc16,
    decode_flac,
    encode_flac,
)


def test_roundtrip_exact_classes():
    rng = np.random.default_rng(42)
    t = np.arange(30000) / 16000
    cases = [
        np.zeros(5000, np.int16),                       # CONSTANT
        np.full(3, 7, np.int16),                        # tiny block
        np.zeros(0, np.int16),                          # empty stream
        rng.integers(-32768, 32768, 10000).astype(np.int16),  # VERBATIM-ish
        np.array([-32768, 32767] * 700, np.int16),      # full-range toggle
        np.round(0.5 * np.sin(2 * np.pi * 220 * t) * 32767).astype(np.int16),
        (rng.integers(-2000, 2000, 4096).cumsum() % 30000 - 15000).astype(np.int16),
    ]
    for sig in cases:
        dec, sr = decode_flac(encode_flac(sig, 8000))
        assert sr == 8000
        assert np.array_equal(sig, dec)


def test_roundtrip_property_random_walks():
    rng = np.random.default_rng(7)
    for trial in range(10):
        n = int(rng.integers(1, 9000))
        scale = int(rng.integers(1, 3000))
        sig = np.clip(rng.integers(-scale, scale + 1, n).cumsum(),
                      -32768, 32767).astype(np.int16)
        dec, _ = decode_flac(encode_flac(sig, 16000))
        assert np.array_equal(sig, dec)


def test_compression_beats_raw_on_tonal():
    t = np.arange(100000) / 16000
    sig = np.round(0.6 * np.sin(2 * np.pi * 330 * t) * 32767).astype(np.int16)
    raw = encode_flac(sig, 16000)
    assert len(raw) < 0.6 * sig.size * 2


def test_truncation_and_corruption_detected():
    t = np.arange(30000) / 16000
    sig = np.round(0.5 * np.sin(2 * np.pi * 220 * t) * 32767).astype(np.int16)
    raw = encode_flac(sig, 16000)
    for cut in (10, len(raw) // 2, len(raw) - 3):
        with pytest.raises(AudioDecodeError):
            decode_flac(raw[:cut])
    bad = bytearray(raw)
    bad[len(raw) // 2] ^= 0x40
    with pytest.raises(AudioDecodeError):
        decode_flac(bytes(bad))


def _make_stream(subframe_bits: np.ndarray, blocksize: int,
                 expected: np.ndarray, sr: int = 8000) -> bytes:
    """Wrap crafted subframe bits into a 1-frame FLAC file whose STREAMINFO
    MD5 matches ``expected`` (so decode also exercises the MD5 gate)."""
    md5 = hashlib.md5(expected.astype("<i2").tobytes()).digest()
    info = np.concatenate([
        _uint_bits(blocksize, 16), _uint_bits(blocksize, 16),
        _uint_bits(0, 24), _uint_bits(0, 24),
        _uint_bits(sr, 20), _uint_bits(0, 3), _uint_bits(15, 5),
        _uint_bits(expected.size, 36)])
    info_bytes = np.packbits(info).tobytes() + md5
    head = (b"fLaC" + bytes([0x80]) + len(info_bytes).to_bytes(3, "big")
            + info_bytes)
    hdr = bytearray([0xFF, 0xF8, (0b0111 << 4) | 0b0000,
                     (0b0000 << 4) | (0b100 << 1)])
    hdr += _utf8_number(0)
    hdr += int(blocksize - 1).to_bytes(2, "big")
    hdr.append(crc8(bytes(hdr)))
    bits = np.concatenate(
        [np.unpackbits(np.frombuffer(bytes(hdr), dtype=np.uint8)),
         subframe_bits])
    if bits.size % 8:
        bits = np.concatenate([bits, np.zeros(8 - bits.size % 8, np.uint8)])
    frame = np.packbits(bits).tobytes()
    return head + frame + crc16(frame).to_bytes(2, "big")


def test_decode_lpc_subframe():
    """LPC is decoder-only (the encoder emits FIXED): craft an order-2 LPC
    subframe and check against an independent integer recurrence."""
    order, prec, shift = 2, 15, 5
    coefs = [40, -20]                                 # stable: |poles| < 1
    warm = np.array([1200, -800], dtype=np.int64)
    rng = np.random.default_rng(3)
    resid = rng.integers(-50, 50, 30).astype(np.int64)
    expected = warm.tolist()
    for r in resid.tolist():
        acc = coefs[0] * expected[-1] + coefs[1] * expected[-2]
        expected.append(int(r) + (acc >> shift))
    expected = np.array(expected, dtype=np.int16)
    blocksize = expected.size
    k = 7
    sub = np.concatenate([
        _uint_bits(((32 + order - 1) << 1) | 0, 8),   # pad+LPC(order)+no waste
        _signed_bits_vec(warm, 16),
        _uint_bits(prec - 1, 4), _uint_bits(shift, 5),
        _signed_bits_vec(np.array(coefs), prec),
        _uint_bits(0, 2), _uint_bits(0, 4),           # rice method 0, porder 0
        _uint_bits(k, 4), _rice_bits(resid, k)])
    dec, _ = decode_flac(_make_stream(sub, blocksize, expected))
    assert np.array_equal(dec, expected)


def test_decode_rice2_partitions_and_escape():
    """Decoder-only residual features: 5-bit rice2 params, partition order 2,
    and one escaped (raw 9-bit) partition."""
    blocksize = 16
    resid = np.arange(-8, 8, dtype=np.int64) * 9
    parts = [resid[0:4], resid[4:8], resid[8:12], resid[12:16]]
    pieces = [
        _uint_bits(0b0_001000_0, 8),                  # FIXED order 0
        _uint_bits(1, 2),                             # rice2 method
        _uint_bits(2, 4),                             # partition order 2
    ]
    for pi, pr in enumerate(parts):
        if pi == 2:
            pieces.append(_uint_bits(31, 5))          # escape
            pieces.append(_uint_bits(9, 5))           # raw bits per sample
            pieces.append(_signed_bits_vec(pr, 9))
        else:
            pieces.append(_uint_bits(4, 5))
            pieces.append(_rice_bits(pr, 4))
    expected = resid.astype(np.int16)
    dec, _ = decode_flac(_make_stream(np.concatenate(pieces),
                                      blocksize, expected))
    assert np.array_equal(dec, expected)


def test_decode_wasted_bits_constant():
    """Wasted-bits shift: CONSTANT subframe at ebps=14 with 2 wasted bits
    decodes to value << 2."""
    blocksize = 12
    v = -733
    expected = np.full(blocksize, v << 2, dtype=np.int16)
    sub = np.concatenate([
        _uint_bits(0b0_000000_1, 8),                  # CONSTANT + wasted flag
        np.array([0, 1], dtype=np.uint8),             # unary: wasted-1 = 1
        _signed_bits_vec(np.array([v]), 14)])
    dec, _ = decode_flac(_make_stream(sub, blocksize, expected))
    assert np.array_equal(dec, expected)


def test_md5_gate():
    """A stream whose STREAMINFO MD5 disagrees with the decoded PCM must be
    rejected (validation-tier integrity check)."""
    sig = np.arange(100, dtype=np.int16)
    raw = bytearray(encode_flac(sig, 8000))
    # STREAMINFO md5 lives at bytes 8+18 .. 8+34; flip one bit.
    raw[8 + 20] ^= 1
    with pytest.raises(AudioDecodeError, match="MD5"):
        decode_flac(bytes(raw))


def test_rejects_multichannel_and_bad_magic():
    with pytest.raises(AudioDecodeError):
        decode_flac(b"RIFFxxxxWAVE")
    sig = np.arange(64, dtype=np.int16)
    raw = bytearray(encode_flac(sig, 8000))
    # channels field: STREAMINFO bit offset 100..102 lives in byte 8+12,
    # in-byte bits 4..6 MSB-first.  Set channels-1 = 2 (3 channels).
    raw[8 + 12] |= 0b00000100
    with pytest.raises(AudioDecodeError, match="channels"):
        decode_flac(bytes(raw))


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(st.integers(-32768, 32767), min_size=0, max_size=3000),
    sr=st.sampled_from([8000, 16000, 44100]),
    blocksize=st.sampled_from([192, 1024, 4096]),
)
def test_flac_roundtrip_hypothesis(data, sr, blocksize):
    """Lossless for ANY int16 sequence, any blocksize, any rate."""
    sig = np.array(data, dtype=np.int16)
    dec, dsr = decode_flac(encode_flac(sig, sr, blocksize=blocksize))
    assert dsr == sr
    assert np.array_equal(dec, sig)


@settings(max_examples=40, deadline=None)
@given(
    nibbles=st.lists(st.integers(0, 15), min_size=2, max_size=2000),
    pred0=st.integers(-32768, 32767),
    idx0=st.integers(0, 88),
)
def test_ima_core_matches_audioop_hypothesis(nibbles, pred0, idx0):
    """The IMA state machine agrees with stdlib audioop from ANY initial
    (predictor, step index) state, not just (0, 0)."""
    audioop = pytest.importorskip("audioop")
    from engine.audio import ima_decode_nibbles

    nibs = np.array(nibbles[:len(nibbles) & ~1], dtype=np.uint8)
    packed = ((nibs[0::2] << 4) | nibs[1::2]).astype(np.uint8).tobytes()
    with np.errstate(all="ignore"):
        frag, _ = audioop.adpcm2lin(packed, 2, (pred0, idx0))
    ref = np.frombuffer(frag, dtype=np.int16)
    mine = ima_decode_nibbles(nibs.reshape(1, -1),
                              np.array([pred0]), np.array([idx0]))[0]
    assert np.array_equal(ref, mine)


# ------------------------------------------------------------------ stereo


def _first_frame_assignment(raw: bytes) -> int:
    """Channel-assignment nibble of the first frame (header byte 3)."""
    # fLaC + 4-byte block header + 34-byte STREAMINFO = frame start at 42
    assert raw[42:44] == b"\xFF\xF8"
    return raw[45] >> 4


def test_stereo_roundtrip_and_mode_selection():
    """Each RFC 9639 decorrelation mode is selected when it is strictly
    cheapest, and every mode round-trips losslessly."""
    rng = np.random.default_rng(11)
    n = 6000
    noise = rng.integers(-30000, 30000, n).astype(np.int16)
    small = rng.integers(-100, 100, n).astype(np.int16)

    # independent: two unrelated full-range channels
    indep = np.stack([noise, rng.integers(-30000, 30000, n)], 1).astype(np.int16)
    # left/side: identical channels -> side == 0
    ls = np.stack([noise, noise], 1)
    # right/side: cheap right (constant), noisy-but-correlated left
    rs = np.stack([(small + 777).astype(np.int16),
                   np.full(n, 777, np.int16)], 1)
    # mid/side: anti-correlated -> mid ~ 0, side = 2x
    ms = np.stack([small, (-small.astype(np.int32)).astype(np.int16)], 1)

    expect = {0b0001: indep, 0b1000: ls, 0b1001: rs, 0b1010: ms}
    for nibble, pcm in expect.items():
        raw = encode_flac(pcm, 16000)
        assert _first_frame_assignment(raw) == nibble, hex(nibble)
        dec, sr = decode_flac(raw)
        assert sr == 16000
        assert dec.shape == pcm.shape
        assert np.array_equal(dec, pcm)


def test_stereo_extreme_side_amplitude():
    """side = L - R spans the full 17-bit range; must stay lossless."""
    n = 2000
    pcm = np.stack([np.full(n, -32768, np.int16),
                    np.full(n, 32767, np.int16)], 1)
    dec, _ = decode_flac(encode_flac(pcm, 8000))
    assert np.array_equal(dec, pcm)


def test_stereo_empty_and_single_sample():
    for n in (0, 1, 3):
        pcm = np.arange(2 * n, dtype=np.int16).reshape(n, 2)
        dec, _ = decode_flac(encode_flac(pcm, 8000))
        assert dec.shape == (n, 2)
        assert np.array_equal(dec, pcm)


def test_stereo_md5_gate():
    pcm = np.stack([np.arange(512, dtype=np.int16),
                    np.arange(512, dtype=np.int16)[::-1]], 1)
    raw = bytearray(encode_flac(pcm, 8000))
    raw[8 + 18] ^= 0xFF                          # corrupt stored MD5
    with pytest.raises(AudioDecodeError, match="MD5"):
        decode_flac(bytes(raw))


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(st.tuples(st.integers(-32768, 32767),
                            st.integers(-32768, 32767)),
                  min_size=0, max_size=1500),
    blocksize=st.sampled_from([192, 1024, 4096]),
)
def test_flac_stereo_roundtrip_hypothesis(data, blocksize):
    """Lossless for ANY stereo int16 sequence regardless of which
    decorrelation mode each frame picks."""
    pcm = np.array(data, dtype=np.int16).reshape(-1, 2)
    dec, _ = decode_flac(encode_flac(pcm, 16000, blocksize=blocksize))
    assert dec.shape == pcm.shape
    assert np.array_equal(dec, pcm)


def test_flac_stereo_feature_stage_closed_form():
    """Stage-level twin of the flac_stereo_features oracle: lossless RMS
    per channel + the pinned decorrelation assignment, no Ray session."""
    import pyarrow as pa

    from engine.data.audio_synth import SRS, synth_flac_stereo_batch
    from engine.ops.multimodal import FlacStereoFeatureStage

    ids = list(range(24))
    batch = synth_flac_stereo_batch(pa.table({"id": pa.array(ids, pa.int64())}))
    out = FlacStereoFeatureStage()(batch).to_pandas()
    assert out.decode_ok.all()
    expect_assign = {0: 8, 1: 10, 2: 9, 3: 1}
    for _, row in out.iterrows():
        i = int(row.aud_id)
        c = i % 4
        sr = SRS[i % 4]
        n = sr * (100 + (i * 37) % 400) // 1000
        assert row.n_samples == n
        assert row.assignment == expect_assign[c]
        a = 40 + (i % 50) * 7
        bb = 500 + (i % 40) * 9
        p = 2000 + (i % 30) * 50
        q = 50 + (i % 20) * 3
        hi = (n + 1) // 2
        if c == 2:
            ssl = hi * (bb + a) ** 2 + (n - hi) * (bb - a) ** 2
            ssr = n * bb ** 2
        elif c == 3:
            ssl, ssr = n * p ** 2, n * q ** 2
        else:
            ssl = ssr = n * a ** 2
        assert abs(row.rms_l - np.sqrt(ssl / n) / 32767.0) < 1e-12
        assert abs(row.rms_r - np.sqrt(ssr / n) / 32767.0) < 1e-12


def test_flac_stereo_feature_stage_rejects_mono_and_garbage():
    import pyarrow as pa

    from engine.ops.multimodal import FlacStereoFeatureStage

    mono = encode_flac(np.arange(64, dtype=np.int16), 8000)
    batch = pa.table({
        "aud_id": pa.array([0, 1], pa.int64()),
        "codec": pa.array(["flac", "flac"]),
        "bytes": pa.array([mono, b"not flac"], pa.large_binary()),
    })
    out = FlacStereoFeatureStage()(batch).to_pandas()
    assert not out.decode_ok.any()


def _zero_total_samples(raw: bytes) -> bytes:
    """Patch STREAMINFO total_samples (bits 108..144 of the body) to 0 —
    RFC 9639's 'unknown' marker, as written by streaming encoders."""
    assert raw[:4] == b"fLaC"
    body_at = 8                       # fLaC + 4-byte first metadata header
    b = bytearray(raw)
    b[body_at + 13] &= 0xF0
    b[body_at + 14:body_at + 18] = b"\x00" * 4
    return bytes(b)


def test_unknown_total_samples_decodes_full_stream():
    rng = np.random.default_rng(7)
    for pcm in (
        rng.integers(-300, 300, 12_345).astype(np.int16),            # mono
        rng.integers(-300, 300, (9_001, 2)).astype(np.int16),        # stereo
    ):
        raw = _zero_total_samples(encode_flac(pcm, 16_000))
        got, sr = decode_flac(raw)
        assert sr == 16_000
        np.testing.assert_array_equal(got, pcm)


def test_unknown_total_with_trailing_garbage_raises():
    pcm = np.arange(4_000, dtype=np.int16)
    raw = _zero_total_samples(encode_flac(pcm, 16_000)) + b"\x00garbage"
    with pytest.raises(AudioDecodeError):
        decode_flac(raw)


def _crc_bitwise(data: bytes, poly: int, width: int) -> int:
    """MSB-first CRC, zero init, one bit at a time (the definition)."""
    top, mask = 1 << (width - 1), (1 << width) - 1
    r = 0
    for byte in data:
        r ^= byte << (width - 8)
        for _ in range(8):
            r = ((r << 1) ^ poly) & mask if r & top else (r << 1) & mask
    return r


def test_crc_matches_bitwise_reference_at_chunk_edges():
    """crc16 hashes whole 64-byte chunks in numpy and the tail byte by byte;
    every split of a message into chunks and tail must agree with the
    definition, including the empty message and one byte either side of
    each chunk edge."""
    rng = np.random.default_rng(11)
    lengths = list(range(0, 200)) + [255, 256, 257, 4095, 4096, 4097, 5000]
    for n in lengths:
        data = rng.integers(0, 256, n, dtype=np.uint8).tobytes()
        assert crc16(data) == _crc_bitwise(data, 0x8005, 16), n
        assert crc8(data) == _crc_bitwise(data, 0x07, 8), n
    for data in (bytes(5000), b"\xff" * 5000):
        assert crc16(data) == _crc_bitwise(data, 0x8005, 16)
        assert crc8(data) == _crc_bitwise(data, 0x07, 8)


@settings(max_examples=60, deadline=None)
@given(data=st.binary(min_size=0, max_size=5000))
def test_crc_matches_bitwise_reference_hypothesis(data):
    assert crc16(data) == _crc_bitwise(data, 0x8005, 16)
    assert crc8(data) == _crc_bitwise(data, 0x07, 8)


def test_every_one_bit_flip_in_a_frame_is_rejected():
    """A VERBATIM frame decodes whatever its sample bits say, so only the
    frame CRC-16 can catch a flipped sample bit: every single-bit flip in the
    samples or the CRC-16 itself must fail with a CRC-16 mismatch, and every
    flip in the frame or subframe header must fail too."""
    rng = np.random.default_rng(5)
    expected = rng.integers(-32768, 32768, 100).astype(np.int16)
    sub = np.concatenate([_uint_bits(0b0_000001_0, 8),     # VERBATIM, no waste
                          _signed_bits_vec(expected.astype(np.int64), 16)])
    raw = _make_stream(sub, expected.size, expected)
    dec, _ = decode_flac(raw)
    assert np.array_equal(dec, expected)
    frame_start = 42                                   # fLaC + STREAMINFO block
    samples_start = frame_start + 8 + 1                # frame + subframe header
    assert len(raw) - frame_start > 3 * 64             # spans several CRC chunks
    for byte in range(frame_start, len(raw)):
        for bit in range(8):
            bad = bytearray(raw)
            bad[byte] ^= 1 << bit
            if byte >= samples_start:
                with pytest.raises(AudioDecodeError, match="CRC-16"):
                    decode_flac(bytes(bad))
            else:
                with pytest.raises(AudioDecodeError):
                    decode_flac(bytes(bad))


# ------------------------------------------------ Rice reader vs the definition


class _ScalarBits:
    """The definition: one bit at a time, MSB first."""

    def __init__(self, bits: np.ndarray) -> None:
        self.bits = bits.tolist()
        self.pos = 0

    def bit(self) -> int:
        self.pos += 1
        return self.bits[self.pos - 1]

    def uint(self, n: int) -> int:
        v = 0
        for _ in range(n):
            v = (v << 1) | self.bit()
        return v


def _scalar_residual(bits: np.ndarray, blocksize: int, order: int):
    """A residual section read bit by bit (RFC 9639 §9.2.7): the values and
    the position after the section."""
    r = _ScalarBits(bits)
    pbits = 4 + r.uint(2)
    porder = r.uint(4)
    out = []
    for pi in range(1 << porder):
        nsamp = (blocksize >> porder) - (order if pi == 0 else 0)
        param = r.uint(pbits)
        if param == (1 << pbits) - 1:
            width = r.uint(5)
            for _ in range(nsamp):
                v = r.uint(width)
                out.append(v - (1 << width) if width and v >> (width - 1) else v)
            continue
        for _ in range(nsamp):
            q = 0
            while not r.bit():
                q += 1
            z = (q << param) | r.uint(param)
            out.append(-(z >> 1) - 1 if z & 1 else z >> 1)
    return out, r.pos


@st.composite
def _residual_sections(draw):
    """(bits, blocksize, order) of one residual section: Rice method 0 or 1,
    partition order 0-4, the predictor order taken off partition 0, escaped
    partitions, quotients in the thousands and all-ones remainders."""
    method = draw(st.integers(0, 1))
    pbits = 4 + method
    porder = draw(st.integers(0, 4))
    order = draw(st.integers(0, 4))
    size = draw(st.integers(max(1, order + (1 if porder else 0)), 16))
    pieces = [_uint_bits(method, 2), _uint_bits(porder, 4)]
    for pi in range(1 << porder):
        nsamp = size - (order if pi == 0 else 0)
        if draw(st.integers(0, 5)) == 0:
            width = draw(st.integers(0, 31))
            lim = (1 << width) >> 1
            vals = draw(st.lists(st.integers(-lim, max(lim - 1, 0)),
                                 min_size=nsamp, max_size=nsamp))
            pieces += [_uint_bits((1 << pbits) - 1, pbits), _uint_bits(width, 5),
                       _signed_bits_vec(np.array(vals, dtype=np.int64), width)]
            continue
        k = draw(st.integers(0, (1 << pbits) - 2))
        mask = (1 << k) - 1
        zs = []
        for _ in range(nsamp):
            q = draw(st.one_of(st.integers(0, 3), st.integers(0, 3),
                               st.integers(1000, 3000)))
            rem = draw(st.one_of(st.just(mask), st.integers(0, mask)))
            zs.append((q << k) | rem)
        z = np.array(zs, dtype=np.int64)
        resid = np.where(z & 1, -(z >> 1) - 1, z >> 1)
        pieces += [_uint_bits(k, pbits), _rice_bits(resid, k)]
    trailer = draw(st.lists(st.integers(0, 1), max_size=24))
    pieces.append(np.array(trailer, dtype=np.uint8))
    return np.concatenate(pieces), size << porder, order


@settings(max_examples=80, deadline=None)
@given(section=_residual_sections(), data=st.data())
def test_rice_reader_matches_scalar_reference_hypothesis(section, data):
    """The vectorized Rice reader returns the definition's values and stops
    where it does; every byte-truncation of the section raises
    AudioDecodeError."""
    bits, blocksize, order = section
    raw = np.packbits(bits).tobytes()
    want, end = _scalar_residual(bits, blocksize, order)
    rd = _BitReader(raw)
    got = _decode_residual(rd, blocksize, order)
    assert got.tolist() == want
    assert rd.pos == end
    need = -(-end // 8)                     # bytes the section touches
    if need <= 160:
        cuts = range(need)
    else:
        cuts = {need - 1, need - 2, 0,
                data.draw(st.integers(0, need - 1), label="cut")}
    for cut in cuts:
        with pytest.raises(AudioDecodeError):
            _decode_residual(_BitReader(raw[:cut]), blocksize, order)


def test_rice_reader_resynchronises_through_long_codes():
    """Codes whose remainders are all one-bits put a one-bit after every
    terminator; quotients in the thousands force the window to grow and
    resume mid-partition.  Both against the definition, at k = 0 and 30."""
    for k in (0, 1, 13, 30):
        mask = (1 << k) - 1
        q = np.tile([0, 2500, 1, 0, 4000, 3], 40)
        z = (q.astype(np.int64) << k) | mask
        resid = np.where(z & 1, -(z >> 1) - 1, z >> 1)
        method = 0 if k <= 14 else 1
        bits = np.concatenate([_uint_bits(method, 2), _uint_bits(0, 4),
                               _uint_bits(k, 4 + method), _rice_bits(resid, k),
                               np.ones(64, dtype=np.uint8)])
        rd = _BitReader(np.packbits(bits).tobytes())
        assert _decode_residual(rd, resid.size, 0).tolist() == resid.tolist()
        assert rd.pos == bits.size - 64


def _fixed_rice_frame() -> tuple[bytes, np.ndarray]:
    """A one-frame stream: FIXED order 2, two Rice partitions (k = 6, 8),
    over a sine that starts at zero (so the first warmup is 16 zero bits)."""
    expected = np.round(3000 * np.sin(2 * np.pi * np.arange(64) / 23)).astype(np.int16)
    order = 2
    resid = np.diff(expected.astype(np.int64), n=order)
    sub = [_uint_bits((0b001000 | order) << 1, 8),      # FIXED(2), no waste
           _signed_bits_vec(expected[:order].astype(np.int64), 16),
           _uint_bits(0, 2), _uint_bits(1, 4)]             # rice, 2 partitions
    for part, k in ((resid[:32 - order], 6), (resid[32 - order:], 8)):
        sub += [_uint_bits(k, 4), _rice_bits(part, k)]
    return _make_stream(np.concatenate(sub), expected.size, expected), expected


def test_every_one_bit_flip_in_a_rice_frame_is_rejected():
    """Corruption inside Rice-coded residuals must surface as
    AudioDecodeError (the only error the clip check catches), never as an
    IndexError / ValueError / OverflowError from a vectorized gather or a
    recurrence: every single-bit flip of the frame and every truncation."""
    raw, expected = _fixed_rice_frame()
    dec, _ = decode_flac(raw)
    assert np.array_equal(dec, expected)
    frame_start = 42
    for byte in range(frame_start, len(raw)):
        for bit in range(8):
            bad = bytearray(raw)
            bad[byte] ^= 1 << bit
            with pytest.raises(AudioDecodeError):
                decode_flac(bytes(bad))
    for cut in range(len(raw)):
        with pytest.raises(AudioDecodeError):
            decode_flac(raw[:cut])


def test_decode_peak_memory_is_bounded_by_the_payload():
    """A 30 s, 44.1 kHz mono stream decodes within 85x its size of traced
    allocations: the reader keeps one byte per bit and per-window tables,
    nothing per bit of the whole stream in int64."""
    import tracemalloc

    from engine.audio import encode_audio, reference_signal

    n = 30 * 44_100
    raw = encode_audio(reference_signal("clip-30s", 44_100, n), 44_100, "flac")
    tracemalloc.start()
    try:
        pcm, sr = decode_flac(raw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sr == 44_100 and pcm.shape == (n,)
    assert peak <= 85 * len(raw), peak / len(raw)
