"""Pure-numpy FLAC subset codec (RFC 9639, public spec) — mono/stereo, 16-bit.

Replaces the honest ``flac`` stub in engine/audio.py with a REAL lossless
codec: the encoder emits CONSTANT / FIXED(0-4) / VERBATIM subframes with
Rice-coded residuals, the decoder additionally handles LPC subframes, any
Rice partition order, both Rice methods (4- and 5-bit parameters), escaped
(unencoded) partitions, and wasted-bits shifts.  Integrity is verified the
way the validation tier demands: CRC-8 on every frame header, CRC-16 on
every frame, and the STREAMINFO MD5 over the full decoded stream.

Subset bounds (documented, not silent): 1-2 channels, 16-bit samples,
fixed blocking strategy.  Stereo uses the full RFC 9639 decorrelation set
(independent / left-side / right-side / mid-side, chosen per frame by
coded size; side channels carry 17 bits).  8/24-bit depths and >2
channels raise ``AudioDecodeError`` — the clip corpus (BASELINE.json
input_hint) is mono; stereo keeps real-world .flac files decodable.

Scale/perf notes:
  - Rice DECODE is the hot path.  Each code's start depends on the
    previous code's terminator (``next = first one-bit at or after
    terminator + 1 + k``), so the decoder tabulates that step once per
    partition, over the one-bits of a window of the partition's own bits,
    and follows it by pointer doubling: 5 levels of ``G = G[G]``, a Python
    walk over one code in 32, then one vectorized fill per level.  The
    k-bit remainders are one gather of 64-bit words from the packed bytes.
    No Python loop runs per sample, a partition costs O(its bits), and the
    reader holds one byte per bit of the stream (no per-bit int64 prefix
    count): a 30 s, 44.1 kHz mono stream peaks at ~15x its size.
  - Rice ENCODE is fully vectorized: code lengths -> cumsum -> one scatter
    for the terminator bits + k strided scatters for remainder bits.
  - FIXED-predictor restoration is ``order`` successive ``np.cumsum`` calls
    (integer-exact; residuals of 16-bit audio at order <= 4 stay well inside
    int64).

Reference contract parity: like json_repair's repair-or-reject surface
(/root/reference/src/json_repair/json_repair.py), decode either returns the
exact stream or raises ``AudioDecodeError`` — never a silently-wrong result.
"""

from __future__ import annotations

import hashlib

import numpy as np

from engine.audio import AudioDecodeError

_SYNC = 0b11111111111110

# ------------------------------------------------------------------- CRCs


def _crc_table(poly: int, width: int) -> list[int]:
    top = 1 << (width - 1)
    mask = (1 << width) - 1
    tab = []
    for b in range(256):
        r = b << (width - 8)
        for _ in range(8):
            r = ((r << 1) ^ poly) & mask if r & top else (r << 1) & mask
        tab.append(r)
    return tab


_CRC8_TAB = _crc_table(0x07, 8)
_CRC16_TAB = _crc_table(0x8005, 16)


def crc8(data: bytes) -> int:
    tab = _CRC8_TAB
    r = 0
    for b in data:
        r = tab[r ^ b]
    return r


def _crc16_bytes(data, r: int = 0) -> int:
    """Byte-at-a-time CRC-16 continuing from register ``r``."""
    tab = _CRC16_TAB
    for b in data:
        r = tab[(r >> 8) ^ b] ^ ((r << 8) & 0xFFFF)
    return r


# CRC-16 over whole 64-byte chunks.  With a zero initial register the CRC is
# GF(2)-linear in the message, so a chunk's CRC is the XOR of one table entry
# per byte: _CRC16_POS[j][b] is the CRC of byte b followed by 63 - j zero
# bytes.  Chunks are chained by pushing the running register through 64 zero
# bytes, itself linear in the register's two bytes (_CRC16_SHIFT).
_CRC16_CHUNK = 64


def _crc16_position_tables() -> np.ndarray:
    pos = np.empty((_CRC16_CHUNK, 256), dtype=np.uint16)
    pos[-1] = _CRC16_TAB
    for j in range(_CRC16_CHUNK - 2, -1, -1):
        pos[j] = [_crc16_bytes(b"\0", r) for r in pos[j + 1].tolist()]
    return pos


_CRC16_POS = _crc16_position_tables()
_CRC16_SHIFT = [[_crc16_bytes(bytes(_CRC16_CHUNK), b << s) for b in range(256)]
                for s in (8, 0)]
_CRC16_COLS = np.arange(_CRC16_CHUNK)


def crc16(data: bytes) -> int:
    n_full = len(data) // _CRC16_CHUNK * _CRC16_CHUNK
    r = 0
    if n_full:
        chunks = np.frombuffer(data, dtype=np.uint8, count=n_full).reshape(-1, _CRC16_CHUNK)
        hi, lo = _CRC16_SHIFT
        for c in np.bitwise_xor.reduce(_CRC16_POS[_CRC16_COLS, chunks], axis=1).tolist():
            r = hi[r >> 8] ^ lo[r & 0xFF] ^ c
    return _crc16_bytes(data[n_full:], r)


# -------------------------------------------------------------- bit pieces


def _uint_bits(value: int, k: int) -> np.ndarray:
    """k-bit big-endian unsigned value as a 0/1 uint8 array."""
    return ((value >> np.arange(k - 1, -1, -1)) & 1).astype(np.uint8)


def _signed_bits_vec(vals: np.ndarray, k: int) -> np.ndarray:
    """(n,) ints -> (n*k,) two's-complement big-endian bit array."""
    u = (vals.astype(np.int64) & ((1 << k) - 1)).astype(np.uint64)
    shifts = np.arange(k - 1, -1, -1, dtype=np.uint64)
    return ((u[:, None] >> shifts[None, :]) & 1).astype(np.uint8).reshape(-1)


def _utf8_number(n: int) -> bytes:
    """FLAC's UTF-8-style coded number (frame/sample index)."""
    if n < 0x80:
        return bytes([n])
    for nbytes in range(2, 8):
        if n < (1 << (1 + 5 * nbytes)) or nbytes == 7:
            lead = (0xFF << (8 - nbytes)) & 0xFF
            out = [lead | (n >> (6 * (nbytes - 1)))]
            for j in range(nbytes - 2, -1, -1):
                out.append(0x80 | ((n >> (6 * j)) & 0x3F))
            return bytes(out)
    raise ValueError("unencodable number")


def _zigzag(r: np.ndarray) -> np.ndarray:
    r = r.astype(np.int64)
    return np.where(r >= 0, 2 * r, -2 * r - 1).astype(np.uint64)


def _rice_bits(resid: np.ndarray, k: int) -> np.ndarray:
    """Vectorized Rice encoding of a residual array -> 0/1 bit array."""
    z = _zigzag(resid)
    q = (z >> np.uint64(k)).astype(np.int64)
    lens = q + 1 + k
    starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
    total = int(starts[-1] + lens[-1]) if lens.size else 0
    bits = np.zeros(total, dtype=np.uint8)
    bits[starts + q] = 1                           # unary terminators
    if k:
        rem_start = starts + q + 1
        shifts = np.arange(k - 1, -1, -1, dtype=np.uint64)
        for j in range(k):
            bits[rem_start + j] = ((z >> shifts[j]) & np.uint64(1)).astype(np.uint8)
    return bits


def _best_rice_k(resid: np.ndarray) -> tuple[int, int]:
    """(k, total bits) minimizing the Rice cost for one partition."""
    z = _zigzag(resid)
    n = z.size
    best_k, best_cost = 0, None
    for k in range(0, 31):
        cost = int((z >> np.uint64(k)).sum()) + n * (k + 1)
        if best_cost is None or cost < best_cost:
            best_k, best_cost = k, cost
        elif cost > best_cost * 2:
            break
    return best_k, best_cost


# ----------------------------------------------------------------- encoder


def _encode_subframe(block: np.ndarray, bps: int) -> list[np.ndarray]:
    """One mono subframe: best of CONSTANT / FIXED 0-4 / VERBATIM."""
    n = block.size
    pieces: list[np.ndarray] = []
    if np.all(block == block[0]):
        pieces.append(_uint_bits(0b000000, 8))      # pad+type+wasted = const
        pieces.append(_signed_bits_vec(block[:1], bps))
        return pieces
    best = None                                     # (cost, order, k)
    max_order = min(4, n - 1)
    for order in range(0, max_order + 1):
        resid = np.diff(block.astype(np.int64), n=order)
        k, cost = _best_rice_k(resid)
        cost += order * bps + 2 + 4 + 4             # warmups + residual hdr
        if best is None or cost < best[0]:
            best = (cost, order, k, resid)
    verbatim_cost = n * bps
    if best is None or verbatim_cost < best[0]:
        pieces.append(_uint_bits(0b0_000001_0, 8))  # verbatim
        pieces.append(_signed_bits_vec(block, bps))
        return pieces
    _cost, order, k, resid = best
    pieces.append(_uint_bits((0b001000 | order) << 1, 8))
    if order:
        pieces.append(_signed_bits_vec(block[:order], bps))
    method = 0 if k <= 14 else 1
    pieces.append(_uint_bits(method, 2))
    pieces.append(_uint_bits(0, 4))                 # partition order 0
    pieces.append(_uint_bits(k, 4 if method == 0 else 5))
    pieces.append(_rice_bits(resid, k))
    return pieces


def _stereo_frame_plan(left: np.ndarray, right: np.ndarray):
    """Pick the cheapest stereo decorrelation for one frame (RFC 9639
    §9.1.3): independent / left-side / right-side / mid-side.  Each
    candidate channel is subframe-encoded once and reused, so choosing
    costs 4 subframe encodes, not 8.  Side channels carry bps+1 bits."""
    side = left - right
    mid = (left + right) >> 1                       # arithmetic shift (spec)
    enc_l = _encode_subframe(left, 16)
    enc_r = _encode_subframe(right, 16)
    enc_s = _encode_subframe(side, 17)
    enc_m = _encode_subframe(mid, 16)

    def bits(pieces):
        return sum(p.size for p in pieces)

    cands = [
        (bits(enc_l) + bits(enc_r), 0b0001, enc_l, enc_r),
        (bits(enc_l) + bits(enc_s), 0b1000, enc_l, enc_s),
        (bits(enc_s) + bits(enc_r), 0b1001, enc_s, enc_r),
        (bits(enc_m) + bits(enc_s), 0b1010, enc_m, enc_s),
    ]
    return min(cands, key=lambda c: c[0])


def encode_flac(pcm: np.ndarray, sr_hz: int, blocksize: int = 4096) -> bytes:
    """int16 PCM -> FLAC bytes (STREAMINFO + fixed-blocksize frames).

    ``pcm`` is (n,) mono or (n, 2) stereo; stereo frames pick the best of
    independent / left-side / right-side / mid-side decorrelation."""
    pcm = np.asarray(pcm, dtype=np.int16)
    if pcm.ndim == 2 and pcm.shape[1] == 1:
        pcm = pcm[:, 0]
    if pcm.ndim not in (1, 2) or (pcm.ndim == 2 and pcm.shape[1] != 2):
        raise ValueError("encode_flac expects (n,) mono or (n, 2) stereo")
    stereo = pcm.ndim == 2
    n = pcm.shape[0]
    bps = 16
    channels = 2 if stereo else 1
    # C-order tobytes of (n, 2) interleaves L0 R0 L1 R1 ... (MD5 contract)
    md5 = hashlib.md5(np.ascontiguousarray(
        pcm.astype("<i2")).tobytes()).digest()
    info = np.concatenate([
        _uint_bits(blocksize, 16), _uint_bits(blocksize, 16),
        _uint_bits(0, 24), _uint_bits(0, 24),
        _uint_bits(sr_hz, 20), _uint_bits(channels - 1, 3),
        _uint_bits(bps - 1, 5),
        _uint_bits(n, 36)])
    info_bytes = np.packbits(info).tobytes() + md5
    head = (b"fLaC" + bytes([0x80]) + len(info_bytes).to_bytes(3, "big")
            + info_bytes)
    frames = []
    for fi, start in enumerate(range(0, max(n, 1), blocksize)):
        block = pcm[start:start + blocksize].astype(np.int64)
        if block.shape[0] == 0:
            break
        if stereo:
            _cost, ch_nibble, sub0, sub1 = _stereo_frame_plan(
                block[:, 0], block[:, 1])
            subframes = [sub0, sub1]
        else:
            ch_nibble = 0b0000
            subframes = [_encode_subframe(block, bps)]
        hdr = bytearray()
        hdr += bytes([0xFF, 0xF8])                  # sync + fixed strategy
        hdr += bytes([(0b0111 << 4) | 0b0000])      # 16-bit blocksize; sr=info
        hdr += bytes([(ch_nibble << 4) | (0b100 << 1)])   # 16-bit; reserved
        hdr += _utf8_number(fi)
        hdr += int(block.shape[0] - 1).to_bytes(2, "big")
        hdr.append(crc8(bytes(hdr)))
        pieces = [np.unpackbits(np.frombuffer(bytes(hdr), dtype=np.uint8))]
        for sub in subframes:
            pieces += sub
        bits = np.concatenate(pieces)
        if bits.size % 8:
            bits = np.concatenate([bits, np.zeros(8 - bits.size % 8,
                                                  dtype=np.uint8)])
        frame = np.packbits(bits).tobytes()
        frames.append(frame + crc16(frame).to_bytes(2, "big"))
    return head + b"".join(frames)


# ----------------------------------------------------------------- decoder


# Pointer-doubling depth of the Rice decoder: tables for 2**0 .. 2**5 codes
# ahead, so the only Python loop visits one code in 32.
_JUMP_LEVELS = 5


class _BitReader:
    """MSB-first reader over a FLAC frame region: an unpacked bit array
    (sample blocks, unary and Rice scans) plus big-endian 64-bit words
    starting at every byte (fixed-width fields, Rice remainders).  Holds
    nothing per bit beyond the one-byte-per-bit array."""

    def __init__(self, data) -> None:
        packed = np.zeros(len(data) + 8, dtype=np.uint8)
        packed[:len(data)] = np.frombuffer(data, dtype=np.uint8)
        self.bits = np.unpackbits(packed[:len(data)])
        self.pos = 0
        # words[b] = bytes b..b+7 as one big-endian integer (overlapping,
        # unaligned view; the 8 zero bytes of padding keep it in bounds).
        self.words = np.ndarray(len(data) + 1, dtype=">u8", buffer=packed,
                                strides=(1,))

    def read_uint(self, k: int) -> int:
        """k <= 57 bits (one word from the byte holding the first bit)."""
        if k == 0:
            return 0
        if self.pos + k > self.bits.size:
            raise AudioDecodeError("flac: bitstream overrun")
        v = int(self.words[self.pos >> 3]) >> (64 - k - (self.pos & 7))
        self.pos += k
        return v & ((1 << k) - 1)

    def read_signed(self, k: int) -> int:
        v = self.read_uint(k)
        return v - (1 << k) if k and (v >> (k - 1)) else v

    def read_signed_block(self, n: int, k: int) -> np.ndarray:
        """n consecutive k-bit two's-complement values, vectorized (the
        VERBATIM/warmup path — one strided reshape + dot instead of n
        scalar bit reads)."""
        if n == 0 or k == 0:
            self.pos += n * k
            return np.zeros(n, dtype=np.int64)
        if self.pos + n * k > self.bits.size:
            raise AudioDecodeError("flac: bitstream overrun")
        sl = self.bits[self.pos:self.pos + n * k].reshape(n, k)
        self.pos += n * k
        weights = (1 << np.arange(k - 1, -1, -1)).astype(np.uint64)
        v = (sl.astype(np.uint64) * weights[None, :]).sum(axis=1).astype(np.int64)
        return np.where(v >= (1 << (k - 1)), v - (1 << k), v)

    def read_unary(self) -> int:
        """Count the zeros before the next one-bit and consume them and it."""
        p, span = self.pos, 64
        while p < self.bits.size:
            seg = self.bits[p:p + span]
            hit = int(seg.argmax())
            if seg[hit]:
                q = p + hit - self.pos
                self.pos = p + hit + 1
                return q
            p += seg.size
            span *= 2
        raise AudioDecodeError("flac: unary overrun")

    def _terminators(self, lo: int, hi: int, nsamples: int,
                     k: int) -> np.ndarray:
        """Positions of the one-bits ending the first (up to ``nsamples``)
        Rice codes from ``lo`` whose terminators lie in bits[lo:hi].

        nxt[j] is the one-bit ending the code that would follow a code ended
        by one-bit j: the first one at or after ones[j] + 1 + k, read off a
        count of the window's one-bits.  Index ``m`` (one past the last
        one-bit) stands for "not in the window" and maps to itself.  The
        chain 0, nxt[0], nxt[nxt[0]], ... is the terminator sequence.
        jumps[l] applies nxt 2**l times, so the Python walk visits one code
        in 2**_JUMP_LEVELS, and each level then fills in the codes halfway
        between the ones already known."""
        window = self.bits[lo:hi].view(bool)
        ones = np.flatnonzero(window)
        m = ones.size
        # before[x] = one-bits in window[:x]; past the window it stays m
        before = np.empty(window.size + k + 2, dtype=np.int64)
        before[0] = 0
        np.cumsum(window, out=before[1:window.size + 1])
        before[window.size + 1:] = m
        nxt = np.empty(m + 1, dtype=np.int64)
        np.take(before, ones + (k + 1), out=nxt[:m])
        nxt[m] = m
        jumps = [nxt]
        for _ in range(_JUMP_LEVELS):
            jumps.append(jumps[-1][jumps[-1]])
        far = jumps.pop()
        checkpoints = []
        j = 0                                       # code 0 ends at ones[0]
        for _ in range(-(-nsamples >> _JUMP_LEVELS)):
            if j == m:
                break
            checkpoints.append(j)
            j = far[j]
        idx = np.array(checkpoints, dtype=np.int64)
        for step in reversed(jumps):
            both = np.empty(2 * idx.size, dtype=np.int64)
            both[0::2] = idx
            np.take(step, idx, out=both[1::2])
            idx = both
        idx = idx[:nsamples]
        return ones[idx[idx < m]] + lo

    def read_rice_partition(self, nsamples: int, k: int) -> np.ndarray:
        """Decode ``nsamples`` Rice(k) codes with no per-sample Python loop.

        Terminators come from ``_terminators`` over a window sized for
        k + 3 bits a code (optimal Rice parameters average under 3 unary
        bits).  A window that ends mid-partition resumes after the last
        code it held; one that holds no whole code doubles, until it
        reaches the end of the stream (an overrun).  All k-bit remainders
        are then one gather of 64-bit words, so a partition costs O(its
        bits)."""
        if nsamples == 0:
            return np.zeros(0, dtype=np.int64)
        total_bits = self.bits.size
        lo = self.pos
        need = nsamples
        span = need * (k + 3) + 64
        found = []
        while need:
            hi = min(lo + span, total_bits)
            t = self._terminators(lo, hi, need, k)
            if t.size:
                found.append(t)
                need -= t.size
                lo = int(t[-1]) + 1 + k
                span = need * (k + 3) + 64
            elif hi == total_bits:
                raise AudioDecodeError("flac: rice overrun")
            else:
                span *= 2
        t = found[0] if len(found) == 1 else np.concatenate(found)
        starts = np.empty(nsamples, dtype=np.int64)
        starts[0] = self.pos
        starts[1:] = t[:-1] + (1 + k)
        q = (t - starts).astype(np.uint64)
        if k:
            rem_pos = t + 1
            if int(rem_pos[-1]) + k > total_bits:
                raise AudioDecodeError("flac: rice remainder overrun")
            shift = (64 - k - (rem_pos & 7)).astype(np.uint64)
            rem = (self.words[rem_pos >> 3].astype(np.uint64) >> shift) \
                & np.uint64((1 << k) - 1)
            z = (q << np.uint64(k)) | rem
            self.pos = int(rem_pos[-1]) + k
        else:
            z = q
            self.pos = int(t[-1]) + 1
        zi = z.astype(np.int64)
        return (zi >> 1) ^ -(zi & 1)

    def align(self) -> None:
        self.pos = (self.pos + 7) & ~7


_BLOCKSIZE_FIXED = {0b0001: 192, 0b0010: 576, 0b0011: 1152, 0b0100: 2304,
                    0b0101: 4608, 0b1000: 256, 0b1001: 512, 0b1010: 1024,
                    0b1011: 2048, 0b1100: 4096, 0b1101: 8192, 0b1110: 16384,
                    0b1111: 32768}
_SR_FIXED = {0b0001: 88200, 0b0010: 176400, 0b0011: 192000, 0b0100: 8000,
             0b0101: 16000, 0b0110: 22050, 0b0111: 24000, 0b1000: 32000,
             0b1001: 44100, 0b1010: 48000, 0b1011: 96000}
_BPS_FIXED = {0b001: 8, 0b010: 12, 0b100: 16, 0b101: 20, 0b110: 24, 0b111: 32}


def _read_utf8_number(rd: _BitReader) -> int:
    first = rd.read_uint(8)
    if first < 0x80:
        return first
    nbytes = 0
    probe = first
    while probe & 0x80:
        nbytes += 1
        probe = (probe << 1) & 0xFF
    if nbytes < 2 or nbytes > 7:
        raise AudioDecodeError("flac: bad coded number")
    val = first & (0x7F >> nbytes)
    for _ in range(nbytes - 1):
        b = rd.read_uint(8)
        if (b & 0xC0) != 0x80:
            raise AudioDecodeError("flac: bad coded-number continuation")
        val = (val << 6) | (b & 0x3F)
    return val


def _restore_fixed(order: int, warm: np.ndarray, resid: np.ndarray) -> np.ndarray:
    if order == 0:
        return resid
    diffs = [warm.astype(np.int64)]
    for _ in range(order - 1):
        diffs.append(np.diff(diffs[-1]))
    cur = resid.astype(np.int64)
    for j in range(order - 1, -1, -1):
        cur = np.cumsum(np.concatenate([[diffs[j][-1]], cur]))[1:]
    return np.concatenate([warm.astype(np.int64), cur])


def _restore_lpc(warm: np.ndarray, resid: np.ndarray, coefs: list[int],
                 shift: int) -> np.ndarray:
    order = len(coefs)
    out = warm.astype(np.int64).tolist()
    for r in resid.tolist():
        acc = 0
        for j, c in enumerate(coefs):
            acc += c * out[-1 - j]
        out.append(r + (acc >> shift))
    try:
        return np.array(out, dtype=np.int64)
    except OverflowError:
        # Garbage coefficients can grow the recurrence past int64; no valid
        # sample is anywhere near that.
        raise AudioDecodeError("flac: LPC prediction overflow") from None


def _decode_residual(rd: _BitReader, blocksize: int, order: int) -> np.ndarray:
    method = rd.read_uint(2)
    if method > 1:
        raise AudioDecodeError(f"flac: reserved residual method {method}")
    pbits = 4 if method == 0 else 5
    escape = (1 << pbits) - 1
    porder = rd.read_uint(4)
    nparts = 1 << porder
    if blocksize % nparts or (blocksize >> porder) <= order and porder:
        raise AudioDecodeError("flac: bad partition order")
    out = []
    for pi in range(nparts):
        nsamp = (blocksize >> porder) - (order if pi == 0 else 0)
        if nsamp < 0:
            raise AudioDecodeError("flac: bad partition size")
        param = rd.read_uint(pbits)
        if param == escape:
            raw_bps = rd.read_uint(5)
            out.append(rd.read_signed_block(nsamp, raw_bps))
        else:
            out.append(rd.read_rice_partition(nsamp, param))
    return np.concatenate(out) if out else np.zeros(0, dtype=np.int64)


def _decode_subframe(rd: _BitReader, blocksize: int, bps: int) -> np.ndarray:
    if rd.read_uint(1):
        raise AudioDecodeError("flac: subframe padding bit set")
    ftype = rd.read_uint(6)
    wasted = 0
    if rd.read_uint(1):
        wasted = rd.read_unary() + 1
    ebps = bps - wasted
    if ebps < 0:
        raise AudioDecodeError("flac: more wasted bits than sample bits")
    if ftype == 0:
        out = np.full(blocksize, rd.read_signed(ebps), dtype=np.int64)
    elif ftype == 1:
        out = rd.read_signed_block(blocksize, ebps)
    elif 8 <= ftype <= 12:
        order = ftype - 8
        warm = rd.read_signed_block(order, ebps)
        resid = _decode_residual(rd, blocksize, order)
        out = _restore_fixed(order, warm, resid)
    elif ftype >= 32:
        order = ftype - 31
        warm = rd.read_signed_block(order, ebps)
        prec = rd.read_uint(4) + 1
        if prec == 16:
            raise AudioDecodeError("flac: invalid qlp precision")
        shift = rd.read_signed(5)
        if shift < 0:
            raise AudioDecodeError("flac: negative qlp shift")
        coefs = [rd.read_signed(prec) for _ in range(order)]
        resid = _decode_residual(rd, blocksize, order)
        out = _restore_lpc(warm, resid, coefs, shift)
    else:
        raise AudioDecodeError(f"flac: reserved subframe type {ftype}")
    return out << wasted if wasted else out


def decode_flac(raw: bytes) -> tuple[np.ndarray, int]:
    """FLAC bytes -> (int16 samples, sample_rate); samples are (n,) for
    mono streams, (n, 2) for stereo.

    Verifies frame-header CRC-8, frame CRC-16, and the STREAMINFO MD5 of
    the whole decoded stream; raises AudioDecodeError on any mismatch."""
    if len(raw) < 42 or raw[:4] != b"fLaC":
        raise AudioDecodeError("not a fLaC stream")
    pos = 4
    info = None
    md5_expect = None
    while pos + 4 <= len(raw):
        hdr = raw[pos]
        length = int.from_bytes(raw[pos + 1:pos + 4], "big")
        body = raw[pos + 4:pos + 4 + length]
        if len(body) < length:
            raise AudioDecodeError("flac: truncated metadata block")
        if hdr & 0x7F == 0:
            if length < 34:
                raise AudioDecodeError("flac: short STREAMINFO")
            info = body
            md5_expect = body[18:34]
        pos += 4 + length
        if hdr & 0x80:
            break
    else:
        raise AudioDecodeError("flac: no last-metadata flag")
    if info is None:
        raise AudioDecodeError("flac: missing STREAMINFO")
    ib = np.unpackbits(np.frombuffer(info[:18], dtype=np.uint8))

    def _field(lo: int, width: int) -> int:
        v = 0
        for b in ib[lo:lo + width].tolist():
            v = (v << 1) | b
        return v

    sr_hz = _field(80, 20)
    channels = _field(100, 3) + 1
    bps = _field(103, 5) + 1
    total = _field(108, 36)
    if channels not in (1, 2):
        raise AudioDecodeError(f"flac: unsupported channels={channels}")
    if bps != 16:
        raise AudioDecodeError(f"flac: unsupported bps={bps}")
    if sr_hz <= 0:
        raise AudioDecodeError("flac: invalid sample rate")
    frame_bytes = raw[pos:]
    rd = _BitReader(frame_bytes)
    out: list[np.ndarray] = []
    decoded = 0
    # RFC 9639 §8.2: STREAMINFO total_samples == 0 means UNKNOWN, not empty
    # (streamed encodes). Decode frames until the byte-aligned reader hits
    # end-of-data; any trailing garbage still fails the sync check / CRCs.
    unknown_total = total == 0
    while decoded < total or (unknown_total and rd.pos < rd.bits.size):
        frame_start_bit = rd.pos
        if rd.read_uint(14) != _SYNC:
            raise AudioDecodeError("flac: lost frame sync")
        rd.read_uint(1)                             # reserved
        rd.read_uint(1)                             # blocking strategy
        bs_code = rd.read_uint(4)
        sr_code = rd.read_uint(4)
        ch_code = rd.read_uint(4)
        ss_code = rd.read_uint(3)
        rd.read_uint(1)                             # reserved
        _read_utf8_number(rd)
        if bs_code == 0:
            raise AudioDecodeError("flac: reserved blocksize code")
        elif bs_code == 0b0110:
            blocksize = rd.read_uint(8) + 1
        elif bs_code == 0b0111:
            blocksize = rd.read_uint(16) + 1
        else:
            blocksize = _BLOCKSIZE_FIXED[bs_code]
        if sr_code == 0b1100:
            rd.read_uint(8)
        elif sr_code in (0b1101, 0b1110):
            rd.read_uint(16)
        elif sr_code == 0b1111:
            raise AudioDecodeError("flac: invalid sample-rate code")
        elif sr_code and sr_code in _SR_FIXED and _SR_FIXED[sr_code] != sr_hz:
            raise AudioDecodeError("flac: frame/STREAMINFO sample-rate clash")
        if channels == 1:
            if ch_code != 0:
                raise AudioDecodeError("flac: mono stream with non-mono frame")
        elif ch_code not in (0b0001, 0b1000, 0b1001, 0b1010):
            raise AudioDecodeError(
                f"flac: unsupported channel assignment {ch_code:#06b}")
        if ss_code not in (0, 0b100):
            raise AudioDecodeError("flac: unsupported frame sample size")
        hdr_end_bit = rd.pos
        hdr_bytes = frame_bytes[frame_start_bit // 8: hdr_end_bit // 8]
        if crc8(hdr_bytes) != rd.read_uint(8):
            raise AudioDecodeError("flac: frame header CRC-8 mismatch")
        if channels == 1:
            samples = _decode_subframe(rd, blocksize, 16)
        else:
            # Side channels (the difference signal) carry one extra bit.
            bps0 = 17 if ch_code == 0b1001 else 16
            bps1 = 17 if ch_code in (0b1000, 0b1010) else 16
            ch0 = _decode_subframe(rd, blocksize, bps0)
            ch1 = _decode_subframe(rd, blocksize, bps1)
            if ch_code == 0b0001:
                left, right = ch0, ch1
            elif ch_code == 0b1000:                 # left/side
                left, right = ch0, ch0 - ch1
            elif ch_code == 0b1001:                 # side/right
                left, right = ch0 + ch1, ch1
            else:                                   # mid/side
                mid2 = (ch0 << 1) | (ch1 & 1)
                left, right = (mid2 + ch1) >> 1, (mid2 - ch1) >> 1
            samples = np.stack([left, right], axis=1)
        rd.align()
        frame_end = rd.pos // 8
        if crc16(frame_bytes[frame_start_bit // 8: frame_end]) != rd.read_uint(16):
            raise AudioDecodeError("flac: frame CRC-16 mismatch")
        if (samples > 32767).any() or (samples < -32768).any():
            raise AudioDecodeError("flac: sample overflow")
        out.append(samples.astype(np.int16))
        decoded += samples.shape[0]
    empty_shape = (0,) if channels == 1 else (0, 2)
    if out:
        pcm = np.concatenate(out)
        if not unknown_total:
            pcm = pcm[:total]
    else:
        pcm = np.zeros(empty_shape, dtype=np.int16)
    if md5_expect and md5_expect != b"\x00" * 16:
        # MD5 covers the interleaved little-endian stream (C-order tobytes
        # of (n, 2) is exactly L0 R0 L1 R1 ...).
        interleaved = np.ascontiguousarray(pcm.astype("<i2")).tobytes()
        if hashlib.md5(interleaved).digest() != md5_expect:
            raise AudioDecodeError("flac: stream MD5 mismatch")
    return pcm, sr_hz


def first_frame_assignment(raw: bytes) -> int:
    """Channel-assignment nibble (RFC 9639 §9.1.3) of the FIRST frame —
    the cheap container-introspection twin of jpeg_info: walks the
    metadata blocks without touching any entropy-coded data, so an oracle
    can pin which stereo decorrelation the encoder chose."""
    if len(raw) < 42 or raw[:4] != b"fLaC":
        raise AudioDecodeError("not a fLaC stream")
    pos = 4
    while pos + 4 <= len(raw):
        hdr = raw[pos]
        length = int.from_bytes(raw[pos + 1:pos + 4], "big")
        pos += 4 + length
        if hdr & 0x80:
            break
    else:
        raise AudioDecodeError("flac: no last-metadata flag")
    if pos + 4 > len(raw) or raw[pos] != 0xFF or (raw[pos + 1] >> 2) != 0x3E:
        raise AudioDecodeError("flac: no frame after metadata")
    return raw[pos + 3] >> 4
