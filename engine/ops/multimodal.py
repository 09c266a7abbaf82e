"""Multimodal column operators (binary payloads + typed metadata).

The audio path is fully real (this repo's WAV/G.711/ADPCM/FLAC codecs).
The image path is real for PNG (baseline, stdlib-zlib inflate + full
filter set), JPEG (baseline DCT decoder, engine/jpeg.py — dispatched via
engine/image.py ``decode_image`` and exercised by ``JpegCheckStage`` /
the ``jpeg_image_metadata`` oracle), GIF, and PPM/PGM/BMP/TGA (pure-numpy
codecs, engine/image.py).  Only real video CONTAINERS (MP4/WebM demux)
remain STUBBED behind ``NotImplementedError`` — those codec libraries are
not in this container — with the Ray-side plumbing (schema, actor-pool
signature, batch sizing, output layout) real and tested so swapping in
PyAV later is a one-class change; the PPMV frame format used by
``video_frame_sample`` is real.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from engine.audio import AudioDecodeError, decode_any
from engine.stages import binary_views


class AudioFeatureStage:
    """bytes+codec → (rms, zero_cross_rate, n_samples, decode_ok).  Real decode."""

    def __init__(self, bytes_col: str = "bytes", codec_col: str = "codec") -> None:
        self.bytes_col = bytes_col
        self.codec_col = codec_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = binary_views(batch.column(self.bytes_col))
        codecs = batch.column(self.codec_col).to_pylist()
        n = batch.num_rows
        rms = np.full(n, np.nan)
        zcr = np.full(n, np.nan)
        samples = np.zeros(n, dtype=np.int64)
        ok = np.zeros(n, dtype=bool)
        for i in range(n):
            try:
                sig, _sr = decode_any(blobs[i], codecs[i])
            except (AudioDecodeError, NotImplementedError):
                continue
            ok[i] = True
            samples[i] = sig.size
            if sig.size:
                rms[i] = float(np.sqrt(np.mean(sig.astype(np.float64) ** 2)))
                zcr[i] = float(np.mean(np.signbit(sig[1:]) != np.signbit(sig[:-1])))
        return batch.drop_columns([self.bytes_col]).append_column("rms", pa.array(rms)) \
            .append_column("zero_cross_rate", pa.array(zcr)) \
            .append_column("n_samples", pa.array(samples)) \
            .append_column("decode_ok", pa.array(ok))


class AudioChunkStage:
    """bytes+codec → per-window rows (chunk_idx, start_sample, n_samples,
    rms) — REAL decode + row EXPANSION (one clip → many chunks), the ASR
    training-data windowing step.

    Window plan: ``win_ms`` windows every ``hop_ms``; the trailing partial
    window is kept iff it holds at least ``min_ms`` of audio.  Sample
    counts are pure integer arithmetic on (sr, decoded length), so the
    plan is reproducible closed-form in a SQL oracle; rms is computed from
    the real decoded PCM (float — tested, not oracled).  Undecodable rows
    are dropped (they carry no windows), matching SQL's ok-filter.

    Scale shape: stateless per-row, actor-pool friendly; expansion factor
    is dur/hop, so batch_size should be sized for the OUTPUT row count
    (bytes never leave the stage — only scalar window metadata is
    emitted).
    """

    def __init__(self, bytes_col: str = "bytes", codec_col: str = "codec",
                 sr_col: str | None = None, win_ms: int = 100, hop_ms: int = 60,
                 min_ms: int = 20) -> None:
        self.bytes_col = bytes_col
        self.codec_col = codec_col
        self.sr_col = sr_col     # None: trust the decoded container rate
        self.win_ms = win_ms
        self.hop_ms = hop_ms
        self.min_ms = min_ms

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = binary_views(batch.column(self.bytes_col))
        codecs = batch.column(self.codec_col).to_pylist()
        srs = (batch.column(self.sr_col).to_numpy(zero_copy_only=False)
               if self.sr_col else None)
        keep_cols = [c for c in batch.column_names if c != self.bytes_col]
        out_idx: list[int] = []
        chunk_idx: list[np.ndarray] = []
        starts: list[np.ndarray] = []
        sizes: list[np.ndarray] = []
        rms: list[np.ndarray] = []
        for i in range(batch.num_rows):
            try:
                sig, dec_sr = decode_any(blobs[i], codecs[i])
            except (AudioDecodeError, NotImplementedError):
                continue
            sr = int(srs[i]) if srs is not None else int(dec_sr)
            win = sr * self.win_ms // 1000
            hop = sr * self.hop_ms // 1000
            # A window must hold >= 1 sample even with min_ms=0, else the
            # last start can land exactly at n and emit a 0-sample chunk
            # with 0/0 rms (round-3 review finding 5).
            mins = max(1, sr * self.min_ms // 1000)
            n = sig.size
            if n < mins or win == 0 or hop == 0:
                continue
            n_chunks = (n - mins) // hop + 1
            st = np.arange(n_chunks, dtype=np.int64) * hop
            sz = np.minimum(win, n - st)
            f = sig.astype(np.float64)
            cum = np.concatenate([[0.0], np.cumsum(f * f)])
            r = np.sqrt((cum[st + sz] - cum[st]) / sz)
            out_idx.append(i)
            chunk_idx.append(np.arange(n_chunks, dtype=np.int64))
            starts.append(st)
            sizes.append(sz)
            rms.append(r)
        if not out_idx:
            base = batch.select(keep_cols).slice(0, 0)
            return base.append_column("chunk_idx", pa.array([], pa.int64())) \
                .append_column("start_sample", pa.array([], pa.int64())) \
                .append_column("n_samples", pa.array([], pa.int64())) \
                .append_column("chunk_rms", pa.array([], pa.float64()))
        reps = np.array([c.size for c in chunk_idx], dtype=np.int64)
        take = np.repeat(np.array(out_idx, dtype=np.int64), reps)
        base = batch.select(keep_cols).take(pa.array(take))
        return base.append_column("chunk_idx", pa.array(np.concatenate(chunk_idx))) \
            .append_column("start_sample", pa.array(np.concatenate(starts))) \
            .append_column("n_samples", pa.array(np.concatenate(sizes))) \
            .append_column("chunk_rms", pa.array(np.concatenate(rms)))


def mel_filterbank(n_mels: int, n_fft: int, sr_hz: int) -> np.ndarray:
    """(n_mels, n_fft//2 + 1) triangular HTK-mel filterbank (public
    formula: mel(f) = 2595 * log10(1 + f / 700))."""
    f_max = sr_hz / 2.0
    mels = np.linspace(0.0, 2595.0 * np.log10(1.0 + f_max / 700.0),
                       n_mels + 2)
    hz = 700.0 * (10.0 ** (mels / 2595.0) - 1.0)
    bins = np.floor((n_fft + 1) * hz / sr_hz).astype(np.int64)
    fb = np.zeros((n_mels, n_fft // 2 + 1))
    for m in range(1, n_mels + 1):
        lo, c, hi = bins[m - 1], bins[m], bins[m + 1]
        for k in range(lo, c):
            if c > lo:
                fb[m - 1, k] = (k - lo) / (c - lo)
        for k in range(c, hi):
            if hi > c:
                fb[m - 1, k] = (hi - k) / (hi - c)
    return fb


class AudioSpectrogramStage:
    """bytes+codec → framed spectral features: n_frames, dominant FFT bin
    of the mean power spectrum, spectral centroid, and the clip-mean
    log-mel energy vector (list<float>, the actual ASR training feature).

    Actor-pool stage: the Hann window and mel filterbank are built ONCE in
    __init__ (per-actor state); per clip the framing is a stride-tricks
    view (no copy), the FFT is one batched np.fft.rfft over all frames,
    and the mel projection one matmul.  The dominant-bin contract is
    SQL-oracle-able on a pure-tone corpus with frequencies on exact bin
    centers (engine/data/audio_synth.py:synth_tone)."""

    def __init__(self, bytes_col: str = "bytes", codec_col: str = "codec",
                 sr_col: str | None = None, n_fft: int = 256,
                 hop: int = 128, n_mels: int = 23) -> None:
        self.bytes_col = bytes_col
        self.codec_col = codec_col
        self.sr_col = sr_col
        self.n_fft = n_fft
        self.hop = hop
        self.n_mels = n_mels
        self.window = np.hanning(n_fft).astype(np.float64)
        self._fb_cache: dict[int, np.ndarray] = {}

    def _fb(self, sr: int) -> np.ndarray:
        if sr not in self._fb_cache:
            self._fb_cache[sr] = mel_filterbank(self.n_mels, self.n_fft, sr)
        return self._fb_cache[sr]

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = binary_views(batch.column(self.bytes_col))
        codecs = batch.column(self.codec_col).to_pylist()
        n = batch.num_rows
        ok = np.zeros(n, dtype=bool)
        n_frames = np.zeros(n, dtype=np.int64)
        peak_bin = np.full(n, -1, dtype=np.int64)
        centroid = np.full(n, np.nan)
        mel_out: list[list[float] | None] = []
        for i in range(n):
            try:
                sig, sr = decode_any(blobs[i], codecs[i])
            except (AudioDecodeError, NotImplementedError):
                mel_out.append(None)
                continue
            ok[i] = True
            if sig.size < self.n_fft:
                mel_out.append(None)
                continue
            nf = (sig.size - self.n_fft) // self.hop + 1
            n_frames[i] = nf
            frames = np.lib.stride_tricks.as_strided(
                sig, shape=(nf, self.n_fft),
                strides=(sig.strides[0] * self.hop, sig.strides[0]))
            spec = np.fft.rfft(frames.astype(np.float64) * self.window,
                               axis=1)
            power = (spec.real ** 2 + spec.imag ** 2).mean(axis=0)
            peak_bin[i] = int(np.argmax(power[1:])) + 1   # skip DC
            freqs = np.arange(power.size)
            psum = power.sum()
            centroid[i] = float((freqs * power).sum() / psum) if psum else np.nan
            mel = self._fb(int(sr)) @ power
            mel_out.append(np.log(mel + 1e-10).tolist())
        return batch.drop_columns([self.bytes_col]) \
            .append_column("decode_ok", pa.array(ok)) \
            .append_column("n_frames", pa.array(n_frames)) \
            .append_column("peak_bin", pa.array(peak_bin)) \
            .append_column("spectral_centroid", pa.array(centroid)) \
            .append_column("log_mel", pa.array(mel_out,
                                               pa.list_(pa.float64())))


class AudioTrimStage:
    """bytes+codec → leading/trailing-silence trim report (lead_sil,
    trail_sil, n_kept, kept_rms) — the silence-strip step of an ASR
    training-data pipeline.  REAL decode through every registered codec;
    silence = |sample| <= threshold (default: below one int16 LSB).

    Convention (mirrored by the SQL oracle): an all-silent clip counts its
    whole length as LEADING silence (trail 0, kept 0, kept_rms NULL).

    Scale shape: stateless per-row scan, vectorized argmax on the
    over-threshold mask; audio bytes never leave the stage."""

    def __init__(self, bytes_col: str = "bytes", codec_col: str = "codec",
                 threshold: float = 0.5 / 32767.0) -> None:
        self.bytes_col = bytes_col
        self.codec_col = codec_col
        self.threshold = threshold

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = binary_views(batch.column(self.bytes_col))
        codecs = batch.column(self.codec_col).to_pylist()
        n = batch.num_rows
        ok = np.zeros(n, dtype=bool)
        total = np.zeros(n, dtype=np.int64)
        lead = np.zeros(n, dtype=np.int64)
        trail = np.zeros(n, dtype=np.int64)
        kept = np.zeros(n, dtype=np.int64)
        kept_rms = np.full(n, np.nan)
        for i in range(n):
            try:
                sig, _sr = decode_any(blobs[i], codecs[i])
            except (AudioDecodeError, NotImplementedError):
                continue
            ok[i] = True
            total[i] = sig.size
            loud = np.abs(sig) > self.threshold
            if not loud.any():
                lead[i] = sig.size
                continue
            first = int(np.argmax(loud))
            last = int(sig.size - 1 - np.argmax(loud[::-1]))
            lead[i] = first
            trail[i] = sig.size - 1 - last
            kept[i] = last - first + 1
            seg = sig[first:last + 1].astype(np.float64)
            kept_rms[i] = float(np.sqrt(np.mean(seg * seg)))
        return batch.drop_columns([self.bytes_col]) \
            .append_column("decode_ok", pa.array(ok)) \
            .append_column("n_samples", pa.array(total)) \
            .append_column("lead_sil", pa.array(lead)) \
            .append_column("trail_sil", pa.array(trail)) \
            .append_column("n_kept", pa.array(kept)) \
            .append_column("kept_rms", pa.array(kept_rms, mask=np.isnan(kept_rms)))


class AudioResampleStage:
    """bytes+codec → rate-converted metadata + resampled RMS — the
    rate-normalization step (ASR models want one rate, e.g. 16 kHz).

    Linear-interpolation resampler (np.interp on the sample grid): output
    length n_out = ceil(n_in * target / src), output position j maps to
    source time j * src / target.  Real decode in, float32 signal out —
    here only scalar features leave the stage (resampled audio would be
    re-encoded in a production sink; the bytes layout is already covered
    by the codec modules).  The interpolation MATH is pytest-verified
    against np.interp directly; the SQL-oracled columns are the exact
    integer metadata (n_in, n_out, sr_out).
    """

    def __init__(self, bytes_col: str = "bytes", codec_col: str = "codec",
                 target_hz: int = 16000) -> None:
        self.bytes_col = bytes_col
        self.codec_col = codec_col
        self.target_hz = target_hz

    def resample(self, sig: np.ndarray, src_hz: int) -> np.ndarray:
        if src_hz == self.target_hz or sig.size == 0:
            return sig
        n_out = -(-sig.size * self.target_hz // src_hz)    # ceil
        pos = np.arange(n_out, dtype=np.float64) * (src_hz / self.target_hz)
        return np.interp(pos, np.arange(sig.size, dtype=np.float64),
                         sig.astype(np.float64)).astype(np.float32)

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = binary_views(batch.column(self.bytes_col))
        codecs = batch.column(self.codec_col).to_pylist()
        n = batch.num_rows
        ok = np.zeros(n, dtype=bool)
        n_in = np.zeros(n, dtype=np.int64)
        n_out = np.zeros(n, dtype=np.int64)
        rms = np.full(n, np.nan)
        for i in range(n):
            try:
                sig, sr = decode_any(blobs[i], codecs[i])
            except (AudioDecodeError, NotImplementedError):
                continue
            ok[i] = True
            n_in[i] = sig.size
            out = self.resample(sig, sr)
            n_out[i] = out.size
            if out.size:
                rms[i] = float(np.sqrt(np.mean(out.astype(np.float64) ** 2)))
        return batch.drop_columns([self.bytes_col]) \
            .append_column("decode_ok", pa.array(ok)) \
            .append_column("n_in", pa.array(n_in)) \
            .append_column("n_out", pa.array(n_out)) \
            .append_column("sr_out", pa.array(
                np.full(n, self.target_hz, dtype=np.int64))) \
            .append_column("resampled_rms", pa.array(rms))


class ImageResizeStage:
    """Binary image column → stride-``factor`` nearest-neighbour downscale
    metadata (out_w, out_h, lum_sum, nvals) — REAL decode + REAL resample
    (``arr[::f, ::f]``), the thumbnail/feature-prep step of an image
    pipeline.  lum_sum is the integer sum of every sampled channel value,
    so the output is bit-exact against a closed-form oracle on the
    synthetic gradient corpus (no float rounding anywhere).  Undecodable
    payloads are dropped (a strict variant would raise — same policy knob
    as ImageDecodeStage).  To emit resized BYTES instead of metadata a
    caller would re-encode in __call__; the decode/resample plumbing is
    identical."""

    def __init__(self, bytes_col: str = "image", factor: int = 2) -> None:
        if factor < 1:
            raise ValueError("factor must be >= 1")
        self.bytes_col = bytes_col
        self.factor = factor

    def __call__(self, batch: pa.Table) -> pa.Table:
        from engine.image import ImageDecodeError, decode_image

        blobs = batch.column(self.bytes_col)
        keep_cols = [c for c in batch.column_names if c != self.bytes_col]
        out_idx, fmts, ws, hs, sums, nvals = [], [], [], [], [], []
        for i in range(batch.num_rows):
            try:
                arr, fmt = decode_image(blobs[i].as_py())
            except ImageDecodeError:
                continue
            small = arr[::self.factor, ::self.factor]
            out_idx.append(i)
            fmts.append(fmt)
            hs.append(small.shape[0])
            ws.append(small.shape[1])
            sums.append(int(small.astype(np.int64).sum()))
            nvals.append(int(small.size))
        base = batch.select(keep_cols).take(pa.array(out_idx, pa.int64()))
        return base.append_column("img_format", pa.array(fmts, pa.string())) \
            .append_column("out_w", pa.array(ws, pa.int64())) \
            .append_column("out_h", pa.array(hs, pa.int64())) \
            .append_column("lum_sum", pa.array(sums, pa.int64())) \
            .append_column("nvals", pa.array(nvals, pa.int64()))


class ImageDecodeStage:
    """Binary image column → (width, height, mode, img_format, mean_lum,
    decode_ok) metadata.  REAL decode for baseline JPEG, baseline PNG,
    GIF, PPM/PGM, 24-bit BMP and type-2 TGA via the pure codecs in
    engine/image.py + engine/jpeg.py (round-1 VERDICT item 6; PNG/GIF
    added round 4, JPEG in the round-4 continuation).

    Formats outside that set (e.g. progressive JPEG, WebP):
    with ``fake=True`` they fall back to deterministic payload-derived
    metadata with ``decode_ok=False`` so pipelines keep flowing; with
    ``fake=False`` the unknown format raises, the way a strict pipeline
    would surface a missing codec.
    """

    def __init__(self, bytes_col: str = "image", fake: bool = True) -> None:
        self.bytes_col = bytes_col
        self.fake = fake

    def __call__(self, batch: pa.Table) -> pa.Table:
        from engine.image import ImageDecodeError, decode_image

        blobs = batch.column(self.bytes_col)
        n = batch.num_rows
        w = np.zeros(n, dtype=np.int32)
        h = np.zeros(n, dtype=np.int32)
        lum = np.full(n, np.nan)
        ok = np.zeros(n, dtype=bool)
        modes = ["unknown"] * n
        fmts = ["unknown"] * n
        for i in range(n):
            raw = blobs[i].as_py() or b""
            try:
                img, fmt = decode_image(raw)
            except ImageDecodeError:
                if not self.fake:
                    raise NotImplementedError(
                        "unsupported image format; baseline JPEG/PNG, GIF, PPM/PGM, "
                        "24-bit BMP and type-2 TGA decode natively, others "
                        "need Pillow")
                # Deterministic fallback: dimensions derived from payload digest.
                d = sum(raw[:16]) if raw else 0
                w[i] = 64 + (d % 192)
                h[i] = 64 + ((d * 7) % 192)
                modes[i] = "RGB"
                continue
            ok[i] = True
            h[i], w[i] = img.shape[0], img.shape[1]
            modes[i] = {1: "L", 3: "RGB", 4: "RGBA"}[img.shape[2]]
            lum[i] = float(img[:, :, :3].mean())
            fmts[i] = fmt
        return batch.append_column("width", pa.array(w)) \
            .append_column("height", pa.array(h)) \
            .append_column("mode", pa.array(modes, pa.string())) \
            .append_column("img_format", pa.array(fmts, pa.string())) \
            .append_column("mean_lum", pa.array(lum)) \
            .append_column("decode_ok", pa.array(ok))


class FrameSampleStage:
    """Binary video column → sampled, DECODED frame metadata.

    REAL for the PPMV container (engine/video.py: indexed PPM frames —
    seek-and-decode only the k sampled frames, never a full scan; the shape a
    PyAV-backed stage would keep at petabyte scale).  Other containers
    (mp4/mkv need PyAV, absent here): ``fake=True`` emits length-derived
    offsets with decode_ok=False; ``fake=False`` raises.
    """

    def __init__(self, bytes_col: str = "video", n_frames: int = 4, fake: bool = True) -> None:
        self.bytes_col = bytes_col
        self.n_frames = n_frames
        self.fake = fake

    def __call__(self, batch: pa.Table) -> pa.Table:
        from engine.video import (VideoDecodeError, decode_frame,
                                  read_ppmv_index, sample_frame_indices)

        blobs = batch.column(self.bytes_col)
        n = batch.num_rows
        offsets: list[list[int]] = []
        lums: list[list[float]] = []
        total_frames = np.zeros(n, dtype=np.int64)
        fps_col = np.zeros(n)
        ok = np.zeros(n, dtype=bool)
        for i in range(n):
            raw = blobs[i].as_py() or b""
            try:
                nf, fps, offs = read_ppmv_index(raw)
                idx = sample_frame_indices(nf, self.n_frames)
                frames = [decode_frame(raw, offs, int(j)) for j in idx]
            except VideoDecodeError:
                if not self.fake:
                    raise NotImplementedError(
                        "unsupported video container; PPMV decodes natively, "
                        "real codecs need PyAV")
                span = max(len(raw), 1)
                offsets.append([int(j * span / self.n_frames)
                                for j in range(self.n_frames)])
                lums.append([])
                continue
            ok[i] = True
            total_frames[i] = nf
            fps_col[i] = fps
            offsets.append([int(offs[j]) for j in idx])
            lums.append([float(f.mean()) for f in frames])
        return batch.append_column(
            "frame_offsets", pa.array(offsets, pa.list_(pa.int64()))) \
            .append_column("frame_lums", pa.array(lums, pa.list_(pa.float64()))) \
            .append_column("total_frames", pa.array(total_frames)) \
            .append_column("fps", pa.array(fps_col)) \
            .append_column("video_ok", pa.array(ok))


class JpegCheckStage:
    """Binary JPEG column → exact container facts + a lossy-decode quality
    verdict.  This is the image twin of the audio SNR check (north-rule
    per-row invariant): the REAL decode (engine/jpeg.py) is compared
    against the caller's reference pixels and ``decode_ok`` asserts
    PSNR >= ``psnr_floor`` dB, while width/height/mode/subsampling/
    restart_interval come from the real container parse (jpeg_info) so a
    hash oracle can pin them exactly even though the pixels are lossy.

    ``source_fn(img_id) -> uint8 ndarray`` must be a module-level function
    (actor ctor args ship by pickle).  Default: the synthetic corpus
    source engine.data.images.jpeg_source.
    """

    def __init__(self, bytes_col: str = "image", id_col: str = "img_id",
                 source_fn=None, psnr_floor: float = 30.0) -> None:
        if source_fn is None:
            from engine.data.images import jpeg_source
            source_fn = jpeg_source
        self.bytes_col = bytes_col
        self.id_col = id_col
        self.source_fn = source_fn
        self.psnr_floor = float(psnr_floor)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from engine.image import ImageDecodeError
        from engine.jpeg import decode_jpeg, jpeg_info

        blobs = batch.column(self.bytes_col)
        ids = batch.column(self.id_col).to_numpy(zero_copy_only=False)
        n = batch.num_rows
        w = np.zeros(n, dtype=np.int32)
        h = np.zeros(n, dtype=np.int32)
        rst = np.zeros(n, dtype=np.int32)
        ok = np.zeros(n, dtype=bool)
        modes = ["unknown"] * n
        subs = ["unknown"] * n
        for i in range(n):
            raw = blobs[i].as_py() or b""
            try:
                info = jpeg_info(raw)
                img = decode_jpeg(raw)
            except ImageDecodeError:
                continue
            h[i], w[i] = img.shape[0], img.shape[1]
            modes[i] = {1: "L", 3: "RGB"}[img.shape[2]]
            rst[i] = info["restart_interval"]
            if info["n_components"] == 1:
                subs[i] = "gray"
            elif info["sampling"][0] == (2, 2):
                subs[i] = "420"
            else:
                subs[i] = "444"
            src = self.source_fn(int(ids[i]))
            if src.ndim == 2:
                src = src[:, :, None]
            if src.shape != img.shape:
                continue
            diff = src.astype(np.float64) - img.astype(np.float64)
            mse = float((diff * diff).mean())
            psnr = np.inf if mse == 0.0 else \
                10.0 * np.log10(255.0 ** 2 / mse)
            ok[i] = psnr >= self.psnr_floor
        keep = [c for c in batch.column_names if c != self.bytes_col]
        return batch.select(keep) \
            .append_column("img_format",
                           pa.array(["jpeg"] * n, pa.string())) \
            .append_column("width", pa.array(w)) \
            .append_column("height", pa.array(h)) \
            .append_column("mode", pa.array(modes, pa.string())) \
            .append_column("subsampling", pa.array(subs, pa.string())) \
            .append_column("restart_interval", pa.array(rst)) \
            .append_column("decode_ok", pa.array(ok))


class FlacStereoFeatureStage:
    """Stereo-FLAC binary column → (n_samples, assignment, rms_l, rms_r,
    decode_ok).  REAL lossless decode through engine/flac.py (CRC + MD5
    gates) plus the container-introspection nibble saying WHICH RFC 9639
    decorrelation mode the frame used — so an oracle can pin both the
    decoded signal statistics and the encoder's mode selection.  RMS uses
    integer-exact sums of squares (int64) before the one float divide,
    mirroring the SQL oracle's arithmetic."""

    def __init__(self, bytes_col: str = "bytes",
                 id_col: str = "aud_id") -> None:
        self.bytes_col = bytes_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        from engine.audio import AudioDecodeError
        from engine.flac import decode_flac, first_frame_assignment

        blobs = binary_views(batch.column(self.bytes_col))
        n_rows = batch.num_rows
        ns = np.zeros(n_rows, dtype=np.int64)
        assign = np.zeros(n_rows, dtype=np.int32)
        rms_l = np.zeros(n_rows, dtype=np.float64)
        rms_r = np.zeros(n_rows, dtype=np.float64)
        ok = np.zeros(n_rows, dtype=bool)
        for i in range(n_rows):
            raw = blobs[i] or b""
            try:
                pcm, _sr = decode_flac(raw)
                assign[i] = first_frame_assignment(raw)
            except AudioDecodeError:
                continue
            if pcm.ndim != 2 or pcm.shape[1] != 2 or pcm.shape[0] == 0:
                continue
            n = pcm.shape[0]
            x = pcm.astype(np.int64)
            ssl = int((x[:, 0] * x[:, 0]).sum())
            ssr = int((x[:, 1] * x[:, 1]).sum())
            rms_l[i] = np.sqrt(float(ssl) / n) / 32767.0
            rms_r[i] = np.sqrt(float(ssr) / n) / 32767.0
            ns[i] = n
            ok[i] = True
        keep = [c for c in batch.column_names if c != self.bytes_col]
        return batch.select(keep) \
            .append_column("decode_ok", pa.array(ok)) \
            .append_column("n_samples", pa.array(ns)) \
            .append_column("assignment", pa.array(assign)) \
            .append_column("rms_l", pa.array(rms_l)) \
            .append_column("rms_r", pa.array(rms_r))
