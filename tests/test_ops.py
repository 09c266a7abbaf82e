"""Training-data ops: dedup families, similarity search, text analysis."""

import numpy as np
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data

    rng = np.random.default_rng(5)
    words = "alpha beta gamma delta epsilon zeta eta theta iota kappa".split()
    texts = [" ".join(rng.choice(words, 30)) for _ in range(80)]
    # plant near-dups: 90-95% overlapping copies
    texts.append(texts[0].replace("alpha", "beta", 1))
    texts.append(texts[1] + " extra")
    texts.append(texts[2])  # exact dup
    return ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }))


@pytest.fixture(scope="module")
def emb_ds(ray_session):
    import ray.data

    rng = np.random.default_rng(6)
    vecs = rng.standard_normal((60, 16)).astype(np.float32)
    vecs[50] = vecs[0] + rng.standard_normal(16).astype(np.float32) * 0.01   # near-dup pair
    return ray.data.from_arrow(pa.table({
        "vec_id": pa.array(range(60), pa.int64()),
        "embedding": pa.FixedSizeListArray.from_arrays(pa.array(vecs.reshape(-1)), 16),
    }))


def test_exact_dedup(docs_ds):
    distinct = docs_ds.groupby("text").min("doc_id")
    assert distinct.count() == docs_ds.count() - 1      # one exact dup planted


def test_minhash_lsh_finds_planted_near_dups(docs_ds):
    from engine.ops.dedup import minhash_lsh_pairs

    pairs = {(r["a"], r["b"]) for r in
             minhash_lsh_pairs(docs_ds, min_est_jaccard=0.5, concurrency=(1, 2)).take_all()}
    assert (0, 80) in pairs
    assert (1, 81) in pairs
    assert (2, 82) in pairs


def test_simhash_finds_exact_dup(docs_ds):
    from engine.ops.dedup import simhash_pairs

    pairs = {(r["a"], r["b"]) for r in
             simhash_pairs(docs_ds, max_hamming=3, concurrency=(1, 2)).take_all()}
    assert (2, 82) in pairs


def test_jaccard_verify(docs_ds, ray_session):
    import ray.data

    from engine.ops.dedup import jaccard_verify

    cand = ray.data.from_arrow(pa.table({"a": [2, 0], "b": [82, 40]}))
    got = {(r["a"], r["b"]): r["jaccard"] for r in
           jaccard_verify(cand, docs_ds, min_jaccard=0.0).take_all()}
    assert got[(2, 82)] == 1.0
    assert got[(0, 40)] < 0.5


def test_knn_brute_force_exact(emb_ds):
    from engine.ops.similarity import knn_brute_force

    q = emb_ds.take(1)[0]["embedding"]
    top = knn_brute_force(emb_ds, q, k=3).take_all()
    assert top[0]["vec_id"] == 0 and top[0]["sim"] > 0.999
    assert top[1]["vec_id"] == 50 and top[1]["sim"] > 0.99


def test_knn_lsh_finds_strong_neighbor(emb_ds):
    from engine.ops.similarity import knn_lsh

    q = emb_ds.take(1)[0]["embedding"]
    ids = [r["vec_id"] for r in knn_lsh(emb_ds, q, k=3, max_hamming=3).take_all()]
    assert 0 in ids and 50 in ids


def test_ivf_empty_corpus_is_safe(ray_session):
    """Round-2 advice: an empty embeddings dataset must train (0,0) centroids
    and yield an empty knn result, not an AxisError."""
    import ray.data

    from engine.ops.similarity import knn_ivf, train_ivf_centroids

    empty = ray.data.from_arrow(pa.table({
        "vec_id": pa.array([], pa.int64()),
        "embedding": pa.array([], pa.list_(pa.float32())),
    }))
    cents = train_ivf_centroids(empty)
    assert cents.shape == (0, 0)
    out = knn_ivf(empty, np.ones(16, dtype=np.float32), k=3).take_all()
    assert out == []


def test_ivf_centroids_cached_across_invocations(ray_session, monkeypatch):
    """Round-2 VERDICT item 6: the second knn_ivf_top10 call must NOT retrain
    centroids (no limit().take_all() sample pull)."""
    import engine.ops.similarity as sim
    from engine import queries as q

    q._ivf_centroids_cached.cache_clear()
    calls = {"n": 0}
    real = sim.train_ivf_centroids

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(sim, "train_ivf_centroids", counting)
    entry = __import__("__ray_entry__")
    sf = "/root/testdata/sf0.001"
    first = entry.queries()["knn_ivf_top10"](sf).take_all()
    second = entry.queries()["knn_ivf_top10"](sf).take_all()
    assert calls["n"] == 1
    assert [r["vec_id"] for r in first] == [r["vec_id"] for r in second]


def test_embedding_near_dup(emb_ds):
    from engine.ops.similarity import near_dup_cosine_pairs

    pairs = {(r["a"], r["b"]) for r in
             near_dup_cosine_pairs(emb_ds, threshold=0.99).take_all()}
    assert (0, 50) in pairs


def test_text_stages(docs_ds):
    from engine.ops.text import FingerprintStage, LangIdStage, TokenStatsStage

    out = docs_ds.map_batches(TokenStatsStage, batch_format="pyarrow", concurrency=2) \
        .map_batches(LangIdStage, batch_format="pyarrow", concurrency=2) \
        .map_batches(FingerprintStage, batch_format="pyarrow", concurrency=2)
    rows = out.take(3)
    assert rows[0]["ws_tokens"] == 30
    assert rows[0]["lang_pred"] in {"en", "und", "es", "de", "fr", "zh"}
    assert len(rows[0]["md5"]) == 32
    # identical text → identical fingerprints
    by_id = {r["doc_id"]: r for r in out.take_all()}
    assert by_id[2]["md5"] == by_id[82]["md5"]
    assert by_id[2]["roll_fp"] == by_id[82]["roll_fp"]


def test_rolling_fingerprint_pinned_values():
    """Pin the v2 roll_fp contract (round-2 advice): short texts (UTF-8 len
    <= window) are NUL-padded to exactly ONE window.  Any change to padding,
    BASE, or window math flips these and must bump FP_VERSION."""
    from engine.ops.text import FingerprintStage

    fp = FingerprintStage()                     # window=16
    assert fp.FP_VERSION == 2
    pinned = {
        "": 0,
        "a": 97,
        "hi": 115448720962259,
        "0123456789abcdef": 9480379446452065308,       # exactly one window
        "0123456789abcdefg": 9480379446452065308,      # min still window 0
        "The quick brown fox jumps over the lazy dog": 560612368232801456,
    }
    for text, want in pinned.items():
        assert fp.rolling_min(text) == want, text
    # v2 single-window property: a short text and its NUL-extension collide.
    assert fp.rolling_min("abc") == fp.rolling_min("abc\0\0")
    # Brute-force cross-check on a >window text: min over explicit windows.
    text = "the quick brown fox"
    data = text.encode()
    w, BASE = fp.window, int(fp.BASE)
    explicit = min(
        sum(data[i + j] * pow(BASE, j, 1 << 64) for j in range(w)) % (1 << 64)
        for i in range(len(data) - w + 1)
    )
    assert fp.rolling_min(text) == explicit


def test_langid_scripts(ray_session):
    from engine.ops.text import LangIdStage

    stage = LangIdStage()
    assert stage.classify("the cat sat on the mat and it is a dog")[0] == "en"
    assert stage.classify("el perro y la casa de que en un")[0] == "es"
    assert stage.classify("这是一个中文句子")[0] == "zh"


def test_multimodal_stubs(ray_session):
    import ray.data

    from engine.ops.multimodal import FrameSampleStage, ImageDecodeStage

    ds = ray.data.from_arrow(pa.table({
        "image": pa.array([b"fakejpg" * 10, b"x"], pa.large_binary()),
        "video": pa.array([b"fakemp4" * 99, b"y"], pa.large_binary()),
    }))
    out = ds.map_batches(ImageDecodeStage, batch_format="pyarrow", concurrency=1) \
        .map_batches(FrameSampleStage, batch_format="pyarrow", concurrency=1)
    rows = out.take_all()
    assert rows[0]["width"] > 0 and len(rows[0]["frame_offsets"]) == 4
    with pytest.raises(NotImplementedError):
        ImageDecodeStage(fake=False)(pa.table({"image": pa.array([b"z"], pa.large_binary())}))


def test_image_codecs_roundtrip():
    """Pure-numpy PPM/PGM/BMP/TGA encode→decode is pixel-exact."""
    import numpy as np

    from engine.image import (decode_bmp, decode_image, decode_pnm, decode_tga,
                              encode_bmp, encode_ppm, encode_tga)

    y, x = np.mgrid[0:13, 0:17]  # odd width exercises BMP row padding
    rgb = np.stack([(x * 3) % 256, (y * 5) % 256, (x + y) % 256],
                   axis=2).astype(np.uint8)
    gray = ((x * 7 + y) % 256).astype(np.uint8)

    assert (decode_pnm(encode_ppm(rgb)) == rgb).all()
    assert (decode_pnm(encode_ppm(gray)) == gray[:, :, None]).all()
    assert (decode_bmp(encode_bmp(rgb)) == rgb).all()
    assert (decode_tga(encode_tga(rgb)) == rgb).all()

    img, fmt = decode_image(encode_bmp(rgb))
    assert fmt == "bmp" and img.shape == (13, 17, 3)

    # RGBA TGA
    rgba = np.dstack([rgb, ((x + 2 * y) % 256).astype(np.uint8)])
    assert (decode_tga(encode_tga(rgba)) == rgba).all()


def test_png_codec_roundtrip_all_filters():
    """Baseline PNG encode→decode is pixel-exact for every scanline filter
    (0-4), every color type (gray/RGB/RGBA/palette), odd shapes, and the
    gray+alpha (type 4) expansion path."""
    import struct
    import zlib

    import numpy as np
    import pytest as _pytest

    from engine.image import (ImageDecodeError, decode_image, decode_png,
                              encode_png, encode_png_palette, sniff_format)

    rng = np.random.default_rng(3)
    for shape in [(7, 5), (7, 5, 3), (16, 33, 4), (1, 1, 3), (2, 300, 3)]:
        img = rng.integers(0, 256, size=shape, dtype=np.uint8)
        want = img[:, :, None] if img.ndim == 2 else img
        for f in range(5):
            data = encode_png(img, filter_type=f)
            assert sniff_format(data) == "png"
            assert (decode_png(data) == want).all(), (shape, f)

    idx = rng.integers(0, 16, size=(9, 13), dtype=np.uint8)
    pal = rng.integers(0, 256, size=(16, 3), dtype=np.uint8)
    for f in range(5):
        assert (decode_png(encode_png_palette(idx, pal, filter_type=f))
                == pal[idx]).all()

    # gray+alpha (color type 4) expands to RGBA; hand-built chunk stream
    h, w = 4, 6
    g = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
    a = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
    scan = np.concatenate([np.zeros((h, 1), np.uint8),
                           np.stack([g, a], axis=2).reshape(h, w * 2)], axis=1)

    def chunk(tag, body):
        return (struct.pack(">I", len(body)) + tag + body
                + struct.pack(">I", zlib.crc32(tag + body)))

    data = (b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 4, 0, 0, 0))
            + chunk(b"IDAT", zlib.compress(scan.tobytes()))
            + chunk(b"IEND", b""))
    out, fmt = decode_image(data)
    assert fmt == "png" and out.shape == (h, w, 4)
    assert (out[:, :, 0] == g).all() and (out[:, :, 1] == g).all() \
        and (out[:, :, 3] == a).all()

    # honest rejects: truncated IDAT, 16-bit depth, interlaced
    good = encode_png(np.zeros((4, 4), np.uint8))
    with _pytest.raises(ImageDecodeError):
        decode_png(good[:40])
    hdr16 = chunk(b"IHDR", struct.pack(">IIBBBBB", 4, 4, 16, 0, 0, 0, 0))
    with _pytest.raises(ImageDecodeError):
        decode_png(b"\x89PNG\r\n\x1a\n" + hdr16 + chunk(b"IEND", b""))
    hdr_i = chunk(b"IHDR", struct.pack(">IIBBBBB", 4, 4, 8, 0, 0, 0, 1))
    with _pytest.raises(ImageDecodeError):
        decode_png(b"\x89PNG\r\n\x1a\n" + hdr_i
                   + chunk(b"IDAT", zlib.compress(b"x" * 20))
                   + chunk(b"IEND", b""))


def test_gif_codec_roundtrip_lzw_interlace_transparency():
    """GIF round trip across LZW edge cases: code-width growth to 12 bits
    and the 4096-entry dictionary reset (300x300 random), the deferred
    code==next_code (KwKwK) case (constant image), an INDEPENDENT
    clear-before-every-literal writer (spec-trivial stream — validates the
    decoder without trusting the compressing encoder), interlace pass
    order, and GCE transparency -> RGBA."""
    import struct

    import numpy as np

    from engine.image import decode_gif, decode_image, encode_gif, sniff_format

    rng = np.random.default_rng(9)
    for shape, ncol in [((5, 7), 4), ((33, 17), 16), ((300, 300), 32),
                        ((1, 1), 2), ((64, 1), 256)]:
        pal = rng.integers(0, 256, size=(ncol, 3), dtype=np.uint8)
        idx = rng.integers(0, ncol, size=shape, dtype=np.uint8)
        data = encode_gif(idx, pal)
        assert sniff_format(data) == "gif"
        assert (decode_gif(data) == pal[idx]).all(), (shape, ncol)

    # constant image: every step hits the just-defined dictionary entry
    idx = np.zeros((40, 40), np.uint8)
    pal = np.array([[1, 2, 3], [4, 5, 6]], np.uint8)
    assert (decode_gif(encode_gif(idx, pal)) == pal[idx]).all()

    # independent writer: CLEAR before every literal code
    def naive_gif(idx, pal, min_code):
        clear = 1 << min_code
        eoi = clear + 1
        size = min_code + 1
        acc = nb = 0
        out = bytearray()

        def emit(c):
            nonlocal acc, nb
            acc |= c << nb
            nb += size
            while nb >= 8:
                out.append(acc & 0xFF)
                acc >>= 8
                nb -= 8

        for px in idx.flatten():
            emit(clear)
            emit(int(px))
        emit(eoi)
        if nb:
            out.append(acc & 0xFF)
        h, w = idx.shape
        padded = np.zeros((8, 3), np.uint8)
        padded[:pal.shape[0]] = pal
        g = bytearray(b"GIF89a") + struct.pack("<HHBBB", w, h, 0x80 | 2, 0, 0) \
            + padded.tobytes()
        g += b"\x2C" + struct.pack("<HHHHB", 0, 0, w, h, 0) + bytes([min_code])
        for lo in range(0, len(out), 255):
            chunk = out[lo:lo + 255]
            g.append(len(chunk))
            g += chunk
        g += b"\x00\x3B"
        return bytes(g)

    idx = rng.integers(0, 8, size=(23, 11), dtype=np.uint8)
    pal = rng.integers(0, 256, size=(8, 3), dtype=np.uint8)
    assert (decode_gif(naive_gif(idx, pal, 3)) == pal[idx]).all()

    # interlace: pre-permute rows so deinterlacing restores them
    h, w = 19, 9
    idx = rng.integers(0, 4, size=(h, w), dtype=np.uint8)
    pal = rng.integers(0, 256, size=(4, 3), dtype=np.uint8)
    rows = np.concatenate([np.arange(0, h, 8), np.arange(4, h, 8),
                           np.arange(2, h, 4), np.arange(1, h, 2)])
    data = bytearray(encode_gif(idx[rows], pal))
    pos = data.index(0x2C, 13 + 4 * 3)
    data[pos + 9] |= 0x40
    assert (decode_gif(bytes(data)) == pal[idx]).all()

    # transparency -> RGBA through the shared dispatch
    data = encode_gif(idx, pal, transparent=2)
    out, fmt = decode_image(data)
    assert fmt == "gif" and out.shape == (h, w, 4)
    assert (out[:, :, 3] == np.where(idx == 2, 0, 255)).all()


def test_image_codecs_reject_garbage():
    import pytest as _pytest

    from engine.image import ImageDecodeError, decode_image

    for bad in (b"", b"zzzz", b"P6 broken", b"BMtooshort",
                b"P6\n3 3\n255\nxy"):  # truncated pixels
        with _pytest.raises(ImageDecodeError):
            decode_image(bad)


def test_image_decode_stage_real(ray_session):
    """ImageDecodeStage really decodes the synthesized corpus: dimensions and
    mean luminance match the generator's closed form, row by row."""
    import numpy as np
    import ray.data

    from engine.data.images import image_dims, image_format, synth_image_batch
    from engine.ops.multimodal import ImageDecodeStage

    n = 25
    ds = ray.data.range(n).map_batches(synth_image_batch, batch_format="pyarrow",
                                       zero_copy_batch=True)
    rows = {r["img_id"]: r for r in
            ds.map_batches(ImageDecodeStage, batch_format="pyarrow",
                           concurrency=1).take_all()}
    assert len(rows) == n
    for i in range(n):
        r = rows[i]
        fmt = image_format(i)
        if fmt == "unknown":
            assert not r["decode_ok"] and r["img_format"] == "unknown"
            continue
        w, h = image_dims(i)
        assert r["decode_ok"], (i, fmt)
        assert (r["width"], r["height"]) == (w, h), (i, fmt)
        assert r["img_format"] == ("pnm" if fmt in ("ppm", "pgm") else fmt)
        assert r["mode"] == ("L" if fmt == "pgm" else "RGB")
        # closed-form mean of the gradient (x + 2y + i) % 256 per channel
        y, x = np.mgrid[0:h, 0:w]
        base = ((x + 2 * y + i) % 256).astype(np.float64)
        if fmt == "pgm":
            expect = base.mean()
        else:
            expect = np.mean([base.mean(), ((base + 85) % 256).mean(),
                              ((base + 170) % 256).mean()])
        assert abs(r["mean_lum"] - expect) < 1e-6, (i, fmt)


def test_ppmv_container_roundtrip():
    import numpy as np

    from engine.video import (VideoDecodeError, decode_frame, encode_ppmv,
                              read_ppmv_index, sample_frame_indices)

    y, x = np.mgrid[0:9, 0:11]
    frames = [((x + y + 3 * f) % 256).astype(np.uint8) for f in range(5)]
    blob = encode_ppmv(frames, fps=12.5)
    n, fps, offs = read_ppmv_index(blob)
    assert n == 5 and fps == 12.5 and len(offs) == 6
    for f in range(5):
        assert (decode_frame(blob, offs, f) == frames[f][:, :, None]).all()
    assert sample_frame_indices(5, 3).tolist() == [0, 1, 3]
    assert sample_frame_indices(2, 4).tolist() == [0, 1]
    assert sample_frame_indices(0, 4).tolist() == []
    for bad in (b"", b"PPMV", b"nope" * 10):
        with pytest.raises(VideoDecodeError):
            read_ppmv_index(bad)


def test_frame_sample_stage_real(ray_session):
    """FrameSampleStage seek-decodes the sampled frames of the synthetic PPMV
    corpus; values match the generator's closed form."""
    import numpy as np
    import ray.data

    from engine.data.images import (synth_video_batch, video_dims, video_frames)
    from engine.ops.multimodal import FrameSampleStage
    from engine.video import sample_frame_indices

    n = 20
    ds = ray.data.range(n).map_batches(synth_video_batch, batch_format="pyarrow",
                                       zero_copy_batch=True)
    rows = {r["vid_id"]: r for r in
            ds.map_batches(FrameSampleStage, fn_constructor_kwargs={"n_frames": 3},
                           batch_format="pyarrow", concurrency=1).take_all()}
    assert len(rows) == n
    for i in range(n):
        r = rows[i]
        if i % 7 == 6:
            assert not r["video_ok"] and r["frame_lums"] == []
            continue
        nf = video_frames(i)
        assert r["video_ok"] and r["total_frames"] == nf
        assert r["fps"] == 5.0 + i % 20
        idx = sample_frame_indices(nf, 3)
        assert len(r["frame_offsets"]) == len(idx)
        w, h = video_dims(i)
        y, x = np.mgrid[0:h, 0:w]
        for pos, f in enumerate(idx):
            expect = ((x + y + i + 7 * int(f)) % 256).mean()
            assert abs(r["frame_lums"][pos] - expect) < 1e-9


def test_jaccard_all_pairs_exact(docs_ds):
    """Inverted-index all-pairs jaccard equals the brute-force set math."""
    from engine.ops.dedup import jaccard_all_pairs
    from engine.ops.text import TOKEN_RE

    rows = docs_ds.take_all()
    sets = {r["doc_id"]: set(TOKEN_RE.findall(r["text"])) for r in rows}
    want = {}
    ids = sorted(sets)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            inter = len(sets[a] & sets[b])
            union = len(sets[a] | sets[b])
            if union and inter and inter / union >= 0.5:
                want[(a, b)] = inter / union
    got = {(r["a"], r["b"]): r["jaccard"]
           for r in jaccard_all_pairs(docs_ds, min_jaccard=0.5).take_all()}
    assert got == want
    assert (2, 82) in got and got[(2, 82)] == 1.0   # planted exact dup


def test_jaccard_all_pairs_gate(ray_session, monkeypatch):
    import engine.ops.dedup as dd

    monkeypatch.setattr(dd, "JACCARD_ALL_PAIRS_MAX_ROWS", 10)
    import ray.data
    big = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(11), pa.int64()),
        "text": pa.array(["x"] * 11, pa.string())}))
    with pytest.raises(ValueError, match="gated"):
        dd.jaccard_all_pairs(big)


def test_all_pairs_cosine_exact_and_gate(emb_ds, monkeypatch):
    import engine.ops.similarity as sim

    pairs = {(r["a"], r["b"]): r["cosine"]
             for r in sim.all_pairs_cosine(emb_ds, threshold=0.99).take_all()}
    assert (0, 50) in pairs and pairs[(0, 50)] > 0.99
    # every pair ordered a < b, float64 rounded to 5
    assert all(a < b for a, b in pairs)

    monkeypatch.setattr(sim, "ALL_PAIRS_MAX_ROWS", 10)
    with pytest.raises(ValueError, match="gated"):
        sim.all_pairs_cosine(emb_ds)


def test_top_terms_matches_pandas_reference(ray_session):
    """tf-idf rank: the exchange path equals a driver-side pandas
    reference on a multi-block corpus, and the rank order (tf DESC, df ASC,
    term ASC) holds."""
    import ray.data

    from engine.ops.text import term_doc_counts, top_terms_per_doc

    docs_t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "text": pa.array([
            "apple apple banana zebra",       # tf: apple 2; tie banana/zebra
            "banana banana apple",
            "",                                # tokenless doc -> no rows
            "kiwi zebra apple kiwi",
            "kiwi banana",
        ])})

    def rows(ds):
        return sorted(((r["doc_id"], r["rank"], r["term"], r["tf"], r["df"])
                       for r in ds.take_all()))

    td = term_doc_counts(docs_t).to_pandas()
    td["df"] = td.groupby("term")["term"].transform("size")
    td = td.sort_values(["doc_id", "tf", "df", "term"], ascending=[True, False, True, True])
    td["rank"] = td.groupby("doc_id").cumcount() + 1
    want = sorted((int(d), int(r), t, int(tf), int(df)) for d, r, t, tf, df in
                  td[td["rank"] <= 2][["doc_id", "rank", "term", "tf", "df"]]
                  .itertuples(index=False, name=None))
    docs = ray.data.from_arrow([docs_t.slice(0, 2), docs_t.slice(2)])
    assert rows(top_terms_per_doc(docs, k=2)) == want
    # doc1: apple (tf2) then zebra (tf1, df2 beats banana df3).
    # doc2: banana (tf2) then apple (tf1).  doc3 absent.
    assert want[:4] == [(1, 1, "apple", 2, 3), (1, 2, "zebra", 1, 2),
                        (2, 1, "banana", 2, 3), (2, 2, "apple", 1, 3)]
    assert 3 not in {r[0] for r in want}


def test_term_doc_counts_vectorized_counts():
    from engine.ops.text import term_doc_counts

    batch = pa.table({
        "doc_id": pa.array([7, 8], pa.int64()),
        "text": pa.array(["x y x \x0by", None])})
    t = term_doc_counts(batch)
    got = {(r["doc_id"], r["term"]): r["tf"] for r in t.to_pylist()}
    # \x0b (vertical tab) is NOT whitespace in the RE2/ASCII class: "x" and
    # "\x0by" stay distinct tokens, None text contributes nothing.
    assert got == {(7, "x"): 2, (7, "y"): 1, (7, "\x0by"): 1}


def test_audio_chunk_stage_windows_and_rms():
    """Window plan (100/60/20 ms), trailing-partial rule, per-window rms on
    a known constant signal, and undecodable rows contributing no chunks."""
    from engine.audio import encode_wav
    from engine.ops.multimodal import AudioChunkStage

    sr = 8000
    sig = np.full(sr // 2, 0.25, dtype=np.float32)       # 500 ms constant
    batch = pa.table({
        "aud_id": pa.array([1, 2], pa.int64()),
        "bytes": pa.array([encode_wav(sig, sr), b"notawav"], pa.large_binary()),
        "codec": pa.array(["pcm16", "pcm16"]),
    })
    out = AudioChunkStage()(batch)
    assert out.column("aud_id").to_pylist() == [1] * out.num_rows
    win, hop, mins = 800, 480, 160
    n = sig.size
    n_chunks = (n - mins) // hop + 1
    assert out.num_rows == n_chunks
    starts = out.column("start_sample").to_numpy()
    sizes = out.column("n_samples").to_numpy()
    assert list(starts) == [i * hop for i in range(n_chunks)]
    assert list(sizes) == [min(win, n - s) for s in starts]
    # constant signal: every window's rms equals the quantized amplitude
    rms = out.column("chunk_rms").to_numpy()
    assert np.allclose(rms, rms[0]) and abs(rms[0] - 0.25) < 1e-3


def test_top_terms_preserves_nul_byte_terms(ray_session):
    """Round-3 review finding 1: a trailing-NUL token must survive the
    per-partition rank (numpy '<U' arrays silently strip trailing NULs)."""
    import ray.data

    from engine.ops.text import top_terms_per_doc

    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([1], pa.int64()),
        "text": pa.array(["abc\x00 abc\x00 zzz"])}))
    rows = sorted(top_terms_per_doc(docs, k=2).take_all(),
                  key=lambda r: r["rank"])
    assert [r["term"] for r in rows] == ["abc\x00", "zzz"]
    assert rows[0]["tf"] == 2


def test_hybrid_chain_edges_bypass_est_filter():
    """Round-3 review finding 3: chain edges guarantee connectivity, so the
    est prefilter must not drop them (clique pairs stay filtered)."""
    from engine.ops.dedup import partition_candidate_pairs

    k = 4
    # Three docs in one bucket; doc 3's signature disagrees entirely
    # (est 0.0 against both others), so every clique pair touching it is
    # filtered at min_est=0.5 — only its chain link may keep it connected.
    sigs = [[1, 2, 3, 4], [1, 2, 3, 4], [9, 9, 9, 9]]
    group = pa.table({
        "band": pa.array([0, 0, 0], pa.int64()),
        "band_key": pa.array([7, 7, 7], pa.int64()),
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "sig": pa.FixedSizeListArray.from_arrays(
            pa.array(np.array(sigs, dtype=np.int64).reshape(-1)), k),
    })
    clique = partition_candidate_pairs(group, min_est_jaccard=0.5,
                                       pair_mode="clique")
    hybrid = partition_candidate_pairs(group, min_est_jaccard=0.5,
                                       pair_mode="hybrid")
    cpairs = set(zip(clique.column("a").to_pylist(), clique.column("b").to_pylist()))
    hpairs = set(zip(hybrid.column("a").to_pylist(), hybrid.column("b").to_pylist()))
    assert cpairs == {(1, 2)}                       # doc 3 orphaned
    assert (2, 3) in hpairs and (1, 2) in hpairs    # chain keeps doc 3


def test_audio_chunk_stage_min_ms_zero_no_empty_chunk():
    """Round-3 review finding 5: min_ms=0 must not emit a 0-sample chunk."""
    from engine.audio import encode_wav
    from engine.ops.multimodal import AudioChunkStage

    sr = 8000
    sig = np.full(960, 0.5, dtype=np.float32)   # 2 hops exactly (hop=480)
    batch = pa.table({
        "aud_id": pa.array([1], pa.int64()),
        "bytes": pa.array([encode_wav(sig, sr)], pa.large_binary()),
        "codec": pa.array(["pcm16"]),
    })
    out = AudioChunkStage(min_ms=0)(batch)
    sizes = out.column("n_samples").to_numpy()
    assert (sizes > 0).all()
    assert not np.isnan(out.column("chunk_rms").to_numpy()).any()


def test_knn_multi_query_matches_single_query(ray_session):
    """One-scan batch kNN must equal m separate knn_brute_force scans
    (same rounded-tie cut convention, self-match excluded)."""
    import ray.data

    from engine.ops.similarity import knn_brute_force, knn_multi_query

    rng = np.random.default_rng(5)
    emb = rng.standard_normal((200, 16)).astype(np.float32)
    ds = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(range(200), pa.int64()),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(emb.reshape(-1)), 16),
    })).repartition(4)
    qids = [3, 77]
    multi = knn_multi_query(ds, qids, emb[qids], k=4).take_all()
    got = {(r["query_id"], r["rank"]): (r["vec_id"], round(r["sim"], 5))
           for r in multi}
    for qid in qids:
        mask = np.arange(200) != qid
        sub = ray.data.from_arrow(pa.table({
            "vec_id": pa.array(np.arange(200)[mask]),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(emb[mask].reshape(-1)), 16),
        }))
        single = knn_brute_force(sub, emb[qid], k=4,
                                 keep_all_candidates=True,
                                 tie_round_decimals=5) \
            .sort(["sim", "vec_id"], descending=[True, False]).limit(4).take_all()
        for rank, r in enumerate(single, 1):
            assert got[(qid, rank)] == (r["vec_id"], round(r["sim"], 5))


def test_image_resize_stage_matches_numpy():
    """Stride-2 resample must equal arr[::2, ::2] on a decoded image, and
    undecodable payloads must vanish from the output."""
    from engine.data.images import synth_image
    from engine.image import decode_image
    from engine.ops.multimodal import ImageResizeStage

    batch = pa.table({
        "img_id": pa.array([0, 4], pa.int64()),   # id 4 is the opaque payload
        "image": pa.array([synth_image(0), synth_image(4)], pa.large_binary()),
    })
    out = ImageResizeStage()(batch)
    assert out.column("img_id").to_pylist() == [0]
    arr, _ = decode_image(synth_image(0))
    small = arr[::2, ::2]
    assert out.column("out_h").to_pylist() == [small.shape[0]]
    assert out.column("out_w").to_pylist() == [small.shape[1]]
    assert out.column("lum_sum").to_pylist() == [int(small.astype(np.int64).sum())]
    assert out.column("nvals").to_pylist() == [small.size]


def test_audio_trim_stage_edges(ray_session):
    """Trim conventions: exact-zero pads, all-silent → lead=n, undecodable
    rows report decode_ok=False with zeroed counters; kept_rms is NULL
    (not NaN) where nothing is kept."""
    from engine.audio import encode_audio
    from engine.ops.multimodal import AudioTrimStage

    sig = np.concatenate([np.zeros(100, np.float32),
                          np.full(50, 0.25, np.float32),
                          np.zeros(30, np.float32)])
    rows = pa.table({
        "aud_id": pa.array([0, 1, 2], pa.int64()),
        "bytes": pa.array([encode_audio(sig, 8000, "pcm16"),
                           encode_audio(np.zeros(77, np.float32), 8000, "flac"),
                           b"junk"], pa.large_binary()),
        "codec": pa.array(["pcm16", "flac", "pcm16"], pa.string()),
    })
    out = AudioTrimStage()(rows)
    assert out.column("decode_ok").to_pylist() == [True, True, False]
    assert out.column("lead_sil").to_pylist() == [100, 77, 0]
    assert out.column("trail_sil").to_pylist() == [30, 0, 0]
    assert out.column("n_kept").to_pylist() == [50, 0, 0]
    rms = out.column("kept_rms").to_pylist()
    assert abs(rms[0] - 0.25) < 1e-3 and rms[1] is None and rms[2] is None


def test_audio_resample_stage_matches_interp(ray_session):
    """Resampler math: identity at the target rate; up/down conversion
    matches an independent np.interp computation and preserves a smooth
    signal (SNR vs the analytically resampled sine > 30 dB)."""
    from engine.audio import encode_audio, snr_db
    from engine.ops.multimodal import AudioResampleStage

    stage = AudioResampleStage(target_hz=16000)
    t = np.arange(8000, dtype=np.float64) / 8000
    sig = (0.5 * np.sin(2 * np.pi * 220 * t)).astype(np.float32)

    out = stage.resample(sig, 8000)
    n_out = -(-sig.size * 16000 // 8000)
    assert out.size == n_out
    pos = np.arange(n_out) * (8000 / 16000)
    want = np.interp(pos, np.arange(sig.size), sig.astype(np.float64))
    assert np.allclose(out, want.astype(np.float32), atol=0)
    # analytic check: the resampled signal still tracks the 220 Hz sine
    t16 = np.arange(n_out, dtype=np.float64) / 16000
    ref = (0.5 * np.sin(2 * np.pi * 220 * t16)).astype(np.float32)
    assert snr_db(ref, out) > 30
    # identity at target rate
    assert stage.resample(sig, 16000) is sig
    # downsample path
    down = AudioResampleStage(target_hz=8000).resample(sig, 16000)
    assert down.size == -(-sig.size * 8000 // 16000)

    rows = pa.table({
        "aud_id": pa.array([0, 1], pa.int64()),
        "bytes": pa.array([encode_audio(sig, 8000, "pcm16"), b"junk"],
                          pa.large_binary()),
        "codec": pa.array(["pcm16", "pcm16"], pa.string()),
    })
    res = stage(rows)
    assert res.column("decode_ok").to_pylist() == [True, False]
    assert res.column("n_out").to_pylist() == [n_out, 0]
    assert res.column("sr_out").to_pylist() == [16000, 16000]


def test_myers_levenshtein_matches_naive_dp():
    """Both Myers forms (general multi-word scalar; batched single-word)
    against an independent O(mn) DP, including the length-0 and >64-byte
    multi-block regimes."""
    from engine.ops.text import myers_distance_batch64, myers_levenshtein

    def dp(a: bytes, b: bytes) -> int:
        d = np.arange(len(b) + 1)
        for i in range(1, len(a) + 1):
            prev = d.copy()
            d[0] = i
            for j in range(1, len(b) + 1):
                d[j] = min(prev[j] + 1, d[j - 1] + 1,
                           prev[j - 1] + (a[i - 1] != b[j - 1]))
        return int(d[len(b)])

    assert myers_levenshtein("kitten", "sitting") == 3
    assert myers_levenshtein("", "abc") == 3
    assert myers_levenshtein("abc", "") == 3

    rng = np.random.default_rng(11)
    pairs = []
    for _ in range(120):
        la, lb = rng.integers(0, 64, 2)
        a = bytes(rng.integers(97, 103, la).astype(np.uint8))
        b = bytes(rng.integers(97, 103, lb).astype(np.uint8))
        pairs.append((a, b))
    got = myers_distance_batch64([p[0] for p in pairs], [p[1] for p in pairs])
    assert got.tolist() == [dp(a, b) for a, b in pairs]

    for _ in range(15):
        la, lb = rng.integers(0, 300, 2)
        a = bytes(rng.integers(97, 105, la).astype(np.uint8))
        b = bytes(rng.integers(97, 105, lb).astype(np.uint8))
        assert myers_levenshtein(a, b) == dp(a, b)

    with pytest.raises(ValueError):
        myers_distance_batch64([b"x" * 65], [b"y"])


def test_spectrogram_stage_math(ray_session):
    """Spectral feature checks: the dominant bin tracks a pure tone, the
    mel filterbank rows are triangles that tile the spectrum, and the
    log-mel vector peaks in the filter containing the tone."""
    from engine.audio import encode_audio
    from engine.ops.multimodal import AudioSpectrogramStage, mel_filterbank

    sr, n_fft = 16000, 256
    k = 20                                      # exact bin center
    sig = (0.5 * np.sin(2 * np.pi * k / n_fft
                        * np.arange(8000))).astype(np.float32)
    rows = pa.table({
        "aud_id": pa.array([0, 1, 2], pa.int64()),
        "bytes": pa.array([encode_audio(sig, sr, "pcm16"),
                           encode_audio(sig[:100], sr, "pcm16"),  # < n_fft
                           b"junk"], pa.large_binary()),
        "codec": pa.array(["pcm16", "pcm16", "pcm16"], pa.string()),
    })
    out = AudioSpectrogramStage()(rows)
    assert out.column("decode_ok").to_pylist() == [True, True, False]
    assert out.column("peak_bin").to_pylist()[0] == k
    assert out.column("n_frames").to_pylist() == [(8000 - 256) // 128 + 1, 0, 0]
    assert abs(out.column("spectral_centroid").to_pylist()[0] - k) < 1.0
    mel = out.column("log_mel").to_pylist()
    assert mel[1] is None and mel[2] is None
    mel0 = np.array(mel[0])
    assert mel0.size == 23
    # the tone's frequency falls inside the argmax mel filter's support
    fb = mel_filterbank(23, n_fft, sr)
    assert fb.shape == (23, 129)
    best = int(np.argmax(mel0))
    assert fb[best, k] > 0
    # filters are nonnegative and each interior bin is covered by >=1 filter
    assert (fb >= 0).all()
    covered = (fb.sum(axis=0) > 0)
    assert covered[3:120].all()


# ------------------------------------------------- repetition / decontam


def test_repetition_stats_brute_force():
    """RepetitionStatsStage vs a per-row brute-force reference, on inputs
    that exercise every branch (repeated 5-grams, all-same doc, empty,
    single token, <5 tokens) — the driver corpus never repeats a 5-gram,
    so the dup-5gram path needs crafted coverage."""
    from collections import Counter

    from engine.ops.text import TOKEN_RE, RepetitionStatsStage

    texts = [
        "a b c d e a b c d e a b c d e",          # whole doc repeats
        "x x x x x x",                            # one token repeated
        "alpha beta gamma delta",                 # < 5 tokens, no dups
        "",                                       # empty
        "solo",                                   # single token
        "p q r s t u v w x y z",                  # all distinct
        "a b a b a b a b a b",                    # dense bigram repetition
    ]
    batch = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                      "text": pa.array(texts, pa.string())})
    out = RepetitionStatsStage()(batch)
    for i, t in enumerate(texts):
        toks = TOKEN_RE.findall(t)
        n = len(toks)
        assert out.column("n_tokens")[i].as_py() == n
        assert out.column("distinct_tokens")[i].as_py() == len(set(toks))
        bg = Counter(zip(toks, toks[1:]))
        topc = max(bg.values()) if bg else 0
        assert out.column("top_bigram_count")[i].as_py() == topc
        fg = Counter(tuple(toks[j:j + 5]) for j in range(n - 4))
        dup = sum(c for c in fg.values() if c > 1)
        assert out.column("dup_5gram_positions")[i].as_py() == dup
        assert out.column("dup_token_frac")[i].as_py() == (
            (n - len(set(toks))) / n if n else 0.0)
        assert out.column("top_bigram_frac")[i].as_py() == (
            topc / (n - 1) if n >= 2 else 0.0)
        assert out.column("dup_5gram_frac")[i].as_py() == (
            dup / (n - 4) if n >= 5 else 0.0)
    # the crafted corpus actually hits the dup-5gram branch
    assert out.column("dup_5gram_positions").to_pylist()[0] > 0


def test_decontamination_stage_counts(ray_session):
    import ray
    import ray.data

    from engine.ops.text import DecontaminationStage, collect_shingle_set

    bench = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([0], pa.int64()),
        "text": pa.array(["the quick brown fox jumps"], pa.string())}))
    sh = collect_shingle_set(bench, width=3)
    assert sh == {"the quick brown", "quick brown fox", "brown fox jumps"}

    eval_batch = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([
            "we saw the quick brown fox today",   # 2 matched shingles
            "completely clean text here",          # clean
            "ab",                                  # < width tokens
        ], pa.string())})
    out = DecontaminationStage(ray.put(sh), width=3)(eval_batch)
    assert out.column("matched_shingles").to_pylist() == [2, 0, 0]
    assert out.column("contaminated").to_pylist() == [1, 0, 0]
    assert out.column("doc_shingles").to_pylist() == [5, 2, 0]


def test_decontamination_broadcast_gate(ray_session, monkeypatch):
    import ray.data

    from engine.ops import text as text_mod

    monkeypatch.setattr(text_mod, "DECONTAM_MAX_SHINGLES", 2)
    bench = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([0], pa.int64()),
        "text": pa.array(["a b c d e f g"], pa.string())}))
    with pytest.raises(ValueError, match="broadcast gate"):
        text_mod.collect_shingle_set(bench, width=3)


def test_bloom_decontamination_matches_exact_past_gate(ray_session, monkeypatch):
    """The Bloom scale path must produce the SAME table as the exact
    broadcast stage on a corpus whose benchmark side is PAST the broadcast
    gate (monkeypatched tiny, so collect_shingle_set refuses it)."""
    import numpy as np
    import ray
    import ray.data

    from engine.ops import text as text_mod
    from engine.ops.text import (BloomDecontaminationStage,
                                 DecontaminationStage,
                                 collect_shingle_bloom, collect_shingle_set)

    rng = np.random.default_rng(5)
    vocab = [f"w{j}" for j in range(200)]
    bench_docs = [" ".join(rng.choice(vocab, 30)) for _ in range(40)]
    bench = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(40), pa.int64()),
        "text": pa.array(bench_docs, pa.string())})).repartition(4)

    monkeypatch.setattr(text_mod, "DECONTAM_MAX_SHINGLES", 10)
    with pytest.raises(ValueError, match="collect_shingle_bloom"):
        collect_shingle_set(bench, width=3)
    bloom_state = collect_shingle_bloom(bench, width=3, fp_rate=1e-9)

    # eval side: half contaminated (verbatim bench windows), half clean
    eval_texts = [bench_docs[i][:60] for i in range(10)] + \
        [" ".join(rng.choice([f"z{j}" for j in range(300)], 25))
         for _ in range(10)]
    eval_batch = pa.table({
        "doc_id": pa.array(range(100, 120), pa.int64()),
        "text": pa.array(eval_texts, pa.string())})

    got = BloomDecontaminationStage(ray.put(bloom_state), width=3)(eval_batch)
    monkeypatch.setattr(text_mod, "DECONTAM_MAX_SHINGLES", 5_000_000)
    exact_set = collect_shingle_set(bench, width=3)
    want = DecontaminationStage(ray.put(exact_set), width=3)(eval_batch)
    assert got.equals(want)
    assert sum(want.column("contaminated").to_pylist()) == 10


def test_bloom_fpr_within_bound():
    """Measured false-positive rate of the shared BloomFilter stays within
    3x the design rate (double-hashing degradation margin) at 1e-3/1e-4."""
    import numpy as np

    from engine.checks.sketches import BloomFilter

    rng = np.random.default_rng(9)
    members = np.asarray([f"in-{i}-{rng.integers(1 << 30)}"
                          for i in range(50_000)], dtype=object)
    probes = np.asarray([f"out-{i}" for i in range(200_000)], dtype=object)
    for p in (1e-3, 1e-4):
        bf = BloomFilter(50_000, p)
        bf.add(members)
        fp = bf.contains(probes).sum() / probes.size
        assert fp <= 3 * p, (p, fp)
    assert BloomFilter(50_000, 1e-3).contains(probes).sum() == 0


def test_profile_events_approx_close_to_exact(ray_session):
    """The one-pass HLL profiler must agree with the exact profiler on
    everything except distinct counts, and its approximate distincts must
    land within 2% relative error column-by-column (p=14 ⇒ ~0.8% SE)."""
    import __ray_entry__ as entrymod

    sf = "/root/testdata/sf0.001"
    approx = entrymod.queries()["profile_events_approx"](sf).to_pandas()
    exact = entrymod.queries()["profile_events"](sf)
    exact = exact.to_pandas() if hasattr(exact, "to_pandas") else exact

    a = approx.set_index("col_name")
    e = exact.set_index("col_name")
    assert list(a.index) == list(e.index)
    for col in ("n_rows", "n_nulls", "min_repr", "max_repr"):
        assert a[col].tolist() == e[col].tolist(), col
    for c in a.index:
        want = e.loc[c, "n_distinct"]
        got = a.loc[c, "n_distinct_approx"]
        assert abs(got - want) <= max(0.02 * want, 1), (c, got, want)


def test_profile_table_nulls_and_types(ray_session, tmp_path):
    """profile_table on a crafted table with NULLs, an all-null column slice,
    and every supported kind — the driver corpus is null-free, so this is
    the only coverage of the null branches."""
    import pyarrow.parquet as pq
    import ray.data

    from engine.checks.profile import profile_table

    t = pa.table({
        "i": pa.array([3, None, 1, 3, None], pa.int64()),
        "f": pa.array([1.5, 2.25, None, 1.5, -0.5], pa.float64()),
        "s": pa.array(["b", "a", None, "b", "c"], pa.string()),
        "ts": pa.array([10, 20, 30, None, 20], pa.timestamp("us")),
    })
    pq.write_table(t, tmp_path / "t.parquet")
    out = profile_table(ray.data.read_parquet(str(tmp_path / "t.parquet")),
                        ["i", "f", "s", "ts"]).to_pandas().set_index("col_name")
    assert out.loc["i"].tolist() == [5, 2, 2, "1", "3"]
    assert out.loc["f"].tolist() == [5, 1, 3, "-0.500000", "2.250000"]
    assert out.loc["s"].tolist() == [5, 1, 3, "a", "c"]
    assert out.loc["ts"].tolist() == [5, 1, 3, "10", "30"]

    with pytest.raises(KeyError, match="not in dataset"):
        profile_table(ray.data.read_parquet(str(tmp_path / "t.parquet")),
                      ["i", "nope"])


def test_profile_table_distinct_exact_across_many_blocks(ray_session):
    """Every value repeats in each of 16 blocks, so every map task emits the
    same (column, value) pairs: the exchange must route all copies of a
    value to one partition (a per-process salted hash overcounts) and count
    it once there."""
    import pyarrow.compute as pc
    import ray.data

    from engine.checks.profile import profile_table

    rng = np.random.default_rng(11)
    base = pa.table({
        "i": pa.array(np.arange(300) * 7919, pa.int64()),
        "f": pa.array(np.arange(300) / 8.0 - 10.0, pa.float64()),
        "s": pa.array([f"k{v % 120}" for v in range(300)], pa.string()),
        "ts": pa.array(np.arange(300) % 45, pa.timestamp("us")),
    })
    blocks = [base.take(rng.permutation(base.num_rows)) for _ in range(16)]
    ds = ray.data.from_arrow(blocks)
    assert ds.num_blocks() >= 16
    out = profile_table(ds, ["i", "f", "s", "ts"]).to_pandas() \
        .set_index("col_name")
    whole = pa.concat_tables(blocks)
    for c in ("i", "f", "s", "ts"):
        assert out.loc[c, "n_rows"] == 16 * 300
        assert out.loc[c, "n_distinct"] == pc.count_distinct(
            whole.column(c)).as_py(), c


def test_profile_value_partition_is_process_independent():
    """Workers compute the exchange part of a (column, value) pair
    independently (``stages.exchange``'s split task), so the pair -> part
    map must not depend on the process's string-hash salt."""
    import json
    import os
    import subprocess
    import sys

    code = ("import json, sys\n"
            "import pyarrow as pa\n"
            "from engine.stages import _split\n"
            "vals = json.loads(sys.argv[1])\n"
            "t = pa.table({'col_name': ['c'] * len(vals), 'v': vals})\n"
            "print(json.dumps([p.column('v').to_pylist()\n"
            "                  for p in _split(['col_name', 'v'], None, 32, t)]))")
    vals = [f"v{i}" for i in range(64)] + ["0x1.8000000000000p+0", "nan"]
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    outs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": repo}
        out = subprocess.run([sys.executable, "-c", code, json.dumps(vals)],
                             env=env, capture_output=True, text=True,
                             check=True, timeout=120)
        outs.append(json.loads(out.stdout))
    assert sum(bool(p) for p in outs[0]) > 1
    assert outs[0] == outs[1]


def test_profile_table_more_partitions_than_values(ray_session, tmp_path):
    """A two-row table holds far fewer distinct values than the exchange
    has partitions, so most partitions are empty (Ray's sort emits them as
    zero-column blocks); a one-value column must still count 1."""
    import pyarrow.parquet as pq
    import ray.data

    from engine.checks.profile import profile_table

    pq.write_table(pa.table({"one": pa.array([7, 7], pa.int64()),
                             "s": pa.array(["x", "y"], pa.string())}),
                   tmp_path / "two.parquet")
    for ds in (ray.data.read_parquet(str(tmp_path / "two.parquet")),
               ray.data.read_parquet(str(tmp_path / "two.parquet"))
               .repartition(2)):
        out = profile_table(ds, ["one", "s"]).to_pandas().set_index("col_name")
        assert out.loc["one"].tolist() == [2, 0, 1, "7", "7"]
        assert out.loc["s"].tolist() == [2, 0, 2, "x", "y"]


def test_profile_table_float_identity(ray_session):
    """Distinct floats are DuckDB's: every NaN payload is one value, and
    -0.0 and 0.0 are one; an all-null column has 0 distinct."""
    import struct

    import ray.data

    from engine.checks.profile import profile_table

    other_nan = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
    vals = [float("nan"), other_nan, -0.0, 0.0, 1.5, None, float("nan")]
    t = pa.table({"f": pa.array(vals, pa.float64()),
                  "null_f": pa.array([None] * len(vals), pa.float64())})
    ds = ray.data.from_arrow([t, t.slice(2)])
    out = profile_table(ds, ["f", "null_f"]).to_pandas().set_index("col_name")
    assert out.loc["f", "n_distinct"] == 3          # nan, 0.0, 1.5
    assert out.loc["f", "n_nulls"] == 2
    assert out.loc["null_f", ["n_rows", "n_nulls", "n_distinct"]] \
        .tolist() == [12, 12, 0]
    assert out.loc["null_f", "min_repr"] is None


@pytest.mark.parametrize("vals", [[1.5, float("nan"), -2.0], [float("nan")], [-0.0, 0.0]])
def test_profile_table_floats_match_duckdb(ray_session, vals):
    """NaN is one value above every number (MAX is NaN when any value is,
    MIN too when all are), and -0.0 and 0.0 are one value, as in DuckDB.
    A signed zero's repr is not compared: DuckDB prints whichever zero it
    met first."""
    import duckdb
    import ray.data

    from engine.checks.profile import profile_table

    t = pa.table({"f": pa.array(vals, pa.float64())})
    got = profile_table(ray.data.from_arrow([t.slice(0, 1), t.slice(1)]), ["f"]).to_pylist()[0]
    want = duckdb.sql("SELECT COUNT(*), COUNT(DISTINCT f), printf('%.6f', MIN(f)), "
                      "printf('%.6f', MAX(f)) FROM t").fetchone()
    assert (got["n_rows"], got["n_distinct"]) == want[:2]
    if 0.0 in vals:
        assert [float(got["min_repr"]), float(got["max_repr"])] == [float(v) for v in want[2:]]
    else:
        assert [got["min_repr"], got["max_repr"]] == list(want[2:])


def test_profile_table_reads_its_input_once(ray_session, tmp_path):
    """Every aggregate of profile_table shares one pass: each read task of
    its input runs once per call."""
    import pyarrow.parquet as pq
    import ray.data
    from ray.data.datasource import ReadTask

    from engine.checks.profile import profile_table
    from engine.io import RowGroupParquetDatasource

    log = tmp_path / "reads.log"

    class CountedReads(RowGroupParquetDatasource):
        def get_read_tasks(self, parallelism):
            def counted(task):
                def read():
                    with open(log, "a") as f:
                        f.write("read\n")
                    return task()
                return ReadTask(read, task.metadata, task.schema)
            return [counted(t) for t in super().get_read_tasks(parallelism)]

    t = pa.table({"i": pa.array(range(400), pa.int64()),
                  "s": pa.array([f"v{x % 7}" for x in range(400)], pa.string())})
    pq.write_table(t, tmp_path / "t.parquet", row_group_size=100)
    source = CountedReads(str(tmp_path / "t.parquet"))
    ds = ray.data.read_datasource(source, override_num_blocks=source.num_tasks())
    out = profile_table(ds, ["i", "s"]).to_pandas().set_index("col_name")
    assert out.loc["i"].tolist() == [400, 0, 400, "0", "399"]
    assert out.loc["s"].tolist() == [400, 0, 7, "v0", "v6"]
    assert log.read_text().count("read") == 4


def test_profile_table_keys_are_typed():
    """The map step ships a numeric column's values as int64 keys (a
    float by its bits, every NaN one NaN, -0.0 as 0.0) and only a string column's as
    strings, plus one count row per column whose value keys are NULL."""
    import pyarrow.compute as pc

    from engine.checks.profile import _typed_keys

    batch = pa.table({
        "i": pa.array([3, None, 3, 1], pa.int32()),
        "f": pa.array([float("nan"), -0.0, 0.0, None], pa.float64()),
        "ts": pa.array([10, 10, None, None], pa.timestamp("us")),
        "s": pa.array(["b", "a", "b", None], pa.string()),
    })
    keys = _typed_keys(["i", "f", "ts", "s"], ["int", "float", "ts", "str"], batch)
    assert keys.schema.field("i").type == pa.int64()
    assert keys.schema.field("s").type == pa.large_string()
    counts = keys.filter(pc.is_valid(keys.column("n")))
    assert counts.column("c").to_pylist() == [0, 1, 2, 3]
    assert counts.column("nulls").to_pylist() == [1, 1, 2, 1]
    assert counts.column("i").null_count == counts.column("s").null_count == 4
    vals = keys.filter(pc.is_null(keys.column("n")))
    per_col = {c: vals.filter(pc.equal(vals.column("c"), c)) for c in range(4)}
    for c in (0, 1, 2):
        assert per_col[c].column("s").null_count == per_col[c].num_rows
        assert per_col[c].column("i").null_count == 0
    assert sorted(per_col[0].column("i").to_pylist()) == [1, 3]
    assert sorted(per_col[1].column("i").to_pylist()) == sorted(
        np.array([float("nan"), 0.0]).view(np.int64).tolist())
    assert per_col[2].column("i").to_pylist() == [10]
    assert per_col[3].column("i").null_count == per_col[3].num_rows
    assert sorted(per_col[3].column("s").to_pylist()) == ["a", "b"]


def test_constraint_suite_null_semantics_and_errors():
    from engine.checks.constraints import ConstraintSuite

    batch = pa.table({
        "id": pa.array([1, 2, 3, 4], pa.int64()),
        "x": pa.array([5.0, None, 50.0, 10.0], pa.float64()),
        "y": pa.array([6.0, 1.0, 1.0, None], pa.float64()),
        "f": pa.array(["A", "Z", None, "N"], pa.string()),
    })
    suite = ConstraintSuite([
        {"name": "x_le_30", "kind": "le", "col": "x", "value": 30},
        {"name": "x_le_y", "kind": "le_col", "col": "x", "other": "y"},
        {"name": "f_known", "kind": "in_set", "col": "f", "values": ["A", "N"]},
        {"name": "x_not_null", "kind": "not_null", "col": "x"},
    ], key_cols=["id"])
    v = suite.violations_batch(batch)
    got = sorted(zip(v.column("id").to_pylist(), v.column("rule").to_pylist()))
    # NULL comparisons are not violations (SQL WHERE semantics) — including
    # in_set, where pyarrow's is_in alone would flag NULL; not_null catches
    # NULLs explicitly.
    assert got == [(2, "f_known"), (2, "x_not_null"),
                   (3, "x_le_30"), (3, "x_le_y")]
    s = suite.summary_partial(batch)
    assert s["x_le_30"] == [4, 1] and s["x_le_y"] == [4, 1]
    assert s["x_not_null"] == [4, 1] and s["f_known"] == [4, 1]

    with pytest.raises(ValueError, match="duplicate rule"):
        ConstraintSuite([{"name": "a", "kind": "le", "col": "x", "value": 1},
                         {"name": "a", "kind": "ge", "col": "x", "value": 1}],
                        key_cols=["id"])
    bad = ConstraintSuite([{"name": "b", "kind": "weird", "col": "x"}],
                          key_cols=["id"])
    with pytest.raises(ValueError, match="unknown rule kind"):
        bad.violations_batch(batch)


def test_repetition_stats_hypothesis():
    """Property: stage output equals the brute-force Counter reference for
    arbitrary token streams (incl. whitespace-classed separators)."""
    from collections import Counter

    from hypothesis import given, settings
    from hypothesis import strategies as st

    from engine.ops.text import TOKEN_RE, RepetitionStatsStage

    token = st.text(alphabet="abX.", min_size=1, max_size=3)
    doc = st.lists(token, min_size=0, max_size=40).map(" ".join)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(doc, min_size=1, max_size=8))
    def check(texts):
        batch = pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string())})
        out = RepetitionStatsStage()(batch)
        for i, t in enumerate(texts):
            toks = TOKEN_RE.findall(t)
            n = len(toks)
            fg = Counter(tuple(toks[j:j + 5]) for j in range(n - 4))
            dup = sum(c for c in fg.values() if c > 1)
            assert out.column("n_tokens")[i].as_py() == n
            assert out.column("distinct_tokens")[i].as_py() == len(set(toks))
            assert out.column("dup_5gram_positions")[i].as_py() == dup
            bg = Counter(zip(toks, toks[1:]))
            assert out.column("top_bigram_count")[i].as_py() == (
                max(bg.values()) if bg else 0)

    check()


def test_table_diff_classification_and_empty_sides(ray_session):
    import ray.data

    from engine.ops.diff import table_diff

    def mk(rows):
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows], pa.string())}))

    a = mk([(1, "same"), (2, "old"), (3, "gone")])
    b = mk([(1, "same"), (2, "new"), (4, "fresh")])
    out = table_diff(a, b, key_col="doc_id", text_col="text").to_pandas()
    got = sorted(zip(out["key"], out["change"]))
    assert got == [(2, "modified"), (3, "removed"), (4, "added")]

    # one-sided empties bypass the join (it crashes on schema-less input)
    empty = mk([])
    out = table_diff(a, empty, key_col="doc_id", text_col="text").to_pandas()
    assert sorted(out["change"].unique()) == ["removed"] and len(out) == 3
    out = table_diff(empty, b, key_col="doc_id", text_col="text").to_pandas()
    assert sorted(out["change"].unique()) == ["added"] and len(out) == 3
    out = table_diff(empty, empty, key_col="doc_id", text_col="text").to_pandas()
    assert len(out) == 0 and sorted(out.columns) == ["change", "key"]


def test_table_diff_string_keys(ray_session):
    """Review finding: the diff must preserve the key column's own type —
    string-keyed tables (uuids, paths) are the advertised use case."""
    import ray.data

    from engine.ops.diff import table_diff

    def mk(rows):
        return ray.data.from_arrow(pa.table({
            "path": pa.array([r[0] for r in rows], pa.string()),
            "text": pa.array([r[1] for r in rows], pa.string())}))

    a = mk([("s3://a", "x"), ("s3://b", "y")])
    b = mk([("s3://a", "x"), ("s3://b", "z"), ("s3://c", "w")])
    out = table_diff(a, b, key_col="path", text_col="text").to_pandas()
    got = sorted(zip(out["key"], out["change"]))
    assert got == [("s3://b", "modified"), ("s3://c", "added")]


def test_constraint_suite_hypothesis_vs_pandas():
    """Property: every rule kind agrees with a pandas reference under
    random data including NULLs (SQL-neutral NULL semantics)."""
    import pandas as pd
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from engine.checks.constraints import ConstraintSuite

    vals = st.lists(st.one_of(st.none(), st.integers(-5, 5)),
                    min_size=1, max_size=25)

    @settings(max_examples=120, deadline=None)
    @given(vals, vals, st.integers(-5, 5), st.integers(-5, 5))
    def check(xs, ys, thr, lo):
        n = min(len(xs), len(ys))
        xs, ys = xs[:n], ys[:n]
        batch = pa.table({
            "id": pa.array(range(n), pa.int64()),
            "x": pa.array(xs, pa.int64()),
            "y": pa.array(ys, pa.int64()),
        })
        hi = lo + 3
        suite = ConstraintSuite([
            {"name": "r_le", "kind": "le", "col": "x", "value": thr},
            {"name": "r_gt", "kind": "gt", "col": "x", "value": thr},
            {"name": "r_bet", "kind": "between", "col": "x",
             "lo": lo, "hi": hi},
            {"name": "r_set", "kind": "in_set", "col": "x",
             "values": [lo, thr]},
            {"name": "r_lec", "kind": "le_col", "col": "x", "other": "y"},
            {"name": "r_nn", "kind": "not_null", "col": "x"},
        ], key_cols=["id"])
        v = suite.violations_batch(batch)
        got = set(zip(v.column("id").to_pylist(),
                      v.column("rule").to_pylist()))
        want = set()
        for i, (x, y) in enumerate(zip(xs, ys)):
            if x is None:
                want.add((i, "r_nn"))       # only not_null fires on NULL
                continue
            if not x <= thr: want.add((i, "r_le"))
            if not x > thr: want.add((i, "r_gt"))
            if not (lo <= x <= hi): want.add((i, "r_bet"))
            if x not in (lo, thr): want.add((i, "r_set"))
            if y is not None and not x <= y: want.add((i, "r_lec"))
        assert got == want
        s = suite.summary_partial(batch)
        for rule in ("r_le", "r_gt", "r_bet", "r_set", "r_lec", "r_nn"):
            assert s[rule] == [n, sum(1 for k, r in want if r == rule)]

    check()
