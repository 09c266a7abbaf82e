"""Similarity search over an embedding column (list<float>).

Brute-force cosine top-k is the exactness baseline: the query matrix is
broadcast once (``ray.put`` / closure capture of a small ndarray), each batch
does one numpy matmul and local top-k, and the global merge sorts only
(#batches x k) candidate rows.  The LSH-bucketed variant is the scale path:
random-hyperplane signatures bucket the corpus so only matching buckets are
scored.
"""

from __future__ import annotations

import functools
import logging

import numpy as np
import pyarrow as pa

log = logging.getLogger("engine.similarity")


def _embedding_matrix(batch: pa.Table, col: str = "embedding") -> np.ndarray:
    arr = batch.column(col)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if batch.num_rows == 0:
        dim = arr.type.list_size if hasattr(arr.type, "list_size") and arr.type.list_size else 0
        return np.zeros((0, dim), dtype=np.float32)
    flat = arr.values.to_numpy(zero_copy_only=False) if hasattr(arr, "values") else arr.flatten().to_numpy(zero_copy_only=False)
    return np.asarray(flat).reshape(batch.num_rows, -1).astype(np.float32)


def _half_away_round(x: np.ndarray, decimals: int) -> np.ndarray:
    """SQL ROUND semantics (half away from zero); np.round is banker's."""
    scale = 10.0 ** decimals
    scaled = np.asarray(x, dtype=np.float64) * scale
    return np.copysign(np.floor(np.abs(scaled) + 0.5), scaled) / scale


def _local_cut(batch: pa.Table, sims: np.ndarray, cand_idx: np.ndarray,
               k: int, id_col: str, tie_round_decimals: int | None) -> pa.Table:
    """Per-batch top-k.  With ``tie_round_decimals`` the cut orders by
    (rounded sim DESC, id ASC) — the oracle's ORDER BY ROUND(sim,d), id — so
    a batch full of rounding-ties keeps the lowest ids instead of an
    arbitrary argpartition subset, and emits the rounded sims."""
    take = min(k, sims.size)
    if tie_round_decimals is None:
        idx = np.argpartition(-sims, take - 1)[:take]
        out_sims = sims[idx].astype(np.float64)
    else:
        r = _half_away_round(sims, tie_round_decimals)
        ids = batch.column(id_col).take(pa.array(cand_idx)).to_numpy(
            zero_copy_only=False)
        order = np.lexsort((ids, -r))[:take]
        idx, out_sims = order, r[order]
    return pa.table({
        id_col: batch.column(id_col).take(pa.array(cand_idx[idx])),
        "sim": pa.array(out_sims),
    })


def knn_brute_force(ds, query_vec, k: int = 10, *, id_col: str = "vec_id",
                    col: str = "embedding", keep_all_candidates: bool = False,
                    tie_round_decimals: int | None = None):
    """Exact cosine top-k: per-batch matmul + local top-k, global sort-limit.

    Returns a Dataset of (id_col, sim) with exactly k rows, best first —
    or, with ``keep_all_candidates``, the unsorted per-batch candidate pool
    (#batches x k rows) for callers that apply their own ordering.
    ``tie_round_decimals``: see _local_cut (deterministic rounded-tie cuts).
    """
    q = np.asarray(query_vec, dtype=np.float32)
    qn = q / (np.linalg.norm(q) + 1e-30)

    def local_topk(batch: pa.Table) -> pa.Table:
        mat = _embedding_matrix(batch, col)
        if mat.shape[0] == 0:
            return pa.table({id_col: pa.array([], batch.schema.field(id_col).type),
                             "sim": pa.array([], pa.float64())})
        norms = np.linalg.norm(mat, axis=1) + 1e-30
        sims = (mat @ qn) / norms
        return _local_cut(batch, sims, np.arange(sims.size), k, id_col,
                          tie_round_decimals)

    candidates = ds.map_batches(local_topk, batch_format="pyarrow", zero_copy_batch=True)
    if keep_all_candidates:
        return candidates
    return candidates.sort("sim", descending=True).limit(k)


@functools.lru_cache(maxsize=8)
def _hyperplanes(dim: int, n_bits: int, seed: int = 11) -> np.ndarray:
    """Deterministic hyperplane matrix, cached per worker process so batch
    callables never regenerate it (round-1 VERDICT finding 6).  Callers must
    treat the returned array as read-only."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((dim, n_bits)).astype(np.float32)


def _signs_to_key(signs: np.ndarray) -> np.ndarray:
    bits = (np.uint64(1) << np.arange(signs.shape[1], dtype=np.uint64))
    return (signs.astype(np.uint64) @ bits).astype(np.int64)


def knn_lsh(ds, query_vec, k: int = 10, *, id_col: str = "vec_id",
            col: str = "embedding", n_bits: int = 12, max_hamming: int = 3,
            n_tables: int = 12, keep_all_candidates: bool = False,
            tie_round_decimals: int | None = None):
    """Approximate top-k via MULTI-TABLE hyperplane LSH: a row is a candidate
    if ANY of the ``n_tables`` independent ``n_bits``-bit signatures is within
    ``max_hamming`` bits of the query's (candidate pruning per batch, no
    shuffle at all — the planes are broadcast with the closure).

    Multi-table is what makes the recall gate (tests/test_recall.py: >=0.9 of
    brute-force top-10) hold even on near-isotropic corpora where a single
    table's per-bit disagreement probability approaches 1/2; on such corpora
    the candidate fraction degrades toward ~0.5 — LSH buys its speedup from
    cluster structure, and the defaults (12x12 bits, radius 3) are chosen for
    recall first.
    """
    q = np.asarray(query_vec, dtype=np.float32)
    qn = q / (np.linalg.norm(q) + 1e-30)
    planes = _hyperplanes(q.size, n_tables * n_bits)
    q_bits = (qn @ planes > 0)

    def local_topk(batch: pa.Table) -> pa.Table:
        mat = _embedding_matrix(batch, col)
        if mat.shape[0] == 0:
            return pa.table({id_col: pa.array([], batch.schema.field(id_col).type),
                             "sim": pa.array([], pa.float64())})
        bits = mat @ planes > 0                               # (n, L*b)
        diff = (bits != q_bits[None, :]).reshape(mat.shape[0], n_tables, n_bits)
        best_ham = diff.sum(axis=2).min(axis=1)               # min over tables
        cand = np.nonzero(best_ham <= max_hamming)[0]
        if cand.size == 0:
            return pa.table({id_col: pa.array([], batch.column(id_col).type),
                             "sim": pa.array([], pa.float64())})
        sub = mat[cand]
        sims = (sub @ qn) / (np.linalg.norm(sub, axis=1) + 1e-30)
        return _local_cut(batch, sims, cand, k, id_col, tie_round_decimals)

    candidates = ds.map_batches(local_topk, batch_format="pyarrow", zero_copy_batch=True)
    if keep_all_candidates:
        return candidates
    return candidates.sort("sim", descending=True).limit(k)


def train_ivf_centroids(ds, *, col: str = "embedding", n_cells: int = 64,
                        train_sample: int = 4096, n_iter: int = 8,
                        seed: int = 13) -> np.ndarray:
    """Spherical k-means coarse quantizer trained on a bounded sample.

    The sample is the first ``train_sample`` rows (deterministic); training
    runs on the driver in numpy — at 100 TB the sample is still a fixed-size
    driver-side matrix, never the corpus.  Returns unit centroids (C, dim).
    """
    rows = ds.limit(train_sample).take_all()
    if not rows:
        # Empty corpus: (0, 0) centroids, mirroring the empty-block branches
        # in the knn kernels (round-2 advice — np.asarray([]) is 1-D and
        # norm(axis=1) would raise AxisError).
        return np.zeros((0, 0), dtype=np.float32)
    mat = np.asarray([r[col] for r in rows], dtype=np.float32)
    mat /= np.linalg.norm(mat, axis=1, keepdims=True) + 1e-30
    rng = np.random.default_rng(seed)
    cents = mat[rng.choice(mat.shape[0], size=min(n_cells, mat.shape[0]),
                           replace=False)]
    for _ in range(n_iter):
        assign = np.argmax(mat @ cents.T, axis=1)
        for c in range(cents.shape[0]):
            members = mat[assign == c]
            if members.shape[0]:
                v = members.sum(axis=0)
                cents[c] = v / (np.linalg.norm(v) + 1e-30)
    return cents


def knn_ivf(ds, query_vec, k: int = 10, *, id_col: str = "vec_id",
            col: str = "embedding", n_cells: int = 64, nprobe: int = 16,
            centroids: np.ndarray | None = None, train_sample: int = 4096,
            keep_all_candidates: bool = False,
            tie_round_decimals: int | None = None):
    """Approximate top-k via an IVF coarse quantizer (the scale path the
    north-star names alongside LSH): rows are assigned to their nearest
    spherical-k-means centroid per batch (one matmul, no shuffle), and only
    rows in the query's ``nprobe`` nearest cells are scored.

    ``centroids`` may be passed in (trained once, reused across queries);
    otherwise a bounded sample trains them on the driver.
    """
    if centroids is None:
        centroids = train_ivf_centroids(ds, col=col, n_cells=n_cells,
                                        train_sample=train_sample)
    q = np.asarray(query_vec, dtype=np.float32)
    qn = q / (np.linalg.norm(q) + 1e-30)
    probe_set = np.zeros(centroids.shape[0], dtype=bool)
    if centroids.shape[0]:                     # (0,0) centroids probe nothing
        probe_set[np.argsort(-(centroids @ qn))[:nprobe]] = True

    def local_topk(batch: pa.Table) -> pa.Table:
        mat = _embedding_matrix(batch, col)
        # Zero centroids (trained on an empty corpus) probe no cells: emit
        # the same empty candidate shape as the empty-batch branch.
        if mat.shape[0] == 0 or centroids.shape[0] == 0:
            return pa.table({id_col: pa.array([], batch.schema.field(id_col).type),
                             "sim": pa.array([], pa.float64())})
        norms = np.linalg.norm(mat, axis=1) + 1e-30
        unit = mat / norms[:, None]
        cells = np.argmax(unit @ centroids.T, axis=1)
        cand = np.nonzero(probe_set[cells])[0]
        if cand.size == 0:
            return pa.table({id_col: pa.array([], batch.column(id_col).type),
                             "sim": pa.array([], pa.float64())})
        sims = unit[cand] @ qn
        return _local_cut(batch, sims, cand, k, id_col, tie_round_decimals)

    candidates = ds.map_batches(local_topk, batch_format="pyarrow", zero_copy_batch=True)
    if keep_all_candidates:
        return candidates
    return candidates.sort("sim", descending=True).limit(k)


# Above this many rows the exact all-pairs operator refuses to broadcast the
# corpus — it is the ground-truth / verification path (recall gates, oracle
# parity); near_dup_cosine_pairs is the LSH-bucketed scale path.
ALL_PAIRS_MAX_ROWS = 200_000


def all_pairs_cosine(ds, *, threshold: float = 0.8, id_col: str = "vec_id",
                     col: str = "embedding", round_decimals: int = 5):
    """EXACT cosine near-dup pairs (a < b, sim >= threshold).

    The unit-normalized corpus is broadcast once (``ray.put``) and each batch
    does one matmul against it — O(n^2) compute spread over the batch tasks,
    zero shuffle.  Inherently quadratic: gated at ``ALL_PAIRS_MAX_ROWS``
    because this is the ground-truth operator (recall gates and the DuckDB
    all-pairs oracle); the LSH-bucketed ``near_dup_cosine_pairs`` is the
    100 TB path.

    Math is float64 end-to-end: DuckDB's FLOAT[] cosine kernel runs in f32
    with its own accumulation order (~1e-7 disagreement — threshold and
    ROUND(5) boundaries would flip pairs), while the DOUBLE[]-cast oracle
    agrees with an f64 numpy matmul to ~1e-15, making boundary flips
    impossible in practice.
    """
    import ray

    from engine.stages import _broadcast_from_ref

    parts = list(ds.select_columns([id_col, col]).iter_batches(
        batch_format="pyarrow", batch_size=65536))
    n_rows = sum(p.num_rows for p in parts)
    if n_rows > ALL_PAIRS_MAX_ROWS:
        raise ValueError(
            f"all_pairs_cosine is the exact ground-truth path, gated at "
            f"{ALL_PAIRS_MAX_ROWS} rows (got {n_rows}); use "
            f"near_dup_cosine_pairs at scale")
    if n_rows == 0:
        return ray.data.from_arrow(pa.table({
            "a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
            "cosine": pa.array([], pa.float64())}))
    all_t = pa.concat_tables(parts)
    all_ids = all_t.column(id_col).to_numpy(zero_copy_only=False)
    mat = _embedding_matrix(all_t, col).astype(np.float64)
    unit_all = mat / (np.linalg.norm(mat, axis=1)[:, None] + 1e-30)
    ref = ray.put((all_ids, unit_all))

    def pairs(batch: pa.Table) -> pa.Table:
        empty = pa.table({"a": pa.array([], pa.int64()),
                          "b": pa.array([], pa.int64()),
                          "cosine": pa.array([], pa.float64())})
        m = _embedding_matrix(batch, col).astype(np.float64)
        if m.shape[0] == 0:
            return empty
        ids_b = batch.column(id_col).to_numpy(zero_copy_only=False)
        ids_all, unit = _broadcast_from_ref(ref)
        unit_b = m / (np.linalg.norm(m, axis=1)[:, None] + 1e-30)
        sims = unit_b @ unit.T                          # float64
        keep = (sims >= threshold) & (ids_all[None, :] > ids_b[:, None])
        bi, ai = np.nonzero(keep)
        if bi.size == 0:
            return empty
        cos = _half_away_round(sims[bi, ai], round_decimals)
        return pa.table({"a": pa.array(ids_b[bi]), "b": pa.array(ids_all[ai]),
                         "cosine": pa.array(cos)})

    return ds.map_batches(pairs, batch_format="pyarrow", zero_copy_batch=True)


def near_dup_cosine_pairs(ds, *, threshold: float = 0.95, id_col: str = "vec_id",
                          col: str = "embedding", n_bits: int = 10, cap: int = 256):
    """Embedding near-dup pairs: hyperplane buckets, one ``stages.exchange``
    on the bucket, exact cosine inside each bucket run (cap bounds a hot
    bucket's quadratic cost; one Python step per part, not per bucket —
    same shape as minhash_lsh_pairs)."""
    from engine.ops.dedup import capped_run_pairs
    from engine.stages import exchange

    def bucketize(batch: pa.Table) -> pa.Table:
        mat = _embedding_matrix(batch, col)
        if mat.shape[0] == 0:
            return pa.table({"bucket": pa.array([], pa.int64()),
                             id_col: pa.array([], batch.schema.field(id_col).type),
                             "unit": pa.array([], pa.list_(pa.float32()))})
        planes = _hyperplanes(mat.shape[1], n_bits)
        keys = _signs_to_key(mat @ planes > 0)
        norms = np.linalg.norm(mat, axis=1) + 1e-30
        unit = (mat / norms[:, None]).astype(np.float32)
        return pa.table({
            "bucket": pa.array(keys),
            id_col: batch.column(id_col),
            "unit": pa.FixedSizeListArray.from_arrays(
                pa.array(unit.reshape(-1)), mat.shape[1]),
        })

    def verify_partition(group: pa.Table) -> pa.Table:
        n = group.num_rows
        unit_arr = group.column("unit")
        if isinstance(unit_arr, pa.ChunkedArray):
            unit_arr = unit_arr.combine_chunks()
        dim = unit_arr.type.list_size
        unit = np.asarray(unit_arr.values.to_numpy(zero_copy_only=False),
                          dtype=np.float32).reshape(n, dim)
        bucket = group.column("bucket").to_numpy()
        ids = group.column(id_col).to_numpy()
        order = np.lexsort((ids, bucket))
        bucket, ids, unit = bucket[order], ids[order], unit[order]

        ai, bi = capped_run_pairs((bucket,), cap, "cosine near-dup")
        s = np.einsum("ij,ij->i", unit[ai], unit[bi])
        keep = (s >= threshold) & (ids[ai] != ids[bi])
        return pa.table({"a": pa.array(ids[ai][keep]),
                         "b": pa.array(ids[bi][keep]),
                         "cosine": pa.array(s[keep].astype(np.float64))})

    return exchange(
        ds.map_batches(bucketize, batch_format="pyarrow", zero_copy_batch=True),
        ["bucket"], verify_partition,
        pa.schema([("a", pa.int64()), ("b", pa.int64()), ("cosine", pa.float64())]))


def knn_multi_query(ds, query_ids, query_mat, k: int = 5, *,
                    id_col: str = "vec_id", col: str = "embedding",
                    tie_round_decimals: int = 5, exclude_self: bool = True):
    """Batch kNN: top-k corpus neighbours for EACH of m query vectors in one
    corpus scan — the realistic index-lookup shape (per-batch matmul
    against a broadcast (m, dim) query matrix instead of m separate scans).

    Per batch: one (n, m) sims matrix, then the same deterministic rounded
    tie cut as knn_brute_force per query column (_local_cut — (ROUND(sim,d)
    DESC, id ASC), the oracle's ordering).  The global merge is a per-query
    rank over the #batches × k candidate pool: one ``stages.window_by_key``
    on the query id sorts each part's candidates by (query_id, sim DESC, id
    ASC) and keeps the first k of each query.

    Returns (query_id, id_col, sim, rank) with rank 1..k per query.
    """
    import ray

    from engine.stages import window_by_key

    qids = np.asarray(query_ids, dtype=np.int64)
    Q = np.asarray(query_mat, dtype=np.float32)
    Qn = Q / (np.linalg.norm(Q, axis=1, keepdims=True) + 1e-30)
    q_ref = ray.put((qids, Qn))

    def local(batch: pa.Table) -> pa.Table:
        from engine.stages import _broadcast_from_ref

        ids_q, Qm = _broadcast_from_ref(q_ref)
        mat = _embedding_matrix(batch, col)
        # Empty blocks must carry the batch's own id type (int32/string
        # corpora) or Ray's schema unification rejects the mix.
        empty = pa.table({"query_id": pa.array([], pa.int64()),
                          id_col: pa.array([], batch.schema.field(id_col).type),
                          "sim": pa.array([], pa.float64())})
        if mat.shape[0] == 0:
            return empty
        norms = np.linalg.norm(mat, axis=1) + 1e-30
        sims = (mat @ Qm.T) / norms[:, None]          # (n, m)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        parts = []
        for j in range(ids_q.size):                   # m is small by contract
            cand = (np.flatnonzero(ids != ids_q[j]) if exclude_self
                    else np.arange(ids.size))
            if cand.size == 0:
                continue
            cut = _local_cut(batch, sims[cand, j], cand, k, id_col,
                             tie_round_decimals)
            parts.append(cut.add_column(
                0, "query_id",
                pa.array(np.full(cut.num_rows, ids_q[j], dtype=np.int64))))
        return pa.concat_tables(parts) if parts else empty

    def global_cut(part: pa.Table, starts: np.ndarray) -> pa.Table:
        rank = np.arange(part.num_rows) - np.repeat(
            starts, np.diff(np.append(starts, part.num_rows))) + 1
        keep = pa.array(rank <= k)
        return part.filter(keep).append_column("rank", pa.array(rank).filter(keep))

    cands = ds.map_batches(local, batch_format="pyarrow", zero_copy_batch=True) \
        .materialize()
    s = cands.schema()
    id_type = s.base_schema.field(id_col).type if s is not None and id_col in s.names \
        else pa.int64()
    return window_by_key(cands, "query_id", [("sim", "descending"), id_col], global_cut,
                         pa.schema([("query_id", pa.int64()), (id_col, id_type),
                                    ("sim", pa.float64()), ("rank", pa.int64())]))
