"""High-parallelism robustness: every operator family must survive inputs
sliced into many tiny/empty blocks (the shape a 256-node cluster produces on
a sparse stage — the round-1/2 empty-batch crash class).

Each op runs over its table repartitioned to 64 blocks and must return the
same result set as the single-block run.
"""
from __future__ import annotations

import pytest

SF_DIR = "/root/testdata/sf0.001"


def _docs(n_blocks=None):
    import ray.data

    ds = ray.data.read_parquet(f"{SF_DIR}/documents.parquet")
    return ds.repartition(n_blocks) if n_blocks else ds


def _emb(n_blocks=None):
    import ray.data

    ds = ray.data.read_parquet(f"{SF_DIR}/embeddings.parquet")
    return ds.repartition(n_blocks) if n_blocks else ds


def test_minhash_pairs_sparse(ray_session):
    from engine.ops.dedup import minhash_lsh_pairs

    def pairs(ds):
        return sorted((r["a"], r["b"]) for r in minhash_lsh_pairs(ds).take_all())

    assert pairs(_docs()) == pairs(_docs(64))


def test_simhash_pairs_sparse(ray_session):
    from engine.ops.dedup import simhash_pairs

    def pairs(ds):
        return sorted((r["a"], r["b"]) for r in simhash_pairs(ds).take_all())

    assert pairs(_docs()) == pairs(_docs(64))


def test_knn_variants_sparse(ray_session):
    from engine.ops.similarity import knn_brute_force, knn_ivf, knn_lsh
    from engine.queries import _query_vector

    q = _query_vector(SF_DIR)
    for fn, kwargs in ((knn_brute_force, {}), (knn_lsh, {}),
                       (knn_ivf, {"nprobe": 32})):
        dense = [r["vec_id"] for r in fn(_emb(), q, k=5, **kwargs).take_all()]
        sparse = [r["vec_id"] for r in fn(_emb(64), q, k=5, **kwargs).take_all()]
        assert dense == sparse, fn.__name__


def test_near_dup_cosine_sparse(ray_session):
    from engine.ops.similarity import near_dup_cosine_pairs

    def pairs(ds):
        return sorted((r["a"], r["b"]) for r in
                      near_dup_cosine_pairs(ds, threshold=0.8).take_all())

    assert pairs(_emb()) == pairs(_emb(64))


def test_text_stages_sparse(ray_session):
    from engine.ops.text import FingerprintStage, LangIdStage, TokenStatsStage

    def run(ds):
        out = ds.map_batches(TokenStatsStage(), batch_format="pyarrow") \
            .map_batches(LangIdStage(), batch_format="pyarrow") \
            .map_batches(FingerprintStage(), batch_format="pyarrow")
        return sorted((r["doc_id"], r["ws_tokens"], r["lang_pred"], r["md5"])
                      for r in out.take_all())

    assert run(_docs()) == run(_docs(64))


def test_components_and_keep_canonical_sparse(ray_session, monkeypatch):
    """The distributed components and keep_canonical's exchange path over
    64 blocks give the one-block result."""
    import pyarrow as pa
    import ray.data

    from engine.ops import cc

    monkeypatch.setattr(cc, "KEEP_CANONICAL_MAX_BROADCAST_IDS", 0)
    ids = pa.array(range(0, 500, 3), pa.int64())
    edges = pa.table({"a": ids, "b": pa.compute.multiply(pa.compute.divide(ids, 7), 7)})

    def survivors(n_blocks=None):
        ds = ray.data.from_arrow(edges)
        clusters = cc.connected_components(
            ds.repartition(n_blocks) if n_blocks else ds, max_driver_edges=0)
        return sorted(r["doc_id"] for r in cc.keep_canonical(
            _docs(n_blocks).select_columns(["doc_id", "text"]), clusters).take_all())

    one_block = survivors()
    assert len(one_block) < 500
    assert one_block == survivors(64)


def test_exchange_join_one_row_blocks(ray_session):
    """``stages.exchange_join`` over 64 one-row blocks a side (most parts
    get no row of one side) gives the one-block result for each join."""
    import pyarrow as pa
    import ray.data

    from engine.stages import exchange_join

    left = pa.table({"k": pa.array([i % 40 for i in range(64)], pa.int64()),
                     "lv": pa.array(range(64), pa.int64())})
    right = pa.table({"k": pa.array(range(20, 84), pa.int64()),
                      "rv": pa.array(range(64), pa.int64())})

    def rows(how, one_row_blocks):
        def ds(t):
            return ray.data.from_arrow(
                [t.slice(i, 1) for i in range(t.num_rows)] if one_row_blocks else t)
        return sorted(tuple(r.values()) for r in
                      exchange_join(ds(left), ds(right), ["k"], how=how).take_all())

    for how, n in (("inner", 24), ("full outer", 108), ("left anti", 40)):
        one_block = rows(how, False)
        assert len(one_block) == n
        assert rows(how, True) == one_block


def test_tree_reduce_sparse(ray_session):
    """Sketch partials over 64 near-empty blocks reduce to the same state."""
    import json

    import pyarrow as pa

    from engine.checks.sketches import HyperLogLog
    from engine.stages import tree_reduce_states

    def partial(batch: pa.Table) -> pa.Table:
        h = HyperLogLog()
        h.update(batch.column("doc_id").to_numpy())
        return pa.table({"state": pa.array([json.dumps(h.state())], pa.large_string())})

    def combine(states):
        m = HyperLogLog()
        for s in states:
            m.merge(HyperLogLog.from_state(s))
        return m.state()

    def estimate(ds):
        st = tree_reduce_states(
            ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
            combine, fan_in=4, driver_threshold=4)
        return round(HyperLogLog.from_state(st).estimate(), 6)

    assert estimate(_docs()) == estimate(_docs(64))


def test_hot_bucket_skew_bounded(ray_session, caplog):
    """Pathological skew: 300 identical documents all hash to one LSH bucket
    per band.  The capped bucket path must (a) stay bounded — emitted pairs
    per bucket <= C(cap,2), never C(300,2) x 16 bands — and (b) log the
    truncation, while distinct docs still pair normally."""
    import logging

    import pyarrow as pa
    import ray.data

    from engine.ops.dedup import minhash_lsh_pairs

    hot = ["the same document text repeated verbatim many times over"] * 300
    distinct = [f"unique filler document number {i} with words {i*7} {i*13}"
                for i in range(50)]
    near_a = "a specific pair of nearly identical documents for recall check"
    near_b = "a specific pair of nearly identical documents for recall checks"
    texts = hot + distinct + [near_a, near_b]
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": pa.array(texts, pa.string()),
    })).repartition(8)

    with caplog.at_level(logging.WARNING, logger="engine.dedup"):
        pairs = minhash_lsh_pairs(ds, min_est_jaccard=0.5, cap=16).take_all()

    cap_pairs = 16 * 15 // 2
    hot_pairs = [p for p in pairs if p["a"] < 300 and p["b"] < 300]
    assert 0 < len(hot_pairs) <= cap_pairs, len(hot_pairs)
    # the planted near-dup pair outside the hot key must still surface
    assert any(p["a"] == 350 and p["b"] == 351 for p in pairs)
