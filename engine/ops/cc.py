"""Connected components over a duplicate-pair edge set → cluster ids.

The step a dedup pipeline needs AFTER pairwise near-dup detection
(minhash/simhash/jaccard/embedding pairs are edges; transitive closure
groups them into clusters so "keep one canonical doc per cluster" is
well-defined).  The reference (json_repair) has no table layer; this op
belongs to the training-data-pipeline family layered on top (SURVEY §2
extensions), alongside engine/ops/dedup.py.

Cluster id contract: the MINIMUM doc id in the component — deterministic,
join-free to interpret, and the natural "keep-first" canonical key.
Output rows cover exactly the nodes that appear in at least one edge
(singletons are their own cluster by definition and are omitted, keeping
the output proportional to the duplicate set, not the corpus).

Two execution shapes, size-gated like the rest of the dedup family:

* Driver fast path (edge count <= ``max_driver_edges``): the verified pair
  set after LSH + exact verification is orders of magnitude smaller than
  the corpus (SCALE.md dedup capacity math), so a vectorized numpy
  min-label + pointer-jumping loop on the driver resolves it without a
  single shuffle.  5M edges ≈ 80 MB of int64 — bounded, and the gate is a
  parameter.
* Distributed path (past the gate, or forced): iterative min-label
  propagation — the MapReduce connected-components recipe of Rastogi et
  al., "Finding Connected Components in Map-Reduce in Logarithmic Rounds"
  (ICDE 2013), in its hash-to-min flavour, on plain Ray tasks.  The edges,
  oriented both ways, are partitioned once by ``src`` with
  ``stages.exchange_parts``; ``stages._split`` hashes only the int64
  values, so edge part p and label part p hold the same nodes.  Each part
  seeds its labels with the 1-hop minimum (node ∧ min neighbour), which
  removes one round for free.  A round is one shuffle: one task per part
  sends each edge's ``src`` label to its ``dst``, min-combined and cut in
  n slices, and one task per part takes the min of its labels and its
  incoming slices and counts the labels that changed.  Labels only ever
  decrease, so a round in which no label changed is the fixpoint; only
  those n counts reach the driver.  Rounds are bounded by the component
  diameter (near-dup clusters are dense in practice), with a loud
  ``max_rounds`` failure rather than a silent wrong answer.

Scale shape per round: one O(E) exchange of (node, label) int64 messages,
combined per part before they move; the edge parts stay where they are,
nothing wider than the edge set ever moves, and the corpus itself is never
touched.  The path starts one Ray Data execution after the input's
``materialize()``, whatever the number of rounds.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa

log = logging.getLogger(__name__)

# Past this many edges the driver fast path would hold >~160 MB of id
# arrays; hand off to the shuffle implementation instead.
CC_MAX_DRIVER_EDGES = 5_000_000


def _empty_clusters() -> pa.Table:
    return pa.table({"doc_id": pa.array([], pa.int64()),
                     "cluster_id": pa.array([], pa.int64())})


def minlabel_pointer_jumping(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized connected components on the driver.

    Alternates scatter-min across edges with pointer jumping
    (``label = label[label]``) until fixpoint — O((V+E) log V) with no
    Python per-edge loop.  Returns (nodes, cluster_id) aligned arrays.
    """
    nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    ai, bi = inv[:a.size], inv[a.size:]
    label = np.arange(nodes.size, dtype=np.int64)
    while True:
        before = label.copy()
        m = np.minimum(label[ai], label[bi])
        np.minimum.at(label, ai, m)
        np.minimum.at(label, bi, m)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
        if np.array_equal(label, before):
            break
    return nodes, nodes[label]


def _edges_to_numpy(edges_ds, a_col: str, b_col: str) -> tuple[np.ndarray, np.ndarray]:
    """Stream the (already materialized, gated-small) edge blocks to the driver."""
    a_parts, b_parts = [], []
    for batch in edges_ds.iter_batches(batch_format="pyarrow"):
        if batch.num_rows:
            a_parts.append(batch.column(a_col).to_numpy(zero_copy_only=False))
            b_parts.append(batch.column(b_col).to_numpy(zero_copy_only=False))
    if not a_parts:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return (np.concatenate(a_parts).astype(np.int64, copy=False),
            np.concatenate(b_parts).astype(np.int64, copy=False))


def _partition_min(batch: pa.Table, key: str, val: str) -> pa.Table:
    """Per-block combiner: min(val) per key, vectorized (sort + reduceat)."""
    if batch.num_rows == 0:
        return pa.table({key: pa.array([], pa.int64()),
                         val: pa.array([], pa.int64())})
    k = batch.column(key).to_numpy(zero_copy_only=False)
    v = batch.column(val).to_numpy(zero_copy_only=False)
    order = np.argsort(k, kind="mergesort")
    k, v = k[order], v[order]
    starts = np.flatnonzero(np.concatenate([[True], k[1:] != k[:-1]]))
    mins = np.minimum.reduceat(v, starts)
    return pa.table({key: pa.array(k[starts]), val: pa.array(mins)})


# Past this many drop-ids the broadcast isin filter stops being "small";
# hand the anti-join to the exchange implementation instead.
KEEP_CANONICAL_MAX_BROADCAST_IDS = 1_000_000


def keep_canonical(docs_ds, clusters_ds, *, id_col: str = "doc_id"):
    """Drop every clustered doc except its cluster representative.

    ``clusters_ds`` is connected_components output (doc_id, cluster_id);
    the representative is the row with doc_id == cluster_id.  Returns the
    surviving rows of ``docs_ds`` (all columns), i.e. the deduplicated
    corpus.

    The drop set is proportional to the DUPLICATE set, not the corpus —
    the common case has one task build the sorted drop ids from the drop
    blocks and leave them in the object store, and filters the corpus
    scan with a vectorized isin: zero shuffle of the corpus, and only the
    drop count reaches the driver.  Past ``KEEP_CANONICAL_MAX_BROADCAST_IDS``
    the corpus is anti-joined against the drop set instead
    (``stages.fk_orphans_semijoin``, one left anti ``stages.exchange_join``
    on the id carrying the other doc columns), so a pathological
    everything-is-duplicate input never lands in one worker.
    """
    import ray

    from engine.ops.dedup import _distinct_ids
    from engine.stages import fk_orphans_semijoin

    drop = clusters_ds.map_batches(
        lambda t: t.filter(
            pa.compute.not_equal(t.column("doc_id"), t.column("cluster_id")))
        .select(["doc_id"]),
        batch_format="pyarrow", zero_copy_batch=True).materialize()
    n_drop = drop.count()
    if n_drop == 0:
        return docs_ds

    if n_drop > KEEP_CANONICAL_MAX_BROADCAST_IDS:
        cols = docs_ds.columns()
        return fk_orphans_semijoin(
            docs_ds, drop, fact_key=id_col, dim_key="doc_id",
            fact_payload=[c for c in cols if c != id_col]).select_columns(cols)

    drop_ref = ray.remote(_distinct_ids).remote(["doc_id"], *drop.to_arrow_refs())

    def keep(batch: pa.Table) -> pa.Table:
        from engine.stages import _broadcast_from_ref

        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        mask = ~np.isin(ids, _broadcast_from_ref(drop_ref))  # fetch-once
        return batch.filter(pa.array(mask))

    return docs_ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


_EDGES = pa.schema([("src", pa.int64()), ("dst", pa.int64())])


def _orient_both(a_col: str, b_col: str, t: pa.Table) -> pa.Table:
    """Edge map of the distributed path: each non-loop edge in both
    directions, as int64 (src, dst)."""
    src = t.column(a_col).to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
    dst = t.column(b_col).to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    return pa.table({"src": np.concatenate([src, dst]),
                     "dst": np.concatenate([dst, src])})


def _label_at(labels: pa.Table, nodes: np.ndarray) -> np.ndarray:
    """Positions of ``nodes`` in one part's labels (sorted by doc_id).  A
    node with no label in the part raises: it must never read another
    node's label."""
    known = labels.column("doc_id").to_numpy(zero_copy_only=False)
    at = np.searchsorted(known, nodes)
    if nodes.size and (known.size == 0 or not np.array_equal(
            known[np.minimum(at, known.size - 1)], nodes)):
        raise RuntimeError("connected_components: a node has no label in its part")
    return at


def _seed(edges: pa.Table) -> pa.Table:
    """Seed task of a part: every src's min(node, min neighbour)."""
    src = edges.column("src").to_numpy(zero_copy_only=False)
    dst = edges.column("dst").to_numpy(zero_copy_only=False)
    return _partition_min(pa.table({"doc_id": src, "cluster_id": np.minimum(src, dst)}),
                          "doc_id", "cluster_id")


def _messages(n: int, edges: pa.Table, labels: pa.Table):
    """Send task of a round: each edge's src label to its dst, min per
    dst, in n slices by part (``stages._split``)."""
    from engine.stages import _split

    src = edges.column("src").to_numpy(zero_copy_only=False)
    label = labels.column("cluster_id").to_numpy(zero_copy_only=False)[_label_at(labels, src)]
    msgs = _partition_min(pa.table({"doc_id": edges.column("dst"), "cluster_id": label}),
                          "doc_id", "cluster_id")
    return _split(["doc_id"], None, n, msgs)


def _relabel(labels: pa.Table, *slices: pa.Table) -> tuple[pa.Table, int]:
    """Receive task of a round: the min of a part's labels and its
    incoming messages, and the number of labels that changed."""
    from engine.stages import _concat_rows

    msgs = _concat_rows(slices)
    if msgs is None:
        return labels, 0
    msgs = _partition_min(msgs, "doc_id", "cluster_id")
    at = _label_at(labels, msgs.column("doc_id").to_numpy(zero_copy_only=False))
    old = labels.column("cluster_id").to_numpy(zero_copy_only=False)
    new = old.copy()
    new[at] = np.minimum(old[at], msgs.column("cluster_id").to_numpy(zero_copy_only=False))
    return (pa.table({"doc_id": labels.column("doc_id"), "cluster_id": new}),
            int(np.count_nonzero(new != old)))


def connected_components(edges_ds, *, a_col: str = "a", b_col: str = "b",
                         max_driver_edges: int = CC_MAX_DRIVER_EDGES,
                         max_rounds: int = 64):
    """Edge Dataset (a_col, b_col) → Dataset (doc_id, cluster_id).

    cluster_id = min node id in the connected component.  Only nodes that
    appear in an edge are emitted.  See module docstring for the two
    execution shapes and their scale rationale.
    """
    import functools

    import ray
    import ray.data

    from engine.io import bounded
    from engine.stages import exchange_parts

    # The edge set is read twice (count + the driver pull or the edge
    # exchange): pin it once so the upstream pair pipeline runs once.
    edges_ds = edges_ds.materialize()
    n_edges = edges_ds.count()
    if n_edges == 0:
        return ray.data.from_arrow(_empty_clusters())

    if n_edges <= max_driver_edges:
        a, b = _edges_to_numpy(edges_ds, a_col, b_col)
        keep = a != b
        if not np.all(keep):
            a, b = a[keep], b[keep]
        if a.size == 0:
            return ray.data.from_arrow(_empty_clusters())
        nodes, labels = minlabel_pointer_jumping(a, b)
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array(nodes), "cluster_id": pa.array(labels)}))

    both = edges_ds.map_batches(functools.partial(_orient_both, a_col, b_col),
                                batch_format="pyarrow", zero_copy_batch=True)
    edges = exchange_parts(both, ["src"], pa.Table.combine_chunks, _EDGES)
    n = len(edges)
    send = ray.remote(_messages).options(num_returns=n)
    receive = ray.remote(_relabel).options(num_returns=2)
    labels = [ray.remote(_seed).remote(e) for e in edges]
    for round_no in range(max_rounds):
        slices = [send.remote(n, e, l) for e, l in zip(edges, labels)]
        if n == 1:
            slices = [[s] for s in slices]
        out = [receive.remote(labels[p], *(s[p] for s in slices)) for p in range(n)]
        labels = [lab for lab, _ in out]
        if not sum(ray.get([changed for _, changed in out])):
            break
    else:
        raise RuntimeError(
            f"connected_components: no fixpoint after {max_rounds} rounds "
            f"(component diameter exceeds the bound); raise max_rounds")
    log.info("connected_components: converged in %d propagate rounds "
             "(%d edges, %d parts)", round_no + 1, n_edges, n)
    return bounded(ray.data.from_arrow_refs(labels))
