"""Connected components (duplicate clusters): driver pointer-jumping path,
distributed min-label propagation path, and the cluster-level recall gate
for the LSH pipeline (near_dup_clusters vs the exact duplicate_clusters).
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from engine.ops.cc import connected_components, minlabel_pointer_jumping

SF_DIR = "/root/testdata/sf0.01"


def _reference_components(edges: list[tuple[int, int]]) -> dict[int, int]:
    """Tiny textbook union-find, the ground truth for both engine paths."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    nodes = {n for e in edges for n in e}
    return {n: find(n) for n in nodes}


def test_pointer_jumping_chain_blob_pair():
    # A 10-chain (worst diameter), a triangle, an isolated pair — all in one
    # edge list, deliberately shuffled.
    edges = [(i, i + 1) for i in range(9)]           # component min 0
    edges += [(100, 101), (101, 102), (100, 102)]    # component min 100
    edges += [(300, 200)]                            # component min 200
    rng = np.random.default_rng(3)
    order = rng.permutation(len(edges))
    a = np.array([edges[i][0] for i in order], dtype=np.int64)
    b = np.array([edges[i][1] for i in order], dtype=np.int64)
    nodes, labels = minlabel_pointer_jumping(a, b)
    got = dict(zip(nodes.tolist(), labels.tolist()))
    assert got == _reference_components(edges)


def test_pointer_jumping_matches_reference_random():
    rng = np.random.default_rng(11)
    a = rng.integers(0, 500, size=400).astype(np.int64)
    b = rng.integers(0, 500, size=400).astype(np.int64)
    keep = a != b
    a, b = a[keep], b[keep]
    nodes, labels = minlabel_pointer_jumping(a, b)
    got = dict(zip(nodes.tolist(), labels.tolist()))
    assert got == _reference_components(list(zip(a.tolist(), b.tolist())))


def test_connected_components_driver_path(ray_session):
    import ray.data

    edges = [(5, 3), (3, 9), (20, 21), (7, 7)]  # self-loop must be dropped
    ds = ray.data.from_arrow(pa.table({
        "a": pa.array([e[0] for e in edges], pa.int64()),
        "b": pa.array([e[1] for e in edges], pa.int64())}))
    rows = connected_components(ds).take_all()
    got = {r["doc_id"]: r["cluster_id"] for r in rows}
    assert got == {3: 3, 5: 3, 9: 3, 20: 20, 21: 20}


def test_connected_components_distributed_matches_driver(ray_session):
    """max_driver_edges=0 forces the shuffle path; it must agree with the
    driver union-find on a graph with a 12-hop chain (round count bound)
    and a dense blob (hash-to-min's easy case)."""
    import ray.data

    rng = np.random.default_rng(23)
    edges = [(i, i + 1) for i in range(1000, 1012)]            # long chain
    blob = rng.integers(0, 40, size=(60, 2)).astype(np.int64)  # dense blob
    edges += [(int(x), int(y)) for x, y in blob if x != y]
    edges += [(5000, 6000)]
    a = pa.array([e[0] for e in edges], pa.int64())
    b = pa.array([e[1] for e in edges], pa.int64())
    ds = ray.data.from_arrow(pa.table({"a": a, "b": b}))
    rows = connected_components(ds, max_driver_edges=0, max_rounds=32).take_all()
    got = {r["doc_id"]: r["cluster_id"] for r in rows}
    assert got == _reference_components(edges)


def test_connected_components_gate_boundary_paths_agree(ray_session):
    """Property coverage for the >gate code path (round-3 VERDICT item 10):
    on a randomized graph (random blob + a long chain + isolated pairs),
    the distributed min-label path must produce EXACTLY the driver
    pointer-jumping labels, exercised at the precise gate boundary —
    edge_count == gate stays on the driver path, gate-1 forces the
    distributed one; both must agree with the pure-python reference."""
    import ray.data

    rng = np.random.default_rng(41)
    edges = [(int(x), int(y))
             for x, y in rng.integers(0, 120, size=(250, 2)) if x != y]
    edges += [(i, i + 1) for i in range(2000, 2010)]    # 10-hop chain
    edges += [(7000, 7001), (8000, 8001)]               # isolated pairs
    ds = ray.data.from_arrow(pa.table({
        "a": pa.array([e[0] for e in edges], pa.int64()),
        "b": pa.array([e[1] for e in edges], pa.int64())}))
    n = len(edges)
    want = _reference_components(edges)

    driver_rows = connected_components(ds, max_driver_edges=n).take_all()
    assert {r["doc_id"]: r["cluster_id"] for r in driver_rows} == want

    dist_rows = connected_components(ds, max_driver_edges=n - 1,
                                     max_rounds=32).take_all()
    assert {r["doc_id"]: r["cluster_id"] for r in dist_rows} == want


def test_connected_components_empty_and_selfloop_only(ray_session):
    import ray.data

    empty = ray.data.from_arrow(pa.table({
        "a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())}))
    out = connected_components(empty)
    assert out.count() == 0
    assert set(out.schema().names) == {"doc_id", "cluster_id"}

    selfloops = ray.data.from_arrow(pa.table({
        "a": pa.array([4, 4], pa.int64()), "b": pa.array([4, 4], pa.int64())}))
    assert connected_components(selfloops).count() == 0


def test_connected_components_max_rounds_is_loud(ray_session):
    """A chain longer than max_rounds must raise, not return a wrong answer."""
    import ray.data

    edges = [(i, i + 1) for i in range(30)]
    ds = ray.data.from_arrow(pa.table({
        "a": pa.array([e[0] for e in edges], pa.int64()),
        "b": pa.array([e[1] for e in edges], pa.int64())}))
    with pytest.raises(RuntimeError, match="no fixpoint"):
        connected_components(ds, max_driver_edges=0, max_rounds=2)


def test_keep_canonical_broadcast_and_join_paths_agree(ray_session, monkeypatch):
    """Both size-gate branches must drop exactly the clustered non-reps and
    return the survivors' whole rows, payload columns included."""
    import ray.data

    from engine.ops import cc
    from engine.ops.cc import keep_canonical

    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(list(range(10)), pa.int64()),
        "text": pa.array([f"d{i}" for i in range(10)])}))
    clusters = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([2, 5, 7, 3, 9], pa.int64()),
        "cluster_id": pa.array([2, 2, 2, 3, 3], pa.int64())}))
    expect = [{"doc_id": i, "text": f"d{i}"} for i in [0, 1, 2, 3, 4, 6, 8]]
    bcast = keep_canonical(docs, clusters).sort("doc_id").take_all()
    monkeypatch.setattr(cc, "KEEP_CANONICAL_MAX_BROADCAST_IDS", 0)
    joined = keep_canonical(docs, clusters).sort("doc_id").take_all()
    assert bcast == expect
    assert joined == expect


def test_distributed_executions_do_not_grow_with_rounds(ray_session, monkeypatch):
    """The distributed path starts the same number of Ray Data executions
    on a 3-hop chain as on a 12-hop chain, which needs more rounds: a round
    is plain Ray tasks, not a Dataset to execute."""
    import ray.data
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    execute = StreamingExecutor.execute
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(1)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    executions = []
    for hops in (3, 12):
        edges = [(i, i + 1) for i in range(100, 100 + hops)]
        ds = ray.data.from_arrow(pa.table({
            "a": pa.array([e[1] for e in edges], pa.int64()),
            "b": pa.array([e[0] for e in edges], pa.int64())}))
        calls.clear()
        rows = connected_components(ds, max_driver_edges=0).take_all()
        executions.append(len(calls))
        assert {r["doc_id"]: r["cluster_id"] for r in rows} == _reference_components(edges)
    assert executions[0] == executions[1], executions


def test_keep_canonical_no_duplicates_is_identity(ray_session):
    import ray.data

    from engine.ops.cc import keep_canonical

    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64())}))
    clusters = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([], pa.int64()),
        "cluster_id": pa.array([], pa.int64())}))
    assert sorted(r["doc_id"] for r in keep_canonical(docs, clusters).take_all()) \
        == [1, 2, 3]


def test_near_dup_cluster_pair_recall(ray_session):
    """The LSH cluster pipeline must recover >=90% of the exact >=0.9-Jaccard
    co-cluster pairs (minhash candidate probability at j=0.9 with k=64/b=16
    is ~1-(1-0.9^4)^16 ≈ 1.0, and transitive closure only helps)."""
    import __ray_entry__ as entry

    def cluster_pairs(rows) -> set:
        by_cluster: dict[int, list[int]] = {}
        for r in rows:
            by_cluster.setdefault(int(r["cluster_id"]), []).append(int(r["doc_id"]))
        out = set()
        for members in by_cluster.values():
            members.sort()
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    out.add((members[i], members[j]))
        return out

    exact = cluster_pairs(entry.queries()["duplicate_clusters"](SF_DIR).take_all())
    approx = cluster_pairs(entry.queries()["near_dup_clusters"](SF_DIR).take_all())
    assert len(exact) >= 100, "corpus should contain planted near-dup clusters"
    recall = len(exact & approx) / len(exact)
    assert recall >= 0.9, f"cluster pair recall {recall:.3f} < 0.9"
