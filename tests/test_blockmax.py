"""Pruned (block-max MaxScore) retrieval ≡ exhaustive retrieval —
the reference's backend-equivalence discipline
(/root/reference/benchmark/on_bm25s.py:189) applied to our two scorers,
plus unit checks that block bounds dominate true impacts."""

from __future__ import annotations

import numpy as np
import pyarrow.parquet as pq
import pytest

from bm25_benchmarks_ray.config import IndexConfig
from bm25_benchmarks_ray.functions.bm25 import BM25Params, tf_shape
from bm25_benchmarks_ray.pipelines.index_build import build_index
from bm25_benchmarks_ray.pipelines.query import search
from bm25_benchmarks_ray.sources.transcripts import (
    synthesize_queries,
    synthesize_transcripts,
)
from bm25_benchmarks_ray.stages.blockmax import term_block_ubs
from bm25_benchmarks_ray.stages.segments import decode_segment, encode_postings


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    d = tmp_path_factory.mktemp("bm")
    table = synthesize_transcripts(600, seed=13)
    pq.write_table(table, str(d / "c.parquet"))
    idx = str(d / "idx")
    cfg = IndexConfig(block_size=16)  # small blocks: many prune decisions
    build_index(str(d / "c.parquet"), idx, cfg, mode="transcripts")
    return idx, cfg


def test_block_bounds_dominate():
    rng = np.random.RandomState(0)
    doc = np.sort(rng.choice(100000, size=500, replace=False)).astype(np.int64)
    tf = rng.randint(1, 30, size=500).astype(np.int64)
    dl = rng.randint(5, 200, size=500).astype(np.int64)
    row = encode_postings("t", doc, tf, dl, 16)
    for method in ["lucene", "bm25l", "bm25+"]:
        p = BM25Params(method=method)
        from bm25_benchmarks_ray.functions.bm25 import nonoccurrence_shape

        s0 = nonoccurrence_shape(p)
        ubs = term_block_ubs(row, p, 50.0, s0)
        d2, t2 = decode_segment(row, 16)
        true = tf_shape(p, t2, dl, 50.0) - s0
        for b in range(ubs.size):
            blk = true[b * 16 : (b + 1) * 16]
            assert ubs[b] >= blk.max() - 1e-12


@pytest.mark.parametrize("method", ["lucene", "atire", "robertson", "bm25l", "bm25+"])
def test_pruned_equals_exhaustive(built, method):
    idx, cfg = built
    params = BM25Params(method=method)
    queries = synthesize_queries(20, seed=21)
    a = search(idx, queries, params=params, k=10, mode="exhaustive").to_pandas()
    b = search(idx, queries, params=params, k=10, mode="pruned").to_pandas()
    for qid, _ in queries:
        ga = a[a["qid"] == qid].sort_values("rank")
        gb = b[b["qid"] == qid].sort_values("rank")
        np.testing.assert_allclose(
            ga["score"].to_numpy(), gb["score"].to_numpy(), atol=1e-9,
            err_msg=f"{method} {qid}",
        )
        for da, db, sa in zip(ga["doc_id"], gb["doc_id"], ga["score"]):
            if da != db:  # fp-tie only
                sb = gb[gb["doc_id"] == db]["score"].iloc[0]
                assert abs(sa - sb) <= 1e-9


def test_partial_block_decode_consistency():
    rng = np.random.RandomState(4)
    doc = np.sort(rng.choice(10000, size=300, replace=False)).astype(np.int64)
    tf = rng.randint(1, 9, size=300).astype(np.int64)
    dl = rng.randint(5, 80, size=300).astype(np.int64)
    row = encode_postings("t", doc, tf, dl, 32)
    full_d, full_t = decode_segment(row, 32)
    np.testing.assert_array_equal(full_d, doc)
    np.testing.assert_array_equal(full_t, tf)
    for lo, hi in [(0, 500), (500, 5000), (9000, 20000), (3333, 3334), (0, 10001)]:
        d, t = decode_segment(row, 32, lo, hi)
        mask = (doc >= lo) & (doc < hi)
        np.testing.assert_array_equal(d, doc[mask])
        np.testing.assert_array_equal(t, tf[mask])


def _truth(rows, ws, params, avgdl, s0, doc_lens, lo, k, bs):
    """Brute-force top-k (docs, scores): every posting scored with its
    doc's length from the norms array."""
    truth: dict[int, float] = {}
    for row, w in zip(rows, ws):
        doc, tf = decode_segment(row, bs)
        base = tf_shape(params, tf.astype(float),
                        doc_lens[doc - lo].astype(float), avgdl) - s0
        for d, v in zip(doc, w * base):
            truth[int(d)] = truth.get(int(d), 0.0) + v
    exp = sorted(truth.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    return [d for d, _ in exp], [v for _, v in exp]


def test_promoted_full_decode_equals_scattered():
    """A pruned term whose candidates cover >=50% of its blocks is
    promoted to a cached full decode (score_query_pruned's coverage
    branch); results must equal the brute-force top-k, and the
    promoted term must land in the task cache."""
    from bm25_benchmarks_ray.functions.bm25 import nonoccurrence_shape
    from bm25_benchmarks_ray.pipelines.query import _DecodeCache
    from bm25_benchmarks_ray.stages.blockmax import score_query_pruned

    rng = np.random.RandomState(7)
    avgdl, k, bs = 50.0, 10, 128
    params = BM25Params(method="lucene")
    s0 = nonoccurrence_shape(params)
    lo, hi = 0, 10_000
    doc_lens = rng.randint(20, 120, hi - lo).astype(np.uint32)

    # term A: rare, high weight -- seeds the candidate set with docs
    # spread uniformly so they touch every block of term B
    doc_a = np.arange(0, 10_000, 16, dtype=np.int64)
    row_a = encode_postings(
        "a", doc_a,
        rng.randint(3, 9, doc_a.size).astype(np.int64), doc_lens[doc_a], bs)
    # term B: huge df, mid weight -- prunable once A fills the heap,
    # and A's candidates cover 100% of its blocks
    doc_b = np.arange(0, 10_000, 2, dtype=np.int64)
    row_b = encode_postings(
        "b", doc_b, np.ones(doc_b.size, dtype=np.int64), doc_lens[doc_b], bs)
    # term C: rare, weight just under B's -- processed AFTER B, its
    # remaining-max keeps the candidate set wide at B's turn (without
    # it the post-A cull shrinks candidates to ~k and coverage falls
    # below the 50% promotion bar)
    doc_c = np.arange(0, 10_000, 500, dtype=np.int64)
    row_c = encode_postings(
        "c", doc_c,
        rng.randint(3, 9, doc_c.size).astype(np.int64), doc_lens[doc_c], bs)
    rows, ws = [row_a, row_b, row_c], [10.0, 3.65, 2.1]

    cache = _DecodeCache(bs, lo, hi, params, avgdl, s0, (doc_lens, lo))
    d1, s1 = score_query_pruned(rows, ws, params, avgdl, k, bs, 0.0,
                                full_decode=cache)
    d2, s2 = _truth(rows, ws, params, avgdl, s0, doc_lens, lo, k, bs)
    np.testing.assert_array_equal(d1, d2)
    np.testing.assert_allclose(s1, s2, atol=1e-9)
    # the promotion is what cached term B without an explicit decode
    assert cache.cached(row_b)


def test_pruned_nonzero_lo_slice():
    """Pruned scoring on a slice whose doc-id range starts far from
    zero — every non-first group of a multi-group index — must return
    the same absolute ids and scores as the brute-force per-doc truth,
    with each doc's dl read at its offset in the norms array."""
    from bm25_benchmarks_ray.functions.bm25 import nonoccurrence_shape
    from bm25_benchmarks_ray.pipelines.query import _DecodeCache
    from bm25_benchmarks_ray.stages.blockmax import score_query_pruned

    rng = np.random.RandomState(11)
    avgdl, k, bs = 50.0, 10, 32
    params = BM25Params(method="lucene")
    s0 = nonoccurrence_shape(params)
    lo, hi = 7_000_000, 7_010_000
    doc_lens = rng.randint(20, 120, hi - lo).astype(np.uint32)

    rows, ws = [], []
    for name, step, w in (("a", 16, 10.0), ("b", 2, 3.65), ("c", 500, 2.1)):
        doc = np.arange(lo, hi, step, dtype=np.int64)
        tf = rng.randint(1, 9, doc.size).astype(np.int64)
        rows.append(encode_postings(name, doc, tf, doc_lens[doc - lo], bs))
        ws.append(w)

    cache = _DecodeCache(bs, lo, hi, params, avgdl, s0, (doc_lens, lo))
    d1, s1 = score_query_pruned(rows, ws, params, avgdl, k, bs, 0.0,
                                full_decode=cache)
    assert d1.dtype == np.int64 and d1.min() >= lo and d1.max() < hi
    d2, s2 = _truth(rows, ws, params, avgdl, s0, doc_lens, lo, k, bs)
    np.testing.assert_array_equal(d1, d2)
    np.testing.assert_allclose(s1, s2, atol=1e-9)
