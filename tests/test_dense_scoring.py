"""Dense-accumulator exhaustive scoring (k >= DENSE_K_CUTOFF fast path)
must be result-identical to the sort-based exhaustive path and to the
pruned path — same backend-equivalence discipline as test_blockmax.py,
applied in-process so the module constants can be toggled per call."""

from __future__ import annotations

import numpy as np
import pytest

from bm25_benchmarks_ray.functions.bm25 import (
    BM25Params,
    nonoccurrence_shape,
)
from bm25_benchmarks_ray.pipelines import query as Q
from bm25_benchmarks_ray.stages.segments import encode_postings

# one dl per doc id, as the group's norms array holds it
DOC_LENS = np.random.RandomState(0).randint(5, 120, size=1000).astype(np.uint32)


def _make_rows(n_docs: int, n_terms: int, seed: int, block_size: int = 32):
    rng = np.random.RandomState(seed)
    rows = {}
    for t in range(n_terms):
        size = rng.randint(5, max(6, n_docs // 2))
        doc = np.sort(
            rng.choice(n_docs, size=min(size, n_docs), replace=False)
        ).astype(np.int64)
        tf = rng.randint(1, 12, size=doc.size).astype(np.int64)
        dl = DOC_LENS[doc].astype(np.int64)
        # rows_by_term maps term -> list of segment-row parts
        rows[f"t{t}"] = [encode_postings(f"t{t}", doc, tf, dl, block_size)]
    return rows


def _run(plan, rows, params, k, lo, hi, prune, dense_pad, block_size=32):
    s0 = nonoccurrence_shape(params)
    avgdl = 50.0
    cache = Q._DecodeCache(block_size, lo, hi, params, avgdl, s0, (DOC_LENS, 0))
    qi, doc, score = Q.score_range(
        plan, rows, params, avgdl, k, block_size, lo, hi,
        0, len(plan["qconst"]), prune, dense_pad, cache,
    )
    if not qi:
        return np.empty(0, np.int32), np.empty(0, np.int64), np.empty(0)
    return np.concatenate(qi), np.concatenate(doc), np.concatenate(score)


def _by_query(qi, doc, score):
    out = {}
    for q in np.unique(qi):
        m = qi == q
        d, s = doc[m], score[m]
        order = np.lexsort((d, -s))
        out[int(q)] = (d[order], s[order])
    return out


@pytest.mark.parametrize("dense_pad", [False, True])
@pytest.mark.parametrize("method", ["lucene", "robertson", "bm25+"])
def test_dense_equals_sorted_exhaustive(method, dense_pad, monkeypatch):
    n_docs, k = 400, 100
    params = BM25Params(method=method)
    rows = _make_rows(n_docs, 6, seed=7)
    rng = np.random.RandomState(11)
    fanout: dict[str, list] = {}
    nq = 12
    qconst = np.zeros(nq)
    for qi in range(nq):
        terms = rng.choice(6, size=rng.randint(1, 4), replace=False)
        for t in terms:
            w = float(rng.uniform(0.2, 3.0))
            if method == "robertson" and qi % 4 == 0:
                w = -abs(w)  # negative-idf term: must fall to exhaustive
            fanout.setdefault(f"t{t}", []).append((qi, w))
            qconst[qi] += 0.1 * w
    plan = {"term_fanout": fanout, "qconst": qconst}

    assert k >= Q.DENSE_K_CUTOFF
    a = _by_query(*_run(plan, rows, params, k, 0, n_docs, True, dense_pad))
    monkeypatch.setattr(Q, "DENSE_RANGE_CAP", 0)  # force sort-based path
    b = _by_query(*_run(plan, rows, params, k, 0, n_docs, True, dense_pad))
    assert set(a) == set(b)
    for q in a:
        da, sa = a[q]
        db, sb = b[q]
        np.testing.assert_allclose(sa, sb, atol=1e-12, err_msg=f"q{q}")
        # doc sets may differ only at fp-score ties
        for x, y, s in zip(da, db, sa):
            if x != y:
                assert abs(s - sb[np.where(db == y)[0][0]]) <= 1e-12


def test_dense_equals_pruned_small_k(monkeypatch):
    """With the cutoff lowered, k=10 dense must equal k=10 pruned."""
    n_docs, k = 400, 10
    params = BM25Params()
    rows = _make_rows(n_docs, 5, seed=3)
    rng = np.random.RandomState(5)
    fanout: dict[str, list] = {}
    nq = 10
    for qi in range(nq):
        for t in rng.choice(5, size=2, replace=False):
            fanout.setdefault(f"t{t}", []).append(
                (qi, float(rng.uniform(0.5, 2.0)))
            )
    plan = {"term_fanout": fanout, "qconst": np.zeros(nq)}

    p = _by_query(*_run(plan, rows, params, k, 0, n_docs, True, False))
    monkeypatch.setattr(Q, "DENSE_K_CUTOFF", 1)  # force dense at k=10
    d = _by_query(*_run(plan, rows, params, k, 0, n_docs, True, False))
    assert set(p) == set(d)
    for q in p:
        np.testing.assert_allclose(p[q][1], d[q][1], atol=1e-12)


def test_dense_partial_range_and_reuse():
    """Accumulator re-zeroing across queries and a lo>0 sub-range."""
    n_docs = 300
    params = BM25Params()
    rows = _make_rows(n_docs, 4, seed=9)
    fanout = {
        "t0": [(0, 1.5), (1, 0.7)],
        "t1": [(0, 0.9)],
        "t2": [(1, 2.0), (2, 1.1)],
    }
    plan = {"term_fanout": fanout, "qconst": np.zeros(3)}
    lo, hi = 100, 250
    a = _by_query(*_run(plan, rows, params, 64, lo, hi, True, False))
    for q, (d, s) in a.items():
        assert ((d >= lo) & (d < hi)).all()
    # independence: scoring q1 alone matches q1 scored after q0
    solo_plan = {
        "term_fanout": {"t0": [(0, 0.7)], "t2": [(0, 2.0)]},
        "qconst": np.zeros(1),
    }
    solo = _by_query(*_run(solo_plan, rows, params, 64, lo, hi, True, False))
    if 1 in a and 0 in solo:
        np.testing.assert_array_equal(a[1][0], solo[0][0])
        np.testing.assert_allclose(a[1][1], solo[0][1], atol=1e-12)
