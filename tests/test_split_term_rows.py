"""A term whose runs straddle a sort-partition boundary at build time
yields MULTIPLE self-contained segment rows with disjoint doc ranges.
The query side must score all parts — dropping all but one silently
loses postings (observed: 14 duplicate-term rows in an sf1.0 build with
sampled composite-key sort boundaries).  These tests pin:

1. segment_rows_by_term groups duplicate-term rows into doc-ordered
   parts (not last-row-wins),
2. score_range over split parts is result-identical to the unsplit
   term, on the pruned, dense-accumulator and sort-exhaustive paths.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from bm25_benchmarks_ray.functions.bm25 import BM25Params, nonoccurrence_shape
from bm25_benchmarks_ray.pipelines import query as Q
from bm25_benchmarks_ray.stages.segments import (
    SEGMENT_SCHEMA,
    encode_postings,
    segment_rows_by_term,
)

BS = 16
# one dl per doc id, as the group's norms array holds it
DOC_LENS = np.random.RandomState(0).randint(5, 90, size=1000).astype(np.uint32)


def _postings(n_docs: int, seed: int):
    rng = np.random.RandomState(seed)
    doc = np.sort(
        rng.choice(n_docs, size=n_docs // 2, replace=False)
    ).astype(np.int64)
    tf = rng.randint(1, 9, size=doc.size).astype(np.int64)
    return doc, tf, DOC_LENS[doc].astype(np.int64)


def _run(plan, rows, params, k, n_docs, prune, dense_pad):
    cache = Q._DecodeCache(
        BS, 0, n_docs, params, 40.0, nonoccurrence_shape(params), (DOC_LENS, 0)
    )
    qi, doc, score = Q.score_range(
        plan, rows, params, 40.0, k, BS, 0, n_docs,
        0, len(plan["qconst"]), prune, dense_pad, cache,
    )
    if not qi:
        return np.empty(0, np.int64), np.empty(0)
    doc, score = np.concatenate(doc), np.concatenate(score)
    order = np.lexsort((doc, -score))
    return doc[order], score[order]


def test_segment_rows_by_term_groups_parts():
    doc, tf, dl = _postings(300, seed=1)
    cut = doc.size // 2
    a = encode_postings("hot", doc[:cut], tf[:cut], dl[:cut], BS)
    b = encode_postings("hot", doc[cut:], tf[cut:], dl[cut:], BS)
    c = encode_postings("cold", doc[:5], tf[:5], dl[:5], BS)
    # row order deliberately scrambled: part with the LOWER doc range last
    tbl = pa.Table.from_pylist([b, c, a], schema=SEGMENT_SCHEMA)
    rows = segment_rows_by_term(tbl)
    assert set(rows) == {"hot", "cold"}
    assert len(rows["hot"]) == 2 and len(rows["cold"]) == 1
    d0 = [
        np.frombuffer(r["blk_doc0"], dtype=np.int64)[0] for r in rows["hot"]
    ]
    assert d0 == sorted(d0), "parts must come back doc-ordered"
    assert [r["_part"] for r in rows["hot"]] == [0, 1]


@pytest.mark.parametrize("method", ["lucene", "robertson"])
@pytest.mark.parametrize("k", [5, 100])  # 100 >= DENSE_K_CUTOFF -> dense path
@pytest.mark.parametrize("prune", [True, False])
def test_split_term_scores_identical(method, k, prune):
    n_docs = 400
    params = BM25Params(method=method)
    doc, tf, dl = _postings(n_docs, seed=2)
    d2, t2, l2 = _postings(n_docs, seed=3)

    whole = {
        "hot": [encode_postings("hot", doc, tf, dl, BS)],
        "other": [encode_postings("other", d2, t2, l2, BS)],
    }
    cut = doc.size // 3
    split = {
        "hot": [
            encode_postings("hot", doc[:cut], tf[:cut], dl[:cut], BS),
            encode_postings("hot", doc[cut:], tf[cut:], dl[cut:], BS),
        ],
        "other": whole["other"],
    }
    for parts in split.values():
        for i, r in enumerate(parts):
            r["_part"] = i

    w_hot = -1.5 if method == "robertson" else 1.5
    plan = {
        "term_fanout": {"hot": [(0, w_hot)], "other": [(0, 0.8)]},
        "qconst": np.array([w_hot * nonoccurrence_shape(params)]),
    }
    for dense_pad in (False, True):
        d_w, s_w = _run(plan, whole, params, k, n_docs, prune, dense_pad)
        d_s, s_s = _run(plan, split, params, k, n_docs, prune, dense_pad)
        np.testing.assert_array_equal(d_w, d_s)
        np.testing.assert_allclose(s_w, s_s, rtol=0, atol=1e-12)
