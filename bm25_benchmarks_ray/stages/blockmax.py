"""Block-max pruned scoring: exact top-k with posting-block skipping.

MaxScore-style term-at-a-time pruning over the segment skip tables
(stages/segments.py), the same family PISA's block_max_maxscore uses
(/root/reference/benchmark/on_pisa.py:51):

1. Per query, order terms by global max impact (descending); terms with
   negative idf (robertson on df > N/2) are processed first and never
   pruned, so the running threshold is always a valid lower bound.
2. Process terms in order, keeping a candidate set with exact partial
   scores.  After the heap holds k docs, a term whose remaining-suffix
   max impact cannot lift an unseen doc over the threshold is scored
   ONLY for surviving candidates — and only the posting *blocks* that
   contain candidate docs are decoded (binary search on blk_doc0 →
   byte-range varint decode).  High-df low-impact terms (the expensive
   lists) are the ones that get skipped — the point of block-max.
3. Candidates whose partial score plus the remaining suffix max cannot
   reach the threshold are dropped.

Exactness: every pruning decision uses an upper bound that dominates
the true contribution (bmax_tf/bmin_dl dominate tf_shape for every
variant — tf_shape is increasing in tf, decreasing in dl), so the
returned top-k (scores and docs) equals the exhaustive scorer's,
verified in tests/test_blockmax.py.
"""

from __future__ import annotations

import numpy as np

from ..functions.bm25 import BM25Params, nonoccurrence_shape, tf_shape


def term_block_ubs(
    row: dict, params: BM25Params, avgdl: float, s0: float
) -> np.ndarray:
    """Per-block upper bound on (tf_shape - s0) for this term's blocks."""
    bmax = np.frombuffer(row["bmax_tf"], dtype=np.uint32).astype(np.float64)
    bmin = np.frombuffer(row["bmin_dl"], dtype=np.uint32).astype(np.float64)
    return tf_shape(params, bmax, bmin, avgdl) - s0


def candidate_block_selection(row: dict, cand: np.ndarray) -> tuple[np.ndarray, int]:
    """(sorted-unique block indices that can contain ``cand`` docs,
    total block count) for a segment row."""
    doc0 = np.frombuffer(row["blk_doc0"], dtype=np.int64)
    if doc0.size == 0 or cand.size == 0:
        return np.empty(0, dtype=np.int64), int(doc0.size)
    b = np.clip(np.searchsorted(doc0, cand, side="right") - 1, 0, doc0.size - 1)
    # cand is sorted, so b is non-decreasing: dedupe by adjacent-diff
    # instead of np.unique's full sort
    blocks = b[:1] if b.size <= 1 else b[np.concatenate(([True], b[1:] != b[:-1]))]
    return blocks, int(doc0.size)


def score_query_pruned(
    term_rows: list[dict],
    weights: list[float],
    params: BM25Params,
    avgdl: float,
    k: int,
    block_size: int,
    qconst: float,
    full_decode,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k (docs, scores) for one query over the doc slice of
    ``full_decode``.

    term_rows: the query's segment rows (one per in-vocab term in this
    group); weights: occurrence-count × idf per term.

    ``full_decode`` is the caller-owned task cache
    (``pipelines.query._DecodeCache``): ``full_decode(row) -> (doc,
    base)`` (base = tf_shape - s0) decodes a term shared by many
    queries once, ``gmax(row)`` caches its max block bound, and
    ``dl_at(doc)`` reads doc lengths from the group's norms.  The
    candidate-blocks fast path skips the full decode unless the term is
    already cached (a cached full list is free; a fresh full decode
    would defeat the block skip)."""
    s0 = nonoccurrence_shape(params)
    m = len(term_rows)
    if m == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)

    # global per-term max contribution (w * max block ub); negatives
    # (negative idf) are forced to the front and never pruned.  The max
    # block ub is cached per term in full_decode (shared by every query
    # of the task's batch).
    gmax = np.array([w * full_decode.gmax(row)
                     for row, w in zip(term_rows, weights)], dtype=np.float64)
    neg = gmax < 0
    order = np.concatenate(
        [np.flatnonzero(neg), np.flatnonzero(~neg)[np.argsort(-gmax[~neg])]]
    )
    rem = np.zeros(m + 1)
    pos_part = np.where(gmax[order] > 0, gmax[order], 0.0)
    rem[:-1] = pos_part[::-1].cumsum()[::-1]  # suffix sum of positive maxes

    cand_doc = np.empty(0, dtype=np.int64)
    cand_score = np.empty(0, dtype=np.float64)
    threshold = -np.inf
    any_neg_pending = True

    for pos, i in enumerate(order):
        row = term_rows[i]
        w = weights[i]
        if pos >= int(neg.sum()):
            any_neg_pending = False
        prune_active = (not any_neg_pending) and cand_doc.size >= k

        cached = full_decode.cached(row)
        prune_term = prune_active and w > 0 and gmax[i] + rem[pos + 1] < threshold
        if prune_term and not cached:
            # an unseen doc cannot reach the threshold through this and
            # later terms: score this term for candidates only, decoding
            # candidate blocks alone
            blocks, nblk = candidate_block_selection(row, cand_doc)
            if blocks.size * 2 >= nblk > 0:
                # candidates cover most of the term's blocks: a straight
                # full decode is CHEAPER than the scattered-block gather
                # (measured at sf8, 560k-df term, 68% coverage: 13 vs
                # 17-19 ms, when the gathered blob still mixed 1-byte gap
                # and multi-byte dl streams) AND it lands in the task-wide
                # cache, so later queries sharing this term pay only the
                # searchsorted membership of the cached branch below
                doc, base = full_decode(row)
                if doc.size:
                    idx = np.searchsorted(doc, cand_doc)
                    idx = np.minimum(idx, doc.size - 1)
                    hit = doc[idx] == cand_doc
                    doc, base = cand_doc[hit], base[idx[hit]]
            elif blocks.size == 0:
                doc, base = np.empty(0, dtype=np.int64), None
            else:
                from .segments import decode_selected_blocks

                doc, tf = decode_selected_blocks(row, block_size, blocks)
                idx = np.searchsorted(cand_doc, doc)
                idx = np.minimum(idx, cand_doc.size - 1)
                keep = cand_doc[idx] == doc
                doc, tf = doc[keep], tf[keep]
                base = (
                    tf_shape(params, tf, full_decode.dl_at(doc), avgdl) - s0
                    if doc.size else None
                )
        else:
            doc, base = full_decode(row)
            if doc.size and prune_term:
                # cached full list, candidates-only semantics: both sides
                # sorted → searchsorted membership, not an O(n log n) isin
                idx = np.searchsorted(doc, cand_doc)
                idx = np.minimum(idx, doc.size - 1)
                hit = doc[idx] == cand_doc
                doc, base = cand_doc[hit], base[idx[hit]]
        if doc.size:
            cand_doc, cand_score = _accumulate(cand_doc, cand_score, doc, w * base)
        if cand_doc.size >= k and not any_neg_pending:
            threshold = _kth(cand_score, k)
            # drop candidates that cannot reach the threshold anymore
            keep = cand_score + rem[pos + 1] >= threshold
            cand_doc, cand_score = cand_doc[keep], cand_score[keep]

    sel = np.lexsort((cand_doc, -cand_score))[:k]
    return cand_doc[sel], cand_score[sel] + qconst


def _kth(scores: np.ndarray, k: int) -> float:
    if scores.size <= k:
        return float(scores.min()) if scores.size else -np.inf
    return float(np.partition(scores, -k)[-k])


def _accumulate(
    cand_doc: np.ndarray,
    cand_score: np.ndarray,
    doc: np.ndarray,
    contrib: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge sorted candidate arrays with a term's (doc, contrib).

    Both sides are sorted and internally duplicate-free (candidates by
    construction, a term's postings by doc id), so this is a linear
    two-way merge: scatter-add contributions for docs already in the
    candidate set, then splice the new docs in at their searchsorted
    insertion points — no np.unique (whose return_inverse argsorts the
    whole concatenation per term, the old hot spot).  ``cand_score`` is
    always a privately-owned array here (bincount/copy/boolean-mask
    outputs), so the in-place += is safe."""
    if cand_doc.size == 0:
        return doc.copy(), contrib.astype(np.float64, copy=True)
    ins = np.searchsorted(cand_doc, doc)
    ic = np.minimum(ins, cand_doc.size - 1)
    hit = cand_doc[ic] == doc
    # doc ids are unique within a term → hit indices are unique → exact
    cand_score[ic[hit]] += contrib[hit]
    if hit.all():
        return cand_doc, cand_score
    new_doc = doc[~hit]
    new_val = contrib[~hit]
    total = cand_doc.size + new_doc.size
    # final positions of the new docs = insertion point + rank among new
    pos_new = ins[~hit] + np.arange(new_doc.size, dtype=np.int64)
    out_doc = np.empty(total, dtype=cand_doc.dtype)
    out_val = np.empty(total, dtype=np.float64)
    mask = np.zeros(total, dtype=bool)
    mask[pos_new] = True
    out_doc[mask] = new_doc
    out_val[mask] = new_val
    out_doc[~mask] = cand_doc
    out_val[~mask] = cand_score
    return out_doc, out_val
