"""Top-k BM25 retrieval over the segment index.

Doc-partitioned scatter/gather (the scalable design the reference's
single-process ``model.retrieve`` cannot express,
/root/reference/benchmark/on_bm25s.py:163-211):

1. Queries are tokenized driver-side (they are tiny; reference does the
   same with a frozen vocab, on_bm25s.py:89-112) and their global df
   comes from the vocab rows of their terms (``Index.df_of``).
2. One broadcast object (``ray.put``) carries every query's term/idf
   structure to all scoring tasks — read zero-copy per task, never
   re-shipped per batch.
3. One plain Ray task (``score_slice``) per (group, doc slice, query
   batch) scores its queries against a disjoint doc range.  It reads
   only the parquet row groups whose footer tid range holds one of its
   query terms (``stages.segments.read_term_rows``: segment files are
   sorted by tid in row groups of ``ROW_GROUP_ROWS``, so the footers
   are the group's term dictionary), so a query's read and decode are
   about its terms' rows, not the group's files; contributions are
   accumulated vectorized (np.bincount over unique candidate docs),
   and the task returns its local top-k per query — k rows, not a
   score vector.  No Ray Data job is started per call; the tasks run
   on Ray's reused worker processes.  A call the scatter gives one task
   and fewer queries than a q-batch's floor (a single query, say) gains
   no parallelism from that task, so the calling process runs the same
   slice body itself: no ``ray.put``, no task round trip (local shard
   requests run in-process in Elasticsearch the same way).  The
   ``Index`` handle it scores through is opened once per published
   version of the index (``Index.open``), so its manifest, join-back
   offsets, tombstones and term→df cache are read once, not per call.
4. A query's partials come only from its own query batch's tasks, so
   the driver gathers and merges one query batch at a time (one
   ``ray.get`` of that batch's Q_b × k × (groups × slices) tiny rows)
   into the final ranking with (score desc, doc_id asc) tie
   normalization (the reference's argpartition tie order is
   unspecified, on_rank_bm25.py:32).  Driver merge memory is one query
   batch's partials at any query count; the per-batch results
   concatenate in query order, and that one Arrow table is the result
   (no Ray Data dataset wraps it).

``serve.BM25Server`` shares this driver side — the ``Index`` handle,
``_query_plan``, ``_merge_partials_local`` and ``finish_results`` — and
scores the same ``score_range`` core in resident actors.

Rank-identicality corner: the reference ranks a dense score vector over
*all* docs, so every UNMATCHED doc scores exactly the query constant
(0 for lucene/atire/robertson; the delta-driven shift for bm25l/+).
Unmatched docs therefore participate in the ranking by score — with
robertson's negative idf (df > N/2) matched docs can score BELOW the
query constant, in which case unmatched docs outrank them.  Each
group's manifest entry records its span [doc_lo, doc_hi) (set by the
norms pass, state/norms.py).  When the spans are disjoint and exact
(``n_docs == doc_hi - doc_lo``: no hole), each slice task knows every
doc of its range, so it merges its k lowest unmatched doc ids at
score == qconst into its local top-k; the global merge then ranks all
partials uniformly by (score desc, doc_id asc).  For queries whose
in-group weights are all positive this padding is skipped whenever k
matched docs exist (they strictly beat qconst).  Indexes whose spans
overlap (interleaved groups) fall back to merge-side append-padding
from [0, num_docs) (exact only for non-negative-idf scoring) when those
are provably their ids; disjoint spans with holes return matched docs
only.  Masks (filters, tombstones) are cut into per-group shards by the
spans, so they need the spans disjoint, holes or not.
"""

from __future__ import annotations

import functools
import os
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from functools import cached_property

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import ray

from ..config import IndexConfig
from ..functions.bm25 import BM25Params, idf as idf_fn, nonoccurrence_shape, tf_shape
from ..stages.tokenize_stage import TokenizePostings
from ..state.manifest import Manifest, publish_token
from .docfilter import BitmapShards
from .index_build import SEGMENTS_DIR, VOCAB_DIR, docmap_from_offsets, load_offsets

RESULT_SCHEMA = pa.schema(
    [
        ("qid", pa.string()),
        ("doc_id", pa.int64()),
        ("rank", pa.int32()),
        ("score", pa.float64()),
    ]
)


def sample_queries(
    queries: list[tuple[str, str]], samples: int | None, seed: int = 42
) -> list[tuple[str, str]]:
    """Seeded query sampling — the reference's --samples path
    (/root/reference/benchmark/on_rank_bm25.py:72-76: random.seed(42)
    then random.sample of the qid list)."""
    if samples is None or samples >= len(queries):
        return queries
    import random

    rng = random.Random(seed)
    keys = [q for q, _ in queries]
    keep = set(rng.sample(keys, samples))
    return [(q, t) for q, t in queries if q in keep]


def tokenize_queries(
    queries: list[tuple[str, str]], cfg: IndexConfig
) -> list[tuple[str, Counter]]:
    """Each query's kept-term counts, read by the build's tokenizer."""
    terms = TokenizePostings(cfg).terms
    return [(qid, Counter(terms(text))) for qid, text in queries]


def _query_plan(
    tokenized: list[tuple[str, Counter]], index: Index, params: BM25Params
) -> dict:
    """Driver-side query structure: per-term (query, weight·idf) fanout +
    per-query constants.  df lookups go through the handle's term→df
    cache.  Okapi's epsilon floor needs the vocab-wide mean robertson
    idf (manifest stats; one full vocab read for indexes without it)."""
    terms = sorted({t for _, c in tokenized for t in c})
    df_map = index.df_of(terms)
    num_docs, avg_idf = index.num_docs, index.avg_idf
    if params.method == "okapi" and params.epsilon != 0.0 and avg_idf is None:
        from ..functions.bm25 import avg_robertson_idf

        dfs = pads.dataset(os.path.join(index.index_dir, VOCAB_DIR)).to_table(
            columns=["df"]
        ).column("df").to_numpy()
        avg_idf = avg_robertson_idf(dfs, num_docs)

    s0 = nonoccurrence_shape(params)
    qids = [qid for qid, _ in tokenized]
    # Vectorized fanout build: one idf over the unique-term df array and
    # numpy grouping, not an idf_fn call per (query, term) pair — the
    # per-pair Python loop was ~0.25 s of serial driver time per 8000
    # queries (the scalar np.log dominating), a fixed cost that deflates
    # wide-cluster scaling and is O(pairs) on million-query batches.
    # The remaining Python loop below only flattens Counter items.
    known = sorted(df_map)
    tid_of = {t: i for i, t in enumerate(known)}
    qi_l: list[int] = []
    ti_l: list[int] = []
    m_l: list[float] = []
    for qi, (_, counts) in enumerate(tokenized):
        for term, m in counts.items():
            ti = tid_of.get(term)
            if ti is None:  # unseen token drops out (frozen vocab, §2.2 M7)
                continue
            qi_l.append(qi)
            ti_l.append(ti)
            m_l.append(m)
    qconst = np.zeros(len(tokenized), dtype=np.float64)
    term_fanout: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    if qi_l:
        qi_a = np.asarray(qi_l, dtype=np.int64)
        ti_a = np.asarray(ti_l, dtype=np.int64)
        df_a = np.asarray([df_map[t] for t in known], dtype=np.float64)
        idf_a = np.asarray(idf_fn(params, df_a, num_docs, avg_idf=avg_idf))
        w_a = np.asarray(m_l, dtype=np.float64) * idf_a[ti_a]
        # per-pair w·s0 then bincount: same accumulation order and
        # operand shapes as the old per-pair loop (scores must stay
        # bit-identical for the value-hash oracles)
        qconst = np.bincount(
            qi_a, weights=w_a * s0, minlength=len(tokenized)
        ).astype(np.float64)
        order = np.lexsort((qi_a, ti_a))  # term-major, qi ascending within
        ti_s, qi_s, w_s = ti_a[order], qi_a[order], w_a[order]
        bounds = np.searchsorted(ti_s, np.arange(len(known) + 1))
        for t, b0, b1 in zip(known, bounds[:-1], bounds[1:]):
            if b1 > b0:
                term_fanout[t] = (qi_s[b0:b1], w_s[b0:b1])
    return {
        "qids": qids,
        "qconst": qconst,
        "term_fanout": term_fanout,
        "terms": sorted(term_fanout),
    }


def _fanout_arrays(entry) -> tuple[np.ndarray, np.ndarray]:
    """(qi, w) arrays for one term's fanout, qi ascending.  Plans built
    by _query_plan store arrays already; hand-built plans (tests) may
    pass lists of (qi, w) tuples."""
    if isinstance(entry, tuple) and len(entry) == 2:
        return entry
    qi = np.asarray([q for q, _ in entry], dtype=np.int64)
    w = np.asarray([x for _, x in entry], dtype=np.float64)
    order = np.argsort(qi, kind="stable")
    return qi[order], w[order]


_EMPTY_PARTIALS = pa.table(
    {
        "qi": pa.array([], type=pa.int32()),
        "doc_id": pa.array([], type=pa.int64()),
        "score": pa.array([], type=pa.float64()),
    }
)
_EMPTY_I32 = np.empty(0, dtype=np.int32)
_EMPTY_F64 = np.empty(0, dtype=np.float64)
_EMPTY_F32 = np.empty(0, dtype=np.float32)


def _topk_ties(doc: np.ndarray, score: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Tie-safe top-k by (score desc, doc_id asc): threshold-prefilter
    (O(n)) keeps every row that can make the cut — including all rows
    tied at the kth score — then a lexsort of just the survivors."""
    if doc.size > k:
        thr = np.partition(score, doc.size - k)[doc.size - k]
        keep = score >= thr
        doc, score = doc[keep], score[keep]
    sel = np.lexsort((doc, -score))[:k]
    return doc[sel], score[sel]


def _lowest_unmatched(matched: np.ndarray, lo: int, hi: int, k: int) -> np.ndarray:
    """First k doc ids in [lo, hi) absent from sorted-unique ``matched``
    (all assumed within [lo, hi)).  Fully vectorized over the gap runs
    between matched ids (k=1000 × many queries per task is hot)."""
    if k <= 0 or hi <= lo:
        return np.empty(0, dtype=np.int64)
    m = matched.astype(np.int64)
    starts = np.concatenate(([lo], m + 1))
    ends = np.concatenate((m, [hi]))
    sizes = np.maximum(ends - starts, 0)
    csum = np.cumsum(sizes)
    cut = int(np.searchsorted(csum, k))  # first run where cumulative >= k
    starts, sizes = starts[: cut + 1], sizes[: cut + 1].copy()
    if sizes.size == 0 or csum.size == 0:
        return np.empty(0, dtype=np.int64)
    got_before = int(csum[cut - 1]) if cut > 0 else 0
    if cut < csum.size:
        sizes[-1] = min(sizes[-1], k - got_before)
    total = int(sizes.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    run_off = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    return np.repeat(starts - run_off, sizes) + np.arange(total, dtype=np.int64)


def _lowest_unmatched_masked(
    matched: np.ndarray, lo: int, k: int, allow: np.ndarray
) -> np.ndarray:
    """Filtered-search pad: first k ALLOWED doc ids in the range absent
    from sorted-unique ``matched`` (matched ⊆ allowed by construction —
    the scorer masks before top-k).  ``allow`` is the range-local
    boolean slice starting at ``lo``."""
    if k <= 0 or allow.size == 0:
        return np.empty(0, dtype=np.int64)
    al = np.flatnonzero(allow).astype(np.int64)
    if matched.size and al.size:
        m = (matched.astype(np.int64) - lo)
        idx = np.searchsorted(al, m)
        valid = idx < al.size
        idx_v = idx[valid]
        hit = idx_v[al[idx_v] == m[valid]]
        keep = np.ones(al.size, dtype=bool)
        keep[hit] = False
        al = al[keep]
    return al[:k] + lo


class _DecodeCache:
    """Per-task cache of decoded posting lists as (doc, tf_shape - s0)
    arrays, keyed by term.  One decode per term per task regardless of
    how many queries in the batch share the term.  Passed into the
    pruned scorer as its ``full_decode`` hook."""

    def __init__(self, block_size, lo, hi, params, avgdl, s0, norms):
        from ..stages.segments import decode_segment

        self._decode = decode_segment
        self.block_size, self.lo, self.hi = block_size, lo, hi
        self.params, self.avgdl, self.s0 = params, avgdl, s0
        # the group's (norms array, doc_lo): every posting's dl
        # (state/norms.py) — segment rows carry none
        self.norms = norms
        self.data: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        # dense-path caches: doc - lo as int32 (valid: dense slices are
        # capped at DENSE_RANGE_CAP << 2^31 docs wide) and w·base per
        # (term, weight) — queries in a batch overwhelmingly share a
        # term's weight (same idf, qtf almost always 1), so hot terms
        # pay the offset subtraction and the scale multiply once per
        # task instead of once per query
        self._off: dict = {}
        self._scaled: dict = {}
        self._nscaled: dict = {}
        self._gmax: dict = {}

    # fused-decode chunk size in postings: big enough to amortize the
    # per-call numpy overhead over hundreds of terms, small enough that
    # the chunk's work arrays (~16 B/posting live at once) stay in L2/L3
    # — a whole-task fuse was measured PAGE-FAULT-bound (hundreds of MB
    # of fresh allocations per task cost more than the per-term calls
    # it removed)
    PRIME_CHUNK = 1 << 18

    def prime(self, rows: list[dict]) -> None:
        """Bulk-decode many rows into the cache with one fused varint
        pass per stream per ~256k-posting chunk
        (segments.bulk_decode_rows) and one vectorized tf_shape per
        chunk — replaces thousands of per-term decode_segment +
        tf_shape calls per task, whose fixed numpy-call overhead
        dominated pruned-query profiles."""
        from ..stages.segments import bulk_decode_rows

        rows = [r for r in rows if self._key(r) not in self.data]
        if not rows:
            return

        def flush(chunk: list[dict]) -> None:
            pairs = bulk_decode_rows(chunk, self.block_size, self.lo, self.hi)
            tf_all = np.concatenate([t for _, t in pairs])
            dl_all = self.dl_at(np.concatenate([doc for doc, _ in pairs]))
            base_all = (
                tf_shape(self.params, tf_all, dl_all, self.avgdl) - self.s0
                if tf_all.size
                else tf_all.astype(np.float64)
            )
            off = 0
            for row, (doc, tf) in zip(chunk, pairs):
                self.data[self._key(row)] = (doc, base_all[off : off + tf.size])
                off += tf.size

        chunk: list[dict] = []
        acc = 0
        for row in rows:
            chunk.append(row)
            acc += row["df"]
            if acc >= self.PRIME_CHUNK:
                flush(chunk)
                chunk, acc = [], 0
        if chunk:
            flush(chunk)

    def gmax(self, row: dict) -> float:
        """Cached max block upper bound (tf_shape(bmax, bmin) - s0) per
        term part — computed per (query, term) before, ~6 numpy calls
        per query per term of pure recompute."""
        key = self._key(row)
        v = self._gmax.get(key)
        if v is None:
            from ..stages.blockmax import term_block_ubs

            ubs = term_block_ubs(row, self.params, self.avgdl, self.s0)
            v = self._gmax[key] = float(ubs.max()) if ubs.size else 0.0
        return v

    def dl_at(self, doc: np.ndarray) -> np.ndarray:
        """Per-posting dl from the group's norms array."""
        arr, base = self.norms
        return arr[doc - base]

    @staticmethod
    def _key(row: dict) -> tuple[str, int]:
        # a term split across sort partitions yields multiple parts
        # (segment_rows_by_term) — cache each part separately
        return (row["term"], row.get("_part", 0))

    def cached(self, row: dict) -> bool:
        return self._key(row) in self.data

    def __call__(self, row: dict) -> tuple[np.ndarray, np.ndarray]:
        key = self._key(row)
        hit = self.data.get(key)
        if hit is None:
            doc, tf = self._decode(row, self.block_size, self.lo, self.hi)
            base = (
                tf_shape(self.params, tf, self.dl_at(doc), self.avgdl) - self.s0
                if doc.size
                else np.empty(0, dtype=np.float64)
            )
            hit = self.data[key] = (doc, base)
        return hit

    def dense(self, row: dict, w: float) -> tuple[np.ndarray, np.ndarray]:
        """(doc - lo as int32, w·base as float32) for the dense-
        accumulator path, both cached (offsets per term, scaled
        contributions per (term, weight) — at most 4 distinct weights
        cached per term as a memory backstop; further weights multiply
        inline).  float32 halves the scatter-add's DRAM traffic — the
        dense path's dominant bytes; exactness is restored by the f64
        candidate rescore in score_range (scores emitted are
        bit-identical to full-f64 accumulation)."""
        key = self._key(row)
        skey = (key, w)
        hit = self._scaled.get(skey)
        if hit is not None:
            return hit
        doc, base = self(row)
        di = self._off.get(key)
        if di is None:
            di = self._off[key] = (
                (doc - self.lo).astype(np.int32) if doc.size else _EMPTY_I32
            )
        contrib = (w * base).astype(np.float32) if doc.size else _EMPTY_F32
        n = self._nscaled.get(key, 0)
        if n < 4:
            self._scaled[skey] = (di, contrib)
            self._nscaled[key] = n + 1
        return di, contrib


# Block-max MaxScore pruning pays off while the top-k threshold is
# selective; at large k the kth score is low, terms stop being prunable
# and the incremental per-term candidate merge (np.unique per term)
# costs more than it saves — measured at sf8/3.2M-doc groups: pruned
# 4.0 s vs dense-exhaustive ~1.5 s per 125-query task at k=1000, while
# pruned wins 2x at k=10.  Above the cutoff, score DENSELY: one
# reusable float64 accumulator over the slice's doc range, scatter-add
# per term, one flatnonzero sweep per query.
DENSE_K_CUTOFF = 64
# ... but only on wide doc ranges: A/B (alternating fresh processes,
# best-of-5 × 2) shows pruned still wins at 120k docs even at k=1000
# (0.76-0.99 s vs 1.25-1.49 s per 200-query batch), break-even at
# ~1.2M docs (2.5 s both), dense 2.6x ahead at 3.2M-doc slices.  The
# dense path's per-query O(range) mask sweep + accumulator reset is
# pure overhead on small ranges where the candidate merge is cheap.
DENSE_MIN_RANGE = 1_500_000
# Accumulator memory is 9 bytes/doc (f64 + bool); cap the slice width
# it is attempted for (16M docs = 144 MB/task) — wider slices keep the
# sort-based path.
DENSE_RANGE_CAP = 16_000_000
# Postings-per-candidate-decode-equivalent: a per-query candidate-block
# decode costs ~2.3 ms of fixed numpy-call overhead ≈ decoding ~25k
# postings at the measured ~12M postings/s full-decode rate.
SHARED_DECODE_C = 25_000
# Singleton terms up to this df are bulk-primed (see score_range's
# decode policy): near-certain to be fully decoded anyway, and priming
# replaces their per-term decode calls with fused chunk passes.
PRIME_SINGLE_DF = 8000
# Most queries per scatter batch (see _scatter_shape): fixes total work
# independent of cluster width and bounds one q-batch's partials.
QBATCH_TARGET = 512


def score_range(
    plan: dict,
    rows_by_term: dict[str, list[dict]],
    params: BM25Params,
    avgdl: float,
    k: int,
    block_size: int,
    lo: int,
    hi: int,
    q_lo: int,
    q_hi: int,
    prune: bool,
    dense_pad: bool,
    decoded,
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """Score queries [q_lo, q_hi) of ``plan`` against one doc range
    given the range's segment rows; the shared core of the
    ``score_slice`` task and the persistent serving actors.
    ``decoded`` is a _DecodeCache(-compatible) full-decode hook for this
    exact range."""
    from ..stages.blockmax import score_query_pruned

    # filtered search (plan["allowed_shards"]: distinct per-group
    # BitmapShards sets, plan["mask_of"]: each query's set): fetch ONLY
    # this range's group slice, once per distinct set; disallowed docs
    # are dropped from every matched set before top-k, and padding
    # draws from allowed ids only.  Pruning is off under a mask —
    # block-max bounds ignore the filter, so the pruned scorer's early
    # top-k could be crowded by disallowed docs; the dense/sort
    # exhaustive paths stay exact.
    shard_sets = plan.get("allowed_shards")
    slices_of: dict[int, np.ndarray] = {}
    if shard_sets is not None:
        prune = False

    def allowed_in_range(qi: int) -> np.ndarray | None:
        if shard_sets is None:
            return None
        j = int(plan["mask_of"][qi])
        s = slices_of.get(j)
        if s is None:
            s = slices_of[j] = shard_sets[j].mask(lo, hi)
        return s

    out_qi: list[np.ndarray] = []
    out_doc: list[np.ndarray] = []
    out_score: list[np.ndarray] = []

    q_terms: dict[int, list] = {}
    q_weights: dict[int, list[float]] = {}
    prime_rows: list[dict] = []
    for term, fanout in plan["term_fanout"].items():
        parts = rows_by_term.get(term)
        if not parts:
            continue
        # a split term's parts have disjoint doc ranges, so scoring each
        # part as its own row with the term's weight is exact (a doc
        # matches at most one part; contributions add)
        f_qi, f_w = _fanout_arrays(fanout)
        i0, i1 = np.searchsorted(f_qi, (q_lo, q_hi))
        n_use = int(i1 - i0)
        for j in range(i0, i1):
            qi = int(f_qi[j])
            q_terms.setdefault(qi, []).extend(parts)
            q_weights.setdefault(qi, []).extend([float(f_w[j])] * len(parts))
        # decode policy (cost model from BASELINE.md's query-path
        # profiling round): a per-query candidate-block decode costs a
        # fixed ~2.3 ms of numpy call overhead ≈ SHARED_DECODE_C
        # postings of bulk decode, so a SHARED term whose full postings
        # cost less than its batch uses' worth of candidate decodes is
        # bulk-decoded upfront.
        # Small SINGLETON terms (df ≤ PRIME_SINGLE_DF) are primed too:
        # low df → high idf → they lead their query's term order and
        # get fully decoded anyway, just through thousands of per-term
        # calls.  Big rarely-used terms keep the block-skip machinery.
        df_total = sum(p["df"] for p in parts)
        if (n_use >= 2 and df_total <= n_use * SHARED_DECODE_C) or (
            df_total <= PRIME_SINGLE_DF
        ):
            prime_rows.extend(parts)
    if prime_rows and hasattr(decoded, "prime"):
        decoded.prime(prime_rows)

    def emit(qi: int, doc: np.ndarray, score: np.ndarray) -> None:
        if doc.size:
            out_qi.append(np.full(doc.size, qi, dtype=np.int32))
            out_doc.append(doc)
            out_score.append(score)

    # lazily-allocated dense accumulator shared by every dense-scored
    # query in this call (zeroed in place after each query)
    dense_ok = 0 < (hi - lo) <= DENSE_RANGE_CAP
    acc = mask = None

    for qi in range(q_lo, q_hi):
        rows = q_terms.get(qi)
        ws = q_weights.get(qi, [])
        qc = float(plan["qconst"][qi])
        allow_slice = allowed_in_range(qi)
        all_pos = all(w > 0 for w in ws)
        # strict positivity: a w == 0 term (atire idf at df == N) can
        # leave matched docs tied AT qconst, where unmatched lower ids
        # win — those queries go exhaustive too
        if rows and prune and all_pos and not (
            dense_ok and k >= DENSE_K_CUTOFF and (hi - lo) >= DENSE_MIN_RANGE
        ):
            doc, score = score_query_pruned(
                rows, ws, params, avgdl, k, block_size, qc, full_decode=decoded,
            )
            if doc.size >= k:
                # k matched at strictly > qconst: padding can never be
                # needed for this query globally
                emit(qi, doc, score)
                continue
            # <k ⇒ never pruned ⇒ full matched set; the pruned scorer
            # returns (score desc, doc asc) order — re-sort by doc id,
            # which _lowest_unmatched's gap walk requires
            order = np.argsort(doc)
            matched, m_score = doc[order], score[order]
        elif rows and dense_ok:
            # dense exhaustive scoring: scatter-add each term's
            # contributions into the range accumulator (doc ids are
            # unique within a term, so fancy-index += is exact), then
            # one boolean sweep recovers the sorted matched set.
            # The accumulator is FLOAT32 (half the scatter's DRAM
            # traffic, the path's dominant bytes); the final scores are
            # made exact by re-scoring the top candidates in f64 with
            # the same term order, so emitted scores are bit-identical
            # to full-f64 accumulation.  Margin: f32 accumulation error
            # is bounded by ~n_terms·|score|·2^-24 ≈ 1e-5 here; the
            # 1e-3 candidate margin is ~100x that bound.
            if acc is None:
                acc = np.zeros(hi - lo, dtype=np.float32)
                mask = np.zeros(hi - lo, dtype=bool)
            for row, w in zip(rows, ws):
                di, contrib = decoded.dense(row, w)
                if di.size:
                    acc[di] += contrib
                    mask[di] = True
            mi = np.flatnonzero(mask)
            approx = acc[mi]
            acc[mi] = 0.0
            mask[mi] = False
            if allow_slice is not None and mi.size:
                sel = allow_slice[mi]
                mi, approx = mi[sel], approx[sel]
            matched = mi + lo
            if matched.size > k:
                kth = np.partition(approx, matched.size - k)[matched.size - k]
                csel = np.flatnonzero(approx >= kth - 1e-3)
                cdoc = matched[csel]
            else:
                cdoc = matched
            # exact f64 rescore of the candidates, same term order as
            # the accumulate → bit-identical to a float64 accumulator
            ex = np.zeros(cdoc.size, dtype=np.float64)
            for row, w in zip(rows, ws):
                doc, base = decoded(row)
                if doc.size == 0 or cdoc.size == 0:
                    continue
                idx = np.searchsorted(doc, cdoc)
                idx_c = np.minimum(idx, doc.size - 1)
                hit = doc[idx_c] == cdoc
                ex[hit] += w * base[idx_c[hit]]
            m_score = ex + qc
            if all_pos and matched.size >= k:
                # every matched score strictly beats qconst (w > 0 and
                # tf_shape strictly increasing in tf) — no padding can
                # enter the top-k, same early-out as the pruned path
                emit(qi, *_topk_ties(cdoc, m_score, k))
                continue
            # fall-through (padding merge): top-k selection happens
            # over the exact-rescored candidates; the unmatched-gap
            # walk still needs the FULL matched id set
            t_doc, t_score = _topk_ties(cdoc, m_score, k)
            if dense_pad:
                pad = (
                    _lowest_unmatched_masked(matched, lo, k, allow_slice)
                    if allow_slice is not None
                    else _lowest_unmatched(matched, lo, hi, k)
                )
                if pad.size:
                    t_doc, t_score = _topk_ties(
                        np.concatenate([t_doc, pad]),
                        np.concatenate(
                            [t_score, np.full(pad.size, qc, dtype=np.float64)]
                        ),
                        k,
                    )
            emit(qi, t_doc, t_score)
            continue
        elif rows:
            # sort-based exhaustive accumulation (slice too wide for a
            # dense accumulator): full matched set
            parts_d, parts_v = [], []
            for row, w in zip(rows, ws):
                d, base = decoded(row)
                if d.size:
                    parts_d.append(d)
                    parts_v.append(w * base)
            if parts_d:
                alld = np.concatenate(parts_d)
                uniq, inv = np.unique(alld, return_inverse=True)
                sums = np.bincount(inv, weights=np.concatenate(parts_v)) + qc
                matched, m_score = uniq, sums
                if allow_slice is not None and matched.size:
                    sel = allow_slice[matched - lo]
                    matched, m_score = matched[sel], m_score[sel]
            else:
                matched = np.empty(0, dtype=np.int64)
                m_score = np.empty(0, dtype=np.float64)
        else:
            if not dense_pad:
                continue
            matched = np.empty(0, dtype=np.int64)
            m_score = np.empty(0, dtype=np.float64)
        t_doc, t_score = _topk_ties(matched, m_score, k)
        if dense_pad:
            pad = (
                _lowest_unmatched_masked(matched, lo, k, allow_slice)
                if allow_slice is not None
                else _lowest_unmatched(matched, lo, hi, k)
            )
            if pad.size:
                t_doc, t_score = _topk_ties(
                    np.concatenate([t_doc, pad]),
                    np.concatenate(
                        [t_score, np.full(pad.size, qc, dtype=np.float64)]
                    ),
                    k,
                )
        emit(qi, t_doc, t_score)
    return out_qi, out_doc, out_score


def query_plan_terms(plan: dict, q_lo: int, q_hi: int) -> list[str]:
    """Sorted in-vocab terms any query in [q_lo, q_hi) needs."""
    out = []
    for t, fl in plan["term_fanout"].items():
        f_qi, _ = _fanout_arrays(fl)
        i0, i1 = np.searchsorted(f_qi, (q_lo, q_hi))
        if i1 > i0:
            out.append(t)
    return sorted(out)


# worker-process cache of group norms mmaps (file open + header parse
# per task otherwise; the mmap itself is page-cache shared node-wide).
# Keyed on the .npy file's identity: scoring workers outlive index
# rewrites, and append/compaction publish a group dir with a new file
# (new inode) whenever they change a group's docs.
_NORMS_CACHE: dict[tuple, np.ndarray] = {}


def _group_norms(group_dir: str, doc_lo: int) -> tuple[np.ndarray, int]:
    """(norms mmap, doc_lo) for one group directory."""
    from ..state.norms import NORMS_FILE, load_group_norms

    st = os.stat(os.path.join(group_dir, NORMS_FILE))
    key = (group_dir, st.st_ino, st.st_mtime_ns, st.st_size)
    arr = _NORMS_CACHE.get(key)
    if arr is None:
        if len(_NORMS_CACHE) > 64:
            _NORMS_CACHE.clear()
        arr = _NORMS_CACHE[key] = load_group_norms(group_dir)
    return arr, doc_lo


def _partials_table(
    qis: list[np.ndarray], docs: list[np.ndarray], scores: list[np.ndarray]
) -> pa.Table:
    """score_range output → one (qi, doc_id, score) partial table."""
    if not qis:
        return _EMPTY_PARTIALS
    return pa.table(
        {
            "qi": pa.array(np.concatenate(qis), type=pa.int32()),
            "doc_id": pa.array(np.concatenate(docs), type=pa.int64()),
            "score": pa.array(np.concatenate(scores), type=pa.float64()),
        }
    )


def _concat_partials(tables: list[pa.Table]) -> pa.Table:
    return pa.concat_tables(tables) if tables else _EMPTY_PARTIALS


def _slice_partials(
    plan: dict,
    item: tuple[str, int, int, int, int, int],
    params: BM25Params,
    avgdl: float,
    k: int,
    block_size: int,
    prune: bool,
    dense_pad: bool,
) -> pa.Table:
    """Score queries [q_lo, q_hi) against one (group, doc-range) slice:
    the body of the ``score_slice`` task, which ``search()`` also runs
    in the calling process for a call it cannot split.  ``item`` is one
    scatter entry ``(group_dir, doc_lo, lo, hi, q_lo, q_hi)``.

    A build group can be far wider than one task should chew, so the
    scatter unit is a doc-id slice of a group: every task reads the
    group's query-term segment rows (``read_term_rows``), decodes,
    restricts each posting list to [lo, hi) by binary search, and
    accumulates exact scores for its docs.  Doc-sliced tasks keep the
    partial-top-k exact (a doc's whole score is computed where it
    lives), and parallelism is n_groups × n_slices regardless of how
    many groups the build produced.

    ``dense_pad`` (set when the groups' spans are disjoint and exact,
    so every id in this slice's [lo, hi) is a doc): unmatched docs score
    exactly qconst in the dense-vector reference semantics, so the
    slice merges its k lowest unmatched ids at qconst into its local
    top-k.  Skipped when k matched docs exist with strictly-positive
    weights (they strictly beat qconst, so no slice anywhere pads).
    Queries with a negative-idf term (robertson, df > N/2) are scored
    exhaustively within the slice — full matched set known — so the
    padding merge stays exact (pruning could otherwise drop a matched
    doc that the pad would then mislabel as unmatched-at-qconst).
    """
    group_dir, doc_lo, lo, hi, q_lo, q_hi = item
    terms_here = query_plan_terms(plan, q_lo, q_hi)
    rows_by_term: dict[str, list[dict]] = {}
    if terms_here:
        # read fresh per task, but only the row groups whose footer tid
        # range holds a query term (read_term_rows): a scan of the whole
        # group decoded every row group to keep a few rows, most of a
        # single query's task time.  Rows are not cached across tasks: a
        # per-worker (group, term)→rows LRU measured no win over the
        # full scan (BASELINE.md round 3) and added heap pressure.
        from ..stages.segments import read_term_rows, segment_rows_by_term

        rows_by_term = segment_rows_by_term(read_term_rows(group_dir, terms_here))
    if not rows_by_term and not dense_pad:
        return _EMPTY_PARTIALS
    # decoded (doc, tf_shape - s0) per term, shared across every query
    # in this task — hot terms decode once, not per query
    decoded = _DecodeCache(block_size, lo, hi, params, avgdl,
                           nonoccurrence_shape(params),
                           _group_norms(group_dir, doc_lo))
    return _partials_table(*score_range(
        plan, rows_by_term, params, avgdl, k, block_size,
        lo, hi, q_lo, q_hi, prune, dense_pad, decoded,
    ))


@ray.remote
def score_slice(
    plan: dict,
    item: tuple[str, int, int, int, int, int],
    params: BM25Params,
    avgdl: float,
    k: int,
    block_size: int,
    prune: bool,
    dense_pad: bool,
) -> pa.Table:
    """``_slice_partials`` as a Ray task.  ``plan`` is passed as the
    ``ray.put`` ref of search()'s plan, so Ray resolves it on the worker
    (one object store copy per node, not one per task)."""
    return _slice_partials(plan, item, params, avgdl, k, block_size, prune, dense_pad)


# The one thread that runs in-process slice bodies.  Run on each
# caller's own thread, they grow malloc arenas (glibc's and Arrow's
# jemalloc) per short-lived thread: 400 one-query calls, each from a
# fresh thread, on a 16k-turn index (1 CPU) peaked at +23 MB driver RSS
# over the task path, and at +2.5 MB on this one thread.  It starts on
# first use.
_LOCAL_SCORER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="bm25-local")


def _collect_arrow(jobs: list) -> pa.Table:
    """One q-batch's partial tables on the driver: the ``ray.get`` of
    its ``score_slice`` tasks or, for a call ``search()`` scores in the
    calling process, its one slice body, run on ``_LOCAL_SCORER``."""
    if jobs and callable(jobs[0]):
        return _concat_partials([_LOCAL_SCORER.submit(job).result() for job in jobs])
    return _concat_partials(ray.get(jobs))


def _merge_partials_local(
    tbl: pa.Table, plan: dict, k: int, num_docs: int, legacy_pad: bool
) -> pa.Table:
    """Vectorized driver-side merge: per-group partials hold disjoint
    docs, so the merge is a lexsort + per-qid head(k) + padding."""
    qi = tbl.column("qi").to_numpy()
    doc = tbl.column("doc_id").to_numpy()
    score = tbl.column("score").to_numpy()
    if qi.size == 0:
        return pa.table(
            {
                "qid": pa.array([], type=pa.string()),
                "doc_id": pa.array([], type=pa.int64()),
                "rank": pa.array([], type=pa.int32()),
                "score": pa.array([], type=pa.float64()),
            },
            schema=RESULT_SCHEMA,
        )
    # Arrow's multi-threaded sort — identical order to
    # np.lexsort((doc, -score, qi)) but ~6x faster on 6M-row merges
    order = pc.sort_indices(
        tbl,
        sort_keys=[
            ("qi", "ascending"), ("score", "descending"), ("doc_id", "ascending"),
        ],
    ).to_numpy()
    qi, doc, score = qi[order], doc[order], score[order]
    starts = np.flatnonzero(np.concatenate(([True], qi[1:] != qi[:-1])))
    ends = np.concatenate((starts[1:], [qi.size]))
    if not legacy_pad:
        # fully vectorized head-k per query: position within each qi
        # run < k (the per-query python loop was ~4s at Q=2000, k=1000)
        counts = ends - starts
        pos = np.arange(qi.size, dtype=np.int64) - np.repeat(starts, counts)
        keep = pos < k
        qid_col = pc.take(
            pa.array(plan["qids"], type=pa.string()),
            pa.array(qi[keep].astype(np.int64)),
        )
        return pa.table(
            {
                "qid": qid_col,
                "doc_id": pa.array(doc[keep], type=pa.int64()),
                "rank": pa.array((pos[keep] + 1).astype(np.int32)),
                "score": pa.array(score[keep], type=pa.float64()),
            },
            schema=RESULT_SCHEMA,
        )
    qids_out: list[str] = []
    docs_out: list[np.ndarray] = []
    ranks_out: list[np.ndarray] = []
    scores_out: list[np.ndarray] = []
    for s, e in zip(starts, ends):
        q = int(qi[s])
        d, sc = doc[s:e][:k], score[s:e][:k]
        if d.size < k and legacy_pad and num_docs > d.size:
            have = set(d.tolist())
            pad = [x for x in range(min(num_docs, k + len(have))) if x not in have]
            pad = pad[: k - d.size]
            d = np.concatenate([d, np.array(pad, dtype=np.int64)])
            sc = np.concatenate(
                [sc, np.full(len(pad), plan["qconst"][q], dtype=np.float64)]
            )
        qids_out.extend([plan["qids"][q]] * d.size)
        docs_out.append(d)
        ranks_out.append(np.arange(1, d.size + 1, dtype=np.int32))
        scores_out.append(sc)
    if not docs_out:
        return pa.table(
            {
                "qid": pa.array([], type=pa.string()),
                "doc_id": pa.array([], type=pa.int64()),
                "rank": pa.array([], type=pa.int32()),
                "score": pa.array([], type=pa.float64()),
            },
            schema=RESULT_SCHEMA,
        )
    return pa.table(
        {
            "qid": pa.array(qids_out, type=pa.string()),
            "doc_id": pa.array(np.concatenate(docs_out), type=pa.int64()),
            "rank": pa.array(np.concatenate(ranks_out), type=pa.int32()),
            "score": pa.array(np.concatenate(scores_out), type=pa.float64()),
        },
        schema=RESULT_SCHEMA,
    )


def _empty_query_results(plan: dict, k: int, num_docs: int, legacy_pad: bool) -> pa.Table:
    """Final rows for queries with zero scored candidates anywhere (all
    tokens unseen/stopworded): dense-id padding at score 0."""
    qids, docs, ranks, scores = [], [], [], []
    if legacy_pad:
        pad = list(range(min(k, num_docs)))
        # one pass over the fanout, not one per query (O(Q×fanout) scan)
        matched_qi = set()
        for fl in plan["term_fanout"].values():
            matched_qi.update(np.unique(_fanout_arrays(fl)[0]).tolist())
        for qi, qid in enumerate(plan["qids"]):
            if qi in matched_qi:
                continue
            qids += [qid] * len(pad)
            docs += pad
            ranks += list(range(1, len(pad) + 1))
            scores += [float(plan["qconst"][qi])] * len(pad)
    return pa.table(
        {
            "qid": pa.array(qids, type=pa.string()),
            "doc_id": pa.array(docs, type=pa.int64()),
            "rank": pa.array(ranks, type=pa.int32()),
            "score": pa.array(scores, type=pa.float64()),
        },
        schema=RESULT_SCHEMA,
    )


def _ids_fill_doc_space(man: Manifest) -> bool:
    """True when the index's doc ids are provably exactly [0, num_docs):
    a transcripts index (ids are ranks under ORDER BY conv_id,
    turn_idx), or every group's span inside [0, num_docs) (num_docs
    distinct ids there are all of them)."""
    n = int(man.stats["num_docs"])
    return man.stage_done("offsets") or all(
        0 <= e["doc_lo"] and e["doc_hi"] <= n for e in man.groups.values()
    )


# Open handles reused across calls (``Index.open``), keyed on (real
# path, groups, Ray session): a handle's live shards are Ray objects,
# which die with the session that put them.  Cleared when full, like
# the segment footer cache.
_HANDLES: dict[tuple, "Index"] = {}
_HANDLES_MAX = 16
_HANDLES_LOCK = threading.Lock()
# most absent terms one handle remembers (query typos never end)
_ABSENT_MAX = 1 << 16


def _handle_key(index_dir: str, groups: list[int] | None) -> tuple | None:
    """The ``_HANDLES`` key of an open; None without a Ray session."""
    if not ray.is_initialized():
        return None
    ctx = ray.get_runtime_context()
    return (
        os.path.realpath(index_dir),
        None if groups is None else tuple(sorted(groups)),
        ctx.get_node_id(),
        ctx.get_job_id(),
    )


class Index:
    """One open index: one manifest read, and all the query side derives
    from it — config, collection stats, the groups in scope, their
    doc-id spans, the padding those allow (module docstring) and the
    analyzer, plus (read on first use) the tombstones, the join-back
    offsets and a term→df cache.  ``search()``, ``BM25Server``, the
    boolean, phrase and snippet entry points all read the index through
    a handle from ``Index.open``, which reuses one handle per published
    version of the index, so those reads happen once per version, not
    per call.  The config is the manifest's: a ``cfg`` that differs
    from it in a ``IndexConfig.semantic`` field raises ``ValueError``
    naming the fields, so no reader tokenizes its queries with another
    analyzer than the index's."""

    def __init__(
        self,
        index_dir: str,
        man: Manifest,
        cfg: IndexConfig | None = None,
        groups: list[int] | None = None,
    ):
        self.index_dir, self.man = index_dir, man
        # the index's own analyzer: a reader's cfg may only restate it
        self.cfg = IndexConfig.from_dict(man.config)
        self._check_cfg(cfg)
        self.num_docs = int(man.stats["num_docs"])
        # exclusive bound on the doc ids: num_docs unless a group's span
        # reaches past it (a documents index with holes or offset ids)
        self.id_bound = max(
            [self.num_docs] + [int(e["doc_hi"]) for e in man.groups.values()]
        )
        self.avgdl = float(man.stats["avgdl"])
        self.avg_idf = man.stats.get("avg_robertson_idf")
        self.gids = man.done_groups()
        if groups is not None:
            missing = set(groups) - set(self.gids)
            if missing:
                raise ValueError(f"groups not in index: {sorted(missing)}")
            self.gids = sorted(groups)
        # each group's [doc_lo, doc_hi) (recorded by its norms pass)
        # confines its scoring slices; disjoint spans also cut the mask
        # shards, and exact ones (no hole) make the scatter exact for
        # padding
        entries = {g: man.groups[str(g)] for g in self.gids}
        self.spans = {
            g: (int(e["doc_lo"]), int(e["doc_hi"])) for g, e in entries.items()
        }
        ordered = sorted(self.spans.values())
        self.disjoint = all(a[1] <= b[0] for a, b in zip(ordered, ordered[1:]))
        exact = all(e["n_docs"] == e["doc_hi"] - e["doc_lo"] for e in entries.values())
        # a group subset is a partial doc space: absent docs are out of
        # scope, never padded
        whole = groups is None
        # slices pad with their own unmatched docs (exact for any scoring)
        self.dense_pad = whole and self.disjoint and exact
        # overlapping (interleaved) spans: the merge appends padding from
        # [0, num_docs) instead — only where those are provably the
        # index's ids (exact only for non-negative-idf scoring)
        self.legacy_pad = whole and not self.disjoint and _ids_fill_doc_space(man)
        # the build's tokenizer: every entry point reads text through it
        self.tokenizer = TokenizePostings(self.cfg)
        # df of the in-vocab terms looked up so far, and the terms known
        # absent (bounded: unlike the vocab, misspellings never end)
        self._df: dict[str, int] = {}
        self._absent: set[str] = set()

    def _check_cfg(self, cfg: IndexConfig | None) -> None:
        if cfg is not None and (fields := self.cfg.semantic_diff(cfg)):
            raise ValueError(
                f"config differs from the index's own in {fields}; open the "
                "index with its own config (cfg=None)")

    @classmethod
    def open(
        cls,
        index_dir: str,
        cfg: IndexConfig | None = None,
        groups: list[int] | None = None,
    ) -> "Index":
        """The index at ``index_dir`` as published now.  Within one Ray
        session the handle is reused across calls while the manifest's
        publish token (``state.manifest.publish_token``, one small read
        per call) is unchanged; build, append, compaction and
        ``delete_docs`` each publish a fresh one.  An index whose
        manifest records no token is opened per call."""
        from ..state.norms import has_norms

        key = _handle_key(index_dir, groups)
        token = publish_token(index_dir) if key else ""
        with _HANDLES_LOCK:
            ix = _HANDLES.get(key) if token else None
        if ix is not None and ix.man.token == token:
            ix._check_cfg(cfg)
            return ix
        man = Manifest.load(index_dir)
        if man is None or not man.is_complete():
            raise ValueError(f"no complete index at {index_dir}")
        if not has_norms(index_dir, man):
            raise ValueError(f"index at {index_dir} lacks group norms: rebuild it")
        ix = cls(index_dir, man, cfg, groups)
        if key and man.token:
            with _HANDLES_LOCK:
                if len(_HANDLES) >= _HANDLES_MAX:
                    _HANDLES.clear()
                _HANDLES[key] = ix
        return ix

    def analyze(self, text: str) -> list[str]:
        """A text's ordered kept terms, as the index build reads it."""
        return self.tokenizer.terms(text)

    def group_dir(self, g: int) -> str:
        return os.path.join(self.index_dir, SEGMENTS_DIR, f"group={g}")

    def slice_bounds(self, g: int, n: int) -> np.ndarray:
        """n + 1 doc-id bounds cutting group ``g``'s span into n scoring
        slices."""
        return np.linspace(*self.spans[g], n + 1).astype(np.int64)

    def df_of(self, terms: list[str]) -> dict[str, int]:
        """In-vocab terms → df; one read of the vocab row groups that
        hold the terms this handle has not looked up yet.  Safe to call
        from several threads: the caches only grow, but for the absent
        set, which is replaced whole when full."""
        from ..stages.segments import read_term_rows

        lookup = [t for t in terms if t not in self._df and t not in self._absent]
        if lookup:
            v = read_term_rows(os.path.join(self.index_dir, VOCAB_DIR), lookup,
                               key="term", columns=["term", "df"])
            fresh = dict(zip(v.column("term").to_pylist(), v.column("df").to_pylist()))
            self._df.update(fresh)
            if len(self._absent) >= _ABSENT_MAX:
                self._absent = set()
            self._absent.update(t for t in lookup if t not in fresh)
        return {t: d for t in terms if (d := self._df.get(t)) is not None}

    @cached_property
    def deleted(self) -> np.ndarray | None:
        """Sorted tombstoned doc ids; None when nothing is deleted."""
        from .tombstones import load_tombstones

        ids = load_tombstones(self.index_dir)
        return None if ids is None or ids.size == 0 else ids

    @cached_property
    def live_shards(self) -> BitmapShards:
        """Per-group shards of the live docs (tombstones cleared)."""
        from .docfilter import compose_shards

        return compose_shards(
            sorted(self.spans.values()), self.id_bound, deleted_ids=self.deleted
        )

    @cached_property
    def offsets(self) -> pd.DataFrame | None:
        """The doc_id → (conv_id, turn_idx) join-back table (transcripts)."""
        return load_offsets(self.index_dir)


def _join_back(tbl: pa.Table, offsets: pd.DataFrame) -> pa.Table:
    dm = docmap_from_offsets(offsets, tbl.column("doc_id").to_numpy())
    return tbl.append_column(
        "conv_id", pa.array(dm["conv_id"], type=pa.string())
    ).append_column("turn_idx", pa.array(dm["turn_idx"], type=pa.int32()))


def finish_results(
    merged: pa.Table, plan: dict, k: int, index: Index,
    offsets: pd.DataFrame | None,
) -> pa.Table:
    """Merged top-k → final results: rows for queries no task scored,
    then the (conv_id, turn_idx) join-back when ``offsets`` is given."""
    extra = _empty_query_results(plan, k, index.num_docs, index.legacy_pad)
    if extra.num_rows:
        merged = pa.concat_tables([merged, extra])
    return merged if offsets is None else _join_back(merged, offsets)


def compose_masks(index: Index, allowed: list) -> tuple[list, np.ndarray] | None:
    """The plan's mask fields, shared by ``search()`` and ``BM25Server``:
    each distinct per-query mask (packed bitmap, ``BitmapShards`` or
    None; distinct by identity) ANDed with the index's tombstones and
    published once as per-group ``BitmapShards`` (``compose_shards``;
    an unmasked query gets the handle's live shards), plus each query's
    index into that list.  None when no query is masked and nothing is
    deleted."""
    from .docfilter import compose_shards

    deleted = index.deleted
    if deleted is None and all(a is None for a in allowed):
        return None
    if not index.disjoint:
        raise ValueError(
            "filtered search requires disjoint per-group doc spans"
        )
    ranges = sorted(index.spans.values())
    sets: list[BitmapShards] = []
    set_of: dict[int, int] = {}
    mask_of = np.empty(len(allowed), dtype=np.int32)
    for qi, a in enumerate(allowed):
        if id(a) not in set_of:
            set_of[id(a)] = len(sets)
            sets.append(index.live_shards if a is None else compose_shards(
                ranges, index.id_bound, user=a, deleted_ids=deleted))
        mask_of[qi] = set_of[id(a)]
    return sets, mask_of


def _batch_floor(k: int) -> int:
    """Fewest queries a q-batch is cut to at top-``k`` (``_scatter_shape``)."""
    return 8 if k >= DENSE_K_CUTOFF else 16


def _scatter_shape(
    n_q: int, k: int, n_groups: int, docs_per_group: int, cpus: int
) -> tuple[int, int]:
    """(query batches, doc slices per group) for a ``search()`` call of
    ``n_q`` queries at top-``k`` over ``n_groups`` groups on ``cpus``
    CPUs; one task per (group, slice, q-batch).

    With several CPUs: about 3 waves of tasks per CPU.  Q-batches are
    skewed (a batch whose queries hit hot terms decodes far more
    postings), and three waves pack around the stragglers.  Measured on
    pinned cores, sf8, 8000 queries: 16 CPUs k=10 — 24 tasks/1.5 waves
    389 qps, 48/3 waves 500, 96/6 waves 434 (per-task term-read
    duplication takes over below ~300 queries/batch); k=1000 — 65 / 119
    / 96 qps same order; 4 CPUs k=10 — 2 waves 142, 3 waves 155, 6
    waves 130.  With one CPU there is one slot and no straggler to pack
    around: tasks run one after another, and every extra task only
    repeats its term read, the decode of terms its queries share, and a
    dispatch — so one task per group (per full q-batch)."""
    n_groups = max(1, n_groups)
    per_group = 1 if cpus <= 1 else -(-3 * cpus // n_groups)
    # Parallelism comes from groups × query-batches × doc-slices, filled
    # in that order: query batching is free (no duplicated decode, no
    # per-slice python overhead), doc-slicing is the fallback for small
    # query sets so single-query latency still fans out.
    #
    # Q-batches are sized by the DATA (≤ QBATCH_TARGET queries each),
    # never by cluster width alone: each batch re-reads and re-decodes
    # its hot terms, so width-coupled batch counts would make total work
    # grow with the cluster; width only shrinks batches when the job
    # would otherwise idle cores (small query sets).  Below that floor
    # keep ≥ 16 queries per batch on the pruned path (per-query python
    # overhead in the pruned scorer dominates below it) and ≥ 8 on the
    # dense path, whose measured optimum is all q-batches, no slicing
    # (sf8/32cpu k=1000: qb16×sl1 68 qps vs auto-12×2 61 vs 1×16 12).
    n_qbatch = max(-(-n_q // QBATCH_TARGET),
                   min(per_group, max(1, n_q // _batch_floor(k))))
    # per-task read volume is the q-batch's term blobs, paid once per
    # doc slice; a slice under ~64k docs is pure task overhead
    n_slices = max(1, -(-per_group // n_qbatch))
    return n_qbatch, min(n_slices, max(1, docs_per_group // 65536))


def search(
    index: str | Index,
    queries: list[tuple[str, str]],
    params: BM25Params | None = None,
    k: int = 10,
    cfg: IndexConfig | None = None,
    join_back: bool = True,
    mode: str = "pruned",   # "pruned" (block-max MaxScore, default) | "exhaustive"
    groups: list[int] | None = None,
    n_qbatch: int | None = None,
    n_slices: int | None = None,
    allowed: np.ndarray | BitmapShards | list | None = None,
) -> pa.Table:
    """Retrieve top-k (qid, doc_id, rank, score) for every query.

    ``index`` is an index directory (opened here, with ``cfg`` and
    ``groups``) or an already open ``Index``.

    One ``score_slice`` Ray task per (group, doc slice, query batch)
    scores against the ``ray.put`` plan; the driver gathers and merges
    the partial top-k tables one query batch at a time, then adds the
    rows for unscored queries and the join-back (``finish_results``).
    A call of one task and fewer queries than a q-batch's floor
    (``_batch_floor``) runs that task's body in the calling process
    instead: no task could split it, so a task would add only its
    round trip.  A path is opened through ``Index.open``, which reuses
    one handle per published version of the index.
    The result is that one Arrow table (``RESULT_SCHEMA``, plus
    ``conv_id``/``turn_idx`` when joined back), zero-row ones included.
    ``_scatter_shape`` sizes the scatter from Ray's CPU count unless
    ``n_qbatch`` / ``n_slices`` fix it.

    ``groups`` restricts the search to a subset of index groups — the
    partial-index load path (the reference's mmap/query-only scripts
    load just what a query needs, /root/reference/benchmark/inference/
    retrieve_mmap.py:16; here the analogue is streaming only the chosen
    groups' segment shards).  Scores over the restricted doc set are
    exact; dense-id padding is disabled since absent docs are not
    zero-scored, they are out of scope.

    ``allowed`` — filtered retrieval: a packed uint8 bitmap over
    [0, ``Index.id_bound``) OR a pre-published ``docfilter.BitmapShards``
    restricting results to the set bits, or a list aligned with
    ``queries`` holding one such mask per query (a Q-query boolean
    batch is one call).  Collection stats (N, df, avgdl) stay
    full-corpus (the Lucene/ES filtered-query semantics); ranking,
    ties and qconst padding are all confined to allowed docs.  Each
    distinct mask is ANDed with the index's tombstones and published
    as per-group shards (``compose_masks``) — one object per group,
    fetched slice-wise by each scoring task, so no corpus-wide array
    ever ships.  The shards are cut by the groups' spans, so masked
    search needs them disjoint (holes are fine) and raises
    ``ValueError`` on overlapping spans (interleaved groups).
    Forces the exhaustive scorer (pruning bounds ignore the mask)."""
    for name, n in (("n_qbatch", n_qbatch), ("n_slices", n_slices)):
        if n is not None and n < 1:
            raise ValueError(f"{name} must be >= 1, got {n}")
    params = params or BM25Params()
    if not isinstance(index, Index):
        index = Index.open(index, cfg, groups)
    elif cfg is not None or groups is not None:
        raise ValueError("pass cfg and groups to Index.open, not search()")
    num_docs, gids = index.num_docs, index.gids

    per_query = allowed if isinstance(allowed, list) else [allowed] * len(queries)
    if len(per_query) != len(queries):
        raise ValueError(
            f"allowed holds {len(per_query)} masks for {len(queries)} queries"
        )
    masks = compose_masks(index, per_query)
    if masks is not None:
        mode = "exhaustive"

    plan = _query_plan(tokenize_queries(queries, index.cfg), index, params)
    if masks is not None:
        plan["allowed_shards"], plan["mask_of"] = masks

    n_q = len(plan["qids"])
    auto_qb, auto_sl = _scatter_shape(
        n_q, k, len(gids), num_docs // max(1, len(gids)),
        int(ray.cluster_resources().get("CPU", 1)),
    )
    n_qbatch, n_slices = n_qbatch or auto_qb, n_slices or auto_sl
    q_bounds = np.linspace(0, n_q, n_qbatch + 1).astype(np.int64)
    slices = []
    for g in gids:
        bounds = index.slice_bounds(g, n_slices)
        slices += [
            (index.group_dir(g), index.spans[g][0], int(bounds[s]), int(bounds[s + 1]))
            for s in range(n_slices)
        ]
    args = (params, index.avgdl, k, index.cfg.block_size,
            mode == "pruned", index.dense_pad)
    if n_qbatch * len(slices) == 1 and n_q < _batch_floor(k):
        # one task, which no scatter would split: score it right here
        jobs = [[functools.partial(_slice_partials, plan, (*slices[0], 0, n_q), *args)]]
    else:
        # one task list per q-batch, submitted in the order the merge
        # below consumes them
        plan_ref = ray.put(plan)
        jobs = [
            [
                score_slice.remote(
                    plan_ref, (*sl, int(q_bounds[qb]), int(q_bounds[qb + 1])), *args
                )
                for sl in slices
            ]
            for qb in range(n_qbatch)
        ]
    # read while the tasks run
    offsets = index.offsets if join_back else None

    # A query's partials come only from its own q-batch's tasks, so the
    # driver merges one q-batch at a time: merge memory is one q-batch's
    # Q_b × k × (groups × slices) partial rows, and the q-batch results
    # concatenate in (qi, score desc, doc_id) order.  dense_pad: slices
    # already merged padding by score — the merge is a plain
    # tie-normalized top-k.
    merged = pa.concat_tables([
        _merge_partials_local(
            _collect_arrow(qb_jobs), plan, k, num_docs, index.legacy_pad
        )
        for qb_jobs in jobs
    ])
    return finish_results(merged, plan, k, index, offsets)
