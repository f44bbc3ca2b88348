"""Top-k BM25 retrieval over the segment index.

Doc-partitioned scatter/gather (the scalable design the reference's
single-process ``model.retrieve`` cannot express,
/root/reference/benchmark/on_bm25s.py:163-211):

1. Queries are tokenized driver-side (they are tiny; reference does the
   same with a frozen vocab, on_bm25s.py:89-112) and their global df
   comes from the vocab table via a term-pruned parquet read.
2. One broadcast object (``ray.put``) carries every query's term/idf
   structure to all scoring tasks — read zero-copy per task, never
   re-shipped per batch.
3. One plain Ray task (``score_slice``) per (group, doc slice, query
   batch) scores its queries against a disjoint doc range: segment
   rows are read with a ``term isin(query_terms)`` parquet filter
   (row-group pruning; only query-term postings are ever decoded),
   contributions are accumulated vectorized (np.bincount over unique
   candidate docs), and the task returns its local top-k per query —
   k rows, not a score vector.  No Ray Data job is started per call;
   the tasks run on Ray's reused worker processes.
4. The driver gathers the partials (Q × k × n_tasks tiny rows) with one
   ``ray.get`` and merges them into the final ranking with (score desc,
   doc_id asc) tie normalization (the reference's argpartition tie
   order is unspecified, on_rank_bm25.py:32).  Only query batches whose
   partials exceed ``DRIVER_MERGE_ROWS`` merge through a distributed
   Ray Data ``groupby(qi)`` over the task refs instead.

``serve.BM25Server`` shares this driver side — ``load_index_view``,
``_query_plan``, ``_merge_partials_local`` and ``finish_results`` — and
scores the same ``score_range`` core in resident actors.

Rank-identicality corner: the reference ranks a dense score vector over
*all* docs, so every UNMATCHED doc scores exactly the query constant
(0 for lucene/atire/robertson; the delta-driven shift for bm25l/+).
Unmatched docs therefore participate in the ranking by score — with
robertson's negative idf (df > N/2) matched docs can score BELOW the
query constant, in which case unmatched docs outrank them.  Each slice
task knows its exact doc range (per-group [doc_lo, doc_hi) recorded in
the manifest at build time), so it merges its k lowest unmatched doc
ids at score == qconst into its local top-k; the global merge then
ranks all partials uniformly by (score desc, doc_id asc).  For queries
whose in-group weights are all positive this padding is skipped
whenever k matched docs exist (they strictly beat qconst).  Indexes
whose groups lack contiguous doc ranges fall back to merge-side
append-padding (exact only for non-negative-idf scoring).
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import ray
import ray.data as rd

from ..config import IndexConfig
from ..functions.bm25 import BM25Params, idf as idf_fn, nonoccurrence_shape, tf_shape
from ..functions.tokenizer import resolve_stemmer, resolve_stopwords, tokenize_text
from ..state.manifest import Manifest
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
    from ..functions.tokenizer import resolve_splitter

    sw = resolve_stopwords(cfg.stopwords)
    st = resolve_stemmer(cfg.stemmer)
    sp = resolve_splitter(getattr(cfg, "splitter", "regex"))
    return [
        (
            qid,
            Counter(
                tokenize_text(
                    text, stopwords=sw, stemmer=st, lower=cfg.lower, splitter=sp
                )
            ),
        )
        for qid, text in queries
    ]


def _query_plan(
    tokenized: list[tuple[str, Counter]],
    index_dir: str,
    params: BM25Params,
    num_docs: int,
    avg_idf: float | None = None,
    df_cache: dict[str, int | None] | None = None,
) -> dict:
    """Driver-side query structure: per-term (query, weight·idf) fanout +
    per-query constants.  df lookups are a term-pruned vocab read.
    ``avg_idf``: vocab-wide mean robertson idf (manifest stats), needed
    only by okapi's epsilon floor.  ``df_cache``: caller-owned term→df
    memo (None = known-absent) so a persistent server reads the vocab
    only for never-seen terms."""
    terms = sorted({t for _, c in tokenized for t in c})
    df_map: dict[str, int] = {}
    lookup = [t for t in terms if df_cache is None or t not in df_cache]
    if df_cache is not None:
        df_map = {t: df_cache[t] for t in terms if df_cache.get(t) is not None}
    if lookup:
        v = pads.dataset(os.path.join(index_dir, VOCAB_DIR)).to_table(
            columns=["term", "df"], filter=pc.field("term").isin(lookup)
        )
        fresh = dict(zip(v.column("term").to_pylist(), v.column("df").to_pylist()))
        df_map.update(fresh)
        if df_cache is not None:
            for t in lookup:
                df_cache[t] = fresh.get(t)
    if params.method == "okapi" and params.epsilon != 0.0 and avg_idf is None:
        from ..functions.bm25 import avg_robertson_idf

        dfs = pads.dataset(os.path.join(index_dir, VOCAB_DIR)).to_table(
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

    def __init__(self, block_size, lo, hi, params, avgdl, s0,
                 norms=None):
        from ..stages.segments import decode_segment

        self._decode = decode_segment
        self.block_size, self.lo, self.hi = block_size, lo, hi
        self.params, self.avgdl, self.s0 = params, avgdl, s0
        # norms-file mode (state/norms.py): (uint32 mmap, group doc_lo)
        # — decoded rows arrive with dl=None and dl_at() resolves it
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
            triples = bulk_decode_rows(chunk, self.block_size, self.lo, self.hi)
            tf_all = np.concatenate([t for _, t, _ in triples])
            if any(d is None for _, _, d in triples):
                dl_all = self.dl_at(
                    np.concatenate([doc for doc, _, _ in triples])
                )
            else:
                dl_all = np.concatenate([d for _, _, d in triples])
            base_all = (
                tf_shape(self.params, tf_all, dl_all, self.avgdl) - self.s0
                if tf_all.size
                else tf_all.astype(np.float64)
            )
            off = 0
            for row, (doc, tf, _) in zip(chunk, triples):
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
        """Per-posting dl from the group norms file — the dls stream
        was pruned from the read."""
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
            doc, tf, dl = self._decode(row, self.block_size, self.lo, self.hi)
            if dl is None and doc.size:
                dl = self.dl_at(doc)
            base = (
                tf_shape(self.params, tf, dl, self.avgdl) - self.s0
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
DENSE_K_CUTOFF = int(os.environ.get("GRAFT_DENSE_K_CUTOFF", "64"))
# ... but only on wide doc ranges: A/B (alternating fresh processes,
# best-of-5 × 2) shows pruned still wins at 120k docs even at k=1000
# (0.76-0.99 s vs 1.25-1.49 s per 200-query batch), break-even at
# ~1.2M docs (2.5 s both), dense 2.6x ahead at 3.2M-doc slices.  The
# dense path's per-query O(range) mask sweep + accumulator reset is
# pure overhead on small ranges where the candidate merge is cheap.
DENSE_MIN_RANGE = int(os.environ.get("GRAFT_DENSE_MIN_RANGE", "1500000"))
# Accumulator memory is 9 bytes/doc (f64 + bool); cap the slice width
# it is attempted for (16M docs = 144 MB/task) — wider slices keep the
# sort-based path.
DENSE_RANGE_CAP = 16_000_000
# Postings-per-candidate-decode-equivalent: a per-query candidate-block
# decode costs ~2.3 ms of fixed numpy-call overhead ≈ decoding ~25k
# postings at the measured ~12M postings/s full-decode rate.
SHARED_DECODE_C = int(os.environ.get("GRAFT_SHARED_DECODE_C", "25000"))
# Singleton terms up to this df are bulk-primed (see score_range's
# decode policy): near-certain to be fully decoded anyway, and priming
# replaces their per-term decode calls with fused chunk passes.
PRIME_SINGLE_DF = int(os.environ.get("GRAFT_PRIME_SINGLE_DF", "8000"))
# Target queries per scatter batch on the pruned path (see search()):
# fixes total work independent of cluster width.
QBATCH_TARGET = int(os.environ.get("GRAFT_QBATCH_TARGET", "512"))


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

    # filtered search (plan["allowed"]: packed bitmap, docfilter.py):
    # unpack ONLY this range's slice; disallowed docs are dropped from
    # every matched set before top-k, and padding draws from allowed
    # ids only.  Pruning is off under a mask — block-max bounds ignore
    # the filter, so the pruned scorer's early top-k could be crowded
    # by disallowed docs; the dense/sort exhaustive paths stay exact.
    allow_slice = None
    shards = plan.get("allowed_shards")
    if shards is not None:
        # sharded publication: fetch ONLY this range's group slice
        # (BitmapShards caches the get per plan instance, so the rows
        # of one task batch sharing a group fetch it once)
        allow_slice = shards.mask(lo, hi)
        prune = False
    else:
        allowed_bits = plan.get("allowed")
        if allowed_bits is not None:
            from .docfilter import bitmap_slice

            hi_eff = min(hi, int(allowed_bits.size) << 3)
            allow_slice = bitmap_slice(allowed_bits, lo, hi_eff)
            prune = False

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
        # decode policy (cost model, tools/prof_query.py): a per-query
        # candidate-block decode costs a fixed ~2.3 ms of numpy call
        # overhead ≈ SHARED_DECODE_C postings of bulk decode, so a
        # SHARED term whose full postings cost less than its batch
        # uses' worth of candidate decodes is bulk-decoded upfront.
        # Small SINGLETON terms (df ≤ PRIME_SINGLE_DF) are primed too:
        # low df → high idf → they lead their query's term order and
        # get fully decoded anyway, just through thousands of per-term
        # calls.  Big rarely-used terms keep the block-skip machinery.
        df_total = sum(p["df"] for p in parts)
        if (n_use >= 2 and df_total <= n_use * SHARED_DECODE_C) or (
            df_total <= PRIME_SINGLE_DF
        ):
            prime_rows.extend(parts)
    if (
        prime_rows
        and hasattr(decoded, "prime")
        and os.environ.get("GRAFT_PRIME", "1") == "1"
    ):
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
        all_pos = all(w > 0 for w in ws)
        # strict positivity: a w == 0 term (atire idf at df == N) can
        # leave matched docs tied AT qconst, where unmatched lower ids
        # win — those queries go exhaustive too
        if rows and prune and all_pos and not (
            dense_ok and k >= DENSE_K_CUTOFF and (hi - lo) >= DENSE_MIN_RANGE
        ):
            doc, score = score_query_pruned(
                rows, ws, params, avgdl, k, block_size, lo, hi, qc,
                full_decode=decoded,
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
# rewrites, and build_norms replaces the file (new inode) whenever
# append/compaction changes a group's docs.
_NORMS_CACHE: dict[tuple, tuple[np.ndarray, int]] = {}


def _group_norms(norms_index: str, group_dir: str) -> tuple[np.ndarray, int]:
    from ..state.norms import _norm_paths, load_group_norms

    g = int(group_dir.rsplit("group=", 1)[1])
    st = os.stat(_norm_paths(norms_index, g)[0])
    key = (norms_index, g, st.st_ino, st.st_mtime_ns, st.st_size)
    v = _NORMS_CACHE.get(key)
    if v is None:
        if len(_NORMS_CACHE) > 64:
            _NORMS_CACHE.clear()
        v = _NORMS_CACHE[key] = load_group_norms(norms_index, g)
    return v


# segment columns the query path reads when the dl stream comes from
# the norms file instead (state/norms.py): dls/blk_off_dl never leave
# storage
_SEG_COLS_NO_DL = [
    "term", "tid", "df", "doc_ids", "tfs", "bmax_tf", "bmin_dl",
    "blk_doc0", "blk_off_doc", "blk_off_tf",
]


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


@ray.remote
def score_slice(
    plan: dict,
    item: tuple[str, int, int, int, int],
    params: BM25Params,
    avgdl: float,
    k: int,
    block_size: int,
    prune: bool,
    dense_pad: bool,
    norms_index: str | None,
) -> pa.Table:
    """Score queries [q_lo, q_hi) against one (group, doc-range) slice.

    ``plan`` is passed as the ``ray.put`` ref of search()'s plan, so
    Ray resolves it on the worker (one object store copy per node, not
    one per task); ``item`` is one scatter entry
    ``(group_dir, lo, hi, q_lo, q_hi)``.

    A build group can be far wider than one task should chew, so the
    scatter unit is a doc-id slice of a group: every task reads the
    group's query-term segment rows (term-pruned parquet read), decodes,
    restricts each posting list to [lo, hi) by binary search, and
    accumulates exact scores for its docs.  Doc-sliced tasks keep the
    partial-top-k exact (a doc's whole score is computed where it
    lives), and parallelism is n_groups × n_slices regardless of how
    many groups the build produced.

    ``dense_pad`` (set when every group has a contiguous doc range
    covering exactly this slice's [lo, hi)): unmatched docs score
    exactly qconst in the dense-vector reference semantics, so the
    slice merges its k lowest unmatched ids at qconst into its local
    top-k.  Skipped when k matched docs exist with strictly-positive
    weights (they strictly beat qconst, so no slice anywhere pads).
    Queries with a negative-idf term (robertson, df > N/2) are scored
    exhaustively within the slice — full matched set known — so the
    padding merge stays exact (pruning could otherwise drop a matched
    doc that the pad would then mislabel as unmatched-at-qconst).
    """
    group_dir, lo, hi, q_lo, q_hi = item
    terms_here = query_plan_terms(plan, q_lo, q_hi)
    rows_by_term: dict[str, list[dict]] = {}
    if terms_here:
        # read fresh per task: a per-worker (group, term)→rows LRU was
        # A/B-measured here (best-of-3 alternating, pinned 16 CPUs,
        # 8000 q) at NO win — the term-pruned parquet re-read is
        # page-cached + cheap to decompress, and the cache added heap
        # pressure.  Negative result; see BASELINE.md round 3.
        from ..stages.segments import segment_rows_by_term

        seg = pads.dataset(group_dir).to_table(
            filter=pc.field("term").isin(terms_here),
            columns=_SEG_COLS_NO_DL if norms_index else None,
        )
        rows_by_term = segment_rows_by_term(seg)
    if not rows_by_term and not dense_pad:
        return _EMPTY_PARTIALS
    norms = _group_norms(norms_index, group_dir) if norms_index else None
    # decoded (doc, tf_shape - s0) per term, shared across every query
    # in this task — hot terms decode once, not per query
    decoded = _DecodeCache(block_size, lo, hi, params, avgdl,
                           nonoccurrence_shape(params), norms=norms)
    return _partials_table(*score_range(
        plan, rows_by_term, params, avgdl, k, block_size,
        lo, hi, q_lo, q_hi, prune, dense_pad, decoded,
    ))


def make_merge_topk(plan_ref, k: int, num_docs: int, legacy_pad: bool):
    """groupby(qi) merge of disjoint per-group partials → final top-k,
    with dense-doc_id zero-match padding (module docstring)."""

    def merge_topk(tbl: pa.Table) -> pa.Table:
        plan = ray.get(plan_ref)
        qi = int(tbl.column("qi")[0].as_py())
        doc = tbl.column("doc_id").to_numpy()
        score = tbl.column("score").to_numpy()
        order = np.lexsort((doc, -score))[:k]
        doc, score = doc[order], score[order]
        if doc.size < k and legacy_pad and num_docs > doc.size:
            have = set(doc.tolist())
            pad = [d for d in range(min(num_docs, k + len(have))) if d not in have]
            pad = pad[: k - doc.size]
            doc = np.concatenate([doc, np.array(pad, dtype=np.int64)])
            score = np.concatenate(
                [score, np.full(len(pad), plan["qconst"][qi], dtype=np.float64)]
            )
        qid = plan["qids"][qi]
        return pa.table(
            {
                "qid": pa.array([qid] * doc.size, type=pa.string()),
                "doc_id": pa.array(doc, type=pa.int64()),
                "rank": pa.array(np.arange(1, doc.size + 1, dtype=np.int32)),
                "score": pa.array(score, type=pa.float64()),
            },
            schema=RESULT_SCHEMA,
        )

    return merge_topk


def _collect_arrow(refs: list) -> pa.Table:
    """Gather the scoring tasks' partial tables on the driver."""
    return _concat_partials(ray.get(refs))


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


# Partial rows (Q × k × groups × slices) up to which search() merges on
# the driver; above it the merge is a distributed Ray Data groupby.
DRIVER_MERGE_ROWS = 30_000_000


@dataclass
class IndexView:
    """The manifest as both query entry points (search() and
    serve.BM25Server) read it: config, collection stats, the groups in
    scope, their contiguous doc ranges, and the padding those ranges
    allow (module docstring)."""

    index_dir: str
    man: Manifest
    cfg: IndexConfig
    num_docs: int
    avgdl: float
    gids: list[int]
    # group -> [doc_lo, doc_hi); empty when any group lacks a recorded
    # range or two groups overlap
    ranges: dict[int, tuple[int, int]]
    # slices pad with their own unmatched docs (exact for any scoring)
    dense_pad: bool
    # the merge appends padding instead (range-less indexes; exact only
    # for non-negative-idf scoring)
    legacy_pad: bool

    def group_dir(self, g: int) -> str:
        return os.path.join(self.index_dir, SEGMENTS_DIR, f"group={g}")

    def group_range(self, g: int) -> tuple[int, int]:
        return self.ranges.get(g, (0, self.num_docs))


def load_index_view(
    index_dir: str,
    cfg: IndexConfig | None = None,
    dense_ids: bool = True,
    groups: list[int] | None = None,
) -> IndexView:
    man = Manifest.load(index_dir)
    if man is None or not man.is_complete():
        raise ValueError(f"no complete index at {index_dir}")
    cfg = cfg or IndexConfig(**{
        k_: v for k_, v in man.config.items()
        if k_ in IndexConfig.__dataclass_fields__
    })
    gids = man.done_groups()
    if groups is not None:
        missing = set(groups) - set(gids)
        if missing:
            raise ValueError(f"groups not in index: {sorted(missing)}")
        gids = sorted(groups)
        dense_ids = False  # partial doc space: no zero-score padding

    # Per-group contiguous doc ranges (recorded at build time) make the
    # scatter exact for dense-id padding AND confine each group's slices
    # to its own doc range (no empty cross-range tasks).
    ranges: dict[int, tuple[int, int]] = {}
    for g in gids:
        e = man.groups[str(g)]
        if e.get("doc_lo") is None or e.get("doc_hi") is None:
            ranges = {}
            break
        ranges[g] = (int(e["doc_lo"]), int(e["doc_hi"]))
    if ranges:
        spans = sorted(ranges.values())
        if any(b[0] < a[1] for a, b in zip(spans, spans[1:])):
            ranges = {}  # overlapping groups: ranges unusable
    dense_pad = dense_ids and bool(ranges)
    return IndexView(
        index_dir, man, cfg, man.stats["num_docs"], man.stats["avgdl"],
        gids, ranges, dense_pad, dense_ids and not dense_pad,
    )


def _join_back(tbl: pa.Table, offsets: pd.DataFrame) -> pa.Table:
    dm = docmap_from_offsets(offsets, tbl.column("doc_id").to_numpy())
    return tbl.append_column(
        "conv_id", pa.array(dm["conv_id"], type=pa.string())
    ).append_column("turn_idx", pa.array(dm["turn_idx"], type=pa.int32()))


def finish_results(
    merged: pa.Table, plan: dict, k: int, view: IndexView,
    offsets: pd.DataFrame | None,
) -> pa.Table:
    """Merged top-k → final results: rows for queries no task scored,
    then the (conv_id, turn_idx) join-back when ``offsets`` is given."""
    extra = _empty_query_results(plan, k, view.num_docs, view.legacy_pad)
    if extra.num_rows:
        merged = pa.concat_tables([merged, extra])
    return merged if offsets is None else _join_back(merged, offsets)


def search(
    index_dir: str,
    queries: list[tuple[str, str]],
    params: BM25Params | None = None,
    k: int = 10,
    cfg: IndexConfig | None = None,
    join_back: bool = True,
    dense_ids: bool = True,
    mode: str = "pruned",   # "pruned" (block-max MaxScore, default) | "exhaustive"
    groups: list[int] | None = None,
    n_qbatch: int | None = None,
    n_slices: int | None = None,
    allowed: np.ndarray | None = None,
) -> rd.Dataset:
    """Retrieve top-k (qid, doc_id, rank, score) for every query.

    One ``score_slice`` Ray task per (group, doc slice, query batch)
    scores against the ``ray.put`` plan; the driver gathers the partial
    top-k tables with one ``ray.get`` and merges them (module
    docstring).  The result is a Dataset over that one Arrow table.

    ``groups`` restricts the search to a subset of index groups — the
    partial-index load path (the reference's mmap/query-only scripts
    load just what a query needs, /root/reference/benchmark/inference/
    retrieve_mmap.py:16; here the analogue is streaming only the chosen
    groups' segment shards).  Scores over the restricted doc set are
    exact; dense-id padding is disabled since absent docs are not
    zero-scored, they are out of scope.

    ``allowed`` — filtered retrieval: a packed uint8 bitmap over
    [0, num_docs) OR a pre-published ``docfilter.BitmapShards``
    restricting results to the set bits.  Collection stats (N, df,
    avgdl) stay full-corpus (the Lucene/ES filtered-query semantics);
    ranking, ties and qconst padding are all confined to allowed docs.
    Whenever the index records contiguous group doc ranges the mask is
    (re)published as per-group shards — one object per group, fetched
    slice-wise by each scoring task, so no corpus-wide array ever
    ships; a full array in the plan survives only for range-less
    legacy indexes.  Forces the exhaustive scorer (pruning bounds
    ignore the mask)."""
    params = params or BM25Params()
    view = load_index_view(index_dir, cfg, dense_ids, groups)
    num_docs, gids, ranges = view.num_docs, view.gids, view.ranges

    from .docfilter import BitmapShards

    if isinstance(allowed, BitmapShards):
        if allowed.num_docs != num_docs:
            raise ValueError(
                f"allowed shards cover num_docs={allowed.num_docs}, "
                f"index has {num_docs}"
            )
    elif allowed is not None:
        allowed = np.ascontiguousarray(allowed, dtype=np.uint8)
        need = (num_docs + 7) >> 3
        if allowed.size != need:
            raise ValueError(
                f"allowed bitmap is {allowed.size} bytes, need {need} "
                f"for num_docs={num_docs}"
            )

    # index-level deletes (tombstones.py): folded into the allowed
    # shards below — composes with a user filter by per-group AND
    from .tombstones import load_tombstones

    deleted = load_tombstones(index_dir)
    if deleted is not None and deleted.size == 0:
        deleted = None
    masked = allowed is not None or deleted is not None
    if masked:
        mode = "exhaustive"
        if view.legacy_pad:
            # merge-side legacy padding is mask-unaware; every index
            # this engine writes records contiguous group ranges, so
            # this only rejects filtered search over pre-range-era
            # indexes
            raise ValueError(
                "filtered search requires contiguous per-group doc ranges"
            )

    plan = _query_plan(
        tokenize_queries(queries, view.cfg), index_dir, params, num_docs,
        avg_idf=view.man.stats.get("avg_robertson_idf"),
    )
    if masked:
        if ranges:
            # sharded publication (docfilter.BitmapShards): one object
            # per group, fetched slice-wise by the scoring tasks — the
            # plan never carries a corpus-wide array
            from .docfilter import compose_shards

            plan["allowed_shards"] = compose_shards(
                sorted(ranges.values()), num_docs,
                user=allowed, deleted_ids=deleted,
            )
        else:
            # range-less legacy index: corpus-wide array in the plan
            if isinstance(allowed, BitmapShards):
                raise ValueError(
                    "sharded filter requires contiguous per-group doc ranges"
                )
            full = allowed
            if deleted is not None:
                from .docfilter import bitmap_from_ids, invert_bitmap

                t_allowed = invert_bitmap(
                    bitmap_from_ids(deleted, num_docs), num_docs)
                full = t_allowed if full is None else full & t_allowed
            plan["allowed"] = full
    plan_ref = ray.put(plan)

    # 3x CPU slots of tasks (~3 waves): q-batches are skewed (a batch
    # whose queries hit hot terms decodes far more postings), and three
    # waves pack around the stragglers.  Measured on pinned cores, sf8,
    # 8000 queries: 16 CPUs k=10 — 24 tasks/1.5 waves 389 qps, 48/3
    # waves 500, 96/6 waves 434 (per-task term-read duplication takes
    # over below ~300 queries/batch); k=1000 — 65 / 119 / 96 qps same
    # order; 4 CPUs k=10 — 2 waves 142, 3 waves 155, 6 waves 130.
    target_tasks = 96
    if ray.is_initialized():
        target_tasks = max(8, int(ray.cluster_resources().get("CPU", 32) * 3))
    # Parallelism comes from groups × query-batches × doc-slices, filled
    # in that order: query batching is free (no duplicated decode, no
    # per-slice python overhead), doc-slicing is the fallback for small
    # query sets so single-query latency still fans out.
    n_q = len(plan["qids"])
    per_group = max(1, -(-target_tasks // max(1, len(gids))))
    if n_qbatch is None:
        # Per-task read volume is the q-batch's term blobs and is paid
        # once per doc-slice, so total parquet bytes scale with
        # n_slices while q-batching *divides* them.  At large k (dense
        # path) the measured optimum is all-q-batches/no-slicing
        # (sf8/32cpu k=1000: qb16×sl1 68 qps vs auto-12×2 61 vs 1×16
        # 12 qps) — allow batches down to 8 queries there; at small k
        # keep ≥16 queries per batch (per-query python overhead in the
        # pruned scorer dominates below that).
        min_q = 8 if k >= DENSE_K_CUTOFF else 16
        if k >= DENSE_K_CUTOFF:
            n_qbatch = min(per_group, max(1, n_q // min_q))
        else:
            # pruned path: batch size is sized by the DATA (~QBATCH
            # queries/batch), never by cluster width — per-batch work
            # duplication (each batch re-reads and re-decodes its hot
            # terms) means width-coupled batch counts make total work
            # grow with the cluster, a built-in sublinear-scaling
            # anti-pattern (a small cluster would silently get an
            # algorithmic advantage a 10^12-doc deployment lacks).
            # Width only shrinks batches when the job would otherwise
            # idle cores (small query sets).
            n_qbatch = max(1, -(-n_q // QBATCH_TARGET))
            if n_qbatch < per_group:
                n_qbatch = min(per_group, max(n_qbatch, max(1, n_q // min_q)))
    if n_slices is None:
        n_slices = max(1, -(-per_group // n_qbatch))
        # don't shred small corpora into confetti: a slice under ~64k
        # docs is pure task overhead (single-query latency at small sf)
        per_group_docs = max(1, num_docs // max(1, len(gids)))
        n_slices = min(n_slices, max(1, per_group_docs // 65536))
    q_bounds = np.linspace(0, n_q, n_qbatch + 1).astype(np.int64)
    scatter = []
    for g in gids:
        bounds = np.linspace(*view.group_range(g), n_slices + 1).astype(np.int64)
        if not ranges:
            bounds[-1] = np.iinfo(np.int64).max  # unknown range: open tail
        scatter += [
            (view.group_dir(g), int(bounds[s]), int(bounds[s + 1]),
             int(q_bounds[qb]), int(q_bounds[qb + 1]))
            for qb in range(n_qbatch)
            for s in range(n_slices)
        ]
    # norms-file mode (state/norms.py): when every group has a fresh
    # norms sidecar, scoring tasks read segment rows WITHOUT the dls
    # stream and resolve dl via the group's mmap — ~28% fewer posting
    # bytes off storage and through decode.
    from ..state.norms import has_norms

    norms_index = index_dir if has_norms(index_dir, view.man) else None
    refs = [
        score_slice.remote(
            plan_ref, item, params, view.avgdl, k, view.cfg.block_size,
            mode == "pruned", view.dense_pad, norms_index,
        )
        for item in scatter
    ]
    offsets = load_offsets(index_dir) if join_back else None

    # The partials are Q × k × n_tasks tiny rows.  Up to
    # DRIVER_MERGE_ROWS the merge runs driver-side (vectorized numpy) —
    # a sort-based Ray shuffle costs seconds of fixed latency for
    # kilobytes of data.  dense_pad: slices already merged padding by
    # score — the global merge is a plain tie-normalized top-k.  Each
    # query appears only in its own q-batch's tasks, so partial volume
    # is Q x k x (groups x slices) — NOT x len(scatter).
    n_partial_est = n_q * k * len(gids) * n_slices
    if n_partial_est <= DRIVER_MERGE_ROWS:
        merged = _merge_partials_local(
            _collect_arrow(refs), plan, k, num_docs, view.legacy_pad
        )
        return rd.from_arrow(finish_results(merged, plan, k, view, offsets))

    merged = rd.from_arrow_refs(refs).groupby("qi").map_groups(
        make_merge_topk(plan_ref, k, num_docs, view.legacy_pad),
        batch_format="pyarrow",
    )
    extra = _empty_query_results(plan, k, num_docs, view.legacy_pad)
    if extra.num_rows:
        merged = merged.union(rd.from_arrow(extra))
    if offsets is not None:
        off_ref = ray.put(offsets)
        merged = merged.map_batches(
            lambda batch: _join_back(batch, ray.get(off_ref)),
            batch_format="pyarrow",
        )
    return merged
