"""Exact phrase retrieval and conjunctive (boolean AND) retrieval.

Neither exists in the reference harness (bm25s/rank_bm25 are pure
bag-of-words scorers) but both are table-stakes fulltext-index
operations (Lucene PhraseQuery / BooleanQuery.MUST), so the engine
grows them on top of its existing primitives instead of a new index
format:

**Conjunctive AND** (``bool_and_topk``) — docs containing ALL query
terms, ranked by the ordinary BM25 score.  Pure composition: the
posting-list intersection below builds each query's eligibility as
per-group bitmap shards (pipelines/docfilter.py) and the whole batch
goes to ONE ``search(allowed=[shards per query])`` — the
filtered-retrieval machinery does the rest (mask applied inside the
scorers, stats stay full-corpus).

**Exact phrase** (``phrase_topk``) — read from the index's positions
(pipelines/positions.py; an index built with
``IndexConfig(positions=True)``, the reference's
``on_pyserini.py --storePositions``).  Per group, ONE term-pruned read
of the phrase terms' position rows resolves every query's occurrence
count with no corpus text read (``_positions_counts``); ``gap`` > 1
relaxes adjacency into ordered proximity (NEAR/n).
  Scoring: the phrase is a *virtual term*: tf = occurrence count,
    df = number of docs with ≥1 occurrence, dl = the doc's kept-stream
    length (the group's norms); score = idf(df) · tf_shape(tf, dl) with
    the standard variant formulas (functions/bm25).  Only matching docs
    are ranked (no dense-vector padding — a phrase is a match predicate,
    not a similarity over the whole corpus).

Semantics contract (mirrored exactly by the SQL oracle in
driver_api.phrase_topk_sql):

* adjacency is evaluated on the KEPT token stream — stopwords removed,
  positions renumbered — so phrases cross removed stopwords
  ("big query" matches "big the query"); single-char tokens never
  existed (the reference's ``\\w\\w+`` splitter);
* the phrase text is tokenized by the SAME pipeline — the index's
  analyzer (``Index.analyze``), so case folding, splitter, stopwords
  and stemming follow the index config (its own stopwords vanish: "the
  fast value" searches the bigram "fast value");
* deleted docs (tombstones) never rank, but the phrase df counts them
  like every other collection statistic;
* overlapping occurrences all count ("aa aa aa" contains "aa aa"
  twice); repeated phrase terms are allowed;
* a phrase containing an out-of-vocabulary term matches nothing
  (strict conjunction: the term has no positions);
* a one-term phrase degenerates to that term's plain BM25 score over
  its matching docs.

Scale: every query call here is plain Ray tasks plus a driver merge,
as in ``search()`` — no Ray Data job.  A phrase batch is one
``_positions_counts`` task per group (the phrase terms' postings plus
~1 varint per occurrence); each returns its (query, doc, ptf, dl)
counts, match-scale, never corpus-scale.  Groups own disjoint docs,
so the driver sums a phrase's df over the groups' rows, then scores
and ranks them.  A boolean batch is one ``_group_eligibility`` task per
group, returning each query's byte slice of that group as a return
object of its own; the driver wraps them as per-query ``BitmapShards``
(the 10^12-doc sharding story in pipelines/docfilter.py), so no dense
corpus-wide bitmap is ever built for a boolean query.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..config import IndexConfig
from ..functions.bm25 import BM25Params, idf as idf_fn, tf_shape
from .docfilter import BitmapShards, bitmap_nbytes, shard_byte_span
from .query import Index, search

__all__ = [
    "candidate_bitmap", "phrase_topk", "bool_and_topk", "bool_query_topk",
]


def _intersect_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection of two sorted unique int64 arrays — one binary
    search of the smaller into the larger (posting lists arrive sorted
    from decode, so never pay np.intersect1d's concat+sort)."""
    if a.size > b.size:
        a, b = b, a
    if a.size == 0:
        return a
    pos = np.searchsorted(b, a)
    ok = pos < b.size
    ok[ok] = b[pos[ok]] == a[ok]
    return a[ok]


@ray.remote
def _group_eligibility(
    group_dir: str,
    span: tuple[int, int],
    plans: list[tuple[int, list[str], list[str]]],
    block_size: int,
    deleted: np.ndarray | None,
) -> tuple:
    """Every spec's eligibility over one group: ONE read of all the
    specs' terms' segment rows (``read_term_rows``), each term decoded
    once into its sorted doc array, then per (spec, must, must_not) plan
    the docs of ``span`` = [lo, hi) holding ALL ``must`` terms (rarest
    first; every doc of the span when ``must`` is empty) and NONE of
    ``must_not``, minus the ``deleted`` ids.

    Returns ``1 + len(plans)`` objects (submit with that
    ``num_returns``): first the positions in ``plans`` of the specs
    some doc of the group satisfies, then per plan its packed byte slice
    covering ``span``'s bytes (None for a spec no doc satisfies).  The slices are the task's
    own return objects, so the driver publishes them without fetching
    and re-putting each one."""
    from ..stages.segments import decode_segment, read_term_rows, segment_rows_by_term

    terms = sorted({t for _, m, n in plans for t in (*m, *n)})
    rows = segment_rows_by_term(read_term_rows(group_dir, terms))
    dec: dict[str, np.ndarray | None] = {}

    def docs_of(t: str) -> np.ndarray | None:
        if t not in dec:
            # multi-part rows (a term split across sort partitions)
            # arrive sorted by first doc, so the concat stays ascending
            parts = [decode_segment(r, block_size)[0] for r in rows.get(t, ())]
            dec[t] = np.concatenate(parts) if parts else None
        return dec[t]

    lo, hi = span
    b0, b1 = shard_byte_span(lo, hi)
    base = b0 << 3
    matched: list[int] = []
    slices: list[np.ndarray | None] = []
    for j, (_, must, must_not) in enumerate(plans):
        slices.append(None)
        cur: np.ndarray | None = None
        for t in must:
            d = docs_of(t)
            cur = d if cur is None or d is None else _intersect_sorted(cur, d)
            if cur is None or cur.size == 0:
                break
        bits = np.zeros((b1 - b0) << 3, dtype=np.uint8)
        if not must:
            bits[lo - base: hi - base] = 1
        elif cur is None or cur.size == 0:
            continue
        else:
            bits[cur - base] = 1
        for d in [docs_of(t) for t in must_not] + [deleted]:
            if d is not None:
                bits[d - base] = 0
        if bits.any():
            matched.append(j)
            slices[-1] = np.packbits(bits, bitorder="little")
    return (matched, *slices)


def _postings_bitmaps(
    index: Index,
    specs: list[tuple[list[str], list[str]]],
    deleted: np.ndarray | None = None,
) -> list[BitmapShards | None]:
    """Per-spec eligibility over the index's posting lists, for MANY
    specs in one scan: each spec (must, must_not) selects the docs
    containing ALL must terms (every doc when must is empty) and NONE
    of the must_not terms, nor any of the sorted ``deleted`` ids.
    Returns, aligned with ``specs``, each spec's ``BitmapShards`` over
    the index's id space (``Index.id_bound``), or None when no doc is
    eligible.  Pass the index's tombstones (``Index.deleted``) and the
    shards record them, so ``search()`` publishes them as they are.

    Batching is the point (a Q-query boolean batch costs one task per
    group and ONE segment read per group, not Q): one
    ``_group_eligibility`` task per group evaluates every spec.  Each
    slice is one of the task's return objects and becomes that spec's
    shard for the group as it is; the driver fetches only each task's
    list of matched specs, never a slice, let alone a dense
    ``id_bound/8`` array per spec.

    A must term absent from the vocab empties its spec (strict
    conjunction); absent must_not terms exclude nothing."""
    df_map = index.df_of(sorted({t for m, n in specs for t in (*m, *n)}))
    plans = []
    for i, (must, must_not) in enumerate(specs):
        must = sorted(set(must))
        if all(t in df_map for t in must):
            plans.append((i, sorted(must, key=df_map.get),
                          sorted(t for t in set(must_not) if t in df_map)))
    out: list[BitmapShards | None] = [None] * len(specs)
    if not plans:
        return out
    # shards are cut by ascending group span (masked search rejects
    # overlapping spans, but candidate_bitmap ORs the slices all the same)
    spans = sorted((index.spans[g], g) for g in index.gids)
    plans_ref = ray.put(plans)
    task = _group_eligibility.options(num_returns=1 + len(plans))
    refs = [
        task.remote(
            index.group_dir(g), span, plans_ref, index.cfg.block_size,
            None if deleted is None
            else deleted[slice(*np.searchsorted(deleted, span))])
        for span, g in spans
    ]
    per_spec: dict[int, list] = {}
    for gi, matched in enumerate(ray.get([r[0] for r in refs])):
        for j in matched:
            per_spec.setdefault(plans[j][0], [None] * len(spans))[gi] = refs[gi][1 + j]
    zeros: dict[int, object] = {}
    lo = np.asarray([s[0] for s, _ in spans], dtype=np.int64)
    hi = np.asarray([s[1] for s, _ in spans], dtype=np.int64)
    for i, shard_refs in per_spec.items():
        for gi, r in enumerate(shard_refs):
            if r is None:  # no eligible doc in this group
                if gi not in zeros:
                    b0, b1 = shard_byte_span(*spans[gi][0])
                    zeros[gi] = ray.put(np.zeros(b1 - b0, dtype=np.uint8))
                shard_refs[gi] = zeros[gi]
        out[i] = BitmapShards(lo, hi, lo >> 3, shard_refs, index.id_bound,
                              deleted=deleted)
    return out


def candidate_bitmap(index_dir: str, terms: list[str] | set[str]) -> np.ndarray:
    """Packed bitmap over [0, ``Index.id_bound``) of the docs containing
    ALL ``terms`` — the per-group posting-list intersection of
    ``_postings_bitmaps``, its group slices ORed into one array."""
    index = Index.open(index_dir)
    out = np.zeros(bitmap_nbytes(index.id_bound), dtype=np.uint8)
    sh = _postings_bitmaps(index, [(list(terms), [])])[0]
    if sh is not None:
        for b_lo, ref in zip(sh.byte_lo, sh.refs):
            sl = ray.get(ref)
            out[b_lo: b_lo + sl.size] |= sl
    return out


_EMPTY_I64 = np.empty(0, dtype=np.int64)


@ray.remote
def _positions_counts(
    group_dir: str,
    doc_lo: int,
    phrases: list[list[str]],
    block_size: int,
    gap: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One group's phrase occurrence counts, from the index's positions
    (pipelines/positions.py — the Lucene .pos path, reference analogue
    on_pyserini.py --storePositions): ONE term-pruned read of the
    phrase terms' position rows resolves every query's occurrence
    count without touching the corpus text.  Per query: each phrase
    slot's occurrences become sorted uint64 keys
    ((doc - doc_lo) << 32) | kept_pos; gap=1 is membership (key p
    matches iff p+j is present for every slot j), gap>1 a backward DP:
    a position of term j chains iff the NEAREST chaining position of
    term j+1 strictly after it is within ``gap`` in the same doc (if
    any continuation is in range, the nearest is), so an occurrence is
    a START position from which a full in-order chain exists, counted
    once per start (count(DISTINCT k0.rn) in the SQL oracle).  Returns
    the (query index, doc_id, ptf, dl) count arrays, dl read from the
    group's norms."""
    from .positions import positions_for_terms
    from .query import _group_norms

    pmap = positions_for_terms(
        group_dir, sorted({t for toks in phrases for t in toks}), block_size)
    norms = _group_norms(group_dir, doc_lo)[0] if pmap else None
    key_cache: dict[str, np.ndarray] = {}

    def keys_of(t: str) -> np.ndarray | None:
        ks = key_cache.get(t)
        if ks is None:
            v = pmap.get(t)
            if v is None:
                return None
            docs, counts, pos_abs = v
            # sorted: docs ascending, positions ascending in doc
            ks = key_cache[t] = (
                (np.repeat((docs - doc_lo).astype(np.uint64), counts)
                 << np.uint64(32))
                | pos_abs.astype(np.uint64)
            )
        return ks

    out_q: list[np.ndarray] = []
    out_d: list[np.ndarray] = []
    out_tf: list[np.ndarray] = []
    for qi, toks in enumerate(phrases):
        slot_keys = [keys_of(t) for t in toks]
        if any(ksj is None or ksj.size == 0 for ksj in slot_keys):
            continue  # strict conjunction within this group
        n = len(toks)
        if gap == 1:
            p = slot_keys[0]
            valid = np.ones(p.size, dtype=bool)
            for j in range(1, n):
                tgt = p + np.uint64(j)
                ksj = slot_keys[j]
                posn = np.searchsorted(ksj, tgt)
                okj = posn < ksj.size
                okj[okj] = ksj[posn[okj]] == tgt[okj]
                valid &= okj
                if not valid.any():
                    break
            starts = p[valid]
        else:
            ok = slot_keys[n - 1]
            for j in range(n - 2, -1, -1):
                if ok.size == 0:
                    break
                pj = slot_keys[j]
                nxt = np.searchsorted(ok, pj, side="right")
                has = nxt < ok.size
                q = ok[np.minimum(nxt, ok.size - 1)]
                ok = pj[
                    has
                    & (q <= pj + np.uint64(gap))
                    & ((q >> np.uint64(32)) == (pj >> np.uint64(32)))
                ]
            starts = ok
        if starts.size == 0:
            continue
        doc_rel, ptf = np.unique(
            (starts >> np.uint64(32)).astype(np.int64), return_counts=True)
        out_q.append(np.full(doc_rel.size, qi, dtype=np.int32))
        out_d.append(doc_rel)
        out_tf.append(ptf.astype(np.int64))
    if not out_q:
        return np.empty(0, dtype=np.int32), _EMPTY_I64, _EMPTY_I64, _EMPTY_I64
    doc_rel = np.concatenate(out_d)
    return (np.concatenate(out_q), doc_rel + doc_lo, np.concatenate(out_tf),
            norms[doc_rel].astype(np.int64))


_RANKED_SCHEMA = pa.schema([("qid", pa.string()), ("doc_id", pa.int64()),
                            ("rank", pa.int64()), ("score", pa.float64())])


def _ranked(
    qids: list[str],
    qi: np.ndarray,
    doc: np.ndarray,
    score: np.ndarray,
    k: int | None = None,
) -> pa.Table:
    """The ranking tail of every entry point here: row i belongs to
    query ``qids[qi[i]]``; scores are rounded to 6 decimals and ranked
    per query by (score desc, doc_id asc), queries in qid order, each
    cut to its first ``k`` rows when ``k`` is given."""
    if qi.size == 0:
        return _RANKED_SCHEMA.empty_table()
    names = np.asarray(qids, dtype=object)
    order_of = np.empty(len(qids), dtype=np.int64)
    order_of[np.argsort(names, kind="stable")] = np.arange(len(qids))
    score = np.round(score, 6)
    code = order_of[qi]
    sel = np.lexsort((doc, -score, code))
    c = code[sel]
    first = np.flatnonzero(np.concatenate(([True], c[1:] != c[:-1])))
    rank = np.arange(1, c.size + 1) - np.repeat(
        first, np.diff(np.append(first, c.size)))
    if k is not None:
        sel, rank = sel[rank <= k], rank[rank <= k]
    return pa.table({
        "qid": pa.array(names[qi[sel]], type=pa.string()),
        "doc_id": pa.array(doc[sel], type=pa.int64()),
        "rank": pa.array(rank, type=pa.int64()),
        "score": pa.array(score[sel], type=pa.float64()),
    }, schema=_RANKED_SCHEMA)


def phrase_topk(
    index_dir: str,
    queries: list[tuple[str, str]],
    k: int = 10,
    params: BM25Params | None = None,
    cfg: IndexConfig | None = None,
    gap: int = 1,
) -> pa.Table:
    """Top-k exact-phrase retrieval: (qid, doc_id, rank, score) with
    round-6 deterministic (score desc, doc_id asc) ranking — module doc
    for semantics.  Needs an index built with
    ``IndexConfig(positions=True)``; raises ``ValueError`` otherwise.

    ``gap`` > 1 relaxes adjacency into ordered proximity (NEAR/n):
    each next phrase term within ``gap`` kept-stream positions of the
    previous; tf counts chain START positions (``_positions_counts``).
    gap=1 is the exact phrase.  Deleted docs (tombstones.py) never
    rank; like every other collection statistic, the phrase df still
    counts them.  Duplicate qids raise ``ValueError``."""
    from .positions import has_positions

    if gap < 1:
        raise ValueError("gap must be >= 1")
    # queries are keyed by qid: a duplicate would merge two phrases'
    # counts into one df and one ranking
    dup = sorted(q for q, n in Counter(q for q, _ in queries).items() if n > 1)
    if dup:
        raise ValueError(f"duplicate phrase qids: {dup}")
    params = params or BM25Params()
    index = Index.open(index_dir, cfg)
    if not has_positions(index.man):
        raise ValueError(
            f"index at {index_dir} has no positions: phrase and NEAR "
            "retrieval need an index built with IndexConfig(positions=True)"
        )
    tokenized = [
        (qid, toks) for qid, text in queries if (toks := index.analyze(text))
    ]
    if not tokenized:
        return _RANKED_SCHEMA.empty_table()
    phrases = ray.put([toks for _, toks in tokenized])
    parts = ray.get([
        _positions_counts.remote(index.group_dir(g), index.spans[g][0],
                                 phrases, index.cfg.block_size, gap)
        for g in index.gids
    ])
    qi, doc, ptf, dl = (np.concatenate([p[j] for p in parts]) for j in range(4))
    # groups own disjoint docs: a phrase's df is its row count summed
    # over the groups, deleted docs included
    df = np.bincount(qi, minlength=len(tokenized))
    w = np.zeros(df.size, dtype=np.float64)
    for i in np.flatnonzero(df):
        w[i] = float(idf_fn(params, int(df[i]), index.num_docs,
                            avg_idf=index.avg_idf))
    if index.deleted is not None:
        live = ~np.isin(doc, index.deleted)
        qi, doc, ptf, dl = qi[live], doc[live], ptf[live], dl[live]
    score = w[qi] * tf_shape(params, ptf, dl, index.avgdl)
    return _ranked([q for q, _ in tokenized], qi, doc, score, k)


def _masked_topk(
    index: Index,
    jobs: list[tuple[str, str, BitmapShards | None]],
    k: int,
    params: BM25Params,
) -> pa.Table:
    """The boolean entry points' shared tail: ONE ``search()`` over
    every (qid, score text, eligibility shards) job, each query masked
    by its own shards (None: every live doc), then ``_ranked``."""
    if not jobs:
        return _RANKED_SCHEMA.empty_table()
    qids = [q for q, _, _ in jobs]
    tbl = search(
        index, [(q, t) for q, t, _ in jobs], params=params, k=k,
        join_back=False, allowed=[m for _, _, m in jobs],
    )
    qi = pc.index_in(tbl.column("qid"),
                     value_set=pa.array(qids, type=pa.string())).to_numpy()
    return _ranked(qids, qi, tbl.column("doc_id").to_numpy(),
                   tbl.column("score").to_numpy())


def bool_and_topk(
    index_dir: str,
    queries: list[tuple[str, str]],
    k: int = 10,
    params: BM25Params | None = None,
    cfg: IndexConfig | None = None,
) -> pa.Table:
    """Conjunctive top-k: BM25 ranking restricted to docs containing
    ALL of each query's terms (Lucene BooleanQuery.MUST).  A query with
    an out-of-vocab term returns nothing (strict AND); fewer than k
    conjunctive matches return fewer rows.  One batched posting-list
    intersection builds every query's eligibility shards, then ONE
    ``search(allowed=[shards per query])`` scores the whole batch
    (docfilter mask inside the scorers; full-corpus idf/avgdl,
    identical score values to the unfiltered ranking)."""
    params = params or BM25Params()
    index = Index.open(index_dir, cfg)
    texts = [(qid, text, terms) for qid, text in queries
             if (terms := index.analyze(text))]
    # every intersection in one scan: Q queries pay one task per group,
    # not Q scheduling round-trips and segment re-reads
    shards = _postings_bitmaps(
        index, [(terms, []) for _, _, terms in texts], index.deleted)
    jobs = [(qid, text, sh) for (qid, text, _), sh in zip(texts, shards)
            if sh is not None]
    return _masked_topk(index, jobs, k, params)


def bool_query_topk(
    index_dir: str,
    specs: list[tuple[str, str, str, str]],
    k: int = 10,
    params: BM25Params | None = None,
    cfg: IndexConfig | None = None,
) -> pa.Table:
    """Full boolean retrieval — Lucene's MUST / SHOULD / MUST_NOT triad.

    ``specs``: (qid, must, should, must_not) text fields, each run
    through the index's analyzer.  Eligibility: a doc must contain ALL
    must terms (strict — an OOV must term empties the query; empty
    must text means "all docs") and NONE of the must_not terms (an OOV
    must_not term excludes nothing).  Scoring: ordinary BM25 over the
    CONCATENATED must + should text (MUST clauses score too, Lucene's
    behavior), dense semantics confined to the eligible set — an
    eligible doc matching no scoring term ranks at the query constant.

    Each group's task evaluates must-AND and must_not-OR for every
    query of the batch at once (``_postings_bitmaps``), and ONE
    ``search(allowed=[eligibility shards per query])`` scores the whole
    batch; a query with neither clause passes None (every live doc).
    The exclusion never touches the scorers, it is pure mask
    composition."""
    params = params or BM25Params()
    index = Index.open(index_dir, cfg)
    toks = index.analyze
    # (qid, score text, must terms, must_not terms) of the queries with
    # something to rank by (must and should not all stopword/OOV)
    plans = [(qid, text, toks(must), toks(must_not))
             for qid, must, should, must_not in specs
             if toks(text := (must + " " + should).strip())]
    scan = [i for i, (_, _, m, n) in enumerate(plans) if m or n]
    elig = dict(zip(scan, _postings_bitmaps(
        index, [plans[i][2:] for i in scan], index.deleted)))
    # unscanned queries pass None (every live doc); scanned ones with
    # no eligible doc drop out
    jobs = [(qid, text, elig.get(i)) for i, (qid, text, _, _) in enumerate(plans)
            if elig.get(i, True) is not None]
    return _masked_topk(index, jobs, k, params)
