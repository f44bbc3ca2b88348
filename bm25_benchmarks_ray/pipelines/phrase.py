"""Exact phrase retrieval and conjunctive (boolean AND) retrieval.

Neither exists in the reference harness (bm25s/rank_bm25 are pure
bag-of-words scorers) but both are table-stakes fulltext-index
operations (Lucene PhraseQuery / BooleanQuery.MUST), so the engine
grows them on top of its existing primitives instead of a new index
format:

**Conjunctive AND** (``bool_and_topk``) — docs containing ALL query
terms, ranked by the ordinary BM25 score.  Pure composition: the
posting-list intersection below builds a packed doc-id bitmap per
query (pipelines/docfilter.py) and the whole batch goes to ONE
``search(allowed=[bitmap per query])`` — the filtered-retrieval
machinery does the rest (mask applied inside the scorers, stats stay
full-corpus).

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

Scale: the cost is the phrase terms' postings plus ~1 varint per
occurrence; the counts table is (qid, doc_id, ptf, dl) —
materialized once for the df aggregate, match-scale, never
corpus-scale.  The boolean bitmaps have the 10^12-doc sharding story
documented in pipelines/docfilter.py.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import ray.data as rd

from ..config import IndexConfig
from ..functions.bm25 import BM25Params, idf as idf_fn, tf_shape
from .docfilter import bitmap_nbytes, invert_bitmap
from .query import Index, search
from .topk import grouped_topk

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


def _postings_bitmaps(
    index: Index,
    specs: list[tuple[str, list[str] | set[str], str]],
) -> dict[str, np.ndarray]:
    """Packed uint8 bitmaps (docfilter layout) over the index's posting
    lists, for MANY specs in ONE distributed scan.  Each spec is
    (key, terms, op): docs containing ALL terms (op="and",
    rarest-df-first sorted intersection) or ANY (op="or", running
    merge).  Returns {key: bitmap}.

    Batching is the point (a Q-query phrase/boolean batch costs one
    scheduling round-trip and ONE vocab + segment read per group, not
    Q): every task reads the UNION of all specs' terms once, decodes
    each term once into its sorted doc array, then evaluates every
    spec against the shared decode cache.

    op="and": any term absent from the vocab ⇒ all-zeros (strict
    conjunction).  op="or": absent terms simply contribute nothing.
    Bitmaps span the index's id bound (``Index.id_bound``)."""
    block_size = index.cfg.block_size
    out: dict[str, np.ndarray] = {
        key: np.zeros(bitmap_nbytes(index.id_bound), dtype=np.uint8)
        for key, _, _ in specs
    }
    union_terms = sorted({t for _, terms, _ in specs for t in terms})
    if not union_terms:
        raise ValueError("postings bitmap needs at least one term")
    df_map = index.df_of(union_terms)
    # per-spec evaluation order (AND: rarest df first for early empty)
    plans: list[tuple[str, list[str], bool]] = []
    scan_terms: set[str] = set()
    for key, terms, op in specs:
        terms = sorted(set(terms))
        conj = op == "and"
        if conj and any(t not in df_map for t in terms):
            continue  # an OOV term can match no doc: stays all-zeros
        use = [t for t in terms if t in df_map]
        if not use:
            continue
        if conj:
            use.sort(key=df_map.get)
        plans.append((key, use, conj))
        scan_terms.update(use)
    if not plans:
        return out
    use_all = sorted(scan_terms)

    def scan(batch: pa.Table) -> pa.Table:
        from ..stages.segments import decode_segment, segment_rows_by_term

        key_out: list[str] = []
        lo_out: list[int] = []
        buf_out: list[bytes] = []
        for gd in batch.column("group_dir").to_pylist():
            seg = pads.dataset(gd).to_table(
                filter=pc.field("term").isin(use_all)
            )
            rbt = segment_rows_by_term(seg)
            dec: dict[str, np.ndarray] = {}

            def docs_of(t: str) -> np.ndarray | None:
                d = dec.get(t)
                if d is None:
                    rows = rbt.get(t)
                    if not rows:
                        return None
                    # multi-part rows (term split across sort
                    # partitions) arrive sorted by first doc, so
                    # concat stays ascending
                    parts = [decode_segment(r, block_size)[0] for r in rows]
                    d = parts[0] if len(parts) == 1 else np.concatenate(parts)
                    dec[t] = d
                return d

            for key, use, conj in plans:
                cur: np.ndarray | None = None
                for t in use:
                    d = docs_of(t)
                    if d is None:
                        if conj:
                            cur = None
                            break
                        continue
                    if cur is None:
                        cur = d
                    elif conj:
                        cur = _intersect_sorted(cur, d)
                        if cur.size == 0:
                            break
                    else:
                        cur = np.union1d(cur, d)
                if cur is None or cur.size == 0:
                    continue
                b_lo = int(cur[0]) >> 3
                bits = np.zeros(
                    ((int(cur[-1]) >> 3) + 1 - b_lo) << 3, dtype=np.uint8
                )
                bits[cur - (b_lo << 3)] = 1
                key_out.append(key)
                lo_out.append(b_lo)
                buf_out.append(
                    np.packbits(bits, bitorder="little").tobytes()
                )
        return pa.table(
            {"key": pa.array(key_out, type=pa.string()),
             "byte_lo": pa.array(lo_out, type=pa.int64()),
             "buf": pa.array(buf_out, type=pa.binary())}
        )

    items = [{"group_dir": index.group_dir(g)} for g in index.gids]
    chunks = rd.from_items(items).map_batches(
        scan, batch_format="pyarrow", batch_size=1
    )
    # groups own disjoint doc ranges, so chunk ORs commute
    for b in chunks.iter_batches(batch_size=None, batch_format="pyarrow"):
        for key_, lo_, buf in zip(b.column("key").to_pylist(),
                                  b.column("byte_lo").to_pylist(),
                                  b.column("buf").to_pylist()):
            chunk = np.frombuffer(buf, dtype=np.uint8)
            out[key_][lo_: lo_ + chunk.size] |= chunk
    return out


def candidate_bitmap(index_dir: str, terms: list[str] | set[str]) -> np.ndarray:
    """Packed bitmap of docs containing ALL ``terms`` — distributed
    posting-list intersection (see _postings_bitmaps)."""
    return _postings_bitmaps(Index.open(index_dir), [("q", terms, "and")])["q"]


_EMPTY_COUNTS = pa.table(
    {"qid": pa.array([], type=pa.string()),
     "doc_id": pa.array([], type=pa.int64()),
     "ptf": pa.array([], type=pa.int64()),
     "dl": pa.array([], type=pa.int64())}
)


def _positions_counts(
    index: Index,
    phrases: list[tuple[str, list[str]]],
    gap: int,
) -> rd.Dataset:
    """Occurrence counts from the index's positions (pipelines/
    positions.py — the Lucene .pos path, reference analogue
    on_pyserini.py --storePositions): per group, ONE term-pruned read
    of the phrase terms' position rows resolves every query's
    occurrence count without touching the corpus text.  Per (query,
    group): each phrase slot's occurrences become sorted uint64 keys
    ((doc - norms_lo) << 32) | kept_pos; gap=1 is membership (key p
    matches iff p+j is present for every slot j), gap>1 a backward DP:
    a position of term j chains iff the NEAREST chaining position of
    term j+1 strictly after it is within ``gap`` in the same doc (if
    any continuation is in range, the nearest is), so an occurrence is
    a START position from which a full in-order chain exists, counted
    once per start (count(DISTINCT k0.rn) in the SQL oracle).  Emits
    the (qid, doc_id, ptf, dl) counts table, dl read from the group's
    norms."""
    from .positions import positions_for_terms
    from .query import _group_norms

    union_terms = sorted({t for _, toks in phrases for t in toks})
    block_size = index.cfg.block_size
    items = [
        {"group_dir": index.group_dir(g), "norms_lo": index.norms_lo(g)}
        for g in index.gids
    ]

    def scan(batch: pa.Table) -> pa.Table:
        out_q: list[np.ndarray] = []
        out_d: list[np.ndarray] = []
        out_tf: list[np.ndarray] = []
        out_dl: list[np.ndarray] = []
        for gd, lo in zip(*(batch.column(c).to_pylist()
                            for c in ("group_dir", "norms_lo"))):
            pmap = positions_for_terms(gd, union_terms, block_size)
            norms = _group_norms(gd, lo)[0]
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
                        (np.repeat((docs - lo).astype(np.uint64), counts)
                         << np.uint64(32))
                        | pos_abs.astype(np.uint64)
                    )
                return ks

            for qid, toks in phrases:
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
                    (starts >> np.uint64(32)).astype(np.int64),
                    return_counts=True,
                )
                out_q.append(np.full(doc_rel.size, qid, dtype=object))
                out_d.append(doc_rel + lo)
                out_tf.append(ptf.astype(np.int64))
                out_dl.append(norms[doc_rel].astype(np.int64))
        if not out_q:
            return _EMPTY_COUNTS
        return pa.table(
            {"qid": pa.array(np.concatenate(out_q), type=pa.string()),
             "doc_id": pa.array(np.concatenate(out_d), type=pa.int64()),
             "ptf": pa.array(np.concatenate(out_tf)),
             "dl": pa.array(np.concatenate(out_dl))}
        )

    return rd.from_items(items).map_batches(
        scan, batch_format="pyarrow", batch_size=1
    )


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
    num_docs = index.num_docs

    empty = pa.table(
        {"qid": pa.array([], type=pa.string()),
         "doc_id": pa.array([], type=pa.int64()),
         "rank": pa.array([], type=pa.int64()),
         "score": pa.array([], type=pa.float64())}
    )

    tokenized = [
        (qid, toks) for qid, text in queries if (toks := index.analyze(text))
    ]
    if not tokenized:
        return empty
    counts = _positions_counts(index, tokenized, gap).materialize()
    if counts.count() == 0:
        return empty

    # per-phrase df: per-block partial value counts (≤ #phrases rows per
    # block leave each task — the driver never pulls the qid column)
    def dfc(b: pa.Table) -> pa.Table:
        qarr = b.column("qid").combine_chunks().to_numpy(zero_copy_only=False)
        q, c = np.unique(qarr, return_counts=True)
        return pa.table(
            {"qid": pa.array(q, type=pa.string()),
             "n": pa.array(c, type=pa.int64())}
        )

    dfs: dict[str, int] = {}
    for b in counts.map_batches(dfc, batch_format="pyarrow").iter_batches(
        batch_size=None, batch_format="pyarrow"
    ):
        for qq, cc in zip(b.column("qid").to_pylist(),
                          b.column("n").to_pylist()):
            dfs[qq] = dfs.get(qq, 0) + int(cc)
    idf_map = {
        q: float(idf_fn(params, d, num_docs, avg_idf=index.avg_idf))
        for q, d in dfs.items()
    }
    avgdl, deleted = index.avgdl, index.deleted

    def score(batch: pa.Table) -> pa.Table:
        if deleted is not None:
            batch = batch.filter(pa.array(
                ~np.isin(batch.column("doc_id").to_numpy(), deleted)))
        w = batch.column("qid").to_pandas().map(idf_map).to_numpy()
        s = w * tf_shape(
            params,
            batch.column("ptf").to_numpy(),
            batch.column("dl").to_numpy(),
            avgdl,
        )
        return pa.table(
            {"qid": batch.column("qid"),
             "doc_id": batch.column("doc_id"),
             "score": pa.array(np.round(s, 6), type=pa.float64())}
        )

    top = grouped_topk(
        counts.map_batches(score, batch_format="pyarrow"),
        key="qid", score="score", id_col="doc_id", k=k,
    )
    parts = list(top.iter_batches(batch_size=None, batch_format="pyarrow"))
    if not parts:
        return empty
    tbl = pa.concat_tables(parts)
    if tbl.num_rows == 0:
        return empty
    return pa.table(
        {"qid": tbl.column("qid").cast(pa.string()),
         "doc_id": tbl.column("doc_id").cast(pa.int64()),
         "rank": tbl.column("rank").cast(pa.int64()),
         "score": tbl.column("score").cast(pa.float64())}
    )


_BOOL_SCHEMA = pa.schema([("qid", pa.string()), ("doc_id", pa.int64()),
                          ("rank", pa.int64()), ("score", pa.float64())])


def _masked_topk(
    index: Index,
    jobs: list[tuple[str, str, np.ndarray]],
    k: int,
    params: BM25Params,
) -> pa.Table:
    """The boolean entry points' shared tail: ONE ``search()`` over
    every (qid, score text, eligibility bitmap) job, each query masked
    by its own bitmap; scores rounded to 6 decimals and re-ranked
    (qid, score desc, doc_id asc)."""
    if not jobs:
        return _BOOL_SCHEMA.empty_table()
    tbl = search(
        index, [(q, t) for q, t, _ in jobs], params=params, k=k,
        join_back=False, allowed=[bm for _, _, bm in jobs],
    )
    tbl = pa.table({
        "qid": tbl.column("qid"), "doc_id": tbl.column("doc_id"),
        "score": np.round(tbl.column("score").to_numpy(), 6),
    })
    tbl = tbl.take(pc.sort_indices(tbl, sort_keys=[
        ("qid", "ascending"), ("score", "descending"), ("doc_id", "ascending"),
    ]))
    q = tbl.column("qid").to_numpy(zero_copy_only=False)
    first = np.flatnonzero(np.concatenate(([True], q[1:] != q[:-1])))
    rank = np.arange(1, q.size + 1) - np.repeat(
        first, np.diff(np.append(first, q.size)))
    return tbl.add_column(2, "rank", pa.array(rank, type=pa.int64()))


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
    intersection builds every query's bitmap, then ONE
    ``search(allowed=[bitmap per query])`` scores the whole batch
    (docfilter mask inside the scorers; full-corpus idf/avgdl,
    identical score values to the unfiltered ranking)."""
    params = params or BM25Params()
    index = Index.open(index_dir, cfg)
    q_terms = {
        qid: set(terms) for qid, text in queries if (terms := index.analyze(text))
    }
    # all intersections in one distributed scan (ADVICE: Q queries no
    # longer pay Q scheduling round-trips / segment re-reads)
    bms = _postings_bitmaps(
        index, [(q, t, "and") for q, t in q_terms.items()]
    ) if q_terms else {}
    jobs = [
        (qid, text, bm) for qid, text in queries
        if (bm := bms.get(qid)) is not None and bm.any()
    ]
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

    Bitmap algebra on the docfilter layout: AND-intersection bitmap
    for must (posting-list intersection), OR-union bitmap for
    must_not, eligibility = must & ~must_not, then ONE
    ``search(allowed=[eligibility per query])`` for the whole batch —
    the exclusion never touches the scorers, it is pure mask
    composition."""
    params = params or BM25Params()
    index = Index.open(index_dir, cfg)
    id_bound, toks = index.id_bound, index.analyze

    # one batched scan for every query's must-AND and must_not-OR
    # bitmaps (shared per-term decodes across the whole spec set)
    scan_specs: list[tuple[str, list[str], str]] = []
    m_of: dict[str, list[str]] = {}
    n_of: dict[str, list[str]] = {}
    for qid, must, _should, must_not in specs:
        m_of[qid] = toks(must)
        n_of[qid] = toks(must_not)
        if m_of[qid]:
            scan_specs.append((f"m:{qid}", m_of[qid], "and"))
        if n_of[qid]:
            scan_specs.append((f"n:{qid}", n_of[qid], "or"))
    bms = _postings_bitmaps(index, scan_specs) if scan_specs else {}

    # one shared all-docs object: queries with no must clause publish
    # one composed mask between them
    all_docs = invert_bitmap(
        np.zeros(bitmap_nbytes(id_bound), dtype=np.uint8), id_bound
    )
    jobs: list[tuple[str, str, np.ndarray]] = []
    for qid, must, should, must_not in specs:
        bm = bms[f"m:{qid}"] if m_of[qid] else all_docs
        if n_of[qid]:
            bm = bm & invert_bitmap(bms[f"n:{qid}"], id_bound)
        score_text = (must + " " + should).strip()
        # no eligible doc, or nothing to rank by (must and should all
        # stopword/OOV)
        if bm.any() and toks(score_text):
            jobs.append((qid, score_text, bm))
    return _masked_topk(index, jobs, k, params)
