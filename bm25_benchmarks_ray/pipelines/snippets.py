"""Snippet (best-passage highlight) extraction for retrieval results.

The classic search-result surface (Lucene's Highlighter / unified
highlighter): for every (query, hit) pair, find the window of W kept
tokens containing the most query-term occurrences and return it as the
hit's snippet.  The reference harness has no equivalent (bm25s returns
bare doc ids); a complete engine needs one.

Contract (mirrored exactly by driver_api.snippet_topk_sql):

* the window slides over the KEPT token stream (stopwords removed,
  positions renumbered — the same stream every other operator here
  scores on), width ``window`` capped at the doc's kept length;
* window score = number of positions inside it whose term is one of
  the query's DISTINCT tokenized terms (occurrences count, not
  distinct terms — "beta beta" in-window scores 2);
* ties break to the EARLIEST window start;
* the document stream splits and case-folds as the index was built
  (the index config's ``lower`` and splitter), and query terms come
  from the index's analyzer (``Index.analyze``);
* ``snippet`` is the window's kept SURFACE tokens (case-folded as
  indexed, unstemmed — under a stemmed analyzer membership still tests
  the stemmed forms, but the excerpt shows the words the document
  used) joined by one space — a normalized excerpt reconstructable by
  the SQL oracle;
* ``snippet_raw`` quotes the ORIGINAL text verbatim: the substring
  from the first window token's character offset to the last window
  token's end — original casing, punctuation and stopwords intact.
  Offsets come from re-running the token regex positionally over the
  hit doc's text at snippet time (hits are Q×k docs, so this is
  bounded work and needs no index-format change); when lowercasing
  changes the string's length (rare Unicode), the excerpt quotes the
  lowercased text so offsets stay exact.  A custom splitter has no
  positional form, so there ``snippet_raw`` repeats ``snippet``.

Shape: ranking comes first (``search`` — unchanged), so snippets are
needed for exactly Q×k docs.  One streaming pass over the corpus
re-tokenizes only HIT docs — read span pruned to the hits' doc range,
per-batch membership by searchsorted against the broadcast SORTED hit
ids (Q·k·8 bytes; hits are top-k results, so unlike the phrase
candidate set a num_docs/8 bitmap is never justified here) — and
computes every (qid, doc) window argmax vectorized: per-doc sliding
window sums via one cumsum, argmax per hit pair.  Output is Q×k rows
— never corpus-scale.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..config import IndexConfig
from ..functions.bm25 import BM25Params
from ..functions.tokenizer import TOKEN_RE, dict_token_stream
from .query import Index, search

__all__ = ["snippet_topk"]


def _best_window(
    is_hit: np.ndarray, w: int
) -> tuple[int, int]:
    """(start, score) of the best width-``w`` window over a 0/1 hit
    indicator — max window sum, earliest start on ties; w is capped at
    the array length by the caller."""
    c = np.zeros(is_hit.size + 1, dtype=np.int64)
    np.cumsum(is_hit, out=c[1:])
    sums = c[w:] - c[:-w]          # window sums for starts 0..L-w
    s = int(np.argmax(sums))       # argmax returns the FIRST maximum
    return s, int(sums[s])


def snippet_topk(
    index_dir: str,
    docs_path: str,
    queries: list[tuple[str, str]],
    k: int = 10,
    window: int = 8,
    params: BM25Params | None = None,
    cfg: IndexConfig | None = None,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> pa.Table:
    """BM25 top-k plus the best-window snippet per hit:
    (qid, doc_id, rank, score, snip_start, snip_score, snippet,
    snippet_raw).  ``snip_start`` is the 1-based kept-stream position
    of the window (the SQL oracle's row_number space); ``snippet_raw``
    quotes the original text verbatim (see module doc)."""
    if window < 1:
        raise ValueError("window must be >= 1")
    params = params or BM25Params()
    index = Index.open(index_dir, cfg)
    # the index's own analyzer: the document stream below splits and
    # case-folds as the build did, then drops stopwords and stems
    tok = index.tokenizer
    stopwords, stemmer = tok.stopwords, tok.stemmer

    res = search(
        index, queries, params=params, k=k, join_back=False
    ).to_pandas()
    res["score"] = res["score"].round(6)
    res = res.sort_values(["qid", "score", "doc_id"],
                          ascending=[True, False, True])
    res["rank"] = res.groupby("qid").cumcount() + 1

    empty_cols = {
        "qid": pa.array([], type=pa.string()),
        "doc_id": pa.array([], type=pa.int64()),
        "rank": pa.array([], type=pa.int64()),
        "score": pa.array([], type=pa.float64()),
        "snip_start": pa.array([], type=pa.int64()),
        "snip_score": pa.array([], type=pa.int64()),
        "snippet": pa.array([], type=pa.string()),
        "snippet_raw": pa.array([], type=pa.string()),
    }
    if res.empty:
        return pa.table(empty_cols)

    # hit structures: doc -> [(qid, terms-set-id)], one distinct-term
    # set per qid (weights are irrelevant to window counts)
    qterms: dict[str, set[str]] = {
        qid: set(index.analyze(text)) for qid, text in queries
    }
    hit_doc = res["doc_id"].to_numpy(np.int64)
    hit_qid = res["qid"].to_numpy(object)
    order = np.argsort(hit_doc, kind="stable")
    hd_sorted, hq_sorted = hit_doc[order], hit_qid[order]

    # membership by searchsorted against the SORTED hit ids (Q·k·8
    # bytes broadcast — hits are top-k results, so unlike the phrase
    # candidate set this never justifies a num_docs/8 bitmap)
    hit_ids = np.unique(hit_doc)
    ids_ref = ray.put(hit_ids)
    span_lo, span_hi = int(hit_doc.min()), int(hit_doc.max()) + 1

    def snip(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {"qid": pa.array([], type=pa.string()),
             "doc_id": pa.array([], type=pa.int64()),
             "snip_start": pa.array([], type=pa.int64()),
             "snip_score": pa.array([], type=pa.int64()),
             "snippet": pa.array([], type=pa.string()),
             "snippet_raw": pa.array([], type=pa.string())}
        )
        d = batch.column(id_col)
        m = pc.and_(pc.greater_equal(d, span_lo), pc.less(d, span_hi))
        batch = batch.filter(m)
        ids = batch.column(id_col).to_numpy().astype(np.int64, copy=False)
        if ids.size == 0:
            return empty
        hid = ray.get(ids_ref)
        pos = np.searchsorted(hid, ids)
        ok = pos < hid.size
        ok[ok] = hid[pos[ok]] == ids[ok]
        sel = np.flatnonzero(ok)
        if sel.size == 0:
            return empty
        sel_ids = ids[sel]
        sel_texts = batch.column(text_col).take(pa.array(sel)).to_pylist()
        codes, uniq, doc_of, _ = dict_token_stream(
            batch.column(text_col).take(pa.array(sel)),
            tok.lower, tok.fast_splitter, tok.findall,
        )
        if stopwords:
            stop = np.fromiter((u in stopwords for u in uniq), dtype=bool,
                               count=len(uniq))
            keep = ~stop[codes]
            codes, doc_of = codes[keep], doc_of[keep]
        names = [stemmer(u) for u in uniq] if stemmer else list(uniq)
        starts_of = np.searchsorted(doc_of, np.arange(sel.size))
        ends_of = np.searchsorted(doc_of, np.arange(sel.size), side="right")
        out: dict[str, list] = {
            "qid": [], "doc_id": [], "snip_start": [], "snip_score": [],
            "snippet": [], "snippet_raw": [],
        }

        # kept-token character spans in the ORIGINAL text, computed
        # lazily once per hit doc (Q x k docs corpus-wide): positional
        # re-run of TOKEN_RE over the (lowered) text; offsets apply to
        # the original verbatim whenever lowercasing is length-stable.
        # A custom splitter has no positional form: no spans, and the
        # excerpt falls back to the normalized snippet.
        span_cache: dict[int, tuple[list[int], list[int], str]] = {}

        def kept_spans(p: int) -> tuple[list[int], list[int], str]:
            v = span_cache.get(p)
            if v is None:
                txt = sel_texts[p]
                low = txt.lower() if tok.lower else txt
                st: list[int] = []
                en: list[int] = []
                for mt in TOKEN_RE.finditer(low) if tok.fast_splitter else ():
                    if stopwords and mt.group() in stopwords:
                        continue
                    st.append(mt.start())
                    en.append(mt.end())
                src = txt if len(low) == len(txt) else low
                v = span_cache[p] = (st, en, src)
            return v
        # per distinct qid present among this batch's hits: one
        # membership vector over the batch dictionary, then per-doc
        # window argmax (docs per batch × hits per doc is small — the
        # scan is already bitmap-confined to Q×k docs corpus-wide)
        lo_i = int(np.searchsorted(hd_sorted, int(sel_ids.min()), side="left"))
        hi_i = int(np.searchsorted(hd_sorted, int(sel_ids.max()), side="right"))
        here = slice(lo_i, hi_i)
        pos_of = {int(v): int(p) for p, v in enumerate(sel_ids)}
        member_cache: dict[str, np.ndarray] = {}
        for hdoc, hq in zip(hd_sorted[here], hq_sorted[here]):
            p = pos_of.get(int(hdoc))
            if p is None:
                continue
            mem = member_cache.get(hq)
            if mem is None:
                ts = qterms[hq]
                mem = member_cache[hq] = np.fromiter(
                    (nm in ts for nm in names), dtype=bool, count=len(names)
                )
            a, b = int(starts_of[p]), int(ends_of[p])
            toks = codes[a:b]
            if toks.size == 0:
                out["qid"].append(hq)
                out["doc_id"].append(int(hdoc))
                out["snip_start"].append(1)
                out["snip_score"].append(0)
                out["snippet"].append("")
                out["snippet_raw"].append("")
                continue
            w = min(window, toks.size)
            s, sc = _best_window(mem[toks].astype(np.int64), w)
            out["qid"].append(hq)
            out["doc_id"].append(int(hdoc))
            out["snip_start"].append(s + 1)  # 1-based (SQL row_number)
            out["snip_score"].append(sc)
            # display = kept SURFACE tokens (unstemmed); membership
            # above used the stemmed names
            out["snippet"].append(" ".join(uniq[t] for t in toks[s: s + w]))
            st_, en_, src_ = kept_spans(p)
            if s < len(st_) and s + w - 1 < len(en_):
                out["snippet_raw"].append(src_[st_[s]: en_[s + w - 1]])
            else:  # span/stream divergence guard: fall back to normalized
                out["snippet_raw"].append(out["snippet"][-1])
        return pa.table(
            {"qid": pa.array(out["qid"], type=pa.string()),
             "doc_id": pa.array(out["doc_id"], type=pa.int64()),
             "snip_start": pa.array(out["snip_start"], type=pa.int64()),
             "snip_score": pa.array(out["snip_score"], type=pa.int64()),
             "snippet": pa.array(out["snippet"], type=pa.string()),
             "snippet_raw": pa.array(out["snippet_raw"], type=pa.string())}
        )

    # hit-doc span predicate pushed into the parquet fragments for
    # real row-group pruning; the in-task filter stays as the guard
    ds = rd.read_parquet(
        docs_path, columns=[id_col, text_col],
        filter=(pc.field(id_col) >= span_lo) & (pc.field(id_col) < span_hi),
    )
    parts = list(
        ds.map_batches(snip, batch_format="pyarrow").iter_batches(
            batch_size=None, batch_format="pyarrow"
        )
    )
    snips = (
        pa.concat_tables(parts).to_pandas()
        if parts
        else pd.DataFrame(columns=["qid", "doc_id", "snip_start",
                                   "snip_score", "snippet", "snippet_raw"])
    )
    merged = res.merge(snips, on=["qid", "doc_id"], how="left")
    merged["snip_start"] = merged["snip_start"].fillna(1).astype(np.int64)
    merged["snip_score"] = merged["snip_score"].fillna(0).astype(np.int64)
    merged["snippet"] = merged["snippet"].fillna("")
    merged["snippet_raw"] = merged["snippet_raw"].fillna("")
    merged = merged.sort_values(["qid", "rank"])
    return pa.table(
        {"qid": pa.array(merged["qid"], type=pa.string()),
         "doc_id": pa.array(merged["doc_id"], type=pa.int64()),
         "rank": pa.array(merged["rank"].astype(np.int64)),
         "score": pa.array(merged["score"], type=pa.float64()),
         "snip_start": pa.array(merged["snip_start"], type=pa.int64()),
         "snip_score": pa.array(merged["snip_score"], type=pa.int64()),
         "snippet": pa.array(merged["snippet"], type=pa.string()),
         "snippet_raw": pa.array(merged["snippet_raw"], type=pa.string())}
    )
