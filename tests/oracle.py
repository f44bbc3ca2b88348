"""Single-process pure-numpy BM25 oracle used only by tests.

Mirrors the reference semantics end to end (SURVEY.md §5): tokenize per
/root/reference/utils/__init__.py:56-143, score per the five variant
formulas (SURVEY.md §2.6), exhaustive dense scoring, top-k with
(score desc, doc_id asc) tie normalization (the reference's argpartition
tie order is unspecified, /root/reference/benchmark/on_rank_bm25.py:32).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from bm25_benchmarks_ray.functions.bm25 import (
    BM25Params,
    idf,
    nonoccurrence_shape,
    tf_shape,
)
from bm25_benchmarks_ray.functions.tokenizer import (
    STOPWORDS_EN,
    resolve_stemmer,
    resolve_stopwords,
    tokenize_text,
)


@dataclass
class OracleIndex:
    doc_ids: list  # external ids, position = internal doc number
    doc_lens: np.ndarray
    avgdl: float
    n_docs: int
    postings: dict = field(default_factory=dict)  # term -> {doc_num: tf}

    @property
    def df(self) -> dict:
        return {t: len(p) for t, p in self.postings.items()}


def build_oracle_index(
    texts: list[str],
    doc_ids: list | None = None,
    stopwords="en",
    stemmer="snowball",
) -> OracleIndex:
    sw = resolve_stopwords(stopwords)
    st = resolve_stemmer(stemmer)
    if doc_ids is None:
        doc_ids = list(range(len(texts)))
    postings: dict[str, dict[int, int]] = {}
    doc_lens = np.zeros(len(texts), dtype=np.int64)
    for d, text in enumerate(texts):
        toks = tokenize_text(text, stopwords=sw, stemmer=st)
        doc_lens[d] = len(toks)
        for t in toks:
            postings.setdefault(t, {})
            postings[t][d] = postings[t].get(d, 0) + 1
    n = len(texts)
    avgdl = float(doc_lens.mean()) if n else 0.0
    return OracleIndex(doc_ids=doc_ids, doc_lens=doc_lens, avgdl=avgdl, n_docs=n, postings=postings)


def oracle_scores(
    index: OracleIndex,
    query: str,
    params: BM25Params,
    stopwords="en",
    stemmer="snowball",
) -> np.ndarray:
    """Dense float64 score vector over all docs for one query string."""
    sw = resolve_stopwords(stopwords)
    st = resolve_stemmer(stemmer)
    tokens = tokenize_text(query, stopwords=sw, stemmer=st)
    scores = np.zeros(index.n_docs, dtype=np.float64)
    s0 = nonoccurrence_shape(params)
    avg = None
    if params.method == "okapi":
        from bm25_benchmarks_ray.functions.bm25 import avg_robertson_idf

        avg = avg_robertson_idf(
            np.array([len(p) for p in index.postings.values()]), index.n_docs
        )
    for tok in tokens:  # occurrence-weighted: repeats count twice
        plist = index.postings.get(tok)
        if plist is None:
            continue  # unseen token drops out entirely
        t_idf = float(idf(params, len(plist), index.n_docs, avg_idf=avg))
        if s0:
            scores += t_idf * s0
        dnums = np.fromiter(plist.keys(), dtype=np.int64, count=len(plist))
        tfs = np.fromiter(plist.values(), dtype=np.float64, count=len(plist))
        shapes = tf_shape(params, tfs, index.doc_lens[dnums], index.avgdl)
        scores[dnums] += t_idf * (shapes - s0)
    return scores


def oracle_topk(
    index: OracleIndex,
    query: str,
    params: BM25Params,
    k: int = 10,
    stopwords="en",
    stemmer="snowball",
) -> list[tuple[object, float]]:
    """Top-k (external_doc_id, score) with (score desc, doc_num asc) ties."""
    scores = oracle_scores(index, query, params, stopwords=stopwords, stemmer=stemmer)
    order = np.lexsort((np.arange(index.n_docs), -scores))[:k]
    return [(index.doc_ids[i], float(scores[i])) for i in order]


def assert_norms_match(index_dir: str, doc_ids, texts) -> None:
    """The index's norms hold exactly each doc's kept-stream length from
    a direct ``tokenize_text`` call with the index's analyzer.  Group
    arrays are summed over the id space (an id that is not a doc of a
    group holds 0 there), so the check also proves every hole and every
    id outside the corpus reads 0."""
    import os

    from bm25_benchmarks_ray.pipelines.index_build import SEGMENTS_DIR
    from bm25_benchmarks_ray.state.manifest import Manifest
    from bm25_benchmarks_ray.state.norms import load_group_norms

    man = Manifest.load(index_dir)
    cfg = man.config
    sw = resolve_stopwords(cfg["stopwords"])
    st = resolve_stemmer(cfg["stemmer"])
    doc_ids = np.asarray(doc_ids, dtype=np.int64)
    want = np.array(
        [len(tokenize_text(x, stopwords=sw, stemmer=st, lower=cfg["lower"]))
         for x in texts], dtype=np.int64,
    )
    arrays = []
    for g in man.done_groups():
        lo = int(man.groups[str(g)]["doc_lo"])
        arrays.append((lo, load_group_norms(
            os.path.join(index_dir, SEGMENTS_DIR, f"group={g}"))))
    top = max([int(doc_ids.max()) + 1] + [lo + a.size for lo, a in arrays])
    got = np.zeros(top, dtype=np.int64)
    for lo, a in arrays:
        got[lo: lo + a.size] += a
    expect = np.zeros(top, dtype=np.int64)
    expect[doc_ids] = want
    assert np.array_equal(got, expect)
