"""Exact phrase retrieval + conjunctive AND retrieval
(pipelines/phrase.py) vs pure-Python references: kept-stream adjacency
semantics, candidate intersection, virtual-term BM25 scoring, strict
AND masking, and the documented edge cases (stopword-transparent
phrases, repeated terms, OOV, single-term degenerate, overlaps)."""

from __future__ import annotations

import os
import re
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from bm25_benchmarks_ray.config import IndexConfig
from bm25_benchmarks_ray.functions.bm25 import BM25Params, idf, tf_shape
from bm25_benchmarks_ray.functions.tokenizer import (
    STOPWORDS_EN,
    resolve_stemmer,
    tokenize_text,
)
from bm25_benchmarks_ray.pipelines.docfilter import popcount
from bm25_benchmarks_ray.pipelines.index_build import build_index
from bm25_benchmarks_ray.pipelines.phrase import (
    bool_and_topk,
    candidate_bitmap,
    phrase_topk,
)

from tests.oracle import build_oracle_index, oracle_scores

TOKEN_RE = re.compile(r"(?u)\b\w\w+\b")

WORDS = [
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
    "iota", "kappa", "the", "and", "of",
]


def _mk_texts(n: int, seed: int) -> list[str]:
    rng = np.random.RandomState(seed)
    return [
        " ".join(rng.choice(WORDS, size=rng.randint(5, 40)))
        for _ in range(n)
    ]


def _kept(text: str, stemmer=None) -> list[str]:
    toks = [t for t in TOKEN_RE.findall(text.lower()) if t not in STOPWORDS_EN]
    return [stemmer(t) for t in toks] if stemmer else toks


def _py_phrase_counts(texts: list[str], phrase_toks: list[str], stemmer=None):
    """{doc_id: (ptf, dl)} over the kept stream — overlapping counts."""
    out = {}
    n = len(phrase_toks)
    for d, text in enumerate(texts):
        ks = _kept(text, stemmer)
        ptf = sum(
            1 for i in range(len(ks) - n + 1) if ks[i : i + n] == phrase_toks
        )
        if ptf:
            out[d] = (ptf, len(ks))
    return out


def _py_phrase_topk(texts, phrase: str, params, k=10, stemmer=None):
    toks = tokenize_text(phrase, stopwords=STOPWORDS_EN, stemmer=stemmer)
    hits = _py_phrase_counts(texts, toks, stemmer)
    if not hits:
        return []
    n_docs = len(texts)
    avgdl = sum(len(_kept(t, stemmer)) for t in texts) / n_docs
    w = float(idf(params, len(hits), n_docs))
    rows = [
        (d, round(w * float(tf_shape(params, np.array([ptf]),
                                     np.array([dl]), avgdl)[0]), 6))
        for d, (ptf, dl) in hits.items()
    ]
    rows.sort(key=lambda r: (-r[1], r[0]))
    return rows[:k]


@pytest.fixture(scope="module")
def corpus(ray_session, tmp_path_factory):
    texts = _mk_texts(240, seed=5)
    # planted phrases so every case has known matches
    texts[3] = "alpha beta gamma " + texts[3]
    texts[7] = texts[7] + " alpha the beta"        # stopword-transparent
    texts[11] = "kappa kappa kappa"                # overlapping repeats
    texts[15] = "alpha beta alpha beta gamma"
    d = tmp_path_factory.mktemp("pcorpus")
    p = os.path.join(d, "docs.parquet")
    pq.write_table(
        pa.table(
            {"doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
             "text": pa.array(texts, type=pa.string())}
        ),
        p,
    )
    idx = str(tmp_path_factory.mktemp("pidx") / "index")
    build_index(p, idx, IndexConfig(stopwords="en", stemmer="none",
                                    positions=True),
                mode="documents", n_groups=3)
    return idx, p, texts


def test_candidate_bitmap_matches_set_intersection(corpus):
    idx, _, texts = corpus
    for terms in (["alpha"], ["alpha", "beta"], ["alpha", "beta", "kappa"]):
        bm = candidate_bitmap(idx, terms)
        assert popcount(bm) == int(
            sum((bm[d >> 3] >> (d & 7)) & 1 for d in range(len(texts)))
        )
        got = {
            d for d in range(len(texts)) if (bm[d >> 3] >> (d & 7)) & 1
        }
        want = {
            d for d, t in enumerate(texts)
            if all(term in _kept(t) for term in terms)
        }
        assert got == want, terms


def test_candidate_bitmap_oov_is_empty(corpus):
    idx, _, _ = corpus
    assert not candidate_bitmap(idx, ["alpha", "zzmissing"]).any()


@pytest.mark.parametrize("phrase", [
    "alpha beta",            # planted bigram
    "alpha beta gamma",      # trigram
    "alpha the beta",        # stopword inside the PHRASE text vanishes
    "kappa kappa",           # repeated term, overlapping occurrences
    "gamma",                 # single-term degenerate
])
def test_phrase_topk_matches_python_reference(corpus, phrase):
    idx, _, texts = corpus
    params = BM25Params(method="lucene")
    got = phrase_topk(idx, [("q", phrase)], k=10, params=params).to_pandas()
    want = _py_phrase_topk(texts, phrase, params, k=10)
    assert len(got) == len(want)
    assert list(got["doc_id"]) == [d for d, _ in want]
    assert np.allclose(got["score"], [s for _, s in want], atol=1e-6)
    assert list(got["rank"]) == list(range(1, len(want) + 1))


def test_phrase_stopword_transparent_doc_side(corpus):
    """'alpha beta' matches doc 7's 'alpha the beta' — removed stopwords
    leave no position gap (module semantics contract)."""
    idx, _, texts = corpus
    got = phrase_topk(idx, [("q", "alpha beta")], k=200).to_pandas()
    assert 7 in set(got["doc_id"])


def test_phrase_overlapping_occurrences(corpus):
    """'kappa kappa kappa' contains 'kappa kappa' twice (overlap)."""
    idx, _, texts = corpus
    got = phrase_topk(idx, [("q", "kappa kappa")], k=200).to_pandas()
    row = got[got["doc_id"] == 11]
    assert len(row) == 1
    ref = _py_phrase_counts(texts, ["kappa", "kappa"])
    assert ref[11][0] == 2


def test_phrase_oov_and_empty(corpus):
    idx, _, _ = corpus
    assert phrase_topk(idx, [("q", "alpha zzmissing")], k=10).num_rows == 0
    assert phrase_topk(idx, [("q", "the of")], k=10).num_rows == 0


def test_phrase_multi_query_batch(corpus):
    """Several phrases share one positions read; results match the
    per-phrase runs exactly."""
    idx, _, texts = corpus
    params = BM25Params(method="lucene")
    batch = phrase_topk(
        idx,
        [("a", "alpha beta"), ("b", "kappa kappa"), ("c", "zz nope")],
        k=5, params=params,
    ).to_pandas()
    for qid, phrase in (("a", "alpha beta"), ("b", "kappa kappa")):
        sub = batch[batch["qid"] == qid]
        want = _py_phrase_topk(texts, phrase, params, k=5)
        assert list(sub["doc_id"]) == [d for d, _ in want]
    assert "c" not in set(batch["qid"])


def test_phrase_stemmed_matching(ray_session, tmp_path_factory):
    """Phrase adjacency under the stemmed analyzer: 'running jumps'
    matches 'runs jumped' (both stem to run/jump)."""
    texts = ["he runs jumped over", "running jumping around", "runs gamma jumped"]
    d = tmp_path_factory.mktemp("scorpus")
    p = os.path.join(d, "docs.parquet")
    pq.write_table(
        pa.table({"doc_id": pa.array([0, 1, 2], type=pa.int64()),
                  "text": pa.array(texts)}), p)
    idx = str(tmp_path_factory.mktemp("sidx") / "index")
    build_index(p, idx, IndexConfig(stopwords="en", stemmer="snowball",
                                    positions=True),
                mode="documents", n_groups=1)
    st = resolve_stemmer("snowball")
    got = phrase_topk(idx, [("q", "running jumps")], k=10).to_pandas()
    want = _py_phrase_topk(texts, "running jumps", BM25Params(), k=10,
                           stemmer=st)
    assert list(got["doc_id"]) == [dd for dd, _ in want]
    assert set(got["doc_id"]) == {0, 1}  # doc 2 has gamma between


def test_bool_and_topk_vs_oracle(corpus):
    """AND semantics: ranking equals the full numpy-oracle BM25 scores
    restricted to docs containing every query term."""
    idx, _, texts = corpus
    params = BM25Params(method="lucene")
    oracle = build_oracle_index(texts)
    q = "alpha beta kappa"
    got = bool_and_topk(idx, [("q", q)], k=10, params=params).to_pandas()
    terms = set(tokenize_text(q, stopwords=STOPWORDS_EN, stemmer=None))
    allowed = [d for d, t in enumerate(texts) if terms <= set(_kept(t))]
    scores = oracle_scores(oracle, q, params)
    rows = sorted(
        ((d, round(float(scores[d]), 6)) for d in allowed),
        key=lambda r: (-r[1], r[0]),
    )[:10]
    assert list(got["doc_id"]) == [d for d, _ in rows]
    assert np.allclose(got["score"], [s for _, s in rows], atol=1e-6)


def test_bool_and_oov_query_empty(corpus):
    idx, _, _ = corpus
    assert bool_and_topk(idx, [("q", "alpha zzmissing")], k=5).num_rows == 0


def test_bool_and_fewer_than_k(ray_session, tmp_path_factory):
    """Conjunctive matches below k return exactly the match count —
    never padded (an allowed doc is by construction matched, so the
    dense qconst padding has nothing to add)."""
    texts = ["alpha beta", "beta gamma", "alpha beta gamma", "delta eta"]
    d = tmp_path_factory.mktemp("bcorpus")
    p = os.path.join(d, "docs.parquet")
    pq.write_table(
        pa.table({"doc_id": pa.array(np.arange(4, dtype=np.int64)),
                  "text": pa.array(texts)}), p)
    idx = str(tmp_path_factory.mktemp("bidx") / "index")
    build_index(p, idx, IndexConfig(stopwords="en", stemmer="none"),
                mode="documents", n_groups=1)
    got = bool_and_topk(idx, [("q", "alpha beta gamma")], k=10).to_pandas()
    assert list(got["doc_id"]) == [2] and list(got["rank"]) == [1]


# ---------------------------------------------------------------------
# ordered proximity (NEAR): gap > 1
# ---------------------------------------------------------------------

def _py_near_counts(texts, toks, gap, stemmer=None):
    """{doc_id: (starts, dl)} — exists-semantics chain starts, found by
    exhaustive recursion (the slow-but-obvious reference)."""
    out = {}
    n = len(toks)
    for d, text in enumerate(texts):
        ks = _kept(text, stemmer)

        def chain(i, j):
            if j == n - 1:
                return True
            return any(
                ks[q] == toks[j + 1] and chain(q, j + 1)
                for q in range(i + 1, min(i + gap, len(ks) - 1) + 1)
            )

        ptf = sum(1 for i in range(len(ks)) if ks[i] == toks[0] and chain(i, 0))
        if ptf:
            out[d] = (ptf, len(ks))
    return out


def test_near_gap1_equals_phrase(corpus):
    idx, _, _ = corpus
    for phrase in ("alpha beta", "kappa kappa", "gamma"):
        a = phrase_topk(idx, [("q", phrase)], k=50, gap=1).to_pandas()
        b = phrase_topk(idx, [("q", phrase)], k=50).to_pandas()
        assert list(a["doc_id"]) == list(b["doc_id"])
        assert np.allclose(a["score"], b["score"])


@pytest.mark.parametrize("phrase,gap", [
    ("alpha gamma", 2),       # skip one token between
    ("alpha beta", 3),        # wider window than needed
    ("alpha beta gamma", 2),  # 3-term chain with slack
    ("kappa kappa", 2),       # repeated term, windowed
])
def test_near_matches_python_reference(corpus, phrase, gap):
    idx, _, texts = corpus
    got = phrase_topk(idx, [("q", phrase)], k=300, gap=gap).to_pandas()
    toks = tokenize_text(phrase, stopwords=STOPWORDS_EN, stemmer=None)
    want = _py_near_counts(texts, toks, gap)
    assert set(got["doc_id"]) == set(want)
    # tf parity: recompute scores from the reference counts
    n_docs = len(texts)
    avgdl = sum(len(_kept(t)) for t in texts) / n_docs
    w = float(idf(BM25Params(), len(want), n_docs))
    ref = {
        d: round(w * float(tf_shape(BM25Params(), np.array([ptf]),
                                    np.array([dl]), avgdl)[0]), 6)
        for d, (ptf, dl) in want.items()
    }
    for d, s in zip(got["doc_id"], got["score"]):
        assert abs(ref[int(d)] - float(s)) < 1e-6


def test_near_nongreedy_chain(ray_session, tmp_path_factory):
    """The DP-over-valid-set case a greedy nearest-next scan would
    miss: zeta@0 eta@1 eta@2 iota@3 theta@4, phrase (zeta, eta, theta)
    gap=2 — the chain must route 0 -> 2 -> 4 (eta@1 dead-ends)."""
    texts = ["zeta eta eta iota theta", "zeta eta iota iota theta"]
    d = tmp_path_factory.mktemp("ncorpus")
    p = os.path.join(d, "docs.parquet")
    pq.write_table(
        pa.table({"doc_id": pa.array([0, 1], type=pa.int64()),
                  "text": pa.array(texts)}), p)
    idx = str(tmp_path_factory.mktemp("nidx") / "index")
    build_index(p, idx, IndexConfig(stopwords="en", stemmer="none",
                                    positions=True),
                mode="documents", n_groups=1)
    got = phrase_topk(idx, [("q", "zeta eta theta")], k=10,
                      gap=2).to_pandas()
    # doc 0 matches only via the farther eta; doc 1's theta is 3 past eta
    assert list(got["doc_id"]) == [0]


def test_near_gap_validation(corpus):
    idx, _, _ = corpus
    with pytest.raises(ValueError):
        phrase_topk(idx, [("q", "alpha beta")], gap=0)


# ---------------------------------------------------------------------
# boolean triad: MUST / SHOULD / MUST_NOT
# ---------------------------------------------------------------------

def _py_bool_topk(texts, must, should, must_not, params, k=10):
    """Reference: eligibility filter over kept-token sets, dense BM25
    scores over must+should from the numpy oracle."""
    m = set(tokenize_text(must, stopwords=STOPWORDS_EN, stemmer=None))
    n = set(tokenize_text(must_not, stopwords=STOPWORDS_EN, stemmer=None))
    kept_sets = [set(_kept(t)) for t in texts]
    vocab = set().union(*kept_sets)
    if m - vocab:
        return []  # strict: OOV must term
    elig = [
        d for d in range(len(texts))
        if m <= kept_sets[d] and not (n & kept_sets[d])
    ]
    if not elig:
        return []
    oracle = build_oracle_index(texts)
    scores = oracle_scores(oracle, f"{must} {should}".strip(), params)
    rows = sorted(
        ((d, round(float(scores[d]), 6)) for d in elig),
        key=lambda r: (-r[1], r[0]),
    )[:k]
    return rows


@pytest.mark.parametrize("must,should,must_not", [
    ("alpha", "beta gamma", "kappa"),     # full triad
    ("alpha beta", "", ""),               # must-only
    ("alpha", "gamma", "zzmissing"),      # OOV must_not excludes nothing
    ("", "alpha beta", "kappa"),          # empty must: all docs minus kappa
])
def test_bool_query_vs_reference(corpus, must, should, must_not):
    from bm25_benchmarks_ray.pipelines.phrase import bool_query_topk

    idx, _, texts = corpus
    params = BM25Params(method="lucene")
    got = bool_query_topk(
        idx, [("q", must, should, must_not)], k=10, params=params
    ).to_pandas()
    want = _py_bool_topk(texts, must, should, must_not, params, k=10)
    assert list(got["doc_id"]) == [d for d, _ in want]
    assert np.allclose(got["score"], [s for _, s in want], atol=1e-6)


def test_bool_query_oov_must_is_empty(corpus):
    from bm25_benchmarks_ray.pipelines.phrase import bool_query_topk

    idx, _, _ = corpus
    got = bool_query_topk(idx, [("q", "alpha zzmissing", "beta", "")], k=10)
    assert got.num_rows == 0


def test_bool_query_exclusion_respected(corpus):
    """No returned doc may contain a must_not term."""
    from bm25_benchmarks_ray.pipelines.phrase import bool_query_topk

    idx, _, texts = corpus
    got = bool_query_topk(idx, [("q", "alpha", "", "kappa")],
                          k=200).to_pandas()
    assert len(got) > 0
    for d in got["doc_id"]:
        ks = set(_kept(texts[int(d)]))
        assert "alpha" in ks and "kappa" not in ks


def _per_query_masked(idx, jobs, n_docs, k):
    """Reference for the boolean batches: one search(allowed=bitmap) per
    (qid, score text, eligible doc ids) job, scores rounded to 6
    decimals and re-ranked (qid, score desc, doc_id asc)."""
    import pandas as pd

    from bm25_benchmarks_ray.pipelines.docfilter import bitmap_from_ids
    from bm25_benchmarks_ray.pipelines.query import search

    res = pd.concat([
        search(idx, [(q, text)], k=k, join_back=False,
               allowed=bitmap_from_ids(np.asarray(elig), n_docs)).to_pandas()
        for q, text, elig in jobs
    ], ignore_index=True)
    res["score"] = res["score"].round(6)
    res = res.sort_values(["qid", "score", "doc_id"],
                          ascending=[True, False, True])
    res["rank"] = (res.groupby("qid").cumcount() + 1).astype(np.int64)
    return res[["qid", "doc_id", "rank", "score"]].reset_index(drop=True)


def test_bool_batches_make_one_search_call(corpus, monkeypatch):
    """A boolean batch is ONE search() call, each eligible query masked
    by its own eligibility bitmap; queries with no eligible doc or
    nothing to rank by stay out of it.  Results equal one
    search(allowed=...) per query."""
    from bm25_benchmarks_ray.pipelines import phrase

    idx, _, texts = corpus
    kept = [set(_kept(t)) for t in texts]
    calls = []
    real_search = phrase.search

    def spy(*a, **kw):
        calls.append(kw["allowed"])
        return real_search(*a, **kw)

    monkeypatch.setattr(phrase, "search", spy)

    and_qs = [("a0", "alpha beta"), ("a1", "gamma kappa"),
              ("a2", "alpha zzmissing"), ("a3", "the of")]
    got = phrase.bool_and_topk(idx, and_qs, k=10).to_pandas()
    assert len(calls) == 1 and len(calls[0]) == 2
    want = _per_query_masked(idx, [
        (q, text, [d for d, ks in enumerate(kept) if set(_kept(text)) <= ks])
        for q, text in and_qs[:2]
    ], len(texts), 10)
    assert got.equals(want)

    specs = [
        ("b0", "alpha", "beta gamma", "kappa"),
        ("b1", "", "alpha beta", "kappa"),      # empty MUST: all docs
        ("b2", "alpha", "beta", "alpha"),       # empty eligibility
        ("b3", "beta gamma", "", ""),
    ]
    got = phrase.bool_query_topk(idx, specs, k=10).to_pandas()
    assert len(calls) == 2 and len(calls[1]) == 3
    jobs = []
    for q, must, should, must_not in specs:
        m, n = set(_kept(must)), set(_kept(must_not))
        elig = [d for d, ks in enumerate(kept) if m <= ks and not n & ks]
        if elig:
            jobs.append((q, f"{must} {should}".strip(), elig))
    assert [j[0] for j in jobs] == ["b0", "b1", "b3"]
    assert got.equals(_per_query_masked(idx, jobs, len(texts), 10))


def test_bool_batches_on_tombstoned_index(ray_session, tmp_path):
    """On a two-group index with deletes, the eligibility shards a
    boolean batch builds already exclude the tombstones, and the batch
    equals one search(allowed=bitmap) per query, where search() clears
    the tombstones itself.  A query whose eligible docs are all deleted
    returns nothing."""
    from bm25_benchmarks_ray.pipelines import phrase
    from bm25_benchmarks_ray.pipelines.tombstones import delete_docs

    texts = _mk_texts(120, seed=9)
    texts[7] = "zeta only zeta"
    d = tmp_path / "docs"
    d.mkdir()
    t = pa.table({"doc_id": pa.array(np.arange(120, dtype=np.int64)),
                  "text": pa.array(texts, type=pa.string())})
    pq.write_table(t.slice(0, 60), str(d / "a.parquet"))
    pq.write_table(t.slice(60), str(d / "b.parquet"))
    idx = str(tmp_path / "index")
    build_index(str(d), idx, IndexConfig(stopwords="en", stemmer="none"),
                mode="documents", n_groups=2)
    kept = [set(_kept(x)) for x in texts]
    only = [i for i, ks in enumerate(kept) if ks == {"zeta", "only"}]
    delete_docs(idx, np.array(sorted({3, 17, 61, 90, 119, *only})))

    and_qs = [("a0", "alpha beta"), ("a1", "gamma kappa"), ("a2", "only")]
    got = phrase.bool_and_topk(idx, and_qs, k=10).to_pandas()
    want = _per_query_masked(idx, [
        (q, text, [d for d, ks in enumerate(kept) if set(_kept(text)) <= ks])
        for q, text in and_qs
    ], len(texts), 10)
    assert len(got) and "a2" not in set(got["qid"])
    assert got.equals(want)

    specs = [("b0", "alpha", "beta gamma", "kappa"),
             ("b1", "", "alpha beta", "kappa"),   # must_not only
             ("b2", "", "gamma delta", "")]       # neither: every live doc
    got = phrase.bool_query_topk(idx, specs, k=10).to_pandas()
    jobs = []
    for q, must, should, must_not in specs:
        m, n = set(_kept(must)), set(_kept(must_not))
        jobs.append((q, f"{must} {should}".strip(),
                     [d for d, ks in enumerate(kept) if m <= ks and not n & ks]))
    assert got.equals(_per_query_masked(idx, jobs, len(texts), 10))


def test_bool_slices_are_task_returns(ray_session, tmp_path, monkeypatch):
    """Boolean phase 1 publishes each (spec, group) eligibility slice as
    the ``_group_eligibility`` task's own return object: the driver
    puts only the spec plans and at most one zeros shard per group,
    whatever the number of specs, and the batch still equals one
    search(allowed=bitmap) per query."""
    from bm25_benchmarks_ray.pipelines import phrase

    texts = _mk_texts(120, seed=13)
    d = tmp_path / "docs"
    d.mkdir()
    t = pa.table({"doc_id": pa.array(np.arange(120, dtype=np.int64)),
                  "text": pa.array(texts, type=pa.string())})
    pq.write_table(t.slice(0, 60), str(d / "a.parquet"))
    pq.write_table(t.slice(60), str(d / "b.parquet"))
    idx = str(tmp_path / "index")
    build_index(str(d), idx, IndexConfig(stopwords="en", stemmer="none"),
                mode="documents", n_groups=2)
    kept = [set(_kept(x)) for x in texts]
    specs = [(f"c{i}", must, "", not_) for i, (must, not_) in enumerate([
        ("alpha", ""), ("beta", "gamma"), ("gamma delta", ""),
        ("delta", "alpha"), ("kappa", ""), ("alpha beta", "delta"),
    ])]

    puts = []
    real = phrase.ray

    class _CountingRay:
        def __getattr__(self, name):
            return getattr(real, name)

        def put(self, value):
            puts.append(value)
            return real.put(value)

    monkeypatch.setattr(phrase, "ray", _CountingRay())
    got = phrase.bool_query_topk(idx, specs, k=10).to_pandas()
    assert 1 <= len(puts) <= 1 + 2
    jobs = []
    for q, must, _, must_not in specs:
        m, n = set(_kept(must)), set(_kept(must_not))
        jobs.append((q, must, [d for d, ks in enumerate(kept)
                               if m <= ks and not n & ks]))
    assert got.equals(_per_query_masked(idx, jobs, len(texts), 10))


def test_near_randomized_sweep(corpus):
    """Randomized hardening of the chain-DP: many (phrase, gap) combos
    over the module corpus, each checked doc-for-doc against the
    exhaustive-recursion reference (exists-semantics start counts)."""
    idx, _, texts = corpus
    rng = np.random.RandomState(7)
    base = ["alpha", "beta", "gamma", "kappa", "zeta", "eta"]
    combos = []
    for _ in range(12):
        n = int(rng.randint(2, 5))
        toks = [base[i] for i in rng.randint(0, len(base), size=n)]
        combos.append((" ".join(toks), int(rng.randint(2, 5))))
    for phrase, gap in combos:
        got = phrase_topk(idx, [("q", phrase)], k=500,
                          gap=gap).to_pandas()
        toks = tokenize_text(phrase, stopwords=STOPWORDS_EN, stemmer=None)
        want = _py_near_counts(texts, toks, gap)
        assert set(got["doc_id"]) == set(want), (phrase, gap)
        if want:
            n_docs = len(texts)
            avgdl = sum(len(_kept(t)) for t in texts) / n_docs
            w = float(idf(BM25Params(), len(want), n_docs))
            for d, s in zip(got["doc_id"], got["score"]):
                ptf, dl = want[int(d)]
                ref = round(w * float(tf_shape(
                    BM25Params(), np.array([ptf]), np.array([dl]), avgdl
                )[0]), 6)
                assert abs(ref - float(s)) < 1e-6, (phrase, gap, d)
