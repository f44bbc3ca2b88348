"""Driver-contract implementation behind ``__ray_entry__.py``.

Each ``queries()`` entry is a Ray Data pipeline over the shared test
tables; each ``oracle_sql()`` entry is the ANSI-SQL equivalent DuckDB
runs on the same parquet.  BM25 pipelines here run with
``stemmer="none"`` so the SQL oracle can replicate tokenization exactly
(DuckDB has no offline Snowball; the stemmed path is covered by the
pytest oracle instead, tests/oracle.py).  Scores are rounded to 6
decimals on BOTH sides and ranking uses the rounded score so the
driver's value-hash comparison is immune to float accumulation order.

Ray is initialised by the caller — nothing here calls ray.init().
"""

from __future__ import annotations

import hashlib
import os
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa

from .config import IndexConfig
from .functions.bm25 import BM25Params
from .functions.tokenizer import STOPWORDS_EN, tokenize_text
from .pipelines.index_build import build_index
from .pipelines.query import search

CACHE_ROOT = "/tmp/bm25rd/index_cache"

# BM25 pipelines checked against DuckDB: no stemmer (see module doc).
SQL_CFG = IndexConfig(stopwords="en", stemmer="none")
# the phrase / NEAR entries' index: the same analyzer, with positions
POS_CFG = IndexConfig(stopwords="en", stemmer="none", positions=True)
# the stemmed pipeline (the reference's default config) — its oracle
# maps terms to stems via the inline _stem_map_values() VALUES list
STEMMED_CFG = IndexConfig(stopwords="en", stemmer="snowball")

# Full regex-token vocabulary of the deterministic testdata documents
# tables (30 words, identical across sf0.001/0.01/0.1 — verified by
# enumeration).  The stemmed SQL oracle LEFT-joins stems of this list;
# a term outside it maps to itself and the value-hash fails — so a
# vocabulary drift in future testdata is loud, never silent.
_DOC_VOCAB = [
    "agg", "batch", "big", "column", "customer", "data", "dup", "fast",
    "filter", "group", "hash", "join", "key", "line", "merge", "order",
    "part", "query", "row", "scan", "slow", "small", "sort", "spark",
    "stream", "table", "the", "value", "vector", "window",
]

# Fixed query set over the documents-table vocabulary: multi-term,
# repeated-term (occurrence weighting), stopword-bearing, and an
# OOV-bearing query (frozen-vocab drop, SURVEY.md §2.2 M7).
DOC_QUERIES: list[tuple[str, str]] = [
    ("q00", "table scan fast"),
    ("q01", "hash join merge batch"),
    ("q02", "the big query window sort"),
    ("q03", "stream stream group value"),
    ("q04", "customer order line part"),
    ("q05", "slow table filter key agg"),
    ("q06", "spark data column row"),
    ("q07", "small sort window zzunknownterm"),
]

_STOPWORDS_SQL = ", ".join(f"'{w}'" for w in sorted(STOPWORDS_EN))

# Fixed phrase set (pipelines/phrase.py semantics): planted bigram /
# trigram, a phrase whose own stopword vanishes at tokenize time, a
# single-term degenerate, and an OOV phrase (matches nothing).
PHRASE_QUERIES: list[tuple[str, str]] = [
    ("p00", "table scan"),
    ("p01", "hash join merge"),
    ("p02", "the fast value"),
    ("p03", "window"),
    ("p04", "slow zzmissing table"),
]

# Fixed boolean triad set: (qid, must, should, must_not).  Covers
# must-only, must+should, OOV must_not (excludes nothing), exclusion,
# and the empty-must case (eligibility = all docs minus must_not).
# Both the engine (pipelines/phrase.bool_query_topk) and the SQL
# oracle (bool_query_sql) require at least one query with must terms
# and one with must_not terms (VALUES lists cannot be empty).
BOOL_QUERIES: list[tuple[str, str, str, str]] = [
    ("b00", "table", "scan fast", "slow"),
    ("b01", "hash join", "", ""),
    ("b02", "query window", "sort", "zzmissing"),
    ("b03", "stream", "value", "customer"),
    ("b04", "", "merge batch", "vector"),
]


def _docs_path(sf_dir: str) -> str:
    return os.path.join(sf_dir, "documents.parquet")


def documents_index(sf_dir: str, cfg: IndexConfig = SQL_CFG) -> str:
    """Build (once, cached under /tmp) the index over sf_dir's documents
    table; returns the index dir."""
    p = _docs_path(sf_dir)
    key = hashlib.sha256(
        f"{p}|{os.path.getmtime(p)}|{cfg.fingerprint()}".encode()
    ).hexdigest()[:16]
    idx = os.path.join(CACHE_ROOT, key)
    build_index(p, idx, cfg, mode="documents")  # no-op if complete
    return idx


# ---------------------------------------------------------------------
# tokenization-level operators (SURVEY.md §2.2 M2-M5, §2.4 A1-A3)
# ---------------------------------------------------------------------

def _tokens_ds(sf_dir: str):
    import ray.data as rd

    from .stages.tokenize_stage import TokenizePostings

    ds = rd.read_parquet(_docs_path(sf_dir), columns=["doc_id", "text"])
    return ds.map_batches(
        TokenizePostings,
        fn_constructor_args=(SQL_CFG,),
        batch_format="pyarrow",
        concurrency=(1, 4),
    )


def q_tokenize_tf(sf_dir: str):
    """(doc_id, term, tf) postings (reference tokenize + tf count,
    /root/reference/utils/__init__.py:59-96)."""

    def cast(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "term": b.column("term"),
                "tf": b.column("tf").cast(pa.int64()),
            }
        )

    return _tokens_ds(sf_dir).map_batches(cast, batch_format="pyarrow")


def q_doc_lengths(sf_dir: str):
    """(doc_id, dl): post-filter token count per doc (the reference's
    per-doc len(ids), on_bm25s.py:116-121).  dl == Σ tf over the doc's
    terms, so this is a plain distributed aggregate over postings."""
    from ray.data.aggregate import Sum

    return (
        _tokens_ds(sf_dir)
        .map_batches(
            lambda b: pa.table(
                {"doc_id": b.column("doc_id"), "tf": b.column("tf").cast(pa.int64())}
            ),
            batch_format="pyarrow",
        )
        .groupby("doc_id")
        .aggregate(Sum("tf", alias_name="dl"))
    )


def q_term_df(sf_dir: str):
    """(term, df) from the built index's vocab table — exercises the
    whole segment build + finalize (SURVEY.md §2.4 A2)."""
    import ray.data as rd

    idx = documents_index(sf_dir)
    return rd.read_parquet(os.path.join(idx, "vocab"))


def q_corpus_stats(sf_dir: str):
    """One-row (num_docs, total_len, avgdl) from index stats
    (SURVEY.md §2.4 A1/A3)."""
    from .state.manifest import Manifest

    idx = documents_index(sf_dir)
    st = Manifest.load(idx).stats
    return pa.table(
        {
            "num_docs": pa.array([st["num_docs"]], type=pa.int64()),
            "total_len": pa.array([st["total_len"]], type=pa.int64()),
            "avgdl": pa.array([float(st["avgdl"])], type=pa.float64()),
        }
    )


# ---------------------------------------------------------------------
# full BM25 retrieval, all five variants (SURVEY.md §2.6)
# ---------------------------------------------------------------------

def q_bm25_topk(sf_dir: str, method: str, k: int = 10):
    idx = documents_index(sf_dir)
    res = search(
        idx,
        DOC_QUERIES,
        params=BM25Params(method=method),
        k=k,
        cfg=SQL_CFG,
        join_back=False,
    ).to_pandas()
    # deterministic cross-engine ranking: rounded score desc, doc_id asc
    res["score"] = res["score"].round(6)
    res = res.sort_values(["qid", "score", "doc_id"], ascending=[True, False, True])
    res["rank"] = res.groupby("qid").cumcount() + 1
    return pa.table(
        {
            "qid": pa.array(res["qid"], type=pa.string()),
            "doc_id": pa.array(res["doc_id"], type=pa.int64()),
            "rank": pa.array(res["rank"].astype(np.int64)),
            "score": pa.array(res["score"], type=pa.float64()),
        }
    )


def q_bm25_topk_stemmed(sf_dir: str, method: str = "lucene", k: int = 10):
    """The stemmed pipeline — the reference's DEFAULT configuration
    (/root/reference/benchmark/on_bm25s.py:80-87 runs Snowball) — under
    the driver's value-hash check.  DuckDB has no Snowball, so the SQL
    oracle joins an inline (term, stem) map over the documents tables'
    fixed 30-word vocabulary (stems computed by the vendored Porter2 at
    import time); an unmapped term falls back to identity in the SQL
    and FAILS the hash — fail-loud on any vocabulary drift."""
    idx = documents_index(sf_dir, cfg=STEMMED_CFG)
    res = search(
        idx,
        DOC_QUERIES,
        params=BM25Params(method=method),
        k=k,
        cfg=STEMMED_CFG,
        join_back=False,
    ).to_pandas()
    res["score"] = res["score"].round(6)
    res = res.sort_values(["qid", "score", "doc_id"], ascending=[True, False, True])
    res["rank"] = res.groupby("qid").cumcount() + 1
    return pa.table(
        {
            "qid": pa.array(res["qid"], type=pa.string()),
            "doc_id": pa.array(res["doc_id"], type=pa.int64()),
            "rank": pa.array(res["rank"].astype(np.int64)),
            "score": pa.array(res["score"], type=pa.float64()),
        }
    )


def q_bm25_served(sf_dir: str, method: str = "lucene", k: int = 10):
    """The persistent-actor serving path (pipelines/serve.py) over the
    same index and query set as q_bm25_topk — rank-identical by
    construction (shared score_range core), so it shares the batch
    pipeline's SQL oracle."""
    from .pipelines.serve import BM25Server

    idx = documents_index(sf_dir)
    with BM25Server(
        idx, params=BM25Params(method=method), cfg=SQL_CFG, join_back=False
    ) as srv:
        res = srv.search(DOC_QUERIES, k=k)
    res["score"] = res["score"].round(6)
    res = res.sort_values(["qid", "score", "doc_id"], ascending=[True, False, True])
    res["rank"] = res.groupby("qid").cumcount() + 1
    return pa.table(
        {
            "qid": pa.array(res["qid"], type=pa.string()),
            "doc_id": pa.array(res["doc_id"], type=pa.int64()),
            "rank": pa.array(res["rank"].astype(np.int64)),
            "score": pa.array(res["score"], type=pa.float64()),
        }
    )


def q_phrase_topk(sf_dir: str, method: str = "lucene", k: int = 10,
                  gap: int = 1):
    """Exact phrase retrieval (pipelines/phrase.py) over an index built
    with positions (Lucene .pos analogue, reference on_pyserini.py
    --storePositions): occurrences resolved from per-posting kept-stream
    positions, no corpus text read; virtual-term BM25 scoring — all
    five PHRASE_QUERIES in one pass."""
    from .pipelines.phrase import phrase_topk

    idx = documents_index(sf_dir, POS_CFG)
    return phrase_topk(
        idx, PHRASE_QUERIES, k=k, params=BM25Params(method=method),
        cfg=POS_CFG, gap=gap,
    )


def q_near_topk(sf_dir: str, method: str = "lucene", k: int = 10,
                gap: int = 3):
    """Ordered-proximity retrieval (NEAR/3 over the same phrase set):
    each next term within 3 kept-stream positions, tf = chain starts."""
    return q_phrase_topk(sf_dir, method, k, gap)


def q_bool_and_topk(sf_dir: str, method: str = "lucene", k: int = 10):
    """Conjunctive (AND) retrieval: posting-list intersection builds
    the allowed bitmap, then the filtered-search machinery ranks only
    docs containing every query term (q07's OOV term empties it)."""
    from .pipelines.phrase import bool_and_topk

    idx = documents_index(sf_dir)
    return bool_and_topk(
        idx, DOC_QUERIES, k=k, params=BM25Params(method=method), cfg=SQL_CFG
    )


def q_snippet_topk(sf_dir: str, method: str = "lucene", k: int = 10,
                   window: int = 8):
    """BM25 top-k + best-window snippet per hit (pipelines/snippets.py)
    over the fixed DOC_QUERIES."""
    from .pipelines.snippets import snippet_topk

    idx = documents_index(sf_dir)
    return snippet_topk(
        idx, _docs_path(sf_dir), DOC_QUERIES, k=k, window=window,
        params=BM25Params(method=method), cfg=SQL_CFG,
    ).drop_columns(["snippet_raw"])


def q_snippet_topk_raw(sf_dir: str, method: str = "lucene", k: int = 10,
                       window: int = 8):
    """Raw-text excerpt variant: the same best window, quoted verbatim
    from the ORIGINAL document text (casing, punctuation, stopwords
    intact) via kept-token character offsets."""
    from .pipelines.snippets import snippet_topk

    idx = documents_index(sf_dir)
    t = snippet_topk(
        idx, _docs_path(sf_dir), DOC_QUERIES, k=k, window=window,
        params=BM25Params(method=method), cfg=SQL_CFG,
    )
    return t.select(["qid", "doc_id", "rank", "snip_start", "snippet_raw"])


def q_bool_query_topk(sf_dir: str, method: str = "lucene", k: int = 10):
    """Full boolean triad (MUST / SHOULD / MUST_NOT) over the fixed
    BOOL_QUERIES: AND-bitmap for must, inverted OR-bitmap for
    must_not, BM25 scoring over must+should on the eligible set."""
    from .pipelines.phrase import bool_query_topk

    idx = documents_index(sf_dir)
    return bool_query_topk(
        idx, BOOL_QUERIES, k=k, params=BM25Params(method=method), cfg=SQL_CFG
    )


FILTER_PRED_SQL = "lang = 'en'"


def q_bm25_topk_filtered(sf_dir: str, method: str = "lucene", k: int = 10):
    """Filtered retrieval: BM25 top-k among documents WHERE lang='en'
    (44% of the corpus).  The predicate is evaluated distributed and
    column-pruned (read doc_id+lang only), packed into per-group
    docfilter shards (no corpus-wide array anywhere — driver peak is
    one group's byte slice) that the scoring tasks fetch slice-wise;
    full-corpus idf / avgdl semantics per the docfilter module doc."""
    import pyarrow.compute as pc
    import ray.data as rd

    from .pipelines.docfilter import allowed_shards
    from .pipelines.query import Index

    index = Index.open(documents_index(sf_dir), cfg=SQL_CFG)
    ids = rd.read_parquet(
        _docs_path(sf_dir), columns=["doc_id", "lang"]
    ).map_batches(
        lambda b: b.filter(pc.equal(b.column("lang"), "en")).select(["doc_id"]),
        batch_format="pyarrow",
    )
    bm = allowed_shards(ids, index.num_docs, sorted(index.spans.values()))
    res = search(
        index,
        DOC_QUERIES,
        params=BM25Params(method=method),
        k=k,
        join_back=False,
        allowed=bm,
    ).to_pandas()
    res["score"] = res["score"].round(6)
    res = res.sort_values(["qid", "score", "doc_id"], ascending=[True, False, True])
    res["rank"] = res.groupby("qid").cumcount() + 1
    return pa.table(
        {
            "qid": pa.array(res["qid"], type=pa.string()),
            "doc_id": pa.array(res["doc_id"], type=pa.int64()),
            "rank": pa.array(res["rank"].astype(np.int64)),
            "score": pa.array(res["score"], type=pa.float64()),
        }
    )


DELETE_PRED_NUMPY = lambda ids: ids % 5 == 2  # noqa: E731
DELETE_PRED_SQL = "doc_id % 5 <> 2"  # the LIVE docs


def documents_index_deleted(sf_dir: str) -> str:
    """A separate cached build of the documents index with every
    doc_id % 5 == 2 tombstoned — q_bm25_topk_after_delete's fixture.
    Distinct cache key so the shared clean index never grows a
    tombstones sidecar."""
    from .pipelines.tombstones import delete_docs, load_tombstones
    from .state.manifest import Manifest

    p = _docs_path(sf_dir)
    key = hashlib.sha256(
        f"{p}|{os.path.getmtime(p)}|{SQL_CFG.fingerprint()}|tomb".encode()
    ).hexdigest()[:16]
    idx = os.path.join(CACHE_ROOT, key)
    build_index(p, idx, SQL_CFG, mode="documents")  # no-op if complete
    if load_tombstones(idx) is None:
        num_docs = int(Manifest.load(idx).stats["num_docs"])
        ids = np.arange(num_docs, dtype=np.int64)
        delete_docs(idx, ids[DELETE_PRED_NUMPY(ids)])
    return idx


def q_bm25_topk_after_delete(sf_dir: str, method: str = "lucene", k: int = 10):
    """Retrieval over a tombstoned index (pipelines/tombstones.py):
    docs with doc_id % 5 == 2 are deleted; search masks them with the
    Lucene liveDocs semantics — excluded from ranking and padding while
    collection stats keep counting them until a rebuild."""
    idx = documents_index_deleted(sf_dir)
    res = search(
        idx,
        DOC_QUERIES,
        params=BM25Params(method=method),
        k=k,
        cfg=SQL_CFG,
        join_back=False,
    ).to_pandas()
    res["score"] = res["score"].round(6)
    res = res.sort_values(["qid", "score", "doc_id"], ascending=[True, False, True])
    res["rank"] = res.groupby("qid").cumcount() + 1
    return pa.table(
        {
            "qid": pa.array(res["qid"], type=pa.string()),
            "doc_id": pa.array(res["doc_id"], type=pa.int64()),
            "rank": pa.array(res["rank"].astype(np.int64)),
            "score": pa.array(res["score"], type=pa.float64()),
        }
    )


def q_hybrid_rrf(sf_dir: str, k: int = 10, k_in: int = 20):
    """Hybrid retrieval: RRF fusion (pipelines/fusion.py) of the BM25
    lucene top-20 over documents with the dense cosine top-20 over
    embeddings (query vectors = vec_id < 8 paired with qid 'q%02d').
    The fusion exchange carries Q × k_in × 2 rows regardless of corpus
    size; the fused ranking is value-hash-checked against the SQL
    replica of both rank rules."""
    import pyarrow.parquet as pq_
    import ray.data as rd

    from .pipelines.fusion import rrf_fuse
    from .pipelines.similarity import cosine_topk

    # sparse list: deterministic cross-engine re-rank, as q_bm25_topk
    idx = documents_index(sf_dir)
    res = search(
        idx,
        DOC_QUERIES,
        params=BM25Params(method="lucene"),
        k=k_in,
        cfg=SQL_CFG,
        join_back=False,
    ).to_pandas()
    res["score"] = res["score"].round(6)
    res = res.sort_values(["qid", "score", "doc_id"], ascending=[True, False, True])
    res["rank"] = res.groupby("qid").cumcount() + 1
    sparse = pa.table(
        {
            "qid": pa.array(res["qid"], type=pa.string()),
            "doc_id": pa.array(res["doc_id"], type=pa.int64()),
            "rank": pa.array(res["rank"].astype(np.int64)),
        }
    )

    # dense list: the 8 lowest-id vectors are the query side (driver
    # read of 8 rows; the corpus side streams through cosine_topk)
    emb = os.path.join(sf_dir, "embeddings.parquet")
    qt = pq_.read_table(emb, columns=["vec_id", "embedding"])
    qt = qt.filter(pa.compute.less(qt.column("vec_id"), 8)).sort_by("vec_id")
    qvecs = np.asarray([np.asarray(v) for v in qt.column("embedding").to_pylist()],
                       dtype=np.float64)
    dres = cosine_topk(rd.read_parquet(emb), qvecs, k=k_in)
    dense = pa.table(
        {
            "qid": pa.array(
                [f"q{int(i):02d}" for i in dres.column("qi").to_pylist()],
                type=pa.string(),
            ),
            "doc_id": dres.column("vec_id"),
            "rank": dres.column("rank"),
        }
    )
    return rrf_fuse([sparse, dense], k=k, k_in=k_in)


# ---------------------------------------------------------------------
# training-data extensions: dedup, similarity, text analysis
# ---------------------------------------------------------------------

def _docs_ds(sf_dir: str):
    import ray.data as rd

    return rd.read_parquet(_docs_path(sf_dir), columns=["doc_id", "text"])


def q_dedup_exact(sf_dir: str):
    from .pipelines.dedup import exact_dedup

    return exact_dedup(_docs_ds(sf_dir))


def q_ngram_jaccard(sf_dir: str, threshold: float = 0.8):
    from .pipelines.dedup import ngram_jaccard_pairs

    ds = ngram_jaccard_pairs(_docs_ds(sf_dir), threshold=threshold)
    df = ds.to_pandas()
    df["jaccard"] = df["jaccard"].round(6)
    df = df.sort_values(["a", "b"]).reset_index(drop=True)
    return pa.table(
        {
            "a": pa.array(df["a"], type=pa.int64()),
            "b": pa.array(df["b"], type=pa.int64()),
            "jaccard": pa.array(df["jaccard"], type=pa.float64()),
        }
    )


def _pairs_table(ds, score_col: str, round6: bool = True) -> pa.Table:
    df = ds.to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    vals = df[score_col]
    if round6:
        vals = vals.round(6)
    return pa.table(
        {
            "a": pa.array(df["a"], type=pa.int64()),
            "b": pa.array(df["b"], type=pa.int64()),
            score_col: pa.array(
                vals, type=pa.float64() if round6 else pa.int64()
            ),
        }
    )


def q_minhash_lsh(sf_dir: str):
    from .pipelines.dedup import minhash_lsh_pairs

    return _pairs_table(minhash_lsh_pairs(_docs_ds(sf_dir), threshold=0.8), "jaccard")


def q_simhash(sf_dir: str):
    from .pipelines.dedup import simhash_pairs

    return _pairs_table(
        simhash_pairs(_docs_ds(sf_dir), hamming_max=3), "hamming", round6=False
    )


def _query_vecs(sf_dir: str, n: int = 5):
    import pyarrow.parquet as pq_

    t = pq_.read_table(os.path.join(sf_dir, "embeddings.parquet"))
    df = t.to_pandas().sort_values("vec_id").head(n)
    return np.asarray(list(df["embedding"]), dtype=np.float64)


def q_embed_cosine_topk(sf_dir: str):
    import ray.data as rd

    from .pipelines.similarity import cosine_topk

    ds = rd.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    )
    return cosine_topk(ds, _query_vecs(sf_dir), k=10)


def q_embed_kmeans(sf_dir: str, k: int = 8, iters: int = 2):
    """Distributed spherical k-means assignments (vec_id, cluster) —
    deterministic seeds (k lowest ids), cosine assignment with
    lower-cluster tie rule, per-dim float64 mean updates; the SQL
    oracle replicates every step (kmeans_sql)."""
    import ray.data as rd

    from .pipelines.similarity import embed_kmeans

    ds = rd.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    )
    return embed_kmeans(ds, k=k, iters=iters)


def q_embed_cosine_pairs(sf_dir: str, threshold: float = 0.4):
    import ray.data as rd

    from .pipelines.similarity import cosine_pairs

    ds = rd.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    )
    return cosine_pairs(ds, threshold=threshold)


def q_embed_lsh_pairs(sf_dir: str, threshold: float = 0.4):
    """Random-hyperplane LSH near-dup pairs, exact-cosine verified —
    value-hash-matches the exact all-pairs SQL because the band
    parameters put the per-pair miss probability below 1e-6
    (pipelines/similarity.hyperplane_lsh_pairs docstring)."""
    import ray.data as rd

    from .pipelines.similarity import hyperplane_lsh_pairs

    ds = rd.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    )
    return hyperplane_lsh_pairs(ds, threshold=threshold)


def q_embed_ivf_topk(sf_dir: str):
    """IVF top-k at FULL probe (nprobe == n_centroids): probing every
    bucket partition makes the composite (assign-once bucketed build →
    probed-partition reads → per-bucket scoring → merge) provably
    exact, so this entry value-hash-matches the brute-force cosine SQL
    oracle.  The approximate regime (nprobe < n_centroids) keeps its
    recall + pruned-read checks in tests/test_similarity.py."""
    import ray.data as rd

    from .pipelines.similarity import ivf_topk

    p = os.path.join(sf_dir, "embeddings.parquet")
    ds = rd.read_parquet(p, columns=["vec_id", "embedding"])
    key = hashlib.sha256(f"ivf|{p}|{os.path.getmtime(p)}".encode()).hexdigest()[:16]
    return ivf_topk(
        ds, _query_vecs(sf_dir), k=10, n_centroids=16, nprobe=16,
        index_dir=os.path.join(CACHE_ROOT, key),
    )


def q_events_sessionize(sf_dir: str):
    import ray.data as rd

    from .pipelines.windows import sessionize

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "ts", "event_id", "value"],
    )
    return sessionize(ds, gap_s=1800)


def q_events_tumbling_window(sf_dir: str):
    import ray.data as rd

    from .pipelines.windows import tumbling_window

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_type", "ts", "value"],
    )
    return tumbling_window(ds, width_s=3600)


def q_events_asof_join(sf_dir: str):
    import ray.data as rd

    from .pipelines.windows import asof_join

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "ts", "event_id", "event_type"],
    )
    return asof_join(ds, "purchase", "click")


# per-language keep rates for the stratified-sample driver entry
SAMPLE_RATES = {"en": 0.2, "zh": 0.5, "es": 0.35, "de": 0.8, "fr": 1.0}


def q_docs_stratified_sample(sf_dir: str):
    import ray.data as rd

    from .pipelines.sampling import stratified_sample

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "lang"]
    )
    return stratified_sample(ds, SAMPLE_RATES, seed=7)


def q_docs_pack_offsets(sf_dir: str):
    """bucket_size=64 so even sf0.01's 500 docs exercise the multi-
    bucket distributed prefix-sum path (8 buckets), not a single-group
    degenerate case."""
    import ray.data as rd

    from .pipelines.packing import pack_offsets

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return pack_offsets(ds, capacity=2048, bucket_size=64)


def q_docs_curate(sf_dir: str):
    import ray.data as rd

    from .pipelines.curate import curate

    ds = rd.read_parquet(
        _docs_path(sf_dir), columns=["doc_id", "text", "source"]
    )
    return curate(ds)


def q_lang_id(sf_dir: str):
    from .pipelines.text_analysis import language_id

    return language_id(_docs_ds(sf_dir))


def q_quality_score(sf_dir: str):
    from .pipelines.text_analysis import quality_score

    return quality_score(_docs_ds(sf_dir))


def q_token_count(sf_dir: str):
    from .pipelines.text_analysis import token_count

    return token_count(_docs_ds(sf_dir))


def q_docs_topk_per_source(sf_dir: str, k: int = 5):
    """Per-source top-k docs by quality score (grouped top-k: map-side
    per-block top-k combine → hash-partitioned key sort → one
    whole-partition rank kernel).  Ties break on ascending doc_id,
    matching the oracle's window ordering."""
    import ray.data as rd

    from .pipelines.topk import grouped_topk

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "source", "text"],
    )

    def score(batch):
        import pyarrow as pa

        from .pipelines.text_analysis import _quality_from_col, _text_array

        col = _text_array(batch.column("text"))
        quality = _quality_from_col(col)[4]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "source": batch.column("source"),
                "quality": pa.array(quality, type=pa.float64()),
            }
        )

    return grouped_topk(
        ds.map_batches(score, batch_format="pyarrow"),
        key="source",
        score="quality",
        id_col="doc_id",
        k=k,
    )


def q_fingerprint(sf_dir: str):
    from .pipelines.text_analysis import fingerprint

    return fingerprint(_docs_ds(sf_dir))


def q_winnow_fingerprint(sf_dir: str):
    from .pipelines.text_analysis import winnow_fingerprint

    ds = winnow_fingerprint(_docs_ds(sf_dir))

    def explode(b: pa.Table) -> pa.Table:
        ids, fps = [], []
        for doc_id, fl in zip(
            b.column("doc_id").to_pylist(), b.column("fps").to_pylist()
        ):
            ids.extend([doc_id] * len(fl))
            fps.extend(int(x) for x in fl)
        return pa.table(
            {"doc_id": pa.array(ids, type=pa.int64()),
             "fp": pa.array(fps, type=pa.uint64())}
        )

    return ds.map_batches(explode, batch_format="pyarrow")


def q_corpus_union(sf_dir: str):
    """Disjoint multi-corpus union with key prefixing — the
    merge_cqa_dupstack analogue (/root/reference/utils/beir.py:38-112):
    same corpus read twice under 'a_'/'b_' prefixes."""
    import pyarrow.compute as pc_
    import ray.data as rd

    def prefix(tag):
        def f(b: pa.Table) -> pa.Table:
            uid = pc_.binary_join_element_wise(
                pa.array([tag] * b.num_rows, type=pa.string()),
                pc_.cast(b.column("doc_id"), pa.string()),
                "_",
            )
            return pa.table({"uid": uid, "text": b.column("text")})

        return f

    a = _docs_ds(sf_dir).map_batches(prefix("a"), batch_format="pyarrow")
    b = _docs_ds(sf_dir).map_batches(prefix("b"), batch_format="pyarrow")
    return a.union(b)


def q_doc_text_projection(sf_dir: str):
    """The reference's title+' '+text flatten (M1,
    /root/reference/benchmark/on_bm25s.py:54-59) — here source||' '||text
    via the vectorized Arrow join kernel."""
    import pyarrow.compute as pc_
    import ray.data as rd

    ds = rd.read_parquet(_docs_path(sf_dir), columns=["doc_id", "source", "text"])

    def f(b: pa.Table) -> pa.Table:
        full = pc_.binary_join_element_wise(b.column("source"), b.column("text"), " ")
        return pa.table({"doc_id": b.column("doc_id"), "full_text": full})

    return ds.map_batches(f, batch_format="pyarrow")


# ---------------------------------------------------------------------
# SQL oracle generation
# ---------------------------------------------------------------------

TOKENS_CTE = f"""
tok AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '\\w\\w+')) AS term
  FROM documents
),
kept AS (
  SELECT doc_id, term FROM tok WHERE term NOT IN ({_STOPWORDS_SQL})
),
tf AS (
  SELECT doc_id, term, count(*)::BIGINT AS tf FROM kept GROUP BY doc_id, term
),
dl AS (
  SELECT doc_id, count(*)::BIGINT AS dl FROM kept GROUP BY doc_id
),
dfreq AS (
  SELECT term, count(DISTINCT doc_id)::BIGINT AS df FROM kept GROUP BY term
),
stats AS (
  SELECT (SELECT count(*) FROM documents)::BIGINT AS num_docs,
         (SELECT count(*) FROM kept)::BIGINT AS total_len,
         (SELECT count(*) FROM kept)::DOUBLE
           / (SELECT count(*) FROM documents) AS avgdl
)"""

# stemmed variant: stopword filter BEFORE stemming (the reference's
# order, /root/reference/utils/__init__.py:88-111); stems from the
# inline Porter2 map, identity fallback fails the hash on vocab drift
STEMMED_TOKENS_CTE = """
tok AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '\\w\\w+')) AS term
  FROM documents
),
kept0 AS (
  SELECT doc_id, term FROM tok WHERE term NOT IN ({sw})
),
smap(term, stem) AS (VALUES
    {smap}
),
kept AS (
  SELECT k.doc_id, coalesce(m.stem, k.term) AS term
  FROM kept0 k LEFT JOIN smap m ON m.term = k.term
),
tf AS (
  SELECT doc_id, term, count(*)::BIGINT AS tf FROM kept GROUP BY doc_id, term
),
dl AS (
  SELECT doc_id, count(*)::BIGINT AS dl FROM kept GROUP BY doc_id
),
dfreq AS (
  SELECT term, count(DISTINCT doc_id)::BIGINT AS df FROM kept GROUP BY term
),
stats AS (
  SELECT (SELECT count(*) FROM documents)::BIGINT AS num_docs,
         (SELECT count(*) FROM kept)::BIGINT AS total_len,
         (SELECT count(*) FROM kept)::DOUBLE
           / (SELECT count(*) FROM documents) AS avgdl
)"""


def _idf_sql(method: str, epsilon: float = 0.0) -> str:
    n, df = "stats.num_docs", "dfreq.df"
    raw = f"ln(({n} - {df} + 0.5) / ({df} + 0.5))"
    # okapi: rank_bm25 BM25Okapi — robertson idf with negatives floored
    # to epsilon * vocab-wide average idf (negatives included in the avg)
    floor = (
        f"({epsilon} * (SELECT avg(ln((s2.num_docs - d2.df + 0.5)"
        f" / (d2.df + 0.5))) FROM dfreq d2 CROSS JOIN stats s2))"
    )
    return {
        "lucene": f"ln(1 + ({n} - {df} + 0.5) / ({df} + 0.5))",
        "atire": f"ln({n}::DOUBLE / {df})",
        "robertson": raw,
        "okapi": f"(CASE WHEN {raw} < 0 THEN {floor} ELSE {raw} END)",
        "bm25l": f"ln(({n} + 1.0) / ({df} + 0.5))",
        "bm25+": f"ln(({n} + 1.0) / {df})",
    }[method]


def _shape_sql(method: str, k1: float, b: float, delta: float) -> str:
    norm = f"(1 - {b} + {b} * dl.dl / stats.avgdl)"
    if method in ("lucene", "atire", "robertson", "okapi"):
        return f"(tf.tf * ({k1} + 1.0) / (tf.tf + {k1} * {norm}))"
    if method == "bm25l":
        ctd = f"(tf.tf / {norm})"
        return f"(({k1} + 1.0) * ({ctd} + {delta}) / ({k1} + {ctd} + {delta}))"
    return f"(({k1} + 1.0) * tf.tf / ({k1} * {norm} + tf.tf) + {delta})"


def _s0(method: str, k1: float, delta: float) -> float:
    if method == "bm25l":
        return (k1 + 1.0) * delta / (k1 + delta)
    if method == "bm25+":
        return delta
    return 0.0


def _query_values_sql(stemmed: bool = False) -> str:
    """(qid, term, w) VALUES rows: the fixed query set tokenized with the
    same pipeline as the corpus side (stemmed or not),
    occurrence-weighted."""
    from .functions.porter2 import stem as porter2_stem

    rows = []
    for qid, text in DOC_QUERIES:
        for term, w in Counter(
            tokenize_text(
                text,
                stopwords=STOPWORDS_EN,
                stemmer=porter2_stem if stemmed else None,
            )
        ).items():
            rows.append(f"('{qid}', '{term}', {w})")
    return ",\n    ".join(rows)


def _stem_map_values() -> str:
    """(term, stem) VALUES over the testdata vocabulary, stems from the
    vendored Porter2 (the same stemmer the distributed pipeline runs
    per-token) — the SQL-side replacement for DuckDB's missing Snowball."""
    from .functions.porter2 import stem as porter2_stem

    return ",\n    ".join(f"('{t}', '{porter2_stem(t)}')" for t in _DOC_VOCAB)


def _bm25_ranked_ctes(
    method: str, stemmed: bool = False, doc_pred: str | None = None,
    conjunctive: bool = False,
) -> str:
    """The CTE chain (tokens → qterms → scored → ranked) shared by the
    plain top-k, filtered, conjunctive-AND, and hybrid-RRF oracles;
    ``ranked`` holds the full dense-semantics ranking (qid, doc_id,
    rank, score).

    ``doc_pred`` restricts the RANKED doc set only — idf/avgdl stay
    full-corpus, exactly the engine's filtered-search semantics
    (pipelines/docfilter.py module doc).

    ``conjunctive`` ranks only docs matching EVERY tokenized query
    term (strict AND — an OOV term empties the query), the
    pipelines/phrase.bool_and_topk semantics; scores stay the full
    dense formula (contrib + qconst) over the conjunctive set."""
    p = BM25Params(method=method)
    s0 = _s0(method, p.k1, p.delta)
    idf = _idf_sql(method, p.epsilon)
    shape = _shape_sql(method, p.k1, p.b, p.delta)
    tokens_cte = (
        STEMMED_TOKENS_CTE.replace("{sw}", _STOPWORDS_SQL).replace(
            "{smap}", _stem_map_values()
        )
        if stemmed
        else TOKENS_CTE
    )
    return f"""{tokens_cte},
qterms(qid, term, w) AS (VALUES
    {_query_values_sql(stemmed)}
),
qconst AS (
  SELECT q.qid, coalesce(sum(q.w * {idf}), 0.0) * {s0} AS c
  FROM qterms q JOIN dfreq ON dfreq.term = q.term CROSS JOIN stats
  GROUP BY q.qid
),
contrib AS (
  SELECT q.qid, tf.doc_id,
         sum(q.w * {idf} * ({shape} - {s0})) AS s
  FROM qterms q
  JOIN tf ON tf.term = q.term
  JOIN dfreq ON dfreq.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats
  GROUP BY q.qid, tf.doc_id
),
qs AS (SELECT DISTINCT qid FROM qterms),
{'''need AS (SELECT qid, count(DISTINCT term) AS nt FROM qterms GROUP BY qid),
cand AS (
  SELECT q.qid, tf.doc_id
  FROM qterms q JOIN tf ON tf.term = q.term JOIN need ON need.qid = q.qid
  GROUP BY q.qid, tf.doc_id, need.nt
  HAVING count(DISTINCT q.term) = need.nt
),
scored AS (
  SELECT ca.qid, ca.doc_id,
         round(coalesce(c.s, 0.0) + coalesce(qc.c, 0.0), 6) AS score
  FROM cand ca
  LEFT JOIN contrib c ON c.qid = ca.qid AND c.doc_id = ca.doc_id
  LEFT JOIN qconst qc ON qc.qid = ca.qid
),''' if conjunctive else f'''-- dense-vector semantics (the reference ranks a score over ALL docs,
-- on_rank_bm25.py:29-33): unmatched docs score exactly the query
-- constant; with robertson's negative idf they outrank matched docs
scored AS (
  SELECT x.qid, d.doc_id,
         round(coalesce(c.s, 0.0) + coalesce(qc.c, 0.0), 6) AS score
  FROM qs x
  CROSS JOIN {("(SELECT doc_id FROM documents WHERE " + doc_pred + ")") if doc_pred else "documents"} d
  LEFT JOIN contrib c ON c.qid = x.qid AND c.doc_id = d.doc_id
  LEFT JOIN qconst qc ON qc.qid = x.qid
),'''}
ranked AS (
  SELECT qid, doc_id, score,
         row_number() OVER (PARTITION BY qid ORDER BY score DESC, doc_id) AS rank
  FROM scored
)"""


def bm25_topk_sql(
    method: str, k: int = 10, stemmed: bool = False,
    doc_pred: str | None = None, conjunctive: bool = False,
) -> str:
    return f"""
WITH {_bm25_ranked_ctes(method, stemmed, doc_pred, conjunctive)}
SELECT qid, doc_id, rank, score FROM ranked WHERE rank <= {k}
"""


def phrase_topk_sql(method: str = "lucene", k: int = 10, gap: int = 1) -> str:
    """Exact-phrase oracle over the fixed PHRASE_QUERIES: kept-stream
    adjacency (stopwords out, positions renumbered via row_number),
    one self-join chain per phrase, virtual-term BM25 scoring
    idf(df_phrase)·shape(ptf, dl) — pipelines/phrase.py's documented
    contract, term for term.

    ``gap`` > 1 is the ordered-proximity (NEAR) variant: each join
    allows a window of ``gap`` positions after the PREVIOUS term and
    ptf counts DISTINCT chain starts (exists-semantics) — the engine's
    backward-DP start count, tuple for tuple."""
    p = BM25Params(method=method)
    if method == "okapi" and p.epsilon != 0.0:
        raise ValueError("phrase oracle does not support okapi's floor")
    idf = _idf_sql(method, p.epsilon).replace("dfreq.df", "dfp.df")
    shape = _shape_sql(method, p.k1, p.b, p.delta).replace("tf.tf", "h.ptf")
    hits = []
    for qid, text in PHRASE_QUERIES:
        toks = tokenize_text(text, stopwords=STOPWORDS_EN, stemmer=None)
        if not toks:
            continue
        if gap == 1:
            link = "k{j}.rn = k0.rn + {j}"
        else:
            link = "k{j}.rn > k{p}.rn AND k{j}.rn <= k{p}.rn + " + str(gap)
        joins = "\n  ".join(
            "JOIN kept k{j} ON k{j}.doc_id = k0.doc_id AND ".format(j=j)
            + link.format(j=j, p=j - 1)
            for j in range(1, len(toks))
        )
        where = " AND ".join(
            f"k{j}.term = '{t}'" for j, t in enumerate(toks)
        )
        cnt = "count(DISTINCT k0.rn)" if gap > 1 else "count(*)"
        hits.append(
            f"""  SELECT '{qid}' AS qid, k0.doc_id, {cnt}::BIGINT AS ptf
  FROM kept k0
  {joins}
  WHERE {where}
  GROUP BY k0.doc_id"""
        )
    hits_sql = "\n  UNION ALL\n".join(hits)
    return f"""
WITH tok AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '\\w\\w+')) AS term,
         generate_subscripts(regexp_extract_all(lower(text), '\\w\\w+'), 1) AS pos
  FROM documents
),
kept AS (
  SELECT doc_id, term,
         row_number() OVER (PARTITION BY doc_id ORDER BY pos) AS rn
  FROM tok WHERE term NOT IN ({_STOPWORDS_SQL})
),
dl AS (SELECT doc_id, count(*)::BIGINT AS dl FROM kept GROUP BY doc_id),
stats AS (
  SELECT (SELECT count(*) FROM documents)::BIGINT AS num_docs,
         (SELECT count(*) FROM kept)::DOUBLE
           / (SELECT count(*) FROM documents) AS avgdl
),
hits AS (
{hits_sql}
),
dfp AS (SELECT qid, count(*)::BIGINT AS df FROM hits GROUP BY qid),
scored AS (
  SELECT h.qid, h.doc_id, round({idf} * {shape}, 6) AS score
  FROM hits h JOIN dfp ON dfp.qid = h.qid
  JOIN dl ON dl.doc_id = h.doc_id CROSS JOIN stats
),
ranked AS (
  SELECT qid, doc_id, score,
         row_number() OVER (PARTITION BY qid ORDER BY score DESC, doc_id) AS rank
  FROM scored
)
SELECT qid, doc_id, rank, score FROM ranked WHERE rank <= {k}
"""


def snippet_topk_sql(method: str = "lucene", k: int = 10,
                     window: int = 8) -> str:
    """Snippet oracle: the shared BM25 ranked chain picks the hits,
    then a positional kept stream (pkept — same construction as the
    phrase oracle) scores every width-``window`` window per hit by
    query-term occurrences, argmax with earliest-start ties, snippet =
    string_agg of the window's kept tokens — replicating
    pipelines/snippets.py clause by clause (incl. the dl < window cap
    and the empty-doc '' fallback)."""
    qset_rows = []
    for qid, text in DOC_QUERIES:
        for term in sorted(set(
            tokenize_text(text, stopwords=STOPWORDS_EN, stemmer=None)
        )):
            qset_rows.append(f"('{qid}', '{term}')")
    return f"""
WITH {_bm25_ranked_ctes(method)},
ptok AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '\\w\\w+')) AS term,
         generate_subscripts(regexp_extract_all(lower(text), '\\w\\w+'), 1) AS pos
  FROM documents
),
pkept AS (
  SELECT doc_id, term,
         row_number() OVER (PARTITION BY doc_id ORDER BY pos) AS rn
  FROM ptok WHERE term NOT IN ({_STOPWORDS_SQL})
),
pdl AS (SELECT doc_id, count(*)::BIGINT AS dl FROM pkept GROUP BY doc_id),
qset(qid, term) AS (VALUES
    {",".join(qset_rows)}
),
hits AS (SELECT qid, doc_id, rank, score FROM ranked WHERE rank <= {k}),
hw AS (
  SELECT h.qid, h.doc_id, LEAST({window}, pdl.dl) AS w, pdl.dl
  FROM hits h JOIN pdl ON pdl.doc_id = h.doc_id
),
starts AS (
  SELECT hw.qid, hw.doc_id, s.rn AS s, hw.w
  FROM hw JOIN pkept s
    ON s.doc_id = hw.doc_id AND s.rn <= hw.dl - hw.w + 1
),
wc AS (
  SELECT st.qid, st.doc_id, st.s, st.w, count(q.term)::BIGINT AS c
  FROM starts st
  LEFT JOIN pkept m
    ON m.doc_id = st.doc_id AND m.rn BETWEEN st.s AND st.s + st.w - 1
  LEFT JOIN qset q ON q.qid = st.qid AND q.term = m.term
  GROUP BY st.qid, st.doc_id, st.s, st.w
),
best AS (
  SELECT qid, doc_id, s, w, c,
         row_number() OVER (PARTITION BY qid, doc_id
                            ORDER BY c DESC, s ASC) AS rnk
  FROM wc
),
snips AS (
  SELECT b.qid, b.doc_id, b.s, b.c,
         (SELECT string_agg(t2.term, ' ' ORDER BY t2.rn) FROM pkept t2
          WHERE t2.doc_id = b.doc_id
            AND t2.rn BETWEEN b.s AND b.s + b.w - 1) AS snippet
  FROM best b WHERE b.rnk = 1
)
SELECT h.qid, h.doc_id, h.rank, h.score,
       coalesce(sn.s, 1)::BIGINT AS snip_start,
       coalesce(sn.c, 0)::BIGINT AS snip_score,
       coalesce(sn.snippet, '') AS snippet
FROM hits h
LEFT JOIN snips sn ON sn.qid = h.qid AND sn.doc_id = h.doc_id
"""


def snippet_topk_raw_sql(method: str = "lucene", k: int = 10,
                         window: int = 8) -> str:
    """Raw-excerpt snippet oracle: the same ranked-hits + best-window
    chain as snippet_topk_sql, but the excerpt is substring(text,
    cstart(s), cend(s+w-1)-cstart(s)+1) over the ORIGINAL text.
    Kept-token character offsets are reconstructed in SQL from the
    token/separator decomposition: text = sep1·tok1·sep2·tok2·…, so
    cstart(pos) = Σ len(sep≤pos) + Σ len(tok<pos) + 1 (two window
    sums) — mirroring pipelines/snippets.py kept_spans."""
    qset_rows = []
    for qid, text in DOC_QUERIES:
        for term in sorted(set(
            tokenize_text(text, stopwords=STOPWORDS_EN, stemmer=None)
        )):
            qset_rows.append(f"('{qid}', '{term}')")
    return f"""
WITH {_bm25_ranked_ctes(method)},
ptok AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '\\w\\w+')) AS term,
         generate_subscripts(regexp_extract_all(lower(text), '\\w\\w+'), 1) AS pos
  FROM documents
),
psep AS (
  SELECT doc_id, unnest(regexp_split_to_array(lower(text), '\\w\\w+')) AS sep,
         generate_subscripts(regexp_split_to_array(lower(text), '\\w\\w+'), 1) AS spos
  FROM documents
),
poff AS (
  SELECT t.doc_id, t.pos, t.term,
         sum(length(s.sep)) OVER (PARTITION BY t.doc_id ORDER BY t.pos
                                  ROWS UNBOUNDED PRECEDING)
         + coalesce(sum(length(t.term)) OVER (PARTITION BY t.doc_id
                    ORDER BY t.pos ROWS BETWEEN UNBOUNDED PRECEDING
                    AND 1 PRECEDING), 0)
         + 1 AS cstart,
         length(t.term) AS tl
  FROM ptok t JOIN psep s ON s.doc_id = t.doc_id AND s.spos = t.pos
),
pkept AS (
  SELECT doc_id, term, cstart, cstart + tl - 1 AS cend,
         row_number() OVER (PARTITION BY doc_id ORDER BY pos) AS rn
  FROM poff WHERE term NOT IN ({_STOPWORDS_SQL})
),
pdl AS (SELECT doc_id, count(*)::BIGINT AS dl FROM pkept GROUP BY doc_id),
qset(qid, term) AS (VALUES
    {",".join(qset_rows)}
),
hits AS (SELECT qid, doc_id, rank, score FROM ranked WHERE rank <= {k}),
hw AS (
  SELECT h.qid, h.doc_id, LEAST({window}, pdl.dl) AS w, pdl.dl
  FROM hits h JOIN pdl ON pdl.doc_id = h.doc_id
),
starts AS (
  SELECT hw.qid, hw.doc_id, s.rn AS s, hw.w
  FROM hw JOIN pkept s
    ON s.doc_id = hw.doc_id AND s.rn <= hw.dl - hw.w + 1
),
wc AS (
  SELECT st.qid, st.doc_id, st.s, st.w, count(q.term)::BIGINT AS c
  FROM starts st
  LEFT JOIN pkept m
    ON m.doc_id = st.doc_id AND m.rn BETWEEN st.s AND st.s + st.w - 1
  LEFT JOIN qset q ON q.qid = st.qid AND q.term = m.term
  GROUP BY st.qid, st.doc_id, st.s, st.w
),
best AS (
  SELECT qid, doc_id, s, w, c,
         row_number() OVER (PARTITION BY qid, doc_id
                            ORDER BY c DESC, s ASC) AS rnk
  FROM wc
),
snips AS (
  SELECT b.qid, b.doc_id, b.s,
         substring(d.text, CAST(f.cstart AS BIGINT), CAST(l.cend - f.cstart + 1 AS BIGINT)) AS snippet_raw
  FROM best b
  JOIN documents d ON d.doc_id = b.doc_id
  JOIN pkept f ON f.doc_id = b.doc_id AND f.rn = b.s
  JOIN pkept l ON l.doc_id = b.doc_id AND l.rn = b.s + b.w - 1
  WHERE b.rnk = 1
)
SELECT h.qid, h.doc_id, h.rank,
       coalesce(sn.s, 1)::BIGINT AS snip_start,
       coalesce(sn.snippet_raw, '') AS snippet_raw
FROM hits h
LEFT JOIN snips sn ON sn.qid = h.qid AND sn.doc_id = h.doc_id
"""


def bool_query_sql(method: str = "lucene", k: int = 10) -> str:
    """Boolean-triad oracle over BOOL_QUERIES: eligibility = (all must
    terms present — strict, OOV never satisfiable; or every doc when
    the must text is empty) minus (any must_not term present); scores
    = the dense BM25 formula over the tokenized must+should text,
    confined to the eligible set — pipelines/phrase.bool_query_topk's
    contract clause by clause."""
    p = BM25Params(method=method)
    s0 = _s0(method, p.k1, p.delta)
    idf = _idf_sql(method, p.epsilon)
    shape = _shape_sql(method, p.k1, p.b, p.delta)

    def values(rows: list[tuple[str, str]]) -> str:
        # an empty VALUES list is a SQL syntax error — emit a typed
        # empty relation instead, so the generator stays valid for
        # arbitrary query sets (none with must terms / none with
        # must_not terms), not just the fixed BOOL_QUERIES
        if not rows:
            return ("SELECT CAST(NULL AS VARCHAR), CAST(NULL AS VARCHAR) "
                    "WHERE FALSE")
        return "VALUES\n    " + ",\n    ".join(
            f"('{q}', '{t}')" for q, t in rows)

    score_rows, m_rows, n_rows, no_must = [], [], [], []
    for qid, must, should, must_not in BOOL_QUERIES:
        for term, w in Counter(
            tokenize_text(f"{must} {should}", stopwords=STOPWORDS_EN,
                          stemmer=None)
        ).items():
            score_rows.append(f"('{qid}', '{term}', {w})")
        m = tokenize_text(must, stopwords=STOPWORDS_EN, stemmer=None)
        if m:
            m_rows += [(qid, t) for t in m]
        else:
            no_must.append(f"('{qid}')")
        n_rows += [
            (qid, t)
            for t in tokenize_text(must_not, stopwords=STOPWORDS_EN,
                                   stemmer=None)
        ]
    return f"""
WITH {TOKENS_CTE},
qterms(qid, term, w) AS (VALUES
    {",".join(score_rows)}
),
mterms(qid, term) AS (
    {values(m_rows)}
),
nterms(qid, term) AS (
    {values(n_rows)}
),
allq(qid) AS (VALUES {",".join(no_must) if no_must else "(NULL)"}),
mneed AS (SELECT qid, count(DISTINCT term) AS nt FROM mterms GROUP BY qid),
mcand AS (
  SELECT m.qid, tf.doc_id
  FROM mterms m JOIN tf ON tf.term = m.term JOIN mneed ON mneed.qid = m.qid
  GROUP BY m.qid, tf.doc_id, mneed.nt
  HAVING count(DISTINCT m.term) = mneed.nt
),
base AS (
  SELECT a.qid, d.doc_id FROM allq a CROSS JOIN documents d
  WHERE a.qid IS NOT NULL
  UNION ALL
  SELECT qid, doc_id FROM mcand
),
ncand AS (
  SELECT n.qid, tf.doc_id FROM nterms n JOIN tf ON tf.term = n.term
  GROUP BY n.qid, tf.doc_id
),
cand AS (SELECT qid, doc_id FROM base EXCEPT SELECT qid, doc_id FROM ncand),
qconst AS (
  SELECT q.qid, coalesce(sum(q.w * {idf}), 0.0) * {s0} AS c
  FROM qterms q JOIN dfreq ON dfreq.term = q.term CROSS JOIN stats
  GROUP BY q.qid
),
contrib AS (
  SELECT q.qid, tf.doc_id,
         sum(q.w * {idf} * ({shape} - {s0})) AS s
  FROM qterms q
  JOIN tf ON tf.term = q.term
  JOIN dfreq ON dfreq.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats
  GROUP BY q.qid, tf.doc_id
),
scored AS (
  SELECT ca.qid, ca.doc_id,
         round(coalesce(c.s, 0.0) + coalesce(qc.c, 0.0), 6) AS score
  FROM cand ca
  LEFT JOIN contrib c ON c.qid = ca.qid AND c.doc_id = ca.doc_id
  LEFT JOIN qconst qc ON qc.qid = ca.qid
),
ranked AS (
  SELECT qid, doc_id, score,
         row_number() OVER (PARTITION BY qid ORDER BY score DESC, doc_id) AS rank
  FROM scored
)
SELECT qid, doc_id, rank, score FROM ranked WHERE rank <= {k}
"""


def hybrid_rrf_sql(k: int = 10, k_in: int = 20, c: int = 60) -> str:
    """RRF fusion oracle: BM25(lucene) ranking over documents fused
    with the dense cosine ranking over embeddings (query vectors =
    vec_id < 8, qid 'q%02d' — the same pairing q_hybrid_rrf runs).
    Both per-list rank rules replicate the engine exactly: BM25 ranks
    on round-6 score desc, doc_id asc (dense-vector semantics); cosine
    ranks on round-6 similarity desc, vec_id asc."""
    return f"""
WITH {_bm25_ranked_ctes("lucene")},
dq AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v
       FROM embeddings WHERE vec_id < 8),
dsim AS (
  SELECT printf('q%02d', dq.vec_id) AS qid, e.vec_id AS doc_id,
         round(list_cosine_similarity(dq.v,
               CAST(e.embedding AS DOUBLE[])), 6) AS s
  FROM dq CROSS JOIN embeddings e
),
drank AS (
  SELECT qid, doc_id,
         row_number() OVER (PARTITION BY qid ORDER BY s DESC, doc_id) AS rank
  FROM dsim
),
fused AS (
  SELECT qid, doc_id, round(sum(1.0 / ({c} + rank)), 6) AS rrf
  FROM (
    SELECT qid, doc_id, rank FROM ranked WHERE rank <= {k_in}
    UNION ALL
    SELECT qid, doc_id, rank FROM drank WHERE rank <= {k_in}
  ) GROUP BY qid, doc_id
),
frank AS (
  SELECT qid, doc_id, rrf,
         row_number() OVER (PARTITION BY qid ORDER BY rrf DESC, doc_id) AS rank
  FROM fused
)
SELECT qid, doc_id, rrf, rank FROM frank WHERE rank <= {k}
"""


DEDUP_EXACT_SQL = "SELECT min(doc_id) AS doc_id FROM documents GROUP BY text"

NGRAM_JACCARD_SQL = r"""
WITH tok AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\w\w+') AS t FROM documents
),
sh AS (
  SELECT doc_id,
         CASE WHEN len(t) >= 3
              THEN list_distinct(list_transform(range(1, len(t) - 1),
                                 i -> t[i] || ' ' || t[i+1] || ' ' || t[i+2]))
              WHEN len(t) > 0 THEN [array_to_string(t, ' ')]
              ELSE [] END AS s
  FROM tok
),
e AS (SELECT doc_id, unnest(s) AS sh FROM sh),
sz AS (SELECT doc_id, count(*)::BIGINT AS n FROM e GROUP BY doc_id),
inter AS (
  SELECT x.doc_id AS a, y.doc_id AS b, count(*)::BIGINT AS i
  FROM e x JOIN e y ON x.sh = y.sh AND x.doc_id < y.doc_id
  GROUP BY x.doc_id, y.doc_id
)
SELECT a, b, round(i * 1.0 / (sa.n + sb.n - i), 6) AS jaccard
FROM inter JOIN sz sa ON sa.doc_id = a JOIN sz sb ON sb.doc_id = b
WHERE i * 1.0 / (sa.n + sb.n - i) >= 0.8
"""

EMBED_TOPK_SQL = """
WITH q AS (SELECT vec_id AS qi, CAST(embedding AS DOUBLE[]) AS embedding
           FROM embeddings WHERE vec_id < 5),
s AS (
  SELECT q.qi, e.vec_id,
         round(list_cosine_similarity(q.embedding,
               CAST(e.embedding AS DOUBLE[])), 6) AS score
  FROM q CROSS JOIN embeddings e
),
r AS (
  SELECT qi, vec_id, score,
         row_number() OVER (PARTITION BY qi ORDER BY score DESC, vec_id) AS rank
  FROM s
)
SELECT qi, vec_id, rank, score FROM r WHERE rank <= 10
"""

EMBED_PAIRS_SQL = """
SELECT a.vec_id AS a, b.vec_id AS b,
       round(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
             CAST(b.embedding AS DOUBLE[])), 6) AS cosine
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
      CAST(b.embedding AS DOUBLE[])) >= 0.4
"""

TOPK_PER_SOURCE_SQL = f"""
WITH q AS ({{QUALITY}}),
j AS (
  SELECT d.doc_id, d.source, q.quality
  FROM documents d JOIN q ON q.doc_id = d.doc_id
),
r AS (
  SELECT doc_id, source, quality,
         row_number() OVER (PARTITION BY source
                            ORDER BY quality DESC, doc_id) AS rank
  FROM j
)
SELECT doc_id, source, quality, rank FROM r WHERE rank <= 5
"""


def kmeans_sql(k: int = 8, iters: int = 2) -> str:
    """Exact SQL replica of pipelines.similarity.embed_kmeans: seed
    centroids = the k lowest-id vectors; each iteration assigns by
    cosine (ties to the lower cluster id) and updates centroids to the
    per-dimension mean (empty clusters keep the previous centroid);
    output = assignment against the final centroids.  Float64 both
    sides; summation-order noise is ~1e-16, far under the 1e-6 compare
    tolerance, and exact-tie handling matches numpy argmax (first
    max = lowest cluster)."""
    parts = [
        "e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings)",
        f"init AS (SELECT row_number() OVER (ORDER BY vec_id) - 1 AS c, v\n"
        f"  FROM e ORDER BY vec_id LIMIT {k})",
    ]
    prev = "init"
    for i in range(iters):
        a, mm, cc = f"a{i}", f"m{i}", f"c{i + 1}"
        parts.append(
            f"""{a} AS (
  SELECT vec_id, c FROM (
    SELECT e.vec_id, {prev}.c,
           row_number() OVER (PARTITION BY e.vec_id
             ORDER BY list_cosine_similarity(e.v, {prev}.v) DESC, {prev}.c) AS rn
    FROM e CROSS JOIN {prev}) WHERE rn = 1)"""
        )
        parts.append(
            f"""{mm} AS (
  SELECT c, pos, avg(val) AS val FROM (
    SELECT {a}.c AS c, unnest(e.v) AS val,
           unnest(range(1, len(e.v) + 1)) AS pos
    FROM {a} JOIN e USING (vec_id)) GROUP BY c, pos)"""
        )
        parts.append(
            f"""{cc} AS (
  SELECT i.c AS c, coalesce(agg.v, i.v) AS v
  FROM {prev} i LEFT JOIN (
    SELECT c, list(val ORDER BY pos) AS v FROM {mm} GROUP BY c) agg
  ON agg.c = i.c)"""
        )
        prev = cc
    parts.append(
        f"""af AS (
  SELECT vec_id, c FROM (
    SELECT e.vec_id, {prev}.c,
           row_number() OVER (PARTITION BY e.vec_id
             ORDER BY list_cosine_similarity(e.v, {prev}.v) DESC, {prev}.c) AS rn
    FROM e CROSS JOIN {prev}) WHERE rn = 1)"""
    )
    return "WITH " + ",\n".join(parts) + "\nSELECT vec_id, c AS cluster FROM af"


LANG_ID_SQL = f"""
WITH tok AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '\\w\\w+')) AS term
  FROM documents
),
agg AS (
  SELECT doc_id,
         count(*)::DOUBLE AS tot,
         count(*) FILTER (term IN ({_STOPWORDS_SQL}))::DOUBLE AS sw
  FROM tok GROUP BY doc_id
)
SELECT d.doc_id,
       round(coalesce(a.sw / a.tot, 0.0), 6) AS stopword_ratio,
       CASE WHEN coalesce(a.sw / a.tot, 0.0) >= 0.08 THEN 'en' ELSE 'und' END AS lang
FROM documents d LEFT JOIN agg a ON a.doc_id = d.doc_id
"""

QUALITY_SQL = f"""
WITH base AS (
  SELECT doc_id,
         len(regexp_extract_all(lower(text), '\\w\\w+'))::BIGINT AS n_tokens,
         length(text)::BIGINT AS n_chars,
         CASE WHEN length(text) > 0
              THEN len(regexp_extract_all(text, '[^\\w\\s]')) * 1.0 / length(text)
              ELSE 0.0 END AS punct,
         regexp_extract_all(lower(text), '\\w\\w+') AS toks
  FROM documents
),
swr_t AS (
  SELECT doc_id,
         CASE WHEN len(toks) > 0
              THEN len(list_filter(toks, t -> t IN ({_STOPWORDS_SQL}))) * 1.0 / len(toks)
              ELSE 0.0 END AS swr
  FROM base
)
SELECT b.doc_id, b.n_tokens, b.n_chars,
       round(b.punct, 6) AS punct_ratio,
       round(s.swr, 6) AS stopword_ratio,
       round(0.5 * least(b.n_tokens / 20.0, 1.0)
           + 0.3 * greatest(1.0 - 5.0 * b.punct, 0.0)
           + 0.2 * least(10.0 * s.swr, 1.0), 6) AS quality
FROM base b JOIN swr_t s ON s.doc_id = b.doc_id
"""

TOKEN_COUNT_SQL = r"""
SELECT doc_id,
       len(regexp_extract_all(text, '\S+'))::BIGINT AS ws_tokens,
       len(regexp_extract_all(lower(text), '\w\w+'))::BIGINT AS re_tokens,
       len(regexp_extract_all(text, '[A-Za-z]{1,4}|[0-9]|[^\sA-Za-z0-9]'))::BIGINT AS bpe_tokens
FROM documents
"""

FINGERPRINT_SQL = r"""
SELECT doc_id,
       md5(array_to_string(regexp_extract_all(lower(text), '\w\w+'), ' ')) AS fp
FROM documents
"""

# DuckDB replica of dedup.md5_u64: little-endian uint64 of the first 8
# md5 bytes of '0'||NUL||s (verified bit-identical to the Python side)
_MD5U64_SQL = (
    "('0x' || substr(h,15,2) || substr(h,13,2) || substr(h,11,2) || substr(h,9,2)"
    " || substr(h,7,2) || substr(h,5,2) || substr(h,3,2) || substr(h,1,2))::UBIGINT"
)

# winnowing (k=5, window=4): md5_u64 per k-gram, window minimum,
# distinct per doc — exactly pipelines.text_analysis.winnow_fingerprint
WINNOW_SQL = rf"""
WITH tok AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\w\w+') AS t FROM documents
),
kg AS (
  SELECT doc_id, i,
         md5('0' || chr(0) || array_to_string(t[i:i+4], ' ')) AS h
  FROM tok, unnest(range(1, len(t) - 3)) AS r(i)
  WHERE len(t) >= 5
),
kh AS (
  SELECT doc_id, i, {_MD5U64_SQL} AS v,
         count(*) OVER (PARTITION BY doc_id) AS n
  FROM kg
),
win AS (
  SELECT doc_id, i, n,
         min(v) OVER (PARTITION BY doc_id ORDER BY i
                      ROWS BETWEEN 3 PRECEDING AND CURRENT ROW) AS fp
  FROM kh
)
SELECT DISTINCT doc_id, fp FROM win WHERE i >= least(4, n)
"""

# simhash (md5_u64 token hashes → sign-summed 64 bits) + all pairs at
# hamming <= 3; the Ray side's 4x16-bit band blocking is complete for
# distance 3 by pigeonhole, so the SQL all-pairs form is equivalent
SIMHASH_SQL = rf"""
WITH tok AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '\w\w+')) AS tk
  FROM documents
),
th0 AS (SELECT doc_id, md5('0' || chr(0) || tk) AS h FROM tok),
th AS (SELECT doc_id, {_MD5U64_SQL} AS v FROM th0),
bits AS (
  SELECT doc_id, j,
         sum(CASE WHEN (v >> j) & 1 = 1 THEN 1 ELSE -1 END) AS s
  FROM th CROSS JOIN (SELECT unnest(range(64)) AS j)
  GROUP BY doc_id, j
),
sim AS (
  SELECT doc_id,
         sum(CASE WHEN s > 0 THEN (1::UBIGINT << j) ELSE 0::UBIGINT END)::UBIGINT AS sh
  FROM bits GROUP BY doc_id
),
allsim AS (
  SELECT d.doc_id, coalesce(sim.sh, 0::UBIGINT) AS sh
  FROM documents d LEFT JOIN sim ON sim.doc_id = d.doc_id
)
SELECT a.doc_id AS a, b.doc_id AS b,
       bit_count(xor(a.sh, b.sh))::BIGINT AS hamming
FROM allsim a JOIN allsim b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.sh, b.sh)) <= 3
"""

CORPUS_UNION_SQL = """
SELECT 'a_' || doc_id::VARCHAR AS uid, text FROM documents
UNION ALL
SELECT 'b_' || doc_id::VARCHAR AS uid, text FROM documents
"""

DOC_TEXT_PROJECTION_SQL = (
    "SELECT doc_id, source || ' ' || text AS full_text FROM documents"
)

# session windows: 30-min gap splits, 0-based session_idx per user in
# (ts, event_id) order — replicates pipelines.windows.sessionize
SESSIONIZE_SQL = """
WITH o AS (
  SELECT user_id, epoch_us(ts) AS tsu, event_id, value,
         lag(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev
  FROM events
),
m AS (
  SELECT user_id, tsu, event_id, value,
         CASE WHEN prev IS NULL OR tsu - prev > 1800 * 1000000 THEN 1 ELSE 0 END AS brk
  FROM o
),
s AS (
  SELECT user_id, tsu, value,
         CAST(sum(brk) OVER (PARTITION BY user_id ORDER BY tsu, event_id
                        ROWS UNBOUNDED PRECEDING) - 1 AS BIGINT) AS session_idx
  FROM m
)
SELECT user_id, session_idx, min(tsu) AS start_us, max(tsu) AS end_us,
       count(*) AS n_events, round(sum(value), 6) AS sum_value
FROM s GROUP BY user_id, session_idx
"""

TUMBLING_SQL = """
SELECT event_type,
       (epoch_us(ts) // 3600000000) * 3600000000 AS window_start_us,
       count(*) AS n_events, round(sum(value), 6) AS sum_value
FROM events GROUP BY event_type, window_start_us
"""

# as-of join: latest 'click' at or before each 'purchase' per user;
# right side deduplicated to max event_id per (user, ts) so ties are
# deterministic — replicates pipelines.windows.asof_join
ASOF_SQL = """
WITH l AS (
  SELECT event_id, user_id, ts, epoch_us(ts) AS ts_us
  FROM events WHERE event_type = 'purchase'
),
r0 AS (
  SELECT user_id, ts, max(event_id) AS event_id
  FROM events WHERE event_type = 'click' GROUP BY user_id, ts
)
SELECT l.event_id, l.user_id, l.ts_us,
       r.event_id AS matched_event_id, epoch_us(r.ts) AS matched_ts_us
FROM l ASOF LEFT JOIN r0 r ON l.user_id = r.user_id AND l.ts >= r.ts
"""

# stratified sample: md5_u64(seed=7 || doc_id) % 1e6 under the
# per-language threshold — replicates pipelines.sampling (rates must
# stay in sync with driver_api.SAMPLE_RATES)
STRAT_SAMPLE_SQL = f"""
WITH h0 AS (
  SELECT doc_id, lang,
         md5('7' || chr(0) || CAST(doc_id AS VARCHAR)) AS h
  FROM documents
)
SELECT doc_id, lang FROM h0
WHERE ({_MD5U64_SQL}) % 1000000 < CASE lang
  WHEN 'en' THEN 200000 WHEN 'zh' THEN 500000 WHEN 'es' THEN 350000
  WHEN 'de' THEN 800000 WHEN 'fr' THEN 1000000 ELSE 0 END
"""

# sequence packing: doc_id-ordered token cumsum, 2048-token bins —
# replicates pipelines.packing.pack_offsets (whitespace token counts)
PACK_SQL = r"""
WITH c AS (
  SELECT doc_id, len(regexp_extract_all(text, '\S+'))::BIGINT AS n_tok
  FROM documents
),
p AS (
  SELECT doc_id, n_tok,
         sum(n_tok) OVER (ORDER BY doc_id ROWS UNBOUNDED PRECEDING) AS cum
  FROM c
)
SELECT doc_id, n_tok,
       (cum - n_tok)::BIGINT AS start_tok, cum::BIGINT AS end_tok,
       ((cum - n_tok) // 2048)::BIGINT AS first_bin,
       (CASE WHEN n_tok = 0 THEN (cum - n_tok) // 2048
             ELSE (cum - 1) // 2048 END)::BIGINT AS last_bin
FROM p
"""

# curation composite: quality >= 0.5 AND stopword-ratio-English ->
# exact dedup (min doc_id per distinct text) -> per-source sample
# (even-numbered sources keep 100%, odd 30%; md5_u64(seed=7||doc_id))
CURATE_SQL = f"""
WITH base AS (
  SELECT doc_id, source, text,
         len(regexp_extract_all(lower(text), '\\w\\w+'))::BIGINT AS n_tokens,
         CASE WHEN length(text) > 0
              THEN len(regexp_extract_all(text, '[^\\w\\s]')) * 1.0 / length(text)
              ELSE 0.0 END AS punct,
         regexp_extract_all(lower(text), '\\w\\w+') AS toks
  FROM documents
),
feat AS (
  SELECT doc_id, source, text,
         round(0.5 * least(n_tokens / 20.0, 1.0)
             + 0.3 * greatest(1.0 - 5.0 * punct, 0.0)
             + 0.2 * least(10.0 * (CASE WHEN len(toks) > 0
                   THEN len(list_filter(toks, t -> t IN ({{sw}}))) * 1.0 / len(toks)
                   ELSE 0.0 END), 1.0), 6) AS quality,
         round(CASE WHEN len(toks) > 0
               THEN len(list_filter(toks, t -> t IN ({{sw}}))) * 1.0 / len(toks)
               ELSE 0.0 END, 6) AS swr
  FROM base
),
kept AS (
  SELECT * FROM feat WHERE quality >= 0.5 AND swr >= 0.08
),
surv AS (
  SELECT min(doc_id) AS doc_id FROM kept GROUP BY text
),
hh AS (
  SELECT k.doc_id, k.source, k.quality,
         md5('7' || chr(0) || CAST(k.doc_id AS VARCHAR)) AS h
  FROM kept k JOIN surv s ON k.doc_id = s.doc_id
)
SELECT doc_id, source, quality FROM hh
WHERE ({_MD5U64_SQL}) % 1000000 <
      CASE WHEN CAST(substr(source, 4) AS INT) % 2 = 0
           THEN 1000000 ELSE 300000 END
"""
CURATE_SQL = CURATE_SQL.replace("{sw}", _STOPWORDS_SQL)

ORACLE_SQL: dict[str, str] = {
    "tokenize_tf": f"WITH {TOKENS_CTE} SELECT doc_id, term, tf FROM tf",
    "doc_lengths": f"WITH {TOKENS_CTE} SELECT doc_id, dl FROM dl",
    "term_df": f"WITH {TOKENS_CTE} SELECT term, df FROM dfreq",
    "corpus_stats": f"WITH {TOKENS_CTE} SELECT num_docs, total_len, avgdl FROM stats",
    "bm25_topk_lucene": bm25_topk_sql("lucene"),
    "bm25_topk_atire": bm25_topk_sql("atire"),
    "bm25_topk_robertson": bm25_topk_sql("robertson"),
    "bm25_topk_bm25l": bm25_topk_sql("bm25l"),
    "bm25_topk_bm25plus": bm25_topk_sql("bm25+"),
    "bm25_topk_okapi": bm25_topk_sql("okapi"),
    # the stemmed pipeline (the reference's default): Snowball via the
    # inline Porter2 stem map — closes the last driver-unseen semantics
    "bm25_topk_lucene_stemmed": bm25_topk_sql("lucene", stemmed=True),
    "bm25_served_lucene": bm25_topk_sql("lucene"),
    # filtered retrieval: rank only lang='en' docs, full-corpus stats
    "bm25_topk_filtered": bm25_topk_sql("lucene", doc_pred=FILTER_PRED_SQL),
    # tombstoned index: deleted docs leave ranking/padding, stats stay
    # full-corpus until rebuild (Lucene liveDocs semantics)
    "bm25_topk_after_delete": bm25_topk_sql("lucene", doc_pred=DELETE_PRED_SQL),
    # hybrid sparse+dense retrieval: RRF over the BM25 and cosine ranks
    "hybrid_rrf_topk": hybrid_rrf_sql(),
    # exact phrase: kept-stream adjacency, virtual-term BM25
    "phrase_topk": phrase_topk_sql("lucene"),
    # ordered proximity (NEAR/3): windowed joins, DISTINCT chain starts
    "near_topk": phrase_topk_sql("lucene", gap=3),
    "phrase_topk_pos": phrase_topk_sql("lucene"),
    "near_topk_pos": phrase_topk_sql("lucene", gap=3),
    # conjunctive AND: ranked set = docs with every query term
    "bool_and_topk": bm25_topk_sql("lucene", conjunctive=True),
    # full boolean triad: MUST eligibility minus MUST_NOT exclusion
    "bool_query_topk": bool_query_sql("lucene"),
    # best-window snippet per hit, earliest-start ties
    "snippet_topk": snippet_topk_sql("lucene"),
    "snippet_topk_raw": snippet_topk_raw_sql("lucene"),
    "dedup_exact": DEDUP_EXACT_SQL,
    "ngram_jaccard_pairs": NGRAM_JACCARD_SQL,
    "embed_cosine_topk": EMBED_TOPK_SQL,
    "embed_cosine_pairs": EMBED_PAIRS_SQL,
    # LSH pairs: verified-exact output; band params make the per-pair
    # miss probability ≤1e-6, so the exact all-pairs SQL is the oracle
    # (same argument as minhash's exact-Jaccard oracle below)
    "embed_lsh_pairs": EMBED_PAIRS_SQL,
    "lang_id": LANG_ID_SQL,
    "quality_score": QUALITY_SQL,
    "docs_topk_per_source": TOPK_PER_SOURCE_SQL.replace("{QUALITY}", QUALITY_SQL),
    "token_count": TOKEN_COUNT_SQL,
    "fingerprint": FINGERPRINT_SQL,
    "corpus_union": CORPUS_UNION_SQL,
    "doc_text_projection": DOC_TEXT_PROJECTION_SQL,
    # minhash: the verified output is exact shingle Jaccard >= 0.8; the
    # banded LSH candidate stage (32 bands x 4 rows) misses a >=0.8 pair
    # with probability <= (1-0.8^4)^32 ~ 5e-8, so the exact-Jaccard SQL
    # is the oracle (deterministic seeds make the run stable).
    "minhash_lsh_pairs": NGRAM_JACCARD_SQL,
    "simhash_pairs": SIMHASH_SQL,
    "winnow_fingerprint": WINNOW_SQL,
    # k-means: every step deterministic and replicated in SQL (seed
    # rule, cosine-argmax tie rule, mean update, empty-cluster carry)
    "embed_kmeans": kmeans_sql(8, 2),
    # embed_ivf_topk runs at FULL probe (nprobe == n_centroids), which
    # is provably exact — the brute-force cosine SQL is its oracle.
    # The approximate regime (nprobe < n_centroids) is covered by
    # recall + pruned-partition-read tests in tests/test_similarity.py.
    "embed_ivf_topk": EMBED_TOPK_SQL,
    "events_sessionize": SESSIONIZE_SQL,
    "events_tumbling_window": TUMBLING_SQL,
    "events_asof_join": ASOF_SQL,
    "docs_stratified_sample": STRAT_SAMPLE_SQL,
    "docs_pack_offsets": PACK_SQL,
    "docs_curate": CURATE_SQL,
}


def build_queries() -> dict:
    q = {
        "tokenize_tf": q_tokenize_tf,
        "doc_lengths": q_doc_lengths,
        "term_df": q_term_df,
        "corpus_stats": q_corpus_stats,
    }
    for name, method in [
        ("bm25_topk_lucene", "lucene"),
        ("bm25_topk_atire", "atire"),
        ("bm25_topk_robertson", "robertson"),
        ("bm25_topk_bm25l", "bm25l"),
        ("bm25_topk_bm25plus", "bm25+"),
        ("bm25_topk_okapi", "okapi"),
    ]:
        q[name] = (lambda m: lambda sf_dir: q_bm25_topk(sf_dir, m))(method)
    q["bm25_topk_lucene_stemmed"] = q_bm25_topk_stemmed
    q["bm25_served_lucene"] = q_bm25_served
    q["bm25_topk_filtered"] = q_bm25_topk_filtered
    q["bm25_topk_after_delete"] = q_bm25_topk_after_delete
    q["hybrid_rrf_topk"] = q_hybrid_rrf
    q["phrase_topk"] = q_phrase_topk
    q["near_topk"] = q_near_topk
    # phrase retrieval has one path: the *_pos names read the same
    # build-written positions as the plain ones
    q["phrase_topk_pos"] = q_phrase_topk
    q["near_topk_pos"] = q_near_topk
    q["bool_and_topk"] = q_bool_and_topk
    q["bool_query_topk"] = q_bool_query_topk
    q["snippet_topk"] = q_snippet_topk
    q["snippet_topk_raw"] = q_snippet_topk_raw
    q.update(
        {
            "dedup_exact": q_dedup_exact,
            "ngram_jaccard_pairs": q_ngram_jaccard,
            "minhash_lsh_pairs": q_minhash_lsh,
            "simhash_pairs": q_simhash,
            "embed_cosine_topk": q_embed_cosine_topk,
            "embed_cosine_pairs": q_embed_cosine_pairs,
            "embed_lsh_pairs": q_embed_lsh_pairs,
            "embed_kmeans": q_embed_kmeans,
            "embed_ivf_topk": q_embed_ivf_topk,
            "lang_id": q_lang_id,
            "quality_score": q_quality_score,
            "docs_topk_per_source": q_docs_topk_per_source,
            "token_count": q_token_count,
            "fingerprint": q_fingerprint,
            "winnow_fingerprint": q_winnow_fingerprint,
            "corpus_union": q_corpus_union,
            "doc_text_projection": q_doc_text_projection,
            "events_sessionize": q_events_sessionize,
            "events_tumbling_window": q_events_tumbling_window,
            "events_asof_join": q_events_asof_join,
            "docs_stratified_sample": q_docs_stratified_sample,
            "docs_pack_offsets": q_docs_pack_offsets,
            "docs_curate": q_docs_curate,
        }
    )
    return q


def flagship_entry():
    """Flagship pipeline on sf0.001: index the documents corpus and run
    the fixed BM25 query set end-to-end; returns the results table."""
    return q_bm25_topk("/root/testdata/sf0.001", "lucene")
