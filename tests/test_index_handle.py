"""One ``Index`` handle per call: every query-side entry point reads
the manifest once and reads text through the index's own analyzer, so
an index built with a non-default config (here ``lower=False``) gives
the same answers on search(), boolean, phrase and snippet retrieval."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from bm25_benchmarks_ray.config import IndexConfig
from bm25_benchmarks_ray.pipelines.index_build import build_index
from bm25_benchmarks_ray.pipelines.phrase import (
    bool_and_topk,
    bool_query_topk,
    phrase_topk,
)
from bm25_benchmarks_ray.pipelines.query import search
from bm25_benchmarks_ray.pipelines.snippets import snippet_topk
from bm25_benchmarks_ray.state.manifest import Manifest

TEXTS = ["Ray Data rocks", "ray data is fine", "Ray Serve and Ray Data"]


@pytest.fixture()
def cased(ray_session, tmp_path):
    """Case-sensitive 3-doc index: "Ray" (docs 0, 2) and "ray" (doc 1)
    are different terms."""
    p = str(tmp_path / "docs.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(len(TEXTS), dtype=np.int64)),
        "text": pa.array(TEXTS, type=pa.string()),
    }), p)
    idx = str(tmp_path / "index")
    build_index(p, idx, IndexConfig(lower=False, positions=True),
                mode="documents")
    return idx, p


def _scores(tbl) -> dict[int, float]:
    return dict(zip(tbl.column("doc_id").to_pylist(),
                    tbl.column("score").to_pylist()))


def test_boolean_reads_text_as_indexed(cased):
    idx, _ = cased
    ranked = search(idx, [("q", "Ray")], k=10, join_back=False).to_pandas()
    want = {int(d): round(float(s), 6)
            for d, s in zip(ranked["doc_id"], ranked["score"]) if d in (0, 2)}
    assert set(want) == {0, 2}
    assert _scores(bool_and_topk(idx, [("q", "Ray")])) == want
    assert _scores(bool_query_topk(idx, [("q", "Ray", "", "")])) == want


def test_phrase_reads_text_as_indexed(cased):
    """"Ray Data" matches docs 0 and 2 only ("ray data" is other terms);
    scores are the virtual-term BM25 of one occurrence each (df 2 of 3
    docs, dl 3 and 4 — "and" is a stopword)."""
    from bm25_benchmarks_ray.functions.bm25 import BM25Params, idf, tf_shape

    idx, _ = cased
    params, avgdl = BM25Params(), (3 + 3 + 4) / 3
    w = float(idf(params, 2, 3))
    want = {d: round(w * float(tf_shape(params, np.array([1]),
                                        np.array([dl]), avgdl)[0]), 6)
            for d, dl in ((0, 3), (2, 4))}
    got = _scores(phrase_topk(idx, [("q", "Ray Data")]))
    assert set(got) == {0, 2}
    assert all(abs(got[d] - want[d]) < 1e-6 for d in want)


def test_snippets_read_text_as_indexed(cased):
    idx, docs = cased
    res = snippet_topk(idx, docs, [("q", "Ray")], k=10).to_pandas()
    snip = dict(zip(res["doc_id"], res["snip_score"]))
    assert snip[1] == 0  # "ray" is not the query's term "Ray"
    assert snip[0] == 1 and snip[2] == 2


def test_one_manifest_load_per_call(cased, monkeypatch):
    """A cold call loads the manifest once; a call on an unchanged index
    reuses the open handle and loads it not at all."""
    from bm25_benchmarks_ray.pipelines import query
    from bm25_benchmarks_ray.pipelines.serve import BM25Server

    idx, docs = cased
    loads: list[str] = []
    real = Manifest.load.__func__

    def counting(cls, index_dir):
        loads.append(index_dir)
        return real(cls, index_dir)

    monkeypatch.setattr(Manifest, "load", classmethod(counting))
    calls = {
        "search": lambda: search(idx, [("q", "Ray")]).num_rows,
        "bool_and_topk": lambda: bool_and_topk(idx, [("q", "Ray Data")]),
        "bool_query_topk": lambda: bool_query_topk(
            idx, [("q", "Ray", "Data", "Serve")]),
        "phrase_topk": lambda: phrase_topk(idx, [("q", "Ray Data")]),
        "snippet_topk": lambda: snippet_topk(idx, docs, [("q", "Ray")]),
    }
    for name, call in calls.items():
        query._HANDLES.clear()
        loads.clear()
        call()
        assert len(loads) == 1, name
        loads.clear()
        call()
        assert loads == [], name
    with BM25Server(idx) as srv:
        loads.clear()
        srv.search([("q", "Ray")])
        srv.search([("q", "Data")])
        assert loads == []


def test_traced_search_resolves_every_target(cased):
    """perfbench's tracer wraps engine attributes by name: every one of
    them must still exist, and a traced search() reads the manifest
    once."""
    from bm25_benchmarks_ray.pipelines import query
    from perfbench.tracing import Tracer, _targets

    idx, _ = cased
    tracer = Tracer()
    tracer.install()
    try:
        for owner, attr, _ in _targets():
            assert hasattr(getattr(owner, attr), "__wrapped__"), attr
        query.search(idx, [("q", "Ray Data")]).num_rows
    finally:
        tracer.uninstall()
    root = next(s for s in tracer.roots if s.name == "query.search")
    assert sum(s.name == "manifest.load" for s in root.walk()) == 1
    for owner, attr, _ in _targets():
        assert not hasattr(getattr(owner, attr), "__wrapped__"), attr


def test_reader_cfg_cannot_replace_the_analyzer(ray_session, tmp_path):
    """A 300-doc, 2-group index built without stemming: "running dogs"
    matches docs 2, 8, 14, ... (the unstemmed terms).  A reader's cfg
    that stems would read the query as "run dog" and rank docs 1, 7,
    13, ... instead; every reader refuses it, naming the field, while a
    cfg that differs only in a physical knob reads as the index does."""
    from bm25_benchmarks_ray.pipelines.query import Index
    from bm25_benchmarks_ray.pipelines.serve import BM25Server

    texts = ["run dog" if i % 6 == 1 else "running dogs" if i % 6 == 2
             else f"cat sits here number{i % 5}" for i in range(300)]
    p = str(tmp_path / "docs.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(300, dtype=np.int64)),
        "text": pa.array(texts, type=pa.string()),
    }), p)
    idx = str(tmp_path / "index")
    built = IndexConfig(stopwords="en", stemmer="none")
    build_index(p, idx, built, mode="documents", n_groups=2)
    q = [("q", "running dogs")]
    got = search(idx, q, k=3, join_back=False)
    assert got.column("doc_id").to_pylist() == [2, 8, 14]

    stemmed = IndexConfig(stopwords="en", stemmer="snowball")
    for call in (
        lambda: search(idx, q, cfg=stemmed),
        lambda: Index.open(idx, stemmed),
        lambda: BM25Server(idx, cfg=stemmed),
        lambda: bool_and_topk(idx, q, cfg=stemmed),
        lambda: bool_query_topk(idx, [("q", "running", "dogs", "")], cfg=stemmed),
    ):
        with pytest.raises(ValueError, match=r"\['stemmer'\]"):
            call()
    same = IndexConfig(stopwords="en", stemmer="none", tokenize_batch_size=64)
    assert search(idx, q, k=3, join_back=False, cfg=same).equals(got)
