"""Index-level deletes (pipelines/tombstones.py): liveDocs-masked
search vs the oracle, idempotent unions, composition with user
filters, the serving path, and survival across compaction."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from bm25_benchmarks_ray.config import IndexConfig
from bm25_benchmarks_ray.functions.bm25 import BM25Params
from bm25_benchmarks_ray.pipelines.docfilter import bitmap_from_ids
from bm25_benchmarks_ray.pipelines.index_build import build_index, compact_index
from bm25_benchmarks_ray.pipelines.query import search
from bm25_benchmarks_ray.pipelines.tombstones import (
    delete_docs,
    live_count,
    load_tombstones,
)
from bm25_benchmarks_ray.sources.transcripts import (
    synthesize_queries,
    synthesize_transcripts,
)

from tests.oracle import build_oracle_index, oracle_scores
from tests.test_end_to_end import assert_rank_identical

N_TURNS = 300
DELETED = np.arange(0, N_TURNS, 7, dtype=np.int64)  # every 7th doc


@pytest.fixture()
def built(ray_session, tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    table = synthesize_transcripts(N_TURNS, seed=13)
    # two files: n_groups clamps to len(files), and the compaction
    # test needs >= 2 groups to merge
    n = table.num_rows
    pq.write_table(table.slice(0, n // 2), os.path.join(d, "t0.parquet"))
    pq.write_table(table.slice(n // 2), os.path.join(d, "t1.parquet"))
    idx = str(tmp_path / "index")
    build_index(str(d), idx, IndexConfig(), mode="transcripts", n_groups=2)
    df = table.to_pandas().sort_values(["conv_id", "turn_idx"], kind="mergesort")
    oracle = build_oracle_index(list(df["text"]))
    return idx, oracle


def _oracle_topk_restricted(oracle, qtext, params, live: np.ndarray, k: int):
    scores = oracle_scores(oracle, qtext, params)
    s = scores[live]
    order = np.lexsort((live, -s))[:k]
    return [(int(live[i]), float(s[i])) for i in order]


def test_delete_masks_search(built):
    idx, oracle = built
    assert delete_docs(idx, DELETED) == DELETED.size
    live = np.setdiff1d(np.arange(N_TURNS), DELETED)
    params = BM25Params(method="lucene")
    queries = synthesize_queries(10, seed=31)
    res = search(idx, queries, params=params, k=10, join_back=False).to_pandas()
    assert not np.isin(res["doc_id"].to_numpy(), DELETED).any()
    for qid, qtext in queries:
        got = res[res["qid"] == qid].sort_values("rank")
        exp = _oracle_topk_restricted(oracle, qtext, params, live, k=10)
        assert_rank_identical(
            list(got["doc_id"]), got["score"].to_numpy(), exp, ctx=(qid, qtext)
        )


def test_delete_union_idempotent(built):
    idx, _ = built
    assert delete_docs(idx, np.array([3, 9])) == 2
    assert delete_docs(idx, np.array([9, 12])) == 3  # union, not append
    assert delete_docs(idx, np.array([3])) == 3
    assert list(load_tombstones(idx)) == [3, 9, 12]
    assert live_count(idx) == N_TURNS - 3


def test_delete_dataset_input(built):
    import ray.data as rd

    idx, _ = built
    ds = rd.from_arrow(pa.table({"doc_id": pa.array([5, 6, 5], type=pa.int64())}))
    assert delete_docs(idx, ds) == 2
    assert list(load_tombstones(idx)) == [5, 6]


def test_delete_out_of_range_raises(built):
    idx, _ = built
    with pytest.raises(ValueError):
        delete_docs(idx, np.array([N_TURNS]))


def test_delete_checks_index_id_space(ray_session, tmp_path):
    """Ids are checked against the groups' id ranges, not [0, num_docs):
    on a 400-doc index with ids 1000..1399, 1200 is deleted and 5 (no
    doc of the index) raises."""
    t = synthesize_transcripts(400, seed=3)
    docs = str(tmp_path / "docs.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(1000, 1400, dtype=np.int64)),
        "text": t.column("text").slice(0, 400),
    }), docs)
    idx = str(tmp_path / "index")
    build_index(docs, idx, IndexConfig(), mode="documents")
    assert delete_docs(idx, [1200]) == 1
    assert list(load_tombstones(idx)) == [1200]
    with pytest.raises(ValueError, match="id space"):
        delete_docs(idx, [5])
    assert list(load_tombstones(idx)) == [1200]


def test_delete_composes_with_user_filter(built):
    idx, oracle = built
    delete_docs(idx, DELETED)
    rng = np.random.RandomState(8)
    user_allow = rng.random(N_TURNS) < 0.6
    bm = bitmap_from_ids(np.flatnonzero(user_allow), N_TURNS)
    live = np.flatnonzero(user_allow & ~np.isin(np.arange(N_TURNS), DELETED))
    params = BM25Params(method="bm25+")
    queries = synthesize_queries(8, seed=17)
    res = search(
        idx, queries, params=params, k=10, allowed=bm, join_back=False
    ).to_pandas()
    for qid, qtext in queries:
        got = res[res["qid"] == qid].sort_values("rank")
        exp = _oracle_topk_restricted(oracle, qtext, params, live, k=10)
        assert_rank_identical(
            list(got["doc_id"]), got["score"].to_numpy(), exp, ctx=(qid, qtext)
        )


def test_served_search_honors_tombstones(built):
    from bm25_benchmarks_ray.pipelines.serve import BM25Server

    idx, oracle = built
    delete_docs(idx, DELETED)
    live = np.setdiff1d(np.arange(N_TURNS), DELETED)
    params = BM25Params(method="lucene")
    queries = synthesize_queries(6, seed=23)
    with BM25Server(idx, params=params, join_back=False) as srv:
        res = srv.search(queries, k=10)
    assert not np.isin(res["doc_id"].to_numpy(), DELETED).any()
    for qid, qtext in queries:
        got = res[res["qid"] == qid].sort_values("rank")
        exp = _oracle_topk_restricted(oracle, qtext, params, live, k=10)
        assert_rank_identical(
            list(got["doc_id"]), got["score"].to_numpy(), exp, ctx=(qid, qtext)
        )


def test_served_tombstones_ship_as_group_shards(built, monkeypatch):
    """BM25Server composes its tombstones into per-group shards like
    search(): served results equal search(), and no ray.put carries a
    corpus-wide uint8 array.  Both read the index through the same open
    handle, so the shards are put once."""
    from bm25_benchmarks_ray.pipelines.docfilter import bitmap_nbytes
    from bm25_benchmarks_ray.pipelines.serve import BM25Server
    from bm25_benchmarks_ray.state.manifest import Manifest
    from tests.test_filtered_search import spy_uint8_puts

    idx, _ = built
    assert len(Manifest.load(idx).done_groups()) == 2
    delete_docs(idx, DELETED)
    put_sizes = spy_uint8_puts(monkeypatch)
    queries = synthesize_queries(6, seed=29)
    with BM25Server(idx, join_back=False) as srv:
        served = srv.search(queries, k=10)
    batch = search(idx, queries, k=10, join_back=False).to_pandas()
    key = ["qid", "rank"]
    assert served.sort_values(key).reset_index(drop=True).equals(
        batch.sort_values(key).reset_index(drop=True))
    assert len(put_sizes) == 2  # one shard per group, shared by both
    assert max(put_sizes) < bitmap_nbytes(N_TURNS), put_sizes


def test_tombstones_survive_compaction(built):
    idx, oracle = built
    delete_docs(idx, DELETED)
    compact_index(idx)  # 2 groups -> 1; sidecar must carry through
    assert load_tombstones(idx) is not None
    live = np.setdiff1d(np.arange(N_TURNS), DELETED)
    params = BM25Params(method="lucene")
    queries = synthesize_queries(5, seed=41)
    res = search(idx, queries, params=params, k=10, join_back=False).to_pandas()
    assert not np.isin(res["doc_id"].to_numpy(), DELETED).any()
    for qid, qtext in queries:
        got = res[res["qid"] == qid].sort_values("rank")
        exp = _oracle_topk_restricted(oracle, qtext, params, live, k=10)
        assert_rank_identical(
            list(got["doc_id"]), got["score"].to_numpy(), exp, ctx=(qid, qtext)
        )


@pytest.mark.parametrize("positions", ["force", "off"])
def test_phrase_honors_tombstones(ray_session, tmp_path, positions):
    """Deleted docs never rank on the phrase path; the phrase df still
    counts them, so the live docs keep their scores.  On an index built
    without positions ("off") the phrase path ranks nothing, before or
    after the delete: it raises, naming IndexConfig(positions=True)."""
    from bm25_benchmarks_ray.pipelines.phrase import phrase_topk

    texts = ["big query engine", "a big query here", "small data",
             "big query big query"]
    docs = str(tmp_path / "docs.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
        "text": pa.array(texts, type=pa.string()),
    }), docs)
    idx = str(tmp_path / "index")
    build_index(docs, idx, IndexConfig(positions=positions == "force"),
                mode="documents")

    def scores() -> dict[int, float]:
        t = phrase_topk(idx, [("q", "big query")])
        return dict(zip(t.column("doc_id").to_pylist(),
                        t.column("score").to_pylist()))

    if positions == "off":
        no_pos = r"IndexConfig\(positions=True\)"
        with pytest.raises(ValueError, match=no_pos):
            scores()
        assert delete_docs(idx, [1]) == 1
        with pytest.raises(ValueError, match=no_pos):
            scores()
        return
    before = scores()
    assert set(before) == {0, 1, 3}
    delete_docs(idx, [1])
    assert scores() == {d: s for d, s in before.items() if d != 1}
