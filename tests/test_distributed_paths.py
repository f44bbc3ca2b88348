"""Force the at-scale code branches (distributed conv-offsets groupby,
distributed vocab aggregation) that the driver-side fast paths normally
shadow below DRIVER_SIDE_ROWS, check that search()'s per-query-batch
driver merge is rank-identical however the queries are batched, and pin
how search() sizes its scatter."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import bm25_benchmarks_ray.pipelines.index_build as ib
from bm25_benchmarks_ray.config import IndexConfig
from bm25_benchmarks_ray.functions.bm25 import BM25Params
from bm25_benchmarks_ray.pipelines.docfilter import bitmap_nbytes
from bm25_benchmarks_ray.pipelines.phrase import bool_query_topk
from bm25_benchmarks_ray.pipelines.query import (
    QBATCH_TARGET,
    Index,
    RESULT_SCHEMA,
    _scatter_shape,
    search,
)
from bm25_benchmarks_ray.sources.transcripts import (
    synthesize_queries,
    synthesize_transcripts,
)
from tests.oracle import build_oracle_index, oracle_topk


def test_distributed_offsets_and_vocab(ray_session, tmp_path, monkeypatch):
    monkeypatch.setattr(ib, "DRIVER_SIDE_ROWS", 0)  # force Ray paths
    d = tmp_path / "corpus"
    d.mkdir()
    table = synthesize_transcripts(350, seed=19)
    n = table.num_rows
    pq.write_table(table.slice(0, n // 2), str(d / "a.parquet"))
    pq.write_table(table.slice(n // 2), str(d / "b.parquet"))
    idx = str(tmp_path / "idx")
    man = ib.build_index(str(d), idx, IndexConfig(), mode="transcripts")
    assert man.is_complete()
    assert os.path.isdir(os.path.join(idx, "vocab"))

    df = table.to_pandas().sort_values(["conv_id", "turn_idx"], kind="mergesort")
    oracle = build_oracle_index(list(df["text"]))
    assert man.stats["num_docs"] == oracle.n_docs
    assert man.stats["n_terms"] == len(oracle.postings)

    params = BM25Params()
    res = search(idx, synthesize_queries(8, seed=2), params=params, k=5).to_pandas()
    for qid, qtext in synthesize_queries(8, seed=2):
        got = res[res["qid"] == qid].sort_values("rank")
        exp = oracle_topk(oracle, qtext, params, k=5)
        np.testing.assert_allclose(
            got["score"].to_numpy(), [s for _, s in exp], atol=1e-6
        )


@pytest.fixture(scope="module")
def two_group_index(ray_session, tmp_path_factory):
    d = tmp_path_factory.mktemp("dcorpus")
    table = synthesize_transcripts(300, seed=23)
    n = table.num_rows
    pq.write_table(table.slice(0, n // 2), str(d / "a.parquet"))
    pq.write_table(table.slice(n // 2), str(d / "b.parquet"))
    idx = str(tmp_path_factory.mktemp("didx") / "index")
    ib.build_index(str(d), idx, IndexConfig(), mode="transcripts", n_groups=2)
    return idx


def _ranked(ds):
    return ds.to_pandas().sort_values(["qid", "rank"]).reset_index(drop=True)


@pytest.mark.parametrize("k", [10, 1000])
def test_qbatch_merge_matches_single_batch(two_group_index, k):
    """One q-batch per query merges each query on its own; ranks must
    equal one merge over every query's partials."""
    import pandas as pd

    queries = synthesize_queries(12, seed=4) + [("q_oov", "zzqqxnotaword")]
    one = _ranked(search(two_group_index, queries, k=k, n_qbatch=1))
    many = _ranked(search(two_group_index, queries, k=k, n_qbatch=len(queries)))
    assert set(one["qid"]) == {q for q, _ in queries}
    cols = ["qid", "doc_id", "rank", "conv_id", "turn_idx"]
    pd.testing.assert_frame_equal(one[cols], many[cols])
    np.testing.assert_allclose(one["score"], many["score"], atol=1e-12)


def test_merge_runs_once_per_qbatch(two_group_index, monkeypatch):
    """The driver merges one q-batch at a time: one merge call per
    q-batch, each seeing only its own q-batch's queries."""
    import bm25_benchmarks_ray.pipelines.query as query

    seen = []
    real = query._merge_partials_local

    def record(tbl, *a, **kw):
        seen.append(tbl.column("qi").to_numpy().copy())
        return real(tbl, *a, **kw)

    monkeypatch.setattr(query, "_merge_partials_local", record)
    queries = synthesize_queries(12, seed=4)
    n_qbatch = 4
    search(two_group_index, queries, k=10, n_qbatch=n_qbatch)
    assert len(seen) == n_qbatch
    q_bounds = np.linspace(0, len(queries), n_qbatch + 1).astype(np.int64)
    for qb, qi in enumerate(seen):
        assert qi.size
        assert q_bounds[qb] <= qi.min() and qi.max() < q_bounds[qb + 1], qb


def test_local_search_starts_no_ray_data_job(two_group_index, monkeypatch):
    """search() is plain tasks plus a driver merge and returns the merged
    Arrow table itself: no Ray Data dataset is built to score or to wrap
    the result, a zero-row result keeps its columns, and the boolean
    entry points hand search()'s table on as is."""
    import ray.data as rd

    def boom(*a, **kw):
        raise AssertionError("search() started a Ray Data job")

    queries = synthesize_queries(5, seed=8)
    expected = _ranked(search(two_group_index, queries, k=10))
    for name in ("from_arrow", "from_arrow_refs", "from_items"):
        monkeypatch.setattr(rd, name, boom)
    monkeypatch.setattr(rd.Dataset, "map_batches", boom)
    bq = bool_query_topk(two_group_index, [("b", "", queries[0][1], "")], k=5)
    res = search(two_group_index, queries, k=10)
    none_allowed = np.zeros(
        bitmap_nbytes(Index.open(two_group_index).id_bound), dtype=np.uint8)
    empty = search(two_group_index, queries, k=10, allowed=none_allowed)
    monkeypatch.undo()
    assert isinstance(res, pa.Table) and isinstance(bq, pa.Table)
    assert _ranked(res).equals(expected)
    assert bq.num_rows == 5
    assert isinstance(empty, pa.Table) and empty.num_rows == 0
    assert empty.schema == RESULT_SCHEMA.append(
        pa.field("conv_id", pa.string())).append(pa.field("turn_idx", pa.int32()))
    assert list(empty.to_pandas()["qid"]) == []


@pytest.mark.parametrize("cpus,n_q,k,n_groups,shape", [
    # one CPU: one task per group; q-batches only cap the batch size
    (1, 1, 10, 1, (1, 1)),
    (1, 200, 10, 1, (1, 1)),
    (1, 200, 1000, 1, (1, 1)),
    (1, 50, 10, 4, (1, 1)),
    (1, 8000, 10, 1, (16, 1)),
    (1, 8000, 1000, 1, (16, 1)),
    # several CPUs: ~3 waves per CPU, as before the one-CPU rule
    (4, 1, 10, 1, (1, 12)),
    (4, 200, 10, 1, (12, 1)),
    (4, 200, 1000, 1, (12, 1)),
    (4, 50, 10, 4, (3, 1)),
    (16, 1, 10, 1, (1, 15)),
    (16, 200, 10, 1, (12, 4)),
    (16, 200, 1000, 1, (25, 2)),
    (16, 50, 10, 4, (3, 4)),
    (32, 1, 10, 1, (1, 15)),
    (32, 200, 10, 1, (12, 8)),
    (32, 200, 1000, 1, (25, 4)),
    (32, 50, 10, 4, (3, 8)),
    # every q-batch holds at most QBATCH_TARGET queries, dense path too
    (4, 8000, 1000, 1, (16, 1)),
])
def test_scatter_shape(cpus, n_q, k, n_groups, shape):
    n_qbatch, n_slices = _scatter_shape(n_q, k, n_groups, 1_000_000, cpus)
    assert (n_qbatch, n_slices) == shape
    assert -(-n_q // n_qbatch) <= QBATCH_TARGET


def test_one_cpu_search_launches_one_task_per_group(ray_session, tmp_path,
                                                     monkeypatch):
    """On a one-CPU cluster a 200-query call over one group is one
    scoring task (it was 8, each re-reading and re-decoding its terms)."""
    import ray

    import bm25_benchmarks_ray.pipelines.query as query

    p = str(tmp_path / "t.parquet")
    pq.write_table(synthesize_transcripts(200, seed=5), p)
    idx = str(tmp_path / "index")
    ib.build_index(p, idx, IndexConfig(), mode="transcripts", n_groups=1)
    queries = synthesize_queries(200, seed=6)
    expected = _ranked(search(idx, queries, k=10))

    launched = []
    real = query._collect_arrow

    def record(refs):
        launched.append(len(refs))
        return real(refs)

    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 1.0})
    monkeypatch.setattr(query, "_collect_arrow", record)
    got = _ranked(search(idx, queries, k=10))
    assert sum(launched) == 1
    assert got.equals(expected)


@pytest.mark.parametrize("arg,value", [
    ("n_qbatch", 0), ("n_qbatch", -1), ("n_slices", 0), ("n_slices", -2),
])
def test_scatter_counts_below_one_raise(two_group_index, arg, value):
    with pytest.raises(ValueError, match=arg):
        search(two_group_index, synthesize_queries(2, seed=1), **{arg: value})
