"""Force the at-scale code branches (distributed conv-offsets groupby,
distributed vocab aggregation, distributed query merge) that the
driver-side fast paths normally shadow below DRIVER_SIDE_ROWS /
DRIVER_MERGE_ROWS."""

from __future__ import annotations

import os

import numpy as np
import pyarrow.parquet as pq
import pytest

import bm25_benchmarks_ray.pipelines.index_build as ib
from bm25_benchmarks_ray.config import IndexConfig
from bm25_benchmarks_ray.functions.bm25 import BM25Params
from bm25_benchmarks_ray.pipelines.query import search
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
def test_distributed_merge_matches_local(two_group_index, monkeypatch, k):
    """DRIVER_MERGE_ROWS = 0 routes every batch through the Ray Data
    groupby merge over the task refs; ranks must equal the driver merge."""
    import pandas as pd

    import bm25_benchmarks_ray.pipelines.query as query

    queries = synthesize_queries(12, seed=4) + [("q_oov", "zzqqxnotaword")]
    local = _ranked(search(two_group_index, queries, k=k))
    monkeypatch.setattr(query, "DRIVER_MERGE_ROWS", 0)
    dist = _ranked(search(two_group_index, queries, k=k))
    cols = ["qid", "doc_id", "rank", "conv_id", "turn_idx"]
    pd.testing.assert_frame_equal(local[cols], dist[cols])
    np.testing.assert_allclose(local["score"], dist["score"], atol=1e-12)


def test_local_search_starts_no_ray_data_job(two_group_index, monkeypatch):
    import ray.data as rd

    def boom(*a, **kw):
        raise AssertionError("search() started a Ray Data job")

    expected = _ranked(search(two_group_index, synthesize_queries(5, seed=8), k=10))
    monkeypatch.setattr(rd, "from_items", boom)
    monkeypatch.setattr(rd.Dataset, "map_batches", boom)
    ds = search(two_group_index, synthesize_queries(5, seed=8), k=10)
    monkeypatch.undo()
    assert _ranked(ds).equals(expected)
