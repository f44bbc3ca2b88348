"""search() scores a call that the scatter gives one task and fewer
queries than a q-batch's floor in the calling process.  Its answers
must be the task path's, which ``n_slices=2`` forces."""

from __future__ import annotations

import os

import numpy as np
import pyarrow.parquet as pq
import pytest

from bm25_benchmarks_ray.config import IndexConfig
from bm25_benchmarks_ray.functions.bm25 import BM25Params
from bm25_benchmarks_ray.pipelines import query
from bm25_benchmarks_ray.pipelines.docfilter import bitmap_from_ids
from bm25_benchmarks_ray.pipelines.index_build import build_index
from bm25_benchmarks_ray.pipelines.query import Index, search
from bm25_benchmarks_ray.pipelines.tombstones import delete_docs
# 500 docs over a 29-term vocab: nearly every term is in more than half
# of the docs, so robertson's idf is negative for them
from tests.test_compact_index import SRC

QUERIES = [
    ("q0", "scan window join"),
    ("q1", "dup"),
    ("q2", "spark vector dup dup"),
    ("q3", "zzqq notaword"),
]


@pytest.fixture(scope="module")
def indexes(ray_session, tmp_path_factory):
    """A one-group index, and a two-group one with tombstones."""
    root = tmp_path_factory.mktemp("local_scoring")
    one = str(root / "one")
    build_index(SRC, one, IndexConfig(), mode="documents", n_groups=1)
    t = pq.read_table(SRC, columns=["doc_id", "text"])
    src = root / "src"
    os.makedirs(src)
    half = t.num_rows // 2
    pq.write_table(t.slice(0, half), str(src / "docs_0.parquet"))
    pq.write_table(t.slice(half), str(src / "docs_1.parquet"))
    two = str(root / "two")
    build_index(str(src), two, IndexConfig(), mode="documents", n_groups=2)
    delete_docs(two, np.arange(0, t.num_rows, 7))
    return one, two


def _run(monkeypatch, idx, queries, **kw):
    """search()'s result and, per job it gathered, "local" or "task"."""
    kinds: list[str] = []
    real = query._collect_arrow

    def record(jobs):
        kinds.extend("local" if callable(j) else "task" for j in jobs)
        return real(jobs)

    with monkeypatch.context() as m:
        m.setattr(query, "_collect_arrow", record)
        out = search(idx, queries, join_back=False, **kw)
    return out, kinds


@pytest.mark.parametrize("method", ["lucene", "robertson"])
@pytest.mark.parametrize("k", [10, 1000])
@pytest.mark.parametrize("mode", ["pruned", "exhaustive"])
def test_local_equals_tasks(indexes, monkeypatch, mode, k, method):
    one, _ = indexes
    ix = Index.open(one)
    assert ix.dense_pad
    if method == "robertson":
        assert any(df > ix.num_docs / 2 for df in ix.df_of(["scan", "dup"]).values())
    params = BM25Params(method=method)
    for call in [[q] for q in QUERIES] + [QUERIES]:
        local, kinds = _run(monkeypatch, one, call, params=params, k=k, mode=mode)
        assert kinds == ["local"]
        tasks, kinds = _run(monkeypatch, one, call, params=params, k=k, mode=mode,
                            n_slices=2)
        assert kinds == ["task", "task"]
        assert local.num_rows > 0 and local.equals(tasks)


@pytest.mark.parametrize("k", [10, 1000])
def test_local_equals_tasks_masked_group_subset(indexes, monkeypatch, k):
    """A ``groups=`` subset is one task on a two-group index; masks and
    tombstones reach the in-process scorer as they reach the tasks."""
    _, two = indexes
    ix = Index.open(two)
    assert ix.deleted is not None
    allow = bitmap_from_ids(np.arange(0, ix.id_bound, 3), ix.id_bound)
    for groups in ([0], [1]):
        for allowed in (None, allow):
            local, kinds = _run(monkeypatch, two, QUERIES[:2], k=k,
                                groups=groups, allowed=allowed)
            assert kinds == ["local"]
            tasks, kinds = _run(monkeypatch, two, QUERIES[:2], k=k,
                                groups=groups, allowed=allowed, n_slices=2)
            assert kinds == ["task", "task"]
            assert local.num_rows > 0 and local.equals(tasks)
            got = set(local.column("doc_id").to_pylist())
            assert not got & set(ix.deleted.tolist())
            if allowed is not None:
                assert all(d % 3 == 0 for d in got)


def test_floor_and_group_count_keep_the_task_path(indexes, monkeypatch):
    """A call at a q-batch's floor, or one over two groups, still runs
    as tasks."""
    one, two = indexes
    floor = [(f"q{i}", "scan window") for i in range(query._batch_floor(10))]
    _, kinds = _run(monkeypatch, one, floor, k=10)
    assert kinds == ["task"]
    _, kinds = _run(monkeypatch, two, QUERIES[:1], k=10)
    assert kinds == ["task", "task"]
