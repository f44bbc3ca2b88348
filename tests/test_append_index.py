"""Incremental segment append (documents mode): appended-index results
must be rank-identical to a fresh build over the union."""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from bm25_benchmarks_ray.functions.bm25 import BM25Params
from bm25_benchmarks_ray.pipelines.index_build import (
    IndexConfig,
    append_index,
    build_index,
)
from bm25_benchmarks_ray.pipelines.query import search

SRC = "/root/testdata/sf0.001/documents.parquet"
QUERIES = [
    ("q0", "system cache latency"),
    ("q1", "database network error"),
    ("q2", "user login token"),
]


@pytest.fixture(scope="module")
def split_docs(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("append_docs")
    t = pq.read_table(SRC, columns=["doc_id", "text"])
    cut = t.num_rows // 2
    a, b = str(root / "a"), str(root / "b")
    os.makedirs(a), os.makedirs(b)
    pq.write_table(t.slice(0, cut), os.path.join(a, "docs_a.parquet"))
    pq.write_table(t.slice(cut), os.path.join(b, "docs_b.parquet"))
    full = str(root / "full")
    os.makedirs(full)
    pq.write_table(t, os.path.join(full, "docs.parquet"))
    return a, b, full, str(root)


def _topk(idx: str, k: int = 10):
    res = search(idx, QUERIES, params=BM25Params(), k=k).to_pandas()
    return res.sort_values(["qid", "rank"]).reset_index(drop=True)


def test_append_matches_fresh_union(split_docs):
    a, b, full, root = split_docs
    cfg = IndexConfig()
    idx_inc = os.path.join(root, "idx_inc")
    man = build_index(a, idx_inc, cfg, mode="documents", fresh=True)
    n0 = len(man.groups)
    man2 = append_index(b, idx_inc, cfg)
    assert len(man2.groups) > n0  # new groups added, old untouched
    assert man2.is_complete()

    idx_full = os.path.join(root, "idx_full")
    build_index(full, idx_full, cfg, mode="documents", fresh=True)

    inc, ref = _topk(idx_inc), _topk(idx_full)
    assert inc[["qid", "doc_id", "rank"]].equals(ref[["qid", "doc_id", "rank"]])
    assert (inc.score - ref.score).abs().max() < 1e-9
    # stats re-finalized over the union
    assert man2.stats["num_docs"] == 500


def test_append_rejects_duplicates_and_overlap(split_docs):
    a, b, full, root = split_docs
    cfg = IndexConfig()
    idx = os.path.join(root, "idx_dup")
    build_index(a, idx, cfg, mode="documents", fresh=True)
    append_index(b, idx, cfg)
    with pytest.raises(ValueError, match="already in the index"):
        append_index(b, idx, cfg)  # same basenames
    # same doc_ids under a different file name -> overlapping id range
    clone = os.path.join(root, "clone")
    os.makedirs(clone, exist_ok=True)
    t = pq.read_table(os.path.join(b, "docs_b.parquet"))
    pq.write_table(t, os.path.join(clone, "docs_c.parquet"))
    with pytest.raises(ValueError, match="overlaps existing group"):
        append_index(clone, idx, cfg)


def test_append_requires_complete_index(split_docs, tmp_path):
    a, b, full, root = split_docs
    with pytest.raises(ValueError, match="complete index"):
        append_index(b, str(tmp_path / "nope"), IndexConfig())


def test_append_resumes_after_crash(split_docs):
    import shutil

    from bm25_benchmarks_ray.state.manifest import Manifest

    a, b, full, root = split_docs
    cfg = IndexConfig()
    idx = os.path.join(root, "idx_crash")
    build_index(a, idx, cfg, mode="documents", fresh=True)
    append_index(b, idx, cfg)
    want = _topk(idx)

    # simulate a crash mid-append: the appended group's segments +
    # manifest entry vanish, finalize cleared, group count stale
    man = Manifest.load(idx)
    gid = max(man.done_groups())
    del man.groups[str(gid)]
    man.stages.pop("finalize", None)
    man.n_groups = len(man.groups)
    man.save()
    shutil.rmtree(os.path.join(idx, "segments", f"group={gid}"))
    assert not Manifest.load(idx).is_complete()

    man2 = append_index(b, idx, cfg)  # same call again -> resume
    assert man2.is_complete() and man2.stats["num_docs"] == 500
    got = _topk(idx)
    assert got[["qid", "doc_id", "rank"]].equals(want[["qid", "doc_id", "rank"]])


def test_append_same_basename_different_dir(ray_session, tmp_path):
    """Lineage identity is (basename, rows), not basename alone: a file
    named like an already-indexed one but from another directory (hive
    part files!) must append normally when its ids are disjoint."""
    import os

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    t = pq.read_table(SRC, columns=["doc_id", "text"])
    d1, d2 = tmp_path / "d1", tmp_path / "d2"
    os.makedirs(d1), os.makedirs(d2)
    pq.write_table(t.slice(0, 250), str(d1 / "part-0.parquet"))
    shifted = t.slice(250, 250).set_column(
        0, "doc_id", pc.subtract(t.slice(250, 250).column("doc_id"), 0)
    )
    pq.write_table(shifted, str(d2 / "part-0.parquet"))

    idx = str(tmp_path / "idx")
    build_index(str(d1), idx, IndexConfig(), mode="documents", fresh=True)
    man = append_index(str(d2), idx, IndexConfig())
    assert man.stats["num_docs"] == 500
    assert len(man.done_groups()) == 2
    # appending the exact same file again IS refused (identical id)
    with pytest.raises(ValueError, match="already in the index"):
        append_index(str(d2), idx, IndexConfig())


def test_append_without_statistics_checks_its_span(ray_session, tmp_path):
    """The overlap check reads the span the new group's norms pass
    records, not the file's statistics: ids 100..299 written without
    statistics over an index of ids 0..199 are refused, and the index
    is left as found."""
    from bm25_benchmarks_ray.state.manifest import Manifest

    t = pq.read_table(SRC, columns=["doc_id", "text"])
    a, b = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    pq.write_table(t.slice(0, 200), a)
    pq.write_table(t.slice(100, 200), b, write_statistics=False)
    idx = str(tmp_path / "idx")
    build_index(a, idx, IndexConfig(), mode="documents", fresh=True)
    want = _topk(idx)
    with pytest.raises(ValueError, match=r"span \[100, 300\) overlaps existing"):
        append_index(b, idx)
    man = Manifest.load(idx)
    assert man.is_complete() and man.stats["num_docs"] == 200
    assert os.listdir(os.path.join(idx, "segments")) == ["group=0"]
    assert _topk(idx).equals(want)
