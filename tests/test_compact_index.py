"""Segment compaction: merged-group results must be rank-identical to
the multi-group index, with one group and (mostly) one row per term,
and the compacted segment rows and norms byte-identical to a fresh
build of the union."""

from __future__ import annotations

import os

import numpy as np
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from bm25_benchmarks_ray.functions.bm25 import BM25Params
from bm25_benchmarks_ray.pipelines.index_build import (
    IndexConfig,
    append_index,
    build_index,
    compact_index,
)
from bm25_benchmarks_ray.pipelines.query import search
from bm25_benchmarks_ray.stages.segments import SEGMENT_SCHEMA
from tests.oracle import assert_norms_match

SRC = "/root/testdata/sf0.001/documents.parquet"
QUERIES = [
    ("q0", "system cache latency"),
    ("q1", "database network error"),
    ("q2", "user login token"),
]
# QUERIES are out of the corpus vocab, so their rows are all padding;
# these match real documents (29 docs hold "dup")
MATCHING = [("m0", "scan window join"), ("m1", "dup")]


def _topk(idx: str, k: int = 10):
    res = search(idx, QUERIES, params=BM25Params(), k=k).to_pandas()
    return res.sort_values(["qid", "rank"]).reset_index(drop=True)


@pytest.fixture(scope="module")
def multi_group_index(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("compact")
    import pyarrow.parquet as pq

    t = pq.read_table(SRC, columns=["doc_id", "text"])
    src = str(root / "src")
    os.makedirs(src)
    third = t.num_rows // 3
    for i in range(3):
        part = t.slice(i * third, third if i < 2 else t.num_rows - 2 * third)
        pq.write_table(part, os.path.join(src, f"docs_{i}.parquet"))
    idx = str(root / "idx")
    man = build_index(
        src, idx, IndexConfig(), mode="documents", n_groups=3, fresh=True
    )
    assert len(man.done_groups()) >= 2  # planner may fold small files
    return idx, man.done_groups()


def test_compact_rank_identical(multi_group_index):
    idx, gids_before = multi_group_index
    before = _topk(idx)
    man = compact_index(idx)
    assert man.done_groups() == [0] and man.is_complete()
    e = man.groups["0"]
    assert e["n_docs"] == 500 and e["compacted_from"] == gids_before
    assert e["doc_lo"] == 0 and e["doc_hi"] == 500  # contiguous spans fused
    after = _topk(idx)
    assert before[["qid", "doc_id", "rank"]].equals(after[["qid", "doc_id", "rank"]])
    assert (before.score - after.score).abs().max() < 1e-9
    # terms folded to one row each (one partition per term id range)
    seg = pads.dataset(os.path.join(idx, "segments")).to_table(columns=["term", "df"])
    assert seg.column("term").to_pandas().is_unique


def test_compact_needs_two_groups(multi_group_index):
    idx, _ = multi_group_index
    with pytest.raises(ValueError, match="at least two groups"):
        compact_index(idx)  # already compacted by prior test


def test_append_then_compact(ray_session, tmp_path):
    import pyarrow.parquet as pq

    t = pq.read_table(SRC, columns=["doc_id", "text"])
    cut = t.num_rows // 2
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    os.makedirs(a), os.makedirs(b)
    pq.write_table(t.slice(0, cut), os.path.join(a, "a.parquet"))
    pq.write_table(t.slice(cut), os.path.join(b, "b.parquet"))
    idx = str(tmp_path / "idx")
    cfg = IndexConfig()
    build_index(a, idx, cfg, mode="documents", fresh=True)
    append_index(b, idx, cfg)
    before = _topk(idx)
    man = compact_index(idx)
    assert len(man.done_groups()) == 1 and man.stats["num_docs"] == 500
    assert _topk(idx)[["qid", "doc_id", "rank"]].equals(
        before[["qid", "doc_id", "rank"]]
    )
    # contiguous compaction: the sources' arrays placed end to end
    assert (man.groups["0"]["doc_lo"], man.groups["0"]["doc_hi"]) == (0, 500)
    assert_norms_match(idx, t.column("doc_id"), t.column("text").to_pylist())


def _holed_compacted_index(tmp_path, cfg: IndexConfig = IndexConfig()):
    """Docs 0..199 plus an append of docs 1000..1199, compacted into one
    group whose span [0, 1200) has a hole: 400 docs, not exact."""
    import pyarrow.compute as pc

    t = pq.read_table(SRC, columns=["doc_id", "text"])
    lo = t.slice(0, 200)  # ids 0..199
    hi = t.slice(200, 200).set_column(  # ids shifted to 1000..1199 (hole)
        0, "doc_id", pc.add(t.slice(200, 200).column("doc_id"), 800)
    )
    a, b = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    pq.write_table(lo, a)
    pq.write_table(hi, b)
    idx = str(tmp_path / "idx")
    build_index(a, idx, cfg, mode="documents", fresh=True)
    append_index(b, idx, cfg)
    return idx, compact_index(idx)


def _holed_docs():
    import pyarrow as pa

    t = pq.read_table(SRC, columns=["doc_id", "text"])
    ids = np.concatenate([np.arange(200), np.arange(1000, 1200)])
    return pa.table({"doc_id": ids,
                     "text": t.column("text").slice(0, 400).combine_chunks()})


def test_holed_compaction_norms(ray_session, tmp_path):
    """The holed group's norms span its span [0, 1200) with zeros in
    the hole, and no file of the folded group 1 survives."""
    from bm25_benchmarks_ray.state.norms import NORMS_FILE

    idx, man = _holed_compacted_index(tmp_path)
    assert man.done_groups() == [0] and man.groups["0"]["doc_lo"] == 0
    arr = np.load(os.path.join(idx, "segments", "group=0", NORMS_FILE))
    assert arr.size == 1200 and not arr[200:1000].any()
    docs = _holed_docs()
    assert_norms_match(idx, docs.column("doc_id"), docs.column("text").to_pylist())
    assert sorted(os.listdir(os.path.join(idx, "segments"))) == ["group=0"]


def test_holed_empty_result_keeps_columns(ray_session, tmp_path):
    """A query that matches nothing on an index without padding returns
    zero rows that still carry the result columns."""
    idx, _ = _holed_compacted_index(tmp_path)
    df = search(idx, [("q0", "zzzqqq nonexistentterm")]).to_pandas()
    assert len(df) == 0
    assert list(df.columns) == ["qid", "doc_id", "rank", "score"]
    assert df["qid"].tolist() == []


def test_holed_compaction_ranks_as_union_build(ray_session, tmp_path):
    """search(), BM25Server and the phrase path (positions merged by the
    compaction) over the holed compacted index rank exactly as a fresh
    build of the union."""
    from bm25_benchmarks_ray.pipelines.phrase import phrase_topk
    from bm25_benchmarks_ray.pipelines.serve import BM25Server

    cfg = IndexConfig(positions=True)
    idx, _ = _holed_compacted_index(tmp_path, cfg)
    docs = _holed_docs()
    dpath = str(tmp_path / "union_docs.parquet")
    pq.write_table(docs, dpath)
    union = str(tmp_path / "union_idx")
    build_index(dpath, union, cfg, mode="documents", n_groups=1, fresh=True)
    qs = MATCHING + [("q3", "table query join scan")]
    key = ["qid", "rank"]

    def ranked(df):
        return df.sort_values(key).reset_index(drop=True)[["qid", "doc_id", "rank"]]

    for k in (10, 60):
        a = ranked(search(idx, qs, k=k, join_back=False).to_pandas())
        b = ranked(search(union, qs, k=k, join_back=False).to_pandas())
        assert a.equals(b) and len(a) > 0
        with BM25Server(idx, join_back=False) as srv:
            assert ranked(srv.search(qs, k=k)).equals(b)
    pa_ = phrase_topk(idx, [("p0", "scan window")])
    pb = phrase_topk(union, [("p0", "scan window")])
    assert pa_.num_rows > 0
    assert pa_.column("doc_id").to_pylist() == pb.column("doc_id").to_pylist()


def test_compact_preserves_overlap_validation(ray_session, tmp_path):
    """A compacted group with HOLES in its id space must still refuse an
    overlapping append (its span covers the hole), and a REJECTED
    append must leave the index complete and queryable."""
    from bm25_benchmarks_ray.state.manifest import Manifest

    idx, man = _holed_compacted_index(tmp_path)
    e = man.groups[str(man.done_groups()[0])]
    assert (e["doc_lo"], e["doc_hi"]) == (0, 1200) and e["n_docs"] == 400

    c = str(tmp_path / "c.parquet")
    t = pq.read_table(SRC, columns=["doc_id", "text"])
    pq.write_table(t.slice(50, 100), c)  # ids 50..149: inside the span
    with pytest.raises(ValueError, match="overlaps"):
        append_index(c, idx, IndexConfig())
    # the rejected append left the index finalized and queryable
    man2 = Manifest.load(idx)
    assert man2.is_complete() and "finalize" in man2.stages
    assert search(idx, MATCHING).num_rows > 0


def test_masked_search_needs_group_ranges(ray_session, tmp_path):
    """Masks ship as per-group shards cut by the groups' spans: a holed
    but disjoint index serves a masked search (the unmasked ranking
    restricted to the mask), and overlapping spans (even/odd groups)
    raise."""
    from bm25_benchmarks_ray.pipelines.docfilter import bitmap_from_ids

    idx, man = _holed_compacted_index(tmp_path)
    n = 1200  # Index.id_bound: the span reaches past num_docs (400)
    keep = np.concatenate([np.arange(0, 200, 2), np.arange(1001, 1200, 3)])
    bm = bitmap_from_ids(keep, n)
    full = search(idx, MATCHING, k=n, join_back=False).to_pandas()
    got = search(idx, MATCHING, k=10, allowed=bm, join_back=False).to_pandas()
    for qid, _ in MATCHING:
        want = full[(full["qid"] == qid) & full["doc_id"].isin(keep)]
        mine = got[got["qid"] == qid].sort_values("rank")
        assert len(mine) > 0
        assert list(mine["doc_id"]) == list(want["doc_id"][:10]), qid
        np.testing.assert_allclose(mine["score"], want["score"][:10])

    t = pq.read_table(SRC, columns=["doc_id", "text"])
    ids = t.column("doc_id").to_numpy()
    src = tmp_path / "evenodd"
    os.makedirs(src)
    pq.write_table(t.filter(ids % 2 == 0), str(src / "even.parquet"))
    pq.write_table(t.filter(ids % 2 == 1), str(src / "odd.parquet"))
    inter = str(tmp_path / "inter")
    build_index(str(src), inter, mode="documents", n_groups=2, fresh=True)
    with pytest.raises(ValueError, match="disjoint per-group doc spans"):
        search(inter, QUERIES, allowed=bitmap_from_ids(ids[::2], 500))
    assert search(inter, MATCHING).num_rows > 0  # unmasked search serves it


def test_compaction_refuses_to_swallow_a_group(ray_session, tmp_path):
    """Groups [0, 100), [100, 200) and [200, 300): compacting 0 and 2
    would give the span [0, 300), which covers group 1, and a later
    delete would leave every search() raising on overlapping spans.  The
    compaction refuses, naming group 1, and leaves the index as found;
    compacting adjacent groups is fine."""
    from bm25_benchmarks_ray.pipelines.tombstones import delete_docs
    from bm25_benchmarks_ray.state.manifest import Manifest

    t = pq.read_table(SRC, columns=["doc_id", "text"]).slice(0, 300)
    src = tmp_path / "src"
    os.makedirs(src)
    for i in range(3):
        pq.write_table(t.slice(100 * i, 100), str(src / f"docs_{i}.parquet"))
    idx = str(tmp_path / "idx")
    build_index(str(src), idx, IndexConfig(), mode="documents", n_groups=3)
    before = Manifest.load(idx)
    assert [(e["doc_lo"], e["doc_hi"]) for _, e in sorted(before.groups.items())] == [
        (0, 100), (100, 200), (200, 300)]
    with pytest.raises(ValueError, match=r"swallows group 1 \[100, 200\)"):
        compact_index(idx, gids=[0, 2])
    assert Manifest.load(idx).groups == before.groups
    assert sorted(os.listdir(os.path.join(idx, "segments"))) == [
        "group=0", "group=1", "group=2"]
    delete_docs(idx, [5])
    res = search(idx, MATCHING, join_back=False)
    assert res.num_rows > 0 and 5 not in res.column("doc_id").to_pylist()
    compact_index(idx, gids=[0, 1])
    res2 = search(idx, MATCHING, join_back=False)
    assert res2.equals(res)


def test_holed_index_pads_no_invented_ids(ray_session, tmp_path):
    """A holed index whose ids are not [0, num_docs) (0..199 and
    1000..1199, num_docs 400) returns matched docs only: merge-side
    padding from range(num_docs) would return ids 200..249, which are
    not documents."""
    idx, _ = _holed_compacted_index(tmp_path)
    ids = set(range(200)) | set(range(1000, 1200))
    assert search(idx, QUERIES, k=250).num_rows == 0  # all out of vocab
    res = search(idx, MATCHING, k=250, join_back=False).to_pandas()
    assert set(res["doc_id"]) <= ids
    assert 0 < (res["qid"] == "m1").sum() < 250  # fewer matches than k


def _segment_rows(idx: str):
    seg = pads.dataset(os.path.join(idx, "segments")).to_table(
        columns=SEGMENT_SCHEMA.names
    )
    return seg.sort_by("tid")


def _fresh_union(table, root, cfg: IndexConfig) -> str:
    src = str(root / "union.parquet")
    pq.write_table(table.sort_by("doc_id"), src)
    idx = str(root / "union_idx")
    build_index(src, idx, cfg, mode="documents", n_groups=1, fresh=True)
    return idx


def test_append_compact_byte_identical_to_union_build(ray_session, tmp_path):
    """block_size=8: rows span many blocks and each part ends in a short
    block, so the compacted doc stream must re-block across part seams."""
    t = pq.read_table(SRC, columns=["doc_id", "text"])
    cfg = IndexConfig(block_size=8)
    third = t.num_rows // 3
    dirs = []
    for i in range(3):
        d = tmp_path / f"part{i}"
        os.makedirs(d)
        part = t.slice(i * third, third if i < 2 else t.num_rows - 2 * third)
        pq.write_table(part, str(d / f"p{i}.parquet"))
        dirs.append(str(d))
    idx = str(tmp_path / "idx")
    build_index(dirs[0], idx, cfg, mode="documents", fresh=True)
    append_index(dirs[1], idx, cfg)
    append_index(dirs[2], idx, cfg)
    man = compact_index(idx)
    assert man.done_groups() == [0]

    union = _fresh_union(t, tmp_path, cfg)
    got, want = _segment_rows(idx), _segment_rows(union)
    assert got.column("df").to_numpy().max() > 3 * 8  # multi-block rows
    assert got.equals(want)
    a = np.load(os.path.join(idx, "segments", "group=0", "_norms.npy"))
    b = np.load(os.path.join(union, "segments", "group=0", "_norms.npy"))
    assert a.dtype == b.dtype and np.array_equal(a, b)


def test_compact_interleaved_doc_ids(ray_session, tmp_path):
    """Even ids in one group, odd ids in the other: every term's parts
    interleave, so compaction takes the merge kernel's lexsort path.
    The merged group holds exactly [0, 500), so it records that span
    and serves deletes like a fresh build of the union."""
    from bm25_benchmarks_ray.pipelines.tombstones import delete_docs

    t = pq.read_table(SRC, columns=["doc_id", "text"])
    ids = t.column("doc_id").to_numpy()
    src = tmp_path / "src"
    os.makedirs(src)
    pq.write_table(t.filter(ids % 2 == 0), str(src / "even.parquet"))
    pq.write_table(t.filter(ids % 2 == 1), str(src / "odd.parquet"))
    cfg = IndexConfig(block_size=8)
    idx = str(tmp_path / "idx")
    man = build_index(str(src), idx, cfg, mode="documents", n_groups=2, fresh=True)
    assert len(man.done_groups()) == 2
    before = _topk(idx, k=50)
    man = compact_index(idx)
    e = man.groups["0"]
    assert (e["doc_lo"], e["doc_hi"], e["n_docs"]) == (0, 500, 500)
    after = _topk(idx, k=50)
    assert before[["qid", "doc_id", "rank"]].equals(after[["qid", "doc_id", "rank"]])
    assert (before.score - after.score).abs().max() < 1e-9
    union = _fresh_union(t, tmp_path, cfg)
    assert _segment_rows(idx).equals(_segment_rows(union))
    # interleaved sources: each parity's array holds 0 at the other's ids
    assert_norms_match(idx, t.column("doc_id"), t.column("text").to_pylist())

    for d in (idx, union):
        delete_docs(d, [3])
    qs = QUERIES + MATCHING
    got, want = (search(d, qs, k=50, join_back=False).to_pandas()
                 .sort_values(["qid", "rank"]).reset_index(drop=True)
                 for d in (idx, union))
    assert len(got) > 0 and 3 not in set(got["doc_id"])
    assert got[["qid", "doc_id", "rank"]].equals(want[["qid", "doc_id", "rank"]])
    assert (got.score - want.score).abs().max() < 1e-9
