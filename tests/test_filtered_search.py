"""Filtered retrieval (search(allowed=...) + pipelines/docfilter.py):
masked top-k vs the numpy oracle restricted to allowed docs, edge
masks, and the bitmap helpers."""

from __future__ import annotations

import os

import numpy as np
import pyarrow.parquet as pq
import pytest

from bm25_benchmarks_ray.config import IndexConfig
from bm25_benchmarks_ray.functions.bm25 import BM25Params
from bm25_benchmarks_ray.pipelines.docfilter import (
    allowed_bitmap,
    bitmap_from_ids,
    bitmap_nbytes,
    bitmap_slice,
    invert_bitmap,
    popcount,
)
from bm25_benchmarks_ray.pipelines.index_build import build_index
from bm25_benchmarks_ray.pipelines.query import search
from bm25_benchmarks_ray.sources.transcripts import (
    synthesize_queries,
    synthesize_transcripts,
)

from tests.oracle import build_oracle_index, oracle_scores
from tests.test_end_to_end import assert_rank_identical

N_TURNS = 360


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    d = tmp_path_factory.mktemp("fcorpus")
    table = synthesize_transcripts(N_TURNS, seed=11)
    pq.write_table(table, os.path.join(d, "t.parquet"))
    idx = str(tmp_path_factory.mktemp("fidx") / "index")
    build_index(str(d), idx, IndexConfig(), mode="transcripts", n_groups=2)
    df = table.to_pandas().sort_values(["conv_id", "turn_idx"], kind="mergesort")
    oracle = build_oracle_index(list(df["text"]))
    return idx, oracle


def _mask(n: int, frac: float, seed: int) -> np.ndarray:
    rng = np.random.RandomState(seed)
    return rng.random(n) < frac


def _oracle_filtered_topk(oracle, qtext, params, allow: np.ndarray, k: int):
    scores = oracle_scores(oracle, qtext, params)
    ids = np.flatnonzero(allow)
    s = scores[ids]
    order = np.lexsort((ids, -s))[:k]
    return [(int(ids[i]), float(s[i])) for i in order]


@pytest.mark.parametrize(
    "method", ["lucene", "atire", "robertson", "bm25l", "bm25+", "okapi"]
)
def test_filtered_matches_oracle(built, method):
    idx, oracle = built
    params = BM25Params(method=method)
    allow = _mask(N_TURNS, 0.55, seed=3)
    bm = bitmap_from_ids(np.flatnonzero(allow), N_TURNS)
    queries = synthesize_queries(15, seed=21)
    res = search(
        idx, queries, params=params, k=10, allowed=bm, join_back=False
    ).to_pandas()
    for qid, qtext in queries:
        got = res[res["qid"] == qid].sort_values("rank")
        exp = _oracle_filtered_topk(oracle, qtext, params, allow, k=10)
        assert allow[list(got["doc_id"])].all(), (method, qid)
        assert_rank_identical(
            list(got["doc_id"]), got["score"].to_numpy(), exp,
            ctx=(method, qid, qtext),
        )


def test_mask_smaller_than_k(built):
    idx, oracle = built
    ids = np.array([7, 40, 199], dtype=np.int64)
    bm = bitmap_from_ids(ids, N_TURNS)
    res = search(
        idx, synthesize_queries(6, seed=5), k=10, allowed=bm, join_back=False
    ).to_pandas()
    for qid, g in res.groupby("qid"):
        assert sorted(g["doc_id"]) == [7, 40, 199]
        assert list(g.sort_values("rank")["rank"]) == [1, 2, 3]


def test_empty_mask_returns_no_rows(built):
    idx, _ = built
    bm = np.zeros(bitmap_nbytes(N_TURNS), dtype=np.uint8)
    res = search(
        idx, synthesize_queries(3, seed=5), k=10, allowed=bm, join_back=False
    ).to_pandas()
    assert len(res) == 0


def test_zero_match_query_pads_from_allowed(built):
    idx, _ = built
    ids = np.array([31, 99, 100, 250], dtype=np.int64)
    bm = bitmap_from_ids(ids, N_TURNS)
    res = search(
        idx, [("q_oov", "zzqqxxnotaword")], k=3, allowed=bm, join_back=False
    ).to_pandas().sort_values("rank")
    assert list(res["doc_id"]) == [31, 99, 100]
    assert (res["score"] == 0.0).all()


def test_wrong_size_bitmap_raises(built):
    idx, _ = built
    with pytest.raises(ValueError, match="bitmap"):
        search(idx, [("q", "hello")], allowed=np.zeros(1, dtype=np.uint8))


def test_bitmap_roundtrip_and_slice():
    rng = np.random.RandomState(0)
    n = 1003
    ids = np.flatnonzero(rng.random(n) < 0.3)
    bm = bitmap_from_ids(ids, n)
    assert popcount(bm) == ids.size
    full = bitmap_slice(bm, 0, n)
    assert np.array_equal(np.flatnonzero(full), ids)
    # arbitrary unaligned slice
    lo, hi = 117, 901
    assert np.array_equal(bitmap_slice(bm, lo, hi), full[lo:hi])
    inv = invert_bitmap(bm, n)
    assert popcount(inv) == n - ids.size
    assert not (np.flatnonzero(bitmap_slice(inv, 0, n)) == ids[:, None]).any()


def test_bitmap_out_of_range_raises():
    with pytest.raises(ValueError):
        bitmap_from_ids(np.array([8]), 8)


def test_allowed_bitmap_distributed_matches_local(ray_session):
    import pyarrow as pa
    import ray.data as rd

    rng = np.random.RandomState(4)
    n = 5000
    ids = np.flatnonzero(rng.random(n) < 0.2).astype(np.int64)
    ds = rd.from_arrow(pa.table({"doc_id": ids})).repartition(7)
    got = allowed_bitmap(ds, n)
    assert np.array_equal(got, bitmap_from_ids(ids, n))


# ---------------------------------------------------------------- shards

def test_compose_shards_matches_full_unaligned(ray_session):
    """Per-group shard masks == slices of the corpus-wide bitmap, with
    byte-UNALIGNED group boundaries (adjacent shards share a byte) and
    tombstones folded in."""
    from bm25_benchmarks_ray.pipelines.docfilter import compose_shards

    rng = np.random.RandomState(7)
    n = 61
    ranges = [(0, 13), (13, 27), (27, 61)]
    allow = rng.random(n) < 0.6
    deleted = np.flatnonzero(rng.random(n) < 0.2).astype(np.int64)
    full = bitmap_from_ids(np.flatnonzero(allow), n)
    sh = compose_shards(ranges, n, user=full, deleted_ids=deleted)
    ref = allow.copy()
    ref[deleted] = False
    for lo, hi in ranges + [(2, 13), (13, 20), (30, 55), (27, 28)]:
        assert np.array_equal(sh.mask(lo, hi), ref[lo:hi]), (lo, hi)
    # a span crossing a shard boundary is a caller bug -> loud error
    with pytest.raises(ValueError):
        sh.mask(10, 20)
    # shards already composed with these tombstones pass through as
    # they are; an equal copy of the ids composes again, same bits
    assert compose_shards(ranges, n, user=sh, deleted_ids=deleted) is sh
    again = compose_shards(ranges, n, user=sh, deleted_ids=deleted.copy())
    assert again is not sh
    for lo, hi in ranges:
        assert np.array_equal(again.mask(lo, hi), ref[lo:hi]), (lo, hi)


def test_compose_shards_no_user_filter(ray_session):
    """user=None means all-allowed minus tombstones."""
    from bm25_benchmarks_ray.pipelines.docfilter import compose_shards

    n = 40
    ranges = [(0, 19), (19, 40)]
    deleted = np.array([0, 5, 19, 39], dtype=np.int64)
    sh = compose_shards(ranges, n, user=None, deleted_ids=deleted)
    ref = np.ones(n, dtype=bool)
    ref[deleted] = False
    for lo, hi in ranges:
        assert np.array_equal(sh.mask(lo, hi), ref[lo:hi])


def test_compose_shards_unsorted_tombstones(ray_session):
    """Tombstone ids arrive in any order; each group's shard must clear
    exactly the bits the sorted input clears."""
    from bm25_benchmarks_ray.pipelines.docfilter import compose_shards

    n = 50
    ranges = [(0, 21), (21, 50)]
    deleted = np.array([1, 4, 9, 20, 21, 22, 30, 41, 49], dtype=np.int64)
    shuffled = np.random.RandomState(3).permutation(deleted)
    assert not np.array_equal(shuffled, deleted)
    want = compose_shards(ranges, n, deleted_ids=deleted)
    got = compose_shards(ranges, n, deleted_ids=shuffled)
    ref = np.ones(n, dtype=bool)
    ref[deleted] = False
    for lo, hi in ranges:
        assert np.array_equal(got.mask(lo, hi), want.mask(lo, hi)), (lo, hi)
        assert np.array_equal(got.mask(lo, hi), ref[lo:hi]), (lo, hi)


def test_allowed_shards_distributed_matches_bitmap(ray_session):
    """Fully-distributed shard build (no corpus-wide array on the
    driver) == the full-bitmap build, sliced per group."""
    import pyarrow as pa
    import ray.data as rd

    from bm25_benchmarks_ray.pipelines.docfilter import allowed_shards

    rng = np.random.RandomState(11)
    n = 5000
    ranges = [(0, 1701), (1701, 3333), (3333, 5000)]
    ids = np.flatnonzero(rng.random(n) < 0.25).astype(np.int64)
    ds = rd.from_arrow(pa.table({"doc_id": ids})).repartition(9)
    sh = allowed_shards(ds, n, ranges)
    full = bitmap_from_ids(ids, n)
    for lo, hi in ranges + [(100, 1701), (1701, 1800), (4000, 4444)]:
        assert np.array_equal(sh.mask(lo, hi), bitmap_slice(full, lo, hi))


def test_allowed_shards_out_of_order_chunks(ray_session):
    """Chunks arrive in no id order and cross group boundaries (blocks
    hold shuffled windows of ids, listed last window first, plus one
    block of ids from everywhere): every group's shard still equals the
    bitmap of the ids, sliced to the group."""
    import pyarrow as pa
    import ray.data as rd

    from bm25_benchmarks_ray.pipelines.docfilter import allowed_shards

    rng = np.random.RandomState(12)
    n = 6000
    ranges = [(0, 1001), (1001, 2999), (2999, 4003), (4003, 6000)]
    ids = np.flatnonzero(rng.random(n) < 0.3).astype(np.int64)
    windows = np.array_split(ids, 8)
    spread = rng.permutation(ids)[:200]
    blocks = [rng.permutation(w) for w in windows[::-1]] + [spread]
    assert any(w[0] < lo < w[-1] for w in windows for lo, _ in ranges[1:])
    ds = rd.from_arrow([pa.table({"doc_id": b}) for b in blocks])
    sh = allowed_shards(ds, n, ranges)
    full = bitmap_from_ids(ids, n)
    for lo, hi in ranges:
        assert np.array_equal(sh.mask(lo, hi), bitmap_slice(full, lo, hi))


def test_search_accepts_prepublished_shards(built):
    """search(allowed=BitmapShards) == search(allowed=<full bitmap>)."""
    from bm25_benchmarks_ray.pipelines.docfilter import compose_shards
    from bm25_benchmarks_ray.state.manifest import Manifest

    idx, _ = built
    man = Manifest.load(idx)
    ranges = [
        (int(e["doc_lo"]), int(e["doc_hi"]))
        for g in man.done_groups() for e in [man.groups[str(g)]]
    ]
    allow = _mask(N_TURNS, 0.5, seed=9)
    bm = bitmap_from_ids(np.flatnonzero(allow), N_TURNS)
    queries = synthesize_queries(6, seed=33)
    a = search(idx, queries, k=10, allowed=bm, join_back=False).to_pandas()
    sh = compose_shards(ranges, N_TURNS, user=bm)
    b = search(idx, queries, k=10, allowed=sh, join_back=False).to_pandas()
    key = ["qid", "rank"]
    a = a.sort_values(key).reset_index(drop=True)
    b = b.sort_values(key).reset_index(drop=True)
    assert a.equals(b)


def spy_uint8_puts(monkeypatch) -> list[int]:
    """Record the byte size of every uint8 array passed to ``ray.put``
    from here on (the list fills as puts happen)."""
    import ray as ray_mod

    sizes: list[int] = []
    real_put = ray_mod.put

    def spy_put(obj, *a, **kw):
        if isinstance(obj, np.ndarray) and obj.dtype == np.uint8:
            sizes.append(obj.nbytes)
        return real_put(obj, *a, **kw)

    monkeypatch.setattr(ray_mod, "put", spy_put)
    return sizes


def test_filtered_plan_ships_no_full_corpus_array(
    ray_session, tmp_path, monkeypatch
):
    """The done-bar for sharded publication: with ≥2 group ranges
    present, NO ray.put during a filtered search carries a corpus-wide
    uint8 bitmap — only per-group slices (each strictly smaller) ship.
    (Two input files → two real groups; a single-file corpus collapses
    to one group whose shard IS corpus-wide.)"""
    table = synthesize_transcripts(N_TURNS, seed=11)
    d = tmp_path / "corpus2"
    d.mkdir()
    pq.write_table(table.slice(0, N_TURNS // 2), str(d / "a.parquet"))
    pq.write_table(table.slice(N_TURNS // 2), str(d / "b.parquet"))
    idx = str(tmp_path / "index2")
    build_index(str(d), idx, IndexConfig(), mode="transcripts", n_groups=2)
    from bm25_benchmarks_ray.state.manifest import Manifest

    assert len(Manifest.load(idx).done_groups()) == 2
    full_bytes = bitmap_nbytes(N_TURNS)
    put_sizes = spy_uint8_puts(monkeypatch)
    allow = _mask(N_TURNS, 0.5, seed=17)
    bm = bitmap_from_ids(np.flatnonzero(allow), N_TURNS)
    res = search(
        idx, synthesize_queries(4, seed=5), k=10, allowed=bm,
        join_back=False,
    ).to_pandas()
    assert len(res) > 0
    assert put_sizes, "expected per-group shard puts"
    assert all(s < full_bytes for s in put_sizes), put_sizes
    assert len(put_sizes) >= 2  # one object per group


def test_per_query_masks_equal_one_search_per_query(built):
    """search(allowed=[mask per query]) == one masked search per query,
    with masks shared between queries, a pre-published shard set and an
    unmasked (None) query in the same batch."""
    from bm25_benchmarks_ray.pipelines.docfilter import compose_shards
    from bm25_benchmarks_ray.state.manifest import Manifest

    idx, _ = built
    man = Manifest.load(idx)
    ranges = [
        (int(e["doc_lo"]), int(e["doc_hi"]))
        for g in man.done_groups() for e in [man.groups[str(g)]]
    ]
    a = bitmap_from_ids(np.flatnonzero(_mask(N_TURNS, 0.4, seed=1)), N_TURNS)
    b = compose_shards(ranges, N_TURNS, user=bitmap_from_ids(
        np.flatnonzero(_mask(N_TURNS, 0.1, seed=2)), N_TURNS))
    queries = synthesize_queries(5, seed=41)
    masks = [a, b, a, None, b]
    got = search(idx, queries, k=10, allowed=masks,
                 join_back=False).to_pandas()
    for q, m in zip(queries, masks):
        want = search(idx, [q], k=10, allowed=m, join_back=False).to_pandas()
        mine = got[got["qid"] == q[0]].reset_index(drop=True)
        assert mine.equals(want), q


def test_mask_list_length_must_match_queries(built):
    idx, _ = built
    bm = bitmap_from_ids(np.arange(5), N_TURNS)
    with pytest.raises(ValueError, match="2 masks for 3 queries"):
        search(idx, synthesize_queries(3, seed=1), allowed=[bm, bm])


# ------------------------------------------------ ids that start past 0

ID_LO, ID_HI = 1000, 1400


@pytest.fixture(scope="module")
def offset_ids(ray_session, tmp_path_factory):
    """A 2-group documents index of 400 docs whose ids are 1000..1399:
    masks span the id space [0, 1400), not [0, num_docs)."""
    import pyarrow as pa

    d = tmp_path_factory.mktemp("ocorpus")
    texts = synthesize_transcripts(ID_HI - ID_LO, seed=13).column("text")
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(ID_LO, ID_HI, dtype=np.int64)),
        "text": texts,
    }), os.path.join(d, "docs.parquet"))
    idx = str(tmp_path_factory.mktemp("oidx") / "index")
    build_index(str(d), idx, IndexConfig(), mode="documents", n_groups=2)
    return idx


def test_masks_on_ids_past_zero(offset_ids):
    """search(allowed=...) with a bitmap or shards over [0, id_bound),
    bool_query_topk (incl. MUST_NOT) and bool_and_topk all run on an
    index whose ids start past 0, and a mask confines the ranking to
    its docs without changing their scores."""
    from bm25_benchmarks_ray.pipelines.docfilter import compose_shards
    from bm25_benchmarks_ray.pipelines.phrase import bool_and_topk, bool_query_topk
    from bm25_benchmarks_ray.pipelines.query import Index

    idx = offset_ids
    index = Index.open(idx)
    assert (index.num_docs, index.id_bound) == (ID_HI - ID_LO, ID_HI)
    queries = synthesize_queries(6, seed=9)
    # every doc ranked: the reference for any masked top-k
    ranked = search(idx, queries, k=ID_HI - ID_LO, join_back=False).to_pandas()
    keep = np.arange(ID_LO, ID_HI, 3)
    bm = bitmap_from_ids(keep, ID_HI)
    shards = compose_shards(sorted(index.spans.values()), ID_HI, user=bm)
    for allowed in (bm, shards):
        got = search(idx, queries, k=10, allowed=allowed,
                     join_back=False).to_pandas()
        for qid, _ in queries:
            want = ranked[(ranked["qid"] == qid) & ranked["doc_id"].isin(keep)]
            mine = got[got["qid"] == qid].sort_values("rank")
            assert list(mine["doc_id"]) == list(want["doc_id"][:10]), qid
            np.testing.assert_allclose(mine["score"], want["score"][:10])

    qid, text = queries[0]
    top = ranked[ranked["qid"] == qid].head(10)
    anyq = bool_query_topk(idx, [(qid, "", text, "")], k=10)
    assert set(anyq.column("doc_id").to_pylist()) == set(top["doc_id"])
    df = index.df_of(index.analyze(text))
    term = max(df, key=df.get)
    nott = bool_query_topk(idx, [(qid, "", text, term)], k=10)
    conj = bool_and_topk(idx, [(qid, term)], k=10)
    assert nott.num_rows and conj.num_rows
    assert not set(nott.column("doc_id").to_pylist()) & set(
        conj.column("doc_id").to_pylist())
    for t in (anyq, nott, conj):
        ids = np.asarray(t.column("doc_id").to_pylist())
        assert ((ids >= ID_LO) & (ids < ID_HI)).all()


def test_short_mask_on_ids_past_zero_raises(offset_ids):
    """A bitmap over [0, num_docs) is too short when ids run past
    num_docs: the driver names the size it needs before any task runs."""
    short = bitmap_from_ids(np.arange(0, ID_HI - ID_LO, 2), ID_HI - ID_LO)
    need = bitmap_nbytes(ID_HI)
    with pytest.raises(ValueError, match=rf"need {need} for doc ids \[0, {ID_HI}\)"):
        search(offset_ids, synthesize_queries(2, seed=1), allowed=short)
