"""Build-written positions (pipelines/positions.py) and the phrase/NEAR
path that reads them: codec roundtrip, equality with the Python phrase
reference on randomized corpora, multi-group + multi-part reads,
stemmed analyzer, resume, segment readers that never see a position
row, and the build → append → delete → compact lifecycle."""

from __future__ import annotations

import glob
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from bm25_benchmarks_ray.config import IndexConfig
from bm25_benchmarks_ray.functions.bm25 import BM25Params, idf, tf_shape
from bm25_benchmarks_ray.functions.codec import varint_decode, varint_encode
from bm25_benchmarks_ray.functions.tokenizer import (
    STOPWORDS_EN,
    resolve_stemmer,
    tokenize_text,
)
from bm25_benchmarks_ray.pipelines.index_build import (
    append_index,
    build_index,
    compact_index,
)
from bm25_benchmarks_ray.pipelines.phrase import phrase_topk
from bm25_benchmarks_ray.pipelines.positions import (
    decode_position_row,
    has_positions,
    positions_for_terms,
)
from bm25_benchmarks_ray.pipelines.tombstones import delete_docs
from bm25_benchmarks_ray.stages.segments import POSITIONS_DIR, encode_postings
from bm25_benchmarks_ray.state.manifest import Manifest

from tests.test_phrase import _kept, _py_near_counts

VOCAB = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta",
         "the", "and", "of", "table", "scan", "query", "fast", "value"]
POS_CFG = IndexConfig(stopwords="en", stemmer="none", positions=True)
QUERIES = [("q0", "alpha beta"), ("q1", "table scan"),
           ("q2", "the query fast"), ("q3", "beta gamma delta"),
           ("q4", "zzmissing beta")]


def _corpus(n: int, seed: int, lo: int = 0) -> pa.Table:
    rng = np.random.RandomState(seed)
    texts = [" ".join(rng.choice(VOCAB, size=rng.randint(4, 40)))
             for _ in range(n)]
    return pa.table({
        "doc_id": pa.array(np.arange(lo, lo + n, dtype=np.int64)),
        "text": pa.array(texts, type=pa.string()),
    })


def _group_dir(idx: str, g: int) -> str:
    return os.path.join(idx, "segments", f"group={g}")


@pytest.fixture(scope="module")
def poscorpus(ray_session, tmp_path_factory):
    t = _corpus(900, seed=3)
    d = tmp_path_factory.mktemp("poscorpus")
    pq.write_table(t.slice(0, 450), str(d / "a.parquet"))
    pq.write_table(t.slice(450), str(d / "b.parquet"))
    idx = str(tmp_path_factory.mktemp("posidx") / "index")
    # unstemmed analyzer so the roundtrip test can compare raw tokens;
    # the stemmed path has its own test below
    build_index(str(d), idx, POS_CFG, mode="documents", n_groups=2)
    return idx, str(d), t.column("text").to_pylist()


def _ref_ranking(texts, phrase: str, gap: int, k: int, stemmer=None,
                 deleted=()) -> list[tuple[int, float]]:
    """(doc, score) top-k from the Python phrase reference
    (tests/test_phrase.py): exists-semantics chain starts over the kept
    stream (gap=1: exact phrase), virtual-term BM25 with the phrase df
    counting deleted docs, ties by doc id."""
    toks = tokenize_text(phrase, stopwords=STOPWORDS_EN, stemmer=stemmer)
    hits = _py_near_counts(texts, toks, gap, stemmer) if toks else {}
    if not hits:
        return []
    params = BM25Params()
    avgdl = sum(len(_kept(t, stemmer)) for t in texts) / len(texts)
    w = float(idf(params, len(hits), len(texts)))
    rows = [
        (d, round(w * float(tf_shape(params, np.array([ptf]),
                                     np.array([dl]), avgdl)[0]), 6))
        for d, (ptf, dl) in hits.items() if d not in deleted
    ]
    rows.sort(key=lambda r: (-r[1], r[0]))
    return rows[:k]


def _assert_matches_reference(idx, texts, queries, gap, k=10, stemmer=None):
    got = phrase_topk(idx, queries, k=k, gap=gap).to_pandas()
    for qid, phrase in queries:
        mine = got[got["qid"] == qid].sort_values("rank")
        want = _ref_ranking(texts, phrase, gap, k, stemmer)
        assert list(mine["doc_id"]) == [d for d, _ in want], (qid, gap)
        np.testing.assert_allclose(mine["score"], [s for _, s in want],
                                   atol=1e-6)


def test_has_positions(poscorpus, tmp_path):
    idx, d, _ = poscorpus
    assert has_positions(Manifest.load(idx))
    plain = str(tmp_path / "plain")
    build_index(d, plain, IndexConfig(stopwords="en", stemmer="none"),
                mode="documents", n_groups=2)
    assert not has_positions(Manifest.load(plain))
    assert not os.path.exists(os.path.join(_group_dir(plain, 0), POSITIONS_DIR))


def test_positions_roundtrip_against_tokenizer(poscorpus):
    """Decoded (doc, kept-position) pairs == a direct Python tokenize
    of the corpus, for several terms across both groups."""
    import re

    idx, _, texts = poscorpus
    tok = re.compile(r"(?u)\b\w\w+\b")

    expected: dict[str, list[tuple[int, int]]] = {}
    for doc_id, text in enumerate(texts):
        kept = [t for t in tok.findall(text.lower())
                if t not in STOPWORDS_EN]
        for p, t in enumerate(kept):
            expected.setdefault(t, []).append((doc_id, p))

    for term in ["alpha", "table", "zeta"]:
        got: list[tuple[int, int]] = []
        for g in (0, 1):
            m = positions_for_terms(_group_dir(idx, g), [term],
                                    POS_CFG.block_size)
            if term not in m:
                continue
            docs, counts, pos = m[term]
            assert docs.size == counts.size
            assert int(counts.sum()) == pos.size
            got += list(zip(np.repeat(docs, counts).tolist(), pos.tolist()))
        assert sorted(got) == sorted(expected.get(term, [])), term


@pytest.mark.parametrize("gap", [1, 2, 4])
def test_positions_path_equals_fallback(poscorpus, gap):
    """Phrase (gap=1) and NEAR results equal the Python phrase
    reference, doc for doc and score for score."""
    idx, _, texts = poscorpus
    _assert_matches_reference(idx, texts, QUERIES, gap)


@pytest.mark.parametrize("positions", ["force", "off"])
def test_phrase_duplicate_qids_raise(poscorpus, tmp_path, positions):
    """Queries are keyed by qid: duplicates are rejected up front, before
    the index is read — on an index built with positions ("force") and
    on one built without them ("off"), where the duplicate error comes
    ahead of the missing-positions error."""
    idx, d, _ = poscorpus
    if positions == "off":
        idx = str(tmp_path / "plain")
        build_index(d, idx, IndexConfig(stopwords="en", stemmer="none"),
                    mode="documents", n_groups=1)
    queries = [("q0", "alpha beta"), ("q1", "table scan"),
               ("q0", "beta gamma")]
    with pytest.raises(ValueError, match="duplicate phrase qids.*q0"):
        phrase_topk(idx, queries, k=10)


def test_positions_build_idempotent(poscorpus):
    """Re-running the build on a complete positions index is a no-op:
    no position file is rewritten."""
    idx, d, _ = poscorpus
    files = sorted(glob.glob(os.path.join(_group_dir(idx, 0), POSITIONS_DIR,
                                          "*.parquet")))
    assert files
    before = [os.path.getmtime(f) for f in files]
    build_index(d, idx, POS_CFG, mode="documents", n_groups=2)
    assert [os.path.getmtime(f) for f in files] == before


def test_positions_rebuild_after_lost_marker(ray_session, tmp_path):
    """A group the manifest does not record as done (a build killed
    after its merge wrote position parts, before the publish) is rebuilt
    from scratch: stale parts in its tmp dir are replaced, never read
    beside the new ones, so every term keeps its df and doc order."""
    t = _corpus(300, seed=5)
    src = str(tmp_path / "docs.parquet")
    pq.write_table(t, src)
    idx = str(tmp_path / "index")
    build_index(src, idx, POS_CFG, mode="documents", n_groups=1)
    gdir = _group_dir(idx, 0)
    terms = ["alpha", "table", "zeta", "query"]
    before = positions_for_terms(gdir, terms, POS_CFG.block_size)
    # the crash: the group's files sit unpublished in its tmp dir, with
    # a stray extra copy of one part, and the manifest lost the group
    tmp = gdir + ".tmp"
    shutil.copytree(gdir, tmp)
    part = sorted(glob.glob(os.path.join(tmp, POSITIONS_DIR, "*.parquet")))[0]
    shutil.copy(part, os.path.join(tmp, POSITIONS_DIR, "stray.parquet"))
    shutil.rmtree(gdir)
    man = Manifest.load(idx)
    del man.groups["0"]
    man.stages.pop("finalize", None)
    man.save()
    build_index(src, idx, POS_CFG, mode="documents", n_groups=1)
    assert not os.path.exists(tmp)
    after = positions_for_terms(gdir, terms, POS_CFG.block_size)
    assert sorted(after) == sorted(before) == sorted(terms)
    for term in terms:
        assert np.all(np.diff(after[term][0]) > 0)
        for a, b in zip(before[term], after[term]):
            assert np.array_equal(a, b)


def _split_row(row: dict, block_size: int) -> list[dict]:
    """One position row cut into two self-contained parts at its middle
    posting (a term split across merge blocks)."""
    docs, counts, _ = decode_position_row(
        row["doc_ids"], row["tfs"], row["poss"], block_size)
    vals = varint_decode(row["poss"])
    m = docs.size // 2
    cut = int(counts[:m].sum())
    parts = []
    for sl, psl in ((slice(0, m), slice(0, cut)), (slice(m, None), slice(cut, None))):
        enc = encode_postings(row["term"], docs[sl], counts[sl],
                              np.zeros(docs[sl].size, np.int64), block_size)
        parts.append({**row, "d0": int(docs[sl][0]), "df": int(docs[sl].size),
                      "doc_ids": enc["doc_ids"], "tfs": enc["tfs"],
                      "poss": varint_encode(vals[psl])})
    return parts


def test_phrase_ignores_part_file_order(ray_session, tmp_path):
    """A term split across merge blocks keeps one row per part file;
    listing those files in reverse order must not change the decoded
    postings or any phrase result."""
    t = _corpus(900, seed=3)
    src = str(tmp_path / "docs.parquet")
    pq.write_table(t, src)
    idx = str(tmp_path / "index")
    build_index(src, idx, POS_CFG, mode="documents", n_groups=1)
    pdir = os.path.join(_group_dir(idx, 0), POSITIONS_DIR)
    queries = [("q0", "alpha beta"), ("q1", "table scan"),
               ("q2", "gamma delta"), ("q3", "epsilon value"),
               ("q4", "beta fast zeta")]
    before = phrase_topk(idx, queries, k=10).to_pandas()
    # split "beta" and "table" into two parts each, in two files whose
    # names list the later part first
    tbl = pads.dataset(pdir).to_table()
    split = ["beta", "table"]
    keep = tbl.filter(pa.compute.invert(
        pa.compute.is_in(tbl.column("term"), pa.array(split))))
    rows = [r for r in tbl.to_pylist() if r["term"] in split]
    firsts, seconds = zip(*(_split_row(r, POS_CFG.block_size) for r in rows))
    for f in glob.glob(os.path.join(pdir, "*.parquet")):
        os.remove(f)
    pq.write_table(pa.Table.from_pylist(list(seconds), schema=tbl.schema),
                   os.path.join(pdir, "part-000.parquet"))
    pq.write_table(pa.Table.from_pylist(list(firsts), schema=tbl.schema),
                   os.path.join(pdir, "part-001.parquet"))
    pq.write_table(keep, os.path.join(pdir, "part-002.parquet"))
    got = positions_for_terms(_group_dir(idx, 0), split, POS_CFG.block_size)
    for term in split:
        assert np.all(np.diff(got[term][0]) > 0)
    after = phrase_topk(idx, queries, k=10).to_pandas()
    key = ["qid", "rank"]
    assert after.sort_values(key).reset_index(drop=True).equals(
        before.sort_values(key).reset_index(drop=True))


def test_positions_force_without_sidecar_raises(ray_session, tmp_path):
    """phrase_topk on an index built without positions raises and says
    how to get them."""
    t = _corpus(60, seed=9)
    d = tmp_path / "c"
    d.mkdir()
    pq.write_table(t, str(d / "a.parquet"))
    idx = str(tmp_path / "idx")
    build_index(str(d), idx, IndexConfig(), mode="documents", n_groups=1)
    with pytest.raises(ValueError, match=r"IndexConfig\(positions=True\)"):
        phrase_topk(idx, [("q", "alpha beta")])


def test_positions_stemmed_analyzer(ray_session, tmp_path):
    """Positions follow the index's stemmer: phrase and NEAR matching
    over stemmed streams equal the Python reference."""
    texts = [
        "running quickly jumping fences",
        "the runner runs while jumping",
        "run jump run jump run",
    ] + [f"filler{i:02d} words only" for i in range(30)]
    t = pa.table({
        "doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
        "text": pa.array(texts, type=pa.string()),
    })
    d = tmp_path / "sc"
    d.mkdir()
    pq.write_table(t, str(d / "a.parquet"))
    idx = str(tmp_path / "sidx")
    build_index(str(d), idx, IndexConfig(stemmer="porter2", positions=True),
                mode="documents", n_groups=1)
    queries = [("q", "running jumping"), ("r", "runs jumps")]
    for gap in (1, 3):
        _assert_matches_reference(idx, texts, queries, gap,
                                  stemmer=resolve_stemmer("porter2"))


def test_decode_position_row_unit():
    gaps = np.array([5, 4, 31], dtype=np.uint64)   # docs 5, 9, 40
    counts = np.array([2, 1, 3], dtype=np.uint64)
    # positions: doc5 -> [1, 6]; doc9 -> [0]; doc40 -> [2, 3, 11]
    pos_deltas = np.array([1, 5, 0, 2, 1, 8], dtype=np.uint64)
    d, c, p = decode_position_row(
        varint_encode(gaps), varint_encode(counts), varint_encode(pos_deltas),
        block_size=128,
    )
    assert list(d) == [5, 9, 40]
    assert list(c) == [2, 1, 3]
    assert list(p) == [1, 6, 0, 2, 3, 11]


def test_segment_readers_skip_positions(poscorpus):
    """No segment reader sees a position row: pyarrow's dataset over a
    group dir (queries, group metrics), Ray Data over the segments root
    (the distributed finalize) and compaction's ``*.parquet`` glob all
    skip the ``_positions`` dir."""
    import ray.data as rd

    idx, _, _ = poscorpus
    seg_root = os.path.join(idx, "segments")
    man = Manifest.load(idx)
    n_rows = sum(e["n_terms"] for e in man.groups.values())
    pos_rows = pads.dataset(
        [f for g in (0, 1) for f in glob.glob(
            os.path.join(_group_dir(idx, g), POSITIONS_DIR, "*.parquet"))]
    ).count_rows()
    assert pos_rows == n_rows  # one position row per segment row
    for g in (0, 1):
        t = pads.dataset(_group_dir(idx, g)).to_table()
        assert "poss" not in t.column_names
        assert t.num_rows == man.groups[str(g)]["n_terms"]
        files = glob.glob(os.path.join(_group_dir(idx, g), "*.parquet"))
        assert files and all(
            "poss" not in pq.read_schema(f).names for f in files)
    ds = rd.read_parquet(seg_root, columns=["term", "df"])
    assert ds.count() == n_rows


def _lifecycle_check(idx, fresh_docs: pa.Table, tmp_path, deleted=()):
    """phrase and NEAR results on ``idx`` equal those of a fresh
    one-group positions build over ``fresh_docs`` with the same
    deletes."""
    fresh = str(tmp_path / f"fresh{len(os.listdir(tmp_path))}")
    src = fresh + ".parquet"
    pq.write_table(fresh_docs, src)
    build_index(src, fresh, POS_CFG, mode="documents", n_groups=1)
    if len(deleted):
        delete_docs(fresh, deleted)
    key = ["qid", "rank"]
    for gap in (1, 3):
        a, b = (phrase_topk(i, QUERIES, k=50, gap=gap).to_pandas()
                .sort_values(key).reset_index(drop=True) for i in (idx, fresh))
        assert len(a) > 0 and a.equals(b), gap


def test_positions_lifecycle(ray_session, tmp_path):
    """build → append → delete_docs → compact with positions on; after
    each step phrase and NEAR equal a fresh positions build over the
    same docs with the same deletes.  Then the same for a compaction of
    groups whose ids interleave (even / odd)."""
    t = _corpus(600, seed=21)
    a, b = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    pq.write_table(t.slice(0, 300), a)
    pq.write_table(t.slice(300), b)
    work = tmp_path / "checks"
    work.mkdir()
    idx = str(tmp_path / "idx")
    build_index(a, idx, POS_CFG, mode="documents")
    _lifecycle_check(idx, t.slice(0, 300), work)
    append_index(b, idx, POS_CFG)
    _lifecycle_check(idx, t, work)
    deleted = np.array([3, 150, 301, 450, 599], dtype=np.int64)
    delete_docs(idx, deleted)
    _lifecycle_check(idx, t, work, deleted)
    man = compact_index(idx)
    assert man.done_groups() == [0]
    assert not os.path.exists(_group_dir(idx, 1))
    _lifecycle_check(idx, t, work, deleted)

    ids = t.column("doc_id").to_numpy()
    src = tmp_path / "parity"
    src.mkdir()
    pq.write_table(t.filter(pa.array(ids % 2 == 0)), str(src / "even.parquet"))
    pq.write_table(t.filter(pa.array(ids % 2 == 1)), str(src / "odd.parquet"))
    inter = str(tmp_path / "inter")
    man = build_index(str(src), inter, POS_CFG, mode="documents", n_groups=2)
    assert len(man.done_groups()) == 2
    delete_docs(inter, deleted)
    _lifecycle_check(inter, t, work, deleted)
    compact_index(inter)
    _lifecycle_check(inter, t, work, deleted)


def test_append_inherits_index_config(ray_session, tmp_path):
    """append_index without a cfg appends with the index's own config,
    so a positions index's new groups carry positions and phrase and
    NEAR equal a fresh build over the union; a cfg that differs raises
    a ValueError naming the differing fields and changes nothing."""
    t = _corpus(400, seed=23)
    a, b = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    pq.write_table(t.slice(0, 200), a)
    pq.write_table(t.slice(200), b)
    idx = str(tmp_path / "idx")
    build_index(a, idx, POS_CFG, mode="documents")
    with pytest.raises(ValueError, match=r"\['positions', 'stemmer'\]"):
        append_index(b, idx, IndexConfig())
    append_index(b, idx)
    work = tmp_path / "checks"
    work.mkdir()
    _lifecycle_check(idx, t, work)


@pytest.mark.parametrize("salt_range", [262144, 4])
def test_positions_interleaved_runs(ray_session, tmp_path, salt_range):
    """One group read from an even-id and an odd-id file: the runs of a
    term interleave, so the merge regroups position streams posting by
    posting (the lexsort path) — also through the salted two-level
    pre-merge (salt_range=4: 600 docs > 64 * 4).  Phrase and NEAR equal
    the Python reference."""
    t = _corpus(600, seed=17)
    ids = t.column("doc_id").to_numpy()
    src = tmp_path / "src"
    src.mkdir()
    pq.write_table(t.filter(pa.array(ids % 2 == 0)), str(src / "even.parquet"))
    pq.write_table(t.filter(pa.array(ids % 2 == 1)), str(src / "odd.parquet"))
    idx = str(tmp_path / "idx")
    # 100-doc tokenize batches: the odd file's batches overlap the even
    # file's doc ranges whatever blocks the read makes
    cfg = IndexConfig(stopwords="en", stemmer="none", positions=True,
                      salt_range=salt_range, block_size=8,
                      tokenize_batch_size=100)
    man = build_index(str(src), idx, cfg, mode="documents", n_groups=1)
    assert man.groups["0"]["two_level"] == (salt_range == 4)
    texts = t.column("text").to_pylist()
    for gap in (1, 3):
        _assert_matches_reference(idx, texts, QUERIES, gap)


def test_merge_kernels_regroup_positions(tmp_path):
    """The merge kernels on interleaved runs (lexsort path) write the
    same position rows as on one doc-ordered run per term, directly and
    after the salted pre-merge."""
    from bm25_benchmarks_ray.stages.segments import (
        make_merge_partial,
        make_merge_sorted,
    )
    from bm25_benchmarks_ray.stages.tokenize_stage import TokenizeRuns

    t = _corpus(200, seed=4)
    ids = t.column("doc_id").to_numpy()
    cfg = IndexConfig(stopwords="en", stemmer="none", positions=True,
                      block_size=8)

    def runs(*batches):
        tok = TokenizeRuns(cfg, str(tmp_path / "norms"))
        out = pa.concat_tables([tok(b) for b in batches])
        return out.sort_by([("tid", "ascending"), ("d0", "ascending")])

    def merged(tbl, name, pre=False):
        if pre:
            tbl = make_merge_partial(16)(tbl).sort_by(
                [("tid", "ascending"), ("d0", "ascending")])
        out = str(tmp_path / name)
        seg = make_merge_sorted(8, positions_dir=out)(tbl)
        return seg, pads.dataset(out).to_table().sort_by("tid")

    whole = merged(runs(t), "whole")
    inter = runs(t.filter(pa.array(ids % 2 == 0)), t.filter(pa.array(ids % 2 == 1)))
    for name, pre in (("inter", False), ("salted", True)):
        seg, pos = merged(inter, name, pre)
        assert seg.sort_by("tid").equals(whole[0].sort_by("tid")), name
        assert pos.drop(["term"]).equals(whole[1].drop(["term"])), name


def test_query_calls_start_no_ray_data_job(poscorpus, monkeypatch):
    """Phrase, NEAR and boolean calls are plain Ray tasks plus a driver
    merge.  With Ray Data's job entry points patched to raise — all but
    the pack stage allowed_shards maps over the caller's own dataset —
    every entry point returns what it returns unpatched, phrase and
    NEAR results equal the Python reference, and allowed_shards equals
    the bitmap of its ids, group by group."""
    import ray.data as rd

    from bm25_benchmarks_ray.pipelines.docfilter import (
        allowed_shards,
        bitmap_from_ids,
        bitmap_slice,
    )
    from bm25_benchmarks_ray.pipelines.phrase import (
        bool_and_topk,
        bool_query_topk,
        candidate_bitmap,
    )
    from bm25_benchmarks_ray.pipelines.query import Index

    idx, _, texts = poscorpus
    specs = [("b0", "alpha", "beta gamma", "table"),
             ("b1", "", "alpha beta", "scan"),
             ("b2", "beta gamma", "", "")]
    calls = {
        "phrase": lambda: phrase_topk(idx, QUERIES, k=10),
        "near": lambda: phrase_topk(idx, QUERIES, k=10, gap=3),
        "and": lambda: bool_and_topk(
            idx, [("a0", "alpha beta"), ("a1", "table zzmissing")], k=10),
        "query": lambda: bool_query_topk(idx, specs, k=10),
        "candidate": lambda: candidate_bitmap(idx, ["alpha", "beta"]),
    }
    want = {name: f() for name, f in calls.items()}
    index = Index.open(idx)
    ranges = sorted(index.spans.values())
    assert len(ranges) == 2
    ids = np.flatnonzero(np.random.RandomState(2).random(index.id_bound) < 0.3)
    ds = rd.from_arrow([pa.table({"doc_id": ids[i::3]}) for i in range(3)])

    def boom(*a, **kw):
        raise AssertionError("a query call started a Ray Data job")

    real_map = rd.Dataset.map_batches

    def map_batches(self, fn, *a, **kw):
        if getattr(fn, "__qualname__", "") != "_pack_chunks.<locals>.pack":
            boom()
        return real_map(self, fn, *a, **kw)

    monkeypatch.setattr(rd, "from_items", boom)
    monkeypatch.setattr(rd.Dataset, "materialize", boom)
    monkeypatch.setattr(rd.Dataset, "sort", boom)
    monkeypatch.setattr(rd.Dataset, "map_batches", map_batches)
    got = {name: f() for name, f in calls.items()}
    shards = allowed_shards(ds, index.id_bound, ranges)
    monkeypatch.undo()

    for name in ("phrase", "near", "and", "query"):
        assert got[name].num_rows and got[name].equals(want[name]), name
    assert set(got["and"].column("qid").to_pylist()) == {"a0"}
    assert got["candidate"].any()
    assert np.array_equal(got["candidate"], want["candidate"])
    full = bitmap_from_ids(ids, index.id_bound)
    for lo, hi in ranges:
        assert np.array_equal(shards.mask(lo, hi), bitmap_slice(full, lo, hi))
    for name, gap in (("phrase", 1), ("near", 3)):
        res = got[name].to_pandas()
        for qid, phrase in QUERIES:
            mine = res[res["qid"] == qid]
            ref = _ref_ranking(texts, phrase, gap, 10)
            assert list(mine["rank"]) == list(range(1, len(ref) + 1))
            assert list(mine["doc_id"]) == [d for d, _ in ref], (qid, gap)
            np.testing.assert_allclose(mine["score"], [s for _, s in ref],
                                       atol=1e-6)
