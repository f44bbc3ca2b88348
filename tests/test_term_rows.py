"""``stages.segments.read_term_rows`` — the footer-indexed read of a
query's terms — returns what a ``term isin(terms)`` scan of the same
directory returns, on every directory the index holds (segments,
positions, vocab) and on the layouts that stress the row-group
selection; and its per-process footer cache follows an index through
append and compaction."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from bm25_benchmarks_ray.config import IndexConfig
from bm25_benchmarks_ray.pipelines.index_build import (
    SEGMENTS_DIR,
    VOCAB_DIR,
    append_index,
    build_index,
    compact_index,
)
from bm25_benchmarks_ray.pipelines.query import search
from bm25_benchmarks_ray.stages.segments import (
    POSITIONS_DIR,
    ROW_GROUP_ROWS,
    read_term_rows,
    term_ids,
)


def _scan(directory: str, terms) -> pa.Table:
    """The filtered scan the reader replaces (the reference here)."""
    if not os.path.isdir(directory) or not any(
        f.endswith(".parquet") for f in os.listdir(directory)
    ):
        return pa.table({})
    return pads.dataset(directory).to_table(
        filter=pc.field("term").isin(pa.array(sorted(set(terms)), pa.string())))


def _rows(t: pa.Table) -> list:
    return sorted((tuple(r.items()) for r in t.to_pylist()), key=repr)


def _assert_same(directory: str, terms, key: str = "tid") -> None:
    got, want = read_term_rows(directory, terms, key=key), _scan(directory, terms)
    if want.num_columns:
        assert got.column_names == want.column_names
    assert got.num_rows == want.num_rows
    assert _rows(got) == _rows(want)


def _seg_table(terms: list[str], parts: dict[str, int]) -> pa.Table:
    """Segment-like rows sorted by (unsigned tid, d0): ``parts[t]`` rows
    for term t (a multi-part term), each with its own d0."""
    tid = term_ids(terms)
    rows = [(int(i), t, d0) for t, i in zip(terms, tid)
            for d0 in range(parts.get(t, 1))]
    rows.sort()
    return pa.table({
        "term": pa.array([t for _, t, _ in rows], pa.string()),
        "tid": pa.array([i for i, _, _ in rows], pa.uint64()),
        "d0": pa.array([d for _, _, d in rows], pa.int64()),
        "doc_ids": pa.array([f"{t}:{d}".encode() for _, t, d in rows], pa.binary()),
    })


def _two_group_index(t: pa.Table, tmp_path) -> str:
    """A positions index over ``t``, one group per half."""
    src = tmp_path / "src"
    src.mkdir()
    half = t.num_rows // 2
    pq.write_table(t.slice(0, half), str(src / "a.parquet"))
    pq.write_table(t.slice(half), str(src / "b.parquet"))
    idx = str(tmp_path / "idx")
    man = build_index(str(src), idx, IndexConfig(positions=True),
                      mode="documents", n_groups=2)
    assert man.done_groups() == [0, 1]
    return idx


TERMS = [f"w{i:03d}" for i in range(60)]


def test_reader_equals_scan_on_synthetic_layouts(tmp_path):
    """Tids on both sides of 2^63 (the statistics order them unsigned),
    a multi-part term whose rows straddle two row groups, a file written
    as one row group (an index written before row groups were sized), a
    file without statistics, an ``_norms.npy`` and a ``_positions/`` dir beside the files, absent
    terms, and empty groups."""
    tid = term_ids(TERMS)
    assert (tid >= 2**63).any() and (tid < 2**63).any()
    multi = TERMS[int(np.argsort(tid)[1])]  # rows 1-5 of the sorted table
    t = _seg_table(TERMS, {multi: 5})
    d = tmp_path / "group=0"
    (d / POSITIONS_DIR).mkdir(parents=True)
    half, third = t.num_rows // 2, 3 * t.num_rows // 4
    # 3-row row groups: the multi-part term's 5 rows cross a boundary
    pq.write_table(t.slice(0, half), str(d / "a.parquet"), row_group_size=3)
    pq.write_table(t.slice(half, third - half), str(d / "b.parquet"))  # one row group
    pq.write_table(t.slice(third), str(d / "c.parquet"), row_group_size=4,
                   write_statistics=False)
    assert pq.read_metadata(str(d / "c.parquet")).row_group(0).column(1).statistics is None
    np.save(str(d / "_norms.npy"), np.arange(4))
    pq.write_table(_seg_table(["w001"], {}), str(d / POSITIONS_DIR / "p.parquet"))
    rg = pq.ParquetFile(str(d / "a.parquet")).metadata
    starts = np.cumsum([0] + [rg.row_group(i).num_rows
                              for i in range(rg.num_row_groups)])
    mrows = np.flatnonzero(np.asarray(t.column("term").to_pylist()) == multi)
    assert mrows.max() < half
    assert np.unique(np.searchsorted(starts, mrows, side="right")).size > 1

    queries = [[s] for s in TERMS] + [
        TERMS, [multi], ["zzabsent"], ["zzabsent", TERMS[3], TERMS[40]],
        [], TERMS[::7] + ["w001"],
    ]
    for q in queries:
        _assert_same(str(d), q)
    assert read_term_rows(str(d), ["w001"]).num_rows == 1  # not _positions/

    empty = tmp_path / "empty"
    empty.mkdir()
    assert read_term_rows(str(empty), TERMS).num_rows == 0
    assert read_term_rows(str(tmp_path / "absent"), TERMS).num_rows == 0
    zero = tmp_path / "zero"
    zero.mkdir()
    pq.write_table(t.slice(0, 0), str(zero / "z.parquet"))
    got = read_term_rows(str(zero), TERMS)
    assert got.num_rows == 0 and got.column_names == t.column_names


def test_reader_equals_scan_on_a_built_index(ray_session, tmp_path):
    """Every directory of a 2-group positions index — segments (beside
    ``_norms.npy`` and ``_positions/``), positions and vocab (keyed by
    term) — reads what the scan reads, one term at a time and all at
    once; the files hold several row groups of ``ROW_GROUP_ROWS``."""
    from tests.test_norms import _docs

    idx = _two_group_index(_docs(1500, seed=41), tmp_path)
    vocab = pads.dataset(os.path.join(idx, VOCAB_DIR)).to_table().column("term")
    vocab = vocab.to_pylist()
    rng = np.random.RandomState(3)
    sample = sorted(rng.choice(vocab, 25, replace=False).tolist())
    queries = [[s] for s in sample] + [vocab, sample + ["zzabsent"], ["zzabsent"]]
    multi_rg = False
    for g in (0, 1):
        gdir = os.path.join(idx, SEGMENTS_DIR, f"group={g}")
        assert os.path.exists(os.path.join(gdir, "_norms.npy"))
        for d in (gdir, os.path.join(gdir, POSITIONS_DIR)):
            for f in os.listdir(d):
                if f.endswith(".parquet"):
                    md = pq.read_metadata(os.path.join(d, f))
                    assert all(md.row_group(i).num_rows <= ROW_GROUP_ROWS
                               for i in range(md.num_row_groups))
                    multi_rg |= md.num_row_groups > 1
            for q in queries:
                _assert_same(d, q)
    assert multi_rg
    for q in queries:
        _assert_same(os.path.join(idx, VOCAB_DIR), q, key="term")


def test_one_row_group_index_reads_the_same(ray_session, tmp_path):
    """An index whose every segment, positions and vocab file is one row
    group (as written before row groups were sized) searches exactly as
    the same index with sized row groups."""
    from bm25_benchmarks_ray.pipelines.phrase import bool_and_topk, phrase_topk
    from tests.test_norms import _docs

    t = _docs(800, seed=43)
    idx = _two_group_index(t, tmp_path)
    queries = [(f"q{i}", " ".join(t.column("text")[i * 37].as_py().split()[:3]))
               for i in range(12)]

    def answers():
        return (search(idx, queries, k=10, join_back=False),
                phrase_topk(idx, queries, k=10),
                bool_and_topk(idx, queries, k=10))

    before = answers()
    n = 0
    for root, _, files in os.walk(idx):
        for f in files:
            if f.endswith(".parquet") and not f.startswith("_"):
                path = os.path.join(root, f)
                pq.write_table(pq.read_table(path), path, row_group_size=1 << 20)
                assert pq.read_metadata(path).num_row_groups == 1
                n += 1
    assert n > 4
    for a, b in zip(before, answers()):
        assert a.equals(b)


def test_footer_cache_follows_append_and_compaction(ray_session, tmp_path):
    """A process that read group 0 before ``append_index`` and
    ``compact_index`` reads the new files after each step: no
    ``FileNotFoundError``, the rows the scan reads, and search results
    rank-identical to a fresh build of the same docs."""
    from tests.test_norms import _docs

    t = _docs(600, seed=47)
    cut = t.num_rows // 2
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    pq.write_table(t.slice(0, cut), str(a / "a.parquet"))
    pq.write_table(t.slice(cut), str(b / "b.parquet"))
    src = tmp_path / "all.parquet"
    pq.write_table(t, str(src))
    idx = str(tmp_path / "idx")
    build_index(str(a), idx, IndexConfig(), mode="documents")
    g0 = os.path.join(idx, SEGMENTS_DIR, "group=0")
    vocab = os.path.join(idx, VOCAB_DIR)
    terms = pads.dataset(vocab).to_table().column("term").to_pylist()
    queries = [(f"q{i}", " ".join(terms[i * 11: i * 11 + 3])) for i in range(15)]

    def check(fresh_dir: str | None) -> None:
        for d, key in ((g0, "tid"), (vocab, "term")):
            _assert_same(d, terms, key=key)
        got = search(idx, queries, k=10, join_back=False)
        if fresh_dir is not None:
            assert got.equals(search(fresh_dir, queries, k=10, join_back=False))

    check(None)
    fresh = str(tmp_path / "fresh")
    build_index(str(src), fresh, IndexConfig(), mode="documents")
    append_index(str(b), idx)
    check(fresh)
    compact_index(idx)
    assert sorted(os.listdir(os.path.join(idx, SEGMENTS_DIR))) == ["group=0"]
    check(fresh)
