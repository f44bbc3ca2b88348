"""Positional postings sidecar (pipelines/positions.py) and the
phrase/NEAR positions path: codec roundtrip, fallback equivalence on
randomized corpora, multi-group + multi-part merge, stemmed analyzer,
resume/idempotence, and the analyzer-mismatch guard."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from bm25_benchmarks_ray.config import IndexConfig
from bm25_benchmarks_ray.pipelines.index_build import build_index
from bm25_benchmarks_ray.pipelines.phrase import phrase_topk
from bm25_benchmarks_ray.pipelines.positions import (
    POS_DONE,
    build_positions,
    decode_position_row,
    has_positions,
    positions_dir,
    positions_for_terms,
)

VOCAB = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta",
         "the", "and", "of", "table", "scan", "query", "fast", "value"]


def _corpus(n: int, seed: int) -> pa.Table:
    rng = np.random.RandomState(seed)
    texts = [" ".join(rng.choice(VOCAB, size=rng.randint(4, 40)))
             for _ in range(n)]
    return pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "text": pa.array(texts, type=pa.string()),
    })


@pytest.fixture(scope="module")
def poscorpus(ray_session, tmp_path_factory):
    t = _corpus(900, seed=3)
    d = tmp_path_factory.mktemp("poscorpus")
    pq.write_table(t.slice(0, 450), str(d / "a.parquet"))
    pq.write_table(t.slice(450), str(d / "b.parquet"))
    idx = str(tmp_path_factory.mktemp("posidx") / "index")
    # unstemmed analyzer so the roundtrip test can compare raw tokens;
    # the stemmed path has its own test below
    build_index(str(d), idx, IndexConfig(stopwords="en", stemmer="none"),
                mode="documents", n_groups=2)
    build_positions(idx, str(d))
    return idx, str(d), t.column("text").to_pylist()


def test_has_positions(poscorpus):
    idx, _, _ = poscorpus
    assert has_positions(idx)


def test_positions_roundtrip_against_tokenizer(poscorpus):
    """Decoded (doc, kept-position) pairs == a direct Python tokenize
    of the corpus, for several terms across both groups."""
    import re

    from bm25_benchmarks_ray.functions.tokenizer import STOPWORDS_EN

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
            gd = os.path.join(positions_dir(idx), f"group={g}")
            m = positions_for_terms(gd, [term])
            if term not in m:
                continue
            docs, counts, pos = m[term]
            assert docs.size == counts.size
            assert int(counts.sum()) == pos.size
            got += list(zip(np.repeat(docs, counts).tolist(), pos.tolist()))
        assert sorted(got) == sorted(expected.get(term, [])), term


@pytest.mark.parametrize("gap", [1, 2, 4])
def test_positions_path_equals_fallback(poscorpus, gap):
    idx, d, _ = poscorpus
    queries = [("q0", "alpha beta"), ("q1", "table scan"),
               ("q2", "the query fast"), ("q3", "beta gamma delta"),
               ("q4", "zzmissing beta")]
    a = phrase_topk(idx, d, queries, k=10, gap=gap,
                    positions="off").to_pandas()
    b = phrase_topk(idx, d, queries, k=10, gap=gap,
                    positions="force").to_pandas()
    key = ["qid", "rank"]
    assert a.sort_values(key).reset_index(drop=True).equals(
        b.sort_values(key).reset_index(drop=True))


@pytest.mark.parametrize("positions", ["off", "force"])
def test_phrase_duplicate_qids_raise(poscorpus, positions):
    """The re-tokenize fallback would collapse duplicate qids while the
    positions path kept them all; both paths reject them up front."""
    idx, d, _ = poscorpus
    queries = [("q0", "alpha beta"), ("q1", "table scan"),
               ("q0", "beta gamma")]
    with pytest.raises(ValueError, match="duplicate phrase qids.*q0"):
        phrase_topk(idx, d, queries, k=10, positions=positions)


def test_positions_build_idempotent(poscorpus):
    idx, d, _ = poscorpus
    marker = os.path.join(positions_dir(idx), "group=0", POS_DONE)
    before = os.path.getmtime(marker)
    build_positions(idx, d)  # resume: every group done -> no-op
    assert os.path.getmtime(marker) == before


def test_positions_rebuild_after_lost_marker(ray_session, tmp_path):
    """A group whose marker is lost is rebuilt in place: every term
    keeps its df and ascending doc order (the rebuild must replace the
    group's files, not write a second copy beside them)."""
    t = _corpus(300, seed=5)
    src = str(tmp_path / "docs.parquet")
    pq.write_table(t, src)
    idx = str(tmp_path / "index")
    build_index(src, idx, IndexConfig(stopwords="en", stemmer="none"),
                mode="documents", n_groups=1)
    build_positions(idx, src)
    gdir = os.path.join(positions_dir(idx), "group=0")
    terms = ["alpha", "table", "zeta", "query"]
    before = positions_for_terms(gdir, terms)
    os.remove(os.path.join(gdir, POS_DONE))
    build_positions(idx, src)
    assert os.path.exists(os.path.join(gdir, POS_DONE))
    after = positions_for_terms(gdir, terms)
    assert sorted(after) == sorted(before) == sorted(terms)
    for term in terms:
        docs = after[term][0]
        assert docs.size == before[term][0].size
        assert np.all(np.diff(docs) > 0)
        for a, b in zip(before[term], after[term]):
            assert np.array_equal(a, b)


def test_phrase_ignores_part_file_order(ray_session, tmp_path):
    """A term split across sort partitions keeps one row per part file;
    listing those files in reverse order must not change the decoded
    postings or any phrase result."""
    from collections import Counter

    t = _corpus(900, seed=3)
    src = str(tmp_path / "docs.parquet")
    pq.write_table(t, src)
    idx = str(tmp_path / "index")
    build_index(src, idx, IndexConfig(stopwords="en", stemmer="none"),
                mode="documents", n_groups=1)
    build_positions(idx, src)
    gdir = os.path.join(positions_dir(idx), "group=0")
    files = sorted(f for f in os.listdir(gdir) if f.endswith(".parquet"))
    rows = Counter(
        term for f in files
        for term in pq.read_table(os.path.join(gdir, f), columns=["term"])
        .column("term").to_pylist()
    )
    split = sorted(term for term, n in rows.items() if n > 1)
    assert split, "expected a term split across part files"
    queries = [("q0", "alpha beta"), ("q1", "table scan"),
               ("q2", "gamma delta"), ("q3", "epsilon value"),
               ("q4", "beta fast zeta")]
    before = phrase_topk(idx, src, queries, k=10, positions="force").to_pandas()
    for i, f in enumerate(files):
        os.rename(os.path.join(gdir, f),
                  os.path.join(gdir, f"part-{len(files) - 1 - i:03d}.parquet"))
    for docs, *_ in positions_for_terms(gdir, split).values():
        assert np.all(np.diff(docs) > 0)
    after = phrase_topk(idx, src, queries, k=10, positions="force").to_pandas()
    key = ["qid", "rank"]
    assert after.sort_values(key).reset_index(drop=True).equals(
        before.sort_values(key).reset_index(drop=True))


def test_positions_analyzer_mismatch_raises(poscorpus):
    idx, d, _ = poscorpus
    with pytest.raises(ValueError, match="analyzer"):
        build_positions(idx, d, cfg=IndexConfig(stemmer="porter2"))
    # (poscorpus is stemmer="none", so porter2 is the mismatch)


def test_positions_force_without_sidecar_raises(ray_session, tmp_path):
    t = _corpus(60, seed=9)
    d = tmp_path / "c"
    d.mkdir()
    pq.write_table(t, str(d / "a.parquet"))
    idx = str(tmp_path / "idx")
    build_index(str(d), idx, IndexConfig(), mode="documents", n_groups=1)
    with pytest.raises(ValueError, match="positions"):
        phrase_topk(idx, str(d), [("q", "alpha beta")], positions="force")
    # and auto quietly falls back
    res = phrase_topk(idx, str(d), [("q", "alpha beta")],
                      positions="auto").to_pandas()
    assert {"qid", "doc_id", "rank", "score"} <= set(res.columns)


def test_positions_stemmed_analyzer(ray_session, tmp_path):
    """Sidecar inherits the index's stemmer: phrase matching over
    stemmed streams agrees between both paths."""
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
    build_index(str(d), idx, IndexConfig(stemmer="porter2"),
                mode="documents", n_groups=1)
    build_positions(idx, str(d))
    queries = [("q", "running jumping"), ("r", "runs jumps")]
    for gap in (1, 3):
        a = phrase_topk(idx, str(d), queries, k=10, gap=gap,
                        positions="off").to_pandas()
        b = phrase_topk(idx, str(d), queries, k=10, gap=gap,
                        positions="force").to_pandas()
        key = ["qid", "rank"]
        assert a.sort_values(key).reset_index(drop=True).equals(
            b.sort_values(key).reset_index(drop=True))


def test_decode_position_row_unit():
    from bm25_benchmarks_ray.functions.codec import varint_encode

    docs = np.array([5, 9, 40], dtype=np.uint64)
    gaps = np.array([5, 4, 31], dtype=np.uint64)
    counts = np.array([2, 1, 3], dtype=np.uint64)
    # positions: doc5 -> [1, 6]; doc9 -> [0]; doc40 -> [2, 3, 11]
    pos_deltas = np.array([1, 5, 0, 2, 1, 8], dtype=np.uint64)
    d, c, p = decode_position_row(
        varint_encode(gaps), varint_encode(counts), varint_encode(pos_deltas),
    )
    assert list(d) == [5, 9, 40]
    assert list(c) == [2, 1, 3]
    assert list(p) == [1, 6, 0, 2, 3, 11]
