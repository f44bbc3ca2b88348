"""Group norms (state/norms.py): written by the build's tokenize pass,
placed by compaction, published with the segments — and the only
stored doc length (segment rows carry no dl stream)."""

from __future__ import annotations

import os
import re
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from bm25_benchmarks_ray.config import IndexConfig
from bm25_benchmarks_ray.pipelines.index_build import (
    SEGMENTS_DIR,
    append_index,
    build_index,
    compact_index,
)
from bm25_benchmarks_ray.state.manifest import Manifest
from bm25_benchmarks_ray.state.norms import has_norms, load_group_norms
from tests.oracle import assert_norms_match


def _docs(n: int, seed: int) -> pa.Table:
    """A documents-mode corpus: ids 0..n-1 over synthetic turn texts."""
    from bm25_benchmarks_ray.sources.transcripts import synthesize_transcripts

    text = synthesize_transcripts(n, seed=seed).column("text")
    return pa.table({"doc_id": pa.array(np.arange(len(text))), "text": text})


def _ranked(t: pa.Table) -> pa.Table:
    """Transcript turns in doc-id order (rank under conv_id, turn_idx)."""
    df = t.to_pandas().sort_values(["conv_id", "turn_idx"], kind="mergesort")
    return pa.table({"doc_id": np.arange(len(df)), "text": df["text"].tolist()})


@pytest.fixture(scope="module")
def nidx(ray_session, tmp_path_factory):
    from bm25_benchmarks_ray.sources.transcripts import synthesize_transcripts

    t = synthesize_transcripts(1200, seed=13)
    d = tmp_path_factory.mktemp("ncorpus")
    pq.write_table(t.slice(0, 600), str(d / "a.parquet"))
    pq.write_table(t.slice(600), str(d / "b.parquet"))
    idx = str(tmp_path_factory.mktemp("nidx") / "index")
    build_index(str(d), idx, IndexConfig(), mode="transcripts", n_groups=2)
    return idx, t


def test_norms_built_by_default(nidx):
    idx, _ = nidx
    man = Manifest.load(idx)
    assert len(man.done_groups()) == 2 and has_norms(idx, man)
    assert not os.path.exists(os.path.join(idx, "norms"))


def test_norms_match_tokenized_dl(nidx):
    """2-group transcripts build: norms[doc] == the doc's kept-stream
    length from a direct tokenize (same analyzer as the build)."""
    idx, t = nidx
    ranked = _ranked(t)
    assert_norms_match(idx, ranked.column("doc_id"), ranked.column("text").to_pylist())


def test_norms_stale_after_segment_touch(nidx):
    """Norms carry no freshness fingerprint: they are published with
    their segments, so touching a segment file changes nothing."""
    from bm25_benchmarks_ray.pipelines.query import search

    idx, _ = nidx
    q = [("q", "cache latency error")]
    before = search(idx, q, k=20, join_back=False).to_pandas()
    gdir = os.path.join(idx, SEGMENTS_DIR, "group=0")
    f = next(p for p in os.listdir(gdir) if p.endswith(".parquet"))
    os.utime(os.path.join(gdir, f))
    assert has_norms(idx, Manifest.load(idx))
    assert search(idx, q, k=20, join_back=False).to_pandas().equals(before)


def test_decode_without_dls_returns_none(nidx):
    """Segment rows hold no dl stream: decode yields (doc, tf) only, and
    the group norms supply every posting's dl — the same dl the build's
    per-block min dl (``bmin_dl``) was taken over."""
    import pyarrow.dataset as pads

    from bm25_benchmarks_ray.stages.segments import (
        SEGMENT_SCHEMA,
        decode_segment,
        segment_rows_by_term,
    )

    assert "dls" not in SEGMENT_SCHEMA.names
    assert "blk_off_dl" not in SEGMENT_SCHEMA.names
    idx, _ = nidx
    man = Manifest.load(idx)
    bs = int(man.config["block_size"])
    for g in man.done_groups():
        gdir = os.path.join(idx, SEGMENTS_DIR, f"group={g}")
        seg = pads.dataset(gdir).to_table()
        assert seg.schema.names == SEGMENT_SCHEMA.names
        norms, lo = load_group_norms(gdir), man.groups[str(g)]["doc_lo"]
        for parts in segment_rows_by_term(seg).values():
            for row in parts:
                doc, tf = decode_segment(row, bs)
                dl = norms[doc - lo]
                assert (dl >= tf).all()
                nb = -(-doc.size // bs)
                bmin = np.minimum.reduceat(dl, np.arange(0, doc.size, bs))
                assert np.array_equal(
                    np.frombuffer(row["bmin_dl"], dtype=np.uint32), bmin[:nb])


def test_worker_norms_cache_follows_compaction(ray_session, tmp_path):
    """A process that cached group 0's norms before append + compact
    must see the compacted group's norms afterwards, not the old array
    (the scoring workers outlive index rewrites)."""
    from bm25_benchmarks_ray.pipelines.query import _group_norms

    t = _docs(300, seed=29)
    cut = t.num_rows // 2
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    pq.write_table(t.slice(0, cut), str(a / "a.parquet"))
    pq.write_table(t.slice(cut), str(b / "b.parquet"))
    idx = str(tmp_path / "idx")
    man = build_index(str(a), idx, IndexConfig(), mode="documents", fresh=True)
    gdir = os.path.join(idx, SEGMENTS_DIR, "group=0")
    arr, base = _group_norms(gdir, man.groups["0"]["doc_lo"])
    assert (arr.size, base) == (cut, 0)

    append_index(str(b), idx, IndexConfig())
    man = compact_index(idx)
    assert man.done_groups() == [0] and has_norms(idx, man)
    arr, base = _group_norms(gdir, man.groups["0"]["doc_lo"])
    assert (arr.size, base) == (t.num_rows, 0)
    assert_norms_match(idx, t.column("doc_id"), t.column("text").to_pylist())


def test_norms_documents_build_and_appends(ray_session, tmp_path):
    """A documents build plus two appends: each group's norms come from
    its own tokenize pass and span its own ids."""
    src = _docs(450, seed=3)
    idx = str(tmp_path / "idx")
    for i in range(3):
        p = str(tmp_path / f"p{i}.parquet")
        pq.write_table(src.slice(i * 150, 150), p)
        if i == 0:
            build_index(p, idx, IndexConfig(), mode="documents", fresh=True)
        else:
            append_index(p, idx, IndexConfig())
    man = Manifest.load(idx)
    assert [(man.groups[str(g)]["doc_lo"], man.groups[str(g)]["doc_hi"])
            for g in man.done_groups()] == [(0, 150), (150, 300), (300, 450)]
    part = src.slice(0, 450)
    assert_norms_match(idx, part.column("doc_id"), part.column("text").to_pylist())


def test_version_mismatch_raises_and_build_rebuilds(ray_session, tmp_path):
    """An index written in another format version is refused with both
    versions named; build_index rebuilds it."""
    import json

    from bm25_benchmarks_ray.pipelines.query import search
    from bm25_benchmarks_ray.state.manifest import FORMAT_VERSION, MANIFEST_NAME

    src = str(tmp_path / "docs.parquet")
    pq.write_table(_docs(200, seed=5), src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, IndexConfig(), mode="documents")
    p = os.path.join(idx, MANIFEST_NAME)
    with open(p) as f:
        d = json.load(f)
    d["version"] = 3
    with open(p, "w") as f:
        json.dump(d, f)
    with pytest.raises(ValueError, match=f"version 3.*version {FORMAT_VERSION}.*rebuild"):
        search(idx, [("q", "cache")])
    man = build_index(src, idx, IndexConfig(), mode="documents")
    assert man.is_complete() and has_norms(idx, man)
    assert search(idx, [("q", "cache")]).num_rows > 0


def test_traced_ingest_spans(ray_session, tmp_path):
    """perfbench's tracer around a build, an append and a compaction:
    every ``build.norms`` span records (groups written, groups held),
    no norms-derive Ray job runs, and after compaction no file under
    the index belongs to a group the manifest does not list."""
    from perfbench.tracing import Tracer, collect_timeline

    src = _docs(500, seed=7)
    a, b, c = (str(tmp_path / f"{x}.parquet") for x in "abc")
    pq.write_table(src.slice(0, 200), a)
    pq.write_table(src.slice(200, 150), b)
    pq.write_table(src.slice(350, 150), c)
    idx = str(tmp_path / "idx")
    t0 = time.time()
    tracer = Tracer()
    tracer.install()
    try:
        from bm25_benchmarks_ray.pipelines import index_build as ib

        ib.build_index([a, b], idx, IndexConfig(), mode="documents",
                       n_groups=2, fresh=True)
        ib.append_index(c, idx, IndexConfig())
        man = ib.compact_index(idx)
    finally:
        tracer.uninstall()
    spans = [s for r in tracer.roots for s in r.walk() if s.name == "build.norms"]
    assert len(spans) == 4  # two built groups, one appended, one compacted
    for s in spans:
        assert isinstance(s.info, tuple) and len(s.info) == 2
        assert all(isinstance(x, int) for x in s.info)
    events = collect_timeline(time.time(), settle_s=0.3, max_wait_s=4.0)
    assert not [e for e in events if "derive" in e["cat"] and e["ts"] / 1e6 >= t0]

    listed = {str(g) for g in man.done_groups()}
    for d, dirs, files in os.walk(idx):
        for name in dirs + files:
            m = re.match(r"group=(\d+)", name)
            assert m is None or m.group(1) in listed, os.path.join(d, name)
        assert "_norms_parts" not in dirs
    assert not os.path.exists(os.path.join(idx, "norms"))


def test_norms_span_guard(tmp_path):
    """A group whose ids span more than MAX_SPAN raises instead of
    allocating the array; a narrow one scatters its parts, holes 0."""
    from bm25_benchmarks_ray.state.norms import (
        MAX_SPAN,
        NORMS_FILE,
        PARTS_DIR,
        build_norms,
        write_norms_part,
    )

    seg = str(tmp_path / "seg")
    write_norms_part(os.path.join(seg, PARTS_DIR), np.array([5, 9]), np.array([3, 4]))
    write_norms_part(os.path.join(seg, PARTS_DIR), np.array([7]), np.array([2]))
    entry: dict = {"n_docs": 3}
    assert build_norms(str(tmp_path), None, seg, entry) == 1
    assert entry == {"n_docs": 3, "doc_lo": 5, "doc_hi": 10}
    assert np.load(os.path.join(seg, NORMS_FILE)).tolist() == [3, 0, 2, 0, 4]
    assert not os.path.exists(os.path.join(seg, PARTS_DIR))

    wide = str(tmp_path / "wide")
    write_norms_part(os.path.join(wide, PARTS_DIR),
                     np.array([0, MAX_SPAN]), np.array([1, 1]))
    with pytest.raises(ValueError, match="too wide"):
        build_norms(str(tmp_path), None, wide, {})


def test_duplicate_doc_ids_rejected(ray_session, tmp_path):
    """A group whose input holds a doc id twice is refused by its norms
    pass, at build and at append, naming the ids; the rejected append
    leaves the index as found."""
    t = _docs(50, seed=17)
    twice = str(tmp_path / "twice.parquet")
    pq.write_table(pa.concat_tables([t, t]), twice)
    with pytest.raises(ValueError, match=r"duplicate doc ids.*\[0, 1, 2"):
        build_index(twice, str(tmp_path / "dup"), IndexConfig(),
                    mode="documents", fresh=True)

    base = str(tmp_path / "base.parquet")
    pq.write_table(t, base)
    idx = str(tmp_path / "idx")
    build_index(base, idx, IndexConfig(), mode="documents", fresh=True)
    shifted = t.set_column(0, "doc_id", pa.array(np.arange(50, 100)))
    more = str(tmp_path / "more.parquet")
    pq.write_table(pa.concat_tables([shifted, shifted]), more)
    with pytest.raises(ValueError, match=r"duplicate doc ids.*\[50, 51, 52"):
        append_index(more, idx)
    man = Manifest.load(idx)
    assert man.is_complete() and man.stats["num_docs"] == 50
    assert os.listdir(os.path.join(idx, SEGMENTS_DIR)) == ["group=0"]
