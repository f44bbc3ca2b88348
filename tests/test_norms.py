"""Norms file (state/norms.py): derivation correctness vs the corpus,
fingerprint staleness, query equality with the dls-stream path, and
the pruned-column decode contract."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from bm25_benchmarks_ray.config import IndexConfig
from bm25_benchmarks_ray.pipelines.index_build import build_index
from bm25_benchmarks_ray.state.norms import (
    build_norms,
    group_norms_fresh,
    has_norms,
    load_group_norms,
)


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
    assert has_norms(idx)


def test_norms_match_tokenized_dl(nidx):
    """norms[doc] == the doc's kept-stream length from a direct
    tokenize (same analyzer as the build)."""
    from bm25_benchmarks_ray.functions.tokenizer import (
        resolve_stemmer,
        resolve_stopwords,
        tokenize_text,
    )
    from bm25_benchmarks_ray.state.manifest import Manifest

    idx, t = nidx
    man = Manifest.load(idx)
    cfg = IndexConfig(**{
        k: v for k, v in man.config.items()
        if k in IndexConfig.__dataclass_fields__
    })
    sw = resolve_stopwords(cfg.stopwords)
    st = resolve_stemmer(cfg.stemmer)
    df = t.to_pandas().sort_values(["conv_id", "turn_idx"],
                                   kind="mergesort").reset_index(drop=True)
    expected = np.array(
        [len(tokenize_text(x, stopwords=sw, stemmer=st)) for x in df["text"]],
        dtype=np.uint32,
    )
    got = np.empty_like(expected)
    for g in man.done_groups():
        arr, base = load_group_norms(idx, g)
        e = man.groups[str(g)]
        lo, hi = int(e["doc_lo"]), int(e["doc_hi"])
        got[lo:hi] = arr[: hi - lo]
        assert base == lo
    assert np.array_equal(got, expected)


def test_norms_stale_after_segment_touch(nidx, tmp_path):
    idx, _ = nidx
    assert group_norms_fresh(idx, 0)
    # touch a segment parquet -> fingerprint mismatch -> stale
    from bm25_benchmarks_ray.pipelines.index_build import SEGMENTS_DIR

    gdir = os.path.join(idx, SEGMENTS_DIR, "group=0")
    f = next(p for p in os.listdir(gdir) if p.endswith(".parquet"))
    os.utime(os.path.join(gdir, f))
    assert not group_norms_fresh(idx, 0)
    assert not has_norms(idx)
    assert build_norms(idx) == 1  # rebuilds exactly the stale group
    assert has_norms(idx)


def test_decode_without_dls_returns_none(nidx):
    import pyarrow.dataset as pads

    from bm25_benchmarks_ray.pipelines.index_build import SEGMENTS_DIR
    from bm25_benchmarks_ray.stages.segments import (
        decode_segment,
        segment_rows_by_term,
    )
    from bm25_benchmarks_ray.state.manifest import Manifest

    idx, _ = nidx
    man = Manifest.load(idx)
    bs = int(man.config["block_size"])
    gdir = os.path.join(idx, SEGMENTS_DIR, "group=0")
    full = pads.dataset(gdir).to_table()
    pruned = full.drop_columns(["dls", "blk_off_dl"])
    rows_f = segment_rows_by_term(full)
    rows_p = segment_rows_by_term(pruned)
    term = next(iter(rows_f))
    doc_f, tf_f, dl_f = decode_segment(rows_f[term][0], bs)
    doc_p, tf_p, dl_p = decode_segment(rows_p[term][0], bs)
    assert dl_p is None and dl_f is not None
    assert np.array_equal(doc_f, doc_p)
    assert np.array_equal(tf_f, tf_p)
    # norms lookup closes the gap
    arr, base = load_group_norms(idx, 0)
    assert np.array_equal(arr[doc_p - base], dl_f.astype(np.uint32))


def test_worker_norms_cache_follows_compaction(ray_session, tmp_path):
    """A process that cached group 0's norms before append + compact
    must see the compacted group's norms afterwards, not the old array
    (the scoring workers outlive index rewrites)."""
    from bm25_benchmarks_ray.pipelines.index_build import (
        SEGMENTS_DIR,
        append_index,
        compact_index,
    )
    from bm25_benchmarks_ray.pipelines.query import _group_norms

    from bm25_benchmarks_ray.sources.transcripts import synthesize_transcripts

    text = synthesize_transcripts(300, seed=29).column("text")
    t = pa.table({"doc_id": pa.array(np.arange(len(text))), "text": text})
    cut = t.num_rows // 2
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    pq.write_table(t.slice(0, cut), str(a / "a.parquet"))
    pq.write_table(t.slice(cut), str(b / "b.parquet"))
    idx = str(tmp_path / "idx")
    build_index(str(a), idx, IndexConfig(), mode="documents", fresh=True)
    gdir = os.path.join(idx, SEGMENTS_DIR, "group=0")
    arr, base = _group_norms(idx, gdir)
    assert (arr.size, base) == (cut, 0)

    append_index(str(b), idx, IndexConfig())
    man = compact_index(idx)
    assert man.done_groups() == [0] and has_norms(idx, man)
    e = man.groups["0"]
    arr, base = _group_norms(idx, gdir)
    assert (arr.size, base) == (e["doc_hi"] - e["doc_lo"], e["doc_lo"])
    assert arr.size == t.num_rows
