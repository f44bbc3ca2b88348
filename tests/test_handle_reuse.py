"""``Index.open`` reuses one handle per published version of an index:
every publish (build, append, delete, compaction) is seen by the next
call, rank-identical to a handle read fresh from the manifest, and a
handle never outlives the Ray session that opened it."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from bm25_benchmarks_ray.config import IndexConfig
from bm25_benchmarks_ray.pipelines.index_build import (
    append_index,
    build_index,
    compact_index,
)
from bm25_benchmarks_ray.pipelines.query import Index, search
from bm25_benchmarks_ray.pipelines.tombstones import delete_docs
from bm25_benchmarks_ray.sources.transcripts import (
    synthesize_queries,
    synthesize_transcripts,
)
from bm25_benchmarks_ray.state.manifest import MANIFEST_NAME, Manifest

QUERIES = synthesize_queries(12, seed=9)
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _write_docs(path: str, lo: int, hi: int, seed: int) -> None:
    text = synthesize_transcripts(hi, seed=seed).column("text").slice(lo, hi - lo)
    pq.write_table(pa.table({"doc_id": pa.array(np.arange(lo, hi)), "text": text}),
                   path)


def _sees_current(idx: str, prev: Index | None) -> tuple[Index, pa.Table]:
    """The reused handle after a change is new, and search() through
    the path ranks as a handle read fresh from the manifest does."""
    ix = Index.open(idx)
    assert ix is not prev and Index.open(idx) is ix
    got = search(idx, QUERIES, k=10, join_back=False)
    fresh = search(Index(idx, Manifest.load(idx)), QUERIES, k=10, join_back=False)
    assert got.equals(fresh)
    return ix, got


def test_reused_handle_sees_every_publish(ray_session, tmp_path):
    src, more = tmp_path / "src", tmp_path / "more"
    os.makedirs(src), os.makedirs(more)
    _write_docs(str(src / "a.parquet"), 0, 150, seed=17)
    _write_docs(str(src / "b.parquet"), 150, 300, seed=17)
    idx = str(tmp_path / "idx")
    build_index(str(src), idx, IndexConfig(), mode="documents", n_groups=2)
    ix, first = _sees_current(idx, None)

    # a fresh=True rebuild at the same path over other texts
    _write_docs(str(src / "a.parquet"), 0, 150, seed=18)
    _write_docs(str(src / "b.parquet"), 150, 300, seed=18)
    build_index(str(src), idx, IndexConfig(), mode="documents", n_groups=2,
                fresh=True)
    ix, got = _sees_current(idx, ix)
    assert not got.equals(first)

    _write_docs(str(more / "c.parquet"), 300, 400, seed=18)
    append_index(str(more / "c.parquet"), idx)
    ix, got = _sees_current(idx, ix)
    assert len(ix.gids) == 3 and ix.num_docs == 400

    gone = got.column("doc_id")[0].as_py()
    delete_docs(idx, [gone])
    ix, got = _sees_current(idx, ix)
    assert gone not in got.column("doc_id").to_pylist()

    compact_index(idx)
    ix, got = _sees_current(idx, ix)
    assert ix.gids == [0] and gone not in got.column("doc_id").to_pylist()

    # two changes between two calls
    _write_docs(str(more / "d.parquet"), 400, 500, seed=18)
    append_index(str(more / "d.parquet"), idx)
    gone2 = got.column("doc_id")[0].as_py()
    delete_docs(idx, [gone2])
    ix, got = _sees_current(idx, ix)
    assert ix.num_docs == 500
    assert not {gone, gone2} & set(got.column("doc_id").to_pylist())


def test_index_without_token_is_opened_per_call(ray_session, tmp_path):
    p = str(tmp_path / "docs.parquet")
    _write_docs(p, 0, 100, seed=3)
    idx = str(tmp_path / "idx")
    build_index(p, idx, IndexConfig(), mode="documents")
    path = os.path.join(idx, MANIFEST_NAME)
    with open(path) as f:
        d = json.load(f)
    del d["token"]
    with open(path, "w") as f:
        json.dump(d, f)
    a = Index.open(idx)
    assert a.man.token == "" and Index.open(idx) is not a
    assert search(idx, QUERIES, k=5).equals(search(a, QUERIES, k=5))


def test_handle_is_not_reused_across_ray_sessions(ray_session, tmp_path):
    """A handle holds Ray objects (its live shards); after
    ``ray.shutdown()`` and ``ray.init()`` the path opens a new one, and a
    search on a tombstoned index still answers."""
    p = str(tmp_path / "docs.parquet")
    _write_docs(p, 0, 100, seed=3)
    idx = str(tmp_path / "idx")
    build_index(p, idx, IndexConfig(), mode="documents")
    delete_docs(idx, [1, 2, 3])
    script = textwrap.dedent(f"""
        import ray
        from bm25_benchmarks_ray.pipelines.query import Index, search
        idx, q = {idx!r}, [("q", "data build")]
        ray.init(address="local", num_cpus=1, include_dashboard=False)
        a = Index.open(idx)
        assert Index.open(idx) is a
        first = search(idx, q, k=5)
        ray.shutdown()
        ray.init(address="local", num_cpus=1, include_dashboard=False)
        b = Index.open(idx)
        assert b is not a and Index.open(idx) is b
        assert search(idx, q, k=5).equals(first)
        ray.shutdown()
        print("ok")
    """)
    env = dict(os.environ, PYTHONPATH=REPO)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=240, cwd=str(tmp_path), env=env)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip().endswith("ok")
