"""Persistent serving actors: rank-identical to the batch pipeline."""

from __future__ import annotations

import os

import pandas as pd
import pyarrow.parquet as pq
import pytest

from bm25_benchmarks_ray.config import IndexConfig
from bm25_benchmarks_ray.functions.bm25 import BM25Params
from bm25_benchmarks_ray.pipelines.index_build import build_index
from bm25_benchmarks_ray.pipelines.query import search
from bm25_benchmarks_ray.pipelines.serve import BM25Server
from bm25_benchmarks_ray.sources.transcripts import (
    synthesize_queries,
    synthesize_transcripts,
)


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    d = tmp_path_factory.mktemp("srv")
    table = synthesize_transcripts(600, seed=41)
    n = table.num_rows
    for i in range(4):
        pq.write_table(
            table.slice(i * n // 4, n // 4), os.path.join(d, f"p{i}.parquet")
        )
    idx = str(d / "idx")
    build_index(str(d), idx, IndexConfig(), mode="transcripts", n_groups=2)
    return idx


@pytest.mark.parametrize("method", ["lucene", "robertson", "bm25+", "okapi"])
def test_served_equals_batch(built, method):
    params = BM25Params(method=method)
    queries = synthesize_queries(15, seed=3)
    batch = search(built, queries, params=params, k=7).to_pandas()
    batch = batch.sort_values(["qid", "rank"]).reset_index(drop=True)
    with BM25Server(built, params=params) as srv:
        served = srv.search(queries, k=7)
        served = served.sort_values(["qid", "rank"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            batch[["qid", "doc_id", "rank", "score"]],
            served[["qid", "doc_id", "rank", "score"]],
        )
        # repeated call hits the warmed caches, same answer
        again = srv.search(queries, k=7).sort_values(["qid", "rank"]).reset_index(
            drop=True
        )
        pd.testing.assert_frame_equal(
            served[["qid", "doc_id", "rank", "score"]],
            again[["qid", "doc_id", "rank", "score"]],
        )


def test_served_zero_match_and_joinback(built):
    with BM25Server(built) as srv:
        out = srv.search([("q_oov", "zzqqxnotaword"), ("q0", "data build")], k=5)
        oov = out[out["qid"] == "q_oov"].sort_values("rank")
        assert list(oov["doc_id"]) == [0, 1, 2, 3, 4]
        assert (oov["score"] == 0.0).all()
        assert {"conv_id", "turn_idx"} <= set(out.columns)


def test_warm_then_fast_path(built):
    queries = synthesize_queries(10, seed=5)
    with BM25Server(built) as srv:
        srv.warm(queries)
        out = srv.search(queries, k=5)
        assert len(out) == 10 * 5


def test_cli_serve(built, tmp_path, capsys):
    import json

    from bm25_benchmarks_ray.cli import main

    qfile = str(tmp_path / "q.tsv")
    with open(qfile, "w") as f:
        f.write("qa\tdata build stream\nqb\tshuffle merge\n")
    out_tsv = str(tmp_path / "served.tsv")
    rc = main(["serve", "--index", built, "--queries", qfile,
               "--output", out_tsv, "--warm", "--top-k", "4"])
    assert rc == 0
    stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert stats["queries"] == 2 and stats["rows"] == 8 and stats["warmed"]
    import pandas as pd

    res = pd.read_csv(out_tsv, sep="\t")
    assert set(res["qid"]) == {"qa", "qb"}


def test_warm_top_df(built):
    with BM25Server(built) as srv:
        srv.warm_top_df(50)
        out = srv.search([("q", "data build")], k=3)
        assert len(out) == 3


def _write_docs(path: str, lo: int, hi: int, seed: int = 17) -> None:
    """Documents with ids [lo, hi), texts from one synthetic corpus."""
    import numpy as np
    import pyarrow as pa

    text = synthesize_transcripts(hi, seed=seed).column("text").slice(lo, hi - lo)
    pq.write_table(pa.table({"doc_id": pa.array(np.arange(lo, hi)), "text": text}),
                   path)


FOLLOW_Q = synthesize_queries(12, seed=9)
KEY = ["qid", "rank"]
COLS = ["qid", "doc_id", "rank", "score"]


def _ranked(df: pd.DataFrame) -> pd.DataFrame:
    return df[COLS].sort_values(KEY).reset_index(drop=True)


def _fresh(root, files: list[str], deleted: list[int]) -> pd.DataFrame:
    """search() on a fresh one-group build of ``files`` with ``deleted``
    tombstoned."""
    import shutil

    from bm25_benchmarks_ray.pipelines.tombstones import delete_docs

    src = os.path.join(root, "fresh_src")
    shutil.rmtree(src, ignore_errors=True)
    os.makedirs(src)
    for f in files:
        shutil.copy(f, src)
    idx = os.path.join(root, "fresh_idx")
    build_index(src, idx, IndexConfig(), mode="documents", n_groups=1, fresh=True)
    if deleted:
        delete_docs(idx, deleted)
    return _ranked(search(idx, FOLLOW_Q, k=10).to_pandas())


@pytest.fixture()
def two_groups(ray_session, tmp_path):
    """A 300-doc documents index of two groups, [0, 150) and [150, 300),
    and a third file of docs [300, 400) to append."""
    src = tmp_path / "src"
    os.makedirs(src)
    files = [str(src / "docs_0.parquet"), str(src / "docs_1.parquet")]
    _write_docs(files[0], 0, 150)
    _write_docs(files[1], 150, 300)
    more = tmp_path / "more"
    os.makedirs(more)
    extra = str(more / "docs_2.parquet")
    _write_docs(extra, 300, 400)
    idx = str(tmp_path / "idx")
    build_index(str(src), idx, IndexConfig(), mode="documents", n_groups=2)
    return idx, files, extra, tmp_path


def _served_matches(srv, idx, root, files, deleted) -> pd.DataFrame:
    served = _ranked(srv.search(FOLLOW_Q, k=10))
    pd.testing.assert_frame_equal(served, _ranked(search(idx, FOLLOW_Q, k=10).to_pandas()))
    pd.testing.assert_frame_equal(served, _fresh(root, files, deleted))
    return served


def test_server_follows_delete(two_groups):
    """A delete reaches an open server: the deleted doc leaves its
    rankings, as it leaves search()'s (the server kept serving it)."""
    from bm25_benchmarks_ray.pipelines.tombstones import delete_docs

    idx, files, _, root = two_groups
    with BM25Server(idx) as srv:
        before = _served_matches(srv, idx, root, files, [])
        actors = list(srv.actors)
        gone = int(before["doc_id"].iloc[0])
        delete_docs(idx, [gone])
        after = _served_matches(srv, idx, root, files, [gone])
        assert gone not in set(after["doc_id"])
        assert srv.actors == actors  # only the tombstones changed


def test_server_follows_append(two_groups):
    """Docs appended after the server opened rank in its answers."""
    from bm25_benchmarks_ray.pipelines.index_build import append_index

    idx, files, extra, root = two_groups
    with BM25Server(idx) as srv:
        _served_matches(srv, idx, root, files, [])
        append_index(extra, idx)
        after = _served_matches(srv, idx, root, files + [extra], [])
        assert (after["doc_id"] >= 300).any()
        assert len(srv.actors) == 3


def test_server_follows_compact(two_groups):
    """A delete then a compaction under an open server: its answers stay
    those of a fresh build with the same delete (its actors held rows of
    the replaced group files)."""
    from bm25_benchmarks_ray.pipelines.index_build import compact_index
    from bm25_benchmarks_ray.pipelines.tombstones import delete_docs

    idx, files, _, root = two_groups
    with BM25Server(idx) as srv:
        before = _served_matches(srv, idx, root, files, [])
        gone = int(before["doc_id"].iloc[0])
        delete_docs(idx, [gone])
        compact_index(idx)
        after = _served_matches(srv, idx, root, files, [gone])
        assert gone not in set(after["doc_id"])
        assert len(srv.actors) == 1
