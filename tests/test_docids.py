"""Doc-id assignment: rank under ORDER BY (conv_id, turn_idx) without a
global sort (SURVEY.md §4.2 'stable doc numbering')."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from bm25_benchmarks_ray.sources.transcripts import synthesize_transcripts
from bm25_benchmarks_ray.stages.docids import (
    assign_doc_ids,
    conv_offsets,
    offsets_are_dense,
)


def _expected_doc_ids(table: pa.Table) -> dict:
    df = table.to_pandas().sort_values(["conv_id", "turn_idx"], kind="mergesort")
    return {
        (c, int(t)): i
        for i, (c, t) in enumerate(zip(df["conv_id"], df["turn_idx"]))
    }


def test_dense_fast_path(ray_session):
    table = synthesize_transcripts(500, seed=7)
    ds = rd.from_arrow(table).repartition(5)
    offsets = conv_offsets(ds)
    assert offsets_are_dense(offsets)
    out = assign_doc_ids(ds, offsets).to_pandas()
    expected = _expected_doc_ids(table)
    got = {
        (c, int(t)): int(d)
        for c, t, d in zip(out["conv_id"], out["turn_idx"], out["doc_id"])
    }
    assert got == expected
    assert sorted(got.values()) == list(range(len(table)))


def test_sparse_turn_fallback(ray_session):
    # gappy turn_idx (deleted turns): rank, not raw turn_idx
    table = pa.table(
        {
            "conv_id": pa.array(["b", "b", "a", "a", "a"], type=pa.string()),
            "turn_idx": pa.array([3, 9, 0, 2, 7], type=pa.int32()),
            "text": pa.array(["t1", "t2", "t3", "t4", "t5"]),
        }
    )
    ds = rd.from_arrow(table).repartition(2)
    offsets = conv_offsets(ds)
    assert not offsets_are_dense(offsets)
    out = assign_doc_ids(ds, offsets).to_pandas()
    got = {
        (c, int(t)): int(d)
        for c, t, d in zip(out["conv_id"], out["turn_idx"], out["doc_id"])
    }
    assert got == {
        ("a", 0): 0,
        ("a", 2): 1,
        ("a", 7): 2,
        ("b", 3): 3,
        ("b", 9): 4,
    }


def test_synthesizer_deterministic():
    a = synthesize_transcripts(300, seed=42)
    b = synthesize_transcripts(300, seed=42)
    assert a.equals(b)
    assert a.num_rows == 300
    # turn_idx dense within conv
    df = a.to_pandas()
    for _, g in df.groupby("conv_id"):
        assert list(g["turn_idx"]) == list(range(len(g)))


def test_join_strategy_matches_broadcast(ray_session):
    """strategy="join" (the >10^8-conv path) must produce identical
    doc ids to the broadcast fast path."""
    import pyarrow as pa
    import ray.data as rd

    from bm25_benchmarks_ray.stages.docids import assign_doc_ids, conv_offsets

    rows = [
        {"conv_id": f"c{c:03d}", "turn_idx": t, "text": f"t{c}-{t}"}
        for c in range(17)
        for t in range(c % 5 + 1)
    ]
    ds = rd.from_items(rows).repartition(4)
    offsets = conv_offsets(ds)
    a = (
        assign_doc_ids(ds, offsets, strategy="broadcast")
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"])
        .reset_index(drop=True)
    )
    b = (
        assign_doc_ids(ds, offsets, strategy="join")
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"])
        .reset_index(drop=True)
    )
    assert list(a["doc_id"]) == list(b["doc_id"])
    assert sorted(a["doc_id"]) == list(range(len(rows)))


def test_sparse_turn_fallback_many_convs(ray_session):
    """Randomized, many-conv exercise of the hash-sorted whole-partition
    rank kernel: doc_id must equal the global rank under ORDER BY
    (conv_id, turn_idx) for gappy turn indices."""
    rng = np.random.RandomState(5)
    convs, turns = [], []
    for c in range(137):
        cid = f"conv{c:04d}"
        n = rng.randint(1, 12)
        t = np.sort(rng.choice(np.arange(50), size=n, replace=False))
        convs += [cid] * n
        turns += list(t)
    perm = rng.permutation(len(convs))
    table = pa.table(
        {
            "conv_id": pa.array(np.asarray(convs, dtype=object)[perm]),
            "turn_idx": pa.array(np.asarray(turns, dtype=np.int64)[perm]),
        }
    )
    ds = rd.from_arrow(table).repartition(11)
    offsets = conv_offsets(ds)
    assert not offsets_are_dense(offsets)
    out = assign_doc_ids(ds, offsets).to_pandas()
    ref = out.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    assert list(ref["doc_id"]) == list(range(len(ref)))


@pytest.mark.parametrize("driver_side", [True, False])
def test_sparse_turn_search_returns_source_turn_idx(
    ray_session, tmp_path, monkeypatch, driver_side
):
    """On a corpus with gappy turn indices, search()'s join-back returns
    each hit's source turn_idx, not its rank within the conversation —
    on both the driver-side and the distributed offsets path."""
    import bm25_benchmarks_ray.pipelines.index_build as ib
    from bm25_benchmarks_ray.config import IndexConfig
    from bm25_benchmarks_ray.pipelines.query import search
    from bm25_benchmarks_ray.sources.transcripts import (
        synthesize_queries,
        synthesize_transcripts,
    )

    if not driver_side:
        monkeypatch.setattr(ib, "DRIVER_SIDE_ROWS", 0)
    table = synthesize_transcripts(300, seed=31)
    table = table.filter(pa.array(np.arange(table.num_rows) % 3 != 1))
    d = tmp_path / "corpus"
    d.mkdir()
    pq.write_table(table, str(d / "t.parquet"))
    idx = str(tmp_path / "index")
    ib.build_index(str(d), idx, IndexConfig(), mode="transcripts")
    offsets = ib.load_offsets(idx)
    assert not offsets_are_dense(offsets)

    res = search(idx, synthesize_queries(8, seed=3), k=10).to_pandas()
    src = table.select(["conv_id", "turn_idx"]).to_pandas().sort_values(
        ["conv_id", "turn_idx"], kind="mergesort").reset_index(drop=True)
    doc = res["doc_id"].to_numpy()
    assert len(res) > 0
    assert list(res["conv_id"]) == list(src["conv_id"].to_numpy()[doc])
    assert list(res["turn_idx"]) == list(src["turn_idx"].to_numpy()[doc])


def test_offsets_record_sparse_turns_only(ray_session, tmp_path):
    """Sparse-turn offsets carry each conversation's sorted turn list on
    both offsets paths; dense offsets keep their columns unchanged."""
    from bm25_benchmarks_ray.stages.docids import conv_offsets_local

    table = pa.table({
        "conv_id": pa.array(["b", "a", "b", "a", "a"], type=pa.string()),
        "turn_idx": pa.array([9, 7, 3, 0, 2], type=pa.int32()),
    })
    p = str(tmp_path / "t.parquet")
    pq.write_table(table, p)
    local = conv_offsets_local([p])
    dist = conv_offsets(rd.from_arrow(table).repartition(2))
    for off in (local, dist):
        assert [list(t) for t in off["turns"]] == [[0, 2, 7], [3, 9]]
    dense = pa.table({
        "conv_id": pa.array(["a", "a", "b"], type=pa.string()),
        "turn_idx": pa.array([1, 0, 0], type=pa.int32()),
    })
    assert list(conv_offsets(rd.from_arrow(dense))) == [
        "conv_id", "n_turns", "max_turn", "base"]


@pytest.mark.parametrize("driver_side", [True, False])
def test_sparse_turn_group_records_doc_range(
    ray_session, tmp_path, monkeypatch, driver_side
):
    """Sparse-turn ids are base + rank, so a one-group index over them
    records its doc range, and masked search (tombstones) serves it."""
    import bm25_benchmarks_ray.pipelines.index_build as ib
    from bm25_benchmarks_ray.config import IndexConfig
    from bm25_benchmarks_ray.pipelines.query import search
    from bm25_benchmarks_ray.pipelines.tombstones import delete_docs
    from bm25_benchmarks_ray.sources.transcripts import synthesize_queries

    if not driver_side:
        monkeypatch.setattr(ib, "DRIVER_SIDE_ROWS", 0)
    table = synthesize_transcripts(300, seed=31)
    table = table.filter(pa.array(np.arange(table.num_rows) % 3 != 1))
    d = tmp_path / "corpus"
    d.mkdir()
    pq.write_table(table, str(d / "t.parquet"))
    idx = str(tmp_path / "index")
    man = ib.build_index(str(d), idx, IndexConfig(), mode="transcripts",
                         n_groups=1)
    e = man.groups[str(man.done_groups()[0])]
    assert (e["doc_lo"], e["doc_hi"]) == (0, 200)
    delete_docs(idx, [1, 2, 3])
    res = search(idx, synthesize_queries(8, seed=3), k=10).to_pandas()
    assert len(res) > 0
    assert not np.isin(res["doc_id"].to_numpy(), [1, 2, 3]).any()


def test_sparse_turn_conversation_split_across_groups(ray_session, tmp_path):
    """A sparse-turn conversation whose turns sit in two input files
    (two index groups) keeps one numbering: every doc id is the global
    rank under ORDER BY (conv_id, turn_idx), once, and each group's
    postings stay inside its recorded doc range."""
    import pyarrow.dataset as pads

    import bm25_benchmarks_ray.pipelines.index_build as ib
    from bm25_benchmarks_ray.config import IndexConfig
    from bm25_benchmarks_ray.stages.segments import (
        decode_segment,
        segment_rows_by_term,
    )

    table = synthesize_transcripts(300, seed=31)
    table = table.filter(pa.array(np.arange(table.num_rows) % 3 != 1))
    order = np.lexsort((table.column("turn_idx").to_numpy(),
                        table.column("conv_id").to_numpy(zero_copy_only=False)))
    table = table.take(pa.array(order))
    cut = table.num_rows // 2 + 1
    assert table.column("conv_id")[cut - 1] == table.column("conv_id")[cut]
    d = tmp_path / "corpus"
    d.mkdir()
    pq.write_table(table.slice(0, cut), str(d / "a.parquet"))
    pq.write_table(table.slice(cut), str(d / "b.parquet"))
    idx = str(tmp_path / "index")
    man = ib.build_index(str(d), idx, IndexConfig(), mode="transcripts",
                         n_groups=2)
    docs = {}
    for g in man.done_groups():
        seg = pads.dataset(f"{idx}/segments/group={g}").to_table()
        docs[g] = np.unique(np.concatenate([
            decode_segment(r, 128)[0]
            for rows in segment_rows_by_term(seg).values() for r in rows
        ]))
    seen = np.concatenate(list(docs.values()))
    assert sorted(seen.tolist()) == list(range(table.num_rows))
    for g, ids in docs.items():
        e = man.groups[str(g)]
        assert e["doc_lo"] <= ids[0] and ids[-1] < e["doc_hi"]


def test_duplicate_turn_rows_raise(tmp_path):
    """Sparse-turn ids are looked up by (conv_id, turn_idx), so two rows
    with the same key cannot both get an id: they are rejected."""
    from bm25_benchmarks_ray.stages.docids import conv_offsets_local, turn_keys

    p = str(tmp_path / "t.parquet")
    pq.write_table(pa.table({
        "conv_id": pa.array(["a", "a", "b"], type=pa.string()),
        "turn_idx": pa.array([2, 2, 0], type=pa.int32()),
    }), p)
    offsets = conv_offsets_local([p])
    assert not offsets_are_dense(offsets)
    with pytest.raises(ValueError, match="duplicate"):
        turn_keys(offsets)
