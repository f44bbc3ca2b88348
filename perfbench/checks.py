"""Result checks: every measured output is verified before it counts."""

from __future__ import annotations

import hashlib
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


class VerifyError(Exception):
    """An operation returned a wrong result."""


def as_table(res) -> pa.Table:
    """search() returns a Dataset over one Arrow table; served and boolean
    results are pandas / Arrow already."""
    if isinstance(res, pa.Table):
        return res
    if hasattr(res, "to_arrow_refs"):
        import ray

        parts = ray.get(res.to_arrow_refs())
        return pa.concat_tables(parts) if parts else pa.table({})
    return pa.Table.from_pandas(res, preserve_index=False)


def _by_query(tbl: pa.Table) -> pa.Table:
    return tbl.take(pc.sort_indices(
        tbl, sort_keys=[("qid", "ascending"), ("rank", "ascending")]))


def check_topk(tbl: pa.Table, qids: list[str], k: int | None) -> None:
    """Every query has exactly k rows (or at least one when ``k`` is
    None), ranks run 1..n, scores never increase."""
    got = tbl.column("qid").to_pylist()
    counts = Counter(got)
    if set(counts) != set(qids):
        raise VerifyError(f"queries answered {len(counts)} of {len(qids)}")
    if k is not None and any(c != k for c in counts.values()):
        raise VerifyError(f"row counts {sorted(set(counts.values()))} != {k}")
    t = _by_query(tbl)
    q = np.array(t.column("qid").to_pylist(), dtype=object)
    rank = t.column("rank").to_numpy()
    score = t.column("score").to_numpy()
    start = np.concatenate(([True], q[1:] != q[:-1]))
    pos = np.arange(q.size) - np.maximum.accumulate(np.where(start, np.arange(q.size), 0))
    if not np.array_equal(rank, pos + 1):
        raise VerifyError("ranks do not run 1..n per query")
    rises = (np.diff(score) > 1e-9 * np.maximum(1.0, np.abs(score[1:]))) & ~start[1:]
    if rises.any():
        raise VerifyError("scores increase with rank")


def ranking(tbl: pa.Table) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """qid -> (doc ids, scores) in rank order."""
    out = {}
    t = _by_query(tbl)
    qid = t.column("qid").to_pylist()
    doc = t.column("doc_id").to_numpy()
    score = t.column("score").to_numpy()
    bounds = [0] + [i for i in range(1, len(qid)) if qid[i] != qid[i - 1]] + [len(qid)]
    for a, b in zip(bounds, bounds[1:]):
        out[qid[a]] = (doc[a:b], score[a:b])
    return out


def same_ranking(a: pa.Table, b: pa.Table, prefix: int | None = None,
                 what: str = "results") -> None:
    """Rank-identical: same doc at every rank and scores equal to 1e-9
    relative (docs may swap only inside a run of tied scores)."""
    ra, rb = ranking(a), ranking(b)
    if set(ra) != set(rb):
        raise VerifyError(f"{what}: different query sets")
    for q, (da, sa) in ra.items():
        db, sb = rb[q]
        if prefix is not None:
            da, sa, db, sb = da[:prefix], sa[:prefix], db[:prefix], sb[:prefix]
        if da.size != db.size or not np.allclose(sa, sb, rtol=1e-9, atol=1e-12):
            raise VerifyError(f"{what}: scores differ for {q}")
        diff = da != db
        if diff.any():
            # allowed only among equal scores
            for i in np.flatnonzero(diff):
                tied = np.isclose(sa, sa[i], rtol=1e-9, atol=1e-12)
                if set(da[tied]) != set(db[tied]):
                    raise VerifyError(f"{what}: docs differ for {q} at rank {i + 1}")


def digest(tbl: pa.Table) -> str:
    """Short hash of the (qid, doc_id, rank) rows, for the run's digest."""
    t = _by_query(tbl)
    h = hashlib.sha1()
    h.update("\n".join(t.column("qid").to_pylist()).encode())
    h.update(t.column("doc_id").to_numpy().astype(np.int64).tobytes())
    h.update(t.column("rank").to_numpy().astype(np.int64).tobytes())
    return h.hexdigest()[:16]
