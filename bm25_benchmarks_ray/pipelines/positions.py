"""Positional postings sidecar — Lucene's ``.pos`` file, Ray-Data-shaped.

The reference's Lucene path can index positions
(``--storePositions``, /root/reference/benchmark/on_pyserini.py:243-269)
so PhraseQuery resolves adjacency from the index alone; this module is
that upgrade for our engine, OPT-IN and physically SEPARATE from the
hot segment store (exactly Lucene's layout choice: positions live in
their own file so bag-of-words scoring never pays their bytes):

    <index>/positions/group=<g>/*.parquet     one row per (term, group)
    <index>/positions/group=<g>/_POS_DONE     per-group completion marker
    <index>/positions/analyzer.json           analyzer fingerprint

Row schema (POS_SCHEMA): ``doc_ids`` is delta+varint (absolute first
value), ``pcounts`` (positions per posting == tf) is plain varint,
``poss`` is per-doc delta+varint over KEPT-stream
positions (first occurrence absolute within the doc, deltas after) —
the same renumbered stream every other operator here scores on, so
``phrase_topk``'s positions path produces bit-identical results to
the re-tokenize fallback.  Doc lengths are not stored here: phrase
scoring reads them from the group's norms (state/norms.py).

Build shape is the index build's in miniature: per manifest group, a
doc-range-pruned corpus read → a task-pool tokenizer emitting one
pre-encoded run per (term, batch) → ``sort(["tid", "d0"])`` →
whole-sorted-partition merge (runs hold disjoint ascending doc spans,
so pcounts/poss byte-splice and only doc gaps re-encode) →
``write_parquet`` into ``group=<g>.tmp``, renamed over the group
directory, then the marker.  Resume skips finished groups; a group
without its marker is rebuilt from scratch.

Cost: ~one varint per token occurrence (the classic ~2× postings
growth), paid only by indexes that opt in via ``build_positions``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import ray.data as rd

from ..config import IndexConfig
from ..functions.codec import (
    varint_decode,
    varint_encode,
    varint_encode_bounds,
    varint_nbytes,
)
from ..state.manifest import Manifest
from .query import Index

POSITIONS_DIR = "positions"
POS_DONE = "_POS_DONE"

POS_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("tid", pa.uint64()),
        ("df", pa.int64()),
        ("doc_ids", pa.binary()),   # delta+varint, absolute first
        ("pcounts", pa.binary()),   # varint, positions per posting (tf)
        ("poss", pa.binary()),      # varint, per-doc delta positions
    ]
)

POS_RUN_SCHEMA = pa.schema(
    [
        ("tid", pa.uint64()),
        ("term", pa.string()),
        ("d0", pa.int64()),
        ("df", pa.int32()),
        ("doc_abs", pa.binary()),   # varint ABSOLUTE doc ids (run-local)
        ("pcounts", pa.binary()),
        ("poss", pa.binary()),
    ]
)


class TokenizePositionRuns:
    """map_batches callable: one pre-encoded positions run per (term,
    batch).  Mirrors stages.tokenize_stage.TokenizeRuns' map-side
    combine, plus the per-occurrence kept-stream position stream."""

    def __init__(self, config: IndexConfig):
        from ..stages.tokenize_stage import TokenizePostings

        self.inner = TokenizePostings(config)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..stages.segments import term_ids
        from ..stages.tokenize_stage import _token_quad

        doc_ids_col = batch.column("doc_id").to_numpy()
        codes_all, uniq, doc_of, _ = _token_quad(
            batch.column("text"), self.inner
        )
        n = codes_all.size
        if n == 0:
            return POS_RUN_SCHEMA.empty_table()
        # kept-stream position of each occurrence: stream is doc-ordered
        doc_change = np.empty(n, dtype=bool)
        doc_change[0] = True
        doc_change[1:] = doc_of[1:] != doc_of[:-1]
        doc_start = np.flatnonzero(doc_change)
        pos_all = np.arange(n, dtype=np.int64) - np.repeat(
            doc_start, np.diff(np.append(doc_start, n))
        )
        tok_doc = doc_ids_col[doc_of]
        # sort occurrences by (term, doc); stable → positions ascending
        # within each (term, doc) run
        order = np.lexsort((tok_doc, codes_all))
        c0 = codes_all[order]
        d0 = tok_doc[order]
        p0 = pos_all[order].astype(np.uint64)
        new_run = np.concatenate(
            ([True], (c0[1:] != c0[:-1]) | (d0[1:] != d0[:-1]))
        )
        run_starts = np.flatnonzero(new_run)
        run_ends = np.append(run_starts[1:], c0.size)
        tf_s = (run_ends - run_starts).astype(np.uint64)
        codes_s = c0[run_starts]
        doc_s = d0[run_starts].astype(np.uint64)
        n_terms = len(uniq)
        # posting-space term bounds and occurrence-space term bounds
        bounds = np.searchsorted(codes_s, np.arange(n_terms + 1))
        obounds = np.searchsorted(c0, np.arange(n_terms + 1))
        # position deltas: absolute at run (== doc) starts
        gp = np.empty(n, dtype=np.uint64)
        np.subtract(p0[1:], p0[:-1], out=gp[1:].view(np.int64),
                    casting="unsafe")
        gp[run_starts] = p0[run_starts]

        def enc_sliced(vals: np.ndarray, bnds: np.ndarray) -> list[bytes]:
            buf = varint_encode(vals)
            ends = np.cumsum(varint_nbytes(vals))
            bb = np.concatenate(([0], ends))[bnds]
            return [buf[bb[i]: bb[i + 1]] for i in range(len(bnds) - 1)]

        doc_bufs = enc_sliced(doc_s, bounds)          # ABSOLUTE ids
        cnt_bufs = enc_sliced(tf_s, bounds)
        pos_bufs = enc_sliced(gp, obounds)
        t_starts = bounds[:-1]
        uniq_arr = np.asarray(uniq, dtype=object)
        return pa.table(
            {
                "tid": pa.array(term_ids(uniq_arr)),
                "term": pa.array(list(uniq_arr), type=pa.string()),
                "d0": pa.array(
                    doc_s[t_starts].astype(np.int64), type=pa.int64()
                ),
                "df": pa.array(np.diff(bounds).astype(np.int32)),
                "doc_abs": pa.array(doc_bufs, type=pa.binary()),
                "pcounts": pa.array(cnt_bufs, type=pa.binary()),
                "poss": pa.array(pos_bufs, type=pa.binary()),
            },
            schema=POS_RUN_SCHEMA,
        )


def _merge_position_runs(tbl: pa.Table) -> pa.Table:
    """Whole-sorted-partition merge: rows arrive sorted (tid, d0) with
    doc-disjoint runs, so each tid's pcounts/poss streams are a
    straight byte splice; doc ids decode (they are absolute in runs),
    concatenate ascending, and re-encode as delta+varint with one
    fused pass for the whole partition."""
    if tbl.num_rows == 0:
        return POS_SCHEMA.empty_table()
    tid = tbl.column("tid").to_numpy()
    df = tbl.column("df").to_numpy().astype(np.int64)
    n = tid.size
    g_start = np.flatnonzero(np.concatenate(([True], tid[1:] != tid[:-1])))
    G = g_start.size
    rows_per_g = np.diff(np.append(g_start, n))
    ppt = np.add.reduceat(df, g_start)

    # one decode pass over every run's absolute doc ids
    doc_col = tbl.column("doc_abs").combine_chunks()
    all_doc_buf = b"".join(doc_col.to_pylist())
    docs = varint_decode(all_doc_buf)
    if docs.size != int(df.sum()):
        raise ValueError("positions merge: doc stream length mismatch")
    # delta re-encode with absolute value at each term start
    t_start = np.concatenate(([0], np.cumsum(ppt)[:-1])).astype(np.int64)
    gaps = np.empty(docs.size, dtype=np.uint64)
    if docs.size:
        np.subtract(docs[1:], docs[:-1], out=gaps[1:].view(np.int64),
                    casting="unsafe")
        gaps[t_start] = docs[t_start]
    dbuf, doff = varint_encode_bounds(gaps)
    t_end = t_start + ppt

    def splice(col_name: str) -> list[bytes]:
        col = tbl.column(col_name).combine_chunks()
        bufs = col.to_pylist()
        return [
            b"".join(bufs[g_start[g]: g_start[g] + rows_per_g[g]])
            for g in range(G)
        ]

    # a term split across sorted partitions keeps one row per
    # partition (multi-part rows, like the segment store); readers
    # concat parts in d0 order
    terms = tbl.column("term").take(pa.array(g_start)).to_pylist()
    return pa.table(
        {
            "term": pa.array(terms, type=pa.string()),
            "tid": pa.array(tid[g_start]),
            "df": pa.array(ppt, type=pa.int64()),
            "doc_ids": pa.array(
                [dbuf[doff[a]: doff[b]] for a, b in zip(t_start, t_end)],
                type=pa.binary(),
            ),
            "pcounts": pa.array(splice("pcounts"), type=pa.binary()),
            "poss": pa.array(splice("poss"), type=pa.binary()),
        },
        schema=POS_SCHEMA,
    )


def positions_dir(index_dir: str) -> str:
    return os.path.join(index_dir, POSITIONS_DIR)


def has_positions(index_dir: str, man: Manifest | None = None) -> bool:
    """True iff every done group has a completed positions store."""
    man = man or Manifest.load(index_dir)
    if man is None or not man.is_complete():
        return False
    root = positions_dir(index_dir)
    return all(
        os.path.exists(os.path.join(root, f"group={g}", POS_DONE))
        for g in man.done_groups()
    )


def build_positions(
    index_dir: str,
    docs_path: str,
    id_col: str = "doc_id",
    text_col: str = "text",
    cfg: IndexConfig | None = None,
) -> str:
    """Build the positions sidecar for a complete index over a corpus
    with explicit doc ids (documents mode).  Analyzer config comes
    from the index manifest so positions and postings always agree.
    Idempotent and resumable per group."""
    index = Index.open(index_dir, cfg)
    cfg = index.cfg
    root = positions_dir(index_dir)
    os.makedirs(root, exist_ok=True)
    meta_p = os.path.join(root, "analyzer.json")
    fp = hashlib.sha256(cfg.fingerprint().encode()).hexdigest()[:16]
    if os.path.exists(meta_p):
        with open(meta_p) as f:
            if json.load(f).get("analyzer") != fp:
                raise ValueError(
                    "existing positions sidecar was built with a "
                    "different analyzer config"
                )
    else:
        tmp = meta_p + ".tmp"
        with open(tmp, "w") as f:
            json.dump({"analyzer": fp}, f)
        os.replace(tmp, meta_p)

    for g in index.gids:
        gdir = os.path.join(root, f"group={g}")
        if os.path.exists(os.path.join(gdir, POS_DONE)):
            continue
        if not index.ranges:
            raise ValueError(
                "positions build requires contiguous group doc ranges"
            )
        lo, hi = index.ranges[g]
        ds = rd.read_parquet(
            docs_path, columns=[id_col, text_col],
            filter=(pc.field(id_col) >= lo) & (pc.field(id_col) < hi),
        )
        if id_col != "doc_id" or text_col != "text":
            ds = ds.rename_columns(
                dict(zip([id_col, text_col], ["doc_id", "text"]))
            )
        runs = ds.map_batches(
            TokenizePositionRuns,
            fn_constructor_args=(cfg,),
            batch_format="pyarrow",
            concurrency=(1, 8),
        )
        merged = runs.sort(["tid", "d0"]).map_batches(
            _merge_position_runs, batch_format="pyarrow", batch_size=None
        )
        # atomic: a rebuild after a lost marker must replace the group's
        # files, never add a second copy of every row beside them
        tmp = gdir + ".tmp"
        if os.path.exists(tmp):
            shutil.rmtree(tmp)
        merged.write_parquet(tmp)
        if os.path.exists(gdir):
            shutil.rmtree(gdir)
        os.replace(tmp, gdir)
        with open(os.path.join(gdir, POS_DONE), "w") as f:
            f.write("ok")
    return root


# ------------------------------------------------------------------ read

def decode_position_row(
    doc_buf: bytes, cnt_buf: bytes, pos_buf: bytes
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(docs, counts, abs_positions_flat) for one POS_SCHEMA row.
    ``abs_positions_flat`` holds each posting's kept-stream positions
    back-to-back (``counts`` delimits)."""
    gaps = varint_decode(doc_buf)
    docs = np.cumsum(gaps.view(np.int64))  # absolute first + deltas
    counts = varint_decode(cnt_buf).astype(np.int64)
    flat = varint_decode(pos_buf).view(np.int64)
    if counts.sum() != flat.size:
        raise ValueError("positions row: count/positions mismatch")
    # per-doc cumsum rebase: first value of each doc segment is absolute
    cs = np.cumsum(flat)
    seg_start = np.concatenate(([0], np.cumsum(counts)[:-1])).astype(np.int64)
    base = np.zeros(counts.size, dtype=np.int64)
    base[1:] = cs[seg_start[1:] - 1]
    pos_abs = cs - np.repeat(base, counts)
    return docs, counts, pos_abs


def positions_for_terms(
    group_dir: str, terms: list[str]
) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """term → (docs, counts, abs_positions) for one group.  A term
    split across sort partitions has one row per part, with disjoint
    doc spans; the parts are concatenated in first-doc order, never in
    the order the dataset lists its files."""
    t = pads.dataset(group_dir).to_table(
        filter=pc.field("term").isin(terms)
    )
    out: dict[str, list] = {}
    for i in range(t.num_rows):
        term = t.column("term")[i].as_py()
        out.setdefault(term, []).append(
            decode_position_row(
                t.column("doc_ids")[i].as_py(),
                t.column("pcounts")[i].as_py(),
                t.column("poss")[i].as_py(),
            )
        )
    for parts in out.values():
        parts.sort(key=lambda p: p[0][0])  # every part holds >= 1 doc
    return {
        term: tuple(
            np.concatenate([p[j] for p in parts]) for j in range(3)
        )
        for term, parts in out.items()
    }
