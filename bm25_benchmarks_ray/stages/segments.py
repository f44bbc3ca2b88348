"""Posting-list segment encoding: sorted, delta+varint-compressed lists
with block-max metadata, built by an integer-keyed sort + vectorized
whole-partition merge.

The wide exchange ships **term ids, not term strings**: the tokenizer
hashes each term to a 64-bit ``tid`` (deterministic SipHash via
``pandas.util.hash_array``) and the shuffle sorts on that integer key —
the same postings-by-id exchange every reference engine uses
(/root/reference/utils/__init__.py:92-96 id-keys its postings after a
vocab pass).  The human-readable string rides along on only the FIRST
run row each tokenizer actor emits for a term (nullable column, mostly
null), so the merge can recover one string per term per group for the
segment/vocab tables without the exchange paying string bytes per run.

Merge is a ``sort(tid)`` + ``map_batches`` over whole sorted
partitions, NOT ``groupby().map_groups``: Ray's range partitioner
already guarantees all rows of a tid land contiguously in one output
block, and merging every term in the block with batched varint
encodes (one encode pass per stream per block) replaces a per-term UDF
dispatch + 1-row table that measured ~2 ms/term.  One output table per
partition also yields sane parquet row groups (map_groups' 1-row
tables wrote one row group PER ROW).

Two-level (hierarchical-merge) variant for extreme in-group skew:
``sort([tid, salt])`` + per-(tid, salt) pre-merge first bounds any
single term's pre-merge work to ``salt_range`` postings before the
final per-tid merge — config-gated, engaged when a group's doc count
dwarfs ``salt_range``.

The segment layout follows the PISA family the reference drives
(/root/reference/benchmark/on_pisa.py:33-51: compressed posting lists +
block-max metadata + impact-based pruning), but stores raw ``tf`` per
posting instead of one method's precomputed impacts; a doc's ``dl``
lives once in its group's norms array (state/norms.py).  Every BM25
variant's impact is ``idf(df) * tf_shape(tf, dl)`` with ``tf_shape``
increasing in tf and decreasing in dl, so the per-block ``(max_tf,
min_dl)`` pair upper-bounds the block impact for *any*
:class:`~bm25_benchmarks_ray.functions.bm25.BM25Params` — one index
serves all five variants (bm25s rebuilds per method,
/root/reference/benchmark/on_bm25s.py:124-128).
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa

from ..functions.codec import (
    u32_encode,
    varint_decode,
    varint_encode,
    varint_encode_with_offsets,
    varint_nbytes,
)

SEGMENT_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("tid", pa.uint64()),      # hash term id (the shuffle key)
        ("df", pa.int64()),        # postings in this row
        ("sum_tf", pa.int64()),    # Σ tf (stats aggregation, no decode pass)
        ("doc_ids", pa.binary()),  # block-reset delta+varint (see below)
        ("tfs", pa.binary()),      # varint
        ("bmax_tf", pa.binary()),  # u32 per block of block_size postings
        ("bmin_dl", pa.binary()),  # u32 per block
        # random-access skip table: per block, the first doc_id (int64)
        # and the byte offset of the block's first value in each varint
        # stream (u32).  Doc gaps reset to absolute at block starts, so
        # any block range decodes independently — this is what makes
        # doc-sliced query tasks and block-max skipping cheap.
        ("blk_doc0", pa.binary()),
        ("blk_off_doc", pa.binary()),
        ("blk_off_tf", pa.binary()),
    ]
)

# What the wide exchange carries per (term, batch): an 8-byte integer
# key, a mostly-null string, the run's first doc id (the secondary sort
# key: runs hold disjoint doc sets, so sorting rows by (tid, d0) makes
# each term's postings arrive globally doc-ordered at the merge — no
# per-posting sort, and tf/dl streams byte-splice without re-encoding),
# a small df and three compressed blobs (vs term string + 2×int64 per
# row before the id-keyed design).  Runs carry each posting's dl only
# for the merge's per-block min dl (``bmin_dl``); segments drop it.
RUN_SCHEMA = pa.schema(
    [
        ("tid", pa.uint64()),
        ("term", pa.string()),     # nullable: set on first sight per actor
        ("d0", pa.int64()),
        ("df", pa.int32()),
        ("doc_ids", pa.binary()),
        ("tfs", pa.binary()),
        ("dls", pa.binary()),
    ]
)
# Under IndexConfig(positions=True) each run also carries its postings'
# kept-stream positions: per posting, tf values, the first absolute and
# the rest deltas (one varint stream per run).
RUN_POS_SCHEMA = RUN_SCHEMA.append(pa.field("poss", pa.binary()))

# A group's positions live in ``<group dir>/_positions/*.parquet`` (the
# leading ``_`` keeps them out of every segment read: ``read_term_rows``,
# pyarrow and Ray Data skip ``_``-prefixed names), one row per segment
# row the merge writes.  ``doc_ids``/``tfs`` are that segment row's own streams (tf ==
# positions per posting), so the rows are self-contained for phrase
# reads and for compaction, which merges them in place of the segments.
POSITIONS_DIR = "_positions"
POS_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("tid", pa.uint64()),
        ("d0", pa.int64()),        # first doc id: orders a term's parts
        ("df", pa.int64()),
        ("doc_ids", pa.binary()),  # block-reset delta+varint (segment coding)
        ("tfs", pa.binary()),      # varint
        ("poss", pa.binary()),     # varint, per posting: first absolute, deltas
    ]
)


def term_ids(terms) -> np.ndarray:
    """Deterministic 64-bit term ids: pandas' SipHash-1-3 with its fixed
    default key — stable across processes, platforms and runs (required:
    driver and every worker must agree).  Collisions: P[any collision
    among n terms] ≈ n²/2⁶⁵ (~3e-11 at 1M terms, ~2.7% at 1B); a
    collision would merge two posting lists, detectable as duplicate
    tids in the vocab table."""
    import pandas as pd

    arr = np.asarray(terms, dtype=object)
    return pd.util.hash_array(arr, categorize=False)


# Rows per Parquet row group in every segment, positions and vocab file
# the index writes.  Those files are sorted by their key (``tid`` for
# segment and position rows, ``term`` for the vocab), so each row
# group's min/max in the file footer brackets a narrow key range: the
# footer is the term dictionary that ``read_term_rows`` looks terms up
# in, Lucene's term-to-file-pointer index without a file of its own.
# Against 256 rows (1 CPU, 16k-turn index, 4-term reads): 512 reads
# 10-20% slower per query but writes ~7% fewer segment bytes and builds
# and compacts faster.
ROW_GROUP_ROWS = 512
# The write options of those files.  Dictionary encoding only for the
# columns whose values repeat across rows (small counts, rare terms' tf
# streams, short rows' skip and bound blobs); ``term``, ``tid``, ``d0``,
# ``doc_ids``, ``blk_doc0`` and ``poss`` are near unique, so a
# dictionary page per row group only adds bytes.  The 16k-turn index's segments:
# 803 KB this way, 837 KB with no dictionary, 845 KB with every column
# dictionary-encoded (847 KB with ``term`` alone); reads measured alike.
PARQUET_WRITE_ARGS = {
    "row_group_size": ROW_GROUP_ROWS,
    "use_dictionary": ["df", "sum_tf", "tfs", "bmax_tf", "bmin_dl",
                       "blk_off_doc", "blk_off_tf"],
}

# Per-process cache of parquet footers, keyed on the file's identity
# like the norms cache (query._NORMS_CACHE): readers outlive index
# rewrites, and append and compaction publish new files.  It holds
# metadata, never an open file, so a compaction's deleted files are not
# kept open.  Each entry also keeps, per key column, the row groups'
# (min, max) arrays and the row groups without statistics.
_FOOTER_CACHE: dict[tuple, tuple] = {}
_FOOTER_CACHE_MAX = 4096


def _footer(path: str) -> tuple:
    """(FileMetaData, {key column: ``_key_bounds``}) of a file."""
    import os

    import pyarrow.parquet as pq

    st = os.stat(path)
    key = (path, st.st_ino, st.st_mtime_ns, st.st_size)
    hit = _FOOTER_CACHE.get(key)
    if hit is None:
        if len(_FOOTER_CACHE) >= _FOOTER_CACHE_MAX:
            _FOOTER_CACHE.clear()
        hit = _FOOTER_CACHE[key] = (pq.read_metadata(path), {})
    return hit


def _key_bounds(footer: tuple, col: str, dtype: np.dtype) -> tuple:
    """Per row group of the file: the (min, max) of column ``col`` as
    ``dtype`` arrays, and whether the row group lacks them (its min and
    max then read as a blank value)."""
    md, bounds = footer
    b = bounds.get(col)
    if b is None:
        j = md.schema.names.index(col)
        stats = [md.row_group(i).column(j).statistics
                 for i in range(md.num_row_groups)]
        blind = np.asarray([s is None or not s.has_min_max for s in stats], dtype=bool)
        blank = "" if dtype == object else dtype.type(0)
        b = bounds[col] = (
            np.asarray([blank if x else s.min for s, x in zip(stats, blind)], dtype),
            np.asarray([blank if x else s.max for s, x in zip(stats, blind)], dtype),
            blind,
        )
    return b


def read_term_rows(
    directory: str, terms, key: str = "tid", columns: list[str] | None = None
) -> pa.Table:
    """The rows of ``directory``'s top-level parquet files whose ``term``
    is one of ``terms`` (the rows a ``term isin(terms)`` scan of the
    directory returns, in no set order).  Entries named ``_*`` or ``.*``
    (``_norms.npy``, ``_positions/``, temporaries) are skipped.

    Each file's footer (``_footer``) says which row groups can hold a
    wanted key: those whose min ≤ key ≤ max for some key, where the key
    is the term's ``tid`` (``key="tid"``, segment and position rows) or
    the term itself (``key="term"``, the vocab).  Only those row groups
    are read, and of their rows only the wanted terms' are kept, so a
    tid collision reads what the scan reads.  A row group without
    statistics is always read.  Any layout reads correctly (an index
    whose files are one row group each reads every row group); files
    sorted by the key in small row groups (``ROW_GROUP_ROWS``) read
    little more than the terms' own rows.  ``columns`` (None: all)
    must hold ``term``."""
    import os

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    terms = sorted(set(terms))
    keys = (np.sort(term_ids(terms)) if key == "tid"
            else np.asarray(terms, dtype=object))
    try:
        names = sorted(
            e.name for e in os.scandir(directory)
            if e.name.endswith(".parquet") and e.name[0] not in "_." and e.is_file()
        )
    except FileNotFoundError:  # a group without postings
        names = []
    parts = []
    for name in names:
        path = os.path.join(directory, name)
        footer = _footer(path)
        mins, maxs, blind = _key_bounds(footer, key, keys.dtype)
        rgs = np.flatnonzero(blind | (np.searchsorted(keys, mins, side="left")
                                      < np.searchsorted(keys, maxs, side="right")))
        if rgs.size:
            parts.append(pq.ParquetFile(path, metadata=footer[0]).read_row_groups(
                rgs.tolist(), columns=columns, use_threads=False))
    if parts:
        t = pa.concat_tables(parts) if len(parts) > 1 else parts[0]
        return t.filter(pc.is_in(t.column("term"), value_set=pa.array(terms, pa.string())))
    if not names:
        return pa.table({c: pa.array([], pa.null()) for c in columns or []})
    empty = _footer(os.path.join(directory, names[0]))[0].schema.to_arrow_schema().empty_table()
    return empty if columns is None else empty.select(columns)


def _block_bounds(
    tf: np.ndarray, dl: np.ndarray, block_size: int
) -> tuple[bytes, bytes]:
    """Per-block (max tf, min dl) over consecutive runs of block_size
    postings — a valid impact upper bound for every variant (see module
    docstring)."""
    n = tf.size
    n_blocks = (n + block_size - 1) // block_size
    pad = n_blocks * block_size - n
    tf_p = np.pad(tf.astype(np.uint32), (0, pad), constant_values=0)
    dl_p = np.pad(dl.astype(np.uint32), (0, pad), constant_values=np.uint32(2**32 - 1))
    bmax = tf_p.reshape(n_blocks, block_size).max(axis=1)
    bmin = dl_p.reshape(n_blocks, block_size).min(axis=1)
    return u32_encode(bmax), u32_encode(bmin)


def encode_postings(
    term: str,
    doc_ids: np.ndarray,
    tfs: np.ndarray,
    dls: np.ndarray,
    block_size: int,
) -> dict:
    """One final segment row from (already doc-sorted) posting arrays;
    ``dls`` (each posting's doc length) only sets the per-block min dl.

    doc_ids use *block-reset* delta coding: within a block, values are
    gaps; the first value of every block is absolute.  A whole-row
    decode is a blockwise cumsum; a range decode starts at any block."""
    n = doc_ids.size
    doc_ids = np.ascontiguousarray(doc_ids, dtype=np.int64)
    starts = np.arange(0, n, block_size)
    gaps = np.empty(n, dtype=np.uint64)
    if n:
        np.subtract(
            doc_ids[1:], doc_ids[:-1], out=gaps[1:].view(np.int64), casting="unsafe"
        )
        gaps[starts] = doc_ids[starts].astype(np.uint64)
    doc_buf, doc_off = varint_encode_with_offsets(gaps, block_size)
    tf_buf, tf_off = varint_encode_with_offsets(tfs.astype(np.uint64), block_size)
    bmax, bmin = _block_bounds(tfs, dls, block_size)
    return {
        "term": term,
        "df": int(n),
        "sum_tf": int(tfs.sum()),
        "doc_ids": doc_buf,
        "tfs": tf_buf,
        "bmax_tf": bmax,
        "bmin_dl": bmin,
        "blk_doc0": doc_ids[starts].tobytes(),
        "blk_off_doc": u32_encode(doc_off),
        "blk_off_tf": u32_encode(tf_off),
    }


def _blockwise_docs(gaps: np.ndarray, block_size: int) -> np.ndarray:
    """Reassemble absolute doc_ids from block-reset gaps (vectorized:
    pad to full blocks, 2-D cumsum, trim)."""
    n = gaps.size
    if n == 0:
        return np.empty(0, dtype=np.int64)
    nb = -(-n // block_size)
    m = np.zeros(nb * block_size, dtype=np.int64)
    m[:n] = gaps.astype(np.int64)
    return m.reshape(nb, block_size).cumsum(axis=1).reshape(-1)[:n]


_EMPTY2 = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))


def decode_segment(
    row: dict, block_size: int, lo: int | None = None, hi: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(doc_ids, tfs) for a segment row, optionally restricted to doc
    range [lo, hi): only the covering blocks are decoded (skip-table
    byte offsets), so a doc-sliced query task pays for its share of the
    posting list, not the whole list.  Doc lengths come from the
    group's norms array (state/norms.py)."""
    doc0 = np.frombuffer(row["blk_doc0"], dtype=np.int64)
    nb = doc0.size
    if nb == 0:
        return _EMPTY2
    if lo is None:
        b0, b1 = 0, nb
    else:
        b0 = max(int(np.searchsorted(doc0, lo, side="right")) - 1, 0)
        b1 = int(np.searchsorted(doc0, hi, side="left"))
        if b0 >= b1:
            return _EMPTY2

    def _slice(buf: bytes, off_key: str) -> bytes:
        off = np.frombuffer(row[off_key], dtype=np.uint32)
        end = int(off[b1]) if b1 < nb else len(buf)
        return buf[int(off[b0]) : end]

    gaps = varint_decode(_slice(row["doc_ids"], "blk_off_doc"))
    doc = _blockwise_docs(gaps, block_size)
    # zero-copy int64 reinterpret of varint_decode's uint64 (values are
    # tiny): an astype here was a pure extra copy on the query hot
    # path, while keeping int64 preserves numpy's fast int64→float64
    # SIMD conversion inside tf_shape (uint64→float64 is the slow loop)
    tf = varint_decode(_slice(row["tfs"], "blk_off_tf")).view(np.int64)
    if lo is not None:
        a, b = np.searchsorted(doc, [lo, hi])
        doc, tf = doc[a:b], tf[a:b]
    return doc, tf


def decode_selected_blocks(
    row: dict, block_size: int, blocks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(doc_ids, tfs) for a sorted-unique array of block indices —
    ONE varint decode per stream no matter how scattered the blocks.

    Works because coding is block-reset: every block's first doc value
    is absolute, so concatenated block payloads decode independently
    (all selected blocks are full except, possibly, the row's final
    block, which can only appear last in the selection)."""
    doc0 = np.frombuffer(row["blk_doc0"], dtype=np.int64)
    nb = doc0.size
    if nb == 0 or blocks.size == 0:
        return _EMPTY2

    # selected blocks are often consecutive (candidates cluster):
    # coalesce adjacent block ids into runs once, shared by both
    # streams, then gather each stream's run byte-ranges in ONE
    # fancy-index pass (no Python per-block slice loop)
    run_start = np.concatenate(([True], blocks[1:] != blocks[:-1] + 1))
    r0 = blocks[run_start]                                    # first block of run
    r1 = blocks[np.concatenate((run_start[1:], [True]))] + 1  # one past last

    def gather(buf: bytes, off_key: str) -> np.ndarray:
        off = np.frombuffer(row[off_key], dtype=np.uint32)
        b = np.frombuffer(buf, dtype=np.uint8)
        starts = off[r0].astype(np.int64)
        ends = np.where(r1 < nb, off[np.minimum(r1, nb - 1)], len(b)).astype(
            np.int64
        )
        lens = ends - starts
        if lens.size == 1:
            return b[starts[0]:ends[0]]
        total = int(lens.sum())
        first = starts - np.concatenate(([0], np.cumsum(lens)[:-1]))
        idx = np.repeat(first, lens) + np.arange(total, dtype=np.int64)
        return b[idx]

    gd = gather(row["doc_ids"], "blk_off_doc")
    gt = gather(row["tfs"], "blk_off_tf")
    if gd.size + gt.size >= 8192:
        # large selection: decode per stream so a uniformly-1-byte
        # stream (doc gaps, tf≈1) keeps varint_decode's all-one-byte
        # fast path — concatenated with a multi-byte stream, every
        # value pays the general gather loop (measured 1.5-2.9x slower
        # from 16KB up; crossover ~8KB)
        doc = _blockwise_docs(varint_decode(gd), block_size)
        return doc, varint_decode(gt).view(np.int64)
    # small selection: ONE varint decode for both streams — they carry
    # the same value count (one per selected posting), so the
    # concatenated decode splits into exact halves; candidate decodes
    # this size are per-call-overhead-bound, and this removes a call
    vals = varint_decode(np.concatenate((gd, gt)))
    p = vals.size // 2
    return _blockwise_docs(vals[:p], block_size), vals[p:].view(np.int64)


def bulk_decode_rows(
    rows: list[dict], block_size: int, lo: int | None = None, hi: int | None = None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Decode MANY segment rows' (doc, tf) with ONE varint pass per
    stream — the query-side analogue of the merge path's block decode.
    Per-row ``decode_segment`` costs ~0.15 ms of fixed numpy-call
    overhead; a 500-query task touches thousands of small terms, so the
    per-call overhead dominated pruned-query profiles (measured ~0.8 s
    of a 3.7 s task).  Returns per-row (doc, tf) aligned with
    ``rows``, each restricted to [lo, hi) like decode_segment."""
    n = len(rows)
    empty = _EMPTY2
    out: list = [empty] * n
    if n == 0:
        return out
    # per-row covering-block windows and byte ranges (cheap bookkeeping
    # ops per row; the expensive decode is fused below)
    d_parts: list[np.ndarray] = []
    t_parts: list[np.ndarray] = []
    live: list[int] = []
    b0s: list[int] = []
    for i, row in enumerate(rows):
        doc0 = np.frombuffer(row["blk_doc0"], dtype=np.int64)
        nb = doc0.size
        if nb == 0:
            continue
        if lo is None:
            b0, b1 = 0, nb
        else:
            b0 = max(int(np.searchsorted(doc0, lo, side="right")) - 1, 0)
            b1 = int(np.searchsorted(doc0, hi, side="left"))
            if b0 >= b1:
                continue
        for parts, buf_key, off_key in (
            (d_parts, "doc_ids", "blk_off_doc"),
            (t_parts, "tfs", "blk_off_tf"),
        ):
            off = np.frombuffer(row[off_key], dtype=np.uint32)
            buf = np.frombuffer(row[buf_key], dtype=np.uint8)
            end = int(off[b1]) if b1 < nb else buf.size
            parts.append(buf[int(off[b0]) : end])
        live.append(i)
        b0s.append(b0)
    if not live:
        return out
    m = len(live)
    dbytes = np.concatenate(d_parts) if m > 1 else d_parts[0]
    # value counts per row from the doc stream's terminator bytes (the
    # tf stream carries the same one-value-per-posting counts)
    byte_ends = np.cumsum([p.size for p in d_parts])
    vcnt_cum = np.cumsum((dbytes & 0x80) == 0)
    row_val_end = vcnt_cum[byte_ends - 1]
    row_val_start = np.concatenate(([0], row_val_end[:-1]))
    lens = row_val_end - row_val_start

    gaps = varint_decode(dbytes)
    cs = np.cumsum(gaps.astype(np.int64))
    # block resets: every row start and every block_size-th value within
    # a row starts an absolute-coded block
    nblk = -(-lens // block_size)
    nblk_total = int(nblk.sum())
    blk_of = np.repeat(np.arange(m), nblk)
    blk_idx_in_row = np.arange(nblk_total) - np.repeat(
        np.concatenate(([0], np.cumsum(nblk)[:-1])), nblk
    )
    reset_pos = row_val_start[blk_of] + blk_idx_in_row * block_size
    seg_lens = np.diff(np.append(reset_pos, gaps.size))
    base = np.repeat(
        cs[reset_pos] - gaps[reset_pos].astype(np.int64), seg_lens
    )
    doc_all = cs - base

    tf_all = varint_decode(
        np.concatenate(t_parts) if m > 1 else t_parts[0]
    ).view(np.int64)

    for j, i in enumerate(live):
        a, b = int(row_val_start[j]), int(row_val_end[j])
        doc, tf = doc_all[a:b], tf_all[a:b]
        if lo is not None:
            s, e = np.searchsorted(doc, [lo, hi])
            doc, tf = doc[s:e], tf[s:e]
        out[i] = (doc, tf)
    return out


def segment_rows_by_term(seg: pa.Table) -> dict[str, list[dict]]:
    """{term: [row-dict, ...]} for query-side consumers, with binary
    payloads as zero-copy memoryviews over the Arrow buffers instead of
    ``to_pylist()``'s per-row ``bytes`` copies (hot-term posting blobs
    are MBs each; the copy was pure memory traffic per scoring task).
    All decode paths consume them via ``np.frombuffer`` / slicing, both
    memoryview-safe.

    A term normally has ONE row per group, but a sampled composite-key
    sort boundary (or a deliberate hot-term split) can break one term's
    runs across two sorted blocks, yielding multiple self-contained
    segment rows with disjoint doc ranges.  Dropping all but one row
    silently loses postings — every consumer must score ALL parts.
    Parts are returned sorted by first doc so concatenating their
    decodes stays doc-ascending; each carries a ``_part`` index so
    per-term decode caches can tell them apart."""
    out: dict[str, list[dict]] = {}
    if seg.num_rows == 0:
        return out
    cols = {}
    for name in seg.column_names:
        arr = seg.column(name)
        cols[name] = arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr
    terms = cols["term"].to_pylist()
    binary = {n for n, a in cols.items() if pa.types.is_binary(a.type)}
    plain = [n for n in cols if n not in binary and n != "term"]
    for i, t in enumerate(terms):
        row: dict = {"term": t}
        for name in plain:
            row[name] = cols[name][i].as_py()
        for name in binary:
            row[name] = memoryview(cols[name][i].as_buffer())
        out.setdefault(t, []).append(row)
    for parts in out.values():
        if len(parts) > 1:
            parts.sort(
                key=lambda r: (
                    int(np.frombuffer(r["blk_doc0"], dtype=np.int64)[0])
                    if len(r["blk_doc0"])
                    else -1
                )
            )
        for i, r in enumerate(parts):
            r["_part"] = i
    return out


def binary_join_zero_copy(col) -> tuple[memoryview, np.ndarray]:
    """Concatenate a binary column's row values WITHOUT materializing
    per-row Python bytes objects: an Arrow BinaryArray stores its row
    values contiguously in the data buffer, so the join is one buffer
    slice.  Returns (memoryview of the joined bytes, int64 per-row
    start offsets rebased to zero, num_rows+1 entries).  Slices of the
    returned memoryview are zero-copy and accepted by
    ``pa.array(..., type=pa.binary())``."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return memoryview(b""), np.zeros(1, dtype=np.int64)
    raw_off = np.frombuffer(col.buffers()[1], dtype=np.int32)
    offs = raw_off[col.offset : col.offset + n + 1].astype(np.int64)
    data_buf = col.buffers()[2]
    if data_buf is None:
        return memoryview(b""), np.zeros(n + 1, dtype=np.int64)
    view = memoryview(data_buf)[offs[0] : offs[-1]]
    return view, offs - offs[0]


def _decode_run_block(
    tbl: pa.Table,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, memoryview, memoryview]:
    """Decode EVERY run row in a block with one varint pass per stream:
    (df int64[], doc, tf, dl, joined_tf_bytes, joined_dl_bytes) in row
    order.  Absolute doc ids come from a segmented cumsum (each run's
    first gap is absolute, so docs = csum - repeat(csum_before_run)).
    The joined tf/dl buffers are zero-copy memoryviews over the Arrow
    data buffers (binary_join_zero_copy — no per-row bytes objects),
    returned so the ordered merge path can re-slice them without
    re-encoding (our LEB128 is canonical, so encode(decode(buf)) ==
    buf)."""
    df = tbl.column("df").to_numpy().astype(np.int64)
    dview, _ = binary_join_zero_copy(tbl.column("doc_ids"))
    gaps = varint_decode(np.frombuffer(dview, dtype=np.uint8))
    csum = np.cumsum(gaps.astype(np.int64))
    starts = np.concatenate(([0], np.cumsum(df)[:-1]))
    base = csum[starts] - gaps[starts].astype(np.int64)
    doc = csum - np.repeat(base, df)
    tbuf, _ = binary_join_zero_copy(tbl.column("tfs"))
    lbuf, _ = binary_join_zero_copy(tbl.column("dls"))
    tf = varint_decode(np.frombuffer(tbuf, dtype=np.uint8)).astype(np.int64)
    dl = varint_decode(np.frombuffer(lbuf, dtype=np.uint8)).astype(np.int64)
    return df, doc, tf, dl, tbuf, lbuf


def _decode_segment_block(
    tbl: pa.Table, block_size: int, norms: str, doc_lo: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, memoryview]:
    """Segment-row twin of :func:`_decode_run_block`: EVERY row's
    postings with one varint pass per stream, returned the same way.
    Doc gaps restart absolute at every row start and at every
    ``block_size``-th posting within a row (block-reset coding, see
    :func:`encode_postings`), so absolute ids are one segmented cumsum —
    the arithmetic of :func:`bulk_decode_rows`.  Each posting's dl is
    looked up in the norms array at path ``norms`` (base id
    ``doc_lo``)."""
    df = tbl.column("df").to_numpy().astype(np.int64)
    dview, _ = binary_join_zero_copy(tbl.column("doc_ids"))
    gaps = varint_decode(np.frombuffer(dview, dtype=np.uint8)).view(np.int64)
    pos_in_row = np.arange(gaps.size, dtype=np.int64) - np.repeat(
        np.cumsum(df) - df, df
    )
    reset = np.flatnonzero(pos_in_row % block_size == 0)
    csum = np.cumsum(gaps)
    base = csum[reset] - gaps[reset]
    doc = csum - np.repeat(base, np.diff(np.append(reset, gaps.size)))

    tbuf, _ = binary_join_zero_copy(tbl.column("tfs"))
    tf = varint_decode(np.frombuffer(tbuf, dtype=np.uint8)).view(np.int64)
    dl = np.load(norms, mmap_mode="r")[doc - doc_lo].astype(np.int64)
    return df, doc, tf, dl, tbuf


def _runs_ordered(tid_like: np.ndarray, df: np.ndarray, doc: np.ndarray) -> bool:
    """True when every group's runs arrive doc-disjoint and ascending —
    guaranteed when rows are sorted by (tid, d0) and each tokenize batch
    owned a contiguous doc range (the normal case); false under
    arbitrary external doc_id layouts, where the merge falls back to a
    posting-level lexsort."""
    if tid_like.size <= 1:
        return True
    ends = np.cumsum(df)
    run_first = doc[ends - df]
    run_last = doc[ends - 1]
    same = tid_like[1:] == tid_like[:-1]
    return bool(np.all(run_first[1:][same] > run_last[:-1][same]))


def _enc_offsets(vals: np.ndarray) -> np.ndarray:
    """Byte offset of each value boundary in the varint stream."""
    return np.concatenate(([0], np.cumsum(varint_nbytes(vals))))


def _first_strings(
    term_col: pa.ChunkedArray | pa.Array, grp_of_row: np.ndarray, G: int, tids: np.ndarray
) -> list[str]:
    """One string per tid group: the first non-null ``term`` among the
    group's rows.  Every group has one in a normal build (each tokenizer
    actor emits the string the first time it sees a term, and actor
    state is fresh per group pipeline); the ``#tid:`` placeholder can
    only appear under partial lineage replay after worker loss and keeps
    the build total rather than crashing."""
    if isinstance(term_col, pa.ChunkedArray):
        term_col = term_col.combine_chunks()
    valid = np.flatnonzero(term_col.is_valid().to_numpy(zero_copy_only=False))
    first = np.full(G, -1, dtype=np.int64)
    first[grp_of_row[valid[::-1]]] = valid[::-1]
    have = first >= 0
    out: list[str | None] = [None] * G
    if have.any():
        taken = term_col.take(pa.array(first[have])).to_pylist()
        for i, s in zip(np.flatnonzero(have), taken):
            out[i] = s
    for i in np.flatnonzero(~have):
        out[i] = f"#tid:{int(tids[i]):016x}"
    return out


def _merged_poss(
    col, g_start_row: np.ndarray, tf: np.ndarray, order: np.ndarray | None,
    t_start: np.ndarray,
) -> pa.Array:
    """One position stream per group of rows (``g_start_row``), in the
    merged posting order.  Each posting's positions are self-contained
    (first absolute, then deltas), so rows that arrive in posting order
    (``order`` None) splice their bytes; otherwise the postings are
    regrouped by ``order`` (``tf`` values each, in input order) and the
    stream re-encoded, cut at the groups' first postings ``t_start``."""
    from ..functions.codec import varint_encode_bounds

    view, offs = binary_join_zero_copy(col)
    if order is None:
        b = offs[np.append(g_start_row, offs.size - 1)]
    else:
        vals = varint_decode(np.frombuffer(view, dtype=np.uint8))
        cnt = tf[order]
        before = np.cumsum(cnt) - cnt
        occ = np.repeat((np.cumsum(tf) - tf)[order] - before, cnt)
        view, voff = varint_encode_bounds(vals[occ + np.arange(occ.size)])
        b = voff[np.append(before[t_start], occ.size)]
    return pa.array([view[b[i]:b[i + 1]] for i in range(b.size - 1)],
                    type=pa.binary())


def _write_positions(positions_dir: str, tbl: pa.Table) -> None:
    """One merge block's position rows as an atomic part file, named by
    the block's first (tid, d0), so a retried task replaces its own part
    instead of adding a copy."""
    import os
    import uuid

    import pyarrow.parquet as pq

    os.makedirs(positions_dir, exist_ok=True)
    name = f"{int(tbl['tid'][0].as_py()):016x}-{int(tbl['d0'][0].as_py())}.parquet"
    tmp = os.path.join(positions_dir, f"_{uuid.uuid4().hex}.tmp")
    pq.write_table(tbl, tmp, **PARQUET_WRITE_ARGS)
    os.replace(tmp, os.path.join(positions_dir, name))


def make_merge_sorted(
    block_size: int = 128, decode=_decode_run_block,
    positions_dir: str | None = None,
):
    """map_batches fn over a ``sort("tid")`` output block: merges ALL
    term groups in the partition into final segment rows with batched
    varint encodes — one encode pass per stream for the whole block,
    per-term rows carved out by byte-offset slicing (the same
    prefix-sum trick the tokenizer's map-side combine uses).

    ``decode`` turns the input block into ``(df, doc, tf, dl, tbuf,
    ...)``: :func:`_decode_run_block` for tokenizer runs (the build),
    :func:`_decode_segment_block` for segment or position rows
    (compaction).  dl only feeds the per-block min dl; segments store no
    dl stream.  With ``positions_dir``, the input rows carry ``poss``
    and the block's position rows (POS_SCHEMA) are written there as a
    side output; the returned segment rows are the same either way."""

    def merge_sorted_block(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return SEGMENT_SCHEMA.empty_table()
        tid = tbl.column("tid").to_numpy()
        df, doc, tf, dl, in_tbuf = decode(tbl)[:5]
        n = tid.size
        g_start_row = np.flatnonzero(np.concatenate(([True], tid[1:] != tid[:-1])))
        G = g_start_row.size
        rows_per_g = np.diff(np.concatenate((g_start_row, [n])))
        grp_of_row = np.repeat(np.arange(G, dtype=np.int64), rows_per_g)
        ppt = np.add.reduceat(df, g_start_row)        # postings per term
        ordered = _runs_ordered(tid, df, doc)
        if ordered:
            doc_s, tf_s, dl_s = doc, tf, dl
        else:
            grp_of_post = np.repeat(grp_of_row, df)
            order = np.lexsort((doc, grp_of_post))
            doc_s, tf_s, dl_s = doc[order], tf[order], dl[order]
        P = doc_s.size
        t_start = np.concatenate(([0], np.cumsum(ppt)[:-1]))
        pos_in_term = np.arange(P, dtype=np.int64) - np.repeat(t_start, ppt)
        is_reset = (pos_in_term % block_size) == 0
        gaps = np.empty(P, dtype=np.uint64)
        np.subtract(
            doc_s[1:], doc_s[:-1], out=gaps[1:].view(np.int64), casting="unsafe"
        )
        gaps[is_reset] = doc_s[is_reset].astype(np.uint64)

        # doc gaps change at run/block boundaries → always re-encoded;
        # tf values are order-preserved on the fast path, so their
        # stream is the input bytes re-sliced (no encode).  Fused
        # encode+bounds: one varint_nbytes pass per stream instead of
        # two (it was the merge profile's top line)
        from ..functions.codec import varint_encode_bounds

        dbuf, doff = varint_encode_bounds(gaps)
        if ordered:
            tbuf, toff = in_tbuf, _enc_offsets(tf_s.astype(np.uint64))
        else:
            tbuf, toff = varint_encode_bounds(tf_s.astype(np.uint64))

        bs_idx = np.flatnonzero(is_reset)             # global block starts
        grp_sorted = np.repeat(np.arange(G, dtype=np.int64), ppt)
        blocks_per_t = np.bincount(grp_sorted[bs_idx], minlength=G).astype(
            np.int64
        )
        b_start = np.concatenate(([0], np.cumsum(blocks_per_t)[:-1]))
        bmax = np.maximum.reduceat(tf_s, bs_idx).astype(np.uint32)
        bmin = np.minimum.reduceat(dl_s, bs_idx).astype(np.uint32)
        blk_doc0 = doc_s[bs_idx]
        off_doc = (doff[bs_idx] - np.repeat(doff[t_start], blocks_per_t)).astype(np.uint32)
        off_tf = (toff[bs_idx] - np.repeat(toff[t_start], blocks_per_t)).astype(np.uint32)
        sum_tf = np.add.reduceat(tf_s, t_start).astype(np.int64)

        t_end = t_start + ppt
        b_end = b_start + blocks_per_t
        terms = _first_strings(tbl.column("term"), grp_of_row, G, tid[g_start_row])
        seg = pa.table(
            {
                "term": pa.array(terms, type=pa.string()),
                "tid": pa.array(tid[g_start_row]),
                "df": pa.array(ppt),
                "sum_tf": pa.array(sum_tf),
                "doc_ids": pa.array(
                    [dbuf[doff[a]:doff[b]] for a, b in zip(t_start, t_end)],
                    type=pa.binary(),
                ),
                "tfs": pa.array(
                    [tbuf[toff[a]:toff[b]] for a, b in zip(t_start, t_end)],
                    type=pa.binary(),
                ),
                "bmax_tf": pa.array(
                    [bmax[a:b].tobytes() for a, b in zip(b_start, b_end)],
                    type=pa.binary(),
                ),
                "bmin_dl": pa.array(
                    [bmin[a:b].tobytes() for a, b in zip(b_start, b_end)],
                    type=pa.binary(),
                ),
                "blk_doc0": pa.array(
                    [blk_doc0[a:b].tobytes() for a, b in zip(b_start, b_end)],
                    type=pa.binary(),
                ),
                "blk_off_doc": pa.array(
                    [off_doc[a:b].tobytes() for a, b in zip(b_start, b_end)],
                    type=pa.binary(),
                ),
                "blk_off_tf": pa.array(
                    [off_tf[a:b].tobytes() for a, b in zip(b_start, b_end)],
                    type=pa.binary(),
                ),
            },
            schema=SEGMENT_SCHEMA,
        )
        if positions_dir is not None:
            _write_positions(positions_dir, pa.table(
                {
                    "term": seg["term"], "tid": seg["tid"],
                    "d0": pa.array(doc_s[t_start], type=pa.int64()),
                    "df": seg["df"], "doc_ids": seg["doc_ids"], "tfs": seg["tfs"],
                    "poss": _merged_poss(tbl.column("poss"), g_start_row, tf,
                                         None if ordered else order, t_start),
                },
                schema=POS_SCHEMA,
            ))
        return seg

    return merge_sorted_block


def make_merge_partial(salt_range: int):
    """map_batches fn over a ``sort(["tid", "d0"])`` output block: the
    hierarchical pre-merge.  Coalesces each (tid, salt) group's many
    batch runs into ONE run row (bounding any term's pre-merge work to
    ``salt_range`` postings) before the final per-tid merge — the
    explicit skew level for extreme group/salt ratios.  salt = d0 //
    salt_range is monotone in d0, so (tid, salt) groups are contiguous
    in the (tid, d0)-sorted block without salt being a sort key."""

    def merge_partial(tbl: pa.Table) -> pa.Table:
        positions = "poss" in tbl.column_names
        schema = RUN_POS_SCHEMA if positions else RUN_SCHEMA
        if tbl.num_rows == 0:
            return schema.empty_table()
        tid = tbl.column("tid").to_numpy()
        salt = tbl.column("d0").to_numpy() // salt_range
        df, doc, tf, dl, in_tbuf, in_lbuf = _decode_run_block(tbl)
        n = tid.size
        g_start_row = np.flatnonzero(
            np.concatenate(([True], (tid[1:] != tid[:-1]) | (salt[1:] != salt[:-1])))
        )
        G = g_start_row.size
        rows_per_g = np.diff(np.concatenate((g_start_row, [n])))
        grp_of_row = np.repeat(np.arange(G, dtype=np.int64), rows_per_g)
        ppt = np.add.reduceat(df, g_start_row)
        ordered = _runs_ordered(grp_of_row, df, doc)
        if ordered:
            doc_s, tf_s, dl_s = doc, tf, dl
        else:
            grp_of_post = np.repeat(grp_of_row, df)
            order = np.lexsort((doc, grp_of_post))
            doc_s, tf_s, dl_s = doc[order], tf[order], dl[order]
        P = doc_s.size
        t_start = np.concatenate(([0], np.cumsum(ppt)[:-1]))
        is_first = np.zeros(P, dtype=bool)
        is_first[t_start] = True
        gaps = np.empty(P, dtype=np.uint64)
        np.subtract(
            doc_s[1:], doc_s[:-1], out=gaps[1:].view(np.int64), casting="unsafe"
        )
        gaps[is_first] = doc_s[is_first].astype(np.uint64)

        dbuf = varint_encode(gaps)
        doff = _enc_offsets(gaps)
        if ordered:
            tbuf, toff = in_tbuf, _enc_offsets(tf_s.astype(np.uint64))
            lbuf, loff = in_lbuf, _enc_offsets(dl_s.astype(np.uint64))
        else:
            tbuf = varint_encode(tf_s.astype(np.uint64))
            toff = _enc_offsets(tf_s.astype(np.uint64))
            lbuf = varint_encode(dl_s.astype(np.uint64))
            loff = _enc_offsets(dl_s.astype(np.uint64))
        t_end = t_start + ppt

        term_col = tbl.column("term")
        if isinstance(term_col, pa.ChunkedArray):
            term_col = term_col.combine_chunks()
        valid = np.flatnonzero(term_col.is_valid().to_numpy(zero_copy_only=False))
        first = np.full(G, -1, dtype=np.int64)
        first[grp_of_row[valid[::-1]]] = valid[::-1]
        if valid.size:
            terms = term_col.take(pa.array(np.where(first >= 0, first, 0)))
            # groups with no string keep null (another salt's row carries it)
            terms = pa.compute.if_else(
                pa.array(first >= 0), terms, pa.scalar(None, type=pa.string())
            )
        else:
            terms = pa.array([None] * G, type=pa.string())
        poss = {}
        if positions:
            poss["poss"] = _merged_poss(tbl.column("poss"), g_start_row, tf,
                                        None if ordered else order, t_start)
        return pa.table(
            {
                "tid": pa.array(tid[g_start_row]),
                "term": terms,
                "d0": pa.array(doc_s[t_start], type=pa.int64()),
                "df": pa.array(ppt.astype(np.int32)),
                "doc_ids": pa.array(
                    [dbuf[doff[a]:doff[b]] for a, b in zip(t_start, t_end)],
                    type=pa.binary(),
                ),
                "tfs": pa.array(
                    [tbuf[toff[a]:toff[b]] for a, b in zip(t_start, t_end)],
                    type=pa.binary(),
                ),
                "dls": pa.array(
                    [lbuf[loff[a]:loff[b]] for a, b in zip(t_start, t_end)],
                    type=pa.binary(),
                ),
                **poss,
            },
            schema=schema,
        )

    return merge_partial


def make_compact_merge(
    block_size: int, norms: str, doc_lo: int, positions_dir: str | None = None
):
    """Whole-partition merge kernel for COMPACTION: fold each term's
    SEGMENT_SCHEMA rows (one per source group) into one row.  It is the
    build's :func:`make_merge_sorted` fed by :func:`_decode_segment_block`:
    one varint decode and one encode pass per stream for the whole
    partition, no per-term loop and no single-part special case (LEB128
    is canonical, so a lone part re-encodes to the same bytes).  Doc
    gaps are always re-blocked, since every part ends in a short block;
    the tf stream byte-splices, and the per-block min dl reads the
    merged group's norms array (``norms``, base id ``doc_lo``).
    Input must arrive sorted by (tid, d0) with tid-only partition
    boundaries; source groups that interleave doc ranges take the
    kernel's lexsort fallback.  An index with positions feeds the
    sources' POS_SCHEMA rows instead (they carry the segment streams);
    the merged position rows go to ``positions_dir``."""
    merge = make_merge_sorted(
        block_size,
        functools.partial(_decode_segment_block, block_size=block_size,
                          norms=norms, doc_lo=doc_lo),
        positions_dir,
    )

    # own name so the Ray Data operator reads MapBatches(compact_block),
    # apart from the build's MapBatches(merge_sorted_block)
    def compact_block(tbl: pa.Table) -> pa.Table:
        return merge(tbl)

    return compact_block
