"""Positional postings — Lucene's ``.pos`` file, written by the build.

The reference's Lucene path can index positions
(``--storePositions``, /root/reference/benchmark/on_pyserini.py:243-269)
so PhraseQuery resolves adjacency from the index alone.  Here an index
built with ``IndexConfig(positions=True)`` stores them in the pass that
writes its postings, beside each group's segments and physically apart
from them (Lucene's layout choice: bag-of-words scoring never pays
their bytes):

    <index>/segments/group=<g>/_positions/*.parquet   POS_SCHEMA rows

The build's tokenize tasks read each posting's kept-stream positions
off the token stream they already compute
(``stages.tokenize_stage.TokenizeRuns``), and the sorted merge writes
one position row per segment row it writes as a side output
(``stages.segments.make_merge_sorted``), so the one directory rename
that publishes a group publishes its segments, norms and positions
together.  ``append_index`` builds new groups the same way, and
``compact_index`` merges the source groups' position rows in place of
their segment rows.

Row schema (``stages.segments.POS_SCHEMA``): ``doc_ids`` and ``tfs``
are the segment row's own streams (block-reset delta+varint doc ids,
varint tf == positions per posting); ``poss`` holds each posting's
KEPT-stream positions, first absolute within the doc and deltas after —
the renumbered stream every other operator here scores on.  ``d0`` is
the row's first doc id.  Doc lengths are not stored here: phrase
scoring reads them from the group's norms (state/norms.py).

Cost: ~one varint per token occurrence (the classic ~2× postings
growth), paid only by indexes built with positions.  This module is
the read side.
"""

from __future__ import annotations

import os

import numpy as np

from ..functions.codec import varint_decode
from ..stages.segments import POSITIONS_DIR, _blockwise_docs, read_term_rows
from ..state.manifest import Manifest


def has_positions(man: Manifest) -> bool:
    """True iff the index was built with ``IndexConfig(positions=True)``
    (append requires the same config and compaction keeps positions, so
    then every group has them) — a manifest check only."""
    return bool(man.config.get("positions"))


def decode_position_row(
    doc_buf: bytes, cnt_buf: bytes, pos_buf: bytes, block_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(docs, counts, abs_positions_flat) for one POS_SCHEMA row.
    ``abs_positions_flat`` holds each posting's kept-stream positions
    back-to-back (``counts`` delimits)."""
    docs = _blockwise_docs(varint_decode(doc_buf), block_size)
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
    group_dir: str, terms: list[str], block_size: int
) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """term → (docs, counts, abs_positions) for the segment group at
    ``group_dir``.  A term split across merge blocks has one row per
    part, with disjoint doc spans; the parts are concatenated in ``d0``
    order, never in the order the dataset lists its files."""
    t = read_term_rows(os.path.join(group_dir, POSITIONS_DIR), terms,
                       columns=["term", "d0", "doc_ids", "tfs", "poss"])
    if t.num_rows == 0:  # a group without postings, or none of the terms
        return {}
    t = t.sort_by([("term", "ascending"), ("d0", "ascending")])
    out: dict[str, list] = {}
    for term, doc_buf, cnt_buf, pos_buf in zip(
        *(t.column(c).to_pylist() for c in ("term", "doc_ids", "tfs", "poss"))
    ):
        out.setdefault(term, []).append(
            decode_position_row(doc_buf, cnt_buf, pos_buf, block_size)
        )
    return {
        term: tuple(np.concatenate([p[j] for p in parts]) for j in range(3))
        for term, parts in out.items()
    }
