"""Per-group document lengths — Lucene's ``.nvd`` file, written by the
build — and the group's doc-id span.

BM25 needs one ``dl`` per document (the kept-stream token count).  The
index stores it exactly once, one array per group, inside the group's
segment directory:

    <index>/segments/group=<g>/_norms.npy    uint32[doc_hi - doc_lo]

``norms[doc - doc_lo]`` is the doc's dl.  The array spans the group's
ids ``[doc_lo, doc_hi)`` — lowest id to highest id + 1 — and the
group's manifest entry records that span: it is the one record of
which ids a group holds, read by the query scatter, the masks, the
tombstones and the append overlap check.  A group is *exact* when its
span holds no other ids (``n_docs == doc_hi - doc_lo``); ids in a
wider span that are not documents of the group (holes, the other
parity of an interleaved compaction) hold 0 and are never looked up.
The leading ``_`` keeps the file out of parquet dataset discovery
(pyarrow and Ray Data skip ``_``-prefixed names), so it sits beside the
segment files and is published with them by the one directory rename
that publishes the group.

Writing costs no pass of its own.  The build's tokenize tasks
(``stages.tokenize_stage.TokenizeRuns``) already count each batch's
doc lengths; each writes its batch's (doc_id, dl) pairs as one part
file under ``<tmp group dir>/_norms_parts`` (tmp + rename, so a part is
whole or absent; a retried task rewrites the same pairs, and the
scatter is idempotent).  When the group's segment write has finished,
:func:`build_norms` scatters the parts into ``_norms.npy`` on the
driver, before the tmp group directory is renamed into place; a doc id
the group's input holds twice is rejected there.  Compaction decodes
nothing: it places each source group's array at its offset in the
merged span (``np.maximum`` where interleaved spans overlap — a doc has
its dl in one source and 0 in the others).

Readers ``np.load(..., mmap_mode="r")``: the array is page-cache backed
and shared by every worker process on the node, so the per-task cost is
the touched pages, not a per-worker copy.
"""

from __future__ import annotations

import glob
import os
import shutil
import uuid

import numpy as np

from .manifest import Manifest

NORMS_FILE = "_norms.npy"
PARTS_DIR = "_norms_parts"

# widest id range one group's array may span (uint32 per id: 8 GiB)
MAX_SPAN = 2**31


def write_norms_part(parts_dir: str, doc_ids: np.ndarray, dls: np.ndarray) -> None:
    """One tokenize batch's (doc_id, dl) pairs as an atomic part file."""
    os.makedirs(parts_dir, exist_ok=True)
    path = os.path.join(parts_dir, f"{uuid.uuid4().hex}.npy")
    with open(path + ".tmp", "wb") as f:
        np.save(f, np.stack([np.asarray(doc_ids, dtype=np.int64),
                             np.asarray(dls, dtype=np.int64)]))
    os.replace(path + ".tmp", path)


def has_norms(index_dir: str, man: Manifest) -> bool:
    """True iff every done group's manifest entry records its span —
    a manifest check only, no file access."""
    return all("doc_lo" in man.groups[str(g)] for g in man.done_groups())


def load_group_norms(seg_dir: str) -> np.ndarray:
    """The group's norms array, memory-mapped (page-cache shared across
    worker processes)."""
    return np.load(os.path.join(seg_dir, NORMS_FILE), mmap_mode="r")


def _span(lo: int, hi: int) -> int:
    if hi - lo > MAX_SPAN:
        raise ValueError(
            f"group doc ids span [{lo}, {hi}): wider than {MAX_SPAN} ids, "
            "too wide for one norms array"
        )
    return hi - lo


def build_norms(
    index_dir: str, man: Manifest, seg_dir: str, entry: dict,
    sources: list[int] | None = None,
) -> int:
    """Write ``seg_dir/_norms.npy`` for one unpublished group directory
    and set ``entry["doc_lo"], entry["doc_hi"]`` (the group's manifest
    entry being assembled) to the span the array covers.  A new group
    (build or append) scatters the tokenize pass's parts from
    ``seg_dir/_norms_parts`` and removes them; its ``entry["n_docs"]``
    input rows must be as many distinct ids, else ``ValueError`` names
    the repeated ones.  A compacted group (``sources``: the folded
    group ids) places each source group's array at its offset.
    Returns the number of groups written (1)."""
    if sources is None:
        parts = [np.load(p) for p in
                 sorted(glob.glob(os.path.join(seg_dir, PARTS_DIR, "*.npy")))]
        doc = np.concatenate([p[0] for p in parts]) if parts else np.empty(0, np.int64)
        dl = np.concatenate([p[1] for p in parts]) if parts else np.empty(0, np.int64)
        lo = int(doc.min()) if doc.size else 0
        arr = np.zeros(_span(lo, int(doc.max()) + 1 if doc.size else 0), np.uint32)
        arr[doc - lo] = dl
        # a retried tokenize task repeats its pairs, so count distinct
        # ids against the input rows, not the pairs
        seen = np.zeros(arr.size, bool)
        seen[doc - lo] = True
        distinct = int(np.count_nonzero(seen))
        if distinct != entry["n_docs"]:
            dup = np.flatnonzero(np.bincount(doc - lo) > 1)[:8] + lo
            raise ValueError(
                f"duplicate doc ids in one group's input, e.g. {dup.tolist()}: "
                f"{entry['n_docs']} rows hold {distinct} distinct ids"
            )
        shutil.rmtree(os.path.join(seg_dir, PARTS_DIR), ignore_errors=True)
    else:
        from ..pipelines.index_build import SEGMENTS_DIR

        placed = [
            (int(man.groups[str(g)]["doc_lo"]),
             load_group_norms(os.path.join(index_dir, SEGMENTS_DIR, f"group={g}")))
            for g in sources
        ]
        placed = [(a, s) for a, s in placed if s.size]
        lo = min((a for a, _ in placed), default=0)
        arr = np.zeros(_span(lo, max((a + s.size for a, s in placed), default=lo)),
                       np.uint32)
        for a, s in placed:
            view = arr[a - lo: a - lo + s.size]
            np.maximum(view, s, out=view)
    np.save(os.path.join(seg_dir, NORMS_FILE), arr)
    entry["doc_lo"], entry["doc_hi"] = lo, lo + arr.size
    return 1
