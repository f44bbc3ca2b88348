"""Per-group document-length norms — Lucene's ``.nvd`` file.

Every posting in the segment store carries its doc's kept-stream
length (``dls``) so a task can score without any side lookup — but dl
is a PER-DOC property repeated per posting, and BASELINE.md's byte
accounting puts it at ~28% of the raw stream.  The norms file stores
it once per doc instead:

    <index>/norms/group=<g>.npy        uint32[doc_hi - doc_lo]
    <index>/norms/group=<g>.meta.json  source fingerprint (staleness)

``norms[doc - doc_lo]`` is the doc's dl; docs that appear in no
posting list keep 0 (they are never looked up — only decoded postings
ask).  Readers ``np.load(..., mmap_mode="r")``: the array is
page-cache backed and shared by every worker process on the node, so
the per-task cost is the touched pages, not a per-worker copy.

With norms present the query path reads segment rows WITHOUT the
``dls``/``blk_off_dl`` columns (term-pruned parquet read prunes them)
and decode skips the dl varint stream entirely — fewer bytes off
storage, fewer bytes through DRAM, one less varint pass — the
bytes-per-posting lever the round-4 verdict names for query scaling.
The dls stream stays in the segment files for back-compat (serving
actors and old indexes read it as before); this sidecar only changes
what queries READ.

Derivation is a post-build pass over the segment store itself, one
task per (group, segment file).  Each task reads only the ``df``,
``doc_ids`` and ``dls`` columns and decodes the whole file at once
(``stages/segments._decode_segment_block``: one varint pass per
stream, no per-term loop), then scatters ``arr[doc - doc_lo] = dl``.
Every (doc, dl) pair in any posting list is the same value for the
same doc, so the scatter is idempotent.  The
``.meta.json`` fingerprint (group parquet names+sizes+mtimes) detects
compaction/append rewrites; ``build_norms`` rebuilds exactly the
stale or missing groups.
"""

from __future__ import annotations

import json
import os

import numpy as np
import ray.data as rd

from .manifest import Manifest

NORMS_DIR = "norms"


def _group_seg_dir(index_dir: str, g: int) -> str:
    from ..pipelines.index_build import SEGMENTS_DIR

    return os.path.join(index_dir, SEGMENTS_DIR, f"group={g}")


def _fingerprint(seg_dir: str) -> list[list]:
    out = []
    for name in sorted(os.listdir(seg_dir)):
        if not name.endswith(".parquet"):
            continue
        st = os.stat(os.path.join(seg_dir, name))
        out.append([name, st.st_size, int(st.st_mtime_ns)])
    return out


def _norm_paths(index_dir: str, g: int) -> tuple[str, str]:
    root = os.path.join(index_dir, NORMS_DIR)
    return (os.path.join(root, f"group={g}.npy"),
            os.path.join(root, f"group={g}.meta.json"))


def group_norms_fresh(index_dir: str, g: int) -> bool:
    npy, meta = _norm_paths(index_dir, g)
    if not (os.path.exists(npy) and os.path.exists(meta)):
        return False
    with open(meta) as f:
        rec = json.load(f)
    return rec.get("fingerprint") == _fingerprint(_group_seg_dir(index_dir, g))


def has_norms(index_dir: str, man: Manifest | None = None) -> bool:
    """True iff every done group has a FRESH norms file."""
    man = man or Manifest.load(index_dir)
    if man is None or not man.is_complete():
        return False
    return all(group_norms_fresh(index_dir, g) for g in man.done_groups())


def load_group_norms(index_dir: str, g: int) -> tuple[np.ndarray, int]:
    """(mmap uint32 array, doc_lo) for one group — page-cache shared
    across worker processes."""
    npy, meta = _norm_paths(index_dir, g)
    with open(meta) as f:
        base = int(json.load(f)["doc_lo"])
    return np.load(npy, mmap_mode="r"), base


def build_norms(index_dir: str, man: Manifest | None = None) -> int:
    """Derive norms for every missing/stale group (one Ray task per
    (group, segment file), each a single whole-file block decode of the
    doc and dl streams; the driver max-combines the per-file partial
    arrays).  Returns the number of groups (re)built."""
    man = man or Manifest.load(index_dir)
    if man is None or not man.is_complete():
        raise ValueError(f"no complete index at {index_dir}")
    block_size = int(man.config.get("block_size", 128))
    todo = []
    for g in man.done_groups():
        if group_norms_fresh(index_dir, g):
            continue
        e = man.groups[str(g)]
        lo, hi = e.get("doc_lo"), e.get("doc_hi")
        if lo is None or hi is None:
            # no contiguous range recorded (overlap builds): this group
            # can't have a norms file — queries keep reading dls, and
            # has_norms() stays False for the index
            continue
        todo.append({"g": int(g), "lo": int(lo), "hi": int(hi)})
    if not todo:
        return 0
    os.makedirs(os.path.join(index_dir, NORMS_DIR), exist_ok=True)

    # one task per (group, segment file): each file holds a disjoint
    # term range but can reference any doc in the group, so tasks emit
    # PARTIAL arrays (unset docs stay 0) and the driver max-combines —
    # identical values where two files both set a doc, so max is exact.
    # This keeps the pass parallel even for single-group builds (it was
    # ~15% of sf1.0 build wall when derived serially per group).
    items = []
    fps: dict[int, list] = {}
    spans: dict[int, tuple[int, int]] = {}
    for rec in todo:
        g, lo, hi = rec["g"], rec["lo"], rec["hi"]
        seg_dir = _group_seg_dir(index_dir, g)
        fps[g] = _fingerprint(seg_dir)
        spans[g] = (lo, hi)
        for name, _sz, _mt in fps[g]:
            items.append({"g": g, "lo": lo, "hi": hi,
                          "path": os.path.join(seg_dir, name)})

    def derive(batch):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from ..stages.segments import _decode_segment_block

        g_out, buf_out = [], []
        for g, lo, hi, path in zip(batch.column("g").to_pylist(),
                                   batch.column("lo").to_pylist(),
                                   batch.column("hi").to_pylist(),
                                   batch.column("path").to_pylist()):
            arr = np.zeros(hi - lo, dtype=np.uint32)
            t = pq.read_table(path, columns=["df", "doc_ids", "dls"])
            _df, doc, _tf, dl, _tb, _lb = _decode_segment_block(t, block_size)
            arr[doc - lo] = dl
            g_out.append(g)
            buf_out.append(arr.tobytes())
        return pa.table({"g": pa.array(g_out, type=pa.int64()),
                         "buf": pa.array(buf_out, type=pa.binary())})

    import pyarrow as pa

    acc: dict[int, np.ndarray] = {}
    parts_ds = rd.from_items(items).map_batches(
        derive, batch_format="pyarrow", batch_size=1
    )
    for b in parts_ds.iter_batches(batch_size=None, batch_format="pyarrow"):
        for g, buf in zip(b.column("g").to_pylist(),
                          b.column("buf").to_pylist()):
            part = np.frombuffer(buf, dtype=np.uint32)
            cur = acc.get(g)
            if cur is None:
                acc[g] = part.copy()
            else:
                np.maximum(cur, part, out=cur)

    for g, arr in acc.items():
        lo, hi = spans[g]
        npy, meta = _norm_paths(index_dir, g)
        tmp = npy + ".tmp.npy"
        np.save(tmp, arr)
        os.replace(tmp, npy)
        mtmp = meta + ".tmp"
        with open(mtmp, "w") as f:
            json.dump({"doc_lo": lo, "doc_hi": hi,
                       "fingerprint": fps[g]}, f)
        os.replace(mtmp, meta)
    return len(acc)
