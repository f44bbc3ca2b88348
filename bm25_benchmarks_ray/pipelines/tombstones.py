"""Index-level document deletes as persisted tombstones.

Lucene's liveDocs model (the design behind `deleteDocuments` in every
Lucene-based engine the reference benchmarks — pyserini/Elasticsearch):
a delete never touches the immutable segment files; it appends the doc
id to a small sidecar, and every query masks tombstoned docs out of
scoring.  Postings of deleted docs physically survive until a segment
merge, and collection statistics (N, df, avgdl) keep counting them
until then — replicated here exactly:

* ``delete_docs`` unions ids into ``<index>/tombstones.parquet``
  atomically (write-tmp + rename, idempotent, crash-safe), then
  re-saves the manifest, whose fresh publish token tells open handles
  (``query.Index.open``, ``BM25Server``) to reload;
* ids must lie in some group's span [doc_lo, doc_hi) (the manifest);
* ``search``/``BM25Server`` load the sidecar and fold it into the
  query-time per-group allowed shards (``query.compose_masks``,
  docfilter.py), cut by the groups' disjoint spans — composing with
  any user-supplied filter by bitwise AND;
* ``compact_index`` carries the sidecar through untouched (doc ids
  are the stable external contract — the docmap join-back — so merges
  must not renumber); reclaiming the postings and the stats is a
  rebuild over the live corpus, exactly like a Lucene full merge of
  an index whose deletes you want gone.

Scale: the sidecar is one sorted int64 column — deletes are a small
fraction of any corpus worth indexing, and the query-time cost is the
same per-group bitmap slice the filter path already pays.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..state.manifest import Manifest

TOMBSTONES_FILE = "tombstones.parquet"


def load_tombstones(index_dir: str) -> np.ndarray | None:
    """Sorted unique deleted doc ids, or None when nothing is deleted."""
    p = os.path.join(index_dir, TOMBSTONES_FILE)
    if not os.path.exists(p):
        return None
    return pq.read_table(p, columns=["doc_id"]).column("doc_id").to_numpy()


def delete_docs(index_dir: str, doc_ids) -> int:
    """Tombstone ``doc_ids`` (numpy array, or a Ray Dataset with a
    ``doc_id`` column — e.g. the output of a distributed predicate or
    dedup pass).  Unions with existing tombstones; returns the total
    deleted count.  Idempotent and atomic."""
    man = Manifest.load(index_dir)
    if man is None or not man.is_complete():
        raise ValueError(f"delete_docs requires a complete index at {index_dir!r}")

    if hasattr(doc_ids, "iter_batches"):  # Ray Dataset
        parts = [
            b.column("doc_id").to_numpy()
            for b in doc_ids.iter_batches(batch_size=None, batch_format="pyarrow")
            if b.num_rows
        ]
        ids = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    else:
        ids = np.asarray(doc_ids)
    ids = np.unique(ids.astype(np.int64))
    inside = np.zeros(ids.size, dtype=bool)
    for e in man.groups.values():
        inside |= (ids >= e["doc_lo"]) & (ids < e["doc_hi"])
    if not inside.all():
        raise ValueError(
            f"doc ids outside the index's id space: {ids[~inside][:8].tolist()}"
        )
    old = load_tombstones(index_dir)
    if old is not None:
        ids = np.union1d(old, ids)
    tmp = os.path.join(index_dir, TOMBSTONES_FILE + ".tmp")
    pq.write_table(pa.table({"doc_id": pa.array(ids, type=pa.int64())}), tmp)
    os.replace(tmp, os.path.join(index_dir, TOMBSTONES_FILE))
    # a fresh publish token: open readers see the delete on their next call
    man.save()
    return int(ids.size)


def live_count(index_dir: str) -> int:
    man = Manifest.load(index_dir)
    if man is None:
        raise ValueError(f"no index at {index_dir!r}")
    tomb = load_tombstones(index_dir)
    return int(man.stats["num_docs"]) - (0 if tomb is None else int(tomb.size))
