"""Query-time document filters as packed doc-id bitmaps.

Filtered retrieval ("top-k among documents WHERE <predicate>") is the
metadata-filter primitive every production search stack layers on BM25
(Lucene's filter clauses, PISA/ES filtered queries).  The engine-side
contract is one packed uint8 bitmap over the index's doc-id space
[0, id_bound) — bit d (little-endian within the byte: byte ``d >> 3``,
bit ``d & 7``) set iff doc d is eligible.  ``id_bound`` is
``query.Index.id_bound``: num_docs, unless a documents index records
ids past it (holes, or ids that start past 0).
``pipelines.query.search(allowed=...)`` publishes it per group
(``BitmapShards`` below), and every scoring task unpacks ONLY its own
doc-range slice (``hi - lo`` bits), so per-task cost is range/8 bytes
of read + one vectorized mask.

Collection statistics (N, df, avgdl) deliberately stay those of the
FULL corpus — the Lucene/ES filtered-query semantics: a filter narrows
the candidate set, it does not re-weight idf.  (Index-level deletes,
which DO eventually leave the stats via compaction, are tombstones.py's
job — built on this same bitmap.)

Scale note: one bitmap over 10^12 docs is 125 GB — fine in a cluster
object store but too big to ship to every node.  ``BitmapShards`` is
the sharded publication: per-group byte slices keyed by the groups'
spans [doc_lo, doc_hi) in the manifest, each ``ray.put`` as its OWN
object, so a scoring task fetches only its group's slice (the object
store moves range/8 bytes to that node, never the corpus-wide array).
Shards are the only mask form the scorers read: ``search`` and
``serve.BM25Server`` compose every filter, tombstone set and boolean
eligibility bitmap into them (``query.compose_masks``), which needs
the spans disjoint (every group records one; only interleaved groups
overlap).  Building shards never needs the corpus-wide array on
the driver either: ``compose_shards`` holds one group's slice at a
time, and ``allowed_shards`` holds at most the slices of the groups its
ids touch — the matched id span's bitmap, ≤ ``id_bound/8`` bytes — with
no shuffle of the packed chunks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd


def bitmap_nbytes(num_docs: int) -> int:
    return (int(num_docs) + 7) >> 3


def bitmap_from_ids(ids: np.ndarray, num_docs: int) -> np.ndarray:
    """Packed bitmap with exactly the given doc ids set."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= num_docs):
        raise ValueError("doc id outside [0, num_docs)")
    bits = np.zeros(bitmap_nbytes(num_docs) << 3, dtype=np.uint8)
    bits[ids] = 1
    return np.packbits(bits, bitorder="little")


def bitmap_slice(bitmap: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Boolean mask for doc range [lo, hi) — unpacks only the covering
    bytes (the per-task read path)."""
    if hi <= lo:
        return np.empty(0, dtype=bool)
    b0, b1 = lo >> 3, (hi + 7) >> 3
    bits = np.unpackbits(bitmap[b0:b1], bitorder="little")
    off = lo - (b0 << 3)
    return bits[off : off + (hi - lo)].view(np.bool_)


def invert_bitmap(bitmap: np.ndarray, num_docs: int) -> np.ndarray:
    """allowed = NOT deleted, with the pad bits past num_docs kept 0."""
    out = np.bitwise_not(bitmap)
    tail = num_docs & 7
    if tail:
        out[-1] &= np.uint8((1 << tail) - 1)
    return out


def popcount(bitmap: np.ndarray) -> int:
    return int(np.unpackbits(bitmap, bitorder="little").sum())


@dataclass
class BitmapShards:
    """Per-group published allowed bitmap.

    ``refs[i]`` is a ``ray.put`` ObjectRef holding the uint8 byte slice
    covering docs [doc_lo[i], doc_hi[i]) — bytes [doc_lo[i]>>3,
    (doc_hi[i]+7)>>3) of the corpus-wide bitmap.  Adjacent groups whose
    boundary is not byte-aligned each carry their own copy of the
    boundary byte; only bits inside a shard's own doc range are ever
    read from it (``bitmap_slice`` trims to the requested bit span), so
    the duplicated bits need not agree.

    The instance itself is tiny (three int64 arrays + refs) and rides
    inside the broadcast query plan; Ray tracks the nested refs, and a
    task's ``ray.get`` of one ref moves only that slice.  ``deleted``
    records which tombstones were cleared from the slices, so composing
    them with the same tombstones again (``compose_shards``) is free.
    """

    doc_lo: np.ndarray   # int64, sorted ascending, disjoint ranges
    doc_hi: np.ndarray
    byte_lo: np.ndarray  # == doc_lo >> 3
    refs: list
    id_bound: int        # the doc-id space [0, id_bound) the shards cut
    # the tombstone ids (the array object) these shards already exclude;
    # None: none were cleared
    deleted: np.ndarray | None = field(default=None, repr=False, compare=False)
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def shard_index(self, lo: int, hi: int) -> int:
        """Index of the single shard whose doc range covers [lo, hi)."""
        i = int(np.searchsorted(self.doc_hi, lo, side="right"))
        if i >= len(self.refs) or lo < self.doc_lo[i] or hi > self.doc_hi[i]:
            raise ValueError(
                f"doc range [{lo}, {hi}) not covered by one bitmap shard"
            )
        return i

    def mask(self, lo: int, hi: int) -> np.ndarray:
        """Boolean eligibility mask for doc range [lo, hi) — fetches
        (and per-instance caches) only the covering group's slice."""
        if hi <= lo:
            return np.empty(0, dtype=bool)
        i = self.shard_index(lo, hi)
        buf = self._cache.get(i)
        if buf is None:
            buf = self._cache[i] = np.asarray(ray.get(self.refs[i]))
        base = int(self.byte_lo[i]) << 3
        return bitmap_slice(buf, lo - base, hi - base)


def shard_byte_span(doc_lo: int, doc_hi: int) -> tuple[int, int]:
    return doc_lo >> 3, (doc_hi + 7) >> 3


def compose_shards(
    ranges: list[tuple[int, int]],
    id_bound: int,
    user: "np.ndarray | BitmapShards | None" = None,
    deleted_ids: np.ndarray | None = None,
) -> BitmapShards:
    """Publish the per-group allowed shards for ``search``.

    One group at a time (driver peak memory = one group's slice):
    start from the user filter's bytes for the group — a slice view of
    a full bitmap, or a fetch of the user's own shard — default
    all-ones; clear ``deleted_ids`` (tombstones) bits; ``ray.put`` it
    before the next group.  User shards over the same ranges that
    already exclude the same ``deleted_ids`` array (``BitmapShards.
    deleted``, e.g. this function's own output) are returned as is.
    Bits outside a group's doc range (boundary-byte padding) are never
    read, so they are left as-is.  A user mask must span the index's
    doc-id space [0, id_bound).
    """
    if isinstance(user, BitmapShards):
        if user.id_bound != id_bound:
            raise ValueError(
                f"allowed shards cover doc ids [0, {user.id_bound}), "
                f"need [0, {id_bound})"
            )
    elif user is not None:
        user = np.ascontiguousarray(user, dtype=np.uint8)
        if user.size != bitmap_nbytes(id_bound):
            raise ValueError(
                f"allowed bitmap is {user.size} bytes, need "
                f"{bitmap_nbytes(id_bound)} for doc ids [0, {id_bound})"
            )
    ranges = sorted(ranges)
    lo = np.asarray([r[0] for r in ranges], dtype=np.int64)
    hi = np.asarray([r[1] for r in ranges], dtype=np.int64)
    if (isinstance(user, BitmapShards) and user.deleted is deleted_ids
            and np.array_equal(user.doc_lo, lo)
            and np.array_equal(user.doc_hi, hi)):
        return user  # already composed with exactly these tombstones
    # sorted once: each group's ids are one searchsorted span
    deleted = (np.sort(np.asarray(deleted_ids, dtype=np.int64))
               if deleted_ids is not None else None)
    refs = []
    for g_lo, g_hi in ranges:
        b0, b1 = shard_byte_span(g_lo, g_hi)
        if user is None:
            buf = np.full(b1 - b0, 0xFF, dtype=np.uint8)
        elif isinstance(user, BitmapShards):
            i = user.shard_index(g_lo, g_hi)
            u0 = int(user.byte_lo[i])
            sl = np.asarray(ray.get(user.refs[i]))
            buf = sl[b0 - u0 : b1 - u0].copy()
        else:
            buf = user[b0:b1].copy()
        if deleted is not None and deleted.size:
            i0, i1 = np.searchsorted(deleted, (g_lo, g_hi))
            d = deleted[i0:i1]
            if d.size:
                np.bitwise_and.at(
                    buf, (d >> 3) - b0,
                    np.bitwise_not(
                        np.uint8(1) << (d & 7).astype(np.uint8)),
                )
        refs.append(ray.put(buf))
    return BitmapShards(lo, hi, lo >> 3, refs, int(id_bound),
                        deleted=deleted_ids)


def allowed_shards(
    ids: rd.Dataset,
    id_bound: int,
    ranges: list[tuple[int, int]],
    id_col: str = "doc_id",
) -> BitmapShards:
    """Distributed predicate → published shards.  Tasks pack their id
    batches into byte chunks (as ``allowed_bitmap``); the driver ORs
    each chunk, in whatever order the chunks arrive, into the slices of
    the groups it overlaps (a chunk may cross group boundaries), then
    ``ray.put``s every group's slice once.  No shuffle runs, and the
    driver holds only the slices of the groups the ids touch: at most
    the matched id span's bitmap, ≤ ``id_bound/8`` bytes.  ``id_bound``:
    the index's ``Index.id_bound``."""
    ranges = sorted(ranges)
    lo_a = np.asarray([r[0] for r in ranges], dtype=np.int64)
    hi_a = np.asarray([r[1] for r in ranges], dtype=np.int64)
    spans = [shard_byte_span(*r) for r in ranges]
    bufs: dict[int, np.ndarray] = {}
    for b in _pack_chunks(ids, id_bound, id_col).iter_batches(
        batch_size=None, batch_format="pyarrow"
    ):
        for c_lo, buf in zip(b.column("byte_lo").to_pylist(),
                             b.column("buf").to_pylist()):
            chunk = np.frombuffer(buf, dtype=np.uint8)
            c_hi = c_lo + chunk.size
            g0 = int(np.searchsorted(hi_a, c_lo << 3, side="right"))
            g1 = int(np.searchsorted(lo_a, c_hi << 3))
            for g in range(g0, g1):
                b0, b1 = spans[g]
                s0, s1 = max(c_lo, b0), min(c_hi, b1)
                if g not in bufs:
                    bufs[g] = np.zeros(b1 - b0, dtype=np.uint8)
                bufs[g][s0 - b0 : s1 - b0] |= chunk[s0 - c_lo : s1 - c_lo]
    refs = []
    for g, (b0, b1) in enumerate(spans):
        # a group no id falls in gets an all-zeros shard
        refs.append(ray.put(bufs.pop(g) if g in bufs
                            else np.zeros(b1 - b0, dtype=np.uint8)))
    return BitmapShards(lo_a, hi_a, lo_a >> 3, refs, int(id_bound))


def _pack_chunks(ids: rd.Dataset, num_docs: int, id_col: str) -> rd.Dataset:
    """Distributed id→packed-byte-chunk stage shared by
    ``allowed_bitmap`` and ``allowed_shards``."""

    def pack(batch: pa.Table) -> pa.Table:
        d = batch.column(id_col).to_numpy().astype(np.int64)
        if d.size == 0:
            return pa.table(
                {"byte_lo": pa.array([], type=pa.int64()),
                 "buf": pa.array([], type=pa.binary())}
            )
        if d.min() < 0 or d.max() >= num_docs:
            raise ValueError("doc id outside [0, num_docs)")
        b_lo = int(d.min()) >> 3
        b_hi = (int(d.max()) >> 3) + 1
        bits = np.zeros((b_hi - b_lo) << 3, dtype=np.uint8)
        bits[d - (b_lo << 3)] = 1
        return pa.table(
            {
                "byte_lo": pa.array([b_lo], type=pa.int64()),
                "buf": pa.array([np.packbits(bits, bitorder="little").tobytes()]),
            }
        )

    return ids.map_batches(pack, batch_format="pyarrow")


def allowed_bitmap(
    ids: rd.Dataset | np.ndarray,
    num_docs: int,
    id_col: str = "doc_id",
) -> np.ndarray:
    """Build the packed bitmap from the doc ids present in ``ids``.

    Pass a Ray ``Dataset`` already narrowed by the caller's predicate
    (``read_parquet(columns=[...])`` + a vectorized ``map_batches``
    filter — predicate evaluation stays distributed and column-pruned);
    this stage only converts ids to bits.  Each task packs its batch
    into one (byte_lo, bytes) chunk spanning the batch's id range, so
    the exchange to the driver carries at most ``num_docs/8`` bytes
    total (ids arrive block-contiguous from a sorted corpus) and the
    driver does a pure bytewise OR."""
    if isinstance(ids, np.ndarray):
        return bitmap_from_ids(ids, num_docs)

    out = np.zeros(bitmap_nbytes(num_docs), dtype=np.uint8)
    for b in _pack_chunks(ids, num_docs, id_col).iter_batches(
        batch_size=None, batch_format="pyarrow"
    ):
        for lo_, buf in zip(b.column("byte_lo").to_pylist(),
                            b.column("buf").to_pylist()):
            chunk = np.frombuffer(buf, dtype=np.uint8)
            out[lo_ : lo_ + chunk.size] |= chunk
    return out
