"""Stable doc numbering without a global row sort.

The reference's implicit doc numbering is list order after a
single-process corpus load (/root/reference/benchmark/on_bm25s.py:54-59);
our invariant (BASELINE.json) is `doc_id = rank under ORDER BY
(conv_id, turn_idx)`.  Sorting every turn row is an all-to-all shuffle
of the whole corpus; instead we exploit that the rank decomposes as

    doc_id = base_offset(conv_id) + rank_of_turn_within_conv

where base offsets come from a `groupby(conv_id).count()` (a shuffle of
one tiny row per conv per block after partial pre-aggregation, not of
the corpus) plus a prefix sum over conv_ids in sorted order.

Fast path: when turn_idx is dense 0..n-1 within every conv (true for
transcript logs), rank == turn_idx and assignment is a pure broadcast-
lookup map_batches.  Fallback: a per-conv dense rank on the
hash-boundary sort + whole-partition kernel (windows._hash_sorted).

Scale note (100 TB): the conv->offset map has one entry per
conversation.  Up to O(10^8) convs the `ray.put` broadcast below is
fine (one object-store copy per node, zero-copy reads per task); past
that, switch `assign_doc_ids(..., strategy="join")` which hash-joins
the offsets table instead of broadcasting.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd


def conv_offsets_local(files: list[str]) -> pd.DataFrame:
    """Driver-side fast path for small inputs: read just (conv_id,
    turn_idx) with pyarrow's parallel reader and aggregate in pandas.
    Same result as :func:`conv_offsets`; used when total rows fit
    comfortably on the driver (index_build auto-switches)."""
    import pyarrow.dataset as pads

    t = pads.dataset(files).to_table(columns=["conv_id", "turn_idx"])
    g = (
        t.to_pandas()
        .groupby("conv_id", sort=True)["turn_idx"]
        .agg(["count", "max"])
        .rename(columns={"count": "n_turns", "max": "max_turn"})
        .reset_index()
    )
    g["base"] = np.concatenate(([0], np.cumsum(g["n_turns"].to_numpy())[:-1]))
    return g if offsets_are_dense(g) else _with_turns(g, t)


def conv_offsets(ds: rd.Dataset) -> pd.DataFrame:
    """(conv_id, n_turns, max_turn_idx) -> sorted DataFrame with
    base offsets.  Pre-aggregates inside map_batches so the shuffle moves
    one row per (conv, block), not per turn."""

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select(["conv_id", "turn_idx"]).to_pandas()
        g = df.groupby("conv_id", sort=False)["turn_idx"].agg(["count", "max"])
        return pa.table(
            {
                "conv_id": pa.array(g.index, type=pa.string()),
                "cnt": pa.array(g["count"].to_numpy(), type=pa.int64()),
                "mx": pa.array(g["max"].to_numpy(), type=pa.int64()),
            }
        )

    from ray.data.aggregate import Max, Sum

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("conv_id")
        .aggregate(Sum("cnt", alias_name="n_turns"), Max("mx", alias_name="max_turn"))
    )
    pdf = agg.to_pandas()  # one row per conversation: small relative to corpus
    pdf = pdf.sort_values("conv_id", kind="mergesort").reset_index(drop=True)
    pdf["base"] = np.concatenate(([0], np.cumsum(pdf["n_turns"].to_numpy())[:-1]))
    if offsets_are_dense(pdf):
        return pdf
    pairs = pa.concat_tables(ray.get(
        ds.select_columns(["conv_id", "turn_idx"]).to_arrow_refs()
    ))
    return _with_turns(pdf, pairs)


def offsets_are_dense(offsets: pd.DataFrame) -> bool:
    return bool((offsets["max_turn"].to_numpy() == offsets["n_turns"].to_numpy() - 1).all())


def _with_turns(offsets: pd.DataFrame, pairs: pa.Table) -> pd.DataFrame:
    """Sparse-turn corpora: add each conversation's sorted source
    ``turn_idx`` list as a ``turns`` column, so the join-back maps a
    doc id (base + rank within the conversation) to its source turn.
    Dense corpora (turn_idx == rank) keep the table without it."""
    pairs = pairs.select(["conv_id", "turn_idx"]).to_pandas().sort_values(
        ["conv_id", "turn_idx"], kind="mergesort"
    )
    turns = pairs["turn_idx"].to_numpy().astype(np.int64)
    offsets["turns"] = pd.Series(
        np.split(turns, np.cumsum(offsets["n_turns"].to_numpy())[:-1]),
        index=offsets.index, dtype=object,
    )
    return offsets


# conv count above which the broadcast offsets map stops being cheap
# (one object-store copy per node + a dict probe per row) and the
# hash-join path takes over
JOIN_STRATEGY_CONVS = 100_000_000


def assign_doc_ids(
    ds: rd.Dataset, offsets: pd.DataFrame, strategy: str = "auto"
) -> rd.Dataset:
    """Append int64 `doc_id` to a transcripts Dataset (dense-turn fast
    path: doc_id = base[conv_id] + turn_idx).

    strategy: "broadcast" ships the conv→base map once via ray.put and
    probes it per batch — right up to O(10^8) convs.  "join" hash-joins
    the offsets table instead (both sides distributed) — the 10^12-turn
    path where the conv map itself is too big to broadcast.  "auto"
    picks by conv count."""
    if not offsets_are_dense(offsets):
        return _assign_doc_ids_ranked(ds, offsets)
    if strategy == "auto":
        strategy = "join" if len(offsets) > JOIN_STRATEGY_CONVS else "broadcast"
    if strategy == "join":
        return _assign_doc_ids_join(ds, offsets)
    base_ref = ray.put(dict(zip(offsets["conv_id"], offsets["base"].astype(np.int64))))

    def add_ids(batch: pa.Table) -> pa.Table:
        base = ray.get(base_ref)
        conv = pd.Series(batch.column("conv_id").to_numpy(zero_copy_only=False))
        doc_id = conv.map(base).to_numpy(dtype=np.int64) + batch.column(
            "turn_idx"
        ).to_numpy().astype(np.int64)
        return batch.append_column("doc_id", pa.array(doc_id, type=pa.int64()))

    return ds.map_batches(add_ids, batch_format="pyarrow")


def _assign_doc_ids_join(ds: rd.Dataset, offsets: pd.DataFrame) -> rd.Dataset:
    """Hash-join path: rows ⋈ offsets on conv_id, doc_id = base + turn.
    (At true scale the offsets side arrives as its own Dataset; the
    pandas→Dataset lift here covers the shared call signature.)"""
    import ray.data as _rd

    off_ds = _rd.from_pandas(
        offsets[["conv_id", "base"]].astype({"base": np.int64})
    )
    import ray as _ray

    cpus = (
        int(_ray.cluster_resources().get("CPU", 8)) if _ray.is_initialized() else 8
    )
    joined = ds.join(
        off_ds, join_type="inner", num_partitions=max(2, cpus), on=("conv_id",)
    )

    def add_ids(batch: pa.Table) -> pa.Table:
        doc_id = batch.column("base").to_numpy().astype(np.int64) + batch.column(
            "turn_idx"
        ).to_numpy().astype(np.int64)
        return batch.drop_columns(["base"]).append_column(
            "doc_id", pa.array(doc_id, type=pa.int64())
        )

    return joined.map_batches(add_ids, batch_format="pyarrow")


def _assign_doc_ids_ranked(ds: rd.Dataset, offsets: pd.DataFrame) -> rd.Dataset:
    """Sparse-turn fallback: dense rank within conv, on the repo's
    hash-boundary sort + whole-partition kernel (windows._hash_sorted)
    — no per-group dispatch, no pandas batches.  Each sorted partition
    holds whole conversations; one vectorized pass ranks every conv in
    the partition and adds ``base[conv] + rank``.  Base lookup is a
    sorted-array ``searchsorted`` against the offsets table (broadcast
    once via ``ray.put``), the same shape as the BEIR id map."""
    from ..pipelines.windows import _hash_sorted

    conv_sorted = offsets["conv_id"].to_numpy()  # sorted by conv_offsets
    base_sorted = offsets["base"].to_numpy().astype(np.int64)
    lut_ref = ray.put((conv_sorted, base_sorted))

    def rank_partition(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return tbl.drop_columns(["hkey"]).append_column(
                "doc_id", pa.array([], type=pa.int64())
            )
        conv = tbl.column("conv_id").to_numpy(zero_copy_only=False)
        turn = tbl.column("turn_idx").to_numpy()
        # re-establish (conv, turn) order locally: exact regardless of
        # how the distributed sort tie-broke equal hash keys
        order = np.lexsort((turn, conv))
        conv_s = conv[order]
        n = conv_s.size
        new_conv = np.empty(n, dtype=bool)
        new_conv[0] = True
        new_conv[1:] = conv_s[1:] != conv_s[:-1]
        starts = np.flatnonzero(new_conv)
        rank = np.arange(n, dtype=np.int64) - np.repeat(
            starts, np.diff(np.append(starts, n))
        )
        convs, bases = ray.get(lut_ref)
        pos = np.searchsorted(convs, conv_s[starts])
        base = np.repeat(bases[pos], np.diff(np.append(starts, n)))
        doc_id = base + rank
        out = tbl.take(pa.array(order)).drop_columns(["hkey"])
        return out.append_column("doc_id", pa.array(doc_id, type=pa.int64()))

    return _hash_sorted(ds, "conv_id", ["turn_idx"]).map_batches(
        rank_partition, batch_format="pyarrow", batch_size=None
    )


def docmap_table(ds_with_ids: rd.Dataset) -> rd.Dataset:
    """(doc_id, conv_id, turn_idx) projection for result join-back."""
    return ds_with_ids.select_columns(["doc_id", "conv_id", "turn_idx"])
