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
lookup map_batches.  Sparse-turn corpora: the offsets carry every
conversation's sorted turn list, and assignment is a broadcast
searchsorted of each row's (conv, turn) key in them — exact however
the rows of a conversation are split across files or index groups.

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
        return _assign_doc_ids_sparse(ds, offsets)
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


def turn_keys(offsets: pd.DataFrame) -> tuple[np.ndarray, np.ndarray, int]:
    """Sparse-turn doc-id lookup from the offsets' per-conversation
    sorted ``turns`` lists: (sorted conv ids, one ``conv * m + turn``
    key per doc, m).  Laid end to end the lists are in doc-id order,
    so a turn's doc id — ``base[conv] +`` its rank in its conversation
    — is its key's position (:func:`sparse_doc_ids`)."""
    if "turns" not in offsets:
        raise ValueError(
            "sparse-turn offsets lack per-conversation turn lists; "
            "rebuild the index with fresh=True"
        )
    m = int(offsets["max_turn"].max()) + 1
    key = np.repeat(
        np.arange(len(offsets), dtype=np.int64), offsets["n_turns"].to_numpy()
    ) * m + np.concatenate(offsets["turns"].to_list()).astype(np.int64)
    if key.size > 1 and not (key[1:] > key[:-1]).all():
        raise ValueError("duplicate (conv_id, turn_idx) rows")
    return offsets["conv_id"].to_numpy(), key, m


def sparse_doc_ids(
    keys: tuple[np.ndarray, np.ndarray, int], conv_ids: np.ndarray, turns: np.ndarray
) -> np.ndarray:
    """Doc ids of (conv_id, turn_idx) rows under :func:`turn_keys` —
    exact whichever rows of a conversation a batch or group holds."""
    convs, key, m = keys
    conv = np.searchsorted(convs, conv_ids)
    return np.searchsorted(key, conv * m + turns.astype(np.int64))


def _assign_doc_ids_sparse(ds: rd.Dataset, offsets: pd.DataFrame) -> rd.Dataset:
    """Sparse-turn path: the offsets table already holds every
    conversation's sorted turn list, so the lookup keys are built once,
    broadcast via ``ray.put``, and each batch looks its doc ids up — no
    sort, and a conversation split across input files or index groups
    keeps one numbering."""
    keys_ref = ray.put(turn_keys(offsets))

    def add_ids(batch: pa.Table) -> pa.Table:
        doc_id = sparse_doc_ids(
            ray.get(keys_ref),
            batch.column("conv_id").to_numpy(zero_copy_only=False),
            batch.column("turn_idx").to_numpy(),
        )
        return batch.append_column("doc_id", pa.array(doc_id, type=pa.int64()))

    return ds.map_batches(add_ids, batch_format="pyarrow")


def docmap_table(ds_with_ids: rd.Dataset) -> rd.Dataset:
    """(doc_id, conv_id, turn_idx) projection for result join-back."""
    return ds_with_ids.select_columns(["doc_id", "conv_id", "turn_idx"])
