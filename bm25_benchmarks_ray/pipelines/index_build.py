"""Distributed inverted-index build: the engine's flagship pipeline.

Reference lifecycle being re-expressed (SURVEY.md §3.1, steps 2-7 of
/root/reference/benchmark/on_bm25s.py:41-128): corpus load → flatten →
tokenize → index.  Here each step is a streaming Ray Data stage:

    read_parquet(text cols only)                      # prune at the read
      → [transcripts] assign doc_id (broadcast conv offsets)
      → map_batches(TokenizeRuns instance, task pool)  # map-side combine:
                                                      #   one compressed run per (term, batch)
      → (read sized to 3×CPU blocks — no repartition barrier)
      → [extreme skew] groupby(term, salt) pre-merge  # salted hierarchical level
      → groupby(term) → merge runs → segment rows     # the wide shuffle
      → write_parquet(segments/group=K)               # resumable partition
        + _norms.npy from the tokenize pass's doc lengths (state/norms.py)
        + [positions=True] _positions/ rows, a side output of the merge

The build is partitioned into *groups* (contiguous runs of input files →
disjoint doc sets).  Groups are the checkpoint/resume unit (manifest
entry per group with lineage + metrics, state/manifest.py) and the
query-time scatter unit (every doc's postings live entirely in its
group's partition, so a query task scoring one group computes exact
partial scores — no cross-group accumulation needed).

Skew handling, in order of engagement: (1) the map-side combine bounds
mapper output and cuts shuffle rows ~batch_size×; (2) groups cap any
term's per-merge postings at the group's doc count (~4M); (3) 3×CPU
merge partitions keep one hot term-range from straggling a merge wave;
(4) for extreme salt_range/group ratios the salted (term, salt)
pre-merge splits a single term's merge across doc ranges before the
final concat (the hierarchical-merge level the north rule names —
config-gated, exercised in tests via small salt_range).

Scale notes (100 TB): each group is an independent sub-pipeline that
saturates the cluster; its shuffle moves only that group's compressed
runs.  The conv offsets table (one row per conversation) and the query
structures are the only broadcast state.  Nothing materializes the
corpus: stats come from parquet row-count metadata + per-segment sums.
"""

from __future__ import annotations

import glob
import os
import shutil
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import ray.data as rd
from ray.data.aggregate import Sum

from ..compat import prime_fsspec_http
from ..config import IndexConfig
from ..stages.docids import assign_doc_ids, conv_offsets, conv_offsets_local
from ..stages.segments import (
    PARQUET_WRITE_ARGS,
    POSITIONS_DIR,
    make_merge_partial,
    make_merge_sorted,
)
from ..stages.tokenize_stage import TokenizeRuns
from ..state.manifest import FormatVersionError, Manifest
from ..state.norms import PARTS_DIR

OFFSETS_FILE = "offsets.parquet"
SEGMENTS_DIR = "segments"
VOCAB_DIR = "vocab"


# docs per build group; the resume/checkpoint granularity. ~4M docs of
# transcript turns ≈ a few GB of input per group.
TARGET_GROUP_DOCS = 4_000_000

# below this many input rows, tiny metadata stages (conv offsets, vocab)
# run driver-side with pyarrow/pandas instead of paying a Ray job's fixed
# cost; above it, the distributed paths take over (the 100 TB path).
DRIVER_SIDE_ROWS = 20_000_000


def _input_files(source: str | list[str]) -> list[str]:
    if isinstance(source, (list, tuple)):
        return sorted(source)
    if os.path.isdir(source):
        return sorted(glob.glob(os.path.join(source, "*.parquet")))
    return [source]


def _file_rows(files: list[str]) -> list[int]:
    return [pq.ParquetFile(f).metadata.num_rows for f in files]


def _plan_groups(
    files: list[str], rows: list[int], n_groups: int | None, overlap: int = 1
) -> list[list[int]]:
    """Split file indices into contiguous groups of ~TARGET_GROUP_DOCS.

    When auto-sizing, the count is rounded to a multiple of the build
    overlap: with e.g. 3 groups at overlap=2 the last group runs ALONE
    on a half-width tokenizer pool for a third of the build (measured
    35 s of a 102 s sf8 build at 16 CPUs).  Rounding down is preferred
    while groups stay within ~1.5x the target size; otherwise round up.
    """
    total = sum(rows)
    if n_groups is None:
        n_groups = max(1, min(256, -(-total // TARGET_GROUP_DOCS)))
        if overlap > 1 and n_groups > 1 and n_groups % overlap:
            down = (n_groups // overlap) * overlap
            if down >= 1 and total / down <= 1.5 * TARGET_GROUP_DOCS:
                n_groups = down
            else:
                n_groups += overlap - (n_groups % overlap)
    n_groups = min(n_groups, len(files))
    groups: list[list[int]] = [[] for _ in range(n_groups)]
    target = total / n_groups
    acc, g = 0, 0
    for i, r in enumerate(rows):
        if g < n_groups - 1 and acc >= target * (g + 1):
            g += 1
        groups[g].append(i)
        acc += r
    return [grp for grp in groups if grp]


def _file_ids(files: list[str], rows: list[int]) -> list[str]:
    """Per-file lineage identity "basename:rows:footerhash" — basename
    alone collides across directories (every hive layout ships a
    part-0.parquet), and equal-sized parts defeat (name, rows) too, so
    the id folds in a hash of the parquet footer (column stats make it
    content-derived; ~8 KB read per file, cheaper than the row-count
    metadata open).  A byte-identical re-add from any path keeps the
    same id and is correctly refused as already indexed."""
    import hashlib

    out = []
    for f, r in zip(files, rows):
        size = os.path.getsize(f)
        with open(f, "rb") as fh:
            fh.seek(max(0, size - 8192))
            tail = fh.read()
        h = hashlib.sha256(f"{size}:".encode() + tail).hexdigest()[:12]
        out.append(f"{os.path.basename(f)}:{r}:{h}")
    return out


def _inventory_hash(files: list[str], rows: list[int]) -> str:
    """Identity of the input file set: names + row counts.  Part of the
    resume validation — a complete index over different inputs must not
    be silently returned."""
    import hashlib

    payload = ";".join(f"{os.path.basename(f)}:{r}" for f, r in zip(files, rows))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _shuffle_partitions(cfg: IndexConfig) -> int:
    """Shuffle width: 3× CPUs — enough partitions that one heavy
    term-range (hot terms cost ~ postings, not rows) can't straggle the
    merge wave.  This is applied at the READ (override_num_blocks), not
    via a repartition op: an explicit Repartition is an all-to-all
    barrier that measured 2× the whole build's wall at sf8."""
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    return cfg.shuffle_partitions or 3 * cpus


def _tid_boundaries(width: int) -> list[int]:
    """Equally-spaced partition boundaries over the uint64 tid space.

    tids are SipHash values (stages/segments.py:term_ids) — uniform on
    [0, 2^64) — so fixed boundaries balance the merge wave without
    Ray's sampling pass, AND, because boundaries partition by the
    primary sort key only, no tid ever straddles two sorted blocks
    (sampled composite-key boundaries could split one term's runs
    mid-list, which the query side must then stitch back together —
    see segment_rows_by_term)."""
    return [(i << 64) // width for i in range(1, width)]


def _merge_width(cfg: IndexConfig, g_rows: int | None, overlap: int = 1) -> int:
    """Sorted-merge partition count: ~4 waves per CPU share so a
    postings-heavy term range cannot straggle the whole merge (mean
    merge task ~0.9 s, worst hot-range task ~5.6 s at sf1.0 when the
    width was tied to the tokenizer's 64 output blocks)."""
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    w = 4 * max(1, cpus // max(1, overlap))
    if g_rows is not None:
        # small builds: don't pay 100+ merge tasks for a few thousand docs
        w = min(w, max(1, g_rows // 2000))
    return max(1, w)


def _build_group_segments(
    ds: rd.Dataset, cfg: IndexConfig, out_dir: str, two_level: bool,
    overlap: int = 1, g_rows: int | None = None,
) -> str:
    """One group's pre-combined runs → merged segment rows → parquet in
    ``out_dir + ".tmp"``, returned unpublished (``_publish_group``
    renames it into place with its norms).  The tokenizer emits one
    compressed run per (term, batch) — the map-side combine — so the
    sort(tid) shuffle moves ~batch_size× fewer rows than raw postings,
    keyed by int64 term ids (strings ride only first-sight rows;
    stages/segments.py).

    Merge is ``sort("tid")`` + whole-partition ``map_batches`` rather
    than ``groupby().map_groups``: the range partitioner already
    co-locates each tid contiguously in one sorted block, and the
    batched-encode block merge replaces ~2 ms/term of per-group UDF +
    1-row-table overhead (which also wrote one parquet row group PER
    TERM).  two_level inserts the salted (tid, salt) pre-merge for
    extreme skew.  Under ``cfg.positions`` the runs carry positions and
    the merge writes the group's position rows into the tmp dir's
    ``_positions/`` beside the segments."""
    # TASK pool, not actors: the tokenizer's cross-batch state (Porter2
    # LRU, first-sight term-string set) lives at worker-PROCESS level,
    # so plain tasks keep the same economics while skipping the actor
    # pool's ramp — ~6 s of 30-process spawn+import per build, measured
    # 8.1-8.7 s → 2.0-3.6 s stage wall at sf1.0.  The callable instance
    # pickles per task; its nonce scopes the first-sight set to this
    # group pipeline (fresh-actor semantics preserved).  Each task also
    # writes its batch's doc lengths into the tmp dir (state/norms.py).
    tmp = out_dir + ".tmp"
    if os.path.exists(tmp):
        shutil.rmtree(tmp)
    runs = ds.map_batches(
        TokenizeRuns(cfg, os.path.join(tmp, PARTS_DIR)),
        batch_format="pyarrow",
        batch_size=cfg.tokenize_batch_size,
    )
    bounds = _tid_boundaries(_merge_width(cfg, g_rows, overlap)) or None
    if two_level:
        runs = runs.sort(["tid", "d0"], boundaries=bounds).map_batches(
            make_merge_partial(cfg.salt_range), batch_format="pyarrow",
            batch_size=None,
        )
    pos_dir = os.path.join(tmp, POSITIONS_DIR) if cfg.positions else None
    segments = runs.sort(["tid", "d0"], boundaries=bounds).map_batches(
        make_merge_sorted(cfg.block_size, positions_dir=pos_dir),
        batch_format="pyarrow", batch_size=None,
    )
    segments.write_parquet(tmp, **PARQUET_WRITE_ARGS)
    return tmp


def _publish_group(
    index_dir: str, man: Manifest, gid: int, tmp: str, entry: dict
) -> None:
    """Rename a sealed tmp group dir (``build_norms`` has written its
    norms and set its span in ``entry``) into place — segments, norms
    and positions publish together — and record the group in the
    manifest."""
    out_dir = os.path.join(index_dir, SEGMENTS_DIR, f"group={gid}")
    if os.path.exists(out_dir):
        shutil.rmtree(out_dir)
    os.replace(tmp, out_dir)
    man.mark_group(gid, **entry, **_group_metrics(out_dir))


def _group_metrics(group_dir: str) -> dict:
    t = pads.dataset(group_dir).to_table(columns=["df", "sum_tf"])
    return {
        "n_terms": t.num_rows,
        "n_postings": int(pa.compute.sum(t.column("df")).as_py() or 0),
        "sum_tf": int(pa.compute.sum(t.column("sum_tf")).as_py() or 0),
    }


def build_index(
    source: str | list[str],
    index_dir: str,
    cfg: IndexConfig | None = None,
    *,
    mode: str = "transcripts",   # "transcripts" | "documents"
    n_groups: int | None = None,
    fresh: bool = False,
) -> Manifest:
    """Build (or resume) the inverted index at ``index_dir``.

    mode="transcripts": input has (conv_id, turn_idx, text); doc_id is
    assigned as the rank under ORDER BY (conv_id, turn_idx) — the
    per-row invariant from BASELINE.json.
    mode="documents": input already carries (doc_id, text).
    """
    cfg = cfg or IndexConfig()
    files = _input_files(source)
    if not files:
        raise ValueError(f"no parquet files at {source!r}")
    rows = _file_rows(files)

    inventory = _inventory_hash(files, rows)
    try:
        man = None if fresh else Manifest.load(index_dir)
    except FormatVersionError:
        man = None  # another format version: rebuild
    if man is not None and man.fingerprint != cfg.fingerprint():
        man = None  # config changed: rebuild
    if man is not None and man.inventory and man.inventory != inventory:
        man = None  # input files changed: a "complete" index would be stale
    if man is None:
        if os.path.exists(index_dir):
            shutil.rmtree(index_dir)
        man = Manifest(
            index_dir, config=cfg.to_dict(), fingerprint=cfg.fingerprint(),
            inventory=inventory,
        )
    if man.is_complete():
        return man

    groups = _plan_groups(files, rows, n_groups, overlap=cfg.build_overlap)
    man.n_groups = len(groups)
    man.inventory = inventory
    # crash-resume with a changed file set: drop done groups whose
    # recorded lineage no longer matches the new plan
    for gid, file_idx in enumerate(groups):
        entry = man.groups.get(str(gid))
        if entry is None or entry.get("status") != "done":
            continue
        planned = [os.path.basename(files[i]) for i in file_idx]
        if entry.get("input_files") != planned or entry.get("n_docs") != sum(
            rows[i] for i in file_idx
        ):
            del man.groups[str(gid)]
            g_dir = os.path.join(index_dir, SEGMENTS_DIR, f"group={gid}")
            if os.path.exists(g_dir):
                shutil.rmtree(g_dir)
            man.stages.pop("finalize", None)
    for gid in [g for g in man.groups if int(g) >= len(groups)]:
        del man.groups[gid]
        man.stages.pop("finalize", None)
    man.save()

    # -- stage: conv offsets (transcripts only; tiny table, one pass
    #    over just (conv_id, turn_idx)) --------------------------------
    offsets = None
    if mode == "transcripts":
        off_path = os.path.join(index_dir, OFFSETS_FILE)
        if man.stage_done("offsets"):
            offsets = pq.read_table(off_path).to_pandas()
        else:
            if sum(rows) <= DRIVER_SIDE_ROWS:
                offsets = conv_offsets_local(files)
            else:
                cols_ds = rd.read_parquet(files, columns=["conv_id", "turn_idx"])
                offsets = conv_offsets(cols_ds)
            tmp = off_path + ".tmp"
            pq.write_table(pa.Table.from_pandas(offsets, preserve_index=False), tmp)
            os.replace(tmp, off_path)
            man.mark_stage("offsets", n_convs=len(offsets))

    # -- stage: per-group segment builds ------------------------------
    # groups overlap (cfg.build_overlap concurrent sub-pipelines): one
    # group's sort/merge barrier runs under another's read/tokenize
    # wave, so CPUs never idle between groups.  Checkpoint semantics
    # are unchanged — each group is marked done only after its atomic
    # segment write.
    pending = [(g, fi) for g, fi in enumerate(groups) if not man.group_done(g)]
    overlap = max(1, min(cfg.build_overlap, len(pending)))
    if overlap > 1:
        prime_fsspec_http()  # threaded path resolution races otherwise
    import threading

    from ..state.norms import build_norms

    man_lock = threading.Lock()

    def _build_one(gid: int, file_idx: list[int]) -> None:
        t0 = time.perf_counter()
        g_files = [files[i] for i in file_idx]
        g_rows = sum(rows[i] for i in file_idx)
        nblocks = min(_shuffle_partitions(cfg), max(1, g_rows // 1000))
        if mode == "transcripts":
            ds = rd.read_parquet(
                g_files, columns=["conv_id", "turn_idx", "text"],
                override_num_blocks=nblocks,
            )
            ds = assign_doc_ids(ds, offsets)
        else:
            ds = rd.read_parquet(
                g_files, columns=["doc_id", "text"], override_num_blocks=nblocks
            )
        # the salted pre-merge only pays once a single term's postings
        # within a group could swamp one reduce task; with the combiner
        # + ~4M-doc groups that needs an extreme salt_range/group ratio
        two_level = g_rows > cfg.salt_range * 64
        g_dir = os.path.join(index_dir, SEGMENTS_DIR, f"group={gid}")
        tmp = _build_group_segments(
            ds, cfg, g_dir, two_level, overlap=overlap, g_rows=g_rows
        )
        entry = dict(
            input_files=[os.path.basename(f) for f in g_files],
            input_ids=_file_ids(g_files, [rows[i] for i in file_idx]),
            n_docs=g_rows,
            two_level=two_level,
            wall_s=round(time.perf_counter() - t0, 3),
        )
        build_norms(index_dir, man, tmp, entry)
        with man_lock:
            _publish_group(index_dir, man, gid, tmp, entry)

    if overlap == 1:
        for gid, file_idx in pending:
            _build_one(gid, file_idx)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=overlap) as ex:
            for f in [ex.submit(_build_one, g, fi) for g, fi in pending]:
                f.result()

    # -- stage: finalize (global vocab/df + corpus stats) -------------
    _finalize_index(man, index_dir)
    return man


def _finalize_index(man: Manifest, index_dir: str) -> None:
    """Global vocab/df + corpus stats from the per-group segment rows.
    Idempotent (no-op when the finalize stage is already marked);
    shared by the fresh-build and append paths."""
    if man.stage_done("finalize"):
        return
    seg_root = os.path.join(index_dir, SEGMENTS_DIR)
    n_seg_rows = sum(e.get("n_terms", 0) for e in man.groups.values())
    v_tmp = os.path.join(index_dir, VOCAB_DIR + ".tmp")
    if os.path.exists(v_tmp):
        shutil.rmtree(v_tmp)
    if n_seg_rows <= DRIVER_SIDE_ROWS:
        # driver-side: segment (term, df) rows are one per term per
        # group — tiny relative to the corpus
        t = pads.dataset(seg_root).to_table(columns=["term", "df"])
        v = (
            t.to_pandas().groupby("term", sort=True)["df"].sum().reset_index()
        )
        os.makedirs(v_tmp, exist_ok=True)
        pq.write_table(
            pa.Table.from_pandas(v, preserve_index=False),
            os.path.join(v_tmp, "vocab-0.parquet"), **PARQUET_WRITE_ARGS,
        )
    else:
        seg_ds = rd.read_parquet(seg_root, columns=["term", "df"])
        vocab = (
            seg_ds.groupby("term").aggregate(Sum("df", alias_name="df")).sort("term")
        )
        vocab.write_parquet(v_tmp, **PARQUET_WRITE_ARGS)
    v_dir = os.path.join(index_dir, VOCAB_DIR)
    if os.path.exists(v_dir):
        shutil.rmtree(v_dir)
    os.replace(v_tmp, v_dir)

    num_docs = sum(e["n_docs"] for e in man.groups.values())
    total_len = sum(e["sum_tf"] for e in man.groups.values())
    # vocab-wide mean robertson idf: the base of BM25Okapi's epsilon
    # floor, fixed at build time (one narrow df-column scan)
    from ..functions.bm25 import avg_robertson_idf

    dfs = pads.dataset(v_dir).to_table(columns=["df"]).column("df").to_numpy()
    man.stats = {
        "num_docs": int(num_docs),
        "total_len": int(total_len),
        "avgdl": (total_len / num_docs) if num_docs else 0.0,
        "n_terms": int(dfs.size),
        "avg_robertson_idf": avg_robertson_idf(dfs, int(num_docs)),
    }
    man.mark_stage("finalize")


def append_index(
    new_source: str | list[str],
    index_dir: str,
    cfg: IndexConfig | None = None,
) -> Manifest:
    """Append new document files to a COMPLETE documents-mode index as
    new segment groups — the Lucene segment-addition analogue.  Existing
    groups are immutable and untouched; only the new files are read,
    tokenized, and shuffled, then the cheap finalize stage (per-group
    (term, df) rows → vocab + stats) re-aggregates across all groups.
    Query-side readers pick the new groups up from the manifest with no
    code path change.

    ``cfg`` defaults to the index's own config, read from its manifest.

    Requirements (validated): the index was built with the same config
    fingerprint (a ``cfg`` that differs raises ``ValueError`` naming the
    differing fields), the new files are not already part of the index,
    no new group holds a doc id twice, and each new group's span (set
    by its norms pass, ``state/norms.py``) overlaps no existing group's
    [doc_lo, doc_hi) nor another new group's — documents mode carries
    explicit ids, so disjointness is the caller's contract (transcripts
    mode assigns ids by global rank, where "append" is semantically a
    rebuild).  Every new group is built and checked before the first is
    published.

    Crash-resumable: each appended group checkpoints in the manifest the
    moment its directory is published, so re-running the same append
    after a crash skips files already recorded (their groups are done)
    and builds only the rest, then repairs the bookkeeping (group count,
    finalize, inventory).  Only a complete index, or one whose
    incompleteness is exactly such an interrupted append (every recorded
    group done), is accepted.
    """
    man = Manifest.load(index_dir)
    if man is None or not man.groups or not all(
        e.get("status") == "done" for e in man.groups.values()
    ):
        raise ValueError(f"append_index requires a complete index at {index_dir!r}")
    own = IndexConfig.from_dict(man.config)
    cfg = cfg or own
    if man.fingerprint != cfg.fingerprint():
        fields = own.semantic_diff(cfg)
        if fields:
            raise ValueError(
                f"config differs from the existing index in {fields}; append "
                "with the index's own config (cfg=None) or rebuild")
        raise ValueError("config fingerprint differs from the existing index; rebuild")
    files = _input_files(new_source)
    if not files:
        raise ValueError(f"no parquet files at {new_source!r}")
    rows = _file_rows(files)
    # known-file identity: (basename, rows) when recorded (input_ids),
    # falling back to bare basenames for pre-input_ids manifests —
    # basenames alone collide across directories (hive part files)
    known_ids = {
        fid for e in man.groups.values() for fid in e.get("input_ids", [])
    }
    known_names = {
        bn
        for e in man.groups.values()
        if "input_ids" not in e
        for bn in e.get("input_files", [])
    }
    ids = _file_ids(files, rows)
    new_i = [
        i
        for i, f in enumerate(files)
        if ids[i] not in known_ids and os.path.basename(f) not in known_names
    ]
    if not new_i and man.is_complete():
        raise ValueError(f"files already in the index: {files}")

    if new_i:
        sub_files = [files[i] for i in new_i]
        sub_rows = [rows[i] for i in new_i]
        groups = _plan_groups(sub_files, sub_rows, None, overlap=1)
        base_gid = 1 + max(int(g) for g in man.groups)
        # build and seal every new group before touching the manifest:
        # its norms pass records the span its ids cover, and that span is
        # checked against the existing ones and the other new ones; a
        # rejected append removes its tmp dirs and leaves the index
        # exactly as found (finalized)
        from ..state.norms import build_norms

        sealed = []
        try:
            for off, file_idx in enumerate(groups):
                gid = base_gid + off
                g_files = [sub_files[i] for i in file_idx]
                g_frows = [sub_rows[i] for i in file_idx]
                g_rows = sum(g_frows)
                t0 = time.perf_counter()
                nblocks = min(_shuffle_partitions(cfg), max(1, g_rows // 1000))
                ds = rd.read_parquet(
                    g_files, columns=["doc_id", "text"], override_num_blocks=nblocks
                )
                g_dir = os.path.join(index_dir, SEGMENTS_DIR, f"group={gid}")
                two_level = g_rows > cfg.salt_range * 64
                tmp = _build_group_segments(ds, cfg, g_dir, two_level, g_rows=g_rows)
                entry = dict(
                    input_files=[os.path.basename(f) for f in g_files],
                    input_ids=_file_ids(g_files, g_frows),
                    n_docs=g_rows,
                    two_level=two_level,
                    wall_s=round(time.perf_counter() - t0, 3),
                )
                build_norms(index_dir, man, tmp, entry)
                sealed.append((gid, tmp, entry))
            taken = [(e["doc_lo"], e["doc_hi"], "existing group")
                     for e in man.groups.values()]
            for _, _, e in sealed:
                lo, hi = e["doc_lo"], e["doc_hi"]
                for a, b, what in taken:
                    if lo < b and a < hi:
                        raise ValueError(
                            f"new doc_id span [{lo}, {hi}) overlaps {what} [{a}, {b})"
                        )
                taken.append((lo, hi, "another new group"))
        except Exception:
            for off in range(len(groups)):
                shutil.rmtree(
                    os.path.join(index_dir, SEGMENTS_DIR, f"group={base_gid + off}.tmp"),
                    ignore_errors=True,
                )
            raise
        # clear finalize BEFORE any new postings land: stale global stats
        # must not masquerade as current if we crash mid-append
        man.stages.pop("finalize", None)
        man.save()
        for gid, tmp, entry in sealed:
            _publish_group(index_dir, man, gid, tmp, entry)
        # inventory reflects the grown file set: chain the appended
        # batch's hash onto the existing identity (chained only on
        # success, over the full requested batch — a crash-retry ends
        # at the same identity as a crash-free run; per-group lineage
        # stays authoritative in `groups`)
        man.inventory = f"{man.inventory}+{_inventory_hash(files, rows)}"[:64]
    man.n_groups = len(man.groups)
    man.stages.pop("finalize", None)
    man.save()
    _finalize_index(man, index_dir)
    return man


def load_offsets(index_dir: str) -> pd.DataFrame | None:
    p = os.path.join(index_dir, OFFSETS_FILE)
    if not os.path.exists(p):
        return None
    return pq.read_table(p).to_pandas()


def docmap_from_offsets(offsets: pd.DataFrame, doc_ids: np.ndarray) -> pd.DataFrame:
    """Vectorized doc_id → (conv_id, turn_idx) join-back using only the
    tiny offsets table (base = prefix sum of turns per conv): conv is
    searchsorted(base); turn = doc_id - base[conv], the turn's rank in
    its conversation, which is its ``turn_idx`` on dense corpora.
    Sparse-turn corpora carry each conversation's sorted turn list
    (``turns``); laid end to end they are in doc-id order."""
    base = offsets["base"].to_numpy(dtype=np.int64)
    conv = np.searchsorted(base, doc_ids, side="right") - 1
    if "turns" in offsets:
        turn = np.concatenate(offsets["turns"].to_list())[doc_ids]
    else:
        turn = doc_ids - base[conv]
    return pd.DataFrame(
        {
            "doc_id": doc_ids,
            "conv_id": offsets["conv_id"].to_numpy()[conv],
            "turn_idx": turn.astype(np.int32),
        }
    )


def compact_index(index_dir: str, gids: list[int] | None = None) -> Manifest:
    """Merge segment groups into one (Lucene merge-policy analogue):
    the maintenance pass after many :func:`append_index` calls have
    accumulated small groups.  Reads ONLY the compressed segment rows
    (no text, no tokenize), re-sorts them by (term id, first doc) with
    explicit tid boundaries, folds each term's per-group rows into one
    (stages/segments.make_compact_merge: the build's merge kernel over
    a whole-partition segment decode), and atomically replaces the
    source groups with a single merged group whose rows are
    byte-identical to a fresh build of the union.  Vocab/df/corpus
    stats are sums over groups, so finalize stays valid untouched;
    query plans shrink from len(gids) groups' term lookups to one.
    The merged group's norms array is the source arrays placed at their
    offsets, written before the merge (whose per-block min dl reads it)
    and published with the merged segments; its span is the merged
    group's span, and its ``n_docs`` the sources' sum.  The block size
    is the index's own (its manifest config).  An index with positions
    merges the sources' position rows instead of their segment rows
    (they carry the same doc and tf streams), so one pass writes the
    merged segments and, as the merge's side output, the merged
    positions.
    """
    man = Manifest.load(index_dir)
    if man is None or not man.is_complete():
        raise ValueError(f"compact_index requires a complete index at {index_dir!r}")
    all_gids = man.done_groups()
    gids = sorted(all_gids if gids is None else gids)
    if len(gids) < 2:
        raise ValueError("compaction needs at least two groups")
    missing = set(gids) - set(all_gids)
    if missing:
        raise ValueError(f"groups not in index: {sorted(missing)}")
    # the merged group's span runs from its sources' lowest doc_lo to
    # their highest doc_hi; on an index whose spans are disjoint it must
    # not cover a group left out, or masks could no longer be cut by span
    spans = {int(g): (e["doc_lo"], e["doc_hi"]) for g, e in man.groups.items()}
    ordered = sorted(spans.values())
    if all(a[1] <= b[0] for a, b in zip(ordered, ordered[1:])):
        lo = min(spans[g][0] for g in gids)
        hi = max(spans[g][1] for g in gids)
        for g, (a, b) in sorted(spans.items()):
            if g not in gids and a < hi and lo < b:
                raise ValueError(
                    f"compacting groups {gids} would merge them into the span "
                    f"[{lo}, {hi}), which swallows group {g} [{a}, {b}); "
                    f"compact adjacent groups or include group {g}"
                )
    block_size = int(man.config["block_size"])

    from ..stages.segments import make_compact_merge
    from ..state.norms import NORMS_FILE, build_norms
    from .positions import has_positions

    positions = has_positions(man)
    g_dirs = [os.path.join(index_dir, SEGMENTS_DIR, f"group={g}") for g in gids]
    if positions:
        g_dirs = [os.path.join(d, POSITIONS_DIR) for d in g_dirs]
    # read_parquet expands a single directory path but not a LIST of
    # directories — glob the segment files explicitly
    seg_files = sorted(
        f for d in g_dirs for f in glob.glob(os.path.join(d, "*.parquet"))
    )
    ds = rd.read_parquet(seg_files)

    def add_d0(batch: pa.Table) -> pa.Table:
        # first block-doc0 per row, gathered straight off the Arrow data
        # buffer (one fancy-index over 8 bytes/row) — no per-row
        # generator, no per-row buffer objects
        from ..stages.segments import binary_join_zero_copy

        view, offs = binary_join_zero_copy(batch.column("blk_doc0"))
        d0 = np.full(batch.num_rows, -1, dtype=np.int64)
        nz = np.flatnonzero(np.diff(offs) > 0)
        if nz.size:
            u8 = np.frombuffer(view, dtype=np.uint8)
            first8 = u8[offs[nz][:, None] + np.arange(8)]
            d0[nz] = np.ascontiguousarray(first8).view(np.int64).ravel()
        return batch.append_column("d0", pa.array(d0, type=pa.int64()))

    # width from segment ROWS (one per term per group), floor 2: explicit
    # tid boundaries guarantee every term's parts land in ONE sorted
    # partition (= one block, consumed whole via batch_size=None), so
    # the kernel always sees all parts of a term together.  An empty
    # boundary list would fall back to Ray's sampled sort, which keeps
    # per-input-block partitioning and can split a term.
    import ray as _ray

    cpus = int(_ray.cluster_resources().get("CPU", 8)) if _ray.is_initialized() else 8
    n_rows = sum(man.groups[str(g)].get("n_terms", 0) for g in gids)
    width = max(2, min(4 * cpus, n_rows // 8192))
    bounds = _tid_boundaries(width)
    t0 = time.perf_counter()
    new_gid = gids[0]
    out_dir = os.path.join(index_dir, SEGMENTS_DIR, f"group={new_gid}.compact")
    if os.path.exists(out_dir):
        shutil.rmtree(out_dir)
    os.makedirs(out_dir)
    norms_entry: dict = {}
    build_norms(index_dir, man, out_dir, norms_entry, sources=gids)
    if not positions:  # position rows carry their d0
        ds = ds.map_batches(add_d0, batch_format="pyarrow")
    merged = ds.sort(["tid", "d0"], boundaries=bounds).map_batches(
        make_compact_merge(
            block_size, os.path.join(out_dir, NORMS_FILE), norms_entry["doc_lo"],
            os.path.join(out_dir, POSITIONS_DIR) if positions else None,
        ),
        batch_format="pyarrow", batch_size=None,
    )
    merged.write_parquet(out_dir, **PARQUET_WRITE_ARGS)

    entries = [man.groups[str(g)] for g in gids]
    final_dir = os.path.join(index_dir, SEGMENTS_DIR, f"group={new_gid}")
    # atomic swap: stash the old group, promote the merged one, then
    # drop the other sources; a crash in between leaves extra dirs that
    # the manifest (replaced last) still describes consistently
    old_dir = final_dir + ".old"
    if os.path.exists(old_dir):
        shutil.rmtree(old_dir)
    os.replace(final_dir, old_dir)
    os.replace(out_dir, final_dir)
    shutil.rmtree(old_dir)
    for g in gids[1:]:
        shutil.rmtree(os.path.join(index_dir, SEGMENTS_DIR, f"group={g}"))
        del man.groups[str(g)]
    man.mark_group(
        new_gid,
        input_files=[bn for e in entries for bn in e.get("input_files", [])],
        # carry per-file lineage ids only if EVERY folded entry has them
        # (a mixed union would re-open the bare-basename collision)
        **(
            {
                "input_ids": [
                    fid for e in entries for fid in e["input_ids"]
                ]
            }
            if all("input_ids" in e for e in entries)
            else {}
        ),
        n_docs=sum(e["n_docs"] for e in entries),
        two_level=any(e.get("two_level") for e in entries),
        wall_s=round(time.perf_counter() - t0, 3),
        compacted_from=gids,
        **norms_entry,
        **_group_metrics(final_dir),
    )
    man.n_groups = len(man.groups)
    man.save()
    return man
