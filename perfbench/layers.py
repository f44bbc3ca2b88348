"""Per-layer metrics of a traced run, named after the engine modules
whose calls they time (``PER_LAYER``), plus the index's bytes at rest."""

from __future__ import annotations

import os
from collections import defaultdict

import pyarrow.parquet as pq

from perfbench.tracing import SCORE_TASK, Events, build_layer, engine_task

SEGMENT_COLUMNS = [
    "term", "tid", "df", "sum_tf", "doc_ids", "tfs", "dls", "bmax_tf",
    "bmin_dl", "blk_doc0", "blk_off_doc", "blk_off_tf", "blk_off_dl",
]

PER_LAYER = [
    # pipelines.query, per search() call
    ("query.tokenize_s", "s"), ("query.plan_s", "s"), ("query.job_s", "s"),
    ("query.merge_s", "s"), ("query.joinback_s", "s"), ("query.other_s", "s"),
    # scoring tasks, from the timeline, per search() call
    ("score.tasks", "count"), ("score.busy_s", "s"), ("score.max_task_s", "s"),
    ("score.launch_gap_s", "s"),
    # state.norms / state.manifest
    ("norms.has_norms_s", "s"), ("manifest.loads_per_op", "count"),
    ("manifest.load_s", "s"), ("build.norms_s", "s"),
    ("build.norms_groups_rebuilt", "share"),
    # pipelines.serve, per served request
    ("serve.start_s", "s"), ("serve.plan_s", "s"), ("serve.score_rtt_s", "s"),
    ("serve.merge_s", "s"), ("serve.other_s", "s"), ("serve.term_hit_share", "share"),
    # pipelines.index_build, per build or append
    ("build.offsets_s", "s"), ("build.finalize_s", "s"),
    ("build.read.busy_s", "s"), ("build.tokenize.busy_s", "s"),
    ("build.shuffle.busy_s", "s"), ("build.merge_write.busy_s", "s"),
    ("build.norms_derive.busy_s", "s"), ("build.tasks", "count"),
    ("build.max_task_s", "s"), ("build.other_s", "s"),
    ("compact.busy_s", "s"), ("compact.other_s", "s"),
    # stages.segments at rest
    *[(f"storage.segment_bytes.{c}", "bytes") for c in SEGMENT_COLUMNS],
    ("storage.norms_bytes", "bytes"), ("storage.vocab_bytes", "bytes"),
    # pipelines.docfilter / pipelines.tombstones
    ("filter.shards_s", "s"), ("filter.pack.busy_s", "s"),
    ("filter.compose_s", "s"), ("tomb.load_s", "s"),
    # pipelines.phrase, per boolean batch
    ("bool.bitmaps_s", "s"), ("bool.search_calls_per_batch", "count"),
    ("bool.search_s", "s"),
    # benchmark code inside an operation, and the tracing itself
    ("op.harness_s", "s"), ("trace.sum_error_s", "s"),
    ("trace.overhead_share", "share"),
    # each workload's own figures (also in every run's digest line)
    ("failed_ops", "share"),
    ("batch_qps_k10", "1/s"), ("batch_qps_k1000", "1/s"),
    ("search_p50_ms", "ms"), ("search_tail_ms", "ms"), ("search_tail_pct", "%"),
    ("search_samples", "count"),
    ("served_p50_ms", "ms"), ("served_tail_ms", "ms"), ("served_tail_pct", "%"),
    ("served_samples", "count"),
    ("build_turns_per_s", "1/s"), ("append_docs_per_s", "1/s"),
    ("compact_docs_per_s", "1/s"), ("index_bytes_per_text_byte", "ratio"),
    ("filtered_qps", "1/s"), ("boolq_qps", "1/s"),
]


def mean(xs) -> float:
    xs = list(xs)
    return float(sum(xs) / len(xs)) if xs else 0.0


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, fs in os.walk(path) for f in fs)


def storage_metrics(idx: str | None) -> dict[str, float]:
    out = {f"storage.segment_bytes.{c}": 0.0 for c in SEGMENT_COLUMNS}
    out["storage.norms_bytes"] = out["storage.vocab_bytes"] = 0.0
    if not idx or not os.path.isdir(idx):
        return out
    for d, _, fs in os.walk(os.path.join(idx, "segments")):
        for f in fs:
            if not f.endswith(".parquet"):
                continue
            md = pq.ParquetFile(os.path.join(d, f)).metadata
            for g in range(md.num_row_groups):
                rg = md.row_group(g)
                for c in range(rg.num_columns):
                    key = f"storage.segment_bytes.{rg.column(c).path_in_schema}"
                    if key in out:
                        out[key] += rg.column(c).total_compressed_size
    for sub, key in (("norms", "storage.norms_bytes"), ("vocab", "storage.vocab_bytes")):
        p = os.path.join(idx, sub)
        if os.path.isdir(p):
            out[key] = float(dir_bytes(p))
    return out


def layer_metrics(ops, figures: dict[str, float], storage_index: str | None,
                  events: Events, per_call: float) -> dict[str, float]:
    """Per-layer metrics of one traced run.  Times are means per call
    of the layer's caller (a search() call, a served request, a build or
    append, a compaction, a filtered or boolean batch)."""
    roots = [o.span for o in ops if o.span is not None]
    by: dict[str, list] = defaultdict(list)
    for root in roots:
        for s in root.walk():
            by[s.name].append(s)

    def sub(s, names) -> float:
        return sum(c.self_time for c in s.walk() if c is not s and c.name in names)

    def incl(s, name) -> float:
        return sum(c.wall for c in s.walk() if c is not s and c.name == name)

    def count(s, name) -> int:
        return sum(1 for c in s.walk() if c is not s and c.name == name)

    def tasks(s, match=None):
        ev = [e for e in events.within(s.e0, s.e1) if engine_task(e[2])]
        return [e for e in ev if match(e[2])] if match else ev

    m: dict[str, float] = {}
    calls = by["query.search"] + by["bool.search"]
    for key, names in (("tokenize", {"query.tokenize"}), ("plan", {"query.plan"}),
                       ("job", {"query.job"}), ("merge", {"query.merge"}),
                       ("joinback", {"query.joinback"})):
        m[f"query.{key}_s"] = mean(sub(c, names) for c in calls)
    m["query.other_s"] = mean(c.self_time for c in calls)
    score = [tasks(c, lambda cat: cat == SCORE_TASK) for c in calls]
    busy = [sum(e[1] for e in ev) for ev in score]
    m["score.tasks"] = mean(len(ev) for ev in score)
    m["score.busy_s"] = mean(busy)
    m["score.max_task_s"] = max((e[1] for ev in score for e in ev), default=0.0)
    m["score.launch_gap_s"] = mean(sub(c, {"query.job"}) - b for c, b in zip(calls, busy))
    m["norms.has_norms_s"] = mean(sub(c, {"norms.has_norms"}) for c in calls)
    m["tomb.load_s"] = mean(sub(c, {"tomb.load"}) for c in calls)
    with_filter = [c for c in calls if count(c, "filter.compose")]
    m["filter.compose_s"] = mean(sub(c, {"filter.compose"}) for c in with_filter)
    m["manifest.loads_per_op"] = mean(count(s, "manifest.load") for s in roots)
    m["manifest.load_s"] = mean(sub(s, {"manifest.load"}) for s in roots)

    served = by["serve.search"]
    m["serve.start_s"] = figures.get("serve.start_s", 0.0)
    for key, name in (("plan", "serve.plan"), ("score_rtt", "serve.score_rtt"),
                      ("merge", "serve.merge")):
        m[f"serve.{key}_s"] = mean(sub(s, {name}) for s in served)
    m["serve.other_s"] = mean(s.self_time for s in served)
    m["serve.term_hit_share"] = figures.get("serve.term_hit_share", 0.0)

    builds = by["build.index"] + by["build.append"]
    compacts = by["build.compact"]
    offsets = [sub(b, {"build.offsets"}) for b in builds if count(b, "build.offsets")]
    m["build.offsets_s"] = mean(offsets)
    m["build.finalize_s"] = mean(sub(b, {"build.finalize"}) for b in builds)
    m["build.norms_s"] = mean(incl(b, "build.norms") for b in builds + compacts)
    rebuilt = [c.info for b in builds + compacts for c in b.walk()
               if c.name == "build.norms" and c.info and c.info[1]]
    m["build.norms_groups_rebuilt"] = (sum(a for a, _ in rebuilt) / sum(b for _, b in rebuilt)
                                       if rebuilt else 0.0)
    layers = ("read", "tokenize", "shuffle", "merge_write", "norms_derive")
    per = {k: [] for k in layers}
    n_tasks, max_task, other = [], 0.0, []
    for b in builds:
        ev = tasks(b)
        sums = dict.fromkeys(layers, 0.0)
        for _, dur, cat in ev:
            layer = build_layer(cat)
            if layer:
                sums[layer] += dur
            max_task = max(max_task, dur)
        for k in layers:
            per[k].append(sums[k])
        n_tasks.append(len(ev))
        other.append(b.wall - sub(b, {"build.offsets", "build.finalize"})
                     - incl(b, "build.norms")
                     - sum(sums[k] for k in layers if k != "norms_derive"))
    for k in layers:
        m[f"build.{k}.busy_s"] = mean(per[k])
    m["build.tasks"] = mean(n_tasks)
    m["build.max_task_s"] = max_task
    m["build.other_s"] = mean(other)
    c_busy = [sum(e[1] for e in tasks(c)) for c in compacts]
    m["compact.busy_s"] = mean(c_busy)
    m["compact.other_s"] = mean(c.wall - b for c, b in zip(compacts, c_busy))

    shards = by["filter.shards"]
    m["filter.shards_s"] = mean(s.wall for s in shards)
    m["filter.pack.busy_s"] = mean(
        sum(e[1] for e in tasks(s, lambda cat: "pack" in cat)) for s in shards)
    bools = by["bool.query"]
    m["bool.bitmaps_s"] = mean(incl(b, "bool.bitmaps") for b in bools)
    m["bool.search_calls_per_batch"] = mean(count(b, "bool.search") for b in bools)
    m["bool.search_s"] = mean(incl(b, "bool.search") for b in bools)

    m["op.harness_s"] = mean(s.self_time for s in roots)
    m["trace.sum_error_s"] = max(
        (abs(s.wall - sum(c.self_time for c in s.walk())) for s in roots), default=0.0)
    spans = sum(1 for root in roots for _ in root.walk()) - len(roots)
    op_wall = sum(s.wall for s in roots)
    m["trace.overhead_share"] = per_call * spans / op_wall if op_wall else 0.0
    m.update(storage_metrics(storage_index))
    return m
