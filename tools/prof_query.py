"""Component profile of one query scoring task (read / decode / score)
and its behavior under memory-bandwidth contention.

Replays exactly what the score_slice task does for one (group, q-batch)
task, timing the three components separately, optionally with N
concurrent worker processes pinned to distinct cores — the single-box
analogue of the 4-vs-16-core scaling legs, isolating which component
stops scaling when cores share one memory system.

Usage:
    python tools/prof_query.py [--sf 8.0] [--nq 8000] [--k 10]
        [--procs 1] [--qbatches 16] [--repeat 2]
"""

from __future__ import annotations

import argparse
import json
import multiprocessing as mp
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def build_or_load(sf: float, num_cpus: int = 32) -> str:
    import ray

    from bm25_benchmarks_ray.config import IndexConfig
    from bm25_benchmarks_ray.pipelines.index_build import build_index
    from bm25_benchmarks_ray.sources.transcripts import transcripts_dir

    idx = f"/tmp/bm25rd/prof/idx_sf{sf}"
    from bm25_benchmarks_ray.state.manifest import Manifest

    man = Manifest.load(idx)
    if man is not None and man.is_complete():
        return idx
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
                 logging_level="ERROR")
    corpus = transcripts_dir(sf)
    build_index(corpus, idx, IndexConfig(), mode="transcripts", fresh=True)
    ray.shutdown()
    return idx


def task_work(idx: str, nq: int, k: int, qbatch: int, nqb: int, seed: int,
              n_slices: int = 1, slice_i: int = 0):
    """One task's components over group 0: returns timing dict."""
    import numpy as np
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    from bm25_benchmarks_ray.config import IndexConfig
    from bm25_benchmarks_ray.functions.bm25 import BM25Params, nonoccurrence_shape
    from bm25_benchmarks_ray.pipelines.query import (
        _DecodeCache,
        _query_plan,
        query_plan_terms,
        score_range,
        tokenize_queries,
    )
    from bm25_benchmarks_ray.sources.transcripts import synthesize_queries
    from bm25_benchmarks_ray.state.manifest import Manifest

    man = Manifest.load(idx)
    cfg = IndexConfig(**{k_: v for k_, v in man.config.items()
                         if k_ in IndexConfig.__dataclass_fields__})
    params = BM25Params()
    queries = synthesize_queries(nq, seed=17)
    t0 = time.perf_counter()
    tokenized = tokenize_queries(queries, cfg)
    plan = _query_plan(tokenized, idx, params, man.stats["num_docs"],
                       avg_idf=man.stats.get("avg_robertson_idf"))
    t_plan = time.perf_counter() - t0

    gids = man.done_groups()
    g = gids[seed % len(gids)]
    e = man.groups[str(g)]
    lo, hi = int(e["doc_lo"]), int(e["doc_hi"])
    if n_slices > 1:
        import numpy as np

        sb = np.linspace(lo, hi, n_slices + 1).astype(np.int64)
        lo, hi = int(sb[slice_i]), int(sb[slice_i + 1])
    qb = (seed // len(gids)) % nqb
    import numpy as np

    q_bounds = np.linspace(0, nq, nqb + 1).astype(np.int64)
    q_lo, q_hi = int(q_bounds[qb]), int(q_bounds[qb + 1])

    terms_here = query_plan_terms(plan, q_lo, q_hi)
    gdir = os.path.join(idx, "segments", f"group={g}")

    t0 = time.perf_counter()
    seg = pads.dataset(gdir).to_table(filter=pc.field("term").isin(terms_here))
    t_read = time.perf_counter() - t0
    seg_bytes = seg.nbytes

    from bm25_benchmarks_ray.stages.segments import segment_rows_by_term

    t0 = time.perf_counter()
    rows_by_term = segment_rows_by_term(seg)
    t_rows = time.perf_counter() - t0

    s0 = nonoccurrence_shape(params)
    decoded = _DecodeCache(cfg.block_size, lo, hi, params, man.stats["avgdl"], s0)

    t0 = time.perf_counter()
    qis, docs, scores = score_range(
        plan, rows_by_term, params, man.stats["avgdl"], k, cfg.block_size,
        lo, hi, q_lo, q_hi, True, True, decoded,
    )
    t_score = time.perf_counter() - t0
    n_dec = sum(d.size for d, _ in decoded.data.values())
    return {
        "plan_s": round(t_plan, 3),
        "read_s": round(t_read, 3),
        "rows_s": round(t_rows, 3),
        "score_s": round(t_score, 3),
        "seg_mb": round(seg_bytes / 1e6, 1),
        "n_terms": len(terms_here),
        "n_terms_read": seg.num_rows,
        "decoded_postings": int(n_dec),
        "queries": q_hi - q_lo,
        "result_rows": int(sum(x.size for x in docs)),
    }


def _worker(args):
    idx, nq, k, qbatch, nqb, seed, core = args
    os.sched_setaffinity(0, {core})
    return task_work(idx, nq, k, qbatch, nqb, seed)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf", type=float, default=8.0)
    ap.add_argument("--nq", type=int, default=8000)
    ap.add_argument("--k", type=int, default=10)
    ap.add_argument("--qbatches", type=int, default=16)
    ap.add_argument("--slices", type=int, default=1)
    ap.add_argument("--slice-i", type=int, default=0)
    ap.add_argument("--procs", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=1)
    args = ap.parse_args()

    idx = build_or_load(args.sf)
    for rep in range(args.repeat):
        if args.procs == 1:
            os.sched_setaffinity(0, {0})
            r = task_work(idx, args.nq, args.k, 0, args.qbatches, rep,
                          args.slices, args.slice_i)
            print(json.dumps({"procs": 1, **r}))
        else:
            jobs = [
                (idx, args.nq, args.k, 0, args.qbatches, s, s % os.cpu_count())
                for s in range(args.procs)
            ]
            t0 = time.perf_counter()
            with mp.get_context("spawn").Pool(args.procs) as pool:
                rs = pool.map(_worker, jobs)
            wall = time.perf_counter() - t0
            import numpy as np

            agg = {
                key: round(float(np.mean([r[key] for r in rs])), 3)
                for key in ("read_s", "rows_s", "score_s", "seg_mb")
            }
            print(json.dumps({"procs": args.procs, "wall_s": round(wall, 2),
                              **agg}))


if __name__ == "__main__":
    main()
