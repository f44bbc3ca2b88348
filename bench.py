"""Benchmark harness: headline pipelines over $GRAFT_SF_DIR.

Default single-run mode prints ONE JSON line:
  {"metric": ..., "value": <total sec>, "unit": "sec",
   "queries": {phase: sec, ...}, "sf": ..., "num_cpus": N, ...}

--scaling runs the same job in two fresh processes (default
RAY_GRAFT_CPUS=4 then =16; see run_scaling's docstring for why 4→16 is
the honest single-box N→4N pair) on the same input and reports both
throughputs plus scaling efficiency = (tp_hi/tp_lo)/(hi/lo) — the
sandbox evidence for the two-cluster-size criterion (BASELINE.md).
Each leg is taskset-pinned to exactly its core count so the low leg
cannot borrow physical cores beyond its nominal "cluster size".

Phases (mirroring the reference's timed lifecycle, SURVEY.md §3.1):
  index      build the inverted index over synthetic transcripts at the
             sf matching $GRAFT_SF_DIR   → turns/sec
  query      batch top-10 retrieval, full query set → qps
  query_lat  per-query latency sample    → p50/p99 sec
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import time

import numpy as np

SF_DIR_DEFAULT = "/root/testdata/sf0.1"
BENCH_ROOT = "/tmp/bm25rd/bench"


def parse_sf(sf_dir: str) -> float:
    m = re.search(r"sf([0-9.]+)", os.path.basename(os.path.normpath(sf_dir)))
    return float(m.group(1)) if m else 0.1


def run_bench(sf_dir: str, num_cpus: int, n_queries: int = 200, lat_sample: int = 30) -> dict:
    import ray

    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             logging_level="ERROR")
    # Driver-side Arrow kernels (merge sort in query gather) should use
    # the leg's full core budget even when OMP_NUM_THREADS=1 is exported
    # to keep WORKERS single-threaded (1 task slot = 1 core; Ray only
    # defaults worker OMP to assigned CPUs when the env var is unset).
    import pyarrow as pa

    pa.set_cpu_count(num_cpus)
    try:
        from bm25_benchmarks_ray.config import IndexConfig
        from bm25_benchmarks_ray.functions.bm25 import BM25Params
        from bm25_benchmarks_ray.pipelines.index_build import build_index
        from bm25_benchmarks_ray.pipelines.query import search
        from bm25_benchmarks_ray.sources.transcripts import (
            sf_to_n_turns,
            synthesize_queries,
            transcripts_dir,
        )

        sf = float(os.environ.get("GRAFT_BENCH_SF") or parse_sf(sf_dir))
        n_queries = int(os.environ.get("GRAFT_BENCH_NQ") or n_queries)
        corpus = transcripts_dir(sf)  # deterministic synthetic transcripts
        n_turns = sf_to_n_turns(sf)
        idx = os.path.join(BENCH_ROOT, f"idx_sf{sf}_cpus{num_cpus}")
        shutil.rmtree(idx, ignore_errors=True)

        # --scaling legs only need index + k=10 query throughput; skip
        # the k=1000 / latency / serving / large / second-rep phases
        # there (GRAFT_BENCH_QUICK; the legs already alternate reps)
        quick = os.environ.get("GRAFT_BENCH_QUICK") == "1"

        timings: dict[str, float] = {}
        cfg = IndexConfig()
        # best-of-3 index build (like the query phases below): the
        # shared VM swings >2x between adjacent minutes, and the index
        # phase is the headline recorded number
        for rep in range(1 if quick else 3):
            shutil.rmtree(idx, ignore_errors=True)
            t0 = time.perf_counter()
            build_index(corpus, idx, cfg, mode="transcripts", fresh=True)
            el = time.perf_counter() - t0
            timings["index"] = min(timings.get("index", el), el)

        queries = synthesize_queries(n_queries, seed=17)
        params = BM25Params()
        # warm-up: pay worker-process import/JIT cost outside the timed
        # region, mirroring the reference's scorer warm-up
        # (/root/reference/benchmark/on_bm25s.py:144-154,175-177)
        search(idx, queries, params=params, k=10).num_rows

        # best-of-3 per query phase: this shared VM's throughput swings
        # >2x between adjacent minutes (BASELINE.md variance caveat);
        # queries are cheap enough that extra reps meaningfully
        # de-noise the recorded number
        def timed(fn):
            best, n = None, None
            for _ in range(3):
                t0 = time.perf_counter()
                n = fn()
                el = time.perf_counter() - t0
                best = el if best is None else min(best, el)
            return best, n

        timings["query"], n_res = timed(
            lambda: search(idx, queries, params=params, k=10).num_rows
        )
        n_res_1k = 0
        if not quick:
            # k=1000: the reference's published qps are top_k=1000
            # (/root/reference/README.md:81) — candidate sets and
            # partial-row volume behave very differently than k=10
            timings["query_k1000"], n_res_1k = timed(
                lambda: search(idx, queries, params=params, k=1000).num_rows
            )

        lats = served = np.array([float("nan")])
        if not quick:
            lats = []
            for q in queries[:lat_sample]:
                t0 = time.perf_counter()
                search(idx, [q], params=params, k=10).num_rows
                lats.append(time.perf_counter() - t0)
            lats = np.array(lats)

            # persistent serving actors (pipelines/serve.py): the
            # low-latency path — same score_range core, rank-identical
            from bm25_benchmarks_ray.pipelines.serve import BM25Server

            srv = BM25Server(idx, params=params)
            srv.warm(queries)
            served = []
            for q in queries[:lat_sample]:
                t0 = time.perf_counter()
                srv.search([q], k=10)
                served.append(time.perf_counter() - t0)
            srv.close()
            served = np.array(served)

        # supplementary large-corpus index measurement: the sf0.1 corpus
        # (120k turns) is fixed-overhead-dominated; a 1.2M-turn build
        # shows the streaming pipeline's real throughput (skipped when
        # the main run is already large or explicitly disabled)
        large = {}
        large_sf = float(os.environ.get("GRAFT_BENCH_LARGE_SF", "1.0"))
        if large_sf > sf and not quick:
            lcorpus = transcripts_dir(large_sf)
            lidx = os.path.join(BENCH_ROOT, f"idx_sf{large_sf}_cpus{num_cpus}")
            for rep in range(3):  # best-of-3, same rationale as "index"
                shutil.rmtree(lidx, ignore_errors=True)
                t0 = time.perf_counter()
                build_index(lcorpus, lidx, cfg, mode="transcripts", fresh=True)
                el = time.perf_counter() - t0
                timings["index_large"] = min(timings.get("index_large", el), el)
            el = timings["index_large"]
            large = {
                "large_sf": large_sf,
                "large_n_turns": sf_to_n_turns(large_sf),
                "index_large_turns_per_s": round(sf_to_n_turns(large_sf) / el, 1),
            }

        # training-data extension operators at fixed scale (VERDICT r3
        # item 8): structured rows so round-over-round deltas are
        # machine-comparable, not BASELINE.md prose.  One rep each —
        # these are secondary to the headline index/query numbers.
        ext = {}
        if not quick and os.environ.get("GRAFT_BENCH_EXT", "1") == "1":
            ext = run_ext_bench(
                docs_sf=float(os.environ.get("GRAFT_BENCH_EXT_SF", "1.0")),
                n_events=int(os.environ.get("GRAFT_BENCH_EXT_EVENTS", "10000000")),
            )

        total = timings["index"] + timings["query"]
        return {
            "metric": "transcripts index build + BM25 top-10 batch query",
            "value": round(total, 3),
            "unit": "sec",
            "queries": {k: round(v, 3) for k, v in timings.items()},
            "sf": sf,
            "num_cpus": num_cpus,
            "n_turns": n_turns,
            "n_queries": n_queries,
            "n_result_rows": int(n_res),
            "index_turns_per_s": round(n_turns / timings["index"], 1),
            "query_qps": round(n_queries / timings["query"], 1),
            **({"query_k1000_qps": round(n_queries / timings["query_k1000"], 1),
                "n_result_rows_k1000": int(n_res_1k)}
               if "query_k1000" in timings else {}),
            **({"query_p50_s": round(float(np.percentile(lats, 50)), 4),
                "query_p99_s": round(float(np.percentile(lats, 99)), 4),
                "query_served_p50_s": round(float(np.percentile(served, 50)), 4),
                "query_served_p99_s": round(float(np.percentile(served, 99)), 4)}
               if not quick else {}),
            **large,
            **({"ext": ext} if ext else {}),
        }
    finally:
        ray.shutdown()


def _events_parquet(n_events: int, n_users: int = 150_000) -> str:
    """Deterministic synthetic events table cached under /tmp: the fixed
    input for the window-operator rows (schema matches testdata events)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    path = os.path.join(BENCH_ROOT, f"events_{n_events}.parquet")
    if os.path.exists(path):
        return path
    os.makedirs(BENCH_ROOT, exist_ok=True)
    rng = np.random.default_rng(42)
    ts = rng.integers(0, 30 * 86_400 * 1_000_000, n_events, dtype=np.int64)
    t = pa.table(
        {
            "event_id": pa.array(np.arange(n_events, dtype=np.int64)),
            "ts": pa.array(ts).cast(pa.timestamp("us")),
            "user_id": pa.array(
                rng.integers(0, n_users, n_events, dtype=np.int64)
            ),
            "event_type": pa.array(
                np.array(["click", "view", "purchase"], dtype=object)[
                    rng.integers(0, 3, n_events)
                ],
                type=pa.string(),
            ),
            "value": pa.array(rng.random(n_events)),
        }
    )
    pq.write_table(t, path, row_group_size=1 << 20)
    return path


def _documents_parquet(docs_sf: float) -> str:
    """Dense-id documents corpus derived from the synthetic transcripts
    (doc_id = row rank over the deterministic file order), cached — the
    fixed input for the phrase-retrieval rows."""
    import pyarrow as pa
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from bm25_benchmarks_ray.sources.transcripts import transcripts_dir

    path = os.path.join(BENCH_ROOT, f"docs_sf{docs_sf}.parquet")
    if not os.path.exists(path):
        t = pads.dataset(transcripts_dir(docs_sf)).to_table(columns=["text"])
        t = pa.table(
            {"doc_id": pa.array(np.arange(t.num_rows, dtype=np.int64)),
             "text": t.column("text")}
        )
        pq.write_table(t, path, row_group_size=1 << 20)
    return path


def run_ext_bench(docs_sf: float = 1.0, n_events: int = 10_000_000) -> dict:
    """Throughput rows for the training-data extension operators at
    fixed inputs: windows over ``n_events`` synthetic events, dedup /
    curate / pack over the ``docs_sf`` transcripts corpus re-keyed as a
    (doc_id, text, source) documents table (doc_id = SipHash of
    (conv_id, turn_idx) — unique across blocks)."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from bm25_benchmarks_ray.pipelines import dedup as dd
    from bm25_benchmarks_ray.pipelines import windows as W
    from bm25_benchmarks_ray.pipelines.curate import curate
    from bm25_benchmarks_ray.pipelines.packing import pack_offsets
    from bm25_benchmarks_ray.sources.transcripts import (
        sf_to_n_turns,
        transcripts_dir,
    )

    out: dict[str, float] = {}

    ev_path = _events_parquet(n_events)

    def ev():
        return rd.read_parquet(ev_path)

    t0 = time.perf_counter()
    W.sessionize(ev()).count()
    out["sessionize_events_per_s"] = round(n_events / (time.perf_counter() - t0), 1)
    t0 = time.perf_counter()
    W.tumbling_window(ev()).count()
    out["tumbling_events_per_s"] = round(n_events / (time.perf_counter() - t0), 1)
    t0 = time.perf_counter()
    W.asof_join(ev(), "purchase", "click").count()
    out["asof_events_per_s"] = round(n_events / (time.perf_counter() - t0), 1)

    n_docs = sf_to_n_turns(docs_sf)
    corpus = transcripts_dir(docs_sf)

    def docs():
        ds = rd.read_parquet(corpus, columns=["conv_id", "turn_idx", "text"])

        def rekey(b: pa.Table) -> pa.Table:
            conv = b.column("conv_id").to_pandas()
            turn = b.column("turn_idx").to_pandas().astype(str)
            key = pd.util.hash_array(
                (conv + ":" + turn).to_numpy(object), categorize=False
            )
            n = b.num_rows
            return pa.table(
                {
                    "doc_id": pa.array(key.view(np.int64), type=pa.int64()),
                    "text": b.column("text"),
                    "source": pa.array(
                        np.char.add(
                            "src", (key % 10).astype(np.uint64).astype(str)
                        ),
                        type=pa.string(),
                    ),
                }
            )

        return ds.map_batches(rekey, batch_format="pyarrow")

    t0 = time.perf_counter()
    dd.exact_dedup(docs()).count()
    out["dedup_exact_docs_per_s"] = round(n_docs / (time.perf_counter() - t0), 1)
    t0 = time.perf_counter()
    dd.minhash_lsh_pairs(docs()).count()
    out["minhash_docs_per_s"] = round(n_docs / (time.perf_counter() - t0), 1)
    t0 = time.perf_counter()
    dd.simhash_pairs(docs()).count()
    out["simhash_docs_per_s"] = round(n_docs / (time.perf_counter() - t0), 1)
    t0 = time.perf_counter()
    curate(docs()).count()
    out["curate_docs_per_s"] = round(n_docs / (time.perf_counter() - t0), 1)
    t0 = time.perf_counter()
    pack_offsets(docs()).count()
    out["pack_docs_per_s"] = round(n_docs / (time.perf_counter() - t0), 1)

    # phrase + ordered-proximity retrieval over a dense-id documents
    # corpus (same text, doc_id = row rank), read from build-written
    # positions; seconds per 2-phrase batch.  What positions cost the
    # build: the extra wall time of a fresh positions=True build over
    # the same fresh build without them, best of two alternating builds
    # each: a single pair's difference is within run-to-run noise
    from bm25_benchmarks_ray.config import IndexConfig
    from bm25_benchmarks_ray.pipelines.index_build import build_index
    from bm25_benchmarks_ray.pipelines.phrase import phrase_topk
    from bm25_benchmarks_ray.sources.transcripts import _build_vocab

    dpath = _documents_parquet(docs_sf)
    pidx = os.path.join(BENCH_ROOT, f"pidx_sf{docs_sf}")
    posidx = os.path.join(BENCH_ROOT, f"posidx_sf{docs_sf}")
    walls: dict[bool, list[float]] = {False: [], True: []}
    for positions in (False, True, False, True):
        t0 = time.perf_counter()
        build_index(dpath, posidx if positions else pidx,
                    IndexConfig(stopwords="en", stemmer="none",
                                positions=positions),
                    mode="documents", fresh=True)
        walls[positions].append(time.perf_counter() - t0)
    out["positions_build_s"] = round(min(walls[True]), 3)
    out["positions_build_extra_s"] = round(
        min(walls[True]) - min(walls[False]), 3)
    vocab = _build_vocab(np.random.RandomState(42))
    qs = [("p0", f"{vocab[0]} {vocab[1]}"),
          ("p1", f"{vocab[2]} {vocab[0]} {vocab[1]}")]
    t0 = time.perf_counter()
    res_p = phrase_topk(posidx, qs, k=10)
    out["phrase_topk_pos_s"] = round(time.perf_counter() - t0, 3)
    out["phrase_topk_rows"] = res_p.num_rows
    t0 = time.perf_counter()
    phrase_topk(posidx, qs, k=10, gap=3)
    out["near_topk_pos_s"] = round(time.perf_counter() - t0, 3)

    # round-4 retrieval extensions, one row each (VERDICT r4 #8):
    # filtered search, boolean triad, RRF fusion, snippets — fixed
    # 16-query batches over the same documents corpus/index
    import pyarrow.compute as _pc

    from bm25_benchmarks_ray.functions.bm25 import BM25Params
    from bm25_benchmarks_ray.pipelines.docfilter import allowed_shards
    from bm25_benchmarks_ray.pipelines.fusion import rrf_fuse
    from bm25_benchmarks_ray.pipelines.phrase import bool_query_topk
    from bm25_benchmarks_ray.pipelines.query import Index
    from bm25_benchmarks_ray.pipelines.query import search as _search
    from bm25_benchmarks_ray.pipelines.snippets import snippet_topk

    rng = np.random.RandomState(7)
    qtexts = [
        (f"x{i:02d}", " ".join(rng.choice(vocab, size=3)))
        for i in range(16)
    ]
    pix = Index.open(pidx)
    ranges = sorted(pix.spans.values())
    nd = pix.num_docs
    t0 = time.perf_counter()
    ids = rd.read_parquet(dpath, columns=["doc_id"]).map_batches(
        lambda b: b.filter(
            _pc.equal(_pc.bit_wise_and(b.column("doc_id"), 7), 3)),
        batch_format="pyarrow",
    )
    sh = allowed_shards(ids, nd, ranges)
    t1 = time.perf_counter()
    _search(pidx, qtexts, k=10, allowed=sh, join_back=False).num_rows
    t2 = time.perf_counter()
    # shards + search together, comparable with r1-r5; then each alone
    out["filtered_qps"] = round(len(qtexts) / (t2 - t0), 1)
    out["filtered_shards_s"] = round(t1 - t0, 3)
    out["filtered_search_qps"] = round(len(qtexts) / (t2 - t1), 1)

    t0 = time.perf_counter()
    bool_query_topk(
        pidx,
        [(q, t_, "", vocab[3]) for q, t_ in qtexts[:8]],
        k=10,
    )
    out["boolq_qps"] = round(8 / (time.perf_counter() - t0), 1)

    t0 = time.perf_counter()
    a = _search(pidx, qtexts, params=BM25Params(method="lucene"), k=20,
                join_back=False)
    b = _search(pidx, qtexts, params=BM25Params(method="atire"), k=20,
                join_back=False)
    rrf_fuse([a, b], k=10).count()
    out["rrf_qps"] = round(len(qtexts) / (time.perf_counter() - t0), 1)

    t0 = time.perf_counter()
    snippet_topk(pidx, dpath, qtexts, k=10, window=8)
    out["snippet_qps"] = round(len(qtexts) / (time.perf_counter() - t0), 1)

    out["ext_docs_sf"] = docs_sf
    out["ext_n_docs"] = n_docs
    out["ext_n_events"] = n_events
    return out


def run_scaling(sf_dir: str, cpus_lo: int = 4, cpus_hi: int = 16,
                scaling_sf: float = 8.0, reps: int = 2) -> dict:
    """Fresh process per parallelism level; same input.

    ``reps`` alternating repetitions per leg (lo,hi,hi,lo,...), best
    throughput kept per leg/phase: this shared VM's throughput swings
    >2x between adjacent minutes (BASELINE.md variance caveat), and a
    single lo→hi pass charges whichever leg hits the bad window.
    Alternation + best-of exposes both legs to the same windows.

    Uses a corpus ~80x the default bench sf: at sf0.1 (120k turns) the
    whole job is a few core-seconds of real work plus fixed Ray job
    overhead, so N-vs-4N throughput is meaningless there.  The 9.6M-turn
    corpus (~290M postings) gives each parallelism level real work to
    chew while staying a few minutes wall.

    Default pair is 4→16 CPUs: the N→4N criterion assumes constant
    per-node resources, and on ONE box a 32-CPU leg occupies every
    physical core — it gets throttled by box-wide DRAM bandwidth that a
    real 4x-node cluster would multiply, while the low leg enjoys 4x its
    fair per-core share (measured: an "8-CPU" index leg can hit the
    32-CPU leg's absolute rate).  At 4→16 the high leg still has box
    headroom, making it the honest single-box emulation (BASELINE.md
    records both pairs).  Override with --cpus-lo/--cpus-hi.

    Each leg is additionally pinned with ``taskset -c 0-(cpus-1)``:
    Ray's num_cpus only caps task SLOTS, so an unpinned "4-CPU" leg
    still spreads its worker/OMP/raylet/object-store threads over all
    physical cores — borrowing compute a real 4-core node lacks, which
    inflates the low leg and deflates measured efficiency.
    """
    results: dict[int, dict] = {}
    order: list[int] = []
    for r in range(max(1, reps)):
        pair = (cpus_lo, cpus_hi) if r % 2 == 0 else (cpus_hi, cpus_lo)
        order.extend(pair)
    for cpus in order:
        # OMP_NUM_THREADS=1 keeps every WORKER's OMP/Arrow/BLAS pool at
        # one thread (1 Ray task slot = 1 core — Ray's own default when
        # the var is unset, which an exported value would override; a
        # leg whose 14 actors each spin up `cpus` Arrow threads either
        # spills onto cores outside its budget or thrashes the pinned
        # set).  The driver's Arrow pool is re-widened to the leg's
        # budget via pa.set_cpu_count in run_bench.
        # 24000 queries (vs the single-run default 200): per-search-call
        # fixed cost is the same absolute seconds at both legs, so it
        # deflates the measured ratio by exactly its share of the FAST
        # leg's wall.  Measured r5 (pinned 8 CPUs, n=1 vs n=8000 legs):
        # fixed ≈ 1.3 s — Ray Data streaming-job startup + task
        # scheduling + plan broadcast — which at 8000 queries billed
        # the 16-CPU leg ~13% of its ~7.5 s wall but the 4-CPU leg
        # only ~4%, i.e. the ratio measured the framework's job-launch
        # constant, not the engine's scaling.  24000 queries cuts the
        # fixed share to <6% of the fast leg (steady-state throughput
        # is what the N->4N criterion is about; a real batch workload
        # amortizes job launch over minutes).  r5 samples 1-3 and the
        # 2->8 control were taken at 8000 and are disclosed as such in
        # BASELINE.md.
        env = dict(os.environ, GRAFT_SF_DIR=sf_dir, RAY_GRAFT_CPUS=str(cpus),
                   GRAFT_BENCH_SF=str(scaling_sf), GRAFT_BENCH_NQ="24000",
                   GRAFT_BENCH_QUICK="1", OMP_NUM_THREADS="1")
        # taskset pins the leg (driver + every forked Ray child inherits
        # the affinity mask) to exactly `cpus` physical cores.  Without
        # it the "4-CPU" leg is only capped in Ray task SLOTS — its 4
        # concurrent workers, OMP pools, raylet/object-store threads and
        # driver merge float over all 32 physical cores, so the low leg
        # borrows cores + cache + DRAM a real 4-core node would not have.
        cmd = [sys.executable, os.path.abspath(__file__)]
        if shutil.which("taskset"):
            cmd = ["taskset", "-c", f"0-{cpus - 1}"] + cmd
        out = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=3600,
        )
        line = [l for l in out.stdout.strip().splitlines() if l.startswith("{")][-1]
        rep = json.loads(line)
        best = results.get(cpus)
        if best is None:
            results[cpus] = rep
        else:  # best-of per phase (max throughput / min seconds)
            for phase in ("index", "query"):
                best["queries"][phase] = min(best["queries"][phase],
                                             rep["queries"][phase])
            best["index_turns_per_s"] = max(best["index_turns_per_s"],
                                            rep["index_turns_per_s"])
            best["query_qps"] = max(best["query_qps"], rep["query_qps"])
            best["value"] = min(best["value"], rep["value"])
    lo, hi = results[cpus_lo], results[cpus_hi]
    ratio = cpus_hi / cpus_lo
    eff_index = (hi["index_turns_per_s"] / lo["index_turns_per_s"]) / ratio
    eff_query = (hi["query_qps"] / lo["query_qps"]) / ratio
    return {
        "metric": f"scaling {cpus_lo}->{cpus_hi} cpus",
        "value": round(lo["value"] + hi["value"], 3),
        "unit": "sec",
        "queries": {
            f"index_{cpus_lo}": lo["queries"]["index"],
            f"index_{cpus_hi}": hi["queries"]["index"],
            f"query_{cpus_lo}": lo["queries"]["query"],
            f"query_{cpus_hi}": hi["queries"]["query"],
        },
        "sf": lo["sf"],
        "num_cpus": cpus_hi,
        "reps": max(1, reps),
        "index_turns_per_s": {str(cpus_lo): lo["index_turns_per_s"],
                              str(cpus_hi): hi["index_turns_per_s"]},
        "query_qps": {str(cpus_lo): lo["query_qps"], str(cpus_hi): hi["query_qps"]},
        "scaling_efficiency_index": round(eff_index, 3),
        "scaling_efficiency_query": round(eff_query, 3),
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scaling", action="store_true")
    ap.add_argument("--cpus-lo", type=int, default=4)
    ap.add_argument("--cpus-hi", type=int, default=16)
    ap.add_argument("--scaling-sf", type=float, default=8.0)
    ap.add_argument("--reps", type=int, default=2,
                    help="alternating repetitions per scaling leg (best-of)")
    args = ap.parse_args()
    sf_dir = os.environ.get("GRAFT_SF_DIR", SF_DIR_DEFAULT)
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    if args.scaling:
        print(json.dumps(run_scaling(sf_dir, args.cpus_lo, args.cpus_hi,
                                     args.scaling_sf, reps=args.reps)))
    else:
        print(json.dumps(run_bench(sf_dir, num_cpus)))


if __name__ == "__main__":
    main()
