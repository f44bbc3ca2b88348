"""CLI entry points mirroring the reference harness surface
(/root/reference/benchmark/on_bm25s.py:263-380 argparse flags: method,
k1, b, delta, stopwords, stemmer_name, top_k, result_dir, num_runs...).

    python -m bm25_benchmarks_ray.cli index  --input DIR --index DIR [--mode transcripts]
    python -m bm25_benchmarks_ray.cli query  --index DIR --queries FILE.tsv [--method lucene]
    python -m bm25_benchmarks_ray.cli eval   --index DIR --queries FILE.tsv --qrels FILE.tsv
    python -m bm25_benchmarks_ray.cli bench  [--sf 0.1]

CLI scripts own the Ray session (init/shutdown); library code never
does."""

from __future__ import annotations

import argparse
import json
import os
import sys


def _common_index_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--stopwords", default="en", choices=["en", "none"])
    p.add_argument("--stemmer", default="snowball", choices=["snowball", "none"])
    p.add_argument("--salt-range", type=int, default=262144)
    p.add_argument("--block-size", type=int, default=128)
    p.add_argument("--positions", action="store_true",
                   help="store token positions (needed by `phrase`)")


def _bm25_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", default="lucene",
                   choices=["lucene", "atire", "robertson", "bm25l", "bm25+",
                            "okapi"])
    p.add_argument("--k1", type=float, default=1.5)
    p.add_argument("--b", type=float, default=0.75)
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--top-k", type=int, default=10)
    p.add_argument("--query-mode", default="pruned",
                   choices=["exhaustive", "pruned"])
    p.add_argument("--samples", type=int, default=None,
                   help="seeded random query sample size (reference --samples)")
    p.add_argument("--profile", default=None, metavar="FILE",
                   help="cProfile the retrieval; dump stats to FILE "
                        "('-' for /tmp) and print top-50 by time "
                        "(reference --profile, on_bm25s.py:368-377)")


def _read_tsv(path: str) -> list[tuple[str, str]]:
    out = []
    with open(path) as f:
        for line in f:
            parts = line.rstrip("\n").split("\t")
            if len(parts) >= 2:
                out.append((parts[0], parts[1]))
    return out


def _read_queries(path: str) -> list[tuple[str, str]]:
    """TSV (qid\\ttext) or BEIR queries.jsonl, by extension."""
    if path.endswith(".jsonl") or os.path.isdir(path):
        from .sources.beir import read_beir_queries

        return read_beir_queries(path)
    return _read_tsv(path)


def _maybe_ext_ids(res, index_dir: str):
    """If the index carries a BEIR docmap, translate internal doc ids
    back to external string ids (results then line up with qrels)."""
    from .sources.beir import attach_ext_ids, load_docmap

    dm = load_docmap(index_dir)
    if dm is None:
        return res
    out = attach_ext_ids(res, dm)
    out["doc_id"] = out.pop("ext_id")
    return out


_OWNS_RAY = False


def _init_ray(num_cpus: int | None, address: str | None = None) -> None:
    """Start or join a Ray session.

    Local (the default, and what ``RAY_ADDRESS=local`` selects): start
    a fresh single-node session capped at ``num_cpus``.  Cluster: when
    the CLI runs as a `ray job submit` entrypoint the job runtime
    exports the cluster's RAY_ADDRESS — join it as-is (the cluster's
    size is fixed by its node count; ``--num-cpus`` is a LOCAL-only
    cap and is ignored on a cluster, where per-stage `num_cpus=` /
    `concurrency=` args control parallelism instead).  `--address`
    overrides the environment for explicit `ray.init(address=...)`
    targets like "auto".
    """
    global _OWNS_RAY
    import ray

    if ray.is_initialized():
        return
    addr = address or os.environ.get("RAY_ADDRESS", "local")
    if addr == "local":
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
        )
    else:
        # joining an existing cluster: resources belong to the cluster
        ray.init(address=addr, logging_level="ERROR")
    _OWNS_RAY = True


def cmd_index(args) -> int:
    from .config import IndexConfig
    from .pipelines.index_build import build_index

    _init_ray(args.num_cpus, args.address)
    cfg = IndexConfig(
        stopwords=args.stopwords, stemmer=args.stemmer,
        salt_range=args.salt_range, block_size=args.block_size,
        positions=args.positions,
    )
    source, mode = args.input, args.mode
    if mode == "beir":
        # BEIR dataset dir (corpus.jsonl [+ queries/qrels]) → parquet +
        # docmap staged next to the index, then a documents-mode build
        import shutil

        from .sources.beir import DOCMAP_FILE, beir_corpus_to_parquet

        staged = os.path.join(args.index + "_corpus")
        if args.fresh and os.path.exists(staged):
            shutil.rmtree(staged)
        if not os.path.exists(os.path.join(staged, DOCMAP_FILE)):
            beir_corpus_to_parquet(args.input, staged)
        source, mode = os.path.join(staged, "documents"), "documents"
        man = build_index(source, args.index, cfg, mode=mode, fresh=args.fresh)
        shutil.copyfile(
            os.path.join(staged, DOCMAP_FILE),
            os.path.join(args.index, DOCMAP_FILE),
        )
    elif getattr(args, "append", False):
        from .pipelines.index_build import append_index

        if mode != "documents":
            raise SystemExit("--append requires --mode documents "
                             "(transcripts ids are global ranks)")
        # the index's own config: the config flags do not apply
        man = append_index(source, args.index)
    else:
        man = build_index(source, args.index, cfg, mode=mode, fresh=args.fresh)
    print(json.dumps({"index": args.index, "stats": man.stats,
                      "groups": len(man.done_groups())}))
    return 0


def cmd_compact(args) -> int:
    from .pipelines.index_build import compact_index

    _init_ray(args.num_cpus, args.address)
    gids = (
        [int(g) for g in args.groups.split(",")] if args.groups else None
    )
    man = compact_index(args.index, gids=gids)
    print(json.dumps({"index": args.index, "groups": len(man.done_groups()),
                      "stats": man.stats}))
    return 0


def cmd_query(args) -> int:
    from .config import IndexConfig
    from .functions.bm25 import BM25Params
    from .pipelines.query import search

    _init_ray(args.num_cpus, args.address)
    from .pipelines.query import sample_queries

    params = BM25Params(method=args.method, k1=args.k1, b=args.b, delta=args.delta)
    queries = sample_queries(_read_queries(args.queries), args.samples)
    if args.profile:
        # the reference's cProfile hook (on_bm25s.py:368-377): driver-side
        # profile of the whole retrieval; distributed task time shows up
        # as ray waits — pair with RAY_DATA verbose stats for task-side
        import cProfile
        import pstats

        prof_path = args.profile if args.profile != "-" else "/tmp/ray_bm25.prof"
        prof = cProfile.Profile()
        prof.enable()
        res = search(args.index, queries, params=params, k=args.top_k,
                     mode=args.query_mode).to_pandas()
        prof.disable()
        prof.dump_stats(prof_path)
        pstats.Stats(prof_path, stream=sys.stderr).sort_stats("time").print_stats(50)
    else:
        res = search(args.index, queries, params=params, k=args.top_k,
                     mode=args.query_mode).to_pandas()
    res = _maybe_ext_ids(res, args.index)
    if args.output:
        res.to_csv(args.output, sep="\t", index=False)
        print(f"wrote {len(res)} rows to {args.output}")
    else:
        res.to_csv(sys.stdout, sep="\t", index=False)
    return 0


def cmd_phrase(args) -> int:
    """Exact-phrase / ordered-proximity retrieval (pipelines/phrase.py)
    over an index built with ``index --positions``: TSV queries
    (qid\\tphrase), --gap > 1 relaxes adjacency to NEAR."""
    from .functions.bm25 import BM25Params
    from .pipelines.phrase import phrase_topk

    _init_ray(args.num_cpus, args.address)
    params = BM25Params(method=args.method, k1=args.k1, b=args.b,
                        delta=args.delta)
    res = phrase_topk(
        args.index, _read_queries(args.queries),
        k=args.top_k, params=params, gap=args.gap,
    ).to_pandas()
    res = _maybe_ext_ids(res, args.index)
    if args.output:
        res.to_csv(args.output, sep="\t", index=False)
        print(f"wrote {len(res)} rows to {args.output}")
    else:
        res.to_csv(sys.stdout, sep="\t", index=False)
    return 0


def cmd_boolq(args) -> int:
    """Boolean-triad retrieval: TSV rows qid\\tmust\\tshould\\tmust_not
    (empty fields allowed; see pipelines/phrase.bool_query_topk)."""
    from .functions.bm25 import BM25Params
    from .pipelines.phrase import bool_query_topk

    _init_ray(args.num_cpus, args.address)
    specs = []
    with open(args.queries) as f:
        for line in f:
            line = line.rstrip("\n")
            if not line:
                continue
            parts = (line.split("\t") + ["", "", ""])[:4]
            specs.append(tuple(parts))
    params = BM25Params(method=args.method, k1=args.k1, b=args.b,
                        delta=args.delta)
    res = bool_query_topk(
        args.index, specs, k=args.top_k, params=params
    ).to_pandas()
    res = _maybe_ext_ids(res, args.index)
    if args.output:
        res.to_csv(args.output, sep="\t", index=False)
        print(f"wrote {len(res)} rows to {args.output}")
    else:
        res.to_csv(sys.stdout, sep="\t", index=False)
    return 0


def cmd_eval(args) -> int:
    from .config import IndexConfig
    from .functions.bm25 import BM25Params
    from .functions.eval_metrics import evaluate, results_table_to_eval
    from .pipelines.query import search
    from .state.run_record import Timer, save_run_record

    _init_ray(args.num_cpus, args.address)
    from .pipelines.query import sample_queries

    params = BM25Params(method=args.method, k1=args.k1, b=args.b, delta=args.delta)
    queries = sample_queries(_read_queries(args.queries), args.samples)
    from .sources.beir import read_beir_qrels

    qrels = read_beir_qrels(args.qrels)
    timer = Timer()
    timer.start("query")
    res = search(args.index, queries, params=params, k=args.top_k,
                 mode=args.query_mode).to_pandas()
    timer.stop("query", n_total=len(queries))
    res = _maybe_ext_ids(res, args.index)
    ndcg, m, r, p = evaluate(
        qrels, results_table_to_eval(res), k_values=[1, 10, 100, 1000]
    )
    scores = {"ndcg": ndcg, "map": m, "recall": r, "precision": p}
    print(json.dumps(scores, indent=1))
    if args.result_dir:
        save_run_record(
            args.result_dir, "ray-bm25", os.path.basename(args.index),
            {"method": args.method, "k1": args.k1, "b": args.b, "delta": args.delta,
             "top_k": args.top_k},
            {"num_queries": len(queries)}, timer.to_dict(), scores=scores,
        )
    return 0


def cmd_serve(args) -> int:
    """Serve queries through the persistent actor pool (pipelines/
    serve.py): answers each query individually and reports latency —
    the interactive loaded-model path."""
    import time

    import numpy as np

    from .functions.bm25 import BM25Params
    from .pipelines.serve import BM25Server

    _init_ray(args.num_cpus, args.address)
    params = BM25Params(method=args.method, k1=args.k1, b=args.b, delta=args.delta)
    queries = _read_queries(args.queries)
    srv = BM25Server(args.index, params=params)
    try:
        if args.warm:
            srv.warm(queries)
        frames, lats = [], []
        for q in queries:
            t0 = time.perf_counter()
            frames.append(srv.search([q], k=args.top_k))
            lats.append(time.perf_counter() - t0)
        import pandas as pd

        res = _maybe_ext_ids(pd.concat(frames, ignore_index=True), args.index)
        if args.output:
            res.to_csv(args.output, sep="\t", index=False)
        lats_np = np.array(lats)
        print(json.dumps({
            "queries": len(queries),
            "p50_ms": round(float(np.percentile(lats_np, 50)) * 1000, 2),
            "p99_ms": round(float(np.percentile(lats_np, 99)) * 1000, 2),
            "mean_ms": round(float(lats_np.mean()) * 1000, 2),
            "warmed": bool(args.warm),
            "rows": len(res),
        }))
    finally:
        srv.close()
    return 0


def cmd_bench(args) -> int:
    import subprocess

    env = dict(os.environ)
    if args.sf:
        env["GRAFT_BENCH_SF"] = str(args.sf)
    cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "..", "bench.py")]
    if args.scaling:
        cmd.append("--scaling")
    return subprocess.run(cmd, env=env).returncode


def _read_docs(path: str, columns: list[str]):
    import ray.data as rd

    return rd.read_parquet(path, columns=columns)


def cmd_dedup(args) -> int:
    """Near/exact-duplicate detection over a (doc_id, text) parquet
    corpus; writes survivors (exact) or pairs (others) as parquet."""
    _init_ray(args.num_cpus, args.address)
    from .pipelines import dedup as dd

    ds = _read_docs(args.input, ["doc_id", "text"])
    rep = dd.DropReport() if args.method != "exact" else None
    cap = {} if args.max_bucket is None else {"max_bucket": args.max_bucket}
    if args.method == "exact":
        out = dd.exact_dedup(ds)
    elif args.method == "minhash":
        out = dd.minhash_lsh_pairs(
            ds, threshold=args.threshold, drop_report=rep, **cap
        )
    elif args.method == "simhash":
        out = dd.simhash_pairs(
            ds, hamming_max=args.hamming_max, drop_report=rep, **cap
        )
    else:
        out = dd.ngram_jaccard_pairs(
            ds, threshold=args.threshold, drop_report=rep, **cap
        )
    # materialize ONCE: write_parquet + count() on the lazy dataset would
    # execute the whole pipeline twice, double-firing the DropReport
    # counters (the reported drop counts would be 2x the truth)
    out = out.materialize()
    out.write_parquet(args.output)
    summary = {"method": args.method, "rows": out.count()}
    if rep is not None:
        summary.update(rep.get())  # no silent caps: dropped buckets surface
    print(json.dumps(summary))
    return 0


def cmd_analyze(args) -> int:
    """Per-document text analysis (language ID / quality / token counts
    / fingerprints) over a (doc_id, text) parquet corpus."""
    _init_ray(args.num_cpus, args.address)
    from .pipelines import text_analysis as ta

    ds = _read_docs(args.input, ["doc_id", "text"])
    fn = {
        "lang_id": ta.language_id,
        "quality": ta.quality_score,
        "token_count": ta.token_count,
        "fingerprint": ta.fingerprint,
        "winnow": ta.winnow_fingerprint,
    }[args.op]
    out = fn(ds).materialize()  # one execution for write + count
    out.write_parquet(args.output)
    print(json.dumps({"op": args.op, "rows": out.count()}))
    return 0


def cmd_cluster(args) -> int:
    """Distributed spherical k-means over a (vec_id, embedding) parquet
    table; writes (vec_id, cluster) assignments."""
    _init_ray(args.num_cpus, args.address)
    from .pipelines.similarity import embed_kmeans

    ds = _read_docs(args.input, [args.id_col, args.vec_col])
    out = embed_kmeans(
        ds, k=args.k, iters=args.iters, vec_col=args.vec_col, id_col=args.id_col
    ).materialize()  # one execution for write + count
    out.write_parquet(args.output)
    print(json.dumps({"k": args.k, "iters": args.iters, "rows": out.count()}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="bm25_benchmarks_ray")
    ap.add_argument("--num-cpus", type=int, default=None,
                    help="local-session CPU cap (ignored when joining a cluster)")
    ap.add_argument("--address", default=None,
                    help="Ray cluster address (e.g. 'auto' under ray job "
                         "submit); default: $RAY_ADDRESS or a local session")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("index")
    p.add_argument("--input", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--mode", default="transcripts",
                   choices=["transcripts", "documents", "beir"])
    p.add_argument("--fresh", action="store_true")
    p.add_argument("--append", action="store_true",
                   help="add --input as new segment groups to an existing "
                        "documents-mode index (Lucene-style segment append), "
                        "with the index's own config (the config flags "
                        "are ignored)")
    _common_index_args(p)
    p.set_defaults(fn=cmd_index)

    p = sub.add_parser("compact")
    p.add_argument("--index", required=True)
    p.add_argument("--groups", default=None,
                   help="comma-separated group ids to merge (default: all)")
    p.set_defaults(fn=cmd_compact)

    p = sub.add_parser("query")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True, help="TSV: qid\\ttext")
    p.add_argument("--output", default=None)
    _bm25_args(p)
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("phrase")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True, help="TSV: qid\\tphrase")
    p.add_argument("--gap", type=int, default=1,
                   help="1 = exact phrase; n > 1 = ordered NEAR/n")
    p.add_argument("--output", default=None)
    _bm25_args(p)
    p.set_defaults(fn=cmd_phrase)

    p = sub.add_parser("boolq")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True,
                   help="TSV: qid\\tmust\\tshould\\tmust_not")
    p.add_argument("--output", default=None)
    _bm25_args(p)
    p.set_defaults(fn=cmd_boolq)

    p = sub.add_parser("eval")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--qrels", required=True, help="TSV: qid\\tdoc_id\\trel")
    p.add_argument("--result-dir", default=None)
    _bm25_args(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("serve")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--output", default=None)
    p.add_argument("--warm", action="store_true",
                   help="pre-decode the workload's terms before timing")
    _bm25_args(p)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("bench")
    p.add_argument("--sf", type=float, default=None)
    p.add_argument("--scaling", action="store_true")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("dedup")
    p.add_argument("--input", required=True, help="parquet with doc_id,text")
    p.add_argument("--output", required=True)
    p.add_argument("--method", default="exact",
                   choices=["exact", "minhash", "simhash", "ngram"])
    p.add_argument("--threshold", type=float, default=0.8)
    p.add_argument("--hamming-max", type=int, default=3)
    p.add_argument("--max-bucket", type=int, default=None,
                   help="candidate-bucket cap before a bucket is "
                        "dropped (and counted in the drop report)")
    p.set_defaults(fn=cmd_dedup)

    p = sub.add_parser("analyze")
    p.add_argument("--input", required=True, help="parquet with doc_id,text")
    p.add_argument("--output", required=True)
    p.add_argument("--op", default="quality",
                   choices=["lang_id", "quality", "token_count",
                            "fingerprint", "winnow"])
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("cluster")
    p.add_argument("--input", required=True, help="parquet with vec_id,embedding")
    p.add_argument("--output", required=True)
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--iters", type=int, default=2)
    p.add_argument("--vec-col", default="embedding")
    p.add_argument("--id-col", default="vec_id")
    p.set_defaults(fn=cmd_cluster)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    finally:
        import ray

        # shut down only a session we started (embedders/tests own theirs)
        if _OWNS_RAY and ray.is_initialized():
            ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
