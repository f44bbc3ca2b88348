"""CLI end-to-end (index → query → eval, run-record written) plus
query sampling semantics."""

from __future__ import annotations

import json
import os

import pyarrow.parquet as pq
import pytest

from bm25_benchmarks_ray.pipelines.query import sample_queries
from bm25_benchmarks_ray.sources.transcripts import (
    synthesize_queries,
    synthesize_transcripts,
)


def test_sample_queries_seeded():
    qs = [(f"q{i}", f"text {i}") for i in range(50)]
    a = sample_queries(qs, 10)
    b = sample_queries(qs, 10)
    assert a == b and len(a) == 10
    assert sample_queries(qs, None) == qs
    assert sample_queries(qs, 100) == qs


def test_cli_index_query_eval(ray_session, tmp_path):
    from bm25_benchmarks_ray import cli
    from tests.oracle import build_oracle_index, oracle_topk
    from bm25_benchmarks_ray.functions.bm25 import BM25Params

    corpus = tmp_path / "corpus.parquet"
    pq.write_table(synthesize_transcripts(300, seed=33), str(corpus))
    idx = str(tmp_path / "idx")
    rc = cli.main(["index", "--input", str(corpus), "--index", idx])
    assert rc == 0 and os.path.exists(os.path.join(idx, "manifest.json"))

    queries = synthesize_queries(10, seed=3)[:8]
    qfile = tmp_path / "q.tsv"
    qfile.write_text("".join(f"{qid}\t{text}\n" for qid, text in queries))
    out = tmp_path / "res.tsv"
    rc = cli.main(["query", "--index", idx, "--queries", str(qfile),
                   "--output", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 8 * 10  # header + 8 queries x top-10

    # qrels from the oracle's top-3 -> eval must score near-perfect
    import pandas as pd

    table = pq.read_table(str(corpus)).to_pandas()
    table = table.sort_values(["conv_id", "turn_idx"], kind="mergesort")
    oracle = build_oracle_index(list(table["text"]))
    qrels_lines = []
    for qid, text in queries:
        for d, s in oracle_topk(oracle, text, BM25Params(), k=3):
            if s > 0:
                qrels_lines.append(f"{qid}\t{d}\t1\n")
    qrels = tmp_path / "qrels.tsv"
    qrels.write_text("".join(qrels_lines))
    rdir = str(tmp_path / "results")
    rc = cli.main(["eval", "--index", idx, "--queries", str(qfile),
                   "--qrels", str(qrels), "--result-dir", rdir])
    assert rc == 0
    recs = []
    for root, _, fs in os.walk(rdir):
        recs += [json.load(open(os.path.join(root, f))) for f in fs]
    assert len(recs) == 1
    assert recs[0]["scores"]["recall"]["Recall@10"] >= 0.99
    assert recs[0]["scores"]["ndcg"]["NDCG@10"] > 0.8


def test_cli_dedup_analyze_cluster(ray_session, tmp_path, capsys):
    """The training-data CLI surfaces run end-to-end on real testdata
    and write parquet outputs with drop reporting surfaced."""
    import json

    import pyarrow.parquet as pq

    from bm25_benchmarks_ray import cli

    docs = "/root/testdata/sf0.001/documents.parquet"
    out1 = str(tmp_path / "dedup")
    assert cli.main(["dedup", "--input", docs, "--output", out1,
                     "--method", "exact"]) == 0
    assert pq.read_table(out1).num_rows > 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["method"] == "exact"

    out2 = str(tmp_path / "quality")
    assert cli.main(["analyze", "--input", docs, "--output", out2,
                     "--op", "quality"]) == 0
    t = pq.read_table(out2)
    assert t.num_rows == pq.read_table(docs).num_rows
    assert "quality" in t.schema.names

    out3 = str(tmp_path / "clusters")
    assert cli.main(["cluster", "--input",
                     "/root/testdata/sf0.001/embeddings.parquet",
                     "--output", out3, "--k", "4", "--iters", "1"]) == 0
    t = pq.read_table(out3)
    assert set(t.schema.names) == {"vec_id", "cluster"}
    assert t.column("cluster").to_pandas().between(0, 3).all()


def test_cli_dedup_drop_counts_single_execution(ray_session, tmp_path, capsys):
    """The CLI's printed drop counts equal a single execution's
    DropReport — the lazy write+count double-execution would have
    doubled them (ADVICE r3)."""
    import json

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from bm25_benchmarks_ray import cli
    from bm25_benchmarks_ray.pipelines import dedup as dd

    # 40 identical docs -> one candidate bucket far over max_bucket=8,
    # plus distinct filler so the pipeline has non-dropped work too
    texts = ["the same exact template text repeated verbatim"] * 40 + [
        f"unique filler document number {i} with words {i * 7}" for i in range(20)
    ]
    t = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), type=pa.int64()),
            "text": pa.array(texts),
        }
    )
    docs = str(tmp_path / "docs.parquet")
    pq.write_table(t, docs)

    out = str(tmp_path / "pairs")
    assert cli.main(["dedup", "--input", docs, "--output", out,
                     "--method", "simhash", "--max-bucket", "8"]) == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["dropped_buckets"] > 0

    # ground truth: one direct execution of the same pipeline
    rep = dd.DropReport()
    ds = dd.simhash_pairs(
        rd.read_parquet(docs), max_bucket=8, drop_report=rep
    ).materialize()
    truth = rep.get()
    assert line["dropped_buckets"] == truth["dropped_buckets"]
    assert line["dropped_docs"] == truth["dropped_docs"]
    assert line["rows"] == ds.count()


def test_cli_phrase_and_boolq(ray_session, tmp_path):
    """phrase / boolq subcommands end-to-end over a documents-mode
    index: exact phrase, NEAR gap, and must/must_not masking."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from bm25_benchmarks_ray import cli

    texts = ["alpha beta gamma", "beta alpha", "alpha the beta", "gamma delta"]
    docs = str(tmp_path / "docs.parquet")
    pq.write_table(
        pa.table({"doc_id": pa.array(range(4), type=pa.int64()),
                  "text": pa.array(texts)}), docs)
    idx = str(tmp_path / "idx")
    assert cli.main(["index", "--input", docs, "--index", idx,
                     "--mode", "documents", "--stemmer", "none",
                     "--positions"]) == 0

    qf = tmp_path / "phrases.tsv"
    qf.write_text("p0\talpha beta\n")
    out = str(tmp_path / "phrase.tsv")
    assert cli.main(["phrase", "--index", idx,
                     "--queries", str(qf), "--output", out]) == 0
    res = pd.read_csv(out, sep="\t")
    # doc 0 ("alpha beta ...") and doc 2 ("alpha the beta" — stopword
    # transparent) match; doc 1 has the wrong order
    assert set(res["doc_id"]) == {0, 2}

    qf.write_text("n0\talpha gamma\n")
    assert cli.main(["phrase", "--index", idx,
                     "--queries", str(qf), "--gap", "2",
                     "--output", out]) == 0
    res = pd.read_csv(out, sep="\t")
    assert set(res["doc_id"]) == {0}  # alpha .. gamma within 2

    bf = tmp_path / "bool.tsv"
    bf.write_text("b0\talpha\t\tgamma\n")
    assert cli.main(["boolq", "--index", idx, "--queries", str(bf),
                     "--output", out]) == 0
    res = pd.read_csv(out, sep="\t")
    assert set(res["doc_id"]) == {1, 2}  # alpha docs minus gamma docs
