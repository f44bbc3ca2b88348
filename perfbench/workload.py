"""One benchmark run: one workload, one Ray session, one closed-loop client.

Started by ``run.py`` in a fresh process with the repository root on
``PYTHONPATH`` (so Ray workers import the engine whatever their working
directory).  Prints result-digest lines, then one JSON result line.

Every operation runs under a timeout; an operation that raises, times
out or fails verification counts as failed and the run goes on.  Set-up
steps must succeed: a set-up failure ends the run with no result.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import resource
import statistics
import sys
import threading
import time
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from perfbench.checks import (
    VerifyError,
    as_table,
    check_topk,
    digest,
    same_ranking,
)
from perfbench.corpus import PICK, Inputs, write_parts
from perfbench.layers import PER_LAYER, dir_bytes, layer_metrics
from perfbench.tracing import Events, Tracer, collect_timeline

# -- sizes ---------------------------------------------------------------
# Chosen so that every workload's set-up plus one measured run fits in
# about 25 s on one core, which keeps ten runs of every workload, twice,
# under an hour.  Query cost here is mostly per-query and per-call work,
# so a 16k-turn index shows the same layers as a larger one.
INDEX_TURNS = 16_000      # batch / interactive transcripts index
BATCH_QUERIES = 200       # queries per batch search() call
SETUP_REPS = 3            # timed set-up builds per run, after a small warm-up
SEARCH_SHARE = 0.7        # interactive: share of the run for search() calls
WARM_TERMS = 300          # interactive: warm_top_df(n)
COLD_EVERY = 4            # interactive: every 4th served query has one new term
INGEST_TURNS = 12_000     # ingest: fresh transcripts build per cycle
INGEST_PART_DOCS = 4_000  # ingest: documents per part (base + 3 appends)
FILTER_PART_DOCS = 5_000  # filtered: documents per part (4 groups)
FILTER_QUERIES = 50       # filtered: queries per filtered search() call
BOOL_SPECS = 4            # filtered: MUST/SHOULD/MUST_NOT specs per batch
DELETE_SHARE = 0.02       # ingest / filtered: tombstoned share of documents
PROBE_QUERIES = 16        # ingest: probe after each index change
K = 10

QUERY_TIMEOUT_S = 60.0
WRITE_TIMEOUT_S = 120.0
RUN_GUARD_S = 140.0       # stop starting operations after this much wall

END_TO_END = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("items_per_s", "1/s"),
    ("driver_peak_rss_mb", "MB"),
]


class OpTimeout(Exception):
    """An operation ran past its deadline."""


def call_with_timeout(fn, timeout: float):
    """``fn()`` in a daemon thread; raises OpTimeout if it is still
    running after ``timeout`` seconds.  A Ray call blocked in native code
    does not see signals, so a thread is the only way to stop waiting;
    the stuck call is abandoned and the run goes on."""
    box: dict = {}

    def target():
        try:
            box["out"] = fn()
        except BaseException as e:  # re-raised in the caller's thread
            box["err"] = e

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(timeout)
    if t.is_alive():
        raise OpTimeout(f"operation exceeded {timeout:.0f}s")
    if "err" in box:
        raise box["err"]
    return box.get("out")


def root_cause(e: Exception) -> str:
    """The innermost ``SomeError: message`` line of an exception; a Ray
    task error carries the worker's whole traceback in its text."""
    lines = [ln.strip() for ln in str(e).splitlines()]
    inner = [ln for ln in lines if re.match(r"^[A-Za-z_.]*(Error|Exception|Timeout): ", ln)]
    own = [ln for ln in inner if not ln.startswith("ray.")] or inner
    return (own[-1] if own else f"{type(e).__name__}: {lines[0] if lines else ''}")[:200]


def median(xs) -> float:
    xs = list(xs)
    return float(statistics.median(xs)) if xs else 0.0


def tail(xs_ms: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest of p99/p95/p90/p75 that has at
    least ten samples beyond it; p50 when there are too few."""
    n = len(xs_ms)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return float(np.percentile(xs_ms, p)), float(p)
    return median(xs_ms), 50.0


# -- the run ---------------------------------------------------------------

class Op:
    __slots__ = ("kind", "wall", "ok", "span", "items", "parts")

    def __init__(self, kind, wall, ok, span, items, parts):
        self.kind, self.wall, self.ok, self.span = kind, wall, ok, span
        self.items, self.parts = items, parts


class Run:
    """State shared by the four workloads."""

    def __init__(self, run_dir: str, seed: int, seconds: float,
                 tracer: Tracer | None, ncpu: int):
        self.dir = run_dir
        self.seconds = seconds
        self.tracer = tracer
        self.ncpu = ncpu
        self.inputs = Inputs(seed)
        self.ops: list[Op] = []
        self.setup_walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.stuck = 0  # timed-out operations whose threads still run
        self.errors: Counter = Counter()
        self.figures: dict[str, float] = {}
        self.digests: dict[str, str] = {}
        self.storage_index: str | None = None
        self.t_start = time.perf_counter()

    # engine modules, resolved as attributes at call time so that the
    # traced run's wrappers see every call
    @property
    def Q(self):
        from bm25_benchmarks_ray.pipelines import query
        return query

    @property
    def IB(self):
        from bm25_benchmarks_ray.pipelines import index_build
        return index_build

    def path(self, *parts) -> str:
        return os.path.join(self.dir, *parts)

    def guard_ok(self) -> bool:
        return time.perf_counter() - self.t_start < RUN_GUARD_S

    def setup_step(self, fn, timeout: float = WRITE_TIMEOUT_S, rep: bool = True):
        t0 = time.perf_counter()
        out = call_with_timeout(fn, timeout)
        if rep:
            self.setup_walls.append(time.perf_counter() - t0)
        return out

    def warm_up(self, fn) -> None:
        """An untimed first build on a small input: starts the Ray
        workers and their imports, which the first build otherwise pays
        (about 3 s on one CPU)."""
        self.setup_step(fn, rep=False)

    def op(self, kind: str, fn, items: int = 0, check=None,
           timeout: float = QUERY_TIMEOUT_S, measured: bool = True):
        """Run one operation; returns its output, or None if it failed.
        ``fn`` may return (output, {part: seconds}) via ``Parts``."""
        self.attempted += 1
        rec: dict = {}

        def body():
            # spans nest per thread, so the operation's span opens here
            span = self.tracer.begin(f"op.{kind}") if self.tracer else None
            t0 = time.perf_counter()
            try:
                return fn()
            finally:
                rec["wall"] = time.perf_counter() - t0
                if span is not None:
                    self.tracer.end(span)
                    rec["span"] = span

        out, ok = None, True
        try:
            out = call_with_timeout(body, timeout)
        except Exception as e:  # the loop must survive any engine failure
            ok = False
            self.stuck += isinstance(e, OpTimeout)
            self.errors[f"{kind}: {root_cause(e)}"] += 1
        wall, span = rec.get("wall", timeout), rec.get("span")
        parts = {}
        if isinstance(out, Parts):
            out, parts = out.value, out.parts
        if ok and check is not None:
            try:
                check(out)
            except VerifyError as e:
                ok = False
                self.wrong += 1
                self.errors[f"{kind}: wrong result: {e}"] += 1
        if not ok:
            self.failed += 1
        if measured:
            self.ops.append(Op(kind, wall, ok, span, items, parts))
        return out if ok else None

    def walls(self, kind: str) -> list[float]:
        return [o.wall for o in self.ops if o.kind == kind and o.ok]

    def part_walls(self, kind: str, part: str) -> list[float]:
        return [o.parts[part] for o in self.ops
                if o.kind == kind and o.ok and part in o.parts]

    def throughput(self, kinds: tuple[str, ...]) -> float:
        ops = [o for o in self.ops if o.kind in kinds and o.ok]
        wall = sum(o.wall for o in ops)
        return sum(o.items for o in ops) / wall if wall else 0.0

    def build_transcripts_index(self, corpus: str, idx: str):
        from bm25_benchmarks_ray.config import IndexConfig

        return self.IB.build_index(corpus, idx, IndexConfig(),
                                   mode="transcripts", fresh=True)

    def build_documents_index(self, src, idx: str):
        from bm25_benchmarks_ray.config import IndexConfig

        return self.IB.build_index(src, idx, IndexConfig(),
                                   mode="documents", fresh=True)

    def search(self, idx, queries, k=K, **kw) -> pa.Table:
        return as_table(self.Q.search(idx, queries, k=k, **kw))


class Parts:
    """An operation's output plus the wall time of its parts."""

    def __init__(self, value, parts: dict[str, float]):
        self.value, self.parts = value, parts


def sorted_files(d: str) -> list[str]:
    return sorted(os.path.join(d, f) for f in os.listdir(d))


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


# -- workloads -------------------------------------------------------------

def batch(r: Run) -> None:
    """Repeated search() calls over one fixed query set, alternating the
    pruned k=10 path and the dense k=1000 path."""
    corpus = r.inputs.write_transcripts(INDEX_TURNS, r.path("corpus"))
    idx = r.path("index")
    r.warm_up(lambda: r.build_transcripts_index(sorted_files(corpus)[:1], idx))
    for _ in range(SETUP_REPS):
        r.setup_step(lambda: r.build_transcripts_index(corpus, idx))
    r.storage_index = idx
    queries = r.inputs.queries(BATCH_QUERIES, sub=0)
    qids = [q for q, _ in queries]
    first: dict[int, pa.Table] = {}

    def round_():
        t10, s10 = timed(lambda: r.search(idx, queries, k=10))
        t1k, s1k = timed(lambda: r.search(idx, queries, k=1000))
        return Parts((t10, t1k), {"k10": s10, "k1000": s1k})

    def check(out):
        t10, t1k = out
        check_topk(t10, qids, 10)
        check_topk(t1k, qids, 1000)
        for k, t in ((10, t10), (1000, t1k)):
            if k not in first:
                first[k] = t
            elif digest(t) != digest(first[k]):
                raise VerifyError(f"k={k} results changed between calls")

    t_end = time.perf_counter() + r.seconds
    while time.perf_counter() < t_end and r.guard_ok():
        r.op("round", round_, items=2 * len(queries), check=check)
    if 10 in first and 1000 in first:
        # the pruned top-10 must be the dense top-1000's first ten
        r.op("verify", lambda: same_ranking(first[10], first[1000], prefix=10,
                                            what="k=10 vs k=1000 prefix"),
             measured=False)
        r.digests.update(k10=digest(first[10]), k1000=digest(first[1000]))
    r.figures["batch_qps_k10"] = len(queries) / (median(r.part_walls("round", "k10")) or float("inf"))
    r.figures["batch_qps_k1000"] = len(queries) / (median(r.part_walls("round", "k1000")) or float("inf"))
    r.figures["op_p50_ms"] = 1e3 * median(r.walls("round"))
    r.figures["items_per_s"] = r.throughput(("round",))


def served_queries(r: Run, idx: str, n: int) -> tuple[list[tuple[str, str]], list[list[str]], set[str]]:
    """Queries for the served phase, built so the actors' decoded-term
    cache is in a fixed state: terms come from the ``WARM_TERMS``
    highest-df terms that ``warm_top_df`` loads, and every
    ``COLD_EVERY``-th query adds one index term no earlier query used.
    Returns the queries, each query's index terms, and the warm set."""
    import pyarrow.dataset as pads

    from bm25_benchmarks_ray.config import IndexConfig
    from bm25_benchmarks_ray.pipelines.index_build import VOCAB_DIR

    v = pads.dataset(os.path.join(idx, VOCAB_DIR)).to_table(columns=["term", "df"])
    terms = np.array(v.column("term").to_pylist(), dtype=object)
    df = v.column("df").to_numpy()
    top = np.argpartition(-df, WARM_TERMS - 1)[:WARM_TERMS]
    warm = set(terms[top].tolist())
    # surface word for each index term (the index stores analyzed terms)
    vocab = list(r.inputs.ranked)
    analyzed = r.Q.tokenize_queries([(w, w) for w in vocab], IndexConfig())
    surface: dict[str, str] = {}
    for w, c in analyzed:
        if len(c) == 1:
            surface.setdefault(next(iter(c)), w)
    in_index = set(terms.tolist())
    warm_words = sorted(surface[t] for t in warm if t in surface)
    cold_terms = sorted(t for t in in_index - warm if t in surface)
    rng = r.inputs.rng(PICK, 1)
    cold_terms = list(rng.permutation(cold_terms))
    out, qterms = [], []
    for i in range(n):
        words = list(rng.choice(warm_words, size=int(rng.integers(2, 5)), replace=False))
        if i % COLD_EVERY == 0 and cold_terms:
            words.append(surface[cold_terms.pop()])
        out.append((f"v{i:05d}", " ".join(words)))
    for _, c in r.Q.tokenize_queries(out, IndexConfig()):
        qterms.append(sorted(t for t in c if t in in_index))
    return out, qterms, warm


def interactive(r: Run) -> None:
    """Phase 1: one query per search() call.  Phase 2: one query per
    BM25Server.search() call against resident actors."""
    from bm25_benchmarks_ray.pipelines import serve

    corpus = r.inputs.write_transcripts(INDEX_TURNS, r.path("corpus"))
    idx = r.path("index")
    r.warm_up(lambda: r.build_transcripts_index(sorted_files(corpus)[:1], idx))
    for _ in range(SETUP_REPS):
        r.setup_step(lambda: r.build_transcripts_index(corpus, idx))
    r.storage_index = idx
    queries = r.inputs.queries(4000, sub=1, prefix="s")
    served, served_terms, warm = served_queries(r, idx, 4000)

    # the first search() after a build pays one-off costs; not timed
    r.setup_step(lambda: r.search(idx, queries[-1:]), rep=False)
    t_end = time.perf_counter() + SEARCH_SHARE * r.seconds
    i = 0
    while time.perf_counter() < t_end and r.guard_ok() and i < len(queries):
        q = queries[i]
        r.op("search", lambda: r.search(idx, [q]), items=1,
             check=lambda t: check_topk(t, [q[0]], K))
        i += 1

    # actors must all be placed, and hold no CPU a search() task needs
    # once the server is closed; on one CPU an actor asking for a whole
    # CPU per group would never start
    from bm25_benchmarks_ray.state.manifest import Manifest

    n_groups = len(Manifest.load(idx).done_groups())
    per_actor = min(1.0, r.ncpu / n_groups)
    t0 = time.perf_counter()
    srv = r.setup_step(lambda: serve.BM25Server(idx, num_cpus_per_actor=per_actor),
                       rep=False)
    try:
        r.setup_step(lambda: srv.warm_top_df(WARM_TERMS), rep=False)
        r.figures["serve.start_s"] = time.perf_counter() - t0
        known = set(warm)
        hits = total = 0
        results: dict[str, pa.Table] = {}
        t_end = time.perf_counter() + (1 - SEARCH_SHARE) * r.seconds
        j = 0
        while time.perf_counter() < t_end and r.guard_ok() and j < len(served):
            q = served[j]
            out = r.op("served", lambda: as_table(srv.search([q], k=K)), items=1,
                       check=lambda t: check_topk(t, [q[0]], K))
            hits += sum(t in known for t in served_terms[j])
            total += len(served_terms[j])
            known.update(served_terms[j])
            if out is not None and j % 10 == 0:
                results[q[0]] = out
            j += 1
        r.figures["serve.term_hit_share"] = hits / total if total else 0.0
    finally:
        r.op("close", srv.close, measured=False, timeout=30)

    if results:
        sample = [q for q in served if q[0] in results]
        r.digests["served_sample"] = digest(pa.concat_tables(results.values()))
        r.op("verify", lambda: same_ranking(
            r.search(idx, sample), pa.concat_tables(results.values()),
            what="served vs search()"), measured=False)
    lat = [1e3 * w for w in r.walls("search")]
    s_lat = [1e3 * w for w in r.walls("served")]
    r.figures.update(
        search_p50_ms=median(lat), search_samples=len(lat),
        served_p50_ms=median(s_lat), served_samples=len(s_lat),
    )
    r.figures["search_tail_ms"], r.figures["search_tail_pct"] = tail(lat) if lat else (0.0, 0.0)
    r.figures["served_tail_ms"], r.figures["served_tail_pct"] = tail(s_lat) if s_lat else (0.0, 0.0)
    r.figures["op_p50_ms"] = median(lat)
    r.figures["items_per_s"] = r.throughput(("search", "served"))


def tombstone_ids(r: Run, n_docs: int, sub: int) -> np.ndarray:
    rng = r.inputs.rng(PICK, sub)
    return np.sort(rng.choice(n_docs, size=int(n_docs * DELETE_SHARE), replace=False))


def live_mask_bitmap(n_docs: int, deleted: np.ndarray) -> np.ndarray:
    keep = np.ones(n_docs, dtype=bool)
    keep[deleted] = False
    return np.packbits(keep, bitorder="little")


def ingest(r: Run) -> None:
    """Cycles of: fresh transcripts build; documents base build; three
    appends; tombstones; compaction; a query probe after each change."""
    from bm25_benchmarks_ray.pipelines import tombstones
    from bm25_benchmarks_ray.state.manifest import Manifest

    n_docs = 4 * INGEST_PART_DOCS
    docs = r.inputs.documents(n_docs, sub=2)
    parts = write_parts(docs, r.path("docs"), 4)
    union = r.path("union.parquet")
    pq.write_table(docs, union)
    tr_corpus = r.inputs.write_transcripts(INGEST_TURNS, r.path("turns"), sub=3)
    text_bytes = sum(
        pc.sum(pc.binary_length(pq.read_table(f, columns=["text"]).column("text"))).as_py()
        for f in sorted_files(tr_corpus)
    )
    deleted = tombstone_ids(r, n_docs, 2)
    probe = r.inputs.queries(PROBE_QUERIES, sub=4, prefix="p")
    pids = [q for q, _ in probe]
    u_idx = r.path("union_index")
    r.warm_up(lambda: r.build_documents_index(parts[0], u_idx))
    for _ in range(SETUP_REPS):
        r.setup_step(lambda: r.build_documents_index(union, u_idx))
    ref_all = r.setup_step(lambda: r.search(u_idx, probe, join_back=False), rep=False)
    ref_live = r.setup_step(lambda: r.search(
        u_idx, probe, join_back=False, allowed=live_mask_bitmap(n_docs, deleted)), rep=False)

    r.digests.update(union=digest(ref_all), union_live=digest(ref_live))

    def expect(ref=None):
        def check(t):
            check_topk(t, pids, K)
            if ref is not None:
                same_ranking(t, ref, what="probe vs reference")
        return check

    # a cycle outlasts the run time on one CPU: run one, and another only
    # when it is expected to end in time
    t_end = time.perf_counter() + r.seconds
    c, last = 0, 0.0
    while (c == 0 or time.perf_counter() + last < t_end) and r.guard_ok():
        t0 = time.perf_counter()
        tr_idx, d_idx = r.path(f"cycle{c}", "turns_index"), r.path(f"cycle{c}", "docs_index")
        r.op("build", lambda: r.build_transcripts_index(tr_corpus, tr_idx),
             items=INGEST_TURNS, timeout=WRITE_TIMEOUT_S,
             check=lambda m: _expect_docs(m, INGEST_TURNS))
        r.op("probe", lambda: r.search(tr_idx, probe), check=expect())
        r.op("base", lambda: r.build_documents_index(parts[0], d_idx),
             items=INGEST_PART_DOCS, timeout=WRITE_TIMEOUT_S,
             check=lambda m: _expect_docs(m, INGEST_PART_DOCS))
        r.op("probe", lambda: r.search(d_idx, probe, join_back=False), check=expect())
        for p in (1, 2, 3):
            r.op("append", lambda: r.IB.append_index(parts[p], d_idx),
                 items=INGEST_PART_DOCS, timeout=WRITE_TIMEOUT_S,
                 check=lambda m: _expect_docs(m, (p + 1) * INGEST_PART_DOCS))
            r.op("probe", lambda: r.search(d_idx, probe, join_back=False),
                 check=expect(ref_all if p == 3 else None))
        r.op("delete", lambda: tombstones.delete_docs(d_idx, deleted),
             check=lambda n: _expect(n == deleted.size, f"{n} tombstones"))
        r.op("probe", lambda: r.search(d_idx, probe, join_back=False), check=expect(ref_live))
        r.op("compact", lambda: r.IB.compact_index(d_idx), items=n_docs,
             timeout=WRITE_TIMEOUT_S,
             check=lambda m: _expect(len(m.done_groups()) == 1, "groups after compaction"))
        # compacted results must match the appended-and-tombstoned ones
        r.op("probe", lambda: r.search(d_idx, probe, join_back=False), check=expect(ref_live))
        last = time.perf_counter() - t0
        r.ops.append(Op("cycle", last, True, None, 0, {}))
        if c == 0:
            r.storage_index = tr_idx
            if Manifest.load(tr_idx) is not None:
                r.figures["index_bytes_per_text_byte"] = dir_bytes(tr_idx) / text_bytes
        c += 1
    r.figures["build_turns_per_s"] = INGEST_TURNS / (median(r.walls("build")) or float("inf"))
    r.figures["append_docs_per_s"] = INGEST_PART_DOCS / (median(r.walls("append")) or float("inf"))
    r.figures["compact_docs_per_s"] = n_docs / (median(r.walls("compact")) or float("inf"))
    r.figures["op_p50_ms"] = 1e3 * median(r.walls("cycle"))
    r.figures["items_per_s"] = r.throughput(("build", "base", "append", "compact"))


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise VerifyError(what)


def _expect_docs(man, n: int) -> None:
    _expect(man is not None and man.is_complete() and man.stats["num_docs"] == n,
            f"index should hold {n} documents")


def bool_specs(r: Run, docs: pa.Table, deleted: np.ndarray, analyze):
    """MUST/SHOULD/MUST_NOT specs that match: MUST takes two terms of a
    live document, MUST_NOT a word that document lacks."""
    rng = r.inputs.rng(PICK, 3)
    dead = set(deleted.tolist())
    texts = docs.column("text")
    specs = []
    while len(specs) < BOOL_SPECS:
        d = int(rng.integers(docs.num_rows))
        words = texts[d].as_py().split()
        terms = analyze(texts[d].as_py())
        single = [w for w in dict.fromkeys(words) if len(analyze(w)) == 1]
        if d in dead or len(single) < 3:
            continue
        must = list(rng.choice(single, size=2, replace=False))
        while True:
            nw = str(r.inputs.ranked[int(rng.integers(200, 2000))])
            if not set(analyze(nw)) & set(terms):
                break
        should = str(r.inputs.ranked[int(rng.integers(0, 5000))])
        specs.append((f"b{len(specs):02d}", " ".join(must), should, nw))
    return specs


def filtered(r: Run) -> None:
    """Batches of user-filtered queries (allowed_shards over an id
    predicate, then search(allowed=...)) and boolean MUST/SHOULD/MUST_NOT
    batches, over a 4-group documents index with tombstones."""
    import ray.data as rd

    from bm25_benchmarks_ray.config import IndexConfig
    from bm25_benchmarks_ray.functions.tokenizer import resolve_stemmer, resolve_stopwords, tokenize_text
    from bm25_benchmarks_ray.pipelines import docfilter, phrase, tombstones
    from bm25_benchmarks_ray.state.manifest import Manifest

    n_docs = 4 * FILTER_PART_DOCS
    docs = r.inputs.documents(n_docs, sub=5)
    parts = write_parts(docs, r.path("docs"), 4)
    files = [f for p in parts for f in sorted_files(p)]
    idx = r.path("index")
    r.warm_up(lambda: r.build_documents_index(parts[0], idx))
    r.setup_step(lambda: r.build_documents_index(parts[0], idx))
    for p in parts[1:]:
        r.setup_step(lambda: r.IB.append_index(p, idx))
    deleted = tombstone_ids(r, n_docs, 4)
    r.setup_step(lambda: tombstones.delete_docs(idx, deleted), rep=False)
    r.storage_index = idx
    man = Manifest.load(idx)
    ranges = [(int(man.groups[str(g)]["doc_lo"]), int(man.groups[str(g)]["doc_hi"]))
              for g in man.done_groups()]
    modulus, residue = 8, int(r.inputs.rng(PICK, 5).integers(8))
    live = np.ones(n_docs, dtype=bool)
    live[deleted] = False
    allowed_live = live & (np.arange(n_docs) % modulus == residue)
    queries = r.inputs.queries(FILTER_QUERIES, sub=6, prefix="f")
    qids = [q for q, _ in queries]

    cfg = IndexConfig()
    sw, st = resolve_stopwords(cfg.stopwords), resolve_stemmer(cfg.stemmer)

    def analyze(text):
        return tokenize_text(text, stopwords=sw, stemmer=st)

    specs = bool_specs(r, docs, deleted, analyze)
    doc_terms: dict[int, set[str]] = {}
    texts = docs.column("text")

    def terms_of(d: int) -> set[str]:
        if d not in doc_terms:
            doc_terms[d] = set(analyze(texts[d].as_py()))
        return doc_terms[d]

    def predicate(b: pa.Table) -> pa.Table:
        return b.filter(pc.equal(pc.bit_wise_and(b.column("doc_id"), modulus - 1), residue))

    def round_():
        def filt():
            ids = rd.read_parquet(files, columns=["doc_id"]).map_batches(
                predicate, batch_format="pyarrow")
            shards = docfilter.allowed_shards(ids, n_docs, ranges)
            return r.search(idx, queries, allowed=shards, join_back=False)

        tf, sf = timed(filt)
        tb, sb = timed(lambda: as_table(phrase.bool_query_topk(idx, specs, k=K)))
        return Parts((tf, tb), {"filtered": sf, "bool": sb})

    def check(out):
        tf, tb = out
        check_topk(tf, qids, K)
        hit = tf.column("doc_id").to_numpy()
        if not allowed_live[hit].all():
            raise VerifyError("filtered hit outside the allowed live set")
        check_topk(tb, [s[0] for s in specs], None)
        spec = {s[0]: s for s in specs}
        for q, d in zip(tb.column("qid").to_pylist(), tb.column("doc_id").to_pylist()):
            _, must, _, must_not = spec[q]
            have = terms_of(d)
            if not live[d] or not set(analyze(must)) <= have or set(analyze(must_not)) & have:
                raise VerifyError(f"boolean hit {d} violates {q}")

    t_end = time.perf_counter() + r.seconds
    first = None
    while time.perf_counter() < t_end and r.guard_ok():
        out = r.op("round", round_, items=len(queries) + len(specs), check=check)
        if out is not None and first is None:
            first = out
            r.digests.update(filtered=digest(out[0]), boolean=digest(out[1]))
    r.figures["filtered_qps"] = len(queries) / (median(r.part_walls("round", "filtered")) or float("inf"))
    r.figures["boolq_qps"] = len(specs) / (median(r.part_walls("round", "bool")) or float("inf"))
    r.figures["op_p50_ms"] = 1e3 * median(r.walls("round"))
    r.figures["items_per_s"] = r.throughput(("round",))


WORKLOADS = {"batch": batch, "interactive": interactive,
             "ingest": ingest, "filtered": filtered}


# -- entry -------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--ray-dir", default=None)
    ap.add_argument("--cpus", type=int, required=True)
    a = ap.parse_args()

    import ray
    import ray.data

    ncpu = a.cpus
    os.makedirs(a.run_dir, exist_ok=True)
    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=256 * 1024 * 1024, _temp_dir=a.ray_dir)
    for name in ("ray", "ray.data", "ray.data._internal"):
        logging.getLogger(name).setLevel(logging.CRITICAL)
    ray.data.DataContext.get_current().enable_progress_bars = False

    tracer = Tracer() if a.trace else None
    r = Run(a.run_dir, a.seed, a.seconds, tracer, ncpu)
    try:
        if tracer:
            tracer.install()
        WORKLOADS[a.workload](r)
        if tracer:
            tracer.uninstall()
            last = max((s.e1 for s in tracer.roots), default=time.time())
            events = Events(collect_timeline(last))
    finally:
        if tracer:
            tracer.uninstall()
        try:
            call_with_timeout(ray.shutdown, 60)
        except OpTimeout:
            r.stuck += 1

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    r.figures["failed_ops"] = r.failed / r.attempted if r.attempted else 0.0
    print(json.dumps({"digest": {
        "workload": a.workload, "seed": a.seed, "ncpu": ncpu,
        "attempted": r.attempted, "failed": r.failed, "wrong": r.wrong,
        "setup_walls_s": [round(w, 4) for w in r.setup_walls],
        "ops": dict(Counter(o.kind for o in r.ops)),
        "results": r.digests, "errors": dict(r.errors),
        "figures": {k: round(v, 6) for k, v in sorted(r.figures.items())},
    }}), flush=True)

    if tracer:
        vals = layer_metrics(r.ops, r.figures, r.storage_index, events,
                             tracer.per_call_cost())
        for name, _ in PER_LAYER:
            if name not in vals:
                vals[name] = float(r.figures.get(name, 0.0))
        metrics = {n: {"value": float(vals[n]), "unit": u} for n, u in PER_LAYER}
    else:
        vals = {"setup_s": median(r.setup_walls), "driver_peak_rss_mb": rss_mb,
                "op_p50_ms": r.figures.get("op_p50_ms", 0.0),
                "items_per_s": r.figures.get("items_per_s", 0.0)}
        metrics = {n: {"value": float(vals[n]), "unit": u} for n, u in END_TO_END}
    print(json.dumps({"correct": r.wrong == 0, "attempted": r.attempted,
                      "failed": r.failed, "metrics": metrics}), flush=True)
    if r.stuck:
        # abandoned threads may sit in Ray calls that never return; the
        # parent kills what is left of the process group
        os._exit(0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
