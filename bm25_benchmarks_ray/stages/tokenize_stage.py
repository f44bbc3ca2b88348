"""Stateful tokenizer stages (map_batches callables; run as TASK
pools — cross-batch state lives at worker-process level).

One actor = one compiled regex + stopword frozenset + shared LRU stem
cache (the reference stems the unique vocab once per corpus,
/root/reference/utils/__init__.py:104-126; the process-wide cache on
porter2.stem gives the same unique-token-once economy across batches).

Two output shapes:
- :class:`TokenizePostings` — exploded rows, one per (doc, unique
  term): the postings-table operator (driver oracle `tokenize_tf`).
- :class:`TokenizeRuns` — the index build's map-side combiner: one
  pre-encoded compressed run per (term, batch).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..config import IndexConfig
from ..functions.tokenizer import (
    TOKEN_RE,
    resolve_splitter,
    resolve_stemmer,
    resolve_stopwords,
    tokenize_text,
)
from ..state.norms import write_norms_part

POSTINGS_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("doc_id", pa.int64()),
        ("tf", pa.int32()),
        ("dl", pa.int32()),
        ("salt", pa.int32()),
    ]
)


class TokenizePostings:
    """map_batches callable (task pool or actor pool both work)."""

    def __init__(self, config: IndexConfig):
        self.findall = resolve_splitter(getattr(config, "splitter", "regex"))
        self.stopwords = resolve_stopwords(config.stopwords)
        self.stemmer = resolve_stemmer(config.stemmer)
        self.lower = config.lower
        self.salt_range = config.salt_range
        # Arrow fast path applies only under the default regex splitter
        # (RE2 split ≡ Python (?u)\b\w\w+\b on ASCII input)
        self.fast_splitter = getattr(config, "splitter", "regex") in (None, "regex")

    def terms(self, text: str) -> list[str]:
        """One text's ordered kept terms — the per-text analyzer every
        query-side entry point shares, term-for-term the stream
        :func:`_token_quad` indexes."""
        return tokenize_text(
            text, stopwords=self.stopwords, stemmer=self.stemmer,
            lower=self.lower, splitter=self.findall,
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_numpy()
        codes, uniq, doc_of, doc_lens = _token_quad(batch.column("text"), self)
        # one row per (doc, distinct term): sort occurrences by
        # (doc, term); equal runs are contiguous → tf = run length
        order = np.lexsort((codes, doc_of))
        c0, d0 = codes[order], doc_of[order]
        if c0.size:
            new_run = np.concatenate(
                ([True], (c0[1:] != c0[:-1]) | (d0[1:] != d0[:-1]))
            )
            starts = np.flatnonzero(new_run)
            ends = np.concatenate((starts[1:], [c0.size]))
            tf = (ends - starts).astype(np.int32)
            di = d0[starts]
            doc_arr = doc_ids[di]
            dls = doc_lens[di].astype(np.int32)
            terms = uniq[c0[starts]]
        else:
            tf = np.empty(0, dtype=np.int32)
            doc_arr = np.empty(0, dtype=np.int64)
            dls = np.empty(0, dtype=np.int32)
            terms = np.empty(0, dtype=object)
        return pa.table(
            {
                "term": pa.array(terms, type=pa.string()),
                "doc_id": pa.array(doc_arr, type=pa.int64()),
                "tf": pa.array(tf),
                "dl": pa.array(dls),
                "salt": pa.array((doc_arr // self.salt_range).astype(np.int32)),
            },
            schema=POSTINGS_SCHEMA,
        )


def _token_quad(
    texts_col, inner: TokenizePostings
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Dictionary-encoded, stopword-filtered, stemmed token stream for
    a whole batch: ``(codes, uniq, doc_of, doc_lens)`` where
    ``uniq[codes]`` is the flat final-term stream (doc-major, within-doc
    occurrence order preserved), ``doc_of`` the batch-local doc index
    per occurrence, and ``doc_lens`` the per-doc surviving token count
    (the reference's ``dl``).

    The raw stream comes from :func:`dict_token_stream` (Arrow C
    kernels for ASCII rows, exact Python-re for the rest, one unified
    dictionary); stopword membership and stemming then run over the
    DISTINCT tokens only — the reference's stem-unique-once economy
    (/root/reference/utils/__init__.py:104-126) taken further: the flat
    stream never materializes per-token Python objects.  Equality with
    the per-token reference pipeline is asserted in
    tests/test_tokenize_stage.py."""
    from ..functions.tokenizer import dict_token_stream

    codes, uniq0, doc_of, _ = dict_token_stream(
        texts_col, inner.lower, inner.fast_splitter, inner.findall
    )
    m = len(texts_col)
    stopwords, stemmer = inner.stopwords, inner.stemmer
    sw = (
        np.fromiter((u in stopwords for u in uniq0), bool, len(uniq0))
        if stopwords
        else np.zeros(len(uniq0), dtype=bool)
    )
    kept = ~sw
    sub = uniq0[kept]
    if stemmer is not None:
        sub = np.asarray([stemmer(u) for u in sub], dtype=object)
    # merge raw tokens stemming to the same term (small-side factorize:
    # distinct tokens only, never the flat stream)
    f_codes, f_uniq = (
        pd.factorize(sub, sort=False) if sub.size else (np.empty(0, np.int64), [])
    )
    if sw.any():
        occ_keep = kept[codes]
        codes = codes[occ_keep]
        doc_of = doc_of[occ_keep]
    remap = np.full(len(uniq0), -1, dtype=np.int64)
    remap[kept] = f_codes
    codes = remap[codes]
    doc_lens = np.bincount(doc_of, minlength=m).astype(np.int64)
    return codes, np.asarray(f_uniq, dtype=object), doc_of, doc_lens


class TokenizeRuns:
    """Combiner variant: per batch, emit ONE pre-encoded run row per
    term instead of one row per (term, doc) — the map-side combine that
    makes the sort(tid) shuffle move ~batch_size× fewer rows (and
    compressed binary payloads instead of raw int64 columns).  This is
    the shuffle-volume lever at 10^12-turn scale: the wide exchange
    carries (int64 tid, mostly-null term, salt, df, 3 varint blobs) per
    (term, batch), not 30+ bytes per posting and not a term string per
    run row.

    Term strings ride the exchange only on FIRST sight per WORKER
    PROCESS (a module-level ``seen`` set keyed by tokenizer config, so
    it survives across tasks AND actor calls alike): every term present
    in a group is guaranteed one string-bearing run row for the merge
    to recover, while hot terms stop paying string bytes after each
    worker's first batch.  The set is capped — past ``SEEN_CAP`` unique
    terms a worker just always emits the string (graceful, bounded
    memory at open-vocabulary scale).  Process-level state (plus the
    process-level Porter2 LRU) is what lets the build run this stage as
    a plain TASK pool: a measured ~6 s of 30-actor pool ramp per build
    disappears (8.1-8.7 s → 2.0-3.6 s stage wall at sf1.0).

    Output schema == stages.segments.RUN_SCHEMA: downstream is one
    sort(tid) + whole-partition merge per group (runs are re-sorted by
    doc_id at merge, so input file order never matters).

    Each batch also writes its (doc_id, dl) pairs under ``norms_parts``
    as one part file — the group's norms come from this pass, not a
    second one (state/norms.py).  Under ``IndexConfig(positions=True)``
    each run also carries its postings' kept-stream positions
    (``poss``, stages.segments.RUN_POS_SCHEMA), read off the same token
    stream.
    """

    SEEN_CAP = 4_000_000
    # per worker process, keyed by pipeline nonce: a set persisting
    # ACROSS builds would suppress strings a later build's merge needs
    _SEEN: dict[str, set] = {}

    def __init__(self, config: IndexConfig, norms_parts: str,
                 seen_scope: str | None = None):
        import uuid

        self.inner = TokenizePostings(config)
        self.salt_range = config.salt_range
        self.positions = config.positions
        self.norms_parts = norms_parts
        # one nonce per pipeline (driver-side, shared by every task of
        # this instance); fresh instance = fresh first-sight scope,
        # exactly the old fresh-actor-pool semantics
        self._seen_key = seen_scope or uuid.uuid4().hex

    @property
    def seen(self) -> set:
        s = self._SEEN
        # bound worker memory across pipelines: keep at most ONE other
        # pipeline's first-sight set (eviction is always safe — a fresh
        # set only re-emits term strings, never drops data).  At
        # SEEN_CAP=4M terms each retained set can hold multi-GB of
        # strings, so retaining 8 of them pinned real memory in
        # long-lived workers.
        if self._seen_key not in s and len(s) >= 2:
            s.pop(next(iter(s)))
        return s.setdefault(self._seen_key, set())

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.codec import varint_encode, varint_nbytes
        from .segments import RUN_POS_SCHEMA, RUN_SCHEMA, term_ids

        # tokenize straight into a dictionary-encoded flat stream (no
        # per-doc Counter: tf counting falls out of the (term, doc)
        # sort below)
        inner = self.inner
        batch_doc_ids = batch.column("doc_id").to_numpy()
        codes_all, uniq, doc_of, doc_lens = _token_quad(
            batch.column("text"), inner
        )
        write_norms_part(self.norms_parts, batch_doc_ids, doc_lens)
        tok_doc = batch_doc_ids[doc_of]
        tok_dl = doc_lens[doc_of].astype(np.uint64)
        # sort token occurrences by (term, doc); equal (term, doc) runs
        # are then contiguous → tf = run length
        order0 = np.lexsort((tok_doc, codes_all))
        c0 = codes_all[order0]
        d0 = tok_doc[order0]
        l0 = tok_dl[order0]
        if c0.size:
            new_run = np.concatenate(
                ([True], (c0[1:] != c0[:-1]) | (d0[1:] != d0[:-1]))
            )
            run_starts = np.flatnonzero(new_run)
            run_ends = np.concatenate((run_starts[1:], [c0.size]))
            tf_s = (run_ends - run_starts).astype(np.uint64)
            codes_s = c0[run_starts]
            doc_s = d0[run_starts].astype(np.int64)
            dl_s = l0[run_starts]
        else:
            tf_s = np.empty(0, dtype=np.uint64)
            codes_s = np.empty(0, dtype=np.int64)
            doc_s = np.empty(0, dtype=np.int64)
            dl_s = np.empty(0, dtype=np.uint64)
        n_terms = len(uniq)
        bounds = np.searchsorted(codes_s, np.arange(n_terms + 1))
        t_starts = bounds[:-1]

        # doc gaps with per-term absolute resets, then ONE varint encode
        # for the whole batch; per-term byte ranges come from the
        # encoded-length prefix sum (no per-term encode calls)
        gaps = np.empty(doc_s.size, dtype=np.uint64)
        if doc_s.size:
            np.subtract(
                doc_s[1:], doc_s[:-1], out=gaps[1:].view(np.int64), casting="unsafe"
            )
            gaps[t_starts] = doc_s[t_starts].astype(np.uint64)

        def encode_sliced(vals: np.ndarray, bnds: np.ndarray = bounds) -> list[bytes]:
            buf = varint_encode(vals)
            ends = np.cumsum(varint_nbytes(vals))
            byte_bounds = np.concatenate(([0], ends))[bnds]
            return [
                buf[byte_bounds[i] : byte_bounds[i + 1]] for i in range(n_terms)
            ]

        doc_bufs = encode_sliced(gaps)
        tf_bufs = encode_sliced(tf_s)
        dl_bufs = encode_sliced(dl_s)
        cols = {}
        if self.positions:
            # each occurrence's position in its doc's kept stream (the
            # stream is doc-major); the (term, doc) sort above is stable,
            # so a posting's positions ascend.  Stored per posting:
            # first absolute, then deltas — self-contained, so merges
            # splice or regroup postings without re-basing
            pos = np.arange(c0.size) - (np.cumsum(doc_lens) - doc_lens)[doc_of]
            p0 = pos[order0]
            gp = np.diff(p0, prepend=0)
            if c0.size:
                gp[run_starts] = p0[run_starts]
            cols["poss"] = pa.array(
                encode_sliced(gp.astype(np.uint64),
                              np.searchsorted(c0, np.arange(n_terms + 1))),
                type=pa.binary(),
            )

        df_per_term = np.diff(bounds)
        d0 = doc_s[t_starts] if doc_s.size else np.empty(0, np.int64)
        uniq_arr = np.asarray(uniq, dtype=object)
        tids = term_ids(uniq_arr)
        seen = self.seen
        if len(seen) < self.SEEN_CAP:
            term_out = [t if t not in seen else None for t in uniq_arr]
            seen.update(uniq_arr.tolist())
        else:
            term_out = list(uniq_arr)
        return pa.table(
            {
                "tid": pa.array(tids),
                "term": pa.array(term_out, type=pa.string()),
                "d0": pa.array(d0, type=pa.int64()),
                "df": pa.array(df_per_term.astype(np.int32)),
                "doc_ids": pa.array(doc_bufs, type=pa.binary()),
                "tfs": pa.array(tf_bufs, type=pa.binary()),
                "dls": pa.array(dl_bufs, type=pa.binary()),
                **cols,
            },
            schema=RUN_POS_SCHEMA if self.positions else RUN_SCHEMA,
        )
