"""Property-based invariants (SURVEY.md §5): codec roundtrips under
arbitrary inputs, BM25 monotonicity, block bounds dominance, and
union-of-segments ≡ single-segment scoring."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bm25_benchmarks_ray.functions.bm25 import BM25Params, tf_shape
from bm25_benchmarks_ray.functions.codec import (
    delta_decode_doc_ids,
    delta_encode_doc_ids,
    varint_decode,
    varint_encode,
    varint_encode_with_offsets,
)
from bm25_benchmarks_ray.stages.segments import decode_segment, encode_postings

u64s = st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=300)


@given(u64s)
@settings(max_examples=200, deadline=None)
def test_varint_roundtrip(vals):
    arr = np.array(vals, dtype=np.uint64)
    assert varint_decode(varint_encode(arr)).tolist() == vals


@given(u64s, st.integers(min_value=1, max_value=64))
@settings(max_examples=100, deadline=None)
def test_varint_offsets_slice_anywhere(vals, bs):
    arr = np.array(vals, dtype=np.uint64)
    buf, offs = varint_encode_with_offsets(arr, bs)
    for b in range(offs.size):
        end = int(offs[b + 1]) if b + 1 < offs.size else len(buf)
        piece = varint_decode(buf[int(offs[b]) : end])
        assert piece.tolist() == vals[b * bs : (b + 1) * bs]


@given(st.sets(st.integers(min_value=0, max_value=10**9), max_size=200))
@settings(max_examples=100, deadline=None)
def test_delta_roundtrip(docset):
    doc = np.array(sorted(docset), dtype=np.int64)
    assert delta_decode_doc_ids(delta_encode_doc_ids(doc)).tolist() == doc.tolist()


@given(
    st.sets(st.integers(min_value=0, max_value=10**7), min_size=1, max_size=400),
    st.integers(min_value=1, max_value=64),
)
@settings(max_examples=60, deadline=None)
def test_segment_range_decode(docset, bs):
    doc = np.array(sorted(docset), dtype=np.int64)
    rng = np.random.RandomState(len(doc))
    tf = rng.randint(1, 50, size=doc.size).astype(np.int64)
    dl = rng.randint(1, 300, size=doc.size).astype(np.int64)
    row = encode_postings("t", doc, tf, dl, bs)
    d, t = decode_segment(row, bs)
    assert d.tolist() == doc.tolist() and t.tolist() == tf.tolist()
    lo = int(doc[doc.size // 3])
    hi = int(doc[2 * doc.size // 3]) + 1
    d2, t2 = decode_segment(row, bs, lo, hi)
    mask = (doc >= lo) & (doc < hi)
    assert d2.tolist() == doc[mask].tolist()
    assert t2.tolist() == tf[mask].tolist()


@given(
    st.sampled_from(["lucene", "atire", "robertson", "bm25l", "bm25+"]),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=5, max_value=300),
)
@settings(max_examples=100, deadline=None)
def test_tf_shape_monotone_in_tf(method, tf, dl):
    p = BM25Params(method=method)
    a = tf_shape(p, np.array([tf]), np.array([dl]), 50.0)
    b = tf_shape(p, np.array([tf + 1]), np.array([dl]), 50.0)
    assert b[0] > a[0]


@given(
    st.sampled_from(["lucene", "bm25l", "bm25+"]),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=5, max_value=200),
)
@settings(max_examples=100, deadline=None)
def test_tf_shape_antitone_in_dl(method, tf, dl):
    # longer docs score lower for the same tf (b > 0)
    p = BM25Params(method=method)
    a = tf_shape(p, np.array([tf]), np.array([dl]), 50.0)
    b = tf_shape(p, np.array([tf]), np.array([dl + 10]), 50.0)
    assert b[0] < a[0]


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_union_of_segments_equals_single(seed):
    """Scoring a corpus split across two doc-partitioned segments and
    merging partial top-k == scoring one combined segment — the
    segment-union invariant the doc-partitioned query engine relies on."""
    rng = np.random.RandomState(seed)
    n = 60
    doc = np.arange(n, dtype=np.int64)
    terms = ["alpha", "beta", "gamma"]
    postings = {t: {} for t in terms}
    dl = rng.randint(3, 30, size=n).astype(np.int64)
    for t in terms:
        for d in range(n):
            if rng.random() < 0.4:
                postings[t][d] = int(rng.randint(1, 5))
    params = BM25Params()
    avgdl = float(dl.mean())

    def score_part(lo, hi):
        scores = {}
        for t in terms:
            items = [(d, tf) for d, tf in postings[t].items() if lo <= d < hi]
            if not items:
                continue
            df_global = len(postings[t])
            from bm25_benchmarks_ray.functions.bm25 import idf as idf_fn

            w = float(idf_fn(params, df_global, n))
            ds_ = np.array([d for d, _ in items])
            tfs = np.array([tf for _, tf in items], dtype=np.float64)
            vals = w * tf_shape(params, tfs, dl[ds_], avgdl)
            for d, v in zip(ds_, vals):
                scores[int(d)] = scores.get(int(d), 0.0) + v
        return scores

    whole = score_part(0, n)
    left = score_part(0, n // 2)
    right = score_part(n // 2, n)
    merged = {**left, **right}
    assert set(merged) == set(whole)
    for d in whole:
        assert abs(whole[d] - merged[d]) < 1e-12


def test_lowest_unmatched_matches_naive():
    """Vectorized gap-run padding == naive scan, randomized."""
    import numpy as np

    from bm25_benchmarks_ray.pipelines.query import _lowest_unmatched

    def naive(matched, lo, hi, k):
        s = set(matched.tolist())
        out = []
        for d in range(lo, hi):
            if len(out) >= k:
                break
            if d not in s:
                out.append(d)
        return np.array(out, dtype=np.int64)

    rng = np.random.RandomState(7)
    for _ in range(300):
        lo = rng.randint(0, 50)
        hi = lo + rng.randint(0, 60)
        k = rng.randint(0, 15)
        if hi > lo:
            n = rng.randint(0, hi - lo + 1)
            matched = np.sort(
                rng.choice(np.arange(lo, hi), size=min(n, hi - lo), replace=False)
            )
        else:
            matched = np.empty(0, dtype=np.int64)
        np.testing.assert_array_equal(
            _lowest_unmatched(matched, lo, hi, k), naive(matched, lo, hi, k)
        )


@given(
    st.lists(
        st.text(
            alphabet=st.characters(
                codec="utf-8", categories=("L", "N", "P", "Z", "S")
            ),
            max_size=60,
        ),
        max_size=20,
    )
)
@settings(max_examples=200, deadline=None)
def test_dict_token_stream_equals_python_re(texts):
    """The mixed ASCII/unicode fast path must reproduce the Python-re
    token stream exactly for ARBITRARY input, including batches mixing
    ASCII and non-ASCII rows in any order."""
    import numpy as np

    from bm25_benchmarks_ray.functions.tokenizer import (
        TOKEN_RE,
        dict_token_stream,
    )

    codes, uniq, doc_of, lens = dict_token_stream(texts, lower=True)
    ref_flat, ref_doc = [], []
    for i, s in enumerate(texts):
        toks = TOKEN_RE.findall(s.lower())
        ref_flat.extend(toks)
        ref_doc.extend([i] * len(toks))
        assert lens[i] == len(toks)
    assert list(uniq[codes] if len(codes) else []) == ref_flat
    assert list(doc_of) == ref_doc
    if len(codes):
        assert set(np.unique(codes)) == set(range(len(uniq)))
