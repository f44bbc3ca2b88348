"""Varint/delta codec roundtrip tests (SURVEY.md §5 unit plan)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from bm25_benchmarks_ray.functions.codec import (
    delta_decode_doc_ids,
    delta_encode_doc_ids,
    f32_decode,
    f32_encode,
    varint_decode,
    varint_encode,
)


def test_varint_empty():
    assert varint_encode(np.array([], dtype=np.uint64)) == b""
    assert varint_decode(b"").size == 0


def test_varint_known_bytes():
    # classic LEB128: 0->00, 127->7f, 128->80 01, 300->ac 02
    assert varint_encode(np.array([0], dtype=np.uint64)) == b"\x00"
    assert varint_encode(np.array([127], dtype=np.uint64)) == b"\x7f"
    assert varint_encode(np.array([128], dtype=np.uint64)) == b"\x80\x01"
    assert varint_encode(np.array([300], dtype=np.uint64)) == b"\xac\x02"


def test_varint_boundaries():
    vals = [0, 1, 127, 128, 16383, 16384, 2**21 - 1, 2**21, 2**63, 2**64 - 1]
    arr = np.array(vals, dtype=np.uint64)
    out = varint_decode(varint_encode(arr))
    np.testing.assert_array_equal(out, arr)


def test_varint_single_byte_fast_path():
    # an all-<128 stream takes the all-single-byte fast path; adding one
    # 2-byte value anywhere must flip the whole stream to the general
    # path with identical per-value results
    small = np.arange(128, dtype=np.uint64)
    out = varint_decode(varint_encode(small))
    np.testing.assert_array_equal(out, small)
    assert out.dtype == np.uint64
    mixed = np.concatenate([small, np.array([128], dtype=np.uint64), small])
    np.testing.assert_array_equal(varint_decode(varint_encode(mixed)), mixed)


@settings(max_examples=200)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=200))
def test_varint_roundtrip_property(vals):
    arr = np.array(vals, dtype=np.uint64)
    np.testing.assert_array_equal(varint_decode(varint_encode(arr)), arr)


@settings(max_examples=200)
@given(
    st.lists(st.integers(min_value=0, max_value=2**40), min_size=0, max_size=300, unique=True)
)
def test_delta_roundtrip_property(vals):
    arr = np.array(sorted(vals), dtype=np.int64)
    np.testing.assert_array_equal(delta_decode_doc_ids(delta_encode_doc_ids(arr)), arr)


def test_delta_compresses_dense_lists():
    dense = np.arange(10_000, dtype=np.int64) + 5_000_000
    enc = delta_encode_doc_ids(dense)
    # gap=1 postings: ~1 byte each after the absolute head
    assert len(enc) < 10_000 + 8
    np.testing.assert_array_equal(delta_decode_doc_ids(enc), dense)


def test_f32_roundtrip():
    x = np.array([0.0, 1.5, -2.25, 3.4e38], dtype=np.float32)
    np.testing.assert_array_equal(f32_decode(f32_encode(x)), x)


def test_decode_selected_blocks_matches_full():
    """Scattered-block single-pass decode == full decode restricted to
    those blocks, for randomized posting lists and block selections."""
    import numpy as np

    from bm25_benchmarks_ray.stages.segments import (
        decode_segment,
        decode_selected_blocks,
        encode_postings,
    )

    rng = np.random.RandomState(11)
    for trial in range(40):
        n = rng.randint(1, 700)
        bs = int(rng.choice([4, 16, 128]))
        doc = np.unique(rng.randint(0, 10_000, size=n)).astype(np.int64)
        tf = rng.randint(1, 50, size=doc.size).astype(np.int64)
        dl = rng.randint(1, 200, size=doc.size).astype(np.int64)
        row = encode_postings("t", doc, tf, dl, bs)
        nb = -(-doc.size // bs)
        k = rng.randint(1, nb + 1)
        blocks = np.sort(rng.choice(nb, size=k, replace=False))
        got_d, got_t = decode_selected_blocks(row, bs, blocks)
        full_d, full_t = decode_segment(row, bs)
        sel = np.concatenate(
            [np.arange(b * bs, min((b + 1) * bs, doc.size)) for b in blocks]
        )
        np.testing.assert_array_equal(got_d, full_d[sel])
        np.testing.assert_array_equal(got_t, full_t[sel])


def test_decode_selected_blocks_matches_full_large():
    """Payloads >= 8KB take the per-stream varint branch in
    decode_selected_blocks (the 1-byte fast-path preserver) — same
    equality contract as the small-payload fused branch above."""
    import numpy as np

    from bm25_benchmarks_ray.stages.segments import (
        decode_segment,
        decode_selected_blocks,
        encode_postings,
    )

    rng = np.random.RandomState(23)
    n = 40_000
    doc = np.unique(rng.randint(0, 4_000_000, size=n)).astype(np.int64)
    tf = rng.randint(1, 6, size=doc.size).astype(np.int64)
    dl = rng.randint(200, 3000, size=doc.size).astype(np.int64)
    bs = 128
    row = encode_postings("t", doc, tf, dl, bs)
    nb = -(-doc.size // bs)
    # scattered selection big enough that the gathered bytes cross 8KB
    blocks = np.sort(rng.choice(nb, size=nb // 3, replace=False))
    got_d, got_t = decode_selected_blocks(row, bs, blocks)
    full_d, full_t = decode_segment(row, bs)
    sel = np.concatenate(
        [np.arange(b * bs, min((b + 1) * bs, doc.size)) for b in blocks]
    )
    assert sel.size * 2 >= 8192  # the per-stream branch actually ran
    np.testing.assert_array_equal(got_d, full_d[sel])
    np.testing.assert_array_equal(got_t, full_t[sel])
