"""Seeded benchmark inputs, generated by the benchmark itself.

The engine only ever sees the files and query lists made here, so a
change to the engine's own synthetic sources cannot move the inputs.
Every generator draws from ``numpy.random.default_rng([seed, stream])``:
the same seed gives byte-identical corpora and queries, and each input
kind has its own stream so resizing one never shifts another.

Text follows the shape real BM25 corpora have: a ~12k-word vocabulary
drawn with a Zipf(1.1) law (a few head terms in a large share of the
documents, a long tail of rare ones), 4 to ~90 words per document and a
stopword in each.  Which word holds which rank depends on the seed.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

_SYLLABLES = [
    "ba", "co", "den", "fi", "gor", "hel", "jin", "kal", "lor", "mi",
    "nor", "pel", "qui", "ras", "sol", "tam", "ul", "vex", "wol", "zen",
]
_STOPWORDS = ["the", "and", "of", "to", "in", "is", "that", "for"]
VOCAB_SIZE = 12_000

# stream ids: one independent generator per input kind
TEXT, ORDER, CONV, QUERY, PICK = range(5)


def vocabulary() -> np.ndarray:
    """Fixed surface vocabulary: all two-syllable words, then
    three-syllable words up to ``VOCAB_SIZE``."""
    s = _SYLLABLES
    words = [a + b for a in s for b in s]
    words += [a + b + c for a in s for b in s for c in s]
    return np.array(words[:VOCAB_SIZE], dtype=object)


class Inputs:
    """All seeded inputs of one benchmark run."""

    def __init__(self, seed: int):
        self.seed = seed
        vocab = vocabulary()
        # the seed decides which word is frequent
        self.ranked = vocab[self.rng(ORDER).permutation(vocab.size)]
        ranks = np.arange(1, vocab.size + 1, dtype=np.float64)
        p = ranks ** -1.1
        self.text_p = p / p.sum()
        q = ranks ** -0.6  # queries lean less on the head terms
        self.query_p = q / q.sum()

    def rng(self, stream: int, sub: int = 0) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream, sub])

    def texts(self, n: int, sub: int = 0) -> list[str]:
        rng = self.rng(TEXT, sub)
        lens = np.minimum(4 + rng.geometric(1 / 14.0, size=n), 90)
        words = self.ranked[rng.choice(self.ranked.size, size=int(lens.sum()),
                                       p=self.text_p)]
        stop = rng.integers(0, len(_STOPWORDS), size=n)
        out: list[str] = []
        pos = 0
        for i, ln in enumerate(lens):
            out.append(" ".join(words[pos:pos + ln]) + " " + _STOPWORDS[stop[i]])
            pos += ln
        return out

    def write_transcripts(self, n_turns: int, out_dir: str, sub: int = 0,
                          n_files: int = 8) -> str:
        """(conv_id, turn_idx, text) rows over ``n_files`` parquet files;
        conversations hold 4..40 turns."""
        rng = self.rng(CONV, sub)
        sizes = rng.integers(4, 41, size=n_turns // 4 + 1)
        sizes = sizes[: int(np.searchsorted(np.cumsum(sizes), n_turns)) + 1]
        sizes[-1] -= int(sizes.sum() - n_turns)
        conv = np.repeat(np.arange(sizes.size), sizes)
        turn = np.concatenate([np.arange(s, dtype=np.int32) for s in sizes])
        table = pa.table({
            "conv_id": pa.array([f"c{c:07d}" for c in conv], type=pa.string()),
            "turn_idx": pa.array(turn, type=pa.int32()),
            "text": pa.array(self.texts(n_turns, sub), type=pa.string()),
        })
        os.makedirs(out_dir, exist_ok=True)
        step = -(-n_turns // n_files)
        for i, off in enumerate(range(0, n_turns, step)):
            pq.write_table(table.slice(off, step),
                           os.path.join(out_dir, f"part-{i:03d}.parquet"))
        return out_dir

    def documents(self, n_docs: int, sub: int = 0) -> pa.Table:
        """(doc_id, text) with dense ids 0..n_docs-1."""
        return pa.table({
            "doc_id": pa.array(np.arange(n_docs, dtype=np.int64)),
            "text": pa.array(self.texts(n_docs, sub), type=pa.string()),
        })

    def queries(self, n: int, sub: int = 0, prefix: str = "q",
                min_terms: int = 2, max_terms: int = 6) -> list[tuple[str, str]]:
        """Query lengths and term ranks come from a seed-independent
        draw and the seed picks the words at those ranks, so every seed's
        query set costs about the same: a query's cost is set by its
        terms' document frequencies, which the rank fixes."""
        rng = np.random.default_rng([QUERY, sub])
        lens = rng.integers(min_terms, max_terms + 1, size=n)
        words = self.ranked[rng.choice(self.ranked.size, size=int(lens.sum()),
                                       p=self.query_p)]
        out, pos = [], 0
        for i, ln in enumerate(lens):
            out.append((f"{prefix}{i:05d}", " ".join(words[pos:pos + ln])))
            pos += ln
        return out


def write_parts(table: pa.Table, root: str, n_parts: int) -> list[str]:
    """Split ``table`` into ``n_parts`` equal directories (one parquet
    file each); returns the directories in doc-id order."""
    step = -(-table.num_rows // n_parts)
    dirs = []
    for p in range(n_parts):
        d = os.path.join(root, f"part{p}")
        os.makedirs(d, exist_ok=True)
        pq.write_table(table.slice(p * step, step),
                       os.path.join(d, f"docs-{p}.parquet"))
        dirs.append(d)
    return dirs
