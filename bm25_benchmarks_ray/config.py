"""Engine configuration.

The tokenization/scoring surface mirrors the reference CLI flags
(/root/reference/benchmark/on_bm25s.py:263-380: method, k1, b, delta,
stopwords, stemmer_name, top_k, ...); the physical knobs (salt range,
block size, batch sizes, build overlap) are ours.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

from .functions.bm25 import BM25Params


@dataclass(frozen=True)
class IndexConfig:
    """Physical + tokenization configuration of an index build.

    The index is method-agnostic: segments store raw (tf, dl) per
    posting plus per-block (max_tf, min_dl) bounds, so any
    :class:`BM25Params` can be scored against one index (the reference's
    bm25s bakes one method's impacts in at index time,
    /root/reference/benchmark/on_bm25s.py:124-128 — our factorization
    keeps the same block-max pruning power without the rebuild).
    """

    stopwords: str = "en"          # "en" | "none"
    stemmer: str = "snowball"      # "snowball" | "none"
    lower: bool = True
    # token splitter: "regex" (reference (?u)\b\w\w+\b) or "hf:<name>"
    # (HuggingFace tokenizer — import-gated, §2.2 M9)
    splitter: str = "regex"

    # doc_id = conv_base_offset + turn rank; salt = doc_id // salt_range.
    # salt_range doubles as the doc-range sharding unit of the index:
    # a hot term's postings are split across salts so no single reduce
    # task sees more than salt_range postings for one term.
    salt_range: int = 262144
    # postings per scoring block inside a segment row (block-max unit)
    block_size: int = 128

    # tokenizer stage batch size (runs as a task pool; cross-batch
    # state lives at worker-process level — stages/tokenize_stage.py)
    tokenize_batch_size: int = 16384

    # store each posting's kept-stream token positions beside the
    # segments (phrase / NEAR retrieval, pipelines/positions.py); the
    # build writes them in the pass that writes the postings
    positions: bool = False

    # concurrent group sub-pipelines during the build: one group's
    # sort/merge barrier overlaps another's read/tokenize wave, so the
    # cluster never idles between groups.  Each pipeline's tokenizer
    # pool is sized to its 1/overlap share of the CPUs.
    build_overlap: int = 2

    # reduce partitions for the groupby(term) shuffle (None = cluster
    # CPUs).  The sort shuffle's fixed cost grows with in-blocks ×
    # out-partitions, so the run stream is coalesced to this many blocks
    # first — at bench scale this alone was a 2x build speedup.
    shuffle_partitions: int | None = None

    def tokenizer_kwargs(self) -> dict:
        return {"stopwords": self.stopwords, "stemmer": self.stemmer, "lower": self.lower}

    def semantic(self) -> dict:
        """The fields that change what an index holds — physical knobs
        excluded, so a resume with different batch sizes still matches."""
        sem = {
            "stopwords": self.stopwords,
            "stemmer": self.stemmer,
            "lower": self.lower,
            "splitter": self.splitter,
            "salt_range": self.salt_range,
            "block_size": self.block_size,
            "format": 4,  # 4: tid-keyed exchange, sorted-block merge
        }
        if self.positions:  # absent when off: such indexes keep their fingerprint
            sem["positions"] = True
        return sem

    def semantic_diff(self, other: "IndexConfig") -> list[str]:
        """The ``semantic`` fields in which ``other`` differs, sorted."""
        a, b = self.semantic(), other.semantic()
        return sorted(f for f in a.keys() | b.keys() if a.get(f) != b.get(f))

    def fingerprint(self) -> str:
        """Hash of the semantic config (``semantic``)."""
        return hashlib.sha256(
            json.dumps(self.semantic(), sort_keys=True).encode()).hexdigest()[:16]

    @classmethod
    def from_dict(cls, d: dict) -> "IndexConfig":
        """The config a manifest records (``to_dict``); keys this
        version does not know are ignored."""
        return cls(**{k: v for k, v in d.items() if k in cls.__dataclass_fields__})

    def to_dict(self) -> dict:
        return asdict(self)


DEFAULT_PARAMS = BM25Params()
