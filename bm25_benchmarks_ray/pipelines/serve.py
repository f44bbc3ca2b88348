"""Persistent low-latency BM25 serving over a built index.

``search()`` (pipelines/query.py) launches one Ray task per scatter
slice per call, and every task re-reads and re-decodes its query terms
from storage.  The reference's interactive path keeps a loaded model
resident (/root/reference/benchmark/inference/retrieve_mmap.py:16
loads once, queries many); the Ray-native analogue is a pool of
**persistent group-scorer actors**:

- one actor per index group, holding that group's segment rows and
  decoded posting lists in memory (warmed lazily, term by term);
- a query is one tiny plan broadcast to the actors (``actor.score``
  round-trip, milliseconds) + the driver-side merge;
- everything else is ``search()``'s own code: the ``Index`` handle
  (``Index.open``'s, with its term→df cache, tombstone shards and
  offsets, kept while the index's publish token is unchanged), the
  plan, the scoring core
  (``score_range``) and the finishing step (``_merge_partials_local``
  + ``finish_results``), so served results are rank-identical to the
  batch path (asserted in tests/test_serve.py).

The server follows its index: each call checks the manifest's publish
token.  A delete changes only the tombstones, so the new handle is
swapped in and the actors keep their caches; an append, a compaction or
a rebuild changes the groups, so every actor is restarted over the new
handle (their cached rows may come from replaced files).

This is the "shared mutable index held by raw Ray actors" case the
Dataset API genuinely cannot express: state must outlive any one
pipeline execution.  At cluster scale, actors spread across nodes
(one per group; groups are the doc partition) and each node serves its
shard's scoring locally.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pads
import ray

from ..config import IndexConfig
from ..functions.bm25 import BM25Params, nonoccurrence_shape
from .query import (
    Index,
    _DecodeCache,
    _EMPTY_PARTIALS,
    _concat_partials,
    _group_norms,
    _merge_partials_local,
    _partials_table,
    _query_plan,
    compose_masks,
    finish_results,
    query_plan_terms,
    score_range,
    tokenize_queries,
)


@ray.remote
class GroupScorer:
    """Resident scorer for one index group: caches segment rows and
    decoded (doc, tf_shape - s0) posting lists across queries."""

    def __init__(
        self,
        group_dir: str,
        doc_lo: int,
        params: BM25Params,
        avgdl: float,
        block_size: int,
        lo: int,
        hi: int,
        prune: bool,
        dense_pad: bool,
    ):
        self.group_dir = group_dir
        self.params = params
        self.avgdl = avgdl
        self.block_size = block_size
        self.lo, self.hi = lo, hi
        self.prune, self.dense_pad = prune, dense_pad
        # term -> list of segment-row parts (None = term absent here);
        # multiple parts appear when a term was split across sort
        # partitions at build time (segment_rows_by_term)
        self.rows: dict[str, list[dict] | None] = {}
        self.decoded = _DecodeCache(
            block_size, lo, hi, params, avgdl, nonoccurrence_shape(params),
            _group_norms(group_dir, doc_lo),
        )

    def warm(self, terms: list[str]) -> int:
        """Pre-load (and pre-decode) the given terms; returns hits."""
        self._ensure(terms)
        n = 0
        for t in terms:
            parts = self.rows.get(t)
            if parts is not None:
                for row in parts:
                    self.decoded(row)
                n += 1
        return n

    def _ensure(self, terms: list[str]) -> None:
        missing = [t for t in terms if t not in self.rows]
        if not missing:
            return
        from ..stages.segments import read_term_rows, segment_rows_by_term

        self.rows.update(segment_rows_by_term(read_term_rows(self.group_dir, missing)))
        for t in missing:
            self.rows.setdefault(t, None)

    def score(self, plan: dict, k: int) -> pa.Table:
        n_q = len(plan["qids"])
        terms = query_plan_terms(plan, 0, n_q)
        self._ensure(terms)
        rows_by_term = {
            t: parts for t in terms if (parts := self.rows.get(t)) is not None
        }
        if not rows_by_term and not self.dense_pad:
            return _EMPTY_PARTIALS
        return _partials_table(*score_range(
            plan, rows_by_term, self.params, self.avgdl, k, self.block_size,
            self.lo, self.hi, 0, n_q, self.prune, self.dense_pad, self.decoded,
        ))


class BM25Server:
    """Driver-side handle over the group-scorer actor pool.

    >>> srv = BM25Server(index_dir)            # actors spin up
    >>> srv.search([("q1", "ray data")])        # ~ms after warm-up
    >>> srv.close()
    """

    def __init__(
        self,
        index_dir: str,
        params: BM25Params | None = None,
        cfg: IndexConfig | None = None,
        mode: str = "pruned",
        join_back: bool = True,
        num_cpus_per_actor: float = 1.0,
    ):
        self.params = params or BM25Params()
        self.index_dir, self.cfg = index_dir, cfg
        self.prune = mode == "pruned"
        self.join_back = join_back
        self.num_cpus_per_actor = num_cpus_per_actor
        self.index = Index.open(index_dir, cfg)
        self.actors = self._start_actors()

    def _start_actors(self) -> list:
        ix = self.index
        return [
            GroupScorer.options(num_cpus=self.num_cpus_per_actor).remote(
                ix.group_dir(g), ix.spans[g][0], self.params, ix.avgdl,
                ix.cfg.block_size,
                *map(int, ix.slice_bounds(g, 1)), self.prune, ix.dense_pad,
            )
            for g in ix.gids
        ]

    def _follow(self) -> Index:
        """The handle of the index as published now (module docstring):
        a new handle after any publish, and new actors when the groups
        changed.  An index without a publish token keeps its first
        handle."""
        old = self.index
        if old.man.token:
            new = Index.open(self.index_dir, self.cfg)
            if new.man.token != old.man.token:
                self.index = new
                if (new.man.config, new.man.groups, new.man.stats) != (
                    old.man.config, old.man.groups, old.man.stats
                ):
                    self.close()
                    self.actors = self._start_actors()
        return self.index

    def warm(self, queries: list[tuple[str, str]]) -> None:
        """Pre-decode the terms of an expected query workload."""
        plan = self._plan(queries)
        terms = query_plan_terms(plan, 0, len(plan["qids"]))
        ray.get([a.warm.remote(terms) for a in self.actors])

    def warm_top_df(self, n: int = 1000) -> None:
        """Pre-decode the n highest-df vocab terms — the terms most
        likely to appear in unseen queries (and the most expensive to
        decode cold)."""
        import os

        from .index_build import VOCAB_DIR

        v = pads.dataset(os.path.join(self._follow().index_dir, VOCAB_DIR)).to_table(
            columns=["term", "df"]
        )
        df = v.column("df").to_numpy()
        take = min(n, df.size)
        if take == 0:
            return
        top = np.argpartition(-df, take - 1)[:take]
        terms = [v.column("term")[int(i)].as_py() for i in top]
        ray.get([a.warm.remote(terms) for a in self.actors])

    def _plan(self, queries: list[tuple[str, str]]) -> dict:
        ix = self._follow()
        plan = _query_plan(tokenize_queries(queries, ix.cfg), ix, self.params)
        # index-level deletes (tombstones.py): the handle composes its
        # live shards once and every plan carries them, as in search()
        masks = compose_masks(ix, [None] * len(queries))
        if masks is not None:
            plan["allowed_shards"], plan["mask_of"] = masks
        return plan

    def search(self, queries: list[tuple[str, str]], k: int = 10) -> pd.DataFrame:
        plan = self._plan(queries)
        ix = self.index
        parts = ray.get([a.score.remote(plan, k) for a in self.actors])
        merged = _merge_partials_local(
            _concat_partials(parts), plan, k, ix.num_docs, ix.legacy_pad
        )
        offsets = ix.offsets if self.join_back else None
        return finish_results(merged, plan, k, ix, offsets).to_pandas()

    def close(self) -> None:
        for a in self.actors:
            ray.kill(a)
        self.actors = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
