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
- everything else is ``search()``'s own code: the index view
  (``load_index_view``), the plan, the scoring core (``score_range``)
  and the finishing step (``_merge_partials_local`` +
  ``finish_results``), so served results are rank-identical to the
  batch path (asserted in tests/test_serve.py).

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
import pyarrow.compute as pc
import pyarrow.dataset as pads
import ray

from ..config import IndexConfig
from ..functions.bm25 import BM25Params, nonoccurrence_shape
from .index_build import load_offsets
from .query import (
    _DecodeCache,
    _EMPTY_PARTIALS,
    _concat_partials,
    _merge_partials_local,
    _partials_table,
    _query_plan,
    finish_results,
    load_index_view,
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
            block_size, lo, hi, params, avgdl, nonoccurrence_shape(params)
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
        from ..stages.segments import segment_rows_by_term

        seg = pads.dataset(self.group_dir).to_table(
            filter=pc.field("term").isin(missing)
        )
        self.rows.update(segment_rows_by_term(seg))
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
        dense_ids: bool = True,
        num_cpus_per_actor: float = 1.0,
    ):
        self.index_dir = index_dir
        self.params = params or BM25Params()
        self.view = v = load_index_view(index_dir, cfg, dense_ids)
        # index-level deletes: the NOT-deleted bitmap rides in every
        # plan so the scorers mask tombstoned docs (tombstones.py)
        from .tombstones import tombstone_allowed

        self.t_allowed = tombstone_allowed(index_dir, v.num_docs)
        if self.t_allowed is not None and v.legacy_pad:
            raise ValueError(
                "serving a tombstoned index requires contiguous group doc ranges"
            )
        self._df_cache: dict[str, int] = {}
        self.offsets = load_offsets(index_dir) if join_back else None
        self.actors = [
            GroupScorer.options(num_cpus=num_cpus_per_actor).remote(
                v.group_dir(g), self.params, v.avgdl, v.cfg.block_size,
                *v.group_range(g), mode == "pruned", v.dense_pad,
            )
            for g in v.gids
        ]

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

        v = pads.dataset(os.path.join(self.index_dir, VOCAB_DIR)).to_table(
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
        v = self.view
        plan = _query_plan(
            tokenize_queries(queries, v.cfg), self.index_dir, self.params,
            v.num_docs, avg_idf=v.man.stats.get("avg_robertson_idf"),
            df_cache=self._df_cache,
        )
        if self.t_allowed is not None:
            plan["allowed"] = self.t_allowed
        return plan

    def search(self, queries: list[tuple[str, str]], k: int = 10) -> pd.DataFrame:
        plan = self._plan(queries)
        parts = ray.get([a.score.remote(plan, k) for a in self.actors])
        merged = _merge_partials_local(
            _concat_partials(parts), plan, k,
            self.view.num_docs, self.view.legacy_pad,
        )
        return finish_results(merged, plan, k, self.view, self.offsets).to_pandas()

    def close(self) -> None:
        for a in self.actors:
            ray.kill(a)
        self.actors = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
