"""Layer tracing from outside the engine.

Driver-side spans come from wrapping module attributes of the engine
(``_targets``): each wrapped call records its name, start and end, and
the span that was open when it began.  The engine resolves most of
these names at call time (``from .tombstones import load_tombstones``
inside ``search``), so a wrapped module attribute sees every call.
``serve.py`` binds ``ray`` at import; its ``ray.get`` is the scoring
round trip to the actors, so the module's ``ray`` is replaced by a
proxy whose ``get`` is traced.

Worker-side spans come from ``ray.timeline()``: one ``task::<name>``
event per Ray task, with its start and duration.  Events are assigned
to the driver span whose wall-clock window holds their start.

A span's self time is its duration minus its children's; over one
operation the self times of all its spans add up to the operation's
wall time, which the ``trace.sum_error_s`` metric checks.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time


class Span:
    __slots__ = ("name", "t0", "t1", "e0", "e1", "children", "info")

    def __init__(self, name: str):
        self.name = name
        self.children: list[Span] = []
        self.info = None
        self.e0 = time.time()
        self.t0 = time.perf_counter()
        self.t1 = self.t0
        self.e1 = self.e0

    @property
    def wall(self) -> float:
        return self.t1 - self.t0

    @property
    def self_time(self) -> float:
        return self.wall - sum(c.wall for c in self.children)

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()


def _targets():
    from bm25_benchmarks_ray.pipelines import docfilter, index_build, phrase, query, serve
    from bm25_benchmarks_ray.pipelines import tombstones
    from bm25_benchmarks_ray.state import manifest, norms

    return [
        (query, "search", "query.search"),
        (query, "tokenize_queries", "query.tokenize"),
        (query, "_query_plan", "query.plan"),
        (query, "_collect_arrow", "query.job"),
        (query, "_merge_partials_local", "query.merge"),
        (query, "load_offsets", "query.joinback"),
        (query, "docmap_from_offsets", "query.joinback"),
        (norms, "has_norms", "norms.has_norms"),
        (norms, "build_norms", "build.norms"),
        (tombstones, "load_tombstones", "tomb.load"),
        (tombstones, "delete_docs", "tomb.delete"),
        (docfilter, "compose_shards", "filter.compose"),
        (docfilter, "allowed_shards", "filter.shards"),
        (phrase, "bool_query_topk", "bool.query"),
        (phrase, "_postings_bitmaps", "bool.bitmaps"),
        (phrase, "search", "bool.search"),
        (index_build, "build_index", "build.index"),
        (index_build, "append_index", "build.append"),
        (index_build, "compact_index", "build.compact"),
        (index_build, "conv_offsets_local", "build.offsets"),
        (index_build, "_finalize_index", "build.finalize"),
        (serve.BM25Server, "search", "serve.search"),
        (serve.BM25Server, "_plan", "serve.plan"),
        (serve, "_merge_partials_local", "serve.merge"),
        (manifest.Manifest, "load", "manifest.load"),
    ]


class _RayProxy:
    """Stands in for ``ray`` inside one module; traces ``get``."""

    def __init__(self, real, get):
        self._real = real
        self.get = get

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Span recorder; ``install`` patches the engine, ``uninstall``
    restores it."""

    def __init__(self):
        self.roots: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def begin(self, name: str) -> Span:
        st = self._stack()
        sp = Span(name)
        if st:
            st[-1].children.append(sp)
        else:
            self.roots.append(sp)
        st.append(sp)
        return sp

    def end(self, sp: Span) -> None:
        sp.t1 = time.perf_counter()
        sp.e1 = time.time()
        st = self._stack()
        while st and st.pop() is not sp:
            pass

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sp = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
                if name == "build.norms":
                    # groups rebuilt, and the groups the index holds then
                    man = args[1] if len(args) > 1 else kwargs.get("man")
                    sp.info = (out, len(man.done_groups()) if man else None)
                return out
            finally:
                tracer.end(sp)

        return wrapper

    def install(self) -> None:
        for owner, attr, name in _targets():
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name))
            else:
                new = self._wrap(raw, name)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, new)
        from bm25_benchmarks_ray.pipelines import serve

        self._patches.append((serve, "ray", serve.ray))
        serve.ray = _RayProxy(serve.ray, self._wrap(serve.ray.get, "serve.score_rtt"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def per_call_cost(self, n: int = 5000) -> float:
        """Seconds one traced call adds over an untraced one."""
        probe = Tracer()
        fn = probe._wrap(lambda: None, "probe")
        bare = lambda: None  # noqa: E731
        t0 = time.perf_counter()
        for _ in range(n):
            bare()
        t1 = time.perf_counter()
        root = probe.begin("root")
        for _ in range(n):
            fn()
        t2 = time.perf_counter()
        probe.end(root)
        return max(0.0, ((t2 - t1) - (t1 - t0)) / n)


def collect_timeline(after: float, settle_s: float = 0.5,
                     max_wait_s: float = 8.0) -> list[dict]:
    """Task events from ``ray.timeline()``.  Workers report task events
    about once a second, so polling starts a second past ``after`` (the
    end of the last traced operation) and stops once the count holds."""
    import ray

    time.sleep(max(0.0, after + 1.0 - time.time()))
    deadline = time.time() + max_wait_s
    last = -1
    while True:
        events = [e for e in ray.timeline()
                  if str(e.get("cat", "")).startswith("task::")
                  and e.get("ph") == "X"]
        if len(events) == last or time.time() > deadline:
            return events
        last = len(events)
        time.sleep(settle_s)


# Ray Data operator names (the task event's ``cat``) -> build layer.
# Checked in order: a fused operator is charged to its first match.
BUILD_LAYERS = [
    ("norms_derive", ("MapBatches(derive)",)),
    ("merge_write", ("merge_sorted_block", "compact_merge", "Write")),
    ("shuffle", ("task::map", "task::reduce", "sort_sample")),
    ("tokenize", ("TokenizeRuns",)),
    ("read", ("ReadParquet",)),
]
SCORE_TASK = "task::MapBatches(score_slice)"
_INTERNAL = ("_StatsActor", "AutoscalingRequester", "datasets_stats_actor",
             "get_table_block_metadata_schema", "fetch_func", "_sample_fragment")


def engine_task(cat: str) -> bool:
    return not any(x in cat for x in _INTERNAL)


def build_layer(cat: str) -> str | None:
    for layer, keys in BUILD_LAYERS:
        if any(k in cat for k in keys):
            return layer
    return None


class Events:
    """Task events indexed by start time, for window queries."""

    def __init__(self, events: list[dict]):
        self.events = sorted(
            (e["ts"] / 1e6, e.get("dur", 0.0) / 1e6, e["cat"]) for e in events
        )
        self._starts = [e[0] for e in self.events]

    def within(self, e0: float, e1: float):
        import bisect

        i = bisect.bisect_left(self._starts, e0)
        j = bisect.bisect_right(self._starts, e1)
        return self.events[i:j]
