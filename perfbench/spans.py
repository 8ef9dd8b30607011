"""In-memory span recording around the program's layer boundaries.

The traced run installs a :class:`SpanRecorder` on the layers' public
functions from the benchmark's own files: each wrapped call becomes one
span ``{id, parent, name, start, end, pid}`` kept in memory and written
out once, when the process ends.  The program itself is not edited.

Pool workers record into their forked copy of the recorder; the
worker-side task shim ships those spans back on the task metadata the
pool already returns, so a traced fit sees the chi-square time spent in
workers too.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from perfbench.stats import self_times

#: ``(module, attribute path, span name)``: every layer boundary the
#: traced run records.  A dotted attribute path names a method.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.serve.validation", "unified_request_from_dict", "front.parse"),
    ("repro.serve.front.shards", "ShardSet.shard_for", "front.route"),
    ("repro.serve.front.admission", "AdmissionController.admit", "front.admission"),
    ("repro.serve.service", "RecommendationService.handle", "service.handle"),
    ("repro.serve.service", "RecommendationService.handle_batch", "service.handle"),
    ("repro.serve.service", "RecommendationService.invalidate", "service.invalidate"),
    ("repro.serve.batchplan", "execute_batch", "batchplan.execute"),
    ("repro.core.auric", "AuricEngine.resolve_request", "auric.resolve"),
    ("repro.core.auric", "AuricEngine.recommend_local", "auric.vote"),
    ("repro.core.auric", "AuricEngine.recommend_global", "auric.vote"),
    ("repro.core.auric", "AuricEngine.table_global_votes", "auric.vote"),
    ("repro.core.auric", "AuricEngine.fit", "auric.fit"),
    ("repro.core.columnar", "ColumnarSnapshot.encode", "columnar.encode"),
    ("repro.learners.chi_square", "marginal_tests", "chi_square.marginal"),
    (
        "repro.learners.chi_square",
        "test_conditional_independence",
        "chi_square.conditional",
    ),
    (
        "repro.learners.collaborative_filtering",
        "CollaborativeFilteringRecommender.fit_encoded",
        "collaborative_filtering.fit_encoded",
    ),
    ("repro.parallel.pool", "run_tasks", "pool.run"),
    ("repro.store.mmapfile", "MmapSnapshotStore.persist", "store.persist"),
    ("repro.store.mmapfile", "MmapSnapshotStore.load", "store.open"),
    ("repro.serve.artifacts", "save_engine", "artifacts.save"),
    ("repro.serve.artifacts", "load_engine", "artifacts.load"),
    ("repro.dataio.export", "snapshot_fingerprint", "artifacts.fingerprint"),
    ("repro.eval.runner", "evaluate_loo_chunk", "runner.loo_chunk"),
    ("repro.datagen.generator", "generate_dataset", "datagen.generate"),
    ("repro.dataio.load", "load_dataset_json", "dataio.load"),
)


class SpanRecorder:
    """Thread-safe in-memory span sink with per-thread parent stacks."""

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.pool_tasks: List[Dict] = []
        self.services: List = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append(
                    {
                        "id": span_id,
                        "parent": parent,
                        "name": name,
                        "start": start,
                        "end": end,
                        "pid": os.getpid(),
                    }
                )

        return recorded

    # -- installation -------------------------------------------------------

    def install(self, targets: Sequence[Tuple[str, str, str]] = TARGETS) -> int:
        """Wrap every target; returns how many call sites were patched.

        A module function is replaced in every loaded ``repro`` module
        that imported it by name, so callers holding a ``from x import
        f`` alias are recorded as well.
        """
        patched = 0
        for module_name, path, name in targets:
            module = importlib.import_module(module_name)
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if owner_path else getattr(module, attr)
            if isinstance(original, classmethod):
                wrapped = classmethod(self.wrap(name, original.__func__))
                setattr(owner, attr, wrapped)
                patched += 1
                continue
            wrapped = self.wrap(name, original)
            setattr(owner, attr, wrapped)
            patched += 1
            if owner_path:
                continue
            for other in list(sys.modules.values()):
                if other is module or not getattr(other, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapped)
                        patched += 1
        self._install_pool_shims()
        self._track_services()
        return patched

    def _track_services(self) -> None:
        """Keep every ``RecommendationService`` so the dump can report
        its vote-cache counters (they live in a per-service registry
        that ``/metrics`` does not expose)."""
        from repro.serve.service import RecommendationService

        recorder = self
        init = RecommendationService.__init__

        @functools.wraps(init)
        def tracked_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            recorder.services.append(self)

        RecommendationService.__init__ = tracked_init

    def _install_pool_shims(self) -> None:
        """Carry worker-side spans and busy time back to the master."""
        from repro.parallel import pool

        recorder = self
        run_timed = pool._run_timed
        note_task = pool._PoolMetrics.task

        @functools.wraps(run_timed)
        def timed_with_spans(wrapped):
            mark = len(recorder.spans)
            started = time.perf_counter()
            result, meta = run_timed(wrapped)
            meta = dict(meta)
            meta["perfbench"] = {
                "busy_s": time.perf_counter() - started,
                "spans": recorder.spans[mark:],
            }
            del recorder.spans[mark:]
            return result, meta

        @functools.wraps(note_task)
        def task_with_spans(self, submitted, meta):
            extra = meta.pop("perfbench", None) if meta else None
            if extra is not None:
                recorder.ingest(extra["spans"])
                recorder.pool_tasks.append(
                    {
                        "pool": id(self),
                        "pid": meta["pid"],
                        "submitted": submitted,
                        "started": meta["started"],
                        "busy_s": extra["busy_s"],
                    }
                )
            return note_task(self, submitted, meta)

        pool._run_timed = timed_with_spans
        pool._PoolMetrics.task = task_with_spans

    def ingest(self, spans: Sequence[Mapping]) -> None:
        """Adopt spans recorded in a worker, re-numbered into this
        recorder's id space (parents outside the batch keep their id:
        they are the master span that was open at fork time)."""
        renumber = {span["id"]: next(self._ids) for span in spans}
        for span in spans:
            adopted = dict(span)
            adopted["id"] = renumber[span["id"]]
            adopted["parent"] = renumber.get(span["parent"], span["parent"])
            self.spans.append(adopted)

    def dump(self, path: str) -> None:
        cache = {
            "hits": sum(service.metrics.cache_hits for service in self.services),
            "misses": sum(service.metrics.cache_misses for service in self.services),
        }
        with open(path, "w") as handle:
            json.dump(
                {"spans": self.spans, "pool_tasks": self.pool_tasks, "cache": cache},
                handle,
            )


# -- aggregation --------------------------------------------------------------


def outer_spans(spans: Sequence[Mapping], name: str) -> List[Mapping]:
    """Spans called ``name`` that are not nested in another span of the
    same name (recursion and overloads count once)."""
    by_id = {span["id"]: span for span in spans}

    def nested(span: Mapping) -> bool:
        parent = by_id.get(span["parent"])
        while parent is not None:
            if parent["name"] == name:
                return True
            parent = by_id.get(parent["parent"])
        return False

    return [s for s in spans if s["name"] == name and not nested(s)]


def layer_totals(spans: Sequence[Mapping]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total time (outermost spans) and self time."""
    selfs = self_times(spans)
    totals: Dict[str, Dict[str, float]] = {}
    for name in sorted({span["name"] for span in spans}):
        outer = outer_spans(spans, name)
        totals[name] = {
            "calls": float(sum(1 for s in spans if s["name"] == name)),
            "total_s": sum(s["end"] - s["start"] for s in outer),
            "self_s": sum(selfs[s["id"]] for s in spans if s["name"] == name),
        }
    return totals
