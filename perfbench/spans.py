"""Request traces for the talk-back benchmark, recorded from outside the program.

The program has no tracing of its own, so the traced run wraps the
public entry points of each layer (the table in :data:`LAYER_CALLS`)
with span recorders for the duration of the traced phase, then restores
the originals.  A span is ``[name, start_ns, end_ns, parent, request]``
and every span stays in memory until the run ends; the analysis works
on :meth:`Tracer.indexed` spans, whose parent is a list index.

Parents: a span's parent is the innermost open span of its own thread
or, when its thread has none open, the innermost open span of the event
loop thread.  The traced phase runs a single client, so at any instant
at most one request is in flight and a worker-thread span nests in time
under the service call that is awaiting it.

Self time is a span's duration minus the union of its children's
intervals; the request span's self time is what no layer accounts for.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import sys
import threading
from collections import defaultdict
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, attribute path, span name).  Module-level functions are
#: replaced in every ``repro`` module that imported them by name.
LAYER_CALLS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.service.service", "NarrationSession.translate", "service"),
    ("repro.service.service", "NarrationSession.execute", "service"),
    ("repro.service.service", "NarrationSession.explain_empty", "service"),
    ("repro.service.service", "NarrationSession.narrate_relation", "service"),
    ("repro.query_nl.translator", "QueryTranslator.translate", "query_nl.translate"),
    ("repro.query_nl.translator", "QueryTranslator.try_fast_translate", "query_nl.fast_translate"),
    ("repro.query_nl.empty_answer", "AnswerExplainer.explain", "query_nl.explain"),
    ("repro.sql.parser", "parse_sql", "sql.parse"),
    ("repro.sql.parser", "parse_select", "sql.parse"),
    ("repro.sql.shape", "sql_shape", "sql.shape"),
    ("repro.sql.shape", "batch_key", "sql.shape"),
    ("repro.querygraph.builder", "QueryGraphBuilder.build", "querygraph.build"),
    ("repro.querygraph.classify", "classify_graph", "querygraph.classify"),
    ("repro.engine.executor", "Executor.execute_sql", "engine.execute"),
    ("repro.engine.executor", "Executor.execute_select", "engine.execute"),
    ("repro.content.narrator", "ContentNarrator.narrate_query_answer", "content.narrate_answer"),
    ("repro.content.narrator", "ContentNarrator.narrate_relation", "content.narrate_relation"),
    ("repro.nlg.realize", "realize_sentence", "nlg.render"),
    ("repro.nlg.realize", "realize_sentences", "nlg.render"),
    ("repro.nlg.realize", "realize_paragraph", "nlg.render"),
    ("repro.storage.database", "Database.insert", "storage.dml"),
    ("repro.storage.database", "Database.delete_where", "storage.dml"),
    ("repro.storage.database", "Database.update_where", "storage.dml"),
    ("repro.storage.wal", "WriteAheadLog.append", "storage.wal"),
    ("repro.storage.wal", "WriteAheadLog.commit", "storage.wal"),
    ("repro.storage.durability", "DurabilityManager.checkpoint", "storage.checkpoint"),
)

REQUEST = "request"
#: Cyclic garbage collector pauses, wherever they strike.
GC = "runtime.gc"

NAME, START, END, PARENT, RID = range(5)


class Tracer:
    """Collects spans; one instance per traced phase."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.request_id: Optional[int] = None
        self.loop_thread = threading.get_ident()
        self._stacks: Dict[int, List[list]] = {}
        #: Executor scan-cache probes: [hits, lookups].
        self.scan_cache = [0, 0]
        #: WAL bytes appended.
        self.wal_bytes = 0
        self._gc: List[list] = []

    def begin(self, name: str) -> list:
        # The clock is read first in begin() and last in end(), so the
        # tracer's own bookkeeping is charged to the span it records and
        # not to the parent's self time.
        start = perf_counter_ns()
        stack = self._stacks.get(threading.get_ident())
        if stack is None:
            stack = self._stacks[threading.get_ident()] = []
        if stack:
            parent = stack[-1]
        else:
            loop_stack = self._stacks.get(self.loop_thread)
            parent = loop_stack[-1] if loop_stack else None
        # A span holds its parent span itself; list.append is atomic, so
        # worker and loop threads may record concurrently.
        span = [name, start, 0, parent, self.request_id]
        self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        self._stacks[threading.get_ident()].pop()
        span[END] = perf_counter_ns()

    def on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        """``gc.callbacks`` hook: collector pauses are spans of their own."""
        if phase == "start":
            self._gc.append(self.begin(GC))
        elif self._gc:
            self.end(self._gc.pop())

    def indexed(self) -> List[list]:
        """Spans inside requests, each parent given as an index into the list.

        Spans that no request encloses (the service's background work
        between requests) are left out.
        """
        kept: Dict[int, int] = {}
        out: List[list] = []
        for span in self.spans:
            name, start, end, parent, rid = span
            if parent is None:
                if name != REQUEST:
                    continue
                index = None
            else:
                index = kept.get(id(parent))
                if index is None:
                    continue
            kept[id(span)] = len(out)
            out.append([name, start, end, index, rid])
        return out


# ----------------------------------------------------------------------
# Instrumentation
# ----------------------------------------------------------------------


def _span_wrapper(original: Callable, name: str, tracer: Tracer) -> Callable:
    if inspect.iscoroutinefunction(original):
        # The span opens at the call, so creating the coroutines is
        # charged to the service API rather than to its caller.

        async def finish(coroutine, span):
            try:
                return await coroutine
            finally:
                tracer.end(span)

        @functools.wraps(original)
        def traced_call(*args, **kwargs):
            span = tracer.begin(name)
            return finish(original(*args, **kwargs), span)

        return traced_call

    @functools.wraps(original)
    def traced(*args, **kwargs):
        span = tracer.begin(name)
        try:
            return original(*args, **kwargs)
        finally:
            tracer.end(span)

    return traced


class Instrumentation:
    """Installs span wrappers on :data:`LAYER_CALLS`; :meth:`remove` undoes it."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: List[Tuple[Any, str, Any]] = []

    def _replace(self, owner: Any, attribute: str, value: Any) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def install(self) -> "Instrumentation":
        for module_name, path, name in LAYER_CALLS:
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, method = path.split(".")
                owner = getattr(module, class_name)
                self._replace(owner, method, _span_wrapper(owner.__dict__[method], name, self.tracer))
                continue
            original = getattr(module, path)
            wrapper = _span_wrapper(original, name, self.tracer)
            for loaded in list(sys.modules.values()):
                namespace = getattr(loaded, "__dict__", None)
                if (
                    namespace is not None
                    and getattr(loaded, "__name__", "").startswith("repro")
                    and namespace.get(path) is original
                ):
                    self._replace(loaded, path, wrapper)
        self._count_scan_cache()
        self._count_wal_bytes()
        gc.callbacks.append(self.tracer.on_gc)
        return self

    def _count_scan_cache(self) -> None:
        # The executor exposes no scan-cache counters; a probe is a hit
        # when its (table, binding) entry is cached at the table's version.
        from repro.engine.executor import Executor

        original = Executor.__dict__["_scan_rows"]
        counts = self.tracer.scan_cache

        def counted(executor, table, binding):
            if executor.use_caches:
                entry = executor._scan_cache.get((table.name, binding))
                counts[0] += entry is not None and entry[0] == table.version
                counts[1] += 1
            return original(executor, table, binding)

        self._replace(Executor, "_scan_rows", counted)

    def _count_wal_bytes(self) -> None:
        from repro.storage.wal import WriteAheadLog

        traced_append = WriteAheadLog.__dict__["append"]
        tracer = self.tracer

        def measured(log, *args, **kwargs):
            before = log._file.tell()
            try:
                return traced_append(log, *args, **kwargs)
            finally:
                tracer.wal_bytes += log._file.tell() - before

        self._replace(WriteAheadLog, "append", measured)

    def remove(self) -> None:
        gc.callbacks.remove(self.tracer.on_gc)
        while self._undo:
            owner, attribute, value = self._undo.pop()
            setattr(owner, attribute, value)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------


def self_times(spans: List[list]) -> List[int]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[PARENT] is not None:
            children[span[PARENT]].append(index)
    result = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0
        cursor = start
        for child in sorted(children.get(index, ()), key=lambda i: spans[i][START]):
            lo = max(spans[child][START], cursor)
            hi = min(spans[child][END], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(end - start - covered)
    return result


def layer_calls(spans: List[list], selfs: List[int], prefix: str) -> List[int]:
    """Self time of each outermost ``prefix`` call, summed over its nested same-layer spans."""
    totals: Dict[int, int] = {}
    top: List[Optional[int]] = []
    for index, span in enumerate(spans):
        parent = span[PARENT]
        inherited = top[parent] if parent is not None else None
        if span[NAME].startswith(prefix):
            root = inherited if inherited is not None else index
            totals[root] = totals.get(root, 0) + selfs[index]
            top.append(root)
        else:
            top.append(None if inherited is None else inherited)
    return list(totals.values())
