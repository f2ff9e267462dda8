"""Per-layer metrics of the traced phase: self times, call counts and cache ratios.

Times are milliseconds of self time per request (so the layers plus
``trace.unattributed_share`` of the request time add up to the mean
request latency), except ``engine.execute.self_ms.p50``/``.p99``, which
are percentiles over single engine calls.  Ratios and counts are deltas
of the program's own ``stats()``/``cache_stats`` over the traced phase.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Any, Dict, List, NamedTuple, Tuple

import spans

#: (metric, span name) pairs reported as mean self milliseconds per request.
SELF_MS = (
    ("service.self_ms", "service"),
    ("query_nl.translate.self_ms", "query_nl.translate"),
    ("query_nl.fast_translate.self_ms", "query_nl.fast_translate"),
    ("query_nl.explain.self_ms", "query_nl.explain"),
    ("sql.parse.self_ms", "sql.parse"),
    ("sql.shape.self_ms", "sql.shape"),
    ("querygraph.build.self_ms", "querygraph.build"),
    ("querygraph.classify.self_ms", "querygraph.classify"),
    ("engine.execute.self_ms", "engine.execute"),
    ("content.narrate_answer.self_ms", "content.narrate_answer"),
    ("content.narrate_relation.self_ms", "content.narrate_relation"),
    ("nlg.render.self_ms", "nlg.render"),
    ("storage.dml.self_ms", "storage.dml"),
    ("storage.wal.self_ms", "storage.wal"),
    ("storage.checkpoint.self_ms", "storage.checkpoint"),
    ("runtime.gc.self_ms", "runtime.gc"),
)


class Counts(NamedTuple):
    """What the benchmark itself counted over the traced phase."""

    requests: int
    writes: int
    write_sql_bytes: int
    vector_scans: int


def _total(stats: Dict[str, Any], *path: str) -> float:
    """Sum of one counter over every session in a ``NarrationService.stats()``."""
    total = 0
    for session in stats["sessions"]:
        value: Any = session
        for key in path:
            value = value.get(key) if isinstance(value, dict) else None
            if value is None:
                break
        total += value or 0
    return total


def _delta(before, after, *path: str) -> float:
    return _total(after, *path) - _total(before, *path)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), math.ceil(share * len(ordered))))
    return ordered[rank - 1]


def layer_metrics(
    tracer: "spans.Tracer",
    counts: Counts,
    before: Dict[str, Any],
    after: Dict[str, Any],
) -> Dict[str, Tuple[float, str]]:
    recorded = tracer.indexed()
    selfs = spans.self_times(recorded)
    requests = max(1, counts.requests)
    by_name: Dict[str, int] = defaultdict(int)
    request_ns = 0
    parse_calls = 0
    for span, self_ns in zip(recorded, selfs):
        by_name[span[spans.NAME]] += self_ns
        if span[spans.NAME] == spans.REQUEST:
            request_ns += span[spans.END] - span[spans.START]
        elif span[spans.NAME] == "sql.parse":
            parent = span[spans.PARENT]
            if parent is None or recorded[parent][spans.NAME] != "sql.parse":
                parse_calls += 1
    out: Dict[str, Tuple[float, str]] = {}
    for metric, name in SELF_MS:
        out[metric] = (by_name.get(name, 0) / requests / 1e6, "ms")
    engine_calls = [ns / 1e6 for ns in spans.layer_calls(recorded, selfs, "engine.")]
    out["engine.execute.self_ms.p50"] = (percentile(engine_calls, 0.50), "ms")
    out["engine.execute.self_ms.p99"] = (percentile(engine_calls, 0.99), "ms")
    out["sql.parse.calls"] = (parse_calls / requests, "1/req")

    # Exact-text and phrase-plan hits as shares of all translations: the
    # fast path probes the exact-text cache without recording misses.
    translates = _delta(before, after, "requests", "by_kind", "translate")
    out["service.fast_path_share"] = (
        _ratio(_delta(before, after, "requests", "fast_path_hits"), translates), "ratio"
    )
    out["service.batch_mean"] = (
        _ratio(
            _delta(before, after, "requests", "batched_requests"),
            _delta(before, after, "requests", "batches"),
        ),
        "req/batch",
    )
    for metric, cache in (("query_nl.exact_hit_rate", "exact_cache"), ("query_nl.plan_hit_rate", "plan_store")):
        out[metric] = (_ratio(_delta(before, after, "translator", cache, "hits"), translates), "ratio")
    shape = [
        _delta(before, after, "executor", "shape_plans", key)
        for key in ("hits", "misses", "fallbacks")
    ]
    out["engine.shape_hit_rate"] = (_ratio(shape[0], sum(shape)), "ratio")
    hits, lookups = tracer.scan_cache
    out["engine.scan_cache_hit_rate"] = (_ratio(hits, lookups), "ratio")
    out["engine.vector_scans"] = (float(counts.vector_scans), "count")

    out["storage.wal.appends"] = (
        _ratio(_delta(before, after, "durability", "wal", "appends"), counts.writes), "1/write"
    )
    out["storage.wal.syncs"] = (
        _ratio(_delta(before, after, "durability", "wal", "syncs"), counts.writes), "1/write"
    )
    out["storage.wal.bytes_per_sql_byte"] = (_ratio(tracer.wal_bytes, counts.write_sql_bytes), "B/B")
    out["storage.checkpoints"] = (_delta(before, after, "durability", "checkpoints"), "count")
    out["trace.unattributed_share"] = (_ratio(by_name.get(spans.REQUEST, 0), request_ns), "ratio")
    return out
