"""Span recording around the program's public calls, from outside the program.

A :class:`Tracer` wraps functions in pass-through wrappers that record one
span per call -- name, start, end, parent span and a per-call count -- in
memory; :func:`install` patches the wrappers in where each name is looked up
(a class attribute, or the module global of the importing module) and
returns a function that restores the originals.  Nothing under ``src/``
changes.  :func:`layer_metrics` turns a round's spans and counters into the
per-layer metrics listed in ``BENCHMARK.json``.

The parent of a span is the innermost traced call still open in the same
context: a :class:`contextvars.ContextVar` holds it, so spans nest correctly
inside a thread and inside an asyncio task, and a call made on the service's
engine-lane thread (whose context is not copied from the caller) starts a
new top-level span there.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import time
from typing import Any, Callable, Iterable, Sequence

#: One recorded span: (span id, name, start, end, parent id or -1, count).
Span = tuple


class Tracer:
    """Keeps every span in memory until the round writes them out."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "dsebench_span", default=-1
        )
        self._ids = itertools.count()

    def wrap(
        self,
        name: str,
        function: Callable,
        count: Callable[[tuple, dict, Any], int] | None = None,
    ) -> Callable:
        """A wrapper recording a ``name`` span around each call of ``function``.

        The wrapper returns exactly what ``function`` returns and re-raises
        whatever it raises (still recording the span, with count 0);
        ``count(args, kwargs, result)`` gives the span's work count (default
        1 per call).
        """
        spans = self.spans
        current = self._current
        clock = time.perf_counter
        ids = self._ids

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = current.get()
            token = current.set(span_id)
            start = clock()
            try:
                result = function(*args, **kwargs)
            except BaseException:
                current.reset(token)
                spans.append((span_id, name, start, clock(), parent, 0))
                raise
            end = clock()
            current.reset(token)
            n = 1 if count is None else int(count(args, kwargs, result))
            spans.append((span_id, name, start, end, parent, n))
            return result

        return traced


def _rows_arg(position: int) -> Callable[[tuple, dict, Any], int]:
    return lambda args, kwargs, result: len(args[position])


def _running_front_rows(args: tuple, kwargs: dict, result: Any) -> int:
    return len(args[0]) + len(args[1])


def _result_bytes(args: tuple, kwargs: dict, result: Any) -> int:
    return len(result)


def _arg_bytes(args: tuple, kwargs: dict, result: Any) -> int:
    return len(args[0])


class _JsonShim:
    """Stand-in for the ``json`` module global of ``repro.service.client``.

    The client decodes replies with ``json.loads`` directly, so its decode
    boundary is that lookup; every other attribute falls through.
    """

    def __init__(self, module: Any, loads: Callable) -> None:
        self._module = module
        self.loads = loads

    def __getattr__(self, name: str) -> Any:
        return getattr(self._module, name)


def install(tracer: Tracer) -> Callable[[], None]:
    """Patch traced wrappers onto the program's layer boundaries.

    Returns a function that puts every original back.
    """
    import repro.core.vectorized as vectorized
    import repro.dse.exhaustive as exhaustive
    import repro.dse.nsga2 as nsga2
    import repro.dse.space as space
    import repro.engine.engine as engine
    import repro.service.client as client
    import repro.service.protocol as protocol
    import repro.service.server as server

    patches: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attribute: str, name: str, count=None) -> None:
        original = owner.__dict__[attribute]
        patches.append((owner, attribute, original))
        if isinstance(original, classmethod):
            replacement = classmethod(tracer.wrap(name, original.__func__, count))
        else:
            replacement = tracer.wrap(name, original, count)
        setattr(owner, attribute, replacement)

    patch(vectorized.WbsnVectorizedKernel, "evaluate_columns", "kernel", _rows_arg(1))
    patch(space.DesignSpace, "index_matrix", "index_matrix", _rows_arg(1))
    patch(space.DesignSpace, "mutate_genotype", "mutate")
    patch(space.DesignSpace, "validate_genotype", "validate")
    patch(exhaustive.ExhaustiveSearch, "run", "exhaustive_run")
    patch(exhaustive, "running_front_indices", "running_front", _running_front_rows)
    patch(nsga2.Nsga2, "run", "nsga2_run")
    patch(nsga2, "non_dominated_sort", "non_dominated_sort")
    patch(nsga2, "crowding_distance", "crowding")
    patch(engine.EvaluationEngine, "evaluate_many_columnar", "evaluate", _rows_arg(1))
    patch(engine.EvaluationEngine, "evaluate_many", "evaluate", _rows_arg(1))
    patch(engine.EvaluationEngine, "materialise_rows", "materialise", _rows_arg(1))
    patch(engine.EvaluationEngine, "cached_row_flags", "attribution", _rows_arg(1))
    patch(engine.EvaluationEngine, "load_persistent_cache", "persist_load")
    patch(engine.EvaluationEngine, "spill_persistent_cache", "persist_spill")
    patch(server, "encode_message", "encode", _result_bytes)
    patch(client, "encode_message", "encode", _result_bytes)
    patch(server, "decode_line", "decode", _arg_bytes)
    patch(protocol.DesignRow, "from_wire", "from_wire")
    original_json = client.json
    patches.append((client, "json", original_json))
    client.json = _JsonShim(
        original_json, tracer.wrap("decode", original_json.loads, _arg_bytes)
    )

    def restore() -> None:
        for owner, attribute, original in reversed(patches):
            setattr(owner, attribute, original)

    return restore


# ------------------------------------------------------------ span arithmetic


def covered_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    run_start = run_end = None
    for start, end in sorted(intervals):
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        elif end > run_end:
            run_end = end
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = {}
    for span_id, _, start, end, _, _ in spans:
        clipped = [
            (max(child_start, start), min(child_end, end))
            for child_start, child_end in children.get(span_id, ())
            if child_end > start and child_start < end
        ]
        result[span_id] = (end - start) - covered_length(clipped)
    return result


def _totals(spans: Sequence[Span]) -> dict[str, list[float]]:
    """Per span name: [summed seconds, summed count, calls, summed self s]."""
    own = self_times(spans)
    totals: dict[str, list[float]] = {}
    for span_id, name, start, end, _, n in spans:
        entry = totals.setdefault(name, [0.0, 0, 0, 0.0])
        entry[0] += end - start
        entry[1] += n
        entry[2] += 1
        entry[3] += own[span_id]
    return totals


def layer_metrics(spans: Sequence[Span], counters: dict) -> dict[str, float]:
    """Per-layer metrics of one traced round.

    ``counters`` carries what the round read from the program's own public
    counters: the engine-stats delta of the timed call (``engine``), the
    pruning-kernel dispatch deltas (``prune``), the memo size, the segment
    size, the service's admission and lane snapshots, and the client-side
    request latencies (``latencies_s``).  A layer the workload does not
    exercise reports 0.
    """
    totals = _totals(spans)

    def seconds(name: str) -> float:
        return totals.get(name, [0.0])[0]

    def work(name: str) -> float:
        return totals.get(name, [0.0, 0])[1]

    def own(name: str) -> float:
        return totals.get(name, [0.0, 0, 0, 0.0])[3]

    stats = counters.get("engine", {})
    prune = counters.get("prune", {})
    admission = counters.get("admission", {})
    lane = counters.get("lane", {})
    requests = stats.get("genotype_requests", 0)
    batches = stats.get("batches", 0)
    metrics = {
        "core.vectorized.kernel_s": seconds("kernel"),
        "core.vectorized.kernel_rows": work("kernel"),
        "dse.space.index_matrix_s": seconds("index_matrix"),
        "dse.space.index_matrix_rows": work("index_matrix"),
        "dse.space.mutate_s": seconds("mutate"),
        "dse.space.mutate_calls": work("mutate"),
        "dse.space.validate_calls": work("validate"),
        "dse.exhaustive.self_s": own("exhaustive_run"),
        "dse.nsga2.self_s": own("nsga2_run"),
        "dse.pareto.running_front_s": seconds("running_front"),
        "dse.pareto.running_front_calls": totals.get("running_front", [0, 0, 0])[2],
        "dse.pareto.running_front_rows_in": work("running_front"),
        "dse.pareto.kernel_skyline_2d": prune.get("skyline_2d", 0),
        "dse.pareto.kernel_skyline_kd": prune.get("skyline_kd", 0),
        "dse.pareto.kernel_blockwise": prune.get("blockwise", 0),
        "dse.pareto.non_dominated_sort_s": seconds("non_dominated_sort"),
        "dse.pareto.crowding_s": seconds("crowding"),
        "engine.evaluate_s": seconds("evaluate"),
        "engine.evaluate_self_s": own("evaluate"),
        "engine.batches": batches,
        "engine.rows_requested": requests,
        "engine.model_evaluations": stats.get("model_evaluations", 0),
        "engine.hit_share": (
            stats.get("genotype_cache_hits", 0) / requests if requests else 0.0
        ),
        "engine.memo_rows": counters.get("memo_rows", 0),
        "engine.materialise_s": seconds("materialise"),
        "engine.designs_materialised": stats.get("designs_materialised", 0),
        "engine.persist.load_s": seconds("persist_load"),
        "engine.persist.rows_loaded": stats.get("rows_loaded_from_disk", 0),
        "engine.persist.hits": stats.get("persistent_cache_hits", 0),
        "engine.persist.spill_s": seconds("persist_spill"),
        "engine.persist.segment_bytes": counters.get("segment_bytes", 0),
        "service.protocol.encode_s": seconds("encode"),
        "service.protocol.decode_s": seconds("decode"),
        "service.protocol.from_wire_s": seconds("from_wire"),
        "service.protocol.bytes": work("encode"),
        "service.batcher.requests_per_batch": (
            lane["items_coalesced"] / lane["batches_coalesced"]
            if lane.get("batches_coalesced")
            else 0.0
        ),
        "service.batcher.attribution_s": seconds("attribution"),
        "service.admission.admitted": admission.get("admitted", 0),
        "service.admission.rejected": admission.get("rejected", 0),
    }
    latencies = counters.get("latencies_s", [])
    if lane and latencies and batches:
        engine_s = seconds("evaluate") / batches
        wire_s = (
            seconds("encode") + seconds("decode") + seconds("from_wire")
        ) / len(latencies)
        mean_latency = sum(latencies) / len(latencies)
        metrics["service.batcher.engine_ms"] = 1e3 * engine_s
        metrics["service.batcher.wait_ms"] = 1e3 * (mean_latency - engine_s - wire_s)
    else:
        metrics["service.batcher.engine_ms"] = 0.0
        metrics["service.batcher.wait_ms"] = 0.0
    return {name: float(value) for name, value in metrics.items()}
