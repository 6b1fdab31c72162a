"""One measured round of a workload, in a fresh interpreter.

``run.py`` starts this program once per round as
``python3 bench_round.py <spec.json>`` with ``PYTHONPATH`` pointing at the
checkout's ``src``.  The spec names the workload, its inputs and whether to
trace; the round writes its measurements to the spec's ``result`` path (and,
when traced, its spans to ``spans``).  A fresh process per round makes every
round a cold start -- empty memos, an unloaded segment -- and gives each one
its own set-up time and peak RSS.  The host-speed probe runs right before
and right after the timed call, outside both the set-up and the timed window.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


#: The host-speed probe: one fixed pure-Python loop of this many iterations,
#: about 0.16 s on the reference host (``run.REFERENCE_PROBE_S``).
PROBE_ITERATIONS = 2_000_000


def host_probe() -> float:
    """Seconds the fixed probe loop takes now: the host's current speed."""
    started = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - started


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _row_signature(genotype, objectives, feasible, violations) -> list:
    """A design row in a bitwise-comparable JSON form."""
    return [
        [int(gene) for gene in genotype],
        [float(value).hex() for value in objectives],
        bool(feasible),
        int(violations),
    ]


def front_signature(front) -> list:
    """The front's rows, in order, as :func:`_row_signature` lists."""
    return [
        _row_signature(d.genotype, d.objectives, d.feasible, d.violation_count)
        for d in front
    ]


def sweep_problem(engine):
    from repro.dse.problem import WbsnDseProblem
    from repro.experiments.casestudy import build_case_study_evaluator

    return WbsnDseProblem(
        build_case_study_evaluator(n_nodes=3), payload_bytes=(80,), engine=engine
    )


def nsga2_problem(engine):
    from repro.dse.problem import WbsnDseProblem
    from repro.experiments.casestudy import build_case_study_evaluator

    return WbsnDseProblem(build_case_study_evaluator(n_nodes=10), engine=engine)


def sweep_algorithm(problem, chunk_size: int):
    from repro.dse.exhaustive import ExhaustiveSearch

    return ExhaustiveSearch(
        problem, chunk_size=chunk_size, max_configurations=problem.space.size
    )


def nsga2_algorithm(problem, spec: dict):
    from repro.dse.nsga2 import Nsga2, Nsga2Settings

    return Nsga2(
        problem,
        Nsga2Settings(
            population_size=spec["population"],
            generations=spec["generations"],
            seed=spec["nsga2_seed"],
        ),
    )


def _stamped(starts: list, function):
    """``function`` with the start time of each call appended to ``starts``."""

    def stamped(*args, **kwargs):
        starts.append(time.perf_counter())
        return function(*args, **kwargs)

    return stamped


def _memo_rows(engine, genotypes) -> int:
    """How many of ``genotypes`` the engine's memos hold, column rows included.

    ``genotype_cache_size`` counts memoised design objects only; the
    columnar paths memoise raw rows, which only ``cached_row_flags`` sees.
    """
    return sum(engine.cached_row_flags(list(genotypes)))


def _run_search(spec: dict, report: dict) -> None:
    """sweep_cold, sweep_warm and nsga2_search: one ``run_algorithm`` call."""
    from repro.dse.pareto import prune_kernel_counts
    from repro.dse.runner import run_algorithm
    from repro.engine import EvaluationEngine

    engine = EvaluationEngine()
    # A search's request latency is one step of its loop, from one batch
    # request to the next: a sweep chunk with its archive merge, or an
    # NSGA-II generation with its selection and offspring.
    starts: list[float] = []
    if spec["workload"] == "nsga2_search":
        problem = nsga2_problem(engine)
        algorithm = nsga2_algorithm(problem, spec)
        problem.evaluate_batch = _stamped(starts, problem.evaluate_batch)
    else:
        problem = sweep_problem(engine)
        algorithm = sweep_algorithm(problem, spec["chunk_size"])
        problem.evaluate_batch_columns = _stamped(
            starts, problem.evaluate_batch_columns
        )
    cache_dir = spec.get("cache_dir")
    prune_before = prune_kernel_counts()
    report["ready"] = time.monotonic()
    report["probe_s"] = [host_probe()]
    started = time.perf_counter()
    result = run_algorithm(algorithm, cache_dir=cache_dir)
    report["window"] = [started, time.perf_counter()]
    report["probe_s"].append(host_probe())
    report["time_to_front_s"] = report["window"][1] - started
    report["peak_rss_mb"] = _peak_rss_mb()
    report["rows"] = result.evaluations
    report["latencies_s"] = [later - earlier for earlier, later in zip(starts, starts[1:])]
    report["front"] = front_signature(result.front)
    prune_after = prune_kernel_counts()
    if spec["workload"] == "nsga2_search":
        memo_rows = engine.genotype_cache_size
    else:
        memo_rows = _memo_rows(engine, problem.space.enumerate_genotypes())
    report["counters"] = {
        "engine": result.engine_stats.as_dict(),
        "prune": {key: prune_after[key] - prune_before[key] for key in prune_after},
        "memo_rows": memo_rows,
        "segment_bytes": (
            sum(path.stat().st_size for path in Path(cache_dir).iterdir())
            if cache_dir
            else 0
        ),
    }


async def _serve_stream(spec: dict, report: dict) -> None:
    """service_mixed: one service, two closed-loop clients, one event loop."""
    import asyncio

    import numpy as np

    from repro.engine import EvaluationEngine
    from repro.service import DseService, DseServiceClient, ServiceError

    stream = np.load(spec["stream"])
    # Lists of gene lists, built before the clock starts: the program
    # receives only genotypes.
    requests = [batch.tolist() for batch in stream]
    problem = sweep_problem(EvaluationEngine())
    service = DseService(problem, socket_path=spec["socket"], close_engine=True)
    await service.start()
    clients = [
        await DseServiceClient.connect(path=spec["socket"], client_id=f"c{n}")
        for n in range(spec["clients"])
    ]
    latencies: list[float] = []
    replies: dict[int, tuple] = {}
    failed: list[int] = []

    async def closed_loop(client, indices) -> None:
        for index in indices:
            started = time.perf_counter()
            try:
                reply = await client.evaluate(requests[index])
            except (ServiceError, ConnectionError):
                failed.append(index)
                continue
            latencies.append(time.perf_counter() - started)
            replies[index] = reply.rows

    n_clients = len(clients)
    report["ready"] = time.monotonic()
    report["probe_s"] = [host_probe()]
    started = time.perf_counter()
    await asyncio.gather(
        *(
            closed_loop(client, range(n, len(requests), n_clients))
            for n, client in enumerate(clients)
        )
    )
    report["window"] = [started, time.perf_counter()]
    report["probe_s"].append(host_probe())
    report["time_to_front_s"] = report["window"][1] - started
    report["peak_rss_mb"] = _peak_rss_mb()
    snapshot = service.snapshot()
    distinct = np.unique(stream.reshape(-1, stream.shape[-1]), axis=0)
    memo_rows = _memo_rows(problem.engine, distinct.tolist())
    for client in clients:
        await client.close()
    await service.stop()
    report["rows"] = sum(len(requests[index]) for index in replies)
    report["latencies_s"] = latencies
    report["counters"] = {
        "engine": snapshot["engine"],
        "memo_rows": memo_rows,
        "admission": snapshot["admission"],
        "lane": snapshot["lane"],
        "latencies_s": latencies,
    }

    # Correctness, outside the timed window: every reply row must equal the
    # uncached engine's row for its genotype, bit for bit.
    reference = sweep_problem(
        EvaluationEngine(genotype_cache=False, node_cache=False)
    )
    columns = reference.evaluate_batch_columns(distinct)
    expected = {
        tuple(row): _row_signature(row, objectives, feasible, violations)
        for row, objectives, feasible, violations in zip(
            distinct.tolist(),
            columns.objectives.tolist(),
            columns.feasible.tolist(),
            columns.violation_counts.tolist(),
        )
    }
    wrong = 0
    for index, rows in replies.items():
        served = [
            _row_signature(r.genotype, r.objectives, r.feasible, r.violation_count)
            for r in rows
        ]
        if served != [expected[tuple(row)] for row in requests[index]]:
            wrong += 1
    report["attempted"] = len(requests)
    report["failed"] = len(failed) + wrong


def _write_segment(spec: dict) -> None:
    """The sweep_warm fixture: one cold sweep that spills its memo to disk."""
    from repro.dse.runner import run_algorithm
    from repro.engine import EvaluationEngine

    problem = sweep_problem(EvaluationEngine())
    run_algorithm(
        sweep_algorithm(problem, spec["chunk_size"]), cache_dir=spec["cache_dir"]
    )


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    report: dict = {}
    restore = None
    if spec.get("trace"):
        from bench_trace import Tracer, install

        tracer = Tracer()
        restore = install(tracer)
    try:
        if spec["workload"] == "service_mixed":
            import asyncio

            asyncio.run(_serve_stream(spec, report))
        elif spec["workload"] == "fixture":
            _write_segment(spec)
        else:
            _run_search(spec, report)
    finally:
        if restore is not None:
            restore()
    if spec.get("trace"):
        # Only the timed call's spans: set-up and the correctness check
        # after it also run traced code.
        start, end = report.pop("window")
        spans = [span for span in tracer.spans if start <= span[2] and span[3] <= end]
        Path(spec["spans"]).write_text(json.dumps(spans))
    Path(spec["result"]).write_text(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1])
