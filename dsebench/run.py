"""End-to-end benchmark of the WBSN design-space exploration stack.

Usage (from the root of a checkout)::

    python3 dsebench/run.py --workload sweep_cold --seed 1 --seconds 15 --trace 0

Each round runs in a fresh interpreter (``bench_round.py``), one round at a
time, until ``--seconds`` have passed and enough rounds and latency samples
exist for the reported percentiles.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A traced run alternates untraced and traced rounds, takes the
per-layer numbers from the traced ones and reports the difference between the
two as ``trace.overhead_share``.  Outputs are checked against the uncached
engine (``genotype_cache=False, node_cache=False``) outside the timed window.
The host's speed drifts by tens of percent over minutes, so the timings of the
CPU-bound workloads (``HOST_SCALED``) are scaled to a reference host speed,
measured by a fixed probe loop right before and right after every timed call
(``REFERENCE_PROBE_S``); the unscaled wall times are printed above the result
line.
See ``README.md`` for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# The parent imports the program too, for inputs and reference results.
sys.path[:0] = [str(BENCH_DIR), str(SRC)]

from bench_stats import median, percentile, samples_beyond, speed_scale  # noqa: E402
from bench_trace import layer_metrics  # noqa: E402

WORKLOADS = ("sweep_cold", "sweep_warm", "service_mixed", "nsga2_search")

#: Sweep chunk size: 64 chunks per 262,144-design sweep, so four rounds give
#: the 200 chunk-step latency samples p95 needs (>= 10 beyond it).
SWEEP_CHUNK = 4096
NSGA2_POPULATION = 200
NSGA2_GENERATIONS = 100
#: service_mixed stream: requests of this many genotypes, about half of them
#: repeats of rows sent two or more requests earlier.
SERVICE_REQUESTS = 400
SERVICE_BATCH = 256
SERVICE_CLIENTS = 2

MIN_ROUNDS = 3
#: Latency samples a run needs so that at least 10 lie beyond p95.
MIN_SAMPLES = 200
#: No round starts once this much time has passed (rounds take <= 10 s).
ROUND_DEADLINE_S = 120.0
ROUND_TIMEOUT_S = 150.0
#: The host-speed probe's time (``bench_round.host_probe``) on the reference
#: host, a shared 2-vCPU Xeon VM in its fast mode.  Every timing is reported
#: in seconds of that host: its median over rounds is multiplied by this over
#: the mean of the run's probes (two per round, around the timed call).
REFERENCE_PROBE_S = 0.160
#: Workloads whose timings are scaled: one thread of CPU-bound work, whose
#: speed follows the probe's.  ``service_mixed`` is paced by its batch window,
#: socket round trips and two threads; its request phase barely follows the
#: probe, and scaling it doubled its spread, so it reports wall time.
HOST_SCALED = ("sweep_cold", "sweep_warm", "nsga2_search")

END_TO_END_UNITS = {
    "setup_s": "s",
    "time_to_front_s": "s",
    "peak_rss_mb": "MB",
    "request_p50_ms": "ms",
    "request_p95_ms": "ms",
    "rows_per_s": "rows/s",
}


def service_stream(seed: int, cardinalities) -> "np.ndarray":
    """The service_mixed request stream, ``(requests, batch, genes)``.

    Request ``i`` holds fresh genotypes (never sent before) and, from the
    third request on, half repeats drawn from the fresh rows of requests
    ``0 .. i-2`` -- rows the same client or its peer already had answered.
    """
    import numpy as np

    half = SERVICE_BATCH // 2
    size = int(np.prod(cardinalities))
    if size < SERVICE_BATCH + SERVICE_REQUESTS * half:
        raise ValueError(f"a space of {size} designs is too small for the stream")
    rng = np.random.default_rng(seed)
    order = rng.permutation(size)
    flat_requests = []
    fresh_sent = []
    cursor = 0
    for index in range(SERVICE_REQUESTS):
        n_fresh = SERVICE_BATCH if index < 2 else half
        fresh = order[cursor : cursor + n_fresh]
        cursor += n_fresh
        if index < 2:
            rows = fresh
        else:
            earlier = np.concatenate(fresh_sent[: index - 1])
            rows = np.concatenate([fresh, rng.choice(earlier, half)])
            rng.shuffle(rows)
        fresh_sent.append(fresh)
        flat_requests.append(rows)
    flat = np.stack(flat_requests)
    genes = np.unravel_index(flat, tuple(int(c) for c in cardinalities))
    return np.stack(genes, axis=-1).astype(np.int64)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Run:
    """One benchmark invocation: its work directory, rounds and results."""

    def __init__(self, args: argparse.Namespace, work: Path) -> None:
        self.args = args
        self.work = work
        self.rounds: list[dict] = []
        self.problems: list[str] = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.spec = {"workload": args.workload}

    # ------------------------------------------------------------ rounds

    def child(self, spec: dict, tag: str) -> tuple[dict, float]:
        """Run one round program; returns its report and its spawn time."""
        spec = dict(spec)
        spec["result"] = str(self.work / f"{tag}.result.json")
        spec["spans"] = str(self.work / f"{tag}.spans.json")
        spec_path = self.work / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec))
        spawned = time.monotonic()
        completed = subprocess.run(
            [sys.executable, str(BENCH_DIR / "bench_round.py"), str(spec_path)],
            cwd=self.work,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=ROUND_TIMEOUT_S,
        )
        if completed.returncode != 0:
            raise RuntimeError(
                f"round {tag} exited with {completed.returncode}:\n"
                f"{completed.stderr[-4000:]}"
            )
        report = json.loads(Path(spec["result"]).read_text())
        if spec.get("trace"):
            report["spans"] = json.loads(Path(spec["spans"]).read_text())
        return report, spawned

    def prepare(self) -> None:
        workload = self.args.workload
        if workload in ("sweep_cold", "sweep_warm"):
            self.spec["chunk_size"] = SWEEP_CHUNK
        if workload == "sweep_warm":
            cache_dir = self.work / "cache"
            cache_dir.mkdir()
            self.spec["cache_dir"] = str(cache_dir)
            self.child(dict(self.spec, workload="fixture"), "fixture")
            segments = list(cache_dir.iterdir())
            if len(segments) != 1:
                raise RuntimeError(f"expected one cache segment, got {segments}")
            self.segment = segments[0]
            self.segment_hash = _sha256(self.segment)
        if workload == "nsga2_search":
            self.spec.update(
                population=NSGA2_POPULATION,
                generations=NSGA2_GENERATIONS,
                nsga2_seed=self.args.seed,
            )
        if workload == "service_mixed":
            import numpy as np

            stream_path = self.work / "stream.npy"
            np.save(stream_path, service_stream(self.args.seed, self._cardinalities()))
            self.spec.update(
                stream=str(stream_path), socket="svc.sock", clients=SERVICE_CLIENTS
            )

    def _cardinalities(self):
        from bench_round import sweep_problem
        from repro.engine import EvaluationEngine

        problem = sweep_problem(EvaluationEngine(genotype_cache=False, node_cache=False))
        return problem.space.cardinalities

    def measure(self) -> None:
        trace = bool(self.args.trace)
        started = time.monotonic()
        samples = 0
        while True:
            elapsed = time.monotonic() - started
            untraced = [r for r in self.rounds if not r["traced"]]
            traced = [r for r in self.rounds if r["traced"]]
            enough = (
                elapsed >= self.args.seconds
                and len(untraced) >= (2 if trace else MIN_ROUNDS)
                and (len(traced) >= 2 if trace else samples >= MIN_SAMPLES)
            )
            if enough or (self.rounds and elapsed >= ROUND_DEADLINE_S):
                break
            traced_round = trace and len(self.rounds) % 2 == 1
            if self.args.workload == "sweep_warm":
                # Every warm round must read the bytes the first one read:
                # each round re-spills the segment, so check before each.
                digest = _sha256(self.segment)
                if digest != self.segment_hash:
                    self.problems.append(
                        f"round {len(self.rounds)}: segment bytes changed "
                        f"({self.segment_hash[:12]} -> {digest[:12]})"
                    )
                    break
            report, spawned = self.child(
                dict(self.spec, seed=self.args.seed, trace=traced_round),
                f"round{len(self.rounds)}",
            )
            report["setup_s"] = report.pop("ready") - spawned
            report["traced"] = traced_round
            self.rounds.append(report)
            if not traced_round:
                samples += len(report["latencies_s"])

    # ------------------------------------------------------- correctness

    def reference_front(self) -> list:
        """The uncached engine's front on the same inputs."""
        from bench_round import (
            front_signature,
            nsga2_algorithm,
            nsga2_problem,
            sweep_algorithm,
            sweep_problem,
        )
        from repro.dse.runner import run_algorithm
        from repro.engine import EvaluationEngine

        engine = EvaluationEngine(genotype_cache=False, node_cache=False)
        if self.args.workload == "nsga2_search":
            algorithm = nsga2_algorithm(nsga2_problem(engine), self.spec)
        else:
            algorithm = sweep_algorithm(sweep_problem(engine), SWEEP_CHUNK)
        return front_signature(run_algorithm(algorithm).front)

    def check(self) -> tuple[int, int]:
        """(attempted, failed) operations over every round of the run."""
        if self.args.workload == "service_mixed":
            return (
                sum(r["attempted"] for r in self.rounds),
                sum(r["failed"] for r in self.rounds),
            )
        expected = self.reference_front()
        failed = 0
        for index, report in enumerate(self.rounds):
            wrong = report["front"] != expected
            if wrong:
                self.problems.append(f"round {index}: front differs from uncached")
            evaluations = report["counters"]["engine"]["model_evaluations"]
            cold_model = self.args.workload == "sweep_warm" and evaluations
            if cold_model:
                self.problems.append(
                    f"round {index}: warm sweep ran {evaluations} model evaluations"
                )
            failed += bool(wrong or cold_model)
        return len(self.rounds), failed

    # ----------------------------------------------------------- metrics

    def scale(self, rounds: list) -> float:
        """Factor from the rounds' wall times to the reported timings."""
        if self.args.workload not in HOST_SCALED:
            return 1.0
        probes = [p for r in rounds for p in r["probe_s"]]
        return speed_scale(probes, REFERENCE_PROBE_S)

    def end_to_end(self) -> dict:
        rounds = [r for r in self.rounds if not r["traced"]]
        latencies = [value for r in rounds for value in r["latencies_s"]]
        wall = {
            "setup_s": median([r["setup_s"] for r in rounds]),
            "time_to_front_s": median([r["time_to_front_s"] for r in rounds]),
            "request_p50_ms": 1e3 * percentile(latencies, 50),
            "request_p95_ms": 1e3 * percentile(latencies, 95),
            "rows_per_s": median([r["rows"] / r["time_to_front_s"] for r in rounds]),
        }
        scale = self.scale(rounds)
        values = {name: value * scale for name, value in wall.items()}
        values["rows_per_s"] = wall["rows_per_s"] / scale
        values["peak_rss_mb"] = median([r["peak_rss_mb"] for r in rounds])
        print(
            f"{len(rounds)} rounds, {len(latencies)} request samples, "
            f"{samples_beyond(latencies, 95)} beyond p95; timings scaled by "
            f"{scale:.4f}"
        )
        print(
            "unscaled wall time: "
            + ", ".join(f"{name} {value:.6g}" for name, value in wall.items())
        )
        return values

    def per_layer(self) -> dict:
        traced = [r for r in self.rounds if r["traced"]]
        untraced = [r for r in self.rounds if not r["traced"]]
        per_round = [layer_metrics(r["spans"], r["counters"]) for r in traced]
        values = {
            name: median([metrics[name] for metrics in per_round])
            for name in per_round[0]
        }
        def seconds_per_row(rounds: list) -> float:
            wall = median([r["time_to_front_s"] / r["rows"] for r in rounds])
            return wall * self.scale(rounds)

        slow = seconds_per_row(traced)
        fast = seconds_per_row(untraced)
        values["trace.overhead_share"] = slow / fast - 1
        print(
            f"{len(untraced)} untraced and {len(traced)} traced rounds; traced "
            f"time_to_front_s median "
            f"{median([r['time_to_front_s'] for r in traced]):.4g} s"
        )
        return values


def per_layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no program sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    work = ROOT / ".dsebench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = Run(args, work)
        run.prepare()
        run.measure()
        attempted, failed = run.check()
        if args.trace:
            units = per_layer_units()
            values = run.per_layer()
        else:
            units = END_TO_END_UNITS
            values = run.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for problem in run.problems:
        print(f"FAILED CHECK: {problem}")
    for name, value in values.items():
        print(f"{name:40s} {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0 and not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
