"""Tests of the benchmark's own helpers: statistics, span arithmetic, wrappers."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
for entry in (BENCH_DIR, BENCH_DIR.parent / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from bench_stats import median, percentile, samples_beyond, speed_scale  # noqa: E402
from bench_trace import (  # noqa: E402
    Tracer,
    covered_length,
    install,
    layer_metrics,
    self_times,
)


# ----------------------------------------------------------------- statistics


@pytest.mark.parametrize("q", [0, 5, 25, 50, 75, 95, 100])
def test_percentile_matches_numpy_linear(q):
    values = np.random.default_rng(3).exponential(size=257).tolist()
    assert percentile(values, q) == pytest.approx(np.percentile(values, q), rel=1e-12)


def test_percentile_small_inputs_and_validation():
    assert percentile([4.0], 95) == 4.0
    assert percentile([1.0, 3.0], 50) == 2.0
    assert percentile([3.0, 1.0, 2.0], 100) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_median_odd_even_and_empty():
    assert median([5.0, 1.0, 3.0]) == 3.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_samples_beyond_p95():
    values = list(range(1, 201))
    # p95 of 1..200 is 190.05: 191..200 lie beyond it.
    assert samples_beyond(values, 95) == 10


def test_speed_scale_maps_probe_times_to_the_reference_host():
    # A host on which the probe takes twice the reference time halves times.
    assert speed_scale([0.2, 0.2], 0.1) == pytest.approx(0.5)
    assert speed_scale([0.1, 0.3], 0.2) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        speed_scale([], 0.1)
    with pytest.raises(ValueError):
        speed_scale([0.1, 0.0], 0.1)


# ------------------------------------------------------------ span arithmetic


def test_covered_length_merges_overlaps():
    assert covered_length([]) == 0.0
    assert covered_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert covered_length([(0.0, 2.0), (1.0, 3.0), (1.5, 1.7)]) == 3.0
    assert covered_length([(5.0, 6.0), (0.0, 1.0), (0.5, 5.5)]) == 6.0


def test_self_time_subtracts_covered_child_time_once():
    spans = [
        (0, "run", 0.0, 10.0, -1, 1),
        (1, "evaluate", 1.0, 3.0, 0, 1),
        (2, "evaluate", 2.0, 5.0, 0, 1),  # overlaps its sibling
        (3, "kernel", 1.5, 2.5, 1, 1),  # grandchild of run
        (4, "front", 8.0, 12.0, 0, 1),  # runs past its parent's end
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - (4.0 + 2.0))
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)


def test_layer_metrics_evaluate_self_excludes_kernel_and_index_matrix():
    spans = [
        (0, "evaluate", 0.0, 1.0, -1, 100),
        (1, "index_matrix", 0.1, 0.2, 0, 100),
        (2, "kernel", 0.3, 0.7, 0, 60),
    ]
    counters = {"engine": {"genotype_requests": 100, "genotype_cache_hits": 40}}
    metrics = layer_metrics(spans, counters)
    assert metrics["engine.evaluate_s"] == pytest.approx(1.0)
    assert metrics["engine.evaluate_self_s"] == pytest.approx(0.5)
    assert metrics["core.vectorized.kernel_rows"] == 60
    assert metrics["engine.hit_share"] == pytest.approx(0.4)
    assert metrics["service.protocol.encode_s"] == 0.0


# ------------------------------------------------------------------- wrappers


def test_wrapper_returns_the_same_object_and_nests_spans():
    tracer = Tracer()
    marker = object()
    inner = tracer.wrap("inner", lambda: marker)
    outer = tracer.wrap("outer", lambda: inner(), count=lambda a, k, r: 7)
    assert outer() is marker
    (inner_span, outer_span) = tracer.spans
    assert inner_span[1] == "inner" and outer_span[1] == "outer"
    assert inner_span[4] == outer_span[0]
    assert outer_span[4] == -1 and outer_span[5] == 7


def test_wrapper_reraises_and_still_records():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    assert [span[1] for span in tracer.spans] == ["boom"]


def test_installed_wrappers_return_what_the_program_returns():
    from repro.dse.space import DesignSpace, ParameterDomain
    from repro.service import protocol, server
    from repro.service.protocol import DesignRow

    space = DesignSpace([ParameterDomain("a", (1, 2, 3)), ParameterDomain("b", (4, 5))])
    genotypes = [(0, 1), (2, 0)]
    message = {"id": 1, "rows": [[0, 1], [2.5]]}
    wire = [[1, 2], [0.25, 1e-300], True, 0]
    expected_matrix = space.index_matrix(genotypes)
    expected_bytes = server.encode_message(message)
    expected_row = DesignRow.from_wire(wire)
    originals = (
        DesignSpace.__dict__["index_matrix"],
        server.encode_message,
        protocol.DesignRow.__dict__["from_wire"],
    )

    tracer = Tracer()
    restore = install(tracer)
    try:
        assert DesignSpace.__dict__["index_matrix"] is not originals[0]
        matrix = space.index_matrix(genotypes)
        assert matrix.dtype == expected_matrix.dtype
        assert np.array_equal(matrix, expected_matrix)
        assert server.encode_message(message) == expected_bytes
        assert server.decode_line(expected_bytes) == message
        assert DesignRow.from_wire(wire) == expected_row
        with pytest.raises(ValueError):
            space.index_matrix([(5, 0)])
    finally:
        restore()
    assert DesignSpace.__dict__["index_matrix"] is originals[0]
    assert server.encode_message is originals[1]
    assert protocol.DesignRow.__dict__["from_wire"] is originals[2]
    names = [span[1] for span in tracer.spans]
    assert names.count("index_matrix") == 2
    assert {"encode", "decode", "from_wire"} <= set(names)


# ------------------------------------------------------------------- inputs


def test_service_stream_is_seeded_and_half_repeats():
    from run import SERVICE_BATCH, SERVICE_REQUESTS, service_stream

    cardinalities = (8, 4, 8, 4, 8, 4, 1, 8)
    first = service_stream(5, cardinalities)
    assert np.array_equal(first, service_stream(5, cardinalities))
    assert not np.array_equal(first, service_stream(6, cardinalities))
    assert first.shape == (SERVICE_REQUESTS, SERVICE_BATCH, len(cardinalities))
    assert (first < np.asarray(cardinalities)).all()
    seen = {tuple(row) for row in first[0].tolist() + first[1].tolist()}
    assert len(seen) == 2 * SERVICE_BATCH
    for index in range(2, 6):
        rows = [tuple(row) for row in first[index].tolist()]
        repeats = sum(row in seen for row in rows)
        assert repeats == SERVICE_BATCH // 2
        seen.update(rows)


def test_reported_metric_names_match_the_benchmark_spec():
    import json

    from run import END_TO_END_UNITS

    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    end_to_end = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    assert END_TO_END_UNITS == end_to_end
    per_layer = [metric["name"] for metric in spec["per_layer"]]
    assert len(per_layer) == len(set(per_layer))
    assert set(layer_metrics([], {})) | {"trace.overhead_share"} == set(per_layer)

