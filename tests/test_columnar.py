"""The columnar batch-result path: parity, lazy materialisation, cache interop.

The columnar path (``EvaluationEngine.evaluate_many_columnar`` /
``ColumnarBatchResult``) must be *semantically invisible*: exhaustive and
random-search sweeps return bitwise-identical fronts — membership **and**
ordering — on the columnar path and on the object path (which a problem
recording its evaluations takes), for both MAC families and for
the serial kernel, the sharded backend and the scalar fallback alike.  On
top of parity, these tests pin the point of the seam: sweeps prune on raw
objective columns and materialise only their survivors
(``EngineStats.designs_materialised`` tracks the front, never the space),
and genotype-cache hits re-enter pruning as memoised column rows without an
object round-trip (``rows_skipped_cached`` keeps working).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dse.exhaustive import ExhaustiveCapWarning, ExhaustiveSearch
from repro.dse.pareto import (
    _blockwise_front_indices,
    pareto_front_indices,
    running_front_indices,
)
from repro.dse.problem import WbsnDseProblem, csma_mac_parameterisation
from repro.dse.random_search import RandomSearch
from repro.engine import ColumnarBatchResult, EvaluationEngine
from repro.experiments.casestudy import (
    build_case_study_evaluator,
    build_csma_case_study_evaluator,
)

#: Small two-node spaces (64 configurations) keep the parity matrix fast.
NODE_DOMAINS = dict(
    compression_ratios=(0.2, 0.3),
    frequencies_hz=(4e6, 8e6),
)

#: Restricted 6-node domains giving the 8192-configuration sweep of the
#: benchmark suite (the satellite acceptance case).
SWEEP_DOMAINS = dict(
    compression_ratios=(0.2, 0.3),
    frequencies_hz=(4e6, 8e6),
    payload_bytes=(80,),
    order_pairs=((4, 4), (4, 6)),
)


def beacon_problem(engine: EvaluationEngine | None = None, **kwargs) -> WbsnDseProblem:
    return WbsnDseProblem(
        build_case_study_evaluator(n_nodes=2, applications=("dwt", "cs")),
        **NODE_DOMAINS,
        payload_bytes=(60, 80),
        order_pairs=((4, 4), (4, 6)),
        engine=engine if engine is not None else EvaluationEngine(),
        **kwargs,
    )


def csma_problem(engine: EvaluationEngine | None = None, **kwargs) -> WbsnDseProblem:
    return WbsnDseProblem(
        build_csma_case_study_evaluator(n_nodes=2, applications=("dwt", "cs")),
        **NODE_DOMAINS,
        mac_parameterisation=csma_mac_parameterisation(
            payload_bytes=(60, 80),
            backoff_exponent_pairs=((3, 5), (4, 6)),
        ),
        engine=engine if engine is not None else EvaluationEngine(),
        **kwargs,
    )


SCENARIOS = {"beacon": beacon_problem, "csma": csma_problem}


def front_signature(front):
    """Exact front identity: genotype, objectives, feasibility — in order."""
    return [(d.genotype, d.objectives, d.feasible) for d in front]


def expected_materialised(problem, front):
    """Front designs a fresh cached engine must *build* (vs serve).

    ``WbsnDseProblem.__init__`` probes the all-zeros genotype through the
    engine, memoising its design; if that genotype lands on the front, the
    columnar path serves the memoised object instead of materialising a new
    one, and ``designs_materialised`` is one short of the front size.
    """
    probe = tuple(0 for _ in range(len(problem.space)))
    return sum(1 for design in front if design.genotype != probe)


class TestSweepParity:
    """Columnar vs object path: identical fronts, membership and ordering."""

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_exhaustive_identical_fronts(self, scenario):
        build = SCENARIOS[scenario]
        objects = ExhaustiveSearch(build(record_evaluations=True)).run()
        columnar = ExhaustiveSearch(build()).run()
        assert front_signature(objects) == front_signature(columnar)
        assert objects  # non-degenerate

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_random_search_identical_fronts(self, scenario):
        build = SCENARIOS[scenario]
        objects = RandomSearch(
            build(record_evaluations=True), samples=150, seed=5
        ).run()
        columnar = RandomSearch(build(), samples=150, seed=5).run()
        assert front_signature(objects) == front_signature(columnar)
        assert objects

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_scalar_fallback_identical_fronts(self, scenario):
        """Problems without a kernel build columns from per-design results."""
        build = SCENARIOS[scenario]
        objects = ExhaustiveSearch(
            build(vectorized=False, record_evaluations=True)
        ).run()
        columnar = ExhaustiveSearch(build(vectorized=False)).run()
        assert front_signature(objects) == front_signature(columnar)

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_sharded_backend_identical_fronts(self, scenario):
        build = SCENARIOS[scenario]
        serial = ExhaustiveSearch(build()).run()
        with EvaluationEngine(backend="sharded", max_workers=2) as engine:
            problem = build(engine)
            sharded = ExhaustiveSearch(problem).run()
            stats = engine.stats
            # Worker column kernels computed every miss; survivors only were
            # materialised, parent-side.
            assert stats.sharded_designs > 0
            assert stats.designs_materialised == expected_materialised(
                problem, sharded
            )
            # The sweep's prune hint made the workers drop dominated rows
            # before shipping — without moving the front.
            assert stats.rows_pruned_in_workers > 0
        assert front_signature(serial) == front_signature(sharded)

    def test_object_path_rejects_columnar_only_options(self):
        recording = beacon_problem(record_evaluations=True)
        assert not recording.supports_columnar
        for options in (
            {"checkpoint_path": "never-written.ckpt"},
            {"front_callback": lambda archive, cursor: None},
        ):
            with pytest.raises(ValueError, match="columnar"):
                ExhaustiveSearch(recording, **options).run()
            with pytest.raises(ValueError, match="columnar"):
                RandomSearch(recording, **options).run()
        # Rejected before any evaluation.
        assert recording.evaluations == 0
        # Without those options the sweep takes the object path.
        assert ExhaustiveSearch(recording).run()


def sweep_problem(
    scenario: str, engine: EvaluationEngine | None = None, **kwargs
) -> WbsnDseProblem:
    """The 8192-configuration 6-node case-study space, per MAC family."""
    engine = engine if engine is not None else EvaluationEngine()
    if scenario == "beacon":
        return WbsnDseProblem(
            build_case_study_evaluator(), **SWEEP_DOMAINS, engine=engine, **kwargs
        )
    return WbsnDseProblem(
        build_csma_case_study_evaluator(),
        compression_ratios=SWEEP_DOMAINS["compression_ratios"],
        frequencies_hz=SWEEP_DOMAINS["frequencies_hz"],
        mac_parameterisation=csma_mac_parameterisation(
            payload_bytes=(80,),
            backoff_exponent_pairs=((3, 5), (4, 6)),
        ),
        engine=engine,
        **kwargs,
    )


class Test8192CaseStudyParity:
    """The acceptance matrix: 8192-design sweeps, both MAC families,
    serial and sharded backends, exhaustive and random search — bitwise
    identical fronts on the columnar and the object path, the columnar
    path materialising only the front."""

    @pytest.mark.parametrize("scenario", ["beacon", "csma"])
    def test_exhaustive_and_random_fronts_identical(self, scenario):
        reference = ExhaustiveSearch(
            sweep_problem(scenario, record_evaluations=True), chunk_size=2048
        ).run()

        columnar_problem = sweep_problem(scenario)
        columnar = ExhaustiveSearch(columnar_problem, chunk_size=2048).run()
        assert front_signature(reference) == front_signature(columnar)
        assert (
            columnar_problem.engine.stats.designs_materialised
            == expected_materialised(columnar_problem, columnar)
        )

        with EvaluationEngine(backend="sharded", max_workers=2) as engine:
            sharded_problem = sweep_problem(scenario, engine)
            sharded = ExhaustiveSearch(sharded_problem, chunk_size=2048).run()
            assert front_signature(reference) == front_signature(sharded)
            assert engine.stats.sharded_designs > 0
            assert engine.stats.designs_materialised == expected_materialised(
                sharded_problem, sharded
            )
            # On 8192 designs the shard fronts are tiny: almost every
            # evaluated row is pruned worker-side.
            assert engine.stats.rows_pruned_in_workers > 7000

        random_objects = RandomSearch(
            sweep_problem(scenario, record_evaluations=True), samples=1500, seed=8
        ).run()
        random_columnar = RandomSearch(
            sweep_problem(scenario), samples=1500, seed=8
        ).run()
        assert front_signature(random_objects) == front_signature(random_columnar)
        assert random_objects


class TestLazyMaterialisation:
    """Survivors-only materialisation, asserted via ``designs_materialised``."""

    def test_8192_row_sweep_materialises_exactly_the_front(self):
        with EvaluationEngine() as engine:
            problem = WbsnDseProblem(
                build_case_study_evaluator(), **SWEEP_DOMAINS, engine=engine
            )
            assert problem.space.size == 8192
            front = ExhaustiveSearch(problem, chunk_size=2048).run()
            stats = engine.stats
            assert stats.designs_materialised == expected_materialised(
                problem, front
            )
            assert 0 < len(front) < 100
            # Every swept row went through the kernel as columns.
            assert stats.vectorized_designs >= problem.space.size - 1

    def test_warm_sweep_serves_cached_rows_as_columns(self):
        """Cached rows re-enter pruning as raw rows — no new objects, no
        kernel work, and ``rows_skipped_cached`` keeps counting."""
        problem = beacon_problem()
        engine = problem.engine
        first = ExhaustiveSearch(problem).run()
        stats_before = engine.stats.snapshot()
        second = ExhaustiveSearch(problem).run()
        delta = engine.stats.snapshot() - stats_before
        assert front_signature(first) == front_signature(second)
        # Every row of the warm sweep was a genotype-cache hit served as a
        # memoised column row.
        assert delta.rows_skipped_cached == problem.space.size
        assert delta.model_evaluations == 0
        # The front designs were materialised by the first sweep and are
        # served from the design memo afterwards.
        assert delta.designs_materialised == 0

    def test_random_search_materialises_exactly_the_front(self):
        problem = beacon_problem()
        front = RandomSearch(problem, samples=120, seed=2).run()
        assert problem.engine.stats.designs_materialised == expected_materialised(
            problem, front
        )

    def test_recording_problems_reject_the_columnar_batch_api(self):
        problem = beacon_problem(record_evaluations=True)
        with pytest.raises(RuntimeError, match="columnar"):
            problem.evaluate_batch_columns([(0,) * len(problem.space)])
        # Neither the counter nor the history moved.
        assert problem.evaluations == 0
        assert problem.history == []

    def test_scalar_fallback_materialises_nothing_new(self):
        """The scalar path computes design objects anyway and memoises them,
        so columnar materialisation serves the memo — zero new objects."""
        problem = beacon_problem(vectorized=False)
        front = ExhaustiveSearch(problem).run()
        assert front
        assert problem.engine.stats.designs_materialised == 0

    def test_columnar_rows_warm_the_object_path(self):
        """Designs memoised as raw column rows serve ``evaluate_batch`` /
        ``evaluate`` too — materialised on demand, never recomputed."""
        problem = beacon_problem()
        engine = problem.engine
        front = ExhaustiveSearch(problem).run()
        in_memo = len(front) + (
            0
            if any(
                design.genotype == tuple(0 for _ in range(len(problem.space)))
                for design in front
            )
            else 1  # the constructor probe
        )
        before = engine.stats.snapshot()
        genotypes = list(problem.space.enumerate_genotypes())
        designs = problem.evaluate_batch(genotypes)
        delta = engine.stats.snapshot() - before
        assert delta.model_evaluations == 0
        assert delta.genotype_cache_hits == problem.space.size
        assert delta.designs_materialised == problem.space.size - in_memo
        # Single evaluations hit the column memo as well.
        before = engine.stats.snapshot()
        single = problem.evaluate(genotypes[-1])
        delta = engine.stats.snapshot() - before
        assert delta.model_evaluations == 0
        assert single.objectives == designs[-1].objectives

    def test_compute_columns_batch_honours_the_cached_mask(self):
        problem = beacon_problem()
        genotypes = list(problem.space.enumerate_genotypes())[:8]
        full = problem.compute_columns_batch(genotypes)
        mask = np.asarray([index % 2 == 0 for index in range(8)])
        misses = problem.compute_columns_batch(genotypes, cached_mask=mask)
        np.testing.assert_array_equal(misses.objectives, full.objectives[~mask])
        np.testing.assert_array_equal(misses.feasible, full.feasible[~mask])
        assert len(problem.compute_columns_batch(genotypes, cached_mask=[True] * 8)) == 0

    def test_materialised_designs_carry_their_violation_count(self):
        problem = beacon_problem()
        batch = problem.evaluate_batch_columns(
            list(problem.space.enumerate_genotypes())
        )
        designs = batch.materialise()
        for row, design in enumerate(designs):
            assert design.violation_count == int(batch.violation_counts[row])
            assert design.feasible == (design.violation_count == 0)


class TestColumnarBatchResult:
    def test_rows_cover_requests_in_order_with_duplicates(self):
        problem = beacon_problem()
        genotypes = list(problem.space.enumerate_genotypes())[:10]
        requested = genotypes + genotypes[:4]
        batch = problem.evaluate_batch_columns(requested)
        assert len(batch) == len(requested)
        np.testing.assert_array_equal(batch.genotypes[:4], batch.genotypes[10:])
        np.testing.assert_array_equal(batch.objectives[:4], batch.objectives[10:])
        # Duplicates are cache hits, computed once.
        assert problem.engine.stats.genotype_cache_hits >= 4

    def test_take_and_concatenate_roundtrip(self):
        problem = beacon_problem()
        batch = problem.evaluate_batch_columns(
            list(problem.space.enumerate_genotypes())[:12]
        )
        left, right = batch.take(range(5)), batch.take(range(5, 12))
        rebuilt = ColumnarBatchResult.concatenate([left, right])
        np.testing.assert_array_equal(rebuilt.genotypes, batch.genotypes)
        np.testing.assert_array_equal(rebuilt.objectives, batch.objectives)
        np.testing.assert_array_equal(rebuilt.feasible, batch.feasible)
        np.testing.assert_array_equal(
            rebuilt.violation_counts, batch.violation_counts
        )

    def test_take_and_materialise_accept_boolean_masks(self):
        problem = beacon_problem()
        batch = problem.evaluate_batch_columns(
            list(problem.space.enumerate_genotypes())[:12]
        )
        subset = batch.take(batch.feasible)
        np.testing.assert_array_equal(
            subset.objectives, batch.objectives[batch.feasible]
        )
        designs = batch.materialise(batch.feasible)
        assert len(designs) == int(batch.feasible.sum())
        assert all(design.feasible for design in designs)

    def test_materialise_subset_matches_object_path(self):
        problem = beacon_problem()
        reference = beacon_problem()
        genotypes = list(problem.space.enumerate_genotypes())[:16]
        batch = problem.evaluate_batch_columns(genotypes)
        survivors = pareto_front_indices(batch.objectives)
        designs = batch.materialise(survivors)
        expected = [reference.compute_design(genotypes[i]) for i in survivors]
        assert [d.genotype for d in designs] == [d.genotype for d in expected]
        assert [d.objectives for d in designs] == [d.objectives for d in expected]
        assert [d.phenotype for d in designs] == [d.phenotype for d in expected]

    def test_unbound_engine_is_rejected(self):
        with pytest.raises(RuntimeError, match="bound"):
            EvaluationEngine().evaluate_many_columnar([(0, 0)])


class TestRunningFrontIndices:
    """The shared columns-in/indices-out pruning kernel."""

    def test_matches_a_joint_front_extraction(self):
        rng = np.random.default_rng(0)
        points = rng.random((300, 3))
        archive_points = points[:40][pareto_front_indices(points[:40])]
        candidates = points[40:]
        indices = running_front_indices(archive_points, candidates)
        pool = np.concatenate([archive_points, candidates])
        expected = pareto_front_indices(pool)
        assert indices == expected

    def test_empty_sides(self):
        points = np.asarray([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
        assert running_front_indices(points[:0], points) == [0, 1]
        front = points[:2]
        assert running_front_indices(front, points[:0]) == [0, 1]

    def test_duplicates_of_archived_points_are_dropped(self):
        front = [(0.0, 1.0), (1.0, 0.0)]
        candidates = [(0.0, 1.0), (0.5, 0.5)]
        assert running_front_indices(front, candidates) == [0, 1, 3]

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            running_front_indices([(0.0, 1.0)], [(0.0, 1.0, 2.0)])


def reference_front(problem, genotypes):
    """The front a sweep over ``genotypes`` must return, in order.

    One columnar batch over every genotype, feasible rows only when any
    exist, pruned by the blockwise dominance matrices — the quadratic
    reference the skyline kernels and the chunked running front replace.
    """
    batch = problem.evaluate_batch_columns(list(genotypes))
    rows = np.flatnonzero(batch.feasible)
    pool = batch.take(rows) if rows.size else batch
    return pool.take(_blockwise_front_indices(pool.objectives)).materialise()


class TestSweepFrontsMatchBlockwiseReference:
    """The skyline kernels are a drop-in for the blockwise dominance
    matrices: chunked sweeps, pruned through the kernel dispatch, return
    the blockwise front of everything they evaluated — membership and
    ordering — on every backend that prunes."""

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_columnar_sweep_front_is_the_reference_front(self, scenario):
        build = SCENARIOS[scenario]
        problem = build()
        front = ExhaustiveSearch(problem, chunk_size=16).run()
        expected = reference_front(build(), problem.space.enumerate_genotypes())
        assert front_signature(front) == front_signature(expected)
        assert front

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_sharded_worker_pruning_front_is_the_reference_front(self, scenario):
        """Workers prune each shard through the same dispatch before the
        parent merges — the merged front must still be the reference."""
        build = SCENARIOS[scenario]
        with EvaluationEngine(backend="sharded", max_workers=2) as engine:
            problem = build(engine)
            front = ExhaustiveSearch(problem).run()
            assert engine.stats.rows_pruned_in_workers > 0
        expected = reference_front(build(), problem.space.enumerate_genotypes())
        assert front_signature(front) == front_signature(expected)

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_random_search_front_is_the_reference_front_of_its_draws(
        self, scenario
    ):
        build = SCENARIOS[scenario]
        search = RandomSearch(build(), samples=150, seed=5, chunk_size=16)
        draws = list(RandomSearch(build(), samples=150, seed=5)._draw_stream())
        expected = reference_front(build(), draws)
        assert front_signature(search.run()) == front_signature(expected)


class TestExhaustiveCap:
    def test_oversized_space_warns_names_size_cap_and_proceeds(self):
        problem = beacon_problem()
        reference = ExhaustiveSearch(problem).run()
        with pytest.warns(ExhaustiveCapWarning) as record:
            front = ExhaustiveSearch(problem, max_configurations=10).run()
        message = str(record[0].message)
        assert str(problem.space.size) in message
        assert "10" in message
        assert "max_configurations" in message
        # The soft threshold warns but never truncates the sweep.
        assert front_signature(front) == front_signature(reference)
