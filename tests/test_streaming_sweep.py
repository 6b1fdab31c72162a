"""Property suite: the streaming random sweep changes memory, never results.

:class:`~repro.dse.random_search.RandomSearch` sweeps columnar problems
in a *streaming* fashion — distinct genotypes are drawn lazily in
chunk-sized blocks and pruned into a running front, so the full sample list
never exists in memory.  The contract that makes this safe is bitwise parity
across chunkings, down to a single chunk holding every sample, and with the
object path's one-shot front extraction: evaluation consumes no randomness,
so the draw stream is a function of the initial RNG state alone, and the
chunked running-front pruning is order-identical to the one-shot extraction.

This file pins that contract property-style, across seeds, chunk sizes,
resume-from-checkpoint and both MAC families (beacon-enabled GTS and
unslotted CSMA/CA).
"""

from __future__ import annotations

import pytest

from repro.dse.problem import WbsnDseProblem, csma_mac_parameterisation
from repro.dse.random_search import RandomSearch
from repro.dse.runner import run_algorithm
from repro.engine import (
    EvaluationEngine,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    inject_faults,
)
from repro.experiments.casestudy import (
    build_case_study_evaluator,
    build_csma_case_study_evaluator,
)

#: Small two-node spaces (64 configurations) keep the matrix fast.
NODE_DOMAINS = dict(
    compression_ratios=(0.2, 0.3),
    frequencies_hz=(4e6, 8e6),
)


def beacon_problem(**kwargs) -> WbsnDseProblem:
    return WbsnDseProblem(
        build_case_study_evaluator(n_nodes=2, applications=("dwt", "cs")),
        **NODE_DOMAINS,
        payload_bytes=(60, 80),
        order_pairs=((4, 4), (4, 6)),
        engine=EvaluationEngine(),
        **kwargs,
    )


def csma_problem(**kwargs) -> WbsnDseProblem:
    return WbsnDseProblem(
        build_csma_case_study_evaluator(n_nodes=2, applications=("dwt", "cs")),
        **NODE_DOMAINS,
        mac_parameterisation=csma_mac_parameterisation(
            payload_bytes=(60, 80),
            backoff_exponent_pairs=((3, 5), (4, 6)),
        ),
        engine=EvaluationEngine(),
        **kwargs,
    )


FAMILIES = {"beacon": beacon_problem, "csma": csma_problem}


def front_signature(front):
    return [
        (design.genotype, design.objectives, design.feasible)
        for design in front
    ]


class TestDrawStreamParity:
    def test_stream_is_pure_rng_consumption(self):
        """Two same-seed searches stream the identical distinct sequence."""
        problem = beacon_problem()
        first = list(
            RandomSearch(problem, samples=96, seed=11)._draw_stream()
        )
        second = list(
            RandomSearch(problem, samples=96, seed=11)._draw_stream()
        )
        assert first == second
        assert len(set(first)) == len(first)  # distinct, first-draw order

    def test_lazy_interleaved_draws_match_the_eager_list(self):
        """Drawing chunk by chunk *between* evaluations sees the same
        stream as drawing everything up front (evaluation consumes no
        randomness)."""
        eager = list(
            RandomSearch(beacon_problem(), samples=80, seed=3)._draw_stream()
        )
        problem = beacon_problem()
        search = RandomSearch(problem, samples=80, seed=3, chunk_size=8)
        consumed: list[tuple[int, ...]] = []
        original = problem.evaluate_batch_columns

        def recording(genotypes, **kwargs):
            consumed.extend(tuple(g) for g in genotypes)
            return original(genotypes, **kwargs)

        problem.evaluate_batch_columns = recording
        search.run()
        assert consumed == eager

    def test_seen_set_not_the_sample_list_drives_dedup(self):
        """Heavy oversampling yields at most |space| distinct genotypes —
        the dedup is carried by the seen-set alone, never by comparing
        against a materialised sample list."""
        problem = beacon_problem()
        search = RandomSearch(problem, samples=500, seed=0)
        distinct = list(search._draw_stream())
        assert len(distinct) <= problem.space.size
        assert len(set(distinct)) == len(distinct)


@pytest.mark.parametrize("family", sorted(FAMILIES))
class TestStreamingFrontParity:
    @pytest.mark.parametrize("seed", [0, 7, 42])
    @pytest.mark.parametrize("chunk_size", [1, 5, 16, 1024])
    def test_streaming_matches_materialised_one_shot(
        self, family, seed, chunk_size
    ):
        reference = RandomSearch(
            FAMILIES[family](), samples=60, seed=seed, chunk_size=60
        ).run()
        streamed = RandomSearch(
            FAMILIES[family](), samples=60, seed=seed, chunk_size=chunk_size
        ).run()
        assert front_signature(streamed) == front_signature(reference)

    def test_streaming_materialises_only_the_front(self, family):
        problem = FAMILIES[family]()
        result = run_algorithm(
            RandomSearch(problem, samples=60, seed=1, chunk_size=8)
        )
        assert result.designs_materialised == len(result.front)

    def test_scalar_path_still_matches_columnar(self, family):
        columnar = RandomSearch(FAMILIES[family](), samples=40, seed=2).run()
        scalar = RandomSearch(
            FAMILIES[family](record_evaluations=True), samples=40, seed=2
        ).run()
        assert front_signature(columnar) == front_signature(scalar)


@pytest.mark.parametrize("family", sorted(FAMILIES))
class TestRunnerStreaming:
    def test_run_algorithm_returns_the_bare_run_front(self, family):
        """The runner adds accounting, never a different front."""
        reference = RandomSearch(FAMILIES[family](), samples=40, seed=4).run()
        result = run_algorithm(
            RandomSearch(FAMILIES[family](), samples=40, seed=4)
        )
        assert front_signature(result.front) == front_signature(reference)
        assert result.engine_stats is not None
        assert result.evaluations > 0

    def test_front_callback_sees_every_chunk_and_the_final_front(self, family):
        draws = len(
            list(RandomSearch(FAMILIES[family](), samples=60, seed=1)._draw_stream())
        )
        cursors: list[int] = []
        archives = []

        def record(archive, cursor):
            cursors.append(cursor)
            archives.append(archive)

        result = run_algorithm(
            RandomSearch(FAMILIES[family](), samples=60, seed=1, chunk_size=8),
            front_callback=record,
        )
        assert cursors == [min(end, draws) for end in range(8, draws + 8, 8)]
        assert front_signature(archives[-1].materialise()) == front_signature(
            result.front
        )

    def test_front_callback_exception_aborts_between_chunks(self, family):
        problem = FAMILIES[family]()
        before = problem.engine.stats.snapshot()
        cursors: list[int] = []

        class ClientGone(Exception):
            pass

        def abort_after_two_chunks(archive, cursor):
            cursors.append(cursor)
            if len(cursors) == 2:
                raise ClientGone("client went away")

        with pytest.raises(ClientGone, match="client went away"):
            run_algorithm(
                RandomSearch(problem, samples=60, seed=1, chunk_size=8),
                front_callback=abort_after_two_chunks,
            )
        assert cursors == [8, 16]
        # No third chunk was evaluated.
        delta = problem.engine.stats.snapshot() - before
        assert delta.vectorized_designs <= 16


@pytest.mark.parametrize("family", sorted(FAMILIES))
class TestStreamingResumeParity:
    def test_aborted_streaming_sweep_resumes_bitwise_identically(
        self, family, tmp_path
    ):
        reference = RandomSearch(
            FAMILIES[family](), samples=72, seed=9, chunk_size=72
        ).run()
        path = tmp_path / "rs.ckpt"
        plan = FaultPlan(
            [FaultSpec(site="checkpoint-saved", action="raise", at=(1,))]
        )
        with inject_faults(plan), pytest.raises(InjectedFault):
            RandomSearch(
                FAMILIES[family](),
                samples=72,
                seed=9,
                chunk_size=8,
                checkpoint_every=1,
                checkpoint_path=str(path),
            ).run()
        resumed = RandomSearch(
            FAMILIES[family](),
            samples=72,
            seed=9,
            chunk_size=8,
            checkpoint_every=1,
            checkpoint_path=str(path),
        ).run()
        assert front_signature(resumed) == front_signature(reference)

    def test_resume_skips_the_consumed_prefix(self, family, tmp_path):
        """The resumed run re-evaluates only post-cursor chunks — the
        checkpoint cursor counts distinct genotypes, and the replay
        discards exactly that prefix of the redrawn stream."""
        path = tmp_path / "rs.ckpt"
        plan = FaultPlan(
            [FaultSpec(site="checkpoint-saved", action="raise", at=(2,))]
        )
        with inject_faults(plan), pytest.raises(InjectedFault):
            run_algorithm(
                RandomSearch(
                    FAMILIES[family](),
                    samples=72,
                    seed=9,
                    chunk_size=8,
                    checkpoint_every=1,
                ),
                checkpoint_path=str(path),
            )
        resumed = run_algorithm(
            RandomSearch(
                FAMILIES[family](),
                samples=72,
                seed=9,
                chunk_size=8,
                checkpoint_every=1,
            ),
            checkpoint_path=str(path),
        )
        # Three chunks were absorbed before the abort; at most the rest of
        # the distinct stream (≤ 64-design space) is recomputed.
        assert resumed.model_evaluations < 64 - 16

    def test_resume_under_a_different_chunking_still_matches(
        self, family, tmp_path
    ):
        """Chunk size is a performance knob, not part of the draw stream:
        resuming with a different chunk size must not change the front."""
        reference = RandomSearch(
            FAMILIES[family](), samples=72, seed=9, chunk_size=72
        ).run()
        path = tmp_path / "rs.ckpt"
        plan = FaultPlan(
            [FaultSpec(site="checkpoint-saved", action="raise", at=(1,))]
        )
        with inject_faults(plan), pytest.raises(InjectedFault):
            RandomSearch(
                FAMILIES[family](),
                samples=72,
                seed=9,
                chunk_size=8,
                checkpoint_every=1,
                checkpoint_path=str(path),
            ).run()
        resumed = RandomSearch(
            FAMILIES[family](),
            samples=72,
            seed=9,
            chunk_size=16,
            checkpoint_every=1,
            checkpoint_path=str(path),
        ).run()
        assert front_signature(resumed) == front_signature(reference)
