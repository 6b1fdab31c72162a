"""Model-based test of the engine's cache state machine.

A hypothesis ``RuleBasedStateMachine`` drives one engine through random
interleavings of its serving paths — ``evaluate``, ``evaluate_many`` and
``evaluate_many_columnar`` (with duplicates), the ``cached_row_flags``
attribution read, spill to a cache directory and reload into a fresh
engine — on engines with and without an LRU-bounded row store, on the
vectorized and the scalar compute paths, alone or sharing a
``SharedGenotypeCache`` with a peer engine of the same model.  After every
step four things must hold:

* every row the engine served equals the uncached scalar
  ``compute_design`` row of its genotype, bitwise;
* the request ledger balances:
  ``genotype_requests == genotype_cache_hits + shared_cache_hits +
  model_evaluations``;
* ``cached_row_flags`` agrees with the rows the engine actually holds: the
  next batch computes (or takes from the shared cache) exactly the distinct
  genotypes it flagged uncached (and, unbounded, flags exactly the
  genotypes ever evaluated);
* every genotype served as a design object stays cached, even past an
  LRU bound (its row is pinned outside the bound).

The space is the 64-design two-node problem of the fault suite, small
enough that random batches collide often.
"""

from __future__ import annotations

import shutil
import tempfile
from collections import OrderedDict
from itertools import product
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

import numpy as np

from repro.engine import EvaluationEngine, SharedGenotypeCache, load_segment
from repro.engine.memo import ColumnMemo

from test_faults import beacon_problem

GENES = 6
SPACE = list(product((0, 1), repeat=GENES))
PROBE = (0,) * GENES  # the problem constructor's probe genotype


def _signature(objectives, feasible, violations) -> tuple:
    return (
        tuple(float(value).hex() for value in objectives),
        bool(feasible),
        int(violations),
    )


def _oracle() -> dict[tuple[int, ...], tuple]:
    problem = beacon_problem(EvaluationEngine(genotype_cache=False, node_cache=False))
    rows = {}
    for genotype in SPACE:
        design = problem.compute_design(genotype)
        rows[genotype] = _signature(
            design.objectives, design.feasible, design.violation_count
        )
    return rows


ORACLE = _oracle()

#: Half the draws come from a few hot genotypes, so rules keep meeting
#: each other's rows.
genotypes = st.one_of(
    st.sampled_from([SPACE[1], SPACE[22], SPACE[63]]), st.sampled_from(SPACE)
)
batches = st.lists(genotypes, min_size=0, max_size=12)


class EngineMemoMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.cache_dir = Path(tempfile.mkdtemp(prefix="memo-machine-"))

    def teardown(self) -> None:
        self.engine.close()
        if self.peer is not None:
            self.peer.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def _fresh_engine(self) -> None:
        self.engine = EvaluationEngine(
            column_memo_max_entries=self.bound,
            vectorized=self.vectorized,
            shared_cache=self.shared_cache,
        )
        beacon_problem(self.engine)
        # Genotypes the engine holds, tracked for unbounded engines only.
        self.held = {PROBE}
        # Genotypes served as design objects: memoised, so never evicted.
        self.designed = {PROBE}

    @initialize(
        bound=st.sampled_from([None, 1, 3, 8]),
        vectorized=st.booleans(),
        shared=st.booleans(),
    )
    def start(self, bound, vectorized, shared) -> None:
        self.bound = bound
        self.vectorized = vectorized
        self.shared_cache = SharedGenotypeCache() if shared else None
        self.peer = None
        if shared:
            self.peer = EvaluationEngine(shared_cache=self.shared_cache)
            beacon_problem(self.peer)
        self._fresh_engine()

    # ---------------------------------------------------------- serving

    def _check_designs(self, requested, designs) -> None:
        assert len(designs) == len(requested)
        for genotype, design in zip(requested, designs):
            assert tuple(design.genotype) == genotype
            assert (
                _signature(design.objectives, design.feasible, design.violation_count)
                == ORACLE[genotype]
            )

    @rule(genotype=genotypes)
    def evaluate(self, genotype) -> None:
        self._check_designs([genotype], [self.engine.evaluate(genotype)])
        self.held.add(genotype)
        self.designed.add(genotype)

    @rule(batch=batches)
    def evaluate_many(self, batch) -> None:
        self._check_designs(batch, self.engine.evaluate_many(batch))
        self.held.update(batch)
        self.designed.update(batch)

    @rule(batch=batches, prune=st.booleans())
    def evaluate_many_columnar(self, batch, prune) -> None:
        result = self.engine.evaluate_many_columnar(batch, prune_to_front=prune)
        # The serial backend ignores the pruning hint: full batch contract.
        assert [tuple(row) for row in result.genotypes.tolist()] == batch
        for genotype, objectives, feasible, violations in zip(
            batch,
            result.objectives.tolist(),
            result.feasible.tolist(),
            result.violation_counts.tolist(),
        ):
            assert _signature(objectives, feasible, violations) == ORACLE[genotype]
        self.held.update(batch)

    @rule(batch=batches)
    def materialise(self, batch) -> None:
        result = self.engine.evaluate_many_columnar(batch)
        self._check_designs(batch, result.materialise())
        self.held.update(batch)
        self.designed.update(batch)

    @precondition(lambda self: self.peer is not None)
    @rule(batch=batches)
    def peer_publishes(self, batch) -> None:
        self._check_designs(batch, self.peer.evaluate_many(batch))

    @rule(batch=batches)
    def flags_predict_the_work(self, batch) -> None:
        flags = self.engine.cached_row_flags(batch)
        if self.bound is None:
            assert flags == [genotype in self.held for genotype in batch]
        stats = self.engine.stats
        before = stats.model_evaluations + stats.shared_cache_hits
        self.engine.evaluate_many_columnar(batch)
        uncached = {genotype for genotype, flag in zip(batch, flags) if not flag}
        after = stats.model_evaluations + stats.shared_cache_hits
        assert after - before == len(uncached)
        self.held.update(batch)

    # ------------------------------------------------------ persistence

    @rule()
    def spill_and_reload(self) -> None:
        path = self.engine.spill_persistent_cache(self.cache_dir)
        self.engine.close()
        self._fresh_engine()
        loaded = self.engine.load_persistent_cache(self.cache_dir)
        if path is None:
            assert loaded == 0
            return
        segment = load_segment(path)
        stored = {}
        for genotype, objectives, feasible, violations in zip(
            segment.genotypes.tolist(),
            segment.objectives.tolist(),
            segment.feasible.tolist(),
            segment.violation_counts.tolist(),
        ):
            stored[tuple(genotype)] = _signature(objectives, feasible, violations)
        assert len(stored) == len(segment)  # one row per genotype
        for genotype, row in stored.items():
            assert row == ORACLE[genotype]
        # The probe row was computed before the load and keeps precedence.
        assert loaded == len(stored) - (PROBE in stored)
        assert self.engine.stats.rows_loaded_from_disk == loaded
        self.held |= set(stored)

    @precondition(lambda self: self.bound is None)
    @rule()
    def unchanged_reload_skips_the_rewrite(self) -> None:
        path = self.engine.spill_persistent_cache(self.cache_dir)
        if path is None:
            return
        self.engine.close()
        self._fresh_engine()
        self.engine.load_persistent_cache(self.cache_dir)
        self.held |= {tuple(row) for row in load_segment(path).genotypes.tolist()}
        before = path.read_bytes()
        assert self.engine.spill_persistent_cache(self.cache_dir) == path
        assert path.read_bytes() == before

    # -------------------------------------------------------- invariants

    @invariant()
    def ledger_balances(self) -> None:
        for engine in (self.engine, self.peer):
            if engine is None:
                continue
            stats = engine.stats
            served = stats.genotype_cache_hits + stats.shared_cache_hits
            assert stats.genotype_requests == served + stats.model_evaluations

    @invariant()
    def bound_holds(self) -> None:
        if self.bound is not None:
            assert self.engine.column_memo_size <= self.bound

    @invariant()
    def memoised_designs_stay_cached(self) -> None:
        designed = sorted(self.designed)
        assert self.engine.cached_row_flags(designed) == [True] * len(designed)


EngineMemoMachine.TestCase.settings = settings(
    max_examples=150,
    stateful_step_count=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestEngineMemoMachine = EngineMemoMachine.TestCase


@settings(max_examples=60, deadline=None)
@given(bound=st.integers(1, 6), stream=st.lists(batches, max_size=8))
def test_bounded_store_is_exactly_lru(bound, stream):
    """Columnar batches against an ``OrderedDict`` LRU model: a batch first
    touches its hits, then inserts its misses (each in first-occurrence
    order), evicting the least recently used row on every overflow; every
    eviction is counted.  The problem's probe row, memoised as a design at
    construction, stays cached outside the bound."""
    engine = EvaluationEngine(column_memo_max_entries=bound)
    beacon_problem(engine)
    model: OrderedDict[tuple[int, ...], None] = OrderedDict()
    evictions = 0
    for batch in stream:
        engine.evaluate_many_columnar(batch)
        distinct = [g for g in dict.fromkeys(batch) if g != PROBE]
        misses = [genotype for genotype in distinct if genotype not in model]
        for genotype in distinct:
            if genotype in model:
                model.move_to_end(genotype)
        for genotype in misses:
            model[genotype] = None
            if len(model) > bound:
                model.popitem(last=False)
                evictions += 1
        assert engine.cached_row_flags(SPACE) == [
            g in model or g == PROBE for g in SPACE
        ]
        assert engine.stats.column_memo_evictions == evictions
        assert engine.column_memo_size == len(model)


def test_rank_keys_span_several_words_in_genotype_order():
    """A space past 2**63 designs (a 12-node case study is one) keys into
    several words; the packed keys still sort, dedup and search in
    lexicographic genotype order, and decode back to the genotypes."""
    cardinalities = [7] * 30  # 7**30 > 2**64
    memo = ColumnMemo(cardinalities)
    rng = np.random.default_rng(3)
    matrix = rng.integers(0, 7, size=(500, 30))
    matrix[1] = matrix[0]
    matrix[2, :-1] = matrix[0, :-1]  # differs in the last gene only
    matrix[3] = 6  # the largest genotype
    keys = memo.keys(matrix)
    assert keys.dtype.itemsize > 8
    np.testing.assert_array_equal(memo.genotypes(keys), matrix)
    lexicographic = np.lexsort(matrix.T[::-1])
    np.testing.assert_array_equal(
        matrix[np.argsort(keys, kind="stable")], matrix[lexicographic]
    )

    distinct, first = np.unique(keys, return_index=True)
    memo.insert(
        distinct,
        np.arange(len(distinct), dtype=float)[:, None],
        np.ones(len(distinct), dtype=bool),
        np.zeros(len(distinct), dtype=np.int64),
    )
    assert len(memo) == len(distinct) == 499
    slots = memo.find(keys)
    objectives, _, _, _ = memo.rows(slots)
    np.testing.assert_array_equal(
        distinct[objectives[:, 0].astype(np.int64)], keys
    )
    assert memo.find(memo.keys(np.full((1, 30), 5)))[0] == -1  # not stored


def test_twelve_node_space_is_served_from_the_store():
    """The 12-node case study (3.7e19 designs) overflows one key word; the
    engine serves it through the same store, bitwise like an uncached
    engine."""
    from repro.dse.problem import WbsnDseProblem
    from repro.experiments.casestudy import build_case_study_evaluator

    def problem(engine):
        return WbsnDseProblem(build_case_study_evaluator(n_nodes=12), engine=engine)

    cached = problem(EvaluationEngine())
    uncached = problem(EvaluationEngine(genotype_cache=False, node_cache=False))
    assert cached.space.size > 2**63
    rng = np.random.default_rng(11)
    rows = [
        tuple(int(rng.integers(0, c)) for c in cached.space.cardinalities)
        for _ in range(40)
    ]
    batch = rows + rows[:10]
    expected = uncached.engine.evaluate_many_columnar(batch)
    first = cached.engine.evaluate_many_columnar(batch)
    assert cached.engine.cached_row_flags(batch) == [True] * len(batch)
    again = cached.engine.evaluate_many_columnar(batch)
    for result in (first, again):
        np.testing.assert_array_equal(result.genotypes, expected.genotypes)
        assert result.objectives.tobytes() == expected.objectives.tobytes()
        np.testing.assert_array_equal(result.feasible, expected.feasible)
    assert cached.engine.stats.model_evaluations == 1 + 40  # probe + rows


def test_interleaved_inserts_keep_the_store_sorted():
    """Batches inserted in random key order (interleaving run merges)
    against a dict model of the stored rows."""
    memo = ColumnMemo([40, 40, 40])
    rng = np.random.default_rng(5)
    order = rng.permutation(40**3)[:12_000]
    model = {}
    for batch in np.array_split(order, 24):
        matrix = np.stack(np.unravel_index(batch, (40, 40, 40)), axis=1)
        keys = memo.keys(matrix)
        assert (memo.find(keys) == -1).all()
        memo.insert(
            keys,
            np.stack([batch, -batch], axis=1).astype(float),
            batch % 2 == 0,
            batch % 5,
        )
        model.update(zip(batch.tolist(), keys.tolist()))
        probe = rng.choice(order, 300)
        slots = memo.find(memo.keys(np.stack(np.unravel_index(probe, (40,) * 3), 1)))
        known = np.asarray([rank in model for rank in probe.tolist()])
        assert ((slots >= 0) == known).all()
        objectives, feasible, violations, loaded = memo.rows(slots[known])
        np.testing.assert_array_equal(objectives[:, 0], probe[known])
        np.testing.assert_array_equal(feasible, probe[known] % 2 == 0)
        np.testing.assert_array_equal(violations, probe[known] % 5)
        assert not loaded.any()
    keys, objectives, _, _ = memo.columns()
    assert len(memo) == len(model) == 12_000
    assert (keys[1:] > keys[:-1]).all()
    np.testing.assert_array_equal(objectives[:, 0], np.sort(order))


def test_rows_outside_the_space_are_flagged_uncached():
    """``cached_row_flags`` is a pure read that never raises: a row that is
    no genotype of the space (the service forwards client rows unchecked)
    is simply not cached, even where its rank would alias a stored row."""
    engine = EvaluationEngine()
    beacon_problem(engine)
    engine.evaluate_many_columnar(SPACE)
    assert engine.cached_row_flags(
        [(1,) * GENES, (2, 0, 0, 0, 0, 0), (0, 1), (0, 0, 0, 0, 0, -1)]
    ) == [True, False, False, False]
