"""Uniform random search baseline.

Like :mod:`repro.dse.exhaustive`, the sweep path follows the problem:
``supports_columnar`` problems are sampled in chunks pruned into a running
front on raw columns, everything else in one batch of design objects.
"""

from __future__ import annotations

import warnings
from itertools import islice
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from repro.dse.exhaustive import (
    _absorb_columns,
    _archive_checkpoint,
    _restore_archive,
    _sweeps_columnar,
)
from repro.dse.pareto import pareto_front_indices
from repro.dse.problem import EvaluatedDesign, OptimizationProblem
from repro.engine import faults
from repro.engine.checkpoint import (
    CheckpointWarning,
    load_checkpoint_if_valid,
    save_checkpoint,
)

__all__ = ["RandomSearch"]


class RandomSearch:
    """Samples the design space uniformly and keeps the non-dominated set.

    Random search is the sanity baseline of the DSE comparison: any guided
    algorithm driven by the same evaluation budget should dominate (or at
    least match) its front.

    Problems advertising ``supports_columnar`` are swept columnar to the
    front: distinct genotypes are drawn lazily in ``chunk_size`` blocks,
    each block is served as raw objective columns and pruned into a
    running front, and only the surviving designs are ever materialised.
    Peak memory holds one chunk, the dedup seen-set and the running front —
    never the full sample list.  Other problems (no engine, or
    ``record_evaluations=True``) evaluate the whole sample as design
    objects and extract its front once.  Fronts are bitwise identical
    either way, for any chunk size: the draw stream is shared and the
    chunked running-front pruning is order-identical to the one-shot
    extraction.

    Args:
        problem: the optimisation problem to sample.
        samples: number of uniform draws (duplicates are dropped).
        seed: random seed (the draw stream is deterministic for a seed).
        checkpoint_path: when set, the columnar sweep periodically persists
            its running state — including the RNG state needed to redraw
            the identical sample stream — so an interrupted run resumed
            with the same path produces a front bitwise identical to an
            uninterrupted one (see :mod:`repro.engine.checkpoint`).
            Requires the columnar path.
        checkpoint_every: chunks between checkpoint writes.
        chunk_size: distinct samples per evaluated block of the columnar
            sweep.
        front_callback: when set, called after every absorbed chunk of the
            columnar sweep with the running archive (a
            ``ColumnarBatchResult``, or ``None`` while empty) and the count
            of distinct genotypes consumed — the same progress/cancellation
            hook as :class:`~repro.dse.exhaustive.ExhaustiveSearch`: an
            exception raised by the callback aborts the sweep between
            chunks.  Requires the columnar path.
    """

    #: name stamped into checkpoints; a resume under a different algorithm
    #: is rejected as a context mismatch
    checkpoint_algorithm = "random-search"

    def __init__(
        self,
        problem: OptimizationProblem,
        samples: int = 2000,
        seed: int = 0,
        checkpoint_path: str | Path | None = None,
        checkpoint_every: int = 8,
        chunk_size: int = 1024,
        front_callback: Callable[[object, int], None] | None = None,
    ) -> None:
        if samples <= 0:
            raise ValueError("samples must be positive")
        if checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive")
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self.problem = problem
        self.samples = samples
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        self.chunk_size = chunk_size
        self.front_callback = front_callback
        self._rng = np.random.default_rng(seed)
        # Captured before any draw: a resumed run restores this state and
        # redraws the identical sample stream (draws are pure RNG
        # consumption, so the stream is a function of the state alone).
        self._initial_rng_state = self._rng.bit_generator.state

    def run(self) -> list[EvaluatedDesign]:
        """Sample the space and return the feasible non-dominated designs.

        Evaluation consumes no randomness, so the draw stream is a function
        of the initial RNG state alone — chunked, one-shot and resumed
        runs all see the identical sequence of distinct genotypes and
        return bitwise-identical fronts.
        """
        if _sweeps_columnar(self.problem, self.checkpoint_path, self.front_callback):
            return self._run_columnar()
        genotypes = list(self._draw_stream())
        evaluated = self.problem.evaluate_batch(genotypes)
        feasible = [design for design in evaluated if design.feasible] or evaluated
        front = pareto_front_indices([design.objectives for design in feasible])
        return [feasible[index] for index in front]

    # ------------------------------------------------------------ internals

    def _draw_stream(self) -> Iterator[tuple[int, ...]]:
        """Stream the sample draws: distinct genotypes in first-draw order.

        Lazy on purpose: only the dedup seen-set survives across chunks of
        the streaming sweep — the full distinct-genotype list is never
        materialised, so drawing is O(distinct draws) memory for the set of
        keys but O(1) for the stream itself.  Consuming the stream advances
        ``self._rng`` draw by draw, exactly like the eager loop it
        replaces, so the sequence is identical for a given initial state.
        """
        seen: set[tuple[int, ...]] = set()
        for _ in range(self.samples):
            genotype = self.problem.space.random_genotype(self._rng)
            if genotype in seen:
                continue
            seen.add(genotype)
            yield genotype

    def _run_columnar(self) -> list[EvaluatedDesign]:
        """Chunked running-front sweep over the lazy draw stream.

        The chunked running-front pruning keeps first-occurrence order and
        mirrors the archive-reset semantics of the one-shot object path
        (infeasible rows compete only until the first feasible design
        appears), so its final front is identical to the one-shot
        extraction — the parity suite pins this.  With a ``checkpoint_path`` the sweep periodically
        persists its resumable state; the checkpoint cursor counts *distinct*
        genotypes consumed, and a resume replays the draw stream from the
        initial RNG state, skipping the consumed prefix while rebuilding the
        dedup seen-set.
        """
        archive = None
        any_feasible = False
        cursor = 0
        if self.checkpoint_path is not None:
            fingerprint_hook = getattr(
                self.problem, "evaluation_fingerprint", None
            )
            restored = load_checkpoint_if_valid(
                self.checkpoint_path,
                algorithm=self.checkpoint_algorithm,
                space_size=self.problem.space.size,
                fingerprint=(
                    fingerprint_hook() if callable(fingerprint_hook) else None
                ),
            )
            if restored is not None:
                if (
                    restored.rng_state != self._initial_rng_state
                    or restored.extra.get("samples") != self.samples
                ):
                    warnings.warn(
                        "ignoring checkpoint: it was written by a random "
                        "search with a different seed or sample budget; "
                        "starting cold",
                        CheckpointWarning,
                        stacklevel=2,
                    )
                else:
                    archive = _restore_archive(self.problem, restored)
                    any_feasible = restored.any_feasible
                    cursor = restored.cursor
        stream = self._draw_stream()
        if cursor:
            # Replay the consumed prefix: raw draws are redrawn from the
            # initial RNG state and the distinct ones discarded, which both
            # rebuilds the dedup seen-set and positions the stream exactly
            # where the interrupted run stopped.
            for _ in islice(stream, cursor):
                pass
        chunks_done = 0
        position = cursor
        while True:
            chunk = list(islice(stream, self.chunk_size))
            if not chunk:
                break
            position += len(chunk)
            archive, any_feasible = _absorb_columns(
                self.problem, archive, any_feasible, chunk
            )
            chunks_done += 1
            if self.front_callback is not None:
                self.front_callback(archive, position)
            if (
                self.checkpoint_path is not None
                and chunks_done % self.checkpoint_every == 0
            ):
                self._save_checkpoint(archive, any_feasible, position)
        if self.checkpoint_path is not None:
            self._save_checkpoint(archive, any_feasible, position)
        if archive is None or len(archive) == 0:
            return []
        return archive.materialise()

    def _save_checkpoint(self, archive, any_feasible: bool, cursor: int) -> None:
        save_checkpoint(
            self.checkpoint_path,
            _archive_checkpoint(
                self.checkpoint_algorithm,
                self.problem,
                archive,
                any_feasible,
                cursor,
                rng_state=self._initial_rng_state,
                extra={"samples": self.samples},
            ),
        )
        faults.maybe_fire("checkpoint-saved")
