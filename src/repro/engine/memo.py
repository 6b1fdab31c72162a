"""Array-backed column-row store of the evaluation engine.

The engine memoises every evaluated genotype as a *column row* — penalised
objective vector, feasibility flag, violation count — and serves cached rows
straight back into columnar batches.  :class:`ColumnMemo` keeps those rows
as sorted NumPy columns instead of per-genotype Python objects, so a batch is
looked up, deduplicated and inserted with a handful of vectorised calls and
a warm start adopts an on-disk segment's arrays without building a single
tuple.

**Keys.**  A genotype's key is its mixed-radix rank in the design space —
the position of the genotype in row-major enumeration order, which is also
the lexicographic genotype order segments are stored in.  Spaces of up to
2**63 designs rank into one 64-bit word; larger spaces split the genes into
consecutive groups whose radix products each fit a word, and the key packs
the words big-endian into one fixed-width byte string (``S8``, ``S16``,
...).  Byte-string comparison of big-endian words is numeric comparison, so
every space size shares one code path: ``np.searchsorted`` / ``np.unique``
on the packed keys.

**Layout.**  A short list of sorted *runs* with disjoint keys, each a set of
parallel columns (key, objectives, feasible, violations, row source and,
for bounded stores, a recency stamp and a pin flag).  The source tells rows
computed in this process (:data:`COMPUTED`) from rows adopted off a
persistent segment (:data:`LOADED`) and from computed rows that a
later-loaded segment also holds (:data:`MIRRORED`).  An insert appends its
batch as a new run, then merges the last two runs for as long as the older
one is at most twice the size of the newer, so run sizes shrink
geometrically: a lookup searches O(log n) runs, and an insert copies
O(batch * log n) rows amortised — never the whole store per batch, and a
loaded segment's run is only copied once the rows inserted after it add up
to half its size.  A slot number addresses a row across all runs (in run
order) until the next insert, eviction or compaction.

**LRU bound.**  With ``max_entries`` set, every touch and insert stamps its
rows from a monotonic clock, in call order; :meth:`ColumnMemo.evict` then
drops the oldest stamps beyond the bound — exactly the rows a per-insert
least-recently-used policy would have dropped, since inserted rows always
carry the newest stamps.  Between an insert and the :meth:`evict` that
follows it the store can hold up to one batch more than the bound.  Rows
the caller *pins* (their genotypes are memoised as design objects
elsewhere, so dropping the row would save nothing) are never removed: an
eviction only takes them out of the bound's accounting (stamp
:data:`UNCOUNTED`), and rows inserted with ``counted=False`` start there.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["COMPUTED", "LOADED", "MIRRORED", "UNCOUNTED", "ColumnMemo"]

#: Row sources.
COMPUTED, LOADED, MIRRORED = 0, 1, 2

#: Recency stamp of a row outside the LRU bound's accounting.
UNCOUNTED = -1

#: Largest radix product ranked into one key word (ranks stay below 2**63).
_WORD_LIMIT = 1 << 63
#: Genotype-matrix elements ranked per block by :meth:`ColumnMemo.keys`.
_KEY_BLOCK = 1 << 18

_COLUMNS = (
    "keys", "objectives", "feasible", "violations", "source", "stamps", "pinned"
)


class _Run:
    """One sorted run of the store: parallel columns, ascending keys."""

    __slots__ = _COLUMNS

    def __init__(
        self, keys, objectives, feasible, violations, source, stamps, pinned
    ):
        self.keys = keys
        self.objectives = objectives
        self.feasible = feasible
        self.violations = violations
        self.source = source
        self.stamps = stamps
        self.pinned = pinned

    def __len__(self) -> int:
        return len(self.keys)

    def take(self, index: np.ndarray) -> "_Run":
        """The rows at ``index`` (integer or boolean), as a new run."""
        return _Run(
            *(
                None if getattr(self, name) is None else getattr(self, name)[index]
                for name in _COLUMNS
            )
        )


def _merge(older: _Run, newer: _Run) -> _Run:
    """One sorted run of two runs with disjoint keys (each column of the
    inputs can be released as soon as its merged copy exists)."""
    if not len(older):
        return newer
    if not len(newer):
        return older
    if older.keys[-1] < newer.keys[0] or newer.keys[-1] < older.keys[0]:
        # Disjoint key ranges (the ascending inserts of a sweep): no
        # interleave, one concatenation per column.
        first, second = (
            (older, newer) if older.keys[-1] < newer.keys[0] else (newer, older)
        )
        return _Run(
            *(
                None
                if getattr(first, name) is None
                else np.concatenate([getattr(first, name), getattr(second, name)])
                for name in _COLUMNS
            )
        )
    incoming = np.searchsorted(older.keys, newer.keys) + np.arange(len(newer))
    resident = np.searchsorted(newer.keys, older.keys) + np.arange(len(older))
    total = len(older) + len(newer)
    merged = []
    for name in _COLUMNS:
        column = getattr(older, name)
        if column is None:
            merged.append(None)
            continue
        out = np.empty((total,) + column.shape[1:], dtype=column.dtype)
        out[resident] = column
        out[incoming] = getattr(newer, name)
        merged.append(out)
    return _Run(*merged)


class ColumnMemo:
    """Sorted, array-backed store of column rows keyed by genotype rank.

    Args:
        cardinalities: per-gene domain sizes of the design space.
        max_entries: optional LRU bound on the counted rows (see
            :meth:`evict`); ``None`` keeps the store unbounded and stamps
            nothing.
    """

    def __init__(self, cardinalities, *, max_entries: int | None = None) -> None:
        cardinalities = [int(c) for c in cardinalities]
        self._cardinalities = cardinalities
        # Consecutive gene groups whose radix products fit one key word.
        groups: list[tuple[int, int]] = []
        start, product = 0, 1
        for gene, cardinality in enumerate(cardinalities):
            if product * cardinality > _WORD_LIMIT:
                groups.append((start, gene))
                start, product = gene, 1
            product *= cardinality
        groups.append((start, len(cardinalities)))
        self._groups = groups
        # Mixed-radix place values of each gene within its word.
        self._weights = [
            np.asarray(
                [math.prod(cardinalities[g + 1 : stop]) for g in range(start, stop)],
                dtype=np.int64,
            )
            for start, stop in groups
        ]
        self._key_dtype = np.dtype(f"S{8 * len(groups)}")
        self.max_entries = max_entries
        self._clock = 0
        self._runs: list[_Run] = []

    # ------------------------------------------------------------- keys

    def keys(self, matrix: np.ndarray) -> np.ndarray:
        """Rank keys of validated ``(rows, genes)`` gene-index rows."""
        matrix = np.asarray(matrix, dtype=np.int64)
        words = np.empty((len(matrix), len(self._groups)), dtype=">u8")
        # Row blocks bound the copy NumPy makes of an unaligned input (a
        # loaded segment's memory-mapped genotype matrix is one).
        step = max(1, _KEY_BLOCK // len(self._cardinalities))
        for begin in range(0, len(matrix), step):
            block = matrix[begin : begin + step]
            for word, ((start, stop), weights) in enumerate(
                zip(self._groups, self._weights)
            ):
                words[begin : begin + step, word] = block[:, start:stop] @ weights
        return words.view(self._key_dtype).reshape(len(matrix))

    def genotypes(self, keys: np.ndarray) -> np.ndarray:
        """Gene-index rows of rank keys — the inverse of :meth:`keys`."""
        words = keys.view(">u8").reshape(len(keys), len(self._groups))
        matrix = np.empty((len(keys), len(self._cardinalities)), dtype=np.int64)
        for word, (start, stop) in enumerate(self._groups):
            rank = words[:, word].astype(np.int64)
            for gene in range(stop - 1, start, -1):
                rank, matrix[:, gene] = np.divmod(rank, self._cardinalities[gene])
            matrix[:, start] = rank
        return matrix

    # ----------------------------------------------------------- lookups

    def __len__(self) -> int:
        return sum(len(run) for run in self._runs)

    def counted_rows(self) -> int:
        """Rows the LRU bound counts (every row of an unbounded store)."""
        if self.max_entries is None:
            return len(self)
        return sum(int(np.count_nonzero(run.stamps != UNCOUNTED)) for run in self._runs)

    def computed_rows(self) -> int:
        """Stored rows no loaded segment holds (source :data:`COMPUTED`)."""
        return sum(int(np.count_nonzero(run.source == COMPUTED)) for run in self._runs)

    def find(self, keys: np.ndarray) -> np.ndarray:
        """Slot of each key, ``-1`` where the store holds no row for it."""
        slots = np.full(len(keys), -1, dtype=np.int64)
        offset = 0
        for run in self._runs:
            size = len(run.keys)
            if size:
                at = run.keys.searchsorted(keys)
                np.minimum(at, size - 1, out=at)
                found = run.keys[at] == keys
                slots[found] = at[found] + offset
            offset += size
        return slots

    def rows(self, slots: np.ndarray):
        """``(objectives, feasible, violations, loaded)`` of the rows at
        valid, non-empty ``slots``, in slot order (``loaded`` flags
        :data:`LOADED` rows)."""
        parts = list(self._locate(slots))
        if len(parts) == 1:
            _, run, index = parts[0]
            return (
                run.objectives[index],
                run.feasible[index],
                run.violations[index],
                run.source[index] == LOADED,
            )
        # Gather from several runs into one set of columns.
        width = self._runs[0].objectives.shape[1] if self._runs else 0
        objectives = np.empty((len(slots), width))
        feasible = np.empty(len(slots), dtype=bool)
        violations = np.empty(len(slots), dtype=np.int64)
        loaded = np.empty(len(slots), dtype=bool)
        for mask, run, index in parts:
            objectives[mask] = run.objectives[index]
            feasible[mask] = run.feasible[index]
            violations[mask] = run.violations[index]
            loaded[mask] = run.source[index] == LOADED
        return objectives, feasible, violations, loaded

    # ----------------------------------------------------------- updates

    def touch(self, slots: np.ndarray) -> None:
        """Mark counted rows as most recently used, in ``slots`` order
        (uncounted rows stay outside the bound)."""
        if self.max_entries is None or not len(slots):
            return
        stamps = self._tick(len(slots))
        for mask, run, index in self._locate(slots):
            run.stamps[index] = np.where(
                run.stamps[index] == UNCOUNTED, UNCOUNTED, stamps[mask]
            )

    def pin(self, slots: np.ndarray) -> None:
        """Keep the rows at ``slots`` in the store through any eviction."""
        if self.max_entries is None or not len(slots):
            return
        for _, run, index in self._locate(slots):
            run.pinned[index] = True

    def insert(
        self,
        keys: np.ndarray,
        objectives: np.ndarray,
        feasible: np.ndarray,
        violations: np.ndarray,
        *,
        pinned=False,
        counted=True,
    ) -> None:
        """Store computed rows for distinct keys the store does not hold yet.

        ``pinned`` and ``counted`` (a flag, or one flag per row) only
        matter to a bounded store: pinned rows are never removed, and rows
        not counted stay outside the bound (they must be pinned).  Counted
        rows are stamped most-recently-used in the given order; call
        :meth:`evict` once the batch is complete.
        """
        if not len(keys):
            return
        run = self._run(keys, objectives, feasible, violations, COMPUTED)
        if run.stamps is not None:
            run.pinned[:] = pinned
            run.stamps[~np.broadcast_to(counted, len(keys))] = UNCOUNTED
        if len(keys) > 1:
            run = run.take(np.argsort(run.keys, kind="stable"))
        runs = self._runs
        runs.append(run)
        while len(runs) > 1 and len(runs[-2]) <= 2 * len(runs[-1]):
            newer = runs.pop()
            runs[-1] = _merge(runs[-1], newer)

    def adopt(
        self,
        keys: np.ndarray,
        objectives: np.ndarray,
        feasible: np.ndarray,
        violations: np.ndarray,
    ) -> int:
        """Load a persisted segment's rows; returns how many were new.

        The segment becomes the first run — its (sorted) columns as-is, so
        a loaded segment's read-only memory-mapped arrays are served
        without a copy — and the rows stored so far follow as one run,
        except those the segment also holds: they stay in place of the
        segment's row (values, recency, pin, source), marked
        :data:`MIRRORED` if they were computed here.  Of keys repeated in
        the segment the first wins.  New rows are counted and stamped
        most-recently-used in segment order.
        """
        if not len(keys):
            return 0
        ranks = None
        if len(keys) > 1 and not (keys[1:] > keys[:-1]).all():
            _, first = np.unique(keys, return_index=True)
            keys, objectives, feasible, violations = (
                keys[first], objectives[first], feasible[first], violations[first]
            )
            ranks = np.argsort(np.argsort(first))  # segment order of each row
        self._compact()
        local = self._runs[0] if self._runs else None
        segment = self._run(keys, objectives, feasible, violations, LOADED)
        if ranks is not None and segment.stamps is not None:
            segment.stamps = segment.stamps[0] + ranks
        shared = np.zeros(0, dtype=bool)
        if local is not None:
            at = np.minimum(segment.keys.searchsorted(local.keys), len(segment) - 1)
            shared = segment.keys[at] == local.keys
        if shared.any():
            rows, mine = at[shared], local.take(shared)
            for name in ("objectives", "feasible", "violations"):
                column = getattr(segment, name)
                ours = getattr(mine, name)
                if not np.array_equal(column[rows], ours):
                    column = column.copy()
                    column[rows] = ours
                    setattr(segment, name, column)
            segment.source[rows] = np.where(
                mine.source == COMPUTED, MIRRORED, mine.source
            )
            if segment.stamps is not None:
                segment.stamps[rows] = mine.stamps
                segment.pinned[rows] = mine.pinned
        self._runs = [segment]
        if local is not None and not shared.all():
            self._runs.append(local.take(~shared))
        return len(keys) - int(np.count_nonzero(shared))

    def evict(self) -> int:
        """Take the least recently used counted rows beyond ``max_entries``
        out of the bound — removing them, unless pinned; returns how many
        went."""
        if self.max_entries is None or len(self) <= self.max_entries:
            return 0
        stamps = np.concatenate([run.stamps for run in self._runs])
        counted = np.flatnonzero(stamps != UNCOUNTED)
        excess = len(counted) - self.max_entries
        if excess <= 0:
            return 0
        victims = counted[np.argpartition(stamps[counted], excess - 1)[:excess]]
        keep = np.ones(len(stamps), dtype=bool)
        keep[victims] = False
        offset = 0
        runs = []
        for run in self._runs:
            kept = keep[offset : offset + len(run)]
            offset += len(run)
            # Pinned victims stay, outside the bound from now on; a loaded
            # row that leaves the bound no longer counts as a disk hit.
            leaving = ~kept & run.pinned
            if leaving.any():
                run.stamps[leaving] = UNCOUNTED
                run.source[leaving & (run.source == LOADED)] = MIRRORED
                kept = kept | leaving
            if kept.all():
                runs.append(run)
            elif kept.any():
                runs.append(run.take(kept))
        self._runs = runs
        return excess

    def columns(self):
        """Every row of a non-empty store, ascending by key: ``(keys,
        objectives, feasible, violations)``."""
        self._compact()
        run = self._runs[0]
        return run.keys, run.objectives, run.feasible, run.violations

    # ---------------------------------------------------------- internals

    def _locate(self, slots: np.ndarray):
        """``(mask, run, index)`` per run the ``slots`` fall in: ``mask``
        selects the slots, ``index`` their rows within the run."""
        if len(self._runs) == 1:
            return [(slice(None), self._runs[0], slots)]
        starts = np.cumsum([0] + [len(run) for run in self._runs[:-1]])
        which = np.searchsorted(starts, slots, side="right") - 1
        parts = []
        for number, (run, start) in enumerate(zip(self._runs, starts.tolist())):
            mask = which == number
            if mask.any():
                parts.append((mask, run, slots[mask] - start))
        return parts

    def _tick(self, count: int) -> np.ndarray:
        stamps = np.arange(self._clock, self._clock + count, dtype=np.int64)
        self._clock += count
        return stamps

    def _run(self, keys, objectives, feasible, violations, source: int) -> _Run:
        bounded = self.max_entries is not None
        return _Run(
            keys,
            np.asarray(objectives, dtype=np.float64),
            np.asarray(feasible, dtype=bool),
            np.asarray(violations, dtype=np.int64),
            np.full(len(keys), source, dtype=np.int8),
            self._tick(len(keys)) if bounded else None,
            np.zeros(len(keys), dtype=bool) if bounded else None,
        )

    def _compact(self) -> None:
        """Merge every run into one."""
        runs = self._runs
        while len(runs) > 1:
            newer = runs.pop()
            runs[-1] = _merge(runs[-1], newer)
