"""Transmission-interval assignment problem (equations (1)-(2)).

Given the per-node data requirement (output stream plus MAC data overhead) and
the protocol's time discretisation ``delta``, the MAC must choose an integer
number of base time units ``k(n)`` per node such that

    Delta_tx(n) = k(n) * delta >= T_tx(phi_out(n) + Omega(phi_out(n), chi_mac))

subject to the protocol's global budget (equation (2)):

    sum_n Delta_tx(n) + Delta_control(chi_mac) <= 1 second per second

and to any additional protocol cap (e.g. at most seven GTS slots per
IEEE 802.15.4 superframe).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "SlotAssignment",
    "SlotAssignmentColumns",
    "assign_transmission_intervals",
    "assign_transmission_interval_columns",
]


@dataclass(frozen=True)
class SlotAssignment:
    """Result of the transmission-interval assignment.

    Attributes:
        slot_counts: the integers ``k(n)``, one per node.
        transmission_intervals_s: the ``Delta_tx(n) = k(n) * delta`` values,
            expressed as channel seconds per second.
        base_time_unit_s: the discretisation ``delta`` (per second of
            operation).
        control_time_per_second: ``Delta_control`` used for the budget check.
        max_assignable_time_per_second: protocol cap on the summed intervals.
        feasible: whether both the per-node requirements and the global budget
            are satisfied.
        slack_s: unused assignable time per second (negative when the budget
            is exceeded).
    """

    slot_counts: tuple[int, ...]
    transmission_intervals_s: tuple[float, ...]
    base_time_unit_s: float
    control_time_per_second: float
    max_assignable_time_per_second: float
    feasible: bool
    slack_s: float

    @property
    def total_transmission_time_s(self) -> float:
        """Sum of all assigned transmission intervals per second."""
        return float(sum(self.transmission_intervals_s))


def assign_transmission_intervals(
    required_transmission_times_s: Sequence[float],
    base_time_unit_s: float,
    control_time_per_second: float,
    max_assignable_time_per_second: float | None = None,
) -> SlotAssignment:
    """Solve the assignment problem with the minimal feasible ``k(n)``.

    Args:
        required_transmission_times_s: per-node ``T_tx(phi_out + Omega)``,
            i.e. the channel seconds per second each node needs.
        base_time_unit_s: the discretisation ``delta`` (channel seconds per
            second granted by one slot).
        control_time_per_second: ``Delta_control(chi_mac)``.
        max_assignable_time_per_second: optional protocol cap on
            ``sum_n Delta_tx(n)``; defaults to ``1 - Delta_control``.

    Returns:
        A :class:`SlotAssignment`; ``feasible`` is ``False`` when the minimal
        assignment violates the budget (the assignment itself is still
        reported so the DSE can quantify by how much).
    """
    if base_time_unit_s <= 0:
        raise ValueError("base_time_unit_s must be positive")
    if control_time_per_second < 0:
        raise ValueError("control_time_per_second cannot be negative")
    if any(required < 0 for required in required_transmission_times_s):
        raise ValueError("required transmission times cannot be negative")

    budget_cap = 1.0 - control_time_per_second
    if max_assignable_time_per_second is None:
        max_assignable_time_per_second = budget_cap
    cap = min(budget_cap, max_assignable_time_per_second)

    slot_counts: list[int] = []
    intervals: list[float] = []
    for required in required_transmission_times_s:
        # The minimal integer number of base units covering the requirement.
        # A node with no data still receives zero slots (it stays silent).
        count = int(math.ceil(required / base_time_unit_s - 1e-12)) if required > 0 else 0
        slot_counts.append(count)
        intervals.append(count * base_time_unit_s)

    total = float(sum(intervals))
    slack = cap - total
    feasible = slack >= -1e-12 and cap >= 0
    return SlotAssignment(
        slot_counts=tuple(slot_counts),
        transmission_intervals_s=tuple(intervals),
        base_time_unit_s=base_time_unit_s,
        control_time_per_second=control_time_per_second,
        max_assignable_time_per_second=max_assignable_time_per_second,
        feasible=feasible,
        slack_s=slack,
    )


@dataclass(frozen=True)
class SlotAssignmentColumns:
    """Column-wise slot assignment for a batch of candidates.

    Attributes:
        slot_counts: the ``k(n)`` integers, shape ``(batch, nodes)``.
        transmission_intervals_s: ``k(n) * delta``, shape ``(batch, nodes)``.
        total_transmission_time_s: summed intervals per candidate.
        slack_s: unused assignable time per candidate.
        feasible: budget satisfaction per candidate.
    """

    slot_counts: np.ndarray
    transmission_intervals_s: np.ndarray
    total_transmission_time_s: np.ndarray
    slack_s: np.ndarray
    feasible: np.ndarray


def assign_transmission_interval_columns(
    required_transmission_times_s: np.ndarray,
    base_time_unit_s: np.ndarray,
    control_time_per_second: np.ndarray,
    max_assignable_time_per_second: np.ndarray,
) -> SlotAssignmentColumns:
    """Column-wise :func:`assign_transmission_intervals` for a batch.

    Args:
        required_transmission_times_s: per-node requirements, shape
            ``(batch, nodes)``.
        base_time_unit_s: the discretisation ``delta`` per candidate.
        control_time_per_second: ``Delta_control`` per candidate.
        max_assignable_time_per_second: protocol cap per candidate.

    The arithmetic mirrors the scalar solver operation for operation (same
    epsilon, same left-to-right interval summation), so the columns are
    floating-point-identical to per-candidate scalar calls.
    """
    required = np.asarray(required_transmission_times_s, dtype=float)
    base = np.asarray(base_time_unit_s, dtype=float)
    counts = np.where(
        required > 0,
        np.ceil(required / base[:, None] - 1e-12),
        0.0,
    ).astype(np.int64)
    intervals = counts * base[:, None]
    total = np.zeros(len(required))
    for column in range(intervals.shape[1]):
        total = total + intervals[:, column]
    budget_cap = 1.0 - np.asarray(control_time_per_second, dtype=float)
    cap = np.minimum(budget_cap, np.asarray(max_assignable_time_per_second, float))
    slack = cap - total
    feasible = (slack >= -1e-12) & (cap >= 0)
    return SlotAssignmentColumns(
        slot_counts=counts,
        transmission_intervals_s=intervals,
        total_transmission_time_s=total,
        slack_s=slack,
        feasible=feasible,
    )
