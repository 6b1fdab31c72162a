"""Application-layer abstraction of the node model (Section 3.3).

The paper characterises the software application executed on the node by
three functions of the input stream and of the node configuration
``chi_node``:

* ``h`` — the output stream ``phi_out = h(phi_in, chi_node)``,
* ``k`` — the resource-usage vector ``u = k(phi_in, chi_node)`` containing
  the microcontroller duty cycle, the memory footprint and the number of
  memory accesses (plus any platform-specific extras),
* ``e`` — the loss-of-quality function between the original and the
  transmitted data.

Concrete applications (the DWT and CS compressors of the Shimmer case study)
subclass :class:`ApplicationModel`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Mapping, Protocol, runtime_checkable

import numpy as np

__all__ = [
    "ResourceUsage",
    "ApplicationModel",
    "ApplicationColumns",
    "VectorizedApplicationModel",
]


@dataclass(frozen=True)
class ResourceUsage:
    """The resource-usage vector ``u`` of the paper.

    Attributes:
        duty_cycle: fraction of time the microcontroller is busy running the
            application (``Duty_app``); values above 1 indicate that the
            application cannot complete in real time at the chosen frequency.
        memory_bytes: RAM footprint during execution (``M_app``).
        memory_accesses_per_second: number of RAM accesses per second
            (``gamma_app``).
        extras: additional platform-specific resources (e.g. DMA channels),
            keyed by resource name.
    """

    duty_cycle: float
    memory_bytes: float
    memory_accesses_per_second: float
    extras: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.duty_cycle < 0:
            raise ValueError("duty_cycle cannot be negative")
        if self.memory_bytes < 0:
            raise ValueError("memory_bytes cannot be negative")
        if self.memory_accesses_per_second < 0:
            raise ValueError("memory_accesses_per_second cannot be negative")

    @property
    def is_schedulable(self) -> bool:
        """Whether the application can complete in real time (duty <= 1)."""
        return self.duty_cycle <= 1.0


class ApplicationModel(abc.ABC):
    """Abstract characterisation ``(h, k, e)`` of an on-node application."""

    #: human-readable label used in reports and experiment tables
    name: str = "application"

    @abc.abstractmethod
    def output_stream_bytes_per_second(
        self, input_stream_bytes_per_second: float, node_config: Any
    ) -> float:
        """The function ``h``: output stream produced for a given input."""

    @abc.abstractmethod
    def resource_usage(
        self, input_stream_bytes_per_second: float, node_config: Any
    ) -> ResourceUsage:
        """The function vector ``k``: resources consumed by the execution."""

    @abc.abstractmethod
    def quality_loss(
        self, input_stream_bytes_per_second: float, node_config: Any
    ) -> float:
        """The function ``e``: loss of quality of the transmitted data.

        For the ECG case study this is the PRD (in percent) between the
        original and the reconstructed signal; any non-negative,
        lower-is-better metric is acceptable for other domains.
        """

    def validate_config(self, node_config: Any) -> None:
        """Optional hook to reject malformed node configurations early."""


@dataclass(frozen=True)
class ApplicationColumns:
    """Column-wise ``(h, k, e)`` outputs for a whole batch of candidates.

    Every field is either one value column (one entry per candidate of the
    batch) or a plain float when the quantity does not depend on the node
    configuration (e.g. the constant memory footprint of the compression
    firmwares) — the vectorized evaluator broadcasts scalars for free.
    """

    output_stream_bytes_per_second: np.ndarray
    duty_cycle: np.ndarray
    memory_bytes: float | np.ndarray
    memory_accesses_per_second: float | np.ndarray
    quality_loss: np.ndarray


@runtime_checkable
class VectorizedApplicationModel(Protocol):
    """Applications that can evaluate ``(h, k, e)`` column-wise.

    ``config_columns`` maps the per-node parameter names of the design space
    (the domain names stripped of their ``node-<i>.`` prefix) to value
    columns.  Implementations must mirror the scalar methods operation for
    operation so that the vectorized fast path stays floating-point-identical
    to the scalar one.
    """

    def application_columns(
        self,
        input_stream_bytes_per_second: float,
        config_columns: Mapping[str, np.ndarray],
    ) -> ApplicationColumns:
        """Evaluate ``(h, k, e)`` for a batch of node configurations."""
        ...  # pragma: no cover - protocol
