"""Node-level energy model (Section 3.3, equations (3)-(7)).

All quantities are expressed per second of operation, so the "energies"
returned by the individual components are average powers in watt (equivalent
to joule per second, the unit used by the paper's figures once scaled to
millijoule per second).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.application import ResourceUsage
from repro.core.mac_abstraction import MACQuantities, MACQuantityColumns

__all__ = [
    "SensorModel",
    "MicrocontrollerModel",
    "MemoryModel",
    "RadioLinkModel",
    "NodeEnergyBreakdown",
    "NodeEnergyColumns",
    "NodeEnergyModel",
]


@dataclass(frozen=True)
class SensorModel:
    """Sensing front-end energy, equation (3).

    ``E_sensor = E_transducer + alpha_s1 * f_s + alpha_s0``

    Attributes:
        transducer_power_w: constant overhead of the analogue transducer
            (``E_transducer``).
        alpha_s1_j_per_sample: energy per conversion of the A/D circuit.
        alpha_s0_w: static power of the A/D circuit.
    """

    transducer_power_w: float
    alpha_s1_j_per_sample: float
    alpha_s0_w: float

    def __post_init__(self) -> None:
        if min(self.transducer_power_w, self.alpha_s1_j_per_sample, self.alpha_s0_w) < 0:
            raise ValueError("sensor model coefficients cannot be negative")

    def energy_per_second(self, sampling_rate_hz: float) -> float:
        """Average sensing power for a given sampling frequency."""
        if sampling_rate_hz < 0:
            raise ValueError("sampling_rate_hz cannot be negative")
        return (
            self.transducer_power_w
            + self.alpha_s1_j_per_sample * sampling_rate_hz
            + self.alpha_s0_w
        )


@dataclass(frozen=True)
class MicrocontrollerModel:
    """Microcontroller energy, equation (4).

    ``E_uC = Duty_app * (alpha_uC1 * f_uC + alpha_uC0)``

    Attributes:
        alpha_uc1_w_per_hz: active-power slope versus clock frequency.
        alpha_uc0_w: frequency-independent active power.
        max_frequency_hz: maximum supported clock frequency (used only for
            validation).
    """

    alpha_uc1_w_per_hz: float
    alpha_uc0_w: float
    max_frequency_hz: float = 8e6

    def __post_init__(self) -> None:
        if min(self.alpha_uc1_w_per_hz, self.alpha_uc0_w) < 0:
            raise ValueError("microcontroller coefficients cannot be negative")
        if self.max_frequency_hz <= 0:
            raise ValueError("max_frequency_hz must be positive")

    def active_power_w(self, frequency_hz: float) -> float:
        """Power drawn while the core is actively executing."""
        if frequency_hz <= 0:
            raise ValueError("frequency_hz must be positive")
        return self.alpha_uc1_w_per_hz * frequency_hz + self.alpha_uc0_w

    def energy_per_second(self, duty_cycle: float, frequency_hz: float) -> float:
        """Average microcontroller power for a given duty cycle."""
        if duty_cycle < 0:
            raise ValueError("duty_cycle cannot be negative")
        return duty_cycle * self.active_power_w(frequency_hz)

    def energy_per_second_columns(
        self, duty_cycle: np.ndarray, frequency_hz: np.ndarray
    ) -> np.ndarray:
        """Column-wise :meth:`energy_per_second` (same operation order)."""
        return duty_cycle * (self.alpha_uc1_w_per_hz * frequency_hz + self.alpha_uc0_w)


@dataclass(frozen=True)
class MemoryModel:
    """On-chip memory energy, equation (5).

    ``E_mem = gamma * T_mem * E_acc + (1 - gamma * T_mem) * 8 * M_app * E_bit_idle``

    The first term is the dynamic power spent while the memory is being
    accessed (``gamma`` accesses per second, each keeping the array active for
    ``T_mem`` seconds at power ``E_acc``); the second term is the leakage of
    the ``8 * M_app`` bits that are merely retained for the rest of the time.

    Attributes:
        access_time_s: duration of one access (``T_mem``).
        access_power_w: power drawn during an access (``E_acc``).
        idle_power_per_bit_w: leakage power per retained bit (``E_bit_idle``).
    """

    access_time_s: float
    access_power_w: float
    idle_power_per_bit_w: float

    def __post_init__(self) -> None:
        if min(self.access_time_s, self.access_power_w, self.idle_power_per_bit_w) < 0:
            raise ValueError("memory model coefficients cannot be negative")

    def energy_per_second(
        self, accesses_per_second: float, memory_bytes: float
    ) -> float:
        """Average memory power for the given access rate and footprint."""
        if accesses_per_second < 0:
            raise ValueError("accesses_per_second cannot be negative")
        if memory_bytes < 0:
            raise ValueError("memory_bytes cannot be negative")
        active_fraction = min(1.0, accesses_per_second * self.access_time_s)
        dynamic = active_fraction * self.access_power_w
        leakage = (1.0 - active_fraction) * 8.0 * memory_bytes * self.idle_power_per_bit_w
        return dynamic + leakage

    def energy_per_second_columns(
        self,
        accesses_per_second: np.ndarray,
        memory_bytes: np.ndarray,
    ) -> np.ndarray:
        """Column-wise :meth:`energy_per_second` (same operation order)."""
        active_fraction = np.minimum(1.0, accesses_per_second * self.access_time_s)
        dynamic = active_fraction * self.access_power_w
        leakage = (
            (1.0 - active_fraction) * 8.0 * memory_bytes * self.idle_power_per_bit_w
        )
        return dynamic + leakage


@dataclass(frozen=True)
class RadioLinkModel:
    """Radio energy and timing, equation (6).

    ``E_radio = (8 * (phi_out + Omega) + 8 * Psi_n_to_c) * E_tx
               + 8 * Psi_c_to_n * E_rx``

    Attributes:
        energy_per_bit_tx_j: transmission energy per bit (depends on the
            carrier power chosen to meet the target packet-error rate).
        energy_per_bit_rx_j: reception energy per bit.
        bit_rate_bps: physical-layer bit rate, used to compute the
            transmission time ``T_tx`` of equation (1).
    """

    energy_per_bit_tx_j: float
    energy_per_bit_rx_j: float
    bit_rate_bps: float

    def __post_init__(self) -> None:
        if min(self.energy_per_bit_tx_j, self.energy_per_bit_rx_j) < 0:
            raise ValueError("radio energies cannot be negative")
        if self.bit_rate_bps <= 0:
            raise ValueError("bit_rate_bps must be positive")

    def transmission_time_s(self, payload_bytes_per_second: float) -> float:
        """``T_tx``: seconds needed to transmit the given amount of data."""
        if payload_bytes_per_second < 0:
            raise ValueError("payload_bytes_per_second cannot be negative")
        return 8.0 * payload_bytes_per_second / self.bit_rate_bps

    def energy_per_second(
        self, output_stream_bytes_per_second: float, mac: MACQuantities
    ) -> float:
        """Average radio power given the MAC overheads of equation (6)."""
        if output_stream_bytes_per_second < 0:
            raise ValueError("output_stream_bytes_per_second cannot be negative")
        transmitted_bits = 8.0 * (
            output_stream_bytes_per_second
            + mac.data_overhead_bytes_per_second
            + mac.control_node_to_coordinator_bytes_per_second
        )
        received_bits = 8.0 * mac.control_coordinator_to_node_bytes_per_second
        return (
            transmitted_bits * self.energy_per_bit_tx_j
            + received_bits * self.energy_per_bit_rx_j
        )

    def transmission_time_columns(
        self, payload_bytes_per_second: np.ndarray
    ) -> np.ndarray:
        """Column-wise :meth:`transmission_time_s` (same operation order)."""
        return 8.0 * payload_bytes_per_second / self.bit_rate_bps

    def energy_per_second_columns(
        self,
        output_stream_bytes_per_second: np.ndarray,
        mac: MACQuantityColumns,
    ) -> np.ndarray:
        """Column-wise :meth:`energy_per_second` (same operation order)."""
        transmitted_bits = 8.0 * (
            output_stream_bytes_per_second
            + mac.data_overhead_bytes_per_second
            + mac.control_node_to_coordinator_bytes_per_second
        )
        received_bits = 8.0 * mac.control_coordinator_to_node_bytes_per_second
        return (
            transmitted_bits * self.energy_per_bit_tx_j
            + received_bits * self.energy_per_bit_rx_j
        )


@dataclass(frozen=True)
class NodeEnergyBreakdown:
    """Per-layer energy contributions of one node (equation (7)).

    All fields are average powers in watt.
    """

    sensor_w: float
    microcontroller_w: float
    memory_w: float
    radio_w: float

    @property
    def total_w(self) -> float:
        """``E_node``: overall node consumption."""
        return self.sensor_w + self.microcontroller_w + self.memory_w + self.radio_w

    @property
    def total_mj_per_s(self) -> float:
        """Total consumption in the mJ/s unit used by the paper's figures."""
        return self.total_w * 1e3


@dataclass(frozen=True)
class NodeEnergyColumns:
    """Column-wise per-layer energy contributions for a batch of candidates.

    Fields mirror :class:`NodeEnergyBreakdown`; quantities that do not depend
    on the node configuration (the sensing front-end, and the memory when the
    footprint is constant) are plain floats broadcast by the array ops.
    """

    sensor_w: float | np.ndarray
    microcontroller_w: np.ndarray
    memory_w: float | np.ndarray
    radio_w: np.ndarray

    @property
    def total_w(self) -> np.ndarray:
        """``E_node`` column (same accumulation order as the scalar model)."""
        return self.sensor_w + self.microcontroller_w + self.memory_w + self.radio_w


@dataclass(frozen=True)
class NodeEnergyModel:
    """Composition of the four node-level energy contributions.

    The model is platform-specific only through its coefficient values; the
    Shimmer instantiation is built by :func:`repro.shimmer.platform.build_shimmer_energy_model`.
    """

    sensor: SensorModel
    microcontroller: MicrocontrollerModel
    memory: MemoryModel
    radio: RadioLinkModel
    ram_bytes: float = 10_240.0

    def evaluate(
        self,
        sampling_rate_hz: float,
        microcontroller_frequency_hz: float,
        usage: ResourceUsage,
        output_stream_bytes_per_second: float,
        mac: MACQuantities,
    ) -> NodeEnergyBreakdown:
        """Evaluate equations (3)-(7) for one node configuration."""
        return NodeEnergyBreakdown(
            sensor_w=self.sensor.energy_per_second(sampling_rate_hz),
            microcontroller_w=self.microcontroller.energy_per_second(
                usage.duty_cycle, microcontroller_frequency_hz
            ),
            memory_w=self.memory.energy_per_second(
                usage.memory_accesses_per_second, usage.memory_bytes
            ),
            radio_w=self.radio.energy_per_second(
                output_stream_bytes_per_second, mac
            ),
        )

    def evaluate_columns(
        self,
        sampling_rate_hz: float,
        microcontroller_frequency_hz: np.ndarray,
        duty_cycle: np.ndarray,
        memory_accesses_per_second: float | np.ndarray,
        memory_bytes: float | np.ndarray,
        output_stream_bytes_per_second: np.ndarray,
        mac: MACQuantityColumns,
    ) -> NodeEnergyColumns:
        """Evaluate equations (3)-(7) column-wise for a batch of candidates.

        Configuration-independent contributions go through the scalar methods
        (bit-identical by construction); the rest mirrors the scalar operation
        order so the columns match the per-design evaluation exactly.
        """
        if isinstance(memory_accesses_per_second, (int, float)) and isinstance(
            memory_bytes, (int, float)
        ):
            memory_w: float | np.ndarray = self.memory.energy_per_second(
                float(memory_accesses_per_second), float(memory_bytes)
            )
        else:
            memory_w = self.memory.energy_per_second_columns(
                memory_accesses_per_second, memory_bytes
            )
        return NodeEnergyColumns(
            sensor_w=self.sensor.energy_per_second(sampling_rate_hz),
            microcontroller_w=self.microcontroller.energy_per_second_columns(
                duty_cycle, microcontroller_frequency_hz
            ),
            memory_w=memory_w,
            radio_w=self.radio.energy_per_second_columns(
                output_stream_bytes_per_second, mac
            ),
        )

    def fits_in_memory(self, usage: ResourceUsage) -> bool:
        """Whether the application footprint fits the node's RAM."""
        return usage.memory_bytes <= self.ram_bytes
