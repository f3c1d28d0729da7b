"""Closed-form latency and power-consumption models.

Latency is the sum of a processing term (operation count over processor
speed), a transmission term (data size over link rate) and an exogenous
queuing term. Power is the sum of a processing term scaled by a hardware
efficiency factor and the squared supply voltage, a transmit term derated
by amplifier efficiency, and a constant idle draw.
"""

from dataclasses import dataclass

from .dsl.ast import Expr, op_count
from .errors import ConfigError


@dataclass(frozen=True)
class CostInputs:
    n_ops: float                    # operation count for the run
    f_cpu: float                    # processor speed, Hz
    data_bits: float                # payload size D, bits
    bandwidth_bps: float            # link rate B, bits/s
    queue_delay_s: float = 0.0      # exogenous queuing delay
    alpha: float = 1e-21            # hardware efficiency factor
    voltage: float = 1.0            # supply voltage, V
    transmit_power_w: float = 0.1   # required transmit power
    amplifier_efficiency: float = 0.5
    idle_power_w: float = 0.01

    def __post_init__(self):
        positive = {
            "n_ops": self.n_ops,
            "f_cpu": self.f_cpu,
            "data_bits": self.data_bits,
            "bandwidth_bps": self.bandwidth_bps,
            "alpha": self.alpha,
            "voltage": self.voltage,
            "transmit_power_w": self.transmit_power_w,
            "idle_power_w": self.idle_power_w,
        }
        for name, value in positive.items():
            if value <= 0:
                raise ConfigError(f"{name} must be strictly positive")
        if self.queue_delay_s < 0:
            raise ConfigError("queue_delay_s must be non-negative")
        if not 0.0 < self.amplifier_efficiency <= 1.0:
            raise ConfigError("amplifier_efficiency must lie in (0, 1]")


@dataclass(frozen=True)
class LatencyBreakdown:
    processing_s: float
    transmission_s: float
    queuing_s: float
    total_s: float


@dataclass(frozen=True)
class PowerBreakdown:
    processing_w: float
    transmit_w: float
    idle_w: float
    total_w: float


def latency(inputs: CostInputs) -> LatencyBreakdown:
    """Processing, transmission and queuing delays plus their sum."""
    processing = inputs.n_ops / inputs.f_cpu
    transmission = inputs.data_bits / inputs.bandwidth_bps
    return LatencyBreakdown(
        processing_s=processing,
        transmission_s=transmission,
        queuing_s=inputs.queue_delay_s,
        total_s=processing + transmission + inputs.queue_delay_s,
    )


def power(inputs: CostInputs) -> PowerBreakdown:
    """Processing, transmit and idle power plus their sum."""
    processing = inputs.alpha * inputs.n_ops * inputs.voltage**2 * inputs.f_cpu
    transmit = inputs.transmit_power_w / inputs.amplifier_efficiency
    return PowerBreakdown(
        processing_w=processing,
        transmit_w=transmit,
        idle_w=inputs.idle_power_w,
        total_w=processing + transmit + inputs.idle_power_w,
    )


def ops_for_waveform(expr: Expr, n_samples: int) -> int:
    """Operation count for evaluating a formula over a full waveform."""
    if n_samples < 1:
        raise ConfigError("a waveform needs at least one sample")
    return op_count(expr) * n_samples
