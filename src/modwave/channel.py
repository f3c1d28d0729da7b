"""Channel impairments: calibrated AWGN, tapped-delay multipath, Rayleigh
block fading, and realized-SNR measurement.

Noise is sized against the power of the signal handed in (normalize
first), so a target of x dB yields noise power P_signal / 10^(x/10).
Signals are real passband, so the noise is real Gaussian: one
standard-normal draw per seed, kept in the store of the signal's grid
(modwave.grid) and scaled for each call, so the rows of a `compare` share
one draw.
"""

import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .errors import SignalError, ZeroPowerError
from .grid import grid
from .synth import SampledSignal


@dataclass(frozen=True)
class Tap:
    delay_samples: int
    gain: float
    phase: float = 0.0

    def __post_init__(self):
        if self.delay_samples < 0:
            raise SignalError("tap delay must be non-negative")


@dataclass(frozen=True)
class FadingConfig:
    block_length_samples: int
    sigma: float  # Rayleigh scale

    def __post_init__(self):
        if self.block_length_samples < 1:
            raise SignalError("fading block length must be at least 1")
        if self.sigma <= 0:
            raise SignalError("Rayleigh scale must be positive when fading is on")


_DIRECT_PATH = (Tap(0, 1.0, 0.0),)

# a delay whose weight is within this fraction of the largest tap gain sends
# nothing but the rounding of a cancellation, such as cos(pi/2) = 6.1e-17
WEIGHT_TOLERANCE = 1e-12


def tap_weights(taps: tuple[Tap, ...]) -> dict[int, float]:
    """The weight apply_multipath gives each delay: the sum of its taps'
    gain * cos(phase), in tap order. On a real passband signal a tap's
    phase enters as that cosine factor."""
    weights: dict[int, float] = {}
    for tap in taps:
        weight, delay = tap.gain * np.cos(tap.phase), tap.delay_samples
        weights[delay] = weights[delay] + weight if delay in weights else weight
    return weights


@dataclass(frozen=True)
class ChannelConfig:
    """Target SNR (None = noiseless), multipath taps, optional fading.

    The default tap list is the direct path alone. A tap list whose delay
    weights (tap_weights) are all within WEIGHT_TOLERANCE of its largest
    gain of 0 sends nothing, and is rejected.
    """

    target_snr_db: float | None = 10.0
    taps: tuple[Tap, ...] = _DIRECT_PATH
    fading: FadingConfig | None = None
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise SignalError(f"channel seed {self.seed} is negative")
        if self.target_snr_db is not None and not math.isfinite(self.target_snr_db):
            raise SignalError("target SNR must be finite (or None for noiseless)")
        scale = WEIGHT_TOLERANCE * max((abs(tap.gain) for tap in self.taps), default=0.0)
        if all(abs(weight) <= scale for weight in tap_weights(self.taps).values()):
            raise SignalError(
                "channel sends nothing: it needs a delay with nonzero weight, "
                "the sum of its taps' gain * cos(phase)"
            )
        object.__setattr__(self, "taps", tuple(self.taps))


def derive_seed(master: int, stream: int) -> int:
    """A 63-bit integer seed for one stream, fixed by the master seed."""
    seq = np.random.SeedSequence([int(master), int(stream)])
    return int(seq.generate_state(1, np.uint64)[0] % (2**63))


def add_awgn(
    signal: SampledSignal,
    target_snr_db: float,
    seed: int | tuple[int, ...],
    reference_power: float | None = None,
) -> SampledSignal:
    """Add white Gaussian noise sized for the target SNR.

    The seed is an int or a tuple of ints, the entropy of
    default_rng(seed); anything else, a Generator included, raises
    TypeError. The noise equals default_rng(seed).normal(0, s, n) bit for
    bit: it scales default_rng(seed).standard_normal(n), which the store of
    the signal's grid keeps under ("standard_normal", seed), so calls with
    one seed on one grid draw once. reference_power overrides the measured
    signal power when the noise should be calibrated against a pre-channel
    reference.
    """
    if isinstance(seed, tuple):
        key = tuple(operator.index(k) for k in seed)
    else:
        key = operator.index(seed)
    power = signal.power if reference_power is None else float(reference_power)
    if power <= 0:
        raise ZeroPowerError("cannot calibrate noise against a zero-power signal")
    noise_power = power / (10.0 ** (target_snr_db / 10.0))
    draw = grid(len(signal), signal.sample_rate).value(
        ("standard_normal", key), lambda: np.random.default_rng(key).standard_normal(len(signal))
    )
    noise = draw * np.sqrt(noise_power)
    return replace(signal, samples=signal.samples + noise)


def apply_multipath(signal: SampledSignal, taps: tuple[Tap, ...]) -> SampledSignal:
    """Sum delayed copies, each scaled by its delay's tap_weights weight;
    length preserved. The direct path alone returns the input itself.
    """
    if taps == _DIRECT_PATH:
        return signal
    n = len(signal)
    samples = signal.samples
    out = np.zeros(n)
    for delay, weight in tap_weights(taps).items():
        if delay >= n:
            raise SignalError(f"tap delay {delay} exceeds signal length {n}")
        out[delay:] += weight * samples[: n - delay]
    return replace(signal, samples=out)


def apply_fading(
    signal: SampledSignal, fading: FadingConfig, seed
) -> SampledSignal:
    """Per-block multiplicative Rayleigh attenuation, constant in-block.

    A block longer than the signal is one block of the signal's length, so
    the gain never holds more samples than the signal and its last block.
    """
    rng = np.random.default_rng(seed)
    n = len(signal)
    n_blocks = -(-n // fading.block_length_samples)
    draws = rng.rayleigh(fading.sigma, n_blocks)
    gain = np.repeat(draws, min(fading.block_length_samples, n))[:n]
    return replace(signal, samples=signal.samples * gain)


def measure_snr(clean: SampledSignal, received: SampledSignal) -> float:
    """Realized SNR in dB: 10*log10(P_clean / P_noise), +inf for zero noise.

    A zero-power clean signal has no defined SNR and raises ZeroPowerError.
    """
    if len(clean) != len(received):
        raise SignalError("clean and received signals must have equal length")
    clean_power = clean.power
    if clean_power == 0.0:
        raise ZeroPowerError("cannot measure SNR against a zero-power signal")
    noise_power = float(np.mean((received.samples - clean.samples) ** 2))
    if noise_power == 0.0:
        return math.inf
    return 10.0 * math.log10(clean_power / noise_power)


def apply_channel(
    signal: SampledSignal, config: ChannelConfig
) -> tuple[SampledSignal, SampledSignal]:
    """Run the full impairment chain: multipath, fading, then AWGN.

    Noise is calibrated against the power of the input signal (the clean
    pre-channel reference). Returns (received, pre_noise); on the direct
    path without fading, pre_noise is the input itself.
    """
    pre_noise = apply_multipath(signal, config.taps)
    if config.fading is not None:
        pre_noise = apply_fading(pre_noise, config.fading, (config.seed, 1))
    if config.target_snr_db is None:
        return pre_noise, pre_noise
    received = add_awgn(
        pre_noise,
        config.target_snr_db,
        (config.seed, 0),
        reference_power=signal.power,
    )
    return received, pre_noise


CHANNEL_PRESETS: dict[str, ChannelConfig] = {
    # common operating point for side-by-side scheme tables
    "table_operating_point": ChannelConfig(target_snr_db=2.0),
    # matched-power point used for single-scheme evaluation reports
    "snr_15p44": ChannelConfig(target_snr_db=15.44),
    # mild three-path profile: direct path plus two delayed echoes
    "multipath": ChannelConfig(
        target_snr_db=15.44,
        taps=(Tap(0, 1.0, 0.0), Tap(3, 0.35, 0.6), Tap(7, 0.18, 1.9)),
    ),
}
