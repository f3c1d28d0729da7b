"""Channel impairments: calibrated AWGN, tapped-delay multipath, Rayleigh
block fading, and realized-SNR measurement.

Noise is sized against the power of the signal handed in (normalize
first), so a target of x dB yields noise power P_signal / 10^(x/10).
Real signals get real Gaussian noise; complex signals get circularly
symmetric noise split equally between components.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import SignalError, ZeroPowerError
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


@dataclass(frozen=True)
class ChannelConfig:
    """Target SNR (None = noiseless), multipath taps, optional fading.

    The default tap list is the direct path alone.
    """

    target_snr_db: float | None = 10.0
    taps: tuple[Tap, ...] = (Tap(0, 1.0, 0.0),)
    fading: FadingConfig | None = None
    seed: int = 0

    def __post_init__(self):
        if self.target_snr_db is not None and not math.isfinite(self.target_snr_db):
            raise SignalError("target SNR must be finite (or None for noiseless)")
        if not self.taps:
            raise SignalError("channel needs at least one tap")
        object.__setattr__(self, "taps", tuple(self.taps))


def _derive(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *keys]))


def derive_seed(master: int, stream: int) -> int:
    """A 63-bit integer seed for one stream, fixed by the master seed."""
    seq = np.random.SeedSequence([int(master), int(stream)])
    return int(seq.generate_state(1, np.uint64)[0] % (2**63))


def add_awgn(
    signal: SampledSignal,
    target_snr_db: float,
    seed,
    reference_power: float | None = None,
) -> SampledSignal:
    """Add white Gaussian noise sized for the target SNR.

    reference_power overrides the measured signal power when the noise
    should be calibrated against a pre-channel reference.
    """
    power = signal.power if reference_power is None else float(reference_power)
    if power <= 0:
        raise ZeroPowerError("cannot calibrate noise against a zero-power signal")
    noise_power = power / (10.0 ** (target_snr_db / 10.0))
    rng = np.random.default_rng(seed)
    n = len(signal)
    if np.iscomplexobj(signal.samples):
        scale = np.sqrt(noise_power / 2.0)
        noise = rng.normal(0.0, scale, n) + 1j * rng.normal(0.0, scale, n)
    else:
        noise = rng.normal(0.0, np.sqrt(noise_power), n)
    return replace(signal, samples=signal.samples + noise)


def apply_multipath(signal: SampledSignal, taps: tuple[Tap, ...]) -> SampledSignal:
    """Sum delayed, scaled, phase-shifted copies; length preserved.

    On real passband signals the tap phase enters as a gain factor
    cos(phase); complex signals get the full complex rotation.
    """
    n = len(signal)
    samples = signal.samples
    is_complex = np.iscomplexobj(samples)
    out = np.zeros(n, dtype=complex if is_complex else float)
    for tap in taps:
        if tap.delay_samples >= n:
            raise SignalError(
                f"tap delay {tap.delay_samples} exceeds signal length {n}"
            )
        weight = (
            tap.gain * np.exp(1j * tap.phase)
            if is_complex
            else tap.gain * np.cos(tap.phase)
        )
        if tap.delay_samples == 0:
            out += weight * samples
        else:
            out[tap.delay_samples :] += weight * samples[: n - tap.delay_samples]
    return replace(signal, samples=out)


def apply_fading(
    signal: SampledSignal, fading: FadingConfig, seed
) -> SampledSignal:
    """Per-block multiplicative Rayleigh attenuation, constant in-block."""
    rng = np.random.default_rng(seed)
    n = len(signal)
    n_blocks = -(-n // fading.block_length_samples)
    draws = rng.rayleigh(fading.sigma, n_blocks)
    gain = np.repeat(draws, fading.block_length_samples)[:n]
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
    noise_power = float(np.mean(np.abs(received.samples - clean.samples) ** 2))
    if noise_power == 0.0:
        return math.inf
    return 10.0 * math.log10(clean_power / noise_power)


def apply_channel(
    signal: SampledSignal, config: ChannelConfig
) -> tuple[SampledSignal, SampledSignal, dict]:
    """Run the full impairment chain: multipath, fading, then AWGN.

    Noise is calibrated against the power of the input signal (the clean
    pre-channel reference). Returns (received, pre_noise, details).
    """
    clean_power = signal.power
    pre_noise = apply_multipath(signal, config.taps)
    if config.fading is not None:
        pre_noise = apply_fading(
            pre_noise, config.fading, _derive(config.seed, 1)
        )
    details = {"clean_power": clean_power, "noise_power": 0.0}
    if config.target_snr_db is None:
        return pre_noise, pre_noise, details
    received = add_awgn(
        pre_noise,
        config.target_snr_db,
        _derive(config.seed, 0),
        reference_power=clean_power,
    )
    details["noise_power"] = clean_power / (10.0 ** (config.target_snr_db / 10.0))
    return received, pre_noise, details


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
