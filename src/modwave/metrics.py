"""Evaluation metrics: Welch power spectral density, occupied bandwidth,
spectrogram, constellation extraction, demodulation, bit error rate,
spectral efficiency, and side-by-side comparison tables.

The Welch estimator averages modified periodograms over overlapping
windowed segments with window-power compensation, so the integral of the
density over frequency recovers the time-domain power. The exception:
Hann frames at 50% overlap weight the samples by a ripple with a period
of two bins, so tones 2 bins apart, or 1 bin from DC or Nyquist, read up
to 17% high. Occupied bandwidth is the 99 percent power bandwidth by
default: the band left after trimming half the excluded power from each
spectral tail.
"""

import csv
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .channel import ChannelConfig, apply_channel, derive_seed, measure_snr
from .errors import DemodulationError, GridSizeError, ModwaveError, SignalError
from .synth import (
    SCHEMES,
    SampledSignal,
    SchemeConfig,
    candidate_bank,
    candidate_basis,
    labels_to_bits,
    modulate,
    normalize_power,
    write_json,
)
from .table import format_table, write_table

_WINDOWS = {
    "hann": np.hanning,
    "hamming": np.hamming,
    "blackman": np.blackman,
    "boxcar": np.ones,
}
_SPECTROGRAM_WINDOW = "hann"

# samples transformed per block of frames: bounds the working set of Welch
# and the spectrogram whatever the signal or frame length
_BLOCK_SAMPLES = 1 << 18
# candidate samples held per chunk of labels: bounds the correlation
# receiver's bank whatever the constellation order or run length
_BANK_SAMPLES = 1 << 23
# the correlation receiver decides the lowest label whose score is within
# TIE_FRACTION of the symbol's received energy of the best score: candidates
# that differ only by rounding, such as aliased labels, are one decision
TIE_FRACTION = 1e-9


def _frames(samples: np.ndarray, length: int, hop: int) -> np.ndarray:
    """Frames of `length` samples starting every `hop` samples, as the rows
    of a view; a trailing partial frame is dropped."""
    if samples.size < length:
        return samples[:0].reshape(0, length)
    return sliding_window_view(samples, length)[::hop]


def _frame_power(frames: np.ndarray, taps: np.ndarray):
    """Yield (first frame index, |rfft(frame * taps)|^2 per frame row),
    a block of at most _BLOCK_SAMPLES samples at a time."""
    step = max(1, _BLOCK_SAMPLES // frames.shape[1])
    for start in range(0, frames.shape[0], step):
        yield start, np.abs(np.fft.rfft(frames[start : start + step] * taps)) ** 2


@dataclass(frozen=True)
class PsdEstimate:
    frequencies: np.ndarray
    density: np.ndarray  # power per Hz
    segment_length: int
    overlap_fraction: float
    window: str
    sample_rate: float

    @property
    def resolution(self) -> float:
        return float(self.frequencies[1] - self.frequencies[0])

    def total_power(self) -> float:
        return float(np.sum(self.density) * self.resolution)

    def write_csv(self, path: str | Path) -> None:
        table = np.column_stack((self.frequencies, self.density))
        write_table(path, b"freq_hz,power_density", table)


def welch_psd(
    signal: SampledSignal,
    segment_length: int = 256,
    overlap_fraction: float = 0.5,
    window: str = "hann",
    spectro: "Spectrogram | None" = None,
) -> PsdEstimate:
    """Averaged-periodogram PSD with density scaling: a one-sided spectrum
    over [0, fs/2] with the interior bins doubled.

    spectro, when given, is a spectrogram of this signal. When its frames,
    window and hop are these, its power is summed instead of transforming
    the frames again, and left unchanged; otherwise it is not read.
    """
    n = len(signal)
    if segment_length > n:
        raise SignalError(
            f"segment length {segment_length} exceeds signal length {n}"
        )
    if not 0.0 <= overlap_fraction <= 0.9:
        raise SignalError("overlap fraction must lie in [0, 0.9]")
    if window not in _WINDOWS:
        raise SignalError(f"unknown window {window!r}")

    fs = signal.sample_rate
    taps = _WINDOWS[window](segment_length)
    compensation = float(np.sum(taps**2))  # window power correction
    hop = max(1, int(round(segment_length * (1.0 - overlap_fraction))))
    frames = _frames(signal.samples, segment_length, hop)
    if spectro is not None and (window, segment_length, hop, len(frames)) == (
        _SPECTROGRAM_WINDOW, spectro.fft_length, spectro.hop, spectro.power.shape[1]
    ):
        blocks = [spectro.power.T]  # C-ordered (frames, bins)
    else:
        blocks = (power for _, power in _frame_power(frames, taps))

    accum = None
    for power in blocks:
        # the running total joins a later block's first frame and a reduce over
        # rows adds row after row, so the sum is the frame-by-frame loop's, bit
        # for bit; the first block is only read
        if accum is not None:
            power[0] += accum
        accum = np.add.reduce(power, axis=0)
    density = accum / (len(frames) * fs * compensation)
    # fold negative frequencies into the interior bins
    if segment_length % 2 == 0:
        density[1:-1] *= 2.0
    else:
        density[1:] *= 2.0
    freqs = np.fft.rfftfreq(segment_length, d=1.0 / fs)

    return PsdEstimate(
        frequencies=freqs,
        density=density,
        segment_length=segment_length,
        overlap_fraction=overlap_fraction,
        window=window,
        sample_rate=fs,
    )


def occupied_bandwidth(psd: PsdEstimate, fraction: float = 0.99) -> float:
    """Width of the band holding `fraction` of the total power.

    Half the excluded power is trimmed from each tail of the spectrum;
    a single-bin spectrum reports one bin width (the resolution limit).
    """
    if not 0.0 < fraction < 1.0:
        raise SignalError("fraction must lie strictly between 0 and 1")
    total = float(np.sum(psd.density))
    if total <= 0.0:
        raise SignalError("degenerate PSD: no power")
    cumulative = np.cumsum(psd.density)
    tail = (1.0 - fraction) / 2.0
    low = int(np.searchsorted(cumulative, tail * total, side="right"))
    high = int(np.searchsorted(cumulative, (1.0 - tail) * total, side="left"))
    low = min(low, psd.density.size - 1)
    high = min(max(high, low), psd.density.size - 1)
    return float((high - low + 1) * psd.resolution)


@dataclass(frozen=True)
class Spectrogram:
    frequencies: np.ndarray
    frame_times: np.ndarray
    power: np.ndarray  # rows: frequency bins, columns: frames
    fft_length: int
    hop: int

    def write_csv(self, path: str | Path) -> None:
        times = format_table(self.frame_times[None, :], newline="")
        header = b"freq_hz," + times if times else b"freq_hz"
        write_table(path, header, np.column_stack((self.frequencies, self.power)))


def spectrogram(
    signal: SampledSignal, fft_length: int = 256, hop: int = 128
) -> Spectrogram:
    """Magnitude-squared short-time Fourier transform with a Hann window,
    one-sided in frequency."""
    if fft_length > len(signal):
        raise SignalError("fft length exceeds signal length")
    if hop < 1:
        raise SignalError("hop must be at least 1")
    fs = signal.sample_rate
    taps = _WINDOWS[_SPECTROGRAM_WINDOW](fft_length)
    frames = _frames(signal.samples, fft_length, hop)
    blocks = _frame_power(frames, taps)
    _, rows = next(blocks)
    if len(rows) < len(frames):  # more blocks: one table, filled a block at a time
        table = np.empty((len(frames), rows.shape[1]))
        table[: len(rows)] = rows
        for start, rows in blocks:  # rebinding rows frees each block in turn
            table[start : start + len(rows)] = rows
        rows = table
    freqs = np.fft.rfftfreq(fft_length, d=1.0 / fs)
    times = (np.arange(len(frames)) * hop + fft_length / 2) / fs
    # power.T is the C-ordered (frames, bins) table that welch_psd can sum
    return Spectrogram(freqs, times, rows.T, fft_length, hop)


# ---------------------------------------------------------------------------
# symbol recovery


def extract_constellation(
    signal: SampledSignal, config: SchemeConfig
) -> np.ndarray:
    """Coherent downconversion and per-symbol integrate-and-dump.

    Returns one complex point per symbol interval; for a real passband
    I cos - Q sin held over the interval the point is I + jQ. The carrier
    at sample j of symbol k is exp(-j2πf_c·k·sps/fs)·exp(-j2πf_c·j/fs), so
    a point is one dot product of its frame with a fixed mixer, turned by a
    per-symbol phasor. The dump of s also holds c·conj(s), with
    c = phasor²·mean(mixer²), which cancels only for whole carrier cycles
    per symbol; (p - c·conj(p)) / (1 - |c|²) removes it.
    """
    sps = config.samples_per_symbol
    fs = signal.sample_rate
    frames = _frames(signal.samples, sps, sps)
    mixer = np.exp(-2j * np.pi * config.carrier_freq / fs * np.arange(sps))
    # one pass over the frames: the mixer's real and imaginary parts as columns
    dumped = frames @ (np.column_stack((mixer.real, mixer.imag)) * (2.0 / sps))
    cycles = np.mod(config.carrier_freq * sps / fs * np.arange(len(frames)), 1.0)
    phasor = np.exp(-2j * np.pi * cycles)
    points = (dumped[:, 0] + 1j * dumped[:, 1]) * phasor
    leak = phasor**2 * np.mean(mixer**2)
    return (points - leak * points.conj()) / (1.0 - np.abs(leak) ** 2)


def correlation_demodulate(
    received: SampledSignal, config: SchemeConfig, reference: SampledSignal | None = None
) -> np.ndarray:
    """Generic minimum-distance receiver against noiseless candidates.

    Each symbol interval is compared with the same interval of every
    candidate waveform (the formula or scheme synthesized with that symbol
    value held constant); the closest candidate wins, and _decide breaks
    ties to rounding alike on both routes. A row that sends a formula
    separable in its label streams, such as an alphabet row's qam text, is
    decided from its basis (synth.candidate_basis), any other scheme from
    its candidate bank (synth.candidate_bank), built a chunk of at most
    _BANK_SAMPLES samples at a time. The candidates are
    synthesized unnormalized, so they take the gain that normalize_power
    recorded on the reference; without a reference they keep gain 1.
    """
    scale = 1.0 if reference is None else reference.gain
    sps = config.samples_per_symbol
    rx = _frames(received.samples, sps, sps)
    basis = candidate_basis(config)
    if basis is not None:
        return labels_to_bits(_basis_labels(rx, basis, scale, sps), config.bits_per_symbol)
    # distances per symbol interval against each candidate row
    order = 1 << config.bits_per_symbol
    step = max(1, _BANK_SAMPLES // config.n_samples)
    dist = np.empty((order, rx.shape[0]))
    for start in range(0, order, step):
        bank = candidate_bank(config, np.arange(start, min(start + step, order)))
        bank *= scale
        for m, row in enumerate(bank, start):
            diff = rx - _frames(row, sps, sps)
            dist[m] = np.einsum("ij,ij->i", diff, diff)
    best = np.empty(rx.shape[0], dtype=np.int64)
    _decide(dist, np.einsum("ij,ij->i", rx, rx), best)
    return labels_to_bits(best, config.bits_per_symbol)


def _decide(scores: np.ndarray, energy: np.ndarray, out: np.ndarray) -> None:
    """Write into out, per symbol column of scores, the lowest label whose
    score is within TIE_FRACTION·energy of the column's least score."""
    bound = scores.min(axis=0)
    bound += TIE_FRACTION * energy
    np.argmax(scores <= bound, axis=0, out=out)


def _basis_labels(rx: np.ndarray, basis: tuple, gain: float, sps: int) -> np.ndarray:
    """Minimum-distance labels against the candidates g·w_m·p of a
    candidate_basis (p, w, G): label m's weights w_m on the parts p_k,
    scaled by the gain g.

    Over one symbol, |r - g·w_m·p|² = |r|² - 2g·w_m·<r, p> + g²·w_mᵀ·G·w_m,
    where G is the symbol's Gram matrix of the parts; the first term is the
    same for every label. So each score is label m's features
    [w_m, w_m w_mᵀ] against the symbol's weights [-2g·<r, p>, g²·G]: the
    gain acts on per-symbol statistics and no full-length array is made.
    _decide takes the label from the scores.
    """
    parts, w, gram = basis
    inner = [-2.0 * gain * np.einsum("ij,ij->i", rx, _frames(p, sps, sps)) for p in parts]
    weights = np.vstack([*inner, gain**2 * gram.reshape(-1, rx.shape[0])])
    features = np.hstack([w, (w[:, :, None] * w[:, None, :]).reshape(len(w), -1)])
    energy = np.einsum("ij,ij->i", rx, rx)
    best = np.empty(rx.shape[0], dtype=np.int64)
    step = max(1, (1 << 16) // len(w))  # symbols per block of scores
    for start in range(0, rx.shape[0], step):
        block = slice(start, start + step)
        _decide(features @ weights[:, block], energy[block], best[block])
    return best


def _discriminator_bits(received: SampledSignal, config: SchemeConfig) -> np.ndarray:
    """Limiter-discriminator for the continuous-phase schemes.

    The front end keeps the rfft bins within f_c ± (h/2 + 1)·Rs, the
    deviation plus one symbol-rate of sidebands; without that selection
    the discriminator sits below its click threshold at low per-sample
    SNR. Moved down by the carrier's nearest bin, the band returns to time
    in one short ifft at q samples per symbol. Each bit is the sign of the
    symbol's mean phase step over the central half of its interval.
    """
    h = SCHEMES[config.scheme].h
    sps = config.samples_per_symbol
    q = min(sps, math.ceil(8 * (h + 2)))  # 8 samples per Rs of the kept band
    n_symbols = len(received) // sps
    spectrum = np.fft.rfft(received.samples[: n_symbols * sps])
    carrier = config.carrier_freq * n_symbols / config.symbol_rate  # in bins
    k0 = round(carrier)
    band = int((h / 2 + 1) * n_symbols)  # bins on each side of the carrier
    baseband = np.zeros(n_symbols * q, dtype=complex)
    baseband[: band + 1] = spectrum[k0 : k0 + band + 1]
    baseband[-band:] = spectrum[k0 - band : k0]
    del spectrum
    z = np.fft.ifft(baseband).reshape(n_symbols, q)
    del baseband
    # central window avoids transitions; q >= 4, so each step's predecessor
    # sample lies in the same symbol
    lo, hi = q // 4, q - q // 4
    steps = np.angle(z[:, lo:hi] * z[:, lo - 1 : hi - 1].conj())  # phase step per sample
    # a carrier between bins turns every step by the same angle
    steps -= 2 * np.pi * (carrier - k0) / z.size
    return (steps.mean(axis=1) > 0.0).astype(np.uint8)


def demodulate(
    received: SampledSignal,
    config: SchemeConfig,
    reference: SampledSignal | None = None,
) -> np.ndarray:
    """Recover the bit stream with the one decision rule of its row.

    A row with memory (bfsk, msk, gmsk) is decided by its frequency
    discriminator, every other digital row and every formula by the
    correlation receiver. The reference (the noiseless transmitted
    waveform) gives the gain that scales the candidates. A signal shorter
    than one symbol raises DemodulationError, and so does an rrc run,
    whose label column synth.formula_context cannot shape.
    """
    if not config.bits_per_symbol:
        raise DemodulationError(f"{config.scheme} carries no bit ground truth")
    if len(received) < config.samples_per_symbol:
        raise DemodulationError(
            f"{len(received)} samples hold no whole symbol of {config.samples_per_symbol}"
        )
    if not config.is_formula and SCHEMES[config.scheme].memory:
        return _discriminator_bits(received, config)
    return correlation_demodulate(received, config, reference)


def ber(tx_bits: np.ndarray, rx_bits: np.ndarray) -> float:
    """Bit errors divided by bits transferred."""
    tx = np.asarray(tx_bits)
    rx = np.asarray(rx_bits)
    if tx.size == 0:
        raise SignalError("cannot compute an error rate over zero bits")
    if tx.size != rx.size:
        raise SignalError(
            f"bit streams differ in length: {tx.size} vs {rx.size}"
        )
    return float(np.count_nonzero(tx != rx) / tx.size)


def spectral_efficiency_theoretical(order: int) -> float:
    """log2(M) bits per second per hertz for an M-point constellation."""
    if order < 2 or order & (order - 1):
        raise SignalError(f"constellation size must be a power of two, got {order}")
    return float(int(order).bit_length() - 1)


def spectral_efficiency_measured(bit_rate: float, bandwidth_hz: float) -> float:
    """Gross bit rate over occupied bandwidth, bits per second per hertz."""
    if bandwidth_hz <= 0:
        raise SignalError("bandwidth must be positive")
    return bit_rate / bandwidth_hz


# ---------------------------------------------------------------------------
# comparison reports


@dataclass(frozen=True)
class MetricsParams:
    welch_segment: int = 256
    welch_overlap: float = 0.5
    welch_window: str = "hann"
    obw_fraction: float = 0.99
    spectrogram_fft: int = 256
    spectrogram_hop: int = 128

    def __post_init__(self):
        if self.welch_segment < 8 or self.spectrogram_fft < 8:
            raise SignalError("welch_segment and spectrogram_fft must be at least 8")
        if self.spectrogram_hop < 1:
            raise SignalError("spectrogram_hop must be at least 1")
        if not 0.0 <= self.welch_overlap <= 0.9:
            raise SignalError("welch_overlap must lie in [0, 0.9]")
        if not 0.0 < self.obw_fraction < 1.0:
            raise SignalError("obw_fraction must lie strictly between 0 and 1")
        if self.welch_window not in _WINDOWS:
            raise SignalError(f"unknown welch_window {self.welch_window!r}")


@dataclass
class MetricsReport:
    """One comparison row: a scheme's measured quality figures."""

    scheme: str
    target_snr_db: float | None = None
    snr_db: float | None = None
    ber: float | None = None
    spectral_efficiency: float | None = None
    occupied_bandwidth_hz: float | None = None
    guard_count: int = 0
    invalid_count: int = 0
    seeds: dict = field(default_factory=dict)
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "modulation": self.scheme,
            "target_snr_db": self.target_snr_db,
            "snr_db": self.snr_db,
            "ber": self.ber,
            "spectral_eff": self.spectral_efficiency,
            "bandwidth_hz": self.occupied_bandwidth_hz,
            "guard_count": self.guard_count,
            "invalid_count": self.invalid_count,
            "seeds": self.seeds,
            "error": self.error,
        }


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return f"{value:.6g}"
    return str(value)


def write_comparison_csv(rows: list[MetricsReport], path: str | Path) -> None:
    columns = ["modulation", "snr_db", "ber", "spectral_eff", "bandwidth_hz"]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows([_fmt(row.to_dict()[c]) for c in columns] for row in rows)


def write_comparison_json(rows: list[MetricsReport], path: str | Path) -> None:
    write_json({"rows": [r.to_dict() for r in rows]}, path)


@dataclass
class SchemeRunArtifacts:
    report: MetricsReport
    psd: PsdEstimate | None = None
    spectro: Spectrogram | None = None
    points: np.ndarray | None = None


def run_scheme(
    config: SchemeConfig,
    channel: ChannelConfig,
    params: MetricsParams = MetricsParams(),
    collect: bool = False,
) -> SchemeRunArtifacts:
    """Synthesize, normalize, impair and measure one scheme.

    A row whose arrays do not fit in memory raises GridSizeError naming
    its sample count.
    """
    try:
        return _measure(config, channel, params, collect)
    except MemoryError:
        raise GridSizeError(
            f"a row of {config.n_samples} samples does not fit in memory"
        ) from None


def _measure(
    config: SchemeConfig, channel: ChannelConfig, params: MetricsParams, collect: bool
) -> SchemeRunArtifacts:
    report = MetricsReport(
        scheme=config.scheme,
        target_snr_db=channel.target_snr_db,
        seeds={"bits": config.seed, "channel": channel.seed},
    )
    artifacts = SchemeRunArtifacts(report=report)

    clean = normalize_power(modulate(config))
    report.guard_count = clean.guard_count
    report.invalid_count = clean.invalid_count

    received, pre_noise = apply_channel(clean, channel)
    report.snr_db = measure_snr(pre_noise, received)
    del pre_noise  # the receivers need only `received`

    # the spectrogram comes first, so Welch sums its power when their frames
    # match; a signal shorter than a frame is left to welch_psd's error
    spectro = None
    if collect and len(clean) >= params.spectrogram_fft:
        spectro = spectrogram(clean, fft_length=params.spectrogram_fft, hop=params.spectrogram_hop)
    psd = welch_psd(
        clean,
        segment_length=params.welch_segment,
        overlap_fraction=params.welch_overlap,
        window=params.welch_window,
        spectro=spectro,
    )
    report.occupied_bandwidth_hz = occupied_bandwidth(psd, params.obw_fraction)

    if clean.origin_bits is not None:
        try:
            decided = demodulate(received, config, reference=clean)
        except DemodulationError as exc:  # the SNR and PSD above still hold
            report.error = f"{type(exc).__name__}: {exc}"
            return artifacts
        report.ber = ber(clean.origin_bits, decided)
        bit_rate = config.bits_per_symbol * config.symbol_rate
        report.spectral_efficiency = spectral_efficiency_measured(
            bit_rate, report.occupied_bandwidth_hz
        )

    if collect:
        artifacts.psd = psd
        if spectro is None:
            spectro = spectrogram(clean, fft_length=params.spectrogram_fft, hop=params.spectrogram_hop)
        artifacts.spectro = spectro
        if config.bits_per_symbol:
            artifacts.points = extract_constellation(received, config)
    return artifacts


def seed_row(
    config: SchemeConfig, channel: ChannelConfig, master_seed: int
) -> tuple[SchemeConfig, ChannelConfig]:
    """A row's config and channel, their bit and noise seeds derived from
    the master seed; every row of one master seed shares both."""
    return (
        replace(config, seed=derive_seed(master_seed, 0)),
        replace(channel, seed=derive_seed(master_seed, 1)),
    )


def compare(
    configs: list[SchemeConfig],
    channel: ChannelConfig,
    params: MetricsParams = MetricsParams(),
    master_seed: int = 0,
) -> list[MetricsReport]:
    """One report row per scheme under identical channel conditions.

    Every row is seeded by seed_row and normalized to unit power. A
    ModwaveError becomes the row's error (a receiver's after the SNR and
    bandwidth) and the run continues; any other exception is a program
    fault and propagates.
    """
    rows = []
    for config in configs:
        try:
            rows.append(run_scheme(*seed_row(config, channel, master_seed), params).report)
        except ModwaveError as exc:  # keep the table going; record the failure
            error = f"{type(exc).__name__}: {exc}"
            rows.append(MetricsReport(config.scheme, channel.target_snr_db, error=error))
    return rows
