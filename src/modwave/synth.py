"""Waveform synthesis: bit sources, symbol mapping, reference modulators
for the standard scheme set, formula-driven waveforms and power
normalization.

All waveforms are real passband signals sampled at
symbol_rate * samples_per_symbol. Each reference scheme is one row of
SCHEMES (see Scheme); a row with an alphabet sends exactly the points
constellation() returns through one quadrature builder. Rectangular
pulse shaping is the default; root-raised-cosine shaping is available
for those rows behind a config flag for bandwidth studies, but their
receivers assume rectangular pulses, so demodulating an rrc run raises.
"""

import json
import math
from collections.abc import Callable
from dataclasses import dataclass, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .dsl.ast import Expr, affine_in, reads
from .dsl.evaluation import EvalContext, evaluate, invariant_key
from .dsl.parser import parse_formula
from .dsl.symbols import LABEL_STREAMS
from .errors import DemodulationError, NyquistError, SignalError, ZeroPowerError
from .grid import grid


def normalize_scheme_id(scheme: str) -> str:
    """Canonical scheme id: lowercase, separators dropped, and '16-QAM'
    read as qam16 for every qam row of SCHEMES."""
    if scheme.startswith("formula:"):
        return scheme
    key = scheme.lower().replace("-", "").replace("_", "").replace(" ", "")
    alias = f"qam{key.removesuffix('qam')}"
    return alias if key.endswith("qam") and alias in SCHEMES else key


@dataclass(frozen=True)
class SampledSignal:
    """Uniformly sampled real passband waveform plus the ground truth that
    produced it. Every stage builds one with the constructor or replace, so
    complex samples raise SignalError here and nowhere else."""

    samples: np.ndarray
    sample_rate: float
    origin_bits: np.ndarray | None = None
    symbol_rate: float | None = None
    guard_count: int = 0
    invalid_count: int = 0  # non-finite samples the evaluator zeroed
    gain: float = 1.0  # realized amplitude gain applied since synthesis

    def __post_init__(self):
        if np.iscomplexobj(self.samples):
            raise SignalError(
                f"a real passband needs real samples, got {self.samples.dtype}"
            )

    @property
    def power(self) -> float:
        return float(np.mean(self.samples**2))

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class SchemeConfig:
    """Everything needed to synthesize one modulation run.

    The sample rate is samples_per_symbol * symbol_rate by construction.
    The defaults put the carrier comfortably inside the Nyquist band at
    desk-scale runtimes.
    """

    scheme: str
    carrier_freq: float = 6000.0
    symbol_rate: float = 1000.0
    samples_per_symbol: int = 48
    amplitude: float = 1.0
    n_symbols: int = 10_000
    seed: int = 0
    mod_index: float = 0.5         # AM message depth
    freq_dev: float = 500.0        # FM Hz per message unit
    phase_dev: float = 1.0         # PM rad per message unit
    message_freq: float = 200.0    # analog message tone, Hz
    gmsk_bt: float = 0.3
    pulse: str = "rect"            # "rect" or "rrc" (schemes with an alphabet)
    rrc_rolloff: float = 0.35
    formula_text: str | None = None
    base_scheme: str = "qam16"     # symbol source for formula waveforms

    def __post_init__(self):
        object.__setattr__(self, "scheme", normalize_scheme_id(self.scheme))
        object.__setattr__(
            self, "base_scheme", normalize_scheme_id(self.base_scheme)
        )
        # NaN fails every range check below without raising
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise SignalError(f"{f.name} {value} is not a finite number")
        if self.samples_per_symbol < 4:
            raise SignalError("samples_per_symbol must be at least 4")
        if self.symbol_rate <= 0 or self.carrier_freq <= 0:
            raise SignalError("symbol_rate and carrier_freq must be positive")
        if self.n_symbols < 1:
            raise SignalError("n_symbols must be at least 1")
        if self.seed < 0:
            raise SignalError(f"bit seed {self.seed} is negative")
        if self.pulse not in ("rect", "rrc"):
            raise SignalError(f"unknown pulse shape {self.pulse!r}")
        if not 0.0 < self.rrc_rolloff <= 1.0:
            raise SignalError(f"rrc_rolloff {self.rrc_rolloff} is outside (0, 1]")
        if not self.is_formula and self.scheme not in SCHEMES:
            raise SignalError(f"unknown scheme {self.scheme!r}")
        if self.is_formula and not self.bits_per_symbol:
            raise SignalError(f"base scheme {self.base_scheme!r} carries no bits")
        # main lobe of the widest scheme must clear the Nyquist frequency
        if self.carrier_freq + 2.0 * self.symbol_rate >= self.sample_rate / 2:
            raise NyquistError(
                f"carrier {self.carrier_freq} Hz plus occupied band exceeds "
                f"half the sample rate {self.sample_rate} Hz"
            )
        # ... and must stay above 0 Hz, or the band folds over on itself
        if self.carrier_freq - 2.0 * self.symbol_rate <= 0:
            raise SignalError(
                f"carrier {self.carrier_freq} Hz minus occupied band is not "
                "above 0 Hz"
            )

    @property
    def is_formula(self) -> bool:
        return self.scheme.startswith("formula:")

    @cached_property
    def formula(self) -> Expr:
        """formula_text parsed, once per config object."""
        if not self.formula_text:
            raise SignalError("formula scheme configured without formula_text")
        return parse_formula(self.formula_text)

    @property
    def sample_rate(self) -> float:
        return self.symbol_rate * self.samples_per_symbol

    @property
    def bits_per_symbol(self) -> int:
        return _bits_per_symbol(self.base_scheme if self.is_formula else self.scheme)

    @property
    def n_samples(self) -> int:
        return self.n_symbols * self.samples_per_symbol


# ---------------------------------------------------------------------------
# bit and symbol sources


def gen_bits(count: int, seed) -> np.ndarray:
    """Uniform i.i.d. bits, deterministic per seed."""
    if count < 1:
        raise SignalError("bit count must be at least 1")
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=count, dtype=np.uint8)


def _gray_inverse(codes: np.ndarray) -> np.ndarray:
    """Invert the reflected Gray code (prefix-xor doubling)."""
    out = codes.astype(np.int64).copy()
    shift = 1
    while True:
        shifted = out >> shift
        if not shifted.any():
            break
        out ^= shifted
        shift *= 2
    return out


def _square_qam_points(order: int) -> np.ndarray:
    side_bits = int(np.log2(order)) // 2
    side = 1 << side_bits
    labels = np.arange(order)
    i_code = labels >> side_bits
    q_code = labels & (side - 1)
    i_level = 2 * _gray_inverse(i_code) - (side - 1)
    q_level = 2 * _gray_inverse(q_code) - (side - 1)
    points = i_level + 1j * q_level
    return points / np.sqrt(np.mean(np.abs(points) ** 2))


def _cross_qam128_points() -> np.ndarray:
    """128-point cross constellation with a fold-based quasi-Gray labeling.

    Labels lay out a Gray-coded 16x8 rectangle (4 in-phase bits, 3
    quadrature bits); the two protruding column pairs fold onto the top
    and bottom wings, which preserves single-bit steps inside each wing.
    """
    labels = np.arange(128)
    i_code = labels >> 3
    q_code = labels & 7
    x = 2 * _gray_inverse(i_code) - 15
    y = 2 * _gray_inverse(q_code) - 7
    fold = np.abs(x) > 11
    sx, sy = np.sign(x), np.sign(y)
    new_x = sx * (8 - np.abs(y))
    new_y = sy * np.where(np.abs(x) == 13, 9, 11)
    x = np.where(fold, new_x, x)
    y = np.where(fold, new_y, y)
    points = x + 1j * y
    return points / np.sqrt(np.mean(np.abs(points) ** 2))


def _psk_points(order: int) -> np.ndarray:
    """Gray-labeled unit circle, offset half a step from the real axis."""
    points = np.empty(order, dtype=complex)
    positions = np.arange(order)
    gray = positions ^ (positions >> 1)
    points[gray] = np.exp(1j * (np.pi / order + positions * (2 * np.pi / order)))
    return points


def _bits_per_symbol(scheme: str) -> int:
    """Bits per symbol of a reference scheme; 0 for analog or unknown ids."""
    return SCHEMES[scheme].bits_per_symbol if scheme in SCHEMES else 0


def constellation(scheme: str) -> np.ndarray:
    """Unit-average-energy constellation indexed by integer symbol label."""
    scheme = normalize_scheme_id(scheme)
    alphabet = SCHEMES[scheme].alphabet if scheme in SCHEMES else None
    if alphabet is None:
        raise SignalError(f"scheme {scheme!r} has no symbol constellation")
    return alphabet


def bits_to_labels(bits: np.ndarray, bits_per_symbol: int) -> np.ndarray:
    bits = np.asarray(bits, dtype=np.int64)
    if bits.size % bits_per_symbol:
        raise SignalError(
            f"bit count {bits.size} is not divisible by {bits_per_symbol}"
        )
    grouped = bits.reshape(-1, bits_per_symbol)
    weights = 1 << np.arange(bits_per_symbol - 1, -1, -1)
    return grouped @ weights


def labels_to_bits(labels: np.ndarray, bits_per_symbol: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    shifts = np.arange(bits_per_symbol - 1, -1, -1)
    return ((labels[:, None] >> shifts) & 1).astype(np.uint8).reshape(-1)


def map_symbols(bits: np.ndarray, scheme: str) -> np.ndarray:
    """Map a bit stream onto the scheme's complex symbol alphabet."""
    scheme = normalize_scheme_id(scheme)
    bps = _bits_per_symbol(scheme)
    if not bps:
        raise SignalError(f"scheme {scheme!r} has no symbol mapping")
    points = constellation(scheme)
    return points[bits_to_labels(bits, bps)]


def demap_symbols(points_rx: np.ndarray, scheme: str) -> np.ndarray:
    """Minimum-distance decisions back to bits, a block of points at a time."""
    scheme = normalize_scheme_id(scheme)
    points = constellation(scheme)
    labels = np.empty(points_rx.size, dtype=np.int64)
    step = max(1, (1 << 16) // points.size)
    for start in range(0, points_rx.size, step):
        block = points_rx[start : start + step, None]
        labels[start : start + step] = np.argmin(np.abs(block - points), axis=1)
    return labels_to_bits(labels, _bits_per_symbol(scheme))


# ---------------------------------------------------------------------------
# waveform builders


def _time_grid(cfg: SchemeConfig) -> np.ndarray:
    """The read-only time axis of cfg's grid, from the grid's store."""
    return grid(cfg.n_samples, cfg.sample_rate).t


def _hold(values: np.ndarray, sps: int) -> np.ndarray:
    return np.repeat(values, sps)


def _rrc_taps(beta: float, sps: int, span: int = 8) -> np.ndarray:
    n = span * sps + 1
    t = (np.arange(n) - (n - 1) / 2) / sps
    taps = np.empty(n)
    for i, ti in enumerate(t):
        if abs(ti) < 1e-9:
            taps[i] = 1 + beta * (4 / np.pi - 1)
        elif abs(abs(ti) - 1 / (4 * beta)) < 1e-9:
            taps[i] = (beta / np.sqrt(2)) * (
                (1 + 2 / np.pi) * np.sin(np.pi / (4 * beta))
                + (1 - 2 / np.pi) * np.cos(np.pi / (4 * beta))
            )
        else:
            num = np.sin(np.pi * ti * (1 - beta)) + 4 * beta * ti * np.cos(
                np.pi * ti * (1 + beta)
            )
            taps[i] = num / (np.pi * ti * (1 - (4 * beta * ti) ** 2))
    return taps / np.sqrt(np.sum(taps**2))


def _rrc_baseband(cfg: SchemeConfig, symbols: np.ndarray) -> np.ndarray:
    taps = _rrc_taps(cfg.rrc_rolloff, cfg.samples_per_symbol)
    up = np.zeros(symbols.size * cfg.samples_per_symbol, dtype=complex)
    up[:: cfg.samples_per_symbol] = symbols * np.sqrt(cfg.samples_per_symbol)
    shaped = np.convolve(up, taps)
    delay = (taps.size - 1) // 2
    return shaped[delay : delay + up.size]


def _carrier_phase(carrier_freq: float, t: np.ndarray) -> np.ndarray:
    return 2 * np.pi * carrier_freq * t


# the carrier pair is the value of these trees, and is keyed as they are
_CARRIER_TREES = (parse_formula("cos(2*pi*f_c*t)"), parse_formula("sin(2*pi*f_c*t)"))


def _carrier(cfg: SchemeConfig) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (cos θ, sin θ) of the carrier phase θ = 2π·f_c·t, kept in
    the grid's store: 7.7 MB at 10k symbols of 48 samples."""
    store = grid(cfg.n_samples, cfg.sample_rate)
    return tuple(
        store.value(invariant_key(tree, {"f_c": cfg.carrier_freq}),
                    lambda: ufunc(_carrier_phase(cfg.carrier_freq, store.t)))
        for tree, ufunc in zip(_CARRIER_TREES, (np.cos, np.sin))
    )


def _quadrature_passband(cfg: SchemeConfig, symbols: np.ndarray) -> np.ndarray:
    """amplitude · (I cos θ - Q sin θ) on the stored carrier.

    A rectangular pulse holds each symbol over its samples, so the carrier
    is viewed as (symbols, samples per symbol) rows and each row scaled by
    its symbol: the full-length complex hold is never built.
    """
    cos, sin = _carrier(cfg)
    if cfg.pulse == "rect":
        shape = (symbols.size, cfg.samples_per_symbol)
        i, q = symbols.real[:, None], symbols.imag[:, None]
        cos, sin = cos.reshape(shape), sin.reshape(shape)
    else:
        baseband = _rrc_baseband(cfg, symbols)
        i, q = baseband.real, baseband.imag
    wave = cos * i
    wave -= sin * q
    wave *= cfg.amplitude
    return wave.reshape(-1)


def _phase_from_freq(cfg: SchemeConfig, inst_freq: np.ndarray) -> np.ndarray:
    # continuous phase: integrate instantaneous frequency sample by sample
    return 2 * np.pi * np.cumsum(inst_freq) / cfg.sample_rate


def _gaussian_freq_pulse(cfg: SchemeConfig) -> np.ndarray:
    sps = cfg.samples_per_symbol
    bandwidth = cfg.gmsk_bt * cfg.symbol_rate
    span = 4 * sps
    t = (np.arange(2 * span + 1) - span) / cfg.sample_rate
    sigma = np.sqrt(np.log(2)) / (2 * np.pi * bandwidth)
    taps = np.exp(-(t**2) / (2 * sigma**2))
    return taps / taps.sum()


def _message(cfg: SchemeConfig, t: np.ndarray) -> np.ndarray:
    return np.cos(2 * np.pi * cfg.message_freq * t)


# Waveform builders take (cfg, labels); the analog ones ignore the labels.


def _am_wave(cfg: SchemeConfig, labels) -> np.ndarray:
    msg = _message(cfg, _time_grid(cfg))
    cos = _carrier(cfg)[0]
    return cfg.amplitude * (1 + cfg.mod_index * msg) * cos


def _fm_wave(cfg: SchemeConfig, labels) -> np.ndarray:
    t = _time_grid(cfg)
    msg = _message(cfg, t)
    dt = 1.0 / cfg.sample_rate
    running = np.concatenate(([0.0], np.cumsum((msg[1:] + msg[:-1]) / 2) * dt))
    return cfg.amplitude * np.cos(
        _carrier_phase(cfg.carrier_freq, t) + cfg.freq_dev * running
    )


def _pm_wave(cfg: SchemeConfig, labels) -> np.ndarray:
    t = _time_grid(cfg)
    msg = _message(cfg, t)
    return cfg.amplitude * np.cos(_carrier_phase(cfg.carrier_freq, t) + cfg.phase_dev * msg)


def _qam_wave(cfg: SchemeConfig, labels: np.ndarray) -> np.ndarray:
    return _quadrature_passband(cfg, constellation(cfg.scheme)[labels])


def _fsk_wave(cfg: SchemeConfig, labels: np.ndarray) -> np.ndarray:
    # literal instantaneous-frequency form with absolute time
    tone = cfg.carrier_freq + cfg.symbol_rate * (2.0 * labels - 1.0)
    t = _time_grid(cfg)
    return cfg.amplitude * np.cos(2 * np.pi * _hold(tone, cfg.samples_per_symbol) * t)


def _cpfsk(cfg: SchemeConfig, drive: np.ndarray) -> np.ndarray:
    """Continuous-phase carrier deviating h*Rs/2 per unit of drive."""
    deviation = SCHEMES[cfg.scheme].h * cfg.symbol_rate / 2
    inst = cfg.carrier_freq + deviation * drive
    return cfg.amplitude * np.cos(_phase_from_freq(cfg, inst))


def _cpfsk_wave(cfg: SchemeConfig, labels: np.ndarray) -> np.ndarray:
    return _cpfsk(cfg, _hold(2.0 * labels - 1.0, cfg.samples_per_symbol))


def _gmsk_wave(cfg: SchemeConfig, labels: np.ndarray) -> np.ndarray:
    nrz = _hold(2.0 * labels - 1.0, cfg.samples_per_symbol)
    return _cpfsk(cfg, np.convolve(nrz, _gaussian_freq_pulse(cfg), mode="same"))


def _chirp_wave(cfg: SchemeConfig, labels: np.ndarray) -> np.ndarray:
    # binary up/down linear sweeps over +-symbol_rate, phase reset per symbol
    tau = np.arange(cfg.samples_per_symbol) / cfg.sample_rate
    direction = (2.0 * labels - 1.0)[:, None]
    sweep = cfg.symbol_rate * (2 * tau * cfg.symbol_rate - 1)
    inst = cfg.carrier_freq + direction * sweep[None, :]
    phase = 2 * np.pi * np.cumsum(inst, axis=1) / cfg.sample_rate
    return cfg.amplitude * np.cos(phase).reshape(-1)


@dataclass(frozen=True, eq=False)
class Scheme:
    """Every fact about one reference scheme.

    bits_per_symbol is 0 for an analog scheme. alphabet is the
    unit-average-energy constellation indexed by label, where there is
    one; such a row sends alphabet[labels] with _qam_wave. waveform(cfg,
    labels) builds the passband samples. receiver names the bit decision
    rule in metrics. h is the continuous-phase FSK index: tones deviate
    h*Rs/2 and the discriminator passes (h/2 + 1)*Rs. memory marks a
    waveform that depends on earlier symbols, which rules out a
    per-symbol candidate bank.
    """

    bits_per_symbol: int
    waveform: Callable[[SchemeConfig, np.ndarray | None], np.ndarray]
    alphabet: np.ndarray | None = None
    receiver: str | None = None
    h: float | None = None
    memory: bool = False


SCHEMES: dict[str, Scheme] = {
    "am": Scheme(0, _am_wave),
    "fm": Scheme(0, _fm_wave),
    "pm": Scheme(0, _pm_wave),
    # average energy 1 with equiprobable on/off symbols
    "ook": Scheme(1, _qam_wave, np.array([0.0, np.sqrt(2.0)]) + 0j, "envelope"),
    "bpsk": Scheme(1, _qam_wave, np.array([1.0, -1.0]) + 0j, "nearest"),
    "qpsk": Scheme(2, _qam_wave, _psk_points(4), "nearest"),
    "psk8": Scheme(3, _qam_wave, _psk_points(8), "nearest"),
    "bfsk": Scheme(1, _cpfsk_wave, receiver="discriminator", h=1.0, memory=True),
    "fsk": Scheme(1, _fsk_wave, receiver="correlation"),
    "msk": Scheme(1, _cpfsk_wave, receiver="discriminator", h=0.5, memory=True),
    "gmsk": Scheme(1, _gmsk_wave, receiver="discriminator", h=0.5, memory=True),
    "chirp": Scheme(1, _chirp_wave, receiver="correlation"),
    "qam16": Scheme(4, _qam_wave, _square_qam_points(16), "nearest"),
    "qam64": Scheme(6, _qam_wave, _square_qam_points(64), "nearest"),
    "qam128": Scheme(7, _qam_wave, _cross_qam128_points(), "nearest"),
    "qam256": Scheme(8, _qam_wave, _square_qam_points(256), "nearest"),
}

REFERENCE_SCHEMES = tuple(SCHEMES)


# ---------------------------------------------------------------------------
# formula bindings, modulate and the candidate bank


def formula_context(
    cfg: SchemeConfig, labels: np.ndarray
) -> tuple[Expr, EvalContext, np.ndarray]:
    """Bind every name a formula scheme may read.

    The quadrature, data and frequency streams come from the base scheme's
    Gray-labeled symbols. A 1-D labels array is one label per symbol, held
    over that symbol's samples; a (rows, 1) column binds one row per
    label, which broadcasts against the grid. Scalars come from the
    config, and m(t) is bound only when the formula reads it. Returns
    cfg.formula, its context and the time grid, evaluate's three arguments.
    """
    expr = cfg.formula
    points = constellation(cfg.base_scheme)[labels]
    streams = (
        points.real,
        points.imag,
        labels.astype(float),
        cfg.carrier_freq + cfg.symbol_rate * (2.0 * (labels % 2) - 1.0),
    )
    signals = dict(zip(LABEL_STREAMS, streams))
    if labels.ndim == 1:
        signals = {name: _hold(v, cfg.samples_per_symbol) for name, v in signals.items()}
    t = _time_grid(cfg)
    if "m(t)" in reads(expr)[0]:
        signals["m(t)"] = _message(cfg, t)
    constants = {
        "f_c": cfg.carrier_freq,
        "f_m": cfg.message_freq,
        "A": cfg.amplitude,
        "A_c": cfg.amplitude,
        "m": cfg.mod_index,
        "k_f": cfg.freq_dev,
        "k_p": cfg.phase_dev,
        "phi": 0.0,
        "phi_c": 0.0,
        "phi_m": 0.0,
        "n": 4.0,
    }
    return expr, EvalContext(constants=constants, signals=signals), t


def modulate(cfg: SchemeConfig) -> SampledSignal:
    """Synthesize any configured scheme, reference or formula-driven.

    A digital scheme or formula sends cfg.n_symbols labels drawn from
    cfg.seed; their bits are the signal's origin_bits.
    """
    bps = cfg.bits_per_symbol
    bits = gen_bits(cfg.n_symbols * bps, cfg.seed) if bps else None
    labels = None if bits is None else bits_to_labels(bits, bps)
    if not cfg.is_formula:
        samples = SCHEMES[cfg.scheme].waveform(cfg, labels)
        return SampledSignal(samples, cfg.sample_rate, bits, cfg.symbol_rate)
    result = evaluate(*formula_context(cfg, labels))
    return SampledSignal(
        samples=result.samples,
        sample_rate=cfg.sample_rate,
        origin_bits=bits,
        symbol_rate=cfg.symbol_rate,
        guard_count=result.guard_count,
        invalid_count=int(np.count_nonzero(result.invalid_mask)),
    )


def candidate_bank(cfg: SchemeConfig, labels: np.ndarray | None = None) -> np.ndarray:
    """Noiseless per-label waveforms for correlation demodulation.

    Row i holds the full-length waveform synthesized with every symbol
    fixed to labels[i], or to label i when labels is None. Valid for
    schemes without cross-symbol memory, so a formula that integrates a
    label stream raises DemodulationError. A formula's rows are one
    evaluation: the label streams are bound as one row per label, so
    label-invariant parts such as the carrier and m(t) are computed once
    per call, and each row is bit-identical to evaluating the formula with
    every symbol set to its label. Each row depends on its own label only,
    so a caller may build the bank a few labels at a time.
    """
    labels = np.arange(1 << cfg.bits_per_symbol) if labels is None else labels
    if cfg.is_formula:
        memory = reads(cfg.formula)[1] & set(LABEL_STREAMS)
        if memory:
            raise DemodulationError(
                f"{cfg.scheme} integrates {sorted(memory)}, so its symbols "
                "have memory; no per-symbol candidate bank"
            )
        return evaluate(*formula_context(cfg, labels[:, None])).samples
    scheme = SCHEMES[cfg.scheme]
    if scheme.memory:
        raise DemodulationError(
            f"{cfg.scheme} carries phase memory; no per-symbol candidate bank"
        )
    if not scheme.bits_per_symbol:
        raise DemodulationError("analog schemes have no symbol candidates")
    return np.stack([
        scheme.waveform(cfg, np.full(cfg.n_symbols, label, dtype=np.int64))
        for label in labels
    ])


def candidate_basis(cfg: SchemeConfig) -> tuple[np.ndarray, np.ndarray] | None:
    """A formula's candidates as a(t) + sum_i s_i·c_i(t) in its k label streams.

    When dsl.ast.affine_in says the formula is affine in the label
    streams, it is evaluated once with the k streams it reads bound as
    (1 + k, 1) unit columns: all zeros, then one unit vector per stream.
    Row 0 is a(t) and row i is a(t) + c_i(t). Returns those rows and
    values, the (order, k) stream values s_i of each label. Returns None,
    for the bank, when the formula is not affine or the basis has a
    non-finite sample.
    """
    if not affine_in(cfg.formula):
        return None
    expr, ctx, t = formula_context(cfg, np.arange(1 << cfg.bits_per_symbol)[:, None])
    names = reads(expr)[0]
    read = [i for i, name in enumerate(LABEL_STREAMS) if name in names]
    unit = np.eye(len(read) + 1)[:, 1:]
    signals = {
        name: value for name, value in ctx.signals.items() if name not in LABEL_STREAMS
    }
    for column, i in enumerate(read):
        signals[LABEL_STREAMS[i]] = unit[:, [column]]
    result = evaluate(expr, EvalContext(ctx.constants, signals), t)
    if result.invalid_mask.any():
        return None
    values = np.hstack([ctx.signals[name] for name in LABEL_STREAMS])[:, read]
    return result.samples.reshape(len(read) + 1, -1), values


def normalize_power(signal: SampledSignal) -> SampledSignal:
    """Scale a signal to unit mean-square power.

    The result's gain records the realized amplitude ratio
    sqrt(scaled power / input power), compounded with the input's gain, so
    receivers can scale noiseless candidates without synthesizing again.
    """
    current = signal.power
    if current <= 0:
        raise ZeroPowerError("cannot normalize a zero-power signal")
    scaled = replace(signal, samples=signal.samples * float(np.sqrt(1.0 / current)))
    gain = float(np.sqrt(scaled.power / current))
    return replace(scaled, gain=signal.gain * gain)


def write_json(payload, path) -> None:
    """Write a JSON output: sorted keys, two-space indent, final newline.

    Infinities (an SNR with no noise, an overflowing latency) are written
    as the string "inf", so every file stays standard JSON.
    """

    def scrub(value):
        if isinstance(value, float) and math.isinf(value):
            return "inf"
        if isinstance(value, dict):
            return {k: scrub(v) for k, v in value.items()}
        if isinstance(value, list):
            return [scrub(v) for v in value]
        return value

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(scrub(payload), handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_table(path, header: str, row_format: str, rows, newline: str = "\r\n") -> None:
    """Write a text table: the header line, then `row_format % row` per row.

    Rows of Python numbers (`ndarray.tolist()`) format fastest, as bytes:
    `b'%.10g' % x` spells `f"{x:.10g}"`, so CRLF tables match `csv.writer`.
    """
    line = (row_format + newline).encode()
    with open(path, "wb") as handle:
        handle.write((header + newline).encode())
        handle.writelines(line % tuple(row) for row in rows)


def write_waveform(
    signal: SampledSignal,
    path,
    fmt: str = "csv",
    scheme: str | None = None,
    seed: int | None = None,
) -> None:
    """Dump samples as CSV (index,i,q) or interleaved float32 binary.

    The samples are real passband, so q (and every odd float32 slot) is 0.
    Both formats get a JSON sidecar (<path>.json) recording the sample
    rate, format and provenance so the dump is self-describing. A finite
    sample beyond the float32 range raises SignalError.
    """
    path = Path(path)
    x = signal.samples
    with np.errstate(over="ignore"):
        i = x.astype(np.float32)
    overflow = np.isinf(i) & np.isfinite(x)
    if overflow.any():
        raise SignalError(f"sample {np.argmax(overflow)} is beyond the float32 range")
    if fmt == "csv":
        write_table(path, "index,i,q", "%d,%.8g,0", enumerate(i.tolist()))
    elif fmt == "f32":
        interleaved = np.zeros(2 * x.size, dtype="<f4")
        interleaved[0::2] = i
        interleaved.tofile(path)
    else:
        raise SignalError(f"unknown waveform format {fmt!r}")
    sidecar = {
        "sample_rate": signal.sample_rate,
        "symbol_rate": signal.symbol_rate,
        "n_samples": int(x.size),
        "format": fmt,
        "scheme": scheme,
        "seed": seed,
    }
    write_json(sidecar, path.with_suffix(path.suffix + ".json"))


def read_waveform_f32(path) -> np.ndarray:
    """Read an interleaved float32 dump back into real float64 samples.

    write_waveform zeroes every odd slot, so a nonzero one means the file
    is not such a dump and raises SignalError.
    """
    flat = np.fromfile(path, dtype="<f4")
    if np.any(flat[1::2]):
        raise SignalError(f"{path} has a nonzero quadrature slot; not a real dump")
    return flat[0::2].astype(np.float64)
