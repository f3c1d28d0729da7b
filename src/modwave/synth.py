"""Waveform synthesis: bit sources, symbol mapping, reference modulators
for the standard scheme set, formula-driven waveforms and power
normalization.

All waveforms are real passband signals sampled at
symbol_rate * samples_per_symbol. Each reference scheme is one row of
SCHEMES (see Scheme). A row the formula language can write, am, fm, pm
and fsk, is its bundled corpus formula, evaluated as a formula scheme
is; the other rows keep a builder. A row with an alphabet sends exactly
the points constellation() returns through one quadrature builder.
Rectangular pulse shaping is the default; root-raised-cosine shaping is
available for those rows behind a config flag for bandwidth studies, but
their receivers assume rectangular pulses, so demodulating an rrc run
raises.
"""

import json
import math
from collections.abc import Callable
from dataclasses import dataclass, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dsl.ast import Expr, reads, separable_in
from .dsl.corpus import bundled_corpus_path, load_corpus
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

    @cached_property
    def power(self) -> float:
        """Mean square of the samples, measured once per signal. A signal
        built with replace measures its own."""
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
        # only σ² enters the Gaussian taps: a negative product sent its
        # absolute value's samples, and 0 made σ infinite
        if self.gmsk_bt <= 0.0:
            raise SignalError(f"gmsk_bt {self.gmsk_bt} is not positive")
        if not self.is_formula and self.scheme not in SCHEMES:
            raise SignalError(f"unknown scheme {self.scheme!r}")
        if self.formula_text is not None and not self.is_formula:
            raise SignalError(f"formula_text is for a formula:<id> scheme, not {self.scheme!r}")
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
        """The tree this config sends, parsed once per config object:
        formula_text for a formula scheme, else its row's formula."""
        text = self.formula_text if self.is_formula else SCHEMES[self.scheme].formula
        if not text:
            raise SignalError(f"scheme {self.scheme!r} has no formula text")
        return parse_formula(text)

    @property
    def sample_rate(self) -> float:
        return self.symbol_rate * self.samples_per_symbol

    @property
    def label_scheme(self) -> str:
        """The scheme whose labels and points this config sends."""
        return self.base_scheme if self.is_formula else self.scheme

    @property
    def bits_per_symbol(self) -> int:
        return _bits_per_symbol(self.label_scheme)

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
    """Minimum-distance decisions back to bits, a block of points at a time.

    |p - c|² = |p|² - 2·Re(p·conj(c)) + |c|², and |p|² is the same for
    every point c, so each decision is the argmin of the score
    [Re p, Im p, 1] · [-2·Re c, -2·Im c, |c|²]: one product per block.
    """
    scheme = normalize_scheme_id(scheme)
    points = constellation(scheme)
    weights = np.stack([-2.0 * points.real, -2.0 * points.imag, np.abs(points) ** 2])
    labels = np.empty(points_rx.size, dtype=np.int64)
    step = max(1, (1 << 16) // points.size)
    for start in range(0, points_rx.size, step):
        block = points_rx[start : start + step]
        features = np.column_stack([block.real, block.imag, np.ones(block.size)])
        np.argmin(features @ weights, axis=1, out=labels[start : start + step])
    return labels_to_bits(labels, _bits_per_symbol(scheme))


# ---------------------------------------------------------------------------
# waveform builders


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


# the carrier pair is the value of these trees, and is keyed as they are
_CARRIER_TREES = (parse_formula("cos(2*pi*f_c*t)"), parse_formula("sin(2*pi*f_c*t)"))


def _carrier(cfg: SchemeConfig) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (cos θ, sin θ) of the carrier phase θ = 2π·f_c·t, kept in
    the grid's store: 7.7 MB at 10k symbols of 48 samples."""
    store = grid(cfg.n_samples, cfg.sample_rate)
    return tuple(
        store.value(invariant_key(tree, {"f_c": cfg.carrier_freq}),
                    lambda: ufunc(2 * np.pi * cfg.carrier_freq * store.t))
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
    # continuous phase: integrate instantaneous frequency along the last axis
    return 2 * np.pi * np.cumsum(inst_freq, axis=-1) / cfg.sample_rate


def _gaussian_freq_pulse(cfg: SchemeConfig) -> np.ndarray:
    """gmsk's pulse table p: one symbol's rect hold through the 8*sps + 1
    Gaussian taps (sum 1), cut into the 9 symbol periods it spans, oldest
    first. The table sums to sps, the area of one symbol."""
    sps = cfg.samples_per_symbol
    bandwidth = cfg.gmsk_bt * cfg.symbol_rate
    span = 4 * sps
    t = (np.arange(2 * span + 1) - span) / cfg.sample_rate
    sigma = np.sqrt(np.log(2)) / (2 * np.pi * bandwidth)
    taps = np.exp(-(t**2) / (2 * sigma**2))
    return np.convolve(np.ones(sps), taps / taps.sum()).reshape(-1, sps)


def _message(cfg: SchemeConfig, t: np.ndarray) -> np.ndarray:
    return np.cos(2 * np.pi * cfg.message_freq * t)


def _qam_wave(cfg: SchemeConfig, labels: np.ndarray) -> np.ndarray:
    return _quadrature_passband(cfg, constellation(cfg.scheme)[labels])


def _cpm_drive(cfg: SchemeConfig, labels: np.ndarray) -> np.ndarray:
    """The NRZ drive of a _cpm_wave row: the held ±1 symbols, or with a
    pulse table p, Σ_k a_k·p(t - kT) centred on each symbol. Each symbol's
    samples are then the window of the symbols whose pulses cover it (zero
    beyond the stream) times p's rows, newest first: one product, made in
    numpy's own einsum loop rather than a threaded BLAS call."""
    symbols = 2.0 * labels - 1.0
    pulse = SCHEMES[cfg.scheme].freq_pulse
    if pulse is None:
        return np.repeat(symbols, cfg.samples_per_symbol)
    table = pulse(cfg)
    span = table.shape[0]
    windows = sliding_window_view(np.pad(symbols, span // 2), span)
    return np.einsum("ij,jk->ik", windows, table[::-1]).reshape(-1)


def _cpm_wave(cfg: SchemeConfig, labels: np.ndarray) -> np.ndarray:
    """The drive deviates the carrier h*Rs/2 per unit; the phase integrates it."""
    deviation = SCHEMES[cfg.scheme].h * cfg.symbol_rate / 2
    inst = cfg.carrier_freq + deviation * _cpm_drive(cfg, labels)
    return cfg.amplitude * np.cos(_phase_from_freq(cfg, inst))


def _chirp_wave(cfg: SchemeConfig, labels: np.ndarray) -> np.ndarray:
    # binary up/down linear sweeps over +-symbol_rate, phase reset per symbol:
    # the two one-symbol sweeps, gathered by label
    tau = np.arange(cfg.samples_per_symbol) / cfg.sample_rate
    direction = np.array([-1.0, 1.0])[:, None]
    sweep = cfg.symbol_rate * (2 * tau * cfg.symbol_rate - 1)
    inst = cfg.carrier_freq + direction * sweep[None, :]
    return (cfg.amplitude * np.cos(_phase_from_freq(cfg, inst)))[labels].reshape(-1)


@dataclass(frozen=True, eq=False)
class Scheme:
    """Every fact about one reference scheme.

    bits_per_symbol is 0 for an analog scheme. A row has either a formula,
    the text of the bundled corpus entry of its id, evaluated as a formula
    scheme is, or a waveform(cfg, labels) builder for what the formula
    language cannot write: rrc pulses, a filtered NRZ drive, a phase reset
    at each symbol. alphabet is the
    unit-average-energy constellation indexed by label, where there is
    one; such a row sends alphabet[labels] with _qam_wave. receiver names
    the bit decision rule in metrics. h is the continuous-phase index of a
    _cpm_wave row: tones deviate h*Rs/2 and the discriminator passes
    (h/2 + 1)*Rs. freq_pulse(cfg), where a row names one, gives the
    (symbols spanned, sps) pulse table that shapes its NRZ drive. memory,
    which such a row has, marks a waveform that depends on earlier symbols
    and so rules out a per-symbol candidate bank.
    """

    bits_per_symbol: int
    waveform: Callable[[SchemeConfig, np.ndarray], np.ndarray] | None = None
    alphabet: np.ndarray | None = None
    receiver: str | None = None
    h: float | None = None
    freq_pulse: Callable[[SchemeConfig], np.ndarray] | None = None
    formula: str | None = None

    @property
    def memory(self) -> bool:
        return self.h is not None


_CORPUS = {entry.id: entry.formula for entry in load_corpus(bundled_corpus_path())}

SCHEMES: dict[str, Scheme] = {
    "am": Scheme(0, formula=_CORPUS["am"]),
    "fm": Scheme(0, formula=_CORPUS["fm"]),
    "pm": Scheme(0, formula=_CORPUS["pm"]),
    # average energy 1 with equiprobable on/off symbols
    "ook": Scheme(1, _qam_wave, np.array([0.0, np.sqrt(2.0)]) + 0j, "envelope"),
    "bpsk": Scheme(1, _qam_wave, np.array([1.0, -1.0]) + 0j, "nearest"),
    "qpsk": Scheme(2, _qam_wave, _psk_points(4), "nearest"),
    "psk8": Scheme(3, _qam_wave, _psk_points(8), "nearest"),
    "bfsk": Scheme(1, _cpm_wave, receiver="discriminator", h=1.0),
    "fsk": Scheme(1, receiver="correlation", formula=_CORPUS["fsk"]),
    "msk": Scheme(1, _cpm_wave, receiver="discriminator", h=0.5),
    "gmsk": Scheme(1, _cpm_wave, receiver="discriminator", h=0.5, freq_pulse=_gaussian_freq_pulse),
    "chirp": Scheme(1, _chirp_wave, receiver="correlation"),
    "qam16": Scheme(4, _qam_wave, _square_qam_points(16), "nearest"),
    "qam64": Scheme(6, _qam_wave, _square_qam_points(64), "nearest"),
    "qam128": Scheme(7, _qam_wave, _cross_qam128_points(), "nearest"),
    "qam256": Scheme(8, _qam_wave, _square_qam_points(256), "nearest"),
}

REFERENCE_SCHEMES = tuple(SCHEMES)


# ---------------------------------------------------------------------------
# formula bindings, modulate and the candidate bank


def _sends_formula(cfg: SchemeConfig) -> bool:
    return cfg.is_formula or SCHEMES[cfg.scheme].formula is not None


def formula_context(
    cfg: SchemeConfig, labels: np.ndarray | None
) -> tuple[Expr, EvalContext, np.ndarray]:
    """Bind the names cfg.formula reads.

    The quadrature, data and frequency streams come from the Gray-labeled
    symbols of cfg.label_scheme: the base scheme of a formula scheme, the
    row itself for a reference row. A 1-D labels array is one label per
    symbol, held over that symbol's samples; a (rows, 1) column binds one
    row per label, which broadcasts against the grid. Each stream, and
    m(t), is bound only when the formula reads it, so an analog row takes
    labels None. Scalars come from the config. Returns cfg.formula, its
    context and the time grid, evaluate's three arguments.
    """
    expr = cfg.formula
    names = reads(expr)[0]
    streams = {
        "I(t)": lambda: constellation(cfg.label_scheme)[labels].real,
        "Q(t)": lambda: constellation(cfg.label_scheme)[labels].imag,
        "d(t)": lambda: labels.astype(float),
        "f(t)": lambda: cfg.carrier_freq + cfg.symbol_rate * (2.0 * (labels % 2) - 1.0),
    }
    signals = {name: make() for name, make in streams.items() if name in names}
    if labels is not None and labels.ndim == 1:
        signals = {name: np.repeat(v, cfg.samples_per_symbol) for name, v in signals.items()}
    t = grid(cfg.n_samples, cfg.sample_rate).t
    if "m(t)" in names:
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
    if not _sends_formula(cfg):
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
    if not cfg.bits_per_symbol:
        raise DemodulationError("analog schemes have no symbol candidates")
    labels = np.arange(1 << cfg.bits_per_symbol) if labels is None else labels
    if _sends_formula(cfg):
        memory = reads(cfg.formula)[1] & set(LABEL_STREAMS)
        if memory:
            raise DemodulationError(
                f"{cfg.scheme} integrates {sorted(memory)}, so its symbols "
                "have memory; no per-symbol candidate bank"
            )
        samples = evaluate(*formula_context(cfg, labels[:, None])).samples
        # a formula that reads no label stream sends one row for every label
        return samples if samples.ndim == 2 else np.tile(samples, (labels.size, 1))
    scheme = SCHEMES[cfg.scheme]
    if scheme.memory:
        raise DemodulationError(
            f"{cfg.scheme} carries phase memory; no per-symbol candidate bank"
        )
    return np.stack([
        scheme.waveform(cfg, np.full(cfg.n_symbols, label, dtype=np.int64))
        for label in labels
    ])


def candidate_basis(cfg: SchemeConfig) -> tuple[np.ndarray, np.ndarray] | None:
    """A formula's candidates as a(t) + sum_j v_j·c_j(t), one column j per
    label stream it reads and per feature.

    dsl.ast.separable_in rewrites the formula as affine in those columns:
    the streams, then the features h_j, trees of the streams alone such as
    cos(pi*d(t)). The rewritten tree is evaluated once with the K columns
    bound as (1 + K, 1) unit columns: all zeros, then one unit vector per
    column. Row 0 is a(t) and row j is a(t) + c_j(t). The features are
    evaluated once at the labels, on two samples of the grid, since they
    read no time. Returns those rows and values, the (order, K) column
    values of each label. Returns None, for the bank, when the formula is
    not separable, or the basis or a feature has a non-finite value.
    """
    split = separable_in(cfg.formula)
    if split is None:
        return None
    expr, features = split
    order = 1 << cfg.bits_per_symbol
    _, ctx, t = formula_context(cfg, np.arange(order)[:, None])
    names = reads(expr)[0]
    streams = {name: ctx.signals[name] for name in LABEL_STREAMS if name in ctx.signals}
    columns = {name: streams[name] for name in streams if name in names}
    for name, tree in features.items():
        result = evaluate(tree, EvalContext(ctx.constants, streams), t[:2])
        if result.invalid_mask.any():
            return None
        columns[name] = result.samples[:, :1]
    unit = np.eye(len(columns) + 1)[:, 1:]
    signals = {name: value for name, value in ctx.signals.items() if name not in streams}
    for j, name in enumerate(columns):
        signals[name] = unit[:, [j]]
    result = evaluate(expr, EvalContext(ctx.constants, signals), t)
    if result.invalid_mask.any():
        return None
    values = np.hstack([np.empty((order, 0)), *columns.values()])
    return result.samples.reshape(len(columns) + 1, -1), values


def normalize_power(signal: SampledSignal) -> SampledSignal:
    """Scale a signal to unit mean-square power.

    The result's gain records the realized amplitude ratio
    sqrt(scaled power / input power), compounded with the input's gain, so
    receivers can scale noiseless candidates without synthesizing again.
    The result carries the scaled power it measured as its power, which the
    channel's noise calibration and SNR measurement read.
    """
    current = signal.power
    if current <= 0:
        raise ZeroPowerError("cannot normalize a zero-power signal")
    samples = signal.samples * float(np.sqrt(1.0 / current))
    power = float(np.mean(samples**2))
    scaled = replace(signal, samples=samples, gain=signal.gain * float(np.sqrt(power / current)))
    scaled.__dict__["power"] = power  # the cached_property's slot
    return scaled


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
        with open(path, "wb") as handle:
            handle.write(b"index,i,q\r\n")
            handle.writelines(b"%d,%.8g,0\r\n" % row for row in enumerate(i.tolist()))
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
