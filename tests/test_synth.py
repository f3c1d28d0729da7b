import csv
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modwave
from modwave import grid as grids
from modwave.dsl import (
    CLASS_VALID,
    EvalContext,
    bundled_corpus_path,
    bundled_generated_path,
    evaluate,
    load_corpus,
    parse_formula,
    validate,
)
from modwave.channel import CHANNEL_PRESETS, ChannelConfig, add_awgn
from modwave.dsl import to_text
from modwave.dsl.ast import Symbol, basis_terms, reads
from modwave.dsl.evaluation import invariant_key
from modwave.dsl.symbols import NAMES
from modwave.errors import DemodulationError, NyquistError, SignalError, ZeroPowerError
from modwave.genlab import generate_batch, load_grammar
from modwave.metrics import ber, compare, demodulate
from modwave.synth import (
    REFERENCE_SCHEMES,
    SCHEMES,
    SampledSignal,
    SchemeConfig,
    _cpm_drive,
    _rrc_baseband,
    bits_to_labels,
    candidate_bank,
    candidate_basis,
    constellation,
    formula_context,
    gen_bits,
    map_symbols,
    modulate,
    normalize_power,
    normalize_scheme_id,
    read_waveform_f32,
    write_waveform,
)
from modwave.table import write_table

from conftest import (
    CPM_GEOMETRIES,
    CPM_GEOMETRY_IDS,
    FORMULA_TREES,
    SPECIAL,
    SPECIAL_F32,
    cold_store,
    oracle_basis_terms,
    stream_affine,
)

# the carrier pair is the value of these trees, and is keyed as they are
CARRIER_TREES = (parse_formula("cos(2*pi*f_c*t)"), parse_formula("sin(2*pi*f_c*t)"))


def stored_carrier(cfg):
    """The (cos, sin) carrier pair of cfg's grid that the grid store keeps."""
    store = grids.grid(cfg.n_samples, cfg.sample_rate)
    return tuple(store.get(invariant_key(tree, {"f_c": cfg.carrier_freq})) for tree in CARRIER_TREES)


# the special values a float32 dump can hold: the finite ones beyond its range raise
WRITABLE = SPECIAL[~(np.isfinite(SPECIAL) & (np.abs(SPECIAL) > np.finfo(np.float32).max))]


DIGITAL = [s for s in REFERENCE_SCHEMES if s not in ("am", "fm", "pm")]
ALPHABETS = [name for name, s in SCHEMES.items() if s.alphabet is not None]


def oracle_chirp_wave(cfg, labels):
    """The per-symbol chirp: every symbol's sweep computed again."""
    tau = np.arange(cfg.samples_per_symbol) / cfg.sample_rate
    direction = (2.0 * labels - 1.0)[:, None]
    sweep = cfg.symbol_rate * (2 * tau * cfg.symbol_rate - 1)
    inst = cfg.carrier_freq + direction * sweep[None, :]
    phase = 2 * np.pi * np.cumsum(inst, axis=1) / cfg.sample_rate
    return cfg.amplitude * np.cos(phase).reshape(-1)


def oracle_cpfsk_wave(cfg, labels, drive=None):
    """The continuous-phase builders as they were, one per pulse: a held NRZ
    drive, or the given drive, deviating the carrier h*Rs/2 per unit."""
    if drive is None:
        drive = np.repeat(2.0 * labels - 1.0, cfg.samples_per_symbol)
    inst = cfg.carrier_freq + SCHEMES[cfg.scheme].h * cfg.symbol_rate / 2 * drive
    return cfg.amplitude * np.cos(2 * np.pi * np.cumsum(inst) / cfg.sample_rate)


def oracle_am_wave(cfg, labels):
    """The builders of the rows that are now corpus formulas, as they were."""
    t = np.arange(cfg.n_samples) / cfg.sample_rate
    msg = np.cos(2 * np.pi * cfg.message_freq * t)
    return cfg.amplitude * (1 + cfg.mod_index * msg) * np.cos(2 * np.pi * cfg.carrier_freq * t)


def oracle_fm_wave(cfg, labels):
    t = np.arange(cfg.n_samples) / cfg.sample_rate
    msg = np.cos(2 * np.pi * cfg.message_freq * t)
    running = np.concatenate(([0.0], np.cumsum((msg[1:] + msg[:-1]) / 2) / cfg.sample_rate))
    return cfg.amplitude * np.cos(2 * np.pi * cfg.carrier_freq * t + cfg.freq_dev * running)


def oracle_pm_wave(cfg, labels):
    t = np.arange(cfg.n_samples) / cfg.sample_rate
    msg = np.cos(2 * np.pi * cfg.message_freq * t)
    return cfg.amplitude * np.cos(2 * np.pi * cfg.carrier_freq * t + cfg.phase_dev * msg)


def oracle_fsk_wave(cfg, labels):
    tone = cfg.carrier_freq + cfg.symbol_rate * (2.0 * labels - 1.0)
    t = np.arange(cfg.n_samples) / cfg.sample_rate
    return cfg.amplitude * np.cos(2 * np.pi * np.repeat(tone, cfg.samples_per_symbol) * t)


# the two trapezoid sums of fm's phase, the old builder's and the evaluator's
# integral, differ by rounding only; 5.2e-11 was seen at 10k symbols
FM_TOLERANCE = 1e-9


def oracle_gmsk_drive(cfg, labels):
    """The NRZ hold convolved with the Gaussian frequency pulse, as gmsk's
    builder did, taken as the centred n*sps slice of the full convolution.
    The builder's mode="same" gave that slice too, except on a hold shorter
    than the taps, where it gave the taps' length."""
    sps = cfg.samples_per_symbol
    t = (np.arange(8 * sps + 1) - 4 * sps) / cfg.sample_rate
    sigma = np.sqrt(np.log(2)) / (2 * np.pi * cfg.gmsk_bt * cfg.symbol_rate)
    taps = np.exp(-(t**2) / (2 * sigma**2))
    nrz = np.repeat(2.0 * labels - 1.0, sps)
    return np.convolve(nrz, taps / taps.sum())[4 * sps:][:nrz.size]


# gmsk's pulse product sums each sample's nine terms in another order than
# the 385-tap convolution did, so its drive moves by rounding (up to 5.6e-16
# was seen). The phase sum carries that on: a drive step below half an ulp
# of the instantaneous frequency vanishes, a larger one shifts the running
# phase by about an ulp of the running sum. The sample bound was set before
# the first run, to leave room for that walk over 480k samples and stay far
# below what one wrong pulse row would move; 2.9e-14 was seen.
GMSK_DRIVE_TOLERANCE = 1e-14
GMSK_SAMPLE_TOLERANCE = 1e-11


# the default grid, an off-cycle carrier at 10 samples per symbol, odd
# sample counts per symbol and a non-unit amplitude
CHIRP_GEOMETRIES = [
    {},
    {"carrier_freq": 2745.0, "symbol_rate": 1200.0, "samples_per_symbol": 10},
    {"carrier_freq": 2100.0, "symbol_rate": 1000.0, "samples_per_symbol": 9, "amplitude": 2.5},
    {"carrier_freq": 8500.0, "symbol_rate": 2000.0, "samples_per_symbol": 13},
]


class TestBits:
    def test_deterministic_per_seed(self):
        assert np.array_equal(gen_bits(8, seed=1), gen_bits(8, seed=1))
        assert not np.array_equal(gen_bits(64, seed=1), gen_bits(64, seed=2))

    def test_ones_fraction(self):
        bits = gen_bits(100_000, seed=5)
        frac = bits.mean()
        assert 0.49 <= frac <= 0.51  # 3 sigma band is about 0.0047

    def test_single_bit(self):
        assert gen_bits(1, seed=9)[0] in (0, 1)

    def test_count_must_be_positive(self):
        with pytest.raises(SignalError):
            gen_bits(0, seed=1)


class TestSymbolMaps:
    def test_qpsk_gray_table(self):
        # enumerate the documented 4-entry map
        expected = {
            (0, 0): (1 + 1j) / np.sqrt(2),
            (0, 1): (-1 + 1j) / np.sqrt(2),
            (1, 1): (-1 - 1j) / np.sqrt(2),
            (1, 0): (1 - 1j) / np.sqrt(2),
        }
        for bits, point in expected.items():
            got = map_symbols(np.array(bits), "qpsk")[0]
            assert got == pytest.approx(point, abs=1e-12), bits

    def test_qpsk_is_the_pi_over_4_set_bit_for_bit(self):
        pos = np.arange(4)
        qpsk = np.empty(4, dtype=complex)
        qpsk[pos ^ (pos >> 1)] = np.exp(1j * (np.pi / 4 + pos * np.pi / 2))
        assert np.array_equal(constellation("qpsk"), qpsk)

    def test_psk8_gray_ring(self):
        # unit circle at odd multiples of pi/8; neighbors differ in one bit
        points = constellation("psk8")
        assert np.allclose(np.abs(points), 1.0)
        steps = np.round(np.angle(points) / (np.pi / 8)).astype(int) % 16
        assert sorted(steps) == [1, 3, 5, 7, 9, 11, 13, 15]
        ring = np.argsort(steps)
        for a, b in zip(ring, np.roll(ring, -1)):
            assert bin(a ^ b).count("1") == 1

    def test_qam256_all_zero_bits_hit_the_corner(self):
        # label 0 decodes to the lowest level on both axes: (-15 - 15j)
        # scaled by the square-grid average energy 2(M-1)/3 = 170
        point = map_symbols(np.zeros(8, dtype=np.uint8), "qam256")[0]
        assert point == pytest.approx((-15 - 15j) / np.sqrt(170), abs=1e-12)

    def test_alphabet_average_energy(self):
        for scheme in ("bpsk", "qpsk", "qam16", "qam64", "qam128", "qam256"):
            points = constellation(scheme)
            energy = np.mean(np.abs(points) ** 2)
            assert energy == pytest.approx(1.0, abs=1e-12), scheme

    def test_constellations_have_distinct_points(self):
        for scheme, size in (
            ("qpsk", 4), ("qam16", 16), ("qam64", 64),
            ("qam128", 128), ("qam256", 256),
        ):
            points = constellation(scheme)
            assert len(np.unique(np.round(points, 12))) == size

    def test_qam128_is_a_cross(self):
        # 12x12 grid of odd coordinates minus the four 2x2 corners
        points = constellation("qam128") * np.sqrt(82.0)
        x, y = np.round(points.real), np.round(points.imag)
        assert np.abs(x).max() == 11 and np.abs(y).max() == 11
        assert not np.any((np.abs(x) > 7) & (np.abs(y) > 7))

    def test_gray_neighbors_one_bit_apart_square(self):
        points = constellation("qam16") * np.sqrt(10)
        for a in range(16):
            for b in range(16):
                gap = abs(points[a] - points[b])
                if abs(gap - 2.0) < 1e-9:  # geometric nearest neighbors
                    assert bin(a ^ b).count("1") == 1

    def test_indivisible_bit_count_rejected(self):
        with pytest.raises(SignalError):
            map_symbols(np.zeros(5, dtype=np.uint8), "qam16")


class TestSchemeConfig:
    def test_sample_rate_relation_is_exact(self):
        cfg = SchemeConfig("bpsk")
        assert cfg.sample_rate == cfg.symbol_rate * cfg.samples_per_symbol

    def test_nyquist_guard(self):
        with pytest.raises(NyquistError):
            SchemeConfig("bpsk", carrier_freq=23_500.0)

    @pytest.mark.parametrize("carrier", [1e-300, 317.0, 2000.0])
    def test_carrier_below_the_occupied_band(self, carrier):
        with pytest.raises(SignalError):
            SchemeConfig("msk", carrier_freq=carrier, symbol_rate=1000.0)

    @pytest.mark.parametrize("rolloff", [0.0, -0.1, 1.01, 5.0])
    def test_rrc_rolloff_outside_unit_interval(self, rolloff):
        with pytest.raises(SignalError):
            SchemeConfig("qam16", pulse="rrc", rrc_rolloff=rolloff)

    @pytest.mark.parametrize("bt", [0.0, -0.0, -0.3, -1e-300])
    def test_gmsk_bt_must_be_positive(self, bt):
        # only σ² enters the taps: -0.3 sent 0.3's samples, and 0 divided by
        # zero into a flat 385-tap box that read BER 0.364 without noise
        with pytest.raises(SignalError, match="gmsk_bt .* is not positive"):
            SchemeConfig("gmsk", gmsk_bt=bt)
        assert SchemeConfig("gmsk", gmsk_bt=1e-300).gmsk_bt == 1e-300

    FLOAT_FIELDS = [f.name for f in fields(SchemeConfig) if f.type is float]

    def test_float_fields_are_the_scheme_parameters(self):
        assert set(self.FLOAT_FIELDS) == {
            "carrier_freq", "symbol_rate", "amplitude", "mod_index", "freq_dev",
            "phase_dev", "message_freq", "gmsk_bt", "rrc_rolloff",
        }

    @pytest.mark.parametrize(
        "scheme", [name for name, s in SCHEMES.items() if s.alphabet is None] + ["formula:qam"]
    )
    def test_rrc_is_for_a_reference_row_with_an_alphabet(self, scheme):
        # a row without an alphabet sent its rect samples under rrc
        text = "I(t)*cos(2*pi*f_c*t)" if scheme.startswith("formula:") else None
        message = f"pulse 'rrc' is for a reference row with an alphabet, not '{scheme}'"
        with pytest.raises(SignalError, match=message):
            SchemeConfig(scheme, pulse="rrc", formula_text=text)
        SchemeConfig(scheme, formula_text=text)

    def test_an_rrc_label_column_has_no_receiver(self):
        # rrc shapes a label stream; a (rows, 1) column binds no stream to shape
        cfg = SchemeConfig("qpsk", n_symbols=8, pulse="rrc")
        assert modulate(cfg).samples.shape == (cfg.n_samples,)
        calls = (candidate_bank, candidate_basis, lambda c: formula_context(c, np.arange(4)[:, None]))
        for call in calls:
            with pytest.raises(DemodulationError, match="^qpsk has no receiver for pulse 'rrc'$"):
                call(cfg)

    def test_formula_text_is_for_formula_schemes(self):
        # a reference row sends its own waveform, and ignored a text given with it
        text = "I(t)*cos(2*pi*f_c*t)"
        for scheme in ("am", "qpsk", "gmsk"):
            message = f"formula_text is for a formula:<id> scheme, not '{scheme}'"
            with pytest.raises(SignalError, match=message):
                SchemeConfig(scheme, formula_text=text)
        assert SchemeConfig("formula:am", formula_text=text).formula == parse_formula(text)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_non_finite_float_field_raises(self, name, value):
        # NaN fails every range check, so without this it ran to plausible BERs
        for scheme in ("qpsk", "formula:x"):
            with pytest.raises(SignalError, match=f"{name} .* not a finite number"):
                SchemeConfig(scheme, formula_text="I(t)", **{name: value})

    def test_scheme_id_normalization(self):
        assert normalize_scheme_id("16-QAM") == "qam16"
        assert normalize_scheme_id("QAM-256") == "qam256"
        assert SchemeConfig("GMSK").scheme == "gmsk"

    def test_qam_aliases_come_from_the_scheme_table(self, monkeypatch):
        # a new QAM order is one table row, and its "N-QAM" alias follows
        assert normalize_scheme_id("1024-QAM") == "1024qam"
        monkeypatch.setitem(SCHEMES, "qam1024", SCHEMES["qam256"])
        assert normalize_scheme_id("1024-QAM") == "qam1024"
        assert normalize_scheme_id("qam") == "qam"

    def test_unknown_scheme(self):
        with pytest.raises(SignalError):
            SchemeConfig("ofdm")


class TestReferenceWaveforms:
    def test_bpsk_phase_flip_at_symbol_centers(self):
        cfg = SchemeConfig("bpsk", n_symbols=64, seed=2)
        sig = modulate(cfg)
        sps = cfg.samples_per_symbol
        t = np.arange(len(sig)) / sig.sample_rate
        carrier = np.cos(2 * np.pi * cfg.carrier_freq * t)
        centers = np.arange(64) * sps + sps // 2
        # sign agrees with the carrier for bit 0, flips for bit 1
        for k, bit in enumerate(sig.origin_bits):
            lhs = np.sign(sig.samples[centers[k]])
            rhs = np.sign(carrier[centers[k]])
            assert lhs == (rhs if bit == 0 else -rhs)

    def test_am_zero_index_matches_formula_engine(self):
        cfg = SchemeConfig("am", mod_index=0.0, n_symbols=100)
        sig = modulate(cfg)
        t = np.arange(len(sig)) / sig.sample_rate
        ctx = EvalContext(constants={"A_c": cfg.amplitude, "f_c": cfg.carrier_freq, "phi_c": 0.0})
        carrier = evaluate(parse_formula("A_c * cos(2*pi*f_c*t + phi_c)"), ctx, t)
        assert np.allclose(sig.samples, carrier.samples, atol=1e-12)

    def test_ook_zero_bits_are_exactly_silent(self):
        cfg = SchemeConfig("ook", n_symbols=128, seed=7)
        sig = modulate(cfg)
        frames = sig.samples.reshape(128, cfg.samples_per_symbol)
        zeros = sig.origin_bits == 0
        assert zeros.any()
        assert np.all(frames[zeros] == 0.0)

    def test_waveforms_are_deterministic(self):
        for scheme in ("qam64", "gmsk", "chirp", "fm"):
            cfg = SchemeConfig(scheme, n_symbols=50, seed=13)
            one, two = modulate(cfg), modulate(cfg)
            assert np.array_equal(one.samples, two.samples), scheme

    @given(
        geometry=st.sampled_from(CHIRP_GEOMETRIES),
        n_symbols=st.integers(1, 400),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_chirp_equals_the_per_symbol_oracle(self, geometry, n_symbols, seed):
        cfg = SchemeConfig("chirp", n_symbols=n_symbols, seed=seed, **geometry)
        signal = modulate(cfg)
        expected = oracle_chirp_wave(cfg, signal.origin_bits.astype(np.int64))
        assert signal.samples.tobytes() == expected.tobytes()
        bank = candidate_bank(cfg)
        for label, row in enumerate(bank):
            held = np.full(n_symbols, label, dtype=np.int64)
            assert row.tobytes() == oracle_chirp_wave(cfg, held).tobytes(), label

    @pytest.mark.parametrize("geometry", CPM_GEOMETRIES, ids=CPM_GEOMETRY_IDS)
    @pytest.mark.parametrize("n_symbols", [1, 7, 333, 10_000])
    def test_continuous_phase_rows_equal_their_old_builders(self, geometry, n_symbols):
        # bfsk and msk hold their symbols, as their old builder did, bit for bit
        for scheme in ("bfsk", "msk"):
            cfg = SchemeConfig(scheme, n_symbols=n_symbols, seed=5, **geometry)
            signal = modulate(cfg)
            expected = oracle_cpfsk_wave(cfg, signal.origin_bits.astype(np.int64))
            assert signal.samples.tobytes() == expected.tobytes(), scheme

    @pytest.mark.parametrize("geometry", CPM_GEOMETRIES, ids=CPM_GEOMETRY_IDS)
    @pytest.mark.parametrize("n_symbols", [1, 7, 333, 10_000])
    def test_gmsk_drive_is_the_old_convolution(self, geometry, n_symbols):
        for bt in (0.2, 0.3, 0.5):
            cfg = SchemeConfig("gmsk", n_symbols=n_symbols, seed=5, gmsk_bt=bt, **geometry)
            sps = cfg.samples_per_symbol
            table = SCHEMES["gmsk"].freq_pulse(cfg)
            assert table.shape == (9, sps), bt
            # one symbol's area, spread so that a constant stream drives ±1
            assert abs(table.sum() - sps) <= 1e-12, bt
            assert np.max(np.abs(table.sum(axis=0) - 1.0)) <= 1e-14, bt
            signal = modulate(cfg)
            labels = signal.origin_bits.astype(np.int64)
            expected = oracle_gmsk_drive(cfg, labels)
            drive = _cpm_drive(cfg, labels)
            assert drive.shape == expected.shape == (cfg.n_samples,), bt
            assert np.max(np.abs(drive - expected)) <= GMSK_DRIVE_TOLERANCE, bt
            error = np.abs(signal.samples - oracle_cpfsk_wave(cfg, labels, expected))
            assert np.max(error) <= GMSK_SAMPLE_TOLERANCE, bt

    @pytest.mark.parametrize("geometry", CPM_GEOMETRIES, ids=CPM_GEOMETRY_IDS)
    def test_short_gmsk_grids_have_their_length(self, geometry):
        # a hold shorter than the taps (under 9 symbols) sent the taps' length:
        # 385 samples at 48 per symbol, whose bits then failed to line up
        for n_symbols in range(1, 9):
            cfg = SchemeConfig("gmsk", n_symbols=n_symbols, seed=n_symbols, **geometry)
            signal = modulate(cfg)
            assert len(signal) == cfg.n_samples, n_symbols
            decided = demodulate(signal, cfg, reference=signal)
            assert ber(signal.origin_bits, decided) == 0.0, n_symbols

    def test_short_gmsk_row_measures_as_msk(self):
        # the rows of one master seed share their noise draw, so two rows of
        # unit power on one grid measure one SNR. On 8 symbols gmsk sent 385
        # samples, not 384, and read 2.1127559952573556 dB to msk's 2.1031533705646375
        rows = compare(
            [SchemeConfig("gmsk", n_symbols=8), SchemeConfig("msk", n_symbols=8)],
            CHANNEL_PRESETS["table_operating_point"], master_seed=2024,
        )
        assert [row.error for row in rows] == [None, None]
        assert abs(rows[0].snr_db - rows[1].snr_db) <= 1e-9

    @pytest.mark.parametrize(
        "geometry",
        [
            {},
            {"carrier_freq": 4000.0, "samples_per_symbol": 16},
            {"carrier_freq": 2745.0, "symbol_rate": 1200.0, "samples_per_symbol": 10},
        ],
        ids=["sps48", "sps16", "off-cycle-sps10"],
    )
    @pytest.mark.parametrize("n_symbols", [1, 7, 333, 10_000])
    def test_formula_rows_equal_their_old_builders(self, geometry, n_symbols):
        # am, pm and fsk keep every bit; fm's phase integral is the evaluator's now
        for scheme, oracle in [
            ("am", oracle_am_wave), ("fm", oracle_fm_wave),
            ("pm", oracle_pm_wave), ("fsk", oracle_fsk_wave),
        ]:
            cfg = SchemeConfig(scheme, n_symbols=n_symbols, seed=5, **geometry)
            signal = modulate(cfg)
            labels = None if signal.origin_bits is None else signal.origin_bits.astype(np.int64)
            expected = oracle(cfg, labels)
            if scheme == "fm":
                assert np.max(np.abs(signal.samples - expected)) <= FM_TOLERANCE
            else:
                assert signal.samples.tobytes() == expected.tobytes(), scheme
        cfg = SchemeConfig("fsk", n_symbols=n_symbols, **geometry)
        for label, row in enumerate(candidate_bank(cfg)):
            held = np.full(n_symbols, label, dtype=np.int64)
            assert row.tobytes() == oracle_fsk_wave(cfg, held).tobytes(), label

    def test_all_waveforms_finite_and_sized(self):
        for scheme in REFERENCE_SCHEMES:
            cfg = SchemeConfig(scheme, n_symbols=40, seed=1)
            sig = modulate(cfg)
            assert len(sig) == cfg.n_samples, scheme
            assert np.isfinite(sig.samples).all(), scheme

    def test_origin_bits_length(self):
        for scheme in DIGITAL:
            cfg = SchemeConfig(scheme, n_symbols=30, seed=1)
            sig = modulate(cfg)
            assert sig.origin_bits.size == 30 * cfg.bits_per_symbol, scheme

    def test_rrc_pulse_narrows_the_spectrum(self):
        from modwave.metrics import occupied_bandwidth, welch_psd

        rect = modulate(SchemeConfig("qam16", n_symbols=4000, seed=1))
        rrc = modulate(SchemeConfig("qam16", n_symbols=4000, seed=1, pulse="rrc"))
        obw_rect = occupied_bandwidth(welch_psd(rect, segment_length=2048))
        obw_rrc = occupied_bandwidth(welch_psd(rrc, segment_length=2048))
        assert obw_rrc < 0.5 * obw_rect


def oracle_quadrature_passband(cfg, symbols):
    """The quadrature builder before the cached carrier: a full-length
    complex hold (or the rrc-shaped baseband) on an int grid, then cos and
    sin of the phase in place."""
    if cfg.pulse == "rect":
        baseband = np.repeat(symbols, cfg.samples_per_symbol)
    else:
        baseband = _rrc_baseband(cfg, symbols)
    theta = 2 * np.pi * cfg.carrier_freq * (np.arange(cfg.n_samples) / cfg.sample_rate)
    wave = np.cos(theta)
    wave *= baseband.real
    quadrature = np.sin(theta, out=theta)
    quadrature *= baseband.imag
    wave -= quadrature
    wave *= cfg.amplitude
    return wave


def oracle_am(cfg):
    t = np.arange(cfg.n_samples) / cfg.sample_rate
    msg = np.cos(2 * np.pi * cfg.message_freq * t)
    return cfg.amplitude * (1 + cfg.mod_index * msg) * np.cos(2 * np.pi * cfg.carrier_freq * t)


def assert_carrier_rows_match_the_oracle(cfg):
    signal = modulate(cfg)
    if cfg.scheme == "am":
        expected = oracle_am(cfg)
    else:
        labels = bits_to_labels(signal.origin_bits, cfg.bits_per_symbol)
        expected = oracle_quadrature_passband(cfg, constellation(cfg.scheme)[labels])
    assert signal.samples.flags.writeable, cfg
    assert signal.samples.tobytes() == expected.tobytes(), cfg


class TestCarrier:
    """Rows on the cached carrier against the builder that computed its own."""

    @pytest.mark.parametrize("pulse", ["rect", "rrc"])
    @pytest.mark.parametrize(
        "scheme", [name for name, s in SCHEMES.items() if s.alphabet is not None]
    )
    def test_alphabet_rows_equal_the_oracle(self, scheme, pulse):
        assert_carrier_rows_match_the_oracle(
            SchemeConfig(scheme, n_symbols=300, seed=3, pulse=pulse)
        )

    # formula rows on the stored carrier: its subtrees, a guarded divisor in
    # an invariant subtree, and samples that go non-finite
    FORMULAS = (
        "I(t)*cos(2*pi*f_c*t) - Q(t)*sin(2*pi*f_c*t) + (A*cos(2*pi*f_c*t))",
        "Q(t) * (sin(2*pi*f_c*t) / t + 1)",
        "I(t)*cos(2*pi*f_c*t) - Q(t)*sin(2*pi*f_c*t) + (I(t))^0.5",
    )

    def test_alternating_grids_never_reuse_a_stale_carrier(self):
        configs = [
            SchemeConfig("qpsk", n_symbols=400, seed=1),
            SchemeConfig("qpsk", n_symbols=250, seed=1),
            SchemeConfig("qam16", n_symbols=400, seed=2, carrier_freq=5000.0),
            SchemeConfig("am", n_symbols=400, carrier_freq=7000.0),
            SchemeConfig("am", n_symbols=400),
            SchemeConfig("ook", n_symbols=400, seed=3, amplitude=2.5),
            SchemeConfig("ook", n_symbols=400, seed=3),
            SchemeConfig("psk8", n_symbols=400, seed=4, symbol_rate=1200.0),
            SchemeConfig("qam64", n_symbols=400, seed=5, pulse="rrc", carrier_freq=5000.0),
        ]
        for i, cfg in enumerate(configs + configs[::-1] + configs):
            assert_carrier_rows_match_the_oracle(cfg)
            formula = SchemeConfig(
                "formula:x", n_symbols=cfg.n_symbols, seed=i, base_scheme="qam16",
                carrier_freq=cfg.carrier_freq, symbol_rate=cfg.symbol_rate,
                formula_text=self.FORMULAS[i % len(self.FORMULAS)],
            )
            for labels in (gen_bits(cfg.n_symbols, i) * 15, np.arange(16)[:, None]):
                warm = evaluate(*formula_context(formula, labels))
                with cold_store():
                    fresh = evaluate(*formula_context(formula, labels))
                assert warm.samples.tobytes() == fresh.samples.tobytes(), formula
                assert warm.guard_count == fresh.guard_count, formula
                assert np.array_equal(warm.invalid_mask, fresh.invalid_mask), formula
            clean = modulate(cfg)
            scale = math.sqrt(clean.power / 10**0.3)
            noise = np.random.default_rng(i % 3).normal(0.0, scale, clean.samples.size)
            noisy = add_awgn(clean, 3.0, i % 3).samples
            assert noisy.tobytes() == (clean.samples + noise).tobytes(), cfg

    def test_cached_carrier_is_read_only(self):
        cfg = SchemeConfig("qam16", n_symbols=10)
        modulate(cfg)
        pair = stored_carrier(cfg)
        store = grids.grid(cfg.n_samples, cfg.sample_rate)
        for tree, array in zip(CARRIER_TREES, pair):
            assert store.get(invariant_key(tree, {"f_c": cfg.carrier_freq})) is array
            with pytest.raises(ValueError):
                array[0] = 1.0

    @pytest.mark.parametrize("n", [1, 7, 48_000, 480_001])
    @pytest.mark.parametrize("sample_rate", [48_000.0, 14_400.0, 44_100.0, 12_345.678])
    def test_float_time_grid_has_the_int_grid_bits(self, n, sample_rate):
        expected = np.arange(n) / sample_rate
        assert grids.grid(n, sample_rate).t.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("formula_first", [False, True])
    def test_qam16_and_a_formula_share_one_carrier_pair(self, formula_first):
        qam16 = SchemeConfig("qam16", n_symbols=200, seed=4)
        formula = SchemeConfig(
            "formula:x", n_symbols=200, seed=5, base_scheme="qam16",
            formula_text="I(t)*cos(2*pi*f_c*t) - Q(t)*sin(2*pi*f_c*t)",
        )
        rows = [formula, qam16] if formula_first else [qam16, formula]
        with cold_store():
            compare(rows, ChannelConfig(target_snr_db=5.0))
            store = grids.last()
            cos, sin = stored_carrier(qam16)
            # the formula read the pair qam16 scaled: a recomputed value
            # would have replaced the entry, not shared it
            assert sum(value is cos or value is sin for value in store.entries.values()) == 2
            wanted = {cos.tobytes(), sin.tobytes()}
            assert sum(value.tobytes() in wanted for value in store.entries.values()) == 2
            # cos, sin, the noise draw and the pair's Gram over each symbol
            assert len(store.entries) == 4
            labels = bits_to_labels(modulate(formula).origin_bits, 4)
            points = constellation("qam16")[labels]
            sps = formula.samples_per_symbol
            i, q = np.repeat(points.real, sps), np.repeat(points.imag, sps)
            assert modulate(formula).samples.tobytes() == (i * cos - q * sin).tobytes()

    def test_no_module_keeps_arrays_after_a_compare(self):
        # the only module arrays are modwave.table's read-only lookup tables
        tables = {("modwave.table", name) for name in
                  ("_PREFIX", "_PREFIX_BELOW", "_I", "_POW10", "_DIGITS4", "_TRAILING4")}
        compare([SchemeConfig(s, n_symbols=100) for s in ("qam16", "am", "fsk")]
                + [SchemeConfig("formula:m2", n_symbols=100)], ChannelConfig())
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "modwave"]
        assert grids in modules and len(modules) > 10
        seen = set()
        for module in modules:
            for name, value in vars(module).items():
                if isinstance(value, np.ndarray):
                    assert (module.__name__, name) in tables, (module.__name__, name)
                    assert not value.flags.writeable, (module.__name__, name)
                    seen.add((module.__name__, name))
                assert not hasattr(value, "cache_info"), (module.__name__, name)
        assert seen == tables
        for path in Path(modwave.__file__).parent.rglob("*.py"):
            assert "lru_cache" not in path.read_text(), path


class TestFormulaSynthesis:
    M2 = (
        "I(t)*cos(2*pi*f_c*t) - Q(t)*sin(2*pi*f_c*t) + (A*cos(2*pi*f_c*t))"
        " + (A*pi*d(t)*sin(2*pi*f_c*t))"
    )

    def test_m2_with_silent_quadrature_reduces(self):
        # independent oracle: compose the reduced expression by hand
        cfg = SchemeConfig("formula:m2", formula_text=self.M2, n_symbols=200, seed=4)
        expr, ctx, _ = formula_context(cfg, np.arange(200) % 16)
        silent = EvalContext(
            constants=dict(ctx.constants),
            signals={**dict(ctx.signals), "Q(t)": np.zeros(cfg.n_samples)},
        )
        t = np.arange(cfg.n_samples) / cfg.sample_rate
        full = evaluate(expr, silent, t)
        reduced = evaluate(
            parse_formula(
                "I(t)*cos(2*pi*f_c*t) + (A*cos(2*pi*f_c*t))"
                " + (A*pi*d(t)*sin(2*pi*f_c*t))"
            ),
            silent,
            t,
        )
        assert np.allclose(full.samples, reduced.samples, atol=1e-12)

    def test_m1_zeroed_extras_leave_pure_quadrature(self):
        m1 = (
            "I(t)*cos(2*pi*f_c*t) - Q(t)*sin(2*pi*f_c*t)"
            " + (A*cos(2*pi*f_c*t + phi)) + (A*cos(2*pi*f_c*t + phi))"
            " + (A*sum(m, i, 1, n))"
        )
        cfg = SchemeConfig("formula:m1", formula_text=m1, n_symbols=100, seed=4, amplitude=1.0)
        _, ctx, _ = formula_context(cfg, np.arange(100) % 16)
        zeroed = EvalContext(
            constants={**dict(ctx.constants), "A": 0.0, "m": 0.0},
            signals=dict(ctx.signals),
        )
        t = np.arange(cfg.n_samples) / cfg.sample_rate
        full = evaluate(parse_formula(m1), zeroed, t)
        qam = evaluate(
            parse_formula("I(t)*cos(2*pi*f_c*t) - Q(t)*sin(2*pi*f_c*t)"),
            zeroed,
            t,
        )
        assert np.allclose(full.samples, qam.samples, atol=1e-12)

    def test_m3_runs_with_guards(self):
        m3 = (
            "I(t)*cos(2*pi*f_c*t) - Q(t)*sin(2*pi*f_c*t) + phi"
            " + ((A*sin(2*pi*f_c*t)) / (Q(t)*pi*0)) / Q"
        )
        cfg = SchemeConfig("formula:m3", formula_text=m3, n_symbols=100, seed=4)
        sig = modulate(cfg)
        assert sig.guard_count > 0
        assert np.isfinite(sig.samples).all()

    def test_candidate_bank_row_matches_constant_stream(self):
        cfg = SchemeConfig("qpsk", n_symbols=20, seed=6)
        bank = candidate_bank(cfg)
        assert bank.shape == (4, cfg.n_samples)
        # a run whose labels are constant must equal the matching bank row
        labels = np.full(20, 2, dtype=np.int64)
        assert np.array_equal(bank[2], sent(cfg, labels))


def sent(cfg, labels):
    """The samples cfg's reference row sends for the given labels."""
    scheme = SCHEMES[cfg.scheme]
    if scheme.formula is None:
        return scheme.waveform(cfg, labels)
    return evaluate(*formula_context(cfg, labels)).samples


class TestSchemeTable:
    def test_a_row_is_a_formula_or_a_builder(self):
        corpus = {e.id: e.formula for e in load_corpus(bundled_corpus_path())}
        written = [name for name, s in SCHEMES.items() if s.formula is not None]
        assert sorted(written) == sorted(["am", "fm", "pm", "fsk", *ALPHABETS])
        for name, scheme in SCHEMES.items():
            assert (scheme.formula is None) != (scheme.waveform is None), name
            if scheme.formula is not None:
                # the tree parsed once, which every config of the row sends
                text = corpus[name] if scheme.alphabet is None else f"({corpus['qam']}) * A_c"
                assert scheme.formula == parse_formula(text), name
                assert SchemeConfig(name).formula is scheme.formula, name
            else:
                assert SchemeConfig(name).formula is None, name

    def test_memory_is_a_continuous_phase_index(self):
        # memory follows from h, and only the gmsk row shapes its drive
        assert [n for n, s in SCHEMES.items() if s.memory] == ["bfsk", "msk", "gmsk"]
        assert [n for n, s in SCHEMES.items() if s.freq_pulse] == ["gmsk"]

    def test_alphabet_size_matches_bits_per_symbol(self):
        for name, scheme in SCHEMES.items():
            if scheme.alphabet is not None:
                assert scheme.bits_per_symbol > 0, name
                assert scheme.alphabet.shape == (2**scheme.bits_per_symbol,), name

    @pytest.mark.parametrize("name", REFERENCE_SCHEMES)
    def test_candidate_bank_only_for_memoryless_digital(self, name):
        scheme = SCHEMES[name]
        cfg = SchemeConfig(name, n_symbols=5, seed=1)
        if scheme.bits_per_symbol:
            # memory: the last symbol's samples change with the first label
            sps = cfg.samples_per_symbol
            tails = [sent(cfg, np.array([first, 0, 0, 0, 1]))[-sps:] for first in (0, 1)]
            assert (not np.array_equal(*tails)) == scheme.memory
        if scheme.memory or not scheme.bits_per_symbol:
            with pytest.raises(DemodulationError):
                candidate_bank(cfg)
        else:
            bank = candidate_bank(cfg)
            assert bank.shape == (2**scheme.bits_per_symbol, cfg.n_samples)


class TestSampledSignal:
    def test_complex_samples_raise(self):
        # every stage builds its output with the constructor or replace, so
        # no complex sample reaches a receiver that would decide on its real part
        sig = modulate(SchemeConfig("qam16", n_symbols=100, seed=2))
        with pytest.raises(SignalError, match="got complex"):
            SampledSignal(sig.samples + 0j, sig.sample_rate)
        with pytest.raises(SignalError, match="got complex"):
            replace(sig, samples=sig.samples * (1 + 1j))


class TestNormalizePower:
    def test_uniform_scale(self):
        sig = SampledSignal(np.array([2.0, 2.0, 2.0, 2.0]), 48000.0)
        out = normalize_power(sig)
        assert np.allclose(out.samples, [1.0, 1.0, 1.0, 1.0])
        assert out.gain == pytest.approx(0.5)

    def test_unit_power_unchanged(self):
        sig = SampledSignal(np.array([1.0, -1.0, 1.0, -1.0]), 48000.0)
        out = normalize_power(sig)
        assert np.allclose(out.samples, sig.samples, atol=1e-12)
        assert out.gain == pytest.approx(1.0, abs=1e-12)

    def test_random_signal_recheck(self, rng):
        sig = SampledSignal(rng.normal(0, 3.7, 50_000), 48000.0)
        out = normalize_power(sig)
        assert out.power == pytest.approx(1.0, rel=1e-6)

    def test_every_scheme_normalizes_to_unit_power(self):
        for scheme in REFERENCE_SCHEMES:
            cfg = SchemeConfig(scheme, n_symbols=200, seed=3, amplitude=2.5)
            out = normalize_power(modulate(cfg))
            assert out.power == pytest.approx(1.0, rel=1e-6), scheme
            # the power it carries is a fresh measurement's, bit for bit
            assert out.power == float(np.mean(out.samples**2)), scheme

    def test_zero_power_rejected(self):
        with pytest.raises(ZeroPowerError):
            normalize_power(SampledSignal(np.zeros(16), 48000.0))

    def test_gain_is_the_realized_amplitude_ratio(self):
        for scheme in ("qam16", "fsk", "chirp"):
            cfg = SchemeConfig(scheme, n_symbols=300, seed=5, amplitude=2.5)
            raw = modulate(cfg)
            assert raw.gain == 1.0  # never normalized
            out = normalize_power(raw)
            assert out.gain == float(np.sqrt(out.power / raw.power)), scheme
            assert out.gain == pytest.approx(1.0 / np.sqrt(raw.power), rel=1e-12), scheme

    def test_a_replaced_signal_measures_its_own_power(self):
        once = normalize_power(SampledSignal(np.array([2.0, -2.0, 2.0, -2.0]), 48000.0))
        assert once.power == 1.0
        tripled = replace(once, samples=once.samples * 3.0)
        assert tripled.power == 9.0
        # a replace that keeps the samples measures them again too
        regained = replace(once, gain=1.0)
        assert "power" not in vars(regained) and regained.power == 1.0
        # the noise is calibrated against the replaced signal's own power
        noisy = add_awgn(tripled, 0.0, 4)
        noise = np.random.default_rng(4).normal(0.0, 3.0, 4)
        assert noisy.samples.tobytes() == (tripled.samples + noise).tobytes()

    def test_gain_compounds(self):
        sig = SampledSignal(np.array([2.0, -2.0, 2.0, -2.0]), 48000.0)
        once = normalize_power(sig)
        tripled = replace(once, samples=once.samples * 3.0)  # the gain stays 0.5
        twice = normalize_power(tripled)
        assert twice.gain == pytest.approx(0.5 / 3.0, rel=1e-15)


class TestWaveformDump:
    def test_csv_layout_and_sidecar(self, tmp_path):
        import csv
        import json

        cfg = SchemeConfig("qpsk", n_symbols=8, seed=2)
        sig = modulate(cfg)
        path = tmp_path / "wave.csv"
        write_waveform(sig, path, fmt="csv", scheme="qpsk", seed=2)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["index", "i", "q"]
        assert len(rows) == 1 + len(sig)
        assert float(rows[1][1]) == pytest.approx(sig.samples[0], abs=1e-6)
        sidecar = json.loads((tmp_path / "wave.csv.json").read_text())
        assert sidecar["sample_rate"] == sig.sample_rate
        assert sidecar["scheme"] == "qpsk" and sidecar["seed"] == 2

    def test_f32_round_trip(self, tmp_path):
        cfg = SchemeConfig("qam16", n_symbols=16, seed=3)
        sig = modulate(cfg)
        path = tmp_path / "wave.f32"
        write_waveform(sig, path, fmt="f32")
        back = read_waveform_f32(path)
        assert back.dtype == np.float64
        assert np.array_equal(back, sig.samples.astype(np.float32))

    def test_f32_dump_reads_back_into_a_signal(self, tmp_path):
        sig = modulate(SchemeConfig("qpsk", n_symbols=16, seed=3))
        path = tmp_path / "wave.f32"
        write_waveform(sig, path, fmt="f32")
        back = SampledSignal(read_waveform_f32(path), sig.sample_rate)
        assert back.power == pytest.approx(sig.power, rel=1e-6)

    def test_f32_nonzero_quadrature_slot_raises(self, tmp_path):
        path = tmp_path / "wave.f32"
        np.array([0.5, 0.0, 0.25, 1e-30], dtype="<f4").tofile(path)
        with pytest.raises(SignalError, match="nonzero quadrature slot"):
            read_waveform_f32(path)

    @pytest.mark.parametrize("values", [SPECIAL, SPECIAL_F32], ids=["f64", "f32"])
    def test_table_bytes_equal_the_cell_writer(self, tmp_path, values):
        with open(tmp_path / "cell.csv", "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["index", "value", "negated"])
            for k, v in enumerate(values):
                writer.writerow([k, f"{v:.10g}", f"{-v:.10g}"])
        table = np.column_stack((np.arange(values.size), values, -values))
        write_table(tmp_path / "row.csv", b"index,value,negated", table)
        assert (tmp_path / "row.csv").read_bytes() == (tmp_path / "cell.csv").read_bytes()

    @pytest.mark.parametrize(
        "samples",
        [
            modulate(SchemeConfig("qam16", n_symbols=40, seed=3)).samples,
            WRITABLE,
            SPECIAL_F32.astype(float),
        ],
        ids=["qam16", "f64", "f32"],
    )
    def test_csv_bytes_equal_the_cell_writer(self, tmp_path, samples):
        sig = SampledSignal(samples, 48000.0)
        write_waveform(sig, tmp_path / "row.csv", fmt="csv")
        oracle_waveform_csv(sig, tmp_path / "cell.csv")
        assert (tmp_path / "row.csv").read_bytes() == (tmp_path / "cell.csv").read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "f32"])
    @pytest.mark.parametrize("sample", [1e300, 3.5e38])
    def test_finite_sample_beyond_float32_raises(self, tmp_path, fmt, sample):
        samples = np.array([0.5, sample, np.inf, np.nan])
        with pytest.raises(SignalError, match="sample 1 is beyond the float32 range"):
            write_waveform(SampledSignal(samples, 48000.0), tmp_path / "x", fmt=fmt)
        assert not (tmp_path / "x").exists()

    def test_unknown_format(self, tmp_path):
        sig = SampledSignal(np.ones(4), 48000.0)
        with pytest.raises(SignalError):
            write_waveform(sig, tmp_path / "x.bin", fmt="wav")


def oracle_waveform_csv(signal, path):
    """The cell-at-a-time CSV dump: an f-string per value through csv.writer."""
    z = np.asarray(signal.samples)
    i, q = np.real(z).astype(np.float32), np.imag(z).astype(np.float32)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["index", "i", "q"])
        for k in range(z.size):
            writer.writerow([k, f"{i[k]:.8g}", f"{q[k]:.8g}"])


def _per_label_row(cfg, expr, label):
    """Oracle: the formula evaluated with every symbol fixed to one label."""
    labels = np.full(cfg.n_symbols, label, dtype=np.int64)
    _, ctx, _ = formula_context(cfg, labels)
    return evaluate(expr, ctx, np.arange(cfg.n_samples) / cfg.sample_rate).samples


def assert_bank_matches_per_label(formula, base_scheme="qam16"):
    cfg = SchemeConfig(
        "formula:oracle", formula_text=formula, n_symbols=6, base_scheme=base_scheme
    )
    bank = candidate_bank(cfg)
    order = 1 << cfg.bits_per_symbol
    assert bank.shape == (order, cfg.n_samples), formula
    expr = parse_formula(formula)
    for label in range(order):
        assert np.array_equal(bank[label], _per_label_row(cfg, expr, label)), (formula, label)


def _bundled_formulas():
    return [
        entry.formula
        for path in (bundled_corpus_path(), bundled_generated_path())
        for entry in load_corpus(path)
    ]


class TestFormulaBank:
    """The one-pass bank against per-label evaluation, bit for bit."""

    @pytest.mark.parametrize("formula", _bundled_formulas())
    def test_bundled_formulas(self, formula):
        assert_bank_matches_per_label(formula)

    @pytest.mark.parametrize("base", ["bpsk", "qpsk", "qam64"])
    def test_other_base_schemes(self, base):
        for formula in _bundled_formulas()[-3:]:  # the m1-m3 fixtures
            assert_bank_matches_per_label(formula, base)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_grammar_sampled_formulas(self, seed):
        batch = generate_batch(4, replace(load_grammar(temperature=0.8), seed=seed))
        for item in batch.items:
            if item.classification == CLASS_VALID:
                assert_bank_matches_per_label(item.formula)

    @pytest.mark.parametrize("formula", [
        "A_c * cos(2*pi*f_c*t + k_f * integral(m(t), t) + phi_c)",
        "A_c * cos(2*pi*f_c*t + k_f * integral(m(t), t) + pi * d(t))",
    ])
    def test_integrating_the_message_keeps_the_bank(self, formula):
        # only an integrated label stream gives the symbols memory; m(t) does not
        assert reads(parse_formula(formula))[1] == {"m(t)"}
        assert_bank_matches_per_label(formula, "bpsk")

    def test_only_the_streams_a_formula_reads_are_bound(self):
        for labels in (np.arange(6), np.arange(16)[:, None]):
            cfg = SchemeConfig(
                "formula:i", formula_text="I(t)*cos(2*pi*f_c*t)", n_symbols=6, base_scheme="qam16"
            )
            _, ctx, _ = formula_context(cfg, labels)
            assert set(ctx.signals) == {"I(t)"}
        # a reference row's streams come from its own labels: fsk reads only
        # f(t), so it needs no constellation, and an analog row binds no label
        _, ctx, _ = formula_context(SchemeConfig("fsk", n_symbols=6), np.arange(6) % 2)
        assert set(ctx.signals) == {"f(t)"}
        _, ctx, _ = formula_context(SchemeConfig("fm", n_symbols=6), None)
        assert set(ctx.signals) == {"m(t)"}

    def test_every_name_in_the_namespace_is_bound(self):
        # validation accepts exactly the names that synthesis binds
        bare = sorted(name.removesuffix("(t)") for name in NAMES if name.endswith("(t)"))
        formula = " + ".join(sorted(NAMES) + bare)
        assert validate(formula).valid
        expr = parse_formula(formula)
        assert reads(expr)[0] == NAMES
        cfg = SchemeConfig("formula:all", formula_text=formula, n_symbols=6, base_scheme="qam16")
        _, ctx, _ = formula_context(cfg, np.arange(6))
        assert {"t", "pi"} | set(ctx.constants) | set(ctx.signals) == NAMES
        assert modulate(cfg).samples.shape == (cfg.n_samples,)
        assert_bank_matches_per_label(formula)


def assert_basis_sound(formula, base_scheme="qam16"):
    """basis_terms gives the two-walk oracle's terms, and whenever it splits
    the formula, every bank row is a + sum_j v_j*c_j of its basis."""
    cfg = SchemeConfig(
        "formula:oracle", formula_text=formula, n_symbols=6, base_scheme=base_scheme
    )
    terms = basis_terms(cfg.formula)
    assert terms == oracle_basis_terms(cfg.formula), formula
    basis = candidate_basis(cfg)
    assert (basis is not None) <= (terms is not None), formula
    if basis is None:
        return
    parts, weights, _ = basis
    assert weights.shape == (1 << cfg.bits_per_symbol, len(parts)), formula
    model = weights @ np.array(parts)
    bank = candidate_bank(cfg)
    scale = max(1.0, float(np.abs(bank).max()))
    assert np.allclose(bank, model, rtol=1e-9, atol=1e-12 * scale), formula


class TestFormulaBasis:
    """The separable pass and the basis it licenses, against the bank."""

    CARRIER = "cos(2*pi*f_c*t)"

    @pytest.mark.parametrize("formula", [
        "I*Q", "I^2", "cos(I)", "1/I", "sum(I, i, 1, n)", "integral(I, t)",
        "2^d", "(I + 1)*(Q + 1)", "f_c/(f(t) + 1)", "-(I*Q)",
    ])
    def test_never_affine(self, formula):
        # not affine in the streams alone: a feature, or the bank
        assert not stream_affine(parse_formula(formula))

    @pytest.mark.parametrize("formula", [
        "I/2", f"-(I)*{CARRIER}", f"(I+1)*{CARRIER}", f"A*{CARRIER}",
        f"d*{CARRIER} - Q(t)/f_c + f(t)", "(I - Q)*(A + m)/2",
        "sum(I, I, 1, n)", f"{CARRIER}^2 + integral(m(t), t)*I",
    ])
    def test_affine(self, formula):
        # every column is a label stream: no feature is evaluated
        assert stream_affine(parse_formula(formula))

    @pytest.mark.parametrize("formula, terms", [
        ("A_c*cos(2*pi*f_c*t + (pi/2)*d(t))", [
            ("A_c", "cos(2 * pi * f_c * t)", "cos(pi / 2 * d(t))"),
            ("A_c * -1", "sin(2 * pi * f_c * t)", "sin(pi / 2 * d(t))"),
        ]),
        ("sin(2*pi*f_c*t - pi*d + phi)", [
            ("1", "sin(2 * pi * f_c * t + phi)", "cos(-(pi * d))"),
            ("1", "cos(2 * pi * f_c * t + phi)", "sin(-(pi * d))"),
        ]),
        ("A*cos(2*pi*f_c*t + k_f*integral(m(t), t) + pi*d(t)^2/n)", [
            ("A", "cos(2 * pi * f_c * t + k_f * integral(m(t), t))", "cos(pi * d(t)^2 / n)"),
            ("A * -1", "sin(2 * pi * f_c * t + k_f * integral(m(t), t))", "sin(pi * d(t)^2 / n)"),
        ]),
        # a maximal stream-only subtree is one feature; an affine one is split
        (f"I(t)*Q(t)*{CARRIER} + (I - Q)/2*{CARRIER}", [
            ("1", "cos(2 * pi * f_c * t)", "I(t) * Q(t)"),
            ("1 / 2", "cos(2 * pi * f_c * t)", "I(t)"),
            ("-1 * (1 / 2)", "cos(2 * pi * f_c * t)", "Q(t)"),
        ]),
        (f"Q/(d + 1)*{CARRIER}", [("1", "cos(2 * pi * f_c * t)", "Q / (d + 1)")]),
        ("I*Q", [("1", None, "I * Q")]),
        ("(I - Q)*(A + m)/2", [
            ("(A + m) * (1 / 2)", None, "I(t)"),
            ("-1 * (A + m) * (1 / 2)", None, "Q(t)"),
        ]),
        # a repeated feature is one column
        ("cos(2*pi*f_c*t + pi*d) + sin(2*pi*f_m*t + pi*d)", [
            ("1", "cos(2 * pi * f_c * t)", "cos(pi * d)"),
            ("-1", "sin(2 * pi * f_c * t)", "sin(pi * d)"),
            ("1", "sin(2 * pi * f_m * t)", "cos(pi * d)"),
            ("1", "cos(2 * pi * f_m * t)", "sin(pi * d)"),
        ]),
    ])
    def test_separable(self, formula, terms):
        text = [
            tuple(None if tree is None else to_text(tree) for tree in term)
            for term in basis_terms(parse_formula(formula))
        ]
        assert text == terms
        assert_basis_sound(formula)

    def test_a_stream_and_its_bare_name_are_one_column(self):
        # I and I(t) resolve to one stream: one column, one weight row
        formula = f"I*{self.CARRIER} + I(t)*sin(2*pi*f_c*t) - Q/2"
        columns = [column for *_, column in basis_terms(parse_formula(formula))]
        assert columns == [Symbol("I(t)"), Symbol("I(t)"), Symbol("Q(t)")]
        cfg = SchemeConfig("formula:bare", formula_text=formula, n_symbols=4)
        parts, weights, _ = candidate_basis(cfg)
        points = constellation("qam16")
        assert len(parts) == 3
        assert np.array_equal(weights, np.column_stack([points.real, points.real, -points.imag / 2]))
        assert_basis_sound(formula)

    @pytest.mark.parametrize("formula", [
        "A_c*cos(2*pi*f(t)*t + phi)", "A*cos(2*pi*(f_c + d)*t)", f"{CARRIER}^I",
        f"I*{CARRIER}*Q", f"sum(I*cos(2*pi*i*f_c*t), i, 1, 2)", f"{CARRIER}/I",
        f"integral(d, t)*{CARRIER}", f"cos(2*pi*f_c*t + I*{CARRIER})",
    ])
    def test_takes_the_bank(self, formula):
        assert basis_terms(parse_formula(formula)) is None

    @pytest.mark.parametrize("formula", _bundled_formulas())
    @pytest.mark.parametrize("base", ["qpsk", "qam16", "qam256"])
    def test_bundled_formulas(self, formula, base):
        assert_basis_sound(formula, base)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_grammar_sampled_formulas(self, seed):
        batch = generate_batch(4, replace(load_grammar(temperature=0.8), seed=seed))
        for item in batch.items:
            if item.classification == CLASS_VALID:
                assert_basis_sound(item.formula)

    @settings(max_examples=200)
    @given(tree=FORMULA_TREES)
    def test_one_pass_gives_the_two_walks_terms(self, tree):
        # None exactly when the oracle is None, else its terms in its order
        assert basis_terms(tree) == oracle_basis_terms(tree)

    @pytest.mark.parametrize("temperature", [0.5, 0.8, 1.2])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_sampled_trees_give_the_two_walks_terms(self, temperature, seed):
        # every sampled formula that parses, valid or not
        grammar = replace(load_grammar(temperature=temperature), seed=seed)
        for item in generate_batch(8, grammar).items:
            if item.report.expr is not None:
                assert basis_terms(item.report.expr) == oracle_basis_terms(item.report.expr)

    @pytest.mark.parametrize("temperature", [0.5, 0.8, 1.2])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_split_candidates_match_the_bank(self, temperature, seed):
        grammar = replace(load_grammar(temperature=temperature), seed=seed)
        for item in generate_batch(4, grammar).items:
            if item.classification == CLASS_VALID:
                assert_basis_sound(item.formula, "qpsk")

    def test_stream_free_formula_has_one_row(self):
        # one part, the samples, which every label weighs by 1
        cfg = SchemeConfig("formula:tone", formula_text=f"A*{self.CARRIER}", n_symbols=4)
        parts, weights, _ = candidate_basis(cfg)
        assert len(parts) == 1 and np.array_equal(weights, np.ones((16, 1)))
        assert np.array_equal(parts[0], modulate(cfg).samples)

    @pytest.mark.parametrize("scheme", ALPHABETS)
    def test_alphabet_rows_read_the_stored_carrier(self, scheme):
        # the parts are the carrier pair modulate kept: no full-length copy,
        # and the amplitude and the sign of sin are in the weights
        cfg = SchemeConfig(scheme, n_symbols=40, amplitude=0.5)
        modulate(cfg)
        parts, weights, gram = candidate_basis(cfg)
        cos, sin = stored_carrier(cfg)
        assert len(parts) == 2 and parts[0] is cos and parts[1] is sin
        points = constellation(scheme)
        assert np.array_equal(weights, 0.5 * np.column_stack([points.real, -points.imag]))
        assert candidate_basis(cfg)[2] is gram  # kept for the next row

    def test_non_finite_basis_is_none(self):
        # t^(-1) is inf at t = 0 in every candidate, so the basis is not used
        text = f"I(t)*{self.CARRIER} + t^(-1)"
        cfg = SchemeConfig("formula:pole", formula_text=text, n_symbols=4)
        assert basis_terms(cfg.formula) is not None
        assert candidate_basis(cfg) is None

    def test_non_finite_feature_is_none(self):
        # I^(-1) is inf at I = 0, in the feature alone
        text = f"I(t)^(-1)*{self.CARRIER}"
        cfg = SchemeConfig("formula:pole", formula_text=text, n_symbols=4, base_scheme="ook")
        assert basis_terms(cfg.formula) is not None
        assert candidate_basis(cfg) is None
