import csv
import json
import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import hilbert as scipy_hilbert
from scipy.signal import welch as scipy_welch

import modwave.metrics
import modwave.synth

from modwave.channel import ChannelConfig, Tap, add_awgn
from modwave.cli import _points_csv, main
from modwave.config import load_config
from modwave.dsl import (
    CLASS_VALID,
    bundled_corpus_path,
    bundled_generated_path,
    load_corpus,
)
from modwave.errors import DemodulationError, SignalError, ZeroPowerError
from modwave.genlab import generate_batch, load_grammar
from modwave.metrics import (
    MetricsParams,
    PsdEstimate,
    Spectrogram,
    ber,
    compare,
    correlation_demodulate,
    demodulate,
    extract_constellation,
    occupied_bandwidth,
    run_scheme,
    seed_row,
    spectral_efficiency_measured,
    spectral_efficiency_theoretical,
    spectrogram,
    welch_psd,
)
from modwave.synth import (
    SCHEMES,
    SampledSignal,
    SchemeConfig,
    bits_to_labels,
    candidate_bank,
    candidate_basis,
    constellation,
    demap_symbols,
    gen_bits,
    map_symbols,
    modulate,
    normalize_power,
)

from conftest import SPECIAL, SPECIAL_F32, binomial_3sigma, qfunc

FS = 48000.0


def tone(freq, n, fs=FS, amp=1.0):
    t = np.arange(n) / fs
    return SampledSignal(amp * np.cos(2 * np.pi * freq * t), fs)


class TestWelch:
    def test_parseval_on_white_noise(self, rng):
        x = SampledSignal(rng.normal(0, 1, 1_000_000), FS)
        unit = normalize_power(x)
        psd = welch_psd(unit)
        assert psd.total_power() == pytest.approx(1.0, rel=0.02)

    def test_parseval_against_direct_periodogram(self, rng):
        # oracle: single full-length periodogram, no segmentation
        x = rng.normal(0, 1, 65536)
        sig = SampledSignal(x, FS)
        direct = np.sum(np.abs(np.fft.fft(x)) ** 2) / x.size**2
        assert np.mean(x**2) == pytest.approx(direct, rel=1e-9)
        psd = welch_psd(sig, segment_length=1024)
        assert psd.total_power() == pytest.approx(direct, rel=0.02)

    def test_matches_scipy_shape(self, rng):
        x = rng.normal(0, 1, 100_000) + np.sin(2 * np.pi * 5000 * np.arange(100_000) / FS)
        sig = SampledSignal(x, FS)
        mine = welch_psd(sig, segment_length=512, overlap_fraction=0.5, window="hann")
        freqs, ref = scipy_welch(
            x, fs=FS, nperseg=512, noverlap=256, window="hann", detrend=False
        )
        assert np.allclose(mine.frequencies, freqs)
        similarity = np.dot(mine.density, ref) / (
            np.linalg.norm(mine.density) * np.linalg.norm(ref)
        )
        assert similarity >= 0.999

    def test_sinusoid_peak_location(self):
        # bin-centered tone: 1500 Hz is bin 8 at segment 256
        sig = tone(1500.0, 100_000)
        psd = welch_psd(sig)
        assert psd.frequencies[np.argmax(psd.density)] == pytest.approx(1500.0)

    def test_two_equal_tones(self):
        t = np.arange(200_000) / FS
        x = np.cos(2 * np.pi * 3000 * t) + np.cos(2 * np.pi * 9000 * t)
        psd = welch_psd(SampledSignal(x, FS), segment_length=1024)
        # direct DFT oracle: the two peaks carry the same power
        peak_a = psd.density[np.argmin(np.abs(psd.frequencies - 3000))]
        peak_b = psd.density[np.argmin(np.abs(psd.frequencies - 9000))]
        assert peak_a == pytest.approx(peak_b, rel=0.05)

    def test_tone_power_captured(self):
        sig = tone(6000.0, 300_000, amp=np.sqrt(2.0))  # unit power
        psd = welch_psd(sig)
        assert psd.total_power() == pytest.approx(1.0, rel=0.02)

    def test_segment_too_long(self):
        with pytest.raises(SignalError):
            welch_psd(tone(1000.0, 128), segment_length=256)

    def test_density_nonnegative(self, rng):
        sig = SampledSignal(rng.normal(0, 1, 10_000), FS)
        assert np.all(welch_psd(sig).density >= 0)


class TestOccupiedBandwidth:
    def brick(self, f1, f2, nbins=1024, fs=FS):
        freqs = np.linspace(0, fs / 2, nbins)
        density = np.where((freqs >= f1) & (freqs <= f2), 1.0, 0.0)
        return PsdEstimate(freqs, density, nbins, 0.5, "hann", fs)

    def test_brick_wall_any_fraction(self):
        psd = self.brick(4000.0, 10000.0)
        width = 10000.0 - 4000.0
        for fraction in (0.5, 0.9, 0.99):
            got = occupied_bandwidth(psd, fraction)
            # fraction trims (1-f)/2 per tail of the flat band
            assert got == pytest.approx(width * fraction, abs=3 * psd.resolution)

    def test_single_tone_hits_resolution_limit(self):
        sig = tone(6000.0, 200_000)
        psd = welch_psd(sig, segment_length=256)
        assert occupied_bandwidth(psd, 0.99) <= 3 * psd.resolution

    def test_rect_pulse_bpsk_against_analytic_oracle(self):
        # oracle: exact expected spectrum of the sampled waveform
        # (Dirichlet-kernel pulse spectrum on both carrier images),
        # integrated numerically; fully independent of the estimator.
        rs, fc, sps = 1000.0, 12000.0, 48
        cfg = SchemeConfig(
            "bpsk", carrier_freq=fc, symbol_rate=rs, n_symbols=20_000, seed=1
        )
        sig = modulate(cfg)
        measured = occupied_bandwidth(welch_psd(sig, segment_length=4096), 0.99)

        fs = cfg.sample_rate
        f = np.linspace(0, fs / 2, 1_500_001)

        def pulse_power(nu):
            num = np.sin(np.pi * nu * sps / fs) ** 2
            den = np.sin(np.pi * nu / fs) ** 2
            return np.where(den < 1e-18, float(sps * sps), num / np.maximum(den, 1e-18))

        spectrum = pulse_power(f - fc) + pulse_power(f + fc)
        cum = np.cumsum(spectrum)
        cum /= cum[-1]
        lo = f[np.searchsorted(cum, 0.005, "right")]
        hi = f[np.searchsorted(cum, 0.995, "left")]
        oracle = hi - lo
        assert measured == pytest.approx(oracle, rel=0.10)

    def test_degenerate_psd(self):
        psd = PsdEstimate(np.linspace(0, FS / 2, 64), np.zeros(64), 64, 0.5, "hann", FS)
        with pytest.raises(SignalError):
            occupied_bandwidth(psd)

    def test_fraction_bounds(self):
        psd = self.brick(1000.0, 2000.0)
        with pytest.raises(SignalError):
            occupied_bandwidth(psd, 1.0)


class TestSpectrogram:
    def test_stationary_tone_ridge(self):
        sig = tone(6000.0, 100_000)
        spec = spectrogram(sig, fft_length=512, hop=256)
        ridge = spec.power.argmax(axis=0)
        assert np.all(ridge == ridge[0])
        assert spec.frequencies[ridge[0]] == pytest.approx(6000.0, abs=FS / 512)

    def test_linear_chirp_ridge_increases(self):
        t = np.arange(300_000) / FS
        f0, f1 = 1000.0, 18000.0  # instantaneous frequency sweeps f0 -> f1
        sweep_rate = (f1 - f0) / t[-1]
        x = np.cos(2 * np.pi * (f0 * t + 0.5 * sweep_rate * t**2))
        spec = spectrogram(SampledSignal(x, FS), fft_length=1024, hop=2048)
        ridge = spec.power.argmax(axis=0).astype(int)
        assert np.all(np.diff(ridge) >= 0) and ridge[-1] > ridge[0]

    def test_time_average_matches_welch_shape(self, rng):
        x = rng.normal(0, 1, 200_000) + np.sin(2 * np.pi * 5000 * np.arange(200_000) / FS)
        sig = SampledSignal(x, FS)
        psd = welch_psd(sig, segment_length=512, overlap_fraction=0.5)
        spec = spectrogram(sig, fft_length=512, hop=256)
        averaged = spec.power.mean(axis=1)
        similarity = np.dot(averaged, psd.density) / (
            np.linalg.norm(averaged) * np.linalg.norm(psd.density)
        )
        assert similarity >= 0.99

    def test_parameter_bounds(self):
        with pytest.raises(SignalError):
            spectrogram(tone(1000.0, 100), fft_length=256)
        with pytest.raises(SignalError):
            spectrogram(tone(1000.0, 1000), fft_length=256, hop=0)

    def test_complex_samples_raise(self):
        # a one-sided axis would fold this -6 kHz tone onto +6 kHz
        t = np.arange(4096) / FS
        with pytest.raises(SignalError):
            spectrogram(SampledSignal(np.exp(-2j * np.pi * 6000.0 * t), FS), fft_length=512)


class TestAnalytic:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 255, 256, 480_000])
    def test_bits_equal_scipy_hilbert(self, rng, n):
        x = rng.normal(size=n)
        assert np.array_equal(modwave.metrics._analytic(x), scipy_hilbert(x))


def loop_welch_density(x, segment_length, overlap_fraction, window, fs=FS):
    """Welch density with one FFT per frame, accumulated frame by frame."""
    taps = modwave.metrics._WINDOWS[window](segment_length)
    compensation = float(np.sum(taps**2))
    hop = max(1, int(round(segment_length * (1.0 - overlap_fraction))))
    n_frames = 1 + (x.size - segment_length) // hop
    accum = np.zeros(segment_length // 2 + 1)
    for k in range(n_frames):
        seg = x[k * hop : k * hop + segment_length] * taps
        accum += np.abs(np.fft.rfft(seg)) ** 2
    density = accum / (n_frames * fs * compensation)
    if segment_length % 2 == 0:
        density[1:-1] *= 2.0
    else:
        density[1:] *= 2.0
    return density


def loop_spectrogram_power(x, fft_length, hop):
    """Spectrogram power with one FFT per frame, written column by column."""
    taps = np.hanning(fft_length)
    n_frames = 1 + (x.size - fft_length) // hop
    power = np.empty((fft_length // 2 + 1, n_frames))
    for k in range(n_frames):
        seg = x[k * hop : k * hop + fft_length] * taps
        power[:, k] = np.abs(np.fft.rfft(seg)) ** 2
    return power


def every_other_sample(rng, n):
    """n samples as a view with a stride of two elements, so the frames
    are views of a non-contiguous array."""
    return rng.normal(size=2 * n)[::2]


class TestFraming:
    """Welch and the spectrogram transform blocks of frames at once; the
    per-frame loops above are the reference, bit for bit."""

    @pytest.mark.parametrize("block_samples", [modwave.metrics._BLOCK_SAMPLES, 1000])
    @pytest.mark.parametrize("overlap", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("window", ["hann", "hamming", "blackman", "boxcar"])
    @pytest.mark.parametrize("length", [256, 255])
    @pytest.mark.parametrize("strided", [False, True])
    def test_welch_equals_frame_loop(
        self, monkeypatch, strided, length, window, overlap, block_samples
    ):
        monkeypatch.setattr(modwave.metrics, "_BLOCK_SAMPLES", block_samples)
        rng = np.random.default_rng(length)
        x = rng.normal(size=10_007)
        if strided:
            x = every_other_sample(rng, x.size)
        psd = welch_psd(SampledSignal(x, FS), length, overlap, window)
        assert np.array_equal(psd.density, loop_welch_density(x, length, overlap, window))

    @pytest.mark.parametrize("block_samples", [modwave.metrics._BLOCK_SAMPLES, 1000])
    @pytest.mark.parametrize("overlap", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("length", [256, 255])
    def test_spectrogram_equals_frame_loop(
        self, monkeypatch, length, overlap, block_samples
    ):
        monkeypatch.setattr(modwave.metrics, "_BLOCK_SAMPLES", block_samples)
        x = np.random.default_rng(length).normal(size=10_007)
        hop = max(1, int(round(length * (1.0 - overlap))))
        spec = spectrogram(SampledSignal(x, FS), fft_length=length, hop=hop)
        assert spec.power.shape == (length // 2 + 1, 1 + (x.size - length) // hop)
        assert np.array_equal(spec.power, loop_spectrogram_power(x, length, hop))

    @pytest.mark.parametrize("strided", [False, True])
    def test_several_blocks_at_default_size(self, strided):
        # about 7800 frames: eight blocks, and past the 1024 frames where a
        # one-step sum over a block starts to reorder the additions
        rng = np.random.default_rng(3)
        x = rng.normal(size=1_000_003)
        if strided:
            x = every_other_sample(rng, x.size)
        psd = welch_psd(SampledSignal(x, FS), 256, 0.5, "hann")
        assert np.array_equal(psd.density, loop_welch_density(x, 256, 0.5, "hann"))
        spec = spectrogram(SampledSignal(x, FS), fft_length=256, hop=128)
        assert np.array_equal(spec.power, loop_spectrogram_power(x, 256, 128))

    @pytest.mark.parametrize("n", [3, 47, 48, 49, 480])
    def test_symbol_frames_are_whole_intervals(self, n):
        x = np.arange(n, dtype=float)
        frames = modwave.metrics._frames(x, 48, 48)
        assert np.array_equal(frames, x[: n // 48 * 48].reshape(n // 48, 48))

    def test_working_set_is_bounded(self):
        x = SampledSignal(np.random.default_rng(8).normal(size=4_800_000), FS)
        budget = 16 * 2**20
        tracemalloc.start()
        try:
            for length in (256, 4096):
                tracemalloc.reset_peak()
                welch_psd(x, segment_length=length)
                assert tracemalloc.get_traced_memory()[1] < budget, length
            tracemalloc.reset_peak()
            spec = spectrogram(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < spec.power.nbytes + budget


class TestConstellation:
    def test_noiseless_quadrature_qpsk_clusters(self):
        # quadrature-modulated QPSK alphabet recovers (+-1 +-j)/sqrt(2)
        from modwave.synth import _quadrature_passband

        cfg = SchemeConfig("qam16", n_symbols=400, seed=5)
        bits = gen_bits(800, seed=5)
        symbols = map_symbols(bits, "qpsk")
        sig = SampledSignal(
            _quadrature_passband(cfg, symbols), cfg.sample_rate,
            symbol_rate=cfg.symbol_rate,
        )
        points = extract_constellation(sig, cfg) / cfg.amplitude
        assert np.max(np.abs(points - symbols)) <= 1e-6
        unique = np.unique(np.round(points, 6))
        assert unique.size == 4

    @pytest.mark.parametrize(
        "scheme", [name for name, s in SCHEMES.items() if s.alphabet is not None]
    )
    def test_noiseless_points_are_the_alphabet(self, scheme):
        # the point a row sends is the point constellation() returns
        cfg = SchemeConfig(scheme, n_symbols=40 * 2**SCHEMES[scheme].bits_per_symbol, seed=7)
        sig = modulate(cfg)
        sent = constellation(scheme)[bits_to_labels(sig.origin_bits, cfg.bits_per_symbol)]
        points = extract_constellation(sig, cfg) / cfg.amplitude
        assert np.unique(np.round(points, 6)).size == SCHEMES[scheme].alphabet.size
        assert np.max(np.abs(points - sent)) <= 1e-6

    def test_cluster_spread_scales_with_noise(self):
        cfg = SchemeConfig("qam16", n_symbols=20_000, seed=4)
        clean = normalize_power(modulate(cfg))
        ideal = extract_constellation(clean, cfg)
        spreads = []
        for snr in (20.0, 10.0):
            received = add_awgn(clean, snr, seed=9)
            points = extract_constellation(received, cfg)
            spreads.append(np.std(points - ideal))
        assert spreads[1] / spreads[0] == pytest.approx(math.sqrt(10.0), rel=0.10)

    def test_points_equal_mix_then_average(self):
        # at the default geometry the per-symbol mixer gives the full-length
        # mix-then-average points and the same decisions
        cfg = SchemeConfig("qam16", n_symbols=3000, seed=2)
        sig = add_awgn(modulate(cfg), 5.0, seed=3)
        t = np.arange(len(sig)) / sig.sample_rate
        mixed = 2.0 * sig.samples * np.exp(-2j * np.pi * cfg.carrier_freq * t)
        expected = mixed.reshape(-1, cfg.samples_per_symbol).mean(axis=1)
        points = extract_constellation(sig, cfg)
        assert np.max(np.abs(points - expected)) <= 1e-9
        assert np.array_equal(demap_symbols(points, "qam16"), demap_symbols(expected, "qam16"))

    def test_complex_samples_raise(self):
        # the leakage removal assumes a real passband
        cfg = SchemeConfig("qam16", n_symbols=100, seed=2)
        sig = modulate(cfg)
        with pytest.raises(SignalError):
            extract_constellation(replace(sig, samples=sig.samples + 0j), cfg)

    @pytest.mark.parametrize(
        "scheme", [name for name, s in SCHEMES.items() if s.alphabet is not None]
    )
    def test_noiseless_points_off_whole_cycles_are_the_alphabet(self, scheme):
        # 2745 Hz completes 2.2875 cycles per symbol, so the double-frequency
        # term does not average out and must be removed
        cfg = SchemeConfig(
            scheme, carrier_freq=2745.0, symbol_rate=1200.0, samples_per_symbol=10,
            n_symbols=2000, seed=2,
        )
        sig = modulate(cfg)
        sent = constellation(scheme)[bits_to_labels(sig.origin_bits, cfg.bits_per_symbol)]
        assert np.max(np.abs(extract_constellation(sig, cfg) - sent)) <= 1e-9


DIGITAL = [name for name, s in SCHEMES.items() if s.bits_per_symbol]


@st.composite
def geometries(draw):
    """Symbol rate, samples per symbol and a carrier that SchemeConfig accepts:
    f_c - 2 Rs above 0 Hz and f_c + 2 Rs below fs / 2."""
    symbol_rate = draw(st.floats(50.0, 20_000.0))
    sps = draw(st.integers(9, 64))
    room = sps / 2 - 4  # the carrier's range, in symbol rates
    carrier = symbol_rate * (2 + room * draw(st.floats(0.001, 0.999)))
    return {"symbol_rate": symbol_rate, "samples_per_symbol": sps, "carrier_freq": carrier}


class TestDemodulation:
    def test_noiseless_loopback_every_digital_scheme(self):
        for scheme in (name for name, s in SCHEMES.items() if s.bits_per_symbol):
            cfg = SchemeConfig(scheme, n_symbols=300, seed=3)
            sig = modulate(cfg)
            decided = demodulate(sig, cfg, reference=sig)
            assert ber(sig.origin_bits, decided) == 0.0, scheme

    def test_bpsk_matches_q_function(self):
        # Eb/N0 of 4 dB maps to waveform SNR via the processing gain sps/2
        cfg = SchemeConfig("bpsk", n_symbols=100_000, seed=7)
        ebn0_db = 4.0
        snr_db = ebn0_db - 10 * math.log10(cfg.samples_per_symbol / 2)
        clean = normalize_power(modulate(cfg))
        received = add_awgn(clean, snr_db, seed=99)
        measured = ber(clean.origin_bits, demodulate(received, cfg, reference=clean))
        theory = qfunc(math.sqrt(2 * 10 ** (ebn0_db / 10)))  # ~0.0125
        assert abs(measured - theory) <= binomial_3sigma(theory, 100_000)

    def test_correlation_receiver_agrees_with_dedicated(self):
        # same received samples, both receivers, low enough SNR for errors
        for scheme in ("bpsk", "qpsk"):
            cfg = SchemeConfig(scheme, n_symbols=20_000, seed=8)
            clean = normalize_power(modulate(cfg))
            received = add_awgn(clean, -9.0, seed=17)
            dedicated = demodulate(received, cfg, reference=clean)
            generic = correlation_demodulate(received, cfg, reference=clean)
            rate_a = ber(clean.origin_bits, dedicated)
            rate_b = ber(clean.origin_bits, generic)
            assert rate_a > 0
            assert abs(rate_a - rate_b) <= binomial_3sigma(rate_a, clean.origin_bits.size)

    def test_ook_threshold_without_reference_is_half_the_on_level(self):
        cfg = SchemeConfig("ook", n_symbols=20_000, seed=8)
        clean = modulate(cfg)
        received = add_awgn(clean, 0.0, seed=17)
        calibrated = ber(clean.origin_bits, demodulate(received, cfg, reference=clean))
        blind = ber(clean.origin_bits, demodulate(received, cfg))
        assert calibrated > 0
        assert abs(blind - calibrated) <= binomial_3sigma(calibrated, 20_000)

    @pytest.mark.parametrize("n_symbols", [2_000, 20_000])
    def test_ook_gain_threshold_is_the_reference_on_level(self, n_symbols):
        # the receiver's threshold is gain * on_level / 2: the on-level it
        # assumes equals the mean envelope of the reference's on symbols
        cfg = SchemeConfig("ook", n_symbols=n_symbols, seed=8)
        clean = normalize_power(modulate(cfg))
        sps = cfg.samples_per_symbol
        centers = np.arange(n_symbols) * sps + sps // 2
        envelope = np.abs(scipy_hilbert(clean.samples))[centers]
        measured = envelope[clean.origin_bits == 1].mean()
        on_level = cfg.amplitude * np.abs(SCHEMES["ook"].alphabet).max()
        assert clean.gain != 1.0
        assert clean.gain * on_level == pytest.approx(measured, rel=1e-6)

    @pytest.mark.parametrize("scheme", ["msk", "ook", "chirp"])
    def test_complex_samples_raise(self, scheme):
        # every receiver assumes a real passband; none decides on the real part
        cfg = SchemeConfig(scheme, n_symbols=100, seed=2)
        sig = modulate(cfg)
        with pytest.raises(SignalError, match="needs real samples"):
            demodulate(replace(sig, samples=sig.samples * (1 + 1j)), cfg, reference=sig)

    def test_rrc_pulse_has_no_receiver(self):
        configs = [SchemeConfig(s, n_symbols=500, pulse="rrc") for s in ("qam16", "qpsk")]
        rows = compare(configs, ChannelConfig(target_snr_db=None), master_seed=1)
        for row in rows:
            assert row.ber is None, row.scheme
            assert row.error.startswith("DemodulationError"), row.scheme

    def test_formula_with_memory_is_an_error_row(self):
        # integrating a label stream makes continuous-phase symbols, which
        # the per-symbol bank cannot decode (noiseless BER 0.378 otherwise)
        formulas = {
            "formula:cp": "A_c*cos(2*pi*f_c*t + k_f*integral(d(t) - 1.5, t))",
            "formula:cpbare": "A_c*cos(2*pi*f_c*t + k_f*integral(d - 1.5, t))",
            "formula:fm": "A_c * cos(2*pi*f_c*t + k_f * integral(m(t), t) + phi_c)",
        }
        configs = [
            SchemeConfig(name, formula_text=text, n_symbols=2_000)
            for name, text in formulas.items()
        ]
        rows = compare(configs, ChannelConfig(target_snr_db=None), master_seed=1)
        for row in rows[:2]:
            assert row.ber is None, row.scheme
            assert row.error.startswith("DemodulationError"), row.scheme
        assert rows[2].error is None and rows[2].ber is not None

    def test_receiver_failure_keeps_the_measured_figures(self):
        configs = [
            SchemeConfig(
                "formula:cp",
                formula_text="A_c*cos(2*pi*f_c*t + k_f*integral(d(t) - 1.5, t))",
                base_scheme="qam16",
                n_symbols=1_000,
            ),
            SchemeConfig("qpsk", n_symbols=1_000, pulse="rrc"),
        ]
        channel = ChannelConfig(target_snr_db=10.0)
        for row in compare(configs, channel, master_seed=1):
            assert row.error.startswith("DemodulationError: "), row.scheme
            assert row.ber is None and row.spectral_efficiency is None
            assert row.snr_db == pytest.approx(10.0, abs=0.3), row.scheme
            assert row.occupied_bandwidth_hz > 0, row.scheme
            assert row.seeds, row.scheme
        report = run_scheme(configs[1], channel).report  # recorded, not raised
        assert report.error == "DemodulationError: qpsk has no receiver for pulse 'rrc'"

    def test_analog_schemes_have_no_bits(self):
        cfg = SchemeConfig("am", n_symbols=50)
        sig = modulate(cfg)
        with pytest.raises(DemodulationError):
            demodulate(sig, cfg, reference=sig)

    @settings(max_examples=150)
    @given(st.sampled_from(DIGITAL), geometries(), st.integers(0, 2**16))
    def test_noiseless_loopback_on_any_geometry(self, scheme, geometry, seed):
        cfg = SchemeConfig(scheme, n_symbols=1000, seed=seed, **geometry)
        sig = modulate(cfg)
        assert ber(sig.origin_bits, demodulate(sig, cfg, reference=sig)) == 0.0

    # the full-rate discriminator's BERs at 0, 2 and 5 dB, 100k bits, bit
    # seed 23, noise seed 29: four full-length FFTs and a mixer per row
    FULL_RATE_DISCRIMINATOR = {
        "bfsk": (0.00039, 0.00001, 0.0),
        "msk": (0.01131, 0.00207, 0.00001),
        "gmsk": (0.07558, 0.04181, 0.01157),
    }

    @pytest.mark.parametrize("scheme", FULL_RATE_DISCRIMINATOR)
    def test_decimated_discriminator_is_no_worse(self, scheme):
        n_bits = 100_000
        cfg = SchemeConfig(scheme, n_symbols=n_bits, seed=23)
        clean = normalize_power(modulate(cfg))
        for snr_db, full_rate in zip((0.0, 2.0, 5.0), self.FULL_RATE_DISCRIMINATOR[scheme]):
            received = add_awgn(clean, snr_db, seed=29)
            rate = ber(clean.origin_bits, demodulate(received, cfg, reference=clean))
            allowance = binomial_3sigma(max(full_rate, 1e-5), n_bits)
            assert rate <= full_rate + allowance, (scheme, snr_db, rate)

    def test_ber_non_increasing_in_snr(self):
        # common noise seed across levels keeps the comparison tight
        target_bits = 100_000
        for scheme in (
            "ook", "bpsk", "qpsk", "bfsk", "fsk", "msk", "gmsk",
            "chirp", "qam16", "qam64", "qam128", "qam256",
        ):
            bps = SchemeConfig(scheme, n_symbols=4).bits_per_symbol
            cfg = SchemeConfig(scheme, n_symbols=target_bits // bps, seed=23)
            clean = normalize_power(modulate(cfg))
            rates = []
            for snr_db in (0.0, 5.0, 10.0, 15.0, 20.0):
                received = add_awgn(clean, snr_db, seed=29)
                rates.append(
                    ber(clean.origin_bits, demodulate(received, cfg, reference=clean))
                )
            for lower, higher in zip(rates[1:], rates):
                allowance = binomial_3sigma(max(higher, 1e-5), target_bits)
                assert lower <= higher + allowance, (scheme, rates)


def corpus_formulas():
    return {
        entry.id: entry.formula
        for path in (bundled_corpus_path(), bundled_generated_path())
        for entry in load_corpus(path)
    }


def uses_basis(cfg):
    return candidate_basis(cfg) is not None


def both_routes(cfg, snr_db, seed=5):
    """The correlation receiver's bits on its own route and on the bank route."""
    clean = normalize_power(modulate(cfg))
    received = add_awgn(clean, snr_db, seed=seed)
    chosen = correlation_demodulate(received, cfg, reference=clean)
    with mock.patch.object(modwave.metrics, "candidate_basis", lambda *bound: None):
        bank = correlation_demodulate(received, cfg, reference=clean)
    return chosen, bank


class TestBasisRoute:
    """Affine formulas are decided from their basis, with the bank's decisions."""

    @pytest.mark.parametrize("snr_db", [0.0, 10.0])
    @pytest.mark.parametrize("formula_id", list(corpus_formulas()))
    def test_corpus_decisions_equal_the_bank(self, formula_id, snr_db):
        text = corpus_formulas()[formula_id]
        cfg = SchemeConfig(f"formula:{formula_id}", formula_text=text, n_symbols=500, seed=2)
        chosen, bank = both_routes(cfg, snr_db)
        assert np.array_equal(chosen, bank)

    @pytest.mark.parametrize("snr_db", [0.0, 10.0])
    @pytest.mark.parametrize("base", ["qpsk", "qam16", "qam256"])
    @pytest.mark.parametrize("formula_id", ["m1", "m2", "m3"])
    def test_m1_to_m3_decisions_equal_the_bank(self, formula_id, base, snr_db):
        text = corpus_formulas()[formula_id]
        n_symbols = 300 if base == "qam256" else 500
        cfg = SchemeConfig(
            f"formula:{formula_id}", formula_text=text, n_symbols=n_symbols,
            base_scheme=base, seed=3,
        )
        assert uses_basis(cfg) == (formula_id != "m3")  # m3 divides by Q
        chosen, bank = both_routes(cfg, snr_db)
        assert np.array_equal(chosen, bank)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_grammar_sampled_decisions_equal_the_bank(self, seed):
        batch = generate_batch(4, replace(load_grammar(temperature=0.8), seed=seed))
        for item in batch.items:
            if item.classification != CLASS_VALID:
                continue
            cfg = SchemeConfig("formula:g", formula_text=item.formula, n_symbols=300, seed=4)
            for snr_db in (0.0, 10.0):
                try:
                    chosen, bank = both_routes(cfg, snr_db)
                except DemodulationError:  # integrates a label stream: no bank
                    assert not uses_basis(cfg), item.formula
                    continue
                assert np.array_equal(chosen, bank), item.formula

    def test_stream_free_formula_decides_label_zero(self):
        cfg = SchemeConfig("formula:tone", formula_text="A*cos(2*pi*f_c*t)", n_symbols=200)
        assert uses_basis(cfg)
        for bits in both_routes(cfg, 10.0):
            assert not bits.any()

    def test_non_finite_basis_takes_the_bank(self):
        text = "I(t)*cos(2*pi*f_c*t) - Q(t)*sin(2*pi*f_c*t) + t^(-1)"
        cfg = SchemeConfig("formula:pole", formula_text=text, n_symbols=200)
        assert not uses_basis(cfg)
        sig = modulate(cfg)
        assert sig.invalid_count == 1  # the sample at t = 0
        banks = []
        real_bank = modwave.metrics.candidate_bank
        with mock.patch.object(
            modwave.metrics, "candidate_bank",
            lambda *a: banks.append(1) or real_bank(*a),
        ):
            decided = correlation_demodulate(sig, cfg)
        assert banks == [1]
        assert ber(sig.origin_bits, decided) == 0.0

    def test_affine_formula_has_no_bank_size_limit(self):
        # m2 on qam256 at 20k symbols takes the basis; the product, which is
        # not affine, takes a 256 x 960k bank built a chunk of labels at a time
        channel = ChannelConfig(target_snr_db=2.0)
        m2 = SchemeConfig("formula:m2", base_scheme="qam256", n_symbols=20_000,
                          formula_text=corpus_formulas()["m2"])
        product = replace(m2, scheme="formula:iq", formula_text="I(t)*Q(t)*cos(2*pi*f_c*t)")
        rows = compare([m2, product], channel, master_seed=1)
        for row in rows:
            assert row.error is None and 0.0 < row.ber < 1.0, row


# formulas the affine pass sends to the bank: products of streams, a power,
# an integral of m(t), a guarded division and a basis with a pole at t = 0
BANK_FORMULAS = (
    "I(t)*Q(t)*cos(2*pi*f_c*t)",
    "A*cos(2*pi*f_c*t + pi*d(t)^2/n)",
    "A_c*cos(2*pi*f_c*t + k_f*integral(m(t), t) + pi*d(t))",
    "I(t)*cos(2*pi*f_c*t) - Q(t)*sin(2*pi*f_c*t) + (A*sin(2*pi*f_c*t)) / (Q(t)*pi*0)",
    "I(t)*cos(2*pi*f_c*t) + t^(-1)",
    "sum(I(t)*cos(2*pi*i*f_c*t), i, 1, 2) - Q(t)/(d(t) + 1)",
)


class TestBankChunks:
    """The correlation receiver builds its bank a chunk of labels at a time."""

    @pytest.mark.parametrize("base", ["qam16", "qam64"])
    @pytest.mark.parametrize("formula", BANK_FORMULAS)
    def test_chunked_decisions_equal_one_chunk(self, formula, base):
        cfg = SchemeConfig("formula:chunks", formula_text=formula, base_scheme=base,
                           n_symbols=150, seed=6)
        assert not uses_basis(cfg)
        clean = normalize_power(modulate(cfg))
        received = add_awgn(clean, 5.0, seed=7)
        whole = correlation_demodulate(received, cfg, reference=clean)
        for labels in (1, 3, 8):
            with mock.patch.object(modwave.metrics, "_BANK_SAMPLES", labels * cfg.n_samples):
                chunked = correlation_demodulate(received, cfg, reference=clean)
            assert np.array_equal(chunked, whole), (formula, labels)

    def test_reference_scheme_chunks(self):
        cfg = SchemeConfig("chirp", n_symbols=200, seed=6)
        clean = normalize_power(modulate(cfg))
        received = add_awgn(clean, 0.0, seed=7)
        whole = correlation_demodulate(received, cfg, reference=clean)
        with mock.patch.object(modwave.metrics, "_BANK_SAMPLES", 1):
            assert np.array_equal(correlation_demodulate(received, cfg, reference=clean), whole)

    @pytest.mark.parametrize("formula", BANK_FORMULAS)
    def test_bank_rows_for_labels_equal_the_full_bank(self, formula):
        cfg = SchemeConfig("formula:rows", formula_text=formula, base_scheme="qam16",
                           n_symbols=20)
        labels = np.array([5, 0, 15, 3, 3])
        assert np.array_equal(candidate_bank(cfg, labels), candidate_bank(cfg)[labels])

    @pytest.mark.parametrize("formula", [corpus_formulas()["m2"], BANK_FORMULAS[0]])
    def test_a_formula_row_parses_once(self, formula):
        cfg = SchemeConfig("formula:once", formula_text=formula, n_symbols=100)
        real_parse = modwave.synth.parse_formula
        with mock.patch.object(modwave.synth, "parse_formula", side_effect=real_parse) as parse:
            report = run_scheme(cfg, ChannelConfig(target_snr_db=10.0)).report
        assert report.error is None
        assert parse.call_count == 1


class TestBer:
    def test_identical(self):
        bits = gen_bits(1000, seed=1)
        assert ber(bits, bits) == 0.0

    def test_complement(self):
        bits = gen_bits(1000, seed=2)
        assert ber(bits, 1 - bits) == 1.0

    def test_three_flips_in_a_thousand(self):
        bits = gen_bits(1000, seed=3)
        flipped = bits.copy()
        flipped[[10, 500, 999]] ^= 1
        assert ber(bits, flipped) == pytest.approx(0.003)

    def test_length_mismatch(self):
        with pytest.raises(SignalError):
            ber(np.zeros(5, dtype=np.uint8), np.zeros(6, dtype=np.uint8))


class TestSpectralEfficiency:
    def test_log2_relation(self):
        assert spectral_efficiency_theoretical(256) == 8.0
        assert spectral_efficiency_theoretical(2) == 1.0
        assert spectral_efficiency_theoretical(16) == 4.0
        for k in range(1, 11):
            assert spectral_efficiency_theoretical(2**k) == float(k)

    def test_non_power_of_two(self):
        for bad in (3, 12, 100):
            with pytest.raises(SignalError):
                spectral_efficiency_theoretical(bad)

    def test_measured_ratio(self):
        assert spectral_efficiency_measured(8000.0, 1000.0) == 8.0
        with pytest.raises(SignalError):
            spectral_efficiency_measured(8000.0, 0.0)

    def test_measured_invariant_under_rate_doubling(self):
        # rect-pulse bandwidth scales with the symbol rate, so the ratio
        # holds; needs heavy oversampling because the 99 percent quantile
        # sits deep in the sinc-squared tails
        values = []
        for rs, sps in ((1000.0, 400), (2000.0, 200)):
            cfg = SchemeConfig(
                "qam16", carrier_freq=100_000.0, symbol_rate=rs,
                samples_per_symbol=sps, n_symbols=8_000, seed=5,
            )
            sig = modulate(cfg)
            obw = occupied_bandwidth(welch_psd(sig, segment_length=16_384), 0.99)
            values.append(
                spectral_efficiency_measured(cfg.bits_per_symbol * rs, obw)
            )
        assert values[1] == pytest.approx(values[0], rel=0.10)


class TestCompare:
    def test_rows_share_measured_snr(self):
        configs = [
            SchemeConfig(s, n_symbols=4_000) for s in ("bpsk", "qpsk", "qam16")
        ]
        rows = compare(configs, ChannelConfig(target_snr_db=12.0), master_seed=5)
        for row in rows:
            assert row.error is None
            assert row.snr_db == pytest.approx(12.0, abs=0.3), row.scheme

    def test_rerun_is_identical(self, tmp_path):
        from modwave.metrics import write_comparison_csv, write_comparison_json

        configs = [SchemeConfig(s, n_symbols=2_000) for s in ("bpsk", "qam16")]
        channel = ChannelConfig(target_snr_db=8.0)
        for name in ("one", "two"):
            rows = compare(configs, channel, master_seed=77)
            write_comparison_csv(rows, tmp_path / f"{name}.csv")
            write_comparison_json(rows, tmp_path / f"{name}.json")
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()
        assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()

    def test_failed_row_recorded_not_raised(self):
        good = SchemeConfig("bpsk", n_symbols=1_000)
        bad = SchemeConfig(
            "formula:broken", formula_text="x_q + 1", n_symbols=1_000
        )
        rows = compare([good, bad], ChannelConfig(target_snr_db=10.0), master_seed=3)
        assert rows[0].error is None
        assert rows[1].error is not None

    def test_zero_gain_channel_is_an_error_row(self):
        silent = ChannelConfig(target_snr_db=10.0, taps=(Tap(0, 0.0),))
        with pytest.raises(ZeroPowerError):
            run_scheme(SchemeConfig("bpsk", n_symbols=100), silent)
        rows = compare(
            [SchemeConfig(s, n_symbols=100) for s in ("bpsk", "qam16")], silent
        )
        assert [row.error.split(":")[0] for row in rows] == ["ZeroPowerError"] * 2

    def test_run_scheme_reports_guards_for_m3(self):
        m3 = (
            "I(t)*cos(2*pi*f_c*t) - Q(t)*sin(2*pi*f_c*t) + phi"
            " + ((A*sin(2*pi*f_c*t)) / (Q(t)*pi*0)) / Q"
        )
        cfg = SchemeConfig("formula:m3", formula_text=m3, n_symbols=1_000)
        artifacts = run_scheme(cfg, ChannelConfig(target_snr_db=15.0))
        assert artifacts.report.guard_count > 0
        assert artifacts.report.ber is not None

    def test_run_scheme_counts_zeroed_non_finite_samples(self):
        entries = load_corpus(bundled_generated_path()) + load_corpus(bundled_corpus_path())
        texts = {e.id: e.formula for e in entries}
        # (I(t))^0.5 is nan on every sample of a symbol with negative I
        texts["probe"] = "I(t)*cos(2*pi*f_c*t) - Q(t)*sin(2*pi*f_c*t) + (I(t))^0.5"
        expected = {"probe": 48_432, "m1": 0, "m2": 0, "m3": 0, "fm": 0}
        for name, count in expected.items():
            cfg = SchemeConfig(
                f"formula:{name}", formula_text=texts[name], base_scheme="qam16", n_symbols=2_000
            )
            report = run_scheme(cfg, ChannelConfig(target_snr_db=None)).report
            assert report.to_dict()["invalid_count"] == count, name
        labels = bits_to_labels(gen_bits(2_000 * 4, cfg.seed), 4)
        negative_i = np.count_nonzero(constellation("qam16")[labels].real < 0)
        assert negative_i * cfg.samples_per_symbol == 48_432

    @pytest.mark.parametrize(
        "formula, calls",
        [
            ("A_c*cos(2*pi*f_c*t + pi*d(t)) + m*A_c", 0),
            ("A_c * cos(2*pi*f_c*t + k_p * m(t) + pi*d(t))", 2),
        ],
    )
    def test_message_bound_only_when_read(self, monkeypatch, formula, calls):
        counted = []
        original = modwave.synth._message
        monkeypatch.setattr(
            modwave.synth, "_message", lambda *a: counted.append(1) or original(*a)
        )
        cfg = SchemeConfig("formula:x", formula_text=formula, n_symbols=200)
        assert run_scheme(cfg, ChannelConfig(target_snr_db=10.0)).report.ber is not None
        # m(t) for the waveform and for the candidate bank, or not at all
        assert len(counted) == calls

    def test_program_fault_is_raised_not_recorded(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(modwave.metrics, "run_scheme", broken)
        with pytest.raises(TypeError):
            compare(
                [SchemeConfig("bpsk", n_symbols=100), SchemeConfig("qpsk", n_symbols=100)],
                ChannelConfig(target_snr_db=10.0),
            )

    def test_formula_row_synthesizes_once(self, monkeypatch):
        calls = {"modulate": 0, "evaluate": 0}

        def counting(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        counting(modwave.metrics, "modulate")
        counting(modwave.synth, "evaluate")
        m2 = (
            "I(t)*cos(2*pi*f_c*t) - Q(t)*sin(2*pi*f_c*t) + (A*cos(2*pi*f_c*t))"
            " + (A*pi*d(t)*sin(2*pi*f_c*t))"
        )
        cfg = SchemeConfig("formula:m2", formula_text=m2, n_symbols=200)
        report = run_scheme(cfg, ChannelConfig(target_snr_db=10.0)).report
        assert report.ber is not None
        # one waveform, one candidate bank; the bank scale needs no resynthesis
        assert calls == {"modulate": 1, "evaluate": 2}


# The cell-at-a-time writers the artifact files were first written with:
# one f-string per value through csv.writer (or a plain write). They are
# the oracle for the row-at-a-time writers.


def oracle_psd_csv(psd, path):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["freq_hz", "power_density"])
        for f, p in zip(psd.frequencies, psd.density):
            writer.writerow([f"{f:.10g}", f"{p:.10g}"])


def oracle_spectrogram_csv(spectro, path):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["freq_hz"] + [f"{t:.10g}" for t in spectro.frame_times])
        for f, row in zip(spectro.frequencies, spectro.power):
            writer.writerow([f"{f:.10g}"] + [f"{v:.10g}" for v in row])


def oracle_points_csv(points, path):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write("i,q\n")
        for z in points:
            handle.write(f"{z.real:.10g},{z.imag:.10g}\n")


def complex_from(real, imag):
    points = np.empty(len(real), dtype=complex)
    points.real, points.imag = real, imag
    return points


def assert_same_bytes(write, oracle, artifact, tmp_path):
    write(artifact, tmp_path / "row.csv")
    oracle(artifact, tmp_path / "cell.csv")
    assert (tmp_path / "row.csv").read_bytes() == (tmp_path / "cell.csv").read_bytes()


class TestArtifactWriters:
    @pytest.mark.parametrize("values", [SPECIAL, SPECIAL_F32], ids=["f64", "f32"])
    def test_psd_bytes_equal_the_cell_writer(self, tmp_path, values):
        psd = PsdEstimate(values, values[::-1], 256, 0.5, "hann", FS)
        assert_same_bytes(PsdEstimate.write_csv, oracle_psd_csv, psd, tmp_path)

    @pytest.mark.parametrize(
        "frames", [SPECIAL[:1], SPECIAL, SPECIAL_F32], ids=["one-frame", "f64", "f32"]
    )
    def test_spectrogram_bytes_equal_the_cell_writer(self, tmp_path, frames):
        freqs = np.concatenate([SPECIAL, SPECIAL_F32.astype(float)])
        with np.errstate(all="ignore"):  # inf * 0 and 1e300 * 1e300 are meant
            power = np.outer(freqs, frames)
        spectro = Spectrogram(freqs, frames, power)
        write = Spectrogram.write_csv
        assert_same_bytes(write, oracle_spectrogram_csv, spectro, tmp_path)

    @pytest.mark.parametrize(
        "points",
        [
            np.array([0.5 - 1.25j]),
            complex_from(SPECIAL, SPECIAL[::-1]),
            complex_from(SPECIAL_F32, -SPECIAL_F32),
        ],
        ids=["one-symbol", "f64", "f32"],
    )
    def test_constellation_bytes_equal_the_cell_writer(self, tmp_path, points):
        assert_same_bytes(_points_csv, oracle_points_csv, points, tmp_path)

    def test_line_endings(self, tmp_path):
        psd = PsdEstimate(SPECIAL[:2], SPECIAL[:2], 256, 0.5, "hann", FS)
        psd.write_csv(tmp_path / "psd.csv")
        _points_csv(np.array([1 + 1j]), tmp_path / "points.csv")
        psd_bytes = b"freq_hz,power_density\r\n0,0\r\n-0,-0\r\n"
        assert (tmp_path / "psd.csv").read_bytes() == psd_bytes
        assert (tmp_path / "points.csv").read_bytes() == b"i,q\n1,1\n"

    @pytest.mark.parametrize("scheme", ["ook", "qpsk", "gmsk", "formula:m2"])
    def test_eval_artifacts_equal_the_cell_writer(self, tmp_path, scheme):
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps({
            "master_seed": 2024,
            "out_dir": str(tmp_path / "eval"),
            "scheme_defaults": {"n_symbols": 400},
            "channel": {"preset": "multipath"},
        }))
        assert main(["eval", "--config", str(config_path), "--scheme", scheme]) == 0
        config = load_config(config_path)
        cfg, channel = seed_row(config.scheme_config(scheme), config.channel, config.master_seed)
        artifacts = run_scheme(cfg, channel, config.metrics, collect=True)
        stem = scheme.replace(":", "_")
        oracle_psd_csv(artifacts.psd, tmp_path / "psd.csv")
        oracle_spectrogram_csv(artifacts.spectro, tmp_path / "spectrogram.csv")
        oracle_points_csv(artifacts.points, tmp_path / "constellation.csv")
        for kind in ("psd", "spectrogram", "constellation"):
            written = (tmp_path / "eval" / f"{stem}_{kind}.csv").read_bytes()
            assert written == (tmp_path / f"{kind}.csv").read_bytes(), kind
