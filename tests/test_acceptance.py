"""Acceptance suite: one test per release criterion.

Each test enforces its stated tolerance and runtime budget and prints one
pass line (run with -s to watch them stream). The comparison operating
point is a waveform SNR of 2 dB with the default 48-samples-per-symbol
geometry, where the higher-order constellations separate cleanly and the
envelope-detected on-off scheme is the worst performer in the set.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from modwave.channel import CHANNEL_PRESETS, ChannelConfig, Tap, add_awgn, apply_channel, apply_multipath, measure_snr
from modwave.dsl import (
    ZERO_LITERAL_DIVISOR,
    bundled_corpus_path,
    bundled_generated_path,
    load_corpus,
    validate,
)
from modwave.genlab import generate_batch, load_grammar, pipeline_run
from modwave.metrics import (
    ber,
    correlation_demodulate,
    demodulate,
    spectral_efficiency_theoretical,
    welch_psd,
)
from modwave.synth import (
    REFERENCE_SCHEMES,
    SampledSignal,
    SchemeConfig,
    modulate,
    normalize_power,
)
from modwave.costmodel import CostInputs, latency, power

from conftest import binomial_3sigma, qfunc


def announce(number, label, started, budget_s):
    elapsed = time.monotonic() - started
    print(f"PASS criterion {number}: {label} ({elapsed:.1f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s"


def test_criterion_1_corpus_validity():
    started = time.monotonic()
    seed_entries = load_corpus(bundled_corpus_path())
    assert len(seed_entries) == 8
    for entry in seed_entries:
        report = validate(entry.formula)
        assert report.syntactic_ok and not report.semantic_flags, entry.id

    generated = {e.id: e for e in load_corpus(bundled_generated_path())}
    flags = {}
    for ident in ("m1", "m2", "m3"):
        report = validate(generated[ident].formula)
        assert report.syntactic_ok, ident
        flags[ident] = sorted(f.kind for f in report.semantic_flags)
    assert flags["m1"] == [] and flags["m2"] == []
    assert flags["m3"] == [ZERO_LITERAL_DIVISOR]
    announce(1, "corpus parses clean, only m3 flags its zero divisor", started, 1.0)


def test_criterion_2_spectral_efficiency_exactness():
    started = time.monotonic()
    assert spectral_efficiency_theoretical(256) == 8.0
    assert spectral_efficiency_theoretical(16) == 4.0
    assert spectral_efficiency_theoretical(2) == 1.0
    announce(2, "log2 spectral-efficiency identities exact", started, 1.0)


def test_criterion_3_snr_calibration():
    started = time.monotonic()
    rng = np.random.default_rng(31)
    clean = SampledSignal(rng.normal(0, 1, 100_000), 48000.0)
    clean = normalize_power(clean)
    for target in (0.0, 10.0, 15.44, 19.80):
        received = add_awgn(clean, target, seed=int(target * 100) + 1)
        measured = measure_snr(clean, received)
        assert abs(measured - target) <= 0.2, (target, measured)
    announce(3, "noise calibration holds +-0.2 dB at all four targets", started, 5.0)


def test_criterion_4_bpsk_ber_theory():
    started = time.monotonic()
    cfg = SchemeConfig("bpsk", n_symbols=100_000, seed=41)
    clean = normalize_power(modulate(cfg))
    gain_db = 10 * math.log10(cfg.samples_per_symbol / 2)
    for ebn0_db in (0.0, 4.0, 8.0):
        received = add_awgn(clean, ebn0_db - gain_db, seed=int(ebn0_db) + 5)
        measured = ber(clean.origin_bits, demodulate(received, cfg, reference=clean))
        theory = qfunc(math.sqrt(2 * 10 ** (ebn0_db / 10)))
        tolerance = binomial_3sigma(theory, 100_000)
        assert abs(measured - theory) <= tolerance, (ebn0_db, measured, theory)
    announce(4, "binary phase BER tracks the Q-function at 0/4/8 dB", started, 30.0)


def test_criterion_5_comparison_table_ordering():
    started = time.monotonic()
    operating_snr_db = 2.0
    target_bits = 100_000
    schemes = [
        "chirp", "gmsk", "msk", "qam16", "qam64", "qam128", "qam256",
        "bpsk", "qpsk", "ook", "bfsk",
    ]
    rates = {}
    for scheme in schemes:
        bps = SchemeConfig(scheme, n_symbols=4).bits_per_symbol
        cfg = SchemeConfig(scheme, n_symbols=target_bits // bps, seed=51)
        clean = normalize_power(modulate(cfg))
        received = add_awgn(clean, operating_snr_db, seed=52)
        rates[scheme] = ber(clean.origin_bits, demodulate(received, cfg, reference=clean))

    assert rates["qam16"] < rates["qam64"] < rates["qam128"] < rates["qam256"], rates
    worst_other = max(v for k, v in rates.items() if k != "ook")
    assert rates["ook"] > worst_other, rates
    announce(
        5,
        "constellation-order BER ordering strict and on-off keying worst "
        f"(qam {rates['qam16']:.3f}<{rates['qam64']:.3f}<{rates['qam128']:.3f}"
        f"<{rates['qam256']:.3f}, ook {rates['ook']:.3f})",
        started,
        120.0,
    )


def test_criterion_6_parseval():
    started = time.monotonic()
    rng = np.random.default_rng(61)
    noise = SampledSignal(rng.normal(0, 1, 1_000_000), 48000.0)
    noise = normalize_power(noise)
    assert welch_psd(noise).total_power() == pytest.approx(1.0, rel=0.02)

    for scheme in REFERENCE_SCHEMES:
        cfg = SchemeConfig(scheme, n_symbols=2_200, seed=6)  # >= 1e5 samples
        sig = normalize_power(modulate(cfg))
        integral = welch_psd(sig).total_power()
        assert integral == pytest.approx(1.0, rel=0.02), (scheme, integral)
    announce(6, "Welch integral recovers signal power within 2 percent", started, 30.0)


def test_criterion_7_generic_receiver_equivalence():
    started = time.monotonic()
    for scheme in ("bpsk", "qpsk"):
        for snr_db in (5.0, 10.0, 15.0):
            cfg = SchemeConfig(scheme, n_symbols=25_000, seed=71)
            clean = normalize_power(modulate(cfg))
            received = add_awgn(clean, snr_db, seed=int(snr_db) + 7)
            dedicated = ber(
                clean.origin_bits, demodulate(received, cfg, reference=clean)
            )
            generic = ber(
                clean.origin_bits,
                correlation_demodulate(received, cfg, reference=clean),
            )
            allowance = binomial_3sigma(max(dedicated, 1e-5), clean.origin_bits.size)
            assert abs(dedicated - generic) <= allowance, (scheme, snr_db)
    announce(7, "correlation receiver matches dedicated decisions", started, 60.0)


def test_criterion_8_pipeline_determinism(tmp_path):
    started = time.monotonic()
    outputs = []
    for _run in range(2):
        rows, batch = pipeline_run(
            load_corpus(bundled_generated_path()),
            3,
            ChannelConfig(target_snr_db=15.0),
            SchemeConfig("formula:seed", n_symbols=2_000, base_scheme="qam16"),
            master_seed=88,
        )
        assert len(rows) == 3
        names = [r.scheme for r in rows]
        assert names == ["formula:m1", "formula:m2", "formula:m3"]
        assert rows[2].guard_count > 0  # m3 runs under division guards
        payload = {
            "rows": [r.to_dict() for r in rows],
            "batch": batch.to_dict(),
        }
        outputs.append(json.dumps(payload, sort_keys=True).encode())
    assert outputs[0] == outputs[1]
    (tmp_path / "pipeline.json").write_bytes(outputs[0])
    announce(8, "generate/validate/evaluate pipeline byte-identical", started, 60.0)


def test_criterion_9_temperature_trend():
    started = time.monotonic()
    grammar = load_grammar()
    means = []
    for temperature in (0.5, 0.8, 1.1, 1.4):
        fractions = [
            generate_batch(
                200, replace(grammar, temperature=temperature, seed=seed)
            ).valid_fraction
            for seed in range(10)
        ]
        means.append(float(np.mean(fractions)))
    assert all(a >= b for a, b in zip(means, means[1:])), means
    announce(
        9,
        "valid fraction non-increasing in temperature "
        + "/".join(f"{m:.3f}" for m in means),
        started,
        60.0,
    )


def test_criterion_10_cost_models_exact():
    started = time.monotonic()
    inputs = CostInputs(
        n_ops=1e6, f_cpu=1e9, data_bits=1e3, bandwidth_bps=1e6,
        queue_delay_s=0.0, alpha=1e-21, voltage=1.0,
        transmit_power_w=0.1, amplifier_efficiency=0.5, idle_power_w=0.01,
    )
    lat = latency(inputs)
    assert lat.processing_s == pytest.approx(1e-3, rel=1e-12)
    assert lat.transmission_s == pytest.approx(1e-3, rel=1e-12)
    assert lat.total_s == pytest.approx(2e-3, rel=1e-12)
    pwr = power(inputs)
    assert pwr.processing_w == pytest.approx(1e-6, rel=1e-12)
    assert pwr.transmit_w == pytest.approx(0.2, rel=1e-12)
    assert pwr.total_w == pytest.approx(0.210001, rel=1e-12)
    announce(10, "latency and power closed forms exact to 1e-12", started, 1.0)


def test_criterion_11_multipath():
    started = time.monotonic()
    # two-tap frequency-response oracle on a single tone
    fs, f0, delay, gain = 48000.0, 3000.0, 11, 0.5
    t = np.arange(200_000) / fs
    tone = SampledSignal(np.cos(2 * np.pi * f0 * t), fs)
    echoed = apply_multipath(tone, (Tap(0, 1.0, 0.0), Tap(delay, gain, 0.0)))
    amplitude = np.sqrt(2 * np.mean(echoed.samples[delay:] ** 2))
    expected = abs(1 + gain * np.exp(-2j * np.pi * f0 * delay / fs))
    assert amplitude == pytest.approx(expected, rel=0.01)

    # quadrature phase keying stays reliable through the bundled echo preset
    channel = replace(CHANNEL_PRESETS["multipath"], target_snr_db=15.0, seed=111)
    cfg = SchemeConfig("qpsk", n_symbols=50_000, seed=11)
    clean = normalize_power(modulate(cfg))
    received, _ = apply_channel(clean, channel)
    rate = ber(clean.origin_bits, demodulate(received, cfg, reference=clean))
    assert rate < 1e-2, rate
    announce(
        11,
        f"two-tap gain matches closed form; echo-preset BER {rate:.1e} < 1e-2",
        started,
        60.0,
    )
