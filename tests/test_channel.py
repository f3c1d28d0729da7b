import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from modwave.channel import (
    ChannelConfig,
    FadingConfig,
    Tap,
    add_awgn,
    apply_channel,
    apply_fading,
    apply_multipath,
    measure_snr,
    tap_weights,
)
from modwave.config import load_config
from modwave.errors import SignalError, ZeroPowerError
from modwave.grid import grid
from modwave.metrics import welch_psd
from modwave.synth import SampledSignal, SchemeConfig


def unit_noise(n=100_000, seed=0, fs=48000.0):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, n)
    x /= np.sqrt(np.mean(x**2))
    return SampledSignal(x, fs)


class TestAwgn:
    def test_zero_db_means_equal_powers(self):
        clean = unit_noise(100_000, seed=1)
        received = add_awgn(clean, 0.0, seed=7)
        assert abs(measure_snr(clean, received)) <= 0.1

    def test_noise_power_for_19p80_db(self):
        clean = unit_noise(200_000, seed=2)
        received = add_awgn(clean, 19.80, seed=8)
        noise_power = np.mean((received.samples - clean.samples) ** 2)
        assert noise_power == pytest.approx(10 ** (-1.98), rel=0.02)  # ~0.010471

    def test_ten_db_round_trip(self):
        clean = unit_noise(100_000, seed=3)
        received = add_awgn(clean, 10.0, seed=9)
        assert measure_snr(clean, received) == pytest.approx(10.0, abs=0.2)

    def test_seed_determinism_and_variation(self):
        clean = unit_noise(10_000, seed=4)
        a = add_awgn(clean, 10.0, seed=5)
        b = add_awgn(clean, 10.0, seed=5)
        c = add_awgn(clean, 10.0, seed=6)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)
        assert measure_snr(clean, c) == pytest.approx(10.0, abs=0.2)

    def test_zero_power_rejected(self):
        with pytest.raises(ZeroPowerError):
            add_awgn(SampledSignal(np.zeros(10), 48000.0), 10.0, seed=1)

    def test_noise_whiteness(self):
        clean = SampledSignal(np.zeros(1_000_000), 48000.0)
        noisy = add_awgn(clean, 0.0, seed=13, reference_power=1.0)
        psd = welch_psd(noisy)
        interior = psd.density[1:-1]
        deviation_db = 10 * np.log10(interior / interior.mean())
        assert np.max(np.abs(deviation_db)) <= 1.5


class TestNoiseDraw:
    """The noise is one cached standard-normal draw per (seed, length),
    scaled per call; it must equal a fresh generator's normal draw."""

    @staticmethod
    def scale(power, snr_db):
        return np.sqrt(power / (10.0 ** (snr_db / 10.0)))

    def test_add_awgn_equals_a_fresh_normal_draw(self):
        # alternating seeds and lengths: a stale cached draw fails
        short, long = unit_noise(3_000, seed=1), unit_noise(5_000, seed=2)
        for seed, clean, snr_db in [
            (11, short, 3.0), (12, short, 3.0), (11, short, 7.5),
            (11, long, 3.0), (11, short, 3.0), (11, long, -2.0),
        ]:
            received = add_awgn(clean, snr_db, seed, reference_power=2.0)
            s = self.scale(2.0, snr_db)
            expected = clean.samples + np.random.default_rng(seed).normal(
                0.0, s, len(clean)
            )
            assert np.array_equal(received.samples, expected)

    def test_apply_channel_equals_a_fresh_normal_draw(self):
        short, long = unit_noise(3_000, seed=3), unit_noise(5_000, seed=4)
        for seed, clean in [
            (21, short), (22, short), (21, short), (21, long), (21, short),
        ]:
            received, _ = apply_channel(
                clean, ChannelConfig(target_snr_db=4.0, seed=seed)
            )
            rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
            noise = rng.normal(0.0, self.scale(clean.power, 4.0), len(clean))
            assert np.array_equal(received.samples, clean.samples + noise)
            # an add_awgn call between rows must not leak its draw into them
            add_awgn(clean, 4.0, seed)

    def test_seed_must_be_an_int_or_a_tuple_of_ints(self):
        clean = unit_noise(1_000, seed=5)
        add_awgn(clean, 10.0, 5)
        for seed in (np.random.default_rng(5), 5.0, [5, 0], (5, 0.0)):
            for _ in range(2):  # a second call does not find a cached draw
                with pytest.raises(TypeError):
                    add_awgn(clean, 10.0, seed)

    def test_cached_draw_is_read_only(self):
        clean = unit_noise(100, seed=1)
        add_awgn(clean, 10.0, 3)
        store = grid(100, clean.sample_rate)
        draw = store.get(("standard_normal", 3))
        assert not draw.flags.writeable
        with pytest.raises(ValueError):
            draw[0] = 0.0
        assert draw.tobytes() == np.random.default_rng(3).standard_normal(100).tobytes()
        add_awgn(clean, 10.0, 3)
        assert store.get(("standard_normal", 3)) is draw

    def test_negative_seeds_are_signal_errors(self):
        with pytest.raises(SignalError):
            SchemeConfig("bpsk", seed=-1)
        with pytest.raises(SignalError):
            ChannelConfig(seed=-3)


class TestMultipath:
    def test_identity_tap(self):
        # the direct path alone returns its input: no copy is made
        sig = unit_noise(1000, seed=1)
        assert apply_multipath(sig, (Tap(0, 1.0, 0.0),)) is sig
        _, pre_noise = apply_channel(sig, ChannelConfig())
        assert pre_noise is sig

    def test_impulse_response_readout(self):
        impulse = np.zeros(64)
        impulse[0] = 1.0
        sig = SampledSignal(impulse, 48000.0)
        out = apply_multipath(sig, (Tap(0, 1.0, 0.0), Tap(7, 0.5, 0.0)))
        assert out.samples[0] == pytest.approx(1.0)
        assert out.samples[7] == pytest.approx(0.5)
        assert np.count_nonzero(out.samples) == 2

    def test_two_tap_frequency_response_oracle(self):
        fs, f0, delay, gain = 48000.0, 3000.0, 11, 0.5
        t = np.arange(200_000) / fs
        sig = SampledSignal(np.cos(2 * np.pi * f0 * t), fs)
        out = apply_multipath(sig, (Tap(0, 1.0, 0.0), Tap(delay, gain, 0.0)))
        steady = out.samples[delay:]
        amplitude = np.sqrt(2 * np.mean(steady**2))
        expected = abs(1 + gain * np.exp(-2j * np.pi * f0 * delay / fs))
        assert amplitude == pytest.approx(expected, rel=0.01)

    def test_real_tap_phase_is_cosine_weighted(self):
        sig = unit_noise(256, seed=2)
        out = apply_multipath(sig, (Tap(0, 2.0, np.pi / 3),))
        assert np.allclose(out.samples, 2.0 * math.cos(np.pi / 3) * sig.samples)

    def test_linearity(self):
        taps = (Tap(0, 1.0, 0.0), Tap(5, 0.4, 1.1))
        x, y = unit_noise(512, seed=3), unit_noise(512, seed=4)
        combined = SampledSignal(2.0 * x.samples + 3.0 * y.samples, 48000.0)
        lhs = apply_multipath(combined, taps).samples
        rhs = (
            2.0 * apply_multipath(x, taps).samples
            + 3.0 * apply_multipath(y, taps).samples
        )
        # no stochastic term; only float reassociation separates the sides
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_delay_beyond_length(self):
        with pytest.raises(SignalError):
            apply_multipath(unit_noise(32, seed=5), (Tap(40, 1.0, 0.0),))


class TestFading:
    def test_degenerate_scale_kills_power(self):
        sig = unit_noise(10_000, seed=6)
        out = apply_fading(sig, FadingConfig(100, 1e-9), seed=1)
        assert out.power <= 1e-12

    def test_single_block_is_a_scalar(self):
        sig = unit_noise(5_000, seed=7)
        out = apply_fading(sig, FadingConfig(5_000, 0.7), seed=2)
        ratio = out.samples / sig.samples
        assert np.allclose(ratio, ratio[0])

    def test_a_block_longer_than_any_grid_is_one_block(self):
        # the gain holds one value per sample, never one per block sample
        sig = unit_noise(5_000, seed=7)
        out = apply_fading(sig, FadingConfig(2**62, 0.7), seed=2)
        same = apply_fading(sig, FadingConfig(5_000, 0.7), seed=2)
        assert np.array_equal(out.samples, same.samples)

    def test_rayleigh_second_moment(self):
        # E[a^2] = 2 sigma^2 = 1 for sigma = 1/sqrt(2)
        sig = SampledSignal(np.ones(100_000), 48000.0)
        out = apply_fading(sig, FadingConfig(100, 1 / math.sqrt(2)), seed=3)
        assert out.power == pytest.approx(1.0, rel=0.10)

    def test_blockwise_constancy(self):
        sig = SampledSignal(np.ones(1_000), 48000.0)
        out = apply_fading(sig, FadingConfig(100, 1.0), seed=4)
        blocks = out.samples.reshape(10, 100)
        assert np.allclose(blocks, blocks[:, :1])
        assert len(np.unique(np.round(blocks[:, 0], 12))) == 10

    def test_invalid_sigma(self):
        with pytest.raises(SignalError):
            FadingConfig(100, 0.0)


class TestMeasureSnr:
    def test_zero_noise_is_infinite(self):
        sig = unit_noise(100, seed=8)
        assert measure_snr(sig, sig) == math.inf

    def test_noise_equal_to_signal_is_zero_db(self):
        sig = unit_noise(100, seed=9)
        doubled = SampledSignal(2.0 * sig.samples, 48000.0)
        assert measure_snr(sig, doubled) == pytest.approx(0.0, abs=1e-9)

    def test_calibration_across_targets(self):
        clean = unit_noise(100_000, seed=10)
        for target in (0.0, 10.0, 15.44, 19.80, 20.0):
            received = add_awgn(clean, target, seed=int(target * 10) + 1)
            assert measure_snr(clean, received) == pytest.approx(target, abs=0.2)

    def test_length_mismatch(self):
        with pytest.raises(SignalError):
            measure_snr(unit_noise(10, seed=1), unit_noise(11, seed=1))

    def test_zero_power_clean_signal_raises(self):
        silent = SampledSignal(np.zeros(100), 48000.0)
        with pytest.raises(ZeroPowerError):
            measure_snr(silent, unit_noise(100, seed=2))
        with pytest.raises(ZeroPowerError):
            measure_snr(silent, silent)


class TestChannelConfig:
    def test_roundtrip_dict(self, tmp_path):
        # asdict less the seed, which comes from the master seed, gives the
        # config file's channel section, and the loader builds the same
        # channel back from it
        cfg = ChannelConfig(
            target_snr_db=12.5,
            taps=(Tap(0, 1.0, 0.0), Tap(4, 0.3, 0.7)),
            fading=FadingConfig(256, 0.8),
        )
        section = asdict(cfg)
        del section["seed"]
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"master_seed": 1, "channel": section}))
        assert load_config(path).channel == cfg

    def test_noiseless_channel(self):
        sig = unit_noise(1_000, seed=11)
        received, pre_noise = apply_channel(sig, ChannelConfig(target_snr_db=None))
        assert np.array_equal(received.samples, sig.samples)
        assert measure_snr(pre_noise, received) == math.inf

    def test_infinite_target_rejected(self):
        with pytest.raises(SignalError):
            ChannelConfig(target_snr_db=math.inf)

    @pytest.mark.parametrize(
        "taps",
        [
            (),
            (Tap(0, 0.0),),
            (Tap(0, 0.0), Tap(3, -0.0, 0.5)),
            (Tap(0, 1.0, math.pi / 2),),
            (Tap(0, 1.0), Tap(0, -1.0)),
            (Tap(2, 0.5, 0.3), Tap(2, -0.5, -0.3), Tap(6, 3.0, -math.pi / 2)),
        ],
        ids=["none", "one", "two", "quarter-turn", "cancelling", "cancelling-and-turned"],
    )
    def test_taps_whose_weights_all_vanish_are_rejected(self, taps):
        # such a channel sends nothing; one delay of nonzero weight is enough
        with pytest.raises(SignalError, match="nonzero weight"):
            ChannelConfig(taps=taps)
        ChannelConfig(taps=(*taps, Tap(5, 0.1)))
        ChannelConfig(taps=(*taps, Tap(5, 1e-6)))

    def test_tap_weights_are_what_multipath_applies(self):
        # taps on one delay add; a tap's phase is its cos factor
        taps = (Tap(0, 1.0), Tap(4, 0.5, 0.7), Tap(0, 0.25, math.pi / 3))
        assert tap_weights(taps) == {0: 1.0 + 0.25 * np.cos(math.pi / 3), 4: 0.5 * np.cos(0.7)}
        sig = unit_noise(64, seed=8)
        out = apply_multipath(sig, taps).samples
        expected = tap_weights(taps)[0] * sig.samples
        expected[4:] += tap_weights(taps)[4] * sig.samples[:-4]
        assert out.tobytes() == expected.tobytes()

    def test_chain_preserves_ground_truth(self):
        bits = np.array([0, 1, 1, 0], dtype=np.uint8)
        sig = SampledSignal(np.ones(400), 48000.0, origin_bits=bits)
        received, _ = apply_channel(sig, ChannelConfig(target_snr_db=10.0))
        assert np.array_equal(received.origin_bits, bits)
