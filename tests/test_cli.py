import copy
import csv
import json
import os
import subprocess
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modwave
from modwave import genlab
from modwave.channel import CHANNEL_PRESETS, ChannelConfig, FadingConfig, Tap
from modwave.cli import main
from modwave.config import GeneratorSettings, load_config
from modwave.costmodel import CostInputs
from modwave.dsl import bundled_generated_path, op_count, parse_formula, load_corpus
from modwave.errors import ConfigError, ModwaveError
from modwave.metrics import MetricsParams, compare, write_comparison_csv, write_comparison_json
from modwave.synth import SchemeConfig

from conftest import MALFORMED_GRAMMARS


def write_config(tmp_path, **overrides):
    config = {
        "master_seed": 42,
        "out_dir": str(tmp_path / "out"),
        "schemes": ["bpsk", "qpsk", "qam16"],
        "scheme_defaults": {"n_symbols": 2000},
        "channel": {"preset": "snr_15p44"},
        "cost": {
            "f_cpu": 1e9,
            "data_bits": 1e3,
            "bandwidth_bps": 1e6,
            "queue_delay_s": 0.0,
            "alpha": 1e-21,
            "voltage": 1.0,
            "transmit_power_w": 0.1,
            "amplifier_efficiency": 0.5,
            "idle_power_w": 0.01,
            "n_ops": 1e6,
        },
    }
    config.update(overrides)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(config))
    return path


class TestValidateCommand:
    def test_bundled_corpus_all_valid(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "8/8 syntactically valid" in out

    def test_generated_fixture_reports_m3_flag(self, tmp_path, capsys):
        summary = tmp_path / "summary.json"
        code = main(
            [
                "validate",
                "--corpus", str(bundled_generated_path()),
                "--json", str(summary),
            ]
        )
        assert code == 0
        assert "3/3 syntactically valid" in capsys.readouterr().out
        payload = json.loads(summary.read_text())
        m3_flags = [f["kind"] for f in payload["reports"]["m3"]["semantic_flags"]]
        assert m3_flags == ["zero-literal-divisor"]
        assert payload["reports"]["m1"]["semantic_flags"] == []

    def test_broken_row_fails_and_names_it(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.csv"
        corpus.write_text("id,name,formula\ngood,G,A_c * cos(2*pi*f_c*t)\nbad,B,cos(\n")
        assert main(["validate", "--corpus", str(corpus)]) == 1
        out = capsys.readouterr().out
        assert "bad" in out and "1/2" in out.replace(" ", " ")

    def test_missing_file_is_config_error(self, tmp_path):
        assert main(["validate", "--corpus", str(tmp_path / "nope.csv")]) == 2

    def test_malformed_row_reports_line(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.csv"
        corpus.write_text("id,name,formula\nonly_two_fields,x\n")
        assert main(["validate", "--corpus", str(corpus)]) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, message", [("not-utf8", "is not UTF-8"), ("directory", "is not a file")]
    )
    def test_unreadable_corpus_is_a_corpus_error(self, tmp_path, capsys, kind, message):
        corpus = tmp_path / "corpus.csv"
        if kind == "not-utf8":
            corpus.write_bytes(b"id,name,formula\nam,AM,A_c * cos(2*pi*f_c*t) \xff\n")
        else:
            corpus.mkdir()
        assert main(["validate", "--corpus", str(corpus)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: corpus ") and message in err


class TestEvalCommand:
    def test_qpsk_at_preset_snr(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["eval", "--config", str(config), "--scheme", "qpsk"]) == 0
        report = json.loads((tmp_path / "out" / "qpsk_report.json").read_text())
        assert abs(report["report"]["snr_db"] - 15.44) <= 0.2
        assert report["report"]["ber"] == 0.0
        for artifact in ("qpsk_psd.csv", "qpsk_spectrogram.csv", "qpsk_constellation.csv"):
            assert (tmp_path / "out" / artifact).exists()

    def test_formula_scheme_noiseless_loopback(self, tmp_path):
        config = write_config(
            tmp_path,
            channel={"target_snr_db": None},
            scheme_defaults={"n_symbols": 1000},
        )
        assert main(["eval", "--config", str(config), "--scheme", "formula:m1"]) == 0
        report = json.loads(
            (tmp_path / "out" / "formula_m1_report.json").read_text()
        )
        assert report["report"]["ber"] == 0.0
        assert report["report"]["invalid_count"] == 0

    def test_inline_formula_runs_as_under_compare(self, tmp_path):
        # eval finds a formula given inline in the config's schemes, as compare does
        probe = {
            "scheme": "formula:probe",
            "formula_text": "A_c*(I(t)*cos(2*pi*f_c*t) - Q(t)*sin(2*pi*f_c*t))",
        }
        config = write_config(
            tmp_path,
            schemes=["qpsk", probe],
            scheme_defaults={"n_symbols": 500},
            channel={"target_snr_db": None},
        )
        assert main(["compare", "--config", str(config)]) == 0
        rows = json.loads((tmp_path / "out" / "comparison.json").read_text())["rows"]
        assert rows[1]["modulation"] == "formula:probe" and rows[1]["ber"] == 0.0
        assert main(["eval", "--config", str(config), "--scheme", "formula:probe"]) == 0
        report = json.loads((tmp_path / "out" / "formula_probe_report.json").read_text())
        assert report["report"]["ber"] == 0.0

    def test_report_equals_the_compare_row(self, tmp_path):
        # eval seeds its row from the master seed exactly as compare does
        schemes = ["qpsk", "msk", "am", "formula:m2"]
        config = write_config(tmp_path, schemes=schemes, scheme_defaults={"n_symbols": 500})
        assert main(["compare", "--config", str(config), "--seed", "9"]) == 0
        rows = json.loads((tmp_path / "out" / "comparison.json").read_text())["rows"]
        for scheme, row in zip(schemes, rows):
            assert main(["eval", "--config", str(config), "--scheme", scheme, "--seed", "9"]) == 0
            stem = scheme.replace(":", "_")
            report = json.loads((tmp_path / "out" / f"{stem}_report.json").read_text())
            assert report["report"] == row, scheme
            assert report["channel"]["seed"] == row["seeds"]["channel"], scheme

    def test_the_first_entry_for_a_scheme_runs(self, tmp_path):
        # a plain "qpsk" listed before a qpsk object is the row eval runs, as
        # compare orders them; the rrc object would have no receiver
        schemes = ["qpsk", {"scheme": "qpsk", "pulse": "rrc"}]
        config = write_config(tmp_path, schemes=schemes, scheme_defaults={"n_symbols": 500})
        assert main(["compare", "--config", str(config)]) == 0
        rows = json.loads((tmp_path / "out" / "comparison.json").read_text())["rows"]
        assert rows[0]["error"] is None and rows[1]["error"] is not None
        assert main(["eval", "--config", str(config), "--scheme", "qpsk"]) == 0
        report = json.loads((tmp_path / "out" / "qpsk_report.json").read_text())
        assert report["report"] == rows[0]

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        config = write_config(tmp_path)
        main(["eval", "--config", str(config), "--scheme", "bpsk"])
        first = (tmp_path / "out" / "bpsk_report.json").read_bytes()
        main(["eval", "--config", str(config), "--scheme", "bpsk"])
        second = (tmp_path / "out" / "bpsk_report.json").read_bytes()
        assert first == second

    @pytest.mark.parametrize(
        "taps",
        [
            [{"delay_samples": 0, "gain": 0}],
            # cos(pi/2) is 6.1e-17, not 0: this ran, at an SNR of -314 dB
            [{"delay_samples": 0, "gain": 1.0, "phase": 1.5707963267948966}],
            # this one reached the SNR measurement and exited 1
            [{"delay_samples": 0, "gain": 1.0}, {"delay_samples": 0, "gain": -1.0}],
        ],
        ids=["zero-gain", "quarter-turn", "cancelling"],
    )
    def test_zero_gain_channel_fails_the_run(self, tmp_path, capsys, taps):
        config = write_config(tmp_path, channel={"target_snr_db": 10, "taps": taps})
        assert main(["eval", "--config", str(config), "--scheme", "bpsk"]) == 2
        assert capsys.readouterr().err.startswith("config error: channel: ")
        assert not (tmp_path / "out").exists()

    def test_unallocatable_grid_is_config_error(self, tmp_path, capsys):
        # 2**50 samples (8 PiB) lie beyond any address space: the allocation
        # fails at once, whatever the overcommit setting
        config = write_config(
            tmp_path, scheme_defaults={"n_symbols": 1, "samples_per_symbol": 2**50}
        )
        assert main(["eval", "--config", str(config), "--scheme", "bpsk"]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: a row of {2**50} samples does not fit in memory\n"
        assert not (tmp_path / "out").exists()

    def test_unknown_scheme_is_config_error(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["eval", "--config", str(config), "--scheme", "warble"]) == 2

    def test_receiver_failure_fails_the_run(self, tmp_path, capsys):
        config = write_config(
            tmp_path, scheme_defaults={"n_symbols": 500, "pulse": "rrc"}
        )
        assert main(["eval", "--config", str(config), "--scheme", "qpsk"]) == 1
        assert capsys.readouterr().err == "error: qpsk has no receiver for pulse 'rrc'\n"
        assert not (tmp_path / "out").exists()  # no report, no artifacts, no directory


class TestCompareCommand:
    def test_table_columns_and_rows(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["compare", "--config", str(config)]) == 0
        with open(tmp_path / "out" / "comparison.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["modulation", "snr_db", "ber", "spectral_eff", "bandwidth_hz"]
        assert [r[0] for r in rows[1:]] == ["bpsk", "qpsk", "qam16"]

    def test_single_scheme_is_usage_error(self, tmp_path):
        config = write_config(tmp_path, schemes=["bpsk"])
        assert main(["compare", "--config", str(config)]) == 2

    def test_full_scheme_list_with_a_generated_formula(self, tmp_path):
        entries = {e.id: e for e in load_corpus(bundled_generated_path())}
        schemes = [
            "chirp", "gmsk", "msk", "16-qam", "64-qam", "128-qam", "256-qam",
            "bpsk", "qpsk", "ook", "bfsk",
            {"scheme": "formula:m1", "formula_text": entries["m1"].formula},
        ]
        config = write_config(
            tmp_path,
            schemes=schemes,
            scheme_defaults={"n_symbols": 600},
            channel={"target_snr_db": 10.0},
        )
        assert main(["compare", "--config", str(config)]) == 0
        with open(tmp_path / "out" / "comparison.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 1 + 12
        assert rows[-1][0] == "formula:m1"
        assert all(row[2] != "" for row in rows[1:])  # every row carries a BER

    def test_formula_id_resolves_from_the_corpus(self, tmp_path):
        config = write_config(
            tmp_path, schemes=["ook", "msk", "formula:fm"],
            scheme_defaults={"n_symbols": 500},
        )
        assert main(["compare", "--config", str(config)]) == 0
        rows = json.loads((tmp_path / "out" / "comparison.json").read_text())["rows"]
        assert rows[2]["modulation"] == "formula:fm"
        assert rows[2]["error"] is None
        assert 0.0 <= rows[2]["ber"] <= 1.0

    @pytest.mark.parametrize("key", ["amplitude", "carrier_freq", "gmsk_bt"])
    def test_nan_scheme_parameter_is_config_error(self, tmp_path, capsys, key):
        config = write_config(
            tmp_path, schemes=["qpsk", "ook"],
            scheme_defaults={"n_symbols": 200, key: float("nan")},
        )
        assert main(["compare", "--config", str(config)]) == 2
        assert f"{key} nan is not a finite number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bt", [0, -0.3])
    def test_non_positive_gmsk_bt_is_config_error(self, tmp_path, capsys, bt):
        # 0 made a flat pulse that compare read as BER 0.364 and exited 0
        config = write_config(
            tmp_path, schemes=["gmsk", "msk"],
            scheme_defaults={"n_symbols": 200, "gmsk_bt": bt},
        )
        assert main(["compare", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"gmsk_bt {float(bt)} is not positive" in err
        assert not (tmp_path / "out").exists()

    def test_unknown_formula_id_is_config_error(self, tmp_path):
        config = write_config(tmp_path, schemes=["ook", "formula:nosuch"])
        assert main(["compare", "--config", str(config)]) == 2

    def test_formula_text_on_a_reference_row_is_config_error(self, tmp_path, capsys):
        # the am row sent its corpus formula and ignored this text
        am = {"scheme": "am", "formula_text": "I(t)*cos(2*pi*f_c*t)"}
        config = write_config(tmp_path, schemes=["ook", am])
        assert main(["compare", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: am: formula_text is for a formula:<id> scheme, not 'am'\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scheme", ["msk", "am", "chirp", "formula:qam"])
    def test_rrc_on_a_row_without_an_alphabet_is_config_error(self, tmp_path, capsys, scheme):
        # each of these rows sent its rect samples under rrc, bit for bit
        config = write_config(tmp_path, schemes=["ook", {"scheme": scheme, "pulse": "rrc"}])
        assert main(["compare", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        message = f"pulse 'rrc' is for a reference row with an alphabet, not '{scheme}'"
        assert err == f"config error: {scheme}: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "content",
        [b"id,name\n", b"id,name,formula\nfm,FM,cos(2*pi*f_c*t) \xff\n"],
        ids=["bad-header", "not-utf8"],
    )
    def test_unreadable_corpus_fails_the_run(self, tmp_path, capsys, content):
        corpus = tmp_path / "corpus.csv"
        corpus.write_bytes(content)
        config = write_config(tmp_path, corpus=str(corpus), schemes=["ook", "formula:fm"])
        assert main(["compare", "--config", str(config)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_seed_override_changes_output(self, tmp_path):
        config = write_config(tmp_path, schemes=["bpsk", "qpsk"],
                              channel={"target_snr_db": -5.0})
        main(["compare", "--config", str(config)])
        first = (tmp_path / "out" / "comparison.csv").read_bytes()
        main(["compare", "--config", str(config), "--seed", "7"])
        second = (tmp_path / "out" / "comparison.csv").read_bytes()
        assert first != second


class TestGenerateCommand:
    def test_grammar_batch_is_deterministic(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["generate", "--config", str(config), "-n", "20"]) == 0
        first = (tmp_path / "out" / "generation_report.json").read_bytes()
        assert main(["generate", "--config", str(config), "-n", "20"]) == 0
        assert (tmp_path / "out" / "generation_report.json").read_bytes() == first
        payload = json.loads(first)
        assert payload["total"] == 20
        assert len(payload["items"]) == 20

    def test_valid_formulas_written_as_corpus(self, tmp_path):
        config = write_config(tmp_path)
        main(["generate", "--config", str(config), "-n", "30"])
        entries = load_corpus(tmp_path / "out" / "generated_corpus.csv")
        payload = json.loads(
            (tmp_path / "out" / "generation_report.json").read_text()
        )
        assert len(entries) == payload["valid"]

    def test_evaluate_flag_produces_metric_rows(self, tmp_path):
        config = write_config(
            tmp_path, scheme_defaults={"n_symbols": 400}, base_scheme="qpsk"
        )
        assert main(["generate", "--config", str(config), "-n", "6", "--evaluate"]) == 0
        metrics = json.loads(
            (tmp_path / "out" / "generated_metrics.json").read_text()
        )
        payload = json.loads(
            (tmp_path / "out" / "generation_report.json").read_text()
        )
        assert len(metrics["rows"]) == payload["valid"]

    def test_evaluated_rows_are_the_pipeline_rows(self, tmp_path):
        config_path = write_config(
            tmp_path, scheme_defaults={"n_symbols": 300}, base_scheme="qpsk"
        )
        assert main(["generate", "--config", str(config_path), "-n", "12", "--evaluate"]) == 0
        config = load_config(config_path)
        grammar = genlab.load_grammar(seed=config.master_seed)
        batch = genlab.generate_batch(12, grammar)
        entries = batch.valid_entries()
        base = config.scheme_config({"scheme": "formula:pending", "formula_text": None})
        rows, _ = genlab.pipeline_run(
            entries, len(entries), config.channel, base, config.metrics, config.master_seed
        )
        assert len(rows) == len(entries) > 0
        write_comparison_csv(rows, tmp_path / "pipeline.csv")
        write_comparison_json(rows, tmp_path / "pipeline.json")
        for suffix in ("csv", "json"):
            written = (tmp_path / "out" / f"generated_metrics.{suffix}").read_bytes()
            assert written == (tmp_path / f"pipeline.{suffix}").read_bytes()

    @pytest.mark.parametrize("grammar", list(MALFORMED_GRAMMARS), ids=list(MALFORMED_GRAMMARS))
    def test_malformed_grammar_is_a_config_error(self, tmp_path, capsys, grammar):
        path = tmp_path / "grammar.json"
        path.write_bytes(MALFORMED_GRAMMARS[grammar])
        config = write_config(tmp_path, generator={"grammar_path": str(path)})
        assert main(["generate", "--config", str(config), "-n", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: grammar file ") and str(path) in err

    def test_unreachable_endpoint_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MODWAVE_GEN_ENDPOINT", "http://127.0.0.1:1/")
        config = write_config(
            tmp_path,
            generator={"kind": "external", "endpoint": "http://127.0.0.1:1/",
                       "timeout_s": 0.3},
        )
        assert main(["generate", "--config", str(config), "-n", "3"]) == 3
        payload = json.loads(
            (tmp_path / "out" / "generation_report.json").read_text()
        )
        assert payload["source_errors"] == 3


class TestCostCommand:
    def test_trivial_substitutions(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["cost", "--config", str(config)]) == 0
        payload = json.loads((tmp_path / "out" / "cost.json").read_text())
        assert payload["latency"]["processing_s"] == pytest.approx(1e-3)
        assert payload["latency"]["transmission_s"] == pytest.approx(1e-3)
        assert payload["power"]["transmit_w"] == pytest.approx(0.2)
        assert payload["power"]["total_w"] == pytest.approx(0.210001)

    def test_formula_ops_recomputed_independently(self, tmp_path):
        config = write_config(tmp_path, scheme_defaults={"n_symbols": 2000})
        assert main(["cost", "--config", str(config), "--formula", "m2"]) == 0
        payload = json.loads((tmp_path / "out" / "cost.json").read_text())
        entries = {e.id: e for e in load_corpus(bundled_generated_path())}
        expected = op_count(parse_formula(entries["m2"].formula)) * 2000 * 48
        assert payload["inputs"]["n_ops"] == expected

    def test_cost_values_are_echoed_as_given(self, tmp_path):
        # the config load checks the cost values but does not cast them
        config = write_config(tmp_path)
        raw = json.loads(config.read_text())
        raw["cost"].update(n_ops=1000000000, data_bits=1000)
        config.write_text(json.dumps(raw))
        assert main(["cost", "--config", str(config)]) == 0
        text = (tmp_path / "out" / "cost.json").read_text()
        assert '"n_ops": 1000000000,' in text and '"data_bits": 1000,' in text

    def test_overflowing_latency_is_standard_json(self, tmp_path):
        config = write_config(tmp_path)
        raw = json.loads(config.read_text())
        raw["cost"].update(n_ops=1e308, f_cpu=1e-10)
        config.write_text(json.dumps(raw))
        assert main(["cost", "--config", str(config)]) == 0

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        text = (tmp_path / "out" / "cost.json").read_text()
        payload = json.loads(text, parse_constant=reject)
        assert payload["latency"]["total_s"] == "inf"

    def test_missing_cost_section(self, tmp_path):
        config = write_config(tmp_path, cost=None)
        # a null cost is no object; drop the key entirely instead
        raw = json.loads(config.read_text())
        raw.pop("cost")
        config.write_text(json.dumps(raw))
        assert main(["cost", "--config", str(config)]) == 2


class TestConfigHandling:
    def test_schema_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"master_seed": 1, "bogus": True}))
        assert main(["compare", "--config", str(path)]) == 2

    def test_missing_config_file(self, tmp_path, capsys):
        for path in (tmp_path / "none.json", tmp_path):  # a directory is no file either
            assert main(["compare", "--config", str(path)]) == 2
            assert capsys.readouterr().err.startswith("config error: no config file at ")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["compare", "--config", str(path)]) == 2

    def test_negative_seed_override_is_a_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path, scheme_defaults={"n_symbols": 100})
        assert main(["compare", "--config", str(config), "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_undecodable_config_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"master_seed": 1, "out_dir": "\xff"}')
        assert main(["compare", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_unknown_preset(self, tmp_path):
        config = write_config(tmp_path, channel={"preset": "volcano"})
        assert main(["compare", "--config", str(config)]) == 2

    @pytest.mark.parametrize(
        "overrides",
        [
            {"scheme_defaults": {"n_symbols": "10"}},
            {"scheme_defaults": {"samples_per_symbol": 48.5}},
            {"scheme_defaults": {"amplitude": None}},
            {"scheme_defaults": {"seed": 1.5}},
            {"channel": {"seed": 3}},
            {"schemes": [{"scheme": "qam16", "carrier_freq": "6k"}, "bpsk"]},
            {"channel": {"fading": {"sigma": 1.0}}},
            {"metrics": {"welch_window": "bogus"}},
            {"channel": {"preset": None}},
            {"scheme_defaults": {"amplitude": True}},
            {"master_seed": -1},
            {"scheme_defaults": {"scheme": "qpsk"}},
            {"scheme_defaults": {"amplitude": 10**400}},  # beyond the float range
            {"corpus": "."},  # a directory, not a corpus file
            {"generator": {"grammar_path": "."}},
            # json.load reads NaN and Infinity; no float field takes them
            {"channel": {"taps": [{"delay_samples": 0, "gain": float("nan")}]}},
            {"channel": {"taps": [{"delay_samples": 0, "gain": 1.0, "phase": float("inf")}]}},
            {"channel": {"fading": {"block_length_samples": 64, "sigma": float("nan")}}},
            {"cost": {"f_cpu": float("nan"), "data_bits": 1e3, "bandwidth_bps": 1e6}},
            {"generator": {"temperature": float("nan")}},
            {"generator": {"timeout_s": float("inf")}},
        ],
    )
    def test_mistyped_or_invalid_values_are_config_errors(self, tmp_path, capsys, overrides):
        config = write_config(tmp_path, **overrides)
        assert main(["compare", "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_error_names_the_key_path(self, tmp_path, capsys):
        config = write_config(tmp_path, scheme_defaults={"samples_per_symbol": 48.5})
        assert main(["compare", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: scheme_defaults.samples_per_symbol: ")

    @pytest.mark.parametrize(
        "cls, values",
        [
            (MetricsParams, {"welch_segment": 4}),
            (MetricsParams, {"spectrogram_fft": 7}),
            (MetricsParams, {"spectrogram_hop": 0}),
            (MetricsParams, {"welch_overlap": 0.95}),
            (MetricsParams, {"obw_fraction": 1.0}),
            (MetricsParams, {"welch_window": "bogus"}),
            (GeneratorSettings, {"kind": "gpt"}),
            (GeneratorSettings, {"temperature": 0.0}),
            (GeneratorSettings, {"timeout_s": 0.0}),
            (GeneratorSettings, {"max_tokens": 7}),
            (GeneratorSettings, {"max_depth": 0}),
        ],
    )
    def test_constructors_check_ranges(self, cls, values):
        with pytest.raises(ModwaveError):
            cls(**values)

    def test_cost_without_its_required_fields(self, tmp_path, capsys):
        config = write_config(tmp_path, cost={"n_ops": 1000})
        assert main(["cost", "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_integral_samples_per_symbol_runs_as_int(self, tmp_path):
        config = write_config(
            tmp_path, scheme_defaults={"n_symbols": 500, "samples_per_symbol": 48.0}
        )
        sps = load_config(config).scheme_configs()[0].samples_per_symbol
        assert sps == 48 and isinstance(sps, int)
        assert main(["compare", "--config", str(config)]) == 0

    def test_keys_beside_a_preset_override_it(self, tmp_path):
        config = write_config(
            tmp_path,
            channel={
                "preset": "table_operating_point",
                "taps": [{"delay_samples": 2, "gain": 0.5}],
            },
        )
        preset = CHANNEL_PRESETS["table_operating_point"]
        assert load_config(config).channel == replace(preset, taps=(Tap(2, 0.5),))

    def test_sections_are_their_dataclass_fields(self, tmp_path):
        # each section: a full example of its dataclass, its required keys,
        # where it sits in a config and where the loaded config holds it
        sections = {
            "schemes": (SchemeConfig("qpsk"), {"scheme": "qpsk"},
                        lambda obj: {"schemes": [obj, "bpsk"]},
                        lambda cfg: cfg.scheme_configs()[0]),
            "scheme_defaults": (SchemeConfig("qpsk"), {},
                                lambda obj: {"scheme_defaults": obj},
                                lambda cfg: cfg.scheme_configs()[0]),
            "channel": (ChannelConfig(fading=FadingConfig(64, 1.0)), {"preset": "multipath"},
                        lambda obj: {"channel": obj}, lambda cfg: cfg.channel),
            "taps": (Tap(2, 0.5, 0.1), {"delay_samples": 0, "gain": 1.0},
                     lambda obj: {"channel": {"taps": [obj]}},
                     lambda cfg: cfg.channel.taps[0]),
            "fading": (FadingConfig(64, 1.0), {"block_length_samples": 64, "sigma": 1.0},
                       lambda obj: {"channel": {"fading": obj}},
                       lambda cfg: cfg.channel.fading),
            "metrics": (MetricsParams(), {}, lambda obj: {"metrics": obj},
                        lambda cfg: cfg.metrics),
            "generator": (GeneratorSettings(), {}, lambda obj: {"generator": obj},
                          lambda cfg: cfg.generator),
            "cost": (CostInputs(1e6, 1e9, 1e3, 1e6),
                     {"f_cpu": 1e9, "data_bits": 1e3, "bandwidth_bps": 1e6},
                     lambda obj: {"cost": obj}, lambda cfg: cfg.cost),
        }
        for section, (example, required, place, read) in sections.items():
            values = json.loads(json.dumps(asdict(example)))
            # a seed is derived from the master seed, never configured
            names = {f.name for f in fields(example)} - {"seed"}
            if section == "scheme_defaults":
                names -= {"scheme"}  # the entries of schemes name it
            for name in sorted(names):
                config = write_config(tmp_path, **place({**required, name: values[name]}))
                loaded = read(load_config(config))
                if not isinstance(loaded, dict):
                    loaded = json.loads(json.dumps(asdict(loaded)))
                assert loaded[name] == values[name], (section, name)
            for extra in ("seed", "bogus"):
                config = write_config(tmp_path, **place({**required, extra: 0}))
                with pytest.raises(ConfigError, match=f"\\.{extra}: "):
                    load_config(config)

    def test_mutated_config_base_loads(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(VALID_CONFIG))
        assert len(load_config(path).scheme_configs()) == 4

    @settings(max_examples=200)
    @given(data=st.data())
    def test_mutated_configs_load_or_are_config_errors(self, tmp_path_factory, data):
        config = copy.deepcopy(VALID_CONFIG)
        spots = list(_locations(config))
        action = data.draw(st.sampled_from(["swap", "drop", "add"]))
        if action == "add":
            objects = [()] + [p for p in spots if isinstance(_at(config, p), dict)]
            owner = _at(config, data.draw(st.sampled_from(objects)))
            owner[data.draw(st.sampled_from(["seed", "bogus"]))] = data.draw(JSON_VALUES)
        else:
            *parent, key = data.draw(st.sampled_from(spots))
            owner = _at(config, parent)
            if action == "drop":
                del owner[key]
            else:
                owner[key] = data.draw(JSON_VALUES)
        path = tmp_path_factory.getbasetemp() / "mutated.json"
        path.write_text(json.dumps(config))
        try:
            loaded = load_config(path)
            rows = loaded.scheme_configs()
        except ConfigError:
            return  # any other exception fails the test
        # every accepted row runs, at 8 symbols, to a report: compare turns a
        # ModwaveError into the row's error and lets any other exception out.
        # A grid above 2^16 samples is not run, to bound the test's memory.
        small = [replace(row, n_symbols=min(row.n_symbols, 8)) for row in rows]
        small = [row for row in small if row.n_samples <= 1 << 16]
        reports = compare(small, loaded.channel, loaded.metrics, loaded.master_seed)
        assert [report.scheme for report in reports] == [row.scheme for row in small]


# a config that uses every section; the property test above mutates it
VALID_CONFIG = {
    "master_seed": 7,
    "corpus": None,
    "out_dir": "out",
    "schemes": [
        "bpsk",
        {"scheme": "qam16", "carrier_freq": 6000, "pulse": "rect"},
        "formula:m1",
        {"scheme": "formula:own", "formula_text": "A_c*I(t)*cos(2*pi*f_c*t)"},
    ],
    "scheme_defaults": {"n_symbols": 100, "samples_per_symbol": 48.0, "amplitude": 1},
    "base_scheme": "qpsk",
    "channel": {
        "preset": "multipath",
        "target_snr_db": 10,
        "taps": [{"delay_samples": 0, "gain": 1.0, "phase": 0.0},
                 {"delay_samples": 2, "gain": 0.3}],
        "fading": {"block_length_samples": 64, "sigma": 1.0},
    },
    "metrics": {"welch_segment": 256, "welch_window": "hann", "obw_fraction": 0.99},
    "generator": {"kind": "grammar", "grammar_path": None, "temperature": 0.8},
    "cost": {"f_cpu": 1e9, "data_bits": 1000, "bandwidth_bps": 1e6, "n_ops": 1e6},
}

JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6),
    st.lists(st.integers(0, 9), max_size=2),
    st.dictionaries(st.text(max_size=4), st.integers(0, 9), max_size=2),
)


def _locations(node, path=()):
    """The path of every value inside a JSON tree."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _locations(value, path + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def test_runtime_imports_neither_scipy_nor_requests_nor_the_http_client():
    # the runtime needs numpy only; scipy is a test oracle, and the HTTP
    # client (with the ssl it loads) comes in with external generation only
    src = str(Path(modwave.__file__).parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    probe = (
        "import sys, modwave, modwave.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'requests') "
        "or m in ('urllib.request', 'http.client', 'ssl')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_config_load_and_compare_need_numpy_only(tmp_path):
    # a config load checks types itself: no schema engine comes in
    config = write_config(tmp_path, scheme_defaults={"n_symbols": 200})
    src = str(Path(modwave.__file__).parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    probe = (
        "import sys; from modwave.cli import main; "
        f"assert main(['compare', '--config', {str(config)!r}]) == 0; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('jsonschema', 'scipy', 'requests')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines()[-1] == "[]"
