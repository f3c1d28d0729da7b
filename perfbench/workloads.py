"""The three benchmark workloads, written against modwave's public API.

Each workload builds its inputs from the benchmark seed in ``__init__``
(that is the set-up the benchmark times), runs one pass at a time and
says how many rows the pass should have completed, checks a pass's
outputs, and hashes them.
Inputs reach modwave only as configs and formula strings; modwave never
sees the benchmark seed itself.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import replace
from pathlib import Path

import modwave.cli
import modwave.dsl.parser
import modwave.dsl.validation
import modwave.genlab
import modwave.metrics
import modwave.synth
from modwave import (
    CHANNEL_PRESETS,
    MetricsParams,
    SchemeConfig,
    compare,
    generate_batch,
    load_grammar,
    parse_formula,
    pipeline_run,
    to_text,
)
from modwave.dsl import CLASS_VALID, CorpusEntry


def derive(seed, *keys):
    """A 32-bit seed for one input stream, fixed by the benchmark seed."""
    text = ":".join(str(part) for part in (seed, *keys))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


def sha256_json(value):
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def qfunc(x):
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def receiver_family(config):
    """Which of modwave's receivers ``demodulate`` runs for this config."""
    scheme = config.scheme
    if config.is_formula or scheme in ("fsk", "chirp"):
        return "correlation"
    if scheme in ("bfsk", "msk", "gmsk"):
        return "discriminator"
    if scheme == "ook":
        return "envelope"
    return "coherent"


def time_run_scheme(patches, clock):
    """One row per ``run_scheme`` call, the unit ``compare`` loops over.

    ``compare`` turns a raise into an error row, so the hook sees the raise
    and ``check`` sees the error row.
    """
    clock.hook_calls(patches, modwave.metrics, "run_scheme", ok=lambda artifacts: artifacts.report.error is None)


def row_errors(rows):
    return [f"{row.scheme}: {row.error}" for row in rows if row.error is not None]


class ReferenceTable:
    """``compare`` over the twelve digital reference schemes."""

    name = "reference_table"
    schemes = (
        "ook", "bpsk", "qpsk", "bfsk", "fsk", "msk", "gmsk", "chirp",
        "qam16", "qam64", "qam128", "qam256",
    )
    n_symbols = 10_000
    units = 1

    def __init__(self, seed, out_dir):
        self.master_seed = derive(seed, self.name, "master")
        self.channel = CHANNEL_PRESETS["table_operating_point"]
        self.configs = [SchemeConfig(s, n_symbols=self.n_symbols) for s in self.schemes]

    def sizes(self):
        return {
            "schemes": list(self.schemes),
            "n_symbols": self.n_symbols,
            "target_snr_db": self.channel.target_snr_db,
            "master_seed": self.master_seed,
        }

    def hook_rows(self, patches, clock):
        time_run_scheme(patches, clock)

    def run_pass(self, unit):
        rows = compare(self.configs, self.channel, MetricsParams(), master_seed=self.master_seed)
        return rows, len(self.configs)

    def check(self, rows, first):
        problems = row_errors(rows)
        if problems:
            return problems
        by_scheme = {row.scheme: row for row in rows}
        target = self.channel.target_snr_db
        for row in rows:
            if abs(row.snr_db - target) > 0.2:
                problems.append(f"{row.scheme}: realized SNR {row.snr_db:.3f} dB, target {target} dB")
        # waveform SNR to Eb/N0: noise spreads over fs/2, a bit over samples_per_symbol samples
        bpsk = self.configs[self.schemes.index("bpsk")]
        ebn0_db = target + 10 * math.log10(bpsk.samples_per_symbol / 2)
        theory = qfunc(math.sqrt(2 * 10 ** (ebn0_db / 10)))
        tolerance = 3.0 * math.sqrt(max(theory * (1 - theory), 1e-12) / self.n_symbols)
        measured = by_scheme["bpsk"].ber
        if abs(measured - theory) > tolerance:
            problems.append(f"bpsk: BER {measured} outside Q-function {theory:.3g} +- {tolerance:.3g}")
        qam = [by_scheme[s].ber for s in ("qam16", "qam64", "qam128", "qam256")]
        if not all(a < b for a, b in zip(qam, qam[1:])):
            problems.append(f"QAM BER not strictly increasing with order: {qam}")
        return problems

    def digest(self, rows):
        return sha256_json([row.to_dict() for row in rows])


class FormulaPipeline:
    """``generate -n 10 --evaluate`` on a qam16 base, one batch per pass.

    As in the CLI, a pass samples and validates a batch from the grammar,
    then runs ``pipeline_run`` over the valid formulas; every pass draws a
    new batch, so a run averages over many formula shapes.
    """

    name = "formula_pipeline"
    temperature = 0.8
    batch_size = 10
    units = 1_000  # distinct batches before passes repeat; a run uses a few dozen
    n_symbols = 2_000

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.grammar = load_grammar(temperature=self.temperature)
        self.channel = CHANNEL_PRESETS["table_operating_point"]
        self.base = SchemeConfig("formula:pending", n_symbols=self.n_symbols, base_scheme="qam16")

    def sizes(self):
        order = 1 << self.base.bits_per_symbol
        return {
            "temperature": self.temperature,
            "formulas_per_batch": self.batch_size,
            "n_symbols": self.n_symbols,
            "base_scheme": self.base.base_scheme,
            "candidate_bank_bytes": order * self.base.n_samples * 8,
            "target_snr_db": self.channel.target_snr_db,
        }

    def hook_rows(self, patches, clock):
        time_run_scheme(patches, clock)

    def run_pass(self, unit):
        grammar = replace(self.grammar, seed=derive(self.seed, self.name, "grammar", unit))
        batch = generate_batch(self.batch_size, grammar)
        entries = [CorpusEntry(f"g{item.index}", f"G{item.index}", item.formula) for item in valid_items(batch)]
        rows, _batch = pipeline_run(
            entries, len(entries), self.channel, self.base,
            params=MetricsParams(), master_seed=derive(self.seed, self.name, "master", unit),
        )
        return (batch, rows), len(entries)

    def check(self, output, first):
        batch, rows = output
        problems = row_errors(rows)
        for row in rows:
            if row.error is None and not (row.ber is not None and 0.0 <= row.ber <= 1.0):
                problems.append(f"{row.scheme}: BER {row.ber} outside [0, 1]")
        if first:
            for item in valid_items(batch):
                if parse_formula(to_text(item.report.expr)) != item.report.expr:
                    problems.append(f"round trip changes {item.formula!r}")
        return problems

    def digest(self, output):
        batch, rows = output
        return sha256_json([batch.to_dict(), [row.to_dict() for row in rows]])


class SchemeArtifacts:
    """``modwave eval`` in-process, writing the report and artifact files.

    One scheme per receiver family plus qam16. An odd number of rows per
    pass puts the median inside one scheme's latencies rather than on the
    gap between two.
    """

    name = "scheme_artifacts"
    schemes = ("ook", "qpsk", "qam16", "gmsk", "formula:m2")
    n_symbols = 2_000
    units = 1

    def __init__(self, seed, out_dir):
        self.out_dir = Path(out_dir) / "eval"
        self.config_path = Path(out_dir) / "experiment.json"
        self.config = {
            "master_seed": derive(seed, self.name, "master"),
            "out_dir": str(self.out_dir),
            "scheme_defaults": {"n_symbols": self.n_symbols},
            "channel": {"preset": "multipath"},
        }
        self.config_path.write_text(json.dumps(self.config, indent=2) + "\n")

    def sizes(self):
        return {"schemes": list(self.schemes), "n_symbols": self.n_symbols, "channel": "multipath",
                "master_seed": self.config["master_seed"]}

    def hook_rows(self, patches, clock):
        clock.hook_calls(patches, modwave.cli, "main", ok=lambda code: code == modwave.cli.EXIT_OK)

    def run_pass(self, unit):
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for scheme in self.schemes:
                codes.append(modwave.cli.main(["eval", "--config", str(self.config_path), "--scheme", scheme]))
        return codes, len(self.schemes)

    def check(self, codes, first):
        problems = [f"{s}: exit code {c}" for s, c in zip(self.schemes, codes) if c != modwave.cli.EXIT_OK]
        if problems or not first:
            return problems
        params = MetricsParams()
        n_samples = self.n_symbols * SchemeConfig("qpsk").samples_per_symbol
        frames = 1 + (n_samples - params.spectrogram_fft) // params.spectrogram_hop
        bins = params.spectrogram_fft // 2 + 1
        for scheme in self.schemes:
            stem = self.out_dir / scheme.replace(":", "_")
            psd = read_csv(f"{stem}_psd.csv")
            spectro = read_csv(f"{stem}_spectrogram.csv")
            points = read_csv(f"{stem}_constellation.csv")
            shapes = {
                "psd": (shape(psd), (params.welch_segment // 2 + 2, 2)),
                "spectrogram": (shape(spectro), (bins + 1, frames + 1)),
                "constellation": (shape(points), (self.n_symbols + 1, 2)),
            }
            for kind, (got, want) in shapes.items():
                if got != want:
                    problems.append(f"{scheme}: {kind} CSV has shape {got}, expected {want}")
            freqs = [float(row[0]) for row in psd[1:]]
            total = sum(float(row[1]) for row in psd[1:]) * (freqs[1] - freqs[0])
            # the PSD is taken on the waveform normalized to unit power
            if abs(total - 1.0) > 0.02:
                problems.append(f"{scheme}: Welch PSD integrates to {total:.4f}, not 1 within 2%")
            report = json.loads(Path(f"{stem}_report.json").read_text())["report"]
            if not 0.0 <= report["ber"] <= 1.0:
                problems.append(f"{scheme}: BER {report['ber']} outside [0, 1]")
        return problems

    def digest(self, codes):
        files = sorted(self.out_dir.iterdir())
        return sha256_json({f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files})


def valid_items(batch):
    return [item for item in batch.items if item.classification == CLASS_VALID]


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def shape(rows):
    widths = {len(row) for row in rows}
    return (len(rows), widths.pop() if len(widths) == 1 else sorted(widths))


WORKLOADS = {w.name: w for w in (ReferenceTable, FormulaPipeline, SchemeArtifacts)}


def trace_layers(tracer, patches):
    """Wrap each layer's public functions at the names their callers use."""

    def wrap(owner, attr, name, count=None):
        tracer.wrap(patches, owner, attr, name, count)

    def signal_samples(result, signal, *args, **kwargs):
        return {"samples": len(signal)}

    def written_bytes(result, *args, **kwargs):
        return {"bytes": Path(args[-1]).stat().st_size}

    metrics, synth, cli = modwave.metrics, modwave.synth, modwave.cli
    wrap(synth, "evaluate", "dsl.evaluate", lambda result, expr, ctx, grid: {"samples": len(grid)})
    wrap(synth, "parse_formula", "dsl.parse_formula")
    for module in (modwave.dsl.parser, modwave.dsl.validation):
        wrap(module, "tokenize", "dsl.tokenize")
        wrap(module, "parse", "dsl.parse")
    wrap(modwave.genlab, "validate", "dsl.validate", lambda report, *a, **k: {"valid": int(report.valid)})
    wrap(modwave.genlab, "sample_formula", "genlab.sample_formula")
    wrap(metrics, "modulate", "synth.modulate")
    wrap(metrics, "normalize_power", "synth.normalize_power")
    wrap(metrics, "candidate_bank", "synth.candidate_bank", lambda bank, *a, **k: {"bytes": bank.nbytes})
    wrap(metrics, "apply_channel", "channel.apply_channel", signal_samples)
    wrap(metrics, "welch_psd", "metrics.welch_psd", signal_samples)
    wrap(metrics, "demodulate",
         lambda received, config, *a, **k: f"metrics.demodulate.{receiver_family(config)}")
    wrap(metrics, "spectrogram", "metrics.spectrogram")
    wrap(metrics, "extract_constellation", "metrics.extract_constellation")
    wrap(metrics.PsdEstimate, "write_csv", "metrics.write_artifacts", written_bytes)
    wrap(metrics.Spectrogram, "write_csv", "metrics.write_artifacts", written_bytes)
    wrap(cli, "_points_csv", "metrics.write_artifacts", written_bytes)
    wrap(cli, "_write_json", "metrics.write_artifacts", written_bytes)
    wrap(cli, "load_config", "config.load_config")
