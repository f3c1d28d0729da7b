"""Command-line entry point.

    modwave validate --corpus formulas.csv [--json out.json]
    modwave eval     --config exp.json --scheme qpsk [--out DIR] [--seed N]
    modwave compare  --config exp.json [--out DIR] [--seed N]
    modwave generate --config exp.json -n 20 [--evaluate] [--out DIR] [--seed N]
    modwave cost     --config exp.json [--formula ID] [--out DIR]

Exit codes: 0 success, 1 validation failures, 2 configuration errors,
3 external-source errors. The MODWAVE_GEN_ENDPOINT environment variable
overrides the configured generation endpoint.
"""

import argparse
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import genlab
from .config import load_config
from .costmodel import CostInputs, latency, ops_for_waveform, power
from .dsl.corpus import bundled_corpus_path, load_corpus, write_corpus, CorpusEntry
from .dsl.validation import CLASS_VALID, validate
from .errors import ConfigError, CorpusError, GenerationSourceError, ModwaveError
from .metrics import (
    compare,
    run_scheme,
    seed_row,
    write_comparison_csv,
    write_comparison_json,
)
from .synth import normalize_scheme_id, write_json as _write_json, write_table

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_EXTERNAL = 3


def _points_csv(points: np.ndarray, path: Path) -> None:
    rows = zip(points.real.tolist(), points.imag.tolist())
    write_table(path, "i,q", "%.10g,%.10g", rows, newline="\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    corpus_path = Path(args.corpus) if args.corpus else bundled_corpus_path()
    try:
        entries = load_corpus(corpus_path)
    except (FileNotFoundError, CorpusError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    reports = []
    all_syntactic = True
    for entry in entries:
        report = validate(entry.formula)
        reports.append((entry, report))
        if report.syntactic_ok:
            flags = ", ".join(f.kind for f in report.semantic_flags)
            status = "ok" if not flags else f"ok (flags: {flags})"
        else:
            all_syntactic = False
            status = f"syntax error: {report.error_messages[0]}"
        print(f"{entry.id:>12}  {entry.name:<8} {status}")

    syntactic = sum(1 for _, report in reports if report.syntactic_ok)
    print(f"{syntactic}/{len(reports)} syntactically valid")

    if args.json:
        payload = {
            "corpus": str(corpus_path),
            "total": len(reports),
            "syntactically_valid": syntactic,
            "reports": {
                entry.id: report.to_dict() for entry, report in reports
            },
        }
        _write_json(payload, Path(args.json))
    return EXIT_OK if all_syntactic else EXIT_VALIDATION


def cmd_eval(args) -> int:
    config = load_config(args.config, args.seed, args.out)
    # the config's own object for this scheme first, as compare runs it
    wanted = normalize_scheme_id(args.scheme)
    entry = next((s for s in config.schemes if isinstance(s, dict)
                  and normalize_scheme_id(s["scheme"]) == wanted), args.scheme)
    scheme_cfg, channel = seed_row(
        config.scheme_config(entry), config.channel, config.master_seed
    )
    artifacts = run_scheme(scheme_cfg, channel, config.metrics, collect=True)
    report = artifacts.report
    if report.error:  # a DemodulationError: the same line and exit as a raise
        print(f"error: {report.error.partition(': ')[2]}", file=sys.stderr)
        return EXIT_VALIDATION
    out_dir = config.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = report.scheme.replace(":", "_")
    payload = {
        "report": report.to_dict(),
        "master_seed": config.master_seed,
        "channel": asdict(channel),
    }
    _write_json(payload, out_dir / f"{stem}_report.json")
    artifacts.psd.write_csv(out_dir / f"{stem}_psd.csv")
    artifacts.spectro.write_csv(out_dir / f"{stem}_spectrogram.csv")
    if artifacts.points is not None:
        _points_csv(artifacts.points, out_dir / f"{stem}_constellation.csv")

    ber_s = "n/a" if report.ber is None else f"{report.ber:.6f}"
    print(f"{report.scheme}: snr {report.snr_db:.2f} dB, ber {ber_s}")
    print(f"artifacts written to {out_dir}")
    return EXIT_OK


def cmd_compare(args) -> int:
    config = load_config(args.config, args.seed, args.out)
    if len(config.schemes) < 2:
        print("error: compare needs at least two schemes", file=sys.stderr)
        return EXIT_CONFIG
    rows = compare(
        config.scheme_configs(), config.channel, params=config.metrics,
        master_seed=config.master_seed,
    )
    out_dir = config.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    write_comparison_csv(rows, out_dir / "comparison.csv")
    write_comparison_json(rows, out_dir / "comparison.json")
    width = max(len(r.scheme) for r in rows)
    for row in rows:
        if row.error:
            print(f"{row.scheme:<{width}}  error: {row.error}")
            continue
        ber_s = "n/a" if row.ber is None else f"{row.ber:.6f}"
        print(f"{row.scheme:<{width}}  snr {row.snr_db:7.2f} dB  ber {ber_s}")
    print(f"table written to {out_dir}")
    return EXIT_OK


def cmd_generate(args) -> int:
    config = load_config(args.config, args.seed, args.out)
    settings = config.generator
    endpoint = os.environ.get("MODWAVE_GEN_ENDPOINT") or settings.endpoint
    out_dir = config.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)

    if settings.kind == "external" or (
        endpoint and os.environ.get("MODWAVE_GEN_ENDPOINT")
    ):
        prompts = [e.formula for e in load_corpus(config.corpus)]
        batch = genlab.generate_batch_external(
            args.n,
            endpoint,
            prompts,
            temperature=settings.temperature,
            max_tokens=settings.max_tokens,
            timeout=settings.timeout_s,
        )
    else:
        grammar = genlab.load_grammar(
            settings.grammar_path,
            temperature=settings.temperature,
            max_tokens=settings.max_tokens,
            max_depth=settings.max_depth,
            seed=config.master_seed,
        )
        batch = genlab.generate_batch(args.n, grammar)

    _write_json(batch.to_dict(), out_dir / "generation_report.json")
    valid_entries = [
        CorpusEntry(f"g{item.index}", f"G{item.index}", item.formula)
        for item in batch.items
        if item.classification == CLASS_VALID
    ]
    write_corpus(out_dir / "generated_corpus.csv", valid_entries)
    print(
        f"generated {batch.total}, valid {batch.valid}, "
        f"source errors {batch.source_errors}"
    )
    for name, count in sorted(batch.class_counts.items()):
        print(f"  {name}: {count}")

    if args.evaluate and valid_entries:
        configs = [
            config.scheme_config({"scheme": f"formula:{e.id}", "formula_text": e.formula})
            for e in valid_entries
        ]
        rows = compare(
            configs, config.channel, params=config.metrics,
            master_seed=config.master_seed,
        )
        write_comparison_csv(rows, out_dir / "generated_metrics.csv")
        write_comparison_json(rows, out_dir / "generated_metrics.json")
        print(f"evaluated {len(rows)} valid formulas")

    if batch.source_errors:
        return EXIT_EXTERNAL
    return EXIT_OK


def cmd_cost(args) -> int:
    config = load_config(args.config, args.seed, args.out)
    if config.cost is None:
        print("error: config has no cost section", file=sys.stderr)
        return EXIT_CONFIG
    fields = dict(config.cost)

    derived = None
    if args.formula:
        scheme_cfg = config.scheme_config(f"formula:{args.formula}")
        fields["n_ops"] = float(ops_for_waveform(scheme_cfg.formula, scheme_cfg.n_samples))
        derived = {
            "formula": args.formula,
            "n_samples": scheme_cfg.n_samples,
            "ops_per_sample": fields["n_ops"] / scheme_cfg.n_samples,
        }
    if "n_ops" not in fields:
        print("error: cost.n_ops missing and no --formula given", file=sys.stderr)
        return EXIT_CONFIG

    inputs = CostInputs(**fields)
    lat, pwr = latency(inputs), power(inputs)
    payload = {
        "inputs": {k: getattr(inputs, k) for k in fields},
        "latency": asdict(lat),
        "power": asdict(pwr),
    }
    if derived:
        payload["derived"] = derived
    out_dir = config.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(payload, out_dir / "cost.json")
    print(
        f"latency total {lat.total_s:.6g} s, power total {pwr.total_w:.6g} W"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modwave",
        description="Modulation workbench: validate, synthesize, impair, measure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate a formula corpus")
    p_validate.add_argument(
        "--corpus", default=None, help="corpus CSV (default: bundled)"
    )
    p_validate.add_argument("--json", default=None, help="write a JSON summary here")

    for name, fn in (
        ("eval", cmd_eval),
        ("compare", cmd_compare),
        ("generate", cmd_generate),
        ("cost", cmd_cost),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", default=None, help="output directory override")
        if name == "eval":
            p.add_argument("--scheme", required=True, help="scheme id to evaluate")
        if name == "generate":
            p.add_argument("-n", type=int, default=20, help="batch size")
            p.add_argument(
                "--evaluate",
                action="store_true",
                help="run metrics on the valid formulas",
            )
        if name == "cost":
            p.add_argument(
                "--formula",
                default=None,
                help="derive n_ops from this corpus formula id",
            )
        p.set_defaults(handler=fn)
    p_validate.set_defaults(handler=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GenerationSourceError as exc:
        print(f"generation source error: {exc}", file=sys.stderr)
        return EXIT_EXTERNAL
    except ModwaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
