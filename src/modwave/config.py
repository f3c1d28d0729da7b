"""Experiment configuration: a single schema-validated JSON document.

Command-line flags may override the master seed and output directory;
everything else lives in the file so a run is reproducible from its
config alone.
"""

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import jsonschema

from .channel import CHANNEL_PRESETS, ChannelConfig
from .dsl.corpus import bundled_corpus_path, bundled_generated_path, load_corpus
from .errors import ConfigError, SignalError
from .metrics import MetricsParams
from .synth import SchemeConfig, normalize_scheme_id

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["master_seed"],
    "additionalProperties": False,
    "properties": {
        "master_seed": {"type": "integer", "minimum": 0},
        "corpus": {"type": ["string", "null"]},
        "out_dir": {"type": "string"},
        "schemes": {
            "type": "array",
            "items": {
                "oneOf": [
                    {"type": "string"},
                    {
                        "type": "object",
                        "required": ["scheme"],
                        "properties": {"scheme": {"type": "string"}},
                        "additionalProperties": True,
                    },
                ]
            },
        },
        "scheme_defaults": {"type": "object"},
        "base_scheme": {"type": "string"},
        "channel": {
            "type": "object",
            "properties": {
                "preset": {"type": "string"},
                "target_snr_db": {"type": ["number", "null"]},
                "taps": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["delay_samples", "gain"],
                        "properties": {
                            "delay_samples": {"type": "integer", "minimum": 0},
                            "gain": {"type": "number"},
                            "phase": {"type": "number"},
                        },
                    },
                },
                "fading": {
                    "type": ["object", "null"],
                    "properties": {
                        "block_length_samples": {"type": "integer", "minimum": 1},
                        "sigma": {"type": "number", "exclusiveMinimum": 0},
                    },
                },
                "seed": {"type": "integer"},
            },
            "additionalProperties": False,
        },
        "metrics": {
            "type": "object",
            "properties": {
                "welch_segment": {"type": "integer", "minimum": 8},
                "welch_overlap": {"type": "number", "minimum": 0, "maximum": 0.9},
                "welch_window": {"type": "string"},
                "obw_fraction": {
                    "type": "number",
                    "exclusiveMinimum": 0,
                    "exclusiveMaximum": 1,
                },
                "spectrogram_fft": {"type": "integer", "minimum": 8},
                "spectrogram_hop": {"type": "integer", "minimum": 1},
            },
            "additionalProperties": False,
        },
        "generator": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["grammar", "external"]},
                "grammar_path": {"type": ["string", "null"]},
                "endpoint": {"type": ["string", "null"]},
                "temperature": {"type": "number", "exclusiveMinimum": 0},
                "max_tokens": {"type": "integer", "minimum": 8},
                "max_depth": {"type": "integer", "minimum": 1},
                "timeout_s": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "cost": {
            "type": "object",
            "properties": {
                "n_ops": {"type": "number"},
                "f_cpu": {"type": "number"},
                "data_bits": {"type": "number"},
                "bandwidth_bps": {"type": "number"},
                "queue_delay_s": {"type": "number"},
                "alpha": {"type": "number"},
                "voltage": {"type": "number"},
                "transmit_power_w": {"type": "number"},
                "amplifier_efficiency": {"type": "number"},
                "idle_power_w": {"type": "number"},
            },
            "additionalProperties": False,
        },
    },
}

_SCHEME_FIELDS = {f.name for f in fields(SchemeConfig)} - {"scheme"}


@dataclass(frozen=True)
class GeneratorSettings:
    kind: str = "grammar"
    grammar_path: str | None = None
    endpoint: str | None = None
    temperature: float = 0.8
    max_tokens: int = 128
    max_depth: int = 10
    timeout_s: float = 5.0


def _lookup_formula(corpus: Path, ident: str) -> str:
    """Find a formula by id in the corpus, falling back to the bundled
    machine-generated fixture."""
    entries = {e.id.lower(): e for e in load_corpus(corpus)}
    for e in load_corpus(bundled_generated_path()):
        entries.setdefault(e.id.lower(), e)
    key = ident.lower()
    if key not in entries:
        raise ConfigError(f"formula id {ident!r} not found in any corpus")
    return entries[key].formula


@dataclass(frozen=True)
class ExperimentConfig:
    master_seed: int
    corpus: Path
    out_dir: Path
    schemes: tuple = ()
    scheme_defaults: dict = field(default_factory=dict)
    base_scheme: str = "qam16"
    channel: ChannelConfig = ChannelConfig()
    metrics: MetricsParams = MetricsParams()
    generator: GeneratorSettings = GeneratorSettings()
    cost: dict | None = None

    def scheme_config(self, scheme: str | dict, **extra) -> SchemeConfig:
        """Build one SchemeConfig from defaults plus per-scheme overrides.

        A "formula:<id>" scheme given without formula_text takes the text
        of that id from the corpus.
        """
        fields = dict(self.scheme_defaults)
        if isinstance(scheme, dict):
            fields.update(scheme)
            name = fields.pop("scheme")
        else:
            name = scheme
        fields.update(extra)
        unknown = set(fields) - _SCHEME_FIELDS
        if unknown:
            raise ConfigError(f"unknown scheme fields: {sorted(unknown)}")
        fields.setdefault("base_scheme", self.base_scheme)
        if name.startswith("formula:") and "formula_text" not in fields:
            fields["formula_text"] = _lookup_formula(self.corpus, name.split(":", 1)[1])
        try:
            return SchemeConfig(scheme=name, **fields)
        except SignalError as exc:
            raise ConfigError(str(exc)) from exc

    def scheme_configs(self) -> list[SchemeConfig]:
        return [self.scheme_config(s) for s in self.schemes]


def _channel_from(data: dict | None) -> ChannelConfig:
    if not data:
        return ChannelConfig()
    data = dict(data)
    preset_name = data.pop("preset", None)
    if preset_name is not None:
        if preset_name not in CHANNEL_PRESETS:
            raise ConfigError(
                f"unknown channel preset {preset_name!r}; "
                f"available: {sorted(CHANNEL_PRESETS)}"
            )
        preset = CHANNEL_PRESETS[preset_name]
        if "target_snr_db" in data:
            preset = replace(preset, target_snr_db=data["target_snr_db"])
        if "seed" in data:
            preset = replace(preset, seed=int(data["seed"]))
        return preset
    return ChannelConfig.from_dict(data)


def load_config(
    path: str | Path,
    seed_override: int | None = None,
    out_override: str | Path | None = None,
) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    try:
        jsonschema.validate(raw, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config fails schema validation: {exc.message}") from exc

    corpus = raw.get("corpus")
    corpus_path = bundled_corpus_path() if corpus is None else Path(corpus)
    if corpus is not None and not corpus_path.exists():
        raise ConfigError(f"corpus file not found: {corpus_path}")

    generator = GeneratorSettings(**raw.get("generator", {}))
    if generator.kind == "external" and not generator.endpoint:
        raise ConfigError("external generator configured without an endpoint")
    if generator.grammar_path and not Path(generator.grammar_path).exists():
        raise ConfigError(f"grammar file not found: {generator.grammar_path}")

    return ExperimentConfig(
        master_seed=int(
            raw["master_seed"] if seed_override is None else seed_override
        ),
        corpus=corpus_path,
        out_dir=Path(out_override or raw.get("out_dir", "modwave_out")),
        schemes=tuple(raw.get("schemes", ())),
        scheme_defaults=dict(raw.get("scheme_defaults", {})),
        base_scheme=normalize_scheme_id(raw.get("base_scheme", "qam16")),
        channel=_channel_from(raw.get("channel")),
        metrics=MetricsParams(**raw.get("metrics", {})),
        generator=generator,
        cost=raw.get("cost"),
    )
