"""Experiment configuration: a single schema-validated JSON document.

Each section's schema is derived from the fields of the dataclass that
reads it, and the dataclass constructors check the values.
Command-line flags may override the master seed and output directory;
everything else lives in the file so a run is reproducible from its
config alone.
"""

import functools
import json
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .channel import CHANNEL_PRESETS, ChannelConfig
from .costmodel import CostInputs
from .dsl.corpus import bundled_corpus_path, bundled_generated_path, load_corpus
from .errors import ConfigError, ModwaveError
from .metrics import MetricsParams
from .synth import SchemeConfig, normalize_scheme_id

_JSON_TYPES = {int: "integer", float: "number", str: "string"}


def _optional(annotation) -> tuple[type, bool]:
    """The type inside an `X | None` annotation, and whether None is allowed."""
    args = get_args(annotation)
    if type(None) in args:
        return next(a for a in args if a is not type(None)), True
    return annotation, False


def _schema(annotation) -> dict:
    """The JSON Schema of one field annotation: a scalar, `X | None`,
    `tuple[D, ...]` or a dataclass, whose fields without defaults are
    required. A dataclass's `seed` field is no key: every seed a run uses
    is derived from the master seed."""
    inner, nullable = _optional(annotation)
    if is_dataclass(inner):
        hints = get_type_hints(inner)
        keys = [f for f in fields(inner) if f.name != "seed"]
        schema = {
            "type": "object",
            "properties": {f.name: _schema(hints[f.name]) for f in keys},
            "required": [
                f.name for f in keys
                if f.default is MISSING and f.default_factory is MISSING
            ],
            "additionalProperties": False,
        }
    elif get_origin(inner) is tuple:
        schema = {"type": "array", "items": _schema(get_args(inner)[0])}
    else:
        schema = {"type": _JSON_TYPES[inner]}
    if nullable:
        schema["type"] = [schema["type"], "null"]
    return schema


def _build(annotation, data):
    """A value of the annotated type from schema-valid JSON.

    Dataclasses are built field by field, nested ones included, and int
    and float fields are cast, so 48.0 samples per symbol is the integer
    48 and a JSON integer gain is a float. The constructors check the
    values; an error from one is a ConfigError.
    """
    if data is None:
        return None
    inner, _ = _optional(annotation)
    if get_origin(inner) is tuple:
        return tuple(_build(get_args(inner)[0], item) for item in data)
    if inner in (int, float):
        return inner(data)
    if not is_dataclass(inner):
        return data
    hints = get_type_hints(inner)
    values = {name: _build(hints[name], value) for name, value in data.items()}
    try:
        return inner(**values)
    except ModwaveError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class GeneratorSettings:
    kind: str = "grammar"
    grammar_path: str | None = None
    endpoint: str | None = None
    temperature: float = 0.8
    max_tokens: int = 128
    max_depth: int = 10
    timeout_s: float = 5.0

    def __post_init__(self):
        if self.kind not in ("grammar", "external"):
            raise ConfigError(f"generator kind {self.kind!r} is not grammar or external")
        if self.kind == "external" and not self.endpoint:
            raise ConfigError("external generator configured without an endpoint")
        if self.grammar_path and not Path(self.grammar_path).exists():
            raise ConfigError(f"grammar file not found: {self.grammar_path}")
        if self.temperature <= 0 or self.timeout_s <= 0:
            raise ConfigError("generator temperature and timeout_s must be positive")
        if self.max_tokens < 8 or self.max_depth < 1:
            raise ConfigError("generator max_tokens must be at least 8, max_depth at least 1")


_SCHEME = _schema(SchemeConfig)
_CHANNEL = _schema(ChannelConfig)
_COST = _schema(CostInputs)

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["master_seed"],
    "additionalProperties": False,
    "properties": {
        "master_seed": {"type": "integer", "minimum": 0},
        "corpus": {"type": ["string", "null"]},
        "out_dir": {"type": "string"},
        "schemes": {"type": "array", "items": {"oneOf": [{"type": "string"}, _SCHEME]}},
        # every scheme field but the scheme id, none required
        "scheme_defaults": {
            **_SCHEME,
            "properties": {k: v for k, v in _SCHEME["properties"].items() if k != "scheme"},
            "required": [],
        },
        "base_scheme": {"type": "string"},
        # a preset is the base that the other channel keys override
        "channel": {
            **_CHANNEL,
            "properties": {"preset": {"type": "string"}, **_CHANNEL["properties"]},
        },
        "metrics": _schema(MetricsParams),
        "generator": _schema(GeneratorSettings),
        # --formula can supply n_ops
        "cost": {**_COST, "required": [n for n in _COST["required"] if n != "n_ops"]},
    },
}


@functools.cache
def _validator():
    """The schema's validator, built at the first config load: importing
    jsonschema takes about a quarter of `import modwave`, and only a load
    needs it."""
    import jsonschema

    return jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


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

    def scheme_config(self, scheme: str | dict) -> SchemeConfig:
        """Build one SchemeConfig from defaults plus per-scheme overrides.

        A "formula:<id>" scheme given without formula_text takes the text
        of that id from the corpus.
        """
        data = {"base_scheme": self.base_scheme, **self.scheme_defaults}
        data.update(scheme if isinstance(scheme, dict) else {"scheme": scheme})
        name = data["scheme"]
        if name.startswith("formula:") and "formula_text" not in data:
            data["formula_text"] = _lookup_formula(self.corpus, name.split(":", 1)[1])
        return _build(SchemeConfig, data)

    def scheme_configs(self) -> list[SchemeConfig]:
        return [self.scheme_config(s) for s in self.schemes]


def _channel_from(data: dict) -> ChannelConfig:
    """The channel section: its preset, or the default channel, with every
    other key given overriding it."""
    data = dict(data)
    preset = data.pop("preset", None)
    if preset is not None and preset not in CHANNEL_PRESETS:
        raise ConfigError(
            f"unknown channel preset {preset!r}; available: {sorted(CHANNEL_PRESETS)}"
        )
    base = ChannelConfig() if preset is None else CHANNEL_PRESETS[preset]
    return _build(ChannelConfig, {**asdict(base), **data})


def load_config(
    path: str | Path,
    seed_override: int | None = None,
    out_override: str | Path | None = None,
) -> ExperimentConfig:
    from jsonschema.exceptions import best_match

    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    error = best_match(_validator().iter_errors(raw))
    if error is not None:
        raise ConfigError(f"config fails schema validation: {error.message}")

    corpus = raw.get("corpus")
    corpus_path = bundled_corpus_path() if corpus is None else Path(corpus)
    if corpus is not None and not corpus_path.exists():
        raise ConfigError(f"corpus file not found: {corpus_path}")

    return ExperimentConfig(
        master_seed=int(
            raw["master_seed"] if seed_override is None else seed_override
        ),
        corpus=corpus_path,
        out_dir=Path(out_override or raw.get("out_dir", "modwave_out")),
        schemes=tuple(raw.get("schemes", ())),
        scheme_defaults=dict(raw.get("scheme_defaults", {})),
        base_scheme=normalize_scheme_id(raw.get("base_scheme", "qam16")),
        channel=_channel_from(raw.get("channel", {})),
        metrics=_build(MetricsParams, raw.get("metrics", {})),
        generator=_build(GeneratorSettings, raw.get("generator", {})),
        cost=raw.get("cost"),
    )
