"""Experiment configuration: a single JSON document, checked as it is read.

Each section is read into the dataclass that uses it, and that
dataclass's fields are the section's keys and types: `_build` checks
each value's JSON type as it walks the annotations and names the key
path of a mistake, and the dataclass constructors check the values.
Command-line flags may override the master seed and output directory;
everything else lives in the file so a run is reproducible from its
config alone.
"""

import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from functools import partial
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .channel import CHANNEL_PRESETS, ChannelConfig
from .costmodel import CostInputs
from .dsl.corpus import bundled_corpus_path, bundled_generated_path, load_corpus
from .errors import ConfigError, ModwaveError
from .metrics import MetricsParams
from .synth import SchemeConfig, normalize_scheme_id

_KINDS = {int: "an integer", float: "a number", str: "a string"}


def _optional(annotation) -> tuple[type, bool]:
    """The type inside an `X | None` annotation, and whether None is allowed."""
    args = get_args(annotation)
    if type(None) in args:
        return next(a for a in args if a is not type(None)), True
    return annotation, False


def _build(annotation, value, path: str):
    """A value of the annotated type from JSON, its type checked on the way.

    An integer is a whole number, so 48.0 samples per symbol is the
    integer 48; a number is an int or a float, never a bool, and is cast,
    so a JSON integer gain is a float, and must be finite. null is only
    an `X | None`, a tuple is an array and a dataclass an object
    (`_fields`). A mismatch is a ConfigError that names the key path.
    """
    inner, nullable = _optional(annotation)
    if value is None and nullable:
        return None
    if is_dataclass(inner):
        return _make(inner, _fields(inner, value, path), path)
    number = type(value) in (int, float)  # a bool is no number
    if get_origin(inner) is tuple and isinstance(value, list):
        item = get_args(inner)[0]
        return tuple(_build(item, v, f"{path}[{i}]") for i, v in enumerate(value))
    if inner is str and isinstance(value, str):
        return value
    if inner is int and number and (type(value) is int or value.is_integer()):
        return int(value)
    if inner is float and number:
        try:
            result = float(value)
        except OverflowError:
            raise ConfigError(f"{path}: {value} is beyond the float range") from None
        if not math.isfinite(result):  # json.load reads NaN and Infinity
            raise ConfigError(f"{path} {result} is not a finite number")
        return result
    kind = "an array" if get_origin(inner) is tuple else _KINDS[inner]
    raise _mistyped(path, f"{kind} or null" if nullable else kind, value)


def _mistyped(path: str, kind: str, value) -> ConfigError:
    return ConfigError(f"{path}: expected {kind}, got {json.dumps(value)}")


def _fields(cls, data, path: str, optional=()) -> dict:
    """The checked field values of a dataclass from a JSON object.

    The keys are the fields less `seed`: every seed a run uses is derived
    from the master seed. A field without a default is required unless
    it is named in optional.
    """
    if not isinstance(data, dict):
        raise _mistyped(path, "an object", data)
    keys = {f.name: f for f in fields(cls) if f.name != "seed"}
    for name in data:
        if name not in keys:
            why = "seeds derive from master_seed" if name == "seed" else "unknown key"
            raise ConfigError(f"{path}.{name}: {why}")
    for name, f in keys.items():
        required = f.default is MISSING and f.default_factory is MISSING
        if required and name not in data and name not in optional:
            raise ConfigError(f"{path}.{name}: missing")
    hints = get_type_hints(cls)
    return {name: _build(hints[name], v, f"{path}.{name}") for name, v in data.items()}


def _make(make, values: dict, path: str):
    """make(**values), a value its constructor rejects being a ConfigError."""
    try:
        return make(**values)
    except ModwaveError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


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
        if self.grammar_path and not Path(self.grammar_path).is_file():
            raise ConfigError(f"grammar file not found: {self.grammar_path}")
        if self.temperature <= 0 or self.timeout_s <= 0:
            raise ConfigError("generator temperature and timeout_s must be positive")
        if self.max_tokens < 8 or self.max_depth < 1:
            raise ConfigError("generator max_tokens must be at least 8, max_depth at least 1")


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
        return _build(SchemeConfig, data, name)

    def scheme_configs(self) -> list[SchemeConfig]:
        return [self.scheme_config(s) for s in self.schemes]


def _channel_from(data) -> ChannelConfig:
    """The channel section: its preset, or the default channel, with every
    other key given replacing that field."""
    if not isinstance(data, dict):
        raise _mistyped("channel", "an object", data)
    data = dict(data)
    base = ChannelConfig()
    if "preset" in data:
        preset = _build(str, data.pop("preset"), "channel.preset")
        if preset not in CHANNEL_PRESETS:
            raise ConfigError(
                f"unknown channel preset {preset!r}; available: {sorted(CHANNEL_PRESETS)}"
            )
        base = CHANNEL_PRESETS[preset]
    return _make(partial(replace, base), _fields(ChannelConfig, data, "channel"), "channel")


def load_config(
    path: str | Path,
    seed_override: int | None = None,
    out_override: str | Path | None = None,
) -> ExperimentConfig:
    """Read and check a config file. Every section is checked here, so a
    mistyped or unknown key anywhere is a ConfigError at load; a scheme's
    value ranges are checked when scheme_config builds it."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"no config file at {path}")
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except ValueError as exc:  # bad JSON, bad UTF-8, a number beyond int's digit limit
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise _mistyped("config", "an object", raw)
    known = {f.name for f in fields(ExperimentConfig)}
    for name in raw:
        if name not in known:
            raise ConfigError(f"{name}: unknown key")
    if "master_seed" not in raw:
        raise ConfigError("master_seed: missing")
    master_seed = _build(int, raw["master_seed"], "master_seed")
    if master_seed < 0:
        raise ConfigError(f"master_seed: {master_seed} is negative")
    if seed_override is not None:
        if seed_override < 0:
            raise ConfigError(f"seed override {seed_override} is negative")
        master_seed = int(seed_override)

    schemes = raw.get("schemes", [])
    if not isinstance(schemes, list):
        raise _mistyped("schemes", "an array", schemes)
    for i, entry in enumerate(schemes):
        if isinstance(entry, dict):
            _fields(SchemeConfig, entry, f"schemes[{i}]")
        elif not isinstance(entry, str):
            raise _mistyped(f"schemes[{i}]", "a scheme id or an object", entry)
    defaults = raw.get("scheme_defaults", {})
    _fields(SchemeConfig, defaults, "scheme_defaults", optional={"scheme"})
    if "scheme" in defaults:
        raise ConfigError("scheme_defaults.scheme: a default names no scheme")
    if "cost" in raw:
        # checked but kept as given: cost.json echoes the values
        _fields(CostInputs, raw["cost"], "cost", optional={"n_ops"})

    out_dir = _build(str, raw.get("out_dir", "modwave_out"), "out_dir")
    base_scheme = _build(str, raw.get("base_scheme", "qam16"), "base_scheme")
    corpus = _build(str | None, raw.get("corpus"), "corpus")
    corpus_path = bundled_corpus_path() if corpus is None else Path(corpus)
    if corpus is not None and not corpus_path.is_file():
        raise ConfigError(f"corpus file not found: {corpus_path}")

    return ExperimentConfig(
        master_seed=master_seed,
        corpus=corpus_path,
        out_dir=Path(out_override or out_dir),
        schemes=tuple(schemes),
        scheme_defaults=dict(defaults),
        base_scheme=normalize_scheme_id(base_scheme),
        channel=_channel_from(raw.get("channel", {})),
        metrics=_build(MetricsParams, raw.get("metrics", {}), "metrics"),
        generator=_build(GeneratorSettings, raw.get("generator", {}), "generator"),
        cost=raw.get("cost"),
    )
