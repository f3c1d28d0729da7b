"""Candidate-formula generation and the generate/validate/evaluate loop.

The built-in source is a weighted context-free grammar over the formula
DSL with a temperature knob: alternative probabilities go as
weight^(1/T), so low temperatures lock onto the heaviest derivation and
high temperatures flatten the choice. The grammar carries explicit
error-injection productions (an unbalanced parenthesis, an undefined
symbol, a stray operator) whose relative probability grows with
temperature, which makes the diversity-versus-validity trade-off a
testable property instead of a model artifact.

An external text-generation service can stand in for the grammar through
a small HTTP client; its output feeds the same validation pipeline.
"""

import functools
import json
import re
from collections.abc import Callable
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .channel import ChannelConfig, derive_seed
from .dsl.corpus import CorpusEntry
from .dsl.validation import CLASSES, CLASS_VALID, ValidationReport, classify, validate
from .errors import ConfigError, GenerationSourceError
from .metrics import MetricsParams, MetricsReport, compare
from .synth import SchemeConfig

_PLACEHOLDER = re.compile(r"<([A-Za-z_][A-Za-z0-9_]*)>")
_TOKENISH = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+(?:\.\d+)?|\S")
START = "start"  # the nonterminal every derivation begins from


@dataclass(frozen=True)
class ProductionAlt:
    production: str
    weight: float

    @functools.cached_property
    def nonterminals(self) -> tuple[str, ...]:
        return tuple(_PLACEHOLDER.findall(self.production))

    def depth(self, depths: dict[str, int]) -> int:
        """Expansion levels to finish this alternative, given the levels
        each of its nonterminals needs."""
        if not self.nonterminals:
            return 0
        return 1 + max(depths[r] for r in self.nonterminals)


@dataclass(frozen=True)
class GrammarConfig:
    rules: dict[str, tuple[ProductionAlt, ...]]
    temperature: float = 0.8
    max_tokens: int = 128
    max_depth: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.temperature <= 0:
            raise ConfigError("temperature must be positive")
        if START not in self.rules:
            raise ConfigError(f"start symbol {START!r} has no rule")
        for name, alts in self.rules.items():
            if not alts:
                raise ConfigError(f"nonterminal {name!r} has no alternatives")
            for alt in alts:
                if not 0 < alt.weight < np.inf:  # NaN fails too
                    raise ConfigError(f"weights must be positive and finite ({name!r})")
                for ref in alt.nonterminals:
                    if ref not in self.rules:
                        raise ConfigError(
                            f"production for {name!r} references unknown <{ref}>"
                        )
        unproductive = set(self.rules) - set(self.expansion_depths)
        if unproductive:
            raise ConfigError(
                f"nonterminals cannot finish expanding: {sorted(unproductive)}"
            )

    @functools.cached_property
    def expansion_depths(self) -> dict[str, int]:
        """Fewest expansion levels needed to finish each nonterminal."""
        depths: dict[str, int] = {}
        changed = True
        while changed:
            changed = False
            for name, alts in self.rules.items():
                for alt in alts:
                    if all(ref in depths for ref in alt.nonterminals):
                        cost = alt.depth(depths)
                        if cost < depths.get(name, cost + 1):
                            depths[name] = cost
                            changed = True
        return depths


def _is_alternative(alt) -> bool:
    return (
        isinstance(alt, dict)
        and alt.keys() == {"production", "weight"}
        and isinstance(alt["production"], str)
        and type(alt["weight"]) in (int, float)  # a bool is no number
    )


def load_grammar(path: str | Path | None = None, **overrides) -> GrammarConfig:
    """Load a grammar definition file; None loads the bundled default.

    The file is UTF-8 JSON that maps each nonterminal to an array of
    objects with exactly a string "production" and a number "weight";
    anything else is a ConfigError naming the file and the nonterminal.
    """
    if path is None:
        path = Path(resources.files("modwave") / "data" / "grammar.json")
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise ConfigError(f"grammar file {path} is not UTF-8 JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"grammar file {path} must map nonterminals to alternatives")
    rules = {}
    for name, alts in raw.items():
        if not isinstance(alts, list) or not all(map(_is_alternative, alts)):
            raise ConfigError(
                f"grammar file {path}: {name!r} must be an array of objects with "
                'a string "production" and a number "weight"'
            )
        rules[name] = tuple(ProductionAlt(a["production"], float(a["weight"])) for a in alts)
    return GrammarConfig(rules=rules, **overrides)


def _pick(
    alts: tuple[ProductionAlt, ...], temperature: float, rng: np.random.Generator
) -> ProductionAlt:
    weights = np.array([alt.weight for alt in alts])
    if temperature < 1e-6:
        return alts[int(np.argmax(weights))]
    logits = np.log(weights) / temperature
    logits -= logits.max()
    probs = np.exp(logits)
    probs /= probs.sum()
    return alts[int(rng.choice(len(alts), p=probs))]


def _token_count(text: str) -> int:
    return len(_TOKENISH.findall(text))


def sample_formula(config: GrammarConfig, rng=None) -> str:
    """Draw one formula string from the grammar; deterministic per seed."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    budget = [config.max_tokens]
    depths = config.expansion_depths

    def expand(name: str, depth: int) -> str:
        alts = config.rules[name]
        if depth >= config.max_depth or budget[0] < 24:
            # fall back to the shallowest alternatives so expansion finishes
            best = min(a.depth(depths) for a in alts)
            alts = tuple(a for a in alts if a.depth(depths) == best)
        # expand each name in place, left to right; expanded text is never rescanned
        parts = _PLACEHOLDER.split(_pick(alts, config.temperature, rng).production)
        budget[0] -= _token_count("".join(parts[::2]))
        for i in range(1, len(parts), 2):
            parts[i] = expand(parts[i], depth + 1)
        return "".join(parts)

    text = expand(START, 0)
    return re.sub(r"\s+", " ", text).strip()


@dataclass
class GeneratedItem:
    index: int
    formula: str | None
    classification: str | None
    report: ValidationReport | None = None
    source_error: str | None = None

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "formula": self.formula,
            "classification": self.classification,
            "report": None if self.report is None else self.report.to_dict(),
            "source_error": self.source_error,
        }


@dataclass
class GenerationBatchReport:
    total: int
    valid: int
    class_counts: dict[str, int]
    items: list[GeneratedItem]
    temperature: float | None
    seed: int | None
    source_errors: int = 0

    @property
    def valid_fraction(self) -> float:
        return self.valid / self.total if self.total else 0.0

    def valid_entries(self) -> list[CorpusEntry]:
        """The valid formulas as corpus entries g<index>, named G<index>."""
        return [
            CorpusEntry(f"g{item.index}", f"G{item.index}", item.formula)
            for item in self.items
            if item.classification == CLASS_VALID
        ]

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "valid": self.valid,
            "valid_fraction": self.valid_fraction,
            "class_counts": dict(self.class_counts),
            "source_errors": self.source_errors,
            "temperature": self.temperature,
            "seed": self.seed,
            "items": [item.to_dict() for item in self.items],
        }


def _batch_report(
    n: int,
    text_at: Callable[[int], str],
    temperature: float | None = None,
    seed: int | None = None,
) -> GenerationBatchReport:
    """Validate and classify text_at(index) for each of n items.

    A GenerationSourceError from text_at is recorded on its item, and the
    batch goes on.
    """
    items = []
    for index in range(n):
        try:
            text = text_at(index)
        except GenerationSourceError as exc:
            items.append(GeneratedItem(index, None, None, source_error=str(exc)))
            continue
        report = validate(text)
        items.append(GeneratedItem(index, text, classify(report), report))
    counts = {name: 0 for name in CLASSES}
    for item in items:
        if item.classification is not None:
            counts[item.classification] += 1
    return GenerationBatchReport(
        total=n,
        valid=counts[CLASS_VALID],
        class_counts=counts,
        items=items,
        temperature=temperature,
        seed=seed,
        source_errors=sum(item.source_error is not None for item in items),
    )


def generate_batch(n: int, config: GrammarConfig) -> GenerationBatchReport:
    """Sample, validate and classify n formulas from the grammar."""
    if n < 0:
        raise ConfigError("batch size must be non-negative")

    def sample(index: int) -> str:
        rng = np.random.default_rng(derive_seed(config.seed, index))
        return sample_formula(config, rng=rng)

    return _batch_report(n, sample, config.temperature, config.seed)


# ---------------------------------------------------------------------------
# external generation service


# The HTTP modules are imported where they are used: through them urllib
# loads ssl, email and calendar, which only external generation needs, so
# `import modwave` stays without them.


def _is_http_url(url: str) -> bool:
    import urllib.parse

    try:
        parts = urllib.parse.urlsplit(url)
    except ValueError:
        return False
    return parts.scheme in ("http", "https") and bool(parts.hostname)


def external_generate(
    endpoint: str,
    prompt: str,
    temperature: float = 0.8,
    max_tokens: int = 128,
    timeout: float = 5.0,
) -> str:
    """POST {prompt, temperature, max_tokens}, expect {"text": ...}.

    One retry on transport errors or 5xx replies; every failure surfaces
    as GenerationSourceError so batch runs can isolate it. Only http and
    https URLs are opened: any other endpoint, such as a file: URL, is a
    network error and is never read, and so is a redirect to one.
    """
    import http.client
    import urllib.error
    import urllib.request

    class HttpRedirects(urllib.request.HTTPRedirectHandler):
        """Follow redirects to http(s) URLs only; urllib would also open ftp:."""

        def redirect_request(self, req, fp, code, msg, headers, newurl):
            if not _is_http_url(newurl):
                fp.close()
                raise urllib.error.URLError(f"redirect to {newurl!r} refused")
            return super().redirect_request(req, fp, code, msg, headers, newurl)

    if not _is_http_url(endpoint):
        raise GenerationSourceError(
            "network", f"endpoint is not an http(s) URL with a host: {endpoint!r}"
        )
    payload = {"prompt": prompt, "temperature": temperature, "max_tokens": max_tokens}
    request = urllib.request.Request(
        endpoint,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    opener = urllib.request.build_opener(HttpRedirects)
    last: Exception | None = None
    for _attempt in range(2):
        try:
            with opener.open(request, timeout=timeout) as response:
                status, content = response.status, response.read()
        except urllib.error.HTTPError as exc:  # a reply; also an OSError, so caught first
            status, content = exc.code, b""
            exc.close()
        except (OSError, http.client.HTTPException) as exc:
            last = exc
            continue
        if 500 <= status < 600:
            last = GenerationSourceError("status", f"server returned {status}")
            continue
        if status != 200:
            raise GenerationSourceError("status", f"server returned {status}")
        try:
            body = json.loads(content)
        except ValueError as exc:
            raise GenerationSourceError(
                "malformed-response", f"reply is not JSON: {exc}"
            ) from exc
        text = body.get("text") if isinstance(body, dict) else None
        if not isinstance(text, str):
            raise GenerationSourceError(
                "malformed-response", "reply JSON lacks a string 'text' field"
            )
        return text
    if isinstance(last, GenerationSourceError):
        raise last
    raise GenerationSourceError("network", f"endpoint unreachable: {last}")


def generate_batch_external(
    n: int,
    endpoint: str,
    prompts: list[str],
    temperature: float = 0.8,
    max_tokens: int = 128,
    timeout: float = 5.0,
) -> GenerationBatchReport:
    """Batch generation through the HTTP client.

    Per-call failures are recorded on their item; collected results are
    never discarded because a later call failed.
    """
    if not prompts:
        raise ConfigError("external generation needs at least one prompt")

    def fetch(index: int) -> str:
        return external_generate(
            endpoint,
            prompts[index % len(prompts)],
            temperature=temperature,
            max_tokens=max_tokens,
            timeout=timeout,
        )

    return _batch_report(n, fetch, temperature)


# ---------------------------------------------------------------------------
# generate -> validate -> evaluate pipeline


def formula_rows(
    entries: list[CorpusEntry],
    channel: ChannelConfig,
    base_config: SchemeConfig,
    params: MetricsParams = MetricsParams(),
    master_seed: int = 0,
) -> list[MetricsReport]:
    """The metric rows of formula entries, already known to be valid.

    Each row runs `base_config` with the entry's formula under the scheme
    name formula:<id>, and the rows are seeded as one compare.
    """
    configs = [
        replace(base_config, scheme=f"formula:{entry.id}", formula_text=entry.formula)
        for entry in entries
    ]
    return compare(configs, channel, params=params, master_seed=master_seed)


def pipeline_run(
    entries: list[CorpusEntry],
    n: int,
    channel: ChannelConfig,
    base_config: SchemeConfig,
    params: MetricsParams = MetricsParams(),
    master_seed: int = 0,
) -> tuple[list[MetricsReport], GenerationBatchReport]:
    """Validate the first n entries and push the valid ones through
    synthesis, channel and metrics.

    Returns the metric rows of the valid entries and the batch report
    covering all n.
    """
    if not 0 <= n <= len(entries):
        raise ConfigError(f"n = {n} is outside 0..{len(entries)}, the entry count")
    batch = _batch_report(n, lambda i: entries[i].formula)
    valid = [entries[item.index] for item in batch.items if item.classification == CLASS_VALID]
    return formula_rows(valid, channel, base_config, params, master_seed), batch
