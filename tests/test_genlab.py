import json
import re
import threading
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import numpy as np
import pytest

from modwave.channel import ChannelConfig
from modwave.dsl import (
    CLASSES,
    CLASS_VALID,
    CorpusEntry,
    bundled_generated_path,
    load_corpus,
    validate,
)
from modwave import genlab
from modwave.errors import ConfigError, GenerationSourceError
from modwave.genlab import (
    GrammarConfig,
    ProductionAlt,
    external_generate,
    generate_batch,
    generate_batch_external,
    load_grammar,
    pipeline_run,
    sample_formula,
)
from modwave.synth import SchemeConfig

from conftest import MALFORMED_GRAMMARS


@pytest.fixture(scope="module")
def grammar():
    return load_grammar()


def oracle_sample_formula(config, rng):
    """The splicing sampler: each expansion spliced into the production,
    which is then searched again from its start. On a grammar whose text
    spells no placeholder it draws what sample_formula draws."""
    budget = [config.max_tokens]
    depths = config.expansion_depths

    def expand(name, depth):
        alts = config.rules[name]
        if depth >= config.max_depth or budget[0] < 24:
            best = min(a.depth(depths) for a in alts)
            alts = tuple(a for a in alts if a.depth(depths) == best)
        out = genlab._pick(alts, config.temperature, rng).production
        budget[0] -= genlab._token_count(genlab._PLACEHOLDER.sub("", out))
        while (match := genlab._PLACEHOLDER.search(out)) is not None:
            out = out[: match.start()] + expand(match.group(1), depth + 1) + out[match.end() :]
        return out

    return re.sub(r"\s+", " ", expand(genlab.START, 0)).strip()


def write_grammar(path, rules) -> Path:
    path.write_text(json.dumps(
        {name: [{"production": p, "weight": w} for p, w in alts] for name, alts in rules.items()}
    ))
    return path


class TestSampling:
    def test_argmax_limit_is_seed_independent(self, grammar):
        texts = {
            sample_formula(replace(grammar, temperature=1e-7, seed=s))
            for s in range(8)
        }
        assert len(texts) == 1
        only = texts.pop()
        assert validate(only).valid

    def test_deterministic_per_seed(self, grammar):
        cfg = replace(grammar, temperature=0.8, seed=7)
        assert sample_formula(cfg) == sample_formula(cfg)

    def test_every_sample_classifies(self, grammar):
        batch = generate_batch(1000, replace(grammar, temperature=0.8, seed=123))
        assert batch.total == 1000
        assert sum(batch.class_counts.values()) == 1000
        assert set(batch.class_counts) == set(CLASSES)
        # at this temperature every injected error class shows up
        assert batch.class_counts["unbalanced-parenthesis"] > 0
        assert batch.class_counts["undefined-symbol"] > 0
        assert batch.class_counts["other-syntax"] > 0

    def test_samples_respect_token_limit(self, grammar):
        from modwave.dsl import tokenize
        from modwave.errors import LexicalError

        deep = replace(grammar, temperature=2.0, seed=11, max_depth=30)
        for index in range(200):
            text = sample_formula(replace(deep, seed=index))
            try:
                tokens = tokenize(text)
            except LexicalError:
                continue  # injected lexical garbage is fine, length is not
            assert len([t for t in tokens if not t.implicit]) <= deep.max_tokens

    def test_grammar_validation(self):
        with pytest.raises(ConfigError):
            GrammarConfig(rules={"start": ()})
        with pytest.raises(ConfigError):
            GrammarConfig(
                rules={"start": (ProductionAlt("<loop>", 1.0),),
                       "loop": (ProductionAlt("<loop>", 1.0),)}
            )
        with pytest.raises(ConfigError):
            GrammarConfig(
                rules={"start": (ProductionAlt("<missing>", 1.0),)}
            )
        for weight in (0.0, np.nan, np.inf):
            with pytest.raises(ConfigError, match="positive and finite"):
                GrammarConfig(rules={"start": (ProductionAlt("A", weight),)})
        with pytest.raises(ConfigError, match="start symbol"):
            GrammarConfig(rules={"begin": (ProductionAlt("A", 1.0),)})

    @pytest.mark.parametrize("kind", list(MALFORMED_GRAMMARS))
    def test_malformed_grammar_file_is_a_config_error(self, tmp_path, kind):
        path = tmp_path / "grammar.json"
        path.write_bytes(MALFORMED_GRAMMARS[kind])
        with pytest.raises(ConfigError) as caught:
            load_grammar(path)
        message = str(caught.value)
        assert message.startswith(f"grammar file {path}")
        if kind not in ("not-json", "not-utf8"):
            assert "'tail'" in message

    @pytest.mark.parametrize("temperature", [1e-7, 0.3, 0.8, 1.5, 3.0])
    def test_draws_equal_the_splicing_sampler(self, grammar, temperature):
        for seed in range(40):
            for tokens, depth in [(8, 1), (128, 10), (512, 30)]:
                cfg = replace(grammar, temperature=temperature, max_tokens=tokens, max_depth=depth)
                expected = oracle_sample_formula(cfg, np.random.default_rng(seed))
                assert sample_formula(cfg, np.random.default_rng(seed)) == expected

    @pytest.mark.parametrize("inner", ["z", "start"])
    def test_expanded_text_is_not_searched_again(self, tmp_path, inner):
        # <x> expands to text that, with the brackets around it, spells a
        # placeholder: it stays literal text, and validation classes it
        path = write_grammar(tmp_path / "g.json", {"start": [("A*<<x>>", 1.0)], "x": [(inner, 1.0)]})
        grammar = load_grammar(path)
        assert sample_formula(grammar) == f"A*<{inner}>"
        batch = generate_batch(3, grammar)
        assert batch.class_counts["other-syntax"] == 3

    def test_one_frame_per_nesting_level(self):
        # the chain start -> (<start>) reaches max_depth 900 under the
        # default recursion limit
        rules = {"start": (ProductionAlt("(<start>)", 2.0), ProductionAlt("A", 1.0))}
        grammar = GrammarConfig(rules, temperature=1e-7, max_tokens=4000, max_depth=900)
        assert sample_formula(grammar) == "(" * 900 + "A" + ")" * 900

    def test_expansion_depth_is_the_shallowest_alternative(self, grammar):
        # one depth rule: each nonterminal needs its shallowest alternative's levels
        depths = grammar.expansion_depths
        for name, alts in grammar.rules.items():
            assert depths[name] == min(alt.depth(depths) for alt in alts), name


class TestBatches:
    def test_single_sample_totals(self, grammar):
        batch = generate_batch(1, replace(grammar, seed=5))
        assert batch.total == 1
        assert sum(batch.class_counts.values()) == 1

    def test_batch_is_reproducible(self, grammar):
        cfg = replace(grammar, temperature=0.9, seed=21)
        a = generate_batch(50, cfg)
        b = generate_batch(50, cfg)
        assert [i.formula for i in a.items] == [i.formula for i in b.items]
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )

    def test_validity_drops_between_low_and_high_temperature(self, grammar):
        low = np.mean(
            [
                generate_batch(200, replace(grammar, temperature=0.5, seed=s)).valid_fraction
                for s in range(5)
            ]
        )
        high = np.mean(
            [
                generate_batch(200, replace(grammar, temperature=1.3, seed=s)).valid_fraction
                for s in range(5)
            ]
        )
        assert low >= high

    def test_counts_match_items(self, grammar):
        batch = generate_batch(100, replace(grammar, temperature=1.0, seed=3))
        tally = {name: 0 for name in CLASSES}
        for item in batch.items:
            tally[item.classification] += 1
        assert tally == batch.class_counts
        assert batch.valid == tally[CLASS_VALID]


class _EchoHandler(BaseHTTPRequestHandler):
    behavior = "echo"
    reply: tuple[int, bytes] | None = None  # sent verbatim to every POST when set
    location: str | None = None  # sent with the reply when set

    def do_POST(self):
        self.server.posts += 1
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if self.reply is not None:
            status, content = self.reply
            self.send_response(status)
            if self.location is not None:
                self.send_header("Location", self.location)
            self.send_header("Content-Length", str(len(content)))
            self.end_headers()
            self.wfile.write(content)
            return
        if self.behavior == "flaky" and not getattr(self.server, "warmed", False):
            self.server.warmed = True
            self.send_response(503)
            self.end_headers()
            return
        if self.behavior == "garbage":
            self.send_response(200)
            self.end_headers()
            self.wfile.write(b"not json")
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(json.dumps({"text": body["prompt"]}).encode())

    def log_message(self, *args):
        pass


@pytest.fixture()
def echo_http():
    server = HTTPServer(("127.0.0.1", 0), _EchoHandler)
    server.posts = 0
    # shutdown() waits out one poll interval; the default 0.5 s adds up over the tests
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


@pytest.fixture()
def echo_server(echo_http):
    return f"http://127.0.0.1:{echo_http.server_port}/"


class TestExternalSource:
    def test_echoed_known_formula_is_valid(self, echo_server):
        _EchoHandler.behavior = "echo"
        text = external_generate(echo_server, "A_c * cos(2*pi*f_c*t + pi*d(t))")
        assert validate(text).valid

    def test_unbalanced_reply_classified(self, echo_server):
        _EchoHandler.behavior = "echo"
        batch = generate_batch_external(2, echo_server, ["cos(2*pi*f_c*t"])
        assert batch.class_counts["unbalanced-parenthesis"] == 2

    def test_retry_then_success(self, echo_server):
        _EchoHandler.behavior = "flaky"
        try:
            text = external_generate(echo_server, "A_c * cos(2*pi*f_c*t)")
            assert validate(text).valid
        finally:
            _EchoHandler.behavior = "echo"

    def test_malformed_reply(self, echo_server):
        _EchoHandler.behavior = "garbage"
        try:
            with pytest.raises(GenerationSourceError) as err:
                external_generate(echo_server, "x")
            assert err.value.kind == "malformed-response"
        finally:
            _EchoHandler.behavior = "echo"

    def test_client_error_is_not_retried(self, echo_server, echo_http, monkeypatch):
        monkeypatch.setattr(_EchoHandler, "reply", (404, b"missing"))
        with pytest.raises(GenerationSourceError) as err:
            external_generate(echo_server, "x")
        assert err.value.kind == "status"
        assert echo_http.posts == 1

    def test_server_error_is_retried_once(self, echo_server, echo_http, monkeypatch):
        monkeypatch.setattr(_EchoHandler, "reply", (503, b"busy"))
        with pytest.raises(GenerationSourceError) as err:
            external_generate(echo_server, "x")
        assert err.value.kind == "status"
        assert echo_http.posts == 2

    @pytest.mark.parametrize("content", [b'{"foo": 1}', b"[1]", b'{"text": 3}'])
    def test_reply_without_text_is_malformed(
        self, echo_server, echo_http, monkeypatch, content
    ):
        monkeypatch.setattr(_EchoHandler, "reply", (200, content))
        with pytest.raises(GenerationSourceError) as err:
            external_generate(echo_server, "x")
        assert err.value.kind == "malformed-response"
        assert echo_http.posts == 1

    @pytest.mark.parametrize(
        "endpoint",
        ["localhost:1", "not a url", "ftp://127.0.0.1/", "http://", "http://127.0.0.1:99999/"],
    )
    def test_unusable_endpoint_is_a_network_error(self, endpoint):
        with pytest.raises(GenerationSourceError) as err:
            external_generate(endpoint, "x", timeout=0.3)
        assert err.value.kind == "network"

    def test_redirect_off_http_is_a_network_error(self, echo_server, monkeypatch):
        monkeypatch.setattr(_EchoHandler, "reply", (302, b""))
        monkeypatch.setattr(_EchoHandler, "location", "ftp://127.0.0.1:1/")
        with pytest.raises(GenerationSourceError) as err:
            external_generate(echo_server, "x", timeout=0.3)
        assert err.value.kind == "network"

    def test_file_url_is_never_read(self, tmp_path):
        reply = tmp_path / "reply.json"
        reply.write_text(json.dumps({"text": "A_c * cos(2*pi*f_c*t)"}))
        with pytest.raises(GenerationSourceError) as err:
            external_generate(reply.as_uri(), "x")
        assert err.value.kind == "network"

    def test_unreachable_endpoint_isolated(self):
        batch = generate_batch_external(
            3, "http://127.0.0.1:1/", ["A_c * cos(2*pi*f_c*t)"], timeout=0.3
        )
        assert batch.total == 3
        assert batch.source_errors == 3
        assert batch.valid == 0
        assert all(item.source_error for item in batch.items)

    def test_partial_failure_keeps_results(self, echo_server, monkeypatch):
        _EchoHandler.behavior = "echo"
        calls = {"n": 0}
        real = external_generate

        def wrapped(endpoint, prompt, **kwargs):
            calls["n"] += 1
            if calls["n"] > 2:
                raise GenerationSourceError("network", "injected failure")
            return real(endpoint, prompt, **kwargs)

        monkeypatch.setattr("modwave.genlab.external_generate", wrapped)
        batch = generate_batch_external(4, echo_server, ["A_c * cos(2*pi*f_c*t)"])
        assert batch.valid == 2
        assert batch.source_errors == 2


class TestPipeline:
    def test_fixture_run_produces_three_rows(self):
        rows, batch = pipeline_run(
            load_corpus(bundled_generated_path()),
            3,
            ChannelConfig(target_snr_db=15.0),
            SchemeConfig("formula:base", n_symbols=1_000, base_scheme="qam16"),
            master_seed=42,
        )
        assert batch.total == 3 and batch.valid == 3
        assert [r.scheme for r in rows] == ["formula:m1", "formula:m2", "formula:m3"]
        by_name = {r.scheme: r for r in rows}
        assert by_name["formula:m3"].guard_count > 0
        assert by_name["formula:m1"].guard_count == 0
        for row in rows:
            assert row.error is None
            assert 0.0 <= row.ber <= 1.0

    def test_empty_run_is_empty_not_an_error(self):
        rows, batch = pipeline_run(
            [],
            0,
            ChannelConfig(target_snr_db=10.0),
            SchemeConfig("formula:base", n_symbols=100),
            master_seed=1,
        )
        assert rows == [] and batch.total == 0

    def test_grammar_run_reproducible(self, grammar):
        batch = generate_batch(12, replace(grammar, temperature=0.8, seed=9))
        entries = batch.valid_entries()
        args = (
            entries,
            len(entries),
            ChannelConfig(target_snr_db=10.0),
            SchemeConfig("formula:base", n_symbols=500, base_scheme="qpsk"),
        )
        rows_a, batch_a = pipeline_run(*args, master_seed=9)
        rows_b, batch_b = pipeline_run(*args, master_seed=9)
        assert json.dumps(batch_a.to_dict(), sort_keys=True) == json.dumps(
            batch_b.to_dict(), sort_keys=True
        )
        assert [r.to_dict() for r in rows_a] == [r.to_dict() for r in rows_b]
        assert [r.scheme for r in rows_a] == [f"formula:{e.id}" for e in entries]

    def test_the_valid_entries_of_the_first_n_run(self):
        bad = CorpusEntry("bad", "Bad", "cos(")
        entries = [bad, *load_corpus(bundled_generated_path()), bad]
        rows, batch = pipeline_run(
            entries, 3, ChannelConfig(target_snr_db=15.0),
            SchemeConfig("formula:base", n_symbols=200),
        )
        assert batch.total == 3 and batch.valid == 2
        assert [r.scheme for r in rows] == ["formula:m1", "formula:m2"]

    def test_n_outside_the_entry_count_is_a_config_error(self):
        entries = load_corpus(bundled_generated_path())
        for n in (len(entries) + 1, -1):
            with pytest.raises(ConfigError, match="outside"):
                pipeline_run(
                    entries, n, ChannelConfig(), SchemeConfig("formula:base", n_symbols=100)
                )

    def test_valid_entries_name_the_valid_items(self, grammar):
        batch = generate_batch(20, replace(grammar, temperature=1.5, seed=3))
        assert batch.valid < batch.total  # the batch has invalid items to skip
        assert batch.valid_entries() == [
            CorpusEntry(f"g{item.index}", f"G{item.index}", item.formula)
            for item in batch.items
            if item.classification == CLASS_VALID
        ]
