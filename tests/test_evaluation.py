from dataclasses import replace

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid

from modwave import grid as grids
from modwave.dsl import (
    BinOp,
    Call,
    Const,
    EvalContext,
    Symbol,
    bundled_corpus_path,
    bundled_generated_path,
    evaluate,
    evaluation,
    load_corpus,
    parse_formula,
)
from modwave.dsl.evaluation import _Evaluator
from modwave.errors import EvaluationError
from modwave.genlab import generate_batch, load_grammar
from modwave.synth import SchemeConfig, formula_context

from conftest import FORMULA_TREES, cold_store


def grid(n, fs=48000.0):
    return np.arange(n) / fs


def test_constant_expression():
    result = evaluate(parse_formula("A"), EvalContext(constants={"A": 2.0}), grid(4))
    assert np.array_equal(result.samples, [2.0, 2.0, 2.0, 2.0])
    assert result.guard_count == 0


def test_am_with_zero_index_equals_pure_carrier():
    t = grid(4800)
    ctx = EvalContext(
        constants={
            "A_c": 1.0, "m": 0.0, "f_m": 200.0, "f_c": 6000.0,
            "phi_m": 0.0, "phi_c": 0.0,
        }
    )
    am = evaluate(
        parse_formula(
            "A_c * (1 + m * cos(2*pi*f_m*t + phi_m)) * cos(2*pi*f_c*t + phi_c)"
        ),
        ctx,
        t,
    )
    carrier = evaluate(parse_formula("A_c * cos(2*pi*f_c*t + phi_c)"), ctx, t)
    assert np.array_equal(am.samples, carrier.samples)


def test_integral_against_closed_form():
    # antiderivative oracle: integral of cos(2 pi f t) from 0 is sin(2 pi f t)/(2 pi f)
    f_m = 200.0
    fs = 100.0 * f_m  # 100 samples per message period
    t = grid(int(fs), fs=fs)
    ctx = EvalContext(constants={"f_m": f_m}, signals={"m(t)": np.cos(2 * np.pi * f_m * t)})
    result = evaluate(parse_formula("integral(m(t), t)"), ctx, t)
    oracle = np.sin(2 * np.pi * f_m * t) / (2 * np.pi * f_m)
    assert np.max(np.abs(result.samples - oracle)) <= 1e-3


@pytest.mark.parametrize(
    "body, signals",
    [
        ("m(t)", {"m(t)": np.random.default_rng(1).normal(size=960)}),
        (
            "I(t) * m(t) + t",
            {
                "m(t)": np.random.default_rng(2).normal(size=960),
                "I(t)": np.random.default_rng(3).uniform(-1, 1, (16, 1)),
            },
        ),
        ("A", {}),
    ],
    ids=["samples", "bank", "constant"],
)
def test_integral_bits_equal_cumulative_trapezoid(body, signals):
    t = grid(960)
    ctx = EvalContext(constants={"A": 0.7}, signals=signals)
    integrand = evaluate(parse_formula(body), ctx, t).samples
    got = evaluate(parse_formula(f"integral({body}, t)"), ctx, t).samples
    assert got.shape == integrand.shape
    assert np.array_equal(got, cumulative_trapezoid(integrand, t, axis=-1, initial=0.0))


def test_integral_error_shrinks_with_step():
    f_m = 200.0

    def max_err(fs):
        t = grid(int(fs / 10), fs=fs)
        ctx = EvalContext(signals={"m(t)": np.cos(2 * np.pi * f_m * t)})
        got = evaluate(parse_formula("integral(m(t), t)"), ctx, t)
        oracle = np.sin(2 * np.pi * f_m * t) / (2 * np.pi * f_m)
        return np.max(np.abs(got.samples - oracle))

    coarse, fine = max_err(20000.0), max_err(40000.0)
    assert coarse / fine >= 3.0  # trapezoid rule is second order


def test_sum_without_index_is_n_times_body():
    ctx = EvalContext(constants={"A": 2.0, "m": 0.5, "n": 4.0})
    result = evaluate(parse_formula("A * sum(m, i, 1, n)"), ctx, grid(8))
    assert np.allclose(result.samples, 2.0 * 4 * 0.5)


def test_sum_with_index():
    ctx = EvalContext(constants={"n": 5.0})
    result = evaluate(parse_formula("sum(i, i, 1, n)"), ctx, grid(4))
    assert np.allclose(result.samples, 15.0)


def test_sum_index_shadows_outer_binding():
    ctx = EvalContext(constants={"i": 100.0, "n": 3.0})
    result = evaluate(parse_formula("sum(i, i, 1, n)"), ctx, grid(4))
    assert np.allclose(result.samples, 6.0)


def test_guarded_division_counts():
    ctx = EvalContext(constants={"A": 1.0})
    result = evaluate(parse_formula("A / 0"), ctx, grid(16))
    assert np.array_equal(result.samples, np.zeros(16))
    assert result.guard_count == 16


def test_guard_only_where_divisor_vanishes():
    t = grid(100)
    den = np.linspace(-1, 1, 100)
    den[40] = 0.0
    ctx = EvalContext(signals={"d(t)": den})
    result = evaluate(parse_formula("1 / d(t)"), ctx, t)
    assert result.guard_count == 1
    assert result.samples[40] == 0.0
    assert np.isfinite(result.samples).all()


def test_linearity_probe_is_bit_identical():
    t = grid(1000)
    ctx = EvalContext(
        constants={"A_c": 1.7, "f_c": 6000.0, "a": 3.25},
        signals={"m(t)": np.sin(2 * np.pi * 100 * t)},
    )
    base = evaluate(parse_formula("A_c * cos(2*pi*f_c*t) + m(t)"), ctx, t)
    scaled = evaluate(parse_formula("a * (A_c * cos(2*pi*f_c*t) + m(t))"), ctx, t)
    assert np.array_equal(scaled.samples, 3.25 * base.samples)


def test_determinism():
    t = grid(512)
    ctx = EvalContext(constants={"f_c": 6000.0, "A_c": 1.0})
    tree = parse_formula("A_c * cos(2*pi*f_c*t)")
    one = evaluate(tree, ctx, t)
    two = evaluate(tree, ctx, t)
    assert np.array_equal(one.samples, two.samples)


def test_bare_name_falls_back_to_signal():
    t = grid(8)
    ctx = EvalContext(signals={"Q(t)": np.full(8, 2.0)})
    result = evaluate(parse_formula("1 / Q"), ctx, t)
    assert np.allclose(result.samples, 0.5)


def test_bare_m_is_the_modulation_index_not_the_message():
    # validation resolves a bare m to the index, so the evaluator does too
    t = grid(8)
    message = {"m(t)": np.full(8, 3.0)}
    with pytest.raises(EvaluationError, match="no binding for symbol 'm'"):
        evaluate(parse_formula("2*m"), EvalContext(signals=message), t)
    both = EvalContext(constants={"m": 0.5}, signals=message)
    assert np.array_equal(evaluate(parse_formula("2*m"), both, t).samples, np.ones(8))
    assert np.array_equal(evaluate(parse_formula("2*m(t)"), both, t).samples, np.full(8, 6.0))


def test_undefined_symbol_raises():
    with pytest.raises(EvaluationError):
        evaluate(parse_formula("nope"), EvalContext(), grid(4))


def test_signal_length_mismatch():
    ctx = EvalContext(signals={"m(t)": np.zeros(7)})
    with pytest.raises(EvaluationError):
        evaluate(parse_formula("m(t)"), ctx, grid(8))


def test_grid_validation():
    tree = parse_formula("t")
    with pytest.raises(EvaluationError):
        evaluate(tree, EvalContext(), np.array([0.0]))
    with pytest.raises(EvaluationError):
        evaluate(tree, EvalContext(), np.array([0.0, 1.0, 3.0]))


def test_power_operator():
    result = evaluate(parse_formula("t ^ 2"), EvalContext(), np.array([0.0, 1.0, 2.0]))
    assert np.allclose(result.samples, [0.0, 1.0, 4.0])


@pytest.mark.parametrize("exponent", [0.5, 2.0, -1.0])
def test_power_is_pow_at_every_sample(exponent):
    # numpy's sqrt/square/reciprocal shortcuts for a repeated exponent can
    # differ from pow() in the last bit; the operator must not take them
    t = grid(4000) + 0.1
    formula = f"t ^ {exponent}" if exponent > 0 else f"t ^ (0 - {-exponent})"
    result = evaluate(parse_formula(formula), EvalContext(), t)
    assert np.array_equal(result.samples, np.power(t, np.full(t.size, exponent)))


def test_result_length_matches_grid():
    t = grid(321)
    result = evaluate(parse_formula("cos(2*pi*100*t)"), EvalContext(), t)
    assert result.samples.shape == t.shape


def held_rows(columns, n):
    """One context per row, each signal held at that row's value over the grid."""
    rows = next(iter(columns.values())).shape[0]
    return [
        {name: np.full(n, values[r, 0]) for name, values in columns.items()}
        for r in range(rows)
    ]


class TestBroadcasting:
    SCALARS = {"A": 0.7, "f_c": 6000.0, "k_p": 1.0, "n": 3.0}

    def columns(self, rng, rows=5):
        return {
            "I(t)": rng.uniform(-1, 1, (rows, 1)),
            "Q(t)": rng.uniform(-1, 1, (rows, 1)),
            "d(t)": np.arange(rows, dtype=float)[:, None],
        }

    @pytest.mark.parametrize(
        "formula",
        [
            "I(t)*cos(2*pi*f_c*t) - Q(t)*sin(2*pi*f_c*t)",
            "A*cos(2*pi*f_c*t + k_p*m(t)) + integral(I(t)*m(t), t)",
            "sum(i*Q(t), i, 1, n) / (d(t) - 2)",
            "sin(I(t)) ^ 2 + Q(t) ^ 0.5 + (A*t) ^ (0 - 1)",
            "A * sum(pi / 2, i, 1, n)",
        ],
    )
    def test_rows_equal_separate_calls(self, rng, formula):
        t = grid(96)
        message = np.cos(2 * np.pi * 200.0 * t)
        columns = self.columns(rng)
        expr = parse_formula(formula)
        ctx = EvalContext(constants=self.SCALARS, signals={**columns, "m(t)": message})
        together = evaluate(expr, ctx, t)
        assert together.samples.shape == (5, t.size)
        guards = 0
        for r, held in enumerate(held_rows(columns, t.size)):
            alone = evaluate(
                expr, EvalContext(constants=self.SCALARS, signals={**held, "m(t)": message}), t
            )
            assert np.array_equal(together.samples[r], alone.samples), r
            assert np.array_equal(together.invalid_mask[r], alone.invalid_mask), r
            guards += alone.guard_count
        assert together.guard_count == guards

    @pytest.mark.parametrize(
        "formula",
        [
            "-m(t)", "sin(t)", "I(t) + t", "m(t) * m(t) - t", "t / I(t)", "sum(m(t), i, 1, 2)",
            # memo values of the result's shape, as arguments of one ufunc
            "m(t) * sin(t)", "cos(t) - m(t) + cos(t)", "-(sin(t) / m(t))", "m(t) ^ sin(t)",
        ],
    )
    def test_bound_inputs_are_never_written(self, rng, formula):
        store = grids.grid(32, 48000.0)
        t = store.t
        signals = {"m(t)": rng.normal(size=t.size), "I(t)": rng.uniform(1, 2, (3, 1))}
        before = {name: value.copy() for name, value in signals.items()}
        grid_before = t.copy()
        expr = parse_formula(formula)
        evaluate(expr, EvalContext(signals=signals), t)
        kept = {key: value.copy() for key, value in store.entries.items()}
        evaluate(expr, EvalContext(signals=signals), t)
        assert np.array_equal(t, grid_before)
        for name, value in signals.items():
            assert np.array_equal(value, before[name]), name
        for key, value in kept.items():
            assert store.entries[key].tobytes() == value.tobytes(), key

    def test_constant_formula_fills_the_grid(self):
        result = evaluate(parse_formula("A * pi"), EvalContext(constants={"A": 2.0}), grid(6))
        assert result.samples.shape == (6,)
        assert np.array_equal(result.samples, np.full(6, 2.0 * np.pi))
        result.samples[0] = 0.0  # the caller owns a writable array

    def test_label_invariant_formula_fills_every_row(self):
        ctx = EvalContext(constants={"A": 2.0}, signals={"d(t)": np.zeros((3, 1))})
        result = evaluate(parse_formula("A * t"), ctx, grid(4))
        assert result.samples.shape == (3, 4)
        assert np.array_equal(result.samples, np.tile(2.0 * grid(4), (3, 1)))

    def test_guards_count_output_samples(self):
        n = 16
        ctx = EvalContext(constants={"A": 1.0}, signals={"d(t)": np.zeros((3, 1))})
        assert evaluate(parse_formula("A / 0"), ctx, grid(n)).guard_count == 3 * n
        # only the rows whose divisor vanishes are guarded, each over the whole grid
        rows = EvalContext(signals={"d(t)": np.array([[0.0], [1.0], [0.0], [2.0]])})
        result = evaluate(parse_formula("1 / d(t)"), rows, grid(n))
        assert result.guard_count == 2 * n
        assert np.array_equal(result.samples[:, 0], [0.0, 1.0, 0.0, 0.5])

    def test_guards_on_the_time_axis_repeat_per_row(self):
        t = grid(10)
        ctx = EvalContext(signals={"I(t)": np.ones((4, 1))})
        # t vanishes at the first sample only, once in each of the four rows
        assert evaluate(parse_formula("I(t) / t"), ctx, t).guard_count == 4

    @pytest.mark.parametrize(
        "signal", [np.zeros(7), np.zeros((3, 8)), np.zeros((3, 2)), np.zeros((2, 1, 1))]
    )
    def test_bad_signal_shape_raises(self, signal):
        with pytest.raises(EvaluationError):
            evaluate(parse_formula("m(t)"), EvalContext(signals={"m(t)": signal}), grid(8))

    def test_row_count_mismatch_raises(self):
        ctx = EvalContext(signals={"I(t)": np.zeros((3, 1)), "Q(t)": np.zeros((4, 1))})
        with pytest.raises(EvaluationError):
            evaluate(parse_formula("I(t) + Q(t)"), ctx, grid(8))

    def test_non_finite_sum_bound_is_classified(self):
        ctx = EvalContext(constants={"A": 1e300})
        with pytest.raises(EvaluationError), np.errstate(over="ignore"):
            evaluate(parse_formula("sum(i, i, 1, A * A)"), ctx, grid(4))


def _lookup_with_its_own_aliases(self, name, local):
    """_Evaluator.lookup as it was before it took validation's rule: the
    name as written, then name(t), among the signals and then the constants."""
    if name in local:
        return np.float64(local[name])
    if name == "t":
        return self.grid
    if name == "pi":
        return np.float64(np.pi)
    ctx = self.ctx
    if name in ctx.constants:
        return np.float64(ctx.constants[name])
    if name in self.signals:
        return self.signals[name]
    alias = f"{name}(t)"
    if alias in self.signals:
        return self.signals[alias]
    if alias in ctx.constants:
        return np.float64(ctx.constants[alias])
    raise EvaluationError(f"no binding for symbol {name!r}")


def _oracle_formulas():
    texts = [
        entry.formula
        for path in (bundled_corpus_path(), bundled_generated_path())
        for entry in load_corpus(path)
    ]
    for temperature, seed in ((0.8, 1), (1.5, 2), (3.0, 3)):
        batch = generate_batch(40, replace(load_grammar(temperature=temperature), seed=seed))
        texts += [item.formula for item in batch.items if item.report.syntactic_ok]
    # a guarded label-invariant subtree, and one in a sum body
    texts += ["I(t)*cos(2*pi*f_c*t) - Q(t)*sin(2*pi*f_c*t) + A/cos(2*pi*f_c*t)",
              "I(t)*cos(2*pi*f_c*t) + sum(i*sin(2*pi*f_c*t)/n, i, 1, n) * Q(t)"]
    return list(dict.fromkeys(texts))


def _outcome(expr, ctx, t):
    try:
        result = evaluate(expr, ctx, t)
    except EvaluationError as exc:
        return str(exc)
    return result.samples, result.guard_count, result.invalid_mask


@pytest.mark.parametrize("rows", [False, True], ids=["n", "rows-n"])
def test_every_formula_context_binding_resolves_as_before(monkeypatch, rows):
    labels = np.arange(16)[:, None] if rows else np.random.default_rng(5).integers(0, 16, 40)
    formulas = _oracle_formulas()
    evaluated = 0
    for text in formulas:
        cfg = SchemeConfig("formula:x", n_symbols=40, base_scheme="qam16", formula_text=text)
        args = formula_context(cfg, labels)
        now = _outcome(*args)
        with monkeypatch.context() as patch:
            patch.setattr(_Evaluator, "lookup", _lookup_with_its_own_aliases)
            before = _outcome(*args)
        if isinstance(now, str):
            assert now == before, text
            continue
        evaluated += 1
        samples, guards, invalid = before
        assert samples.shape == now[0].shape == invalid.shape, text
        assert samples.tobytes() == now[0].tobytes(), text
        assert guards == now[1], text
        assert np.array_equal(invalid, now[2]), text
    assert evaluated > len(formulas) // 2


@pytest.fixture
def empty_store():
    """store(n, fs): the store of that grid, empty at its first call."""
    with cold_store():
        yield lambda n, fs=48000.0: grids.grid(n, fs)


def _fresh(expr, ctx, t):
    """The outcome of an evaluation that keeps and serves no subtree: on a
    copy of the grid, which is no store's axis."""
    return _outcome(expr, ctx, np.array(t))


def _assert_same_outcome(got, want, what):
    if isinstance(want, str) or isinstance(got, str):
        assert got == want, what
        return
    assert got[0].shape == want[0].shape, what
    assert got[0].tobytes() == want[0].tobytes(), what
    assert got[1] == want[1], what
    assert np.array_equal(got[2], want[2]), what


@lru_cache(maxsize=1)
def _grammar_trees():
    return tuple(parse_formula(text) for text in _oracle_formulas())


class TestStore:
    """Label-invariant subtrees kept in the grid's store give the bits, guard
    counts and invalid masks of an evaluation that keeps nothing."""

    CONSTANTS = {"A": 0.7, "A_c": 0.7, "m": 0.5, "k_f": 500.0, "k_p": 1.0, "f_m": 200.0,
                 "phi": 0.0, "phi_c": 0.0, "phi_m": 0.0, "n": 3.0}

    def context(self, t, f_c, rows):
        rng = np.random.default_rng(7)
        shape = (4, 1) if rows else t.shape
        streams = {name: rng.uniform(-1, 1, shape) for name in ("I(t)", "Q(t)", "f(t)")}
        streams["d(t)"] = rng.integers(0, 4, shape).astype(float)
        return EvalContext(
            constants={**self.CONSTANTS, "f_c": f_c},
            signals={**streams, "m(t)": np.cos(2 * np.pi * 200.0 * t)},
        )

    @given(
        trees=st.lists(FORMULA_TREES, min_size=1, max_size=3),
        picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=3),
        rows=st.booleans(),
    )
    def test_a_warm_store_gives_the_fresh_outcome(self, trees, picks, rows):
        grammar = _grammar_trees()
        trees = trees + [grammar[i % len(grammar)] for i in picks]
        with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
            # nested sums of drawn bounds stay small
            patch.setattr(evaluation, "MAX_SUM_ITERATIONS", 50)
            for fs in (48000.0, 24000.0) * 2:
                t = grids.grid(40, fs).t
                for f_c in (6000.0, 4000.0):
                    ctx = self.context(t, f_c, rows)
                    for expr in trees:
                        warm = _outcome(expr, ctx, t)
                        _assert_same_outcome(warm, _fresh(expr, ctx, t), expr)

    @pytest.mark.parametrize("rows", [False, True], ids=["n", "rows-n"])
    def test_every_grammar_formula_interleaved(self, rows):
        trees = _grammar_trees()
        for fs in (48000.0, 24000.0):
            t = grids.grid(96, fs).t
            for f_c in (6000.0, 4000.0, 6000.0):
                ctx = self.context(t, f_c, rows)
                for expr in trees:
                    _assert_same_outcome(_outcome(expr, ctx, t), _fresh(expr, ctx, t), expr)

    def test_signed_zero_constants_are_distinct_keys(self, empty_store):
        store = empty_store(16)
        ctx = EvalContext(signals={"I(t)": np.linspace(0.5, 1.5, 16)})
        for c in (0.0, -0.0, 0.0):
            expr = BinOp("*", Symbol("I(t)"), Call("sin", (BinOp("*", Symbol("t"), Const(c)),)))
            warm = evaluate(expr, ctx, store.t).samples
            assert warm.tobytes() == _fresh(expr, ctx, store.t)[0].tobytes(), c
            assert np.signbit(warm).all() == np.signbit(c)
        assert len(store.entries) == 2

    def test_more_invariant_subtrees_than_slots(self, empty_store, monkeypatch):
        # cos(t) is held while the sum's subtrees evict its entry
        terms = " + ".join(f"I(t) * sin({k} * t)" for k in range(1, grids.SLOTS + 4))
        text = f"cos(t) * ({terms})"
        expr = parse_formula(text)
        ctx = EvalContext(signals={"I(t)": np.linspace(-1, 1, 4)[:, None]})
        store = empty_store(64)
        put = store.put

        def bounded_put(*args):
            value = put(*args)
            assert len(store.entries) <= grids.SLOTS
            return value

        monkeypatch.setattr(store, "put", bounded_put)
        for _ in range(2):
            _assert_same_outcome(_outcome(expr, ctx, store.t), _fresh(expr, ctx, store.t), text)
        assert len(store.entries) == grids.SLOTS

    def test_the_least_recently_used_entry_goes(self, empty_store):
        store = empty_store(8)
        arrays = [np.full(8, float(k)) for k in range(grids.SLOTS + 1)]
        for k, array in enumerate(arrays[:-1]):
            assert store.put(k, array) is array and not array.flags.writeable
        assert store.get(0) is arrays[0]  # now the most recent: 1 is the least
        store.put(grids.SLOTS, arrays[-1])
        assert list(store.entries) == [*range(2, grids.SLOTS), 0, grids.SLOTS]
        # the evicted array is dropped, not written
        assert np.array_equal(arrays[1], np.full(8, 1.0))

    def test_repeated_subtree_is_computed_once(self, empty_store, monkeypatch):
        text = "I(t)*cos(2*pi*f_c*t) + (A*cos(2*pi*f_c*t + phi)) + (A*cos(2*pi*f_c*t + phi))"
        ctx = EvalContext(constants={"A": 0.7, "f_c": 6000.0, "phi": 0.0},
                          signals={"I(t)": np.ones(32)})
        store = empty_store(32)
        stored = []
        put = store.put

        def counting_put(key, value):
            stored.append(key)
            return put(key, value)

        monkeypatch.setattr(store, "put", counting_put)
        evaluate(parse_formula(text), ctx, store.t)
        assert len(stored) == len(set(stored)) == 2

    def test_a_stream_free_result_is_the_callers_own(self):
        am = next(e for e in load_corpus(bundled_corpus_path()) if e.id == "am")
        cfg = SchemeConfig("formula:am", n_symbols=20, formula_text=am.formula)
        args = formula_context(cfg, np.zeros(20, dtype=int))
        first = evaluate(*args).samples
        want = first.copy()
        assert first.flags.writeable
        first[:] = 123.0
        assert evaluate(*args).samples.tobytes() == want.tobytes()

    @pytest.mark.parametrize("divisor, per_row", [("t", 1), ("0", 32)])
    @pytest.mark.parametrize("rows", [None, 16])
    def test_a_guarded_subtree_is_not_kept(self, empty_store, divisor, per_row, rows):
        # 1/t is guarded at t = 0 alone; t/0 at every sample of a scalar divisor
        expr = parse_formula(f"I(t) * (f_c * t / {divisor} + 1)")
        shape = (32,) if rows is None else (rows, 1)
        ctx = EvalContext(constants={"f_c": 6000.0}, signals={"I(t)": np.ones(shape)})
        store = empty_store(32)
        counts = []
        for _ in range(2):
            counts.append(evaluate(expr, ctx, store.t).guard_count)
            assert not store.entries
        assert counts == [per_row * (rows or 1)] * 2 == [_fresh(expr, ctx, store.t)[1]] * 2

    @pytest.mark.parametrize("rows", [None, 4])
    def test_a_sum_body_subtree_is_kept(self, empty_store, monkeypatch, rows):
        text = "sum(i*sin(2*pi*f_c*t), i, 1, n) * I(t)"
        expr = parse_formula(text)
        shape = (32,) if rows is None else (rows, 1)
        ctx = EvalContext(constants={"f_c": 6000.0, "n": 3.0},
                          signals={"I(t)": np.linspace(-1, 1, np.prod(shape)).reshape(shape)})
        store = empty_store(32)
        get, put = store.get, store.put
        found, stored = [], []

        def counting_get(key):
            value = get(key)
            found.append(value is not None)
            return value

        def counting_put(key, value):
            stored.append(key)
            return put(key, value)

        monkeypatch.setattr(store, "get", counting_get)
        monkeypatch.setattr(store, "put", counting_put)
        outcome = _outcome(expr, ctx, store.t)
        # sin(2*pi*f_c*t) is put at i = 1 and served at i = 2 and 3
        assert len(stored) == 1 and stored == list(store.entries)
        assert found == [False, True, True]
        _assert_same_outcome(outcome, _fresh(expr, ctx, store.t), text)

    def test_only_the_stores_axis_is_served(self, empty_store):
        expr = parse_formula("I(t) * cos(2*pi*f_c*t)")
        ctx = EvalContext(constants={"f_c": 6000.0}, signals={"I(t)": np.ones((2, 1))})
        store = empty_store(64)
        t = store.t
        evaluate(expr, ctx, t)
        (key, value), = store.entries.items()
        # another grid, one bit apart or an equal copy, reads and keeps nothing
        apart = t.copy()
        apart.view(np.int64)[9] += 1
        for other in (apart, t.copy()):
            got = evaluate(expr, ctx, other).samples
            assert got.tobytes() == np.tile(np.cos(2 * np.pi * 6000.0 * other), (2, 1)).tobytes()
            assert list(store.entries) == [key] and store.entries[key] is value
        on_axis = evaluate(expr, ctx, t).samples
        assert evaluate(expr, ctx, apart).samples.tobytes() != on_axis.tobytes()
        # the axis cannot change in place, and a grid the store does not own is checked
        with pytest.raises(ValueError):
            t[9] = 0.0
        apart[40] = 1.0
        with pytest.raises(EvaluationError):
            evaluate(expr, ctx, apart)
