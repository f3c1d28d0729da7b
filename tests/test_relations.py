"""Metamorphic relations: two routes to the same waveform give the same
numbers.

The am, fm, pm and fsk reference rows are their bundled corpus formulas:
synth.SCHEMES holds the corpus text, and modulate evaluates it as it does
`formula:am` and the others. So a reference row and its `formula:` twin
send the same samples, and every cell measured from the samples must
agree bit for bit. fsk's tone rule reads a bit, so on a one-bit base,
bpsk or ook, its label is that bit and its BER cell agrees too. The
analog rows read no label: their formula twins measure a BER on base bits
their waveform never carries, where the reference rows carry none.

Scaling a reference row's amplitude scales its samples, which
normalize_power undoes before the channel, so the BER and the occupied
bandwidth stay bit-equal and the realized SNR moves only by rounding.
"""

import numpy as np
import pytest

from modwave.channel import ChannelConfig
from modwave.dsl import bundled_corpus_path, load_corpus
from modwave.metrics import compare
from modwave.synth import REFERENCE_SCHEMES, SchemeConfig, modulate

CELLS = ("snr_db", "ber", "spectral_eff", "bandwidth_hz")
CORPUS = {e.id: e.formula for e in load_corpus(bundled_corpus_path())}
# each reference row and base scheme of its formula twin
TWINS = [("am", "bpsk"), ("fm", "bpsk"), ("pm", "bpsk"), ("fsk", "bpsk"), ("fsk", "ook")]
# the realized SNR of a scaled row: normalize_power rounds its gain differently
SNR_TOLERANCE_DB = 1e-12


def twin(scheme, base, **kwargs):
    return SchemeConfig(
        f"formula:{scheme}", formula_text=CORPUS[scheme], base_scheme=base, **kwargs
    )


@pytest.mark.parametrize("scheme, base", TWINS)
def test_reference_rows_send_their_corpus_formulas(scheme, base):
    for n_symbols in (7, 2_000):
        reference = modulate(SchemeConfig(scheme, n_symbols=n_symbols, seed=3))
        formula = modulate(twin(scheme, base, n_symbols=n_symbols, seed=3))
        assert reference.samples.tobytes() == formula.samples.tobytes(), n_symbols


@pytest.mark.parametrize("snr_db", [-12.0, 2.0])
@pytest.mark.parametrize("scheme, base", TWINS)
def test_reference_and_corpus_formula_agree(scheme, base, snr_db):
    configs = [SchemeConfig(scheme, n_symbols=4_000), twin(scheme, base, n_symbols=4_000)]
    reference, formula = (
        row.to_dict() for row in compare(configs, ChannelConfig(snr_db), master_seed=2024)
    )
    assert reference["error"] is None and formula["error"] is None
    cells = CELLS if scheme == "fsk" else ("snr_db", "bandwidth_hz")
    assert {cell: formula[cell] for cell in cells} == {cell: reference[cell] for cell in cells}
    if scheme == "fsk":
        # the operating points differ in what they exercise: errors, or none
        assert (reference["ber"] > 0.1) == (snr_db < 0)
    else:
        assert reference["ber"] is None and 0.3 < formula["ber"] < 0.7


@pytest.mark.parametrize("scheme", REFERENCE_SCHEMES)
def test_amplitude_leaves_the_measured_cells(scheme):
    configs = [SchemeConfig(scheme, n_symbols=5_000, amplitude=a) for a in (1.0, 3.0, 1e-3)]
    rows = [row.to_dict() for row in compare(configs, ChannelConfig(4.0), master_seed=7)]
    assert [row["error"] for row in rows] == [None] * 3
    unit = rows[0]
    for row in rows[1:]:
        assert row["ber"] == unit["ber"] and row["bandwidth_hz"] == unit["bandwidth_hz"]
        assert abs(row["snr_db"] - unit["snr_db"]) <= SNR_TOLERANCE_DB
        assert np.isfinite(row["snr_db"])
