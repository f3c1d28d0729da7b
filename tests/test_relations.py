"""Metamorphic relations: two routes to the same waveform give the same
numbers.

The fsk reference row and the corpus formula `fsk` send A·cos(2π·f·t)
with one tone rule, f = f_c + Rs·(2·d - 1) for a bit d, written once in
synth._fsk_wave and once in the f(t) stream of synth.formula_context.
On a one-bit base, bpsk or ook, the label is the bit, so the two rows
send the same samples and every measured cell must agree bit for bit.
"""

import pytest

from modwave.channel import ChannelConfig
from modwave.dsl import bundled_corpus_path, load_corpus
from modwave.metrics import compare
from modwave.synth import SchemeConfig

CELLS = ("snr_db", "ber", "spectral_eff", "bandwidth_hz")
FSK = next(e.formula for e in load_corpus(bundled_corpus_path()) if e.id == "fsk")


@pytest.mark.parametrize("snr_db", [-12.0, 2.0])
def test_fsk_reference_and_corpus_formula_agree(snr_db):
    configs = [SchemeConfig("fsk", n_symbols=4_000)] + [
        SchemeConfig("formula:fsk", n_symbols=4_000, formula_text=FSK, base_scheme=base)
        for base in ("bpsk", "ook")
    ]
    rows = [row.to_dict() for row in compare(configs, ChannelConfig(snr_db), master_seed=2024)]
    assert [row["error"] for row in rows] == [None] * 3
    reference = {cell: rows[0][cell] for cell in CELLS}
    for row in rows[1:]:
        assert {cell: row[cell] for cell in CELLS} == reference
    # the operating points differ in what they exercise: errors, or none
    assert (reference["ber"] > 0.1) == (snr_db < 0)
