"""Metamorphic relations: two routes to the same waveform give the same
numbers.

The am, fm, pm and fsk reference rows are their bundled corpus formulas:
synth.SCHEMES holds the corpus text, and modulate evaluates it as it does
`formula:am` and the others. The alphabet rows, ook to qam256, send the
corpus qam text times A_c, which at amplitude 1 is `formula:qam` on the
row as its base. So a reference row and its `formula:` twin send the
same samples, and every cell measured from the samples must agree bit
for bit. Both are decided by the one rule of a memoryless row, so the BER
cell of a twin that sends the row's labels agrees too: the alphabet
rows', and fsk's, whose tone rule reads a bit, on a one-bit base, bpsk
or ook. The analog rows read no label: their formula twins measure a BER
on base bits their waveform never carries, where the reference rows
carry none.

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
# each reference row, and the base scheme and corpus id of its formula twin
ALPHABETS = ("ook", "bpsk", "qpsk", "psk8", "qam16", "qam64", "qam128", "qam256")
TWINS = [
    ("am", "bpsk", "am"), ("fm", "bpsk", "fm"), ("pm", "bpsk", "pm"),
    ("fsk", "bpsk", "fsk"), ("fsk", "ook", "fsk"),
    *((scheme, scheme, "qam") for scheme in ALPHABETS),
]
TWIN_IDS = [f"{scheme}-{base}" for scheme, base, _ in TWINS]
# the realized SNR of a scaled row: normalize_power rounds its gain differently
SNR_TOLERANCE_DB = 1e-12


def twin(corpus_id, base, **kwargs):
    return SchemeConfig(
        f"formula:{corpus_id}", formula_text=CORPUS[corpus_id], base_scheme=base, **kwargs
    )


@pytest.mark.parametrize("scheme, base, corpus_id", TWINS, ids=TWIN_IDS)
def test_reference_rows_send_their_corpus_formulas(scheme, base, corpus_id):
    for n_symbols in (7, 2_000):
        reference = modulate(SchemeConfig(scheme, n_symbols=n_symbols, seed=3))
        formula = modulate(twin(corpus_id, base, n_symbols=n_symbols, seed=3))
        assert reference.samples.tobytes() == formula.samples.tobytes(), n_symbols


@pytest.mark.parametrize("snr_db", [-12.0, 2.0])
@pytest.mark.parametrize("scheme, base, corpus_id", TWINS, ids=TWIN_IDS)
def test_reference_and_corpus_formula_agree(scheme, base, corpus_id, snr_db):
    configs = [SchemeConfig(scheme, n_symbols=4_000), twin(corpus_id, base, n_symbols=4_000)]
    reference, formula = (
        row.to_dict() for row in compare(configs, ChannelConfig(snr_db), master_seed=2024)
    )
    assert reference["error"] is None and formula["error"] is None
    digital = SchemeConfig(scheme).bits_per_symbol > 0
    cells = CELLS if digital else ("snr_db", "bandwidth_hz")
    assert {cell: formula[cell] for cell in cells} == {cell: reference[cell] for cell in cells}
    if scheme == "fsk":
        # the operating points differ in what they exercise: errors, or none
        assert (reference["ber"] > 0.1) == (snr_db < 0)
    elif not digital:
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
