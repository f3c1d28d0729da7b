"""modwave: a workbench for wireless modulation schemes written as formulas.

Parse and validate modulation formulas, synthesize reference and
formula-driven waveforms, push them through calibrated noise and
multipath channels, and measure the usual quality figures (SNR, BER,
spectral efficiency, PSD, spectrogram, constellation). A grammar-based
sampler with a temperature knob generates candidate formulas, and simple
closed-form models estimate processing latency and power draw.
"""

import ctypes
import sys

from . import dsl
from .channel import (
    CHANNEL_PRESETS,
    ChannelConfig,
    FadingConfig,
    Tap,
    add_awgn,
    apply_channel,
    apply_fading,
    apply_multipath,
    measure_snr,
)
from .config import ExperimentConfig, GeneratorSettings, load_config
from .costmodel import (
    CostInputs,
    LatencyBreakdown,
    PowerBreakdown,
    latency,
    ops_for_waveform,
    power,
)
from .dsl import (
    EvalContext,
    ValidationReport,
    evaluate,
    op_count,
    parse,
    parse_formula,
    to_text,
    tokenize,
    validate,
)
from .errors import (
    ConfigError,
    CorpusError,
    DemodulationError,
    EvaluationError,
    GenerationSourceError,
    LexicalError,
    ModwaveError,
    NyquistError,
    ParseError,
    SignalError,
    ZeroPowerError,
)
from .genlab import (
    GenerationBatchReport,
    GrammarConfig,
    external_generate,
    generate_batch,
    generate_batch_external,
    load_grammar,
    pipeline_run,
    sample_formula,
)
from .metrics import (
    MetricsParams,
    MetricsReport,
    PsdEstimate,
    Spectrogram,
    ber,
    compare,
    correlation_demodulate,
    demodulate,
    extract_constellation,
    occupied_bandwidth,
    run_scheme,
    seed_row,
    spectral_efficiency_measured,
    spectral_efficiency_theoretical,
    spectrogram,
    welch_psd,
)
from .synth import (
    REFERENCE_SCHEMES,
    SampledSignal,
    SchemeConfig,
    candidate_bank,
    candidate_basis,
    constellation,
    demap_symbols,
    formula_context,
    gen_bits,
    map_symbols,
    modulate,
    normalize_power,
    normalize_scheme_id,
    read_waveform_f32,
    write_waveform,
)

__version__ = "0.1.0"

# A row allocates and frees many arrays of 4-16 MB. glibc's default thresholds follow the
# largest block freed so far, so these were recycled or mapped afresh by the order of frees,
# and peak memory varied by 30 MB between equal runs. Fixed ones keep them on the heap.
_mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if sys.platform == "linux" else None
if _mallopt is not None:
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    _mallopt(-1, 128 << 20)  # M_TRIM_THRESHOLD: free heap above this goes back
