"""The formula namespace: every name a formula may read.

Validation accepts exactly these names, and synthesis binds each one a
formula reads (see synth.formula_context). Scalar names (carrier
frequency, amplitudes, deviation constants, ...) are constant-valued;
names written with a (t) suffix are signal-valued time series. A bare name resolves to its
signal-valued form when only that form is in the namespace, so a trailing
"/ Q" in a formula binds to Q(t).
"""

NAMES = frozenset({
    "t",        # time axis, bound to the sample grid
    "pi",
    "f_c",      # carrier frequency, Hz
    "f_m",      # message frequency, Hz
    "A",
    "A_c",
    "m",        # modulation index
    "k_f",      # frequency deviation, Hz per message unit
    "k_p",      # phase deviation, rad per message unit
    "phi",
    "phi_c",
    "phi_m",
    "n",        # finite-sum upper bound
    "f(t)",     # instantaneous frequency stream
    "d(t)",     # data symbol stream
    "I(t)",     # in-phase baseband stream
    "Q(t)",     # quadrature baseband stream
    "m(t)",     # analog message waveform
})

# the signal-valued names that follow the symbol labels
LABEL_STREAMS = ("I(t)", "Q(t)", "d(t)", "f(t)")


def resolve(name: str) -> str | None:
    """Return the name in NAMES that `name` binds to, or None if undefined."""
    if name in NAMES:
        return name
    alias = f"{name}(t)"
    return alias if alias in NAMES else None
