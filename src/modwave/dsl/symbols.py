"""Symbol tables for formula validation and evaluation.

Scalar symbols (carrier frequency, amplitudes, deviation constants, ...)
are constant-valued; names written with a (t) suffix are signal-valued
time series. A bare name resolves to its signal-valued form when only
that form is declared, so a trailing "/ Q" in a formula binds to Q(t).
"""

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

CONSTANT = "constant"
SIGNAL = "signal"


@dataclass(frozen=True)
class SymbolTable:
    roles: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        for name, role in self.roles.items():
            if not name:
                raise ValueError("symbol names must be non-empty")
            if role not in (CONSTANT, SIGNAL):
                raise ValueError(f"unknown role {role!r} for symbol {name!r}")
        object.__setattr__(self, "roles", MappingProxyType(dict(self.roles)))

    def resolve(self, name: str) -> str | None:
        """Return the declared name `name` binds to, or None if undefined."""
        if name in self.roles:
            return name
        alias = f"{name}(t)"
        if alias in self.roles:
            return alias
        return None


def default_symbol_table() -> SymbolTable:
    """Symbols used by the bundled corpus and the formula generator."""
    return SymbolTable(
        {
            "t": CONSTANT,          # time axis, bound to the sample grid
            "pi": CONSTANT,
            "f_c": CONSTANT,        # carrier frequency, Hz
            "f_m": CONSTANT,        # message frequency, Hz
            "A": CONSTANT,
            "A_c": CONSTANT,
            "m": CONSTANT,          # modulation index
            "k_f": CONSTANT,        # frequency deviation, Hz per message unit
            "k_p": CONSTANT,        # phase deviation, rad per message unit
            "phi": CONSTANT,
            "phi_c": CONSTANT,
            "phi_m": CONSTANT,
            "n": CONSTANT,          # finite-sum upper bound
            "f(t)": SIGNAL,         # instantaneous frequency stream
            "d(t)": SIGNAL,         # data symbol stream
            "I(t)": SIGNAL,         # in-phase baseband stream
            "Q(t)": SIGNAL,         # quadrature baseband stream
            "m(t)": SIGNAL,         # analog message waveform
        }
    )
