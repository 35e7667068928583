"""Error types and resource guards shared across the package.

Every guard that bounds an enumeration lives in a single Guards value so
callers (library users, the CLI, tests) can tighten or relax limits in one
place.  Exceeding a guard is never silent: it raises GuardExceeded, which the
CLI maps to its own exit code, distinct from both "property fails" and
"hypotheses unmet".
"""

from __future__ import annotations

import dataclasses
import os


class EplabError(Exception):
    """Base class for all package errors."""

    exit_code = 4


class InputError(EplabError):
    """Malformed or semantically invalid input (tables, files, arguments)."""

    exit_code = 4


class GuardExceeded(EplabError):
    """A requested computation exceeds the configured resource guards."""

    exit_code = 3


class UnsupportedConstruction(EplabError):
    """The requested construction is outside the supported catalog."""

    exit_code = 3


class HypothesesUnmet(EplabError):
    """A theorem-level operation was invoked with its hypotheses violated."""

    exit_code = 2


class NotPrincipalError(HypothesesUnmet):
    """An ideal expected to be principal is not."""


class InternalConsistencyError(EplabError):
    """Two independent methods disagreed on a value they must agree on."""

    exit_code = 4


@dataclasses.dataclass(frozen=True)
class Guards:
    """Resource limits for enumerative computations.

    max_order    -- largest ring or module order for table construction and
                    exhaustive lattice/automorphism enumeration
    max_field    -- largest finite-field order
    max_code     -- largest number of codewords materialized per code
    max_n        -- largest code length explored by the verifiers
    max_gens     -- largest generator count per code in verifier sweeps
    """

    max_order: int = 64
    max_field: int = 256
    max_code: int = 4096
    max_n: int = 3
    max_gens: int = 2

    def __post_init__(self):
        for field in dataclasses.fields(self):
            val = getattr(self, field.name)
            if type(val) is not int:
                raise InputError(f"guard {field.name} must be an integer, got {val!r}")
            if val < 1:
                raise InputError(f"guard {field.name} must be positive, got {val}")

    @staticmethod
    def from_env(**overrides) -> "Guards":
        """Build guards from EPLAB_MAX_* environment variables plus overrides."""
        values = {}
        for field in dataclasses.fields(Guards):
            env = os.environ.get("EPLAB_" + field.name.upper())
            if env is not None:
                try:
                    values[field.name] = int(env)
                except ValueError as exc:
                    raise InputError(
                        f"environment variable EPLAB_{field.name.upper()} "
                        f"must be an integer, got {env!r}"
                    ) from exc
        for key, val in overrides.items():
            if val is not None:
                values[key] = int(val)
        return Guards(**values)


DEFAULT_GUARDS = Guards()


def check_guard(value: int, limit: int, what: str) -> None:
    if value > limit:
        raise GuardExceeded(f"{what} ({value}) exceeds guard ({limit})")


def check_power_guard(base: int, exponent: int, limit: int, what: str) -> None:
    """check_guard(base ** exponent, limit, what) for base >= 2, without
    building the power: the product stops at its first partial power above
    limit, after at most limit.bit_length() factors, and the message holds
    no number but the limit."""
    value = 1
    for _ in range(exponent):
        value *= base
        if value > limit:
            raise GuardExceeded(f"{what} exceeds guard ({limit})")
