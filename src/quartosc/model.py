"""Physical parameters and level labels common to all pipelines.

The system is a pair of harmonic oscillators with angular frequencies
omega1, omega2 coupled by a quartic term g*q1^2*q2^2.  Everything is
dimensionless ("model units"); hbar enters explicitly so the classical
limit can be probed by shrinking it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

#: Minimum allowed |omega1 - omega2|.  Second-order terms carry a
#: 1/(omega1 - omega2) denominator; this bound keeps them below ~1e6
#: and makes rejection of (near-)resonant input deterministic.
RESONANCE_TOLERANCE = 1e-6


class ModelError(ValueError):
    """Base class for invalid model input."""


class ResonantFrequencies(ModelError):
    """omega1 and omega2 are closer than RESONANCE_TOLERANCE."""


class NonPositiveParameter(ModelError):
    """A frequency or hbar is zero or negative."""


class NegativeCoupling(ModelError):
    """The quartic coupling strength g is negative."""


@dataclass(frozen=True)
class ModelParams:
    """Immutable parameter set (omega1, omega2, g, hbar), model units.

    Construction, dataclasses.replace included, checks every invariant,
    so an instance is always valid.
    """

    omega1: float
    omega2: float
    g: float = 0.1
    hbar: float = 1.0

    def __post_init__(self) -> None:
        for name in ("omega1", "omega2", "hbar", "g"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ModelError(f"{name} must be finite, got {value}")
            if value <= 0.0 and name != "g":
                raise NonPositiveParameter(f"{name} must be > 0, got {value}")
        if self.g < 0.0:
            raise NegativeCoupling(f"coupling g must be >= 0, got {self.g}")
        if abs(self.omega1 - self.omega2) < RESONANCE_TOLERANCE:
            raise ResonantFrequencies(
                f"|omega1 - omega2| = {abs(self.omega1 - self.omega2)!r} "
                f"< {RESONANCE_TOLERANCE:.0e}; the perturbative denominators diverge"
            )


#: Reference configuration used throughout the test tables.
DEFAULT_PARAMS = ModelParams(omega1=1.0, omega2=math.sqrt(2.0), g=0.1, hbar=1.0)


def validate(params: ModelParams) -> ModelParams:
    """Return params unchanged: ModelParams checks itself at construction.

    Kept as public API for callers written against the explicit check;
    the benchmark trace counts its calls.
    """
    return params


def range_exponent(g: float, hbar: float) -> int:
    """The power of two s at which the model is evaluated: g 2^-s and hbar 2^s.

    The model is homogeneous: at (g 2^-s, hbar 2^s) every energy, every
    matrix element and every term of both perturbation series is 2^s times
    its value at (g, hbar).  Scaling by a power of two is exact, so a
    result formed there and scaled back by 2^-s keeps full precision where
    g g, hbar^2 / 4 or hbar^3 / 32 at the true values would leave the
    normal range.  s is 0 while g g is finite and hbar^3 / 32 is a finite
    normal double; otherwise hbar 2^s lies in [0.5, 1).  The products use
    *, as float ** raises on overflow.
    """
    cube = hbar * hbar * hbar / 32.0
    if math.isfinite(g * g) and sys.float_info.min <= cube < math.inf:
        return 0
    return -math.frexp(hbar)[1]


@dataclass(frozen=True)
class QuantumNumbers:
    """Pair of non-negative integers (n1, n2) labeling one level."""

    n1: int
    n2: int

    def __post_init__(self) -> None:
        for name in ("n1", "n2"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise ModelError(f"{name} must be a non-negative integer, got {v!r}")


@dataclass(frozen=True)
class PerturbationSeries:
    """Coefficients of an energy through second order in the coupling g.

    e0 is an energy, e1 an energy per unit g, e2 an energy per unit g^2.
    """

    e0: float
    e1: float
    e2: float

    def total(self, g: float) -> float:
        """Exact polynomial evaluation e0 + g*e1 + g^2*e2."""
        return self.e0 + g * self.e1 + g * g * self.e2
