"""Rayleigh-Schrodinger perturbation theory through second order.

The coupling operator in the two-mode number basis only connects states
with Delta n in {0, +2, -2} per mode, so the second-order sum runs over
at most eight intermediate states and can be done both in closed form
and by brute force; the two routes cross-check each other.

The second-order energy splits into the torus-quantized classical term
plus an hbar^2 quantum correction that is linear in the quantum numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .classical import ebk_actions, h2_actions
from .model import ModelParams, PerturbationSeries, QuantumNumbers

# Per-mode step stencil allowed by the ladder-operator selection rules.
_STEPS = (-2, 0, 2)


@dataclass(frozen=True)
class MatrixElementKey:
    """Bra/ket label pair for one coupling matrix element."""

    bra: QuantumNumbers
    ket: QuantumNumbers


def _ladder_factor(m: int, n: int) -> float:
    """Single-mode factor of <m|(a + a^+)^2|n>."""
    if m == n - 2:
        return math.sqrt(n * (n - 1))
    if m == n + 2:
        return math.sqrt((n + 1) * (n + 2))
    if m == n:
        return 2.0 * n + 1.0
    return 0.0


def v_matrix_element(key: MatrixElementKey, hbar: float) -> float:
    """<bra|V|ket> = (hbar^2/4) * factor(n1', n1) * factor(n2', n2)."""
    bra, ket = key.bra, key.ket
    return (
        0.25
        * hbar
        * hbar
        * _ladder_factor(bra.n1, ket.n1)
        * _ladder_factor(bra.n2, ket.n2)
    )


def e0_quantum(n: QuantumNumbers, params: ModelParams) -> float:
    """Unperturbed level hbar*[omega1*(n1 + 1/2) + omega2*(n2 + 1/2)]."""
    return params.hbar * (
        params.omega1 * (n.n1 + 0.5) + params.omega2 * (n.n2 + 0.5)
    )


def e1_quantum(n: QuantumNumbers, hbar: float) -> float:
    """First-order shift hbar^2*(n1 + 1/2)*(n2 + 1/2), the diagonal coupling element."""
    return hbar * hbar * (n.n1 + 0.5) * (n.n2 + 0.5)


def e2_quantum_closed(n: QuantumNumbers, params: ModelParams) -> float:
    """Second-order shift, closed form (eight partially cancelling terms).

    The terms are accumulated with math.fsum so the cancellation does not
    cost the 1e-12 agreement with the brute-force sum.
    """
    n1, n2 = n.n1, n.n2
    w1, w2 = params.omega1, params.omega2
    terms = (
        n1 * (n1 - 1) * n2 * (n2 - 1) / (w1 + w2),
        -(n1 + 1) * (n1 + 2) * (n2 + 1) * (n2 + 2) / (w1 + w2),
        n1 * (n1 - 1) * (n2 + 1) * (n2 + 2) / (w1 - w2),
        -(n1 + 1) * (n1 + 2) * n2 * (n2 - 1) / (w1 - w2),
        n1 * (n1 - 1) * (2 * n2 + 1) ** 2 / w1,
        -(n1 + 1) * (n1 + 2) * (2 * n2 + 1) ** 2 / w1,
        (2 * n1 + 1) ** 2 * n2 * (n2 - 1) / w2,
        -(2 * n1 + 1) ** 2 * (n2 + 1) * (n2 + 2) / w2,
    )
    return params.hbar**3 / 32.0 * math.fsum(terms)


def e2_quantum_sum(n: QuantumNumbers, params: ModelParams) -> float:
    """Second-order shift by direct sum over intermediate states.

    Enumerates the 3x3 step stencil minus the origin; steps that would
    produce a negative quantum number carry a vanishing matrix element
    and are skipped.  Independent oracle for e2_quantum_closed.
    """
    hbar = params.hbar
    terms = []
    for d1 in _STEPS:
        for d2 in _STEPS:
            if d1 == 0 and d2 == 0:
                continue
            m1, m2 = n.n1 + d1, n.n2 + d2
            if m1 < 0 or m2 < 0:
                continue
            element = v_matrix_element(
                MatrixElementKey(QuantumNumbers(m1, m2), n), hbar
            )
            denominator = hbar * (-params.omega1 * d1 - params.omega2 * d2)
            terms.append(element * element / denominator)
    return math.fsum(terms)


def q2_correction(n: QuantumNumbers, params: ModelParams) -> float:
    """Quantum correction beyond torus quantization at second order.

    -(3/32) [ (n1 - n2)*hbar/(omega1 - omega2)
              + (n1 + n2 + 1)*hbar/(omega1 + omega2) ]

    Linear in both quantum numbers; enters the energy as g^2 * hbar^2 * Q2.
    """
    return -3.0 / 32.0 * (
        (n.n1 - n.n2) * params.hbar / (params.omega1 - params.omega2)
        + (n.n1 + n.n2 + 1) * params.hbar / (params.omega1 + params.omega2)
    )


def qp_series(n: QuantumNumbers, params: ModelParams) -> PerturbationSeries:
    """Quantum perturbative level as a series in g."""
    return PerturbationSeries(
        e0=e0_quantum(n, params),
        e1=e1_quantum(n, params.hbar),
        e2=e2_quantum_closed(n, params),
    )


@dataclass(frozen=True)
class EnergyDecomposition:
    """Split of the second-order energy into classical and quantum parts.

    e2_total = e_semiclassical_2 + hbar^2 * q2, exactly as evaluated.
    """

    e_semiclassical_2: float
    q2: float
    e2_total: float


def decompose_e2(n: QuantumNumbers, params: ModelParams) -> EnergyDecomposition:
    """Second-order energy as torus-quantized term plus hbar^2 correction."""
    return EnergyDecomposition(
        e_semiclassical_2=h2_actions(ebk_actions(n, params.hbar), params),
        q2=q2_correction(n, params),
        e2_total=e2_quantum_closed(n, params),
    )
