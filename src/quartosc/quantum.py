"""Rayleigh-Schrodinger perturbation theory through second order.

ladder_square, the one table of the coupling's squared elements, gives H's entries, the first
order (H's diagonal coupling) and the second (the sum over the eight states the coupling
reaches, which the paper prints with its squares written out).  The second order is checked by
tests/oracles.py's float sum over v_matrix_element and by decompose_e2's torus identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import ebk_actions, h2_actions
from .model import ModelParams, PerturbationSeries, QuantumNumbers


def ladder_square(n: int | np.ndarray, step: int):
    """Exact <n + step|(a + a^+)^2|n>^2 for step -2, 0, 2: n(n - 1), (2n + 1)^2, (n + 1)(n + 2)."""
    if step == -2:
        return n * (n - 1)
    if step == 2:
        return (n + 1) * (n + 2)
    return (2 * n + 1) ** 2


def ladder_factor(n: int | np.ndarray, step: int):
    """<n + step|(a + a^+)^2|n>, the root of ladder_square: exact while the square is below 2^53."""
    return np.sqrt(ladder_square(n, step) * 1.0)  # * 1.0: numpy takes no int past int64


def e0_quantum(n1: int | np.ndarray, n2: int | np.ndarray, params: ModelParams):
    """Unperturbed level hbar*[omega1*(n1 + 1/2) + omega2*(n2 + 1/2)]; n1, n2 may be int arrays."""
    return params.hbar * (params.omega1 * (n1 + 0.5) + params.omega2 * (n2 + 0.5))


def e1_quantum(n: QuantumNumbers, hbar: float) -> float:
    """First-order shift hbar^2*(n1 + 1/2)*(n2 + 1/2), H's diagonal coupling element.

    Halving the factors, not hbar^2, spares a subnormal hbar^2 a second rounding.
    """
    return float(hbar * hbar * (0.5 * ladder_factor(n.n1, 0)) * (0.5 * ladder_factor(n.n2, 0)))


def e2_quantum_closed(n: QuantumNumbers, params: ModelParams) -> float:
    """Second-order shift, the sum over the eight states the coupling reaches.

    Step d adds hbar^3/32 times ladder_square(n1, d1) ladder_square(n2, d2) over -(omega1 d1/2 +
    omega2 d2/2), d halved so that it is exact; math.fsum keeps the 1e-12 agreement with the
    brute-force sum.  Where d's and -d's terms overflow with opposite signs, their exact integer
    difference over their shared denominator is summed instead.  The cube uses *: float ** raises.
    """
    w1, w2 = params.omega1, params.omega2
    # (square, denominator) per step d; steps 4 to 7 are steps 3 to 0 negated.
    terms = [(ladder_square(n.n1, d1) * ladder_square(n.n2, d2), -(w1 * (d1 // 2) + w2 * (d2 // 2)))
             for d1 in (-2, 0, 2) for d2 in (-2, 0, 2) if d1 or d2]
    try:
        total = math.fsum(square / den for square, den in terms)
    except ValueError:  # inf - inf
        total = math.fsum((a - b) / den for (a, den), (b, _) in zip(terms, reversed(terms[4:])))
    return params.hbar * params.hbar * params.hbar / 32.0 * total


def q2_correction(n: QuantumNumbers, params: ModelParams) -> float:
    """Quantum correction beyond torus quantization at second order.

    -(3/32) [(n1 - n2)*hbar/(omega1 - omega2) + (n1 + n2 + 1)*hbar/(omega1 + omega2)]

    Linear in both quantum numbers; enters the energy as g^2 * hbar^2 * Q2.
    """
    return -3.0 / 32.0 * (
        (n.n1 - n.n2) * params.hbar / (params.omega1 - params.omega2)
        + (n.n1 + n.n2 + 1) * params.hbar / (params.omega1 + params.omega2)
    )


def qp_series(n: QuantumNumbers, params: ModelParams) -> PerturbationSeries:
    """Quantum perturbative level as a series in g."""
    return PerturbationSeries(
        e0=e0_quantum(n.n1, n.n2, params),
        e1=e1_quantum(n, params.hbar),
        e2=e2_quantum_closed(n, params),
    )


@dataclass(frozen=True)
class EnergyDecomposition:
    """Split of the second-order energy into classical and quantum parts.

    e2_total, the closed form, is e_semiclassical_2 + hbar^2 * q2 up to rounding.
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
