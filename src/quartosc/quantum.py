"""Rayleigh-Schrodinger perturbation theory through second order.

The coupling operator in the two-mode number basis only connects states
with Delta n in {0, +2, -2} per mode, so the second-order sum runs over
at most eight intermediate states and has a closed form; its
brute-force sum, the independent check of that form, lives in the
tests' oracle module, tests/oracles.py.

The second-order energy splits into the torus-quantized classical term
plus an hbar^2 quantum correction that is linear in the quantum numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import ebk_actions, h2_actions
from .model import ModelParams, PerturbationSeries, QuantumNumbers


def ladder_factor(n: int | np.ndarray, step: int):
    """Single-mode factor of <n + step|(a + a^+)^2|n>, step -2, 0 or 2; n may be an int array."""
    if step == -2:
        return np.sqrt(n * (n - 1))
    if step == 2:
        return np.sqrt((n + 1) * (n + 2))
    return 2.0 * n + 1.0


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
    cost the 1e-12 agreement with the brute-force sum.  The cube uses *, as
    float ** raises on overflow.
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
    return params.hbar * params.hbar * params.hbar / 32.0 * math.fsum(terms)


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
