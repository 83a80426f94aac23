"""The tests' independent oracles, which cross-check the perturbative routes.

The tests import this module as `oracles`; the quartosc package does not
ship it.

Classical: the angle-dependent side of the averaging transformation --
the coupling V and the first-order generator S1 on the angle torus, the
homological identity omega . dS1/dtheta + V - H1 = 0, and quadrature
over the torus, which checks the analytic angle averages behind
classical.h1_actions and classical.h2_actions.

Quantum: the coupling's matrix elements one at a time, and the
second-order shift by brute-force sum over intermediate states, which
checks the closed form quantum.e2_quantum_closed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from quartosc.classical import ActionPair, h1_actions
from quartosc.model import ModelParams, QuantumNumbers, range_exponent
from quartosc.quantum import ladder_factor

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class AnglePair:
    """Angles (theta1, theta2), reduced to [0, 2*pi) on construction."""

    theta1: float
    theta2: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta1", self.theta1 % TWO_PI)
        object.__setattr__(self, "theta2", self.theta2 % TWO_PI)


def action_angle_to_cartesian(
    actions: ActionPair, angles: AnglePair
) -> tuple[float, float, float, float]:
    """(q1, p1, q2, p2) with q_k = sqrt(2 I_k) cos(theta_k), p_k = sqrt(2 I_k) sin(theta_k)."""
    r1 = math.sqrt(2.0 * actions.i1)
    r2 = math.sqrt(2.0 * actions.i2)
    return (
        r1 * math.cos(angles.theta1),
        r1 * math.sin(angles.theta1),
        r2 * math.cos(angles.theta2),
        r2 * math.sin(angles.theta2),
    )


def coupling_v(actions: ActionPair, angles: AnglePair) -> float:
    """Coupling term 4 I1 I2 cos^2(theta1) cos^2(theta2)  (= q1^2 q2^2)."""
    c1 = math.cos(angles.theta1)
    c2 = math.cos(angles.theta2)
    return 4.0 * actions.i1 * actions.i2 * c1 * c1 * c2 * c2


def s1_generator(actions: ActionPair, angles: AnglePair, params: ModelParams) -> float:
    """First-order generating function of the averaging transformation.

    -(1/4) I1 I2 [ (2/omega1) sin(2 theta1) + (2/omega2) sin(2 theta2)
                   + sin(2(theta1 - theta2))/(omega1 - omega2)
                   + sin(2(theta1 + theta2))/(omega1 + omega2) ]
    """
    i1, i2 = actions.i1, actions.i2
    w1, w2 = params.omega1, params.omega2
    t1, t2 = angles.theta1, angles.theta2
    return -0.25 * i1 * i2 * (
        (2.0 / w1) * math.sin(2.0 * t1)
        + (2.0 / w2) * math.sin(2.0 * t2)
        + math.sin(2.0 * (t1 - t2)) / (w1 - w2)
        + math.sin(2.0 * (t1 + t2)) / (w1 + w2)
    )


def s1_angle_gradient(
    actions: ActionPair, angles: AnglePair, params: ModelParams
) -> tuple[float, float]:
    """Analytic (dS1/dtheta1, dS1/dtheta2)."""
    i1, i2 = actions.i1, actions.i2
    w1, w2 = params.omega1, params.omega2
    t1, t2 = angles.theta1, angles.theta2
    cm = math.cos(2.0 * (t1 - t2))
    cp = math.cos(2.0 * (t1 + t2))
    d1 = -0.25 * i1 * i2 * (
        (4.0 / w1) * math.cos(2.0 * t1)
        + 2.0 * cm / (w1 - w2)
        + 2.0 * cp / (w1 + w2)
    )
    d2 = -0.25 * i1 * i2 * (
        (4.0 / w2) * math.cos(2.0 * t2)
        - 2.0 * cm / (w1 - w2)
        + 2.0 * cp / (w1 + w2)
    )
    return d1, d2


def homological_residual(
    actions: ActionPair, angles: AnglePair, params: ModelParams
) -> float:
    """omega . dS1/dtheta + V - H1, identically zero up to rounding.

    This is the first-order condition that determines S1; a nonzero
    value (beyond rounding) would mean the generator and the averaged
    term are inconsistent.
    """
    d1, d2 = s1_angle_gradient(actions, angles, params)
    return (
        params.omega1 * d1
        + params.omega2 * d2
        + coupling_v(actions, angles)
        - h1_actions(actions)
    )


def angle_average(fn: Callable[[np.ndarray, np.ndarray], np.ndarray], quadrature_n: int = 64) -> float:
    """Average of fn(theta1, theta2) over the torus [0, 2*pi)^2.

    Uniform tensor grid (trapezoid rule on a periodic domain), which is
    exact to rounding for trigonometric polynomials of degree below
    quadrature_n.  fn must broadcast over numpy arrays.  Row sums are
    combined in index order so the result is deterministic.
    """
    if quadrature_n < 8:
        raise ValueError(f"quadrature_n must be >= 8, got {quadrature_n}")
    t = TWO_PI * np.arange(quadrature_n) / quadrature_n
    t1, t2 = np.meshgrid(t, t, indexing="ij")
    values = np.asarray(fn(t1, t2), dtype=float)
    row_means = values.mean(axis=1)
    return float(row_means.mean())


# Per-mode step stencil allowed by the ladder-operator selection rules.
_STEPS = (-2, 0, 2)
#: Two-mode steps (bra - ket) of the nonzero coupling elements, (0, 0) included.
STENCIL = tuple((d1, d2) for d1 in _STEPS for d2 in _STEPS)


def v_matrix_element(
    bra: QuantumNumbers, ket: QuantumNumbers, hbar: float, g: float = 1.0
) -> float:
    """<bra|g V|ket> = g * (hbar^2/4) * factor(n1', n1) * factor(n2', n2).

    As diag.assemble_hamiltonian forms its couplings: at model.range_exponent's
    g 2^-s and hbar 2^s, scaled back by 2^-s last.
    """
    d1, d2 = bra.n1 - ket.n1, bra.n2 - ket.n2
    if (d1, d2) not in STENCIL:
        return 0.0
    s = range_exponent(g, hbar)
    h = math.ldexp(hbar, s)
    element = float(0.25 * h * h * ladder_factor(ket.n1, d1) * ladder_factor(ket.n2, d2))
    with np.errstate(over="ignore"):  # an overflowing element is inf, as in the kernel
        return float(np.ldexp(np.ldexp(g, -s) * element, -s))


def e2_quantum_sum(n: QuantumNumbers, params: ModelParams) -> float:
    """Second-order shift by direct sum over intermediate states.

    Enumerates the 3x3 step stencil minus the origin; steps that would
    produce a negative quantum number carry a vanishing matrix element
    and are skipped.  Independent oracle for e2_quantum_closed.
    """
    hbar = params.hbar
    terms = []
    for d1, d2 in STENCIL:
        m1, m2 = n.n1 + d1, n.n2 + d2
        if (d1, d2) == (0, 0) or m1 < 0 or m2 < 0:
            continue
        element = v_matrix_element(QuantumNumbers(m1, m2), n, hbar)
        denominator = hbar * (-params.omega1 * d1 - params.omega2 * d2)
        terms.append(element * element / denominator)
    return math.fsum(terms)
