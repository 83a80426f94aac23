"""Classical canonical perturbation theory through second order.

In action-angle variables the Hamiltonian splits into
H0 = omega1*I1 + omega2*I2 plus the coupling
V = 4*I1*I2*cos^2(theta1)*cos^2(theta2).  A near-identity canonical
transformation removes the angle dependence order by order; the
resulting normal form depends on the new actions only and is quantized
by the torus rule I_k = (n_k + 1/2)*hbar.

All derivatives used by the first-order (homological) identity are
analytic; quadrature over the angle torus exists as an independent
check, not as the implementation route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import ModelParams, PerturbationSeries, QuantumNumbers

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ActionPair:
    """Non-negative actions (I1, I2)."""

    i1: float
    i2: float

    def __post_init__(self) -> None:
        if self.i1 < 0.0 or self.i2 < 0.0:
            raise ValueError(f"actions must be >= 0, got ({self.i1}, {self.i2})")


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


def h0_actions(actions: ActionPair, params: ModelParams) -> float:
    """Unperturbed normal-form term omega1*I1 + omega2*I2."""
    return params.omega1 * actions.i1 + params.omega2 * actions.i2


def h1_actions(actions: ActionPair) -> float:
    """First-order normal-form term: the angle average of the coupling, I1*I2."""
    return actions.i1 * actions.i2


def h2_actions(actions: ActionPair, params: ModelParams) -> float:
    """Second-order normal-form term.

    -(1/8) I1 I2 [ 4 (I1/omega2 + I2/omega1)
                   - (I1 - I2)/(omega1 - omega2)
                   + (I1 + I2)/(omega1 + omega2) ]
    """
    i1, i2 = actions.i1, actions.i2
    w1, w2 = params.omega1, params.omega2
    bracket = (
        4.0 * (i1 / w2 + i2 / w1)
        - (i1 - i2) / (w1 - w2)
        + (i1 + i2) / (w1 + w2)
    )
    return -0.125 * i1 * i2 * bracket


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


def ebk_actions(n: QuantumNumbers, hbar: float) -> ActionPair:
    """Torus-quantized actions I_k = (n_k + 1/2) * hbar."""
    if hbar <= 0.0:
        raise ValueError(f"hbar must be > 0, got {hbar}")
    return ActionPair((n.n1 + 0.5) * hbar, (n.n2 + 0.5) * hbar)


def semiclassical_series(n: QuantumNumbers, params: ModelParams) -> PerturbationSeries:
    """Semiclassical level as a series in g: normal form at quantized actions."""
    actions = ebk_actions(n, params.hbar)
    return PerturbationSeries(
        e0=h0_actions(actions, params),
        e1=h1_actions(actions),
        e2=h2_actions(actions, params),
    )
