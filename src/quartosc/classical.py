"""Classical canonical perturbation theory through second order.

In action-angle variables the Hamiltonian splits into
H0 = omega1*I1 + omega2*I2 plus the coupling
V = 4*I1*I2*cos^2(theta1)*cos^2(theta2).  A near-identity canonical
transformation removes the angle dependence order by order; the
resulting normal form depends on the new actions only and is quantized
by the torus rule I_k = (n_k + 1/2)*hbar.

The normal-form terms are the analytic angle averages.  The
angle-dependent side -- the coupling on the torus, the first-order
generator, its homological identity and quadrature over the torus -- is
an independent check, not the implementation route, and lives in the
tests' oracle module, tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import ModelParams, PerturbationSeries, QuantumNumbers


@dataclass(frozen=True)
class ActionPair:
    """Non-negative actions (I1, I2)."""

    i1: float
    i2: float

    def __post_init__(self) -> None:
        if self.i1 < 0.0 or self.i2 < 0.0:
            raise ValueError(f"actions must be >= 0, got ({self.i1}, {self.i2})")


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
