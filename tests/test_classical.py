import math

import numpy as np
import pytest

from quartosc.classical import (
    ActionPair,
    ebk_actions,
    h0_actions,
    h1_actions,
    h2_actions,
    semiclassical_series,
)
from quartosc.model import ModelParams, QuantumNumbers, ResonantFrequencies

from oracles import (
    AnglePair,
    action_angle_to_cartesian,
    angle_average,
    coupling_v,
    homological_residual,
    s1_angle_gradient,
    s1_generator,
)

SQRT2 = math.sqrt(2.0)
PARAMS = ModelParams(omega1=1.0, omega2=SQRT2, g=0.1, hbar=1.0)


def test_angles_reduced_on_construction():
    a = AnglePair(2.0 * math.pi + 0.25, -0.25)
    assert a.theta1 == pytest.approx(0.25)
    assert a.theta2 == pytest.approx(2.0 * math.pi - 0.25)


def test_negative_actions_rejected():
    with pytest.raises(ValueError):
        ActionPair(-0.1, 0.5)


def test_cartesian_at_zero_angles():
    q1, p1, q2, p2 = action_angle_to_cartesian(
        ActionPair(0.5, 0.5), AnglePair(0.0, 0.0)
    )
    assert (q1, p1, q2, p2) == pytest.approx((1.0, 0.0, 1.0, 0.0))


def test_cartesian_quarter_turn():
    q1, p1, _, _ = action_angle_to_cartesian(
        ActionPair(2.0, 1.0), AnglePair(math.pi / 2.0, 0.0)
    )
    assert q1 == pytest.approx(0.0, abs=1e-15)
    assert p1 == pytest.approx(2.0)


def test_cartesian_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(100):
        actions = ActionPair(*rng.uniform(0.01, 4.0, 2))
        angles = AnglePair(*rng.uniform(0.0, 2.0 * math.pi, 2))
        q1, p1, q2, p2 = action_angle_to_cartesian(actions, angles)
        assert (q1 * q1 + p1 * p1) / 2.0 == pytest.approx(actions.i1, rel=1e-14)
        assert (q2 * q2 + p2 * p2) / 2.0 == pytest.approx(actions.i2, rel=1e-14)


def test_coupling_v_direct_values():
    assert coupling_v(ActionPair(0.5, 0.5), AnglePair(0.0, 0.0)) == pytest.approx(1.0)
    assert coupling_v(
        ActionPair(1.3, 2.1), AnglePair(math.pi / 2.0, 0.7)
    ) == pytest.approx(0.0, abs=1e-30)


def test_coupling_v_equals_q1sq_q2sq():
    rng = np.random.default_rng(11)
    for _ in range(100):
        actions = ActionPair(*rng.uniform(0.0, 3.0, 2))
        angles = AnglePair(*rng.uniform(0.0, 2.0 * math.pi, 2))
        q1, _, q2, _ = action_angle_to_cartesian(actions, angles)
        assert coupling_v(actions, angles) == pytest.approx(
            q1 * q1 * q2 * q2, rel=1e-14, abs=1e-14
        )


def test_normal_form_terms_direct_values():
    assert h0_actions(ActionPair(0.5, 0.5), PARAMS) == pytest.approx(
        0.5 * (1.0 + SQRT2)
    )
    assert h0_actions(ActionPair(0.0, 0.0), PARAMS) == 0.0
    assert h0_actions(ActionPair(1.0, 0.0), PARAMS) == pytest.approx(1.0)
    assert h1_actions(ActionPair(0.5, 0.5)) == pytest.approx(0.25)
    assert h1_actions(ActionPair(0.0, 5.0)) == 0.0
    assert h2_actions(ActionPair(0.5, 0.5), PARAMS) == pytest.approx(
        -0.11963834764831843, rel=1e-12
    )
    assert h2_actions(ActionPair(1.5, 0.5), PARAMS) == pytest.approx(
        -0.889245128834866, rel=1e-12
    )
    assert h2_actions(ActionPair(0.0, 2.0), PARAMS) == 0.0


def test_second_order_term_rejects_resonance():
    with pytest.raises(ResonantFrequencies):
        h2_actions(ActionPair(1.0, 1.0), ModelParams(omega1=1.0, omega2=1.0))


def test_generator_vanishes_at_zero_angles():
    assert s1_generator(ActionPair(1.7, 0.9), AnglePair(0.0, 0.0), PARAMS) == 0.0


def test_generator_periodicity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        actions = ActionPair(*rng.uniform(0.0, 3.0, 2))
        t1, t2 = rng.uniform(0.0, 2.0 * math.pi, 2)
        base = s1_generator(actions, AnglePair(t1, t2), PARAMS)
        assert s1_generator(
            actions, AnglePair(t1 + 2.0 * math.pi, t2), PARAMS
        ) == pytest.approx(base, abs=1e-14 * (1.0 + abs(base)))
        assert s1_generator(
            actions, AnglePair(t1, t2 + 2.0 * math.pi), PARAMS
        ) == pytest.approx(base, abs=1e-14 * (1.0 + abs(base)))


def test_generator_has_zero_angle_average():
    for i1, i2 in [(0.5, 0.5), (1.5, 0.5), (2.2, 0.9)]:
        avg = angle_average(
            lambda t1, t2: np.vectorize(
                lambda a, b: s1_generator(ActionPair(i1, i2), AnglePair(a, b), PARAMS)
            )(t1, t2),
            quadrature_n=32,
        )
        assert abs(avg) < 1e-12


def test_homological_residual_vanishes():
    rng = np.random.default_rng(42)
    for _ in range(10_000):
        actions = ActionPair(*rng.uniform(0.0, 3.0, 2))
        angles = AnglePair(*rng.uniform(0.0, 2.0 * math.pi, 2))
        v = coupling_v(actions, angles)
        res = homological_residual(actions, angles, PARAMS)
        assert abs(res) < 1e-12 * (1.0 + abs(v))


def test_homological_residual_zero_action_exact():
    assert homological_residual(
        ActionPair(0.0, 1.3), AnglePair(0.4, 1.1), PARAMS
    ) == 0.0


def test_analytic_gradient_matches_finite_differences():
    h = 1e-5
    rng = np.random.default_rng(5)
    for _ in range(20):
        actions = ActionPair(*rng.uniform(0.1, 2.0, 2))
        t1, t2 = rng.uniform(0.0, 2.0 * math.pi, 2)
        d1, d2 = s1_angle_gradient(actions, AnglePair(t1, t2), PARAMS)
        fd1 = (
            s1_generator(actions, AnglePair(t1 + h, t2), PARAMS)
            - s1_generator(actions, AnglePair(t1 - h, t2), PARAMS)
        ) / (2.0 * h)
        fd2 = (
            s1_generator(actions, AnglePair(t1, t2 + h), PARAMS)
            - s1_generator(actions, AnglePair(t1, t2 - h), PARAMS)
        ) / (2.0 * h)
        assert d1 == pytest.approx(fd1, abs=50.0 * h * h)
        assert d2 == pytest.approx(fd2, abs=50.0 * h * h)


def test_angle_average_basics():
    assert angle_average(
        lambda t1, t2: np.cos(t1) ** 2 * np.cos(t2) ** 2, quadrature_n=32
    ) == pytest.approx(0.25, rel=1e-14)
    assert angle_average(lambda t1, t2: 3.7 + 0.0 * t1, quadrature_n=8) == pytest.approx(3.7)
    with pytest.raises(ValueError):
        angle_average(lambda t1, t2: t1, quadrature_n=4)


def test_first_order_term_matches_coupling_average():
    for i1, i2 in [(0.5, 0.5), (1.5, 0.5), (2.7, 1.1)]:
        avg = angle_average(
            lambda t1, t2: 4.0 * i1 * i2 * np.cos(t1) ** 2 * np.cos(t2) ** 2,
            quadrature_n=64,
        )
        assert h1_actions(ActionPair(i1, i2)) == pytest.approx(avg, abs=1e-12)


def test_second_order_term_matches_quadrature_oracle():
    # The angle average of dV/dI . dS1/dtheta must equal the closed form.
    def integrand(i1, i2):
        def fn(t1, t2):
            grad = np.vectorize(
                lambda a, b: s1_angle_gradient(ActionPair(i1, i2), AnglePair(a, b), PARAMS)
            )
            d1, d2 = grad(t1, t2)
            csq = np.cos(t1) ** 2 * np.cos(t2) ** 2
            return 4.0 * i2 * csq * d1 + 4.0 * i1 * csq * d2

        return fn

    for i1, i2 in [(0.5, 0.5), (1.5, 0.5), (2.3, 0.7)]:
        avg = angle_average(integrand(i1, i2), quadrature_n=64)
        assert h2_actions(ActionPair(i1, i2), PARAMS) == pytest.approx(avg, abs=1e-8)


def test_ebk_actions():
    assert ebk_actions(QuantumNumbers(0, 0), 1.0) == ActionPair(0.5, 0.5)
    assert ebk_actions(QuantumNumbers(1, 0), 1.0) == ActionPair(1.5, 0.5)
    a = ebk_actions(QuantumNumbers(3, 2), 0.1)
    assert (a.i1, a.i2) == pytest.approx((0.35, 0.25))
    with pytest.raises(ValueError):
        ebk_actions(QuantumNumbers(0, 0), 0.0)


def test_semiclassical_levels_reference_values():
    assert semiclassical_series(QuantumNumbers(1, 0), PARAMS).total(0.1) == pytest.approx(
        2.273214, abs=5e-7
    )
    assert semiclassical_series(QuantumNumbers(0, 1), PARAMS).total(0.1) == pytest.approx(
        2.690856, abs=5e-7
    )
    # Ground level from direct evaluation of the closed forms.
    assert semiclassical_series(QuantumNumbers(0, 0), PARAMS).total(0.1) == pytest.approx(
        1.2309104, abs=5e-8
    )


def test_semiclassical_zero_coupling_reduces_to_harmonic():
    params = ModelParams(omega1=1.0, omega2=SQRT2, g=0.0, hbar=1.0)
    for n in [QuantumNumbers(0, 0), QuantumNumbers(4, 2)]:
        series = semiclassical_series(n, params)
        assert series.total(0.0) == h0_actions(ebk_actions(n, 1.0), params)


def test_semiclassical_exchange_symmetry():
    swapped = ModelParams(omega1=SQRT2, omega2=1.0, g=0.1, hbar=1.0)
    for n1, n2 in [(0, 0), (2, 1), (5, 3)]:
        a = semiclassical_series(QuantumNumbers(n1, n2), PARAMS)
        b = semiclassical_series(QuantumNumbers(n2, n1), swapped)
        assert a.e0 == pytest.approx(b.e0, rel=1e-14)
        assert a.e1 == pytest.approx(b.e1, rel=1e-14)
        assert a.e2 == pytest.approx(b.e2, rel=1e-14)
