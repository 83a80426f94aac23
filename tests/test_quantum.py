import math

import numpy as np
import pytest

from quartosc.classical import ebk_actions, h0_actions, h1_actions
from quartosc.model import ModelParams, QuantumNumbers, ResonantFrequencies
from quartosc.quantum import (
    decompose_e2,
    e0_quantum,
    e1_quantum,
    e2_quantum_closed,
    q2_correction,
    qp_series,
)

from oracles import e2_quantum_sum, v_matrix_element

SQRT2 = math.sqrt(2.0)
PARAMS = ModelParams(omega1=1.0, omega2=SQRT2, g=0.1, hbar=1.0)


def _bra_ket(b1, b2, k1, k2):
    return QuantumNumbers(b1, b2), QuantumNumbers(k1, k2)


def test_matrix_element_values():
    assert v_matrix_element(*_bra_ket(0, 0, 0, 0), 1.0) == pytest.approx(0.25)
    assert v_matrix_element(*_bra_ket(2, 0, 0, 0), 1.0) == pytest.approx(
        0.25 * math.sqrt(2.0), rel=1e-15
    )
    # odd steps are forbidden
    assert v_matrix_element(*_bra_ket(1, 0, 0, 0), 1.0) == 0.0
    assert v_matrix_element(*_bra_ket(0, 3, 0, 0), 1.0) == 0.0


def test_matrix_element_hermitian():
    rng = np.random.default_rng(13)
    for _ in range(200):
        n1, n2 = rng.integers(0, 41, 2)
        d1, d2 = rng.choice([-2, 0, 2], 2)
        m1, m2 = int(n1 + d1), int(n2 + d2)
        if m1 < 0 or m2 < 0:
            continue
        a = v_matrix_element(*_bra_ket(m1, m2, int(n1), int(n2)), 1.0)
        b = v_matrix_element(*_bra_ket(int(n1), int(n2), m1, m2), 1.0)
        assert a == pytest.approx(b, rel=1e-14)


def test_zeroth_order_values():
    assert e0_quantum(QuantumNumbers(0, 0), PARAMS) == pytest.approx((1.0 + SQRT2) / 2.0)
    assert e0_quantum(QuantumNumbers(1, 0), PARAMS) == pytest.approx(1.5 + SQRT2 / 2.0)
    small = ModelParams(omega1=1.0, omega2=SQRT2, g=0.1, hbar=0.1)
    assert e0_quantum(QuantumNumbers(0, 0), small) == pytest.approx((1.0 + SQRT2) / 20.0)


def test_first_order_values():
    assert e1_quantum(QuantumNumbers(0, 0), 1.0) == pytest.approx(0.25)
    assert e1_quantum(QuantumNumbers(1, 0), 1.0) == pytest.approx(0.75)
    # equals the diagonal coupling element
    assert e1_quantum(QuantumNumbers(3, 2), 1.0) == pytest.approx(
        v_matrix_element(*_bra_ket(3, 2, 3, 2), 1.0)
    )


def test_low_orders_coincide_with_torus_quantization():
    for hbar in (1.0, 0.1):
        params = ModelParams(omega1=1.0, omega2=SQRT2, g=0.1, hbar=hbar)
        for n1 in range(21):
            for n2 in range(21):
                n = QuantumNumbers(n1, n2)
                actions = ebk_actions(n, hbar)
                assert e0_quantum(n, params) == pytest.approx(
                    h0_actions(actions, params), rel=1e-14
                )
                assert e1_quantum(n, hbar) == pytest.approx(
                    h1_actions(actions), rel=1e-14
                )


def test_second_order_closed_values():
    assert e2_quantum_closed(QuantumNumbers(0, 0), PARAMS) == pytest.approx(
        (1.0 / 32.0) * (-4.0 / (1.0 + SQRT2) - 2.0 - 2.0 / SQRT2), rel=1e-13
    )
    assert e2_quantum_closed(QuantumNumbers(0, 0), PARAMS) == pytest.approx(
        -0.1584708691207961, rel=1e-12
    )
    assert e2_quantum_closed(QuantumNumbers(1, 0), PARAMS) == pytest.approx(
        -0.7405776503073436, rel=1e-12
    )


def test_second_order_exchange_symmetry():
    swapped = ModelParams(omega1=SQRT2, omega2=1.0, g=0.1, hbar=1.0)
    for n1, n2 in [(0, 0), (3, 3), (4, 1), (7, 2)]:
        assert e2_quantum_closed(QuantumNumbers(n1, n2), PARAMS) == pytest.approx(
            e2_quantum_closed(QuantumNumbers(n2, n1), swapped), rel=1e-13
        )


def test_second_order_sum_matches_closed_form():
    for n1, n2 in [(0, 0), (5, 3), (1, 0), (12, 9)]:
        assert e2_quantum_sum(QuantumNumbers(n1, n2), PARAMS) == pytest.approx(
            e2_quantum_closed(QuantumNumbers(n1, n2), PARAMS), rel=1e-12
        )


def test_ground_state_sum_has_three_terms():
    # Down-steps annihilate the ground state, leaving (2,0), (0,2), (2,2).
    n = QuantumNumbers(0, 0)
    contributions = [
        v_matrix_element(*_bra_ket(m1, m2, 0, 0), 1.0)
        for m1 in (0, 2)
        for m2 in (0, 2)
        if (m1, m2) != (0, 0)
    ]
    assert sum(1 for c in contributions if c != 0.0) == 3
    assert e2_quantum_sum(n, PARAMS) == pytest.approx(
        e2_quantum_closed(n, PARAMS), rel=1e-12
    )


def test_quantum_correction_values():
    assert q2_correction(QuantumNumbers(0, 0), PARAMS) == pytest.approx(
        -3.0 / 32.0 / (1.0 + SQRT2), rel=1e-14
    )
    assert q2_correction(QuantumNumbers(1, 0), PARAMS) == pytest.approx(
        0.14866747852752227, rel=1e-12
    )
    # equal quantum numbers kill the difference term
    for n in (0, 3, 7):
        expected = -3.0 / 32.0 * (2 * n + 1) / (1.0 + SQRT2)
        assert q2_correction(QuantumNumbers(n, n), PARAMS) == pytest.approx(
            expected, rel=1e-14
        )


def test_quantum_correction_linear_in_quantum_numbers():
    def q(n1, n2):
        return q2_correction(QuantumNumbers(n1, n2), PARAMS)

    assert q(2, 0) - q(1, 0) == pytest.approx(q(1, 0) - q(0, 0), rel=1e-12)
    assert q(0, 2) - q(0, 1) == pytest.approx(q(0, 1) - q(0, 0), rel=1e-12)


def test_perturbative_levels_reference_values():
    assert qp_series(QuantumNumbers(0, 0), PARAMS).total(0.1) == pytest.approx(
        1.230522, abs=5e-7
    )
    assert qp_series(QuantumNumbers(2, 0), PARAMS).total(0.1) == pytest.approx(
        3.311809, abs=5e-7
    )
    assert qp_series(QuantumNumbers(2, 3), PARAMS).total(0.1) == pytest.approx(
        8.088912, abs=5e-7
    )


def test_decomposition_identity():
    for hbar in (1.0, 0.1):
        params = ModelParams(omega1=1.0, omega2=SQRT2, g=0.1, hbar=hbar)
        for n1 in range(0, 51, 5):
            for n2 in range(0, 51, 5):
                d = decompose_e2(QuantumNumbers(n1, n2), params)
                assert d.e2_total == pytest.approx(
                    d.e_semiclassical_2 + hbar * hbar * d.q2,
                    rel=1e-12,
                )


def test_decomposition_components():
    d = decompose_e2(QuantumNumbers(0, 0), PARAMS)
    assert d.e_semiclassical_2 == pytest.approx(-0.1196383476, rel=1e-9)
    assert d.q2 == pytest.approx(-0.0388325215, rel=1e-7)
    assert d.e2_total == pytest.approx(-0.1584708691, rel=1e-9)
    d = decompose_e2(QuantumNumbers(1, 0), PARAMS)
    assert d.e_semiclassical_2 == pytest.approx(-0.8892451288, rel=1e-9)
    assert d.q2 == pytest.approx(0.1486674785, rel=1e-9)
    assert d.e2_total == pytest.approx(-0.7405776503, rel=1e-9)


def test_hbar_scaling_of_series_orders():
    n = QuantumNumbers(2, 1)
    base = ModelParams(omega1=1.0, omega2=SQRT2, g=0.1, hbar=1.0)
    doubled = ModelParams(omega1=1.0, omega2=SQRT2, g=0.1, hbar=2.0)
    a, b = qp_series(n, base), qp_series(n, doubled)
    assert b.e0 == pytest.approx(2.0 * a.e0, rel=1e-14)
    assert b.e1 == pytest.approx(4.0 * a.e1, rel=1e-14)
    assert b.e2 == pytest.approx(8.0 * a.e2, rel=1e-13)


@pytest.mark.parametrize("hbar", [6e102, 1e103])
def test_second_order_returns_where_the_hbar_cube_overflows(hbar):
    # hbar^3 / 32 leaves the double range: the second order is infinite, not an
    # OverflowError from float **, as semiclassical_series already returns.
    n, params = QuantumNumbers(1, 2), ModelParams(omega1=1.0, omega2=2.0, g=0.1, hbar=hbar)
    assert math.isinf(qp_series(n, params).e2)
    assert math.isinf(decompose_e2(n, params).e2_total)


def test_resonant_input_rejected():
    for series in (e2_quantum_closed, q2_correction, qp_series):
        with pytest.raises(ResonantFrequencies):
            series(QuantumNumbers(0, 0), ModelParams(omega1=1.0, omega2=1.0, g=0.1, hbar=1.0))
