import dataclasses
import math

import numpy as np
import pytest

from quartosc.classical import semiclassical_series
from quartosc.diag import (
    assemble_hamiltonian,
    build_basis,
    converged_levels,
    split_parity_blocks,
)
from quartosc.model import (
    DEFAULT_PARAMS,
    ModelError,
    ModelParams,
    NegativeCoupling,
    NonPositiveParameter,
    PerturbationSeries,
    QuantumNumbers,
    ResonantFrequencies,
    range_exponent,
    validate,
)
from quartosc.quantum import qp_series


def test_reference_configuration_accepted():
    p = ModelParams(omega1=1.0, omega2=math.sqrt(2.0), g=0.1, hbar=1.0)
    assert validate(p) is p


def test_equal_frequencies_rejected():
    with pytest.raises(ResonantFrequencies):
        ModelParams(omega1=1.0, omega2=1.0, g=0.1, hbar=1.0)


def test_near_resonant_frequencies_rejected():
    with pytest.raises(ResonantFrequencies):
        ModelParams(omega1=1.0, omega2=1.0 + 1e-9, g=0.1, hbar=1.0)


def test_zero_coupling_accepted():
    p = ModelParams(omega1=1.0, omega2=math.sqrt(2.0), g=0.0, hbar=1.0)
    assert validate(p) is p


@pytest.mark.parametrize(
    "params, error",
    [
        (dict(omega1=0.0, omega2=1.5), NonPositiveParameter),
        (dict(omega1=1.0, omega2=-2.0), NonPositiveParameter),
        (dict(omega1=1.0, omega2=1.5, hbar=0.0), NonPositiveParameter),
        (dict(omega1=1.0, omega2=1.5, g=-0.1), NegativeCoupling),
    ],
)
def test_invalid_parameters_rejected(params, error):
    with pytest.raises(error):
        ModelParams(**params)


@pytest.mark.parametrize("field", ["omega1", "omega2", "g", "hbar"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_rejected_at_construction(field, value):
    kwargs = dict(omega1=1.0, omega2=math.sqrt(2.0), g=0.1, hbar=1.0)
    kwargs[field] = value
    with pytest.raises(ModelError, match=field):
        ModelParams(**kwargs)


def test_replace_revalidates():
    with pytest.raises(NegativeCoupling):
        dataclasses.replace(DEFAULT_PARAMS, g=-0.1)


def test_validate_idempotent():
    p = ModelParams(omega1=1.0, omega2=math.sqrt(2.0))
    assert validate(validate(p)) == p


def test_quantum_numbers_reject_negative_and_non_integer():
    with pytest.raises(ModelError):
        QuantumNumbers(-1, 0)
    with pytest.raises(ModelError):
        QuantumNumbers(0, 1.5)


def test_series_total_is_exact_polynomial():
    s = PerturbationSeries(e0=2.0, e1=-3.0, e2=0.5)
    g = 0.1
    assert s.total(g) == 2.0 + g * (-3.0) + g * g * 0.5
    assert s.total(0.0) == s.e0


def test_range_exponent_is_zero_unless_a_product_leaves_the_normal_range():
    # 0 while g g is finite and 1e-102 < hbar < 5e102 (hbar^3 / 32 a finite normal double).
    for g in (0.0, 0.1, 1.3e154):
        for hbar in (1e-102, 1e-8, 1.0, 1e102):
            assert range_exponent(g, hbar) == 0, (g, hbar)
    cases = [(0.1, 5e-324), (0.1, 1e-103), (0.1, 1e103), (0.0, 1.7e308), (1.4e154, 1.0),
             (1.7e308, 1e-160)]
    for g, hbar in cases:
        s = range_exponent(g, hbar)
        assert s != 0 and 0.5 <= math.ldexp(hbar, s) < 1.0, (g, hbar)


# Each scaled by a power of two lam = 2^k, with range_exponent 0 at both ends.
_HOMOGENEITY_PARAMS = [
    DEFAULT_PARAMS,
    ModelParams(omega1=1.0, omega2=math.sqrt(3.0), g=0.37, hbar=0.1),
    ModelParams(omega1=1.0, omega2=0.3, g=0.2),
]


@pytest.mark.parametrize("k", [-40, -3, 1, 7, 60])
@pytest.mark.parametrize("params", _HOMOGENEITY_PARAMS, ids=["default", "sqrt3", "omega2_0.3"])
def test_model_is_homogeneous_under_power_of_two_rescaling(params, k):
    # At (g / lam, lam hbar) every Hamiltonian entry and both series totals are lam
    # times their values at (g, hbar), bitwise: range_exponent rests on this.
    scaled = dataclasses.replace(params, g=math.ldexp(params.g, -k), hbar=math.ldexp(params.hbar, k))
    assert range_exponent(params.g, params.hbar) == range_exponent(scaled.g, scaled.hbar) == 0
    basis = build_basis(14)
    for b in [basis] + split_parity_blocks(basis):
        band = assemble_hamiltonian(b, params)
        assert np.array_equal(assemble_hamiltonian(b, scaled), np.ldexp(band, k))
    for n1 in range(8):
        for n2 in range(8):
            n = QuantumNumbers(n1, n2)
            for series in (semiclassical_series, qp_series):
                total = series(n, params).total(params.g)
                assert series(n, scaled).total(scaled.g) == math.ldexp(total, k), (n, series)


@pytest.mark.parametrize("k", [-40, -3, 1, 7, 60])
@pytest.mark.parametrize("params", _HOMOGENEITY_PARAMS, ids=["default", "sqrt3", "omega2_0.3"])
def test_report_is_homogeneous_under_power_of_two_rescaling(params, k):
    # The stopping rule is relative, so the whole report scales with the model:
    # energies and history by lam bitwise, labels, weights and final_n_max unchanged.
    scaled = dataclasses.replace(params, g=math.ldexp(params.g, -k), hbar=math.ldexp(params.hbar, k))
    report, rescaled = converged_levels(params), converged_levels(scaled)
    assert rescaled.final_n_max == report.final_n_max
    assert rescaled.history == tuple((n, math.ldexp(delta, k)) for n, delta in report.history)
    assert rescaled.levels == tuple(
        dataclasses.replace(level, energy=math.ldexp(level.energy, k)) for level in report.levels
    )
