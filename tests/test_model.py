import dataclasses
import math

import pytest

from quartosc.model import (
    DEFAULT_PARAMS,
    ModelError,
    ModelParams,
    NegativeCoupling,
    NonPositiveParameter,
    PerturbationSeries,
    QuantumNumbers,
    ResonantFrequencies,
    validate,
)


def test_reference_configuration_accepted():
    p = ModelParams(omega1=1.0, omega2=math.sqrt(2.0), g=0.1, hbar=1.0)
    assert validate(p) is p


def test_equal_frequencies_rejected():
    with pytest.raises(ResonantFrequencies):
        validate(ModelParams(omega1=1.0, omega2=1.0, g=0.1, hbar=1.0))


def test_near_resonant_frequencies_rejected():
    with pytest.raises(ResonantFrequencies):
        validate(ModelParams(omega1=1.0, omega2=1.0 + 1e-9, g=0.1, hbar=1.0))


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
        validate(ModelParams(**params))


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
