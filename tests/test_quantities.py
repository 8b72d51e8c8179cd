import math

import numpy as np
import pytest

from oqcsim.errors import ConfigurationError, DomainError
from oqcsim.quantities import (CONSTANTS, SpectralQuantity, SpectralUnit, convert,
                               wave_number, wave_number_from_cm)

ALL_UNITS = list(SpectralUnit)


def test_constants_pinned():
    assert CONSTANTS.z0 == 376.7
    assert CONSTANTS.c_light == 299792458.0


def test_zero_wavenumber_converts_to_zero():
    q = SpectralQuantity(0.0, SpectralUnit.WAVENUMBER)
    assert convert(q, SpectralUnit.ANGULAR).value == 0.0


def test_one_wavenumber_is_29p98_ghz():
    # oracle: nu = c * vtilde with c in cm/s
    q = convert(SpectralQuantity(1.0, SpectralUnit.WAVENUMBER), SpectralUnit.FREQUENCY)
    assert q.value == pytest.approx(29.9792458e9, rel=1e-12)


def test_visible_carrier_angular_frequency():
    # oracle: omega = 2 pi c vtilde = 3.7673031346177065e15 rad/s at 20000 cm^-1
    q = convert(SpectralQuantity(20000.0, SpectralUnit.WAVENUMBER), SpectralUnit.ANGULAR)
    assert q.value == pytest.approx(3767303134617706.5, rel=1e-12)


def test_energy_unit_roundtrip_value():
    # E = h nu for 1 Hz
    q = convert(SpectralQuantity(1.0, SpectralUnit.FREQUENCY), SpectralUnit.ENERGY)
    assert q.value == pytest.approx(2 * math.pi * CONSTANTS.hbar, rel=1e-12)


@pytest.mark.parametrize("u1", ALL_UNITS)
@pytest.mark.parametrize("u2", ALL_UNITS)
def test_roundtrip_all_unit_pairs(u1, u2):
    rng = np.random.default_rng(1234)
    for value in rng.uniform(1e-3, 1e5, size=25):
        q = SpectralQuantity(float(value), u1)
        back = convert(convert(q, u2), u1)
        assert back.value == pytest.approx(q.value, rel=1e-12)
        assert back.unit is u1


def test_convert_rejects_unknown_unit():
    q = SpectralQuantity(1.0, SpectralUnit.WAVENUMBER)
    with pytest.raises(ConfigurationError):
        convert(q, "furlongs")


def test_convert_rejects_negative_value():
    with pytest.raises(DomainError):
        convert(SpectralQuantity(-1.0, SpectralUnit.FREQUENCY), SpectralUnit.ENERGY)


def test_wave_number_zero_frequency():
    assert wave_number(0.0, 1.43) == 0.0


def test_wave_number_visible_carrier():
    omega = 3767303134617706.5
    assert wave_number(omega, 1.0) == pytest.approx(1.2566370614359172e7, rel=1e-12)


def test_wave_number_linear_in_index():
    omega = 2.3e15
    assert wave_number(omega, 2.0) == pytest.approx(2 * wave_number(omega, 1.0), rel=1e-14)


def test_wave_number_linearity_property():
    rng = np.random.default_rng(7)
    for _ in range(50):
        omega = float(rng.uniform(1e12, 1e16))
        n = float(rng.uniform(1.0, 3.0))
        s = float(rng.uniform(0.1, 5.0))
        assert wave_number(s * omega, n) == pytest.approx(s * wave_number(omega, n), rel=1e-12)


def test_wave_number_rejects_subunity_index():
    with pytest.raises(DomainError):
        wave_number(1e15, 0.5)


def test_wave_number_from_cm_conventions():
    # k = 2 pi * vtilde * n, vtilde in 1/m
    assert wave_number_from_cm(20000.0) == pytest.approx(2 * math.pi * 20000.0 * 100.0,
                                                         rel=1e-12)
