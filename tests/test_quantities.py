import math

import pytest

from oqcsim.pulses import wave_number_from_cm


def test_zero_wavenumber_converts_to_zero():
    assert wave_number_from_cm(0.0) == 0.0


def test_wave_number_from_cm_conventions():
    # k = 2 pi * vtilde * n, vtilde in 1/m
    assert wave_number_from_cm(20000.0) == pytest.approx(2 * math.pi * 20000.0 * 100.0,
                                                         rel=1e-12)
