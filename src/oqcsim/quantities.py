"""Physical constants and spectroscopic unit conversions.

All internal computation is done in SI; cm^-1 and other spectroscopic
units are accepted only at the boundaries.  The free-space impedance is
pinned to 376.7 ohm so that the worked pulse-parameter examples
reproduce bit-for-bit.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import ConfigurationError, DomainError


@dataclass(frozen=True)
class PhysicalConstants:
    """Shared constants (SI). hbar and c are CODATA; Z0 is pinned."""

    hbar: float = 1.054571817e-34   # J s
    c_light: float = 299792458.0    # m/s
    z0: float = 376.7               # ohm, free-space impedance


CONSTANTS = PhysicalConstants()

TWO_PI = 2.0 * math.pi


class SpectralUnit(enum.Enum):
    WAVENUMBER = "cm^-1"
    ANGULAR = "rad/s"
    FREQUENCY = "Hz"
    ENERGY = "J"


# factors mapping each unit to ordinary frequency (Hz)
_TO_HZ = {
    SpectralUnit.WAVENUMBER: 100.0 * CONSTANTS.c_light,       # cm^-1 -> Hz
    SpectralUnit.ANGULAR: 1.0 / TWO_PI,
    SpectralUnit.FREQUENCY: 1.0,
    SpectralUnit.ENERGY: 1.0 / (TWO_PI * CONSTANTS.hbar),     # E = h nu
}


@dataclass(frozen=True)
class SpectralQuantity:
    """A spectroscopic magnitude with an explicit unit tag."""

    value: float
    unit: SpectralUnit

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise DomainError(f"spectral value must be finite, got {self.value!r}")
        if not isinstance(self.unit, SpectralUnit):
            raise ConfigurationError(f"unknown spectral unit tag: {self.unit!r}")

    def to(self, target: SpectralUnit) -> "SpectralQuantity":
        return convert(self, target)


def convert(q: SpectralQuantity, target_unit: SpectralUnit) -> SpectralQuantity:
    """Convert a spectral quantity to a physically equivalent one.

    Conversions go through ordinary frequency (Hz) and are purely
    multiplicative, so round trips are exact to better than 1e-12
    relative.

    Parameters
    ----------
    q : SpectralQuantity
        Source quantity; value must be >= 0 for spectroscopic use.
    target_unit : SpectralUnit
        Unit of the result.
    """
    if not isinstance(target_unit, SpectralUnit):
        raise ConfigurationError(f"unknown spectral unit tag: {target_unit!r}")
    if q.value < 0:
        raise DomainError("spectroscopic quantities must be non-negative")
    hz = q.value * _TO_HZ[q.unit]
    return SpectralQuantity(hz / _TO_HZ[target_unit], target_unit)


def wavenumber_cm(value: float) -> SpectralQuantity:
    return SpectralQuantity(value, SpectralUnit.WAVENUMBER)


def wave_number(omega: float, n: float) -> float:
    """Wave number k = omega * n / c of light in a medium.

    Parameters
    ----------
    omega : float
        Angular frequency in rad/s, >= 0.
    n : float
        Refractive index, >= 1.

    Returns
    -------
    float
        k in 1/m.
    """
    if omega < 0:
        raise DomainError("angular frequency must be >= 0")
    if n < 1:
        raise DomainError(f"refractive index must be >= 1, got {n}")
    return omega * n / CONSTANTS.c_light


def wave_number_from_cm(carrier_cm: float, n: float = 1.0) -> float:
    """Wave number (1/m) for a carrier quoted in cm^-1.

    Spectroscopists quote "wave numbers" in cm^-1 without the 2*pi;
    the propagation wave number k = omega n / c = 2*pi * vtilde * n
    carries it.
    """
    omega = convert(wavenumber_cm(carrier_cm), SpectralUnit.ANGULAR).value
    return wave_number(omega, n)
