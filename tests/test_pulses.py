import math

import numpy as np
import pytest

from oqcsim.errors import DomainError, ParseError, ValidationError
from oqcsim.pulses import (C_LIGHT, Z0, BeamGeometry, EmitterRadiative, PulseSequence,
                           PulseSpec, build_sequence, peak_field, pi_pulse_budget,
                           pi_pulse_intensity, pulse_energy, wave_number,
                           wave_number_from_cm)

K_VISIBLE = wave_number_from_cm(20000.0)      # 1.2566e7 1/m
GAMMA0_NS = 1.0 / 1.5e-9                      # fast color-center emitter
GAMMA_L = 1e9


def test_constants_pinned():
    assert Z0 == 376.7
    assert C_LIGHT == 299792458.0


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


@pytest.mark.parametrize("carrier, message", [
    (math.nan, "spectral value must be finite, got nan"),
    (-math.inf, "spectral value must be finite, got -inf"),
    (-1.0, "spectroscopic quantities must be non-negative"),
    (1e300, "spectral value must be finite, got inf"),   # omega overflows
], ids=["nan", "-inf", "negative", "overflow"])
def test_wave_number_from_cm_rejects(carrier, message):
    with pytest.raises(DomainError) as err:
        wave_number_from_cm(carrier)
    assert str(err.value) == message


def test_intensity_reproduces_worked_example():
    i = pi_pulse_intensity(K_VISIBLE, GAMMA0_NS, GAMMA_L)
    assert 30.0 <= i <= 300.0
    assert i == pytest.approx(100.0, rel=1e-12)   # calibration anchor


def test_intensity_quadratic_in_gamma_l():
    i1 = pi_pulse_intensity(K_VISIBLE, GAMMA0_NS, GAMMA_L)
    i2 = pi_pulse_intensity(K_VISIBLE, GAMMA0_NS, 2 * GAMMA_L)
    assert i2 / i1 == pytest.approx(4.0, rel=1e-12)


def test_intensity_inverse_in_gamma0():
    i1 = pi_pulse_intensity(K_VISIBLE, GAMMA0_NS, GAMMA_L)
    i2 = pi_pulse_intensity(K_VISIBLE, 2 * GAMMA0_NS, GAMMA_L)
    assert i2 / i1 == pytest.approx(0.5, rel=1e-12)


def test_intensity_cubic_in_k():
    i1 = pi_pulse_intensity(K_VISIBLE, GAMMA0_NS, GAMMA_L)
    i2 = pi_pulse_intensity(2 * K_VISIBLE, GAMMA0_NS, GAMMA_L)
    assert i2 / i1 == pytest.approx(8.0, rel=1e-12)


def test_intensity_rejects_zero_rate():
    with pytest.raises(DomainError):
        pi_pulse_intensity(K_VISIBLE, 0.0, GAMMA_L)


def test_pulse_energy_identity():
    assert pulse_energy(1e2, 1e-7, 1e9) == pytest.approx(1e-14, rel=1e-12)
    assert pulse_energy(0.0, 1e-7, 1e9) == 0.0


def test_rei_pulse_energy_four_orders_higher():
    # slow radiative decay costs 1e4 in intensity, hence in energy
    assert pulse_energy(1e2 * 1e4, 1e-7, 1e9) == pytest.approx(1e-10, rel=1e-12)


def test_peak_field_rei_intensity():
    field = peak_field(1e6)
    assert 2.4e4 <= field <= 3.3e4
    assert field == pytest.approx(2.7448132905536582e4, rel=1e-12)


def test_peak_field_zero_and_sqrt_law():
    assert peak_field(0.0) == 0.0
    assert peak_field(4e6) == pytest.approx(2 * peak_field(1e6), rel=1e-12)


def test_peak_field_concave_monotone():
    rng = np.random.default_rng(11)
    xs = np.sort(rng.uniform(0.0, 1e7, size=40))
    fields = [peak_field(x) for x in xs]
    assert all(b >= a for a, b in zip(fields, fields[1:]))
    mid = [peak_field((a + b) / 2) for a, b in zip(xs, xs[1:])]
    chord = [(peak_field(a) + peak_field(b)) / 2 for a, b in zip(xs, xs[1:])]
    assert all(m >= c - 1e-9 for m, c in zip(mid, chord))


def test_energy_of_pi_pulse_scales_linearly_with_gamma_l():
    # E = I S / Gamma_L with I ~ Gamma_L^2
    def energy(gl):
        return pulse_energy(pi_pulse_intensity(K_VISIBLE, GAMMA0_NS, gl), 1e-7, gl)
    assert energy(3e9) / energy(1e9) == pytest.approx(3.0, rel=1e-12)


def test_budget_wrapper_consistency():
    budget = pi_pulse_budget(20000.0, EmitterRadiative(1.5e-9), 1e9, BeamGeometry(1e-7))
    assert budget.intensity_w_cm2 == pytest.approx(100.0, rel=1e-12)
    assert budget.energy_j == pytest.approx(1e-14, rel=1e-12)


def test_emitter_and_beam_invariants():
    with pytest.raises(DomainError):
        EmitterRadiative(0.0)
    with pytest.raises(DomainError):
        BeamGeometry(cross_section=-1.0)
    with pytest.raises(DomainError):
        BeamGeometry(refractive_index=0.9)
    assert EmitterRadiative(2e-9).decay_rate == pytest.approx(5e8)


QUBITS = {"control": ("0", "1", "1p"), "target": ("0", "1", "1p")}


def test_pulse_spec_defaults_tie_duration_to_spectral_width():
    p = PulseSpec(target=("control", ("1", "1p")), spectral_width=2e9)
    assert p.rabi_frequency == pytest.approx(math.pi * 2e9)
    assert p.duration == pytest.approx(1 / 2e9)


def test_pulse_spec_rejects_degenerate_transition():
    with pytest.raises(ValidationError):
        PulseSpec(target=("control", ("1", "1")))


def test_build_sequence_canonical_blockade():
    steps = [
        {"qubit": "control", "transition": ["1", "1p"], "area": "pi"},
        {"qubit": "target", "transition": ["1", "1p"], "area": "2pi"},
        {"qubit": "control", "transition": ["1p", "1"], "area": "pi"},
    ]
    seq = build_sequence(steps, QUBITS)
    assert len(seq) == 3
    assert [n for n, _ in seq] == [1, 2, 3]
    assert seq.specs()[1].pulse_area == pytest.approx(2 * math.pi)


def test_build_sequence_empty_is_identity_protocol():
    assert len(build_sequence([], QUBITS)) == 0


def test_build_sequence_four_pulse_order_preserved():
    steps = [{"qubit": q, "transition": list(t), "area": "pi"}
             for q, t in [("control", ("1", "1p")), ("target", ("1", "1p")),
                          ("target", ("1p", "1")), ("control", ("1p", "1"))]]
    seq = build_sequence(steps, QUBITS)
    assert [n for n, _ in seq] == [1, 2, 3, 4]
    assert [p.qubit for p in seq.specs()] == ["control", "target", "target", "control"]


def test_build_sequence_rejects_unknown_targets():
    with pytest.raises(ValidationError):
        build_sequence([{"qubit": "ancilla", "transition": ["0", "1"]}], QUBITS)
    with pytest.raises(ValidationError):
        build_sequence([{"qubit": "control", "transition": ["1", "2p"]}], QUBITS)


@pytest.mark.parametrize("key, value", [("carrier_cm", 11530.0), ("envelope", "gaussian")])
def test_build_sequence_rejects_unknown_step_keys(key, value):
    step = {"qubit": "control", "transition": ["1", "1p"], key: value}
    with pytest.raises(ParseError, match=key):
        build_sequence([step], QUBITS)


@pytest.mark.parametrize("field", ["pulse_area", "spectral_width", "rabi_frequency",
                                   "detuning"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_pulse_spec_rejects_non_finite(field, value):
    with pytest.raises(ValidationError, match="finite"):
        PulseSpec(target=("control", ("1", "1p")), **{field: value})


def test_pulse_spec_rejects_overflowing_duration():
    with pytest.raises(ValidationError, match="finite"):
        PulseSpec(target=("control", ("1", "1p")), rabi_frequency=1e-320)


def test_sequence_numbering_must_increase():
    p = PulseSpec(target=("control", ("1", "1p")))
    with pytest.raises(ValidationError):
        PulseSequence(((1, p), (1, p)))
    with pytest.raises(ValidationError):
        PulseSequence(((2, p),))


def test_sequence_roundtrip_validation_idempotent():
    steps = [{"qubit": "control", "transition": ["1", "1p"], "area": 1.5}]
    seq = build_sequence(steps, QUBITS)
    seq.validate_targets(QUBITS)   # re-validating its own output passes
    assert seq.specs()[0].pulse_area == 1.5
