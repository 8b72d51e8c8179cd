import numpy as np
import pytest

from oqcsim.ensemble import CrystalSpec, sample_lattice
from oqcsim.errors import DomainError, ValidationError
from oqcsim.interactions import (BlockadeModel, C_DD_DEFAULT, C_QQ_DEFAULT,
                                 REFERENCE_SPACING, blockade_feasible,
                                 calibrate_blockade_constants,
                                 dipole_shift, ensemble_blockade_report,
                                 quadrupole_shift)


def test_quadrupole_zero_moment():
    assert quadrupole_shift(0.0, 4.88, 3.0) == 0.0


def test_quadrupole_r5_law():
    s1 = quadrupole_shift(1.25, 4.88, 2.0)
    s2 = quadrupole_shift(1.25, 4.88, 4.0)
    assert s1 / s2 == pytest.approx(32.0, rel=1e-12)


def test_dipole_zero_strength_and_r3_law():
    assert dipole_shift(0.0, 2.0, 3.0) == 0.0
    assert dipole_shift(2.0, 2.0, 2.0) / dipole_shift(2.0, 2.0, 4.0) == pytest.approx(8.0)


def test_shift_symmetry_and_homogeneity():
    rng = np.random.default_rng(31)
    for _ in range(100):
        a, b = rng.uniform(0.01, 5.0, size=2)
        r = float(rng.uniform(0.5, 50.0))
        s = float(rng.uniform(1.1, 3.0))
        assert quadrupole_shift(a, b, r) == quadrupole_shift(b, a, r)
        assert dipole_shift(a, b, r) == dipole_shift(b, a, r)
        assert quadrupole_shift(a, b, s * r) == pytest.approx(
            quadrupole_shift(a, b, r) / s**5, rel=1e-12)
        assert dipole_shift(a, b, s * r) == pytest.approx(
            dipole_shift(a, b, r) / s**3, rel=1e-12)


def test_shifts_reject_zero_distance():
    with pytest.raises(DomainError):
        quadrupole_shift(1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        dipole_shift(1.0, 1.0, 0.0)


def test_feasibility_worked_numbers():
    feasible, margin = blockade_feasible(1e9, 0.1e9, kappa=3.0)
    assert feasible
    assert margin == pytest.approx(10.0 / 3.0, rel=1e-12)


def test_feasibility_boundary_is_strict():
    feasible, margin = blockade_feasible(3e8, 1e8, kappa=3.0)
    assert margin == pytest.approx(1.0)
    assert not feasible
    assert not blockade_feasible(0.0, 1e8).feasible


def test_feasibility_monotonicity():
    rng = np.random.default_rng(8)
    for _ in range(50):
        delta = float(rng.uniform(0, 1e10))
        gl = float(rng.uniform(1e6, 1e10))
        m1 = blockade_feasible(delta, gl).margin
        assert blockade_feasible(2 * delta, gl).margin >= m1
        assert blockade_feasible(delta, 2 * gl).margin <= m1


def test_default_calibration_anchor():
    # unit moment product at the reference spacing gives exactly 1 GHz
    assert quadrupole_shift(1.0, 1.0, REFERENCE_SPACING) == pytest.approx(1e9, rel=1e-12)
    assert dipole_shift(1.0, 1.0, REFERENCE_SPACING) == pytest.approx(1e9, rel=1e-12)


def test_calibration_recipe_reproduces_defaults():
    model = calibrate_blockade_constants()
    assert model.c_qq == pytest.approx(C_QQ_DEFAULT, rel=1e-12)
    assert model.c_dd == pytest.approx(C_DD_DEFAULT, rel=1e-12)


def test_reference_scenario_median_shift_ghz():
    # dopant neighborhood at concentration 0.01: median NN shift ~ 1 GHz,
    # comfortably above 3x a 0.1 GHz laser width
    spec = CrystalSpec(concentration=0.01, gamma_inh=1e12, gamma_h=1e6, box_size=50)
    report = ensemble_blockade_report(sample_lattice(spec, 42), u2_a=1.0, u2_b=1.0,
                                      gamma_l=1e8)
    assert report.median_shift_hz == pytest.approx(1e9, rel=0.7)
    assert report.feasible


def test_model_invariants():
    with pytest.raises(ValidationError):
        BlockadeModel(c_qq=-1.0)
    with pytest.raises(ValidationError):
        BlockadeModel(blockade_margin=0.5)
