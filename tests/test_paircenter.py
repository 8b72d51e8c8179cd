import math

import numpy as np
import pytest

from oqcsim.errors import DomainError
from oqcsim.paircenter import (PairParams, brightness_ratio, dark_state_lifetime,
                               pair_eigensystem_exact, pair_eigensystem_perturbative)


def brute_force_pair(e, eps, delta, f1=1.0):
    """Independent oracle: diagonalize the full two-center 4x4 Hamiltonian.

    Product basis (gg, eg, ge, ee); the dipole operator connects gg to
    eg and ge with equal amplitude (parallel equal dipoles), so each
    one-exciton eigenstate's strength is the squared summed amplitude.
    """
    h = np.zeros((4, 4))
    h[1, 1], h[2, 2], h[3, 3] = e + eps, e - eps, 2 * e
    h[1, 2] = h[2, 1] = delta
    w, v = np.linalg.eigh(h)
    dipole = np.array([0.0, 1.0, 1.0, 0.0])
    states = [(w[i], float((v[:, i] @ dipole) ** 2) * f1)
              for i in range(4)
              if not (abs(w[i]) < 1e-9 * max(1, abs(e)) or abs(w[i] - 2 * e) < 1e-9)]
    states.sort(key=lambda t: t[1])
    return states[0], states[1]    # (dark, bright) as (energy, strength)


def test_symmetric_dimer():
    st = pair_eigensystem_exact(PairParams(1000.0, 0.0, 100.0))
    assert st.energy_dark == pytest.approx(900.0)
    assert st.energy_bright == pytest.approx(1100.0)
    assert st.mixing_dark == pytest.approx((1 / math.sqrt(2), -1 / math.sqrt(2)))
    assert st.f_dark == 0.0
    assert st.f_bright == pytest.approx(2.0)
    assert st.energy_ground == 0.0 and st.energy_double == 2000.0


def test_exact_energies_closed_form():
    st = pair_eigensystem_exact(PairParams(1000.0, 10.0, 100.0))
    r = 100.0 * math.sqrt(1.01)
    assert st.energy_dark == pytest.approx(1000.0 - r, rel=1e-14)
    assert st.energy_bright == pytest.approx(1000.0 + r, rel=1e-14)


def test_uncoupled_limit_localizes():
    st = pair_eigensystem_exact(PairParams(1000.0, 5.0, 0.0))
    assert st.localized
    assert st.f_dark == pytest.approx(1.0)
    assert st.f_bright == pytest.approx(1.0)
    assert st.energy_dark == pytest.approx(995.0)
    assert sorted(st.mixing_dark) == [0.0, 1.0]


def test_fully_degenerate_flagged():
    st = pair_eigensystem_exact(PairParams(1000.0, 0.0, 0.0))
    assert st.degenerate
    assert st.f_dark == 0.0 and st.f_bright == pytest.approx(2.0)


def test_exact_matches_brute_force_oracle():
    rng = np.random.default_rng(5150)
    for _ in range(200):
        e = float(rng.uniform(100, 5000))
        eps = float(rng.uniform(-200, 200))
        delta = float(rng.uniform(0.5, 300)) * (1 if rng.random() < 0.5 else -1)
        f1 = float(rng.uniform(0.1, 3.0))
        st = pair_eigensystem_exact(PairParams(e, eps, delta, f1))
        (ed, fd), (eb, fb) = brute_force_pair(e, eps, delta, f1)
        assert st.f_dark == pytest.approx(fd, abs=1e-9)
        assert st.f_bright == pytest.approx(fb, rel=1e-9)
        assert st.energy_dark == pytest.approx(ed, rel=1e-9) or \
            st.energy_dark == pytest.approx(eb, rel=1e-9)


def test_exact_orthonormality():
    rng = np.random.default_rng(99)
    for _ in range(300):
        p = PairParams(1000.0, float(rng.uniform(-50, 50)), float(rng.uniform(0.1, 80)))
        st = pair_eigensystem_exact(p)
        d, b = np.array(st.mixing_dark), np.array(st.mixing_bright)
        assert abs(d @ d - 1) < 1e-12
        assert abs(b @ b - 1) < 1e-12
        assert abs(d @ b) < 1e-12


def test_sum_rule_exact_mode():
    rng = np.random.default_rng(2024)
    for _ in range(2000):
        f1 = float(rng.uniform(0.2, 2.0))
        p = PairParams(1000.0, float(rng.uniform(-100, 100)),
                       float(rng.uniform(-100, 100)), f1)
        st = pair_eigensystem_exact(p)
        assert st.f_dark + st.f_bright == pytest.approx(2 * f1, abs=1e-12)


def test_perturbative_printed_coefficients():
    p = PairParams(1000.0, 10.0, 100.0)
    st = pair_eigensystem_perturbative(p)
    s = 1 / math.sqrt(2)
    assert st.mixing_dark == pytest.approx((s * 0.9, -s * 1.1))
    assert st.mixing_bright == pytest.approx((s * 0.9, s * 1.1))
    assert st.energy_dark == 900.0 and st.energy_bright == 1100.0
    assert st.f_dark == pytest.approx(2 * 0.01)
    assert st.f_bright == pytest.approx(2.0)


def test_perturbative_equals_exact_at_zero_detuning():
    p = PairParams(500.0, 0.0, 40.0, 1.3)
    ex, pe = pair_eigensystem_exact(p), pair_eigensystem_perturbative(p)
    assert pe.energy_dark == pytest.approx(ex.energy_dark)
    assert pe.energy_bright == pytest.approx(ex.energy_bright)
    assert pe.f_dark == ex.f_dark == 0.0
    assert pe.f_bright == pytest.approx(ex.f_bright)
    assert pe.mixing_dark == pytest.approx(ex.mixing_dark)


def test_perturbative_requires_exchange():
    with pytest.raises(DomainError):
        pair_eigensystem_perturbative(PairParams(1000.0, 1.0, 0.0))


def test_perturbative_warns_outside_regime():
    with pytest.warns(UserWarning):
        pair_eigensystem_perturbative(PairParams(1000.0, 60.0, 100.0))


def test_perturbative_energy_error_bound():
    # |E_exact - E_pert| = Delta (sqrt(1+x^2) - 1) <= eps^2 / (2 Delta)
    delta = 100.0
    for x in np.linspace(0.0, 0.3, 31):
        eps = x * delta
        p = PairParams(1000.0, eps, delta)
        ex = pair_eigensystem_exact(p)
        pe = pair_eigensystem_perturbative(p)
        bound = eps ** 2 / (2 * delta) * 1.01 + 1e-12
        assert abs(ex.energy_dark - pe.energy_dark) <= bound
        assert abs(ex.energy_bright - pe.energy_bright) <= bound


def test_perturbative_coefficient_error_is_first_order():
    # printed mixing uses eps/Delta where strict first-order theory has
    # eps/(2 Delta): the coefficient error is O(eps/Delta), bounded by it
    delta = 100.0
    for x in np.linspace(0.01, 0.3, 30):
        p = PairParams(1000.0, x * delta, delta)
        ex = np.array(pair_eigensystem_exact(p).mixing_dark)
        pe = np.array(pair_eigensystem_perturbative(p).mixing_dark)
        err = np.max(np.abs(ex - pe))
        assert err <= x
        assert err >= x / 8            # genuinely first order, not second


def test_brightness_ratio_small_detuning():
    # exact two-level ratio approaches (2 Delta / eps)^2; the printed
    # (Delta/eps)^2 enhancement is the perturbative-mode ratio
    p = PairParams(1000.0, 1.0, 100.0)
    exact = brightness_ratio(p)
    assert not exact.infinite
    assert exact.value == pytest.approx(40001.99997500171, rel=1e-10)  # brute-force oracle
    pert = brightness_ratio(p, mode="perturbative")
    assert pert.value == pytest.approx(1e4, rel=1e-12)


def test_brightness_ratio_at_equal_couplings():
    # oracle: brute-force amplitude evaluation at eps = Delta
    p = PairParams(1000.0, 100.0, 100.0)
    (_, fd), (_, fb) = brute_force_pair(1000.0, 100.0, 100.0)
    assert brightness_ratio(p).value == pytest.approx(fb / fd, rel=1e-10)


def test_brightness_ratio_diverges_monotonically():
    ratios = [brightness_ratio(PairParams(1000.0, x * 100.0, 100.0)).value
              for x in (0.2, 0.1, 0.05, 0.02, 0.01)]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_brightness_ratio_symmetric_pair_is_infinite():
    r = brightness_ratio(PairParams(1000.0, 0.0, 100.0))
    assert r.infinite and math.isinf(r.value)


def test_dark_state_lifetime_suppression():
    p = PairParams(1000.0, 10.0, 100.0)
    tau = dark_state_lifetime(p, 1e-6)
    assert tau == pytest.approx(1e-6 / (2 * 0.01), rel=1e-12)
    assert math.isinf(dark_state_lifetime(PairParams(1000.0, 0.0, 100.0), 1e-6))


def test_exact_states_diagonalize_microscopic_register():
    # independent route: build the two-emitter register explicitly in the
    # dynamics engine and confirm the closed-form states are eigenvectors
    from oqcsim.dynamics import LevelSystem, QubitLevels, build_hamiltonian

    e, eps, delta = 2000.0, 30.0, 80.0
    register = LevelSystem(
        [QubitLevels("c1", ("g", "e"), detunings={"e": e + eps}),
         QubitLevels("c2", ("g", "e"), detunings={"e": e - eps})])
    h = build_hamiltonian(register)
    ia = register.basis_index({"c1": "e", "c2": "g"})
    ib = register.basis_index({"c1": "g", "c2": "e"})
    h[ia, ib] = h[ib, ia] = delta       # exchange between the singly excited states

    st = pair_eigensystem_exact(PairParams(e, eps, delta))
    for mixing, energy in ((st.mixing_dark, st.energy_dark),
                           (st.mixing_bright, st.energy_bright)):
        psi = np.zeros(4, dtype=complex)
        psi[ia], psi[ib] = mixing
        assert np.allclose(h @ psi, energy * psi, atol=1e-9)

    igg = register.basis_index({"c1": "g", "c2": "g"})
    iee = register.basis_index({"c1": "e", "c2": "e"})
    assert h[igg, igg] == 0.0
    assert h[iee, iee] == pytest.approx(2 * e)
