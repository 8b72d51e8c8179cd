"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a single PASS line (visible with pytest -s or -rA) so
the suite doubles as a checklist.  Stated runtime budgets are asserted
with perf_counter around the computation under test.
"""
import filecmp
import itertools
import math
import time
from importlib import resources

import numpy as np
import pytest

from oqcsim.dynamics import (LevelSystem, QubitLevels, propagate_lindblad,
                             propagate_unitary)
from oqcsim.ensemble import (CrystalSpec, allocate_channels, assign_frequencies,
                             ensemble_radius, mean_qubit_spacing,
                             min_pair_concentration, nearest_neighbor_distances,
                             sample_lattice, spectral_select)
from oqcsim.gates import (GateScenario, NoiseFlags, QubitScheme, run_protocol,
                          scenario_system, canonical_blockade_sequence)
from oqcsim.paircenter import (PairParams, brightness_ratio, pair_eigensystem_exact,
                               pair_eigensystem_perturbative)
from oqcsim.pulses import (PulseSequence, PulseSpec, peak_field, pi_pulse_intensity,
                           pulse_energy, wave_number_from_cm)
from oqcsim.runner import run

CONFIG_DIR = resources.files("oqcsim.configs")
OMEGA = 2 * math.pi * 1e9


def announce(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_pulse_energy_identity():
    t0 = time.perf_counter()
    e = pulse_energy(1e2, 1e-7, 1e9)
    elapsed = time.perf_counter() - t0
    assert e == pytest.approx(1e-14, rel=1e-12)
    assert elapsed < 1e-3
    announce(1, f"E_L = {e:.3e} J for the worked inputs ({elapsed * 1e6:.0f} us)")


def test_criterion_02_pulse_intensity_window_and_scaling():
    k = wave_number_from_cm(20000.0)
    gamma0, gl = 1.0 / 1.5e-9, 1e9
    i = pi_pulse_intensity(k, gamma0, gl)
    assert 30.0 <= i <= 300.0
    assert pi_pulse_intensity(k, gamma0, 2 * gl) / i == pytest.approx(4.0, rel=1e-12)
    assert pi_pulse_intensity(k, 2 * gamma0, gl) / i == pytest.approx(0.5, rel=1e-12)
    announce(2, f"I = {i:.1f} W/cm^2 in [30, 300]; Gamma_L^2 and 1/gamma0 laws exact")


def test_criterion_03_field_strength_window():
    f = peak_field(1e6)
    assert 2.4e4 <= f <= 3.3e4
    announce(3, f"peak field {f:.3e} V/cm in [2.4e4, 3.3e4]")


def test_criterion_04_pair_center_bundle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240404)
    worst_sum = 0.0
    for _ in range(10_000):
        f1 = float(rng.uniform(0.2, 2.0))
        p = PairParams(1000.0, float(rng.uniform(-100, 100)),
                       float(rng.uniform(-100, 100)), f1)
        st = pair_eigensystem_exact(p)
        worst_sum = max(worst_sum, abs(st.f_dark + st.f_bright - 2 * f1))
    assert worst_sum < 1e-12

    # printed small-detuning enhancement: bright/dark = (Delta/eps)^2
    for x in (0.05, 0.02, 0.01, 0.005):
        p = PairParams(1000.0, x * 100.0, 100.0)
        ratio = brightness_ratio(p, mode="perturbative").value
        assert ratio == pytest.approx((1 / x) ** 2, rel=0.01)

    delta = 100.0
    for x in np.linspace(0.0, 0.3, 61):
        p = PairParams(1000.0, x * delta, delta)
        ex, pe = pair_eigensystem_exact(p), pair_eigensystem_perturbative(p)
        bound = (x * delta) ** 2 / (2 * delta) * 1.01 + 1e-12
        assert abs(ex.energy_dark - pe.energy_dark) <= bound
        assert abs(ex.energy_bright - pe.energy_bright) <= bound
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    announce(4, f"sum rule to {worst_sum:.1e}, enhancement and energy bounds hold "
                f"({elapsed:.2f} s)")


def test_criterion_05_ensemble_scaling():
    t0 = time.perf_counter()
    r0 = mean_qubit_spacing(0.01, 0.1e9, 1e12)
    assert r0 == pytest.approx(100.0, rel=1e-12)
    radius = ensemble_radius(50, 0.01)
    assert 17.0 <= radius <= 17.2
    assert min_pair_concentration(10 ** (5 / 3)) == pytest.approx(1e-5, rel=1e-12)

    # Monte-Carlo consistency at the same working point, >= 1e5 sites
    spec = CrystalSpec(concentration=0.01, gamma_inh=1e12, gamma_h=1e6, box_size=480)
    assert spec.box_size ** 3 >= 1e5
    centers = sample_lattice(spec, seed=20240815)
    centers = assign_frequencies(centers, spec, seed=20240816)
    selected = spectral_select(centers, 0.0, 0.1e9)
    assert len(selected) > 50
    median_nn = float(np.median(nearest_neighbor_distances(selected.positions,
                                                           spec.box_size)))
    assert r0 / 2 <= median_nn <= r0 * 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    announce(5, f"R0 = {r0:.0f} a, radius = {radius:.2f} a, MC median NN "
                f"{median_nn:.1f} a within x2 of formula ({elapsed:.1f} s)")


def test_criterion_06_channel_allocation_optimal():
    def dp_optimum(freqs, gap):
        freqs = sorted(freqs)
        best = [1] * len(freqs)
        for a in range(len(freqs)):
            for b in range(a):
                if freqs[a] - freqs[b] > gap:
                    best[a] = max(best[a], best[b] + 1)
        return max(best, default=0)

    def enumerate_optimum(freqs, gap):
        freqs = sorted(freqs)
        for r in range(len(freqs), 0, -1):
            for combo in itertools.combinations(freqs, r):
                if all(b - a > gap for a, b in zip(combo, combo[1:])):
                    return r
        return 0

    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    n_enumerated = 0
    for _ in range(200):
        n = int(rng.integers(1, 21))
        freqs = rng.uniform(0.0, 10.0, size=n)
        gap = float(rng.uniform(0.05, 3.0))
        got = len(allocate_channels(freqs, gap).selected_indices)
        assert got == dp_optimum(list(freqs), gap)
        if n <= 12:   # exhaustive subset search stays cheap here
            assert got == enumerate_optimum(list(freqs), gap)
            n_enumerated += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    assert n_enumerated > 50
    announce(6, f"greedy = exact optimum on 200 instances "
                f"({n_enumerated} cross-checked exhaustively, {elapsed:.1f} s)")


def test_criterion_07_dynamics_oracles():
    t0 = time.perf_counter()
    system = LevelSystem([QubitLevels("q", ("g", "e"))])
    psi0 = system.basis_state({"q": "g"})

    pi_pulse = PulseSpec(target=("q", ("g", "e")), rabi_frequency=OMEGA)
    traj = propagate_unitary(system, PulseSequence(((1, pi_pulse),)), psi0)
    assert abs(1.0 - abs(traj.final[1]) ** 2) < 1e-10

    for ratio in (0.5, 1.0, 3.0, 10.0):
        delta = ratio * OMEGA
        g = math.hypot(OMEGA, delta)
        pulse = PulseSpec(target=("q", ("g", "e")), rabi_frequency=OMEGA,
                          detuning=delta, pulse_area=OMEGA * math.pi / g)
        traj = propagate_unitary(system, PulseSequence(((1, pulse),)), psi0)
        assert abs(abs(traj.final[1]) ** 2 - OMEGA**2 / g**2) < 1e-8

    tau, gamma_h, t_hold = 5e-9, 2e8, 1e-8
    hold = PulseSpec(target=("q", ("g", "e")), rabi_frequency=1.0, pulse_area=t_hold)
    decay_sys = LevelSystem([QubitLevels("q", ("g", "e"), decay_rates={"e": 1 / tau})])
    psi_e = decay_sys.basis_state({"q": "e"})
    traj = propagate_lindblad(decay_sys, PulseSequence(((1, hold),)),
                              np.outer(psi_e, psi_e.conj()))
    assert abs(traj.final[1, 1].real - math.exp(-t_hold / tau)) < 1e-6

    deph_sys = LevelSystem([QubitLevels("q", ("g", "e"), dephasing=gamma_h)])
    plus = (deph_sys.basis_state({"q": "g"}) + deph_sys.basis_state({"q": "e"})) / math.sqrt(2)
    traj = propagate_lindblad(deph_sys, PulseSequence(((1, hold),)),
                              np.outer(plus, plus.conj()))
    assert abs(abs(traj.final[0, 1]) - 0.5 * math.exp(-gamma_h * t_hold)) < 1e-6

    # trace and positivity across a noisy canonical scenario and across
    # every bundled gate scenario
    noisy = GateScenario(
        control=QubitScheme("control", lifetimes={"1": 50e-9}),
        target=QubitScheme("target", lifetimes={"1": 50e-9}),
        rabi=OMEGA, delta_shift=20 * OMEGA, gamma_h=5e7,
        noise=NoiseFlags(lifetimes=True, dephasing=True))
    system = scenario_system(noisy)
    psi = system.basis_state({"control": "1", "target": "1"})
    traj = propagate_lindblad(system, canonical_blockade_sequence(noisy),
                              np.outer(psi, psi.conj()), samples_per_segment=6)
    for rho in traj.states:
        assert abs(np.trace(rho).real - 1.0) < 1e-8
        assert np.linalg.eigvalsh(rho).min() > -1e-8

    import json
    from oqcsim.runner import build_gate_scenario
    for name in ("blockade_cz_sweep", "pair_center_cnot"):
        cfg = json.loads((CONFIG_DIR / f"{name}.json").read_text())["gate"]
        cfg.setdefault("type", "canonical_cz")
        scen = build_gate_scenario(cfg)
        system = scenario_system(scen)
        seq = scen.sequence or canonical_blockade_sequence(scen)
        psi = system.basis_state({"control": "1", "target": "1"})
        if scen.noise.any:
            traj = propagate_lindblad(system, seq, np.outer(psi, psi.conj()),
                                      samples_per_segment=4)
            for rho in traj.states:
                assert abs(np.trace(rho).real - 1.0) < 1e-8
                assert np.linalg.eigvalsh(rho).min() > -1e-8
        else:
            traj = propagate_unitary(system, seq, psi, samples_per_segment=4)
            for state in traj.states:
                assert abs(np.linalg.norm(state) - 1.0) < 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    announce(7, f"Rabi, detuned-transfer, decay, dephasing and trace/positivity "
                f"oracles hold ({elapsed:.1f} s)")


def test_criterion_08_gate_blockade_limit():
    t0 = time.perf_counter()

    def scenario(delta_over_omega):
        return GateScenario(control=QubitScheme("control"), target=QubitScheme("target"),
                            rabi=OMEGA, delta_shift=delta_over_omega * OMEGA)

    strong = run_protocol(scenario(100.0))
    assert strong.average_fidelity >= 0.999

    xs = np.geomspace(3.0, 100.0, 16)
    infid = np.array([1.0 - run_protocol(scenario(x)).average_fidelity for x in xs])
    slope = float(np.polyfit(np.log10(xs), np.log10(infid), 1)[0])
    assert -2.2 <= slope <= -1.8

    trivial = run_protocol(scenario(0.0))
    assert abs(trivial.cz_phase) < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    announce(8, f"F = {strong.average_fidelity:.5f} at delta/Omega = 100, "
                f"slope {slope:.2f}, trivial phase at zero shift ({elapsed:.1f} s)")


def test_criterion_09_reference_scenario_end_to_end(tmp_path):
    t0 = time.perf_counter()
    import json
    run(str(CONFIG_DIR / "nd_caf2_ensemble.json"), out_dir=tmp_path)
    blockade = json.loads((tmp_path / "blockade_report.json").read_text())
    ensemble = json.loads((tmp_path / "ensemble_report.json").read_text())
    assert blockade["feasible"] is True
    assert blockade["median_shift_hz"] >= 3.0 * blockade["gamma_l_hz"]
    assert ensemble["r0_lattice_units"] == pytest.approx(100.0, rel=1e-9)
    assert ensemble["ensemble_radius_lattice_units"] == pytest.approx(17.0998, rel=1e-4)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    announce(9, f"N = 50 ensemble blockade feasible: median shift "
                f"{blockade['median_shift_hz']:.2e} Hz >= 3 Gamma_L ({elapsed:.1f} s)")


@pytest.mark.parametrize("name", ["pulse_budget_ns_emitter", "nd_caf2_ensemble",
                                  "blockade_cz_sweep", "pair_center_cnot"])
def test_criterion_10_determinism(tmp_path, name):
    a, b = tmp_path / "a", tmp_path / "b"
    run(str(CONFIG_DIR / f"{name}.json"), out_dir=a)
    run(str(CONFIG_DIR / f"{name}.json"), out_dir=b)
    numeric = {p.name for p in a.iterdir()} - {"manifest.json"}
    assert numeric
    for f in sorted(numeric):
        assert filecmp.cmp(a / f, b / f, shallow=False), f
    announce(10, f"{name}: {len(numeric)} numeric outputs byte-identical on re-run")
