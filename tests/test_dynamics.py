import csv
import math
import tracemalloc
from dataclasses import replace
from importlib import resources
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.linalg import expm

from oqcsim import dynamics
from oqcsim.dynamics import (DIMENSION_CAP, LevelSystem, PulseArrays, QubitLevels,
                             ShiftCoupling, _sequence_exponentials, build_hamiltonian,
                             collapse_operators, drive_pairs, lindblad_superoperator,
                             liouvillian_blocks, propagate_lindblad, propagate_unitary,
                             segment_hamiltonians, sequence_superoperator, sequence_unitary,
                             stacked_superoperators, stacked_unitaries)
from oqcsim.errors import DomainError, ResourceLimitError, ValidationError
from oqcsim.pulses import PulseSequence, PulseSpec
from oqcsim.runner import export_trajectory_csv, load_config

OMEGA = 2 * math.pi * 1e9


def two_level(dephasing=0.0, decay=None):
    return LevelSystem([QubitLevels("q", ("g", "e"),
                                    decay_rates=decay or {},
                                    dephasing=dephasing)])


def drive(area=math.pi, detuning=0.0, omega=OMEGA, qubit="q", levels=("g", "e")):
    return PulseSpec(target=(qubit, levels), pulse_area=area,
                     rabi_frequency=omega, detuning=detuning)


def seq(*pulses):
    return PulseSequence(tuple((i + 1, p) for i, p in enumerate(pulses)))


def stacked_arrays(sequences):
    """PulseArrays of sequences of one shape, column i from sequences[i]."""
    arrays = [PulseArrays.of(s) for s in sequences]
    return PulseArrays(arrays[0].targets, *(np.hstack(a) for a in list(zip(*arrays))[1:]))


# -- Hamiltonian construction ----------------------------------------------

def test_no_pulse_no_couplings_is_diagonal():
    system = LevelSystem([QubitLevels("q", ("g", "e"), detunings={"e": 2.5})])
    h = build_hamiltonian(system)
    assert np.allclose(h, np.diag([0.0, 2.5]))


def test_single_resonant_drive_structure():
    h = build_hamiltonian(two_level(), drive())
    assert np.allclose(h, np.array([[0, OMEGA / 2], [OMEGA / 2, 0]]))


def test_shift_coupling_lands_on_joint_state():
    system = LevelSystem(
        [QubitLevels("a", ("0", "1", "1p")), QubitLevels("b", ("0", "1", "1p"))],
        [ShiftCoupling({"a": "1p", "b": "1p"}, 7.0)])
    h = build_hamiltonian(system)
    idx = system.basis_index({"a": "1p", "b": "1p"})
    expected = np.zeros((9, 9))
    expected[idx, idx] = 7.0
    assert np.allclose(h, expected)


def test_unknown_target_rejected():
    with pytest.raises(ValidationError):
        build_hamiltonian(two_level(), drive(levels=("g", "x")))


def kron_lift(system, name, op):
    """A single-qubit operator embedded in the register with np.kron."""
    out = np.array([[1.0 + 0j]])
    for q in system.qubits:
        out = np.kron(out, op if q.name == name else np.eye(len(q.levels)))
    return out


def kron_hamiltonian(system, pulses):
    """Reference assembly: each term embedded in the register with np.kron."""
    h = np.zeros((system.dimension, system.dimension), dtype=complex)
    for q in system.qubits:
        for lv, det in q.detunings.items():
            if det != 0.0:
                n = np.zeros((len(q.levels), len(q.levels)))
                n[q.index(lv), q.index(lv)] = det
                h += kron_lift(system, q.name, n)
    for cp in system.couplings:
        idx = system._matching_indices(cp.states)
        h[idx, idx] += cp.shift
    for p in pulses:
        q = system.qubit(p.qubit)
        lo, hi = q.index(p.transition[0]), q.index(p.transition[1])
        drive = np.zeros((len(q.levels), len(q.levels)), dtype=complex)
        drive[hi, lo] = drive[lo, hi] = p.rabi_frequency / 2.0
        drive[hi, hi] = p.detuning
        h += kron_lift(system, p.qubit, drive)
    return h


def three_qubit_register(shift=3.7e9):
    return LevelSystem(
        [QubitLevels("a", ("0", "1", "1p"), detunings={"1": 1.1e8, "1p": -2.3e9}),
         QubitLevels("b", ("g", "e")),
         QubitLevels("c", ("0", "1", "1p"), detunings={"0": 5e7})],
        [ShiftCoupling({"a": "1p", "c": "1p"}, shift),
         ShiftCoupling({"b": "e", "c": "1"}, -0.4e9)])


def test_index_placement_equals_kron_assembly():
    system = three_qubit_register()
    assert np.array_equal(build_hamiltonian(system), kron_hamiltonian(system, []))
    for pulse in (drive(qubit="a", levels=("1", "1p"), detuning=0.3 * OMEGA),
                  drive(qubit="c", levels=("0", "1p"), omega=0.7 * OMEGA, detuning=-1.9e9),
                  drive(qubit="b", levels=("e", "g"), omega=2.1 * OMEGA)):
        assert np.array_equal(build_hamiltonian(system, pulse),
                              kron_hamiltonian(system, [pulse]))


def test_stacked_hamiltonians_equal_single_builds():
    shifts = [3.7e9, 0.0, -1e12]
    pulses = [drive(qubit="a", levels=("1", "1p"), omega=w, detuning=d)
              for w, d in ((OMEGA, 0.0), (0.3 * OMEGA, 2e9), (5 * OMEGA, -1e8))]
    stacked = segment_hamiltonians(three_qubit_register(), ("a", ("1", "1p")),
                                   np.array([p.rabi_frequency for p in pulses]),
                                   np.array([p.detuning for p in pulses]),
                                   np.array([[s, -0.4e9] for s in shifts]))
    for h, s, pulse in zip(stacked, shifts, pulses):
        assert np.array_equal(h, build_hamiltonian(three_qubit_register(s), pulse))


def test_stacked_unitaries_equal_single_sequences():
    shifts = [3.7e9, 0.0, 25.0 * OMEGA]
    sequences = [seq(drive(qubit="a", levels=("1", "1p"), omega=w),
                     drive(qubit="c", levels=("1", "1p"), omega=w, area=2 * math.pi,
                           detuning=d))
                 for w, d in ((OMEGA, 0.0), (0.3 * OMEGA, 2e9), (5 * OMEGA, -1e8))]
    stacked = stacked_unitaries(three_qubit_register(), stacked_arrays(sequences),
                                np.array([[s, -0.4e9] for s in shifts]))
    for u, s, sequence in zip(stacked, shifts, sequences):
        assert np.array_equal(u, sequence_unitary(three_qubit_register(s), sequence))


def test_pulse_arrays_propagate_like_their_sequences():
    # three sequences of one shape, two of them detuned, written as arrays by hand
    system = three_qubit_register()
    rabi = np.array([[OMEGA, 0.3 * OMEGA, 5 * OMEGA], [0.8 * OMEGA, 0.3 * OMEGA, 2 * OMEGA]])
    detuning = np.array([[0.0, 2e9, -1e8], [0.1 * OMEGA, 0.0, -3e9]])
    area = np.array([[math.pi], [2 * math.pi]])
    targets = (("a", ("1", "1p")), ("c", ("1", "1p")))
    pulses = PulseArrays(targets, rabi, detuning, area / rabi)
    sequences = [seq(*(PulseSpec(target=t, pulse_area=area[k, 0], rabi_frequency=rabi[k, i],
                                 detuning=detuning[k, i]) for k, t in enumerate(targets)))
                 for i in range(3)]
    for i, sequence in enumerate(sequences):
        of = PulseArrays.of(sequence)
        assert of.targets == targets
        assert all(np.array_equal(x, y[:, i:i + 1]) for x, y in zip(of[1:], pulses[1:]))
    shifts = np.array([[3.7e9, -0.4e9], [0.0, -0.4e9], [25.0 * OMEGA, 1e9]])
    dephasing = [[1e6, 0.0, 2e7], [0.0, 0.0, 0.0], [5e8, 1e7, 0.0]]
    columns = [0, 13, 40, 323]
    unitaries = stacked_unitaries(system, pulses, shifts)
    channels, faults = stacked_superoperators(system, pulses, columns, shifts, dephasing)
    assert faults.tolist() == [0, 0, 0]
    for u, c, s, g, sequence in zip(unitaries, channels, shifts, dephasing, sequences):
        # a register of entry i's own shifts and dephasing rates
        single = LevelSystem([replace(q, dephasing=x) for q, x in zip(system.qubits, g)],
                             [replace(cp, shift=x) for cp, x in zip(system.couplings, s)])
        assert np.array_equal(u, sequence_unitary(single, sequence))
        assert np.array_equal(c, sequence_superoperator(single, sequence, columns))
    # no segments: n identities
    empty = PulseArrays((), np.zeros((0, 2)), np.zeros((0, 2)), np.zeros((0, 2)))
    assert np.array_equal(stacked_unitaries(system, empty),
                          np.repeat(np.eye(system.dimension)[None], 2, axis=0))


def test_unitary_columns_equal_the_columns_of_the_whole_unitary():
    system = three_qubit_register()
    sequences = [seq(drive(qubit="a", levels=("1", "1p"), omega=w),
                     drive(qubit="c", levels=("1p", "1"), omega=w, area=2 * math.pi,
                           detuning=d),
                     drive(qubit="b", levels=("g", "e"), omega=0.4 * w, area=0.3))
                 for w, d in ((OMEGA, 0.0), (0.3 * OMEGA, 2e9), (5 * OMEGA, -1e8))]
    pulses = stacked_arrays(sequences)
    shifts = np.array([[3.7e9, -0.4e9], [0.0, -0.4e9], [25.0 * OMEGA, 1e9]])
    whole = stacked_unitaries(system, pulses, shifts)
    assert whole.shape == (3, 18, 18)
    for columns in ([0], [14, 13, 2], [7, 7, 17, 0], list(range(17, -1, -1))):
        stacked = stacked_unitaries(system, pulses, shifts, columns)
        assert np.array_equal(stacked, whole[:, :, columns])
        for sequence in sequences:
            alone = sequence_unitary(system, sequence, columns)
            assert np.array_equal(alone, stacked_unitaries(system, PulseArrays.of(sequence),
                                                           columns=columns)[0])
            assert np.array_equal(alone, sequence_unitary(system, sequence)[:, columns])
    # no segments: the basis columns
    empty = PulseArrays((), np.zeros((0, 2)), np.zeros((0, 2)), np.zeros((0, 2)))
    assert np.array_equal(stacked_unitaries(system, empty, columns=[5, 1]),
                          np.repeat(np.eye(system.dimension)[None][:, :, [5, 1]], 2, axis=0))


def test_dimension_cap_enforced():
    with pytest.raises(ResourceLimitError):
        LevelSystem([QubitLevels(f"q{i}", ("a", "b", "c")) for i in range(4)])
    assert DIMENSION_CAP == 64


# -- closed-system propagation ----------------------------------------------

def test_empty_sequence_is_identity():
    system = two_level()
    psi0 = system.basis_state({"q": "g"})
    traj = propagate_unitary(system, seq(), psi0)
    assert np.array_equal(traj.final, psi0)


def test_resonant_pi_pulse_full_inversion():
    system = two_level()
    traj = propagate_unitary(system, seq(drive()), system.basis_state({"q": "g"}))
    assert abs(1.0 - abs(traj.final[1]) ** 2) < 1e-10


def test_detuned_pulse_peak_transfer():
    system = two_level()
    for ratio in (0.5, 1.0, 3.0, 10.0):
        delta = ratio * OMEGA
        g = math.sqrt(OMEGA**2 + delta**2)
        pulse = drive(area=OMEGA * math.pi / g, detuning=delta)   # duration pi/g
        traj = propagate_unitary(system, seq(pulse), system.basis_state({"q": "g"}))
        expected = OMEGA**2 / g**2
        assert abs(abs(traj.final[1]) ** 2 - expected) < 1e-8


def test_norm_preserved_along_trajectory():
    system = two_level()
    traj = propagate_unitary(system, seq(drive(), drive(area=2 * math.pi)),
                             system.basis_state({"q": "g"}), samples_per_segment=7)
    for psi in traj.states:
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-10


def test_semigroup_property():
    # one segment of t against two of t * split and t * (1 - split), a stack entry per split
    system, target = two_level(), ("q", ("g", "e"))
    split, t = np.array([[0.3, 0.5, 0.9]]), 1.7e-9
    rabi, detuning = np.full_like(split, OMEGA), np.full_like(split, 0.3 * OMEGA)
    u_whole = stacked_unitaries(system, PulseArrays((target,), rabi, detuning,
                                                    np.full_like(split, t)))
    u_split = stacked_unitaries(system, PulseArrays(
        (target, target), np.vstack([rabi, rabi]), np.vstack([detuning, detuning]),
        np.vstack([t * split, t * (1 - split)])))
    assert np.max(np.abs(u_whole - u_split)) < 1e-10


# numbers up to 1e6 times the Rabi frequency, of either sign
RATIOS = st.one_of(st.just(0.0), st.floats(-30.0, 30.0),
                   st.sampled_from([-1e6, -2e3, 1e-3, 1.0, 1e3, 1e6]))


@st.composite
def driven_registers(draw):
    """A register of 1-3 qubits of 2-4 levels, the three-qubit one at the dimension
    cap among them, a drive on one of its transitions or none, and the Rabi
    frequencies, their scale (the Rabi frequency, or OMEGA for 0), the
    detunings and the shifts of a stack of 1-4 segments."""
    sizes = ([4, 4, 4] if draw(st.booleans())
             else draw(st.lists(st.integers(2, 4), min_size=1, max_size=3)))
    qubits = []
    for i, size in enumerate(sizes):
        levels = ("g", "e", "f", "h")[:size]
        detunings = draw(st.dictionaries(st.sampled_from(levels), RATIOS, max_size=2))
        qubits.append(QubitLevels(f"q{i}", levels,
                                  detunings={lv: r * OMEGA for lv, r in detunings.items()}))
    pins = {q.name: q.levels[-1] for q in qubits[-2:]}
    system = LevelSystem(qubits, [ShiftCoupling(pins, 0.0)])
    target = None
    if draw(st.booleans()) or draw(st.booleans()):
        q = draw(st.sampled_from(qubits))
        target = (q.name, tuple(draw(st.permutations(q.levels))[:2]))
    n = draw(st.integers(1, 4))
    # a Rabi frequency of 0 leaves pairs that do not rotate
    rabi = np.array([draw(st.one_of(st.just(0.0), st.floats(0.2, 3.0))) * OMEGA
                     for _ in range(n)])
    scale = np.where(rabi > 0, rabi, OMEGA)
    detuning = np.array([draw(RATIOS) for _ in range(n)]) * scale
    shifts = np.array([[draw(RATIOS)] for _ in range(n)]) * scale[:, None]
    return system, target, rabi, scale, detuning, shifts


def unitarity_error(u):
    return np.abs(u @ np.swapaxes(u.conj(), -1, -2) - np.eye(u.shape[-1])).max()


@settings(max_examples=60, deadline=None)
@given(driven_registers(), st.floats(0.0, 30.0), st.integers(0, 1 << 16),
       st.lists(st.integers(0, 63), min_size=1, max_size=4))
# an undriven pair of equal energies, which does not rotate at all
@example((two_level(), ("q", ("g", "e")), np.zeros(1), np.full(1, OMEGA), np.zeros(1),
          np.zeros((1, 0))), 3.0, 0, [0, 1])
# energies near the double range, where m + w (at 1.7e308) and 2 w (at
# 1.3e308) overflow though every entry of H is finite
@example((two_level(), ("q", ("g", "e")), np.full(1, 1.3e308), np.full(1, 1.3e308),
          np.full(1, 1.3e308), np.zeros((1, 0))), 3.0, 0, [0, 1])
@example((two_level(), ("q", ("g", "e")), np.full(1, 1.7e308), np.full(1, 1.7e308),
          np.full(1, -1.7e308), np.zeros((1, 0))), 3.0, 1, [1])
# a pair a million Rabi frequencies off resonance
@example((two_level(), ("q", ("g", "e")), np.full(1, OMEGA), np.full(1, OMEGA),
          np.full(1, 1e6 * OMEGA), np.zeros((1, 0))), 30.0, 0, [0, 1])
# an undriven pair split by a subnormal detuning, whose reciprocal overflows
@example((two_level(), None, np.zeros(1), np.full(1, OMEGA), np.full(1, 3.1e-314),
          np.zeros((1, 0))), 0.0, 0, [0])
def test_unitary_columns_match_expm_oracle(case, phase, pick, columns):
    # two segments, so that the second is applied to columns that are no
    # longer basis states
    system, target, rabi, scale, detuning, shifts = case
    transitions = [(q.name, (a, b)) for q in system.qubits for a in q.levels
                   for b in q.levels if a != b]
    targets = (target, transitions[pick % len(transitions)])
    columns = [c % system.dimension for c in columns]
    h = np.stack([segment_hamiltonians(system, tg, rabi, detuning, shifts) for tg in targets])
    # |H| t at most 30 per segment: any exponential of -i H t carries rounding
    # errors of about 1e-16 |H| t, the oracle's as much as the rotation's
    t = phase / np.maximum(np.abs(h).max(axis=(2, 3)), OMEGA)
    pulses = PulseArrays(targets, np.stack([rabi, rabi]), np.stack([detuning, detuning]), t)
    got = stacked_unitaries(system, pulses, shifts, columns)
    for i, u in enumerate(got):
        oracle = expm(-1j * h[1, i] * t[1, i]) @ expm(-1j * h[0, i] * t[0, i])
        assert np.abs(u - oracle[:, columns]).max() <= 1e-12
    # whole pulses, whose phases reach 1e6 * 2 pi at the largest ratios
    whole = PulseArrays(targets, pulses.rabi, pulses.detuning, np.stack([math.pi / scale] * 2))
    assert unitarity_error(stacked_unitaries(system, whole, shifts)) <= 1e-13


@st.composite
def closed_sequences(draw):
    """A register of driven_registers, the first entry's shift its coupling's, and
    a sequence of a pulse per entry, at the entry's Rabi frequency (its scale
    when 0) and detuning: on the drawn transition first, then on transitions
    picked at random, each pulse's |H| t one drawn number at most 30."""
    system, target, _, scale, detuning, shifts = draw(driven_registers())
    system = LevelSystem(system.qubits, [replace(system.couplings[0], shift=shifts[0, 0])])
    transitions = [(q.name, (a, b)) for q in system.qubits for a in q.levels
                   for b in q.levels if a != b]
    phase, pulses = draw(st.floats(1e-3, 30.0)), []
    for k, (rabi, delta) in enumerate(zip(scale, detuning)):
        on = target if k == 0 and target else draw(st.sampled_from(transitions))
        h = build_hamiltonian(system, PulseSpec(on, rabi_frequency=rabi, detuning=delta))
        pulses.append(PulseSpec(on, pulse_area=rabi * phase / max(np.abs(h).max(), OMEGA),
                                rabi_frequency=rabi, detuning=delta))
    return system, seq(*pulses)


def blockade_protocol():
    """The register and sequence of the bundled blockade_cz_sweep gate."""
    config = resources.files("oqcsim.configs") / "blockade_cz_sweep.json"
    return load_config(str(config)).gate.scenario.protocol


@settings(max_examples=20, deadline=None)
@given(closed_sequences())
@example(blockade_protocol())
def test_closed_trajectory_ends_on_the_report_column(protocol):
    system, sequence = protocol
    d = system.dimension
    u = sequence_unitary(system, sequence)
    for samples in (1, 7, 24):
        for i in range(d):
            traj = propagate_unitary(system, sequence, np.eye(d)[i], samples)
            assert np.array_equal(traj.final, u[:, i])
    # every sample on the way: sample k of a segment is exp(-i H k dt) of its start
    start = np.full(d, 1 / math.sqrt(d), dtype=complex)
    states = iter(propagate_unitary(system, sequence, start, 5).states)
    assert np.array_equal(next(states), start)
    for _, p in sequence:
        h = build_hamiltonian(system, p)
        for k in range(1, 6):
            oracle = expm(-1j * h * (k * (p.duration / 5))) @ start
            assert np.abs(next(states) - oracle).max() <= 1e-12
        start = oracle


def test_off_resonant_ceiling_property():
    rng = np.random.default_rng(17)
    system = two_level()
    for _ in range(40):
        delta = float(rng.uniform(0, 5)) * OMEGA
        area = float(rng.uniform(0.1, 4 * math.pi))
        traj = propagate_unitary(system, seq(drive(area=area, detuning=delta)),
                                 system.basis_state({"q": "g"}))
        ceiling = OMEGA**2 / (OMEGA**2 + delta**2)
        assert abs(traj.final[1]) ** 2 <= ceiling + 1e-10


def rabi_transfer(omega, delta, t):
    """Analytic two-level transfer probability for a square drive, the Rabi oracle:

    P(t) = Omega^2 / (Omega^2 + delta^2) * sin^2(sqrt(Omega^2 + delta^2) t / 2).
    The prefactor is the off-resonant excitation ceiling the blockade
    relies on.
    """
    if omega == 0.0:
        return 0.0
    g2 = omega * omega + delta * delta
    return (omega * omega / g2) * math.sin(math.sqrt(g2) * t / 2.0) ** 2


def test_rabi_transfer_formula():
    assert rabi_transfer(OMEGA, 0.0, math.pi / OMEGA) == pytest.approx(1.0)
    assert rabi_transfer(0.0, 1e9, 1.0) == 0.0
    # delta = 3 Omega: ceiling 0.1
    g = math.sqrt(10) * OMEGA
    assert rabi_transfer(OMEGA, 3 * OMEGA, math.pi / g) == pytest.approx(0.1, rel=1e-12)


def test_rabi_transfer_cross_checks_propagator():
    system = two_level()
    rng = np.random.default_rng(23)
    for _ in range(20):
        delta = float(rng.uniform(0, 3)) * OMEGA
        area = float(rng.uniform(0.2, 3.0))
        pulse = drive(area=area, detuning=delta)
        traj = propagate_unitary(system, seq(pulse), system.basis_state({"q": "g"}))
        assert abs(traj.final[1]) ** 2 == pytest.approx(
            rabi_transfer(OMEGA, delta, pulse.duration), abs=1e-10)


# -- open-system propagation --------------------------------------------------

def rho0(system, assignment):
    psi = system.basis_state(assignment)
    return np.outer(psi, psi.conj())


def test_closed_limit_matches_unitary():
    system = two_level()
    s = seq(drive(area=1.3, detuning=0.4 * OMEGA))
    traj_u = propagate_unitary(system, s, system.basis_state({"q": "g"}))
    traj_l = propagate_lindblad(system, s, rho0(system, {"q": "g"}))
    rho_u = np.outer(traj_u.final, traj_u.final.conj())
    assert np.max(np.abs(rho_u - traj_l.final)) < 1e-8


def test_spontaneous_decay_exponential():
    tau = 5e-9
    system = two_level(decay={"e": 1.0 / tau})
    hold = PulseSpec(target=("q", ("g", "e")), rabi_frequency=1.0, pulse_area=1e-8)
    # no drive: Omega=1 rad/s is negligible over 10 ns; duration = 1e-8 s
    traj = propagate_lindblad(system, seq(hold), rho0(system, {"q": "e"}))
    expected = math.exp(-1e-8 / tau)
    assert abs(traj.final[1, 1].real - expected) < 1e-6


def test_pure_dephasing_exponential():
    gamma_h = 2e8
    system = two_level(dephasing=gamma_h)
    psi = (system.basis_state({"q": "g"}) + system.basis_state({"q": "e"})) / math.sqrt(2)
    hold = PulseSpec(target=("q", ("g", "e")), rabi_frequency=1.0, pulse_area=1e-8)
    traj = propagate_lindblad(system, seq(hold), np.outer(psi, psi.conj()))
    expected = 0.5 * math.exp(-gamma_h * 1e-8)
    assert abs(abs(traj.final[0, 1]) - expected) < 1e-6
    # populations untouched by pure dephasing
    assert traj.final[1, 1].real == pytest.approx(0.5, abs=1e-9)


def test_trace_and_positivity_preserved():
    system = LevelSystem([
        QubitLevels("a", ("g", "e"), decay_rates={"e": 1e8}, dephasing=5e7),
        QubitLevels("b", ("g", "e"), dephasing=2e7),
    ], [ShiftCoupling({"a": "e", "b": "e"}, 3e9)])
    s = seq(drive(qubit="a"), drive(qubit="b", area=2 * math.pi))
    psi = system.basis_state({"a": "e", "b": "e"})
    traj = propagate_lindblad(system, s, np.outer(psi, psi.conj()), samples_per_segment=5)
    for rho in traj.states:
        assert abs(np.trace(rho).real - 1.0) < 1e-8
        assert np.linalg.eigvalsh(rho).min() > -1e-8


def test_decay_branching_table():
    system = LevelSystem([QubitLevels("q", ("g", "m", "e"),
                                      decay_rates={"e": 1e9},
                                      decay_to={"e": "m"})])
    hold = PulseSpec(target=("q", ("g", "e")), rabi_frequency=1.0, pulse_area=1e-8)
    psi = system.basis_state({"q": "e"})
    traj = propagate_lindblad(system, seq(hold), np.outer(psi, psi.conj()))
    assert traj.final[1, 1].real > 0.9999   # population landed on m, not g
    assert traj.final[0, 0].real < 1e-4


def test_lindblad_matches_ode_integration_oracle():
    # independent route: integrate d(rho)/dt = -i[H,rho] + dissipator
    # directly with an adaptive ODE solver, no vectorization tricks
    from scipy.integrate import solve_ivp

    system = LevelSystem([
        QubitLevels("a", ("g", "e"), decay_rates={"e": 2e8}, dephasing=6e7),
        QubitLevels("b", ("g", "e"), dephasing=4e7),
    ], [ShiftCoupling({"a": "e", "b": "e"}, 1.5e9)])
    pulse = drive(qubit="a", area=1.9, detuning=0.3 * OMEGA)
    h = build_hamiltonian(system, pulse)
    ops, rates = collapse_operators(system)

    def rhs(_, y):
        rho = y.reshape(4, 4)
        out = -1j * (h @ rho - rho @ h)
        for L, rate in zip(ops, rates[0]):
            ldl = L.conj().T @ L
            out += rate * (L @ rho @ L.conj().T - 0.5 * (ldl @ rho + rho @ ldl))
        return out.reshape(-1)

    psi = system.basis_state({"a": "e", "b": "e"})
    rho0 = np.outer(psi, psi.conj())
    sol = solve_ivp(rhs, (0.0, pulse.duration), rho0.reshape(-1).astype(complex),
                    rtol=1e-10, atol=1e-12)
    rho_ode = sol.y[:, -1].reshape(4, 4)

    traj = propagate_lindblad(system, seq(pulse), rho0)
    assert np.max(np.abs(traj.final - rho_ode)) < 1e-7


def test_lindblad_generator_trace_free_column_sums():
    system = two_level(decay={"e": 1e8}, dephasing=3e7)
    ops, rates = collapse_operators(system)
    gen = lindblad_superoperator(build_hamiltonian(system, drive()), ops, rates[0])
    # trace preservation: sum over (i,i) rows of each column vanishes
    d = 2
    tr_rows = gen.reshape(d, d, d, d)[np.arange(d), np.arange(d)].sum(axis=0)
    assert np.max(np.abs(tr_rows)) < 1e-9


def kron_collapse(system):
    """Reference jump operators, each lifted from its qubit with np.kron."""
    ops = []
    for q in system.qubits:
        n = len(q.levels)
        for lv, rate in q.decay_rates.items():
            if rate > 0:
                jump = np.zeros((n, n))
                jump[q.index(q.decay_to.get(lv, q.levels[0])), q.index(lv)] = math.sqrt(rate)
                ops.append(kron_lift(system, q.name, jump))
        if q.dephasing > 0:
            for lv in q.levels:
                proj = np.zeros((n, n))
                proj[q.index(lv), q.index(lv)] = math.sqrt(q.dephasing)
                ops.append(kron_lift(system, q.name, proj))
    return ops


def kron_liouvillian(h, collapse):
    """Reference master-equation generator, assembled with np.kron."""
    ident = np.eye(h.shape[0])
    gen = -1j * (np.kron(h, ident) - np.kron(ident, h.T))
    for L in collapse:
        ldl = L.conj().T @ L
        gen += np.kron(L, L.conj()) - 0.5 * (np.kron(ldl, ident) + np.kron(ident, ldl.T))
    return gen


@st.composite
def noisy_registers(draw):
    """1-3 qubits (dimension <= 12) with decay branching and dephasing, and 0-4 pulses."""
    qubits = []
    for i in range(draw(st.integers(1, 3))):
        levels = ("g", "e", "f")[:draw(st.integers(2, 3))]
        decay = draw(st.dictionaries(st.sampled_from(levels), st.floats(1e6, 1e9), max_size=3))
        decay_to = {}
        for lv in decay:
            # None keeps the default destination, the first level, unless lv is that level
            dest = draw(st.sampled_from([None] + [x for x in levels if x != lv]))
            if dest is not None or lv == levels[0]:
                decay_to[lv] = dest or levels[1]
        qubits.append(QubitLevels(f"q{i}", levels, decay_rates=decay, decay_to=decay_to,
                                  dephasing=draw(st.sampled_from([0.0, 3e7, 2e8]))))
    assume(math.prod(len(q.levels) for q in qubits) <= 12)
    last = qubits[-1]
    system = LevelSystem(qubits, [ShiftCoupling({last.name: last.levels[-1]},
                                                draw(st.floats(-3e9, 3e9)))])
    pulses = []
    for _ in range(draw(st.integers(0, 4))):
        q = draw(st.sampled_from(qubits))
        levels = draw(st.permutations(q.levels))[:2]
        pulses.append(PulseSpec(target=(q.name, tuple(levels)),
                                pulse_area=draw(st.floats(0.3, 2 * math.pi)),
                                rabi_frequency=draw(st.floats(0.2, 3.0)) * OMEGA,
                                detuning=draw(st.floats(-1e9, 1e9))))
    return system, pulses


def with_dephasing(system, gamma):
    return LevelSystem([replace(q, dephasing=gamma) for q in system.qubits], system.couplings)


@settings(max_examples=25, deadline=None)
@given(noisy_registers(), st.lists(st.sampled_from([0.0, 1e6, 4e7, 5e8]), min_size=1,
                                   max_size=3))
def test_blockwise_lindblad_propagation_matches_kron_reference(case, gammas):
    system, pulses = case
    d, n = system.dimension, len(gammas)
    # stack entry i: its own dephasing rate on every qubit, its own Rabi frequencies
    systems = [with_dephasing(system, g) for g in gammas]
    dephasing = [[g] * len(system.qubits) for g in gammas]
    sequences = [seq(*(replace(p, rabi_frequency=p.rabi_frequency * (1 + 0.3 * i))
                       for p in pulses)) for i in range(n)]
    jumps, rates = collapse_operators(system, dephasing)
    for k, pulse in enumerate(pulses):
        stack = [sequence.specs()[k] for sequence in sequences]
        h = segment_hamiltonians(system, pulse.target,
                                 np.array([p.rabi_frequency for p in stack]),
                                 np.array([p.detuning for p in stack]))
        stacked = lindblad_superoperator(h, jumps, rates)
        references = [kron_liouvillian(kron_hamiltonian(sys_i, [p]), kron_collapse(sys_i))
                      for sys_i, p in zip(systems, stack)]
        for gen, ref in zip(stacked, references):
            assert np.max(np.abs(gen - ref)) <= 1e-12 * np.max(np.abs(ref))

        blocks = liouvillian_blocks(system, pulse.target)
        assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(d * d))
        label = np.empty(d * d, dtype=int)
        for b, block in enumerate(blocks):
            label[block] = b
        apart = label[:, None] != label[None, :]
        for ref in references:
            assert not np.any(ref[apart])          # no entry couples two blocks

        durations = np.array([p.duration for p in stack])
        channel = np.zeros((n, d * d, d * d), dtype=complex)
        for s, faults, pieces in _sequence_exponentials([(h, durations, blocks)], jumps, rates,
                                                        [range(len(blocks))]):
            assert not faults.any()
            for index, e in pieces:
                channel[s, index[..., :, None], index[..., None, :]] = e
        for c, ref, t in zip(channel, references, durations):
            assert np.max(np.abs(c - expm(ref * t))) < 1e-10

    # the pulses one after another, through the stacked sequence channels
    columns = np.arange(0, d * d, 5)
    stacked, _ = stacked_superoperators(system, stacked_arrays(sequences), columns,
                                        dephasing=dephasing)
    for out, sys_i, sequence in zip(stacked, systems, sequences):
        ref = np.eye(d * d)
        for p in sequence.specs():
            gen = kron_liouvillian(kron_hamiltonian(sys_i, [p]), kron_collapse(sys_i))
            ref = expm(gen * p.duration) @ ref
        assert np.max(np.abs(out - ref[:, columns])) < 1e-10
        assert np.array_equal(out, sequence_superoperator(sys_i, sequence, columns))


# -- the stacked Padé exponential against scipy.linalg.expm ---------------

def assert_expm_matches_scipy(stack):
    (got, faults), ref = dynamics.expm(stack), expm(stack)
    assert not faults.any()
    for g, r in zip(got, ref):
        assert np.max(np.abs(g - r)) <= 1e-12 * np.max(np.abs(r))


# 1-norms of the drawn matrices: 0 is the zero matrix, and 1e3 takes 8 squarings
EXPM_NORMS = [0.0, 1e-8, 0.3, 5.0, 40.0, 1e3]


@st.composite
def matrix_stacks(draw):
    n, b = draw(st.integers(1, 64)), draw(st.integers(1, 16))
    norms = np.array(draw(st.lists(st.sampled_from(EXPM_NORMS), min_size=n, max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = rng.normal(size=(n, b, b)) + 1j * rng.normal(size=(n, b, b))
    # the largest norm is given to generators -iH - D (D >= 0 diagonal, at most a
    # twentieth of H), whose exponentials stay bounded and far from underflow, so
    # the squarings are tested and not the conditioning
    h = m + m.conj().swapaxes(1, 2)
    damping = rng.uniform(size=(n, b, 1)) * np.abs(h).sum(axis=1).max(axis=1)[:, None, None]
    m = np.where(norms[:, None, None] > 40, -1j * h - damping * np.eye(b) / 20, m)
    return m * (norms / np.abs(m).sum(axis=1).max(axis=1))[:, None, None]


@settings(max_examples=60, deadline=None)
@given(matrix_stacks())
def test_expm_matches_scipy_on_stacks_of_mixed_norms(stack):
    assert_expm_matches_scipy(stack)


@settings(max_examples=25, deadline=None)
@given(noisy_registers(), st.lists(st.sampled_from([0.0, 1e6, 4e7, 5e8]), min_size=1,
                                   max_size=4), st.sampled_from([1.0, 40.0]))
def test_expm_matches_scipy_on_lindblad_blocks(case, gammas, stretch):
    system, pulses = case
    jumps, rates = collapse_operators(system, [[g] * len(system.qubits) for g in gammas])
    for pulse in pulses:
        rabi = pulse.rabi_frequency * (1 + 0.3 * np.arange(len(gammas)))
        h = segment_hamiltonians(system, pulse.target, rabi,
                                 np.full(len(gammas), pulse.detuning))
        for block in liouvillian_blocks(system, pulse.target):
            gen = lindblad_superoperator(h, jumps, rates, block)
            assert_expm_matches_scipy(gen * stretch * pulse.duration)


def test_expm_of_a_stack_of_one():
    a = np.array([[[0.0, 1.0], [-1.0, 0.0]]])
    e, faults = dynamics.expm(a)
    assert e.shape == (1, 2, 2) and faults.tolist() == [0]
    assert np.allclose(e[0], [[math.cos(1), math.sin(1)], [-math.sin(1), math.cos(1)]],
                       atol=1e-15)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_expm_rejects_non_finite_input_and_overflow():
    rng = np.random.default_rng(7)
    fine = rng.normal(size=(1, 2, 3, 3)) + 1j * rng.normal(size=(1, 2, 3, 3))
    alone = dynamics.expm(fine)[0][0]
    infinite = fine.copy()
    infinite[0, 1, 1, 2] = np.inf
    nan = fine.copy()
    nan[0, 0, 0, 0] = np.nan
    grows = fine.copy()
    grows[0, 1] = np.diag([1e3, -1.0, 0.0])                  # e^1000 overflows in squaring
    huge = fine.copy()
    huge[0, 0] = 1e308                                       # its 1-norm overflows
    both = huge.copy()
    both[0, 1, 0, 0] = np.nan                  # the first check an entry fails names it
    for bad, fault in ((infinite, 1), (nan, 1), (grows, 3), (huge, 2), (both, 1)):
        e, faults = dynamics.expm(np.concatenate([fine, bad]))
        assert faults.tolist() == [0, fault]
        assert np.array_equal(e[0], alone)                  # bit for bit
        assert not e[1].any()
    assert dynamics.EXPM_FAULTS[1:] == ("matrix exponential of a non-finite matrix",
                                        "matrix exponential: the matrix norm overflows",
                                        "matrix exponential overflows")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_one_sequence_raises_its_expm_fault():
    # a rate that overflows the generator over a pulse of pi seconds: the
    # channel and the trajectory of the one sequence raise its fault's text
    system = LevelSystem([QubitLevels("a", ("g", "e"), dephasing=1.7e308)])
    sequence = seq(drive(qubit="a", omega=1.0))
    for propagate in (lambda: sequence_superoperator(system, sequence, [0]),
                      lambda: propagate_lindblad(system, sequence, rho0(system, {"a": "g"}))):
        with pytest.raises(DomainError, match="^matrix exponential of a non-finite matrix$"):
            propagate()
    pulses = stacked_arrays([sequence, sequence])
    _, faults = stacked_superoperators(system, pulses, [0], dephasing=[[1e6], [1.7e308]])
    assert faults.tolist() == [0, 1]


def test_collapse_operators_are_unit_with_rates():
    system = LevelSystem([
        QubitLevels("a", ("g", "m", "e"), decay_rates={"e": 1e8, "m": 0.0},
                    decay_to={"e": "m"}, dephasing=5e7),
        QubitLevels("b", ("g", "e"), decay_rates={"e": 2e8})])
    ops, rates = collapse_operators(system)
    assert rates.tolist() == [[1e8, 5e7, 5e7, 5e7, 2e8, 0.0, 0.0]]
    assert all(set(np.unique(op).tolist()) == {0, 1} for op in ops)
    # scaled by the square roots of their nonzero rates, the kron reference's operators
    scaled = [math.sqrt(r) * op for op, r in zip(ops, rates[0]) if r > 0]
    reference = kron_collapse(system)
    assert len(scaled) == len(reference) == 5
    assert all(np.array_equal(a, b) for a, b in zip(scaled, reference))


def test_stack_slices_leave_the_channels_unchanged(monkeypatch):
    system = LevelSystem([QubitLevels("a", ("g", "e", "f"), decay_rates={"f": 3e8, "e": 1e7},
                                      decay_to={"f": "e"}),
                          QubitLevels("b", ("g", "e"))],
                         [ShiftCoupling({"a": "f", "b": "e"}, 2e10)])
    sequences = [seq(drive(qubit="a", levels=("e", "f"), omega=w), drive(qubit="b", omega=w))
                 for w in (0.5 * OMEGA, OMEGA, 2 * OMEGA)]
    dephasing = [[0.0, 1e6], [2e7, 0.0], [5e8, 5e8]]
    every = np.arange(system.dimension ** 2)
    pulses = stacked_arrays(sequences)
    whole = stacked_superoperators(system, pulses, every, dephasing=dephasing)[0]
    monkeypatch.setattr(dynamics, "_EXPM_STACK_ENTRIES", 1)    # one matrix per expm call
    assert np.array_equal(stacked_superoperators(system, pulses, every, dephasing=dephasing)[0],
                          whole)


def block_by_block_channels(system, pulses, columns, dephasing):
    """stacked_superoperators' columns through one expm per block and segment."""
    n, d2 = pulses.rabi.shape[1], system.dimension ** 2
    jumps, rates = collapse_operators(system, dephasing)
    out = np.zeros((n, d2, len(columns)), dtype=complex)
    out[:, columns, np.arange(len(columns))] = 1.0
    for target, rabi, detuning, duration in zip(*pulses):
        h = segment_hamiltonians(system, target, rabi, detuning)
        for block in liouvillian_blocks(system, target):
            gen = lindblad_superoperator(h, jumps, rates, block)
            out[:, block] = dynamics.expm(gen * duration[:, None, None])[0] @ out[:, block]
    return out


def block_by_block_states(system, sequence, rho, samples):
    """propagate_lindblad's states through one expm per block and segment."""
    collapse, rates = collapse_operators(system)
    states = [rho]
    for _, p in sequence:
        h, dt = build_hamiltonian(system, p), p.duration / samples
        steps = [(block, dynamics.expm(lindblad_superoperator(h[None], collapse, rates, block)
                                       * dt)[0][0])
                 for block in liouvillian_blocks(system, p.target)]
        for _ in range(samples):
            vec = rho.reshape(-1).copy()
            for block, e in steps:
                vec[block] = e @ vec[block]
            rho = vec.reshape(rho.shape)
            states.append(rho)
    return states


# limit 1: one matrix per expm call; 12: a class of more than twelve 1x1 or
# three 2x2 blocks is cut into slices of its blocks, and a small class takes
# several stack entries per slice
@pytest.mark.parametrize("limit", [1, 12, None])
@settings(max_examples=15, deadline=None)
@given(noisy_registers(), st.lists(st.sampled_from([0.0, 1e6, 4e7, 5e8]), min_size=1,
                                   max_size=3), st.integers(0, 2 ** 32 - 1))
def test_size_classes_equal_block_by_block_reference(limit, case, gammas, seed):
    system, pulses = case
    d, n = system.dimension, len(gammas)
    sequences = [seq(*(replace(p, rabi_frequency=p.rabi_frequency * (1 + 0.3 * i))
                       for p in pulses)) for i in range(n)]
    dephasing = [[g] * len(system.qubits) for g in gammas]
    columns = np.arange(0, d * d, 3)
    psi = np.array([1, 1j]) @ np.random.default_rng(seed).normal(size=(2, d))
    rho = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    with mock.patch.object(dynamics, "_EXPM_STACK_ENTRIES",
                           limit or dynamics._EXPM_STACK_ENTRIES):
        channels, _ = stacked_superoperators(system, stacked_arrays(sequences), columns,
                                             dephasing=dephasing)
        states = propagate_lindblad(system, sequences[0], rho, samples_per_segment=2).states
    assert np.array_equal(channels, block_by_block_channels(
        system, stacked_arrays(sequences), columns, dephasing))
    reference = block_by_block_states(system, sequences[0], rho, 2)
    assert len(states) == len(reference)
    assert all(np.array_equal(a, b) for a, b in zip(states, reference))


@settings(max_examples=40, deadline=None)
@given(noisy_registers())
# a decay rate whose square root squared is not the rate
@example((LevelSystem([QubitLevels("q0", ("g", "e"), decay_rates={"g": 13970423.0},
                                   decay_to={"g": "e"})], [ShiftCoupling({"q0": "e"}, 0.0)]),
          [drive(area=1.0, detuning=1.0, qubit="q0")]))
def test_trajectory_ends_on_the_channel(case):
    # the trajectory and the channel a gate report scores use one generator, so a
    # basis input |i><i| ends on the channel's column i d + i bit for bit
    system, pulses = case
    d, sequence = system.dimension, seq(*pulses)
    for i in range(d):
        rho = np.zeros((d, d), dtype=complex)
        rho[i, i] = 1.0
        final = propagate_lindblad(system, sequence, rho, samples_per_segment=1).final
        channel = sequence_superoperator(system, sequence, [i * d + i])[:, 0]
        assert np.array_equal(final.reshape(-1), channel)


def test_block_exponentials_memory_at_the_cap(monkeypatch):
    # three 4-level qubits (dimension 64) with decay and dephasing: 2025 blocks,
    # the largest size class 312 blocks of 4 positions, 4992 matrix entries a
    # stack entry, about twenty times the 256 the expm calls are held to here
    system = LevelSystem([QubitLevels(name, ("g", "e", "f", "h"), decay_rates={"e": 1e8},
                                      dephasing=1e6) for name in "abc"])
    n, d = 6, system.dimension
    jumps, rates = collapse_operators(system, np.linspace(0.0, 1e8, 3 * n).reshape(n, 3))
    target = ("a", ("g", "e"))
    h = segment_hamiltonians(system, target, np.linspace(1, 2, n) * OMEGA, np.zeros(n))
    blocks = liouvillian_blocks(system, target)
    monkeypatch.setattr(dynamics, "_EXPM_STACK_ENTRIES", 256)
    largest = max(256, max(len(b) for b in blocks) ** 2)      # entries of one expm call
    sizes, pade_expm = [], dynamics.expm
    monkeypatch.setattr(dynamics, "expm", lambda a: (sizes.append(a.size), pade_expm(a))[1])
    covered = np.zeros((n, d * d), dtype=int)
    tracemalloc.start()
    try:
        for s, _, pieces in _sequence_exponentials([(h, np.full(n, 1e-9), blocks)], jumps,
                                                   rates, [range(len(blocks))]):
            for index, e in pieces:
                covered[s, index.ravel()] += 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes and max(sizes) <= largest
    assert (covered == 1).all()            # every block of every stack entry, once
    # the generators of an expm call, the Padé terms and their products stay under
    # 24 complex arrays of an expm call's size; each c^dagger c, formed on the kets
    # and bras of the positions, takes a few arrays of d^2 more
    assert peak < 16 * (24 * largest + 6 * d * d)


def test_stacked_superoperators_memory_at_the_cap(monkeypatch):
    # the register of the test above, two pulses on different qubits, so two
    # distinct segments; slices of one stack entry and expm calls of 256 entries
    system = LevelSystem([QubitLevels(name, ("g", "e", "f", "h"), decay_rates={"e": 1e8},
                                      dephasing=1e6) for name in "abc"])
    n, d = 6, system.dimension
    sequences = [seq(drive(qubit="a", omega=w), drive(qubit="b", levels=("e", "f"), omega=w))
                 for w in np.linspace(1, 2, n) * OMEGA]
    dephasing = np.linspace(0.0, 1e8, 3 * n).reshape(n, 3)
    columns = np.arange(0, d * d, 97)
    blocks = [b for target in stacked_arrays(sequences).targets
              for b in liouvillian_blocks(system, target)]
    monkeypatch.setattr(dynamics, "_EXPM_STACK_ENTRIES", 256)
    largest = max(256, max(len(b) for b in blocks) ** 2)      # entries of one expm call
    held = sum(len(b) ** 2 for b in blocks)     # both segments' exponentials, one entry
    sizes, pade_expm = [], dynamics.expm
    monkeypatch.setattr(dynamics, "expm", lambda a: (sizes.append(a.size), pade_expm(a))[1])
    pulses = stacked_arrays(sequences)
    tracemalloc.start()
    try:
        out, _ = stacked_superoperators(system, pulses, columns, dephasing=dephasing)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes and max(sizes) <= largest
    # beyond the output: the held exponentials of one stack entry and the pieces
    # a segment gathers from them, a slice's expm work, the two segments'
    # Hamiltonians (n d^2 each) and the fifteen jump operators (d^2 each)
    assert peak - out.nbytes < 16 * (2 * held + 24 * largest + 2 * n * d * d + 24 * d * d)
    assert np.array_equal(out, block_by_block_channels(system, pulses, columns, dephasing))


def pi_out_and_back(detuning):
    """A decaying, dephasing register and three sequences of a pi pulse on a
    transition of qubit a and the same transition driven back, both with the
    detuning."""
    system = LevelSystem([QubitLevels("a", ("g", "e", "f"), decay_rates={"e": 1e7, "f": 3e8},
                                      decay_to={"f": "e"}, dephasing=2e6),
                          QubitLevels("b", ("g", "e"), dephasing=1e6)],
                         [ShiftCoupling({"a": "e", "b": "e"}, 2e10)])
    sequences = [seq(drive(qubit="a", levels=("g", "e"), omega=w, detuning=detuning),
                     drive(qubit="a", levels=("e", "g"), omega=w, detuning=detuning))
                 for w in (0.5 * OMEGA, OMEGA, 2 * OMEGA)]
    return system, sequences


# without detuning the pulse back has the pulse out's Hamiltonian, so its
# exponentials are reused; with it, the detuning lands on the other level
@pytest.mark.parametrize("detuning, segments_exponentiated", [(0.0, 1), (3e8, 2)])
def test_repeated_segments_are_exponentiated_once(monkeypatch, detuning,
                                                  segments_exponentiated):
    system, sequences = pi_out_and_back(detuning)
    pulses, d = stacked_arrays(sequences), system.dimension
    dephasing = [[2e6, 1e6], [0.0, 5e7], [4e8, 0.0]]
    every = np.arange(d * d)
    rho = rho0(system, {"a": "g", "b": "e"})
    matrices, pade_expm = [], dynamics.expm
    monkeypatch.setattr(dynamics, "expm",
                        lambda a: (matrices.append(a[..., 0, 0].size), pade_expm(a))[1])
    channels, _ = stacked_superoperators(system, pulses, every, dephasing=dephasing)
    states = propagate_lindblad(system, sequences[0], rho, samples_per_segment=2).states
    monkeypatch.undo()
    blocks = liouvillian_blocks(system, ("a", ("g", "e")))
    sizes = {len(b) for b in blocks}
    # one stacked expm per block size, of every block of the distinct segments
    assert len(matrices) == 2 * len(sizes)
    assert sum(matrices) == segments_exponentiated * (len(sequences) + 1) * len(blocks)
    assert np.array_equal(channels, block_by_block_channels(system, pulses, every, dephasing))
    reference = block_by_block_states(system, sequences[0], rho, 2)
    assert len(states) == len(reference)
    assert all(np.array_equal(a, b) for a, b in zip(states, reference))


@settings(max_examples=20, deadline=None)
@given(noisy_registers())
def test_cached_liouvillian_blocks_equal_fresh_ones(case):
    system, pulses = case
    for pulse in pulses:
        blocks = liouvillian_blocks(system, pulse.target)
        fresh = dynamics._connected_blocks(system, pulse.target)
        assert len(blocks) == len(fresh)
        assert all(np.array_equal(b, f) for b, f in zip(blocks, fresh))
        assert not any(b.flags.writeable for b in blocks)
        # the same transition driven either way, or by a register of the same
        # structure, reads the same blocks
        qubit, (lo, hi) = pulse.target
        assert liouvillian_blocks(system, (qubit, (hi, lo))) is blocks
        twin = LevelSystem(system.qubits, system.couplings)
        twin_blocks = liouvillian_blocks(twin, pulse.target)
        assert all(np.array_equal(b, f) for b, f in zip(twin_blocks, fresh))


def test_pair_center_register_blocks():
    # two (1, 0, 1p) qubits, the 1p -> 1 and 0 -> 1 decays, a drive on 1 <-> 1p
    qubits = [QubitLevels(name, ("1", "0", "1p"), decay_rates={"1p": 1e8, "0": 1e6},
                          dephasing=1e6) for name in ("control", "target")]
    system = LevelSystem(qubits)
    blocks = liouvillian_blocks(system, ("control", ("1", "1p")))
    assert len(blocks) == 21
    assert max(len(b) for b in blocks) == 15


def test_invalid_initial_states_rejected():
    system = two_level()
    with pytest.raises(ValidationError):
        propagate_unitary(system, seq(), np.array([1.0, 1.0]))
    with pytest.raises(ValidationError):
        propagate_lindblad(system, seq(), np.array([[0.6, 0], [0, 0.6]]))


def test_trajectory_csv_export(tmp_path):
    system = two_level()
    traj = propagate_unitary(system, seq(drive()), system.basis_state({"q": "g"}),
                             samples_per_segment=4)
    path = tmp_path / "traj.csv"
    export_trajectory_csv(path, traj)
    lines = path.read_text().splitlines()
    assert lines[0] == "time_s,pop_g,pop_e,coh_g_e"
    assert len(lines) == 1 + len(traj.states)


@pytest.mark.parametrize("kind", ["state_vector", "density_operator"])
def test_trajectory_csv_equals_csv_writer(tmp_path, kind):
    # a level name with a comma, which the header must quote
    system = LevelSystem([QubitLevels("a", ("g", "e,1"), decay_rates={"e,1": 1e8},
                                      dephasing=5e7),
                          QubitLevels("b", ("g", "e", "f"), detunings={"f": 0.2 * OMEGA})],
                         [ShiftCoupling({"a": "e,1", "b": "e"}, 3e9)])
    s = seq(drive(qubit="a", levels=("g", "e,1"), area=1.3),
            drive(qubit="b", levels=("g", "e"), area=2 * math.pi, detuning=0.1 * OMEGA),
            drive(qubit="b", levels=("f", "e"), area=0.7))
    psi = (system.basis_state({"a": "g", "b": "g"})
           + system.basis_state({"a": "e,1", "b": "f"})) / math.sqrt(2)
    if kind == "state_vector":
        traj = propagate_unitary(system, s, psi, samples_per_segment=5)
    else:
        traj = propagate_lindblad(system, s, np.outer(psi, psi.conj()), samples_per_segment=5)
    assert traj.kind == kind
    path, reference = tmp_path / "traj.csv", tmp_path / "reference.csv"
    export_trajectory_csv(path, traj)
    labels = [":".join(lab) for lab in traj.labels]
    pairs = [(i, j) for i in range(len(labels)) for j in range(i + 1, len(labels))]
    with open(reference, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s"] + [f"pop_{lab}" for lab in labels]
                        + [f"coh_{labels[i]}_{labels[j]}" for i, j in pairs])
        for t, state in zip(traj.times, traj.states):
            rho = np.outer(state, state.conj()) if kind == "state_vector" else state
            writer.writerow([repr(float(t))]
                            + [repr(float(np.real(rho[i, i]))) for i in range(len(labels))]
                            + [repr(float(np.abs(rho[i, j]))) for i, j in pairs])
    assert path.read_bytes() == reference.read_bytes()
    assert path.read_text().startswith('time_s,pop_g:g,pop_g:e,pop_g:f,"pop_e,1:g"')


def test_sequence_unitary_composition_order():
    system = two_level()
    s = seq(drive(area=0.7), drive(area=0.9, detuning=0.2 * OMEGA))
    u = sequence_unitary(system, s)
    traj = propagate_unitary(system, s, system.basis_state({"q": "g"}))
    assert np.allclose(u @ system.basis_state({"q": "g"}), traj.final, atol=1e-12)
