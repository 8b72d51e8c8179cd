"""Time propagation of small multilevel registers under pulse sequences.

Everything is phrased in the rotating frame of the driven transitions,
so each pulse segment has a time-independent Hamiltonian: diagonal
detunings and conditional shifts, plus Omega/2 on the driven transition.
Closed-system segments are propagated exactly through the Hermitian
eigendecomposition; open-system segments through the exponential of the
Lindblad superoperator with radiative decay (1/tau per level) and pure
per-level dephasing at the homogeneous width.

Frequencies entering the Hamiltonian (detunings, shifts, Rabi) are
angular (rad/s); decay and dephasing rates are ordinary rates (1/s).

The register dimension is capped at 64 states so that superoperator
exponentials (dimension^2 <= 4096) stay cheap and deterministic.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.linalg import expm

from .errors import DomainError, ResourceLimitError, ValidationError
from .pulses import PulseSequence, PulseSpec

DIMENSION_CAP = 64

NORM_TOL = 1e-8
TRACE_TOL = 1e-8
POSITIVITY_TOL = 1e-8


@dataclass(frozen=True)
class QubitLevels:
    """Level structure of one physical qubit in the register.

    The first listed level is the scheme's ground level and the default
    decay destination; decay_to overrides per level (branching table).
    Detunings are static rotating-frame offsets in rad/s; decay rates
    are 1/tau in 1/s; dephasing is the homogeneous width in 1/s applied
    as independent per-level phase noise (every transition of the qubit
    then has ZPL width equal to it).
    """

    name: str
    levels: tuple[str, ...]
    detunings: Mapping[str, float] = field(default_factory=dict)
    decay_rates: Mapping[str, float] = field(default_factory=dict)
    decay_to: Mapping[str, str] = field(default_factory=dict)
    dephasing: float = 0.0

    def __post_init__(self):
        if len(self.levels) < 2:
            raise ValidationError(f"qubit {self.name!r} needs at least two levels")
        if len(set(self.levels)) != len(self.levels):
            raise ValidationError(f"qubit {self.name!r} has duplicate level names")
        for mapping in (self.detunings, self.decay_rates, self.decay_to):
            for lv in mapping:
                if lv not in self.levels:
                    raise ValidationError(f"qubit {self.name!r} has no level {lv!r}")
        if any(r < 0 for r in self.decay_rates.values()) or self.dephasing < 0:
            raise ValidationError("rates must be >= 0")

    def index(self, level: str) -> int:
        try:
            return self.levels.index(level)
        except ValueError:
            raise ValidationError(f"qubit {self.name!r} has no level {level!r}") from None


@dataclass(frozen=True)
class ShiftCoupling:
    """Diagonal shift (rad/s) on joint states matching all (qubit, level) pins."""

    states: Mapping[str, str]
    shift: float


class LevelSystem:
    """Register of qubits with static cross-qubit couplings."""

    def __init__(self, qubits: Sequence[QubitLevels],
                 couplings: Iterable[ShiftCoupling] = ()):
        names = [q.name for q in qubits]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate qubit names")
        self.qubits = tuple(qubits)
        self.couplings = tuple(couplings)
        self._by_name = {q.name: q for q in self.qubits}
        dims = [len(q.levels) for q in self.qubits]
        self.dimension = int(np.prod(dims)) if dims else 0
        if self.dimension > DIMENSION_CAP:
            raise ResourceLimitError(
                f"register dimension {self.dimension} exceeds the cap {DIMENSION_CAP}")
        self._strides = []
        stride = self.dimension
        for d in dims:
            stride //= d
            self._strides.append(stride)
        for cp in self.couplings:
            for qn, lv in cp.states.items():
                self.qubit(qn).index(lv)

    def qubit(self, name: str) -> QubitLevels:
        try:
            return self._by_name[name]
        except KeyError:
            raise ValidationError(f"unknown qubit {name!r}") from None

    def basis_index(self, assignment: Mapping[str, str]) -> int:
        """Flat index of the joint basis state assigning a level to every qubit."""
        if set(assignment) != set(self._by_name):
            raise ValidationError("assignment must name every qubit exactly once")
        return sum(q.index(assignment[q.name]) * s
                   for q, s in zip(self.qubits, self._strides))

    def basis_labels(self) -> list[tuple[str, ...]]:
        labels = [()]
        for q in self.qubits:
            labels = [lab + (lv,) for lab in labels for lv in q.levels]
        return labels

    def lift(self, qubit_name: str, op: np.ndarray) -> np.ndarray:
        """Embed a single-qubit operator into the full register."""
        out = np.array([[1.0 + 0j]])
        for q in self.qubits:
            block = op if q.name == qubit_name else np.eye(len(q.levels))
            out = np.kron(out, block)
        return out

    def _matching_indices(self, pins: Mapping[str, str]) -> np.ndarray:
        mask = np.ones(self.dimension, dtype=bool)
        for qn, lv in pins.items():
            q = self.qubit(qn)
            pos = list(self.qubits).index(q)
            stride = self._strides[pos]
            idx = (np.arange(self.dimension) // stride) % len(q.levels)
            mask &= idx == q.index(lv)
        return np.flatnonzero(mask)

    def basis_state(self, assignment: Mapping[str, str]) -> np.ndarray:
        psi = np.zeros(self.dimension, dtype=complex)
        psi[self.basis_index(assignment)] = 1.0
        return psi


def build_hamiltonian(system: LevelSystem,
                      pulse: PulseSpec | Sequence[PulseSpec] | None = None) -> np.ndarray:
    """Rotating-frame segment Hamiltonian (rad/s), Hermitian by construction.

    Diagonal: per-level static detunings plus conditional shift
    couplings.  Off-diagonal: Omega/2 on each driven transition, with
    the pulse detuning on the upper level.
    Several simultaneous pulses are allowed only on disjoint level pairs.
    """
    h = np.zeros((system.dimension, system.dimension), dtype=complex)

    for q in system.qubits:
        for lv, det in q.detunings.items():
            if det != 0.0:
                n = np.zeros((len(q.levels), len(q.levels)))
                n[q.index(lv), q.index(lv)] = det
                h += system.lift(q.name, n)

    for cp in system.couplings:
        idx = system._matching_indices(cp.states)
        h[idx, idx] += cp.shift

    if pulse is not None:
        specs = [pulse] if isinstance(pulse, PulseSpec) else list(pulse)
        used: set[tuple[str, str]] = set()
        for p in specs:
            q = system.qubit(p.qubit)
            lo, hi = p.transition
            for lv in (lo, hi):
                key = (p.qubit, lv)
                if key in used:
                    raise ValidationError(
                        f"simultaneous pulses must target disjoint level pairs; "
                        f"{key} is driven twice")
                used.add(key)
            d = len(q.levels)
            drive = np.zeros((d, d), dtype=complex)
            drive[q.index(hi), q.index(lo)] = p.rabi_frequency / 2.0
            drive[q.index(lo), q.index(hi)] = p.rabi_frequency / 2.0
            drive[q.index(hi), q.index(hi)] = p.detuning
            h += system.lift(p.qubit, drive)

    return h


def collapse_operators(system: LevelSystem) -> list[np.ndarray]:
    """Lindblad jump operators: radiative decay plus per-level dephasing."""
    ops = []
    for q in system.qubits:
        ground = q.levels[0]
        d = len(q.levels)
        for lv, rate in q.decay_rates.items():
            if rate <= 0:
                continue
            dest = q.decay_to.get(lv, ground)
            if dest == lv:
                raise ValidationError(f"level {lv!r} cannot decay to itself")
            jump = np.zeros((d, d), dtype=complex)
            jump[q.index(dest), q.index(lv)] = math.sqrt(rate)
            ops.append(system.lift(q.name, jump))
        if q.dephasing > 0:
            for lv in q.levels:
                proj = np.zeros((d, d), dtype=complex)
                proj[q.index(lv), q.index(lv)] = math.sqrt(q.dephasing)
                ops.append(system.lift(q.name, proj))
    return ops


def segment_unitary(h: np.ndarray, duration: float) -> np.ndarray:
    """exp(-i H t) through the Hermitian eigendecomposition (exact)."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * duration)) @ v.conj().T


def lindblad_superoperator(h: np.ndarray, collapse: Sequence[np.ndarray]) -> np.ndarray:
    """Generator of the master equation on row-major vectorized states."""
    d = h.shape[0]
    ident = np.eye(d)
    gen = -1j * (np.kron(h, ident) - np.kron(ident, h.T))
    for L in collapse:
        ldl = L.conj().T @ L
        gen += (np.kron(L, L.conj())
                - 0.5 * (np.kron(ldl, ident) + np.kron(ident, ldl.T)))
    return gen


def sequence_unitary(system: LevelSystem, sequence: PulseSequence) -> np.ndarray:
    """Total unitary of an ordered pulse sequence (closed system)."""
    u = np.eye(system.dimension, dtype=complex)
    for _, p in sequence:
        u = segment_unitary(build_hamiltonian(system, p), p.duration) @ u
    return u


def sequence_superoperator(system: LevelSystem, sequence: PulseSequence) -> np.ndarray:
    """Total quantum channel of a pulse sequence as a superoperator matrix."""
    dim2 = system.dimension ** 2
    collapse = collapse_operators(system)
    s = np.eye(dim2, dtype=complex)
    for _, p in sequence:
        gen = lindblad_superoperator(build_hamiltonian(system, p), collapse)
        s = expm(gen * p.duration) @ s
    return s


@dataclass
class Trajectory:
    """States recorded at segment boundaries (and optional interior samples)."""

    times: np.ndarray
    states: list[np.ndarray]
    labels: list[tuple[str, ...]]
    kind: str                      # "state_vector" | "density_operator"

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    def populations(self) -> np.ndarray:
        if self.kind == "state_vector":
            return np.array([np.abs(s) ** 2 for s in self.states])
        return np.array([np.real(np.diag(s)) for s in self.states])


def _check_state_vector(psi: np.ndarray, dim: int) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape[0] != dim:
        raise ValidationError(f"state vector has dimension {psi.shape[0]}, expected {dim}")
    if abs(np.linalg.norm(psi) - 1.0) > NORM_TOL:
        raise ValidationError("initial state vector is not normalized")
    return psi


def _check_density(rho: np.ndarray, dim: int) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValidationError(f"density operator shape {rho.shape}, expected {(dim, dim)}")
    if np.max(np.abs(rho - rho.conj().T)) > TRACE_TOL:
        raise ValidationError("density operator is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > TRACE_TOL:
        raise ValidationError("density operator trace is not 1")
    if np.linalg.eigvalsh(rho).min() < -POSITIVITY_TOL:
        raise ValidationError("density operator is not positive semidefinite")
    return rho


def propagate_unitary(system: LevelSystem, sequence: PulseSequence, psi0,
                      samples_per_segment: int = 1) -> Trajectory:
    """Closed-system evolution of a state vector through a pulse sequence.

    Each segment is propagated exactly (eigendecomposition exponential);
    the trajectory holds the state at every segment boundary, plus
    interior samples when samples_per_segment > 1.  The norm is
    conserved to floating-point accuracy.
    """
    psi = _check_state_vector(psi0, system.dimension)
    times, states = [0.0], [psi]
    t = 0.0
    for _, p in sequence:
        h = build_hamiltonian(system, p)
        dt = p.duration / samples_per_segment
        step = segment_unitary(h, dt)
        for _ in range(samples_per_segment):
            psi = step @ psi
            t += dt
            times.append(t)
            states.append(psi)
    return Trajectory(np.array(times), states, system.basis_labels(), "state_vector")


def propagate_lindblad(system: LevelSystem, sequence: PulseSequence, rho0,
                       samples_per_segment: int = 1) -> Trajectory:
    """Open-system evolution of a density operator through a pulse sequence.

    Decay channels (per-level lifetimes) and pure dephasing (homogeneous
    width) enter through the standard dissipator; each segment is the
    exact exponential of the Lindblad superoperator.  Trace is conserved
    and eigenvalues stay positive to solver accuracy.
    """
    rho = _check_density(rho0, system.dimension)
    collapse = collapse_operators(system)
    dim = system.dimension
    times, states = [0.0], [rho]
    t = 0.0
    for _, p in sequence:
        gen = lindblad_superoperator(build_hamiltonian(system, p), collapse)
        dt = p.duration / samples_per_segment
        step = expm(gen * dt)
        for _ in range(samples_per_segment):
            rho = (step @ rho.reshape(-1)).reshape(dim, dim)
            t += dt
            times.append(t)
            states.append(rho)
    return Trajectory(np.array(times), states, system.basis_labels(), "density_operator")


def rabi_transfer(omega: float, delta: float, t: float) -> float:
    """Analytic two-level transfer probability for a square drive.

    P(t) = Omega^2 / (Omega^2 + delta^2) * sin^2(sqrt(Omega^2 + delta^2) t / 2).
    The prefactor is the off-resonant excitation ceiling the blockade
    relies on.
    """
    if omega < 0:
        raise DomainError("Rabi frequency must be >= 0")
    if omega == 0.0:
        return 0.0
    g2 = omega * omega + delta * delta
    return (omega * omega / g2) * math.sin(math.sqrt(g2) * t / 2.0) ** 2


def export_trajectory_csv(path, trajectory: Trajectory) -> None:
    """Write (time, populations, coherence magnitudes) rows for plotting."""
    labels = [":".join(lab) for lab in trajectory.labels]
    dim = len(labels)
    header = ["time_s"] + [f"pop_{lab}" for lab in labels]
    header += [f"coh_{labels[i]}_{labels[j]}" for i in range(dim) for j in range(i + 1, dim)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t, state in zip(trajectory.times, trajectory.states):
            if trajectory.kind == "state_vector":
                rho = np.outer(state, state.conj())
            else:
                rho = state
            row = [repr(float(t))]
            row += [repr(float(np.real(rho[i, i]))) for i in range(dim)]
            row += [repr(float(np.abs(rho[i, j])))
                    for i in range(dim) for j in range(i + 1, dim)]
            writer.writerow(row)
