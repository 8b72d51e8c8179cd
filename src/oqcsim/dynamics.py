"""Time propagation of small multilevel registers under pulse sequences.

Everything is phrased in the rotating frame of the driven transitions,
so each pulse segment has a time-independent Hamiltonian: diagonal
detunings and conditional shifts, plus Omega/2 on the one transition
its pulse drives (pulse numbers rise strictly, so a segment holds one
pulse).  That drive couples the joint states in pairs, so a segment
Hamiltonian is a direct sum of 1 x 1 and 2 x 2 blocks, and closed-system
segments are propagated exactly in closed form: a phase on each
unpaired state and a two-level rotation on each pair (_segment_rotation).
A closed sequence is propagated on the columns asked for, the
coefficients applied to them segment by segment, so a gate score
propagates only the four columns of the computational states and no
Hamiltonian or unitary matrix is built; segment_unitary is the same
closed form as a matrix.
Open-system segments are propagated through the exponential of the
Lindblad superoperator with radiative decay (1/tau per level) and pure
per-level dephasing at the homogeneous width.
Decay and dephasing keep each qubit's offset between ket and bra level
and only the driven transition changes it, so the dimension^2 x
dimension^2 superoperator splits into blocks it never couples
(liouvillian_blocks), and it is exponentiated block by block.  The
blocks come in few sizes; the blocks of one size, for every sequence of
a stack, are built in one gather and exponentiated in one call of the
package's own expm, the scaling-and-squaring Padé-13 method of Higham
(2005) taken on a whole stack of matrices at once.

n sequences of one shape, differing only in Rabi frequencies,
detunings, durations, coupling shifts and dephasing rates, are
described by PulseArrays and propagated in one stack by
stacked_unitaries and stacked_superoperators; sequence_unitary and
sequence_superoperator are their n = 1 case.

export_trajectory_csv computes a trajectory's populations and
coherence magnitudes by columns, as arrays over all its times, and
writes the repr of each number, with the bytes csv.writer would write.

Frequencies entering the Hamiltonian (detunings, shifts, Rabi) are
angular (rad/s); decay and dephasing rates are ordinary rates (1/s).

The register dimension is capped at 64 states.  At the cap the blocks
stay small, but their number and the columns propagated set the cost,
so a channel is only ever computed on the columns asked for: for three
4-level qubits with decay and dephasing (2025 blocks of five sizes, at
most 16 positions, per pulse), two pulses took 0.02-0.04 s for the
sixteen operators a gate score reads on a 2-vCPU machine, against
0.6-0.7 s for all 4096 columns, and a dense generator alone would hold
268 MB.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, ResourceLimitError, ValidationError
from .pulses import PulseSequence, PulseSpec

DIMENSION_CAP = 64

NORM_TOL = 1e-8
TRACE_TOL = 1e-8
POSITIVITY_TOL = 1e-8

# Most matrix entries one stacked expm call takes: the blocks of one size
# are exponentiated in slices of the stack and of the blocks, which
# bounds their memory.
_EXPM_STACK_ENTRIES = 1 << 20


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
        self._level_indices: dict[tuple[str, str], np.ndarray] = {}
        self._basis_indices: dict[tuple, np.ndarray] = {}
        self._liouvillian_blocks: dict[tuple, tuple[np.ndarray, ...]] = {}

    @cached_property
    def _detuning_diag(self) -> np.ndarray:
        """Diagonal of the static detunings, part of every segment Hamiltonian."""
        diag = np.zeros(self.dimension)
        for q in self.qubits:
            for lv, det in q.detunings.items():
                if det != 0.0:
                    diag[self.level_indices(q.name, lv)] += det
        return diag

    @cached_property
    def _coupling_indices(self) -> list[np.ndarray]:
        """Where each coupling's shift lands on the diagonal."""
        return [self._matching_indices(cp.states) for cp in self.couplings]

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

    def basis_indices(self, qubits: tuple[str, ...],
                      states: tuple[tuple[str, ...], ...]) -> np.ndarray:
        """basis_index of each joint state, states[i][j] being the level of qubits[j].

        Cached per (qubits, states) and read-only, so a caller scoring
        many propagators of one register looks its indices up once.
        """
        key = (qubits, states)
        if key not in self._basis_indices:
            idx = np.array([self.basis_index(dict(zip(qubits, s))) for s in states])
            idx.flags.writeable = False
            self._basis_indices[key] = idx
        return self._basis_indices[key]

    def basis_labels(self) -> list[tuple[str, ...]]:
        labels = [()]
        for q in self.qubits:
            labels = [lab + (lv,) for lab in labels for lv in q.levels]
        return labels

    def level_indices(self, qubit_name: str, level: str) -> np.ndarray:
        """Flat indices of the joint states with one qubit in the given level.

        Ascending, so the lists of two levels of the same qubit pair up
        state by state (the other qubits' levels agree).
        """
        key = (qubit_name, level)
        if key not in self._level_indices:
            self._level_indices[key] = self._matching_indices({qubit_name: level})
        return self._level_indices[key]

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


def build_hamiltonian(system: LevelSystem, pulse: PulseSpec | None = None) -> np.ndarray:
    """Rotating-frame segment Hamiltonian (rad/s), Hermitian by construction.

    Diagonal: per-level static detunings plus conditional shift
    couplings.  Off-diagonal: Omega/2 on the driven transition, with
    the pulse detuning on the upper level; no pulse, no drive.
    """
    if pulse is None:
        return segment_hamiltonians(system, None, np.zeros(1), np.zeros(1))[0]
    return segment_hamiltonians(system, pulse.target, np.array([pulse.rabi_frequency]),
                                np.array([pulse.detuning]))[0]


def segment_hamiltonians(system: LevelSystem, target: tuple[str, tuple[str, str]] | None,
                         rabi: np.ndarray, detuning: np.ndarray,
                         shifts: np.ndarray | None = None) -> np.ndarray:
    """Hamiltonians (n, d, d) of n registers of one structure driven on one transition.

    H_i = H_static + sum_c shifts[i, c] P_c + (rabi[i] / 2) D + detuning[i] E,
    with the index sets P_c (coupling c), D and E (the transition
    target, None for no drive) taken from the system.  rabi and
    detuning have shape (n,), shifts (n, len(system.couplings)); by
    default every entry takes the system's own coupling shifts.
    """
    n, d = len(rabi), system.dimension
    h = np.zeros((n, d, d), dtype=complex)
    h[:, np.arange(d), np.arange(d)] = _segment_energies(system, target, detuning, shifts)
    if target is not None:
        lower, upper = drive_pairs(system, target)
        half_rabi = rabi[:, None] / 2.0
        h[:, upper, lower] += half_rabi
        h[:, lower, upper] += half_rabi
    return h


def _segment_energies(system: LevelSystem, target: tuple[str, tuple[str, str]] | None,
                     detuning: np.ndarray, shifts: np.ndarray | None = None) -> np.ndarray:
    """Diagonals (n, d) of segment_hamiltonians: the static detunings, the
    coupling shifts and the pulse detuning on the driven transition's
    upper level."""
    n = len(detuning)
    if shifts is None:
        shifts = np.tile([cp.shift for cp in system.couplings], (n, 1))
    diag = np.repeat(system._detuning_diag[None, :], n, axis=0)
    for c, idx in enumerate(system._coupling_indices):
        diag[:, idx] += shifts[:, c, None]
    if target is not None:
        diag[:, drive_pairs(system, target)[1]] += detuning[:, None]
    return diag


def drive_pairs(system: LevelSystem, target: tuple[str, tuple[str, str]] | None
                ) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper): the joint states a drive on the target couples, pair by pair.

    lower[k] and upper[k] differ only in the driven qubit's level, lo
    and hi; a state is in at most one pair, since the drive's levels
    differ.  Empty arrays for no drive (target None).
    """
    if target is None:
        empty = np.zeros(0, dtype=int)
        return empty, empty
    qubit, (lo, hi) = target
    return system.level_indices(qubit, lo), system.level_indices(qubit, hi)


def jump_operators(system: LevelSystem,
                   dephasing: np.ndarray | None = None) -> tuple[list[np.ndarray], np.ndarray]:
    """Unit jump operators of the register and their rates (1/s).

    Radiative decay is |dest><lv| for each level with a nonzero decay
    rate; pure dephasing is the projector on each level of each qubit,
    at that qubit's dephasing rate.  The projectors are listed whatever
    the rate, so the operators depend only on the register's structure.
    The rates have shape (n, K) for K operators: dephasing, of shape
    (n, len(system.qubits)), gives n stack entries their own dephasing
    rates; by default n = 1 with each qubit's own.  An entry's dissipator
    is linear in its rates (see lindblad_superoperator).
    """
    d = system.dimension
    if dephasing is None:
        dephasing = [[q.dephasing for q in system.qubits]]
    dephasing = np.asarray(dephasing, dtype=float)
    ops, rates = [], []
    for pos, q in enumerate(system.qubits):
        ground = q.levels[0]
        for lv, rate in q.decay_rates.items():
            if rate <= 0:
                continue
            dest = q.decay_to.get(lv, ground)
            if dest == lv:
                raise ValidationError(f"level {lv!r} cannot decay to itself")
            jump = np.zeros((d, d), dtype=complex)
            jump[system.level_indices(q.name, dest), system.level_indices(q.name, lv)] = 1.0
            ops.append(jump)
            rates.append(np.full(len(dephasing), float(rate)))
        for lv in q.levels:
            idx = system.level_indices(q.name, lv)
            proj = np.zeros((d, d), dtype=complex)
            proj[idx, idx] = 1.0
            ops.append(proj)
            rates.append(dephasing[:, pos])
    return ops, np.stack(rates, axis=1)


def collapse_operators(system: LevelSystem) -> list[np.ndarray]:
    """Lindblad jump operators: radiative decay plus per-level dephasing.

    The jump_operators of the register scaled by the square roots of
    their rates, without the zero-rate ones.
    """
    ops, rates = jump_operators(system)
    return [math.sqrt(rate) * op for op, rate in zip(ops, rates[0]) if rate > 0]


def liouvillian_blocks(system: LevelSystem, target: tuple[str, tuple[str, str]],
                       collapse: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    """Blocks of a segment's Lindblad generator: the connected components
    of its off-diagonal structure.

    Position i*d + k of a row-major vectorized state holds <i|rho|k>.  The
    drive on the (qubit, (lo, hi)) target moves the ket or the bra of that
    qubit between lo and hi; a jump operator c moves ket and bra together
    (c rho c^dagger), so decay and dephasing keep each qubit's offset
    between ket and bra level and only a driven transition changes it.
    Positions that no chain of such moves joins are never coupled, so
    the generator, and with it its exponential, is block diagonal over
    these components.  The blocks follow from structure alone, which
    transitions are driven and where the jump operators have entries,
    never from the numbers, so a register gets the same blocks alone and
    in a stack.  Ascending index arrays, ordered by their first position.

    Cached per driven transition, in either direction, and pattern of
    the jump operators' entries, and read-only, so the segments of one
    register that drive the same transition compute the blocks once.
    """
    qubit, levels = target
    key = (qubit, tuple(sorted(levels)),
           tuple(np.packbits(c != 0).tobytes() for c in collapse))
    if key not in system._liouvillian_blocks:
        system._liouvillian_blocks[key] = _connected_blocks(system, target, collapse)
    return system._liouvillian_blocks[key]


def _connected_blocks(system: LevelSystem, target: tuple[str, tuple[str, str]],
                      collapse: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    """The blocks of liouvillian_blocks, computed afresh."""
    d = system.dimension
    pos = np.arange(d * d).reshape(d, d)
    qubit, (lo, hi) = target
    upper, lower = system.level_indices(qubit, hi), system.level_indices(qubit, lo)
    # pairs of equal-shape position arrays
    joined = [(pos[upper], pos[lower]), (pos[:, upper], pos[:, lower])]
    for c in collapse:
        pattern = (c != 0).astype(int)
        rows, cols = np.nonzero(pattern)
        joined.append((pos[np.ix_(rows, rows)], pos[np.ix_(cols, cols)]))
        # off-diagonal entries of c^dagger c move the ket or the bra alone
        a, b = np.nonzero(np.triu(pattern.T @ pattern, 1))
        joined += [(pos[a], pos[b]), (pos[:, a], pos[:, b])]
    u = np.concatenate([x.ravel() for x, _ in joined])
    v = np.concatenate([y.ravel() for _, y in joined])
    # label propagation: every position ends labelled with its component's smallest
    label = np.arange(d * d)
    while True:
        low = np.minimum(label[u], label[v])
        if np.array_equal(low, label[u]) and np.array_equal(low, label[v]):
            break
        np.minimum.at(label, u, low)
        np.minimum.at(label, v, low)
        label = label[label]
    order = np.argsort(label, kind="stable")
    order.flags.writeable = False              # and with it every block, a view of it
    return tuple(np.split(order, np.flatnonzero(np.diff(label[order])) + 1))


def segment_unitary(h: np.ndarray, duration,
                    pairs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """exp(-i H t) in closed form (exact) for a Hermitian H whose only
    off-diagonal entries join the states of pairs = (lower, upper).

    The coefficients of _segment_rotation placed into a matrix.  Also
    takes a stack: h of shape (n, d, d) with n durations.
    """
    lower, upper = pairs
    alone = _unpaired(h.shape[-1], pairs)
    e = h.diagonal(axis1=-2, axis2=-1).real
    phase, aa, bb, ab, ba = _segment_rotation(
        e[..., alone], e[..., lower], e[..., upper], h[..., upper, lower],
        h[..., lower, upper], np.asarray(duration, dtype=float)[..., None])
    u = np.zeros(h.shape, dtype=complex)
    u[..., alone, alone] = phase
    u[..., lower, lower] = aa
    u[..., upper, upper] = bb
    u[..., lower, upper] = ab
    u[..., upper, lower] = ba
    return u


def _unpaired(dimension: int, pairs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The states in none of the pairs, ascending."""
    paired = np.zeros(dimension, dtype=bool)
    paired[pairs[0]] = paired[pairs[1]] = True
    return np.flatnonzero(~paired)


def _segment_rotation(e, ea, eb, h_ba, h_ab, t) -> tuple[np.ndarray, ...]:
    """exp(-i H t) of segments H as coefficients, element by element.

    e holds the diagonal entries of the unpaired states; ea, eb, h_ba
    and h_ab those of the pairs (a, b), H_aa, H_bb, H_ba and H_ab, their
    only off-diagonal entries; t the durations, which broadcast against
    both.  Returns the phase of each unpaired state and the blocks
    [[aa, ab], [ba, bb]] of the pairs.

    A segment Hamiltonian couples only the pairs its drive joins
    (drive_pairs), so H is a direct sum of 1 x 1 and 2 x 2 blocks.  An
    unpaired state k takes the phase exp(-i H_kk t).  A pair (a, b) with
    mean m = (H_aa + H_bb)/2 and K = H_ab,ab - m 1, where K^2 = w^2 1
    with w = hypot((H_aa - H_bb)/2, |H_ba|), has the eigenvalues m +- w
    and evolves as p+ (1 + K/w)/2 + p- (1 - K/w)/2, with p+- = exp(-i
    (m +- w) t).  The eigenvalue of larger magnitude is m +- w itself;
    the other is taken as (H_aa H_bb - |H_ab|^2) divided by it, since
    m -+ w cancels for a pair far off resonance, whose slow phase would
    then carry the rounding of the fast one.  Both are formed from half
    the larger one, m/2 +- w/2, and the rotation divides by w, not 2 w,
    so that no step overflows while the entries of H are finite.
    Numbers too large for double precision give non-finite entries, not
    warnings.
    """
    coupling = np.abs(h_ba)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # halved first, so that energies near the double range do not overflow
        mean, half = ea / 2 + eb / 2, ea / 2 - eb / 2
        w = np.hypot(half, coupling)
        negative = np.signbit(mean)
        # half the large eigenvalue, which the sum m +- w itself could overflow
        hl = np.where(negative, mean / 2 - w / 2, mean / 2 + w / 2)
        # |hl| >= |ea|/2, |eb|/2, coupling/2, so neither ratio overflows
        small = np.where(hl != 0, (ea / 2) * (eb / hl) - (coupling / 2) * (coupling / hl), 0.0)
        large_phase, small_phase = 2 * (hl * t), small * t
        p_plus = np.exp(-1j * np.where(negative, small_phase, large_phase))
        p_minus = np.exp(-1j * np.where(negative, large_phase, small_phase))
        cos = (p_plus + p_minus) / 2            # exp(-i m t) cos(w t)
        # -i exp(-i m t) sin(w t) / w, times K the rest of the rotation
        sin = np.where(w > 0, (p_plus - p_minus) / 2 / w, 0.0)
        return (np.exp(-1j * (e * t)), cos + sin * half, cos - sin * half, sin * h_ab,
                sin * h_ba)


def _unitary_columns(rotation: tuple[np.ndarray, ...], alone: np.ndarray,
                     pairs: tuple[np.ndarray, np.ndarray], columns: np.ndarray) -> np.ndarray:
    """Columns (d, m, n) of n segment unitaries given by their coefficients
    (_segment_rotation, each of shape (states, n)): column c is the image
    of basis state columns[c]."""
    phase, aa, bb, ab, ba = rotation
    lower, upper = pairs
    d = len(alone) + len(lower) + len(upper)
    u = np.zeros((d, len(columns), phase.shape[-1]), dtype=complex)
    for states, images in ((alone, ((alone, phase),)),
                           (lower, ((lower, aa), (upper, ba))),
                           (upper, ((upper, bb), (lower, ab)))):
        # the column c whose state is states[k]
        k, c = np.nonzero(states[:, None] == columns)
        for rows, coefficient in images:
            u[rows[k], c] = coefficient[k]
    return u


def _rotate_columns(rotation: tuple[np.ndarray, ...], alone: np.ndarray,
                    pairs: tuple[np.ndarray, np.ndarray], columns: np.ndarray) -> np.ndarray:
    """n segment unitaries given by their coefficients (as in
    _unitary_columns) applied to columns (d, m, n)."""
    phase, aa, bb, ab, ba = (x[:, None] for x in rotation)
    lower, upper = pairs
    a, b = columns[lower], columns[upper]
    out = np.empty_like(columns)
    out[alone] = phase * columns[alone]
    out[lower] = aa * a + ab * b
    out[upper] = ba * a + bb * b
    return out


# Coefficients b_0 .. b_13 of the degree-13 Padé approximant to exp, and
# the largest 1-norm at which it is accurate to double precision
# (Higham 2005, table 2.3).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of one matrix (b, b) or of a stack (n, b, b).

    Scaling and squaring with the degree-13 Padé approximant (Higham
    2005, "The scaling and squaring method for the matrix exponential
    revisited", SIAM J. Matrix Anal. Appl. 26:1179).  Each matrix is
    scaled by 2^-s, with s the least count that brings its own 1-norm
    to at most theta_13, and its approximant is squared s times.  The
    products are taken over the whole stack and the approximants'
    denominators are inverted in one stacked solve.  DomainError when
    an entry is not finite or the exponential overflows.
    """
    a = np.asarray(a)
    if a.ndim == 2:
        return expm(a[None])[0]
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix exponential of a non-finite matrix")
    with np.errstate(over="ignore"):                       # checked below
        norms = np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0)
    if not np.all(np.isfinite(norms)):
        raise DomainError("matrix exponential: the matrix norm overflows")
    with np.errstate(divide="ignore"):                     # log2(0) of a zero matrix
        s = np.ceil(np.log2(norms / _THETA13)).clip(min=0).astype(int)
    x = a * (0.5 ** s)[:, None, None]
    b = _PADE13
    ident = np.eye(a.shape[-1])
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
             + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * ident)
    v = (x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2)
         + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    with np.errstate(over="ignore", invalid="ignore"):     # checked below
        for k in range(int(s.max(initial=0))):
            squared = np.flatnonzero(s > k)
            r[squared] = r[squared] @ r[squared]
    if not np.all(np.isfinite(r)):
        raise DomainError("matrix exponential overflows")
    return r


def lindblad_superoperator(h: np.ndarray, collapse: Sequence[np.ndarray],
                           rates: np.ndarray | None = None,
                           index: np.ndarray | None = None) -> np.ndarray:
    """Generator of the master equation on row-major vectorized states.

    L = -i (H (x) 1 - 1 (x) H^T) + sum_k D[c_k], with
    D[c] = c (x) c* - (c^dagger c (x) 1 + 1 (x) (c^dagger c)^T) / 2,
    placed entry by entry instead of through kron.  Also takes a stack:
    h of shape (n, d, d) gives n generators, and rates (n, K) weights
    entry i's dissipator as sum_k rates[i, k] D[c_k], linear in the
    rates (weights 1 by default).  index, ascending positions of
    vectorized states, gives only the rows and columns of one block,
    L[index][:, index]; index of shape (m, b) gives m blocks of b
    positions at once, as generators of shape (n, m, b, b).
    """
    d = h.shape[-1]
    ket, bra = np.divmod(np.arange(d * d) if index is None else np.asarray(index), d)
    rk, ck, rb, cb = ket[..., :, None], ket[..., None, :], bra[..., :, None], bra[..., None, :]
    same_ket, same_bra = rk == ck, rb == cb
    gen = -1j * (h[..., rk, ck] * same_bra - same_ket * h[..., cb, rb])
    if len(collapse):
        # only the rows and columns of each c^dagger c that these positions need
        kets, ket_at = np.unique(ket, return_inverse=True)
        bras, bra_at = np.unique(bra, return_inverse=True)
        ket_at, bra_at = ket_at.reshape(ket.shape), bra_at.reshape(bra.shape)
        ka, kb = ket_at[..., :, None], ket_at[..., None, :]
        ba, bb = bra_at[..., None, :], bra_at[..., :, None]
        if rates is not None:
            # rates[k] of shape (n, 1, ..., 1), one axis per axis of a block stack
            rates = np.moveaxis(rates, -1, 0)[(...,) + (None,) * (ket.ndim + 1)]
        for k, c in enumerate(collapse):
            c_ket, c_bra = c[:, kets], c[:, bras]
            term = c[rk, ck] * c[rb, cb].conj() - 0.5 * (
                (c_ket.conj().T @ c_ket)[ka, kb] * same_bra
                + same_ket * (c_bra.conj().T @ c_bra)[ba, bb])
            # rates near the double range overflow here; expm rejects the result
            with np.errstate(over="ignore", invalid="ignore"):
                gen += term if rates is None else rates[k] * term
    return gen


def _block_exponentials(h: np.ndarray, collapse: Sequence[np.ndarray],
                        rates: np.ndarray | None, durations: np.ndarray,
                        blocks: Sequence[np.ndarray]) -> Iterator[tuple]:
    """exp(L_i t_i) of a stack of generators, by block size class.

    The blocks of one size b are built in one lindblad_superoperator
    call and exponentiated in one stacked expm.  Yields (index of shape
    (m, b), stack slice, exponentials of shape (n, m, b, b)); a class
    larger than _EXPM_STACK_ENTRIES matrix entries is cut into slices
    of the stack and, when one stack entry's class alone is larger,
    of the class's blocks, which bounds the memory.
    """
    by_size: dict[int, list[np.ndarray]] = {}
    for block in blocks:
        by_size.setdefault(len(block), []).append(block)
    for size, members in by_size.items():
        index = np.stack(members)
        # blocks, then stack entries, per slice
        width = min(len(index), max(1, _EXPM_STACK_ENTRIES // size ** 2))
        step = max(1, _EXPM_STACK_ENTRIES // (width * size ** 2))
        for first in range(0, len(index), width):
            part = index[first:first + width]
            for start in range(0, len(h), step):
                s = slice(start, start + step)
                gen = lindblad_superoperator(h[s], collapse,
                                             None if rates is None else rates[s], part)
                with np.errstate(over="ignore", invalid="ignore"):   # expm checks
                    gen *= durations[s, None, None, None]
                yield part, s, expm(gen.reshape(-1, size, size)).reshape(gen.shape)


class PulseArrays(NamedTuple):
    """The numbers of n pulse sequences of one shape, one row per segment.

    Segment k drives the transition targets[k] in every sequence; rabi
    and detuning (rad/s) and duration (s) have shape (segments, n), so
    zip(*arrays) walks the segments.
    """

    targets: tuple[tuple[str, tuple[str, str]], ...]
    rabi: np.ndarray
    detuning: np.ndarray
    duration: np.ndarray

    @classmethod
    def of(cls, sequence: PulseSequence) -> PulseArrays:
        """The arrays of one sequence (n = 1)."""
        specs = sequence.specs()

        def rows(value):
            return np.array([value(p) for p in specs], dtype=float).reshape(-1, 1)

        return cls(tuple(p.target for p in specs), rows(lambda p: p.rabi_frequency),
                   rows(lambda p: p.detuning), rows(lambda p: p.duration))


def sequence_unitary(system: LevelSystem, sequence: PulseSequence,
                     columns: Sequence[int] | None = None) -> np.ndarray:
    """Total unitary of an ordered pulse sequence (closed system), or the
    columns of it that columns names."""
    return stacked_unitaries(system, PulseArrays.of(sequence), columns=columns)[0]


def stacked_unitaries(system: LevelSystem, pulses: PulseArrays,
                      shifts: np.ndarray | None = None,
                      columns: Sequence[int] | None = None) -> np.ndarray:
    """Total unitaries of n pulse sequences given as arrays (closed system).

    Returns (n, d, m): column c of entry i is sequence i's unitary
    applied to basis state columns[c], every state by default (the
    whole unitary).  shifts (n, len(system.couplings)) gives each entry
    its own coupling shifts, as in segment_hamiltonians.  Each segment's
    closed-form exponential (_segment_rotation) is applied to the
    columns as a phase per state and a rotation per driven pair; no
    Hamiltonian or unitary matrix is built.  The columns are held as
    (d, m, n), the stack last, so that every step runs along the stack.
    """
    n, d = pulses.rabi.shape[1], system.dimension
    columns = np.arange(d) if columns is None else np.asarray(columns)
    out = None
    for target, rabi, detuning, duration in zip(*pulses):
        lower, upper = pairs = drive_pairs(system, target)
        alone = _unpaired(d, pairs)
        e = _segment_energies(system, target, detuning, shifts).T
        coupling = np.repeat(rabi[None, :] / 2.0 + 0j, len(lower), axis=0)
        rotation = _segment_rotation(e[alone], e[lower], e[upper], coupling, coupling, duration)
        out = (_unitary_columns(rotation, alone, pairs, columns) if out is None
               else _rotate_columns(rotation, alone, pairs, out))
        # -0 to +0, as a matrix product leaves zeros: the sign of a zero
        # imaginary part decides whether a phase reads pi or -pi
        out += 0.0
    if out is None:                               # no segments
        out = np.zeros((d, len(columns), n), dtype=complex)
        out[columns, np.arange(len(columns))] = 1.0
    return np.moveaxis(out, -1, 0)


def sequence_superoperator(system: LevelSystem, sequence: PulseSequence,
                           columns: Sequence[int]) -> np.ndarray:
    """Some columns of a pulse sequence's quantum channel as a superoperator matrix.

    The channel applied to the basis operators at the given row-major
    vectorized positions.
    """
    return stacked_superoperators(system, PulseArrays.of(sequence), columns)[0]


def stacked_superoperators(system: LevelSystem, pulses: PulseArrays, columns: Sequence[int],
                           shifts: np.ndarray | None = None,
                           dephasing: np.ndarray | None = None) -> np.ndarray:
    """Channels of n pulse sequences given as arrays, applied to some basis operators.

    Returns (n, d^2, m): column c of entry i is sequence i's channel
    applied to the basis operator at row-major vectorized position
    columns[c].  shifts (n, len(system.couplings)) and dephasing
    (n, len(system.qubits)) give each entry its own coupling shifts and
    dephasing rates.  Each segment's generator is exponentiated block by
    block (liouvillian_blocks), skipping the blocks that no column
    reaches, in one stacked expm and one stacked product per block size.
    """
    n, d2 = pulses.rabi.shape[1], system.dimension ** 2
    columns = np.asarray(columns)
    jumps, rates = jump_operators(system, dephasing)
    rates = np.broadcast_to(rates, (n, rates.shape[1]))
    out = np.zeros((n, d2, len(columns)), dtype=complex)
    out[:, columns, np.arange(len(columns))] = 1.0
    reached = np.zeros(d2, dtype=bool)
    reached[columns] = True
    for target, rabi, detuning, duration in zip(*pulses):
        h = segment_hamiltonians(system, target, rabi, detuning, shifts)
        blocks = [block for block in liouvillian_blocks(system, target, jumps)
                  if reached[block].any()]
        for index, s, e in _block_exponentials(h, jumps, rates, duration, blocks):
            out[s, index] = e @ out[s, index]
        for block in blocks:
            reached[block] = True
    return out


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

    Each segment is propagated exactly (the closed form of segment_unitary);
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
        step = segment_unitary(h, dt, drive_pairs(system, p.target))
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
    exact exponential of the Lindblad superoperator, taken block by
    block as in stacked_superoperators and applied in one stacked
    product per block size.  Trace is conserved and eigenvalues stay
    positive to solver accuracy.
    """
    rho = _check_density(rho0, system.dimension)
    collapse = collapse_operators(system)
    dim = system.dimension
    times, states = [0.0], [rho]
    t = 0.0
    for _, p in sequence:
        dt = p.duration / samples_per_segment
        step = [(index, e[0]) for index, _, e in _block_exponentials(
            build_hamiltonian(system, p)[None], collapse, None, np.array([dt]),
            liouvillian_blocks(system, p.target, collapse))]
        for _ in range(samples_per_segment):
            vec, out = rho.reshape(-1), np.empty(dim * dim, dtype=complex)
            for index, e in step:
                out[index] = (e @ vec[index][..., None])[..., 0]
            rho = out.reshape(dim, dim)
            t += dt
            times.append(t)
            states.append(rho)
    return Trajectory(np.array(times), states, system.basis_labels(), "density_operator")


def export_trajectory_csv(path, trajectory: Trajectory) -> None:
    """Write (time, populations, coherence magnitudes) rows for plotting.

    The states are stacked and read as (T, ...) arrays, and each row is
    written as the repr of its numbers, as csv.writer writes them.
    """
    labels = [":".join(lab) for lab in trajectory.labels]
    dim = len(labels)
    header = ["time_s"] + [f"pop_{lab}" for lab in labels]
    header += [f"coh_{labels[i]}_{labels[j]}" for i in range(dim) for j in range(i + 1, dim)]
    rho = np.array(trajectory.states)
    if trajectory.kind == "state_vector":
        rho = rho[:, :, None] * rho[:, None, :].conj()
    upper = np.triu_indices(dim, 1)
    table = np.column_stack([trajectory.times, rho[:, np.arange(dim), np.arange(dim)].real,
                             np.abs(rho[:, upper[0], upper[1]])])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.write("".join(",".join(map(repr, row)) + "\r\n" for row in table.tolist()))
