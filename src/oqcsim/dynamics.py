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
Hamiltonian or unitary matrix is built.  A closed trajectory applies
the same coefficients, taken at all of a segment's sample times at
once, to the segment's start state, so a basis input's trajectory ends
on its column of the gate report bit for bit.
Open-system segments are propagated through the exponential of the
Lindblad superoperator with radiative decay (1/tau per level) and pure
per-level dephasing at the homogeneous width.  The dissipator has one
form, the register's unit jump operators weighted by their rates
(collapse_operators), so a trajectory and the channel a gate report
scores share one generator and agree bit for bit.
Decay and dephasing keep each qubit's offset between ket and bra level
and only the driven transition changes it, so the dimension^2 x
dimension^2 superoperator splits into blocks it never couples
(liouvillian_blocks), and it is exponentiated block by block.  A
segment whose Hamiltonians, durations and blocks are bitwise equal to an
earlier segment's (a transition driven out and back, the two pi pulses
of the canonical blockade sequence) reuses its exponentials, so each
distinct segment is exponentiated once.  The blocks come in few sizes;
the blocks of one size, for every distinct segment of a sequence and
every sequence of a stack, are exponentiated in one call of the
package's own expm, the scaling-and-squaring Padé-13 method of Higham
(2005) taken on a whole stack of matrices at once; a sequence whose
exponential fails keeps its own fault (EXPM_FAULTS) and changes no
other's result.  One bound, _EXPM_STACK_ENTRIES, caps both the
exponentials a slice of the stack holds and the matrices an expm call
takes.  On the benchmark's
noisy_sweep (a four-pulse pair-center CNOT, 32 points and a trajectory)
that is 12 expm calls.

n sequences of one shape, differing only in Rabi frequencies,
detunings, durations, coupling shifts and dephasing rates, are
described by PulseArrays and propagated in one stack, one function per
kind: sequence_unitary closed, sequence_superoperator open.  One
sequence is the stack of one that PulseArrays.of gives.

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

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, ResourceLimitError, ValidationError
from .pulses import PulseSequence, PulseSpec

DIMENSION_CAP = 64

NORM_TOL = 1e-8
TRACE_TOL = 1e-8
POSITIVITY_TOL = 1e-8

# Most matrix entries a slice of the stack holds, and one stacked expm
# call takes (see _sequence_exponentials).
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
    """Register of qubits with static cross-qubit couplings.

    Joint basis states are in kron order, the first qubit varying
    slowest.  One integer table holds that order, row j giving qubit
    j's level number in each joint state, and every index set of the
    register is read from it.
    """

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
        self._levels = np.indices(dims).reshape(len(dims), self.dimension)
        self._level_indices: dict[tuple[str, str], np.ndarray] = {}
        self._liouvillian_blocks: dict[tuple, tuple[np.ndarray, ...]] = {}
        # where each coupling's shift lands on the diagonal
        self._coupling_indices = [self._matching_indices(cp.states) for cp in self.couplings]
        # the static detunings, part of every segment Hamiltonian's diagonal
        self._detuning_diag = np.zeros(self.dimension)
        for q, row in zip(self.qubits, self._levels):
            self._detuning_diag += np.array([q.detunings.get(lv, 0.0) for lv in q.levels])[row]

    def qubit(self, name: str) -> QubitLevels:
        try:
            return self._by_name[name]
        except KeyError:
            raise ValidationError(f"unknown qubit {name!r}") from None

    def basis_index(self, assignment: Mapping[str, str]) -> int:
        """Flat index of the joint basis state assigning a level to every qubit."""
        if set(assignment) != set(self._by_name):
            raise ValidationError("assignment must name every qubit exactly once")
        return int(np.ravel_multi_index([q.index(assignment[q.name]) for q in self.qubits],
                                        [len(q.levels) for q in self.qubits]))

    def basis_labels(self) -> list[tuple[str, ...]]:
        return [tuple(q.levels[k] for q, k in zip(self.qubits, state))
                for state in self._levels.T.tolist()]

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
            mask &= self._levels[self.qubits.index(q)] == q.index(lv)
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
    with np.errstate(over="ignore"):        # an overflowed energy stays non-finite
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


def collapse_operators(system: LevelSystem,
                       dephasing: np.ndarray | None = None) -> tuple[list[np.ndarray], np.ndarray]:
    """Lindblad jump operators of the register, unit, and their rates (1/s).

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


def liouvillian_blocks(system: LevelSystem,
                       target: tuple[str, tuple[str, str]]) -> tuple[np.ndarray, ...]:
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
    transitions are driven and where the register's collapse_operators
    have entries, never from the numbers, so a register gets the same
    blocks alone and in a stack.  Ascending index arrays, ordered by
    their first position.

    Cached per driven transition, in either direction, and read-only, so
    the segments of one register that drive the same transition compute
    the blocks once.
    """
    qubit, levels = target
    key = (qubit, tuple(sorted(levels)))
    if key not in system._liouvillian_blocks:
        system._liouvillian_blocks[key] = _connected_blocks(system, target)
    return system._liouvillian_blocks[key]


def _connected_blocks(system: LevelSystem,
                      target: tuple[str, tuple[str, str]]) -> tuple[np.ndarray, ...]:
    """The blocks of liouvillian_blocks, computed afresh."""
    d = system.dimension
    pos = np.arange(d * d).reshape(d, d)
    qubit, (lo, hi) = target
    upper, lower = system.level_indices(qubit, hi), system.level_indices(qubit, lo)
    # pairs of equal-shape position arrays
    joined = [(pos[upper], pos[lower]), (pos[:, upper], pos[:, lower])]
    for c in collapse_operators(system)[0]:
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


def _unpaired(dimension: int, pairs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The states in none of the pairs, ascending."""
    paired = np.zeros(dimension, dtype=bool)
    paired[pairs[0]] = paired[pairs[1]] = True
    return np.flatnonzero(~paired)


def _segment_rotation(e, ea, eb, coupling, t) -> tuple[np.ndarray, ...]:
    """exp(-i H t) of segments H as coefficients, element by element.

    e holds the diagonal entries of the unpaired states; ea, eb and
    coupling those of the pairs (a, b), H_aa, H_bb and H_ab = H_ba,
    their only off-diagonal entries (a drive's Omega/2); t the
    durations, which broadcast against both.  Returns the phase of each
    unpaired state and the blocks [[aa, off], [off, bb]] of the pairs.

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
    size = np.abs(coupling)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # halved first, so that energies near the double range do not overflow
        mean, half = ea / 2 + eb / 2, ea / 2 - eb / 2
        w = np.hypot(half, size)
        negative = np.signbit(mean)
        # half the large eigenvalue, which the sum m +- w itself could overflow
        hl = np.where(negative, mean / 2 - w / 2, mean / 2 + w / 2)
        # |hl| >= |ea|/2, |eb|/2, size/2, so neither ratio overflows
        small = np.where(hl != 0, (ea / 2) * (eb / hl) - (size / 2) * (size / hl), 0.0)
        large_phase, small_phase = 2 * (hl * t), small * t
        p_plus = np.exp(-1j * np.where(negative, small_phase, large_phase))
        p_minus = np.exp(-1j * np.where(negative, large_phase, small_phase))
        cos = (p_plus + p_minus) / 2            # exp(-i m t) cos(w t)
        # -i exp(-i m t) sin(w t) / w, times K the rest of the rotation; below the
        # smallest normal w, whose reciprocal overflows, it is dropped: sin(w t) K / w
        # is then at most t w, since K's entries are at most w
        sin = np.where(w >= np.finfo(float).tiny, (p_plus - p_minus) / 2 / w, 0.0)
        return np.exp(-1j * (e * t)), cos + sin * half, cos - sin * half, sin * coupling


def _rotate_columns(rotation: tuple[np.ndarray, ...], alone: np.ndarray,
                    pairs: tuple[np.ndarray, np.ndarray], columns: np.ndarray) -> np.ndarray:
    """n segment unitaries given by their coefficients (_segment_rotation,
    each of shape (states, n)) applied to columns (d, m, n)."""
    phase, aa, bb, off = (x[:, None] for x in rotation)
    lower, upper = pairs
    a, b = columns[lower], columns[upper]
    out = np.empty_like(columns)
    out[alone] = phase * columns[alone]
    out[lower] = aa * a + off * b
    out[upper] = off * a + bb * b
    return out


# Coefficients b_0 .. b_13 of the degree-13 Padé approximant to exp, and
# the largest 1-norm at which it is accurate to double precision
# (Higham 2005, table 2.3).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


# What expm reports of a stack entry: 0 is no fault, and each other index
# names the first check one of the entry's matrices fails, in this order.
EXPM_FAULTS = ("", "matrix exponential of a non-finite matrix",
               "matrix exponential: the matrix norm overflows",
               "matrix exponential overflows")


def expm(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Matrix exponentials of a stack (n, ..., b, b), and each entry's fault.

    Scaling and squaring with the degree-13 Padé approximant (Higham
    2005, "The scaling and squaring method for the matrix exponential
    revisited", SIAM J. Matrix Anal. Appl. 26:1179).  Each matrix is
    scaled by 2^-s, with s the least count that brings its own 1-norm
    to at most theta_13, and its approximant is squared s times, or
    until a square overflows.  The products are taken over the whole
    stack and the approximants' denominators are inverted in one stacked
    solve.

    Entry i is a[i], one matrix or more, and fault[i] indexes
    EXPM_FAULTS: one of its matrices is not finite (1), else the 1-norm
    of one overflows (2), else the exponential of one overflows (3), else
    0.  A faulted entry's exponentials are zero, and change no other's.
    """
    a = np.asarray(a)
    fault = np.zeros(len(a), dtype=int)
    matrices = tuple(range(1, a.ndim - 2))                 # an entry's axes of matrices
    with np.errstate(over="ignore"):                       # checked below
        norms = np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0)
    # a finite 1-norm is a sum of finite numbers
    bad = ~np.isfinite(norms).all(axis=matrices)
    if bad.any():
        fault[bad] = np.where(np.isfinite(a[bad]).all(axis=(*matrices, -2, -1)), 2, 1)
        a, norms = a.copy(), norms.copy()
        a[bad], norms[bad] = 0.0, 0.0
    with np.errstate(divide="ignore"):                     # log2(0) of a zero matrix
        s = np.ceil(np.log2(norms / _THETA13)).clip(min=0).astype(int)
    x = a * (0.5 ** s)[..., None, None]
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
        while (squared := np.nonzero(s > 0))[0].size:
            r[squared] = square = r[squared] @ r[squared]
            # s counts the squarings left; an overflowed matrix stays non-finite
            s[squared] = np.where(np.isfinite(square).all(axis=(-2, -1)), s[squared] - 1, 0)
    fault[~np.isfinite(r).all(axis=(*matrices, -2, -1))] = 3
    r[fault > 0] = 0.0
    return r, fault


def lindblad_superoperator(h: np.ndarray, collapse: Sequence[np.ndarray], rates: np.ndarray,
                           index: np.ndarray | None = None) -> np.ndarray:
    """Generator of the master equation on row-major vectorized states.

    L = -i (H (x) 1 - 1 (x) H^T) + sum_k rates[k] D[c_k], with
    D[c] = c (x) c* - (c^dagger c (x) 1 + 1 (x) (c^dagger c)^T) / 2,
    placed entry by entry instead of through kron; collapse and rates
    are as collapse_operators gives them, rates of shape (K,) for one h.
    Also takes a stack: h of shape (n, d, d) gives n generators, and
    rates (n, K) weights entry i's dissipator as sum_k rates[i, k] D[c_k],
    linear in the rates.  index, ascending positions of vectorized
    states, gives only the rows and columns of one block,
    L[index][:, index]; index of shape (m, b) gives m blocks of b
    positions at once, as generators of shape (n, m, b, b).
    """
    d = h.shape[-1]
    ket, bra = np.divmod(np.arange(d * d) if index is None else np.asarray(index), d)
    rk, ck, rb, cb = ket[..., :, None], ket[..., None, :], bra[..., :, None], bra[..., None, :]
    same_ket, same_bra = rk == ck, rb == cb
    gen = -1j * (h[..., rk, ck] * same_bra - same_ket * h[..., cb, rb])
    # only the rows and columns of each c^dagger c that these positions need
    kets, ket_at = np.unique(ket, return_inverse=True)
    bras, bra_at = np.unique(bra, return_inverse=True)
    ket_at, bra_at = ket_at.reshape(ket.shape), bra_at.reshape(bra.shape)
    ka, kb = ket_at[..., :, None], ket_at[..., None, :]
    ba, bb = bra_at[..., None, :], bra_at[..., :, None]
    # rates[k] of shape (n, 1, ..., 1), one axis per axis of a block stack
    rates = np.moveaxis(rates, -1, 0)[(...,) + (None,) * (ket.ndim + 1)]
    for k, c in enumerate(collapse):
        c_ket, c_bra = c[:, kets], c[:, bras]
        term = c[rk, ck] * c[rb, cb].conj() - 0.5 * (
            (c_ket.conj().T @ c_ket)[ka, kb] * same_bra
            + same_ket * (c_bra.conj().T @ c_bra)[ba, bb])
        # rates near the double range overflow here; expm rejects the result
        with np.errstate(over="ignore", invalid="ignore"):
            gen += rates[k] * term
    return gen


def _sequence_exponentials(segments: Sequence[tuple[np.ndarray, np.ndarray, tuple]],
                           collapse: Sequence[np.ndarray], rates: np.ndarray,
                           needs: Sequence[Sequence[int]]
                           ) -> Iterator[tuple[slice, np.ndarray,
                                               list[tuple[np.ndarray, np.ndarray]]]]:
    """The block exponentials of a sequence of segments, each distinct segment once.

    segments[k] = (h, durations, blocks): segment k's Hamiltonians
    (n, d, d), durations (n,) and liouvillian_blocks; collapse and rates
    (n, K) the stack's collapse_operators; needs[k] the ascending
    positions in blocks of the blocks segment k is applied to.  A segment
    bitwise equal to an earlier one (the same transition driven out and
    back, say) takes that one's exponentials.  Each distinct segment's
    blocks that any of its repeats needs are rows (segment, block) of
    their size class.

    Yields (stack slice, faults, pieces) for each slice of the stack and,
    within it, each segment in order; pieces holds one (index of shape
    (m, b), exponentials of shape (slice entries, m, b, b)) per block
    size, valid until the next slice, and faults (slice entries,) each
    entry's first expm fault (EXPM_FAULTS), after which its generators
    are zeroed.  One bound holds the memory: a slice holds at most
    _EXPM_STACK_ENTRIES exponential entries (or one stack entry's), and
    one stacked expm takes a class's rows in slices of as many entries
    (or one row).
    """
    if not segments:
        return
    n = len(segments[0][1])
    source: list[int] = []                      # the first segment equal to each
    for k, (h, durations, blocks) in enumerate(segments):
        source.append(next((u for u in dict.fromkeys(source) if segments[u][2] is blocks
                            and segments[u][1].tobytes() == durations.tobytes()
                            and segments[u][0].tobytes() == h.tobytes()), k))
    # each size class's rows: their blocks' positions, and spans (segment, first, end)
    positions: dict[int, list[np.ndarray]] = {}
    spans: dict[int, list[tuple[int, int, int]]] = {}
    sizes, rows = {}, {}              # per distinct segment: each block's size and class row
    for u in dict.fromkeys(source):
        own = segments[u][2]
        sizes[u], rows[u] = np.fromiter(map(len, own), int, len(own)), np.zeros(len(own), int)
        needed = np.zeros(len(own), dtype=bool)
        needed[[j for k, v in enumerate(source) if v == u for j in needs[k]]] = True
        js = np.flatnonzero(needed)
        for b in np.flatnonzero(np.bincount(sizes[u][js])).tolist():
            picked = js[sizes[u][js] == b]
            first = len(positions.setdefault(b, []))
            rows[u][picked] = first + np.arange(len(picked))
            positions[b] += [own[j] for j in picked]
            spans.setdefault(b, []).append((u, first, first + len(picked)))
    plans = []                        # per segment: (size, its rows in the class)
    for k, u in enumerate(source):
        js, plan = np.asarray(needs[k], dtype=int), []
        for b in np.flatnonzero(np.bincount(sizes[u][js])).tolist():
            at = rows[u][js[sizes[u][js] == b]]
            # consecutive rows as a slice, which indexes without a copy
            plan.append((b, slice(at[0], at[-1] + 1) if at[-1] - at[0] == len(at) - 1 else at))
        plans.append(plan)
    classes = {b: np.stack(p) for b, p in positions.items()}
    del positions, sizes, rows, js    # the classes and plans are all the loop holds
    entries = sum(index.size * index.shape[1] for index in classes.values())
    step = max(1, _EXPM_STACK_ENTRIES // max(1, entries))
    held: dict[int, np.ndarray] = {}
    for start in range(0, n, step):
        s, m = slice(start, start + step), min(step, n - start)
        faults = np.zeros(m, dtype=int)
        for b, index in classes.items():
            width = min(len(index), max(1, _EXPM_STACK_ENTRIES // (b * b)))
            if width < len(index) and b not in held:
                # a class of several expm calls gathers them in one array, reused by the slices
                held[b] = np.empty((min(step, n), len(index), b, b), dtype=complex)
            for first in range(0, len(index), width):
                end = min(first + width, len(index))
                gens = []
                for u, lo, hi in spans[b]:
                    if lo < end and hi > first:
                        h, durations, _ = segments[u]
                        gen = lindblad_superoperator(h[s], collapse, rates[s],
                                                     index[max(lo, first):min(hi, end)])
                        with np.errstate(over="ignore", invalid="ignore"):   # expm checks
                            gen *= durations[s, None, None, None]
                        gens.append(gen)
                gen = gens[0] if len(gens) == 1 else np.concatenate(gens, axis=1)
                gen[faults > 0] = 0.0
                e, fault = expm(gen)
                faults += fault                   # 0 for the entries zeroed above
                if width < len(index):
                    held[b][:m, first:end] = e
                else:
                    held[b] = e
        for plan in plans:
            yield s, faults, [(classes[b][at], held[b][:m, at]) for b, at in plan]


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


def sequence_unitary(system: LevelSystem, pulses: PulseArrays,
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
    out = np.zeros((d, len(columns), n), dtype=complex)
    out[columns, np.arange(len(columns))] = 1.0
    for target, rabi, detuning, duration in zip(*pulses):
        lower, upper = pairs = drive_pairs(system, target)
        alone = _unpaired(d, pairs)
        e = _segment_energies(system, target, detuning, shifts).T
        rotation = _segment_rotation(e[alone], e[lower], e[upper], rabi / 2.0 + 0j, duration)
        out = _rotate_columns(rotation, alone, pairs, out)
        # -0 to +0, as a matrix product leaves zeros: the sign of a zero
        # imaginary part decides whether a phase reads pi or -pi
        out += 0.0
    return np.moveaxis(out, -1, 0)


def sequence_superoperator(system: LevelSystem, pulses: PulseArrays, columns: Sequence[int],
                           shifts: np.ndarray | None = None,
                           dephasing: np.ndarray | None = None
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Channels of n pulse sequences given as arrays, applied to some basis operators.

    Returns (n, d^2, m): column c of entry i is sequence i's channel
    applied to the basis operator at row-major vectorized position
    columns[c]; and each entry's fault (n,), the index into EXPM_FAULTS
    of its first expm fault, or 0 (a faulted entry's channel means
    nothing; nothing is raised, the caller reports the fault).  shifts
    (n, len(system.couplings)) and dephasing (n, len(system.qubits))
    give each entry its own coupling shifts and dephasing rates.  Each
    segment's generator is exponentiated block by block
    (liouvillian_blocks), skipping the blocks that no column reaches, in
    one stacked expm and one stacked product per block size.
    """
    n, d2 = pulses.rabi.shape[1], system.dimension ** 2
    columns = np.asarray(columns)
    collapse, rates = collapse_operators(system, dephasing)
    rates = np.broadcast_to(rates, (n, rates.shape[1]))
    out = np.zeros((n, d2, len(columns)), dtype=complex)
    out[:, columns, np.arange(len(columns))] = 1.0
    reached = np.zeros(d2, dtype=bool)
    reached[columns] = True
    segments, needs = [], []
    for target, rabi, detuning, duration in zip(*pulses):
        blocks = liouvillian_blocks(system, target)
        need = [j for j, block in enumerate(blocks) if reached[block].any()]
        for j in need:
            reached[blocks[j]] = True
        segments.append((segment_hamiltonians(system, target, rabi, detuning, shifts),
                         duration, blocks))
        needs.append(need)
    faults = np.zeros(n, dtype=int)
    for s, fault, pieces in _sequence_exponentials(segments, collapse, rates, needs):
        faults[s] = fault
        for index, e in pieces:
            out[s, index] = e @ out[s, index]
    return out, faults


@dataclass
class Trajectory:
    """States recorded at segment boundaries (and optional interior samples)."""

    times: np.ndarray
    states: np.ndarray             # (T, d) state vectors or (T, d, d) density operators
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


def _sample_times(sequence: PulseSequence, samples_per_segment: int) -> np.ndarray:
    """0 and the time after each sample, summed one sample step at a time."""
    steps = [p.duration / samples_per_segment for _, p in sequence]
    return np.cumsum(np.concatenate([[0.0], np.repeat(steps, samples_per_segment)]))


def propagate_unitary(system: LevelSystem, sequence: PulseSequence, psi0,
                      samples_per_segment: int = 1) -> Trajectory:
    """Closed-system evolution of a state vector through a pulse sequence.

    Each segment takes the gate report's closed form (_segment_rotation)
    from its start state to all its sample times at once: k dt for
    k < samples_per_segment, and its end at exactly its duration, so a
    basis input ends on its column of sequence_unitary bit for bit.  The
    states are those at every segment boundary and interior sample; the
    norm is conserved to floating-point accuracy.
    """
    d, n = system.dimension, samples_per_segment
    psi = _check_state_vector(psi0, d)
    states = [psi[None]]
    for _, p in sequence:
        h = build_hamiltonian(system, p)
        lower, upper = pairs = drive_pairs(system, p.target)
        alone = _unpaired(d, pairs)
        e = h.diagonal().real[:, None]
        t = np.append(np.arange(1, n) * (p.duration / n), p.duration)
        rotation = _segment_rotation(e[alone], e[lower], e[upper], h[upper, lower][:, None], t)
        start = np.repeat(states[-1][-1][:, None, None], n, axis=2)
        states.append(_rotate_columns(rotation, alone, pairs, start)[:, 0].T)
    return Trajectory(_sample_times(sequence, n), np.concatenate(states),
                      system.basis_labels(), "state_vector")


def propagate_lindblad(system: LevelSystem, sequence: PulseSequence, rho0,
                       samples_per_segment: int = 1) -> Trajectory:
    """Open-system evolution of a density operator through a pulse sequence.

    Decay channels (per-level lifetimes) and pure dephasing (homogeneous
    width) enter through the standard dissipator; each segment is the
    exact exponential of the Lindblad superoperator, taken block by
    block as in sequence_superoperator (a repeated segment's once) and
    applied in one stacked product per block size.  Trace is conserved
    and eigenvalues stay positive to solver accuracy.  DomainError with
    the text of an expm fault (EXPM_FAULTS) when a segment has one.
    """
    dim, n = system.dimension, samples_per_segment
    rho = _check_density(rho0, dim)
    collapse, rates = collapse_operators(system)
    segments = [(build_hamiltonian(system, p)[None], np.array([p.duration / n]),
                 liouvillian_blocks(system, p.target)) for _, p in sequence]
    needs = [range(len(blocks)) for _, _, blocks in segments]
    states = np.empty((1 + len(segments) * n, dim, dim), dtype=complex)
    states[0] = rho
    vecs = states.reshape(len(states), -1)
    exponentials = _sequence_exponentials(segments, collapse, rates, needs)
    for j, (_, fault, pieces) in enumerate(exponentials):
        if fault[0]:
            raise DomainError(EXPM_FAULTS[fault[0]])
        step = [(index, e[0]) for index, e in pieces]
        for k in range(j * n, (j + 1) * n):
            for index, e in step:
                vecs[k + 1, index] = (e @ vecs[k, index][..., None])[..., 0]
    return Trajectory(_sample_times(sequence, n), states, system.basis_labels(),
                      "density_operator")

