"""Two-qubit gate protocols: construction, execution and scoring.

A GateScenario holds two role-labeled qubits (levels |0>, |1>, the
strongly interacting auxiliary |1'>, optionally a reservoir |g>), the
conditional shift delta_shift applied to the joint auxiliary state
|1'>|1'>, the drive strength, and noise switches.  The reference
protocol is the canonical blockade sequence

    pi on control |1> -> |1'>,  2pi on target |1> -> |1'>,  pi back,

whose controlled-phase core composes to CNOT with single-qubit framing.
Arbitrary numbered sequences are accepted as well.

Scoring conventions: the truth table collects output populations for
the four computational inputs; the average gate fidelity is the
standard two-qubit formula on the computational subspace, evaluated
against the target gate dressed with the single-qubit phases the
protocol actually produced (virtual-Z framing).  The controlled phase
arg(U11) + arg(U00) - arg(U01) - arg(U10) is reported so entangling
power can be checked directly; population left outside the
computational subspace is reported as leakage, never renormalized away.

A sweep scores one base scenario over the cartesian product of a grid
of the numbers SWEEPABLE names, in config units: each point is the base
with those numbers replaced, and check_grid holds the rules a grid must
meet.  Every point of a sweep takes one path: its numbers are checked
as arrays against _NUMBER_FAULTS, the table the constructor checks, and
the points that pass are propagated in one stack on the base's register
and sequence, where each keeps its own expm fault (dynamics.EXPM_FAULTS).
A point that fails gets the message its scenario run alone would raise,
and costs no other point anything; a scenario run alone is itself
scored as a stack of one.  The results are columns (SweepTable), and no
point is ever a dict.

Angular units: delta_shift and the Rabi frequency are rad/s (multiply
shifts from the interactions module, which are in Hz, by 2 pi).
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .dynamics import (EXPM_FAULTS, LevelSystem, PulseArrays, QubitLevels, ShiftCoupling,
                       sequence_superoperator, sequence_unitary)
from .errors import DomainError, ParseError, ResourceLimitError, ValidationError
from .interactions import BlockadeModel, DEFAULT_MODEL, dipole_shift
from .paircenter import PairParams, pair_eigensystem_exact, pair_eigensystem_perturbative
from .pulses import PI_AREA, PULSE_NOT_FINITE, TWO_PI_AREA, PulseSequence, PulseSpec

REQUIRED_ROLES = ("0", "1", "1p")

COMPUTATIONAL = (("0", "0"), ("0", "1"), ("1", "0"), ("1", "1"))

_PHASE_FLOOR = 1e-12   # diagonal amplitude below which phases are meaningless

# A sweep chunk is the points propagated in one stack and scored in one
# score call, and the unit of work of a sweep worker; serial and pooled
# sweeps cut the grid alike (chunk_points).  Each chunk pays a fixed
# set-up (the pulse arrays, index sets and gathers of its propagation and
# scoring), so a chunk holds up to _CHUNK_ENTRIES stacked propagator
# entries, and never fewer than _CHUNK_MIN points, which at the
# dimension cap is no more than a chunk held when chunks were a fixed 64
# points.  More entries gain nothing and hold more memory: in-process on
# a 2-vCPU VM, the 4000-point closed canonical sweep (9 states) took a
# median 0.175 s in chunks of 64 points, 0.134 s in chunks of 809 (this
# rule) and 0.143 s in chunks of 4096.
_CHUNK_ENTRIES = 1 << 16
_CHUNK_MIN = 64

# The numbers a scenario may have: (failure test, message) in the order
# they are checked, so the first test a scenario fails gives its error.
# The tests take the Rabi frequency, shift and gamma_h as numbers or as
# (n,) arrays of a sweep's points; a comparison with NaN is false, so NaN
# fails only the finiteness test.  GateScenario checks all but the last,
# which its canonical sequence's pulses fail when building (PulseSpec):
# their durations, pulse_area / rabi, are finite when 2 pi / rabi is.
_NUMBER_FAULTS = (
    (lambda rabi, shift, gamma_h: rabi <= 0, "Rabi frequency must be > 0"),
    (lambda rabi, shift, gamma_h: gamma_h < 0, "gamma_h must be >= 0"),
    (lambda rabi, shift, gamma_h: ~(np.isfinite(rabi) & np.isfinite(shift)
                                    & np.isfinite(gamma_h)),
     "Rabi frequency, shift and gamma_h must be finite"),
    (lambda rabi, shift, gamma_h: ~np.isfinite(TWO_PI_AREA / rabi), PULSE_NOT_FINITE),
)


@dataclass(frozen=True)
class NoiseFlags:
    lifetimes: bool = False
    dephasing: bool = False

    @property
    def any(self) -> bool:
        return self.lifetimes or self.dephasing


@dataclass(frozen=True)
class QubitScheme:
    """Role-labeled level scheme of one logical qubit.

    level_order lists the roles present, first entry = the scheme's
    ground level (default decay destination).  Lifetimes (s) are only
    applied when the scenario's lifetime noise switch is on.
    """

    name: str
    level_order: tuple[str, ...] = ("1p", "0", "1")
    detunings: Mapping[str, float] = field(default_factory=dict)
    lifetimes: Mapping[str, float] = field(default_factory=dict)
    decay_to: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        missing = [r for r in REQUIRED_ROLES if r not in self.level_order]
        if missing:
            raise ValidationError(f"qubit {self.name!r} is missing role levels {missing}")
        for mapping in (self.detunings, self.lifetimes, self.decay_to):
            for lv in mapping:
                if lv not in self.level_order:
                    raise ValidationError(f"qubit {self.name!r} has no level {lv!r}")
        for tau in self.lifetimes.values():
            if tau <= 0:
                raise ValidationError("lifetimes must be > 0")


@dataclass(frozen=True)
class GateScenario:
    """Everything needed to execute and score one two-qubit protocol."""

    control: QubitScheme
    target: QubitScheme
    rabi: float                          # rad/s
    delta_shift: float = 0.0             # rad/s on |1'>|1'>
    gamma_h: float = 0.0                 # 1/s, used when noise.dephasing
    noise: NoiseFlags = NoiseFlags()
    sequence: PulseSequence | None = None
    gate_target: str = "cz"              # "cz" | "identity"

    def __post_init__(self):
        if self.control.name == self.target.name:
            raise ValidationError("control and target need distinct names")
        if self.gate_target not in ("cz", "identity"):
            raise ValidationError(f"unknown gate target {self.gate_target!r}")
        for fails, message in _NUMBER_FAULTS[:-1]:
            if fails(self.rabi, self.delta_shift, self.gamma_h):
                raise ValidationError(message)

    def qubit_levels(self) -> dict[str, tuple[str, ...]]:
        return {self.control.name: self.control.level_order,
                self.target.name: self.target.level_order}

    @cached_property
    def protocol(self) -> tuple[LevelSystem, PulseSequence]:
        """The scenario's register and pulse sequence, the sequence's targets
        checked: built on first use, then kept on this object and pickled
        with it.  A copy (dataclasses.replace) builds its own."""
        system = scenario_system(self)
        sequence = protocol_sequence(self)
        sequence.validate_targets(self.qubit_levels())
        return system, sequence


def _dephasing(noise: NoiseFlags, gamma_h):
    """Dephasing rate (1/s) of both qubits of a register with these noise
    switches: gamma_h, a number or the (n,) array of a sweep's points,
    when dephasing is on, else zero."""
    if noise.dephasing:
        return gamma_h
    return np.zeros(len(gamma_h)) if isinstance(gamma_h, np.ndarray) else 0.0


def scenario_system(scenario: GateScenario) -> LevelSystem:
    """Materialize the scenario as a dynamics register."""
    qubits = []
    for qs in (scenario.control, scenario.target):
        decay = ({lv: 1.0 / tau for lv, tau in qs.lifetimes.items()}
                 if scenario.noise.lifetimes else {})
        qubits.append(QubitLevels(
            name=qs.name,
            levels=qs.level_order,
            detunings=dict(qs.detunings),
            decay_rates=decay,
            decay_to=dict(qs.decay_to),
            dephasing=_dephasing(scenario.noise, scenario.gamma_h),
        ))
    shift = ShiftCoupling({scenario.control.name: "1p", scenario.target.name: "1p"},
                          scenario.delta_shift)
    return LevelSystem(qubits, [shift])


def protocol_sequence(scenario: GateScenario) -> PulseSequence:
    """The scenario's own sequence, else the canonical blockade sequence."""
    if scenario.sequence is not None:
        return scenario.sequence
    return canonical_blockade_sequence(scenario)


def canonical_blockade_sequence(scenario: GateScenario) -> PulseSequence:
    """The three-segment blockade controlled-phase sequence.

    pi on the control qubit's |1> -> |1'>, 2pi on the target's, pi back,
    each undetuned at the scenario's Rabi frequency.  With the |1'>|1'>
    shift large against the drive the 2pi pulse is blocked whenever the
    control sits in |1'>, leaving the controlled phase that makes the
    core entangling.
    """
    def pulse(qubit, area):
        return PulseSpec(target=(qubit, ("1", "1p")), pulse_area=area,
                         rabi_frequency=scenario.rabi)

    return PulseSequence((
        (1, pulse(scenario.control.name, PI_AREA)),
        (2, pulse(scenario.target.name, TWO_PI_AREA)),
        (3, pulse(scenario.control.name, PI_AREA)),
    ))


@dataclass(frozen=True)
class GateReport:
    """Truth table, fidelities and diagnostics of one protocol run."""

    truth_table: tuple[tuple[float, ...], ...]   # [input][output], computational order
    truth_table_fidelity: float
    average_fidelity: float
    leakage: float
    cz_phase: float                              # rad, wrapped to (-pi, pi]
    local_phases: tuple[float, float]            # extracted phi_01, phi_10
    noisy: bool
    gate_target: str

    def to_dict(self) -> dict:
        return {
            "truth_table": [list(row) for row in self.truth_table],
            "truth_table_fidelity": self.truth_table_fidelity,
            "average_fidelity": self.average_fidelity,
            "leakage": self.leakage,
            "cz_phase_rad": self.cz_phase,
            "local_phases_rad": list(self.local_phases),
            "noisy": self.noisy,
            "gate_target": self.gate_target,
        }


class Scores(NamedTuple):
    """Scores of n protocol runs, as arrays over the runs.

    truth has shape (n, 4, 4), [run][input][output] in computational
    order; local_phases (n, 2) holds phi_01 and phi_10; the other
    fields have shape (n,).  finite marks the runs whose numbers are
    all finite, the only ones a GateReport is made of.
    """

    truth: np.ndarray
    truth_fidelity: np.ndarray
    average_fidelity: np.ndarray
    leakage: np.ndarray
    cz_phase: np.ndarray
    local_phases: np.ndarray
    finite: np.ndarray

    def tolist(self) -> Scores:
        """The same scores with each field a nested list, as run_protocol
        reads them row by row: one tolist per field for all the runs."""
        return Scores(*(field.tolist() for field in self))


def _closed_reading(columns: np.ndarray, comp: np.ndarray) -> tuple[np.ndarray, ...]:
    """Populations, diagonal coherences, phase amplitudes and finiteness of unitaries.

    columns (n, d, 4): the unitaries' columns of the computational
    states, whose basis indices are comp (as sequence_unitary returns
    them with columns=comp).  With m the computational block, the
    coherence C[j, k] of |j><k| is m_jj conj(m_kk), and the phases are
    read from m's diagonal.
    """
    m = columns[:, comp]                                  # [output][input]
    amplitudes = m.diagonal(axis1=1, axis2=2)
    with np.errstate(over="ignore", invalid="ignore"):
        coherences = amplitudes[:, :, None] * amplitudes[:, None, :].conj()
        finite = np.isfinite(m).all(axis=(1, 2))
        return np.abs(m.transpose(0, 2, 1)) ** 2, coherences, amplitudes, finite


def _channel_reading(columns: np.ndarray, comp: np.ndarray,
                     dim: int) -> tuple[np.ndarray, ...]:
    """Populations, diagonal coherences, phase amplitudes and finiteness of channels.

    columns (n, d^2, 16): column 4 j + k is the channel's image E_jk of
    |comp_j><comp_k| (as sequence_superoperator returns them).  The
    coherence C[j, k] is E_jk[comp_j, comp_k], and the phases are read
    from the coherences C[k, 0] against the |00> reference column.  A
    run is finite when the computational blocks of all sixteen images are.
    """
    blocks = columns[:, _columns(comp, dim)[:, None], np.arange(16)]    # [position][image]
    coherences = blocks[:, np.arange(16), np.arange(16)].reshape(-1, 4, 4)
    # populations of |comp_j><comp_j| in the images of the diagonal inputs k
    truth = blocks[:, 5 * np.arange(4), 5 * np.arange(4)[:, None]].real
    return truth, coherences, coherences[:, :, 0], np.isfinite(blocks).all(axis=(1, 2))


def score(truth: np.ndarray, coherences: np.ndarray, amplitudes: np.ndarray,
          finite: np.ndarray, gate_target: str) -> Scores:
    """Score n runs from what their propagators give on the computational subspace.

    truth (n, 4, 4): populations, [input][output]; coherences (n, 4, 4):
    C[j, k], the <j|.|k> entry of the image of |j><k|; amplitudes (n, 4):
    the numbers whose phases against the first give the framing phases
    (all zero when one of them is below _PHASE_FLOOR); finite (n,): the
    propagator entries read are finite.  The target gate is dressed with
    phi_01, phi_10 and phi_01 + phi_10 (virtual-Z framing), and its
    process fidelity is Re sum_jk conj(t_j) t_k C[j, k] / 16.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        phases = np.angle(amplitudes[:, 1:] / amplitudes[:, :1])
        phases[(np.abs(amplitudes) < _PHASE_FLOOR).any(axis=1)] = 0.0
        phi01, phi10, phi11 = phases.T
        cz = (phi11 - phi01 - phi10 + math.pi) % (2.0 * math.pi) - math.pi
        t = np.exp(1j * np.stack([np.zeros_like(phi01), phi01, phi10, phi01 + phi10], axis=1))
        if gate_target == "cz":
            t[:, 3] *= -1.0
        f_pro = (t.conj()[:, :, None] * coherences * t[:, None, :]).real.sum(axis=(1, 2)) / 16.0
        # row totals in input order; populations are >= 0 or NaN
        totals = truth[:, :, 0] + truth[:, :, 1] + truth[:, :, 2] + truth[:, :, 3]
        finite = (finite & np.isfinite(totals).all(axis=1)
                  & np.isfinite(np.stack([f_pro, phi01, phi10, cz])).all(axis=0))
        return Scores(
            truth=truth,
            truth_fidelity=(truth[:, 0, 0] + truth[:, 1, 1] + truth[:, 2, 2]
                            + truth[:, 3, 3]) / 4.0,
            average_fidelity=np.clip((4.0 * f_pro + 1.0) / 5.0, 0.0, 1.0),
            leakage=1.0 - totals.min(axis=1),
            cz_phase=cz,
            local_phases=np.stack([phi01, phi10], axis=1),
            finite=finite,
        )


def _computational(scenario: GateScenario, system: LevelSystem) -> np.ndarray:
    """Basis indices of the four computational states."""
    names = (scenario.control.name, scenario.target.name)
    return np.array([system.basis_index(dict(zip(names, s))) for s in COMPUTATIONAL])


def _columns(comp: np.ndarray, dim: int) -> np.ndarray:
    """Vectorized positions of the sixteen operators |j><k| between the
    computational states (j-major)."""
    return (dim * comp[:, None] + comp).ravel()


def run_protocol(scenario: GateScenario, scores: Scores | None = None,
                 row: int = 0) -> GateReport:
    """Execute a scenario over all four computational inputs and score it.

    A scenario alone is the n = 1 case of a sweep's scorer
    (_stacked_scores), at its own Rabi frequency, shift and gamma_h; an
    expm fault raises DomainError with its text (EXPM_FAULTS).  scores,
    when given, are computed already, as lists (Scores.tolist), and row
    is the position in them of a point of a sweep of scenario
    (sweep_chunk), which differs from scenario only in swept numbers the
    report does not carry.  Either way the call checks that the row is
    finite and builds the report; a sweep writes the DomainError of a
    row that is not finite as the point's error.
    """
    if scores is None:
        numbers = [np.array([x], dtype=float)
                   for x in (scenario.rabi, scenario.delta_shift, scenario.gamma_h)]
        scores, faults = _stacked_scores(scenario, *numbers)
        if faults[0]:
            raise DomainError(EXPM_FAULTS[faults[0]])
        scores = scores.tolist()
    if not scores.finite[row]:
        raise DomainError("protocol result is not finite; the pulse durations and "
                          "shifts are too far apart for double precision")
    return GateReport(
        truth_table=tuple(map(tuple, scores.truth[row])),
        truth_table_fidelity=scores.truth_fidelity[row],
        average_fidelity=scores.average_fidelity[row],
        leakage=scores.leakage[row],
        cz_phase=scores.cz_phase[row],
        local_phases=tuple(scores.local_phases[row]),
        noisy=scenario.noise.any,
        gate_target=scenario.gate_target,
    )


# delta_over_omega and delta_shift_rad_s both set the shift, the first in
# units of the point's Rabi frequency.
SWEEPABLE = ("delta_over_omega", "delta_shift_rad_s", "gamma_h_hz", "rabi_rad_s")

# Most points a sweep grid may hold; the cap bounds a run's time.  A run of
# the bundled canonical CZ config over 1000 x 1000 values (no trajectory)
# took 21-22 s and peaked at 145 MB resident on a 2-vCPU machine.
SWEEP_POINTS_CAP = 10 ** 6

# A sweep point's report fields, in the column order of sweep.csv.
METRICS = ("truth_table_fidelity", "average_fidelity", "infidelity", "leakage",
           "cz_phase_rad")


class SweepTable(NamedTuple):
    """A sweep's results as columns, a row per grid point: the swept keys,
    sorted; the points' values of them (n, len(keys)); their METRICS
    (n, len(METRICS)), NaN in an error row; and their "ok" or "error: ..."."""

    keys: tuple[str, ...]
    values: np.ndarray
    metrics: np.ndarray
    status: list[str]


def check_grid(base: GateScenario, grid: Mapping[str, Sequence]) -> None:
    """Reject a grid that sweeps of base cannot run.

    A grid maps sweepable keys, at most one of the two shift keys, to
    non-empty lists, of at most SWEEP_POINTS_CAP points (the product of
    their lengths).  It may not name a number that base ignores.
    """
    if not isinstance(grid, Mapping):
        raise ParseError("sweep.grid must be a JSON object")
    unknown = set(grid) - set(SWEEPABLE)
    if unknown:
        raise ParseError(f"sweep.grid: unknown fields {sorted(unknown)}")
    if not grid:
        raise ValidationError(f"sweep.grid must name at least one of {list(SWEEPABLE)}")
    if {"delta_over_omega", "delta_shift_rad_s"} <= set(grid):
        raise ParseError("sweep.grid may name delta_over_omega or delta_shift_rad_s, not both")
    if base.sequence is not None and "rabi_rad_s" in grid:
        raise ParseError("sweep.grid.rabi_rad_s has no effect on a gate with its own "
                         "sequence, whose steps carry their own Rabi frequency")
    if not base.noise.dephasing and "gamma_h_hz" in grid:
        raise ParseError("sweep.grid.gamma_h_hz has no effect on a gate with "
                         "gate.noise.dephasing off")
    for k, v in grid.items():
        if not (isinstance(v, list) and v):
            raise ValidationError(f"sweep.grid[{k!r}] must be a non-empty list")
    points = math.prod(len(v) for v in grid.values())
    if points > SWEEP_POINTS_CAP:
        raise ResourceLimitError(
            f"sweep grid of {points} points exceeds the cap {SWEEP_POINTS_CAP}")


def chunk_points(base: GateScenario) -> int:
    """Points in each chunk of a sweep of base: max(_CHUNK_MIN,
    _CHUNK_ENTRIES // e), for e = d^2 closed and 16 d^2 noisy, d the
    register dimension, the product of the two qubits' level counts.  A
    closed point stacks only its 4 d computational-column entries, but
    larger closed chunks gained nothing (1820 against 809 points on the
    9-state canonical sweep)."""
    dim = len(base.control.level_order) * len(base.target.level_order)
    return max(_CHUNK_MIN, _CHUNK_ENTRIES // (dim * dim * (16 if base.noise.any else 1)))


def _point_numbers(base: GateScenario, keys: Sequence[str], values: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The Rabi frequency, shift and gamma_h of each point as (n,) arrays,
    set as the base with the swept numbers replaced, and each point's
    error: the message of the first test of _NUMBER_FAULTS it fails (the
    last only when base has the canonical sequence), or "" when it fails
    none.

    values (n, len(keys)) holds the points' swept values, a column per key.
    """
    columns = dict(zip(keys, values.T))
    n = len(values)
    rabi = columns.get("rabi_rad_s", np.full(n, base.rabi))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if "delta_over_omega" in columns:
            shift = columns["delta_over_omega"] * rabi
        else:
            shift = columns.get("delta_shift_rad_s", np.full(n, base.delta_shift))
        gamma_h = columns.get("gamma_h_hz", np.full(n, base.gamma_h))
        table = _NUMBER_FAULTS if base.sequence is None else _NUMBER_FAULTS[:-1]
        fails = [test(rabi, shift, gamma_h) for test, _ in table]
    return rabi, shift, gamma_h, np.select(fails, [message for _, message in table], "")


def sweep_chunk(base: GateScenario, keys: Sequence[str], values: np.ndarray) -> SweepTable:
    """The sweep table of some grid points, whose swept values are the
    rows of values (n, len(keys)).

    The points' numbers are read and checked as arrays (_point_numbers);
    the points that pass share the base's register and sequence
    (base.protocol), are propagated in one stack and scored in one score
    call (_stacked_scores), where a point's expm fault is its own.  A
    point without an error makes its own run_protocol call on its row of
    the scores, which raises when the row is not finite, so that the
    benchmark's per-point metrics (calls, p50 and p99 of
    gates.run_protocol) read one call per point.  No point is run alone,
    and the errors are the ones its scenario run alone would raise.
    """
    rabi, shift, gamma_h, errors = _point_numbers(base, keys, values)
    held = errors == ""
    scores, faults = _stacked_scores(base, rabi[held], shift[held], gamma_h[held])
    errors = errors.tolist()
    listed = scores.tolist()
    # a held point's row in the stack is the number of held points before it
    for row, (i, fault) in enumerate(zip(np.flatnonzero(held).tolist(), faults.tolist())):
        errors[i] = EXPM_FAULTS[fault]
        if not fault:
            try:
                run_protocol(base, listed, row)
            except DomainError as exc:
                errors[i] = str(exc)
    ok = np.array([not error for error in errors])
    metrics = np.full((len(values), len(METRICS)), np.nan)
    metrics[ok] = np.stack([scores.truth_fidelity, scores.average_fidelity,
                            1.0 - scores.average_fidelity, scores.leakage, scores.cz_phase],
                           axis=1)[ok[held]]
    return SweepTable(keys, values, metrics,
                      [f"error: {error}" if error else "ok" for error in errors])


def _group_pulses(base: GateScenario, rabi: np.ndarray) -> PulseArrays:
    """Pulse arrays of sweep points of base at the Rabi frequencies rabi (n,).

    A gate's own sequence is the same for every point; the canonical one
    drives the same transitions for all, each point at its own Rabi
    frequency, at which its durations are finite (_point_numbers).
    """
    pulses = PulseArrays.of(base.protocol[1])
    if base.sequence is not None:
        shape = (len(pulses.targets), len(rabi))
        return PulseArrays(pulses.targets, *(np.broadcast_to(a, shape) for a in pulses[1:]))
    duration = np.array([[p.pulse_area] for p in base.protocol[1].specs()]) / rabi
    return PulseArrays(pulses.targets, np.broadcast_to(rabi, duration.shape),
                       np.zeros(duration.shape), duration)


def _stacked_scores(base: GateScenario, rabi: np.ndarray, shift: np.ndarray,
                    gamma_h: np.ndarray) -> tuple[Scores, np.ndarray]:
    """Scores of sweep points of base with the Rabi frequencies, shifts and
    gamma_h of the (n,) arrays, and each point's fault, an index into
    EXPM_FAULTS (0 for none, and always with no noise).

    The one scorer of a protocol; a scenario alone is its n = 1 case
    (run_protocol).  The points, as (segments, n) pulse arrays
    (_group_pulses), are propagated in one stack on the base's register:
    without noise to the four computational columns of their unitaries
    (_closed_reading), with any noise switch on to their channels'
    images of the sixteen operators |j><k| of the computational subspace
    (_channel_reading), so decay and dephasing enter the fidelity
    exactly; and scored in one score call.  A faulted point's scores
    mean nothing.
    """
    system = base.protocol[0]
    pulses = _group_pulses(base, rabi)
    comp = _computational(base, system)
    if base.noise.any:
        gamma = _dephasing(base.noise, gamma_h)[:, None]
        stacked, faults = sequence_superoperator(system, pulses, _columns(comp, system.dimension),
                                                 shift[:, None], np.repeat(gamma, 2, axis=1))
        reading = _channel_reading(stacked, comp, system.dimension)
    else:
        stacked = sequence_unitary(system, pulses, shift[:, None], comp)
        faults = np.zeros(len(rabi), dtype=int)
        reading = _closed_reading(stacked, comp)
    return score(*reading, base.gate_target), faults


def sweep(base: GateScenario, grid: Mapping[str, Sequence], jobs: int = 1) -> SweepTable:
    """Run a protocol over the cartesian product of a parameter grid.

    Parameters
    ----------
    base : GateScenario
        The scenario every point starts from; a point replaces only the
        numbers its grid keys name.
    grid : mapping
        Sweepable key (SWEEPABLE) -> non-empty list of values, checked
        by check_grid.
    jobs : int
        Most worker processes to score chunks in.  A pool starts only
        when more than one worker is left after limiting them to the
        number of chunks and of CPUs.

    Returns
    -------
    SweepTable
        One row per grid point, the last key varying fastest.  The points
        are scored chunk by chunk (sweep_chunk), in contiguous ranges of
        chunk_points(base) points, on base.protocol, which is built
        before the chunks are cut, so pooled workers receive it.

    Raises the error of base.protocol when it does not build, before any
    point is scored (through the CLI the config's parse has built it).
    """
    check_grid(base, grid)
    base.protocol    # built once, before the chunks are cut
    keys = tuple(sorted(grid))
    # each point's values, the last key varying fastest (itertools.product order)
    values = np.stack(np.meshgrid(*(np.array(grid[k], dtype=float) for k in keys),
                                  indexing="ij", copy=False), axis=-1).reshape(-1, len(keys))
    size = chunk_points(base)
    chunks = [values[start:start + size] for start in range(0, len(values), size)]
    score_chunk = partial(sweep_chunk, base, keys)
    # a forked pool starts every worker up front, so never ask for idle ones
    workers = min(jobs, len(chunks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor    # loaded only when a pool starts
        with ProcessPoolExecutor(max_workers=workers) as pool:
            tables = list(pool.map(score_chunk, chunks))
    else:
        tables = list(map(score_chunk, chunks))
    return SweepTable(keys, values, np.concatenate([t.metrics for t in tables]),
                      [status for t in tables for status in t.status])


def pair_center_scenario(params_control: PairParams, params_target: PairParams,
                         distance: float, model: BlockadeModel = DEFAULT_MODEL, *,
                         rabi: float, tau_single: float | None = None,
                         gamma_h: float = 0.0, noise: NoiseFlags = NoiseFlags(),
                         mode: str = "perturbative",
                         ) -> GateScenario:
    """Build a two-qubit scenario from two pair centers a distance apart.

    Each logical qubit lives on one pair center: |0> is the dark state,
    |1> the pair ground state and |1'> the superradiant bright state.
    The conditional shift is the bright-bright exchange dipole shift at
    the given separation (lattice units), and, when a single-center
    lifetime is supplied, the dark/bright radiative lifetimes follow
    from the brightness suppression (a symmetric pair's dark state does
    not decay radiatively at all).
    """
    if params_control.exchange == 0.0 or params_target.exchange == 0.0:
        raise ValidationError("pair centers need nonzero exchange splitting")
    solver = pair_eigensystem_perturbative if mode == "perturbative" else pair_eigensystem_exact
    states = {"control": solver(params_control), "target": solver(params_target)}

    shift_hz = dipole_shift(states["control"].f_bright, states["target"].f_bright,
                            distance, model)

    def scheme(name: str, params: PairParams) -> QubitScheme:
        st = states[name]
        lifetimes = {}
        if tau_single is not None:
            lifetimes["1p"] = tau_single * params.single_oscillator_strength / st.f_bright
            if st.f_dark > 0.0:
                lifetimes["0"] = tau_single * params.single_oscillator_strength / st.f_dark
        return QubitScheme(
            name=name,
            level_order=("1", "0", "1p"),    # pair ground collects decay
            lifetimes=lifetimes,
        )

    return GateScenario(
        control=scheme("control", params_control),
        target=scheme("target", params_target),
        rabi=rabi,
        delta_shift=2.0 * math.pi * shift_hz,
        gamma_h=gamma_h,
        noise=noise,
    )

