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
with those numbers replaced (point_scenario), and check_grid holds the
rules a grid must meet.

Angular units: delta_shift and the Rabi frequency are rad/s (multiply
shifts from the interactions module, which are in Hz, by 2 pi).
"""
from __future__ import annotations

import cmath
import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Iterator, Mapping, Sequence

import numpy as np

from .dynamics import (LevelSystem, PulseArrays, QubitLevels, ShiftCoupling,
                       sequence_superoperator, sequence_unitary, stacked_superoperators,
                       stacked_unitaries)
from .errors import DomainError, OqcsimError, ParseError, ValidationError
from .interactions import BlockadeModel, DEFAULT_MODEL, dipole_shift
from .paircenter import PairParams, pair_eigensystem_exact, pair_eigensystem_perturbative
from .pulses import PI_AREA, TWO_PI_AREA, PulseSequence, PulseSpec

REQUIRED_ROLES = ("0", "1", "1p")

COMPUTATIONAL = (("0", "0"), ("0", "1"), ("1", "0"), ("1", "1"))

_PHASE_FLOOR = 1e-12   # diagonal amplitude below which phases are meaningless

# Sweep points propagated in one stack, and the unit of work of a sweep
# worker; serial and pooled sweeps cut the grid alike.  Larger chunks
# run no faster, since scoring each point costs more than its share of
# the stacked propagation, but hold more memory.
CHUNK = 64


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
    gamma_l: float = 1e9                 # 1/s, pulse bookkeeping
    noise: NoiseFlags = NoiseFlags()
    sequence: PulseSequence | None = None
    gate_target: str = "cz"              # "cz" | "identity"

    def __post_init__(self):
        if self.control.name == self.target.name:
            raise ValidationError("control and target need distinct names")
        if self.rabi <= 0:
            raise ValidationError("Rabi frequency must be > 0")
        if self.gate_target not in ("cz", "identity"):
            raise ValidationError(f"unknown gate target {self.gate_target!r}")
        if not all(map(math.isfinite, (self.rabi, self.delta_shift, self.gamma_h))):
            raise ValidationError("Rabi frequency, shift and gamma_h must be finite")

    def qubit_levels(self) -> dict[str, tuple[str, ...]]:
        return {self.control.name: self.control.level_order,
                self.target.name: self.target.level_order}


def _dephasing(scenario: GateScenario) -> float:
    """Dephasing rate of both qubits of the scenario's register (1/s)."""
    return scenario.gamma_h if scenario.noise.dephasing else 0.0


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
            dephasing=_dephasing(scenario),
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
    for qs in (scenario.control, scenario.target):
        if "1p" not in qs.level_order:
            raise ValidationError(f"qubit {qs.name!r} has no auxiliary level")

    def pulse(qubit, area):
        return PulseSpec(target=(qubit, ("1", "1p")), pulse_area=area,
                         spectral_width=scenario.gamma_l, rabi_frequency=scenario.rabi)

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


def _wrap(angle: float) -> float:
    return (angle + math.pi) % (2.0 * math.pi) - math.pi


def _extract_phases(m_diag: Sequence[complex]) -> tuple[float, float, float, float]:
    """Global phase, single-qubit framing phases and controlled phase.

    Extracted from the diagonal of the computational-subspace map; all
    zero when any diagonal amplitude is too small to carry a phase.
    """
    if min(map(abs, m_diag)) < _PHASE_FLOOR:
        return 0.0, 0.0, 0.0, 0.0
    ref = m_diag[0]
    phi00 = cmath.phase(ref)
    phi01 = cmath.phase(m_diag[1] / ref)
    phi10 = cmath.phase(m_diag[2] / ref)
    cz = _wrap(cmath.phase(m_diag[3] / ref) - phi01 - phi10)
    return phi00, phi01, phi10, cz


def _dressed_target(gate_target: str, phi00: float, phi01: float, phi10: float
                    ) -> list[complex]:
    """Diagonal of the target gate dressed with the protocol's phases."""
    sign = -1.0 if gate_target == "cz" else 1.0
    ref = cmath.exp(1j * phi00)
    return [ref, ref * cmath.exp(1j * phi01), ref * cmath.exp(1j * phi10),
            ref * (sign * cmath.exp(1j * (phi01 + phi10)))]


def _computational(scenario: GateScenario, system: LevelSystem) -> np.ndarray:
    """Basis indices of the four computational states (cached by the register)."""
    return system.basis_indices((scenario.control.name, scenario.target.name), COMPUTATIONAL)


def _columns(comp: np.ndarray, system: LevelSystem) -> np.ndarray:
    """Vectorized positions of the sixteen operators |j><k| between the
    computational states (j-major)."""
    return (system.dimension * comp[:, None] + comp).ravel()


def _require_finite(populations_finite, *numbers: float) -> None:
    if not (populations_finite and all(map(math.isfinite, numbers))):
        raise DomainError("protocol result is not finite; the pulse durations and "
                          "shifts are too far apart for double precision")


def run_protocol(scenario: GateScenario, propagator: np.ndarray | None = None,
                 system: LevelSystem | None = None) -> GateReport:
    """Execute a scenario over all four computational inputs and score it.

    Closed-system scenarios propagate state vectors and score the
    restricted unitary; with any noise switch on, the channel is
    applied to the sixteen operators |j><k| of the computational
    subspace, so decay and dephasing enter the average-fidelity sum
    exactly.  propagator is that unitary, or with noise those sixteen
    channel columns (as sequence_superoperator returns them), of the
    scenario's sequence when the caller has already computed it, as a
    batched sweep does; system is then a register of the scenario's
    structure, in whose basis the propagator is written.  When
    propagator is None, the sequence is built, checked and propagated
    here on the scenario's own register.
    """
    if propagator is None or system is None:
        system = scenario_system(scenario)
    comp = _computational(scenario, system)
    if propagator is None:
        sequence = protocol_sequence(scenario)
        sequence.validate_targets(scenario.qubit_levels())
        propagator = (sequence_unitary(system, sequence) if not scenario.noise.any
                      else sequence_superoperator(system, sequence, _columns(comp, system)))
    dim = system.dimension

    if not scenario.noise.any:
        # scored on Python numbers, which for a 4 x 4 map cost less than numpy calls
        m = propagator[comp[:, None], comp]
        truth = (np.abs(m.T) ** 2).tolist()           # [input][output]
        m_diag = m.diagonal().tolist()
        phi00, phi01, phi10, cz = _extract_phases(m_diag)
        # the dressed target is diagonal: trace(T^dagger M) over the diagonals
        t00, t01, t10, t11 = _dressed_target(scenario.gate_target, phi00, phi01, phi10)
        f_pro = abs(t00.conjugate() * m_diag[0] + t01.conjugate() * m_diag[1]
                    + t10.conjugate() * m_diag[2] + t11.conjugate() * m_diag[3]) ** 2 / 16.0
        totals = [sum(row) for row in truth]
        # populations are >= 0 or NaN, so a row is finite when its total is
        _require_finite(all(map(math.isfinite, totals)), f_pro, phi01, phi10, cz)
        truth_fidelity = (truth[0][0] + truth[1][1] + truth[2][2] + truth[3][3]) / 4.0
        leakage = 1.0 - min(totals)
        noisy = False
    else:
        # channel output of |comp_j><comp_k|, as a density-operator shape
        blocks = {(j, k): propagator[:, 4 * j + k].reshape(dim, dim)
                  for j in range(4) for k in range(4)}
        truth = np.array([[np.real(blocks[(k, k)][comp[j], comp[j]]) for j in range(4)]
                          for k in range(4)])
        # phases from the coherences against the |00> reference column
        m_diag = np.array([blocks[(k, 0)][comp[k], comp[0]] for k in range(4)])
        phi00, phi01, phi10, cz = _extract_phases(m_diag)
        target = np.diag(_dressed_target(scenario.gate_target, phi00, phi01, phi10))
        f_pro = 0.0
        for j in range(4):
            for k in range(4):
                f_pro += np.real(
                    target[:, j].conj() @ blocks[(j, k)][np.ix_(comp, comp)] @ target[:, k])
        f_pro /= 16.0
        _require_finite(np.isfinite(truth).all(), f_pro, phi01, phi10, cz)
        truth_fidelity = float(truth.diagonal().sum()) / 4.0
        leakage = float((1.0 - truth.sum(axis=1)).max())
        truth = truth.tolist()
        noisy = True

    avg_fidelity = (4.0 * f_pro + 1.0) / 5.0
    return GateReport(
        truth_table=tuple(map(tuple, truth)),
        truth_table_fidelity=truth_fidelity,
        average_fidelity=float(min(max(avg_fidelity, 0.0), 1.0)),
        leakage=leakage,
        cz_phase=float(cz),
        local_phases=(float(phi01), float(phi10)),
        noisy=noisy,
        gate_target=scenario.gate_target,
    )


# delta_over_omega and delta_shift_rad_s both set the shift, the first in
# units of the point's Rabi frequency.
SWEEPABLE = ("delta_over_omega", "delta_shift_rad_s", "gamma_h_hz", "rabi_rad_s")


def check_grid(base: GateScenario, grid: Mapping[str, Sequence]) -> None:
    """Reject a grid that sweeps of base cannot run.

    A grid maps sweepable keys, at most one of the two shift keys, to
    non-empty lists.  It may not name a number that base ignores.
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


def point_scenario(base: GateScenario, point: Mapping[str, float]) -> GateScenario:
    """One sweep point: the base scenario with the swept numbers replaced.

    Built by the constructor, not dataclasses.replace, which costs more
    per point; __post_init__ checks the point all the same.
    """
    rabi = point.get("rabi_rad_s", base.rabi)
    if "delta_over_omega" in point:
        delta_shift = point["delta_over_omega"] * rabi
    else:
        delta_shift = point.get("delta_shift_rad_s", base.delta_shift)
    return GateScenario(control=base.control, target=base.target, rabi=rabi,
                        delta_shift=delta_shift, gamma_h=point.get("gamma_h_hz", base.gamma_h),
                        gamma_l=base.gamma_l, noise=base.noise, sequence=base.sequence,
                        gate_target=base.gate_target)


def grid_points(grid: Mapping[str, Sequence]) -> Iterator[dict]:
    """Cartesian product of a grid: keys sorted, values in given order."""
    keys = sorted(grid)
    for combo in itertools.product(*(grid[k] for k in keys)):
        yield dict(zip(keys, combo))


def grid_chunks(grid: Mapping[str, Sequence]) -> Iterator[list[dict]]:
    """The grid's points in order, cut into contiguous chunks of CHUNK points."""
    points = grid_points(grid)
    while chunk := list(itertools.islice(points, CHUNK)):
        yield chunk


def sweep_chunk(base: GateScenario, points: Sequence[dict]) -> list[dict]:
    """Sweep rows of some grid points: the point plus the report fields, or an error status.

    Each point's scenario is the base with the point's numbers
    (point_scenario), scored by one run_protocol call, so every check
    runs per point.  The points share the base's register and sequence,
    and are propagated in one stack (_stacked_propagators), whose
    propagators and register are handed to run_protocol.  A point left
    out of the stack, such as one whose pulse durations are not finite,
    is propagated by run_protocol alone, which reports its error.
    """
    rows, scenarios = [], []
    for point in points:
        row = dict(point)
        try:
            scenarios.append(point_scenario(base, point))
        except (OqcsimError, ValueError) as exc:
            scenarios.append(None)
            row["status"] = f"error: {exc}"
        rows.append(row)
    propagators = _stacked_propagators(base, scenarios)
    for i, (row, scenario) in enumerate(zip(rows, scenarios)):
        if scenario is None:
            continue
        try:
            report = run_protocol(scenario, *propagators.get(i, (None, None)))
        except (OqcsimError, ValueError) as exc:
            row["status"] = f"error: {exc}"
            continue
        row.update({
            "truth_table_fidelity": report.truth_table_fidelity,
            "average_fidelity": report.average_fidelity,
            "infidelity": 1.0 - report.average_fidelity,
            "leakage": report.leakage,
            "cz_phase_rad": report.cz_phase,
            "status": "ok",
        })
    return rows


def _group_pulses(base: GateScenario, group: Sequence[GateScenario]
                  ) -> tuple[PulseArrays, np.ndarray]:
    """Pulse arrays of the sweep points of base, and which points they hold.

    The sequence is built and validated once, on base.  A gate's own
    sequence is the same for every point; the canonical one drives the
    same transitions for all, each point at its own Rabi frequency.
    The mask leaves out the points whose pulse durations are not finite,
    whose canonical sequence does not build.
    """
    sequence = protocol_sequence(base)
    sequence.validate_targets(base.qubit_levels())
    pulses = PulseArrays.of(sequence)
    if base.sequence is not None:
        shape = (len(pulses.targets), len(group))
        return (PulseArrays(pulses.targets, *(np.broadcast_to(a, shape) for a in pulses[1:])),
                np.ones(len(group), dtype=bool))
    rabi = np.array([[sc.rabi for sc in group]])
    with np.errstate(over="ignore"):
        duration = np.array([[p.pulse_area] for p in sequence.specs()]) / rabi
    keep = np.isfinite(duration).all(axis=0)
    duration = duration[:, keep]
    return (PulseArrays(pulses.targets, np.broadcast_to(rabi[:, keep], duration.shape),
                        np.zeros(duration.shape), duration), keep)


def _stacked_propagators(base: GateScenario, scenarios: Sequence[GateScenario | None]
                         ) -> dict[int, tuple[np.ndarray, LevelSystem]]:
    """Propagators of the sweep points of base and its register, keyed by position.

    The points' pulse parameters enter as (segments, n) arrays
    (_group_pulses).  Without noise the points get sequence unitaries;
    with any noise switch of base on, the sixteen computational columns
    of their channels; each in one stacked propagation.  A point left
    out here (None, or with pulse durations that are not finite), or
    every point when the sequence does not build or the stacked
    propagation fails, is propagated by run_protocol alone, which then
    reports its error.
    """
    batch = [(i, sc) for i, sc in enumerate(scenarios) if sc is not None]
    try:
        pulses, keep = _group_pulses(base, [sc for _, sc in batch])
        batch = [member for member, kept in zip(batch, keep) if kept]
        if not batch:
            return {}
        shifts = np.array([[sc.delta_shift] for _, sc in batch])
        system = scenario_system(base)
        if base.noise.any:
            dephasing = np.array([[_dephasing(sc)] * 2 for _, sc in batch])
            stacked = stacked_superoperators(
                system, pulses, _columns(_computational(base, system), system),
                shifts, dephasing)
        else:
            stacked = stacked_unitaries(system, pulses, shifts)
    except (OqcsimError, ValueError):
        return {}
    return {i: (p, system) for (i, _), p in zip(batch, stacked)}


def sweep(base: GateScenario, grid: Mapping[str, Sequence], jobs: int = 1) -> list[dict]:
    """Run a protocol over the cartesian product of a parameter grid.

    Parameters
    ----------
    base : GateScenario
        The scenario every point starts from; a point replaces only the
        numbers its grid keys name (point_scenario).
    grid : mapping
        Sweepable key (SWEEPABLE) -> non-empty list of values, checked
        by check_grid.
    jobs : int
        Most worker processes to score chunks in.  A pool starts only
        when more than one worker is left after limiting them to the
        number of chunks and of CPUs.

    Returns
    -------
    list of dict
        One row per grid point, in grid_points order: the parameters
        plus the report fields, or a status message when that point
        failed.  The points are scored chunk by chunk (sweep_chunk).
    """
    check_grid(base, grid)
    score = partial(sweep_chunk, base)
    n_chunks = -(-math.prod(len(values) for values in grid.values()) // CHUNK)
    # a forked pool starts every worker up front, so never ask for idle ones
    workers = min(jobs, n_chunks, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(score, grid_chunks(grid)))
    else:
        chunks = map(score, grid_chunks(grid))
    return [row for chunk in chunks for row in chunk]


def pair_center_scenario(params_control: PairParams, params_target: PairParams,
                         distance: float, model: BlockadeModel = DEFAULT_MODEL, *,
                         rabi: float, tau_single: float | None = None,
                         gamma_h: float = 0.0, noise: NoiseFlags = NoiseFlags(),
                         gamma_l: float = 1e9, mode: str = "perturbative",
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
        gamma_l=gamma_l,
        noise=noise,
    )


def swap_roles(scenario: GateScenario) -> GateScenario:
    """Exchange control and target (keeps qubit names with their schemes)."""
    return replace(scenario,
                   control=replace(scenario.target, name=scenario.control.name),
                   target=replace(scenario.control, name=scenario.target.name),
                   sequence=None)
