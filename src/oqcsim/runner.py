"""Config-driven scenario execution behind the command-line interface.

A scenario config is one JSON document with named sections; sections
present select what runs, in dependency order species -> crystal
(ensemble) -> interactions -> pulses -> gate -> sweep.  All numeric
outputs are deterministic functions of (config, seed, version): floats
are serialized with repr and JSON keys are sorted, so re-running a
config with the same seed reproduces every numeric output byte for
byte.  The manifest records wall-clock time and is exempt from that
guarantee.

The documented schema lives in the README.  ScenarioConfig parses each
section once into a frozen dataclass, where every value a stage reads
is converted, defaulted and range-checked, and NaN or infinity is
rejected.  The pulse budget and the ensemble's derived lengths (R0,
the minimum pair concentration, the ensemble radius) are computed while
parsing, so a value overflowing double precision there is rejected too,
and the sweep grid is checked by gates.check_grid, as every sweep is.
So load_config() rejects everything run() rejects, except errors that
depend on the sampled data (an ensemble larger than the number of
dopants drawn, a center frequency whose draw overflows) or on a gate's
propagation (a protocol result that is not finite).  run() computes,
then writes: every stage returns its data before one write phase makes
the output directory, so these errors write nothing either.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import re
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .ensemble import (PAIR_RADIUS_MAX, CenterSet, ChannelAllocation, CrystalSpec,
                       allocate_channels, assign_frequencies, ensemble_radius,
                       estimate_fwhm, identify_pairs, mean_qubit_spacing,
                       min_pair_concentration, nearest_neighbor_distances, sample_lattice,
                       spectral_select)
from .errors import (DomainError, ParseError, ValidationError, entries, finite, flag,
                     known_keys, number, read_json, require, string, subsection)
from .gates import (METRICS, GateScenario, NoiseFlags, QubitScheme, SweepTable, check_grid,
                    pair_center_scenario, run_protocol, sweep as run_sweep)
from .dynamics import Trajectory, propagate_lindblad, propagate_unitary
from .interactions import BlockadeModel, ensemble_blockade_report
from .paircenter import PairParams
from .pulses import (PI_AREA, TWO_PI_AREA, BeamGeometry, EmitterRadiative, PulseBudget,
                     PulseSequence, PulseSpec, peak_field, pi_pulse_budget, pulse_energy)
from .species import (LevelRole, SpeciesRegistry, SpeciesScheme, load_registry,
                      validate_scheme)

KNOWN_SECTIONS = {"seed", "output", "species", "crystal", "pulses",
                  "interactions", "gate", "sweep"}

GATE_KEYS = {"type", "rabi_rad_s", "delta_shift_rad_s", "gamma_h_hz", "gamma_l_hz",
             "noise", "gate_target", "sequence", "pair_center", "export_trajectory",
             "trajectory_input", "note"}


# -- typed sections ----------------------------------------------------------

@dataclass(frozen=True)
class SpeciesSection:
    registry: SpeciesRegistry
    scheme: SpeciesScheme | None       # None: report every registry entry
    u2_threshold: float


@dataclass(frozen=True)
class PulsesSection:
    carrier_cm: float
    emitter: EmitterRadiative
    gamma_l: float
    beam: BeamGeometry
    rei_factor: float
    budget: PulseBudget                # the pi-pulse budget at the carrier
    rei: PulseBudget | None            # at rei_factor times its intensity; None when 0


@dataclass(frozen=True)
class CrystalSection:
    spec: CrystalSpec
    n_ensemble: int
    pair_radius: float
    center_frequency: float
    channel_min_gap: float
    export_centers: bool
    export_channels: bool
    r0: float                          # same-frequency spacing, lattice units
    min_pair_concentration: float      # at r0
    ensemble_radius: float             # of n_ensemble dopants, lattice units


@dataclass(frozen=True)
class InteractionsSection:
    model: BlockadeModel
    u2_a: float
    u2_b: float
    u2_product: float


@dataclass(frozen=True)
class GateSection:
    scenario: GateScenario             # base scenario; sweep points replace fields
    export_trajectory: bool
    trajectory_input: str


def _parse_species(sec: dict) -> SpeciesSection:
    known_keys(sec, {"use", "host", "registry_file", "u2_threshold"}, "species")
    registry = load_registry(string(sec, "registry_file", "species", None))
    use, host = (string(sec, key, "species", None) for key in ("use", "host"))
    scheme = None if use is None else registry.get(use, host)
    return SpeciesSection(registry, scheme, number(sec, "u2_threshold", "species", 1.0))


def _parse_pulses(sec: dict) -> PulsesSection:
    known_keys(sec, {"carrier_cm", "radiative_lifetime_s", "gamma_l_hz",
                     "cross_section_cm2", "refractive_index",
                     "rei_intensity_factor"}, "pulses")
    carrier_cm = number(sec, "carrier_cm", "pulses")
    emitter = EmitterRadiative(number(sec, "radiative_lifetime_s", "pulses"))
    gamma_l = number(sec, "gamma_l_hz", "pulses")
    beam = BeamGeometry(
        number(sec, "cross_section_cm2", "pulses", BeamGeometry.cross_section),
        number(sec, "refractive_index", "pulses", BeamGeometry.refractive_index))
    rei_factor = number(sec, "rei_intensity_factor", "pulses", 0.0)
    require(gamma_l > 0, "pulses.gamma_l_hz must be > 0", DomainError)
    require(carrier_cm > 0, "pulses.carrier_cm must be > 0", DomainError)
    require(rei_factor >= 0, "pulses.rei_intensity_factor must be >= 0", DomainError)
    budget = pi_pulse_budget(carrier_cm, emitter, gamma_l, beam)
    rei = None
    if rei_factor:
        i_rei = budget.intensity_w_cm2 * rei_factor
        rei = PulseBudget(i_rei, pulse_energy(i_rei, beam.cross_section, gamma_l),
                          peak_field(i_rei))
    return PulsesSection(carrier_cm, emitter, gamma_l, beam, rei_factor, budget, rei)


def _parse_crystal(sec: dict, pulses: PulsesSection | None) -> CrystalSection:
    known_keys(sec, {"concentration", "gamma_inh_hz", "gamma_h_hz", "box_size",
                     "distribution", "n_ensemble", "pair_radius", "channel_min_gap_hz",
                     "center_frequency_hz", "export_centers", "export_channels"}, "crystal")
    spec = CrystalSpec(
        concentration=number(sec, "concentration", "crystal"),
        gamma_inh=number(sec, "gamma_inh_hz", "crystal"),
        gamma_h=number(sec, "gamma_h_hz", "crystal"),
        box_size=number(sec, "box_size", "crystal", kind=int),
        distribution=string(sec, "distribution", "crystal", CrystalSpec.distribution),
    )
    require(pulses is not None,
            "crystal section needs pulses.gamma_l_hz for spectral selection")
    require(spec.gamma_h <= pulses.gamma_l,
            "homogeneous width exceeds the laser width; lines are not resolvable")
    n_ensemble = number(sec, "n_ensemble", "crystal", 50, kind=int)
    pair_radius = number(sec, "pair_radius", "crystal", 2.0)
    center_frequency = number(sec, "center_frequency_hz", "crystal", 0.0)
    channel_min_gap = number(sec, "channel_min_gap_hz", "crystal", 3.0 * pulses.gamma_l)
    export_centers = flag(sec, "export_centers", "crystal")
    export_channels = flag(sec, "export_channels", "crystal")
    require(n_ensemble >= 2, "crystal.n_ensemble must be at least 2")
    require(0 < pair_radius <= PAIR_RADIUS_MAX,
            f"crystal.pair_radius must be in (0, {PAIR_RADIUS_MAX:g}]", DomainError)
    require(channel_min_gap >= 0, "crystal.channel_min_gap_hz must be >= 0", DomainError)
    r0 = mean_qubit_spacing(spec.concentration, pulses.gamma_l, spec.gamma_inh)
    return CrystalSection(spec, n_ensemble, pair_radius, center_frequency, channel_min_gap,
                          export_centers, export_channels, r0, min_pair_concentration(r0),
                          ensemble_radius(n_ensemble, spec.concentration))


def _parse_interactions(sec: dict, crystal: CrystalSection | None,
                        species: SpeciesSection | None) -> InteractionsSection:
    known_keys(sec, {"c_qq_hz", "c_dd_hz", "kappa", "u2_a", "u2_b"}, "interactions")
    model = BlockadeModel(
        c_qq=number(sec, "c_qq_hz", "interactions", BlockadeModel.c_qq),
        c_dd=number(sec, "c_dd_hz", "interactions", BlockadeModel.c_dd),
        blockade_margin=number(sec, "kappa", "interactions", BlockadeModel.blockade_margin),
    )
    require(crystal is not None, "interactions section needs a crystal section")
    if sec.get("u2_a") is not None:
        u2_a = number(sec, "u2_a", "interactions")
        u2_b = number(sec, "u2_b", "interactions", u2_a)
        require(min(u2_a, u2_b) >= 0, "interactions.u2_a and u2_b must be >= 0", DomainError)
    else:
        require(species is not None and species.scheme is not None,
                "interactions needs u2_a/u2_b or a species with an auxiliary level")
        aux = species.scheme.role_level(LevelRole.AUXILIARY)
        require(aux is not None and aux.u2_diag_sq is not None,
                f"species {species.scheme.species_name} has no auxiliary U(2) value")
        u2_a = u2_b = aux.u2_diag_sq
    u2_product = u2_a * u2_b
    require(math.isfinite(u2_product), "interactions.u2_a * u2_b overflows", DomainError)
    return InteractionsSection(model, u2_a, u2_b, u2_product)


def build_gate_scenario(cfg: dict) -> GateScenario:
    """The base GateScenario of a gate config section.

    Reads and checks every field of the section except the trajectory
    export ones; sweep points are copies with swept fields replaced.
    """
    known_keys(cfg, GATE_KEYS, "gate")
    kind = string(cfg, "type", "gate", "canonical_cz")
    require(kind in ("canonical_cz", "pair_center", "custom"),
            f"gate.type must be canonical_cz, pair_center or custom, got {kind!r}", ParseError)
    rabi = number(cfg, "rabi_rad_s", "gate", 2 * math.pi * 1e9)
    gamma_h = number(cfg, "gamma_h_hz", "gate", GateScenario.gamma_h)
    require(gamma_h >= 0, "gate.gamma_h_hz must be >= 0")
    require(number(cfg, "gamma_l_hz", "gate", 1e9) > 0, "gate.gamma_l_hz must be > 0")
    noise_cfg = subsection(cfg, "noise", {"lifetimes", "dephasing"}, "gate.noise")
    noise = NoiseFlags(*(flag(noise_cfg, k, "gate.noise") for k in ("lifetimes", "dephasing")))

    if kind == "pair_center":
        require(cfg.get("delta_shift_rad_s") is None,
                "gate.delta_shift_rad_s does not apply to type pair_center, whose "
                "shift follows from gate.pair_center.distance_lu", ParseError)
        pc = cfg.get("pair_center")
        known_keys(pc, {"control", "target", "distance_lu", "tau_single_s", "mode"},
                   "gate.pair_center")

        def params(side: str) -> PairParams:
            where = f"gate.pair_center.{side}"
            rec = pc.get(side)
            known_keys(rec, {"mean_excitation_cm", "half_detuning_cm", "exchange_cm",
                             "f1"}, where)
            return PairParams(
                mean_excitation=number(rec, "mean_excitation_cm", where),
                half_detuning=number(rec, "half_detuning_cm", where),
                exchange=number(rec, "exchange_cm", where),
                single_oscillator_strength=number(rec, "f1", where,
                                                  PairParams.single_oscillator_strength),
            )

        mode = string(pc, "mode", "gate.pair_center", "perturbative")
        require(mode in ("perturbative", "exact"),
                f"gate.pair_center.mode must be perturbative or exact, got {mode!r}")
        scenario = pair_center_scenario(
            params("control"), params("target"),
            distance=number(pc, "distance_lu", "gate.pair_center"),
            rabi=rabi,
            tau_single=number(pc, "tau_single_s", "gate.pair_center", None),
            gamma_h=gamma_h,
            noise=noise,
            mode=mode,
        )
    else:
        scenario = GateScenario(
            control=QubitScheme(name="control"), target=QubitScheme(name="target"),
            rabi=rabi,
            delta_shift=number(cfg, "delta_shift_rad_s", "gate", GateScenario.delta_shift),
            gamma_h=gamma_h, noise=noise)

    changes = {"gate_target": string(cfg, "gate_target", "gate", GateScenario.gate_target)}
    steps = entries(cfg, "sequence", "gate")
    if kind == "custom" or steps:
        require(steps, "gate.sequence must be a non-empty list")
        changes["sequence"] = _parse_sequence(steps, scenario.qubit_levels())
    return replace(scenario, **changes)


PULSE_AREAS = {"pi": PI_AREA, "2pi": TWO_PI_AREA}


def _parse_sequence(steps: list, qubits: dict[str, tuple[str, ...]]) -> PulseSequence:
    """The PulseSequence of gate.sequence steps (schema in the README),
    its targets checked against qubits; numbers default to 1..n."""
    pulses = []
    for i, step in enumerate(steps):
        where = f"gate.sequence[{i}]"
        known_keys(step, {"qubit", "transition", "area", "rabi_rad_s", "detuning_rad_s",
                          "gamma_l_hz", "number"}, where)
        transition = step.get("transition")
        require(isinstance(transition, list) and len(transition) == 2
                and all(isinstance(level, str) for level in transition),
                f"{where}.transition must be a list of two level names, got {transition!r}",
                ParseError)
        area = "pi" if step.get("area") is None else step["area"]
        if isinstance(area, str):
            require(area.lower() in PULSE_AREAS,
                    f"{where}.area must be pi, 2pi or radians, got {area!r}", ParseError)
            area = PULSE_AREAS[area.lower()]
        spec = PulseSpec(
            target=(string(step, "qubit", where), tuple(transition)),
            pulse_area=finite(area, f"{where}.area"),
            spectral_width=number(step, "gamma_l_hz", where, PulseSpec.spectral_width),
            rabi_frequency=number(step, "rabi_rad_s", where, None),
            detuning=number(step, "detuning_rad_s", where, 0.0))
        pulses.append((number(step, "number", where, i + 1, kind=int), spec))
    sequence = PulseSequence(tuple(pulses))
    sequence.validate_targets(qubits)
    return sequence


def _parse_gate(sec: dict) -> GateSection:
    scenario = build_gate_scenario(sec)
    scenario.protocol    # a register or sequence that does not build fails validate too
    label = string(sec, "trajectory_input", "gate", "11")
    require(label in ("00", "01", "10", "11"),
            "gate.trajectory_input must be one of 00, 01, 10, 11")
    return GateSection(scenario, flag(sec, "export_trajectory", "gate"), label)


def _parse_sweep(sec: dict, gate: GateSection | None) -> dict[str, list[float]]:
    known_keys(sec, {"grid"}, "sweep")
    require(gate is not None, "sweep section needs a gate section")
    grid = sec.get("grid", {})
    check_grid(gate.scenario, grid)
    return {k: [finite(x, f"sweep.grid[{k!r}]") for x in v] for k, v in grid.items()}


class ScenarioConfig:
    """A scenario config parsed once into typed, checked sections.

    Each section attribute is None when the config omits that section.
    The raw document is kept for the manifest's config hash.
    """

    def __init__(self, doc: dict, origin: str = "<config>"):
        known_keys(doc, KNOWN_SECTIONS, origin)
        require(any(k in doc for k in KNOWN_SECTIONS - {"seed", "output"}),
                f"{origin}: no runnable sections present", ParseError)
        self.doc = doc
        self.origin = origin
        self.seed = doc.get("seed")
        require(self.seed is None or (type(self.seed) is int and self.seed >= 0),
                f"{origin}: seed must be a non-negative integer", ParseError)
        require("crystal" not in doc or self.seed is not None,
                f"{origin}: a seed is mandatory for stochastic sections")
        output = subsection(doc, "output", {"dir"}, "output")
        self.output_dir = string(output, "dir", "output", None)

        def section(name, parse, *needs):
            return parse(doc[name], *needs) if name in doc else None

        self.species = section("species", _parse_species)
        self.pulses = section("pulses", _parse_pulses)
        self.crystal = section("crystal", _parse_crystal, self.pulses)
        self.interactions = section("interactions", _parse_interactions,
                                    self.crystal, self.species)
        self.gate = section("gate", _parse_gate)
        self.sweep = section("sweep", _parse_sweep, self.gate)


def load_config(path, seed: int | None = None) -> ScenarioConfig:
    """The config at path (read by read_json), parsed.  seed, when given,
    replaces the config's seed before the config is parsed."""
    doc = read_json(path)
    if seed is not None and isinstance(doc, dict):
        doc["seed"] = seed
    return ScenarioConfig(doc, origin=str(path))


def _json_text(name: str, payload: dict) -> str:
    """payload as JSON text, keys sorted; NaN or infinity in it fails naming the file."""
    try:
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise DomainError(f"{name}: result is not finite") from None


def _config_hash(doc: dict) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def run(config_path, out_dir=None, seed: int | None = None, jobs: int = 1) -> dict:
    """Execute a scenario config, then write its outputs, manifest.json last.

    Returns the manifest dictionary.  out_dir defaults to the config's
    output.dir, else '<config stem>_out' in the working directory.  seed,
    when given, replaces the config's seed (load_config).  jobs, at least
    1, caps the sweep's worker processes.
    """
    if jobs < 1:
        raise ValidationError(f"jobs must be at least 1, got {jobs}")
    t0 = time.perf_counter()
    cfg = load_config(config_path, seed)
    outputs: dict[str, tuple] = {}     # name -> (file name, writer of (path, data), data)

    def report(name: str, payload: dict):
        file = f"{name}.json"
        outputs[name] = (file, Path.write_text, _json_text(file, payload))

    if cfg.species is not None:
        report("species_report", _species_report(cfg.species))

    if cfg.crystal is not None:
        data, centers, allocation = _run_ensemble(cfg.crystal, cfg.pulses.gamma_l, cfg.seed)
        if cfg.crystal.export_centers:
            outputs["centers"] = ("centers.csv", export_centers_csv, centers)
        if allocation is not None:
            outputs["channels"] = ("channels.csv", export_allocation_csv, allocation)
        report("ensemble_report", data)

    if cfg.interactions is not None:
        report("blockade_report", _run_blockade(cfg.interactions, centers,
                                                cfg.crystal.n_ensemble, cfg.pulses.gamma_l))

    if cfg.pulses is not None:
        report("pulse_report", _run_pulses(cfg.pulses))

    if cfg.gate is not None:
        report("gate_report", run_protocol(cfg.gate.scenario).to_dict())
        if cfg.gate.export_trajectory:
            outputs["trajectory"] = ("trajectory.csv", export_trajectory_csv,
                                     _gate_trajectory(cfg.gate))

    counters = {"sweep_points_ok": 0, "sweep_points_error": 0}
    if cfg.sweep is not None:
        table = run_sweep(cfg.gate.scenario, cfg.sweep, jobs)
        outputs["sweep"] = ("sweep.csv", _write_sweep_csv, table)
        counters["sweep_points_ok"] = table.status.count("ok")
        counters["sweep_points_error"] = len(table.status) - counters["sweep_points_ok"]

    # the write phase: no stage above writes a file
    if out_dir is None:
        out_dir = cfg.output_dir or (Path(config_path).with_suffix("").name + "_out")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for file, write, data in outputs.values():
        write(out / file, data)
    manifest = {
        "config_hash": _config_hash(cfg.doc),
        "tool_version": __version__,
        "seed": cfg.seed,
        "wall_clock_s": time.perf_counter() - t0,
        "outputs": {name: file for name, (file, _, _) in outputs.items()},
        "counters": counters,
    }
    (out / "manifest.json").write_text(_json_text("manifest.json", manifest))
    return manifest


def _species_report(sec: SpeciesSection) -> dict:
    schemes = [sec.scheme] if sec.scheme is not None else list(sec.registry)
    entries = []
    for sc in schemes:
        report = validate_scheme(sc, sec.u2_threshold)
        entries.append({
            "species": sc.species_name,
            "host": sc.host,
            "levels": [{
                "term": lv.term_symbol,
                "energy_cm": lv.energy,
                "lifetime_s": lv.lifetime,
                "u2_diag_sq": lv.u2_diag_sq,
                "role": lv.role.value,
            } for lv in sc.levels],
            "validation_passed": report.passed,
            "diagnostics": [{"level": d.term_symbol, "status": d.status,
                             "message": d.message} for d in report.diagnostics],
        })
    return {"u2_threshold": sec.u2_threshold, "species": entries}


def _run_ensemble(sec: CrystalSection, gamma_l: float,
                  seed: int) -> tuple[dict, CenterSet, ChannelAllocation | None]:
    """Sample, pair and select the ensemble.

    Returns the ensemble report, the sampled centers and their channel
    allocation, None unless crystal.export_channels is set.
    """
    spec = sec.spec
    centers = sample_lattice(spec, seed)
    centers = assign_frequencies(centers, spec, seed + 1)
    centers = identify_pairs(centers, sec.pair_radius)
    selected = spectral_select(centers, sec.center_frequency, gamma_l)

    n_sites = spec.box_size ** 3
    data = {
        "n_sites": n_sites,
        "n_dopants": len(centers),
        "occupancy_fraction": len(centers) / n_sites,
        "r0_lattice_units": sec.r0,
        "ensemble_radius_lattice_units": sec.ensemble_radius,
        "n_ensemble": sec.n_ensemble,
        "min_pair_concentration_at_r0": sec.min_pair_concentration,
        "n_selected": len(selected),
        "selected_fraction": len(selected) / max(1, len(centers)),
        "n_pair_members": int(np.sum(centers.is_pair_member)),
    }
    if len(centers) >= 8:
        data["sample_fwhm_hz"] = estimate_fwhm(centers.frequencies, spec.distribution)
    if len(selected) >= 2:
        nn = nearest_neighbor_distances(selected.positions, spec.box_size)
        data["selected_median_nn_lattice_units"] = float(np.median(nn))

    allocation = None
    if sec.export_channels:
        allocation = allocate_channels(centers.frequencies, sec.channel_min_gap)
        data["n_channels"] = len(allocation.selected_indices)
    return data, centers, allocation


def _run_blockade(sec: InteractionsSection, centers: CenterSet, n_ensemble: int,
                  gamma_l: float) -> dict:
    report = ensemble_blockade_report(centers, sec.u2_a, sec.u2_b, gamma_l,
                                      n_ensemble=n_ensemble, model=sec.model)
    return {
        "c_qq_hz_lu5": sec.model.c_qq,
        "c_dd_hz_lu3": sec.model.c_dd,
        "kappa": sec.model.blockade_margin,
        "u2_product": sec.u2_product,
        "gamma_l_hz": gamma_l,
        "n_ensemble": report.n_ensemble,
        "median_nn_lattice_units": float(np.median(report.nn_distances)),
        "median_shift_hz": report.median_shift_hz,
        "feasible": report.feasible,
        "margin": report.margin,
    }


def _run_pulses(p: PulsesSection) -> dict:
    data = {
        "carrier_cm": p.carrier_cm,
        "gamma_l_hz": p.gamma_l,
        "radiative_lifetime_s": p.emitter.radiative_lifetime,
        "cross_section_cm2": p.beam.cross_section,
        "intensity_w_cm2": p.budget.intensity_w_cm2,
        "pulse_energy_j": p.budget.energy_j,
        "peak_field_v_cm": p.budget.field_v_cm,
    }
    if p.rei is not None:
        data["rei_intensity_factor"] = p.rei_factor
        data["rei_intensity_w_cm2"] = p.rei.intensity_w_cm2
        data["rei_pulse_energy_j"] = p.rei.energy_j
        data["rei_peak_field_v_cm"] = p.rei.field_v_cm
    return data


def _gate_trajectory(gate: GateSection) -> Trajectory:
    scenario = gate.scenario
    system, sequence = scenario.protocol
    psi = system.basis_state(dict(zip((scenario.control.name, scenario.target.name),
                                      gate.trajectory_input)))
    if scenario.noise.any:
        return propagate_lindblad(system, sequence, np.outer(psi, psi.conj()),
                                  samples_per_segment=24)
    return propagate_unitary(system, sequence, psi, samples_per_segment=24)


_CSV_SPECIAL = re.compile('[,"\r\n]')
_CSV_BLOCK = 1 << 12      # rows formatted and written at a time


def _csv_field(text: str) -> str:
    """text as the csv module's default dialect writes it: quoted, with quotes
    doubled, when it holds a comma, a quote or a line break."""
    if _CSV_SPECIAL.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_csv(path, header: list[str], columns: list, blank: dict | None = None,
               comment: str = "") -> None:
    """Write the comment, then a table as the csv module's default writer would,
    CRLF line ends included, _CSV_BLOCK rows at once: a numeric array as the
    repr of each value, a list of strings through _csv_field.  blank maps a
    column's index to a boolean mask of its rows left empty.

    Each distinct cell of a block is formatted once.  A block's numeric
    columns of one dtype are stacked and their values told apart by their
    bits, so 0.0 and -0.0 keep their own text.  Each cell takes its value's
    repr from one table, whose last entry "" the blank cells take
    (return_inverse=True also keeps np.unique from importing numpy.ma).
    Each distinct string goes through _csv_field once."""
    blank = blank or {}
    with open(path, "w", newline="") as fh:
        fh.write(comment + ",".join(map(_csv_field, header)) + "\r\n")
        for start in range(0, len(columns[0]), _CSV_BLOCK):
            block = slice(start, start + _CSV_BLOCK)
            parts = [column[block] for column in columns]
            cells = [None] * len(parts)
            by_dtype = {}
            for j, part in enumerate(parts):
                if isinstance(part, np.ndarray):
                    by_dtype.setdefault(part.dtype, []).append(j)
                    continue
                if j in blank:
                    part = np.where(blank[j][block], "", np.array(part, dtype=object)).tolist()
                fields = {text: _csv_field(text) for text in set(part)}
                cells[j] = [fields[text] for text in part]
            for dtype, group in by_dtype.items():
                bits = np.stack([parts[j] for j in group]).view(f"u{dtype.itemsize}")
                distinct, inverse = np.unique(bits.ravel(), return_inverse=True)
                texts = np.array([*map(repr, distinct.view(dtype).tolist()), ""], dtype=object)
                inverse = inverse.reshape(bits.shape)
                for codes, j in zip(inverse, group):
                    if j in blank:
                        codes[blank[j][block]] = len(distinct)
                for j, column_text in zip(group, texts[inverse].tolist()):
                    cells[j] = column_text
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def _write_sweep_csv(path, table: SweepTable) -> None:
    """Write a sweep table as sweep.csv; an error row's metric cells are empty."""
    error = np.array([s != "ok" for s in table.status], dtype=bool)
    _write_csv(path, [*table.keys, *METRICS, "status"],
               [*table.values.T, *table.metrics.T, table.status],
               dict.fromkeys(range(len(table.keys), len(table.keys) + len(METRICS)), error))


def export_centers_csv(path, centers: CenterSet) -> None:
    """Write centers as CSV rows (x, y, z, frequency_hz, is_pair_member, partner_index)."""
    partner, n = centers.partner_index, len(centers)
    _write_csv(path, ["x", "y", "z", "frequency_hz", "is_pair_member", "partner_index"],
               [*centers.positions.T,
                [""] * n if centers.frequencies is None else centers.frequencies,
                (partner >= 0).astype(np.int64), partner], {5: partner < 0})


def export_allocation_csv(path, allocation: ChannelAllocation) -> None:
    """Write an allocation as CSV rows (channel, input_index, frequency_hz)."""
    indices = np.asarray(allocation.selected_indices)
    _write_csv(path, ["channel", "input_index", "frequency_hz"],
               [np.arange(len(indices)), indices, np.asarray(allocation.channel_frequencies)])


def export_trajectory_csv(path, trajectory: Trajectory) -> None:
    """Write (time, populations, coherence magnitudes) rows for plotting."""
    labels = [":".join(lab) for lab in trajectory.labels]
    dim = len(labels)
    rho = trajectory.states
    if trajectory.kind == "state_vector":
        rho = rho[:, :, None] * rho[:, None, :].conj()
    upper = np.triu_indices(dim, 1)
    header = ["time_s", *(f"pop_{lab}" for lab in labels),
              *(f"coh_{labels[i]}_{labels[j]}" for i, j in zip(*upper))]
    _write_csv(path, header, [trajectory.times, *rho[:, np.arange(dim), np.arange(dim)].real.T,
                              *np.abs(rho[:, upper[0], upper[1]]).T])


def emit_plot_data(results_dir, kind: str, out_path) -> None:
    """Convert run outputs into tidy (x, y, series) CSV for plotting.

    Kinds: 'fidelity-vs-delta' (from sweep.csv), 'population-vs-time'
    (from trajectory.csv), 'spectrum' (frequency histogram from
    centers.csv, with a gaussian-quantile FWHM estimate in a leading
    comment line).  An empty result set yields a header-only CSV; a
    table missing a column the kind reads, or a frequency that is not a
    finite number, is a ParseError that names it.
    """
    results = Path(results_dir)
    comment = ""
    if kind == "fidelity-vs-delta":
        path = results / "sweep.csv"
        rows = _read_csv(path)
        xcol = "delta_over_omega" if "delta_over_omega" in (rows[0] if rows else {}) \
            else "delta_shift_rad_s"
        ok = [row for row in rows if row.get("status") == "ok" and xcol in row]
        require(not ok or "infidelity" in ok[0], f"{path}: no infidelity column", ParseError)
        columns = [[row[xcol] for row in ok], [row["infidelity"] for row in ok],
                   ["infidelity"] * len(ok)]
    elif kind == "population-vs-time":
        path = results / "trajectory.csv"
        rows = _read_csv(path)
        pops = [col for col in (rows[0] if rows else {}) if col.startswith("pop_")]
        require(not pops or "time_s" in rows[0], f"{path}: no time_s column", ParseError)
        cells = [(row["time_s"], row[col], col[4:]) for row in rows for col in pops]
        columns = [[cell[k] for cell in cells] for k in range(3)]
    elif kind == "spectrum":
        path = results / "centers.csv"
        freqs = np.array([_finite_cell(path, "frequency_hz", r["frequency_hz"])
                          for r in _read_csv(path) if r.get("frequency_hz")])
        require(not len(freqs) or math.isfinite(float(freqs.max()) - float(freqs.min())),
                f"{path}: the frequency_hz range overflows", ParseError)
        if len(freqs) >= 8:
            comment = f"# fwhm_hz={estimate_fwhm(freqs)!r}\n"
        columns = [[], [], []]
        if len(freqs):
            counts, edges = np.histogram(freqs, bins=64)
            columns = [edges[:-1] / 2.0 + edges[1:] / 2.0, counts, ["frequency"] * len(counts)]
    else:
        raise ParseError(f"unknown plot kind {kind!r}; choose fidelity-vs-delta, "
                         "population-vs-time or spectrum")
    _write_csv(out_path, ["x", "y", "series"], columns, comment=comment)


def _finite_cell(path: Path, column: str, cell: str) -> float:
    """A table cell as a float; ParseError naming it unless it is a finite number."""
    try:
        value = float(cell)
    except ValueError:
        value = math.nan
    require(math.isfinite(value), f"{path}: {column} {cell!r} is not a finite number",
            ParseError)
    return value


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            rows = list(csv.DictReader(fh))
        except (UnicodeDecodeError, csv.Error) as exc:     # csv.Error: a field too large
            raise ParseError(f"{path}: {exc}") from None
    # DictReader keys a long row's extra fields by None and fills a short row with None
    require(not any(None in row or None in row.values() for row in rows),
            f"{path}: a row's field count differs from the header's", ParseError)
    return rows
