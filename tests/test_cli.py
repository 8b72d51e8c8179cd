import contextlib
import csv
import filecmp
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oqcsim import dynamics, gates, runner
from oqcsim.cli import main
from oqcsim.ensemble import BOX_SIZE_CAP, DOPANT_CAP
from oqcsim.gates import SWEEP_POINTS_CAP
from oqcsim.errors import ValidationError
from oqcsim.gates import chunk_points
from oqcsim.runner import emit_plot_data, load_config, run

CONFIG_DIR = resources.files("oqcsim.configs")
SRC = Path(__file__).resolve().parents[1] / "src"
BUNDLED = ["pulse_budget_ns_emitter", "nd_caf2_ensemble",
           "blockade_cz_sweep", "pair_center_cnot"]


def config_path(name: str) -> str:
    return str(CONFIG_DIR / f"{name}.json")


@pytest.mark.parametrize("name", BUNDLED)
def test_validate_accepts_bundled_configs(name):
    load_config(config_path(name))
    assert main(["validate", "--config", config_path(name)]) == 0


def test_run_pulse_budget_outputs(tmp_path):
    run(config_path("pulse_budget_ns_emitter"), out_dir=tmp_path)
    report = json.loads((tmp_path / "pulse_report.json").read_text())
    assert report["intensity_w_cm2"] == pytest.approx(100.0, rel=1e-12)
    assert report["pulse_energy_j"] == pytest.approx(1e-14, rel=1e-12)
    assert report["rei_pulse_energy_j"] == pytest.approx(1e-10, rel=1e-12)
    assert 2.4e4 <= report["rei_peak_field_v_cm"] <= 3.3e4


def test_run_nd_ensemble_outputs(tmp_path):
    run(config_path("nd_caf2_ensemble"), out_dir=tmp_path)
    ens = json.loads((tmp_path / "ensemble_report.json").read_text())
    assert ens["r0_lattice_units"] == pytest.approx(100.0, rel=1e-9)
    assert ens["ensemble_radius_lattice_units"] == pytest.approx(17.0998, rel=1e-4)
    blockade = json.loads((tmp_path / "blockade_report.json").read_text())
    assert blockade["feasible"] is True
    assert blockade["median_shift_hz"] >= 3 * blockade["gamma_l_hz"]
    assert (tmp_path / "centers.csv").exists()
    assert (tmp_path / "channels.csv").exists()


def test_run_with_a_window_as_wide_as_the_line(tmp_path):
    # Gamma_L = Gamma_inh selects about 76% of the dopants of a gaussian line
    config = tmp_path / "wide.json"
    doc = small_crystal(box_size=60, concentration=0.05)
    doc["pulses"]["gamma_l_hz"] = 1e12
    config.write_text(json.dumps(doc))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    ens = json.loads((tmp_path / "out" / "ensemble_report.json").read_text())
    assert ens["n_selected"] > 0.7 * ens["n_dopants"] > 7000
    median = ens["selected_median_nn_lattice_units"]
    assert float(round(median**2)) == pytest.approx(median**2, abs=1e-12)   # a lattice distance
    assert ens["r0_lattice_units"] / 2 <= median <= ens["r0_lattice_units"]


def test_run_gate_sweep_outputs(tmp_path):
    run(config_path("blockade_cz_sweep"), out_dir=tmp_path)
    gate = json.loads((tmp_path / "gate_report.json").read_text())
    assert gate["average_fidelity"] > 0.995
    sweep_lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert sweep_lines[0].startswith("delta_over_omega")
    assert len(sweep_lines) == 9      # header + 8 grid points
    assert (tmp_path / "trajectory.csv").exists()


def test_cli_exit_codes(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    assert main(["validate", "--config", str(empty)]) == 2

    bad_physics = tmp_path / "bad.json"
    bad_physics.write_text(json.dumps({
        "seed": 1,
        "crystal": {"concentration": 0.01, "gamma_inh_hz": 1e6, "gamma_h_hz": 1e9,
                    "box_size": 10},
        "pulses": {"carrier_cm": 20000.0, "radiative_lifetime_s": 1e-9,
                   "gamma_l_hz": 1e9},
    }))
    assert main(["validate", "--config", str(bad_physics)]) == 2

    missing_seed = tmp_path / "noseed.json"
    missing_seed.write_text(json.dumps({
        "crystal": {"concentration": 0.01, "gamma_inh_hz": 1e12, "gamma_h_hz": 1e6,
                    "box_size": 10},
        "pulses": {"carrier_cm": 20000.0, "radiative_lifetime_s": 1e-9,
                   "gamma_l_hz": 1e9},
    }))
    assert main(["validate", "--config", str(missing_seed)]) == 2

    unknown_species = tmp_path / "spec.json"
    unknown_species.write_text(json.dumps({"species": {"use": "Xx7+"}}))
    assert main(["validate", "--config", str(unknown_species)]) == 2

    crystal_without_pulses = tmp_path / "nolaser.json"
    crystal_without_pulses.write_text(json.dumps({
        "seed": 1,
        "crystal": {"concentration": 0.01, "gamma_inh_hz": 1e12, "gamma_h_hz": 1e6,
                    "box_size": 10},
    }))
    assert main(["validate", "--config", str(crystal_without_pulses)]) == 2

    domain_error = tmp_path / "dom.json"
    domain_error.write_text(json.dumps({
        "pulses": {"carrier_cm": 20000.0, "radiative_lifetime_s": -1.0,
                   "gamma_l_hz": 1e9},
    }))
    assert main(["validate", "--config", str(domain_error)]) == 3


def small_crystal(**crystal):
    return {
        "seed": 1,
        "crystal": {"concentration": 0.05, "gamma_inh_hz": 1e12, "gamma_h_hz": 1e6,
                    "box_size": 10, "export_channels": True, **crystal},
        "pulses": {"carrier_cm": 20000.0, "radiative_lifetime_s": 1e-9,
                   "gamma_l_hz": 1e9},
    }


def small_ensemble_run():
    """A config that reads every pulses, crystal and interactions number."""
    doc = small_crystal(box_size=6, concentration=0.2, n_ensemble=10, export_centers=True)
    doc["pulses"]["rei_intensity_factor"] = 2.0
    doc["interactions"] = {"u2_a": 0.01}
    return doc


def with_number(sec, key, value):
    """small_ensemble_run with one number replaced."""
    doc = small_ensemble_run()
    doc[sec][key] = value
    return doc


# (section, key, value) whose derived numbers leave double precision
OVERFLOWING = [
    ("pulses", "carrier_cm", 1e100), ("pulses", "gamma_l_hz", 1e200),
    ("pulses", "refractive_index", 1e100), ("crystal", "concentration", 5e-324),
    ("pulses", "rei_intensity_factor", 1e300), ("crystal", "concentration", 1e-310),
    ("interactions", "u2_a", 1e200)]

def bundled_with_gate(name, **gate):
    """A bundled config with some gate keys set."""
    doc = json.loads(Path(config_path(name)).read_text())
    doc["gate"].update(gate)
    return doc


def sweep_of(n_delta, n_rabi):
    """The canonical gate swept over a grid of n_delta x n_rabi points."""
    return {"gate": {}, "sweep": {"grid": {"delta_over_omega": [3.0] * n_delta,
                                           "rabi_rad_s": [6.3e9] * n_rabi}}}


REJECTED = {
    "negative-rabi": ({"gate": {"type": "canonical_cz", "rabi_rad_s": -1.0}}, 2),
    "nan-rabi": ({"gate": {"rabi_rad_s": math.nan}}, 2),
    # the canonical pulses at a Rabi frequency this small have infinite durations
    "subnormal-canonical-rabi": ({"gate": {"type": "canonical_cz", "rabi_rad_s": 1e-310}}, 2),
    "infinite-shift": ({"gate": {"delta_shift_rad_s": math.inf}}, 2),
    "bad-trajectory-input": ({"gate": {"export_trajectory": True,
                                       "trajectory_input": "22"}}, 2),
    "gaussian-envelope-step": ({"gate": {"type": "custom", "sequence": [
        {"qubit": "control", "transition": ["1", "1p"], "envelope": "gaussian"}]}}, 2),
    "zero-pair-radius": (small_crystal(pair_radius=0), 3),
    "pair-radius-above-bound": (small_crystal(pair_radius=8.5), 3),
    "negative-channel-gap": (small_crystal(channel_min_gap_hz=-1), 3),
    "non-numeric-u2-threshold": ({"species": {"use": "Nd3+", "u2_threshold": "high"}}, 2),
    "both-shift-keys": ({"gate": {}, "sweep": {"grid": {"delta_over_omega": [1.0],
                                                       "delta_shift_rad_s": [1e12]}}}, 2),
    "rabi-sweep-of-own-sequence": ({"gate": {"type": "custom", "sequence": [
        {"qubit": "control", "transition": ["1", "1p"], "rabi_rad_s": 6.3e9}]},
        "sweep": {"grid": {"rabi_rad_s": [1e9, 1e10, 1e11]}}}, 2),
    "pair-center-shift-key": (bundled_with_gate("pair_center_cnot", delta_shift_rad_s=0.0), 2),
    "gamma-h-sweep-without-dephasing": ({"gate": {}, "sweep": {"grid": {
        "gamma_h_hz": [0.0, 1e6, 1e9]}}}, 2),
    "string-noise-flag": ({"gate": {"noise": {"lifetimes": "false", "dephasing": "false"}}}, 2),
    "string-export-flag": (small_crystal(export_centers="false"), 2),
    "integer-beyond-double": (small_crystal(n_ensemble=10 ** 400), 2),
    "box-size-above-cap": (small_crystal(box_size=BOX_SIZE_CAP + 1), 4),
    "box-size-of-a-million": (small_crystal(box_size=10 ** 6), 4),
    "sweep-grid-above-cap": (sweep_of(1001, SWEEP_POINTS_CAP // 1000), 4),
    "negative-seed": ({**small_crystal(), "seed": -1}, 2),
    "boolean-seed": ({**small_crystal(), "seed": True}, 2),
    **{f"{key}-{value!r}": (with_number(sec, key, value), 3) for sec, key, value in OVERFLOWING},
}


@pytest.mark.parametrize("doc, code", REJECTED.values(), ids=REJECTED.keys())
def test_validate_rejects_exactly_what_run_rejects(tmp_path, doc, code):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", "--config", str(bad)]) == code
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "out")]) == code
    assert not (tmp_path / "out").exists()


def test_box_size_at_the_cap_validates(tmp_path):
    config = tmp_path / "cap.json"
    config.write_text(json.dumps(small_crystal(box_size=BOX_SIZE_CAP)))
    assert main(["validate", "--config", str(config)]) == 0


def test_sweep_grid_at_the_cap_validates(tmp_path):
    config = tmp_path / "cap.json"
    config.write_text(json.dumps(sweep_of(1000, SWEEP_POINTS_CAP // 1000)))
    assert 1000 * (SWEEP_POINTS_CAP // 1000) == SWEEP_POINTS_CAP
    assert main(["validate", "--config", str(config)]) == 0


def test_dopant_count_above_the_cap_exits_4(tmp_path, capsys):
    # the bundled Nd:CaF2 ensemble at the largest box and full concentration:
    # 10^9 dopants expected, twenty times the cap
    doc = json.loads(Path(config_path("nd_caf2_ensemble")).read_text())
    doc["crystal"].update(box_size=BOX_SIZE_CAP, concentration=1.0)
    assert BOX_SIZE_CAP ** 3 > DOPANT_CAP
    config = tmp_path / "dense.json"
    config.write_text(json.dumps(doc))
    for command in (["validate"], ["run", "--out", str(tmp_path / "out")]):
        assert main([*command, "--config", str(config)]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "expected dopant count" in err
    assert not (tmp_path / "out").exists()
    # the largest box stays open to a dilute crystal, as the test above validates it
    assert 0.05 * BOX_SIZE_CAP ** 3 <= DOPANT_CAP


@pytest.mark.parametrize("absent, null", [
    ({"gate": {}}, {"gate": {"noise": None}}),
    ({"gate": {}}, {"output": None, "gate": {}}),
], ids=["gate.noise", "output"])
def test_null_section_takes_its_default(tmp_path, absent, null):
    outputs = []
    for name, doc in (("absent", absent), ("null", null)):
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(doc))
        assert main(["validate", "--config", str(config)]) == 0
        assert main(["run", "--config", str(config), "--out", str(tmp_path / name)]) == 0
        outputs.append((tmp_path / name / "gate_report.json").read_bytes())
    assert outputs[0] == outputs[1]


def custom_gate(**step):
    """A custom gate of one pi pulse on the control qubit, with step keys set."""
    return {"gate": {"type": "custom", "sequence": [
        {"qubit": "control", "transition": ["1", "1p"], **step}]}}


def user_registry(level=(), transition=(), uk_sq=()):
    """A species registry of one two-level scheme X3+ in Y, with keys of its
    upper level, its transition and the transition's uk_sq set."""
    return {"species": [{"name": "X3+", "host": "Y", "levels": [
        {"term": "a", "energy_cm": 0.0}, {"term": "b", "energy_cm": 100.0, **dict(level)}],
        "transitions": [{"from": "a", "to": "b", "uk_sq": {"2": 0.5, **dict(uk_sq)},
                         **dict(transition)}]}]}


def with_registry(doc, registry, directory):
    """doc with its species section reading registry from a file in directory."""
    path = Path(directory) / "registry.json"
    path.write_text(json.dumps(registry))             # NaN and Infinity as JSON tokens
    return {**doc, "species": {**doc.get("species", {}), "registry_file": str(path)}}


# inputs that each reader rejects, with the path its message names
MALFORMED = {
    "step-qubit-list": (custom_gate(qubit=["control"]), None, "gate.sequence[0].qubit"),
    "step-transition-nested": (custom_gate(transition=[["1"], "1p"]), None,
                               "gate.sequence[0].transition"),
    "step-transition-string": (custom_gate(transition="01"), None,
                               "gate.sequence[0].transition"),
    "step-infinite-rabi": (custom_gate(rabi_rad_s=math.inf), None,
                           "gate.sequence[0].rabi_rad_s must be finite, got inf"),
    "step-fractional-number": (custom_gate(number=1.7), None, "gate.sequence[0].number"),
    "species-host-list": ({"species": {"use": "Nd3+", "host": ["CaF2"]}}, None, "species.host"),
    "registry-file-object": ({"species": {"registry_file": {"species": []}}}, None,
                             "species.registry_file"),
    "registry-file-list": ({"species": {"registry_file": ["x"]}}, None,
                           "species.registry_file"),
    "u2-threshold-true": ({"species": {"use": "Nd3+", "u2_threshold": True}}, None,
                          "species.u2_threshold"),
    "fractional-n-ensemble": (small_crystal(n_ensemble=2.5), None, "crystal.n_ensemble"),
    "fractional-box-size": (small_crystal(box_size=20.9), None, "crystal.box_size"),
    "level-lifetime-string": ({}, user_registry(level={"lifetime_s": "abc"}),
                              "levels[1].lifetime_s"),
    "level-u2-string": ({}, user_registry(level={"u2_diag_sq": "x"}), "levels[1].u2_diag_sq"),
    "level-energy-string": ({}, user_registry(level={"energy_cm": "abc"}),
                            "levels[1].energy_cm"),
    "level-energy-nan": ({}, user_registry(level={"energy_cm": math.nan}),
                         "levels[1].energy_cm must be finite"),
    "level-lifetime-infinite": ({}, user_registry(level={"lifetime_s": math.inf}),
                                "levels[1].lifetime_s must be finite"),
    "transition-rank-x": ({}, user_registry(uk_sq={"x": 0.5}), "transitions[0].uk_sq"),
    "transition-rate-string": ({}, user_registry(transition={"radiative_rate_s": "fast"}),
                               "transitions[0].radiative_rate_s"),
}


@pytest.mark.parametrize("doc, registry, path", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_inputs_exit_2_with_one_diagnostic(tmp_path, capsys, doc, registry, path):
    if registry is not None:
        doc = with_registry(doc, registry, tmp_path)
    config, out = tmp_path / "bad.json", tmp_path / "out"
    config.write_text(json.dumps(doc))
    for command in (["validate", "--config", str(config)],
                    ["run", "--config", str(config), "--out", str(out)]):
        assert main(command) == 2
        err = capsys.readouterr().err
        assert err.startswith("oqcsim: schema: ") and err.count("\n") == 1
        assert path in err
    assert not out.exists()


@pytest.mark.parametrize("key", ["area", "rabi_rad_s", "detuning_rad_s", "gamma_l_hz",
                                 "number"])
def test_null_step_value_takes_its_default(tmp_path, key):
    outputs = []
    for name, doc in (("absent", custom_gate()), ("null", custom_gate(**{key: None}))):
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(doc))
        assert main(["validate", "--config", str(config)]) == 0
        run(config, out_dir=tmp_path / name)
        outputs.append((tmp_path / name / "gate_report.json").read_bytes())
    assert outputs[0] == outputs[1]


def _strict_json(path):
    def reject(token):
        raise ValueError(f"{path.name} holds {token}")
    return json.loads(path.read_text(), parse_constant=reject)


# values that are not numbers: a string, a list, a boolean and null
NOT_A_NUMBER = st.sampled_from(["1e9", [1.0], True, None])

GATE_NUMBER = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, 5e-324,
                                         1e-310, 1e300, 1.7e308]),
                        st.floats(min_value=-1e15, max_value=1e15), NOT_A_NUMBER)


@settings(max_examples=60, deadline=None)
@given(st.fixed_dictionaries({}, optional={
    key: GATE_NUMBER for key in ("rabi_rad_s", "delta_shift_rad_s", "gamma_h_hz",
                                 "gamma_l_hz")}),
       st.fixed_dictionaries({}, optional={
    key: GATE_NUMBER for key in ("area", "rabi_rad_s", "detuning_rad_s", "gamma_l_hz",
                                 "number")}))
# the shift and the pulse detuning sum past the double range on one level
@example({"delta_shift_rad_s": 1.7e308}, {"detuning_rad_s": 1.7e308})
def test_fuzzed_gate_numbers_end_in_contract_codes(fields, step):
    gate = {"type": "canonical_cz", **fields}
    if step:      # the first of two steps of the gate's own sequence
        gate["sequence"] = [{"qubit": "control", "transition": ["1", "1p"], **step},
                            {"qubit": "target", "transition": ["1", "1p"], "area": "2pi"}]
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "gate.json", Path(tmp) / "out"
        config.write_text(json.dumps({"gate": gate}))
        checked = main(["validate", "--config", str(config)])
        code = main(["run", "--config", str(config), "--out", str(out)])
        assert checked in (0, 2, 3, 4) and code in (0, 2, 3, 4)
        if checked:
            assert code == checked and not out.exists()
        else:     # only a gate result that is not finite fails after validate
            assert code in (0, 3)
        for path in out.glob("*.json"):
            _strict_json(path)


SECTION_NUMBERS = {
    "pulses": ("carrier_cm", "radiative_lifetime_s", "gamma_l_hz", "cross_section_cm2",
               "refractive_index", "rei_intensity_factor"),
    "crystal": ("concentration", "gamma_inh_hz", "gamma_h_hz", "pair_radius",
                "channel_min_gap_hz", "center_frequency_hz", "n_ensemble"),
    "interactions": ("c_qq_hz", "c_dd_hz", "kappa", "u2_a", "u2_b"),
    # of user_registry, read through species.registry_file
    "level": ("energy_cm", "lifetime_s", "u2_diag_sq"),
    "transition": ("radiative_rate_s",),
    "uk_sq": ("2", "4", "6"),
}

EXTREME_NUMBER = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, 5e-324, 1e-310, 1e-200,
                     1e100, 1e200, 1e300, 1.7e308]),
    st.floats(min_value=-1e15, max_value=1e15), NOT_A_NUMBER)


@settings(max_examples=120, deadline=None)
@given(st.lists(st.sampled_from([(sec, key) for sec, keys in SECTION_NUMBERS.items()
                                 for key in keys]), min_size=1, max_size=3, unique=True)
       .flatmap(lambda keys: st.tuples(st.just(keys),
                                       st.lists(EXTREME_NUMBER, min_size=len(keys),
                                                max_size=len(keys)))))
def test_fuzzed_section_numbers_end_in_contract_codes(case):
    keys, values = case
    doc, registry = small_ensemble_run(), {"level": {}, "transition": {}, "uk_sq": {}}
    for (sec, key), value in zip(keys, values):
        (registry if sec in registry else doc)[sec][key] = value
    with tempfile.TemporaryDirectory() as tmp:
        doc = with_registry(doc, user_registry(**registry), tmp)
        config, out = Path(tmp) / "ensemble.json", Path(tmp) / "out"
        config.write_text(json.dumps(doc))
        checked = main(["validate", "--config", str(config)])     # no exception escapes
        code = main(["run", "--config", str(config), "--out", str(out)])
        assert checked in (0, 2, 3, 4) and code in (0, 2, 3, 4)
        if checked:
            assert code == checked and not out.exists()
        for path in out.glob("*.json"):
            _strict_json(path)


@pytest.mark.parametrize("sec, key, value", OVERFLOWING)
def test_numbers_out_of_double_range_exit_3(tmp_path, capsys, sec, key, value):
    config = tmp_path / "big.json"
    config.write_text(json.dumps(with_number(sec, key, value)))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("oqcsim: domain: ") and err.count("\n") == 1


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run(config_path("nd_caf2_ensemble"), out_dir=a)
    run(config_path("nd_caf2_ensemble"), out_dir=b)
    files = {p.name for p in a.iterdir()} - {"manifest.json"}   # manifest has wall clock
    assert files
    for name in sorted(files):
        assert filecmp.cmp(a / name, b / name, shallow=False), name


def test_seed_override_changes_samples(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run(config_path("nd_caf2_ensemble"), out_dir=a)
    run(config_path("nd_caf2_ensemble"), out_dir=b, seed=1234)
    assert not filecmp.cmp(a / "centers.csv", b / "centers.csv", shallow=False)
    man = json.loads((b / "manifest.json").read_text())
    assert man["seed"] == 1234


def test_seed_override_supplies_a_missing_seed(tmp_path):
    doc = json.loads(Path(config_path("nd_caf2_ensemble")).read_text())
    del doc["seed"]
    config, out = tmp_path / "noseed.json", tmp_path / "out"
    config.write_text(json.dumps(doc))
    assert main(["validate", "--config", str(config)]) == 2
    assert main(["run", "--config", str(config), "--seed", "7", "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] == 7


def test_pair_center_gate_reads_gate_target(tmp_path):
    config = tmp_path / "identity.json"
    config.write_text(json.dumps(bundled_with_gate("pair_center_cnot", gate_target="identity")))
    run(config, out_dir=tmp_path / "out")
    report = json.loads((tmp_path / "out" / "gate_report.json").read_text())
    assert report["gate_target"] == "identity"


def test_run_builds_one_register_for_report_trajectory_and_sweep(tmp_path, monkeypatch):
    # the gate report, the trajectory and the sweep of a noisy pair-center
    # gate share the base's register, so its Lindblad blocks are computed
    # once per distinct driven transition
    doc = json.loads(Path(config_path("pair_center_cnot")).read_text())
    doc["gate"].update(noise={"lifetimes": True, "dephasing": True}, gamma_h_hz=1e6,
                       export_trajectory=True)
    doc["sweep"] = {"grid": {"delta_over_omega": [1.0, 4.0, 16.0],
                             "gamma_h_hz": [0.0, 1e6]}}
    config = tmp_path / "noisy.json"
    config.write_text(json.dumps(doc))
    calls = {"scenario_system": 0, "_connected_blocks": 0}

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    counting(gates, "scenario_system")
    counting(dynamics, "_connected_blocks")
    manifest = run(config, out_dir=tmp_path / "out")
    assert manifest["counters"] == {"sweep_points_ok": 6, "sweep_points_error": 0}
    assert set(manifest["outputs"]) == {"gate_report", "trajectory", "sweep"}
    # the sequence drives (1, 1p) of the control and of the target
    assert calls == {"scenario_system": 1, "_connected_blocks": 2}


def write_sweep_reference(path, table):
    """The table written by csv.writer: the reprs of the swept values, of
    an ok row's report fields, and the status."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*table.keys, *gates.METRICS, "status"])
        for values, metrics, status in zip(table.values.tolist(), table.metrics.tolist(),
                                           table.status, strict=True):
            metrics = map(repr, metrics) if status == "ok" else [""] * len(metrics)
            writer.writerow([*map(repr, values), *metrics, status])


@pytest.mark.parametrize("values", [
    [math.nan, math.inf, -math.inf, -0.0, 5e-324],
    [0.25, 1e300, -1e-300, 3.0, 1.0],
])
def test_sweep_csv_equals_csv_writer(tmp_path, monkeypatch, values):
    # the swept values (delta_over_omega, rabi_rad_s) and status of each row;
    # an error row's report fields are NaN in the table
    rows = [((2.0, -0.0), "ok"),
            ((math.nan, 5e-324), "error: bad point, twice"),
            ((math.inf, -math.inf), 'error: "quoted", with a comma'),
            ((1e300, 1.0), 'error: "just quoted"'),
            ((-1.5, 2.0), "error: line\r\nbreaks\n"),
            ((7.0, 1e-310), "ok")]
    table = gates.SweepTable(
        ("delta_over_omega", "rabi_rad_s"), np.array([point for point, _ in rows]),
        np.array([values if status == "ok" else [math.nan] * 5 for _, status in rows]),
        [status for _, status in rows])
    monkeypatch.setattr(runner, "run_sweep", lambda base, grid, jobs: table)
    path, reference = tmp_path / "sweep.csv", tmp_path / "reference.csv"
    assert runner._run_sweep_csv(None, dict.fromkeys(table.keys), path, 1) == 2
    write_sweep_reference(reference, table)
    assert path.read_bytes() == reference.read_bytes()


def test_sweep_csv_of_a_run_with_both_zeros_equals_csv_writer(tmp_path):
    # 0.0 == -0.0, so formatting each value once and reusing it by value would
    # write one zero for both; the Rabi zeros make error rows with no metrics
    grid = {"delta_over_omega": [0.0, -0.0, 3.0, 8.0],
            "rabi_rad_s": [6.283185307179586e9, -0.0, 0.0, 1.3e10]}
    config = tmp_path / "zeros.json"
    config.write_text(json.dumps({"gate": {}, "sweep": {"grid": grid}}))
    run(config, out_dir=tmp_path / "out")
    table = gates.sweep(load_config(config).gate.scenario, grid)
    assert set(table.status) == {"ok", "error: Rabi frequency must be > 0"}
    reference = tmp_path / "reference.csv"
    write_sweep_reference(reference, table)
    written = (tmp_path / "out" / "sweep.csv").read_bytes()
    assert written == reference.read_bytes()
    assert b"\r\n-0.0,-0.0," in written and b"\r\n0.0,0.0," in written


def test_manifest_counts_sweep_points(tmp_path):
    run(config_path("blockade_cz_sweep"), out_dir=tmp_path / "a")
    counters = json.loads((tmp_path / "a" / "manifest.json").read_text())["counters"]
    assert counters == {"sweep_points_ok": 8, "sweep_points_error": 0}

    config = tmp_path / "mixed.json"
    config.write_text(json.dumps({"gate": {}, "sweep": {"grid": {
        "rabi_rad_s": [-1.0, 0.0, 6.283185307179586e9]}}}))
    run(config, out_dir=tmp_path / "b")
    counters = json.loads((tmp_path / "b" / "manifest.json").read_text())["counters"]
    assert counters == {"sweep_points_ok": 1, "sweep_points_error": 2}


ERROR_ROW_CONFIGS = Path(__file__).parent / "configs"

# the status column of each error-row config's sweep.csv, in grid order
FINITE = "error: Rabi frequency, shift and gamma_h must be finite"
POSITIVE = "error: Rabi frequency must be > 0"
NON_NEGATIVE = "error: gamma_h must be >= 0"
PULSES = "error: pulse parameters and duration must be finite"
NON_FINITE_MATRIX = "error: matrix exponential of a non-finite matrix"
NORM = "error: matrix exponential: the matrix norm overflows"
ERROR_ROW_STATUSES = {
    "error_rows_canonical": ["ok", POSITIVE, POSITIVE, PULSES,
                             FINITE, POSITIVE, POSITIVE, PULSES],
    "error_rows_noisy": ["ok", NORM, NON_NEGATIVE, NON_NEGATIVE,
                         NON_FINITE_MATRIX, NON_FINITE_MATRIX,
                         FINITE, NORM, NON_NEGATIVE, NON_NEGATIVE,
                         FINITE, NON_FINITE_MATRIX],
}


def test_error_row_configs_are_the_pinned_ones():
    assert sorted(p.stem for p in ERROR_ROW_CONFIGS.glob("*.json")) == sorted(ERROR_ROW_STATUSES)


@pytest.mark.parametrize("name", sorted(ERROR_ROW_STATUSES))
def test_error_row_configs_keep_their_statuses(tmp_path, name):
    # a grid point of each kind a sweep rejects, through oqcsim run
    config = ERROR_ROW_CONFIGS / f"{name}.json"
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "sweep.csv", newline="") as fh:
        statuses = [row["status"] for row in csv.DictReader(fh)]
    assert statuses == ERROR_ROW_STATUSES[name]


def test_bundled_csv_outputs_are_finite(tmp_path):
    # the error-row sweeps leave the metric cells of their error rows blank
    for config in [*map(config_path, BUNDLED), *sorted(ERROR_ROW_CONFIGS.glob("*.json"))]:
        run(config, out_dir=tmp_path / Path(config).stem)
    tables = sorted(tmp_path.glob("*/*.csv"))
    assert {p.name for p in tables} >= {"sweep.csv", "trajectory.csv"}
    assert len([p for p in tables if p.name == "sweep.csv"]) == 3
    for path in tables:
        rows = list(csv.reader(path.read_text().splitlines()))
        assert {len(row) for row in rows} == {len(rows[0])}, f"{path.parent.name}/{path.name}"
        for row in rows:
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue                 # header or status text
                assert math.isfinite(value), f"{path.parent.name}/{path.name}: {cell}"


def test_cli_run_and_species_and_pulse_calc(tmp_path, capsys):
    assert main(["run", "--config", config_path("pulse_budget_ns_emitter"),
                 "--out", str(tmp_path / "out")]) == 0
    assert json.loads(capsys.readouterr().out)["outputs"] == {
        "pulse_report": "pulse_report.json"}
    assert main(["run", "--config", config_path("pulse_budget_ns_emitter"),
                 "--out", str(tmp_path / "out2"), "--format", "csv"]) == 0
    assert capsys.readouterr().out.strip() == "pulse_report,pulse_report.json"
    assert main(["species", "list"]) == 0
    out = capsys.readouterr().out
    assert "Tm3+" in out and "Nd3+" in out
    assert main(["pulse-calc", "--carrier-cm", "20000", "--lifetime-ns", "1.5",
                 "--gamma-l", "1e9", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["intensity_w_cm2"] == pytest.approx(100.0, rel=1e-12)


PULSE_CALC = ["pulse-calc", "--lifetime-ns", "1.5", "--gamma-l", "1e9"]


@pytest.mark.parametrize("carrier, spaced, message", [
    ("-1", False, "spectroscopic quantities must be non-negative"),
    ("nan", False, "spectral value must be finite, got nan"),
    ("inf", False, "spectral value must be finite, got inf"),
    ("-inf", False, "spectral value must be finite, got -inf"),
    ("0", False, "k and Gamma_L must be > 0"),
    ("1e300", False, "spectral value must be finite, got inf"),
    # a value after the option, as its own token, that argparse alone reads
    # as an option because it starts with "-"
    ("-1e5", True, "spectroscopic quantities must be non-negative"),
    ("-inf", True, "spectral value must be finite, got -inf"),
    ("-nan", True, "spectral value must be finite, got nan"),
], ids=["-1", "nan", "inf", "-inf", "0", "1e300", "-1e5-spaced", "-inf-spaced",
        "-nan-spaced"])
def test_pulse_calc_rejects_carrier(capsys, carrier, spaced, message):
    option = ["--carrier-cm", carrier] if spaced else [f"--carrier-cm={carrier}"]
    assert main([*PULSE_CALC, *option]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"oqcsim: domain: {message}\n"


@pytest.mark.parametrize("option, message", [
    ("--lifetime-ns=nan", "radiative lifetime must be > 0"),
    ("--gamma-l=nan", "k and Gamma_L must be > 0"),
    ("--n=nan", "refractive index must be >= 1"),
    ("--cross-section-cm2=nan", "cross section must be > 0"),
], ids=["lifetime", "gamma-l", "n", "cross-section"])
def test_pulse_calc_rejects_nan(capsys, option, message):
    assert main([*PULSE_CALC, "--carrier-cm=11500", option]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"oqcsim: domain: {message}\n"


@pytest.mark.parametrize("fmt, expected", [
    ("json", '{\n  "intensity_w_cm2": 100.0,\n  "peak_field_v_cm": 274.4813290553658,\n'
             '  "pulse_energy_j": 9.999999999999998e-15\n}\n'),
    ("csv", "quantity,value\nintensity_w_cm2,100.0\npulse_energy_j,9.999999999999998e-15\n"
            "peak_field_v_cm,274.4813290553658\n"),
    ("text", "intensity   100 W/cm^2\nenergy      1e-14 J\npeak field  274.481 V/cm\n"),
], ids=["json", "csv", "text"])
def test_pulse_calc_worked_example_output(capsys, fmt, expected):
    assert main([*PULSE_CALC, "--carrier-cm", "20000", "--format", fmt]) == 0
    assert capsys.readouterr() == (expected, "")


def test_species_validate_cli(capsys):
    assert main(["species", "validate", "Tm3+"]) == 0
    assert "pass" in capsys.readouterr().out


@pytest.mark.parametrize("threshold, spaced", [
    ("nan", False), ("inf", False), ("-inf", False), ("-inf", True), ("-nan", True),
], ids=["nan", "inf", "-inf", "-inf-spaced", "-nan-spaced"])
def test_species_validate_rejects_a_threshold_that_is_not_finite(capsys, threshold, spaced):
    # every comparison with NaN is false, so a NaN threshold would pass every level
    option = ["--threshold", threshold] if spaced else [f"--threshold={threshold}"]
    assert main(["species", "validate", "Tm3+", *option]) == 2
    message = f"U(2) threshold must be finite, got {float(threshold)!r}"
    assert capsys.readouterr() == ("", f"oqcsim: schema: {message}\n")


def test_emit_plot_kinds(tmp_path):
    results = tmp_path / "res"
    run(config_path("blockade_cz_sweep"), out_dir=results)
    fvd = tmp_path / "fvd.csv"
    emit_plot_data(results, "fidelity-vs-delta", fvd)
    lines = fvd.read_text().splitlines()
    assert lines[0] == "x,y,series"
    assert len(lines) == 9

    pvt = tmp_path / "pvt.csv"
    emit_plot_data(results, "population-vs-time", pvt)
    assert pvt.read_text().splitlines()[0] == "x,y,series"

    nd = tmp_path / "nd"
    run(config_path("nd_caf2_ensemble"), out_dir=nd)
    spec_csv = tmp_path / "spec.csv"
    emit_plot_data(nd, "spectrum", spec_csv)
    first = spec_csv.read_text().splitlines()[0]
    assert first.startswith("# fwhm_hz=")
    fwhm = float(first.split("=")[1])
    assert fwhm == pytest.approx(1e12, rel=0.15)

    assert main(["emit-plot", "--kind", "spectrum", "--results", str(nd),
                 "--out", str(tmp_path / "s2.csv")]) == 0

    # each table, the spectrum's comment line aside, holds the bytes csv.writer
    # writes for the rows read back from it
    for path in (fvd, pvt, spec_csv):
        table = path.read_bytes()
        if table.startswith(b"#"):
            table = table.split(b"\n", 1)[1]
        rewritten = io.StringIO(newline="")
        csv.writer(rewritten).writerows(csv.reader(io.StringIO(table.decode(), newline="")))
        assert rewritten.getvalue().encode() == table, path.name


def test_emit_plot_empty_results_header_only(tmp_path):
    results = tmp_path / "res"
    results.mkdir()
    (results / "sweep.csv").write_text(
        "delta_over_omega,truth_table_fidelity,average_fidelity,infidelity,"
        "leakage,cz_phase_rad,status\n")
    out = tmp_path / "empty.csv"
    emit_plot_data(results, "fidelity-vs-delta", out)
    assert out.read_text().splitlines() == ["x,y,series"]


@pytest.mark.parametrize("row", ["0.0,1.0", "0.0,1.0,0.0,5.0"], ids=["short", "long"])
def test_emit_plot_rejects_a_ragged_table(tmp_path, capsys, row):
    (tmp_path / "trajectory.csv").write_text(f"time_s,pop_0,pop_1\n0.0,1.0,0.0\n{row}\n")
    assert main(["emit-plot", "--kind", "population-vs-time", "--results", str(tmp_path),
                 "--out", str(tmp_path / "p.csv")]) == 2
    message = f"{tmp_path / 'trajectory.csv'}: a row's field count differs from the header's"
    assert capsys.readouterr() == ("", f"oqcsim: schema: {message}\n")


def one_line_error(capsys, kind="schema") -> str:
    """The one stderr line of a failed command, after "oqcsim: <kind>: "."""
    captured = capsys.readouterr()
    assert captured.out == ""
    prefix = f"oqcsim: {kind}: "
    assert captured.err.startswith(prefix) and captured.err.count("\n") == 1, captured.err
    return captured.err[len(prefix):-1]


def test_emit_plot_unknown_kind(tmp_path, capsys):
    assert main(["emit-plot", "--kind", "mystery", "--results", str(tmp_path),
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert one_line_error(capsys).startswith("argument --kind: invalid choice: 'mystery'")


@pytest.mark.parametrize("argv, message", [
    (["run", "--config", "c.json", "--seed", "-1e5"], "argument --seed: invalid int value: '-1e5'"),
    (["run", "--config", "c.json", "--seed=abc"], "argument --seed: invalid int value: 'abc'"),
    (["run"], "the following arguments are required: --config"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
], ids=["seed-float", "seed-text", "run-without-config", "unknown-command"])
def test_usage_errors_exit_2_with_one_line(capsys, argv, message):
    assert main(argv) == 2
    assert one_line_error(capsys).startswith(message)


@pytest.mark.parametrize("option", ["--help", "--version"])
def test_help_and_version_exit_0(capsys, option):
    with pytest.raises(SystemExit) as exc:
        main([option])
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_species_validate_unknown_species_is_not_quoted(capsys):
    assert main(["species", "validate", "Xx"]) == 2
    assert capsys.readouterr() == ("", "oqcsim: schema: unknown species 'Xx'\n")


def _not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"note": "\u00e9"}'.encode("latin-1"))
    return path


def _results_not_utf8(tmp_path):
    (tmp_path / "sweep.csv").write_bytes(b"delta_over_omega,infidelity,status\n\xff,0.1,ok\n")
    return tmp_path / "sweep.csv"


def _a_file(tmp_path):
    path = tmp_path / "file"
    path.write_text("")
    return path


def _write(name, text):
    def make(tmp_path):
        (tmp_path / name).write_text(text)
        return tmp_path / name
    return make


PULSE_CONFIG = config_path("pulse_budget_ns_emitter")
PLOT = ["emit-plot", "--kind", "fidelity-vs-delta", "--results", "DIR", "--out", "DIR/plot.csv"]

# inputs that end in an exception other than a contract error unless caught:
# the argv of a command that reads them, with PATH standing for the path the
# second entry makes and DIR for its directory, and the message after PATH
UNREADABLE = {
    "config-directory": (["validate", "--config", "PATH"], lambda tmp: tmp, ": Is a directory"),
    "config-missing": (["validate", "--config", "PATH"], lambda tmp: tmp / "absent.json",
                       ": No such file or directory"),
    "config-not-utf8": (["validate", "--config", "PATH"], _not_utf8,
                        ": 'utf-8' codec can't decode byte 0xe9"),
    "registry-not-utf8": (["species", "list", "--registry", "PATH"], _not_utf8,
                          ": 'utf-8' codec can't decode byte 0xe9"),
    "config-nested-too-deep": (["validate", "--config", "PATH"],
                               _write("deep.json", "[" * 100_000 + "]" * 100_000),
                               ": maximum recursion depth exceeded while decoding"),
    "config-integer-too-long": (["validate", "--config", "PATH"],
                                _write("long.json", '{"seed": ' + "1" * 5000 + "}"),
                                ": Exceeds the limit (4300 digits) for integer string"),
    "out-is-a-file": (["run", "--config", PULSE_CONFIG, "--out", "PATH"], _a_file,
                      ": File exists"),
    "out-below-a-file": (["run", "--config", PULSE_CONFIG, "--out", "PATH"],
                         lambda tmp: _a_file(tmp) / "sub", ": Not a directory"),
    "results-not-utf8": (PLOT, _results_not_utf8, ": 'utf-8' codec can't decode byte 0xff"),
    "results-field-too-large": (PLOT, _write("sweep.csv", "status\n" + "x" * 200_000 + "\n"),
                                ": field larger than field limit"),
}


@pytest.mark.parametrize("argv, make, message", UNREADABLE.values(), ids=UNREADABLE.keys())
def test_unreadable_inputs_exit_2_with_one_line(tmp_path, capsys, argv, make, message):
    path = make(tmp_path)
    assert main([arg.replace("PATH", str(path)).replace("DIR", str(path.parent))
                 for arg in argv]) == 2
    assert one_line_error(capsys).startswith(f"{path}{message}")


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.binary(max_size=64),
                 st.recursive(st.none() | st.booleans() | st.floats() | st.integers()
                              | st.text(max_size=8),
                              lambda inner: st.lists(inner, max_size=3)
                              | st.dictionaries(st.sampled_from(sorted(runner.KNOWN_SECTIONS)
                                                                + ["x"]), inner, max_size=3),
                              max_leaves=8).map(lambda doc: json.dumps(doc).encode())))
def test_arbitrary_bytes_end_in_contract_codes(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_bytes(data)
        for argv in (["validate", "--config", str(path)],
                     ["run", "--config", str(path), "--out", str(Path(tmp) / "out")],
                     ["species", "list", "--registry", str(path)]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 2, 3, 4)
            assert err.getvalue().count("\n") == (code != 0), err.getvalue()


def big_sweep_config(tmp_path) -> Path:
    """The bundled blockade sweep on a 250 x 14 = 3500-point grid: five chunks."""
    doc = json.loads(Path(config_path("blockade_cz_sweep")).read_text())
    doc["sweep"]["grid"] = {
        "delta_over_omega": [1.0 + 0.4 * k for k in range(250)],
        "rabi_rad_s": [2 * math.pi * 1e8 * (k + 1) for k in range(14)]}
    doc["gate"]["export_trajectory"] = False
    config = tmp_path / "big.json"
    config.write_text(json.dumps(doc))
    base = load_config(config).gate.scenario
    assert -(-3500 // chunk_points(base)) == 5
    return config


@pytest.fixture
def recording_pool(monkeypatch):
    """The worker counts of the sweep pools started; no process is started."""
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(gates, "ProcessPoolExecutor", RecordingPool)
    return started


@pytest.mark.parametrize("jobs, cpus, expected", [(1000, 64, 5), (1000, 3, 3), (2, 64, 2)])
def test_sweep_workers_clamped(tmp_path, monkeypatch, recording_pool, jobs, cpus, expected):
    monkeypatch.setattr(gates.os, "cpu_count", lambda: cpus)
    run(big_sweep_config(tmp_path), out_dir=tmp_path / "out", jobs=jobs)
    assert recording_pool == [expected]


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_rejected(tmp_path, capsys, jobs):
    config = config_path("blockade_cz_sweep")
    with pytest.raises(ValidationError, match="jobs must be at least 1"):
        run(config, out_dir=tmp_path / "api", jobs=jobs)
    out = tmp_path / "cli"
    assert main(["run", "--config", config, "--out", str(out), "--jobs", str(jobs)]) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert not (tmp_path / "api").exists() and not out.exists()


def test_one_chunk_sweep_starts_no_pool(tmp_path, monkeypatch, recording_pool):
    monkeypatch.setattr(gates.os, "cpu_count", lambda: 64)
    run(config_path("blockade_cz_sweep"), out_dir=tmp_path, jobs=2)      # 8 points
    assert recording_pool == []


# A sweep run in a fresh interpreter, and the rise of its peak resident set
# (VmHWM) over the value just before the run, in MB.  ru_maxrss would not do:
# a forked child starts with the peak of the process that forked it.
SWEEP_PEAK_RISE = """
import json, sys
from oqcsim import runner

def peak_mb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024

before = peak_mb()
manifest = runner.run(sys.argv[1], sys.argv[2])
print(json.dumps({"rise_mb": peak_mb() - before, "counters": manifest["counters"]}))
"""

# The rise a 100,000-point closed sweep may cause.  Holding one dict per point
# until sweep.csv was written, the rise was about 147 MB; the table of columns
# and the blocks of rows it is written in take about 15 MB.
SWEEP_PEAK_RISE_MB = 48


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="VmHWM is read from /proc")
def test_large_sweep_memory_is_bounded(tmp_path):
    doc = json.loads(Path(config_path("blockade_cz_sweep")).read_text())
    doc["gate"]["export_trajectory"] = False
    doc["sweep"]["grid"] = {"delta_over_omega": [1.0 + 0.5 * k for k in range(250)],
                            "rabi_rad_s": [2 * math.pi * 1e8 * (k + 1) for k in range(400)]}
    config = tmp_path / "large.json"
    config.write_text(json.dumps(doc))
    result = subprocess.run([sys.executable, "-c", SWEEP_PEAK_RISE, str(config),
                             str(tmp_path / "out")], capture_output=True, text=True,
                            check=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
    measured = json.loads(result.stdout)
    assert measured["counters"] == {"sweep_points_ok": 100_000, "sweep_points_error": 0}
    assert measured["rise_mb"] < SWEEP_PEAK_RISE_MB


def test_sweep_jobs_parallel_matches_serial(tmp_path):
    serial, parallel = tmp_path / "s", tmp_path / "p"
    run(config_path("blockade_cz_sweep"), out_dir=serial, jobs=1)
    run(config_path("blockade_cz_sweep"), out_dir=parallel, jobs=2)
    assert (serial / "sweep.csv").read_text() == (parallel / "sweep.csv").read_text()


def test_sweep_jobs_parallel_matches_serial_across_chunks(tmp_path):
    # the same five chunks of the 280-point grid, in one process or spread over two
    config = big_sweep_config(tmp_path)
    serial, parallel = tmp_path / "s", tmp_path / "p"
    run(config, out_dir=serial, jobs=1)
    run(config, out_dir=parallel, jobs=2)
    assert (serial / "sweep.csv").read_text() == (parallel / "sweep.csv").read_text()
