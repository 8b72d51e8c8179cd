import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oqcsim import gates
from oqcsim.errors import OqcsimError, ValidationError
from oqcsim.gates import (CHUNK, COMPUTATIONAL, GateScenario, NoiseFlags, QubitScheme,
                          _computational, _group_pulses, _stacked_propagators,
                          canonical_blockade_sequence, grid_chunks, pair_center_scenario,
                          point_scenario, protocol_sequence, run_protocol, scenario_system,
                          swap_roles, sweep)
from oqcsim.interactions import dipole_shift
from oqcsim.paircenter import PairParams
from oqcsim.pulses import PulseSequence, build_sequence
from oqcsim.dynamics import PulseArrays, sequence_unitary

OMEGA = 2 * math.pi * 1e9


def blockade_scenario(delta_over_omega, noise=NoiseFlags(), gamma_h=0.0, **kw):
    return GateScenario(control=QubitScheme("control"), target=QubitScheme("target"),
                        rabi=OMEGA, delta_shift=delta_over_omega * OMEGA,
                        gamma_h=gamma_h, noise=noise, **kw)


def test_canonical_sequence_shape():
    seq = canonical_blockade_sequence(blockade_scenario(10))
    assert [n for n, _ in seq] == [1, 2, 3]
    qubits = [p.qubit for p in seq.specs()]
    areas = [p.pulse_area for p in seq.specs()]
    assert qubits == ["control", "target", "control"]
    assert areas == pytest.approx([math.pi, 2 * math.pi, math.pi])


def test_strong_blockade_is_exact_cz():
    report = run_protocol(blockade_scenario(1e7))
    assert report.average_fidelity > 1 - 1e-9
    assert abs(abs(report.cz_phase) - math.pi) < 1e-5
    assert report.leakage < 1e-9
    assert report.truth_table_fidelity > 1 - 1e-12


def test_no_blockade_gives_trivial_phase():
    report = run_protocol(blockade_scenario(0.0))
    assert abs(report.cz_phase) < 1e-6
    # populations are perfect, the gate just is not entangling
    assert report.truth_table_fidelity == pytest.approx(1.0, abs=1e-12)


def test_moderate_blockade_truth_table():
    report = run_protocol(blockade_scenario(10.0))
    assert report.truth_table_fidelity > 0.97


def test_average_fidelity_at_delta_20():
    report = run_protocol(blockade_scenario(20.0))
    assert report.average_fidelity >= 0.99


def test_truth_table_rows_balance_with_leakage():
    report = run_protocol(blockade_scenario(5.0))
    for row in report.truth_table:
        assert all(0.0 <= x <= 1.0 for x in row)
        assert sum(row) <= 1.0 + 1e-9
    assert 0.0 <= report.leakage <= 1.0


def test_identity_sequence_scores_identity():
    scenario = blockade_scenario(10.0, sequence=PulseSequence(()),
                                 gate_target="identity")
    report = run_protocol(scenario)
    assert np.allclose(report.truth_table, np.eye(4))
    assert report.truth_table_fidelity == 1.0
    assert report.average_fidelity == pytest.approx(1.0, abs=1e-12)


def test_noiseless_computational_map_unitary_when_leakage_small():
    scenario = blockade_scenario(1e5)
    system = scenario_system(scenario)
    u = sequence_unitary(system, canonical_blockade_sequence(scenario))
    comp = [system.basis_index({"control": c, "target": t}) for c, t in COMPUTATIONAL]
    m = u[np.ix_(comp, comp)]
    assert np.max(np.abs(m.conj().T @ m - np.eye(4))) < 1e-6


def test_truth_table_one_implies_average_one():
    # noiseless, blockade deep enough that populations are exact
    report = run_protocol(blockade_scenario(1e7))
    assert report.truth_table_fidelity > 1 - 1e-12
    assert report.average_fidelity > 1 - 1e-9


def test_superoperator_path_matches_unitary_at_zero_rates():
    # noise switches on but all rates zero: the channel route must score
    # identically to the state-vector route
    base = run_protocol(blockade_scenario(20.0))
    channel = run_protocol(blockade_scenario(
        20.0, noise=NoiseFlags(lifetimes=True, dephasing=True), gamma_h=0.0))
    assert channel.average_fidelity == pytest.approx(base.average_fidelity, abs=1e-12)
    assert channel.cz_phase == pytest.approx(base.cz_phase, abs=1e-10)
    assert np.allclose(channel.truth_table, base.truth_table, atol=1e-12)


def test_dephasing_strictly_lowers_fidelity():
    base = run_protocol(blockade_scenario(20.0))
    pulse_duration = math.pi / OMEGA
    noisy = run_protocol(blockade_scenario(
        20.0, noise=NoiseFlags(dephasing=True), gamma_h=0.1 / pulse_duration))
    assert noisy.noisy and not base.noisy
    assert noisy.average_fidelity < base.average_fidelity


def test_lifetime_noise_strictly_lowers_fidelity():
    # qubit level |1> decays toward the ground/auxiliary level during the gate
    base = blockade_scenario(20.0)
    decaying = GateScenario(
        control=QubitScheme("control", lifetimes={"1": 20e-9}),
        target=QubitScheme("target", lifetimes={"1": 20e-9}),
        rabi=OMEGA, delta_shift=20.0 * OMEGA, noise=NoiseFlags(lifetimes=True))
    assert run_protocol(decaying).average_fidelity < run_protocol(base).average_fidelity


def test_infidelity_envelope_slope_is_quadratic():
    xs = np.geomspace(3.0, 100.0, 16)
    infid = np.array([1 - run_protocol(blockade_scenario(x)).average_fidelity
                      for x in xs])
    slope = np.polyfit(np.log10(xs), np.log10(infid), 1)[0]
    assert -2.2 <= slope <= -1.8


def test_swap_roles_symmetric_scenario():
    s = blockade_scenario(13.0)
    assert run_protocol(swap_roles(s)).average_fidelity == pytest.approx(
        run_protocol(s).average_fidelity, rel=1e-12)


def test_sweep_single_point_equals_run_protocol():
    rows = sweep(blockade_scenario(0.0), {"delta_over_omega": [15.0]})
    direct = run_protocol(blockade_scenario(15.0))
    assert len(rows) == 1
    assert rows[0]["status"] == "ok"
    assert rows[0]["average_fidelity"] == pytest.approx(direct.average_fidelity)


def test_sweep_continues_past_failures():
    # 1e300 * Omega overflows the shift to infinity, which the scenario rejects
    rows = sweep(blockade_scenario(0.0), {"delta_over_omega": [10.0, 1e300],
                                          "rabi_rad_s": [-OMEGA, OMEGA]})
    assert [r["status"] for r in rows] == [
        "error: Rabi frequency must be > 0", "ok",
        "error: Rabi frequency must be > 0",
        "error: Rabi frequency, shift and gamma_h must be finite"]


def test_sweep_deterministic_ordering():
    grid = {"delta_over_omega": [5.0, 10.0], "rabi_rad_s": [OMEGA]}
    rows = sweep(blockade_scenario(0.0), grid)
    assert [r["delta_over_omega"] for r in rows] == [5.0, 10.0]


def reference_row(base, point):
    """One sweep row from the single-run path: run_protocol alone."""
    row = dict(point)
    try:
        report = run_protocol(point_scenario(base, point))
    except (OqcsimError, ValueError) as exc:
        row["status"] = f"error: {exc}"
        return row
    row.update({"truth_table_fidelity": report.truth_table_fidelity,
                "average_fidelity": report.average_fidelity,
                "infidelity": 1.0 - report.average_fidelity,
                "leakage": report.leakage,
                "cz_phase_rad": report.cz_phase,
                "status": "ok"})
    return row


def sweep_bases():
    canonical = blockade_scenario(10.0)
    p = PairParams(11530.0, 0.5, 5.0)
    custom = replace(canonical, sequence=build_sequence([
        {"qubit": "control", "transition": ["1", "1p"], "rabi_rad_s": 0.8 * OMEGA},
        {"qubit": "target", "transition": ["1", "1p"], "area": "2pi",
         "detuning_rad_s": 0.1 * OMEGA},
        {"qubit": "control", "transition": ["1", "1p"], "rabi_rad_s": 0.8 * OMEGA},
    ], canonical.qubit_levels()))
    return {"canonical": canonical,
            "pair_center": pair_center_scenario(p, p, distance=1.5, rabi=OMEGA),
            "noisy_pair_center": pair_center_scenario(
                p, p, distance=1.5, rabi=OMEGA, tau_single=2e-8, gamma_h=1e6,
                noise=NoiseFlags(lifetimes=True, dephasing=True)),
            "custom": custom}


BASES = sweep_bases()

# grid values that fail their point: a Rabi frequency of 0 or below, a
# shift that overflows, and (for the canonical sequence, whose durations
# it makes infinite) a Rabi frequency of 1e-310
BAD_VALUES = {"rabi_rad_s": [0.0, -OMEGA, 1e-310], "delta_over_omega": [1e300]}


def grid_keys(base):
    """Sweepable keys that have an effect on base, the shift key first."""
    keys = ["delta_over_omega"]
    if base.sequence is None:
        keys.append("rabi_rad_s")
    if base.noise.dephasing:
        keys.append("gamma_h_hz")
    return keys


@st.composite
def sweep_cases(draw, bases=tuple(sorted(BASES)), bad_values=True):
    base = BASES[draw(st.sampled_from(bases))]
    keys = grid_keys(base)
    if draw(st.booleans()):
        keys[0] = "delta_shift_rad_s"
    size = draw(st.sampled_from([1, 3, CHUNK - 1, CHUNK, CHUNK + 1]))
    # split size into one list length per key
    lengths, rest = {}, size
    for key in draw(st.permutations(keys))[:-1]:
        lengths[key] = draw(st.sampled_from([d for d in range(1, rest + 1) if rest % d == 0]))
        rest //= lengths[key]
    values = {"delta_over_omega": st.floats(0.0, 300.0),
              "delta_shift_rad_s": st.floats(0.0, 300.0 * OMEGA),
              "rabi_rad_s": st.floats(0.2 * OMEGA, 5.0 * OMEGA),
              "gamma_h_hz": st.one_of(st.just(0.0), st.floats(1e3, 1e9))}
    grid = {}
    for key in keys:
        n = lengths.get(key, rest)
        grid[key] = draw(st.lists(values[key], min_size=n, max_size=n))
        if bad_values and key in BAD_VALUES:
            bad = draw(st.dictionaries(st.integers(0, n - 1), st.sampled_from(BAD_VALUES[key]),
                                       max_size=2))
            for i, value in bad.items():
                grid[key][i] = value
    return base, grid


def assert_rows_equal_single_runs(base, grid):
    rows = sweep(base, grid)
    points = list(gates.grid_points(grid))
    assert len(rows) == len(points) == math.prod(map(len, grid.values()))
    for point, row in zip(points, rows):
        expected = reference_row(base, point)
        assert row.keys() == expected.keys()
        for key in expected:
            assert row[key] == expected[key], (point, key)


@settings(max_examples=10, deadline=None)
@given(sweep_cases())
def test_batched_sweep_rows_equal_single_runs(case):
    assert_rows_equal_single_runs(*case)


@settings(max_examples=3, deadline=None)
@given(sweep_cases(bases=("noisy_pair_center",)))
def test_batched_noisy_sweep_rows_equal_single_runs(case):
    assert_rows_equal_single_runs(*case)


@settings(max_examples=8, deadline=None)
@given(sweep_cases(bad_values=False))
def test_stack_holds_every_point_of_a_valid_grid(case):
    # no point of a valid grid falls back to its own propagation
    base, grid = case
    scenarios = [point_scenario(base, point) for point in gates.grid_points(grid)]
    assert sorted(_stacked_propagators(base, scenarios)) == list(range(len(scenarios)))


def test_point_scenario_replaces_only_the_swept_numbers():
    base = BASES["noisy_pair_center"]
    point = point_scenario(base, {"delta_over_omega": 3.0, "rabi_rad_s": 2 * OMEGA,
                                  "gamma_h_hz": 5e6})
    assert (point.rabi, point.delta_shift, point.gamma_h) == (2 * OMEGA, 6 * OMEGA, 5e6)
    assert point == replace(base, rabi=2 * OMEGA, delta_shift=6 * OMEGA, gamma_h=5e6)
    assert point_scenario(base, {"delta_shift_rad_s": 1e9}) == replace(base, delta_shift=1e9)


def test_rabi_sweep_point_with_infinite_durations_gets_its_error_row():
    base = BASES["canonical"]
    rabis = [1e-310, 0.5 * OMEGA, OMEGA, 1e-310, 3.0 * OMEGA]
    grid = {"delta_over_omega": [10.0], "rabi_rad_s": rabis}
    points = list(gates.grid_points(grid))
    # the tiny points stay out of the stack; the others still share one
    stacked = _stacked_propagators(base, [point_scenario(base, point) for point in points])
    assert sorted(stacked) == [1, 2, 4]
    rows = sweep(base, grid)
    for point, row in zip(points, rows):
        if point["rabi_rad_s"] == 1e-310:
            assert row["status"] == "error: pulse parameters and duration must be finite"
        assert row == reference_row(base, point)


def test_group_pulses_equal_each_points_sequence():
    for name in ("canonical", "custom", "noisy_pair_center"):
        group = [replace(BASES[name], rabi=w * OMEGA, delta_shift=3 * w * OMEGA)
                 for w in (0.5, 1.0, 2.5)]
        pulses, keep = _group_pulses(BASES[name], group)
        assert keep.all()
        for i, sc in enumerate(group):
            expected = PulseArrays.of(protocol_sequence(sc))
            assert pulses.targets == expected.targets
            assert all(np.array_equal(x[:, i:i + 1], y) for x, y in zip(pulses[1:], expected[1:]))


def test_closed_sweep_calls_run_protocol_once_per_point(monkeypatch):
    # The benchmark's per-point metrics (gates.run_protocol calls, p50 and
    # p99) are read off these calls, so a sweep must keep scoring each
    # point through its own run_protocol call.
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return run_protocol(*args, **kwargs)

    monkeypatch.setattr(gates, "run_protocol", counting)
    n = 2 * CHUNK + 5
    rows = sweep(BASES["canonical"], {"delta_over_omega": [1.0 + i for i in range(n)]})
    assert len(calls) == n
    assert all(row["status"] == "ok" for row in rows)


@pytest.mark.parametrize("order", [("1p", "0", "1"), ("1", "0", "1p")])
def test_cached_computational_indices_equal_basis_index(order):
    scenario = GateScenario(control=QubitScheme("control", level_order=order),
                            target=QubitScheme("target", level_order=order), rabi=OMEGA)
    system = scenario_system(scenario)
    comp = _computational(scenario, system)
    assert comp.tolist() == [system.basis_index({"control": c, "target": t})
                             for c, t in COMPUTATIONAL]
    assert _computational(scenario, system) is comp
    assert not comp.flags.writeable


@pytest.mark.parametrize("n, sizes", [
    (1, [1]), (CHUNK, [CHUNK]), (CHUNK + 1, [CHUNK, 1]), (2 * CHUNK + 3, [CHUNK, CHUNK, 3])])
def test_grid_chunks_cover_the_grid_in_order(n, sizes):
    chunks = list(grid_chunks({"x": list(range(n))}))
    assert [len(c) for c in chunks] == sizes
    assert [p["x"] for c in chunks for p in c] == list(range(n))


# -- pair-center scenarios --------------------------------------------------


def pair_params(x=0.1, f1=1.0):
    return PairParams(mean_excitation=11530.0, half_detuning=x * 5.0, exchange=5.0,
                      single_oscillator_strength=f1)


def test_pair_center_scenario_construction():
    p = pair_params()
    scenario = pair_center_scenario(p, p, distance=1.5, rabi=OMEGA,
                                    tau_single=4.3e-4)
    # conditional shift is the bright-bright dipole shift (angular)
    expected = 2 * math.pi * dipole_shift(2.0, 2.0, 1.5)
    assert scenario.delta_shift == pytest.approx(expected, rel=1e-12)
    assert scenario.control.level_order[0] == "1"     # pair ground collects decay
    assert scenario.control.lifetimes["1p"] == pytest.approx(4.3e-4 / 2)
    assert scenario.control.lifetimes["0"] == pytest.approx(4.3e-4 / (2 * 0.01))


def test_pair_center_symmetric_pair_dark_is_nonradiative():
    p = pair_params(x=0.0)
    scenario = pair_center_scenario(p, p, distance=1.5, rabi=OMEGA,
                                    tau_single=4.3e-4)
    assert "0" not in scenario.control.lifetimes
    assert scenario.control.lifetimes["1p"] == pytest.approx(4.3e-4 / 2)


def test_pair_center_shift_ratio_bright_vs_dark():
    # bright-bright conditional shift beats dark-dark by (Delta/eps)^2 = 100
    p = pair_params(x=0.1)
    from oqcsim.paircenter import pair_eigensystem_perturbative
    st = pair_eigensystem_perturbative(p)
    ratio = (dipole_shift(st.f_bright, st.f_bright, 2.0)
             / dipole_shift(st.f_dark, st.f_dark, 2.0))
    assert ratio == pytest.approx(100.0, rel=1e-12)


def test_pair_center_rejects_zero_exchange():
    bad = PairParams(11530.0, 0.5, 0.0)
    with pytest.raises(ValidationError):
        pair_center_scenario(bad, bad, distance=1.5, rabi=OMEGA)


def test_pair_center_protocol_runs_clean():
    p = pair_params()
    scenario = pair_center_scenario(p, p, distance=1.2, rabi=OMEGA,
                                    tau_single=4.3e-4,
                                    noise=NoiseFlags(lifetimes=True))
    report = run_protocol(scenario)
    assert report.noisy
    assert report.average_fidelity > 0.99


def test_scenario_invariants():
    with pytest.raises(ValidationError):
        QubitScheme("q", level_order=("0", "1"))           # missing auxiliary
    with pytest.raises(ValidationError):
        blockade_scenario(1.0, gate_target="cnotish")
    with pytest.raises(ValidationError):
        GateScenario(control=QubitScheme("same"), target=QubitScheme("same"),
                     rabi=OMEGA)
