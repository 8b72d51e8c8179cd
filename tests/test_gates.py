import cmath
import itertools
import math
import pickle
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oqcsim import dynamics, gates
from oqcsim.errors import DomainError, OqcsimError, ValidationError
from oqcsim.gates import (COMPUTATIONAL, METRICS, GateReport, GateScenario, NoiseFlags,
                          QubitScheme, _PHASE_FLOOR, _channel_reading, _closed_reading, _columns,
                          _computational, _group_pulses, _point_numbers,
                          _stacked_scores, canonical_blockade_sequence, chunk_points,
                          pair_center_scenario, protocol_sequence, run_protocol,
                          scenario_system, score, sweep, sweep_chunk)
from oqcsim.interactions import dipole_shift
from oqcsim.paircenter import PairParams
from oqcsim.pulses import PULSE_NOT_FINITE, TWO_PI_AREA, PulseSequence, PulseSpec
from oqcsim.dynamics import (PulseArrays, sequence_superoperator, sequence_unitary,
                             stacked_superoperators, stacked_unitaries)

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


def numbered(*pulses):
    """A PulseSequence of the pulses, numbered 1..n."""
    return PulseSequence(tuple(enumerate(pulses, start=1)))


def mixing_sequence():
    """A detuned sequence that moves population between computational states
    and into the auxiliary levels, so the truth table is not symmetric."""
    return numbered(
        PulseSpec(("control", ("0", "1")), 1.1, rabi_frequency=OMEGA, detuning=0.3 * OMEGA),
        PulseSpec(("target", ("1", "1p")), 5.5, rabi_frequency=OMEGA),
        PulseSpec(("control", ("1", "1p")), 2.0, rabi_frequency=OMEGA, detuning=-0.7 * OMEGA),
        PulseSpec(("target", ("0", "1")), 0.4, rabi_frequency=2 * OMEGA))


@pytest.mark.parametrize("gate_target", ["cz", "identity"])
@pytest.mark.parametrize("shift, mixing", [(3.0, False), (2.0, True)])
def test_closed_score_equals_the_channel_score_at_zero_rates(gate_target, shift, mixing):
    # the closed branch scores on Python numbers, the channel branch on numpy
    # arrays of another propagator; every field of the reports must agree
    scenario = blockade_scenario(shift, gate_target=gate_target)
    if mixing:
        # a detuned |1> gives the control's framing phase a generic value
        scenario = replace(scenario, sequence=mixing_sequence(),
                           control=QubitScheme("control", detunings={"1": 0.37 * OMEGA}))
    closed = run_protocol(scenario)
    channel = run_protocol(replace(scenario, noise=NoiseFlags(lifetimes=True, dephasing=True)))
    assert not closed.noisy and channel.noisy
    assert np.allclose(closed.truth_table, channel.truth_table, rtol=0.0, atol=1e-12)
    for field in ("truth_table_fidelity", "average_fidelity", "leakage", "cz_phase"):
        assert getattr(closed, field) == pytest.approx(getattr(channel, field), abs=1e-12)
    assert closed.local_phases == pytest.approx(channel.local_phases, abs=1e-12)
    if mixing:
        table = np.array(closed.truth_table)
        assert np.abs(table - table.T).max() > 1e-3 and closed.leakage > 1e-3


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


def grid_points(grid):
    """The grid's points as dicts, in sweep order: keys sorted, the last
    varying fastest."""
    keys = sorted(grid)
    return [dict(zip(keys, combo)) for combo in itertools.product(*(grid[k] for k in keys))]


def table_rows(table):
    """A sweep table as row dicts: the point's swept values, plus its report
    fields when its status is ok, and its status."""
    rows = []
    for values, metrics, status in zip(table.values.tolist(), table.metrics.tolist(),
                                       table.status, strict=True):
        row = dict(zip(table.keys, values))
        if status == "ok":
            row.update(zip(METRICS, metrics))
        rows.append({**row, "status": status})
    return rows


def sweep_rows(base, grid):
    """The rows of a sweep of base over grid (table_rows)."""
    return table_rows(sweep(base, grid))


def test_sweep_table_holds_columns_in_grid_order():
    grid = {"rabi_rad_s": [OMEGA, -OMEGA], "delta_over_omega": [5.0, 10.0, 1e300]}
    table = sweep(blockade_scenario(0.0), grid)
    assert table.keys == ("delta_over_omega", "rabi_rad_s")
    assert table.values.tolist() == [list(p.values()) for p in grid_points(grid)]
    assert table.metrics.shape == (6, len(METRICS))
    ok = [status == "ok" for status in table.status]
    assert ok == [True, False, True, False, False, False]
    assert np.isfinite(table.metrics[ok]).all() and np.isnan(table.metrics[np.invert(ok)]).all()
    infidelity = table.metrics[:, METRICS.index("infidelity")]
    assert infidelity[ok].tolist() == (1.0 - table.metrics[ok, 1]).tolist()


def test_sweep_single_point_equals_run_protocol():
    rows = sweep_rows(blockade_scenario(0.0), {"delta_over_omega": [15.0]})
    direct = run_protocol(blockade_scenario(15.0))
    assert len(rows) == 1
    assert rows[0]["status"] == "ok"
    assert rows[0]["average_fidelity"] == pytest.approx(direct.average_fidelity)


# Dephasing on at gamma_h = 0 is a channel equal to the closed unitary.  Far
# off resonance the noisy path's Pade-13 expm loses the last ~4e-13 of the
# average fidelity: at delta/Omega = 1e6 it reads 1.0 where the closed path
# reads 0.9999999999996299.
@pytest.mark.parametrize("delta_over_omega", [
    3.0, 100.0, 1e4,
    pytest.param(1e6, marks=pytest.mark.xfail(
        strict=True, reason="noisy expm rounds an infidelity of 3.7e-13 to 0")),
])
def test_noisy_path_at_zero_gamma_h_equals_the_closed_one(delta_over_omega):
    grid = {"delta_over_omega": [delta_over_omega]}
    closed = sweep_rows(blockade_scenario(0.0), grid)[0]
    noisy = sweep_rows(blockade_scenario(0.0, noise=NoiseFlags(dephasing=True), gamma_h=0.0),
                       grid)[0]
    assert closed["status"] == noisy["status"] == "ok"
    assert noisy["cz_phase_rad"] == closed["cz_phase_rad"]
    assert noisy["infidelity"] == pytest.approx(closed["infidelity"], rel=1e-3, abs=0)


def test_sweep_continues_past_failures():
    # 1e300 * Omega overflows the shift to infinity, which the scenario rejects
    rows = sweep_rows(blockade_scenario(0.0), {"delta_over_omega": [10.0, 1e300],
                                               "rabi_rad_s": [-OMEGA, OMEGA]})
    assert [r["status"] for r in rows] == [
        "error: Rabi frequency must be > 0", "ok",
        "error: Rabi frequency must be > 0",
        "error: Rabi frequency, shift and gamma_h must be finite"]


def test_sweep_deterministic_ordering():
    grid = {"delta_over_omega": [5.0, 10.0], "rabi_rad_s": [OMEGA]}
    rows = sweep_rows(blockade_scenario(0.0), grid)
    assert [r["delta_over_omega"] for r in rows] == [5.0, 10.0]


def point_scenario(base, point):
    """One sweep point as a scenario of its own: the base scenario with the
    swept numbers replaced, built by the constructor, which checks them.
    A sweep builds no such scenario; its rows are compared with these
    scenarios run alone (reference_row)."""
    rabi = point.get("rabi_rad_s", base.rabi)
    if "delta_over_omega" in point:
        delta_shift = point["delta_over_omega"] * rabi
    else:
        delta_shift = point.get("delta_shift_rad_s", base.delta_shift)
    return GateScenario(control=base.control, target=base.target, rabi=rabi,
                        delta_shift=delta_shift, gamma_h=point.get("gamma_h_hz", base.gamma_h),
                        noise=base.noise, sequence=base.sequence,
                        gate_target=base.gate_target)


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
    custom = replace(canonical, sequence=numbered(
        PulseSpec(("control", ("1", "1p")), rabi_frequency=0.8 * OMEGA),
        PulseSpec(("target", ("1", "1p")), TWO_PI_AREA, detuning=0.1 * OMEGA),
        PulseSpec(("control", ("1", "1p")), rabi_frequency=0.8 * OMEGA)))
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


# ranges of the grid values; gamma_h_hz may also be 0
VALUE_RANGES = {"delta_over_omega": (0.0, 300.0), "delta_shift_rad_s": (0.0, 300.0 * OMEGA),
                "rabi_rad_s": (0.2 * OMEGA, 5.0 * OMEGA), "gamma_h_hz": (1e3, 1e9)}


@st.composite
def grid_values(draw, key, n):
    """n values of a grid key: up to eight drawn, the rest uniform from a drawn
    seed, which keeps a chunk-sized list small for hypothesis."""
    low, high = VALUE_RANGES[key]
    values = st.floats(low, high)
    if key == "gamma_h_hz":
        values = st.one_of(st.just(0.0), values)
    head = draw(st.lists(values, min_size=min(n, 8), max_size=min(n, 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return head + rng.uniform(low, high, n - len(head)).tolist()


@st.composite
def sweep_cases(draw, bases=tuple(sorted(BASES)), bad_values=True):
    base = BASES[draw(st.sampled_from(bases))]
    keys = grid_keys(base)
    if draw(st.booleans()):
        keys[0] = "delta_shift_rad_s"
    chunk = chunk_points(base)
    size = draw(st.sampled_from([1, 3, chunk - 1, chunk, chunk + 1]))
    # split size into one list length per key
    lengths, rest = {}, size
    for key in draw(st.permutations(keys))[:-1]:
        lengths[key] = draw(st.sampled_from([d for d in range(1, rest + 1) if rest % d == 0]))
        rest //= lengths[key]
    grid = {}
    for key in keys:
        n = lengths.get(key, rest)
        grid[key] = draw(grid_values(key, n))
        if bad_values and key in BAD_VALUES:
            bad = draw(st.dictionaries(st.integers(0, n - 1), st.sampled_from(BAD_VALUES[key]),
                                       max_size=2))
            for i, value in bad.items():
                grid[key][i] = value
    return base, grid


def assert_rows_equal_single_runs(base, grid):
    rows = sweep_rows(base, grid)
    points = grid_points(grid)
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
    # no point of a valid grid falls back to its own propagation, and the
    # arrays hold the numbers each point's scenario holds
    base, grid = case
    table = sweep(base, grid)
    points = grid_points(grid)
    rabi, shift, gamma_h, errors = _point_numbers(base, table.keys, table.values)
    scenarios = [point_scenario(base, point) for point in points]
    assert np.array_equal(np.stack([rabi, shift, gamma_h], axis=1),
                          [(sc.rabi, sc.delta_shift, sc.gamma_h) for sc in scenarios])
    assert (errors == "").all()
    scores, faults = _stacked_scores(base, rabi, shift, gamma_h)
    assert faults.tolist() == [0] * len(points) and len(scores.finite) == len(points)


def test_protocol_is_built_once_per_scenario_object():
    base = blockade_scenario(10.0)
    system, sequence = base.protocol
    assert base.protocol is base.protocol
    assert system.couplings[0].shift == 10 * OMEGA
    assert sequence == canonical_blockade_sequence(base)
    # a copy with another shift is a new object with its own register; the
    # base keeps its own, and equality compares the fields only
    moved = replace(base, delta_shift=3 * OMEGA)
    assert moved.protocol[0] is not system and moved.protocol[0].couplings[0].shift == 3 * OMEGA
    assert base.protocol[0] is system and system.couplings[0].shift == 10 * OMEGA
    assert replace(base) == base and replace(base) is not base


def test_pickled_scenario_keeps_its_built_protocol(monkeypatch):
    base = replace(BASES["noisy_pair_center"])
    report = run_protocol(base)
    copy = pickle.loads(pickle.dumps(base))

    def unbuilt(scenario):
        raise AssertionError("the protocol of a pickled scenario is rebuilt")

    monkeypatch.setattr(gates, "scenario_system", unbuilt)
    assert copy == base and copy.protocol[1] == base.protocol[1]
    assert copy.protocol[0].dimension == base.protocol[0].dimension
    assert run_protocol(copy) == report


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
    points = grid_points(grid)
    # the tiny points pass the constructor's checks, but not the check of the
    # canonical pulses' durations, which keeps them out of the stack
    table = sweep(base, grid)
    rabi, shift, gamma_h, errors = _point_numbers(base, table.keys, table.values)
    assert errors.tolist() == [PULSE_NOT_FINITE if r == 1e-310 else "" for r in rabis]
    assert all(point_scenario(base, point) for point in points)
    rows = table_rows(table)
    for point, row in zip(points, rows):
        if point["rabi_rad_s"] == 1e-310:
            assert row["status"] == "error: pulse parameters and duration must be finite"
        assert row == reference_row(base, point)


def test_sweep_of_a_shift_that_overflows_with_the_pulse_detuning():
    # the swept shift plus the first pulse's detuning is past the double range
    # on one level: a non-finite energy, not a RuntimeWarning
    sequence = PulseSequence((
        (1, PulseSpec(("control", ("1", "1p")), detuning=1.7e308)),
        (2, PulseSpec(("target", ("1", "1p")), pulse_area=TWO_PI_AREA))))
    base = blockade_scenario(0.0, sequence=sequence)
    table = sweep(base, {"delta_shift_rad_s": [1.7e308, OMEGA]})
    assert table_rows(table) == [reference_row(base, {"delta_shift_rad_s": shift})
                                 for shift in (1.7e308, OMEGA)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_closed_rows_depend_on_the_rabi_scale_only_through_delta_over_omega():
    # durations scale as 1/Omega, so a canonical point's report is the same at
    # any Rabi frequency; 1e-310 makes the durations infinite and 1e300 * Omega
    # overflows the shift, and those points keep their error rows
    rabis = [1e-310, 1e-200, 1e-5, OMEGA, 1e200, 1e300]
    grid = {"delta_over_omega": [0.0, 3.0, 20.0, 200.0, 1e300], "rabi_rad_s": rabis}
    rows = {(r["delta_over_omega"], r["rabi_rad_s"]): r
            for r in sweep_rows(BASES["canonical"], grid)}
    for (ratio, rabi), row in rows.items():
        if rabi == 1e-310:
            assert row["status"] == "error: pulse parameters and duration must be finite"
        elif ratio == 1e300 and rabi > 1e-5:
            assert row["status"] == "error: Rabi frequency, shift and gamma_h must be finite"
        elif ratio == 1e300:                     # a perfect blockade
            assert row["average_fidelity"] >= 1.0 - 1e-12
            assert abs(abs(row["cz_phase_rad"]) - math.pi) <= 1e-12
        else:
            for key in ("truth_table_fidelity", "average_fidelity", "leakage", "cz_phase_rad"):
                assert abs(row[key] - rows[ratio, OMEGA][key]) <= 1e-12, (ratio, rabi, key)


def test_group_pulses_equal_each_points_sequence():
    for name in ("canonical", "custom", "noisy_pair_center"):
        group = [replace(BASES[name], rabi=w * OMEGA, delta_shift=3 * w * OMEGA)
                 for w in (0.5, 1.0, 2.5)]
        pulses = _group_pulses(BASES[name], np.array([sc.rabi for sc in group]))
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
    n = 2 * chunk_points(BASES["canonical"]) + 5
    rows = sweep_rows(BASES["canonical"], {"delta_over_omega": [1.0 + i for i in range(n)]})
    assert len(calls) == n
    assert all(row["status"] == "ok" for row in rows)


def test_closed_run_protocol_calls_sequence_unitary_once(monkeypatch):
    # The traced benchmark reads dynamics.sequence_unitary off the gates
    # module's binding, so a closed point run alone must propagate through it.
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return sequence_unitary(*args, **kwargs)

    monkeypatch.setattr(gates, "sequence_unitary", counting)
    report = run_protocol(BASES["canonical"])
    assert len(calls) == 1 and len(calls[0][2]) == 4
    # a stacked point does not run alone
    row = sweep_rows(BASES["canonical"],
                     {"delta_shift_rad_s": [BASES["canonical"].delta_shift]})[0]
    assert len(calls) == 1
    assert (report.average_fidelity, report.cz_phase) == (row["average_fidelity"],
                                                          row["cz_phase_rad"])


# grids that hold a point of each kind a sweep point is rejected for, and
# points that pass: (base, grid)
REJECTING_GRIDS = [
    ("canonical", {"delta_over_omega": [3.0, 1e300], "rabi_rad_s": [OMEGA, 0.0, 1e-310]}),
    # finite numbers whose unitary is not
    ("canonical", {"delta_shift_rad_s": [1e300], "rabi_rad_s": [OMEGA, 1e-10]}),
    ("noisy_pair_center", {"delta_over_omega": [3.0], "rabi_rad_s": [OMEGA, 7e-300],
                           "gamma_h_hz": [1e6, -1e6, 1.7e308]}),
    # a finite generator whose exponential's squarings overflow
    ("noisy_pair_center", {"delta_shift_rad_s": [3.0 * OMEGA, 1e300]}),
]
REJECTIONS = {"Rabi frequency must be > 0", "gamma_h must be >= 0",
              "Rabi frequency, shift and gamma_h must be finite", PULSE_NOT_FINITE,
              "protocol result is not finite; the pulse durations and shifts are too far "
              "apart for double precision",
              "matrix exponential of a non-finite matrix",
              "matrix exponential: the matrix norm overflows",
              "matrix exponential overflows"}


def test_no_sweep_point_builds_a_scenario(monkeypatch):
    # every point's numbers are checked as arrays and the points that pass
    # are propagated in one stack: no point gets a scenario of its own, and
    # each row is the one its scenario run alone gives
    expected = [[reference_row(BASES[name], point) for point in grid_points(grid)]
                for name, grid in REJECTING_GRIDS]
    statuses = {row["status"] for rows in expected for row in rows}
    assert statuses == {"ok"} | {f"error: {message}" for message in REJECTIONS}

    def built(*args, **kwargs):
        raise AssertionError("a sweep point built a scenario of its own")

    monkeypatch.setattr(gates, "GateScenario", built)
    for (name, grid), rows in zip(REJECTING_GRIDS, expected):
        assert sweep_rows(BASES[name], grid) == rows


def test_an_overflowing_point_costs_its_chunk_no_expm_call(monkeypatch):
    # a point whose generator overflows keeps its own fault in the stack, so
    # its chunk makes the expm calls of a clean chunk
    base = BASES["noisy_pair_center"]
    clean = np.geomspace(1e3, 1e7, 32).tolist()
    calls, pade_expm = [], dynamics.expm
    monkeypatch.setattr(dynamics, "expm", lambda a: (calls.append(len(a)), pade_expm(a))[1])
    counts = []
    for gamma_h in (clean, clean[:-1] + [1.7e308]):
        calls.clear()
        rows = sweep_rows(base, {"gamma_h_hz": gamma_h})
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
    assert rows[-1]["status"] == "error: matrix exponential of a non-finite matrix"
    assert all(row["status"] == "ok" for row in rows[:-1])


def fastest_sweep(base, grid, runs=5):
    """The fastest wall time of runs sweeps of base over grid."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        sweep(base, grid)
        times.append(time.perf_counter() - start)
    return min(times)


def test_overflowing_exponentials_stop_squaring():
    # a shift of 1e300 makes a generator of norm near 1e290, whose approximant
    # would take some 960 squarings; once its square overflows it takes no more
    base = BASES["noisy_pair_center"]
    clean = {"delta_shift_rad_s": (OMEGA * np.linspace(3.0, 6.0, 32)).tolist()}
    overflowing = {"delta_shift_rad_s": [1e300] * 32}
    assert set(sweep(base, overflowing).status) == {"error: matrix exponential overflows"}
    assert fastest_sweep(base, overflowing) <= 3.0 * fastest_sweep(base, clean)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("shift_key", ["delta_over_omega", "delta_shift_rad_s"])
@pytest.mark.parametrize("name", sorted(BASES))
def test_array_checks_agree_with_the_constructor(name, shift_key):
    # each point's error from the array checks is the error of building its
    # scenario and protocol; every row, status text included, is the point's
    # row run alone
    base = BASES[name]
    grid = {shift_key: [0.0, 1e300, -1e300]}
    if base.sequence is None:
        grid["rabi_rad_s"] = [0.0, -1.0, 5e-324, 1e-310, 1e300, 1.7e308, math.inf]
    if base.noise.dephasing:
        grid["gamma_h_hz"] = [0.0, -1e6, 6e307, 1e308, 1.7e308, math.inf]
    points = grid_points(grid)

    def error(point):
        try:
            point_scenario(base, point).protocol
        except ValidationError as exc:
            return str(exc)
        return ""

    table = sweep(base, grid)
    assert _point_numbers(base, table.keys, table.values)[3].tolist() == list(map(error, points))
    assert_rows_equal_single_runs(base, grid)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_extreme_dephasing_gets_its_error_row():
    base = BASES["noisy_pair_center"]
    # the generator's rates overflow, which expm rejects, whether the point
    # is in a stack or run alone
    rows = sweep_rows(base, {"gamma_h_hz": [1.7e308, 1e3]})
    assert rows[0] == {"gamma_h_hz": 1.7e308,
                       "status": "error: matrix exponential of a non-finite matrix"}
    assert rows[0] == reference_row(base, {"gamma_h_hz": 1.7e308})
    assert rows[1]["status"] == "ok" and rows[1] == reference_row(base, {"gamma_h_hz": 1e3})


def test_negative_dephasing_gets_the_constructor_row():
    base = BASES["noisy_pair_center"]
    # one healthy point keeps the stack up, so the negative one must be held out of it
    rows = sweep_rows(base, {"gamma_h_hz": [1e6, -1e9]})
    assert rows[0]["status"] == "ok" and rows[0] == reference_row(base, {"gamma_h_hz": 1e6})
    assert rows[1] == {"gamma_h_hz": -1e9, "status": "error: gamma_h must be >= 0"}
    assert rows[1] == reference_row(base, {"gamma_h_hz": -1e9})


@pytest.mark.parametrize("order", [("1p", "0", "1"), ("1", "0", "1p")])
def test_computational_indices_equal_basis_index(order):
    scenario = GateScenario(control=QubitScheme("control", level_order=order),
                            target=QubitScheme("target", level_order=order), rabi=OMEGA)
    system = scenario_system(scenario)
    comp = _computational(scenario, system)
    assert comp.tolist() == [system.basis_index({"control": c, "target": t})
                             for c, t in COMPUTATIONAL]


CLOSED_CHUNK = chunk_points(BASES["canonical"])


@pytest.mark.parametrize("n, sizes", [
    (1, [1]), (CLOSED_CHUNK, [CLOSED_CHUNK]), (CLOSED_CHUNK + 1, [CLOSED_CHUNK, 1]),
    (2 * CLOSED_CHUNK + 3, [CLOSED_CHUNK, CLOSED_CHUNK, 3])])
def test_grid_chunks_cover_the_grid_in_order(monkeypatch, n, sizes):
    # each chunk is a contiguous range of the grid's points, in order
    chunks, score_chunk = [], gates.sweep_chunk
    monkeypatch.setattr(gates, "sweep_chunk",
                        lambda base, keys, values: (chunks.append(values), score_chunk(
                            base, keys, values))[1])
    grid = {"delta_over_omega": [float(x) for x in range(n)]}
    table = sweep(BASES["canonical"], grid)
    assert [len(c) for c in chunks] == sizes
    assert np.concatenate(chunks)[:, 0].tolist() == table.values[:, 0].tolist() == grid[
        "delta_over_omega"]


# -- the stacked scorer against the per-point scoring it replaced -----------


def oracle_phases(m_diag):
    """Global, framing and controlled phases, all zero below the phase floor."""
    if min(map(abs, m_diag)) < _PHASE_FLOOR:
        return 0.0, 0.0, 0.0, 0.0
    ref = m_diag[0]
    phi00 = cmath.phase(ref)
    phi01 = cmath.phase(m_diag[1] / ref)
    phi10 = cmath.phase(m_diag[2] / ref)
    cz = (cmath.phase(m_diag[3] / ref) - phi01 - phi10 + math.pi) % (2.0 * math.pi) - math.pi
    return phi00, phi01, phi10, cz


def oracle_target(gate_target, phi00, phi01, phi10):
    sign = -1.0 if gate_target == "cz" else 1.0
    ref = cmath.exp(1j * phi00)
    return [ref, ref * cmath.exp(1j * phi01), ref * cmath.exp(1j * phi10),
            ref * (sign * cmath.exp(1j * (phi01 + phi10)))]


def oracle_require_finite(populations_finite, *numbers):
    if not (populations_finite and all(map(math.isfinite, numbers))):
        raise DomainError("protocol result is not finite; the pulse durations and "
                          "shifts are too far apart for double precision")


def oracle_report(propagator, comp, dim, noisy, gate_target):
    """One point scored per point: Python numbers from a unitary's computational
    map, read off its four computational columns (d, 4), or per-point numpy
    over the sixteen channel columns.  Returns the report
    and whether the phases fell below the floor; raises DomainError as
    run_protocol does."""
    with np.errstate(all="ignore"):        # non-finite entries are tested on purpose
        if not noisy:
            m = propagator[comp]
            truth = (np.abs(m.T) ** 2).tolist()
            m_diag = m.diagonal().tolist()
            phi00, phi01, phi10, cz = oracle_phases(m_diag)
            t00, t01, t10, t11 = oracle_target(gate_target, phi00, phi01, phi10)
            f_pro = abs(t00.conjugate() * m_diag[0] + t01.conjugate() * m_diag[1]
                        + t10.conjugate() * m_diag[2] + t11.conjugate() * m_diag[3]) ** 2 / 16.0
            totals = [sum(row) for row in truth]
            oracle_require_finite(all(map(math.isfinite, totals)), f_pro, phi01, phi10, cz)
            truth_fidelity = (truth[0][0] + truth[1][1] + truth[2][2] + truth[3][3]) / 4.0
            leakage = 1.0 - min(totals)
        else:
            blocks = {(j, k): propagator[:, 4 * j + k].reshape(dim, dim)
                      for j in range(4) for k in range(4)}
            truth = np.array([[np.real(blocks[(k, k)][comp[j], comp[j]]) for j in range(4)]
                              for k in range(4)])
            m_diag = np.array([blocks[(k, 0)][comp[k], comp[0]] for k in range(4)])
            phi00, phi01, phi10, cz = oracle_phases(m_diag)
            target = np.diag(oracle_target(gate_target, phi00, phi01, phi10))
            f_pro = 0.0
            for j in range(4):
                for k in range(4):
                    f_pro += np.real(
                        target[:, j].conj() @ blocks[(j, k)][np.ix_(comp, comp)] @ target[:, k])
            f_pro /= 16.0
            oracle_require_finite(np.isfinite(truth).all(), f_pro, phi01, phi10, cz)
            truth_fidelity = float(truth.diagonal().sum()) / 4.0
            leakage = float((1.0 - truth.sum(axis=1)).max())
            truth = truth.tolist()
    report = GateReport(truth_table=tuple(map(tuple, truth)),
                        truth_table_fidelity=truth_fidelity,
                        average_fidelity=float(min(max((4.0 * f_pro + 1.0) / 5.0, 0.0), 1.0)),
                        leakage=leakage, cz_phase=float(cz),
                        local_phases=(float(phi01), float(phi10)), noisy=noisy,
                        gate_target=gate_target)
    return report, min(map(abs, m_diag)) < _PHASE_FLOOR


def register_family(scenarios):
    """Propagators of scenarios of one register structure: the unitaries' four
    computational columns, or with noise the sixteen channel columns; with the
    register's computational indices."""
    system = scenario_system(scenarios[0])
    comp = _computational(scenarios[0], system)
    stack = []
    for sc in scenarios:
        sequence = protocol_sequence(sc)
        if sc.noise.any:
            stack.append(sequence_superoperator(system, sequence,
                                                _columns(comp, system.dimension)))
        else:
            stack.append(sequence_unitary(system, sequence, comp))
    return np.array(stack), comp, system.dimension


def scorer_families():
    """Real registers, closed and noisy, over shifts, framing phases and noise."""
    canonical = blockade_scenario(3.0)
    mixing = replace(canonical, sequence=mixing_sequence(),
                     control=QubitScheme("control", detunings={"1": 0.37 * OMEGA}))
    closed = [blockade_scenario(x) for x in (0.0, 0.5, 3.0, 20.0, 1e3)] + [mixing]
    noise = NoiseFlags(lifetimes=True, dephasing=True)
    decaying = {"lifetimes": {"1": 20e-9}}
    noisy = [replace(sc, noise=noise, gamma_h=g,
                     control=QubitScheme("control", detunings=sc.control.detunings, **decaying),
                     target=QubitScheme("target", **decaying))
             for sc in closed for g in (0.0, 1e7)]
    pair = BASES["noisy_pair_center"]
    pairs = [point_scenario(pair, {"delta_over_omega": x, "gamma_h_hz": g})
             for x in (0.3, 8.0) for g in (0.0, 1e8)]
    return {"closed": register_family(closed),
            "closed_pair": register_family([replace(sc, noise=NoiseFlags()) for sc in pairs]),
            "noisy": register_family(noisy),
            "noisy_pair": register_family(pairs)}


FAMILIES = scorer_families()


@st.composite
def scored_stacks(draw):
    """A stack of 1-5 propagators of one register, some entries made NaN or
    infinite, in the computational blocks read or anywhere, and some diagonal
    amplitudes moved to either side of the phase floor."""
    name = draw(st.sampled_from(sorted(FAMILIES)))
    family, comp, dim = FAMILIES[name]
    noisy = name.startswith("noisy")
    stack = family[draw(st.lists(st.integers(0, len(family) - 1), min_size=1, max_size=5))]
    # (row, column) of each entry a score reads, and of each amplitude it phases
    if noisy:
        pos = _columns(comp, dim).reshape(4, 4)
        read = [(p, c) for p in pos.ravel() for c in range(16)]
        amplitudes = [(pos[k, 0], 4 * k) for k in range(4)]
    else:
        read = [(a, k) for a in comp for k in range(4)]
        amplitudes = [(a, k) for k, a in enumerate(comp)]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(stack) - 1))
        kind = draw(st.sampled_from(["nan", "inf", "-inf", "nan_imag", "floor"]))
        if kind == "floor":
            row, col = draw(st.sampled_from(amplitudes))
            size = draw(st.sampled_from([0.0, 1e-13, 0.999e-12, 1.001e-12, 3e-12]))
            stack[i, row, col] = size * cmath.exp(1j * draw(st.floats(-math.pi, math.pi)))
            continue
        if draw(st.booleans()):
            row, col = draw(st.sampled_from(read))
        else:
            row = draw(st.integers(0, stack.shape[1] - 1))
            col = draw(st.integers(0, stack.shape[2] - 1))
        stack[i, row, col] = {"nan": complex(math.nan, 0.0), "inf": complex(math.inf, 0.0),
                              "-inf": complex(-math.inf, 1.0),
                              "nan_imag": complex(0.5, math.nan)}[kind]
    return stack, comp, dim, noisy, draw(st.sampled_from(["cz", "identity"]))


@settings(max_examples=150, deadline=None)
@given(scored_stacks())
def test_stacked_score_equals_the_per_point_score(case):
    stack, comp, dim, noisy, gate_target = case
    reading = _channel_reading(stack, comp, dim) if noisy else _closed_reading(stack, comp)
    scores = score(*reading, gate_target).tolist()
    scenario = blockade_scenario(3.0, gate_target=gate_target,
                                 noise=NoiseFlags(dephasing=noisy))
    for i, propagator in enumerate(stack):
        try:
            expected, floored = oracle_report(propagator, comp, dim, noisy, gate_target)
        except DomainError as exc:
            with pytest.raises(DomainError) as got:
                run_protocol(scenario, scores, i)
            assert str(got.value) == str(exc)
            continue
        report = run_protocol(scenario, scores, i)
        assert (report.noisy, report.gate_target) == (noisy, gate_target)
        assert np.abs(np.subtract(report.truth_table, expected.truth_table)).max() <= 1e-12
        for field in ("truth_table_fidelity", "average_fidelity", "leakage", "cz_phase"):
            assert abs(getattr(report, field) - getattr(expected, field)) <= 1e-12, field
        assert np.abs(np.subtract(report.local_phases, expected.local_phases)).max() <= 1e-12
        if floored:
            assert report.local_phases == (0.0, 0.0) and report.cz_phase == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_far_detuned_rows_do_not_depend_on_the_rabi_scale():
    # a pair far off resonance rotates with a slow phase (the small eigenvalue)
    # that must not carry the rounding of its fast one, whose size scales with
    # delta / Omega; at 1e6 that rounding alone would be about 1e-9
    ratios = [1e2, 1e4, 1e5, 1e6]
    rabis = [1e-5, 1e5, OMEGA]
    rows = {(r["delta_over_omega"], r["rabi_rad_s"]): r
            for r in sweep_rows(BASES["canonical"],
                                {"delta_over_omega": ratios, "rabi_rad_s": rabis})}
    for (ratio, rabi), row in rows.items():
        assert row["status"] == "ok"
        for key in ("truth_table_fidelity", "average_fidelity", "leakage", "cz_phase_rad"):
            assert abs(row[key] - rows[ratio, OMEGA][key]) <= 1e-13, (ratio, rabi, key)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", ["canonical", "pair_center"])
def test_rows_near_the_double_range_equal_the_gigahertz_rows(name):
    # at delta/Omega = +-1 a pair's eigenvalue m + w passes 1.8e308 from a
    # Rabi frequency of about 1.5e308 on, and 2 w from about 1.27e308 on,
    # though every entry of H is finite; the rotation must form neither
    rabis = [1.3e308, 1.5e308, 1.7e308]
    grid = {"delta_over_omega": [-1.0, 1.0], "rabi_rad_s": [OMEGA] + rabis}
    rows = {(r["delta_over_omega"], r["rabi_rad_s"]): r for r in sweep_rows(BASES[name], grid)}
    for (ratio, rabi), row in rows.items():
        assert row["status"] == "ok", (ratio, rabi)
        for key in ("truth_table_fidelity", "average_fidelity", "leakage", "cz_phase_rad"):
            assert abs(row[key] - rows[ratio, OMEGA][key]) <= 1e-12, (ratio, rabi, key)


def register_at_the_cap(noise):
    """A gate on two 8-level qubits: the 64-state register, decaying and
    dephasing when noise is on."""
    levels = ("1p", "0", "1", "a", "b", "c", "d", "e")
    lifetimes = {"1": 1e-6} if noise else {}
    return GateScenario(control=QubitScheme("control", level_order=levels, lifetimes=lifetimes),
                        target=QubitScheme("target", level_order=levels, lifetimes=lifetimes),
                        rabi=OMEGA, gamma_h=1e6,
                        noise=NoiseFlags(lifetimes=noise, dephasing=noise))


def chunk_as_scored_per_point(base, points):
    """Sweep rows of a chunk run as when chunks were a fixed 64 points: the
    base's register and sequence, the stack propagated, and each point scored
    alone."""
    rows = [dict(point) for point in points]
    scenarios = [point_scenario(base, point) for point in points]
    system = base.protocol[0]
    pulses = _group_pulses(base, np.array([sc.rabi for sc in scenarios]))
    shifts = np.array([[sc.delta_shift] for sc in scenarios])
    comp = _computational(base, system)
    if base.noise.any:
        dephasing = np.array([[sc.gamma_h] * 2 for sc in scenarios])
        stack, _ = stacked_superoperators(system, pulses, _columns(comp, system.dimension),
                                          shifts, dephasing)
    else:
        stack = stacked_unitaries(system, pulses, shifts, comp)
    for row, propagator in zip(rows, stack):
        report, _ = oracle_report(propagator, comp, system.dimension, base.noise.any,
                                  base.gate_target)
        row.update({"truth_table_fidelity": report.truth_table_fidelity,
                    "average_fidelity": report.average_fidelity,
                    "infidelity": 1.0 - report.average_fidelity,
                    "leakage": report.leakage,
                    "cz_phase_rad": report.cz_phase,
                    "status": "ok"})
    return rows


def traced_peak(run, *args):
    tracemalloc.start()
    try:
        run(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("noise", [False, True])
def test_chunk_at_the_cap_holds_no_more_than_64_points(noise):
    base = register_at_the_cap(noise)
    dim = scenario_system(base).dimension
    entries = dim * dim * (16 if noise else 1)
    assert dim == 64 and chunk_points(base) * entries <= 64 * entries
    points = [{"delta_over_omega": 1.0 + 0.5 * i} for i in range(chunk_points(base))]
    keys, values = ("delta_over_omega",), np.array([[p["delta_over_omega"]] for p in points])
    rows = table_rows(sweep_chunk(base, keys, values))
    for row, expected in zip(rows, chunk_as_scored_per_point(base, points), strict=True):
        assert row.keys() == expected.keys() and row["status"] == "ok"
        assert all(abs(row[k] - expected[k]) <= 1e-12 for k in row if k != "status")
    assert (traced_peak(sweep_chunk, base, keys, values)
            <= traced_peak(chunk_as_scored_per_point, base, points))


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
    # the numbers sweep points are checked by as well (_NUMBER_FAULTS), the
    # first failing check giving the message; NaN fails only finiteness
    positive, non_negative = "Rabi frequency must be > 0", "gamma_h must be >= 0"
    finite = "Rabi frequency, shift and gamma_h must be finite"
    for numbers, message in (
            ({"rabi": 0.0}, positive), ({"rabi": -OMEGA}, positive),
            ({"rabi": math.nan}, finite), ({"rabi": math.inf}, finite),
            ({"delta_shift": math.inf}, finite), ({"delta_shift": -math.inf}, finite),
            ({"delta_shift": math.nan}, finite), ({"gamma_h": math.inf}, finite),
            ({"gamma_h": math.nan}, finite), ({"gamma_h": -1.0}, non_negative),
            ({"rabi": -1.0, "gamma_h": -1.0}, positive),
            ({"gamma_h": -1.0, "delta_shift": math.nan}, non_negative)):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            replace(blockade_scenario(1.0), **numbers)
