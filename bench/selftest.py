"""Self-test of the output checker on corrupted copies of real outputs.

Each corruption edits one output in a copy of a run's parsed outputs;
the checker must report a problem for every one of them.  The benchmark
runs this on the first sample of every workload it measures, so the
checker is exercised on the outputs it actually judges.
"""
from __future__ import annotations

import copy

from checks import Table, check_parsed


def _set_cell(column: str, value: str):
    def edit(table: Table):
        table.rows[0][table.header.index(column)] = value
    return edit


def _asymmetric_partner(table: Table):
    col = table.header.index("partner_index")
    members = [i for i, r in enumerate(table.rows) if r[col]]
    i, stranger = members[0], members[-1]
    if int(table.rows[stranger][col]) == i:
        stranger = members[1]
    table.rows[i][col] = str(stranger)


def _close_channel_gap(table: Table):
    col = table.header.index("frequency_hz")
    table.rows[1][col] = table.rows[0][col]


def _omega_dependence(table: Table):
    col = table.header.index("average_fidelity")
    table.rows[0][col] = repr(float(table.rows[0][col]) - 1e-6)


def _set_top_ratio_fidelity(value: str):
    """Set average_fidelity on every row at the largest delta/Omega."""
    def edit(table: Table):
        ratio, fid = table.header.index("delta_over_omega"), table.header.index("average_fidelity")
        top = max(float(r[ratio]) for r in table.rows)
        for r in table.rows:
            if float(r[ratio]) == top:
                r[fid] = value
    return edit


def _fidelity_rises_with_dephasing(table: Table):
    ratio, gamma = table.header.index("delta_over_omega"), table.header.index("gamma_h_hz")
    fid = table.header.index("average_fidelity")
    first = [r for r in table.rows if r[ratio] == table.rows[0][ratio]]
    noisiest = max(first, key=lambda r: float(r[gamma]))
    noisiest[fid] = repr(min(1.0, max(float(r[fid]) for r in first) + 1e-3))


def _fidelity_above_one(doc: dict):
    doc["average_fidelity"] = 1.5


def _shift_dopant_count(doc: dict):
    doc["n_dopants"] += 10 ** 6


_SWEEP = [
    ("NaN fidelity", "sweep.csv", _set_cell("average_fidelity", "nan")),
    ("fidelity > 1", "gate_report.json", _fidelity_above_one),
    ("non-ok sweep row", "sweep.csv", _set_cell("status", "error: injected")),
]

CORRUPTIONS = {
    "ensemble_box": [
        ("NaN frequency", "centers.csv", _set_cell("frequency_hz", "nan")),
        ("asymmetric partner", "centers.csv", _asymmetric_partner),
        ("channel gap", "channels.csv", _close_channel_gap),
        ("dopant count", "ensemble_report.json", _shift_dopant_count),
    ],
    "closed_sweep": _SWEEP + [
        ("Omega dependence", "sweep.csv", _omega_dependence),
        ("below blockade limit", "sweep.csv", _set_top_ratio_fidelity("0.999")),
    ],
    "noisy_sweep": _SWEEP + [
        ("fidelity rises with gamma_h", "sweep.csv", _fidelity_rises_with_dephasing),
        ("fidelity falls with delta/Omega", "sweep.csv", _set_top_ratio_fidelity("0.5")),
    ],
}


def _copy(value):
    if isinstance(value, Table):
        return Table(list(value.header), [list(row) for row in value.rows])
    return copy.deepcopy(value)


def selftest(workload: str, outputs: dict, config: dict) -> list[str]:
    """Names of the corruptions the checker missed; empty when all are caught."""
    missed = []
    for name, output, edit in CORRUPTIONS[workload]:
        corrupted = dict(outputs)
        corrupted[output] = _copy(outputs[output])
        edit(corrupted[output])
        if not check_parsed(workload, corrupted, config):
            missed.append(name)
    return missed
