"""Output checks and the determinism digest for benchmark runs.

`check_parsed` returns the problems found in one run's outputs, as
`read_outputs` parses them (empty when the outputs are correct):

* every number in every JSON and CSV output is finite;
* every fidelity and leakage value lies in [0, 1];
* every sweep row has status `ok`;
* and the physics each workload must show, see the `_check_<workload>`
  functions.

`digest` hashes every output file except the manifest, which records
wall-clock time and is exempt from the determinism guarantee.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import defaultdict
from pathlib import Path

BOUNDED_KEYS = ("fidelity", "leakage")       # values in [0, 1]
OMEGA_INDEPENDENCE_TOL = 1e-9                # closed sweep, at fixed delta/Omega
BLOCKADE_LIMIT_FIDELITY = 0.9999             # closed sweep, at the largest delta/Omega
DOPANT_COUNT_SIGMAS = 5.0


def digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        if path.name == "manifest.json":
            continue
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


class Table:
    """A CSV output: header and rows of text cells."""

    def __init__(self, header: list[str], rows: list[list[str]]):
        self.header = header
        self.rows = rows

    def column(self, name: str) -> list[str]:
        j = self.header.index(name)
        return [row[j] for row in self.rows]


def read_outputs(out_dir: Path) -> dict:
    """Every output the manifest lists: JSON as parsed, CSV as a Table."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    outputs = {}
    for name in manifest["outputs"].values():
        path = out_dir / name
        if not path.is_file():
            outputs[name] = None
        elif name.endswith(".json"):
            outputs[name] = json.loads(path.read_text())
        else:
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            outputs[name] = Table(rows[0], rows[1:])
    return outputs


def _bounded(key: str) -> bool:
    return any(k in key for k in BOUNDED_KEYS)


def _check_number(where: str, key: str, x: float, problems: list[str]) -> None:
    if not math.isfinite(x):
        problems.append(f"{where}: {key} is not finite ({x})")
    elif _bounded(key) and not 0.0 <= x <= 1.0:
        problems.append(f"{where}: {key} = {x} lies outside [0, 1]")


def _check_json_values(name: str, value, key: str, problems: list[str]) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _check_json_values(name, v, k, problems)
    elif isinstance(value, list):
        for v in value:
            _check_json_values(name, v, key, problems)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        _check_number(name, key, value, problems)


def _check_csv_values(name: str, table: Table, problems: list[str]) -> None:
    for key in table.header:
        cells = table.column(key)
        if key == "status":
            problems += [f"{name} row {i}: status {text!r}"
                         for i, text in enumerate(cells) if text != "ok"]
            continue
        try:
            values = [float(text) for text in cells if text]
        except ValueError:
            continue                        # a text column
        in_range = not (_bounded(key) and values) or 0.0 <= min(values) <= max(values) <= 1.0
        # NaN and inf propagate through a sum; finite outputs are far below overflow
        if math.isfinite(sum(values)) and in_range:
            continue
        for i, text in enumerate(cells):
            if text:
                _check_number(f"{name} row {i}", key, float(text), problems)


def _check_closed_sweep(config: dict, outputs: dict, problems: list[str]) -> None:
    sweep = outputs["sweep.csv"]
    by_ratio = defaultdict(list)
    for ratio, fid in zip(sweep.column("delta_over_omega"), sweep.column("average_fidelity")):
        by_ratio[float(ratio)].append(float(fid))
    for ratio, fids in by_ratio.items():
        if max(fids) - min(fids) > OMEGA_INDEPENDENCE_TOL:
            problems.append(f"sweep.csv: average_fidelity at delta/Omega={ratio} depends on "
                            f"Omega (spread {max(fids) - min(fids):.3g})")
    top = max(by_ratio)
    if min(by_ratio[top]) <= BLOCKADE_LIMIT_FIDELITY:
        problems.append(f"sweep.csv: average_fidelity {min(by_ratio[top])} at "
                        f"delta/Omega={top} is not above {BLOCKADE_LIMIT_FIDELITY}")


def _check_noisy_sweep(config: dict, outputs: dict, problems: list[str]) -> None:
    sweep = outputs["sweep.csv"]
    fid = {(float(r), float(g)): float(f) for r, g, f in zip(
        sweep.column("delta_over_omega"), sweep.column("gamma_h_hz"),
        sweep.column("average_fidelity"))}
    ratios = sorted({k[0] for k in fid})
    gammas = sorted({k[1] for k in fid})
    for r in ratios:
        for g0, g1 in zip(gammas, gammas[1:]):
            if fid[(r, g1)] > fid[(r, g0)]:
                problems.append(f"sweep.csv: average_fidelity rises with gamma_h_hz "
                                f"{g0} -> {g1} at delta/Omega={r}")
    for g in gammas:
        for r0, r1 in zip(ratios, ratios[1:]):
            if fid[(r1, g)] < fid[(r0, g)]:
                problems.append(f"sweep.csv: average_fidelity falls with delta/Omega "
                                f"{r0} -> {r1} at gamma_h_hz={g}")


def _check_ensemble_box(config: dict, outputs: dict, problems: list[str]) -> None:
    crystal = config["crystal"]
    report = outputs["ensemble_report.json"]
    n_sites = crystal["box_size"] ** 3
    c = crystal["concentration"]
    mean, sigma = c * n_sites, math.sqrt(n_sites * c * (1.0 - c))
    if abs(report["n_dopants"] - mean) > DOPANT_COUNT_SIGMAS * sigma:
        problems.append(f"ensemble_report.json: n_dopants {report['n_dopants']} is more than "
                        f"{DOPANT_COUNT_SIGMAS} sigma from c*box^3 = {mean}")

    centers = outputs["centers.csv"]
    if len(centers.rows) != report["n_dopants"]:
        problems.append(f"centers.csv: {len(centers.rows)} rows, report says "
                        f"{report['n_dopants']}")
    partner = [int(p) if p else -1 for p in centers.column("partner_index")]
    members = 0
    for i, (flag, p) in enumerate(zip(centers.column("is_pair_member"), partner)):
        if int(flag) != (p >= 0):
            problems.append(f"centers.csv row {i}: is_pair_member disagrees with partner_index")
        if p >= 0:
            members += 1
            if not (0 <= p < len(partner)) or partner[p] != i:
                problems.append(f"centers.csv row {i}: partner {p} does not link back")
    if members != report["n_pair_members"]:
        problems.append(f"centers.csv: {members} pair members, report says "
                        f"{report['n_pair_members']}")

    gap = crystal["channel_min_gap_hz"]
    freqs = [float(f) for f in outputs["channels.csv"].column("frequency_hz")]
    for ch, (f0, f1) in enumerate(zip(freqs, freqs[1:])):
        if not f1 - f0 > gap:
            problems.append(f"channels.csv channel {ch + 1}: gap {f1 - f0} does not exceed "
                            f"channel_min_gap_hz {gap}")
    if len(freqs) != report.get("n_channels"):
        problems.append(f"channels.csv: {len(freqs)} channels, report says "
                        f"{report.get('n_channels')}")


WORKLOAD_CHECKS = {
    "ensemble_box": _check_ensemble_box,
    "closed_sweep": _check_closed_sweep,
    "noisy_sweep": _check_noisy_sweep,
}


def check_parsed(workload: str, outputs: dict, config: dict) -> list[str]:
    """Problems found in one run's parsed outputs; empty when they are correct."""
    problems: list[str] = []
    for name, value in sorted(outputs.items()):
        if value is None:
            problems.append(f"{name}: listed in the manifest but missing")
        elif isinstance(value, Table):
            _check_csv_values(name, value, problems)
        else:
            _check_json_values(name, value, "", problems)
    if problems:
        return problems
    try:
        WORKLOAD_CHECKS[workload](config, outputs, problems)
    except (KeyError, ValueError) as exc:
        problems.append(f"outputs cannot be read for the {workload} checks: {exc!r}")
    return problems
