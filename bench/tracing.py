"""Span tracing around oqcsim's public functions, from outside the package.

Each traced function is replaced, at the module attribute its caller
looks it up by, with a wrapper that records a span: name, start, end and
parent span, under one run id.  Spans are kept in memory and written out
when the traced process ends.  Nothing in oqcsim is edited; the patches
exist only in the traced process.

A span is named after the module that defines the function, whichever
module calls it, so `ensemble.sample_lattice` collects the runner's call
and the one inside `interactions.ensemble_blockade_report`.
"""
from __future__ import annotations

import os
import statistics
import time

# (module whose attribute is patched, attribute, span name).  The module
# is the caller's: runner binds most functions by `from ... import`, and
# a function defined in the same module is looked up in that module.
BINDINGS = (
    ("runner", "load_config", "runner.load_config"),
    ("runner", "load_registry", "species.load_registry"),
    ("runner", "build_gate_scenario", "runner.build_gate_scenario"),
    ("runner", "sample_lattice", "ensemble.sample_lattice"),
    ("runner", "assign_frequencies", "ensemble.assign_frequencies"),
    ("runner", "identify_pairs", "ensemble.identify_pairs"),
    ("runner", "spectral_select", "ensemble.spectral_select"),
    ("runner", "allocate_channels", "ensemble.allocate_channels"),
    ("runner", "estimate_fwhm", "ensemble.estimate_fwhm"),
    ("runner", "nearest_neighbor_distances", "ensemble.nearest_neighbor_distances"),
    ("runner", "export_centers_csv", "ensemble.export_centers_csv"),
    ("runner", "export_allocation_csv", "ensemble.export_allocation_csv"),
    ("runner", "ensemble_blockade_report", "interactions.ensemble_blockade_report"),
    ("runner", "pair_center_scenario", "gates.pair_center_scenario"),
    ("runner", "run_protocol", "gates.run_protocol"),
    ("runner", "run_sweep", "gates.sweep"),
    ("runner", "propagate_unitary", "dynamics.propagate_unitary"),
    ("runner", "propagate_lindblad", "dynamics.propagate_lindblad"),
    ("runner", "export_trajectory_csv", "dynamics.export_trajectory_csv"),
    ("interactions", "sample_lattice", "ensemble.sample_lattice"),
    ("interactions", "ensemble_neighborhood", "ensemble.ensemble_neighborhood"),
    ("interactions", "nearest_neighbor_distances", "ensemble.nearest_neighbor_distances"),
    ("gates", "run_protocol", "gates.run_protocol"),
    ("gates", "scenario_system", "gates.scenario_system"),
    ("gates", "sequence_unitary", "dynamics.sequence_unitary"),
    ("gates", "sequence_superoperator", "dynamics.sequence_superoperator"),
    ("gates", "pair_eigensystem_perturbative", "paircenter.pair_eigensystem_perturbative"),
    ("dynamics", "build_hamiltonian", "dynamics.build_hamiltonian"),
    ("dynamics", "collapse_operators", "dynamics.collapse_operators"),
    ("dynamics", "lindblad_superoperator", "dynamics.lindblad_superoperator"),
    ("dynamics", "expm", "dynamics.expm"),
)

# Values read off a traced call: span name -> (observation, function of
# (args, result)).  They are counts, so they must repeat exactly.
OBSERVERS = {
    "dynamics.expm": ("dynamics.expm.order", lambda args, result: args[0].shape[0]),
    "gates.scenario_system": ("dynamics.register_dim", lambda args, result: result.dimension),
    "ensemble.export_centers_csv": ("ensemble.export_centers_csv.bytes",
                                    lambda args, result: os.path.getsize(args[0])),
}

P99_MIN_CALLS = 1000   # p99 needs at least ten calls beyond it


class Tracer:
    """In-memory span recorder for one traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []          # [id, parent, name, start, end]
        self.observations: dict[str, list] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> list:
        rec = [len(self.spans), self._stack[-1] if self._stack else -1, name,
               time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def close(self, rec: list) -> None:
        rec[4] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        observer = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if observer is not None:
                key, read = observer
                self.observations.setdefault(key, []).append(read(args, result))
            return result

        return traced

    def instrument(self, package) -> None:
        """Patch every binding in BINDINGS on the imported package."""
        for module_name, attr, span_name in BINDINGS:
            module = getattr(package, module_name)
            setattr(module, attr, self.wrap(span_name, getattr(module, attr)))

    def to_dict(self) -> dict:
        return {"run_id": self.run_id,
                "spans": [dict(zip(("id", "parent", "name", "start", "end"), s))
                          for s in self.spans],
                "observations": self.observations}


def _subtree(spans: list[dict], root: dict) -> list[dict]:
    inside = {root["id"]}
    out = [root]
    for s in spans[root["id"] + 1:]:     # children are recorded after parents
        if s["parent"] in inside:
            inside.add(s["id"])
            out.append(s)
    return out


def span_stats(trace: dict, root_name: str) -> dict[str, float]:
    """Per-span-name statistics below (and including) the root span.

    For each name: `.s` total duration, `.self_s` total self time (duration
    minus the time its direct child spans cover), `.calls`, `.p50_ms`,
    and `.p99_ms` when at least P99_MIN_CALLS calls were made.  Also the
    self time of each layer (the module prefix of the span name) as
    `layer.<module>.self_s`; these sum to the root's duration.
    """
    spans = trace["spans"]
    root = next(s for s in spans if s["name"] == root_name and s["parent"] == -1)
    tree = _subtree(spans, root)
    child_time: dict[int, float] = {}
    for s in tree[1:]:
        child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    durations: dict[str, list[float]] = {}
    self_time: dict[str, float] = {}
    layers: dict[str, float] = {}
    for s in tree:
        d = s["end"] - s["start"]
        own = d - child_time.get(s["id"], 0.0)
        durations.setdefault(s["name"], []).append(d)
        self_time[s["name"]] = self_time.get(s["name"], 0.0) + own
        layer = s["name"].split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + own
    stats: dict[str, float] = {}
    for name, ds in durations.items():
        stats[f"{name}.s"] = sum(ds)
        stats[f"{name}.self_s"] = self_time[name]
        stats[f"{name}.calls"] = len(ds)
        stats[f"{name}.p50_ms"] = 1e3 * statistics.median(ds)
        if len(ds) >= P99_MIN_CALLS:
            stats[f"{name}.p99_ms"] = 1e3 * statistics.quantiles(ds, n=100)[98]
    for layer, t in layers.items():
        stats[f"layer.{layer}.self_s"] = t
    return stats
