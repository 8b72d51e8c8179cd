"""Metric catalogue: the end-to-end metrics and, per workload, the per-layer ones.

Each per-layer entry is (metric, unit, better, end-to-end metric it
should move).  It is reported as `<workload>.<metric>` by a traced run.
Counts (units in EXACT_UNITS) describe the work done and must repeat
exactly for a given seed; `none` in the last field marks a count that
checks the work is unchanged rather than a cost.  Where a metric comes
from is decided in run.py: set-up spans, run spans, span observations,
or the run's own report.
"""

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Measured in the set-up phase (import, then parse and validate the
# config); every other span metric is measured inside runner.run.
SETUP_METRICS = ("runner.import.s", "runner.load_config.s", "species.load_registry.s")

EXACT_UNITS = ("count", "bytes", "ratio")

_RUN = (
    ("runner.run.s", "s", "lower", "run_s"),
    ("runner.run.self_s", "s", "lower", "run_s"),
    ("trace.overhead_s", "s", "lower", "none"),
)

PER_LAYER = {
    "ensemble_box": (
        ("runner.import.s", "s", "lower", "setup_s"),
        ("runner.load_config.s", "s", "lower", "setup_s"),
        ("species.load_registry.s", "s", "lower", "setup_s"),
        *_RUN,
        ("layer.runner.self_s", "s", "lower", "run_s"),
        ("layer.species.self_s", "s", "lower", "run_s"),
        ("layer.ensemble.self_s", "s", "lower", "run_s"),
        ("layer.interactions.self_s", "s", "lower", "run_s"),
        ("ensemble.sample_lattice.s", "s", "lower", "run_s, peak_rss_mb"),
        ("ensemble.sample_lattice.calls", "count", "lower", "run_s, peak_rss_mb"),
        ("ensemble.identify_pairs.s", "s", "lower", "run_s, peak_rss_mb"),
        ("ensemble.assign_frequencies.s", "s", "lower", "run_s, peak_rss_mb"),
        ("ensemble.spectral_select.s", "s", "lower", "run_s, peak_rss_mb"),
        ("ensemble.allocate_channels.s", "s", "lower", "run_s, peak_rss_mb"),
        ("ensemble.export_centers_csv.s", "s", "lower", "run_s"),
        ("ensemble.export_centers_csv.bytes", "bytes", "lower", "run_s"),
        ("ensemble.export_allocation_csv.s", "s", "lower", "run_s"),
        ("ensemble.n_dopants", "count", "higher", "none"),
        ("ensemble.n_pair_members", "count", "higher", "none"),
        ("ensemble.n_selected", "count", "higher", "none"),
        ("ensemble.n_channels", "count", "higher", "none"),
        ("ensemble.selected_per_dopant", "ratio", "higher", "none"),
        ("interactions.ensemble_blockade_report.s", "s", "lower", "run_s"),
        ("interactions.ensemble_blockade_report.self_s", "s", "lower", "run_s"),
        ("ensemble.ensemble_neighborhood.s", "s", "lower", "run_s"),
        ("ensemble.nearest_neighbor_distances.s", "s", "lower", "run_s"),
    ),
    "closed_sweep": (
        ("runner.import.s", "s", "lower", "setup_s"),
        ("runner.load_config.s", "s", "lower", "setup_s"),
        *_RUN,
        ("layer.runner.self_s", "s", "lower", "run_s"),
        ("layer.gates.self_s", "s", "lower", "run_s"),
        ("layer.dynamics.self_s", "s", "lower", "run_s"),
        ("runner.build_gate_scenario.s", "s", "lower", "run_s"),
        ("runner.build_gate_scenario.calls", "count", "lower", "run_s"),
        ("gates.run_protocol.s", "s", "lower", "run_s"),
        ("gates.run_protocol.self_s", "s", "lower", "run_s"),
        ("gates.run_protocol.calls", "count", "lower", "run_s"),
        ("gates.run_protocol.p50_ms", "ms", "lower", "run_s"),
        ("gates.run_protocol.p99_ms", "ms", "lower", "run_s"),
        ("gates.sweep.points_per_s", "1/s", "higher", "run_s"),
        ("gates.scenario_system.s", "s", "lower", "run_s"),
        ("dynamics.build_hamiltonian.s", "s", "lower", "run_s"),
        ("dynamics.build_hamiltonian.calls", "count", "lower", "run_s"),
        ("dynamics.sequence_unitary.self_s", "s", "lower", "run_s"),
        ("dynamics.propagate_unitary.s", "s", "lower", "run_s"),
        ("dynamics.export_trajectory_csv.s", "s", "lower", "run_s"),
        ("dynamics.register_dim", "count", "lower", "none"),
    ),
    "noisy_sweep": (
        ("runner.import.s", "s", "lower", "setup_s"),
        ("runner.load_config.s", "s", "lower", "setup_s"),
        *_RUN,
        ("layer.runner.self_s", "s", "lower", "run_s"),
        ("layer.gates.self_s", "s", "lower", "run_s"),
        ("layer.dynamics.self_s", "s", "lower", "run_s"),
        ("layer.paircenter.self_s", "s", "lower", "run_s"),
        ("gates.run_protocol.s", "s", "lower", "run_s"),
        ("gates.run_protocol.self_s", "s", "lower", "run_s"),
        ("gates.run_protocol.calls", "count", "lower", "run_s"),
        ("gates.run_protocol.p50_ms", "ms", "lower", "run_s"),
        ("gates.sweep.points_per_s", "1/s", "higher", "run_s"),
        ("gates.scenario_system.s", "s", "lower", "run_s"),
        ("dynamics.sequence_superoperator.self_s", "s", "lower", "run_s, peak_rss_mb"),
        ("dynamics.lindblad_superoperator.s", "s", "lower", "run_s, peak_rss_mb"),
        ("dynamics.lindblad_superoperator.calls", "count", "lower", "run_s, peak_rss_mb"),
        ("dynamics.collapse_operators.s", "s", "lower", "run_s, peak_rss_mb"),
        ("dynamics.expm.s", "s", "lower", "run_s, peak_rss_mb"),
        ("dynamics.expm.calls", "count", "lower", "run_s, peak_rss_mb"),
        ("dynamics.expm.order", "count", "lower", "run_s, peak_rss_mb"),
        ("dynamics.expm.computed_bytes", "bytes", "lower", "run_s, peak_rss_mb"),
        ("dynamics.propagate_lindblad.s", "s", "lower", "run_s, peak_rss_mb"),
        ("dynamics.export_trajectory_csv.s", "s", "lower", "run_s"),
        ("dynamics.register_dim", "count", "lower", "none"),
        ("paircenter.pair_eigensystem_perturbative.s", "s", "lower", "run_s"),
        ("paircenter.pair_eigensystem_perturbative.calls", "count", "lower", "run_s"),
    ),
}
