"""The callers outside the package: the demos and the benchmark's hooks.

Both run in a fresh interpreter with src/ on the path, as they are run
from a source checkout, so a name the package stops defining, or a
submodule it stops importing, shows here.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# What bench/child.py imports, then what bench/tracing.py patches on the
# imported package: each (module, attribute) of BINDINGS must resolve.
BENCH_HOOKS = """
import importlib.util, inspect, sys
spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
import oqcsim
from oqcsim import cli, runner
missing = [(m, a) for m, a, _ in tracing.BINDINGS
           if not callable(getattr(getattr(oqcsim, m, None), a, None))]
assert not missing, missing
inspect.signature(runner.run).bind("config.json", "out", jobs=1)
"""

# Each benchmark workload set up and run as bench/child.py traces one: its
# config loaded, then run, with bench/tracing.py's spans on the package.
# Every per-layer metric named after a traced span needs that span recorded,
# and the sweep's p99 enough run_protocol calls.
BENCH_COVERAGE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from metrics import PER_LAYER
from tracing import BINDINGS, P99_MIN_CALLS, Tracer
from workloads import DEFAULT_SEED, WORKLOADS, make_config
import oqcsim
from oqcsim import runner
tracer = Tracer("coverage")
tracer.instrument(oqcsim)
spans = {name for _, _, name in BINDINGS}
for workload in WORKLOADS:
    config = workload + ".json"
    with open(config, "w") as fh:
        json.dump(make_config(workload, DEFAULT_SEED), fh)
    first = len(tracer.spans)
    runner.load_config(config)
    runner.run(config, workload, jobs=1)
    recorded = [name for _, _, name, _, _ in tracer.spans[first:]]
    needed = {span for metric, *_ in PER_LAYER[workload] for span in spans
              if metric.startswith(span + ".")}
    assert needed <= set(recorded), (workload, sorted(needed - set(recorded)))
    if workload == "closed_sweep":
        calls = recorded.count("gates.run_protocol")
        assert calls >= P99_MIN_CALLS, calls
"""

# Every bundled config, validated and run as bench/child.py runs one, with
# scipy made unimportable: running needs only numpy.
NO_SCIPY_RUNS = """
import sys
sys.modules["scipy"] = None                         # any scipy import now fails
from oqcsim import cli, runner
for config in sys.argv[1:]:
    out = config.rsplit("/", 1)[1].removesuffix(".json")
    assert cli.main(["validate", "--config", config]) == 0, config
    assert cli.main(["run", "--config", config, "--out", out]) == 0, config
loaded = [m for m, module in sys.modules.items() if m.startswith("scipy") and module]
assert not loaded, loaded
"""

# The bundled gate configs (a sweep and a noisy pair-center gate), run as
# bench/child.py runs a config: neither loads numpy.ma, which a plain
# np.unique or np.median imports in numpy 2.4 (about 12 ms a run);
# np.unique with return_inverse=True does not.
NO_MA_GATE_RUNS = """
import sys
from oqcsim import runner
for config in sys.argv[1:]:
    runner.run(config, config.rsplit("/", 1)[1].removesuffix(".json"))
assert "numpy.ma" not in sys.modules
"""


def run_python(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_benchmark_bindings_resolve(tmp_path):
    done = run_python(["-c", BENCH_HOOKS, str(ROOT / "bench" / "tracing.py")], tmp_path)
    assert done.returncode == 0, done.stderr


def test_benchmark_metrics_see_their_spans(tmp_path):
    done = run_python(["-c", BENCH_COVERAGE, str(ROOT / "bench")], tmp_path)
    assert done.returncode == 0, done.stderr


def test_bundled_configs_run_without_scipy(tmp_path):
    configs = sorted((ROOT / "src" / "oqcsim" / "configs").glob("*.json"))
    assert [c.stem for c in configs] == ["blockade_cz_sweep", "nd_caf2_ensemble",
                                         "pair_center_cnot", "pulse_budget_ns_emitter"]
    done = run_python(["-c", NO_SCIPY_RUNS, *map(str, configs)], tmp_path)
    assert done.returncode == 0, done.stderr
    assert all((tmp_path / c.stem / "manifest.json").exists() for c in configs)


def test_bundled_gate_runs_do_not_import_numpy_ma(tmp_path):
    configs = [ROOT / "src" / "oqcsim" / "configs" / f"{name}.json"
               for name in ("blockade_cz_sweep", "pair_center_cnot")]
    done = run_python(["-c", NO_MA_GATE_RUNS, *map(str, configs)], tmp_path)
    assert done.returncode == 0, done.stderr
    assert all((tmp_path / c.stem / "manifest.json").exists() for c in configs)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(tmp_path, demo):
    done = run_python([str(demo)], tmp_path)
    assert done.returncode == 0, done.stderr
