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

# A closed sweep, started as bench/child.py starts a run, loads no scipy.spatial:
# only ensemble distances need cKDTree, and it is imported where they are taken.
CLOSED_RUN = """
import sys
import oqcsim
from oqcsim import cli, runner
runner.run(sys.argv[1], "out", jobs=1)
assert "scipy.spatial" not in sys.modules, "scipy.spatial imported"
"""


def run_python(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_benchmark_bindings_resolve(tmp_path):
    done = run_python(["-c", BENCH_HOOKS, str(ROOT / "bench" / "tracing.py")], tmp_path)
    assert done.returncode == 0, done.stderr


def test_closed_run_leaves_scipy_spatial_unloaded(tmp_path):
    config = ROOT / "src" / "oqcsim" / "configs" / "blockade_cz_sweep.json"
    done = run_python(["-c", CLOSED_RUN, str(config)], tmp_path)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "sweep.csv").exists()


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(tmp_path, demo):
    done = run_python([str(demo)], tmp_path)
    assert done.returncode == 0, done.stderr
