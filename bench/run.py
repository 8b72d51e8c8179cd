"""oqcsim benchmark: three `oqcsim run` workloads, end to end and per layer.

    python3 bench/run.py --workload {ensemble_box,closed_sweep,noisy_sweep}
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
`src/` there, and all files are written under `.bench_work/`.

Every sample is a fresh interpreter (bench/child.py) that sets up and
runs one generated scenario config, as `oqcsim run` does.  Samples are
taken one after another, with the BLAS threading left at its default,
until --seconds have been used (at least three).  Each sample's outputs
are hashed and must match the first sample's; after the last sample the
outputs are checked for correctness and used for the checker's
self-test.

--trace 0 measures the named workload and reports the end-to-end
metrics (medians over the samples): setup_s, run_s, peak_rss_mb.
--trace 1 traces every workload, alternating traced and untraced
samples, and reports each per-layer metric as `<workload>.<metric>`
(see metrics.py).  Tracing every workload lets each traced run report
every per-layer metric.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  An operation is one run or one sweep
row; it fails when the run exits non-zero, its outputs fail a check or
differ from the first sample's, or the row's status is not `ok`.  The
exit code is 0 only when every operation succeeded.  Without the
program's sources the command exits 2 and prints no result.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_parsed, digest, read_outputs
from metrics import END_TO_END, EXACT_UNITS, PER_LAYER, SETUP_METRICS
from selftest import selftest
from tracing import span_stats
from workloads import DEFAULT_SEED, WORKLOADS, make_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_SAMPLES = 3
MIN_TRACED = 2              # so that counts can be compared within a run
CHILD_TIMEOUT_S = 60


def environment(load_1min: float) -> dict:
    """Interpreter, numeric libraries, BLAS threading and machine load."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS)

    blas = []
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for suffix in ("", "64_"):
            for prefix in ("scipy_openblas", "openblas"):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and "threads" not in entry:
                    get_threads.restype = ctypes.c_int
                    entry["threads"] = get_threads()
                if get_config is not None and "config" not in entry:
                    get_config.restype = ctypes.c_char_p
                    entry["config"] = get_config().decode()
        blas.append(entry)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                    "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "load_1min_at_start": load_1min,
        "machine": platform.machine(),
    }


class Workload:
    """One workload's generated config, output directory and tallies."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.config = make_config(name, seed)
        self.dir = WORK / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config_path = self.dir / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=2, sort_keys=True) + "\n")
        self.out = self.dir / "out"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest: str | None = None
        self.samples: list[dict] = []
        self.sample_wall: list[float] = []

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def child(self, trace: Path | None = None, setup_only: bool = False) -> dict | None:
        """Start one fresh interpreter, wait for it, and read its report."""
        shutil.rmtree(self.out, ignore_errors=True)
        cmd = [sys.executable, str(HERE / "child.py"), "--src", str(SRC),
               "--config", str(self.config_path), "--out", str(self.out)]
        if trace is not None:
            cmd += ["--trace", str(trace)]
        if setup_only:
            cmd.append("--setup-only")
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        except subprocess.TimeoutExpired:
            return None
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) < (1 if setup_only else 2):
            return None
        report = {"setup_s": json.loads(lines[0])["ready_monotonic"] - t0}
        if not setup_only:
            report.update(json.loads(lines[-1]))
        return report

    def sample(self, trace: Path | None = None) -> dict | None:
        """One measured run and its digest; None when it failed."""
        t0 = time.monotonic()
        self.attempted += 1
        report = self.child(trace)
        if report is None:
            self.fail("run exited non-zero or timed out")
            return None
        self._count_sweep_rows()
        out_digest = digest(self.out)
        if self.digest is None:
            self.digest = out_digest
        elif out_digest != self.digest:
            self.fail(f"outputs differ from the first sample's (digest {out_digest[:16]})")
            return None
        report["traced"] = trace is not None
        self.samples.append(report)
        self.sample_wall.append(time.monotonic() - t0)
        return report

    def verify(self) -> None:
        """Check the last sample's outputs and self-test the checker on them.

        Every sample's outputs have the same digest, so one check covers
        them all.  It runs after the last sample, so that the parsed
        outputs do not sit in this process's memory while samples run.
        """
        if not self.samples:
            return
        outputs = read_outputs(self.out)
        problems = check_parsed(self.name, outputs, self.config)
        if not problems:
            problems = [f"checker self-test missed: {m}"
                        for m in selftest(self.name, outputs, self.config)]
        if problems:
            self.fail("; ".join(problems[:5]))

    def _count_sweep_rows(self) -> None:
        sweep = self.out / "sweep.csv"
        if not sweep.is_file():
            return
        lines = sweep.read_text().splitlines()[1:]
        self.attempted += len(lines)
        bad = sum(1 for line in lines if not line.endswith(",ok"))
        if bad:
            self.fail(f"{bad} sweep rows without status ok")
            self.failed += bad - 1

    def next_sample_fits(self, started: float, budget: float) -> bool:
        typical = statistics.median(self.sample_wall) if self.sample_wall else 0.0
        return time.monotonic() - started + typical <= budget

    def ready(self) -> bool:
        """Warm-up: one set-up (compiles bytecode, fills the page cache), not measured."""
        return self.child(setup_only=True) is not None


def quartiles(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def measure(wl: Workload, seconds: float) -> dict:
    """End-to-end metrics of one workload from untraced samples."""
    started = time.monotonic()
    if not wl.ready():
        wl.attempted += 1
        wl.fail("set-up failed")
        return {}
    while ((len(wl.samples) < MIN_SAMPLES and not wl.failed)
           or wl.next_sample_fits(started, seconds)):
        wl.sample()
    wl.verify()
    if not wl.samples:
        return {}
    return {name: {**quartiles([s[name] for s in wl.samples]), "unit": unit}
            for name, unit, _ in END_TO_END}


def _layer_values(wl: Workload, trace: dict) -> dict[str, float]:
    """Every catalogued per-layer value of one traced sample."""
    setup = span_stats(trace, "setup")
    run = span_stats(trace, "runner.run")
    obs = trace["observations"]
    derived = {}
    if "dynamics.expm.order" in obs:
        derived["dynamics.expm.order"] = max(obs["dynamics.expm.order"])
        derived["dynamics.expm.computed_bytes"] = sum(16 * n * n
                                                      for n in obs["dynamics.expm.order"])
    if "dynamics.register_dim" in obs:
        derived["dynamics.register_dim"] = max(obs["dynamics.register_dim"])
    if "ensemble.export_centers_csv.bytes" in obs:
        derived["ensemble.export_centers_csv.bytes"] = sum(obs["ensemble.export_centers_csv.bytes"])
    if "gates.sweep.s" in run:
        points = len((wl.out / "sweep.csv").read_text().splitlines()) - 1
        derived["gates.sweep.points_per_s"] = points / run["gates.sweep.s"]
    report = wl.out / "ensemble_report.json"
    if report.is_file():
        data = json.loads(report.read_text())
        for key in ("n_dopants", "n_pair_members", "n_selected", "n_channels"):
            derived[f"ensemble.{key}"] = data[key]
        derived["ensemble.selected_per_dopant"] = data["n_selected"] / data["n_dopants"]
    values = {}
    for metric, *_ in PER_LAYER[wl.name]:
        if metric in SETUP_METRICS:
            source = setup
        elif metric in derived:
            source = derived
        else:
            source = run
        if metric in source:
            values[metric] = source[metric]
    layer_sum = sum(v for k, v in run.items() if k.startswith("layer."))
    if abs(layer_sum - run["runner.run.s"]) > 1e-6 * run["runner.run.s"]:
        wl.fail(f"layer self times sum to {layer_sum}, runner.run took {run['runner.run.s']}")
    unlisted = sorted(k for k in run if k.startswith("layer.")
                      and not any(m == k for m, *_ in PER_LAYER[wl.name]))
    if unlisted:
        wl.fail(f"layers not in the catalogue: {unlisted}")
    return values


def trace_all(seed: int, seconds: float) -> tuple[list[Workload], dict]:
    """Per-layer metrics of every workload, from alternating traced/untraced samples."""
    workloads, metrics = [], {}
    budget = seconds / len(WORKLOADS)
    for name in WORKLOADS:
        wl = Workload(name, seed)
        workloads.append(wl)
        started = time.monotonic()
        if not wl.ready():
            wl.attempted += 1
            wl.fail("set-up failed")
            continue
        spans, untraced = [], []
        while (((len(spans) < MIN_TRACED or not untraced) and not wl.failed)
               or wl.next_sample_fits(started, budget)):
            traced = len(spans) <= len(untraced)
            spans_path = wl.dir / f"spans-{len(wl.samples)}.json" if traced else None
            report = wl.sample(spans_path)
            if report is not None:
                (spans if traced else untraced).append(spans_path or report["run_s"])
        wl.verify()
        if not spans or not untraced:
            continue
        traces = [_layer_values(wl, json.loads(path.read_text())) for path in spans]
        for metric, unit, _, _ in PER_LAYER[name]:
            if metric == "trace.overhead_s":
                values = [t["runner.run.s"] for t in traces]
                value = statistics.median(values) - statistics.median(untraced)
            elif any(metric not in t for t in traces):
                wl.fail(f"traced run did not produce {metric}")
                continue
            else:
                values = [t[metric] for t in traces]
                if unit not in EXACT_UNITS:
                    value = statistics.median(values)
                elif len(set(values)) == 1:
                    value = values[0]
                else:
                    wl.fail(f"{metric} differs between traced samples: {values}")
                    continue
            metrics[f"{name}.{metric}"] = {"value": value, "unit": unit}
    return workloads, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "oqcsim" / "__init__.py").is_file():
        print(f"bench: no oqcsim sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    load_1min = os.getloadavg()[0]
    WORK.mkdir(exist_ok=True)
    env = environment(load_1min)

    if args.trace:
        workloads, metrics = trace_all(args.seed, args.seconds)
        detail = metrics
    else:
        workloads = [Workload(args.workload, args.seed)]
        detail = measure(workloads[0], args.seconds)
        metrics = {name: {"value": d["median"], "unit": d["unit"]} for name, d in detail.items()}

    attempted = sum(w.attempted for w in workloads)
    failed = sum(w.failed for w in workloads)
    expected = ({f"{w}.{m[0]}" for w in WORKLOADS for m in PER_LAYER[w]} if args.trace
                else {name for name, *_ in END_TO_END})
    correct = failed == 0 and set(metrics) == expected

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    for w in workloads:
        print(f"workload {w.name}: seed {w.seed}, {len(w.samples)} samples, "
              f"digest sha256:{w.digest}")
        for problem in w.problems:
            print(f"  FAILED: {problem}")
    if not args.trace:
        for name, d in detail.items():
            print(f"  {name:<12} {d['median']:.6g} {d['unit']}  "
                  f"(q1 {d['q1']:.6g}, q3 {d['q3']:.6g}, n {d['n']})")
    else:
        for name, m in metrics.items():
            print(f"  {name:<64} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':<12} {failed / max(1, attempted):.6g} ratio "
          f"({failed} of {attempted} operations)")

    results = WORK / "results"
    results.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "metrics": detail,
              "failed_frac": failed / max(1, attempted),
              "workloads": {w.name: {"digest": w.digest, "samples": w.samples,
                                     "problems": w.problems} for w in workloads}}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
