"""One benchmark sample: set up and run one scenario in a fresh interpreter.

    python3 child.py --src SRC --config CONFIG --out OUT [--trace SPANS] [--setup-only]

Set-up is what every `oqcsim run` pays before its first stage: import
the CLI and the runner, then parse and validate the config.  The
monotonic clock reading at the end of set-up is printed on stdout, so
the parent can time set-up from the moment it started this process.
The run is `oqcsim.runner.run(config, out)` with the CLI's default
jobs=1.  The last stdout line is a JSON object with the run's wall time
and the process's peak resident memory.  With --trace, spans are
recorded around oqcsim's public functions and written to SPANS at exit.
"""
import argparse
import json
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, args.src)

    tracer = None
    if args.trace:
        from pathlib import Path
        from tracing import Tracer
        tracer = Tracer(run_id=Path(args.trace).stem)
        setup_span = tracer.open("setup")
        import_span = tracer.open("runner.import")

    import oqcsim
    from oqcsim import cli, runner  # noqa: F401  (the CLI import is part of set-up)

    if tracer is not None:
        tracer.close(import_span)
        tracer.instrument(oqcsim)
    if not oqcsim.__file__.startswith(args.src):
        print(f"child: imported oqcsim from {oqcsim.__file__}, not from {args.src}",
              file=sys.stderr)
        return 2
    runner.load_config(args.config)
    if tracer is not None:
        tracer.close(setup_span)
    print(json.dumps({"ready_monotonic": time.monotonic()}), flush=True)
    if args.setup_only:
        return 0

    if tracer is not None:
        tracer.observations.clear()      # observations belong to the run
        run_span = tracer.open("runner.run")
    t0 = time.perf_counter()
    runner.run(args.config, args.out, jobs=1)
    run_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.close(run_span)
        with open(args.trace, "w") as fh:
            json.dump(tracer.to_dict(), fh)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"run_s": run_s, "peak_rss_mb": peak_rss_mb}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
