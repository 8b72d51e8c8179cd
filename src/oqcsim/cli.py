"""Command-line interface.

Subcommands: run, validate, pulse-calc, species (list / validate),
emit-plot.  Exit codes follow a fixed contract for scripting:

    0  success
    2  schema / usage / cross-reference errors, and files that cannot be read
    3  physics-domain errors
    4  resource-cap errors

Every failure prints one line, "oqcsim: <kind>: <message>", on stderr.

The default output directory can be set with the OQCSIM_OUT
environment variable; --out overrides both it and the config.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .errors import DomainError, OqcsimError, ParseError, ResourceLimitError
from .pulses import BeamGeometry, EmitterRadiative, pi_pulse_budget
from .species import load_registry, validate_scheme

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_DOMAIN = 3
EXIT_RESOURCE = 4


def _diag(kind: str, message: str) -> None:
    print(f"oqcsim: {kind}: {message}", file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """Reads every token float() accepts, such as -inf or -1e5, as a value,
    and raises a usage error as a ParseError rather than exiting."""

    def error(self, message):
        raise ParseError(message)

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="oqcsim", description="optical-frequency qubit scenario runner")
    parser.add_argument("--version", action="version", version=f"oqcsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel sweep workers")
    p_run.add_argument("--format", choices=("json", "csv"), default="json",
                       help="format of the run summary printed to stdout")

    p_val = sub.add_parser("validate", help="check a config without running it")
    p_val.add_argument("--config", required=True)

    p_pc = sub.add_parser("pulse-calc", help="pi-pulse intensity, energy and field")
    p_pc.add_argument("--carrier-cm", type=float, required=True)
    p_pc.add_argument("--lifetime-ns", type=float, required=True,
                      help="radiative lifetime of the driven transition")
    p_pc.add_argument("--gamma-l", type=float, required=True, help="spectral width, 1/s")
    p_pc.add_argument("--cross-section-cm2", type=float, default=1e-7)
    p_pc.add_argument("--n", type=float, default=1.0, help="refractive index")
    p_pc.add_argument("--format", choices=("json", "csv", "text"), default="text")

    p_sp = sub.add_parser("species", help="registry operations")
    sp_sub = p_sp.add_subparsers(dest="species_command", required=True)
    p_list = sp_sub.add_parser("list", help="list known species")
    p_list.add_argument("--registry", default=None, help="extra species JSON file")
    p_sv = sp_sub.add_parser("validate", help="validate role assignments")
    p_sv.add_argument("name")
    p_sv.add_argument("--host", default=None)
    p_sv.add_argument("--threshold", type=float, default=1.0)
    p_sv.add_argument("--registry", default=None)

    p_plot = sub.add_parser("emit-plot", help="tidy plot CSV from run outputs")
    p_plot.add_argument("--kind", required=True,
                        choices=("fidelity-vs-delta", "population-vs-time", "spectrum"))
    p_plot.add_argument("--results", required=True, help="run output directory")
    p_plot.add_argument("--out", required=True, help="CSV file to write")
    return parser


def _cmd_run(args) -> int:
    from .runner import run
    out_dir = args.out or os.environ.get("OQCSIM_OUT")
    manifest = run(args.config, out_dir=out_dir, seed=args.seed, jobs=args.jobs)
    if args.format == "json":
        print(json.dumps(manifest, sort_keys=True, indent=2))
    else:
        for name, path in sorted(manifest["outputs"].items()):
            print(f"{name},{path}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    from .runner import load_config
    load_config(args.config)
    print("ok")
    return EXIT_OK


def _cmd_pulse_calc(args) -> int:
    budget = pi_pulse_budget(
        args.carrier_cm,
        EmitterRadiative(args.lifetime_ns * 1e-9),
        args.gamma_l,
        BeamGeometry(args.cross_section_cm2, args.n),
    )
    fields = [("intensity_w_cm2", budget.intensity_w_cm2),
              ("pulse_energy_j", budget.energy_j),
              ("peak_field_v_cm", budget.field_v_cm)]
    if args.format == "json":
        print(json.dumps(dict(fields), sort_keys=True, indent=2))
    elif args.format == "csv":
        print("quantity,value")
        for name, value in fields:
            print(f"{name},{value!r}")
    else:
        print(f"intensity   {budget.intensity_w_cm2:.6g} W/cm^2")
        print(f"energy      {budget.energy_j:.6g} J")
        print(f"peak field  {budget.field_v_cm:.6g} V/cm")
    return EXIT_OK


def _cmd_species(args) -> int:
    registry = load_registry(args.registry)
    if args.species_command == "list":
        for name, host in registry.names():
            scheme = registry.get(name, host)
            print(f"{name} in {host}: {len(scheme.levels)} levels, "
                  f"{len(scheme.transitions)} transitions")
        return EXIT_OK
    scheme = registry.get(args.name, args.host)
    report = validate_scheme(scheme, args.threshold)
    for d in report.diagnostics:
        print(f"{d.status.upper():8s} {d.term_symbol} ({d.role.value}): {d.message}")
    print("pass" if report.passed else "fail")
    return EXIT_OK if report.passed else EXIT_DOMAIN


def _cmd_emit_plot(args) -> int:
    from .runner import emit_plot_data
    emit_plot_data(args.results, args.kind, args.out)
    print(args.out)
    return EXIT_OK


_HANDLERS = {
    "run": _cmd_run,
    "validate": _cmd_validate,
    "pulse-calc": _cmd_pulse_calc,
    "species": _cmd_species,
    "emit-plot": _cmd_emit_plot,
}


# The exit code and diagnostic kind of a failure: those of the first
# entry whose classes it is an instance of.  The last entry covers every
# failure main catches.
_EXITS = ((DomainError, EXIT_DOMAIN, "domain"),
          (ResourceLimitError, EXIT_RESOURCE, "resource"),
          ((OqcsimError, OSError), EXIT_SCHEMA, "schema"))


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _HANDLERS[args.command](args)
    except (OqcsimError, OSError) as exc:
        code, kind = next((code, kind) for cls, code, kind in _EXITS if isinstance(exc, cls))
        message = str(exc)
        if isinstance(exc, OSError) and exc.filename is not None:
            message = f"{exc.filename}: {exc.strerror}"
        _diag(kind, message)
        return code


if __name__ == "__main__":
    sys.exit(main())
