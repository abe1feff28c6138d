"""Command-line surface: state selection, angle configuration, sweeps,
scans, searches, sampling, and report emission.

Angles arrive in radians unless --degrees is given.  Numeric output is
printed with 6 significant digits by default (--full-precision for 17).
Exit codes: 0 success, 1 invalid configuration or a failed numerical
self-check (ArithmeticError), 2 I/O failure.  Violations discovered by any
command are data, not errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bitstream import DEFAULT_RUNS, format_bit_record, sample_runs
from .born import joint_distribution
from .entropy import build_entropy_table
from .geometry import octahedron_report, simplex_report
from .scenarios import PRESETS, scan_delta, search_violation, sweep_surface
from .states import DetectorSetting, StateVector, load_state, make_named_state

SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "QIG_OUTPUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2


class CliError(Exception):
    """Invalid configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); config errors are exit 1 here
        raise CliError(message)


# ---------------------------------------------------------------------------
# config parsing helpers


def parse_state(spec: str) -> StateVector:
    """Resolve a state spec: ghzN / wN / productN, singlet-sym,
    singlet-antisym, or a path to a state file."""
    name = spec.lower()
    if name == "singlet-sym":
        return make_named_state("singlet_sym", 2)
    if name == "singlet-antisym":
        return make_named_state("singlet_antisym", 2)
    for prefix, canonical in (("ghz", "ghz"), ("product", "product_v"), ("w", "w")):
        if name.startswith(prefix) and name[len(prefix):].isdigit():
            return make_named_state(canonical, int(name[len(prefix):]))
    if Path(spec).exists():
        return load_state(spec)
    raise CliError(
        f"unrecognized state {spec!r}: use ghzN/wN/productN, singlet-sym, "
        "singlet-antisym, or a state file path"
    )


def parse_angles(text: str, expected: int, degrees: bool) -> list[float]:
    parts = [p for p in text.split(",") if p != ""]
    if len(parts) != expected:
        raise CliError(f"expected {expected} comma-separated angles, got {len(parts)} in {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise CliError(f"non-numeric angle in {text!r}") from None
    if degrees:
        values = [v * math.pi / 180.0 for v in values]
    return values


def default_observer_labels(n: int) -> list[str]:
    if n <= 26:
        return [chr(ord("A") + k) for k in range(n)]
    return [f"O{k}" for k in range(n)]


def settings_from_args(state: StateVector, args) -> list[DetectorSetting]:
    if args.angles is None:
        raise CliError("--angles is required for this command")
    polars = parse_angles(args.angles, state.n_qubits, args.degrees)
    azimuths = [0.0] * state.n_qubits
    if getattr(args, "azimuths", None):
        azimuths = parse_angles(args.azimuths, state.n_qubits, args.degrees)
    labels = default_observer_labels(state.n_qubits)
    return [
        DetectorSetting(lbl, pol, azi) for lbl, pol, azi in zip(labels, polars, azimuths)
    ]


def resolve_out(path_text: str | None):
    if path_text is None:
        return None
    path = Path(path_text)
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


# ---------------------------------------------------------------------------
# output formatting


def _records(obj) -> dict | list[dict]:
    """A dataclass as a dict in field order, or, when its fields are array
    columns, one such dict per row."""
    names = [f.name for f in dataclasses.fields(obj)]
    values = [getattr(obj, name) for name in names]
    if isinstance(values[0], np.ndarray):
        return [dict(zip(names, row)) for row in zip(*(v.tolist() for v in values))]
    return dict(zip(names, values))


def _round_floats(obj, digits: int):
    if isinstance(obj, float):
        return float(f"{obj:.{digits}g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, digits) for v in obj]
    if obj is None or isinstance(obj, (int, str)):  # bool is an int
        return obj
    return _round_floats(_records(obj), digits)


def emit_json(payload: dict, args) -> str:
    digits = 17 if args.full_precision else 6
    body = {"schema_version": SCHEMA_VERSION}
    body.update(_round_floats(payload, digits))
    return json.dumps(body, indent=2) + "\n"


def _csv_cell(value, digits: int) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.{digits}g}"
    return str(value)


def emit_table(table, payload: dict, args) -> str:
    """JSON of ``payload``, or CSV of ``table``, a dataclass of array columns:
    its field names are the header, and each row is one %-template (a bool
    prints as 1 or 0 under %g)."""
    if args.format == "json":
        return emit_json(payload, args)
    names = [f.name for f in dataclasses.fields(table)]
    template = ",".join([f"%.{17 if args.full_precision else 6}g"] * len(names)) + "\n"
    columns = [getattr(table, name).tolist() for name in names]
    return ",".join(names) + "\n" + "".join(template % row for row in zip(*columns))


def write_output(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    out_path = Path(out_path)
    if out_path.parent and not out_path.parent.exists():
        out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(text, encoding="utf-8")


def _flatten_report(d: dict, prefix: str = "") -> list[list]:
    """Flatten a nested report into metric,value rows for CSV output."""
    rows = []
    for key, value in d.items():
        name = f"{prefix}{key}"
        if dataclasses.is_dataclass(value):
            value = _records(value)
        if isinstance(value, dict):
            rows.extend(_flatten_report(value, prefix=f"{name}."))
        elif isinstance(value, list):
            if all(isinstance(v, dict) for v in value):
                for k, item in enumerate(value):
                    rows.extend(_flatten_report(item, prefix=f"{name}[{k}]."))
            else:
                rows.append([name, ";".join(str(v) for v in value)])
        else:
            rows.append([name, value])
    return rows


def emit_report(payload: dict, args) -> str:
    if args.format == "json":
        return emit_json(payload, args)
    digits = 17 if args.full_precision else 6
    rows = [f"{name},{_csv_cell(value, digits)}" for name, value in _flatten_report(payload)]
    return "\n".join(["metric,value", *rows]) + "\n"


# ---------------------------------------------------------------------------
# commands


def cmd_probe(args) -> int:
    if args.preset:
        if args.preset not in PRESETS:
            raise CliError(f"unknown preset {args.preset!r}; choices: {sorted(PRESETS)}")
        report = PRESETS[args.preset].evaluate()
        payload = {"preset": args.preset, "quadrilateral": report.as_dict()}
        write_output(emit_report(payload, args), resolve_out(args.out))
        return EXIT_OK
    if not args.state:
        raise CliError("probe needs --state (or --preset)")
    state = parse_state(args.state)
    settings = settings_from_args(state, args)
    table = build_entropy_table(joint_distribution(state, settings))
    payload = {
        "state": args.state,
        "angles": {s.observer: s.polar for s in settings},
        "geometry": simplex_report(table).as_dict(),
    }
    write_output(emit_report(payload, args), resolve_out(args.out))
    return EXIT_OK


def cmd_sweep(args) -> int:
    name = args.state.lower()
    mapping = {"ghz3": "ghz", "w3": "w", "product3": "product_v"}
    if name not in mapping:
        raise CliError(f"sweep supports ghz3, w3, product3; got {args.state!r}")
    rows = sweep_surface(mapping[name], grid_n=args.grid)
    payload = {"state": args.state, "grid_n": args.grid, "rows": rows}
    write_output(emit_table(rows, payload, args), resolve_out(args.out))
    return EXIT_OK


def cmd_scan(args) -> int:
    state = parse_state(args.state)
    if state.n_qubits != 2:
        raise CliError("scan needs a 2-qubit state")
    try:
        lo_s, hi_s, steps_s = args.delta.split(":")
        lo, hi, steps = float(lo_s), float(hi_s), int(steps_s)
    except ValueError:
        raise CliError(f"--delta must be lo:hi:steps, got {args.delta!r}") from None
    if args.degrees:
        lo, hi = lo * math.pi / 180.0, hi * math.pi / 180.0
    result = scan_delta(lo, hi, steps, state=state)
    payload = {"state": args.state, "rows": result.rows, "best": result.best,
               "best_on_boundary": result.best_on_boundary}
    write_output(emit_table(result.rows, payload, args), resolve_out(args.out))
    return EXIT_OK


def cmd_search(args) -> int:
    state = parse_state(args.state)
    if state.n_qubits != 2:
        raise CliError("search needs a 2-qubit state")
    initial = None
    if args.initial:
        expected = 1 if args.param == "symmetric-delta" else 3
        initial = parse_angles(args.initial, expected, args.degrees)
    result = search_violation(
        state, parameterization=args.param, initial=initial, budget=args.budget
    )
    payload = {"state": args.state, "search": result}
    write_output(emit_report(payload, args), resolve_out(args.out))
    return EXIT_OK


def cmd_sample(args) -> int:
    state = parse_state(args.state)
    settings = settings_from_args(state, args)
    dist = joint_distribution(state, settings)
    record = sample_runs(dist, args.n_runs, seed=args.seed)
    write_output(format_bit_record(record), resolve_out(args.out))
    return EXIT_OK


def cmd_octa(args) -> int:
    state = parse_state(args.state)
    if state.n_qubits != 3:
        raise CliError("octa needs a tripartite state")
    if len(args.angles) != 3:
        raise CliError("octa needs three OBSERVER:angle0,angle1 tokens")
    setting_pairs = []
    for token in args.angles:
        if ":" not in token:
            raise CliError(f"expected OBSERVER:angle0,angle1, got {token!r}")
        label, angle_text = token.split(":", 1)
        pair = parse_angles(angle_text, 2, args.degrees)
        setting_pairs.append(
            (DetectorSetting(label, pair[0]), DetectorSetting(label, pair[1]))
        )
    report = octahedron_report(state, setting_pairs)
    payload = {"state": args.state, "octahedron": report.as_dict()}
    write_output(emit_report(payload, args), resolve_out(args.out))
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="qig", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, angles_help=None, state_required=True):
        p.add_argument(
            "--state",
            required=state_required,
            help="ghzN/wN/productN, singlet-sym, singlet-antisym, or a state file",
        )
        if angles_help:
            p.add_argument("--angles", help=angles_help)
            p.add_argument("--azimuths", help="optional comma-separated azimuthal angles")
        p.add_argument("--degrees", action="store_true", help="interpret angles in degrees")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", help=f"output file (relative paths join ${OUTPUT_DIR_ENV} when set)")
        p.add_argument("--full-precision", action="store_true", help="print 17 significant digits")

    p = sub.add_parser("probe", help="single-point geometry report")
    p.add_argument("--preset", help="quadrilateral preset: " + ", ".join(sorted(PRESETS)))
    common(p, angles_help="comma-separated polar angles, one per observer", state_required=False)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("sweep", help="triangle geometry over a (beta,gamma) grid")
    common(p)
    p.add_argument("--grid", type=int, default=91, help="grid points per axis (default 91)")
    p.set_defaults(func=cmd_sweep, format="csv")

    p = sub.add_parser("scan", help="margin scan over the symmetric detector chain")
    common(p)
    p.add_argument("--delta", required=True, help="lo:hi:steps")
    p.set_defaults(func=cmd_scan, format="csv")

    p = sub.add_parser("search", help="derivative-free violation search")
    common(p)
    p.add_argument("--param", choices=("symmetric-delta", "free"), default="symmetric-delta")
    p.add_argument("--budget", type=int, default=10_000, help="evaluation budget")
    p.add_argument("--initial", help="comma-separated initial angles")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("sample", help="draw seeded detector bit streams")
    common(p, angles_help="comma-separated polar angles, one per observer")
    p.add_argument("-N", "--n-runs", type=int, default=DEFAULT_RUNS, help="prepared copies")
    p.add_argument("--seed", type=int, required=True, help="PRNG seed (PCG64)")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("octa", help="two detectors per observer on a tripartite state")
    common(p)
    p.add_argument("--angles", nargs=3, metavar="OBS:a0,a1", required=True,
                   help="per-observer setting pairs, e.g. A:0,0.3 B:0.2,0.5 C:0.1,0.4")
    p.set_defaults(func=cmd_octa)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
