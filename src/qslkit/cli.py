"""Command-line front end: figure datasets, validation oracles, CSV/JSON output.

Identical configurations produce byte-identical output: each CSV float is
Python's '%.17g' % v and each JSON value is spelled by json itself, rows
are emitted in a fixed order, and no timestamps appear in data rows.  A
subcommand takes its declared parameters and `_COMMON`, and no others: as
flags, as keys of a key=value config file (--config, which flags override),
and as the options its handler sees.

`_PARAMS` is the only place a parameter (its flag, type, default and config
key) is declared, and `_COMMANDS` the only place a subcommand (its name, help
text, parameters, output columns with their kinds, and handler) is.  Each
handler returns typed columns: one numpy array or list per declared column,
float, int, bool or str.  The writer formats them in chunks of rows.  A CSV
chunk, after the header, is built as byte fields in numpy (csvbytes).  A
JSON chunk's values come from json.dumps (NaN, Infinity and -Infinity
included); only the row template is ours, repeated over the chunk and
applied with %, exactly as json.dump(rows, indent=2) lays out row objects.

Invalid input fails the request with one JSON error record on stderr.  A
point that does not converge is left by its handler as its QuadratureError
in a float column: its row is written with NaN there, and then its record,
with the data row (from 0) and column, in row order.  Either exits with 1.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import csvbytes
from . import scan as scan_mod
from .bounds import excited_ratios_many, qsl_ratio_many
from .model import ModelParams, amplitude_series, check_grid_size, oracle_amplitude
from .quad import QuadratureSpec
from .smatrix import DensityMatrix2

_FORMATS = ("csv", "json")


class _Param(NamedTuple):
    flags: str  # space-separated option strings
    type: Callable
    default: object
    help: str | None = None
    choices: tuple[str, ...] | None = None


# Keyed by parameter name, which is also the config key and the options key.
_PARAMS = {
    "gamma0": _Param("--gamma0", float, 5.0),
    "lam": _Param("--lambda", float, 50.0),
    "delta": _Param("--delta", float, 0.0),
    "tau_d": _Param("--tau-d", float, 0.2),
    "tau": _Param("--tau", float, 0.0),
    "tau_max": _Param("--tau-max", float, 2.0),
    "t_max": _Param("--t-max", float, 1.0),
    "step": _Param("--step", float, 1e-4),
    "n_points": _Param("--n-points", int, 200),
    "n_gamma0": _Param("--n-gamma0", int, 30),
    "n_delta": _Param("--n-delta", int, 21),
    "gamma0_min": _Param("--gamma0-min", float, None),
    "gamma0_max": _Param("--gamma0-max", float, None),
    "clip": _Param("--clip", float, scan_mod.DEFAULT_CLIP),
    "output": _Param("--output -o", str, "-", help="output path, - for stdout"),
    "format": _Param("--format", str, "csv", choices=_FORMATS),
    "rel_tol": _Param("--rel-tol", float, 1e-9),
    "abs_tol": _Param("--abs-tol", float, 1e-12),
}

# Accepted by every subcommand, after its own parameters and --config.
_COMMON = ("output", "format")

Columns = tuple  # one numpy array or list per declared column, in declared order

# Rows formatted per write, so the output text is never held whole.
_CHUNK_ROWS = 4096

# Column kind -> numpy dtype.
_KINDS = {"float": float, "int": int, "bool": bool, "str": object}


def _parse_columns(decl: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Names and kinds of a column declaration "name name:kind ...", float by default."""
    pairs = [col.partition(":")[::2] for col in decl.split()]
    return tuple(name for name, _ in pairs), tuple(kind or "float" for _, kind in pairs)


def _json_values(a: np.ndarray, kind: str) -> list[str]:
    """The JSON tokens of one chunk of a column, as json spells them.

    A number or bool list is dumped whole and split: no token holds ", ".
    """
    if kind == "str":
        return [json.dumps(v) for v in a.tolist()]
    return json.dumps(a.tolist())[1:-1].split(", ")


def _failed_points(decl: str, columns: Columns) -> tuple[list, list]:
    """The columns with each exception in a float column turned into NaN, and per
    such value (exception, {"row", "column"}), in row and then column order."""
    names, kinds = _parse_columns(decl)
    out, failed = [], []
    for name, kind, col in zip(names, kinds, columns):
        if kind == "float" and not isinstance(col, np.ndarray):  # arrays hold floats only
            failed += [(v, {"row": i, "column": name})
                       for i, v in enumerate(col) if isinstance(v, Exception)]
            col = [math.nan if isinstance(v, Exception) else v for v in col]
        out.append(col)
    return out, sorted(failed, key=lambda f: f[1]["row"])  # stable: columns stay in order


def _write_columns(out, decl: str, columns: Columns, fmt: str) -> None:
    """Write columns as CSV with a header, or as json.dump(rows, indent=2) would.

    Rows are written _CHUNK_ROWS at a time.  A CSV chunk is built as byte
    fields (csvbytes.RowWriter).  A JSON chunk is one row template repeated
    over the chunk and applied to the chunk's values, flattened row by row.
    """
    names, kinds = _parse_columns(decl)
    cols = [np.asarray(c, dtype=_KINDS[k]) for c, k in zip(columns, kinds)]
    n_rows = len(cols[0])
    if fmt == "csv":
        out.write(",".join(names) + "\n")
        writer = csvbytes.RowWriter()
        for i in range(0, n_rows, _CHUNK_ROWS):
            out.write(writer.rows([col[i:i + _CHUNK_ROWS] for col in cols], kinds))
        return
    if n_rows == 0:
        out.write("[]\n")
        return
    out.write("[\n")
    fields = [f"    {json.dumps(name)}: %s" for name in names]
    row, sep = "  {\n" + ",\n".join(fields) + "\n  }", ",\n"
    for i in range(0, n_rows, _CHUNK_ROWS):
        j = min(i + _CHUNK_ROWS, n_rows)
        flat = [None] * ((j - i) * len(cols))
        for c, (col, kind) in enumerate(zip(cols, kinds)):
            flat[c::len(cols)] = _json_values(col[i:j], kind)
        out.write((sep if i else "") + sep.join([row] * (j - i)) % tuple(flat))
    out.write("\n]\n")


def _load_config(path: str) -> dict:
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _add_param(sp: argparse.ArgumentParser, name: str) -> None:
    p = _PARAMS[name]
    sp.add_argument(*p.flags.split(), type=p.type, default=argparse.SUPPRESS, dest=name,
                    help=p.help, choices=p.choices)


def _build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser of argv.  Every subcommand is registered, for the usage lines, --help and
    invalid-choice errors, but arguments are added only to the one argv names (its first
    word that is not an option), or to all of them if it names none: no other is parsed."""
    parser = argparse.ArgumentParser(
        prog="qslkit", description="Speed-limit datasets for the detuned decay model"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    named = next((arg for arg in argv or () if not arg.startswith("-")), None)
    for name, command in _COMMANDS.items():
        built = named not in _COMMANDS or name == named
        # A subcommand that is not parsed needs no arguments, not even -h.
        sp = sub.add_parser(name, help=command.help, add_help=built)
        if not built:
            continue
        for param in command.params:
            _add_param(sp, param)
        sp.add_argument("--config", default=None, help="key=value file; flags override it")
        for param in _COMMON:
            _add_param(sp, param)
    return parser


def _merge_options(args: argparse.Namespace) -> dict:
    opts = {name: _PARAMS[name].default for name in (*_COMMANDS[args.subcommand].params, *_COMMON)}
    if args.config:
        for key, raw in _load_config(args.config).items():
            if key not in opts:
                raise ValueError(f"unknown config key {key!r} for {args.subcommand}")
            p, must = _PARAMS[key], f"config key {key!r} must be"
            try:
                value = p.type(raw)
            except ValueError:
                raise ValueError(f"{must} {p.type.__name__}, got {raw!r}") from None
            if p.choices is not None and value not in p.choices:
                raise ValueError(f"{must} one of {', '.join(p.choices)}, got {raw!r}")
            opts[key] = value
    for key, value in vars(args).items():
        if key not in ("subcommand", "config"):
            opts[key] = value
    return opts


def _quad_spec(opts: dict) -> QuadratureSpec:
    return QuadratureSpec(rel_tol=opts["rel_tol"], abs_tol=opts["abs_tol"])


def _model_params(opts: dict) -> ModelParams:
    return ModelParams(gamma0=opts["gamma0"], lam=opts["lam"], delta=opts["delta"])


def _cmd_ratio(opts: dict) -> Columns:
    p = _model_params(opts)
    spec = _quad_spec(opts)
    tau_d = opts["tau_d"]
    # The Bures-angle comparator covers the window [0, tau_d] only.
    if opts["tau"] == 0.0:
        [report], [comparator] = excited_ratios_many([p], tau_d, spec)
    else:
        [report] = qsl_ratio_many([p], DensityMatrix2.excited(), tau_d, opts["tau"], spec)
        comparator = math.nan
    if isinstance(report, Exception):
        values = (math.nan,) * 5 + (report, comparator, False, math.nan)
    else:
        values = (report.lambda1, report.lambda2, report.lambda_inf, report.d_measure,
                  report.tau_qsl, report.ratio, comparator, report.stationary,
                  report.quadrature_err)
    return tuple([v] for v in (p.gamma0, p.delta, p.lam, opts["tau"], tau_d, *values))


def _gamma0_axis(opts: dict, n_name: str) -> np.ndarray:
    """The log-spaced gamma0 axis of n_name points, its inputs checked by name first."""
    check_grid_size(n_name, opts[n_name])
    lo, hi = (d if opts[name] is None else opts[name] for name, d in
              zip(("gamma0_min", "gamma0_max"), scan_mod.gamma0_range(opts["lam"])))  # unset ends
    for name, value in (("lam", opts["lam"]), ("gamma0_min", lo), ("gamma0_max", hi)):
        if not 0.0 < value < math.inf:  # NaN fails too
            raise ValueError(f"{name} must be finite and positive, got {value}")
    return np.geomspace(lo, hi, opts[n_name])


def _scan_grid(opts: dict) -> scan_mod.ScanGrid:
    gamma0_axis = _gamma0_axis(opts, "n_gamma0")
    check_grid_size("n_delta", opts["n_delta"])
    delta_axis = scan_mod.default_delta_axis(opts["lam"], opts["n_delta"])
    return scan_mod.grid_scan(
        gamma0_axis, delta_axis, opts["lam"], opts["tau_d"], spec=_quad_spec(opts)
    )


def _cmd_scan(opts: dict) -> Columns:
    grid = _scan_grid(opts)
    n_gamma0, n_delta = grid.gamma0_axis.size, grid.delta_axis.size
    results = [r for row in grid.results for r in row]
    return (
        np.repeat(grid.gamma0_axis, n_delta), np.tile(grid.delta_axis, n_gamma0),
        np.full(len(results), grid.lam), np.full(len(results), grid.tau_d),
        [r if isinstance(r, Exception) else r.ratio for r in results],
        [label for labels in grid.classification for label in labels],
        [math.nan if isinstance(r, Exception) else r.quadrature_err for r in results],
    )


def _cmd_boundary(opts: dict) -> Columns:
    grid = _scan_grid(opts)
    points = scan_mod.transition_boundary(grid, spec=_quad_spec(opts))
    return tuple(zip(*points)) or ((), (), ())


def _cmd_sweep_tau(opts: dict) -> Columns:
    series = scan_mod.sweep_tau(
        _model_params(opts), opts["tau_max"], opts["n_points"], opts["tau_d"],
        spec=_quad_spec(opts),
    )
    return series.times, [v if e is None else e for v, e in zip(series.values, series.errors)]


def _cmd_decay_rate(opts: dict) -> Columns:
    series = scan_mod.sweep_decay_rate(
        _model_params(opts), opts["t_max"], opts["n_points"], clip=opts["clip"]
    )
    return series.times, series.values, series.clipped


def _cmd_compare_bounds(opts: dict) -> Columns:
    gamma0_axis = _gamma0_axis(opts, "n_points")
    spec = _quad_spec(opts)
    params = [ModelParams(gamma0=g0, lam=opts["lam"], delta=opts["delta"])
              for g0 in gamma0_axis.tolist()]
    trace, bures = excited_ratios_many(params, opts["tau_d"], spec)
    return gamma0_axis, [t if isinstance(t, Exception) else t.ratio for t in trace], bures


def _cmd_oracle_check(opts: dict) -> Columns:
    p = _model_params(opts)
    times, numeric = oracle_amplitude(p, opts["t_max"], opts["step"])
    analytic, _ = amplitude_series(p, times)
    max_err = float(np.max(np.abs(numeric - analytic)))
    return tuple([v] for v in (p.gamma0, p.delta, p.lam, opts["t_max"], opts["step"], max_err))


class _Command(NamedTuple):
    help: str
    params: tuple[str, ...]  # its own parameters, before --config and _COMMON
    columns: str  # output columns "name name:kind ...", kind float unless given
    handler: Callable[[dict], Columns]  # the declared columns; a failed float is its error


_TOLS = ("rel_tol", "abs_tol")  # read by the subcommands that integrate
_GRID = ("lam", "tau_d", "n_gamma0", "n_delta", "gamma0_min", "gamma0_max", *_TOLS)

_COMMANDS = {
    "ratio": _Command(
        "one speed-limit report at a parameter point",
        ("gamma0", "lam", "delta", "tau_d", "tau", *_TOLS),
        "gamma0 delta lambda tau tau_d lambda1 lambda2 lambda_inf d_measure tau_qsl ratio "
        "comparator_ratio stationary:bool quad_err",
        _cmd_ratio),
    "scan": _Command(
        "ratio surface over the (gamma0, delta) grid", _GRID,
        "gamma0 delta lambda tau_d ratio classification:str quad_err", _cmd_scan),
    "boundary": _Command(
        "speed-up/no-speed-up transition points", _GRID,
        "delta gamma0_boundary flip_index:int", _cmd_boundary),
    "sweep-tau": _Command(
        "evolved-state ratio versus tau",
        ("gamma0", "lam", "delta", "tau_d", "tau_max", "n_points", *_TOLS), "tau ratio",
        _cmd_sweep_tau),
    "decay-rate": _Command(
        "normalized decay rate versus time",
        ("gamma0", "lam", "delta", "t_max", "n_points", "clip"),
        "t gamma_over_gamma0 clipped:bool", _cmd_decay_rate),
    "compare-bounds": _Command(
        "trace-distance vs Bures-angle ratio sweep",
        ("lam", "delta", "tau_d", "n_points", "gamma0_min", "gamma0_max", *_TOLS),
        "gamma0 ratio_trace ratio_bures", _cmd_compare_bounds),
    "oracle-check": _Command(
        "memory-kernel integration vs closed form",
        ("gamma0", "lam", "delta", "t_max", "step"),
        "gamma0 delta lambda t_max step max_abs_error", _cmd_oracle_check),
}


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv).parse_args(argv)
    try:
        opts = _merge_options(args)
        command = _COMMANDS[args.subcommand]
        columns, failed = _failed_points(command.columns, command.handler(opts))
        if opts["output"] == "-":
            _write_columns(sys.stdout, command.columns, columns, opts["format"])
        else:
            with open(opts["output"], "w", newline="") as fh:
                _write_columns(fh, command.columns, columns, opts["format"])
    except Exception as exc:  # noqa: BLE001 - converted to a machine-readable record
        failed = [(exc, {})]
    for exc, where in failed:
        record = {"error": type(exc).__name__, "message": str(exc),
                  "subcommand": args.subcommand, **where}
        partial = getattr(exc, "value", None)
        if partial is not None:
            record["partial_value"] = partial
            record["resume"] = "rerun with the same config; partial values are not reused"
        json.dump(record, sys.stderr)
        sys.stderr.write("\n")
    return 1 if failed else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
