"""Command line front end.

Subcommands map one-to-one onto the library entry points: sweep and
optimize drive the fidelity code, disturbance and bloch the disturbance
code, asympt the lower-bound curve, reference prints closed-form
constants, and validate runs the invariant suite. sweep, disturbance and
bloch share one loop over (n, spread) points, ``_table``: a point that
fails its convergence check leaves no row and is listed on stderr. asympt
lists a failed size so too, and writes nothing if no size converged.

Each subcommand's settings are declared once, in ``_COMMANDS``: flag, kind
and default side by side. The parser is built from that table, and a
--config file may set any of its settings, named as the flag with "-"
written "_"; the output flags --out, --format, --workers and --config are
not settings.

Output contract: tables are CSV with two comment lines, `# schema=1` and
`# config=<json>`. The config echo is the resolved settings, every one
converted to its kind and defaulted, so equivalent flags and config files
print the same bytes; writing that JSON to a file and passing it back
through --config reproduces the table byte for byte. Floats are printed
with %.17g, a cell holding a comma, quote or newline is quoted as in RFC
4180, line endings are always "\\n", and repeat runs print the same bytes.
JSON documents carry the same `schema` and `config`. The field is built in
one process; --workers is still accepted and has no effect.

Exit codes: 0 success, 1 validate found a failing invariant, 2 invalid
configuration (a spread outside pointer.SPREAD_RANGE, or a request too
large to allocate, included), 3 a result failed its convergence check.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from .asymptotics import delta_opt_formula, epsilon_curve, optimal_scaling
from .disturbance import (
    bloch_post_numeric,
    disturbance_exact,
    disturbance_series_copt,
    min_disturbance,
)
from .errors import CapabilityError, ConvergenceError, DomainError, NumericError
from .estimation import (
    GuessRule,
    average_fidelity,
    default_spread_bracket,
    find_delta_opt,
    optimal_fidelity,
    strong_coupling_limit,
)
from .pointer import NODES_R, NODES_THETA, MomentumQuadrature, PointerModel
from . import validate as validate_mod


class ConfigError(ValueError):
    """Invalid command configuration (bad flag combination or config file)."""


def _guess_rule(text: str) -> str:
    """A guess rule written either way ("best-of-axis" or "best_of_axis")."""
    try:
        return GuessRule(text.replace("-", "_")).value
    except ValueError:
        raise ConfigError(f"unknown guess rule {text!r}") from None


def _flag(flag: str, kind, default=None, **parser_kw) -> tuple:
    """One setting: its flag, the kind its value is converted to (a list of
    one kind for a repeatable flag), and the default taken when neither the
    command line nor the config file gives it; None is echoed as null."""
    return flag, kind, default, parser_kw


_SPREADS = (
    _flag("--delta", [float], help="pointer spread; repeat for several values"),
    _flag("--delta-min", float), _flag("--delta-max", float), _flag("--delta-steps", int),
)
_RANGE_KEYS = ("delta_min", "delta_max", "delta_steps")

# Every momentum route reads the radial count alone: the amplitude field,
# the lower bound and the disturbance integrate the polar angle in closed
# form or by recurrence, and bloch fixes its angular rules by the degree of
# its integrand. Every route cuts the momentum at 8 momentum sigmas.
_RADIAL = _flag("--nodes-p-radial", int)
_FIDELITY = (
    _flag("--guess-rule", _guess_rule, GuessRule.PLUS_R.value,
          choices=[r.value.replace("_", "-") for r in GuessRule] + [r.value for r in GuessRule]),
    _flag("--nodes-r", int, NODES_R), _flag("--nodes-theta", int, NODES_THETA), _RADIAL,
    _flag("--tol", float, 1e-3),
)

# Each subcommand: its help, its default output format and its settings.
_COMMANDS = {
    "sweep": ("average fidelity over a spread range", "csv", (
        _flag("--n", [int], help="ensemble size; repeat for several sizes"), *_SPREADS, *_FIDELITY)),
    "optimize": ("spread that maximizes the fidelity", "json", (
        _flag("--n", int), _flag("--delta-min", float, help="bracket low edge"),
        _flag("--delta-max", float, help="bracket high edge"), *_FIDELITY)),
    "disturbance": ("measurement disturbance over spreads", "csv", (
        _flag("--n", [int]), *_SPREADS, _RADIAL, _flag("--tol", float, 1e-7),
        _flag("--mark-delta-opt", bool, False, help="insert a row at the sqrt(n/8) spread for each n"))),
    "bloch": ("post-measurement collective spin", "csv", (
        _flag("--n", [int]), *_SPREADS, _RADIAL)),
    "asympt": ("fidelity lower bound along n", "csv", (
        _flag("--n-min", int), _flag("--n-max", int), _flag("--n-step", int, 1),
        _flag("--spread-rule", str, "formula", choices=["formula", "optimize"]),
        _RADIAL, _flag("--tol", float, 1e-4))),
    "reference": ("closed-form constants for given n", "json", (_flag("--n", [int]),)),
    "validate": ("run the invariant suite", "json", ()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinpointer",
        description="Spin-direction estimation with a three-pointer measurement",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, default_format, settings) in _COMMANDS.items():
        sub = subs.add_parser(command, help=help_text)
        for flag, kind, _, parser_kw in settings:
            if kind is bool:
                parser_kw = dict(action="store_const", const=True, **parser_kw)
            elif isinstance(kind, list):
                parser_kw = dict(action="append", type=kind[0], **parser_kw)
            elif kind in (int, float):
                parser_kw = dict(type=kind, **parser_kw)
            sub.add_argument(flag, default=None, **parser_kw)
        sub.add_argument("--out", default=None, help="output file (default stdout)")
        sub.add_argument("--format", choices=["csv", "json"], default=default_format)
        sub.add_argument("--workers", type=int, default=None,
                         help="accepted for older command lines; has no effect, "
                              "the computation runs in one process")
        sub.add_argument("--config", default=None,
                         help="JSON file of settings; command line flags win")
    return parser


def _load_config_file(path: str, command: str, allowed) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    for key in raw:
        if key == "command":
            if raw[key] != command:
                raise ConfigError(
                    f"config file is for command {raw[key]!r}, not {command!r}")
        elif key not in allowed:
            raise ConfigError(f"unknown config key {key!r} for command {command!r}")
    return raw


def _resolve(ns: argparse.Namespace) -> dict:
    """The subcommand's settings, converted and defaulted: a flag wins over
    its config-file value, and either over the declared default. Handlers
    read this dict, and the config echo prints it."""
    if ns.workers is not None and ns.workers < 1:
        raise ConfigError(f"worker count must be >= 1, got {ns.workers}")
    declared = {flag[2:].replace("-", "_"): (kind, default)
                for flag, kind, default, _ in _COMMANDS[ns.command][2]}
    file_cfg = _load_config_file(ns.config, ns.command, declared) if ns.config else {}
    given = {key: file_cfg.get(key) if getattr(ns, key) is None else getattr(ns, key)
             for key in declared}
    # A spread list and a spread range are alternatives; a flag from one
    # group silences the other group's config-file values.
    if "delta" in given:
        cli_list = ns.delta is not None
        cli_range = any(getattr(ns, k) is not None for k in _RANGE_KEYS)
        if cli_list and cli_range:
            raise ConfigError("give either --delta or --delta-min/max/steps, not both")
        if cli_list:
            for k in _RANGE_KEYS:
                given[k] = None
        if cli_range:
            given["delta"] = None
        if given["delta"] is not None and any(given[k] is not None for k in _RANGE_KEYS):
            raise ConfigError("config sets both a delta list and a delta range")
    cfg = {"command": ns.command}
    for key, (kind, default) in declared.items():
        value = given[key]
        if value is None:
            cfg[key] = default
        elif isinstance(kind, list):
            values = value if isinstance(value, (list, tuple)) else [value]
            cfg[key] = [_convert(key, v, kind[0]) for v in values]
        else:
            cfg[key] = _convert(key, value, kind)
    if "n" in cfg:
        _check_sizes(cfg["n"])
    if "delta" in cfg:
        cfg["delta"] = _resolve_deltas(cfg)
    return cfg


def _check_sizes(sizes) -> None:
    """``sizes``, one ensemble size or a list of them, each at least 1."""
    if sizes is None:
        raise ConfigError("no ensemble size given (use --n)")
    if sizes == []:
        raise ConfigError("empty ensemble size list")
    for v in sizes if isinstance(sizes, list) else [sizes]:
        if v < 1:
            raise ConfigError(f"ensemble size must be >= 1, got {v}")


def _resolve_deltas(cfg: dict) -> list[float]:
    """The spread list, from the delta list or the delta range; the range
    settings leave ``cfg``."""
    lo, hi, steps = (cfg.pop(k) for k in _RANGE_KEYS)
    if cfg["delta"] is not None:
        values = cfg["delta"]
    elif lo is not None or hi is not None or steps is not None:
        if lo is None or hi is None or steps is None:
            raise ConfigError("a delta range needs all of delta-min, delta-max, delta-steps")
        if steps < 1:
            raise ConfigError(f"delta-steps must be >= 1, got {steps}")
        if not hi > lo:
            raise ConfigError("delta-max must exceed delta-min")
        width = (hi - lo) / max(steps - 1, 1)  # one step: delta-min alone
        values = [lo + i * width for i in range(steps)]
    else:
        raise ConfigError("no spread values given (use --delta or a delta range)")
    if len(values) == 0:
        raise ConfigError("empty spread list")
    for v in values:
        if not v > 0.0:
            raise ConfigError(f"spread values must be positive, got {v}")
    if any(not b > a for a, b in zip(values, values[1:])):
        raise ConfigError("spread values must be strictly increasing")
    return values


_KIND_NAMES = {int: "an integer", float: "a finite number", bool: "true or false"}


def _convert(key: str, value, kind):
    """A configured value as ``kind``. An integer or float setting takes a
    number, never text or a boolean: an integer refuses a fraction, and a
    float nan, infinity and an integer too large for a float. A boolean
    setting takes a boolean, and any other kind a string. Anything else is
    a ConfigError."""
    if kind not in (int, float):
        if isinstance(value, bool if kind is bool else str):
            return kind(value)
    elif isinstance(value, (int, float)) and not isinstance(value, bool) and not (
            kind is int and isinstance(value, float) and not value.is_integer()):
        try:
            converted = kind(value)
        except OverflowError:
            pass
        else:
            if kind is not float or math.isfinite(converted):
                return converted
    raise ConfigError(f"{key} must be {_KIND_NAMES.get(kind, 'a string')}, got {value!r}")


def _fidelity_settings(cfg: dict) -> dict:
    """average_fidelity's keyword settings."""
    return dict(rule=cfg["guess_rule"], nodes_r=cfg["nodes_r"], nodes_theta=cfg["nodes_theta"],
                quad=MomentumQuadrature(radial_nodes=cfg["nodes_p_radial"]), tolerance=cfg["tol"])


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _render(columns: list[str], rows: list[list], echo: dict, fmt: str,
            key: str = "rows", single: bool = False) -> str:
    """The one writer of each format. CSV: the two comment lines, then the
    table. JSON: ``schema``, ``config`` and the rows as objects under
    ``key``, or the only row itself when ``single``."""
    if fmt == "json":
        records = [dict(zip(columns, row)) for row in rows]
        doc = {"schema": 1, "config": echo, key: records[0] if single else records}
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    out = io.StringIO()
    out.write("# schema=1\n# config=%s\n" % json.dumps(echo, sort_keys=True, separators=(",", ":")))
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_fmt(cell) for cell in row] for row in rows)
    return out.getvalue()


def _table(cfg: dict, fmt: str, columns: list[str], row, spreads=None) -> tuple[str, int]:
    """The table of ``row(n, PointerModel(spread))`` over every size and its
    spreads: ``spreads(n)``, else the configured list. A point that fails its
    convergence check leaves no row and is listed on stderr after the last
    point, and any such failure makes the exit code 3."""
    rows: list[list] = []
    failures: list[str] = []
    for n in cfg["n"]:
        for spread in cfg["delta"] if spreads is None else spreads(n):
            try:
                rows.append(row(n, PointerModel(spread)))
            except ConvergenceError as exc:
                failures.append(f"{cfg['command']} point failed: n={n} delta={spread:g}: {exc}")
    for line in failures:
        print(line, file=sys.stderr)
    return _render(columns, rows, cfg, fmt), 3 if failures else 0


def _cmd_sweep(cfg: dict, fmt: str) -> tuple[str, int]:
    settings = _fidelity_settings(cfg)

    def row(n: int, model: PointerModel) -> list:
        point = average_fidelity(n, model, **settings)
        rule, counts = point.guess_rule, point.counts
        if rule == GuessRule.BEST_OF_AXIS.value:
            rule = f"{rule}:{point.branch}"
        return [point.n_spins, point.spread, point.fidelity, optimal_fidelity(n), rule,
                point.error_estimate, counts.nodes_r, counts.nodes_theta, counts.nodes_p_radial]

    return _table(cfg, fmt, ["n_spins", "delta", "f_avg", "f_opt", "guess_rule", "err_estimate",
                             "nodes_r", "nodes_theta", "nodes_p_radial"], row)


def _cmd_optimize(cfg: dict, fmt: str) -> tuple[str, int]:
    # The bracket's default depends on n, so it is filled in here.
    for key, edge in zip(("delta_min", "delta_max"), default_spread_bracket(cfg["n"])):
        cfg[key] = edge if cfg[key] is None else cfg[key]
    result = find_delta_opt(cfg["n"], (cfg["delta_min"], cfg["delta_max"]), **_fidelity_settings(cfg))
    columns = ["n_spins", "delta_opt", "f_max", "f_opt", "gap", "boundary_flag"]
    row = [getattr(result, column) for column in columns]
    return _render(columns, [row], cfg, fmt, key="result", single=True), 0


def _cmd_disturbance(cfg: dict, fmt: str) -> tuple[str, int]:
    quad = MomentumQuadrature(radial_nodes=cfg["nodes_p_radial"])

    def marked(n: int) -> list[float]:
        """The spreads and the sqrt(n/8) marker, unless a spread already lies on it."""
        marker = delta_opt_formula(n)
        if all(abs(marker - s) > 1e-12 for s in cfg["delta"]):
            return sorted([*cfg["delta"], marker])
        return cfg["delta"]

    def row(n: int, model: PointerModel) -> list:
        point = disturbance_exact(n, model, quad, cfg["tol"])
        return [point.n_spins, point.spread, point.d_exact, point.d_lowest_order,
                min_disturbance(n), point.error_estimate]

    return _table(cfg, fmt, ["n_spins", "delta", "d_exact", "d_lowest_order", "d_min", "err_estimate"],
                  row, marked if cfg["mark_delta_opt"] else None)


def _cmd_bloch(cfg: dict, fmt: str) -> tuple[str, int]:
    quad = MomentumQuadrature(radial_nodes=cfg["nodes_p_radial"])

    def row(n: int, model: PointerModel) -> list:
        rep = bloch_post_numeric(n, model, quad)
        return [rep.n_spins, rep.spread, rep.sz_initial, rep.sz_post_closed, rep.sz_post_numeric,
                rep.sx_post, rep.sy_post, rep.error_estimate]

    return _table(cfg, fmt, ["n_spins", "delta", "sz_initial", "sz_post_closed", "sz_post_numeric",
                             "sx_post", "sy_post", "err_estimate"], row)


def _cmd_asympt(cfg: dict, fmt: str) -> tuple[str, int]:
    n_min, n_max, n_step = cfg["n_min"], cfg["n_max"], cfg["n_step"]
    if n_min is None or n_max is None:
        raise ConfigError("give both --n-min and --n-max")
    _check_sizes(n_min)
    if n_max < n_min:
        raise ConfigError(f"n-max {n_max} below n-min {n_min}")
    if n_step < 1:
        raise ConfigError(f"n-step must be >= 1, got {n_step}")
    quad, rows, failures = MomentumQuadrature(radial_nodes=cfg["nodes_p_radial"]), [], []
    for n in range(n_min, n_max + 1, n_step):
        try:
            rows += [[p.n_spins, p.spread, p.f_lower, p.epsilon_n, p.optimal_scaling]
                     for p in epsilon_curve([n], cfg["spread_rule"], quad, cfg["tol"])]
        except ConvergenceError as exc:
            failures.append((n, exc))
    if not rows:
        raise failures[0][1]  # no size converged: nothing is written
    for n, exc in failures:
        print(f"asympt point failed: n={n}: {exc}", file=sys.stderr)
    columns = ["n_spins", "delta_used", "f_lower", "epsilon_n", "optimal_scaling"]
    return _render(columns, rows, cfg, fmt), 3 if failures else 0


def _cmd_reference(cfg: dict, fmt: str) -> tuple[str, int]:
    columns = ["n_spins", "f_opt", "strong_coupling_limit", "d_min",
               "delta_opt_formula", "optimal_scaling", "d_series_at_delta_opt"]
    rows = [[n, optimal_fidelity(n), strong_coupling_limit(n), min_disturbance(n),
             delta_opt_formula(n), optimal_scaling(n), disturbance_series_copt(n)]
            for n in cfg["n"]]
    return _render(columns, rows, cfg, fmt, key="result"), 0


def _cmd_validate(cfg: dict, fmt: str) -> tuple[str, int]:
    results = validate_mod.run_checks()
    columns = ["name", "passed", "measured", "threshold", "detail"]
    rows = [[r.name, r.passed, r.measured, r.threshold, r.detail] for r in results]
    return _render(columns, rows, cfg, fmt, key="checks"), 0 if all(r.passed for r in results) else 1


# Each subcommand's handler is _cmd_<command>; one missing fails the import.
_HANDLERS = {command: globals()[f"_cmd_{command}"] for command in _COMMANDS}


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        text, code = _HANDLERS[ns.command](_resolve(ns), ns.format)
    except (ConfigError, DomainError, CapabilityError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        _write_output(text, ns.out)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
