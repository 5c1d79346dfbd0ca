"""Command line front end.

Subcommands map one-to-one onto the library entry points: sweep and
optimize drive the fidelity code, disturbance and bloch the disturbance
code, asympt the lower-bound curve, reference prints closed-form
constants, and validate runs the invariant suite.

Each subcommand's parser is the one list of its settings: a --config file
may set any of its flags, named as the flag with "-" written "_", except
the output flags --out, --format, --workers and --config.

Output contract: tables are CSV with two comment lines, `# schema=1` and
`# config=<json>`, where the config echo holds every computation-defining
setting; writing that JSON to a file and passing it back through --config
reproduces the table byte for byte. Floats are printed with %.17g, a cell
holding a comma, quote or newline is quoted as in RFC 4180, line endings
are always "\\n", and repeat runs print the same bytes. JSON documents
carry the same `schema` and `config`. The field is built in one process;
--workers is still accepted and has no effect.

Exit codes: 0 success, 1 validate found a failing invariant, 2 invalid
configuration, 3 a result failed its convergence check.
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
    default_spread_bracket,
    find_delta_opt,
    optimal_fidelity,
    strong_coupling_limit,
    sweep_delta,
)
from .pointer import MomentumQuadrature, PointerModel
from . import validate as validate_mod


class ConfigError(ValueError):
    """Invalid command configuration (bad flag combination or config file)."""


_RANGE_KEYS = ("delta_min", "delta_max", "delta_steps")

# Parsed names that are not settings of the computation, so no config file
# sets them; "command" may appear in one and must name the subcommand run.
_NOT_CONFIG = ("command", "out", "format", "workers", "config")

_GUESS_RULES = [r.value.replace("_", "-") for r in GuessRule] + [r.value for r in GuessRule]


def _add_output_flags(sub: argparse.ArgumentParser, default_format: str) -> None:
    sub.add_argument("--out", default=None, help="output file (default stdout)")
    sub.add_argument("--format", choices=["csv", "json"], default=default_format)
    sub.add_argument("--workers", type=int, default=None,
                     help="accepted for older command lines; has no effect, "
                          "the computation runs in one process")
    sub.add_argument("--config", default=None,
                     help="JSON file of settings; command line flags win")


def _add_delta_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--delta", type=float, action="append", default=None,
                     help="pointer spread; repeat for several values")
    sub.add_argument("--delta-min", type=float, default=None)
    sub.add_argument("--delta-max", type=float, default=None)
    sub.add_argument("--delta-steps", type=int, default=None)


def _add_momentum_flags(sub: argparse.ArgumentParser, polar: bool = False) -> None:
    """The momentum settings a command reads. The amplitude field and the
    lower bound integrate the momentum angles in closed form and read the
    radial count alone; only disturbance and bloch take a polar rule."""
    sub.add_argument("--nodes-p-radial", type=int, default=None)
    if polar:
        sub.add_argument("--nodes-p-polar", type=int, default=None)
    sub.add_argument("--p-cutoff-sigmas", type=float, default=None)


def _add_outcome_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--nodes-r", type=int, default=None)
    sub.add_argument("--nodes-theta", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinpointer",
        description="Spin-direction estimation with a three-pointer measurement",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sweep = subs.add_parser("sweep", help="average fidelity over a spread range")
    sweep.add_argument("--n", type=int, action="append", default=None,
                       help="ensemble size; repeat for several sizes")
    _add_delta_flags(sweep)
    sweep.add_argument("--guess-rule", dest="guess_rule", default=None,
                       choices=_GUESS_RULES)
    _add_outcome_flags(sweep)
    _add_momentum_flags(sweep)
    sweep.add_argument("--tol", type=float, default=None)
    _add_output_flags(sweep, "csv")

    opt = subs.add_parser("optimize", help="spread that maximizes the fidelity")
    opt.add_argument("--n", type=int, default=None)
    opt.add_argument("--delta-min", type=float, default=None, help="bracket low edge")
    opt.add_argument("--delta-max", type=float, default=None, help="bracket high edge")
    opt.add_argument("--guess-rule", dest="guess_rule", default=None,
                     choices=_GUESS_RULES)
    _add_outcome_flags(opt)
    _add_momentum_flags(opt)
    opt.add_argument("--tol", type=float, default=None)
    _add_output_flags(opt, "json")

    dist = subs.add_parser("disturbance", help="measurement disturbance over spreads")
    dist.add_argument("--n", type=int, action="append", default=None)
    _add_delta_flags(dist)
    _add_momentum_flags(dist, polar=True)
    dist.add_argument("--tol", type=float, default=None)
    dist.add_argument("--mark-delta-opt", dest="mark_delta_opt",
                      action="store_const", const=True, default=None,
                      help="insert a row at the sqrt(n/8) spread for each n")
    _add_output_flags(dist, "csv")

    bloch = subs.add_parser("bloch", help="post-measurement collective spin")
    bloch.add_argument("--n", type=int, action="append", default=None)
    _add_delta_flags(bloch)
    _add_momentum_flags(bloch, polar=True)
    _add_output_flags(bloch, "csv")

    asym = subs.add_parser("asympt", help="fidelity lower bound along n")
    asym.add_argument("--n-min", type=int, default=None)
    asym.add_argument("--n-max", type=int, default=None)
    asym.add_argument("--n-step", type=int, default=None)
    asym.add_argument("--spread-rule", dest="spread_rule", default=None,
                      choices=["formula", "optimize"])
    _add_momentum_flags(asym)
    asym.add_argument("--tol", type=float, default=None)
    _add_output_flags(asym, "csv")

    ref = subs.add_parser("reference", help="closed-form constants for given n")
    ref.add_argument("--n", type=int, action="append", default=None)
    _add_output_flags(ref, "json")

    val = subs.add_parser("validate", help="run the invariant suite")
    _add_output_flags(val, "json")

    return parser


def _load_config_file(path: str, command: str, allowed: list[str]) -> dict:
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


def _merge(ns: argparse.Namespace) -> dict:
    """The subcommand's settings: config-file values fill in flags the user
    did not give. The settings are the parsed flags, less the output ones."""
    if ns.workers is not None and ns.workers < 1:
        raise ConfigError(f"worker count must be >= 1, got {ns.workers}")
    flags = {key: value for key, value in vars(ns).items() if key not in _NOT_CONFIG}
    file_cfg = _load_config_file(ns.config, ns.command, list(flags)) if ns.config else {}
    merged = {key: file_cfg.get(key) if flag is None else flag for key, flag in flags.items()}
    # A spread list and a spread range are alternatives; a flag from one
    # group silences the other group's config-file values.
    if "delta" in merged:
        cli_list = ns.delta is not None
        cli_range = any(getattr(ns, k, None) is not None for k in _RANGE_KEYS)
        if cli_list and cli_range:
            raise ConfigError("give either --delta or --delta-min/max/steps, not both")
        if cli_list:
            for k in _RANGE_KEYS:
                merged[k] = None
        if cli_range:
            merged["delta"] = None
        if merged["delta"] is not None and any(merged[k] is not None for k in _RANGE_KEYS):
            raise ConfigError("config sets both a delta list and a delta range")
    return merged


def _resolve_deltas(cfg: dict) -> list[float]:
    if cfg.get("delta") is not None:
        raw = cfg["delta"]
        if not isinstance(raw, (list, tuple)):
            raw = [raw]
        values = [_convert("delta", v, float) for v in raw]
    elif any(cfg.get(k) is not None for k in _RANGE_KEYS):
        lo, hi, steps = (cfg.get(k) for k in _RANGE_KEYS)
        if lo is None or hi is None or steps is None:
            raise ConfigError("a delta range needs all of delta-min, delta-max, delta-steps")
        lo, hi = _convert("delta_min", lo, float), _convert("delta_max", hi, float)
        steps = _convert("delta_steps", steps, int)
        if steps < 1:
            raise ConfigError(f"delta-steps must be >= 1, got {steps}")
        if steps > 1 and not hi > lo:
            raise ConfigError("delta-max must exceed delta-min")
        if steps == 1:
            values = [lo]
        else:
            width = (hi - lo) / (steps - 1)
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


def _resolve_n_list(cfg: dict) -> list[int]:
    raw = cfg.get("n")
    if raw is None:
        raise ConfigError("no ensemble size given (use --n)")
    if not isinstance(raw, (list, tuple)):
        raw = [raw]
    values = [_convert("n", v, int) for v in raw]
    if len(values) == 0:
        raise ConfigError("empty ensemble size list")
    for v in values:
        if v < 1:
            raise ConfigError(f"ensemble size must be >= 1, got {v}")
    return values


_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string",
               bool: "true or false"}


def _convert(key: str, value, kind: type):
    """A configured value as ``kind``. Numbers take whatever int() or
    float() accepts, except booleans, fractions for an integer and nan or
    infinity for a float; strings and booleans must be given as such.
    Anything else is a ConfigError."""
    if kind in (str, bool):
        refused = not isinstance(value, kind)
    else:
        refused = isinstance(value, bool) or (
            kind is int and isinstance(value, float) and not value.is_integer())
    if not refused:
        try:
            converted = kind(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if kind is not float or math.isfinite(converted):
                return converted
    raise ConfigError(f"{key} must be {_KIND_NAMES[kind]}, got {value!r}")


def _setting(cfg: dict, key: str, default, kind: type):
    """The configured value as ``kind``, or ``default`` only when none was
    given, so an explicit zero or negative value reaches validation."""
    value = cfg.get(key)
    return default if value is None else _convert(key, value, kind)


def _momentum_quad(cfg: dict) -> MomentumQuadrature:
    return MomentumQuadrature(
        radial_nodes=_setting(cfg, "nodes_p_radial", None, int),
        polar_nodes=_setting(cfg, "nodes_p_polar", None, int),
        cutoff_sigmas=_setting(cfg, "p_cutoff_sigmas", 8.0, float),
    )


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _momentum_echo(cfg: dict) -> dict:
    """The momentum settings the command accepts, as configured."""
    keys = ("nodes_p_radial", "nodes_p_polar", "p_cutoff_sigmas")
    return {key: cfg[key] for key in keys if key in cfg}


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


def _cmd_sweep(cfg: dict, fmt: str) -> tuple[str, int]:
    n_list = _resolve_n_list(cfg)
    deltas = _resolve_deltas(cfg)
    rule = GuessRule.from_string(_setting(cfg, "guess_rule", "plus_r", str))
    nodes_r = _setting(cfg, "nodes_r", 96, int)
    nodes_theta = _setting(cfg, "nodes_theta", 64, int)
    tol = _setting(cfg, "tol", 1e-3, float)
    quad = _momentum_quad(cfg)

    echo = dict(
        command="sweep", n=n_list, delta=deltas, guess_rule=rule.value,
        nodes_r=nodes_r, nodes_theta=nodes_theta, tol=tol, **_momentum_echo(cfg),
    )
    columns = ["n_spins", "delta", "f_avg", "f_opt", "guess_rule", "err_estimate",
               "nodes_r", "nodes_theta", "nodes_p_radial"]
    rows: list[list] = []
    failures: list[str] = []
    for n in n_list:
        result = sweep_delta(n, deltas, rule, nodes_r, nodes_theta, quad, tol)
        for point in result.points:
            cell = point.guess_rule
            if cell == GuessRule.BEST_OF_AXIS.value:
                cell = f"{cell}:{point.branch}"
            rows.append([
                point.n_spins, point.spread, point.fidelity,
                optimal_fidelity(point.n_spins), cell, point.error_estimate,
                point.counts.nodes_r, point.counts.nodes_theta,
                point.counts.nodes_p_radial,
            ])
        failures.extend(f"n={n} delta={s:g}: {msg}" for s, msg in result.failures)
    for line in failures:
        print(f"sweep point failed: {line}", file=sys.stderr)
    return _render(columns, rows, echo, fmt), 3 if failures else 0


def _cmd_optimize(cfg: dict, fmt: str) -> tuple[str, int]:
    n = _setting(cfg, "n", None, int)
    if n is None:
        raise ConfigError("no ensemble size given (use --n)")
    if n < 1:
        raise ConfigError(f"ensemble size must be >= 1, got {n}")
    lo, hi = default_spread_bracket(n)
    lo = _setting(cfg, "delta_min", lo, float)
    hi = _setting(cfg, "delta_max", hi, float)
    if not (0.0 < lo < hi):
        raise ConfigError(f"need 0 < delta-min < delta-max, got ({lo}, {hi})")
    rule = GuessRule.from_string(_setting(cfg, "guess_rule", "plus_r", str))
    nodes_r = _setting(cfg, "nodes_r", 96, int)
    nodes_theta = _setting(cfg, "nodes_theta", 64, int)
    tol = _setting(cfg, "tol", 1e-3, float)
    quad = _momentum_quad(cfg)

    result = find_delta_opt(n, (lo, hi), rule, 0.01, nodes_r, nodes_theta, quad, tol)
    echo = dict(
        command="optimize", n=n, delta_min=lo, delta_max=hi, guess_rule=rule.value,
        nodes_r=nodes_r, nodes_theta=nodes_theta, tol=tol, **_momentum_echo(cfg),
    )
    columns = ["n_spins", "delta_opt", "f_max", "f_opt", "gap", "boundary_flag"]
    row = [getattr(result, column) for column in columns]
    return _render(columns, [row], echo, fmt, key="result", single=True), 0


def _cmd_disturbance(cfg: dict, fmt: str) -> tuple[str, int]:
    n_list = _resolve_n_list(cfg)
    deltas = _resolve_deltas(cfg)
    mark = _setting(cfg, "mark_delta_opt", False, bool)
    tol = _setting(cfg, "tol", 1e-7, float)
    quad = _momentum_quad(cfg)

    echo = dict(command="disturbance", n=n_list, delta=deltas, tol=tol,
                mark_delta_opt=mark, **_momentum_echo(cfg))
    columns = ["n_spins", "delta", "d_exact", "d_lowest_order", "d_min",
               "err_estimate"]
    rows: list[list] = []
    failures: list[str] = []
    for n in n_list:
        spreads = list(deltas)
        if mark:
            marker = delta_opt_formula(n)
            if all(abs(marker - s) > 1e-12 for s in spreads):
                spreads.append(marker)
                spreads.sort()
        for spread in spreads:
            try:
                point = disturbance_exact(n, PointerModel(spread), quad, tol)
            except ConvergenceError as exc:
                failures.append(f"n={n} delta={spread:g}: {exc}")
                continue
            rows.append([
                point.n_spins, point.spread, point.d_exact,
                point.d_lowest_order, min_disturbance(n), point.error_estimate,
            ])
    for line in failures:
        print(f"disturbance point failed: {line}", file=sys.stderr)
    return _render(columns, rows, echo, fmt), 3 if failures else 0


def _cmd_bloch(cfg: dict, fmt: str) -> tuple[str, int]:
    n_list = _resolve_n_list(cfg)
    deltas = _resolve_deltas(cfg)
    quad = _momentum_quad(cfg)

    echo = dict(command="bloch", n=n_list, delta=deltas, **_momentum_echo(cfg))
    columns = ["n_spins", "delta", "sz_initial", "sz_post_closed",
               "sz_post_numeric", "sx_post", "sy_post"]
    rows = []
    for n in n_list:
        for spread in deltas:
            rep = bloch_post_numeric(n, PointerModel(spread), quad)
            rows.append([
                rep.n_spins, rep.spread, rep.sz_initial, rep.sz_post_closed,
                rep.sz_post_numeric, rep.sx_post, rep.sy_post,
            ])
    return _render(columns, rows, echo, fmt), 0


def _cmd_asympt(cfg: dict, fmt: str) -> tuple[str, int]:
    if cfg.get("n_min") is None or cfg.get("n_max") is None:
        raise ConfigError("give both --n-min and --n-max")
    n_min, n_max = _convert("n_min", cfg["n_min"], int), _convert("n_max", cfg["n_max"], int)
    n_step = _setting(cfg, "n_step", 1, int)
    if n_min < 1:
        raise ConfigError(f"ensemble size must be >= 1, got {n_min}")
    if n_max < n_min:
        raise ConfigError(f"n-max {n_max} below n-min {n_min}")
    if n_step < 1:
        raise ConfigError(f"n-step must be >= 1, got {n_step}")
    spread_rule = _setting(cfg, "spread_rule", "formula", str)
    tol = _setting(cfg, "tol", 1e-4, float)
    quad = _momentum_quad(cfg)
    n_values = list(range(n_min, n_max + 1, n_step))

    echo = dict(
        command="asympt", n_min=n_min, n_max=n_max, n_step=n_step,
        spread_rule=spread_rule, tol=tol, **_momentum_echo(cfg),
    )
    points = epsilon_curve(n_values, spread_rule, quad, tol)
    columns = ["n_spins", "delta_used", "f_lower", "epsilon_n", "optimal_scaling"]
    rows = [[p.n_spins, p.spread, p.f_lower, p.epsilon_n, p.optimal_scaling]
            for p in points]
    return _render(columns, rows, echo, fmt), 0


def _cmd_reference(cfg: dict, fmt: str) -> tuple[str, int]:
    n_list = _resolve_n_list(cfg)
    echo = dict(command="reference", n=n_list)
    columns = ["n_spins", "f_opt", "strong_coupling_limit", "d_min",
               "delta_opt_formula", "optimal_scaling", "d_series_at_delta_opt"]
    rows = [[n, optimal_fidelity(n), strong_coupling_limit(n), min_disturbance(n),
             delta_opt_formula(n), optimal_scaling(n), disturbance_series_copt(n)]
            for n in n_list]
    return _render(columns, rows, echo, fmt, key="result"), 0


def _cmd_validate(cfg: dict, fmt: str) -> tuple[str, int]:
    results = validate_mod.run_checks()
    if fmt == "csv":
        columns = ["name", "passed", "measured", "threshold", "detail"]
        rows = [[r.name, r.passed, r.measured, r.threshold, r.detail]
                for r in results]
        text = _render(columns, rows, dict(command="validate"), fmt)
    else:
        text = validate_mod.report_json(results)
    return text, 0 if all(r.passed for r in results) else 1


_HANDLERS = {
    "sweep": _cmd_sweep,
    "optimize": _cmd_optimize,
    "disturbance": _cmd_disturbance,
    "bloch": _cmd_bloch,
    "asympt": _cmd_asympt,
    "reference": _cmd_reference,
    "validate": _cmd_validate,
}


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        text, code = _HANDLERS[ns.command](_merge(ns), ns.format)
    except (ConfigError, DomainError, CapabilityError) as exc:
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
