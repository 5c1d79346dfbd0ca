"""The benchmark's three workloads: their inputs, made from a seed, and the
checks every output must pass.

Seed 0 runs the documented inputs exactly and is the one with stored
reference values (reference.json). Any other seed moves each pointer spread
by a seeded factor within JITTER of its documented value, keeping it inside
the documented range.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

REFERENCE_SEED = 0
JITTER = 0.02

# validate's cross-check limits.
DISTURBANCE_GAP_LIMIT = 1e-8
BLOCH_GAP_LIMIT = 1e-6

# Tolerances the library accepts each result at (the refinement tolerance of
# the call that made it); a result that moves from its stored reference by
# more than its tolerance fails.
FIDELITY_TOL = 1e-3
DELTA_OPT_TOL = 0.01
DISTURBANCE_TOL = 1e-7
LOWER_BOUND_TOL = 1e-4

@dataclass(frozen=True)
class Result:
    key: str  # stable name of the number, the key in reference.json
    value: float
    tol: float  # allowed drift from the stored reference
    ok: bool  # passed the checks that hold for every seed
    why: str = ""


@dataclass(frozen=True)
class Item:
    label: str
    call: Callable[[], object]
    check: Callable[[object], list[Result]]


def optimal_fidelity(n: int) -> float:
    # Written out, not imported, so a fault in the library's copy cannot hide a failed check.
    return (n + 1.0) / (n + 2.0)


class _Jitter:
    def __init__(self, workload: str, seed: int):
        self._rng = random.Random(f"{workload}:{seed}")
        self._on = seed != REFERENCE_SEED

    def up(self, x: float) -> float:
        """x moved up by at most JITTER, for the low end of a range."""
        return x * (1.0 + JITTER * self._rng.random()) if self._on else x

    def down(self, x: float) -> float:
        """x moved down by at most JITTER, for the high end of a range."""
        return x * (1.0 - JITTER * self._rng.random()) if self._on else x

    def around(self, x: float) -> float:
        return x * (1.0 + JITTER * (2.0 * self._rng.random() - 1.0)) if self._on else x


# ---------------------------------------------------------------- curves


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    from spinpointer import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _csv_rows(text: str) -> list[dict[str, str]]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _exit_failure(label: str, code: int, err: str) -> list[Result]:
    return [Result(label, math.nan, 0.0, False, f"exit code {code}: {err.strip()[:200]}")]


def _check_rows(command: str, column: str, tol: float, expected_rows: int, in_range):
    """Checks of a CLI table: exit code 0, every row accepted (err_estimate
    <= tol) with `column` in range, and the expected number of rows."""

    def check(out) -> list[Result]:
        code, text, err = out
        if code != 0:
            return _exit_failure(command, code, err)
        rows = _csv_rows(text)
        results = []
        for row in rows:
            n, value, e = int(row["n_spins"]), float(row[column]), float(row["err_estimate"])
            bad = []
            if not e <= tol:
                bad.append(f"err_estimate {e:.3e} > tol {tol:g}")
            if not in_range(n, value):
                bad.append(f"{column} {value!r} out of range")
            results.append(Result(f"{command}/n={n}/delta={row['delta']}", value, tol, not bad, "; ".join(bad)))
        if len(rows) != expected_rows:
            results.append(Result(f"{command}/rows", len(rows), 0.0, False, f"{len(rows)} rows, expected {expected_rows}"))
        return results

    return check


def _check_optimize(n: int):
    def check(out) -> list[Result]:
        code, text, err = out
        if code != 0:
            return _exit_failure(f"optimize/n={n}", code, err)
        rec = json.loads(text)["result"]
        f_max = rec["f_max"]
        ok = f_max <= optimal_fidelity(n) and rec["gap"] == rec["f_opt"] - f_max
        why = "" if ok else f"f_max {f_max!r} above (n+1)/(n+2) or gap inconsistent"
        return [
            Result(f"optimize/n={n}/f_max", f_max, FIDELITY_TOL, ok, why),
            Result(f"optimize/n={n}/delta_opt", rec["delta_opt"], DELTA_OPT_TOL, True),
        ]

    return check


def _range_argv(lo: float, hi: float, steps: int) -> list[str]:
    return ["--delta-min", repr(lo), "--delta-max", repr(hi), "--delta-steps", str(steps)]


def curves(seed: int) -> list[Item]:
    """The README curve recipes, run in process through spinpointer.cli.main."""
    j = _Jitter("curves", seed)
    sweep_n, sweep_steps = (1, 2, 3, 4), 40
    sweep = ["sweep", *[a for n in sweep_n for a in ("--n", str(n))],
             *_range_argv(j.up(0.05), j.down(2.0), sweep_steps), "--workers", "1"]
    dist_n, dist_steps = (1, 2, 3), 50
    dist_range = (j.up(0.05), j.down(2.5))
    dist = ["disturbance", *[a for n in dist_n for a in ("--n", str(n))],
            *_range_argv(*dist_range, dist_steps), "--mark-delta-opt", "--workers", "1"]
    # --mark-delta-opt adds a row at sqrt(n/8) unless the grid already has it.
    width = (dist_range[1] - dist_range[0]) / (dist_steps - 1)
    dist_grid = [dist_range[0] + i * width for i in range(dist_steps)]
    dist_rows = sum(
        dist_steps + all(abs(math.sqrt(n / 8.0) - s) > 1e-12 for s in dist_grid) for n in dist_n
    )
    items = [
        Item("sweep n=1..4", lambda: _run_cli(sweep),
             _check_rows("sweep", "f_avg", FIDELITY_TOL, len(sweep_n) * sweep_steps,
                         lambda n, f: f <= optimal_fidelity(n))),
        Item("disturbance n=1..3", lambda: _run_cli(dist),
             _check_rows("disturbance", "d_exact", DISTURBANCE_TOL, dist_rows, lambda n, d: 0.0 <= d <= 1.0)),
    ]
    for n in (2, 4):
        argv = ["optimize", "--n", str(n), "--delta-min", repr(j.up(0.05)), "--delta-max", repr(j.down(2.0)),
                "--workers", "1"]
        items.append(Item(f"optimize n={n}", lambda argv=argv: _run_cli(argv), _check_optimize(n)))
    return items


# ---------------------------------------------------------------- large_n


def _check_point(n: int, key: str, field: str, tol: float):
    """Checks of a library result: accepted, and `field` <= (n+1)/(n+2)."""

    def check(point) -> list[Result]:
        value = getattr(point, field)
        bad = []
        if not point.accepted:
            bad.append(f"not accepted (error {point.error_estimate:.3e})")
        if not value <= optimal_fidelity(n):
            bad.append(f"{field} {value!r} above (n+1)/(n+2)")
        return [Result(f"{key}/n={n}", value, tol, not bad, "; ".join(bad))]

    return check


def large_n(seed: int) -> list[Item]:
    """A few huge amplitude-field builds, and the windowed lower-bound grids."""
    from spinpointer import PointerModel, asymptotics, estimation

    j = _Jitter("large_n", seed)
    items = []
    for n in (30, 60, 100):
        model = PointerModel(j.around(math.sqrt(n / 8.0)))
        items.append(Item(f"average_fidelity n={n}",
                          lambda n=n, model=model: estimation.average_fidelity(n, model),
                          _check_point(n, "fidelity", "fidelity", FIDELITY_TOL)))
    for n in (150, 400):
        model = PointerModel(j.around(math.sqrt(n / 8.0)))
        items.append(Item(f"fidelity_lower_bound n={n}",
                          lambda n=n, model=model: asymptotics.fidelity_lower_bound(n, model),
                          _check_point(n, "lower_bound", "f_lower", LOWER_BOUND_TOL)))
    return items


# ---------------------------------------------------------------- crosscheck


def _check_oracle(n: int):
    def check(out) -> list[Result]:
        point, oracle = out
        gap = abs(point.d_exact - oracle)
        ok = gap <= DISTURBANCE_GAP_LIMIT
        return [
            Result(f"disturbance/n={n}", point.d_exact, DISTURBANCE_TOL, point.accepted,
                   "" if point.accepted else f"not accepted (error {point.error_estimate:.3e})"),
            Result(f"oracle/n={n}", oracle, DISTURBANCE_TOL, True),
            Result(f"gap/disturbance/n={n}", gap, DISTURBANCE_GAP_LIMIT, ok,
                   "" if ok else f"|exact - oracle| = {gap:.3e}"),
        ]

    return check


def _check_bloch(n: int):
    def check(rep) -> list[Result]:
        # validate's measure: closed vs numeric z, and the x, y that must vanish.
        gap = max(abs(rep.sz_post_closed - rep.sz_post_numeric), abs(rep.sx_post), abs(rep.sy_post))
        ok = gap <= BLOCH_GAP_LIMIT
        return [
            Result(f"bloch/n={n}/sz", rep.sz_post_numeric, BLOCH_GAP_LIMIT, True),
            Result(f"bloch/n={n}/sx", rep.sx_post, BLOCH_GAP_LIMIT, True),
            Result(f"bloch/n={n}/sy", rep.sy_post, BLOCH_GAP_LIMIT, True),
            Result(f"gap/bloch/n={n}", gap, BLOCH_GAP_LIMIT, ok, "" if ok else f"Bloch gap {gap:.3e}"),
        ]

    return check


def crosscheck(seed: int) -> list[Item]:
    """The independent certification routes that dominate `validate`."""
    from spinpointer import PointerModel, disturbance

    j = _Jitter("crosscheck", seed)
    model = PointerModel(j.around(1.0))
    items = [Item("disturbance_oracle_full n=1",
                  lambda: (disturbance.disturbance_exact(1, model), disturbance.disturbance_oracle_full(1, model)),
                  _check_oracle(1))]
    for n in (1, 5, 10):
        bloch_model = PointerModel(j.around(1.0))
        items.append(Item(f"bloch_post_numeric n={n}",
                          lambda n=n, m=bloch_model: disturbance.bloch_post_numeric(n, m),
                          _check_bloch(n)))
    return items


BATCHES = {"curves": curves, "large_n": large_n, "crosscheck": crosscheck}
