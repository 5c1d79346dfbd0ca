"""End-to-end acceptance checks at shipped tolerances.

Each test prints exactly one PASS/FAIL line on the real stderr stream so a
plain pytest run yields a one-line verdict per shipped claim. Three
sub-claims are known not to hold for this model and are asserted anyway
rather than weakened: the weak-coupling fidelity endpoint for more than
one spin, the single-spin maximum sitting at the lower bracket edge, and
a decreasing inefficiency trend at large ensembles. See the failure
details printed by the corresponding tests.
"""
import json
import math
import sys
import time

import numpy as np
import pytest

from spinpointer import cli
from spinpointer.asymptotics import delta_opt_formula, epsilon_curve, optimal_scaling
from spinpointer.disturbance import (
    bloch_post_numeric,
    bloch_z_post_closed,
    disturbance_exact,
    disturbance_lowest_order,
    disturbance_series_copt,
    min_disturbance,
)
from spinpointer.estimation import (
    average_fidelity,
    find_delta_opt,
    optimal_fidelity,
    strong_coupling_limit,
)
from spinpointer.pointer import PointerModel
from spinpointer.validate import run_checks


def _report(capfd, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    with capfd.disabled():
        print(f"[{status}] {label}: {detail}", file=sys.stderr)


def test_01_closed_form_constants(capfd):
    start = time.perf_counter()
    failures = []
    for n in range(1, 11):
        if abs(optimal_fidelity(n) - (n + 1) / (n + 2)) > 1e-12:
            failures.append(f"f_opt({n})")
        if abs(min_disturbance(n) - (n + 1) / (2 * n + 1)) > 1e-12:
            failures.append(f"d_min({n})")
    for n, expected in ((1, 2 / 3), (2, 2 / 3), (3, 0.7), (4, 0.7)):
        if abs(strong_coupling_limit(n) - expected) > 1e-12:
            failures.append(f"strong({n})")
    if abs(delta_opt_formula(8) - 1.0) > 1e-12:
        failures.append("delta_opt(8)")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s")
    ok = not failures
    _report(capfd, "closed-form constants", ok, "all exact" if ok else ", ".join(failures))
    assert ok, failures


def test_02_fidelity_curve_endpoints(capfd):
    failures = []
    details = []
    for n in range(1, 5):
        strong = average_fidelity(n, PointerModel(0.01)).fidelity
        weak = average_fidelity(n, PointerModel(10.0)).fidelity
        strong_err = abs(strong - strong_coupling_limit(n))
        weak_err = abs(weak - 0.5)
        details.append(f"n={n}: strong off {strong_err:.4f}, weak off {weak_err:.4f}")
        if strong_err > 0.01:
            failures.append(f"strong endpoint n={n} off {strong_err:.4f}")
        if weak_err > 0.02:
            failures.append(f"weak endpoint n={n} off {weak_err:.4f} (> 0.02)")
    ok = not failures
    _report(capfd, "fidelity curve endpoints", ok, "; ".join(details))
    assert ok, failures


def test_03_fidelity_interior_maximum(capfd):
    failures = []
    details = []
    for n in (2, 3, 4):
        result = find_delta_opt(n, (0.05, 2.0))
        gap = optimal_fidelity(n) - result.f_max
        details.append(f"n={n}: delta*={result.delta_opt:.3f} gap={gap:.4f}")
        if result.boundary_flag or result.delta_opt <= 0.06:
            failures.append(f"n={n} maximum at bracket edge")
        if gap > 0.02:
            failures.append(f"n={n} gap {gap:.4f}")
    single = find_delta_opt(1, (0.05, 2.0))
    details.append(
        f"n=1: delta*={single.delta_opt:.3f} f_max={single.f_max:.6f} "
        f"boundary={single.boundary_flag}"
    )
    if not single.boundary_flag or single.delta_opt > 0.06:
        failures.append(
            f"n=1 maximum not at lower edge (found interior delta*="
            f"{single.delta_opt:.3f} with f={single.f_max:.6f} > edge value)"
        )
    if abs(single.f_max - 2.0 / 3.0) > 0.02:
        failures.append(f"n=1 f_max {single.f_max:.4f} not near 2/3")
    ok = not failures
    _report(capfd, "fidelity interior maximum", ok, "; ".join(details))
    assert ok, failures


def test_04_disturbance_series_consistency(capfd):
    start = time.perf_counter()
    exact = disturbance_exact(200, PointerModel(5.0)).d_exact
    series = disturbance_series_copt(200)
    elapsed = time.perf_counter() - start
    diff = abs(exact - series)
    ok = diff <= 2e-4 and elapsed < 60.0
    _report(
        capfd, "disturbance series consistency",
        ok,
        f"exact {exact:.8f} vs series {series:.8f}, diff {diff:.2e}, {elapsed:.1f}s",
    )
    assert ok, (diff, elapsed)


def test_05_disturbance_curve_shape(capfd):
    failures = []
    spreads = np.linspace(0.2, 2.0, 7)
    for spread in spreads:
        values = [disturbance_exact(n, PointerModel(float(spread))).d_exact for n in (1, 2, 3)]
        if not values[0] < values[1] < values[2]:
            failures.append(f"ordering broken at spread {spread:.2f}")
    for n in (1, 2, 3):
        bump = disturbance_exact(n, PointerModel(0.3)).d_exact
        if not (bump > disturbance_exact(n, PointerModel(0.05)).d_exact
                and bump > disturbance_exact(n, PointerModel(5.0)).d_exact):
            failures.append(f"no interior maximum for n={n}")
    worst = 0.0
    for spread in (0.5, 1.0, 1.5, 2.0):
        gap = abs(
            disturbance_exact(3, PointerModel(spread)).d_exact
            - disturbance_lowest_order(3, spread)
        )
        worst = max(worst, gap)
    if worst > 0.1:
        failures.append(f"lowest-order approximation off by {worst:.3f}")
    ok = not failures
    _report(
        capfd, "disturbance curve shape", ok,
        f"ordering + interior maxima hold, approximation gap {worst:.3f}"
        if ok else "; ".join(failures),
    )
    assert ok, failures


def test_06_bloch_vector_offset(capfd):
    failures = []
    large = bloch_z_post_closed(100, math.sqrt(12.5))
    if abs(large - 49.0) > 0.05:
        failures.append(f"large-ensemble value {large:.4f} not near 49")
    worst = 0.0
    for n in range(1, 11):
        for spread in (0.3, 1.0, 3.0):
            rep = bloch_post_numeric(n, PointerModel(spread))
            worst = max(worst, abs(rep.sz_post_closed - rep.sz_post_numeric))
    if worst > 1e-6:
        failures.append(f"closed vs numeric disagree by {worst:.2e}")
    ok = not failures
    _report(
        capfd, "post-measurement spin offset", ok,
        f"value {large:.5f}, dual-path gap {worst:.2e}" if ok else "; ".join(failures),
    )
    assert ok, failures


def test_07_inefficiency_band(capfd):
    failures = []
    points = epsilon_curve([200, 300, 400], spread_rule="formula")
    eps = [p.epsilon_n for p in points]
    detail = ", ".join(f"n={p.n_spins}: {p.epsilon_n:.5f}" for p in points)
    for p in points:
        if not (0.9 < p.epsilon_n < 1.5):
            failures.append(f"n={p.n_spins} outside band")
        if not p.epsilon_n > optimal_scaling(p.n_spins):
            failures.append(f"n={p.n_spins} does not exceed optimal scaling")
    if not (eps[0] > eps[1] > eps[2]):
        failures.append(f"not decreasing: {eps[0]:.5f} -> {eps[1]:.5f} -> {eps[2]:.5f}")
    ok = not failures
    _report(capfd, "inefficiency scaling band", ok, detail)
    assert ok, failures


def test_08_property_suite(tmp_path, capfd):
    start = time.perf_counter()
    results = run_checks()
    bad = [r.name for r in results if not r.passed]
    args = ["sweep", "--n", "2", "--delta", "0.4", "--delta", "0.8",
            "--nodes-r", "48", "--nodes-theta", "32"]
    paths = [tmp_path / name for name in ("one.csv", "two.csv", "par.csv")]
    assert cli.main(args + ["--out", str(paths[0])]) == 0
    assert cli.main(args + ["--out", str(paths[1])]) == 0
    assert cli.main(args + ["--workers", "2", "--out", str(paths[2])]) == 0
    blobs = [p.read_bytes() for p in paths]
    if not blobs[0] == blobs[1] == blobs[2]:
        bad.append("csv_byte_identity")
    elapsed = time.perf_counter() - start
    if elapsed >= 120.0:
        bad.append(f"runtime {elapsed:.0f}s")
    ok = not bad
    _report(
        capfd, "property and reproducibility suite", ok,
        f"{len(results)} invariant checks + byte-identical output, {elapsed:.0f}s"
        if ok else ", ".join(bad),
    )
    assert ok, bad
