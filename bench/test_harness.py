"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest bench -q
"""
from __future__ import annotations

import contextlib
import io
import math

import pytest
import scipy.linalg
import scipy.special

import spans
import workloads
from spans import Span
from spinpointer import MomentumQuadrature, PointerModel, asymptotics, cli, disturbance, estimation, pointer, spincore


def test_self_time_subtracts_children_and_nested_grandchildren():
    s = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a.inner", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
    ]
    assert spans.self_times(s) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    s = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),
        Span("c", 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert spans.self_times(s)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_build_roles_follow_the_parent_span():
    b = spans.BUILD
    s = [
        Span("estimation.average_fidelity", 0, 10, -1),
        Span("pointer.adaptive_outcome_grid", 0, 2, 0),
        Span(b, 0, 2, 1),
        Span(b, 2, 5, 0),
        Span(b, 5, 10, 0),
        Span("estimation.average_fidelity", 10, 20, -1),
        Span("pointer.adaptive_outcome_grid", 10, 12, 5),
        Span(b, 10, 12, 6),
        Span(b, 12, 15, 5),
        Span(b, 15, 20, 5),
        Span(b, 20, 21, -1),
    ]
    assert spans.build_roles(s) == {
        2: "scan", 3: "base", 4: "refined", 7: "scan", 8: "base", 9: "refined", 10: "other"
    }


def _small_batch():
    quad = MomentumQuadrature(radial_nodes=8, polar_nodes=8, azimuthal_nodes=4)
    model = PointerModel(0.7)

    def sweep():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["sweep", "--n", "2", "--delta", "0.5", "--delta", "1.0"])
        return code, out.getvalue()

    return [
        sweep,
        lambda: estimation.find_delta_opt(1, (0.3, 0.6), delta_tolerance=0.1),
        lambda: asymptotics.fidelity_lower_bound(2, model),
        lambda: disturbance.disturbance_oracle_full(1, model, quad),
        lambda: disturbance.bloch_post_numeric(2, model, quad),
    ]


def test_traced_run_is_bit_identical_and_restores_the_library():
    untraced = [repr(call()) for call in _small_batch()]
    store = spans.SpanStore()
    with spans.installed(store):
        assert pointer.spherical_jn is not scipy.special.spherical_jn
        traced = [repr(call()) for call in _small_batch()]
    assert traced == untraced
    assert pointer.spherical_jn is scipy.special.spherical_jn
    assert spincore.expm is scipy.linalg.expm
    assert cli.find_delta_opt is estimation.find_delta_opt

    recorded = {s.name for s in store.spans()}
    for module, attr in spans.TARGETS:
        if (module, attr) != ("disturbance", "disturbance_exact"):
            assert f"{module}.{attr}" in recorded


def test_layer_metrics_count_work_from_node_counts():
    store = spans.SpanStore()
    with spans.installed(store):
        point = estimation.average_fidelity(2, PointerModel(0.5))
    all_spans = store.spans()
    m = spans.layer_metrics(all_spans, store.info, wall=all_spans[0].end - all_spans[0].start)
    builds = [store.info[i] for i, s in enumerate(all_spans) if s.name == spans.BUILD]
    assert m["pointer.build_amplitude_field.calls"] == 3
    assert builds[1][1:3] == (point.counts.nodes_r, point.counts.nodes_theta)
    assert m["pointer.field_cells"] == sum(r * t * (n + 1) for n, r, t, _, _ in builds)
    assert m["pointer.bessel_evals"] == sum(r * p * (n + 1) for n, r, _, p, _ in builds)
    assert m["trace.uncovered_frac"] == pytest.approx(0.0, abs=1e-12)
    roles = m["pointer.build_amplitude_field.scan_s"] + m["pointer.build_amplitude_field.base_s"]
    assert 0.0 < roles < m["estimation.average_fidelity.s"]


def test_seeded_spreads_stay_in_the_documented_ranges():
    for seed in range(1, 40):
        j = workloads._Jitter("curves", seed)
        lo, hi = j.up(0.05), j.down(2.0)
        assert 0.05 <= lo <= 0.05 * (1 + workloads.JITTER)
        assert 2.0 * (1 - workloads.JITTER) <= hi <= 2.0
        assert abs(j.around(1.0) - 1.0) <= workloads.JITTER


def test_reference_seed_runs_the_documented_inputs():
    j = workloads._Jitter("large_n", workloads.REFERENCE_SEED)
    assert (j.up(0.05), j.down(2.0), j.around(math.sqrt(12.5))) == (0.05, 2.0, math.sqrt(12.5))
