"""Spans recorded around spinpointer's public functions, and the arithmetic
that turns them into per-layer figures.

The library is timed from outside: `installed` swaps each function named in
TARGETS for a wrapper that records (name, start, end, parent, request) and
puts the originals back on exit. The library source stays untouched.
"""
from __future__ import annotations

import array
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# (module, attribute) pairs wrapped in a traced run. scipy's spherical_jn and
# expm are wrapped at their names in pointer and spincore, so only the
# library's own calls to them are counted.
TARGETS = (
    ("cli", "main"),
    ("estimation", "average_fidelity"),
    ("estimation", "find_delta_opt"),
    ("pointer", "adaptive_outcome_grid"),
    ("pointer", "build_amplitude_field"),
    ("pointer", "spherical_jn"),
    ("disturbance", "disturbance_exact"),
    ("disturbance", "disturbance_oracle_full"),
    ("disturbance", "bloch_post_numeric"),
    ("spincore", "full_tensor_rotation_oracle"),
    ("spincore", "expm"),
    ("spincore", "dicke_expand"),
    ("asymptotics", "fidelity_lower_bound"),
    ("quadrature", "gauss_legendre"),
)

BUILD = "pointer.build_amplitude_field"


def _field_info(result) -> tuple[int, ...]:
    c = result.counts
    return (result.n_spins, c.nodes_r, c.nodes_theta, c.nodes_p_radial, c.nodes_p_polar)


# What a wrapper keeps from a call's return value, for counts that repeat exactly.
_INFO = {
    BUILD: _field_info,
    "estimation.find_delta_opt": lambda result: result.evaluations,
}


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a top-level span
    request: int = 0


class SpanStore:
    """Spans of one traced pass, kept in flat arrays (about 40 bytes a span)
    because a crosscheck pass records some 330 000 of them."""

    def __init__(self):
        self.names: list[str] = []
        self.requests: list[str] = []
        self.info: dict[int, object] = {}
        self._name = array.array("H")
        self._parent = array.array("q")
        self._request = array.array("i")
        self._start = array.array("d")
        self._end = array.array("d")
        self._stack: list[int] = []

    def begin_request(self, label: str) -> None:
        """Spans recorded from now on belong to the request with this label."""
        self.requests.append(label)

    def wrap(self, name: str, fn):
        self.names.append(name)
        name_id = len(self.names) - 1
        keep = _INFO.get(name)
        names, parents, requests = self._name, self._parent, self._request
        starts, ends, stack, info = self._start, self._end, self._stack, self.info
        clock = time.perf_counter
        store = self

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            requests.append(len(store.requests) - 1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if keep is not None:
                info[idx] = keep(result)
            return result

        return traced

    def spans(self) -> list[Span]:
        names = self.names
        return [
            Span(names[n], s, e, p, r)
            for n, s, e, p, r in zip(self._name, self._start, self._end, self._parent, self._request)
        ]


@contextmanager
def installed(store: SpanStore):
    """Wrap every TARGETS function for the duration of the block.

    A function is replaced in every spinpointer module that binds it, so
    callers that imported it with `from .module import name` reach the
    wrapper too.
    """
    for module_name, _ in TARGETS:
        importlib.import_module(f"spinpointer.{module_name}")
    modules = [m for key, m in list(sys.modules.items()) if key == "spinpointer" or key.startswith("spinpointer.")]
    patched = []
    try:
        for module_name, attr in TARGETS:
            original = getattr(importlib.import_module(f"spinpointer.{module_name}"), attr)
            wrapper = store.wrap(f"{module_name}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        patched.append((module, key, original))
        yield store
    finally:
        for module, key, original in reversed(patched):
            setattr(module, key, original)


def _union_length(intervals) -> float:
    total = 0.0
    end = -float("inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = _union_length(
            (max(spans[c].start, s.start), min(spans[c].end, s.end))
            for c in children.get(i, ())
            if spans[c].end > s.start and spans[c].start < s.end
        )
        out.append((s.end - s.start) - covered)
    return out


def build_roles(spans: list[Span]) -> dict[int, str]:
    """Role of each amplitude-field build, read from its parent span.

    Under adaptive_outcome_grid a build is the radial scan; under
    average_fidelity the first build is the base grid and the second the
    refined one. Any other build is "other".
    """
    roles = {}
    seen_under = defaultdict(int)
    for i, s in enumerate(spans):
        if s.name != BUILD:
            continue
        parent = spans[s.parent].name if s.parent >= 0 else None
        if parent == "pointer.adaptive_outcome_grid":
            roles[i] = "scan"
        elif parent == "estimation.average_fidelity":
            order = seen_under[s.parent]
            seen_under[s.parent] += 1
            roles[i] = ("base", "refined")[order] if order < 2 else "other"
        else:
            roles[i] = "other"
    return roles


def field_work(n: int, nodes_r: int, nodes_theta: int, nodes_p: int, nodes_c: int) -> dict[str, int]:
    """Work of one build_amplitude_field call, computed from its node counts.

    Cells are the amplitudes produced, Bessel evaluations the j_l(r p) table
    (orders 0..n on every radial outcome and momentum node), and
    multiply-adds those of the three per-k contractions (polar moments,
    radial transform, angular synthesis), each over orders l = k..n.
    """
    pairs = (n + 1) * (n + 2) // 2
    return {
        "pointer.field_cells": nodes_r * nodes_theta * (n + 1),
        "pointer.bessel_evals": nodes_r * nodes_p * (n + 1),
        "pointer.contraction_macs": pairs * (nodes_p * nodes_c + nodes_r * (nodes_p + nodes_theta)),
    }


def layer_metrics(spans: list[Span], info: dict[int, object], wall: float) -> dict[str, float]:
    """Per-layer figures of one traced pass whose wall time was `wall`."""
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)
    selfs = self_times(spans)

    def calls(name):
        return len(by_name.get(name, ()))

    def inclusive(name):
        return _union_length((spans[i].start, spans[i].end) for i in by_name.get(name, ()))

    def exclusive(name):
        return sum(selfs[i] for i in by_name.get(name, ()))

    m = {
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": exclusive("cli.main"),
        "estimation.average_fidelity.calls": calls("estimation.average_fidelity"),
        "estimation.average_fidelity.s": inclusive("estimation.average_fidelity"),
        "estimation.average_fidelity.self_s": exclusive("estimation.average_fidelity"),
        "estimation.find_delta_opt.evaluations": sum(
            info.get(i, 0) for i in by_name.get("estimation.find_delta_opt", ())
        ),
        "pointer.adaptive_outcome_grid.s": inclusive("pointer.adaptive_outcome_grid"),
        "pointer.build_amplitude_field.calls": calls(BUILD),
    }
    role_s = {"scan": 0.0, "base": 0.0, "refined": 0.0, "other": 0.0}
    for i, role in build_roles(spans).items():
        role_s[role] += spans[i].end - spans[i].start
    for role in ("scan", "base", "refined"):
        m[f"pointer.build_amplitude_field.{role}_s"] = role_s[role]
    for name in ("pointer.spherical_jn", "spincore.full_tensor_rotation_oracle",
                 "spincore.dicke_expand", "disturbance.disturbance_exact",
                 "asymptotics.fidelity_lower_bound", "quadrature.gauss_legendre"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = inclusive(name)
    for name in ("disturbance.disturbance_oracle_full", "disturbance.bloch_post_numeric", "spincore.expm"):
        m[f"{name}.s"] = inclusive(name)
    work = {"pointer.field_cells": 0, "pointer.bessel_evals": 0, "pointer.contraction_macs": 0}
    for i in by_name.get(BUILD, ()):
        if i in info:  # a build that raised returned no counts
            for key, value in field_work(*info[i]).items():
                work[key] += value
    m.update(work)
    top = _union_length((s.start, s.end) for s in spans if s.parent < 0)
    m["trace.uncovered_frac"] = (wall - top) / wall
    return m


def write_jsonl(path, store: SpanStore, run: str, origin: float) -> None:
    """Append the store's spans as JSON lines; times in seconds from `origin`."""
    prefix = '{"run":' + json.dumps(run) + ',"request":'
    requests = [json.dumps(label) for label in store.requests]
    with open(path, "a", encoding="utf-8") as fh:
        for i, s in enumerate(store.spans()):
            fh.write(
                f'{prefix}{requests[s.request]},"span":{i},"parent":{s.parent},'
                f'"name":"{s.name}","start":{s.start - origin:.9f},"end":{s.end - origin:.9f}}}\n'
            )
