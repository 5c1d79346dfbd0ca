"""One benchmark run of one workload, in a fresh process.

Usage: python3 bench/worker.py WORKLOAD SEED SECONDS TRACE OUT_DIR

Runs passes over the workload's fixed batch for about SECONDS (at least one
pass; with TRACE=1 at least one untraced and one traced pass, alternating),
checks every output, and prints one JSON object on its last stdout line.
The caller puts the checkout's src/ on PYTHONPATH.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy

import spans
import workloads


def _fingerprint(out) -> str:
    # repr of the library's frozen dataclasses and of CLI text keeps every digit.
    return hashlib.sha256(repr(out).encode()).hexdigest()


def run_pass(batch, store=None) -> dict:
    outputs, calls = [], []
    cpu0 = time.process_time()
    start = time.perf_counter()
    for item in batch:
        if store is not None:
            store.begin_request(item.label)
        t = time.perf_counter()
        try:
            outputs.append((item.call(), None))
        except Exception as exc:  # a raising call is a failed result, not a crashed run
            traceback.print_exc(file=sys.stderr)
            outputs.append((None, f"{type(exc).__name__}: {exc}"))
        calls.append((t, time.perf_counter()))
    end = time.perf_counter()
    return {"start": start, "end": end, "wall": end - start, "cpu": time.process_time() - cpu0,
            "calls": calls, "outputs": outputs}


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    batch = workloads.BATCHES[workload](seed)
    reference = {}
    if seed == workloads.REFERENCE_SEED:
        reference = json.loads((Path(__file__).parent / "reference.json").read_text())[workload]

    trace_path = out_dir / f"trace-{workload}.jsonl"
    if trace:
        trace_path.unlink(missing_ok=True)
    passes, layers = [], []
    first_prints = None
    attempted = failed = compared = 0
    max_drift = 0.0
    gaps = {"disturbance": 0.0, "bloch": 0.0}
    failures: list[str] = []
    begin = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        store = spans.SpanStore() if traced else None
        if traced:
            with spans.installed(store):
                p = run_pass(batch, store)
        else:
            p = run_pass(batch)
        prints = [_fingerprint(out) for out, _ in p["outputs"]]
        if first_prints is None:
            first_prints = prints
        for item, (out, err), fp, fp0 in zip(batch, p["outputs"], prints, first_prints):
            if err is not None:
                results = [workloads.Result(item.label, math.nan, 0.0, False, err)]
            else:
                results = item.check(out)
            for r in results:
                attempted += 1
                bad = [] if r.ok else [r.why]
                if fp != fp0:
                    bad.append("output differs from the first pass" + (" (traced)" if traced else ""))
                if r.key in reference:
                    compared += 1
                    drift = abs(r.value - reference[r.key]) / r.tol
                    max_drift = max(max_drift, drift)
                    if not drift <= 1.0:
                        bad.append(f"moved {drift:.3g} x tol from reference {reference[r.key]!r}")
                elif reference and err is None:
                    bad.append("no stored reference")
                if r.key.startswith("gap/"):
                    kind = r.key.split("/")[1]
                    gaps[kind] = max(gaps[kind], r.value)
                if bad:
                    failed += 1
                    if len(failures) < 20:
                        failures.append(f"{item.label}: {r.key}: {'; '.join(bad)}")
        if traced:
            layers.append(spans.layer_metrics(store.spans(), store.info, p["wall"]))
            spans.write_jsonl(trace_path, store, f"{workload}/seed={seed}/pass={len(passes)}", p["start"])
        del p["outputs"]
        p["traced"] = traced
        passes.append(p)
        longest = max(q["wall"] for q in passes)
        need_traced = trace and len(passes) < 2
        if not need_traced and time.perf_counter() - begin + longest > seconds:
            break

    untraced = [q for q in passes if not q["traced"]]
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "batch": [item.label for item in batch],
        "results_per_pass": attempted // len(passes),
        "passes": passes,
        "cpu_s": [q["cpu"] for q in untraced],
        "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "check": {
            "max_drift_over_tol": max_drift,
            "reference_results": compared,
            "disturbance_gap": gaps["disturbance"],
            "bloch_gap": gaps["bloch"],
        },
        "trace_file": str(trace_path) if trace else None,
        "machine": {
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": blas.get("openblas configuration", ""),
            "blas_threads_env": {
                key: os.environ.get(key, "unset")
                for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            },
            "spinpointer_workers": 1,
        },
    }


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, out_dir = argv
    result = run(workload, int(seed), float(seconds), trace == "1", Path(out_dir))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
