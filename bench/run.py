"""spinpointer benchmark.

    python3 bench/run.py --workload {curves,large_n,crosscheck} [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Builds nothing: the library is imported from
the checkout's src/. With --trace 0 the run measures the end-to-end metrics
(set-up time, wall time per pass, peak memory); with --trace 1 it alternates
untraced and traced passes and reports the per-layer metrics. The metric
names and units are those of BENCHMARK.json. Every output is checked; the
last stdout line is one JSON object, and the exit code is 0 only if every
check passed. Samples, per-call times and the machine go to
.bench_out/<workload>-seed<N>-trace<T>.json, and traced spans to
.bench_out/trace-<workload>.jsonl.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import BATCHES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s

# Speed correction. On a shared 2-core Xeon (Sapphire Rapids) virtual
# machine the core ran at two speeds about 1.5x apart, switching every few
# seconds, and raw times of identical runs spread by 20 to 30 %. A probe on
# the same core times a fixed kernel every PROBE_PERIOD_S; an interval is
# rescaled to the speed at which that kernel takes PROBE_REF_S, its CPU time
# in that machine's fast state.
PROBE_PERIOD_S = 0.02
PROBE_REF_S = 2.5e-4

# What a CLI invocation imports before its first call can start.
_IMPORT = "import sys, spinpointer.cli; sys.stdout.write(spinpointer.__file__ + '\\n'); sys.stdout.flush()"


class BenchError(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("SPINPOINTER_WORKERS", None)
    # One BLAS thread: with OpenBLAS's default of one per core, the helper
    # thread spin-waits through the oracle's 65k small expm calls, doubling
    # CPU time and slowing the run by about a fifth on a 2-core machine.
    env["OPENBLAS_NUM_THREADS"] = "1"
    # The same string hashes, hence the same dict layouts, in every run.
    env["PYTHONHASHSEED"] = "0"
    # Every import compiles spinpointer afresh and nothing is written to src/,
    # so setup_s does not depend on an earlier run having left bytecode.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def time_import(env: dict[str, str]) -> tuple[float, float]:
    """Start and end of a fresh interpreter's start-up and spinpointer import."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", _IMPORT], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line:
        raise BenchError(f"import spinpointer failed: {err.strip()}")
    if SRC.resolve() not in Path(line.strip()).resolve().parents:
        raise BenchError(f"imported spinpointer from {line.strip()}, not from {SRC}")
    return t0, t1


class SpeedProbe:
    """bench/probe.py running beside the measured processes on this core."""

    def __init__(self, env: dict[str, str]):
        self._proc = subprocess.Popen([sys.executable, str(BENCH / "probe.py"), str(PROBE_PERIOD_S)],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)
        if self._proc.stdout.readline().strip() != "ready":
            self.close()
            raise BenchError("speed probe did not start")
        self.samples: list[tuple[float, float]] = []

    def close(self) -> None:
        """Stop the probe and keep its samples."""
        if self._proc.returncode is not None:
            return
        try:
            out, _ = self._proc.communicate(timeout=30)
        finally:
            if self._proc.poll() is None:
                self._proc.kill()
                self._proc.wait()
        if self._proc.returncode == 0 and out:
            self.samples = json.loads(out)

    def corrected(self, t0: float, t1: float) -> float:
        """t1 - t0 rescaled to the probe's reference speed.

        The core's speed at each sample is 1 / kernel time, so the work done
        in the interval is its duration times the mean of those speeds.
        """
        inside = [cpu for t, cpu in self.samples if t0 <= t <= t1]
        if len(inside) < 3:  # a call shorter than a few probe periods: use the nearest samples
            mid = 0.5 * (t0 + t1)
            inside = [cpu for _, cpu in sorted(self.samples, key=lambda s: abs(s[0] - mid))[:3]]
        return (t1 - t0) * PROBE_REF_S * statistics.fmean(1.0 / cpu for cpu in inside)


def run_worker(env, workload: str, seed: int, seconds: int, trace: int, timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), str(seconds), str(trace), str(OUT)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _summary(values: list[float]) -> tuple[float, float, float]:
    """Median and quartiles (the quartiles equal the value for one sample)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def machine(res: dict) -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(), **res["machine"]}


def end_to_end(res: dict, setup: list[tuple[float, float]], probe: SpeedProbe) -> tuple[dict, dict]:
    passes = [p for p in res["passes"] if not p["traced"]]
    samples = {
        "setup_s": [probe.corrected(t0, t1) for t0, t1 in setup],
        "wall_s": [probe.corrected(p["start"], p["end"]) for p in passes],
        "peak_rss_mb": [res["peak_rss_mb"]],
        "raw setup_s": [t1 - t0 for t0, t1 in setup],
        "raw wall_s": [p["wall"] for p in passes],
        "probe kernel s": [cpu for _, cpu in probe.samples],
    }
    return {k: _summary(v)[0] for k, v in samples.items()}, samples


def per_layer(res: dict, probe: SpeedProbe) -> tuple[dict, dict]:
    samples = {key: [layer[key] for layer in res["layers"]] for key in res["layers"][0]}
    samples["run.cpu_s"] = res["cpu_s"]
    walls = {
        traced: statistics.median(probe.corrected(p["start"], p["end"]) for p in res["passes"] if p["traced"] == traced)
        for traced in (False, True)
    }
    samples["trace.overhead_frac"] = [walls[True] / walls[False] - 1.0]
    samples["failed_frac"] = [res["failed"] / res["attempted"]]
    for key, value in res["check"].items():
        samples[f"check.{key}"] = [value]
    return {k: _summary(v)[0] for k, v in samples.items()}, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BATCHES))
    parser.add_argument("--seed", type=int, default=0, help="0 runs the documented inputs (reference-checked)")
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    begin = time.perf_counter()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "spinpointer" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no spinpointer sources under {SRC} or no {spec_path.name}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT.mkdir(exist_ok=True)
    env = _child_env()
    # Every process of the run shares one core, so the probe sees the speed
    # the measured process gets.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    probe = None
    try:
        probe = SpeedProbe(env)
        setup = []
        if not args.trace:
            time_import(env)  # warms the file cache
            setup = [time_import(env) for _ in range(SETUP_SAMPLES)]
        res = run_worker(env, args.workload, args.seed, args.seconds, args.trace,
                         RUN_LIMIT_S - (time.perf_counter() - begin))
        probe.close()
        values, samples = per_layer(res, probe) if args.trace else end_to_end(res, setup, probe)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if probe is not None:
            probe.close()
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 2

    passes = len(res["passes"])
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {len(res['batch'])} calls "
          f"({'; '.join(res['batch'])}), {res['results_per_pass']} checked results per pass, {passes} passes")
    print("machine: " + json.dumps(machine(res), sort_keys=True))
    units = {m["name"]: m["unit"] for m in wanted}
    for name in [*units, *(k for k in samples if k not in units)]:
        median, q1, q3 = _summary(samples[name])
        note = " (computed from node counts)" if name in ("pointer.field_cells", "pointer.bessel_evals",
                                                           "pointer.contraction_macs") else ""
        unit = units.get(name, "s")
        print(f"  {name:44s} {median:.6g} {unit}  [q1 {q1:.6g}, q3 {q3:.6g}, n={len(samples[name])}]{note}")
    untraced = [p for p in res["passes"] if not p["traced"]]
    per_call = {}
    for i, label in enumerate(res["batch"]):
        raw = statistics.median(p["calls"][i][1] - p["calls"][i][0] for p in untraced)
        corrected = statistics.median(probe.corrected(*p["calls"][i]) for p in untraced)
        per_call[label] = {"raw_s": raw, "corrected_s": corrected}
        print(f"  per call: {label:40s} {corrected:.4f} s  (raw {raw:.4f} s)")
    if args.trace:
        print(f"  trace spans: {res['trace_file']}")
    for line in res["failures"]:
        print(f"check failed: {line}", file=sys.stderr)

    record = {"args": vars(args), "machine": machine(res), "samples": samples,
              "per_call": per_call, "failures": res["failures"]}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if res["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
