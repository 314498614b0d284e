#!/usr/bin/env python3
"""k-sweep benchmark for cdlab.

    python3 kbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a cdlab checkout; the benchmark imports cdlab from
`src/` and exits 2 without a result when it is not there.  Each sweep runs
`cdlab.cli.main` in a fresh interpreter (worker.py), and its report is
checked against the closed forms in oracles.py after the timing.

A run repeats rounds until --seconds have passed, at least one.  A round
takes set-up samples (interpreter start plus `import cdlab`) and one sweep;
every sweep process gives a set-up sample too.
--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced sweeps, adds one peak-memory sweep, and reports the per-layer
metrics.  The inputs are fixed: --seed is recorded and changes nothing.
The last line of standard output is one JSON object.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Fixed for the benchmark and every process it starts: the k-level pool is
# off and BLAS runs one thread, so the two cores do not contend.
THREAD_ENV = {
    "CDLAB_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".kbench_out"
SETUP_PER_ROUND = 3
CHILD_TIMEOUT_S = 150
MIB = 1024.0


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources, or cdlab does not import)."""


def child_env():
    """The workers' environment: fixed threads, cdlab's default backend."""
    env = dict(os.environ)
    env.pop("CDLAB_BACKEND", None)
    env.update(THREAD_ENV)
    return env


class Sweeper:
    """Starts worker processes for one workload and checks their output."""

    def __init__(self, workload, src, work_dir):
        self.workload = workload
        self.src = src
        self.work_dir = work_dir
        self.env = child_env()
        self.report = str(work_dir / "report.csv")
        self.setup_s = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.backend = None

    def _spawn(self, *args):
        """(result dict or None, exit code); appends a set-up sample."""
        cmd = [sys.executable, str(HERE / "worker.py"), str(self.src), *args]
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.work_dir,
                                  capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, None
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return None, proc.returncode
        self.setup_s.append(result["ready"] - t_spawn)
        self.backend = result["backend"]
        return result, proc.returncode

    def setup_sample(self):
        result, rc = self._spawn("setup")
        if result is None or rc != 0:
            raise BenchError(f"cdlab does not import from {self.src}")

    def sweep(self, mode):
        """One sweep; returns the worker's result with report_bytes added,
        or None when the worker produced no result."""
        outputs = self.workload.output_paths(self.report)
        result, rc = self._spawn(mode, self.workload.name, self.report)
        ks = self.workload.k_values
        self.attempted += len(ks)
        if result is None or rc != 0:
            self.failed += len(ks)
            self.errors.append(f"{mode} sweep exited {rc}")
            result = None
        else:
            ok, errors = self.workload.check_report(self.report)
            self.failed += sum(1 for k in ks if not ok[k])
            self.errors.extend(errors)
            result["report_bytes"] = sum(os.path.getsize(p) for p in outputs
                                         if os.path.exists(p))
        for path in outputs:
            if os.path.exists(path):
                os.remove(path)
        return result


def _median(values):
    return statistics.median(values) if values else 0.0


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(name, seconds, trace):
    """Measure one workload; returns (result dict, info lines)."""
    workload = WORKLOADS[name]
    src = ROOT / "src"
    work_dir = OUT_DIR / f"{name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        sw = Sweeper(workload, src, work_dir)
        sw.setup_sample()          # writes the bytecode caches; not counted
        sw.setup_s.clear()
        plain, traced, memory = [], [], []
        if trace:
            memory.append(sw.sweep("memory"))
        t_start = time.monotonic()
        while not plain or time.monotonic() - t_start < seconds:
            for _ in range(SETUP_PER_ROUND):
                sw.setup_sample()
            plain.append(sw.sweep("plain"))
            if trace:
                traced.append(sw.sweep("trace"))
        last_trace = next((r for r in reversed(traced) if r), None)
        if last_trace is not None:
            (OUT_DIR / f"trace-{name}.json").write_text(json.dumps(last_trace["spans"]))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    plain = [r for r in plain if r]
    traced = [r for r in traced if r]
    memory = [r for r in memory if r]
    sweep_s = _median([r["sweep_s"] for r in plain])
    info = [
        f"workload {name}: k={','.join(map(str, workload.k_values))} "
        f"argv: cdlab {' '.join(workload.argv('report.csv'))}",
        "threads: " + " ".join(f"{k}={v}" for k, v in THREAD_ENV.items())
        + f"; backend {sw.backend}; python {sys.version.split()[0]}",
        f"samples: {len(sw.setup_s)} set-up, {len(plain)} untraced sweeps, "
        f"{len(traced)} traced, {len(memory)} memory",
        "untraced sweep_s: " + " ".join(f"{r['sweep_s']:.4f}" for r in plain),
    ]
    info.extend(f"error: {e}" for e in sw.errors[:10])
    if trace:
        layers = {}
        per_sweep = [spans.layer_metrics(r["spans"], r["values"]) for r in traced]
        for key in (per_sweep[0] if per_sweep else {}):
            layers[key] = _median([m[key] for m in per_sweep])
        traced_s = layers.pop("sweep_s", 0.0)
        layers["experiments.report_bytes"] = _median([r["report_bytes"] for r in traced])
        layers["experiments.trace_overhead_s"] = traced_s - sweep_s
        peaks = spans.peak_metrics(memory[0]["peaks"] if memory else {})
        metrics = {key: _metric(val, _layer_unit(key)) for key, val in layers.items()}
        metrics.update({key: _metric(val, "MiB") for key, val in peaks.items()})
        info.append(f"traced sweep_s {traced_s:.4f} vs untraced {sweep_s:.4f}")
        for key, val in layers.items():
            if key.endswith("_s") and traced_s > 0:
                info.append(f"  {key:34s} {val:10.4f} s  {100 * val / traced_s:5.1f}%")
    else:
        metrics = {
            "sweep_s": _metric(sweep_s, "s"),
            "setup_s": _metric(_median(sw.setup_s), "s"),
            "peak_rss_mib": _metric(_median([r["rss_kib"] / MIB for r in plain]), "MiB"),
        }
    result = {
        "correct": sw.failed == 0 and not sw.errors and bool(plain),
        "attempted": sw.attempted,
        "failed": sw.failed,
        "metrics": metrics,
    }
    return result, info


def _layer_unit(key):
    if key.endswith("_s"):
        return "s"
    if key.endswith("_bytes"):
        return "bytes"
    return "1"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cdlab" / "__init__.py").is_file():
        print(f"kbench: no cdlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            result, info = run_workload(name, args.seconds, args.trace)
            print(f"seed {args.seed} (inputs are fixed; the seed is not used)")
            print("\n".join(info))
            for key, m in result["metrics"].items():
                print(f"{name} {key} = {m['value']!r} {m['unit']}")
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            prefix = "" if len(names) == 1 else f"{name}."
            combined["metrics"].update(
                {prefix + key: m for key, m in result["metrics"].items()})
    except BenchError as exc:
        print(f"kbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
