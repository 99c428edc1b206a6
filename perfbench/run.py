"""Benchmark of record for the simulator's host cost.

    python3 perfbench/run.py --workload cnn_train --seed 3 --seconds 30 --trace 0

Runs one workload (see ``workloads.py``) in this process, pass after
pass over its units until ``--seconds`` is used up, checks every
unit's output against its reference, and prints a report followed by
one JSON line as the last line of standard output.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: process start to the first unit ready (imports, configs,
  lazy set-up), median over fresh child processes;
* ``wall_s``: host wall time for one pass over all units, as the sum of
  each unit's median over the passes of the run;
* ``peak_rss_mb``: peak resident memory of this process.

``failed_frac`` (units that raised or whose output mismatched, over
units attempted) and, on ``paper_grid``, ``paper_err_pct`` are printed
in the report; the JSON carries the same failures as
``attempted``/``failed``.

``--trace 1`` first makes the same untraced passes, then two traced
passes (see ``layers.py``) and reports the per-layer metrics.  The two
traced passes must give identical exact counters; any difference
counts as a failure.  The layer table is also written, with the host
fingerprint, under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 7

# Host fields that must match for two results to be compared.
HOST_KEYS = ("cpu_model", "nproc", "python", "numpy")


@dataclass
class Pass:
    times: Dict[str, float]  # unit -> seconds in its public call
    errors: Dict[str, Optional[str]]
    cpu_s: float  # process CPU time over the same calls

    @property
    def wall_s(self) -> float:
        return sum(self.times.values())

    @property
    def failed(self) -> int:
        return sum(1 for err in self.errors.values() if err is not None)


def run_pass(workload, pass_no: int, tracer=None) -> Pass:
    """One pass over every unit; only the public call is timed, and
    each output is checked (and dropped) before the next unit runs."""
    times: Dict[str, float] = {}
    errors: Dict[str, Optional[str]] = {}
    cpu_s = 0.0
    for unit in workload.units:
        def call(unit=unit):
            return unit.run(pass_no)
        # Each unit starts from a collected heap: the previous unit's
        # garbage is not charged to it, and a traced unit's automatic
        # collections (which finalize suspended simulator processes)
        # fall at the same points every time.
        gc.collect()
        cpu_started = time.process_time()
        started = time.perf_counter()
        try:
            output = tracer.call(call) if tracer else call()
        except Exception as exc:  # a unit that raises counts as failed
            traceback.print_exc(file=sys.stderr)
            errors[unit.name] = f"{type(exc).__name__}: {exc}"
            output = None
        times[unit.name] = time.perf_counter() - started
        cpu_s += time.process_time() - cpu_started
        if unit.name not in errors:
            errors.update(workload.check(unit.name, output))
        del output
    for name, err in errors.items():
        if err is not None:
            print(f"FAILED {workload.name}/{name} (pass {pass_no}): {err}",
                  file=sys.stderr)
    return Pass(times, errors, cpu_s)


def timed_passes(workload, seconds: float) -> List[Pass]:
    """Passes until the next one would overrun ``seconds`` (at least
    one)."""
    passes: List[Pass] = []
    started = time.perf_counter()
    while True:
        passes.append(run_pass(workload, len(passes)))
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def unit_medians_sum(passes: List[Pass]) -> float:
    names = passes[0].times
    return sum(statistics.median(p.times[n] for p in passes) for n in names)


def measure_setup(workload: str, seed: int) -> List[float]:
    """Wall time from spawning a fresh interpreter to its first unit
    being ready, several times."""
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, stdout=subprocess.PIPE,
        )
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - started)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            proc.wait(timeout=120)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    return samples


def _git_commit() -> Optional[str]:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None  # not a git checkout


def host_fingerprint() -> Dict[str, Any]:
    import numpy

    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    hasher = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "repro", "**", "*.py"),
                                 recursive=True)):
        hasher.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as handle:
            hasher.update(handle.read())
    return {
        "cpu_model": cpu_model,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": hasher.hexdigest()[:16],
    }


def flag_host_change(host: Dict[str, Any]) -> Optional[str]:
    """Compare against the previous run's host; remember this one."""
    path = os.path.join(OUT_DIR, "last_host.json")
    previous = None
    try:
        with open(path) as handle:
            previous = json.load(handle)
    except (OSError, ValueError):
        pass
    with open(path, "w") as handle:
        json.dump({k: host[k] for k in HOST_KEYS}, handle)
    if previous is None:
        return None
    moved = [k for k in HOST_KEYS if previous.get(k) != host[k]]
    if not moved:
        return None
    return ("host changed since the previous run (" + ", ".join(
        f"{k}: {previous.get(k)!r} -> {host[k]!r}" for k in moved)
        + "); do not compare these figures with earlier ones")


def _exact(table: Dict[str, float], counters: Dict[str, float]):
    calls = {k: v for k, v in table.items() if k.endswith(".calls")}
    return {**calls, **counters}


def traced(workload, passes: List[Pass]):
    """Two traced passes after the untraced ``passes``: the traced
    passes, every per-layer metric (self times averaged over the two)
    and the exact counts on which the two disagree."""
    from layers import OUTPUT_COUNTERS, Tracer

    runs = []
    for offset in range(2):
        tracer = Tracer()
        with tracer.installed():
            result = run_pass(workload, len(passes) + offset, tracer)
        table, counters = tracer.results()
        counters.update(dict.fromkeys(OUTPUT_COUNTERS, 0))
        counters.update(workload.counters())
        runs.append((result, table, counters))
    (a, table_a, counters_a), (b, table_b, counters_b) = runs
    exact_a, exact_b = _exact(table_a, counters_a), _exact(table_b, counters_b)
    mismatched = sorted(k for k in exact_a if exact_a[k] != exact_b.get(k))
    metrics = {k: (v + table_b[k]) / 2 if k.endswith(".self_s") else v
               for k, v in table_a.items()}
    metrics.update(counters_a)
    metrics["host.cpu_s"] = statistics.median(p.cpu_s for p in passes)
    metrics["trace.overhead_x"] = (
        (a.wall_s + b.wall_s) / 2 / unit_medians_sum(passes))
    return [a, b], metrics, mismatched


def metric_unit(name: str) -> str:
    suffix = name.split(".", 1)[1]
    return {"self_s": "s", "cpu_s": "s", "overhead_x": "x",
            "warm_hit_ratio": "ratio"}.get(suffix, "count")


def print_layers(metrics: Dict[str, float], mismatched: List[str]) -> None:
    print(f"  {'layer':<10}{'self_s':>10}{'calls':>12}")
    for key in sorted(k for k in metrics if k.endswith(".self_s")):
        layer = key[:-len(".self_s")]
        print(f"  {layer:<10}{metrics[key]:>10.4f}"
              f"{metrics[layer + '.calls']:>12}")
    for key, value in metrics.items():
        if not key.endswith((".self_s", ".calls")):
            text = f"{value:.4f}" if isinstance(value, float) else value
            print(f"  {key:<24}{text:>12}")
    if mismatched:
        print("FAILED traced passes disagree on: " + ", ".join(mismatched))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: simulator source not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {sorted(WORKLOADS)}")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    cls = WORKLOADS[args.workload]
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    if args.setup_probe:
        workload = cls(args.seed, workdir)
        print("ready", flush=True)
        workload.close()
        return 0

    os.makedirs(OUT_DIR, exist_ok=True)
    host = host_fingerprint()
    host_note = flag_host_change(host)
    setup_samples = measure_setup(args.workload, args.seed)
    workload = cls(args.seed, workdir)
    mismatched: List[str] = []
    try:
        passes = timed_passes(workload, args.seconds)
        summary = workload.summary()
        all_passes = list(passes)
        if args.trace:
            traced_passes, layer_metrics, mismatched = traced(
                workload, passes)
            all_passes += traced_passes
    finally:
        workload.close()

    wall_s = unit_medians_sum(passes)
    setup_s = statistics.median(setup_samples)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = sum(len(p.times) for p in all_passes)
    failed = sum(p.failed for p in all_passes) + len(mismatched)
    seed_note = (f"seed {args.seed} (slot {workload.slot})"
                 if workload.seed_applies else
                 f"seed {args.seed} does not apply (registry per-cell seeds)")
    print(f"perfbench {args.workload}: {seed_note}; {len(passes)} passes "
          f"x {len(workload.units)} units, closed loop, 1 process")
    print("host: " + ", ".join(f"{k}={v}" for k, v in host.items()))
    if host_note:
        print(f"FLAG: {host_note}")
    print(f"  setup_s        {setup_s:10.4f} s   (median of {SETUP_PROBES})")
    print(f"  wall_s         {wall_s:10.4f} s   (sum of per-unit medians)")
    print(f"  peak_rss_mb    {peak_rss_mb:10.2f} MB")
    print(f"  failed_frac    {failed / attempted:10.4f} frac "
          f"({failed}/{attempted})")
    for name, value in summary.items():
        print(f"  {name:<14} {value:10.4f} %   (check_accuracy mean)")
    end_to_end = {"setup_s": setup_s, "wall_s": wall_s,
                  "peak_rss_mb": peak_rss_mb}
    report = {
        "workload": args.workload, "seed": args.seed,
        "seed_applies": workload.seed_applies, "host": host,
        "units": len(workload.units), "passes": len(passes),
        "setup_samples_s": setup_samples,
        "pass_wall_s": [p.wall_s for p in passes],
        "unit_times_s": {n: [p.times[n] for p in passes]
                         for n in passes[0].times},
        "failed_units": sorted({f"{n}: {e}" for p in all_passes
                                for n, e in p.errors.items() if e}),
        **end_to_end, **summary,
    }
    if args.trace:
        print_layers(layer_metrics, mismatched)
        report.update(per_layer=layer_metrics, counter_mismatches=mismatched)
        metrics = {k: {"value": v, "unit": metric_unit(k)}
                   for k, v in layer_metrics.items()}
    else:
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in end_to_end.items()}
    out_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                            f"{'-trace' if args.trace else ''}.json")
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    print(f"result written to {os.path.relpath(out_path, ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
