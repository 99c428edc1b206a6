"""Tests of the benchmark itself:  python3 -m pytest perfbench -q

They sit outside the tier-1 ``tests/`` tree and the figure suite in
``benchmarks/``, so neither collects them.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import run  # noqa: E402
from workloads import (  # noqa: E402
    SEED_SLOTS, WORKLOADS, load_reference, seed_slot,
)


def _unit(workload, name):
    return next(u for u in workload.units if u.name == name)


def _traced(workload, name):
    """Digest, counters and layer calls of one warm, traced unit."""
    tracer = layers.Tracer()
    unit = _unit(workload, name)
    unit.run(0)
    gc.collect()
    with tracer.installed():
        output = tracer.call(lambda: unit.run(0))
    table, counters = tracer.results()
    calls = {k: v for k, v in table.items() if k.endswith(".calls")}
    return workload.digest(output), counters, calls, output


def test_same_seed_gives_identical_digests_and_counters(tmp_path):
    for name, unit in (("serve_sweep", "fcfs-r8-cc"),
                       ("cnn_train", "vgg16-b64-fp32-cc")):
        runs = [_traced(WORKLOADS[name](5, str(tmp_path)), unit)
                for _ in range(2)]
        assert runs[0][:3] == runs[1][:3]
        assert runs[0][1]["sim.events"] > 0


def test_digests_match_the_committed_reference(tmp_path):
    reference = load_reference()
    for name, unit in (("serve_sweep", "spf-r24-cc-tuned"),
                       ("cnn_train", "squeezenet-b64-fp32-cc")):
        workload = WORKLOADS[name](SEED_SLOTS + 3, str(tmp_path))
        assert workload.slot == 3
        output = _unit(workload, unit).run(0)
        assert workload.check(unit, output) == {unit: None}
        assert reference[name]["3"][unit] == workload.digest(output)


def test_different_seed_changes_serve_arrivals(tmp_path):
    digests = set()
    for seed in (1, 2):
        workload = WORKLOADS["serve_sweep"](seed, str(tmp_path))
        _trace, result = _unit(workload, "fcfs-r8-base").run(0)
        digests.add(result.arrival_digest)
    assert len(digests) == 2


def test_paper_grid_ignores_the_seed(tmp_path):
    grids = [WORKLOADS["paper_grid"](seed, str(tmp_path / str(seed)))
             for seed in (0, 11)]
    assert not grids[0].seed_applies
    assert [u.name for u in grids[0].units] == [u.name for u in grids[1].units]
    assert "paper_grid" not in load_reference()


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def test_traced_run_reports_every_declared_per_layer_metric(tmp_path):
    for name in ("serve_sweep", "paper_grid"):
        workload = WORKLOADS[name](5, str(tmp_path / name))
        if name == "paper_grid":  # one cell and the gate
            workload.units = workload.units[-2:]
            workload.cells = [workload.units[0].name]
        else:
            workload.units = workload.units[:1]
        passes = [run.run_pass(workload, 0)]
        traced_passes, metrics, mismatched = run.traced(workload, passes)
        workload.close()
        assert mismatched == []
        assert not any(p.failed for p in passes + traced_passes)
        declared = _declared("per_layer")
        assert set(metrics) == set(declared)
        assert {k: run.metric_unit(k) for k in metrics} == declared


def test_shims_are_removed_after_a_traced_pass():
    from repro.cuda.runtime import CudaRuntime
    from repro.obs.spans import Span

    before = (CudaRuntime.launch, Span.__init__)
    with layers.Tracer().installed():
        assert CudaRuntime.launch is not before[0]
    assert (CudaRuntime.launch, Span.__init__) == before


def test_layer_of_groups_by_package():
    src = layers.SRC_REPRO
    assert layers.layer_of(os.path.join(src, "sim", "engine.py")) == "sim"
    assert layers.layer_of(os.path.join(src, "config.py")) == "config"
    assert layers.layer_of("/elsewhere/repro/sim/engine.py") == ""


def test_seed_slots_wrap():
    assert seed_slot(SEED_SLOTS + 2) == 2


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_one_command_prints_the_contract_line():
    proc = _run(ROOT, "--workload", "paper_grid", "--seed", "7",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == (
        _declared("end_to_end"))
    assert any("does not apply" in line for line in lines)
    assert any(line.split()[:1] == ["paper_err_pct"] for line in
               (raw.strip() for raw in lines))


def test_fails_without_the_simulator(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "cnn_train", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
