"""The benchmark's three workloads, as lists of timed units.

A unit is one call into a public entry point of the simulator
(``repro.dnn.train``, ``repro.serve.run_scenario``,
``repro.exec.runner.run_grid``, ``repro.check.*``).  ``Unit.run`` makes
exactly that call and returns its raw output; everything else a unit
needs (building specs, digesting and checking the output) happens
outside the timer.

All three workloads are closed-loop batch jobs: one unit after
another in one process, ``jobs=1``, no threads.  Simulated request
arrivals in ``serve_sweep`` are model inputs, not generator load.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import shutil
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_PATH = os.path.join(HERE, "reference.json")

#: The workload seed is reduced modulo this many slots; every slot has
#: committed reference digests in ``reference.json``, so any ``--seed``
#: is checked byte for byte.  Seeds that share a slot share inputs.
SEED_SLOTS = 16

# cnn_train: a small fp32 panel (launch-bound) and a large-batch AMP
# panel (transfer- and compute-heavier), each in base and CC mode.
CNN_PANELS = ((64, "fp32"), (1024, "amp"))

# serve_sweep: below, at and past the CC goodput knee of ext_serving.
SERVE_RATES = (8.0, 24.0, 32.0)
SERVE_POLICIES = ("fcfs", "spf")
SERVE_DURATION_NS = 2_000_000_000
SERVE_PIPELINE = "fusion+overlap:2+batch:4+staging"
UNIT_SEEDS = 100  # serve_sweep seeds per slot (one per unit)
# The fault point: CC at the knee with every fault site active and the
# shed + circuit-breaker degradation policy, so the recovery path of
# repro.serve runs beside the happy path.
FAULT_RATE = 0.05
FAULT_POLICY = dict(
    ttft_timeout_ms=350.0,
    deadline_ms=2500.0,
    shed_policy="pushback",
    max_queue_depth=12,
    max_engine_restarts=3,
    circuit_breaker=True,
)


@dataclass
class Unit:
    name: str
    run: Callable[[int], Any]  # pass index -> raw output


def seed_slot(seed: int) -> int:
    return seed % SEED_SLOTS


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_reference() -> Dict[str, Any]:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


class Workload:
    """Units of one workload plus how to check their outputs."""

    name = ""
    seed_applies = True

    def __init__(self, seed: int, workdir: str) -> None:
        self.slot = seed_slot(seed)
        self.workdir = workdir
        self.units: List[Unit] = []
        self._expected: Optional[Dict[str, str]] = None

    def digest(self, output: Any) -> str:
        raise NotImplementedError

    def check(self, name: str, output: Any) -> Dict[str, Optional[str]]:
        """Check one unit's output as soon as it is made, so no output
        outlives its check.  Maps unit names to an error or None."""
        if self._expected is None:
            self._expected = load_reference()[self.name][str(self.slot)]
        got, want = self.digest(output), self._expected.get(name)
        return {name: None if got == want
                else f"digest {got} != reference {want}"}

    def counters(self) -> Dict[str, float]:
        """Exact counters of the last pass read from its outputs."""
        return {}

    def summary(self) -> Dict[str, float]:
        """End-to-end figures of the last pass that are not timings."""
        return {}

    def close(self) -> None:
        pass


class CnnTrain(Workload):
    """``repro.dnn.train`` for every model, two panels, base and CC."""

    name = "cnn_train"

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        from repro.config import SystemConfig
        from repro.dnn import MODELS, train

        modes = (
            ("base", SystemConfig.base(seed=self.slot)),
            ("cc", SystemConfig.confidential(seed=self.slot)),
        )
        for batch, precision in CNN_PANELS:
            for model_name, model in MODELS.items():
                for mode, config in modes:
                    self.units.append(Unit(
                        f"{model_name}-b{batch}-{precision}-{mode}",
                        lambda _p, m=model, b=batch, pr=precision, c=config:
                            train(m, b, pr, c),
                    ))

    def digest(self, output: Any) -> str:
        return _sha(repr(dataclasses.astuple(output)))


class ServeSweep(Workload):
    """``run_scenario`` below/at/past the knee, two policies; each
    point base, CC and CC with a tuned pass pipeline, plus one CC
    point with an active fault plan.

    Every unit draws its own arrival stream and jitter (seed
    ``slot * UNIT_SEEDS + index``): the host work of a pass then
    averages over 19 independent streams and varies little with the
    seed, where one stream shared by all modes of a rate would carry
    its full variance into every unit."""

    name = "serve_sweep"

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        from repro.config import SystemConfig
        from repro.faults import FaultPlan
        from repro.optim import parse_pipeline
        from repro.serve import ScenarioSpec, run_scenario

        pipeline = parse_pipeline(SERVE_PIPELINE)

        def add(name, rate, policy, make_config, tuned=False, **knobs):
            seed = self.slot * UNIT_SEEDS + len(self.units)
            spec = ScenarioSpec(rate_rps=rate, duration_ns=SERVE_DURATION_NS,
                                policy=policy, seed=seed, **knobs)
            config = make_config(seed=seed)

            def run(_pass_no):
                if not tuned:
                    return run_scenario(spec, config)
                tuned_spec, tuning = pipeline.apply(spec)
                return run_scenario(tuned_spec, config, tuning=tuning)

            self.units.append(Unit(name, run))

        for policy in SERVE_POLICIES:
            for rate in SERVE_RATES:
                point = f"{policy}-r{rate:g}"
                add(f"{point}-base", rate, policy, SystemConfig.base)
                add(f"{point}-cc", rate, policy, SystemConfig.confidential)
                add(f"{point}-cc-tuned", rate, policy,
                    SystemConfig.confidential, tuned=True)

        def faulty_cc(seed):
            return SystemConfig.confidential(
                seed=seed, faults=FaultPlan.uniform(FAULT_RATE))

        add(f"fcfs-r{SERVE_RATES[1]:g}-cc-faults", SERVE_RATES[1], "fcfs",
            faulty_cc, **FAULT_POLICY)

    def digest(self, output: Any) -> str:
        from repro.serve import verdict_json

        _trace, result = output
        return _sha(verdict_json(result))


class PaperGrid(Workload):
    """The fast figure grid through ``run_grid(jobs=1)``: each cell cold
    into a fresh results and cache directory (write path), then warm
    (read path); then the golden and accuracy gates over the payloads.
    Inputs are the registry's per-cell seeds, so the workload seed does
    not apply and the reference is ``results/golden/``."""

    name = "paper_grid"
    seed_applies = False
    GATE = "gate"

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        from repro.check.accuracy import check_accuracy
        from repro.check.gate import PayloadSet
        from repro.check.golden import check_golden
        from repro.exec.runner import (
            GRID, cell_cache_key, default_cells, run_grid,
        )

        self.cells = default_cells(include_slow=False)
        # Lazy set-up a `repro run` pays before its first cell: the
        # code and config fingerprints behind every cache key.
        for cell in self.cells:
            cell_cache_key(GRID[cell])
        self._pass_no = -1
        self._cells_out: Dict[str, Any] = {}  # cell -> (cold, warm)
        self._gate: Any = None
        golden_dir = os.path.join(ROOT, "results", "golden")

        def cell_unit(cell: str) -> Unit:
            def run(pass_no: int):
                if pass_no != self._pass_no:  # first cell of a new pass
                    shutil.rmtree(self.results_dir(self._pass_no),
                                  ignore_errors=True)
                    self._pass_no, self._cells_out = pass_no, {}
                results = self.results_dir(pass_no)
                cache = os.path.join(results, ".cache")
                cold = run_grid([cell], jobs=1, results_dir=results,
                                cache_dir=cache)
                warm = run_grid([cell], jobs=1, results_dir=results,
                                cache_dir=cache)
                return cold, warm
            return Unit(cell, run)

        def gate(_pass_no: int):
            payloads = PayloadSet()
            for cell in self.cells:
                if cell not in self._cells_out:
                    payloads.failures.append(f"{cell}: no output")
                    continue
                outcome = self._cells_out[cell][1].outcomes[0]
                if not outcome.ok:
                    payloads.failures.append(f"{cell}: {outcome.error}")
                    continue
                with open(outcome.json_path) as handle:
                    payloads.payloads[outcome.figure_id] = json.load(handle)
                payloads.cell_of[outcome.figure_id] = cell
            golden = check_golden(self.cells, golden_dir=golden_dir,
                                  payload_set=payloads)
            accuracy = check_accuracy(self.cells, payload_set=payloads)
            return golden, accuracy, payloads.cell_of

        self.units = [cell_unit(cell) for cell in self.cells]
        self.units.append(Unit(self.GATE, gate))

    def results_dir(self, pass_no: int) -> str:
        return os.path.join(self.workdir, f"pass{pass_no}")

    def check(self, name: str, output: Any) -> Dict[str, Optional[str]]:
        if name != self.GATE:
            self._cells_out[name] = output
            c, w = output[0].outcomes[0], output[1].outcomes[0]
            if c.status == "run" and w.status == "hit":
                return {name: None}
            return {name: f"cold {c.status} / warm {w.status}: "
                          f"{c.error or w.error}"}
        self._gate = output
        golden, accuracy, cell_of = output
        problems = list(golden.failures) + list(accuracy.failures)
        problems += [f"accuracy breach: {f.figure_id}"
                     for f in accuracy.breached]
        errors: Dict[str, Optional[str]] = {
            self.GATE: "; ".join(problems) or None}
        for diff in golden.drifted:  # a moved payload fails its cell
            errors[cell_of[diff.figure_id]] = diff.error or (
                f"{len(diff.differences)} value(s) differ from golden")
        return errors

    def counters(self) -> Dict[str, float]:
        cells = list(self._cells_out.values())
        return {
            "exec.cache_hits": sum(c.stats.hits + w.stats.hits
                                   for c, w in cells),
            "exec.cache_misses": sum(c.stats.misses + w.stats.misses
                                     for c, w in cells),
            "exec.warm_hit_ratio":
                sum(w.stats.hits for _c, w in cells) / len(self.cells),
        }

    def summary(self) -> Dict[str, float]:
        if self._gate is None:
            return {}
        scores = [s.rel_err_pct for f in self._gate[1].figures
                  for s in f.scores if math.isfinite(s.rel_err_pct)]
        return {"paper_err_pct": sum(scores) / len(scores)}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (CnnTrain, ServeSweep, PaperGrid)}
