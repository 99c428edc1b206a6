"""Extension: serving resilience under fault injection.

Sweeps per-occurrence fault rate x CC on/off x degradation policy
through the :mod:`repro.serve` engine running at an offered rate past
the goodput knee, with every cost-paying path (uploads, prefill/decode
launches, token D2H, KV swaps) under the seeded
:class:`~repro.faults.FaultInjector`.

Three policy variants per (mode, fault-rate) cell:

* ``none`` — the inert default: no shedding, no breaker, restart
  budget 2.  At the highest fault rate the SPDM re-attestation storm
  eventually lands a terminal attestation failure mid-batch and the
  engine gives up: the goodput *cliff*.
* ``shed`` — TTFT timeout + end-to-end deadline + admission pushback:
  hopeless requests are shed with an explicit cause so survivors stay
  inside their SLOs (goodput above ``none`` at every nonzero rate),
  but inline re-attestation still exposes the engine to the same
  terminal storm.
* ``shed+breaker`` — adds the circuit breaker: admission pauses and
  the batch drains before a single re-attestation, collapsing the
  storm's many inline re-attests into few, which is what keeps the
  engine alive at the highest rate: the graceful *slope*.

The zero-fault-rate ``none`` cells double as the zero-perturbation
gate: their verdict JSON must be byte-identical to a plain build
(no fault plan, all-default :class:`~repro.serve.ScenarioSpec`).
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from .. import units
from ..config import SystemConfig
from ..faults import BOUNCE_POOL, DMA, GCM_TAG, HYPERCALL, SPDM
from ..faults import FaultPlan, SiteFaults
from ..serve import ScenarioSpec, run_scenario, verdict_json
from .common import FigureResult

#: Per-occurrence probability at the transient copy sites; the other
#: sites scale with it (see :func:`fault_plan_for`).
FAULT_RATES = (0.0, 0.05, 0.1, 0.2)
POLICIES = ("none", "shed", "shed+breaker")
#: Offered load past the CC goodput knee (ext_serving: knee at 24 rps
#: under CC) — the regime where degradation policy actually matters.
OFFERED_RPS = 32.0
#: A cliff: no-policy goodput at the top fault rate under this
#: fraction of its zero-fault goodput.
CLIFF_FRACTION = 0.2
#: Graceful: policy goodput at the top fault rate at or above this
#: fraction of its zero-fault goodput.
GRACEFUL_FRACTION = 0.45


def fault_plan_for(rate: float) -> FaultPlan:
    """One scalar sweeps all five sites: full rate at the per-copy
    transient sites, quartered at the per-call/per-pool sites, halved
    at SPDM (drawn once per engine iteration, so it dominates)."""
    if rate == 0.0:
        return FaultPlan.none()
    return FaultPlan.from_mapping(
        {
            GCM_TAG: SiteFaults(rate=rate),
            DMA: SiteFaults(rate=rate),
            HYPERCALL: SiteFaults(rate=rate / 4),
            BOUNCE_POOL: SiteFaults(rate=rate / 4),
            SPDM: SiteFaults(rate=rate / 2),
        }
    )


def spec_for(variant: str, seed: int, duration_s: float) -> ScenarioSpec:
    """The scenario for one policy variant (identical load across all
    variants; only the degradation knobs differ)."""
    knobs: Dict = {}
    if variant in ("shed", "shed+breaker"):
        knobs = dict(
            ttft_timeout_ms=350.0,
            deadline_ms=2500.0,
            shed_policy="pushback",
            max_queue_depth=12,
            max_engine_restarts=3,
        )
    if variant == "shed+breaker":
        knobs["circuit_breaker"] = True
    return ScenarioSpec(
        rate_rps=OFFERED_RPS,
        duration_ns=int(duration_s * units.NS_PER_SEC),
        seed=seed,
        **knobs,
    )


def generate_fault_serving(
    fault_rates: Sequence[float] = FAULT_RATES,
    variants: Sequence[str] = POLICIES,
    duration_s: float = 2.0,
    seed: int = 42,
) -> FigureResult:
    """Goodput vs fault rate, base vs CC, per degradation policy."""
    rows = []
    goodput: Dict[Tuple[str, str], Dict[float, float]] = {}
    failed: Dict[Tuple[str, str], Dict[float, int]] = {}
    zero_rate_verdicts: Dict[str, str] = {}

    modes = (("base", SystemConfig.base), ("cc", SystemConfig.confidential))
    for mode, make_config in modes:
        for rate in fault_rates:
            config = make_config().replace(faults=fault_plan_for(rate))
            for variant in variants:
                spec = spec_for(variant, seed, duration_s)
                _, result = run_scenario(spec, config)
                report = result.report
                stats = result.engine.stats
                goodput.setdefault((mode, variant), {})[rate] = report[
                    "goodput_rps"
                ]
                failed.setdefault((mode, variant), {})[rate] = report[
                    "failed"
                ]
                if rate == 0.0 and variant == "none":
                    zero_rate_verdicts[mode] = verdict_json(result)
                rows.append(
                    (
                        mode,
                        rate,
                        variant,
                        round(report["goodput_rps"], 3),
                        report["completed"],
                        report["shed"],
                        report["failed"],
                        round(report["ttft_ms"]["p99"], 3),
                        round(report["shed_rate"], 4),
                        round(report["failed_rate"], 4),
                        stats["spdm_storms"],
                        stats["breaker_trips"],
                        stats["restarts"],
                        stats["engine_retries"],
                        stats["faults_injected"],
                    )
                )

    # Zero-perturbation: an inactive plan + inert policy must be
    # byte-identical to the all-defaults build.
    parity = []
    for mode, make_config in modes:
        plain = ScenarioSpec(
            rate_rps=OFFERED_RPS,
            duration_ns=int(duration_s * units.NS_PER_SEC),
            seed=seed,
        )
        _, plain_result = run_scenario(plain, make_config())
        parity.append(verdict_json(plain_result) == zero_rate_verdicts[mode])

    top = max(fault_rates)
    cliff = [
        goodput[(mode, "none")][top]
        < CLIFF_FRACTION * goodput[(mode, "none")][0.0]
        for mode, _ in modes
    ]
    graceful = [
        goodput[(mode, "shed+breaker")][top]
        >= GRACEFUL_FRACTION * goodput[(mode, "shed+breaker")][0.0]
        and failed[(mode, "shed+breaker")][top] == 0
        for mode, _ in modes
    ]
    beats = [
        goodput[(mode, "shed+breaker")][top] > goodput[(mode, "none")][top]
        for mode, _ in modes
    ]

    figure = FigureResult(
        figure_id="ext_fault_serving",
        title="Serving under faults: goodput cliff without degradation "
              "policies, graceful slope with them",
        columns=("mode", "fault_rate", "policy", "goodput_rps",
                 "completed", "shed", "failed", "ttft_p99_ms",
                 "shed_rate", "failed_rate", "spdm_storms",
                 "breaker_trips", "restarts", "engine_retries",
                 "faults_injected"),
        rows=rows,
        notes=[
            "Offered load %g rps (past the CC goodput knee), seed %d; "
            "fault_rate drives all five injection sites (SPDM at "
            "rate/2, hypercall/bounce at rate/4)." % (OFFERED_RPS, seed),
            "Policies: none (inert), shed (TTFT timeout 350 ms + "
            "deadline 2.5 s + pushback at queue depth 12), "
            "shed+breaker (adds the SPDM circuit breaker).",
            "At the top rate the storm lands a terminal attestation "
            "failure on the policy-free engine (give-up: requests fail "
            "with cause); the breaker collapses inline re-attests into "
            "one drain-then-attest, which is what survives it.",
            "Every request in every cell terminates exactly once "
            "(completed/shed/failed/rejected) and the KV pager drains "
            "to zero blocks — asserted inside the engine on all paths.",
        ],
    )
    figure.add_paper_comparison(
        "zero-fault verdict byte-identical to plain build (fraction)",
        sum(parity) / len(parity),
    )
    figure.add_paper_comparison(
        "no-policy goodput cliff at top fault rate (fraction of modes)",
        sum(cliff) / len(cliff),
    )
    figure.add_paper_comparison(
        "shed+breaker graceful at top fault rate, zero failed (fraction)",
        sum(graceful) / len(graceful),
    )
    figure.add_paper_comparison(
        "shed+breaker beats no-policy at top fault rate (fraction)",
        sum(beats) / len(beats),
    )
    return figure
