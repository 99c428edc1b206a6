"""Extension: request-level serving telemetry self-verification.

Runs one serving scenario (base and CC) with request-scoped telemetry
(:mod:`repro.serve.telemetry`) and gates the layer's three standing
guarantees as exact predicates:

* **zero perturbation** — the verdict JSON with telemetry enabled is
  byte-identical to the telemetry-off run, per mode;
* **conservation** — every request's Sec.-V component breakdown
  (queue/T/E/L/Q/K/D/recovery/other) sums to its end-to-end latency
  exactly (integer ns), and its TTFT-window breakdown to TTFT;
* **consistency** — the tail-forensics report reproduces the verdict's
  global TTFT/TPOT/E2E percentiles from the per-request records, and
  the base-vs-CC forensics diff attributes the TTFT p99 delta to
  component deltas that sum to it exactly.

The per-mode rows double as a blame summary: where the wall-clock of a
served request actually goes under CC vs base.
"""

from __future__ import annotations

from .. import units
from ..config import SystemConfig
from ..serve import (
    ATTRIBUTION_COMPONENTS,
    ScenarioSpec,
    forensics_diff,
    latency_percentiles,
    run_scenario,
    tail_report,
    verdict_json,
)
from .common import FigureResult

RATE_RPS = 8.0
DURATION_S = 2.0
SEED = 42

_PCT_KEYS = ("p50", "p95", "p99")
_PCT_METRICS = ("ttft_ms", "tpot_ms", "e2e_ms")


def generate_serve_telemetry(
    rate_rps: float = RATE_RPS,
    duration_s: float = DURATION_S,
    seed: int = SEED,
) -> FigureResult:
    """Telemetry invariants as exact predicates, base vs CC."""
    spec = ScenarioSpec(
        rate_rps=float(rate_rps),
        duration_ns=int(duration_s * units.NS_PER_SEC),
        seed=seed,
    )
    modes = (
        ("base", SystemConfig.base()),
        ("cc", SystemConfig.confidential()),
    )

    rows = []
    verdict_identical = []
    conserved = []
    percentile_matches = []
    attributions = {}
    for mode, config in modes:
        _, plain = run_scenario(spec, config, telemetry=False)
        _, result = run_scenario(spec, config, telemetry=True)
        verdict_identical.append(
            verdict_json(plain) == verdict_json(result)
        )
        atts = result.attributions
        attributions[mode] = atts
        for attribution in atts:
            ok = (
                sum(attribution.components.values()) == attribution.e2e_ns
            )
            if attribution.ttft_ns is not None:
                ok = ok and (
                    sum(attribution.ttft_components.values())
                    == attribution.ttft_ns
                )
            conserved.append(ok)
        recomputed = latency_percentiles(atts)
        for metric in _PCT_METRICS:
            for key in _PCT_KEYS:
                percentile_matches.append(
                    recomputed[metric][key] == result.report[metric][key]
                )
        report = tail_report(atts, top=1)
        sums = report["components_ns"]
        rows.append(
            (
                mode,
                len(atts),
                report["completed"],
                round(result.report["ttft_ms"]["p99"], 3),
            ) + tuple(
                round(units.to_ms(sums[c]), 3)
                for c in ATTRIBUTION_COMPONENTS
            )
        )

    diff = forensics_diff(attributions["base"], attributions["cc"])
    delta_attributed = (
        sum(diff["components_delta_ns"].values()) == diff["delta_ns"]
    )

    figure = FigureResult(
        figure_id="ext_serve_telemetry",
        title="Request-level telemetry: exact CC-tax attribution",
        columns=("mode", "requests", "completed", "ttft_p99_ms") + tuple(
            f"{c}_ms" for c in ATTRIBUTION_COMPONENTS
        ),
        rows=rows,
        notes=[
            "One scenario (%g rps x %gs, seed %d) per mode; component "
            "columns are run-wide sums of per-request blame." % (
                rate_rps, duration_s, seed),
            "TTFT p99 moved %+0.3f ms base->cc; dominant component: %s."
            % (units.to_ms(diff["delta_ns"]), diff["dominant"]),
        ],
    )
    figure.add_paper_comparison(
        "telemetry-on verdict byte-identical to off (fraction of modes)",
        sum(verdict_identical) / len(verdict_identical),
    )
    figure.add_paper_comparison(
        "per-request breakdown sums exactly to E2E/TTFT (fraction)",
        sum(conserved) / len(conserved),
    )
    figure.add_paper_comparison(
        "forensics percentiles equal the verdict report (fraction)",
        sum(percentile_matches) / len(percentile_matches),
    )
    figure.add_paper_comparison(
        "TTFT p99 delta fully attributed to components (fraction)",
        1.0 if delta_attributed else 0.0,
    )
    return figure
