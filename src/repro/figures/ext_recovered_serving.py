"""Extension: closing the CC serving gap with mitigation pipelines.

``ext_serving`` shows the problem — under CC the continuous-batching
goodput knee sits strictly left of native because every iteration
crosses the serialized host<->device bridge.  This figure shows the
*recovery*: a cumulative ladder of :mod:`repro.optim.passes`
mitigation pipelines (fusion -> +overlap -> +batched downloads ->
+staging reuse -> +quantization) sweeps the same rate x CC grid and
moves the knee back to (and past) the native knee, with per-pass
claw-back attribution at the top rate.

The figure's exact predicates pin the paper's Sec.-VII direction:

* the recovered knee sits strictly right of the naive CC knee;
* claw-back is monotone along the cumulative ladder (each pass helps
  or at worst does nothing, in order);
* coalescing token downloads is monotone in the flush period *k*
  (fewer encrypted bridge transits -> more completed throughput);
* the full pipeline closes the whole top-rate goodput gap (claw-back
  >= 1): copy/compute overlap hides the bridge DMA that stalls even
  the native engine, so a tuned CC stack can beat a naive native one.

``generate_cell`` runs ONE (pipeline, rate, mode) point and is the
unit of work the ``repro tune`` auto-tuner schedules through the
content-addressed :mod:`repro.exec` cache.
"""

from __future__ import annotations

from typing import Dict, Sequence

from .. import units
from ..config import SystemConfig
from ..optim.passes import PassPipeline, parse_pipeline
from ..serve import ScenarioSpec, run_scenario
from .common import FigureResult
from .ext_serving import KNEE_ATTAINMENT, _knee

RATES = (8.0, 16.0, 24.0, 28.0, 32.0)

#: Cumulative mitigation ladder: stage label -> pipeline spec.  Each
#: stage adds ONE pass family to the previous stage, so top-rate
#: goodput deltas between adjacent stages attribute the claw-back to
#: individual passes.
LADDER = (
    ("naive", "naive"),
    ("+fusion", "fusion"),
    ("+overlap", "fusion+overlap:2"),
    ("+batch", "fusion+overlap:2+batch:4"),
    ("+staging", "fusion+overlap:2+batch:4+staging"),
    ("+quant", "fusion+overlap:2+batch:4+staging+quant:awq:8"),
)

#: Token-download flush periods swept at the top rate (k=1 is the
#: naive per-step download).
FLUSH_SWEEP = (1, 2, 4, 8)


def _run_point(
    spec: ScenarioSpec, config: SystemConfig, pipeline: PassPipeline
):
    spec, tuning = pipeline.apply(spec)
    _, result = run_scenario(spec, config, tuning=tuning)
    return result


def _row(stage, pipeline_id, rate, mode, result):
    report = result.report
    return (
        stage,
        pipeline_id,
        rate,
        mode,
        round(report["goodput_rps"], 3),
        round(report["completed_rps"], 3),
        round(report["ttft_ms"]["p50"], 3),
        round(report["ttft_ms"]["p99"], 3),
        round(report["tpot_ms"]["p99"], 3),
        result.engine.stats["preemptions"],
    )


_COLUMNS = ("stage", "pipeline", "rate_rps", "mode", "goodput_rps",
            "completed_rps", "ttft_p50_ms", "ttft_p99_ms", "tpot_p99_ms",
            "preemptions")


def generate_recovered(
    rates: Sequence[float] = RATES,
    duration_s: float = 2.0,
    tenants: int = 2,
    seed: int = 42,
) -> FigureResult:
    """Rate x CC x mitigation-pipeline sweep with claw-back ladder."""
    base_config = SystemConfig.base()
    cc_config = SystemConfig.confidential()
    duration_ns = int(duration_s * units.NS_PER_SEC)
    top_rate = max(rates)

    def spec_for(rate: float) -> ScenarioSpec:
        return ScenarioSpec(
            rate_rps=float(rate), duration_ns=duration_ns,
            tenants=tenants, seed=seed,
        )

    rows = []
    goodput: Dict[str, Dict[float, float]] = {}
    for rate in rates:
        spec = spec_for(rate)
        result = _run_point(spec, base_config, PassPipeline(()))
        goodput.setdefault("base", {})[rate] = result.report["goodput_rps"]
        rows.append(_row("base", "naive", rate, "base", result))
        for stage, pipeline_spec in LADDER:
            pipeline = parse_pipeline(pipeline_spec)
            result = _run_point(spec, cc_config, pipeline)
            goodput.setdefault(stage, {})[rate] = result.report[
                "goodput_rps"
            ]
            rows.append(
                _row(stage, pipeline.pipeline_id(), rate, "cc", result)
            )

    # Token-batching k-sweep at the top rate (batch-only pipelines, so
    # the monotonicity predicate isolates ONE mitigation family).
    flush_completed: Dict[int, float] = {}
    for k in FLUSH_SWEEP:
        pipeline = parse_pipeline("naive" if k == 1 else f"batch:{k}")
        result = _run_point(spec_for(top_rate), cc_config, pipeline)
        flush_completed[k] = result.report["completed_rps"]
        rows.append(
            _row(f"k={k}", pipeline.pipeline_id(), top_rate, "cc", result)
        )

    knees = {stage: _knee(rates, goodput[stage])
             for stage in goodput}
    gap = goodput["base"][top_rate] - goodput["naive"][top_rate]
    clawback = {
        stage: (goodput[stage][top_rate] - goodput["naive"][top_rate])
        / gap if gap > 0 else 0.0
        for stage, _ in LADDER
    }
    ladder_stages = [stage for stage, _ in LADDER]
    ladder_monotone = [
        clawback[b] >= clawback[a]
        for a, b in zip(ladder_stages, ladder_stages[1:])
    ]
    flush_monotone = [
        flush_completed[b] >= flush_completed[a]
        for a, b in zip(FLUSH_SWEEP, FLUSH_SWEEP[1:])
    ]
    recovered = ladder_stages[-1]

    figure = FigureResult(
        figure_id="ext_recovered_serving",
        title="Mitigation pipelines move the CC goodput knee back",
        columns=_COLUMNS,
        rows=rows,
        notes=[
            "Cumulative pipeline ladder over %d tenants; a rate is "
            "sustained while goodput >= %g%% of it." % (
                tenants, 100 * KNEE_ATTAINMENT),
            "knees (last sustained rate, rps): " + ", ".join(
                f"{stage}={knees[stage]:g}"
                for stage in ("base", *ladder_stages)
            ),
            "claw-back at %g rps (fraction of the base-vs-naive-CC "
            "goodput gap recovered): " % top_rate + ", ".join(
                f"{stage}={clawback[stage]:.2f}" for stage in ladder_stages
            ),
            "per-pass attribution at %g rps (goodput delta vs previous "
            "stage, rps): " % top_rate + ", ".join(
                "%s=%+.2f" % (
                    b, goodput[b][top_rate] - goodput[a][top_rate])
                for a, b in zip(ladder_stages, ladder_stages[1:])
            ),
            "token-flush k-sweep at %g rps (completed rps): " % top_rate
            + ", ".join(
                f"k={k}:{flush_completed[k]:.2f}" for k in FLUSH_SWEEP
            ),
        ],
    )
    figure.add_paper_comparison(
        "recovered CC knee strictly above naive CC knee (exact)",
        float(knees[recovered] > knees["naive"]),
    )
    figure.add_paper_comparison(
        "cumulative ladder claw-back monotone (fraction of stages)",
        sum(ladder_monotone) / len(ladder_monotone),
    )
    figure.add_paper_comparison(
        "token-batch completed throughput monotone in k (fraction)",
        sum(flush_monotone) / len(flush_monotone),
    )
    figure.add_paper_comparison(
        "full pipeline closes the top-rate goodput gap (claw-back >= 1)",
        float(clawback[recovered] >= 1.0),
    )
    return figure


def cell_figure_id(passes: str, rate: float, mode: str) -> str:
    """Deterministic per-cell figure id (also the output filename under
    the tuner's results dir, so it must be unique per grid point)."""
    pipeline = parse_pipeline(passes)
    slug = pipeline.pipeline_id().replace(":", "").replace("+", "-")
    return f"ext_recovered_cell_{mode}_r{rate:g}_{slug}"


def generate_cell(
    passes: str = "naive",
    rate: float = 24.0,
    mode: str = "cc",
    duration_s: float = 2.0,
    tenants: int = 2,
    seed: int = 42,
) -> FigureResult:
    """One (pipeline, rate, mode) grid point for ``repro tune``."""
    if mode not in ("base", "cc"):
        raise ValueError(f"mode must be 'base' or 'cc', got {mode!r}")
    pipeline = parse_pipeline(passes)
    config = (
        SystemConfig.confidential() if mode == "cc" else SystemConfig.base()
    )
    spec = ScenarioSpec(
        rate_rps=float(rate),
        duration_ns=int(duration_s * units.NS_PER_SEC),
        tenants=tenants,
        seed=seed,
    )
    result = _run_point(spec, config, pipeline)
    return FigureResult(
        figure_id=cell_figure_id(passes, rate, mode),
        title=f"tune cell: {pipeline.pipeline_id()} @ {rate:g} rps ({mode})",
        columns=_COLUMNS,
        rows=[_row("cell", pipeline.pipeline_id(), float(rate), mode,
                   result)],
        notes=[
            "accuracy_drop_pct=%.2f" % pipeline.accuracy_drop_pct(),
        ],
    )
