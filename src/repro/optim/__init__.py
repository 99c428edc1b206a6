"""Optimizations the paper evaluates against CC overheads
(Sec. VII-A).  The kernel-fusion and copy/compute-overlap sweeps of
Fig. 12b/c are :func:`repro.workloads.fusion_sweep` and
:func:`repro.workloads.overlap_experiment`; :mod:`repro.optim.fusion`
adds CUDA-graph launch fusion.  Quantization (the third mitigation)
lives with its workloads in :mod:`repro.dnn` (AMP/FP16) and
:mod:`repro.llm` (AWQ).

:mod:`repro.optim.passes` composes these mitigations into validated,
ordered :class:`~repro.optim.passes.PassPipeline` transforms over
serving scenarios — the policy layer the ``repro tune`` auto-tuner
(:mod:`repro.tune`) searches over."""

from .fusion import graph_fusion_time, sweep_graph_batches
from .passes import (
    PASS_FAMILIES,
    QUANT_ACCURACY_DROP_PCT,
    BatchedTokenDownloadPass,
    CopyOverlapPass,
    KernelFusionPass,
    MitigationPass,
    PassError,
    PassPipeline,
    QuantizationPass,
    StagingReusePass,
    parse_pipeline,
)

__all__ = [
    "BatchedTokenDownloadPass",
    "CopyOverlapPass",
    "KernelFusionPass",
    "MitigationPass",
    "PASS_FAMILIES",
    "PassError",
    "PassPipeline",
    "QUANT_ACCURACY_DROP_PCT",
    "QuantizationPass",
    "StagingReusePass",
    "graph_fusion_time",
    "parse_pipeline",
    "sweep_graph_batches",
]
