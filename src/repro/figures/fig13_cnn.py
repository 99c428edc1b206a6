"""Fig. 13: CNN training throughput and training time for different
batch sizes under CC and non-CC, with AMP and FP16 quantization.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..config import SystemConfig
from ..dnn import MODELS, train
from .common import FigureResult

# (batch, precision) panels shown in the paper's Fig. 13.
PANELS = (
    (64, "fp32"),
    (64, "amp"),
    (1024, "fp32"),
    (1024, "amp"),
    (1024, "fp16"),
)


def generate(model_names: Optional[Sequence[str]] = None) -> FigureResult:
    model_names = list(model_names) if model_names is not None else list(MODELS)
    rows = []
    results = {}
    for name in model_names:
        model = MODELS[name]
        for batch, precision in PANELS:
            for label, config in (
                ("base", SystemConfig.base()),
                ("cc", SystemConfig.confidential()),
            ):
                results[(name, batch, precision, label)] = train(
                    model, batch, precision, config
                )
    for name in model_names:
        norm = results[(name, 64, "fp32", "base")].epoch_time_sec
        for batch, precision in PANELS:
            for label in ("base", "cc"):
                result = results[(name, batch, precision, label)]
                rows.append(
                    (
                        name,
                        batch,
                        precision,
                        label,
                        round(result.throughput_img_per_sec, 1),
                        round(result.epoch_time_sec / norm, 4),
                    )
                )

    def agg(metric):
        return float(np.mean(metric)), float(np.max(metric))

    def pct_drop(batch, precision):
        return [
            1
            - results[(n, batch, precision, "cc")].throughput_img_per_sec
            / results[(n, batch, precision, "base")].throughput_img_per_sec
            for n in model_names
        ]

    def pct_time(batch, precision):
        return [
            results[(n, batch, precision, "cc")].epoch_time_sec
            / results[(n, batch, precision, "base")].epoch_time_sec
            - 1
            for n in model_names
        ]

    figure = FigureResult(
        figure_id="fig13_cnn",
        title="CNN training throughput / normalized training time",
        columns=("model", "batch", "precision", "mode",
                 "throughput_img_s", "time_vs_b64_fp32_base"),
        rows=rows,
    )
    mean_drop, max_drop = agg(pct_drop(64, "fp32"))
    mean_time, max_time = agg(pct_time(64, "fp32"))
    figure.add_paper_comparison("b64 fp32 CC throughput drop mean (%)",
                                100 * mean_drop)
    figure.add_paper_comparison("b64 fp32 CC throughput drop max (%)",
                                100 * max_drop)
    figure.add_paper_comparison("b64 fp32 CC time increase mean (%)",
                                100 * mean_time)
    figure.add_paper_comparison("b64 fp32 CC time increase max (%)",
                                100 * max_time)
    mean_drop_1024, _ = agg(pct_drop(1024, "fp32"))
    mean_time_1024, _ = agg(pct_time(1024, "fp32"))
    figure.add_paper_comparison("b1024 fp32 CC throughput drop mean (%)",
                                100 * mean_drop_1024)
    figure.add_paper_comparison("b1024 fp32 CC time increase mean (%)",
                                100 * mean_time_1024)
    # AMP at 64 (vs CC fp32@64), paper's "AMP reduces CC throughput".
    amp_drop = [
        1
        - results[(n, 64, "amp", "cc")].throughput_img_per_sec
        / results[(n, 64, "fp32", "cc")].throughput_img_per_sec
        for n in model_names
    ]
    amp_time = [
        results[(n, 64, "amp", "cc")].epoch_time_sec
        / results[(n, 64, "fp32", "cc")].epoch_time_sec
        - 1
        for n in model_names
    ]
    figure.add_paper_comparison("amp@64 CC throughput drop mean (%)",
                                100 * float(np.mean(amp_drop)))
    figure.add_paper_comparison("amp@64 CC throughput drop max (%)",
                                100 * float(np.max(amp_drop)))
    figure.add_paper_comparison("amp@64 CC time increase mean (%)",
                                100 * float(np.mean(amp_time)))
    figure.add_paper_comparison("amp@64 CC time increase max (%)",
                                100 * float(np.max(amp_time)))
    # CC AMP @1024 vs non-CC fp32 @1024 ("AMP becomes effective").
    amp_gain = [
        results[(n, 1024, "amp", "cc")].throughput_img_per_sec
        / results[(n, 1024, "fp32", "base")].throughput_img_per_sec
        - 1
        for n in model_names
    ]
    amp_time_drop = [
        1
        - results[(n, 1024, "amp", "cc")].epoch_time_sec
        / results[(n, 1024, "fp32", "base")].epoch_time_sec
        for n in model_names
    ]
    figure.add_paper_comparison("amp@1024 CC vs base throughput gain mean (%)",
                                100 * float(np.mean(amp_gain)))
    figure.add_paper_comparison("amp@1024 CC vs base throughput gain max (%)",
                                100 * float(np.max(amp_gain)))
    figure.add_paper_comparison("amp@1024 CC vs base time drop mean (%)",
                                100 * float(np.mean(amp_time_drop)))
    figure.add_paper_comparison("amp@1024 CC vs base time drop max (%)",
                                100 * float(np.max(amp_time_drop)))
    # FP16 quantization vs AMP at 1024 (CC): further time reduction.
    fp16_drop = [
        1
        - results[(n, 1024, "fp16", "cc")].epoch_time_sec
        / results[(n, 1024, "amp", "cc")].epoch_time_sec
        for n in model_names
    ]
    figure.add_paper_comparison("fp16@1024 time drop vs AMP mean (%)",
                                100 * float(np.mean(fp16_drop)))
    figure.add_paper_comparison("fp16@1024 time drop vs AMP max (%)",
                                100 * float(np.max(fp16_drop)))
    return figure
