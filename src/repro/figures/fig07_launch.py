"""Fig. 7: effect of CC on KLO, LQT and KQT, normalized to non-CC.

Applications with no queuing time (single launch) are excluded, as in
the paper.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..config import SystemConfig
from ..core import kernel_metrics, launch_metrics
from ..cuda import run_app
from ..workloads import CATALOG, FIG7_APPS
from .common import FigureResult


def generate(app_names: Optional[Sequence[str]] = None) -> FigureResult:
    app_names = list(app_names) if app_names is not None else FIG7_APPS
    rows = []
    klo_ratios, lqt_ratios, kqt_ratios = [], [], []
    for name in app_names:
        info = CATALOG[name]
        metrics = {}
        for label, config in (
            ("base", SystemConfig.base()),
            ("cc", SystemConfig.confidential()),
        ):
            trace, _ = run_app(info.app(False), config, label=name)
            metrics[label] = (launch_metrics(trace), kernel_metrics(trace))
        launches_base, kernels_base = metrics["base"]
        launches_cc, kernels_cc = metrics["cc"]
        klo = launches_cc.klo_stats().mean / max(launches_base.klo_stats().mean, 1e-9)
        lqt_base_mean = launches_base.lqt_stats().mean
        lqt = (
            launches_cc.lqt_stats().mean / lqt_base_mean
            if lqt_base_mean > 0
            else float("nan")
        )
        kqt = kernels_cc.kqt_stats().mean / max(kernels_base.kqt_stats().mean, 1e-9)
        klo_ratios.append(klo)
        if lqt == lqt:  # not NaN
            lqt_ratios.append(lqt)
        kqt_ratios.append(kqt)
        rows.append(
            (
                name,
                launches_base.count,
                round(klo, 2),
                round(lqt, 2) if lqt == lqt else "n/a",
                round(kqt, 2),
            )
        )
    rows.append(
        (
            "MEAN",
            "",
            round(float(np.mean(klo_ratios)), 2),
            round(float(np.mean(lqt_ratios)), 2),
            round(float(np.mean(kqt_ratios)), 2),
        )
    )
    figure = FigureResult(
        figure_id="fig07_launch_queuing",
        title="CC effect on KLO / LQT / KQT (ratios vs non-CC)",
        columns=("app", "launches", "klo_cc/base", "lqt_cc/base", "kqt_cc/base"),
        rows=rows,
    )
    figure.add_paper_comparison("mean KLO slowdown", float(np.mean(klo_ratios)))
    figure.add_paper_comparison("max KLO slowdown (dwt2d)", max(klo_ratios))
    figure.add_paper_comparison("mean LQT slowdown", float(np.mean(lqt_ratios)))
    figure.add_paper_comparison("mean KQT slowdown", float(np.mean(kqt_ratios)))
    return figure
