"""Fig. 11: CDFs of per-launch KLO and per-kernel KET pooled across
the app catalogue, base vs CC.

Follows the paper's display rule: for the launch CDF the top-5 longest
launches are trimmed from the curve, while averages use all points.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .. import units
from ..config import SystemConfig
from ..cuda import run_app
from ..profiler import cdf
from ..workloads import CATALOG, FIG7_APPS
from .common import FigureResult

PERCENTILES = (10, 25, 50, 75, 90, 95, 99)
TRIM_TOP_LAUNCHES = 5


def _pool(app_names: Sequence[str], config: SystemConfig):
    klos: List[int] = []
    kets: List[int] = []
    for name in app_names:
        trace, _ = run_app(CATALOG[name].app(False), config, label=name)
        klos.extend(e.duration_ns for e in trace.launches())
        kets.extend(e.duration_ns for e in trace.kernels())
    return klos, kets


def generate(app_names: Optional[Sequence[str]] = None) -> FigureResult:
    app_names = list(app_names) if app_names is not None else FIG7_APPS
    rows = []
    means = {}
    for label, config in (
        ("base", SystemConfig.base()),
        ("cc", SystemConfig.confidential()),
    ):
        klos, kets = _pool(app_names, config)
        for metric, values, trim in (
            ("klo", klos, TRIM_TOP_LAUNCHES),
            ("ket", kets, 0),
        ):
            means[(metric, label)] = float(np.mean(values))
            curve_values, _probs = cdf(values, trim_top=trim)
            for pct in PERCENTILES:
                rows.append(
                    (
                        metric,
                        label,
                        pct,
                        round(units.to_us(float(np.percentile(curve_values, pct))), 3),
                    )
                )
            rows.append(
                (metric, label, "mean(all)", round(units.to_us(means[(metric, label)]), 3))
            )
    figure = FigureResult(
        figure_id="fig11_cdfs",
        title="CDF percentiles of KLO and KET (pooled over apps)",
        columns=("metric", "mode", "percentile", "value_us"),
        rows=rows,
        notes=[
            "Launch curves trim the top-5 longest launches (paper's rule); "
            "means are over all points.",
        ],
    )
    figure.add_paper_comparison(
        "KLO CDF shifts right under CC (mean ratio > 1)",
        means[("klo", "cc")] / means[("klo", "base")],
    )
    figure.add_paper_comparison(
        "KET distribution ~unchanged under CC (mean ratio)",
        means[("ket", "cc")] / means[("ket", "base")],
    )
    return figure
