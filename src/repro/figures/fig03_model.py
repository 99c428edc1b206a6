"""Fig. 3: the GPU performance model — validated by comparing the
model's predicted end-to-end time P against the simulated wall clock
for a cross-section of applications in both modes.
"""

from __future__ import annotations

from typing import Sequence

from .. import units
from ..config import SystemConfig
from ..core import decompose
from ..cuda import run_app
from ..workloads import CATALOG
from .common import FigureResult

DEFAULT_APPS = ("2mm", "hotspot", "sc", "3dconv", "gb_bfs", "kmeans")


def generate(app_names: Sequence[str] = DEFAULT_APPS) -> FigureResult:
    rows = []
    errors = []
    for name in app_names:
        info = CATALOG[name]
        for label, config in (
            ("base", SystemConfig.base()),
            ("cc", SystemConfig.confidential()),
        ):
            trace, _ = run_app(info.app(False), config, label=name)
            model = decompose(trace)
            errors.append(abs(model.prediction_error))
            rows.append(
                (
                    name,
                    label,
                    units.to_ms(model.part_a_ns),
                    units.to_ms(model.part_b_ns),
                    units.to_ms(model.part_c_ns),
                    units.to_ms(model.t_other_ns),
                    round(model.alpha, 3),
                    round(model.mean_beta, 3),
                    units.to_ms(model.predicted_ns),
                    units.to_ms(model.span_ns),
                    100.0 * model.prediction_error,
                )
            )
    figure = FigureResult(
        figure_id="fig03_perfmodel",
        title="Performance model P = (1-a)T_mem + sum(KLO+LQT) + sum((1-b)(KET+KQT)) + T_other",
        columns=(
            "app", "mode", "A_ms", "B_ms", "C_ms", "D_ms",
            "alpha", "mean_beta", "P_pred_ms", "P_obs_ms", "err_pct",
        ),
        rows=rows,
        notes=["The model is the paper's Sec.-V contribution; error is prediction vs simulated wall clock."],
    )
    figure.add_paper_comparison(
        "max |prediction error| (qualitative: small)",
        max(errors),
    )
    return figure
