"""Fig. 5: time spent on copy operations per application, Base vs CC,
split by direction as Nsight reports it (CC pinned copies show up as
Managed D2D — Sec. VI-A).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .. import units
from ..config import CopyKind, SystemConfig
from ..core import copy_time_by_kind
from ..cuda import run_app
from ..workloads import CATALOG, FIG5_APPS
from .common import FigureResult


def generate(app_names: Optional[Sequence[str]] = None) -> FigureResult:
    app_names = list(app_names) if app_names is not None else FIG5_APPS
    rows = []
    slowdowns = {}
    for name in app_names:
        info = CATALOG[name]
        totals = {}
        for label, config in (
            ("base", SystemConfig.base()),
            ("cc", SystemConfig.confidential()),
        ):
            trace, _ = run_app(info.app(False), config, label=name)
            by_kind = copy_time_by_kind(trace)
            totals[label] = sum(by_kind.values())
            rows.append(
                (
                    name,
                    label,
                    units.to_ms(by_kind[CopyKind.H2D]),
                    units.to_ms(by_kind[CopyKind.D2H]),
                    units.to_ms(by_kind[CopyKind.D2D]),
                    units.to_ms(totals[label]),
                )
            )
        slowdowns[name] = totals["cc"] / max(totals["base"], 1)
    for name in app_names:
        rows.append((name, "cc/base", "", "", "", round(slowdowns[name], 2)))
    figure = FigureResult(
        figure_id="fig05_copytime",
        title="Copy-operation time per app (Nsight-visible direction split)",
        columns=("app", "mode", "h2d_ms", "d2h_ms", "d2d_ms", "total_ms"),
        rows=rows,
        notes=[
            "Under CC, copies on pinned memory are reported as Managed D2D "
            "(encrypted paging), matching the paper's observation for 2dconv.",
        ],
    )
    values = list(slowdowns.values())
    figure.add_paper_comparison("mean copy slowdown", float(np.mean(values)))
    figure.add_paper_comparison("max copy slowdown (2dconv)", max(values))
    figure.add_paper_comparison("min copy slowdown (cnn)", min(values))
    return figure
