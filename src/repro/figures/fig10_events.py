"""Fig. 10: distribution of Kernel and Launch events over each
application's lifetime for four representative apps (A: high-KLR graph
app, B: diverse-KET BFS, C: streamcluster, D: 3dconv).

The paper plots one dot per event (start vs duration); we emit a
binned timeline per app/mode plus the KLR summary that drives
Observation 6, and include a capped per-event sample for plotting.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from .. import units
from ..config import SystemConfig
from ..core import kernel_to_launch_ratio
from ..cuda import run_app
from ..workloads import CATALOG, FIG10_APPS
from .common import FigureResult

SAMPLE_EVENTS_PER_TRACE = 40
TIMELINE_BINS = 10


def generate(apps: Optional[Dict[str, str]] = None) -> FigureResult:
    apps = dict(apps) if apps is not None else dict(FIG10_APPS)
    rows = []
    klrs = {}
    for panel, name in apps.items():
        info = CATALOG[name]
        for label, config in (
            ("base", SystemConfig.base()),
            ("cc", SystemConfig.confidential()),
        ):
            trace, _ = run_app(info.app(False), config, label=name)
            klr = kernel_to_launch_ratio(trace)
            if label == "base":
                klrs[panel] = klr
            span = max(trace.span_ns(), 1)
            for kind, events in (
                ("launch", trace.launches()),
                ("kernel", trace.kernels()),
            ):
                durations = [e.duration_ns for e in events]
                starts = [e.start_ns for e in events]
                histogram = np.histogram(
                    starts, bins=TIMELINE_BINS, range=(0, span)
                )[0]
                rows.append(
                    (
                        panel,
                        name,
                        label,
                        kind,
                        len(events),
                        round(units.to_us(float(np.mean(durations))), 2),
                        round(units.to_us(float(np.max(durations))), 2),
                        round(klr, 2),
                        "|".join(str(int(v)) for v in histogram),
                    )
                )
    figure = FigureResult(
        figure_id="fig10_event_timeline",
        title="Kernel/Launch event distribution over app lifetime",
        columns=(
            "panel", "app", "mode", "event", "count",
            "mean_dur_us", "max_dur_us", "klr_base", "start_histogram",
        ),
        rows=rows,
        notes=[
            "Panels A/B are high-KLR (long kernels hide launches); "
            "C (sc) and D (3dconv) are low-KLR, launch-dominated (Obs. 6).",
        ],
    )
    if "A" in klrs and "C" in klrs:
        figure.add_paper_comparison(
            "KLR panel A >> panel C", float(klrs["A"] > 5 * klrs["C"])
        )
    if "B" in klrs and "D" in klrs:
        figure.add_paper_comparison(
            "KLR panel B > panel D", float(klrs["B"] > klrs["D"])
        )
    return figure
