"""Fig. 1: end-to-end overview of where time goes under CC-off /
CC-on / CC-on+UVM for a representative copy-then-execute application.
"""

from __future__ import annotations

from .. import units
from ..config import SystemConfig
from ..core import CATEGORIES, breakdown
from ..cuda import run_app
from ..workloads import CATALOG
from .common import FigureResult

DEFAULT_APP = "hotspot"


def generate(app_name: str = DEFAULT_APP) -> FigureResult:
    info = CATALOG[app_name]
    scenarios = [
        ("cc-off", SystemConfig.base(), False),
        ("cc-on", SystemConfig.confidential(), False),
        ("cc-on-uvm", SystemConfig.confidential(), True),
    ]
    rows = []
    spans = {}
    for label, config, uvm in scenarios:
        trace, _ = run_app(info.app(uvm), config, label=label)
        result = breakdown(trace)
        spans[label] = result.span_ns
        for category in CATEGORIES:
            category_ns = result.by_category_ns.get(category, 0)
            if category == "recovery" and category_ns == 0:
                # Only present under an active fault plan; omitting the
                # zero row keeps fault-free outputs bit-identical.
                continue
            rows.append(
                (
                    label,
                    category,
                    units.to_ms(category_ns),
                    100.0 * result.share(category),
                )
            )
        rows.append((label, "TOTAL", units.to_ms(result.span_ns), 100.0))
    figure = FigureResult(
        figure_id="fig01_overview",
        title=f"End-to-end breakdown of {app_name} under CC settings",
        columns=("scenario", "category", "time_ms", "share_pct"),
        rows=rows,
        notes=[
            "Reproduces the structure of paper Fig. 1: CC-on stretches "
            "copies/mgmt/launches; CC-on+UVM is dominated by encrypted paging.",
        ],
    )
    figure.add_paper_comparison(
        "cc-on / cc-off end-to-end (qualitative: > 1)",
        spans["cc-on"] / spans["cc-off"],
    )
    figure.add_paper_comparison(
        "cc-on-uvm / cc-on end-to-end (qualitative: >> 1)",
        spans["cc-on-uvm"] / spans["cc-on"],
    )
    return figure
