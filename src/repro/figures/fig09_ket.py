"""Fig. 9: kernel execution time (KET) normalized to the non-CC
non-UVM baseline, across base/CC and UVM/non-UVM.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..config import SystemConfig
from ..core import kernel_metrics
from ..cuda import run_app
from ..workloads import CATALOG, FIG9_APPS
from .common import FigureResult


def generate(app_names: Optional[Sequence[str]] = None) -> FigureResult:
    app_names = list(app_names) if app_names is not None else FIG9_APPS
    rows = []
    cc_nonuvm, uvm_base, uvm_cc = [], [], []
    for name in app_names:
        info = CATALOG[name]

        def mean_ket(config, uvm):
            trace, _ = run_app(info.app(uvm), config, label=name)
            return kernel_metrics(trace).ket_stats().mean

        baseline = mean_ket(SystemConfig.base(), False)
        r_cc = mean_ket(SystemConfig.confidential(), False) / baseline
        r_uvm = mean_ket(SystemConfig.base(), True) / baseline
        r_uvm_cc = mean_ket(SystemConfig.confidential(), True) / baseline
        cc_nonuvm.append(r_cc)
        uvm_base.append(r_uvm)
        uvm_cc.append(r_uvm_cc)
        rows.append(
            (name, 1.0, round(r_cc, 4), round(r_uvm, 2), round(r_uvm_cc, 2))
        )
    rows.append(
        (
            "MEAN",
            1.0,
            round(float(np.mean(cc_nonuvm)), 4),
            round(float(np.mean(uvm_base)), 2),
            round(float(np.mean(uvm_cc)), 2),
        )
    )
    figure = FigureResult(
        figure_id="fig09_ket",
        title="Mean KET normalized to non-CC non-UVM baseline",
        columns=("app", "base", "cc", "uvm_base", "uvm_cc"),
        rows=rows,
        notes=["uvm_cc is the paper's 'encrypted paging' regime (log-scale in the paper)."],
    )
    figure.add_paper_comparison(
        "non-UVM CC KET increase (%)",
        100.0 * (float(np.mean(cc_nonuvm)) - 1.0),
    )
    figure.add_paper_comparison(
        "UVM non-CC mean slowdown", float(np.mean(uvm_base))
    )
    figure.add_paper_comparison(
        "UVM CC mean slowdown", float(np.mean(uvm_cc))
    )
    figure.add_paper_comparison(
        "UVM CC max slowdown (2dconv; paper value is pathological thrash)",
        max(uvm_cc),
    )
    figure.add_paper_comparison("UVM CC min slowdown", min(uvm_cc))
    return figure
