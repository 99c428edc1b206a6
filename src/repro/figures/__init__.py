"""Figure reproduction: one generator per paper table/figure.

Each module exposes ``generate*(...) -> FigureResult`` functions; the
grid registry (:data:`repro.exec.runner.GRID`) names the module and
generator behind every cell, and benches render the text tables and
tee JSON into ``results/``.
"""

from .common import FigureResult, default_results_dir

__all__ = ["FigureResult", "default_results_dir"]
