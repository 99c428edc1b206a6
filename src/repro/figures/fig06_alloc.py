"""Fig. 6: memory allocation/deallocation time under Base vs CC —
cudaMallocHost (Hmalloc), cudaMalloc (Dmalloc), cudaFree, and the
managed (UVM) variants, plus the paper's UVM-vs-non-UVM comparison.
"""

from __future__ import annotations

from typing import Sequence

from .. import units
from ..config import SystemConfig
from ..cuda import run_app
from .common import FigureResult

DEFAULT_SIZES = (4 * units.MiB, 16 * units.MiB, 64 * units.MiB, 256 * units.MiB)


def _mgmt_app(rt, size):
    """Exercise all five management APIs once at the given size."""
    timings = {}
    dev = yield from rt.malloc(size)
    host = yield from rt.malloc_host(size)
    managed = yield from rt.malloc_managed(size)
    for buf, key in ((dev, "free"), (host, "hfree"), (managed, "managed_free")):
        yield from rt.free(buf)
    _ = timings
    return None


def _collect(config: SystemConfig, size: int):
    trace, _ = run_app(_mgmt_app, config, size=size)
    out = {}
    for event in trace.events:
        out.setdefault(event.name, []).append(event.duration_ns)
    return {name: sum(values) for name, values in out.items()}


def generate(sizes: Sequence[int] = DEFAULT_SIZES) -> FigureResult:
    apis = (
        "cudaMalloc",
        "cudaMallocHost",
        "cudaMallocManaged",
        "cudaFree",
        "cudaFreeHost",
        "cudaFree(managed)",
    )
    rows = []
    # API-level CC/base ratios are measured at *small* sizes (fixed
    # driver cost dominates — the API-microbenchmark regime the paper's
    # 5.43x/3.35x managed numbers come from); the UVM-vs-non-UVM app
    # comparison is per-page dominated, so it uses the *largest* size.
    small_ratio = {}
    uvm_vs_base = {}
    for size in sizes:
        base = _collect(SystemConfig.base(), size)
        cc = _collect(SystemConfig.confidential(), size)
        for api in apis:
            b, c = base.get(api, 0), cc.get(api, 0)
            ratio = c / b if b else float("nan")
            if size == min(sizes):
                small_ratio[api] = ratio
            rows.append(
                (
                    size // units.MiB,
                    api,
                    units.to_us(b),
                    units.to_us(c),
                    round(ratio, 2),
                )
            )
        if size == max(sizes):
            # The paper's UVM-vs-non-UVM normalization (non-CC non-UVM = 1).
            uvm_vs_base = {
                "uvm_alloc": base["cudaMallocManaged"] / base["cudaMalloc"],
                "uvm_free": base["cudaFree(managed)"] / base["cudaFree"],
                "cc_uvm_alloc": cc["cudaMallocManaged"] / base["cudaMalloc"],
                "cc_uvm_free": cc["cudaFree(managed)"] / base["cudaFree"],
            }
    figure = FigureResult(
        figure_id="fig06_alloc",
        title="Memory (de)allocation time, Base vs CC",
        columns=("size_MiB", "api", "base_us", "cc_us", "cc/base"),
        rows=rows,
    )

    figure.add_paper_comparison(
        "cudaMalloc slowdown", small_ratio["cudaMalloc"]
    )
    figure.add_paper_comparison(
        "cudaMallocHost slowdown", small_ratio["cudaMallocHost"]
    )
    figure.add_paper_comparison("cudaFree slowdown", small_ratio["cudaFree"])
    figure.add_paper_comparison(
        "cudaMallocManaged slowdown", small_ratio["cudaMallocManaged"]
    )
    figure.add_paper_comparison(
        "managed free slowdown", small_ratio["cudaFree(managed)"]
    )
    figure.add_paper_comparison(
        "non-CC UVM alloc vs base", uvm_vs_base["uvm_alloc"]
    )
    figure.add_paper_comparison(
        "non-CC UVM free vs base", uvm_vs_base["uvm_free"]
    )
    figure.add_paper_comparison(
        "CC UVM alloc vs base", uvm_vs_base["cc_uvm_alloc"]
    )
    figure.add_paper_comparison(
        "CC UVM free vs base", uvm_vs_base["cc_uvm_free"]
    )
    return figure
