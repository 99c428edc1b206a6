"""Fig. 8: simplified call stack of a cudaLaunchKernel inside a TD.

Runs a single kernel launch on a confidential machine, takes the
hierarchical span subtree rooted at the ``cudaLaunchKernel`` driver
span, and folds it into a flame graph — the dma_direct_alloc /
set_memory_decrypted / tdx_hypercall frames the paper highlights.
"""

from __future__ import annotations

from .. import units
from ..config import SystemConfig
from ..cuda import Machine
from ..gpu import nanosleep_kernel
from ..profiler import folded_from_spans, frame_share, render_ascii, tree_from_spans
from .common import FigureResult


def _single_launch(rt):
    # A representative kernel with a realistic module size (~64 DMA
    # pages of code/constant staging) so the first-launch conversion
    # work is visible, as in the paper's perf capture.
    kernel = nanosleep_kernel(units.us(50), name="probe")
    kernel.attrs["module_pages"] = 64.0
    yield from rt.launch(kernel)
    yield from rt.synchronize()


def generate() -> FigureResult:
    machine = Machine(SystemConfig.confidential(), label="fig08")
    machine.run(_single_launch)
    # Restrict to the launch path (drop sync/idle frames): fold the
    # span subtree hanging off the cudaLaunchKernel driver span.
    launch_root = next(
        s for s in machine.trace.spans if s.name == "cudaLaunchKernel"
    )
    launch_spans = machine.trace.spans.subtree(launch_root)
    tree = tree_from_spans(launch_spans, root_name="cudaLaunchKernel(in TD)")
    rows = folded_from_spans(launch_spans)
    figure = FigureResult(
        figure_id="fig08_flamegraph",
        title="Folded call stacks of one cudaLaunchKernel inside a TD",
        columns=("stack", "self_ns"),
        rows=rows,
        notes=[
            "ASCII flame graph:",
            *render_ascii(tree).splitlines(),
        ],
    )
    figure.add_paper_comparison(
        "share of launch in set_memory_decrypted (qualitative: large)",
        frame_share(tree, "set_memory_decrypted"),
    )
    figure.add_paper_comparison(
        "share of launch in TDX module (__seamcall)",
        frame_share(tree, "tdx_module.__seamcall"),
    )
    return figure
