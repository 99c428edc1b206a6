"""CUDA-graph launch fusion (paper Sec. VII-A, Observation 7).

:func:`graph_fusion_time` evaluates the alternative the paper suggests
for iterative single-kernel apps (3dconv-style): launch fusion via
CUDA graphs instead of source-level kernel fusion.  The source-level
fusion sweep itself (Fig. 12b) is :func:`repro.workloads.fusion_sweep`.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

from .. import units
from ..config import SystemConfig
from ..cuda import run_app
from ..gpu import nanosleep_kernel


def _check_duration(name: str, value) -> None:
    """Durations must be positive finite numbers — a NaN/inf KET would
    silently poison every simulated span downstream."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value) or value <= 0:
        raise ValueError(
            f"{name} must be a positive finite duration in ns, "
            f"got {value!r}"
        )


def _check_counts(name: str, counts: Sequence[int]) -> None:
    """Sweep axes must be non-empty sequences of positive ints."""
    if not counts:
        raise ValueError(f"{name} must be non-empty")
    for count in counts:
        if (
            not isinstance(count, int)
            or isinstance(count, bool)
            or count <= 0
        ):
            raise ValueError(
                f"{name} entries must be positive ints, got {count!r}"
            )


def _graph_app(rt, num_launches: int, per_kernel_ns: int, graph_batch: int):
    kernel = nanosleep_kernel(per_kernel_ns, name="graph_node")
    graph = yield from rt.graph_create([kernel] * graph_batch)
    full, remainder = divmod(num_launches, graph_batch)
    for _ in range(full):
        yield from rt.graph_launch(graph)
    for _ in range(remainder):
        yield from rt.launch(kernel)
    yield from rt.synchronize()


def graph_fusion_time(
    config: SystemConfig,
    num_launches: int = 254,
    per_kernel_ns: int = units.us(30),
    graph_batch: int = 16,
) -> int:
    """End-to-end time for an iterative app with cudaGraph launch
    fusion at the given batching level (3dconv-style, Sec. VII-A)."""
    _check_duration("per_kernel_ns", per_kernel_ns)
    _check_counts("num_launches", (num_launches,))
    _check_counts("graph_batch", (graph_batch,))
    trace, _ = run_app(
        _graph_app,
        config,
        num_launches=num_launches,
        per_kernel_ns=per_kernel_ns,
        graph_batch=graph_batch,
    )
    return trace.span_ns()


def sweep_graph_batches(
    config: SystemConfig,
    num_launches: int = 254,
    per_kernel_ns: int = units.us(30),
    batches: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128),
) -> Dict[int, int]:
    """Graph-batch size -> end-to-end ns (the Ekelund-style optimum)."""
    _check_duration("per_kernel_ns", per_kernel_ns)
    _check_counts("num_launches", (num_launches,))
    _check_counts("batches", batches)
    return {
        batch: graph_fusion_time(config, num_launches, per_kernel_ns, batch)
        for batch in batches
    }
