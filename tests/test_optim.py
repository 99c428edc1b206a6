"""Tests for CUDA-graph launch fusion (Sec. VII-A)."""

import math

import pytest

from repro import units
from repro.config import SystemConfig
from repro.optim import graph_fusion_time, sweep_graph_batches


def test_graph_fusion_beats_individual_launches_under_cc():
    config = SystemConfig.confidential()
    individual = graph_fusion_time(
        config, num_launches=128, per_kernel_ns=units.us(5), graph_batch=1
    )
    batched = graph_fusion_time(
        config, num_launches=128, per_kernel_ns=units.us(5), graph_batch=32
    )
    assert batched < individual


def test_graph_batch_sweep_has_interior_optimum_or_monotone():
    times = sweep_graph_batches(
        SystemConfig.confidential(),
        num_launches=128,
        per_kernel_ns=units.us(5),
        batches=(1, 8, 64),
    )
    assert times[8] <= times[1]


# ---------------------------------------------------------------------------
# input validation (sweeps must reject degenerate axes up front)


@pytest.mark.parametrize("kwargs", [
    dict(per_kernel_ns=0),
    dict(per_kernel_ns=float("nan")),
    dict(num_launches=0),
    dict(graph_batch=-2),
])
def test_graph_fusion_time_rejects_bad_inputs(kwargs):
    with pytest.raises(ValueError):
        graph_fusion_time(SystemConfig.base(), **kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(batches=()),
    dict(batches=(0, 4)),
    dict(per_kernel_ns=-1),
    dict(num_launches=-3),
])
def test_sweep_graph_batches_rejects_bad_inputs(kwargs):
    with pytest.raises(ValueError):
        sweep_graph_batches(SystemConfig.base(), **kwargs)


def test_validation_error_messages_name_the_argument():
    with pytest.raises(ValueError, match="per_kernel_ns"):
        graph_fusion_time(SystemConfig.base(), per_kernel_ns=math.nan)
    with pytest.raises(ValueError, match="batches"):
        sweep_graph_batches(SystemConfig.base(), batches=(-1,))
