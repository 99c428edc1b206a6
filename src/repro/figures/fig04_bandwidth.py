"""Fig. 4a: H2D/D2H bandwidth vs transfer size (pageable/pinned x
base/cc) and Fig. 4b: single-core crypto throughput on EMR and Grace.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .. import units
from ..config import CopyKind
from ..crypto import throughput as crypto
from ..workloads import bandwidth_sweep
from .common import FigureResult


def generate_4a(sizes: Optional[Sequence[int]] = None) -> FigureResult:
    points = bandwidth_sweep(sizes=sizes)
    rows = [
        (
            point.size_bytes,
            point.memory.value,
            point.copy_kind.value,
            "cc" if point.cc else "base",
            round(point.gbps, 4),
        )
        for point in points
    ]
    figure = FigureResult(
        figure_id="fig04a_bandwidth",
        title="PCIe transfer bandwidth vs size (warmed buffers)",
        columns=("size_bytes", "memory", "dir", "mode", "GB_per_s"),
        rows=rows,
    )
    pin_cc = [
        p.gbps
        for p in points
        if p.cc and p.memory.value == "pinned" and p.copy_kind is CopyKind.H2D
    ]
    pin_base = [
        p.gbps
        for p in points
        if not p.cc and p.memory.value == "pinned" and p.copy_kind is CopyKind.H2D
    ]
    figure.add_paper_comparison("CC pin-h2d peak GB/s", max(pin_cc))
    figure.add_paper_comparison(
        "base pinned h2d peak GB/s (paper-class ~25)", max(pin_base)
    )
    return figure


def generate_4b(size_bytes: int = 64 * units.MiB) -> FigureResult:
    rows = []
    for cpu in crypto.cpus():
        for algorithm in crypto.algorithms(cpu):
            spec = crypto.spec(algorithm, cpu)
            rows.append(
                (
                    cpu,
                    algorithm,
                    round(crypto.effective_throughput(size_bytes, algorithm, cpu), 3),
                    spec.peak_gbps,
                    "yes" if spec.confidentiality else "no",
                    "yes" if spec.integrity else "no",
                )
            )
    figure = FigureResult(
        figure_id="fig04b_crypto",
        title="Single-core encryption/authentication throughput",
        columns=("cpu", "algorithm", "GB_per_s@64MiB", "peak_GB_per_s",
                 "confidentiality", "integrity"),
        rows=rows,
    )
    figure.add_paper_comparison(
        "AES-GCM peak on EMR GB/s",
        crypto.spec("aes-128-gcm", crypto.EMR).peak_gbps,
    )
    figure.add_paper_comparison(
        "GHASH peak on EMR GB/s",
        crypto.spec("ghash", crypto.EMR).peak_gbps,
    )
    return figure
