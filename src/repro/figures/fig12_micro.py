"""Fig. 12: microbenchmark studies (Sec. VII-A).

(a) per-launch KLO vs launch index for two nanosleep kernels launched
    100x each (first launches spike, CC curves sit higher);
(b) fusion sweep: total KET fixed, number of launches varied — KLO and
    LQT totals follow different trends, so full fusion is suboptimal;
(c) overlap: Listing-2 copy/compute overlap across streams for
    512 MB / 1 GB and KET 1 ms / 100 ms.
"""

from __future__ import annotations

from typing import Sequence

from .. import units
from ..config import SystemConfig
from ..workloads import fusion_sweep, launch_sequence, overlap_experiment
from .common import FigureResult


def generate_12a(launches_per_kernel: int = 100) -> FigureResult:
    rows = []
    summary = {}
    for label, config in (
        ("base", SystemConfig.base()),
        ("cc", SystemConfig.confidential()),
    ):
        klos = launch_sequence(config, launches_per_kernel=launches_per_kernel)
        for index, value in enumerate(klos):
            rows.append((label, index, round(units.to_us(value), 3)))
        steady = sorted(klos)[: len(klos) // 2]
        summary[label] = {
            "first_k0": klos[0],
            "first_k1": klos[launches_per_kernel],
            "steady_mean": sum(steady) / len(steady),
        }
    figure = FigureResult(
        figure_id="fig12a_launch_sequence",
        title="KLO vs launch index (K0 x N then K1 x N)",
        columns=("mode", "launch_index", "klo_us"),
        rows=rows,
    )
    figure.add_paper_comparison(
        "first-launch spike over steady (base)",
        summary["base"]["first_k0"] / summary["base"]["steady_mean"],
    )
    figure.add_paper_comparison(
        "CC steady-state KLO ratio",
        summary["cc"]["steady_mean"] / summary["base"]["steady_mean"],
    )
    return figure


def generate_12b(
    launch_counts: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128, 256),
    total_ket_ns: int = units.ms(100),
) -> FigureResult:
    rows = []
    trends = {}
    for label, config in (
        ("base", SystemConfig.base()),
        ("cc", SystemConfig.confidential()),
    ):
        points = fusion_sweep(config, launch_counts, total_ket_ns)
        trends[label] = points
        for point in points:
            rows.append(
                (
                    label,
                    point.num_launches,
                    round(units.to_us(point.mean_klo_ns), 2),
                    round(units.to_us(point.total_klo_ns), 2),
                    round(units.to_us(point.total_lqt_ns), 2),
                    round(units.to_ms(point.end_to_end_ns), 3),
                )
            )
    figure = FigureResult(
        figure_id="fig12b_fusion",
        title="Fusion sweep: fixed total KET split across N launches",
        columns=("mode", "launches", "mean_klo_us", "total_klo_us",
                 "total_lqt_us", "end_to_end_ms"),
        rows=rows,
        notes=[
            "KLO and LQT trend differently with launch count, so a fully "
            "fused kernel is suboptimal (Observation 7).",
        ],
    )
    cc_points = trends["cc"]
    figure.add_paper_comparison(
        "mean KLO at 1 launch / at max launches (CC)",
        cc_points[0].mean_klo_ns / cc_points[-1].mean_klo_ns,
    )
    figure.add_paper_comparison(
        "total KLO grows with launches (CC, max/min)",
        cc_points[-1].total_klo_ns / cc_points[0].total_klo_ns,
    )
    return figure


def generate_12c(
    stream_counts: Sequence[int] = (1, 2, 4, 8, 16, 32, 64),
) -> FigureResult:
    rows = []
    observed = {}
    for total_bytes in (512 * units.MB, units.GB):
        for ket_ns in (units.ms(1), units.ms(100)):
            for label, config in (
                ("base", SystemConfig.base()),
                ("cc", SystemConfig.confidential()),
            ):
                for streams in stream_counts:
                    point = overlap_experiment(config, streams, total_bytes, ket_ns)
                    observed[(total_bytes, ket_ns, label, streams)] = (
                        point.overlap_speedup
                    )
                    rows.append(
                        (
                            total_bytes // units.MB,
                            units.to_ms(ket_ns),
                            label,
                            streams,
                            round(units.to_ms(point.end_to_end_ns), 3),
                            round(point.overlap_speedup, 3),
                        )
                    )
    figure = FigureResult(
        figure_id="fig12c_overlap",
        title="Copy/compute overlap across streams (Listing 2)",
        columns=("total_MB", "ket_ms", "mode", "streams",
                 "end_to_end_ms", "overlap_speedup"),
        rows=rows,
        notes=[
            "Overlap is harder under CC and with short kernels; "
            "raising KET (compute-to-IO ratio) recovers it (Observation 8).",
        ],
    )
    key_long = (512 * units.MB, units.ms(100))
    key_short = (512 * units.MB, units.ms(1))
    figure.add_paper_comparison(
        "CC overlap speedup, 64 streams, KET 100ms vs 1ms (ratio > 1)",
        observed[key_long + ("cc", 64)] / observed[key_short + ("cc", 64)],
    )
    figure.add_paper_comparison(
        "base vs CC overlap speedup at 64 streams, KET 1ms (base higher)",
        observed[key_short + ("base", 64)] / observed[key_short + ("cc", 64)],
    )
    return figure
