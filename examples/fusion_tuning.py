#!/usr/bin/env python3
"""Tuning kernel fusion and stream overlap for CC (Sec. VII-A).

Sweeps fusion levels for a launch-bound workload (showing that fully
fused is suboptimal — Observation 7), evaluates CUDA-graph launch
fusion for a 3dconv-style iterative app, and measures how stream count
and kernel length drive copy/compute overlap under CC (Observation 8).

Usage:
    python examples/fusion_tuning.py
"""

from repro import SystemConfig, units
from repro.optim import sweep_graph_batches
from repro.workloads import fusion_sweep, overlap_experiment


def main() -> None:
    cc = SystemConfig.confidential()

    print("== kernel fusion sweep (2 ms total KET, launch-bound) ==")
    points = fusion_sweep(cc, total_ket_ns=units.ms(2))
    best = min(points, key=lambda point: point.end_to_end_ns)
    for point in points:
        marker = "  <- best" if point is best else ""
        print(f"  {point.num_launches:>4} launches: "
              f"{units.to_ms(point.end_to_end_ns):8.3f} ms{marker}")
    print(f"  fully fused is {'' if best.num_launches == 1 else 'NOT '}optimal "
          f"(Observation 7)\n")

    print("== cudaGraph launch fusion (254 iterative 5us kernels) ==")
    times = sweep_graph_batches(cc, num_launches=254, per_kernel_ns=units.us(5))
    for batch in sorted(times):
        print(f"  graph batch {batch:>4}: {units.to_ms(times[batch]):8.3f} ms")
    print()

    print("== stream overlap (512 MB copies), base vs CC ==")
    for ket_ms in (1, 100):
        for label, config in (("base", SystemConfig.base()), ("cc", cc)):
            speedups = [
                overlap_experiment(config, streams, 512 * units.MB,
                                   units.ms(ket_ms)).overlap_speedup
                for streams in (1, 8, 64)
            ]
            print(f"  KET {ket_ms:>3} ms {label:<5} overlap speedup at "
                  f"1/8/64 streams: "
                  + " / ".join(f"{value:.2f}" for value in speedups))
    print("  CC hides less transfer behind short kernels; longer kernels "
          "(a higher compute-to-IO ratio) recover it (Observation 8)")


if __name__ == "__main__":
    main()
