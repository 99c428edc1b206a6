"""Table I: the confidential-computing system setup, as encoded in
:class:`repro.config.SystemConfig` defaults."""

from __future__ import annotations

from .. import units
from ..config import SystemConfig
from .common import FigureResult


def generate() -> FigureResult:
    config = SystemConfig.base()
    rows = [
        ("CPU", f"{config.cpu.sockets}x {config.cpu.name} @{config.cpu.freq_ghz}GHz, "
                f"{config.cpu.cores} cores"),
        ("Memory (VM/TD)", f"{config.vm_memory_bytes // units.GiB} GB, "
                           f"{config.vm_cores} cores pinned (NUMA node 0)"),
        ("TME-MK", "auto bypass (TD-private memory only), AES-XTS"),
        ("GPU", config.gpu.name),
        ("GPU HBM", f"{config.gpu.hbm_bytes // units.GiB} GiB @ "
                    f"{config.gpu.hbm_bw / units.GB:.0f} GB/s"),
        ("PCIe", f"Gen{config.pcie.generation} x{config.pcie.lanes}, "
                 f"effective H2D {config.pcie.dma_h2d_bw / units.GB:.0f} GB/s"),
        ("TDX", f"hypercall {units.to_us(config.tdx.hypercall_ns):.1f} us (VM) / "
                f"{units.to_us(config.tdx.td_hypercall_ns):.1f} us (TD)"),
        ("Transfer cipher", config.tdx.transfer_cipher +
         f" ({config.tdx.crypto_threads} thread)"),
        ("Bounce pool", f"{config.tdx.bounce_pool_bytes // units.MiB} MiB swiotlb"),
        ("UVM", f"fault {units.to_us(config.uvm.fault_service_ns):.0f} us, "
                f"chunk {config.uvm.migration_chunk_bytes // units.KiB} KiB "
                f"(CC: {config.uvm.cc_migration_chunk_bytes // units.KiB} KiB)"),
        ("Seed", str(config.seed)),
    ]
    return FigureResult(
        figure_id="table1_config",
        title="Simulated system setup (paper Table I)",
        columns=("component", "configuration"),
        rows=rows,
    )
