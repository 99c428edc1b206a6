"""CNN training-step simulation (paper Sec. VII-B, Fig. 13).

One training step, executed through the CUDA runtime:

1. H2D copy of the batch from the DataLoader's *pinned* staging buffer
   (pin_memory=True): a fresh batch is always a cold transfer — under
   CC this is the UVM-backed encrypted path, the main data-side tax.
2. Forward launches, backward launches (~1.9x), fused optimizer.
3. A tiny D2H of the loss (implicit sync).

Precision modes:

* ``fp32`` — baseline.
* ``amp`` — Automatic Mixed Precision: compute accelerated by the
  model's tensor-core factor, but extra cast/scale launches and no
  reduction in transferred bytes; at small batch the added launches
  dominate and AMP *hurts* under CC (the paper's batch-64 result).
* ``fp16`` — FP16-quantized training: AMP's compute speedup *plus*
  halved H2D traffic (the input data itself is FP16), which is what
  cuts CC training time further at batch 1024.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from .. import units
from ..config import SystemConfig
from ..cuda import CudaRuntime, run_app
from ..gpu import KernelSpec
from .models import CIFAR100_IMAGE_BYTES, CIFAR100_TRAIN_IMAGES, CNNModel

PRECISIONS = ("fp32", "amp", "fp16")

# Eager-mode (PyTorch) per-op dispatch cost on the CPU: Python + ATen
# dispatch + CUDA-API bookkeeping per launched op.
EAGER_OP_CPU_NS = units.us(14.0)
# Per-op driver register reads (stream/allocator state).  With VFIO
# passthrough in a regular VM these MMIO reads are direct (EPT-mapped,
# no exit); inside a TD every MMIO access takes a #VE and is emulated
# via tdvmcall — a full hypercall round trip.  This fixed per-op tax is
# what makes small-batch CNN training ~24-36 % slower under CC
# (Sec. VII-B) even though the kernels themselves are unaffected.
EAGER_OP_MMIO_READS = 1.0


@dataclass(frozen=True)
class TrainingResult:
    model: str
    batch_size: int
    precision: str
    cc: bool
    step_time_ns: int
    throughput_img_per_sec: float
    epoch_time_sec: float

    def training_time_sec(self, epochs: int = 200) -> float:
        return self.epoch_time_sec * epochs


def _batch_efficiency(batch_size: int) -> float:
    """Roofline efficiency vs batch: 32x32 kernels underfill the H100
    at small batch and approach ~0.5 of peak at batch 1024."""
    return 0.5 * batch_size / (batch_size + 64.0)


def _amp_factor(model: CNNModel, precision: str) -> float:
    if precision == "amp":
        return model.amp_speedup
    if precision == "fp16":
        # Pure-FP16 training avoids autocast graph breaks entirely, so
        # kernels fuse better than under AMP.
        return model.amp_speedup * 1.30
    return 1.0


def _step_kernels(model: CNNModel, batch_size: int, precision: str):
    """Decompose a training step into launchable kernel specs."""
    eff = _batch_efficiency(batch_size)
    amp = _amp_factor(model, precision)
    total_flops = (
        batch_size
        * (model.fwd_flops_per_image + model.bwd_flops_per_image)
        / amp
    )
    act_bytes = batch_size * model.act_bytes_per_image
    if precision in ("amp", "fp16"):
        act_bytes //= 2  # half-precision activations
    launches = model.step_launches
    if precision == "amp":
        # Cast/scale kernels plus GradScaler bookkeeping; FP16-quantized
        # training has no autocast boundaries, so it pays none of this.
        launches = int(launches * model.amp_cast_overhead)
    flops_per_launch = total_flops / launches
    bytes_per_launch = act_bytes // launches
    kernels = []
    for index in range(launches):
        kernels.append(
            KernelSpec(
                name=f"{model.name}_op{index % model.fwd_launches}",
                flops=flops_per_launch,
                mem_bytes=bytes_per_launch,
                efficiency=eff,
            )
        )
    # Optimizer traffic: read grad + momentum, write weights.  FP16
    # quantized training keeps half-precision weights end to end, so
    # its optimizer traffic is halved (AMP keeps FP32 master weights).
    opt_bytes = model.param_bytes * 3
    if precision == "fp16":
        opt_bytes //= 2
    kernels.append(
        KernelSpec(
            name=f"{model.name}_sgd",
            flops=model.param_bytes / 4 * 2,
            mem_bytes=opt_bytes,
            efficiency=0.6,
        )
    )
    return kernels


def training_app(
    rt: CudaRuntime,
    model: CNNModel,
    batch_size: int,
    precision: str,
    num_steps: int,
) -> Generator:
    """Warmup + ``num_steps`` measured steps; returns measured ns."""
    elem = 2 if precision == "fp16" else 4
    batch_bytes = batch_size * CIFAR100_IMAGE_BYTES * elem // 4
    weights_dev = yield from rt.malloc(model.param_bytes * 4)  # w+g+m+ws
    data_dev = yield from rt.malloc(max(batch_bytes, 4096))
    staging = yield from rt.malloc_host(max(batch_bytes, 4096))
    loss_host = yield from rt.malloc_host(4 * units.KiB)
    kernels = _step_kernels(model, batch_size, precision)
    mmio_reads = int(EAGER_OP_MMIO_READS) if rt.config.cc_on else 0
    guest = rt.guest
    start = 0
    # Step 0 is the warmup: first-launch costs are excluded.
    for step in range(num_steps + 1):
        # Fresh batch: the pinned staging buffer is cold every step.
        yield from rt.memcpy(data_dev, staging, batch_bytes, cold=True)
        for kernel in kernels:
            # Eager-mode dispatch: CPU-side op overhead plus driver
            # register reads that trap (#VE -> tdvmcall) inside a TD.
            yield from rt.cpu_gap(EAGER_OP_CPU_NS)
            for _ in range(mmio_reads):
                yield from guest.hypercall("tdvmcall.mmio_read")
            yield from rt.launch(kernel)
        # Loss readback (implicit sync; AMP also syncs the GradScaler).
        yield from rt.memcpy(loss_host, weights_dev, 512)
        if step == 0:
            yield from rt.synchronize()
            start = rt.sim.now
    yield from rt.synchronize()
    measured = rt.sim.now - start
    for buf in (weights_dev, data_dev, staging, loss_host):
        yield from rt.free(buf)
    return measured


def train(
    model: CNNModel,
    batch_size: int,
    precision: str,
    config: Optional[SystemConfig] = None,
    num_steps: int = 3,
) -> TrainingResult:
    """Simulate training and extrapolate epoch time / throughput."""
    if precision not in PRECISIONS:
        raise ValueError(f"precision must be one of {PRECISIONS}")
    config = config or SystemConfig.base()
    # Only the measured step time is kept, so nothing is recorded.
    _trace, measured_ns = run_app(
        training_app,
        config,
        label=f"{model.name}-b{batch_size}-{precision}",
        observe=False,
        model=model,
        batch_size=batch_size,
        precision=precision,
        num_steps=num_steps,
    )
    step_time_ns = measured_ns // num_steps
    throughput = batch_size / units.to_sec(step_time_ns)
    steps_per_epoch = (CIFAR100_TRAIN_IMAGES + batch_size - 1) // batch_size
    epoch_time = units.to_sec(step_time_ns) * steps_per_epoch
    return TrainingResult(
        model=model.name,
        batch_size=batch_size,
        precision=precision,
        cc=config.cc_on,
        step_time_ns=step_time_ns,
        throughput_img_per_sec=throughput,
        epoch_time_sec=epoch_time,
    )
