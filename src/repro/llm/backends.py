"""LLM serving backends (paper Sec. VII-B, Fig. 14).

Two backends with the structural differences that produce the paper's
Fig. 14 shape:

* :class:`HFBackend` — HuggingFace-style eager serving: static
  batching (every request in a batch decodes until the *longest* one
  finishes — padding waste), per-op Python dispatch, many kernel
  launches per decode step.
* :class:`VLLMBackend` — vLLM-style serving: continuous batching over
  a real :class:`PagedKVCache`, CUDA-graph decode (one launch per
  step), lean scheduler.

Quantization (BF16 vs AWQ) changes the decode roofline: AWQ's 4-bit
weights cut the memory-bound floor ~4x, but its dequantizing GEMMs pay
a large compute penalty, so BF16 overtakes AWQ once decode becomes
compute-bound at batch 64-128 — exactly the paper's crossover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Sequence

import numpy as np

from .. import units
from ..config import SystemConfig
from ..cuda import CudaRuntime, run_app
from ..gpu import KernelSpec
from ..obs.metrics import percentile
from .config import BF16, LlamaConfig, QuantConfig
from .kvcache import PagedKVCache

# Eager HF serving: Python/dispatch overhead per decode step, plus
# per-op costs for the ops we model explicitly.
HF_STEP_PYTHON_NS = units.us(12_000)
HF_OPS_PER_STEP = 64
HF_OP_CPU_NS = units.us(20.0)
# vLLM scheduler bookkeeping per engine step (continuous batching).
VLLM_STEP_SCHED_NS = units.us(2_000)

PREFILL_EFFICIENCY = 0.60
DECODE_HBM_EFFICIENCY = 0.60
# AWQ fused kernels read quantized weights but with lower effective
# bandwidth than dense BF16 streams.
AWQ_MEM_FACTOR = 1.35


@dataclass(frozen=True)
class Request:
    req_id: int
    prompt_tokens: int
    gen_tokens: int


def make_requests(
    count: int,
    seed: int = 7,
    prompt_tokens: int = 128,
    gen_low: int = 32,
    gen_high: int = 160,
) -> List[Request]:
    """Batched requests with varied generation lengths (the variance is
    what static batching wastes and continuous batching recovers)."""
    rng = np.random.default_rng(seed)
    return [
        Request(i, prompt_tokens, int(rng.integers(gen_low, gen_high + 1)))
        for i in range(count)
    ]


@dataclass(frozen=True)
class ServeResult:
    backend: str
    quant: str
    cc: bool
    batch_size: int
    total_tokens: int
    elapsed_ns: int
    # Per-request latency samples (ns); empty tuples if not collected.
    ttft_ns: tuple = ()  # time to first token, per request
    e2e_ns: tuple = ()  # request completion latency, per request

    @property
    def tokens_per_sec(self) -> float:
        return self.total_tokens / units.to_sec(self.elapsed_ns)

    def ttft_ms(self, pct: float = 50) -> float:
        """Time-to-first-token percentile in milliseconds."""
        return units.to_ms(int(percentile(self.ttft_ns, pct)))

    def e2e_latency_ms(self, pct: float = 50) -> float:
        """Request end-to-end latency percentile in milliseconds."""
        return units.to_ms(int(percentile(self.e2e_ns, pct)))


class _BackendBase:
    name = "base"

    def __init__(
        self,
        model: Optional[LlamaConfig] = None,
        quant: QuantConfig = BF16,
    ) -> None:
        self.model = model or LlamaConfig()
        self.quant = quant

    # -- roofline pieces ---------------------------------------------------

    def _decode_step_kernel(
        self, config: SystemConfig, batch: int, avg_context: float
    ) -> KernelSpec:
        """One whole decode step as a fused kernel cost."""
        gpu = config.gpu
        weight_bytes = self.model.param_bytes(self.quant.weight_bits)
        mem_ns = (
            weight_bytes
            * (AWQ_MEM_FACTOR if self.quant.is_quantized else 1.0)
            / (gpu.hbm_bw * DECODE_HBM_EFFICIENCY)
            * units.NS_PER_SEC
        )
        kv_bytes = batch * avg_context * self.model.kv_bytes_per_token()
        kv_ns = kv_bytes / (gpu.hbm_bw * DECODE_HBM_EFFICIENCY) * units.NS_PER_SEC
        compute_ns = (
            batch
            * self.model.flops_per_token()
            * self.quant.dequant_overhead
            / (gpu.bf16_tensor_flops * 0.5)
            * units.NS_PER_SEC
        )
        duration = int(max(mem_ns + kv_ns, compute_ns)) + gpu.kernel_fixed_ns
        return KernelSpec(
            name=f"decode_{self.quant.name}_b{batch}",
            fixed_duration_ns=duration,
        )

    def _prefill_kernel(self, config: SystemConfig, tokens: int) -> KernelSpec:
        gpu = config.gpu
        compute_ns = (
            tokens
            * self.model.flops_per_token()
            / (gpu.bf16_tensor_flops * PREFILL_EFFICIENCY)
            * units.NS_PER_SEC
        )
        return KernelSpec(
            name=f"prefill_{self.quant.name}", fixed_duration_ns=int(compute_ns) + gpu.kernel_fixed_ns
        )

    # Public kernel builders for external schedulers (repro.serve
    # issues work through these so every step pays the same roofline).

    def decode_kernel(
        self, config: SystemConfig, batch: int, avg_context: float
    ) -> KernelSpec:
        return self._decode_step_kernel(config, batch, avg_context)

    def prefill_kernel(self, config: SystemConfig, tokens: int) -> KernelSpec:
        return self._prefill_kernel(config, tokens)

    def serve(
        self,
        config: SystemConfig,
        requests: Sequence[Request],
        batch_size: int,
    ) -> ServeResult:
        trace_label = f"{self.name}-{self.quant.name}-b{batch_size}"
        # Only the app's payload is kept, so nothing is recorded.
        _trace, payload = run_app(
            self._serve_app,
            config,
            label=trace_label,
            observe=False,
            requests=list(requests),
            batch_size=batch_size,
        )
        total_tokens, elapsed_ns, ttft, e2e = payload
        return ServeResult(
            backend=self.name,
            quant=self.quant.name,
            cc=config.cc_on,
            batch_size=batch_size,
            total_tokens=total_tokens,
            elapsed_ns=elapsed_ns,
            ttft_ns=tuple(ttft),
            e2e_ns=tuple(e2e),
        )

    def _serve_app(self, rt, requests, batch_size):  # pragma: no cover
        raise NotImplementedError


class HFBackend(_BackendBase):
    """Static batching, eager per-op dispatch, padding waste."""

    name = "hf"

    def _serve_app(
        self, rt: CudaRuntime, requests: List[Request], batch_size: int
    ) -> Generator:
        config = rt.config
        prompt_host = yield from rt.malloc_host(1 * units.MiB)
        token_host = yield from rt.malloc_host(64 * units.KiB)
        scratch_dev = yield from rt.malloc(4 * units.MiB)
        start = rt.sim.now
        total_tokens = 0
        ttft, e2e = [], []
        for index in range(0, len(requests), batch_size):
            batch = requests[index : index + batch_size]
            # Prompt upload (token ids) + prefill for the whole batch.
            prompt_bytes = sum(r.prompt_tokens for r in batch) * 4
            yield from rt.memcpy(scratch_dev, prompt_host, max(prompt_bytes, 64))
            yield from rt.launch(
                self._prefill_kernel(config, sum(r.prompt_tokens for r in batch))
            )
            # Static batching: decode until the LONGEST request is done.
            max_gen = max(r.gen_tokens for r in batch)
            avg_context = float(
                np.mean([r.prompt_tokens + r.gen_tokens / 2 for r in batch])
            )
            step_kernel = self._decode_step_kernel(config, len(batch), avg_context)
            for step in range(max_gen):
                # Eager Python + per-op driver register reads (#VE in TD).
                yield from rt.cpu_gap(HF_STEP_PYTHON_NS)
                for _op in range(HF_OPS_PER_STEP):
                    yield from rt.cpu_gap(HF_OP_CPU_NS)
                    if config.cc_on and _op % 8 == 0:
                        yield from rt.guest.hypercall("tdvmcall.mmio_read")
                yield from rt.launch(step_kernel)
                # Detokenize: copy the step's token ids back.
                yield from rt.memcpy(token_host, scratch_dev, 4 * len(batch))
                now = rt.sim.now
                if step == 0:
                    ttft.extend([now - start] * len(batch))
                for request in batch:
                    if request.gen_tokens == step + 1:
                        e2e.append(now - start)
            total_tokens += sum(r.gen_tokens for r in batch)
        yield from rt.synchronize()
        elapsed = rt.sim.now - start
        for buf in (prompt_host, token_host, scratch_dev):
            yield from rt.free(buf)
        return total_tokens, elapsed, ttft, e2e


class VLLMBackend(_BackendBase):
    """Continuous batching over a paged KV cache, CUDA-graph decode."""

    name = "vllm"

    def __init__(
        self,
        model: Optional[LlamaConfig] = None,
        quant: QuantConfig = BF16,
        kv_budget_bytes: int = 24 * units.GiB,
        block_tokens: int = 16,
    ) -> None:
        super().__init__(model, quant)
        self.kv_budget_bytes = kv_budget_bytes
        self.block_tokens = block_tokens

    def _serve_app(
        self, rt: CudaRuntime, requests: List[Request], batch_size: int
    ) -> Generator:
        config = rt.config
        cache = PagedKVCache(
            self.kv_budget_bytes,
            self.block_tokens,
            self.model.kv_bytes_per_token(),
        )
        prompt_host = yield from rt.malloc_host(1 * units.MiB)
        token_host = yield from rt.malloc_host(64 * units.KiB)
        scratch_dev = yield from rt.malloc(4 * units.MiB)
        waiting = list(requests)
        running = {}  # req -> tokens still to generate
        start = rt.sim.now
        total_tokens = 0
        ttft, e2e = [], []
        first_token_seen = set()
        while waiting or running:
            # Scheduler: admit while there is room (continuous batching).
            admitted = []
            while (
                waiting
                and len(running) < batch_size
                and cache.can_admit(waiting[0].prompt_tokens)
            ):
                request = waiting.pop(0)
                cache.admit(request.req_id, request.prompt_tokens)
                running[request.req_id] = request
                admitted.append(request)
            if admitted:
                prompt_bytes = sum(r.prompt_tokens for r in admitted) * 4
                yield from rt.memcpy(scratch_dev, prompt_host, max(prompt_bytes, 64))
                yield from rt.launch(
                    self._prefill_kernel(
                        config, sum(r.prompt_tokens for r in admitted)
                    )
                )
            if not running:
                continue
            # One engine step: scheduler bookkeeping + graph decode.
            yield from rt.cpu_gap(VLLM_STEP_SCHED_NS)
            contexts = [cache.sequence_length(rid) for rid in running]
            step_kernel = self._decode_step_kernel(
                config, len(running), float(np.mean(contexts))
            )
            yield from rt.launch(step_kernel)
            yield from rt.memcpy(token_host, scratch_dev, 4 * len(running))
            finished = []
            now = rt.sim.now
            for rid, request in running.items():
                cache.append_token(rid)
                total_tokens += 1
                if rid not in first_token_seen:
                    first_token_seen.add(rid)
                    ttft.append(now - start)
                generated = cache.sequence_length(rid) - request.prompt_tokens
                if generated >= request.gen_tokens:
                    finished.append(rid)
                    e2e.append(now - start)
            for rid in finished:
                cache.release(rid)
                del running[rid]
        yield from rt.synchronize()
        elapsed = rt.sim.now - start
        for buf in (prompt_host, token_host, scratch_dev):
            yield from rt.free(buf)
        return total_tokens, elapsed, ttft, e2e
