"""Guest execution context: a regular VM or a trust domain (TD).

This is the CPU-side substrate of the paper's Fig. 2: the guest kernel
plus device driver run inside a VM or TD; interactions with the outside
world (hypervisor, TDX module, device MMIO) cost a VM exit — and under
TDX a much more expensive tdx_hypercall through the SEAM-mode TDX
module (the paper cites a +470 % latency increase [16]).

All timed operations are generator coroutines to be driven by the
simulation kernel; they also record spans, metrics and the
per-primitive counters used in overhead breakdowns.
"""

from __future__ import annotations

import math
from typing import Generator, List, Optional

import numpy as np

from ..config import SystemConfig
from ..crypto import throughput as crypto_throughput
from ..faults import HYPERCALL, FatalFault, FaultInjector
from ..mem import BounceBufferPool, HostMemory
from ..profiler import Trace, recovery_event
from ..sim import Simulator

#: Standard normals drawn per refill of the jitter stream.
JITTER_BLOCK = 64


class GuestContext:
    """A VM (cc off) or TD (cc on) with its memory and TDX cost model."""

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        trace: Optional[Trace] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.cc = config.cc_on
        # A guest without a trace records into an unobserved one.
        self.trace = trace if trace is not None else Trace(observability=False)
        self.spans = self.trace.spans
        self.metrics = self.trace.metrics
        self.memory = HostMemory(
            config.vm_memory_bytes, td=self.cc, page_size=config.tdx.page_size
        )
        self.bounce = BounceBufferPool(
            config.tdx.bounce_pool_bytes, page_size=config.tdx.page_size
        )
        self.rng = np.random.default_rng(config.seed)
        self._normals: List[float] = []  # drawn, not yet used; popped from the end
        self.faults = FaultInjector(config.faults, seed=config.seed, sim=sim)
        self.bounce.on_usage = (
            lambda used: self.metrics.gauge("bounce.used_bytes").set(used)
        )
        # Lazily-cached hot instruments: resolved on first use (so the
        # registry's register-on-lookup semantics — and therefore the
        # set of exported metric names — are unchanged), then reused.
        self._hypercalls_counter: Optional[object] = None
        self._pages_converted_counter: Optional[object] = None
        # Primitive counters for overhead attribution.
        self.hypercall_count = 0
        self.seamcall_count = 0
        self.pages_accepted = 0
        self.pages_converted = 0

    # -- fault recovery accounting ------------------------------------------

    def record_recovery(
        self,
        site: str,
        start_ns: int,
        attempt: int,
        action: str = "retry",
        fatal: bool = False,
        scope: str = "cpu",
    ) -> None:
        """Book [start_ns, now) as recovery time for ``site``.

        Emits a RECOVERY trace event so the core/breakdown gains a
        distinct "recovery" component, and feeds the injector ledger
        behind the ``faults`` CLI report.  A recovery *span* is
        recorded too, nested under whatever operation span is currently
        open in ``scope`` — the operation the fault delayed.
        """
        duration = self.sim.now - start_ns
        self.trace.emit(
            recovery_event, site, start_ns, duration, attempt, action
        )
        self.spans.record(
            f"recover:{site}",
            "recovery",
            start_ns,
            duration,
            scope=scope,
            site=site,
            attempt=attempt,
            action=action,
        )
        self.metrics.counter(
            "faults.fatal" if fatal else "faults.retries"
        ).inc()
        self.faults.note_recovery(site, duration, fatal=fatal)

    # -- timing primitives -------------------------------------------------

    def jitter(self, base_ns: int, sigma: float) -> int:
        """Multiplicative lognormal jitter around ``base_ns``.

        The factor is ``exp(sigma * z)`` for the next standard normal
        ``z`` of ``self.rng``, drawn in blocks of :data:`JITTER_BLOCK`.
        NumPy computes ``lognormal(0, sigma)`` as ``exp(0 + sigma * z)``
        from the same normal stream, and nothing else draws from
        ``self.rng``, so the factors equal one scalar ``lognormal`` call
        each, bit for bit.
        """
        if sigma <= 0 or base_ns <= 0:
            return base_ns
        normals = self._normals
        if not normals:
            normals = self._normals = self.rng.standard_normal(
                JITTER_BLOCK
            ).tolist()
            normals.reverse()
        return max(1, int(base_ns * math.exp(sigma * normals.pop())))

    def cpu_time(self, base_ns: int) -> int:
        """Guest CPU time of ``base_ns`` of ordinary work: TDs pay a
        small TME-MK/TLB tax."""
        if self.cc:
            return int(base_ns * self.config.cpu.td_compute_tax)
        return base_ns

    def cpu_work(self, base_ns: int) -> Generator:
        """Spend :meth:`cpu_time` of ``base_ns``; returns the time spent."""
        duration = self.cpu_time(base_ns)
        yield self.sim.sleep(duration)
        return duration

    def hypercall(self, reason: str = "tdx_hypercall") -> Generator:
        """One guest->host transition and back.

        In a regular VM this is a plain VM exit; in a TD it routes
        through the TDX module (tdcall -> SEAM -> hypervisor -> back).
        An injected timeout wastes the watchdog budget and reissues the
        call with backoff; exhaustion raises :class:`FatalFault`.
        """
        attempt = 1
        while True:
            fault = self.faults.draw(HYPERCALL)
            if fault is None:
                break
            start = self.sim.now
            timeout = self.config.fault_model.hypercall_timeout_ns
            yield self.sim.sleep(timeout)
            if attempt >= self.config.retry.max_attempts:
                self.record_recovery(
                    HYPERCALL, start, attempt, "fatal", fatal=True
                )
                raise FatalFault(HYPERCALL, attempt, fault)
            yield self.sim.sleep(self.config.retry.backoff_ns(attempt))
            self.record_recovery(HYPERCALL, start, attempt)
            attempt += 1
        self.hypercall_count += 1
        duration = self.config.hypercall_ns()
        yield self.sim.sleep(duration)
        start = self.sim.now - duration
        counter = self._hypercalls_counter
        if counter is None:
            counter = self._hypercalls_counter = self.metrics.counter(
                "tdx.hypercalls"
            )
        counter.inc()
        if self.cc:
            parent = self.spans.record(reason, "tdx_module", start, duration)
            self.spans.record(
                "tdx_module.__seamcall",
                "tdx_module",
                start,
                duration,
                parent=parent,
            )
        else:
            self.spans.record(reason, "hypervisor", start, duration)
        return duration

    def seamcall(self, reason: str = "seamcall") -> Generator:
        """Host/TDX-module service call (only meaningful for TDs)."""
        self.seamcall_count += 1
        duration = self.config.tdx.seamcall_ns if self.cc else 0
        if duration:
            yield self.sim.sleep(duration)
            self.spans.record(
                reason, "tdx_module", self.sim.now - duration, duration
            )
            self.metrics.counter("tdx.seamcalls").inc()
        return duration

    def accept_pages(self, num_pages: int) -> Generator:
        """tdh.mem.page.accept for newly mapped private pages."""
        if not self.cc or num_pages <= 0:
            return 0
        self.pages_accepted += num_pages
        duration = num_pages * self.config.tdx.page_accept_ns
        yield self.sim.sleep(duration)
        self.spans.record(
            "tdh.mem.page.accept",
            "tdx_module",
            self.sim.now - duration,
            duration,
            pages=num_pages,
        )
        self.metrics.counter("tdx.pages_accepted").inc(num_pages)
        return duration

    def set_memory_decrypted(self, address: int, size: int) -> Generator:
        """Private->shared conversion (Linux set_memory_decrypted()).

        Cost is per page: EPT attribute flip via hypercall-mediated
        mapping change plus TLB shootdown (paper Fig. 8 shows this frame
        under dma_direct_alloc in the launch path).
        """
        converted = self.memory.set_memory_decrypted(address, size)
        if converted == 0:
            return 0
        self.pages_converted += converted
        duration = converted * self.config.tdx.page_convert_ns
        yield self.sim.sleep(duration)
        self.spans.record(
            "set_memory_decrypted",
            "td",
            self.sim.now - duration,
            duration,
            pages=converted,
        )
        counter = self._pages_converted_counter
        if counter is None:
            counter = self._pages_converted_counter = self.metrics.counter(
                "tdx.pages_converted"
            )
        counter.inc(converted)
        return duration

    # -- bounce-buffer management -------------------------------------------

    def dma_alloc_bounce(self, size: int) -> Generator:
        """Allocate a DMA-capable bounce region (dma_alloc_* path).

        Returns the bounce slot address.  Under CC this is the
        dma_direct_alloc + swiotlb + set_memory_decrypted path from
        Fig. 8; in a regular VM DMA goes direct and the "bounce" is
        just an address reservation with negligible cost.
        """
        with self.spans.span("dma_direct_alloc", "driver", bytes=size):
            slot = self.bounce.alloc(size)
            try:
                if self.cc:
                    yield from self.hypercall("tdvmcall.mapgpa")
                    num_pages = (size + self.config.tdx.page_size - 1) // self.config.tdx.page_size
                    duration = num_pages * self.config.tdx.page_convert_ns
                    self.pages_converted += num_pages
                    yield self.sim.sleep(duration)
                    self.spans.record(
                        "set_memory_decrypted",
                        "td",
                        self.sim.now - duration,
                        duration,
                        pages=num_pages,
                    )
                    counter = self._pages_converted_counter
                    if counter is None:
                        counter = self._pages_converted_counter = (
                            self.metrics.counter("tdx.pages_converted")
                        )
                    counter.inc(num_pages)
            except BaseException:
                # The mapping failed: the slot must not leak.
                self.bounce.free(slot)
                raise
        return slot

    def dma_free_bounce(self, slot: int) -> None:
        self.bounce.free(slot)

    # -- software crypto (OpenSSL AES-GCM with AES-NI, Sec. II-A) ------------

    def crypt_time_ns(self, size: int, algorithm: Optional[str] = None) -> int:
        alg = algorithm or self.config.tdx.transfer_cipher
        single = crypto_throughput.crypt_time_ns(
            size, alg, self.config.cpu.crypto_cpu
        )
        threads = max(1, self.config.tdx.crypto_threads)
        return max(1, single // threads)

    def encrypt(self, size: int, algorithm: Optional[str] = None) -> Generator:
        """Software-encrypt ``size`` bytes for PCIe transfer (CC only)."""
        if not self.cc or size <= 0:
            return 0
        duration = self.crypt_time_ns(size, algorithm)
        yield self.sim.sleep(duration)
        self.spans.record(
            "aes_gcm",
            "td",
            self.sim.now - duration,
            duration,
            crypto=True,
            bytes=size,
        )
        self.metrics.counter("crypto.encrypted_bytes").inc(size)
        return duration

    decrypt = encrypt  # AES-GCM encrypt/decrypt are symmetric in cost
