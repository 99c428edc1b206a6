"""Tests for the TDX guest-context cost model."""

import pytest

from repro import units
from repro.config import SystemConfig
from repro.sim import Simulator
from repro.tdx import GuestContext


def run(gen, sim):
    return sim.run(until=sim.process(gen))


# --- hypercall costs ---------------------------------------------------


def test_td_hypercall_costs_5_7x_vm_exit():
    # Calibrated to the paper's +470 % figure.
    base = SystemConfig.base()
    cc = SystemConfig.confidential()
    ratio = cc.hypercall_ns() / base.hypercall_ns()
    assert ratio == pytest.approx(5.7, rel=0.02)


def test_hypercall_advances_time_and_counts():
    sim = Simulator()
    guest = GuestContext(sim, SystemConfig.confidential())
    run(guest.hypercall("test"), sim)
    assert sim.now == SystemConfig.confidential().tdx.td_hypercall_ns
    assert guest.hypercall_count == 1


def test_cpu_work_td_tax():
    base_sim, cc_sim = Simulator(), Simulator()
    base = GuestContext(base_sim, SystemConfig.base())
    cc = GuestContext(cc_sim, SystemConfig.confidential())
    run(base.cpu_work(units.us(100)), base_sim)
    run(cc.cpu_work(units.us(100)), cc_sim)
    assert cc_sim.now == pytest.approx(base_sim.now * 1.04, rel=0.01)


def test_accept_pages_noop_in_base_mode():
    sim = Simulator()
    guest = GuestContext(sim, SystemConfig.base())
    run(guest.accept_pages(100), sim)
    assert sim.now == 0
    assert guest.pages_accepted == 0


def test_accept_pages_scales_with_count():
    sim = Simulator()
    config = SystemConfig.confidential()
    guest = GuestContext(sim, config)
    run(guest.accept_pages(10), sim)
    assert sim.now == 10 * config.tdx.page_accept_ns
    assert guest.pages_accepted == 10


def test_set_memory_decrypted_timed_and_tracked():
    sim = Simulator()
    config = SystemConfig.confidential()
    guest = GuestContext(sim, config)
    addr = guest.memory.alloc(8 * config.tdx.page_size)
    run(guest.set_memory_decrypted(addr, 8 * config.tdx.page_size), sim)
    assert sim.now == 8 * config.tdx.page_convert_ns
    assert guest.pages_converted == 8
    # Second call: already shared, free.
    before = sim.now
    run(guest.set_memory_decrypted(addr, 8 * config.tdx.page_size), sim)
    assert sim.now == before


def test_dma_alloc_bounce_converts_and_costs_more_under_cc():
    base_sim, cc_sim = Simulator(), Simulator()
    base = GuestContext(base_sim, SystemConfig.base())
    cc = GuestContext(cc_sim, SystemConfig.confidential())
    slot_base = base_sim.run(until=base_sim.process(base.dma_alloc_bounce(64 * units.KiB)))
    slot_cc = cc_sim.run(until=cc_sim.process(cc.dma_alloc_bounce(64 * units.KiB)))
    assert slot_base is not None and slot_cc is not None
    assert cc_sim.now > 10 * max(base_sim.now, 1)
    assert cc.pages_converted == 16
    cc.dma_free_bounce(slot_cc)
    assert cc.bounce.used_bytes == 0


def test_encrypt_noop_in_base_mode():
    sim = Simulator()
    guest = GuestContext(sim, SystemConfig.base())
    run(guest.encrypt(units.MiB), sim)
    assert sim.now == 0


def test_encrypt_matches_throughput_model_under_cc():
    sim = Simulator()
    config = SystemConfig.confidential()
    guest = GuestContext(sim, config)
    run(guest.encrypt(units.MiB), sim)
    # 1 MiB at 3.36 GB/s is ~312 us.
    assert sim.now == pytest.approx(units.us(312), rel=0.05)


def test_jitter_seeded_and_bounded():
    sim = Simulator()
    guest = GuestContext(sim, SystemConfig.base())
    values = [guest.jitter(units.us(10), 0.14) for _ in range(200)]
    assert all(v > 0 for v in values)
    mean = sum(values) / len(values)
    assert units.us(8) < mean < units.us(13)
    # Deterministic across same-seed contexts.
    guest2 = GuestContext(Simulator(), SystemConfig.base())
    assert [guest2.jitter(units.us(10), 0.14) for _ in range(5)] == values[:5]
