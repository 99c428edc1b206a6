"""Traced run: per-layer host cost and exact work counters.

The profiler (``cProfile``) is enabled only around each unit's public
call.  Its entries are grouped by ``repro.<package>`` (the layer):

* ``<layer>.self_s`` -- profiled self time of the layer's functions,
  plus the self time of builtins, library code and dataclass-generated
  methods that a function of the layer called directly;
* ``<layer>.calls`` -- exact calls of Python functions defined in the
  layer, as the profiler counts them (a generator resume counts as a
  call).

The named counters are exact call counts of the functions that do one
unit of simulated work.  A plain function is read from the profile; a
generator function (whose resumes the profiler also counts) or a
dataclass-generated method (which the profiler cannot tell apart from
other dataclasses) is wrapped for the traced run by a counting shim.
"""

from __future__ import annotations

import cProfile
import importlib
import inspect
import os
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

from workloads import ROOT

SRC_REPRO = os.path.join(ROOT, "src", "repro") + os.sep

LAYERS = (
    "sim", "cuda", "tdx", "gpu", "mem", "crypto", "obs", "profiler",
    "serve", "llm", "optim", "dnn", "workloads", "exec", "figures",
    "check", "faults", "config", "core",
)

#: counter -> the functions ("module:Class.function") one call of which
#: is one unit of that work.
COUNTED: Dict[str, Tuple[str, ...]] = {
    "sim.events": ("repro.sim.engine:Simulator._schedule",),
    "sim.resumes": ("repro.sim.engine:Process._resume",),
    "sim.timeouts": ("repro.sim.engine:Timeout.__init__",),
    "cuda.launches": ("repro.cuda.runtime:CudaRuntime.launch",),
    "cuda.memcpys": ("repro.cuda.runtime:CudaRuntime.memcpy",
                     "repro.cuda.runtime:CudaRuntime.memcpy_async"),
    "tdx.hypercalls": ("repro.tdx.domain:GuestContext.hypercall",),
    "tdx.jitter_draws": ("repro.tdx.domain:GuestContext.jitter",),
    "tdx.callstack_records": ("repro.tdx.callstack:CallStackRecorder.record",),
    "obs.spans": ("repro.obs.spans:Span.__init__",),
    "serve.plans": ("repro.serve.scheduler:ContinuousBatchingScheduler.plan",),
}

#: counters that come from the workload's outputs, not the trace
OUTPUT_COUNTERS = ("exec.cache_hits", "exec.cache_misses",
                   "exec.warm_hit_ratio")

Label = Tuple[str, int, str]  # cProfile's (filename, line, name)


def layer_of(filename: str) -> str:
    """``repro.<package>`` of a source file, or "" outside the package."""
    if not filename.startswith(SRC_REPRO):
        return ""
    head = filename[len(SRC_REPRO):].split(os.sep)[0]
    return head[:-3] if head.endswith(".py") else head


def _label(fn: Callable) -> Label:
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _resolve(target: str):
    module, _, qualname = target.partition(":")
    cls, _, attr = qualname.partition(".")
    try:
        owner = getattr(importlib.import_module(module), cls)
        return owner, attr, owner.__dict__[attr]
    except (ImportError, AttributeError, KeyError):
        return None  # removed code does no work: the counter reads 0


class Tracer:
    """Profiles unit calls and counts work across one traced pass."""

    def __init__(self) -> None:
        self.profile = cProfile.Profile()
        self.tally: Dict[str, int] = {}
        self._shims: List[Tuple[Any, str, Any]] = []
        self._shim_layer: Dict[str, str] = {}  # shim co_name -> layer
        self._profiled: Dict[str, List[Label]] = {}

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        for counter, targets in COUNTED.items():
            self.tally[counter] = 0
            self._profiled[counter] = []
            for target in targets:
                found = _resolve(target)
                if found is None:
                    continue
                owner, attr, fn = found
                if (inspect.isgeneratorfunction(fn)
                        or fn.__code__.co_filename.startswith("<")):
                    self._shim(counter, owner, attr, fn)
                else:
                    self._profiled[counter].append(_label(fn))
        try:
            yield self
        finally:
            for owner, attr, fn in reversed(self._shims):
                setattr(owner, attr, fn)
            self._shims.clear()

    def _shim(self, counter: str, owner: Any, attr: str, fn: Callable):
        tally = self.tally

        def counted(*args, **kwargs):
            tally[counter] += 1
            return fn(*args, **kwargs)

        # A distinct code name per shim keeps the profile entries apart,
        # so what a shim calls is charged to the wrapped layer.
        name = f"count[{counter}:{attr}]"
        counted.__code__ = counted.__code__.replace(co_name=name)
        self._shim_layer[name] = counter.split(".")[0]
        self._shims.append((owner, attr, fn))
        setattr(owner, attr, counted)

    def call(self, fn: Callable[[], Any]) -> Any:
        self.profile.enable()
        try:
            return fn()
        finally:
            self.profile.disable()

    def results(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """``({layer.self_s, layer.calls}, {counter: count})``."""
        self.profile.create_stats()
        stats = self.profile.stats
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)

        def owner_layer(label: Label) -> str:
            return layer_of(label[0]) or self._shim_layer.get(label[2], "")

        for label, (_cc, nc, tt, _ct, callers) in stats.items():
            if label[2] in self._shim_layer:
                continue  # the shims' own time is tracing overhead
            layer = layer_of(label[0])
            if layer:
                if layer in self_s:
                    self_s[layer] += tt
                    calls[layer] += nc
                continue
            # Code outside the package: charge each direct caller's
            # share to the caller's layer.
            for caller, (_nc, _cc2, caller_tt, _ct2) in callers.items():
                layer = owner_layer(caller)
                if layer in self_s:
                    self_s[layer] += caller_tt
        counters = dict(self.tally)
        for counter, labels in self._profiled.items():
            counters[counter] += sum(
                stats[label][1] for label in labels if label in stats
            )
        table = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        table.update({f"{layer}.calls": calls[layer] for layer in LAYERS})
        return table, counters
