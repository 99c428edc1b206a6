"""Shared-resource primitives for the simulation kernel.

:class:`Resource` models a fixed pool of interchangeable slots with a
FIFO wait queue (used for copy engines, launch-queue credits, CPU
worker threads...).  :class:`Store` is an unbounded FIFO of items with
blocking ``get`` (used for command channels between the driver and the
GPU command processor).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .engine import _PENDING, _TRIGGERED, Event, SimulationError, Simulator


class Request(Event):
    """Grant event handed out by :meth:`Resource.request`.

    Like ``Timeout``, it writes its slots directly: a ``granted``
    request is queued at once, with nothing left to validate.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource", granted: bool = False) -> None:
        sim = self.sim = resource.sim
        self.resource = resource
        self._value = None
        self._ok = True
        self._cb1 = None
        self._cbs = None
        if granted:
            self._state = _TRIGGERED
            sim._schedule(self, 0)
        else:
            self._state = _PENDING


class Resource:
    """A pool of ``capacity`` slots with a FIFO queue of waiters.

    Usage from a process::

        req = engine_pool.request()
        yield req
        try:
            ...  # hold the slot
        finally:
            engine_pool.release(req)
    """

    __slots__ = ("sim", "capacity", "_in_use", "_waiters")

    def __init__(self, sim: Simulator, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Request] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def request(self) -> Request:
        if self._in_use < self.capacity:
            self._in_use += 1
            return Request(self, granted=True)
        req = Request(self)
        self._waiters.append(req)
        return req

    def release(self, request: Request) -> None:
        if request.resource is not self:
            raise SimulationError("release of a foreign request")
        if not request.triggered:
            # Cancelled while waiting: drop it from the queue.
            try:
                self._waiters.remove(request)
            except ValueError:
                raise SimulationError("request neither granted nor queued")
            request.fail(SimulationError("request cancelled"))
            return
        if self._in_use <= 0:
            raise SimulationError("release without outstanding grant")
        if self._waiters:
            nxt = self._waiters.popleft()
            nxt.succeed()
        else:
            self._in_use -= 1


class Store:
    """Unbounded FIFO of items with blocking get, optional capacity.

    ``put`` returns an event that triggers once the item is accepted
    (immediately unless a ``capacity`` was given and the store is full).
    ``get`` returns an event whose value is the item.
    """

    __slots__ = ("sim", "capacity", "_items", "_getters", "_putters")

    def __init__(self, sim: Simulator, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise SimulationError("store capacity must be >= 1 or None")
        self.sim = sim
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple] = deque()  # (event, item)

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Event:
        event = Event(self.sim)
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
            event.succeed()
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            event.succeed()
        else:
            self._putters.append((event, item))
        return event

    def get(self) -> Event:
        event = Event(self.sim)
        if self._items:
            event.succeed(self._items.popleft())
            self._admit_waiting_putter()
        elif self._putters:
            put_event, item = self._putters.popleft()
            put_event.succeed()
            event.succeed(item)
        else:
            self._getters.append(event)
        return event

    def _admit_waiting_putter(self) -> None:
        if self._putters and (
            self.capacity is None or len(self._items) < self.capacity
        ):
            put_event, item = self._putters.popleft()
            self._items.append(item)
            put_event.succeed()
