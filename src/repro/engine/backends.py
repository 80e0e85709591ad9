"""Execution backends: where a batch of independent tasks actually runs.

A backend is an ordered ``map``: results come back in task order no
matter how the work was scheduled, which together with hash-derived
per-trial seeds (``engine.seeds``) gives the determinism contract —
serial and parallel execution of the same plan are bit-identical.

``SerialBackend`` runs in-process.  ``ProcessPoolBackend`` fans out over
``concurrent.futures.ProcessPoolExecutor``; tasks and their arguments
must be picklable (module-level functions, dataclass instances).  A
non-picklable workload silently degrades to serial execution — recorded
in ``serial_fallbacks`` and the ``engine.serial_fallbacks`` telemetry
counter — so callers can always route through the
backend without branching on their payload.

Worker processes are marked via a pool initializer: code running inside
a worker that asks for a backend gets the serial one, so nested batch
calls (an experiment cell that itself runs an attack loop) cannot
deadlock the pool with pool-inside-pool scheduling.
"""

from __future__ import annotations

import os
import pickle
from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable
from concurrent.futures import ProcessPoolExecutor
from typing import Any

from .. import obs
from ..obs import ENGINE_SERIAL_FALLBACKS

#: True only inside a pool worker process (set by the pool initializer).
_IN_WORKER = False


def _mark_worker() -> None:
    global _IN_WORKER
    _IN_WORKER = True


def in_worker_process() -> bool:
    """True when running inside a ProcessPoolBackend worker."""
    return _IN_WORKER


class ExecutionBackend(ABC):
    """An ordered map over independent tasks."""

    name: str = "backend"
    workers: int = 1

    @abstractmethod
    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        """Apply ``fn`` to every item, returning results in item order."""

    def close(self) -> None:
        """Release any held resources (idempotent)."""


class SerialBackend(ExecutionBackend):
    """In-process execution; the reference semantics for every backend."""

    name = "serial"
    workers = 1

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        return [fn(item) for item in items]


class ProcessPoolBackend(ExecutionBackend):
    """Fan tasks out over a process pool, preserving order.

    The executor is created lazily and reused across ``map`` calls; call
    :meth:`close` (or let interpreter exit do it) to shut it down.
    """

    name = "process-pool"

    def __init__(self, workers: int | None = None) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be positive")
        self.workers = workers or default_worker_count()
        self.serial_fallbacks = 0
        self._executor: ProcessPoolExecutor | None = None

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, initializer=_mark_worker
            )
        return self._executor

    @staticmethod
    def _picklable(fn: Callable, sample: Any) -> bool:
        try:
            pickle.dumps((fn, sample))
            return True
        except Exception:
            return False

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        items = list(items)
        if len(items) <= 1 or in_worker_process() or not self._picklable(fn, items[0]):
            if items and not in_worker_process() and len(items) > 1:
                self.serial_fallbacks += 1
                obs.count(ENGINE_SERIAL_FALLBACKS)
            return [fn(item) for item in items]
        chunksize = max(1, len(items) // (self.workers * 4))
        executor = self._ensure_executor()
        return list(executor.map(fn, items, chunksize=chunksize))

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None


def default_worker_count() -> int:
    """A sensible pool size: all-but-one core, at least two."""
    return max(2, (os.cpu_count() or 2) - 1)
