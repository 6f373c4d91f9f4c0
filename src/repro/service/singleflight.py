"""Admission control: single-flight coalescing.

When many clients ask the planner for the same fingerprint at the same
moment, only the first (the *leader*) runs the optimization; the rest
block until the leader finishes and then share its result
(:class:`SingleFlight`).  Without it, a cold popular query stampedes the
optimizer exactly when it is most expensive.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Hashable

__all__ = ["SingleFlight"]


class _Call:
    """One in-flight computation and the crowd waiting on it."""

    __slots__ = ("done", "result", "error", "waiters")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.result: Any = None
        self.error: BaseException | None = None
        self.waiters = 0


class SingleFlight:
    """Coalesces concurrent calls that share a key.

    Thread safe.  Sequential calls with the same key each run ``fn`` —
    de-duplication across *time* is the cache's job, not this class's.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._calls: dict[Hashable, _Call] = {}

    def run(self, key: Hashable, fn: Callable[[], Any]
            ) -> tuple[Any, bool]:
        """Run ``fn`` once per concurrent crowd of ``key``.

        Returns ``(result, is_leader)``: the leader executed ``fn``;
        followers receive the leader's result (or re-raise its exception)
        without executing anything.
        """
        with self._lock:
            call = self._calls.get(key)
            if call is None:
                call = self._calls[key] = _Call()
                leader = True
            else:
                call.waiters += 1
                leader = False

        if not leader:
            call.done.wait()
            if call.error is not None:
                raise call.error
            return call.result, False

        try:
            call.result = fn()
        except BaseException as exc:
            call.error = exc
            raise
        finally:
            with self._lock:
                del self._calls[key]
            call.done.set()
        return call.result, True

    def waiting(self, key: Hashable) -> int:
        """Followers currently blocked on ``key`` (0 when not in flight)."""
        with self._lock:
            call = self._calls.get(key)
            return call.waiters if call is not None else 0
