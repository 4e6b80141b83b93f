"""Single-flight coalescing: one computation per in-flight content key.

The daemon keys every request by its content
(:meth:`repro.api._RequestBase.content_key`): while a computation for
a key is in flight, every further request for the same key *awaits
the same future* instead of scheduling new work.  This is the
batching/dedup heart of :mod:`repro.serve` — N identical concurrent
requests perform exactly one underlying flow.  A waiter reads the
leader's result from the shared future, never from the store, so an
eviction while the key is in flight cannot strand it.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable

from repro import obs

__all__ = ["Coalescer"]


class Coalescer:
    """An asyncio single-flight map from content key to result.

    :meth:`run` either starts ``supplier()`` (the *leader* path) or
    awaits the leader's future (the *coalesced* path).  Failures
    propagate to every waiter; the failed future is dropped from the
    in-flight map so the next request retries.  Counters:

    * ``computations`` — suppliers actually started;
    * ``coalesced`` — requests that piggybacked on an in-flight one.

    Both are mirrored into the obs metrics ``serve.computations`` and
    ``serve.coalesced`` when a tracer is installed.
    """

    def __init__(self) -> None:
        self._inflight: dict[str, asyncio.Future[Any]] = {}
        self.computations = 0
        self.coalesced = 0

    # -- bookkeeping ----------------------------------------------------------

    @property
    def inflight(self) -> int:
        """Keys with a computation currently running."""
        return len(self._inflight)

    def stats(self) -> dict[str, int]:
        """The dedup counters (computations, coalesced, inflight)."""
        return {"computations": self.computations,
                "coalesced": self.coalesced,
                "inflight": len(self._inflight)}

    # -- the single-flight protocol -------------------------------------------

    async def run(self, key: str,
                  supplier: Callable[[], Awaitable[Any]]
                  ) -> tuple[Any, bool]:
        """Compute (or join) the value of ``key``.

        Returns ``(result, coalesced)`` where ``coalesced`` tells the
        caller whether it rode along on another request's computation.
        """
        existing = self._inflight.get(key)
        if existing is not None:
            self.coalesced += 1
            obs.counter("serve.coalesced").inc()
            # shield: one waiter's cancellation must not cancel the
            # shared computation under everyone else.
            return await asyncio.shield(existing), True

        future: asyncio.Future[Any] = (
            asyncio.get_running_loop().create_future())
        self._inflight[key] = future
        self.computations += 1
        obs.counter("serve.computations").inc()
        try:
            result = await supplier()
        except BaseException as exc:
            self._inflight.pop(key, None)
            if not future.cancelled():
                future.set_exception(exc)
                # The leader re-raises its own copy; mark the shared
                # future's exception as retrieved so an unwaited key
                # does not log "exception was never retrieved".
                future.exception()
            raise
        else:
            self._inflight.pop(key, None)
            if not future.cancelled():
                future.set_result(result)
            return result, False
