"""The serve daemon's persistent worker pool.

Requests execute in long-lived worker processes so compiled kernels,
imported modules and the per-worker :class:`ArtifactStore` stay warm
across requests.  The seam mirrors the flow runner's pool plumbing
(:mod:`repro.runner.runner`) and is registered with the static
analyzer as a worker group (:data:`repro.analysis.report.DEFAULT_WORKER_GROUPS`):
the initializer resets the tracer slot and forwards exactly the
whitelisted environment (:data:`~repro.runner.runner.FORWARDED_ENV_WHITELIST`),
and the entry point ships results back as plain dicts — the request's
JSON form in, the report's JSON form (plus the worker's obs trace
payload) out.
"""

from __future__ import annotations

import asyncio
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Optional

from repro import obs
from repro.io.artifacts import ArtifactStore

__all__ = ["WorkerPool"]

#: Per-worker execution state, written once by the pool initializer.
_WORKER_STORE: Optional[ArtifactStore] = None
_WORKER_READY: bool = False


def _serve_pool_init(verify: bool, store_root: Optional[str]) -> None:
    """Per-worker initializer: forward env, open the warm store.

    ``REPRO_VERIFY_FLOWS`` is captured once in the daemon and replayed
    here, exactly like the flow runner's pool initializer, so flows
    behave identically in workers and in-process.
    """
    global _WORKER_STORE, _WORKER_READY
    # A forked worker inherits the daemon's installed tracer; drop it
    # so every request's trace streams back inside the result payload
    # (the daemon adopts it exactly once).
    obs.disable()
    if verify:
        os.environ["REPRO_VERIFY_FLOWS"] = "1"
    else:
        os.environ.pop("REPRO_VERIFY_FLOWS", None)
    _WORKER_STORE = (ArtifactStore(store_root)  # static: ok[D004] per-worker store slot, written once by the pool initializer before any request runs
                     if store_root is not None else None)
    _WORKER_READY = True  # static: ok[D004] per-worker readiness flag, written once by the pool initializer


def _serve_pool_run(payload: dict[str, Any]) -> dict[str, Any]:
    """Pool entry point: execute one request's JSON form.

    The worker parses the payload with the same
    :func:`repro.api.request_from_dict` the daemon and CLI use,
    executes it serially (``jobs=1`` — the daemon parallelises across
    requests, not within them), and returns the report's wire form
    plus the worker's span tree / metric deltas.
    """
    assert _WORKER_READY, "serve pool used before initialization"
    from repro.api import execute, report_to_dict, request_from_dict

    request = request_from_dict(payload)
    with obs.capture("serve.worker") as tracer:
        with obs.span("serve.request", kind=request.KIND):
            report = execute(request, jobs=1, store=_WORKER_STORE)
    return {"result": report_to_dict(report),
            "trace": tracer.export_payload()}


def _serve_pool_ping() -> int:
    """Warm-up entry: force worker spawn + imports, return the pid."""
    assert _WORKER_READY, "serve pool used before initialization"
    import repro.engine  # noqa: F401  (pulls the compiled kernel in)

    return os.getpid()


class WorkerPool:
    """Asyncio bridge over a persistent :class:`ProcessPoolExecutor`.

    One pool outlives every request, so each worker pays imports,
    kernel warm-up and store opening once.  :meth:`execute` submits a
    request's JSON form and awaits the result without blocking the
    event loop.
    """

    def __init__(self, workers: int, verify: bool,
                 store_root: Optional[str]) -> None:
        self.workers = max(1, int(workers))
        self.submitted = 0
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_serve_pool_init,
            initargs=(verify, store_root))

    async def warm(self) -> list[int]:
        """Spin every worker up front; returns the worker pids seen."""
        loop = asyncio.get_running_loop()
        pids = await asyncio.gather(*[
            loop.run_in_executor(self._pool, _serve_pool_ping)
            for _ in range(self.workers)])
        return sorted(set(pids))

    async def execute(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Run one request payload on the pool; returns the wire dict."""
        self.submitted += 1
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._pool, _serve_pool_run,
                                          payload)

    def shutdown(self) -> None:
        """Tear the pool down (waits; cancels queued submissions)."""
        self._pool.shutdown(wait=True, cancel_futures=True)
