"""The flow service: a batching/dedup daemon over :mod:`repro.api`.

The paper's policy exploration is expensive and highly cacheable —
the same design + technology + slack always produces the same answer
— so this package serves it from a long-running process instead of
re-running per invocation:

* :class:`ServeDaemon` / :class:`ServeConfig` — the asyncio HTTP/JSON
  server (``repro serve``): every flow request is parsed into its typed
  request, answered from a response cache in the
  :class:`~repro.io.artifacts.ArtifactStore` tier, a coalesced
  in-flight computation or the worker pool, and returned as one JSON
  reply (with the worker's obs span tree under ``?trace=1``)
  (:mod:`repro.serve.server`);
* :class:`Coalescer` — single-flight dedup of identical in-flight
  requests (:mod:`repro.serve.coalesce`);
* :class:`WorkerPool` — the persistent worker-pool bridge that keeps
  kernels and stores warm across requests (:mod:`repro.serve.workers`).

See ``docs/SERVICE.md`` for the wire protocol.
"""

from repro.serve.coalesce import Coalescer
from repro.serve.router import ApiError, HttpRequest, HttpResponse, Router
from repro.serve.server import ServeConfig, ServeDaemon, response_store_key
from repro.serve.workers import WorkerPool

__all__ = [
    "ApiError",
    "Coalescer",
    "HttpRequest",
    "HttpResponse",
    "Router",
    "ServeConfig",
    "ServeDaemon",
    "WorkerPool",
    "response_store_key",
]
