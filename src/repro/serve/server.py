"""The flow-service daemon: asyncio HTTP/JSON over :mod:`repro.api`.

:class:`ServeDaemon` accepts run/compare/sweep/lint requests (the
same typed request objects the CLI parses), answers identical repeats
from the response cache, coalesces identical *in-flight* work through
the :class:`~repro.serve.coalesce.Coalescer`, and schedules cold
requests onto a persistent :class:`~repro.serve.workers.WorkerPool`.
Worker span trees are adopted into an outer ``--trace`` session, so
that session reads as a single tree across every request and process.
See ``docs/SERVICE.md`` for the endpoint reference.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import os
import time
from typing import Any, AsyncIterator, Optional

from repro import obs
from repro.api import REQUEST_KINDS, request_from_dict
from repro.io.artifacts import (ArtifactStore, content_key,
                                default_cache_max_bytes)
from repro.serve.coalesce import Coalescer
from repro.serve.router import (MAX_BODY_BYTES, ApiError, HttpRequest,
                                HttpResponse, Router, parse_request_head)
from repro.serve.workers import WorkerPool

__all__ = ["ServeConfig", "ServeDaemon", "response_store_key"]


def response_store_key(request_key: str) -> str:
    """The ArtifactStore key caching one request's response dict."""
    return content_key("serve-response", request=request_key)


@dataclasses.dataclass(frozen=True)
class ServeConfig:
    """Everything one daemon instance needs.

    ``port=0`` binds an ephemeral port (tests and the load generator
    read the real one back from :attr:`ServeDaemon.port`).
    ``max_store_bytes=None`` falls back to ``$REPRO_CACHE_MAX_BYTES``;
    ``store_root=None`` uses the per-user artifact cache, which the
    daemon then *shares* with its workers — one warm cache tier.
    """

    host: str = "127.0.0.1"
    port: int = 8787
    workers: int = 2
    store_root: Optional[str] = None
    max_store_bytes: Optional[int] = None
    #: Pre-spawn every worker (kernel imports) before accepting.
    warm: bool = True


class ServeDaemon:
    """One batching/dedup flow service instance."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        budget = (config.max_store_bytes
                  if config.max_store_bytes is not None
                  else default_cache_max_bytes())
        self.store = ArtifactStore(config.store_root,
                                   max_disk_bytes=budget)
        self.coalescer = Coalescer()
        self.router = self._build_router()
        self.pool: Optional[WorkerPool] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._shutdown = asyncio.Event()
        self._started_at = 0.0
        self._owns_tracer = False
        self.counters: dict[str, int] = {}

    # -- lifecycle ------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the real one)."""
        assert self._server is not None, "daemon not started"
        return int(self._server.sockets[0].getsockname()[1])

    async def start(self) -> None:
        """Open the pool and start accepting connections.

        Without an outer ``--trace`` session the daemon installs its
        own tracer, for metrics only, so /v1/metrics is live.  Workers
        verify flows when ``REPRO_VERIFY_FLOWS`` is set now.
        """
        if obs.active() is None:
            obs.enable("serve")
            self._owns_tracer = True
        self.pool = WorkerPool(
            workers=self.config.workers,
            verify=bool(os.environ.get("REPRO_VERIFY_FLOWS")),
            store_root=str(self.store.root))
        if self.config.warm:
            await self.pool.warm()
        self._server = await asyncio.start_server(
            self._handle_conn, host=self.config.host,
            port=self.config.port)
        self._started_at = time.monotonic()

    async def stop(self) -> None:
        """Stop accepting, drain the pool, release the sockets."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.pool is not None:
            self.pool.shutdown()
        if self._owns_tracer:
            obs.disable()
            self._owns_tracer = False
        self._shutdown.set()

    async def run_until_shutdown(self) -> None:
        """Serve until ``/v1/shutdown`` (or :meth:`request_shutdown`)."""
        await self._shutdown.wait()
        if self._server is not None and self._server.is_serving():
            await self.stop()

    def request_shutdown(self) -> None:
        """Signal-safe shutdown trigger (SIGINT/SIGTERM handler)."""
        self._shutdown.set()

    # -- connection handling --------------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            response = await self._respond(reader)
        except ApiError as exc:
            self._count("errors")
            response = HttpResponse(
                payload={"status": "error", "error": exc.message},
                status=exc.status)
        except Exception as exc:  # noqa: BLE001 - daemon must not die
            self._count("errors")
            response = HttpResponse(
                payload={"status": "error",
                         "error": f"{type(exc).__name__}: {exc}"},
                status=500)
        try:
            if response.stream is not None:
                writer.write(HttpResponse.stream_head())
                await writer.drain()
                async for event in response.stream:
                    writer.write(HttpResponse.chunk(event))
                    await writer.drain()
                writer.write(HttpResponse.last_chunk())
            else:
                writer.write(response.encode())
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            self._count("dropped_connections")
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _respond(self, reader: asyncio.StreamReader) -> HttpResponse:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            raise ApiError(400, "malformed or oversized request head")
        method, path, query, headers = parse_request_head(head[:-4])
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise ApiError(400, "malformed Content-Length")
        if length < 0 or length > MAX_BODY_BYTES:
            raise ApiError(400, f"request body over {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        request = HttpRequest(method=method, path=path, query=query,
                              headers=headers, body=body)
        handler = self.router.resolve(method, path)
        return await handler(request)

    # -- routes ---------------------------------------------------------------

    def _build_router(self) -> Router:
        router = Router()
        router.add("GET", "/v1/health", self._handle_health)
        router.add("GET", "/v1/stats", self._handle_stats)
        router.add("GET", "/v1/metrics", self._handle_metrics)
        router.add("GET", "/v1/store/stats", self._handle_store_stats)
        router.add("POST", "/v1/store/gc", self._handle_store_gc)
        router.add("POST", "/v1/shutdown", self._handle_shutdown)
        for kind in REQUEST_KINDS:
            router.add("POST", f"/v1/{kind}", self._make_kind_handler(kind))
        return router

    async def _handle_health(self, _req: HttpRequest) -> HttpResponse:
        return HttpResponse(payload={
            "status": "ok",
            "endpoints": self.router.paths,
            "workers": self.config.workers,
        })

    async def _handle_stats(self, _req: HttpRequest) -> HttpResponse:
        return HttpResponse(payload={"status": "ok", **self.stats()})

    async def _handle_metrics(self, _req: HttpRequest) -> HttpResponse:
        tracer = obs.active()
        metrics = tracer.metrics.export() if tracer is not None else {}
        return HttpResponse(payload={"status": "ok", "metrics": metrics})

    async def _handle_store_stats(self, _req: HttpRequest) -> HttpResponse:
        return HttpResponse(payload={"status": "ok",
                                     "store": self.store.stats()})

    async def _handle_store_gc(self, req: HttpRequest) -> HttpResponse:
        data = req.json()
        max_bytes = data.get("max_bytes")
        # bool is an int: {"max_bytes": true} would evict down to 1 byte.
        if max_bytes is not None and (isinstance(max_bytes, bool)
                                      or not isinstance(max_bytes, int)
                                      or max_bytes < 0):
            raise ApiError(400, "max_bytes must be a non-negative integer")
        swept = self.store.gc(max_bytes=max_bytes)
        return HttpResponse(payload={"status": "ok", **swept})

    async def _handle_shutdown(self, _req: HttpRequest) -> HttpResponse:
        # Respond first, stop accepting after: set the event from a
        # callback so this connection's response still goes out.
        asyncio.get_running_loop().call_soon(self._shutdown.set)
        return HttpResponse(payload={"status": "ok", "stopping": True})

    def _make_kind_handler(self, kind: str) -> Any:
        async def handle(req: HttpRequest) -> HttpResponse:
            return await self._handle_flow_request(req, kind)
        return handle

    # -- the request path -----------------------------------------------------

    async def _handle_flow_request(self, req: HttpRequest,
                                   kind: str) -> HttpResponse:
        data = req.json()
        try:
            request = request_from_dict(data, kind=kind)
        except (TypeError, ValueError) as exc:
            raise ApiError(400, str(exc))
        # The key hashes the design's content, so an unknown corpus
        # name (KeyError) or an unreadable design file (OSError) fails
        # here: a 400 before the pool, or a stream's 200 head, sees it.
        try:
            key = request.content_key() if request.cacheable else None
        except (KeyError, OSError) as exc:
            raise ApiError(400, f"cannot resolve design {request.design!r}: "
                                f"{exc}")
        self._count(f"requests.{kind}")
        obs.counter(f"serve.requests.{kind}").inc()
        if req.flag("stream"):
            return HttpResponse(
                stream=self._event_stream(request, key, req.flag("trace")))
        started = time.monotonic()
        envelope = await self._execute(request, key, req.flag("trace"))
        envelope["elapsed_s"] = round(time.monotonic() - started, 6)
        return HttpResponse(payload=envelope)

    async def _event_stream(self, request: Any, key: Optional[str],
                            want_trace: bool) -> AsyncIterator[dict]:
        """The ``?stream=1`` JSONL protocol: accepted → done/error."""
        yield {"event": "accepted", "kind": request.KIND, "key": key}
        started = time.monotonic()
        try:
            envelope = await self._execute(request, key, want_trace)
        except Exception as exc:  # noqa: BLE001 - stream the failure
            yield {"event": "error", "kind": request.KIND,
                   "error": f"{type(exc).__name__}: {exc}"}
            return
        envelope["elapsed_s"] = round(time.monotonic() - started, 6)
        yield {"event": "done", **envelope}

    async def _execute(self, request: Any, key: Optional[str],
                       want_trace: bool) -> dict[str, Any]:
        """Cache → coalesce → compute, returning the response envelope.

        ``key`` is the request's content key, None when it is not
        cacheable.
        """
        assert self.pool is not None, "daemon not started"
        pool = self.pool
        envelope: dict[str, Any] = {"status": "ok", "kind": request.KIND,
                                    "cached": False, "coalesced": False,
                                    "key": key}
        # The daemon's own tracer keeps metrics, not spans: no reader.
        with (contextlib.nullcontext() if self._owns_tracer
              else obs.span("serve.handle", kind=request.KIND)):
            if key is None:
                payload = await pool.execute(request.to_dict())
                self._finish(payload, want_trace, envelope)
                return envelope
            store_key = response_store_key(key)
            hit = self.store.load(store_key)
            if hit is not None:
                self._count("response_cache_hits")
                obs.counter("serve.cache_hits").inc()
                envelope.update(cached=True, result=hit)
                return envelope

            async def supply() -> dict[str, Any]:
                payload = await pool.execute(request.to_dict())
                self.store.save(store_key, payload["result"])
                return payload

            payload, coalesced = await self.coalescer.run(key, supply)
            if coalesced:
                self._count("coalesced_requests")
            self._finish(payload, want_trace, envelope)
            envelope["coalesced"] = coalesced
            return envelope

    def _finish(self, payload: dict[str, Any], want_trace: bool,
                envelope: dict[str, Any]) -> None:
        """Fold the worker trace in (once) and fill in the result."""
        envelope["result"] = payload["result"]
        trace = payload.pop("trace", None)
        if trace is not None:
            tracer = obs.active()
            if tracer is not None:
                if self._owns_tracer:
                    tracer.metrics.merge(trace["metrics"])
                else:
                    tracer.adopt(trace, parent_id=obs.current_span_id())
            if want_trace:
                envelope["trace"] = trace

    # -- stats ----------------------------------------------------------------

    def _count(self, name: str) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1

    def stats(self) -> dict[str, Any]:
        """The ``/v1/stats`` payload: counters, coalescer, pool, store."""
        pool = self.pool
        return {
            "uptime_s": (round(time.monotonic() - self._started_at, 3)
                         if self._started_at else 0.0),
            "counters": dict(sorted(self.counters.items())),
            "coalescer": self.coalescer.stats(),
            "pool": {"workers": pool.workers if pool else 0,
                     "submitted": pool.submitted if pool else 0},
            "store": self.store.stats(),
        }
