"""Minimal HTTP/1.1 plumbing for the serve daemon.

Just enough protocol for a JSON request/response service on the
standard library: a parsed :class:`HttpRequest`, a fixed-length JSON
:class:`HttpResponse`, and an exact-path :class:`Router`.  No
third-party framework — the repository's no-new-dependencies rule
applies to the service tier too, and the daemon's API surface is small
enough that a dispatch table is clearer than one.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Awaitable, Callable, Optional
from urllib.parse import parse_qsl, urlsplit

__all__ = ["ApiError", "HttpRequest", "HttpResponse", "Router"]

#: Refuse request bodies beyond this (a request JSON is tiny).
MAX_BODY_BYTES = 1 << 20

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 500: "Internal Server Error"}


class ApiError(Exception):
    """An error the daemon reports as a JSON error response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclasses.dataclass
class HttpRequest:
    """One parsed request: method, split path/query, headers, body."""

    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes

    def json(self) -> dict[str, Any]:
        """The body as a JSON object (400 on anything else)."""
        if not self.body:
            return {}
        try:
            data = json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ApiError(400, f"request body is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise ApiError(400, "request body must be a JSON object")
        return data

    def flag(self, name: str) -> bool:
        """A boolean query parameter (``?trace=1``)."""
        return self.query.get(name, "").lower() in ("1", "true", "yes")


@dataclasses.dataclass
class HttpResponse:
    """A JSON response with its status code."""

    payload: Optional[dict[str, Any]] = None
    status: int = 200

    def encode(self) -> bytes:
        """The full fixed-length HTTP response, head + JSON body."""
        body = json.dumps(self.payload or {}, sort_keys=True).encode()
        reason = _REASONS.get(self.status, "Unknown")
        head = (f"HTTP/1.1 {self.status} {reason}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n")
        return head.encode("ascii") + body


Handler = Callable[[HttpRequest], Awaitable[HttpResponse]]


class Router:
    """Exact-path method dispatch with JSON 404/405 errors."""

    def __init__(self) -> None:
        self._routes: dict[str, dict[str, Handler]] = {}

    def add(self, method: str, path: str, handler: Handler) -> None:
        """Register ``handler`` for exactly (``method``, ``path``)."""
        self._routes.setdefault(path, {})[method.upper()] = handler

    def resolve(self, method: str, path: str) -> Handler:
        """The handler of (``method``, ``path``); 404/405 ApiError."""
        by_method = self._routes.get(path)
        if by_method is None:
            raise ApiError(404, f"no such endpoint: {path}")
        handler = by_method.get(method.upper())
        if handler is None:
            allowed = "/".join(sorted(by_method))
            raise ApiError(405, f"{path} accepts {allowed}, not {method}")
        return handler

    @property
    def paths(self) -> list[str]:
        """Every registered path, sorted (the health endpoint's list)."""
        return sorted(self._routes)


def parse_request_head(head: bytes) -> tuple[str, str, dict[str, str],
                                             dict[str, str]]:
    """Split a request head into (method, path, query, headers)."""
    try:
        text = head.decode("latin-1")
        request_line, *header_lines = text.split("\r\n")
        method, target, _version = request_line.split(" ", 2)
    except ValueError:
        raise ApiError(400, "malformed request line")
    parts = urlsplit(target)
    # Keep blank values: a bare ``?name`` is still a parameter, which a
    # flow endpoint must see to reject.
    query = dict(parse_qsl(parts.query, keep_blank_values=True))
    headers: dict[str, str] = {}
    for line in header_lines:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ApiError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    return method.upper(), parts.path, query, headers
