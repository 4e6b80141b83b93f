"""The serve-mix side: a ``repro serve`` daemon process and its client.

The daemon runs as its own process, started through the real CLI
(``python -m repro serve``) or, for the traced run, through
``traced_serve.py``, which installs the layer probes first and then
calls the same CLI entry point.  The client speaks plain HTTP/1.1 over
asyncio streams, one connection per request, as the daemon expects.
"""

from __future__ import annotations

import asyncio
import json
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")

#: Seconds a daemon may take to start listening or to shut down.
DAEMON_TIMEOUT_S = 60.0


class Daemon:
    """One ``repro serve --workers 1`` process with a private store."""

    def __init__(self, root: Path, store: Path, env: dict[str, str],
                 traced: bool) -> None:
        if traced:
            entry = [str(Path(__file__).with_name("traced_serve.py"))]
        else:
            entry = ["-m", "repro"]
        cmd = [sys.executable, *entry, "serve", "--port", "0",
               "--workers", "1", "--store", str(store)]
        # Append mode: the daemon shares this file offset, and reads
        # here seek; O_APPEND keeps its writes at the end regardless.
        self.log = open(store.parent / f"daemon-{store.name}.log", "a+")
        self.proc = subprocess.Popen(cmd, cwd=root, env=env,
                                     stdout=subprocess.DEVNULL,
                                     stderr=self.log)
        self.host, self.port = "", 0
        #: The daemon's stderr, kept by :meth:`stop`.
        self.output = ""
        self._wait_listening()

    def _wait_listening(self) -> None:
        deadline = time.monotonic() + DAEMON_TIMEOUT_S
        while time.monotonic() < deadline and self.proc.poll() is None:
            match = _LISTENING.search(self._read_log())
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return
            time.sleep(0.01)
        self.stop()
        raise RuntimeError("repro serve did not start listening: "
                           + self.output[-2000:])

    def _read_log(self) -> str:
        self.log.seek(0)
        return self.log.read()

    def stop(self) -> int:
        """Shut down over HTTP (kill on timeout); returns the exit code."""
        if self.proc.poll() is None:
            if self.port:
                try:
                    asyncio.run(request(self.host, self.port, "POST",
                                        "/v1/shutdown", {}))
                except (OSError, ValueError):
                    pass
            else:
                self.proc.terminate()
            try:
                self.proc.wait(timeout=DAEMON_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if not self.log.closed:
            self.output = self._read_log()
            self.log.close()
        return int(self.proc.returncode)


async def request(host: str, port: int, method: str, path: str,
                  payload: Optional[dict] = None
                  ) -> tuple[int, dict[str, Any]]:
    """One HTTP request on a fresh connection: (status, JSON body)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = json.dumps(payload).encode() if payload is not None else b""
        writer.write((f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
                      f"Content-Length: {len(body)}\r\n"
                      "Connection: close\r\n\r\n").encode() + body)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    if not raw:
        raise ConnectionError(f"{method} {path}: connection closed "
                              "without a response")
    head, _, rest = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(rest)


def get(daemon: Daemon, path: str) -> dict[str, Any]:
    """GET a daemon status endpoint (``/v1/stats``, ``/v1/metrics``)."""
    status, body = asyncio.run(request(daemon.host, daemon.port, "GET", path))
    if status != 200:
        raise RuntimeError(f"GET {path} -> {status}: {body}")
    return body
