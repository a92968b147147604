"""A dependency-free asyncio HTTP/1.1 JSON front end for the service.

Endpoints::

    POST /certify              {source, spec?, engine?, tenant?, options?}
    POST /check                {certificate} | {hash}
    GET  /certificates/<hash>  the stored certificate payload
    GET  /healthz              liveness + served specs
    GET  /stats                queue depth, hit rate, per-tenant spend

Responses are compact canonical JSON (sorted keys, no whitespace), the
encoding certificates are stored in.  Refusals carry HTTP 429 plus a
``Retry-After`` header; malformed requests 400; unknown routes 404.
The parser is deliberately minimal (request line, headers,
Content-Length body) — this is an internal service endpoint, not a
general-purpose web server — but connections are persistent (HTTP/1.1
keep-alive) because the load generator and real clients both reuse
them.
"""

from __future__ import annotations

import asyncio
import json
import signal
from typing import Dict, Optional, Tuple

from repro.cert.model import canonical_text
from repro.serve.service import CertificationService, ServeConfig

#: cap on request bodies (certificates embed sources; 32 MiB is ample)
MAX_BODY_BYTES = 32 * 1024 * 1024
#: cap on the request line + headers block
MAX_HEAD_BYTES = 64 * 1024

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


class ServeDaemon:
    """Bind a :class:`CertificationService` to a TCP port."""

    def __init__(
        self,
        service: Optional[CertificationService] = None,
        *,
        config: Optional[ServeConfig] = None,
    ) -> None:
        self.service = service or CertificationService(config)
        self._server: Optional[asyncio.base_events.Server] = None
        self._drain_task: Optional[asyncio.Task] = None
        self._drain_started = False
        self._stopped = asyncio.Event()

    @property
    def port(self) -> Optional[int]:
        """The actually-bound port (use ``port=0`` for an ephemeral one)."""
        if self._server is None or not self._server.sockets:
            return None
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        await self.service.start()
        config = self.service.config
        self._server = await asyncio.start_server(
            self._handle_connection, host=config.host, port=config.port
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.stop()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            # Server.close() (via drain()/stop()) cancels the inner
            # serving future; wait for the drain to finish and return
            # cleanly.  A real task cancellation re-raises.
            if not self._drain_started:
                raise
            await asyncio.shield(self._stopped.wait())

    # -- graceful shutdown ---------------------------------------------------

    def install_signal_handlers(
        self, drain_timeout: float = 30.0
    ) -> None:
        """SIGTERM/SIGINT → graceful drain (finish in-flight, then stop).

        A second signal while draining aborts the wait and stops
        immediately.
        """
        loop = asyncio.get_running_loop()

        def _on_signal() -> None:
            if self._drain_task is None or self._drain_task.done():
                self._drain_task = loop.create_task(
                    self.drain(drain_timeout)
                )
            else:  # second signal: stop waiting for in-flight work
                self._drain_task.cancel()
                self._drain_task = loop.create_task(self.drain(0.0))

        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, _on_signal)
            except (NotImplementedError, RuntimeError):
                pass  # non-Unix loop; the CLI falls back to KeyboardInterrupt

    async def drain(self, timeout: float = 30.0) -> None:
        """Stop admitting, wait (bounded) for in-flight work, then stop.

        The service flips ``/healthz`` to ``draining`` immediately;
        responses written while draining carry ``Connection: close`` so
        keep-alive clients reconnect elsewhere.
        """
        self._drain_started = True
        self.service.begin_drain()
        if timeout > 0:
            try:
                await asyncio.wait_for(self.service.drained(), timeout)
            except asyncio.TimeoutError:
                pass  # in-flight work exceeded the grace window
        await self.stop()
        self._stopped.set()

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, headers, body = request
                status, payload, extra_headers = await self._route(
                    method, path, body
                )
                keep_alive = (
                    headers.get("connection", "keep-alive").lower() != "close"
                    and not self.service.draining
                )
                await self._write_response(
                    writer, status, payload, extra_headers, keep_alive
                )
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
            asyncio.LimitOverrunError,
        ):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as error:
            if not error.partial:
                return None  # clean close between requests
            raise
        if len(head) > MAX_HEAD_BYTES:
            raise asyncio.LimitOverrunError("header block too large", len(head))
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            return None
        method, path, _version = parts
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _sep, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            raise asyncio.LimitOverrunError("body too large", length)
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, headers, body

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, object],
        extra_headers: Dict[str, str],
        keep_alive: bool,
    ) -> None:
        body = (canonical_text(payload) + "\n").encode("utf-8")
        lines = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
            "Content-Type: application/json; charset=utf-8",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in extra_headers.items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)
        await writer.drain()

    # -- routing -------------------------------------------------------------

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, object], Dict[str, str]]:
        path = path.split("?", 1)[0]
        if method == "GET":
            if path == "/healthz":
                return 200, self.service.healthz(), {}
            if path == "/stats":
                return 200, self.service.stats(), {}
            if path.startswith("/certificates/"):
                cert_hash = path[len("/certificates/"):]
                payload = self.service.certificate_json(cert_hash)
                if payload is None:
                    return (
                        404,
                        {"error": f"no certificate with hash {cert_hash!r}"},
                        {},
                    )
                return 200, payload, {}
            return 404, {"error": f"no such route {path!r}"}, {}
        if method == "POST":
            if path not in ("/certify", "/check"):
                return 404, {"error": f"no such route {path!r}"}, {}
            try:
                parsed = json.loads(body.decode("utf-8")) if body else {}
            except (json.JSONDecodeError, UnicodeDecodeError) as error:
                return 400, {"error": f"malformed JSON body: {error}"}, {}
            if path == "/certify":
                status, payload = await self.service.certify(parsed)
            else:
                status, payload = await self.service.check(parsed)
            headers: Dict[str, str] = {}
            if status == 429:
                headers["Retry-After"] = str(
                    max(1, int(self.service.config.retry_after))
                )
            return status, payload, headers
        return 405, {"error": f"method {method} not allowed"}, {}
