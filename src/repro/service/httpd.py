"""Stdlib HTTP front end for the capacity-planning service.

A thin transport over :class:`repro.service.CapacityService`:

* ``POST /v1/price`` — JSON :class:`~repro.service.Query` body in, the
  canonical priced response out (``429`` carries ``Retry-After``);
* ``GET /v1/health`` — liveness;
* ``GET /v1/stats`` — batching/quota/cache counters.

``ThreadingHTTPServer`` gives one thread per in-flight request, which is
exactly what the admission batcher wants: concurrent requests pile into
its queue and come back as one stacked tape pass.  Run it with
``repro-lab serve`` or embed :class:`ServiceServer` in tests (it binds
port 0 and reports the real port).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.service.core import CapacityService

__all__ = ["ServiceServer", "serve_forever"]

_MAX_BODY_BYTES = 1 << 20


class _Handler(BaseHTTPRequestHandler):
    """Request handler bound to one :class:`CapacityService`."""

    server: "_Server"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: _reply writes headers and body separately, and with
    # Nagle on the client's delayed ACK holds the body back ~40 ms
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args: Any) -> None:
        if self.server.verbose:  # quiet by default (tests, loadtests)
            super().log_message(format, *args)

    def _reply(self, status: int, body: dict[str, Any]) -> None:
        data = json.dumps(body, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        retry = body.get("retry_after_seconds")
        if status == 429 and isinstance(retry, (int, float)):
            self.send_header("Retry-After", f"{retry:.6f}")
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/v1/health":
            self._reply(200, {"status": "ok"})
        elif self.path == "/v1/stats":
            self._reply(200, self.server.service.stats())
        else:
            self._reply(404, {"error": f"unknown path {self.path}",
                              "status": 404})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path != "/v1/price":
            self._reply(404, {"error": f"unknown path {self.path}",
                              "status": 404})
            return
        length = int(self.headers.get("Content-Length", 0) or 0)
        if length <= 0 or length > _MAX_BODY_BYTES:
            self._reply(400, {"error": "missing or oversized request body",
                              "status": 400})
            return
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw)
        except (ValueError, UnicodeDecodeError):
            self._reply(400, {"error": "request body is not valid JSON",
                              "status": 400})
            return
        if isinstance(payload, dict) and "client" not in payload:
            header_client = self.headers.get("X-Client-Id")
            if header_client:
                payload["client"] = header_client
        status, body = self.server.service.handle(payload)
        self._reply(status, body)


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    # listen backlog: socketserver's default of 5 drops connections when
    # a burst of clients connects faster than the accept loop drains them
    request_queue_size = 1024

    def __init__(self, address: tuple[str, int], service: CapacityService,
                 verbose: bool) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.verbose = verbose


class ServiceServer:
    """A :class:`CapacityService` behind a threaded HTTP listener.

    ``with ServiceServer(service) as srv: ... srv.url ...`` starts the
    listener on a background thread (port 0 = ephemeral) and tears it
    down — including the service's batching worker — on exit.
    """

    def __init__(self, service: CapacityService | None = None, *,
                 host: str = "127.0.0.1", port: int = 0,
                 verbose: bool = False) -> None:
        self.service = service if service is not None else CapacityService()
        self._httpd = _Server((host, port), self.service, verbose)
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return str(self._httpd.server_address[0])

    @property
    def port(self) -> int:
        return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServiceServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-service-http", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self.service.close()

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()


def serve_forever(service: CapacityService, *, host: str = "127.0.0.1",
                  port: int = 8064, verbose: bool = True) -> None:
    """Blocking entry point for ``repro-lab serve``."""
    server = _Server((host, port), service, verbose)
    print(f"repro capacity service listening on http://{host}:{port} "
          "(POST /v1/price, GET /v1/health, GET /v1/stats)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.server_close()
        service.close()
