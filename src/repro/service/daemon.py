"""The scheduler daemon: an HTTP control plane over a simulation session.

Stdlib-only (``http.server`` + ``threading``).  One background thread
ticks the session toward its horizon while request-handler threads
ingest events and read plans under a shared lock, so a client can watch
its submitted request change the very next tick's plan.

Endpoints (all JSON):

====== ===================== ==========================================
Method Path                  Meaning
====== ===================== ==========================================
GET    ``/healthz``          liveness + session position
GET    ``/plan``             the currently executing links
GET    ``/plan/deltas``      plan changes with ``seq > since`` (query)
GET    ``/metrics``          session snapshot + interim tenant block
POST   ``/requests``         submit :class:`SubmitRequest` events
POST   ``/quota``            submit a :class:`QuotaUpdate`
POST   ``/outages``          submit an :class:`OutageNotice`
POST   ``/shutdown``         finalize and return the full report
====== ===================== ==========================================

Validation errors -- a body that is not a JSON object where one is
required, a missing field, a field of the wrong JSON type -- map to 400
with ``{"error": ...}``; unknown paths to 404; events after finalization
to 409.
"""

from __future__ import annotations

import json
import threading
from datetime import datetime
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.simulation.metrics import SimulationReport
from repro.simulation.session import (
    OutageNotice,
    QuotaUpdate,
    SimulationSession,
    SubmitRequest,
)


def _json_object(payload) -> dict:
    """``payload`` itself when it is a JSON object, else a ``ValueError``."""
    if not isinstance(payload, dict):
        raise ValueError("request body must be a JSON object")
    return payload


def _coerced(build, payload):
    """``build(payload)``, with a field of the wrong JSON type (``float({})``,
    ``int([1])``) raised as the ``ValueError`` the 400 contract expects."""
    try:
        return build(payload)
    except TypeError as exc:
        raise ValueError(f"field of the wrong JSON type: {exc}") from None


def _submit_requests_from(payload) -> list[SubmitRequest]:
    """Parse ``{"requests": [...]}`` (or one bare request object)."""
    raw = payload.get("requests", [payload]) if isinstance(payload, dict) \
        else payload
    if not isinstance(raw, list):
        raise ValueError("'requests' must be a list of request objects")
    events = []
    for item in raw:
        if not isinstance(item, dict):
            raise ValueError("each request must be a JSON object")
        unknown = set(item) - {
            "request_id", "tenant_id", "satellite_id", "chunks",
            "priority", "sla_deadline_s", "region",
        }
        if unknown:
            raise ValueError(f"unknown request fields: {sorted(unknown)}")
        try:
            events.append(SubmitRequest(
                request_id=str(item["request_id"]),
                tenant_id=str(item["tenant_id"]),
                satellite_id=str(item["satellite_id"]),
                chunks=int(item.get("chunks", 1)),
                priority=(
                    None if item.get("priority") is None
                    else float(item["priority"])
                ),
                sla_deadline_s=(
                    None if item.get("sla_deadline_s") is None
                    else float(item["sla_deadline_s"])
                ),
                region=str(item.get("region", "")),
            ))
        except KeyError as missing:
            raise ValueError(f"request missing field {missing.args[0]!r}")
    return events


def _quota_from(payload) -> QuotaUpdate:
    """Parse a ``{"tenant_id", "quota_gb_per_day"}`` object."""
    fields = _json_object(payload)
    return QuotaUpdate(
        tenant_id=str(fields["tenant_id"]),
        quota_gb_per_day=float(fields["quota_gb_per_day"]),
    )


def _outage_from(payload) -> OutageNotice:
    """Parse a ``{"station_id", "start", "end"}`` object (ISO 8601)."""
    fields = _json_object(payload)
    return OutageNotice(
        station_id=str(fields["station_id"]),
        start=datetime.fromisoformat(str(fields["start"])),
        end=datetime.fromisoformat(str(fields["end"])),
    )


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP verbs to the owning :class:`SchedulerService`."""

    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> "SchedulerService":
        return self.server.service

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # the daemon's own logging is the trace/report, not stderr

    def _reply(self, status: int, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self):
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length) if length else b"{}"
        try:
            return json.loads(raw or b"{}")
        except json.JSONDecodeError as exc:
            raise ValueError(f"request body is not valid JSON: {exc}")

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        parsed = urlparse(self.path)
        try:
            if parsed.path == "/healthz":
                self._reply(200, self.service.health())
            elif parsed.path == "/plan":
                self._reply(200, self.service.current_plan())
            elif parsed.path == "/plan/deltas":
                query = parse_qs(parsed.query)
                since = int(query.get("since", ["0"])[0])
                self._reply(200, self.service.deltas_since(since))
            elif parsed.path == "/metrics":
                self._reply(200, self.service.metrics())
            else:
                self._reply(404, {"error": f"no such path {parsed.path!r}"})
        except ValueError as exc:
            self._reply(400, {"error": str(exc)})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        parsed = urlparse(self.path)
        try:
            if parsed.path == "/requests":
                events = _coerced(_submit_requests_from, self._read_json())
                self._reply(200, {"acks": self.service.submit(events)})
            elif parsed.path == "/quota":
                event = _coerced(_quota_from, self._read_json())
                self._reply(200, {"acks": self.service.submit([event])})
            elif parsed.path == "/outages":
                event = _coerced(_outage_from, self._read_json())
                self._reply(200, {"acks": self.service.submit([event])})
            elif parsed.path == "/shutdown":
                report = self.service.finalize()
                self._reply(200, {"report": report.to_dict()})
                self.service.request_stop()
            else:
                self._reply(404, {"error": f"no such path {parsed.path!r}"})
        except KeyError as missing:
            self._reply(400, {"error": f"missing field {missing.args[0]!r}"})
        except ValueError as exc:
            self._reply(400, {"error": str(exc)})
        except RuntimeError as exc:
            self._reply(409, {"error": str(exc)})


class SchedulerService:
    """The daemon: a ticking session plus its HTTP control plane.

    ``port=0`` binds an ephemeral port (read it back from ``address``).
    ``pace_s`` throttles the background tick thread (0 = free-running);
    a paced daemon leaves room between ticks for clients to steer the
    plan.  :meth:`serve_forever` blocks until a client POSTs
    ``/shutdown`` (or :meth:`request_stop` is called) and returns the
    finalized report; the session is finalized at whatever step the
    clock reached.
    """

    def __init__(self, session: SimulationSession, *,
                 host: str = "127.0.0.1", port: int = 0,
                 pace_s: float = 0.0):
        self.session = session
        self.pace_s = pace_s
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._server = ThreadingHTTPServer((host, port), _Handler)
        self._server.daemon_threads = True
        self._server.service = self
        self._ticker: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) pair."""
        host, port = self._server.server_address[:2]
        return host, port

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # -- session access (handler-facing, all under the lock) ----------------

    def health(self) -> dict:
        with self._lock:
            snap = self.session.snapshot()
        return {
            "status": "ok",
            "step": snap["step"],
            "horizon_steps": snap["horizon_steps"],
            "now": snap["now"],
            "finished": snap["finished"],
        }

    def current_plan(self) -> dict:
        with self._lock:
            return {
                "step": self.session.step,
                "links": self.session.plan(),
            }

    def deltas_since(self, since: int) -> dict:
        with self._lock:
            deltas = self.session.plan_deltas(since)
            latest = len(self.session._deltas)
        return {
            "since": since,
            "latest_seq": latest,
            "deltas": [d.to_dict() for d in deltas],
        }

    def metrics(self) -> dict:
        with self._lock:
            snap = self.session.snapshot()
            demand = self.session.simulation.demand
            if demand is not None:
                snap["tenant_reports"] = demand.accountant.summary()
        return snap

    def submit(self, events) -> list[dict]:
        with self._lock:
            return self.session.ingest(events)

    def finalize(self) -> SimulationReport:
        self._stop.set()
        if self._ticker is not None and self._ticker.is_alive():
            self._ticker.join()
        with self._lock:
            return self.session.finalize()

    # -- lifecycle ----------------------------------------------------------

    def _tick_loop(self) -> None:
        while not self._stop.is_set():
            with self._lock:
                if self.session.step >= self.session.horizon_steps:
                    break
                self.session.advance(steps=1)
            if self.pace_s > 0.0:
                self._stop.wait(self.pace_s)

    def request_stop(self) -> None:
        """Stop ticking and unblock :meth:`serve_forever` (idempotent)."""
        self._stop.set()
        # shutdown() blocks until serve_forever exits, so never call it
        # from a handler thread directly.
        threading.Thread(target=self._server.shutdown, daemon=True).start()

    def serve_forever(self) -> SimulationReport:
        """Tick and serve until stopped; return the finalized report."""
        self._ticker = threading.Thread(target=self._tick_loop, daemon=True)
        self._ticker.start()
        try:
            self._server.serve_forever(poll_interval=0.05)
        finally:
            self._server.server_close()
        return self.finalize()
