"""HTTP contract tests for the scheduler daemon.

Each test boots a :class:`SchedulerService` on an ephemeral port
(``port=0``), drives it with stdlib ``http.client``, and shuts it down
via ``POST /shutdown`` -- the same path a real client uses.
"""

import contextlib
import http.client
import json
import threading
import time
from datetime import datetime

import pytest

from repro.core.scenarios import ScenarioSpec
from repro.demand import tenant_mix
from repro.service import SchedulerService
from repro.simulation import SimulationSession


def make_service(pace_s=0.01, **spec_overrides):
    params = dict(num_satellites=4, num_stations=8, duration_s=1800.0,
                  tenants=tenant_mix("balanced"), value="deadline")
    params.update(spec_overrides)
    spec = ScenarioSpec.dgs(**params)
    return SchedulerService(SimulationSession(spec), port=0, pace_s=pace_s)


@pytest.fixture()
def daemon():
    """A running daemon + a request helper; always shut down cleanly."""
    with serving(make_service()) as running:
        yield running


@contextlib.contextmanager
def serving(service):
    """Run ``service`` in a thread; yield it with a request helper."""
    result = {}
    thread = threading.Thread(
        target=lambda: result.update(report=service.serve_forever()),
        daemon=True,
    )
    thread.start()
    host, port = service.address

    def call(method, path, payload=None):
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            body = None if payload is None else json.dumps(payload)
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    try:
        yield service, call
    finally:
        if not service.session.finished:
            call("POST", "/shutdown")
        else:
            service.request_stop()
        thread.join(timeout=30)
        assert not thread.is_alive(), "daemon failed to shut down"


class TestEndpoints:
    def test_healthz(self, daemon):
        service, call = daemon
        status, body = call("GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["horizon_steps"] == service.session.horizon_steps
        assert 0 <= body["step"] <= body["horizon_steps"]

    def test_submit_and_duplicate_ack(self, daemon):
        service, call = daemon
        sat = service.session.simulation.satellites[0].satellite_id
        request = {"request_id": "req-1", "tenant_id": "premium",
                   "satellite_id": sat, "chunks": 2}
        status, body = call("POST", "/requests", {"requests": [request]})
        assert status == 200
        assert body["acks"][0]["status"] == "queued"
        status, body = call("POST", "/requests", request)  # bare object form
        assert status == 200
        assert body["acks"][0]["status"] == "duplicate"

    def test_quota_and_outage_endpoints(self, daemon):
        service, call = daemon
        station = service.session.simulation.network[0].station_id
        status, body = call("POST", "/quota",
                            {"tenant_id": "standard",
                             "quota_gb_per_day": 42.0})
        assert status == 200
        assert body["acks"][0] == {"event": "quota_update",
                                   "tenant_id": "standard",
                                   "status": "queued"}
        status, body = call("POST", "/outages",
                            {"station_id": station,
                             "start": "2020-06-01T00:10:00",
                             "end": "2020-06-01T00:20:00"})
        assert status == 200
        assert body["acks"][0]["status"] == "queued"

    def test_plan_and_deltas(self, daemon):
        service, call = daemon
        status, body = call("GET", "/plan")
        assert status == 200
        assert isinstance(body["links"], list)
        status, body = call("GET", "/plan/deltas?since=0")
        assert status == 200
        assert body["since"] == 0
        assert body["latest_seq"] >= len(body["deltas"])
        for delta in body["deltas"]:
            assert set(delta) == {"seq", "step", "when",
                                  "assigned", "released"}

    def test_metrics_carry_tenant_reports(self, daemon):
        _service, call = daemon
        status, body = call("GET", "/metrics")
        assert status == 200
        assert "delivered_bits" in body
        assert set(body["tenant_reports"]) == {"premium", "standard",
                                               "bulk"}

    def test_shutdown_returns_report(self, daemon):
        service, call = daemon
        status, body = call("POST", "/shutdown")
        assert status == 200
        report = body["report"]
        assert report["delivered_bits"] >= 0.0
        assert service.session.finished


class TestErrorContract:
    def test_unknown_path_404(self, daemon):
        _service, call = daemon
        for method, path in (("GET", "/nope"), ("POST", "/nope")):
            status, body = call(method, path)
            assert status == 404
            assert "error" in body

    def test_unknown_tenant_400(self, daemon):
        service, call = daemon
        sat = service.session.simulation.satellites[0].satellite_id
        status, body = call("POST", "/requests",
                            {"request_id": "x", "tenant_id": "nope",
                             "satellite_id": sat})
        assert status == 400
        assert "unknown tenant" in body["error"]

    def test_missing_field_400(self, daemon):
        _service, call = daemon
        status, body = call("POST", "/requests", {"request_id": "x"})
        assert status == 400
        assert "missing field" in body["error"]
        status, body = call("POST", "/quota", {"tenant_id": "premium"})
        assert status == 400
        assert "missing field" in body["error"]

    def test_unknown_request_field_400(self, daemon):
        _service, call = daemon
        status, body = call("POST", "/requests",
                            {"request_id": "x", "tenant_id": "premium",
                             "satellite_id": "s", "surprise": 1})
        assert status == 400
        assert "unknown request fields" in body["error"]

    def test_bad_json_body_400(self, daemon):
        service, _call = daemon
        host, port = service.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("POST", "/requests", body="{not json")
            response = conn.getresponse()
            body = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert "not valid JSON" in body["error"]

    def test_non_object_body_400(self, daemon):
        """A JSON value other than an object where one is required used
        to raise TypeError in the handler and drop the connection."""
        _service, call = daemon
        for path in ("/quota", "/outages"):
            for body in ([1, 2], "abc", []):
                status, reply = call("POST", path, body)
                assert status == 400, (path, body)
                assert "JSON object" in reply["error"]
        assert call("GET", "/healthz")[0] == 200

    def test_wrong_field_type_400(self, daemon):
        service, call = daemon
        sat = service.session.simulation.satellites[0].satellite_id
        for path, body in (
            ("/quota", {"tenant_id": "premium", "quota_gb_per_day": {}}),
            ("/requests", {"request_id": "x", "tenant_id": "premium",
                           "satellite_id": sat, "chunks": [1]}),
        ):
            status, reply = call("POST", path, body)
            assert status == 400, (path, body)
            assert "wrong JSON type" in reply["error"]
        assert service.session.snapshot()["pending_events"] == 0

    def test_non_finite_quota_400(self, daemon):
        _service, call = daemon
        for quota in ("nan", "inf", "-inf"):
            status, reply = call("POST", "/quota",
                                 {"tenant_id": "premium",
                                  "quota_gb_per_day": quota})
            assert status == 400, quota
            assert "quota_gb_per_day" in reply["error"]

    @staticmethod
    def _assert_deadlines_400_and_ticking(deadlines):
        service = make_service(pace_s=0.02, duration_s=3600.0)
        with serving(service) as (service, call):
            sat = service.session.simulation.satellites[0].satellite_id
            for deadline in deadlines:
                status, reply = call("POST", "/requests", {
                    "request_id": f"bad-{deadline}", "tenant_id": "premium",
                    "satellite_id": sat, "sla_deadline_s": deadline,
                })
                assert status == 400, deadline
                assert "sla_deadline_s" in reply["error"]
            assert service.session.snapshot()["pending_events"] == 0
            give_up = time.monotonic() + 30.0
            while call("GET", "/healthz")[1]["step"] < \
                    service.session.horizon_steps:
                assert time.monotonic() < give_up, "the session stopped"
                time.sleep(0.05)

    def test_non_finite_deadline_400_and_ticking(self):
        """A NaN deadline used to be acked ``queued``; the next capture
        then raised in the tick thread and the session stopped while
        ``/healthz`` still answered."""
        self._assert_deadlines_400_and_ticking(("nan", "inf", "-inf"))

    def test_out_of_range_deadline_400_and_ticking(self):
        """A finite deadline past what a ``datetime`` holds used to be
        acked ``queued``; the next capture then raised OverflowError in
        the tick thread."""
        self._assert_deadlines_400_and_ticking((1e15, 1e13, 3e11))

    def test_bad_since_400(self, daemon):
        _service, call = daemon
        status, body = call("GET", "/plan/deltas?since=minus-one")
        assert status == 400
        status, body = call("GET", "/plan/deltas?since=-1")
        assert status == 400
        assert ">= 0" in body["error"]

    def test_events_after_finalize_409(self, daemon):
        service, call = daemon
        # Finalize the session directly but leave the HTTP server up, so
        # the late submission still gets an HTTP answer (409, not a
        # connection error).
        service.finalize()
        sat = service.session.simulation.satellites[0].satellite_id
        status, body = call("POST", "/requests",
                            {"request_id": "late", "tenant_id": "premium",
                             "satellite_id": sat})
        assert status == 409
        assert "finalized" in body["error"]


class TestServiceObject:
    def test_ephemeral_port_bound(self):
        service = make_service()
        host, port = service.address
        assert host == "127.0.0.1"
        assert port > 0
        assert service.url == f"http://{host}:{port}"
        service._server.server_close()

    def test_finalize_without_serving(self):
        """finalize() works standalone -- no HTTP round-trip required."""
        service = make_service()
        report = service.finalize()
        assert report.delivered_bits >= 0.0
        assert service.finalize() is report  # idempotent passthrough
        service._server.server_close()

    def test_free_running_daemon_reaches_horizon(self):
        service = make_service(pace_s=0.0, duration_s=600.0)
        result = {}
        thread = threading.Thread(
            target=lambda: result.update(report=service.serve_forever()),
            daemon=True,
        )
        thread.start()
        # The un-paced ticker races to the horizon; wait for it, then stop.
        for _ in range(600):
            if service.session.step >= service.session.horizon_steps:
                break
            time.sleep(0.05)
        service.request_stop()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert result["report"].to_json() == \
            service.session.finalize().to_json()


class TestOutageTimeZones:
    """Outage times convert to the simulation clock, naive UTC."""

    def test_offset_aware_and_mixed_notices_keep_the_session_ticking(self):
        service = make_service(pace_s=0.02, duration_s=3600.0)
        with serving(service) as (service, call):
            station = service.session.simulation.network[0].station_id
            for start, end in (
                ("2020-06-01T02:40:00+02:00", "2020-06-01T00:50:00"),
                ("2020-06-01T03:10:00+02:00", "2020-06-01T03:20:00+02:00"),
            ):
                status, body = call("POST", "/outages", {
                    "station_id": station, "start": start, "end": end,
                })
                assert status == 200
                assert body["acks"][0]["status"] == "queued"
            deadline = time.monotonic() + 30.0
            while call("GET", "/healthz")[1]["step"] < \
                    service.session.horizon_steps:
                assert time.monotonic() < deadline, "the session stopped"
                time.sleep(0.05)
            outages = service.session.simulation.outages.outages
            assert [(o.start, o.end) for o in outages] == [
                (datetime(2020, 6, 1, 0, 40), datetime(2020, 6, 1, 0, 50)),
                (datetime(2020, 6, 1, 1, 10), datetime(2020, 6, 1, 1, 20)),
            ]
