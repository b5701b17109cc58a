"""The gateway in isolation, against a stub manager and a fake worker.

``FleetGateway`` documents a four-method manager contract
(``live_workers`` / ``scrape_targets`` / ``final_metrics`` /
``status``); these tests hold it to that contract so the gateway stays
testable without subprocesses.
"""

import json
from urllib.error import HTTPError
from urllib.request import Request, urlopen

import pytest

from repro.core import RTMClient, RTMClientError, RTMConnectionError
from repro.core.http import HTTPServerThread, NotFound, Response
from repro.fleet import FleetGateway


class _StubManager:
    """The manager contract, minus the subprocesses.

    ``live`` is ``{worker_id: url}``; ``running`` is ``{worker_id:
    job_id}`` (live workers mid-job, i.e. scrape targets); ``final`` is
    ``{job_id: {worker_id, attempt, text}}`` — the warm-fleet,
    job-keyed shape.
    """

    def __init__(self, live=None, final=None, summary=None,
                 running=None, restarts=0):
        self.live = dict(live or {})
        self.final = dict(final or {})
        self.running = dict(running or {})
        self.restarts = restarts
        self.summary = dict(summary or {"queued": 0, "running": 0,
                                        "completed": 0, "failed": 0,
                                        "total": 0, "retries": 0})

    def live_workers(self):
        return dict(self.live)

    def scrape_targets(self):
        return [{"worker_id": worker_id, "job_id": job_id,
                 "url": self.live[worker_id]}
                for worker_id, job_id in self.running.items()]

    def final_metrics(self):
        return {job_id: dict(entry)
                for job_id, entry in self.final.items()}

    def status(self):
        return {"num_workers": 2, "drained": False,
                "worker_restarts": self.restarts,
                "summary": dict(self.summary), "workers": [], "jobs": []}


def _boom(server, params):
    raise NotFound("no such endpoint")


#: A stand-in worker API.
_FAKE_WORKER = {
    ("GET", "/metrics"): lambda server, params: Response(
        b"# HELP up Up.\n# TYPE up gauge\nup 1\n",
        "text/plain; version=0.0.4"),
    ("GET", "/api/overview"):
        lambda server, params: {"run_state": "running"},
    ("GET", "/api/boom"): _boom,
}


@pytest.fixture()
def fake_worker():
    server = HTTPServerThread(_FAKE_WORKER)
    server.start()
    yield server
    server.stop()


def _gateway(manager):
    gateway = FleetGateway(manager)
    gateway.start()
    return gateway


def test_fleet_status_view_includes_gateway_url():
    gateway = _gateway(_StubManager())
    try:
        status = RTMClient(gateway.url).fleet_status()
        assert status["gateway_url"] == gateway.url
        assert status["summary"]["total"] == 0
    finally:
        gateway.stop()


def test_unknown_route_is_404():
    gateway = _gateway(_StubManager())
    try:
        with pytest.raises(RTMClientError, match="404"):
            RTMClient(gateway.url)._get("/api/nonesuch")
    finally:
        gateway.stop()


def test_proxy_reaches_a_live_worker(fake_worker):
    manager = _StubManager(live={"w1": fake_worker.url})
    gateway = _gateway(manager)
    try:
        client = RTMClient(gateway.url)
        assert client.fleet_worker_get("w1", "/api/overview") == \
            {"run_state": "running"}
    finally:
        gateway.stop()


def test_proxy_unknown_worker_is_404(fake_worker):
    gateway = _gateway(_StubManager(live={"w1": fake_worker.url}))
    try:
        with urlopen_error(gateway.url + "/api/fleet/w9/api/overview") \
                as exc:
            assert exc.code == 404
            assert "unknown" in json.loads(exc.read())["error"]
    finally:
        gateway.stop()


def test_proxy_dead_worker_is_502():
    # w1 is "live" per the manager but nothing listens on its port.
    gateway = _gateway(_StubManager(live={"w1": "http://127.0.0.1:9"}))
    try:
        with urlopen_error(gateway.url + "/api/fleet/w1/api/overview") \
                as exc:
            assert exc.code == 502
            assert "unreachable" in json.loads(exc.read())["error"]
    finally:
        gateway.stop()


def test_proxy_passes_worker_verdict_through(fake_worker):
    gateway = _gateway(_StubManager(live={"w1": fake_worker.url}))
    try:
        with urlopen_error(gateway.url + "/api/fleet/w1/api/boom") \
                as exc:
            assert exc.code == 404  # the worker's own 404, not ours
            assert "no such endpoint" in json.loads(exc.read())["error"]
    finally:
        gateway.stop()


def test_proxy_without_sub_path_is_400():
    gateway = _gateway(_StubManager())
    try:
        with urlopen_error(gateway.url + "/api/fleet/w1") as exc:
            assert exc.code == 400
    finally:
        gateway.stop()


_UP = "# HELP up Up.\n# TYPE up gauge\nup {v}\n"


def test_federated_metrics_merges_live_and_finished_jobs(fake_worker):
    manager = _StubManager(
        live={"w1": fake_worker.url},
        running={"w1": "job-live"},
        final={"job-old": {"worker_id": "w2", "attempt": 0,
                           "text": _UP.format(v=0)}})
    gateway = _gateway(manager)
    try:
        text = RTMClient(gateway.url).metrics_text()
        # The running job is scraped live; the finished one comes from
        # the control-channel cache; both carry (worker, job) labels.
        assert 'up{worker="w1",job="job-live"} 1' in text
        assert 'up{worker="w2",job="job-old"} 0' in text
        # The gateway's own fleet families lead, un-labelled.
        assert "rtm_fleet_workers_live 1" in text
        assert text.splitlines().count("# TYPE up gauge") == 1
    finally:
        gateway.stop()


def test_finished_job_is_not_double_scraped_from_its_worker(
        fake_worker):
    """Once a job's final exposition landed, a live scrape of the same
    job must not add a second copy of its series — the warm worker may
    not have picked up its next job yet."""
    manager = _StubManager(
        live={"w1": fake_worker.url},
        running={"w1": "job-a"},
        final={"job-a": {"worker_id": "w1", "attempt": 0,
                         "text": _UP.format(v=0)}})
    gateway = _gateway(manager)
    try:
        text = RTMClient(gateway.url).metrics_text()
        assert text.count('job="job-a"') == 1
        assert 'up{worker="w1",job="job-a"} 0' in text  # the final won
    finally:
        gateway.stop()


def test_federated_metrics_reports_unreachable_workers():
    gateway = _gateway(_StubManager(live={"w1": "http://127.0.0.1:9"},
                                    running={"w1": "job-a"}))
    try:
        text = RTMClient(gateway.url).metrics_text()
        assert "# worker w1 unreachable:" in text
        assert "rtm_fleet_workers_live 1" in text
    finally:
        gateway.stop()


def test_fleet_gauges_track_the_queue_summary():
    manager = _StubManager(summary={"queued": 2, "running": 1,
                                    "completed": 3, "failed": 1,
                                    "total": 7, "retries": 2},
                           restarts=1)
    gateway = _gateway(manager)
    try:
        text = RTMClient(gateway.url).metrics_text()
        assert 'rtm_fleet_jobs{state="queued"} 2' in text
        assert 'rtm_fleet_jobs{state="completed"} 3' in text
        assert "rtm_fleet_job_retries_total 2" in text
        assert "rtm_fleet_worker_restarts_total 1" in text
    finally:
        gateway.stop()


def test_per_job_metrics_route_serves_the_cached_final():
    manager = _StubManager(
        final={"job-a": {"worker_id": "w3", "attempt": 1,
                         "text": _UP.format(v=1)}})
    gateway = _gateway(manager)
    try:
        client = RTMClient(gateway.url)
        text = client.fleet_job_metrics("job-a")
        assert 'up{worker="w3",job="job-a"} 1' in text
        with pytest.raises(RTMClientError, match="404"):
            client.fleet_job_metrics("job-z")
    finally:
        gateway.stop()


def test_client_fast_fails_against_a_stopped_gateway():
    gateway = _gateway(_StubManager())
    url = gateway.url
    gateway.stop()
    with pytest.raises(RTMConnectionError):
        RTMClient(url).fleet_status()


class urlopen_error:
    """Context manager asserting an HTTPError and yielding it."""

    def __init__(self, url):
        self.url = url

    def __enter__(self):
        try:
            urlopen(Request(self.url, method="GET"), timeout=5.0)
        except HTTPError as exc:
            return exc
        raise AssertionError(f"{self.url} unexpectedly succeeded")

    def __exit__(self, *exc_info):
        return False
