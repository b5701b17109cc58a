"""The historian's routes, mounted on the one gateway a service binds.

``HistorianService.bind_gateway`` replaces that gateway's table with its
own rows added; another gateway keeps its table.  Over HTTP a query is
bounded: ``limit`` below 1 is refused, because the store reads 0 (and
SQLite ``LIMIT -1``) as "every row".
"""

from types import SimpleNamespace

import pytest

from repro.core import RTMClient
from repro.core.client import RTMClientError
from repro.fleet import FleetGateway
from repro.historian import Historian, HistorianService

_IDLE_MANAGER = SimpleNamespace(
    live_workers=dict, scrape_targets=list, final_metrics=dict,
    profiles=dict, status=lambda: {"summary": {}, "workers": [], "jobs": []})


@pytest.fixture
def recorded(tmp_path):
    """A bound gateway over a store holding 50 snapshot records."""
    historian = Historian(tmp_path / "h.db")
    service = HistorianService(historian, campaign_id="c")
    for i in range(50):
        historian.record("c", "snapshot", {"i": i})
    gateway = FleetGateway(_IDLE_MANAGER)
    service.bind_gateway(gateway)
    gateway.start()
    yield gateway
    gateway.stop()
    historian.close()


def test_a_query_reads_at_most_its_limit(recorded):
    client = RTMClient(recorded.url)
    assert len(client.historian_query(campaign="c", limit=10)) == 10
    assert len(client.historian_query(campaign="c")) == 50


@pytest.mark.parametrize("limit", [0, -1])
def test_a_query_without_a_bound_is_refused(recorded, limit):
    client = RTMClient(recorded.url)
    with pytest.raises(RTMClientError) as refused:
        client.historian_query(campaign="c", limit=limit)
    assert "-> 400" in str(refused.value)
    assert "'limit' must be at least 1" in str(refused.value)


def test_binding_mounts_the_rows_on_that_gateway_only(tmp_path):
    historian = Historian(tmp_path / "h.db")
    bound, other = FleetGateway(_IDLE_MANAGER), FleetGateway(_IDLE_MANAGER)
    fleet_table = dict(bound.routes)
    HistorianService(historian, campaign_id="c").bind_gateway(bound)
    assert set(fleet_table) < set(bound.routes)
    assert ("GET", "/api/historian") in bound.routes
    assert other.routes == fleet_table
    for gateway in (bound, other):
        gateway.start()
        gateway.stop()
    historian.close()
