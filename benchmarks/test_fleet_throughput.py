"""Fleet orchestration: the post-campaign federated scrape.

Not a paper figure — the question a sweep user asks: how much wall time
does the orchestration layer itself add?  The warm persistent-worker
pool pays interpreter start, imports and server bind once per *worker*
instead of once per *job*; against the one-subprocess-per-attempt
dispatch it replaced it was last measured at 3.77x (2 workers) and
3.37x (4 workers) on an 8-short-job campaign.  That baseline, and the
benchmark that timed it, were removed in PR 14 together with the
dispatch mode itself — ``fleet_throughput_summary.txt`` at the repo
root is the frozen last measurement, and rtmbench's
``overhead_ratio@fleet`` is the live gate on per-job orchestration
cost.

What stays here is the other half of the warm pool's contract: every
finished job answers a federated scrape from the control-channel cache
— no live scraping, no timeouts — so one scrape after the campaign is
sub-second however many workers have moved on.
"""

import time

import pytest

from repro.core import RTMClient
from repro.fleet import FleetGateway, FleetManager, JobQueue, JobSpec

pytestmark = pytest.mark.slow

_JOB_PARAMS = {"num_samples": 1024}


def test_post_campaign_federated_scrape_is_sub_second():
    queue = JobQueue()
    queue.submit_all([JobSpec(f"scrape-{i}", "fir",
                              params=dict(_JOB_PARAMS))
                      for i in range(3)])
    manager = FleetManager(queue, num_workers=3)
    gateway = FleetGateway(manager)
    gateway.start()
    manager.start()
    assert manager.wait(timeout=300.0)
    try:
        client = RTMClient(gateway.url)
        laps = []
        for _ in range(3):
            start = time.perf_counter()
            text = client.metrics_text()
            laps.append(time.perf_counter() - start)
        # Every finished job answers from the control-channel cache —
        # no live scraping, no timeouts — labelled (worker, job).
        for i in range(3):
            assert f'job="scrape-{i}"' in text
        median = sorted(laps)[1]
        print(f"\nfederated scrape latency: median {median * 1e3:.1f}ms "
              f"over {len(laps)} scrapes")
        assert median < 1.0, laps
    finally:
        manager.stop()
        gateway.stop()
