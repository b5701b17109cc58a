"""The load generator: one closed-loop client, one connection at a time.

Both clients send the next request only after the previous one
answered (``nproc`` is 2: one core for the simulation, one for this
process), so a slower server receives less load.  ``watched`` thinks
20 ms between requests like a person at the dashboard; ``scraped``
thinks 10 ms like a scraper in a hurry.  (A reader that never thinks
was tried: on this host its run-to-run spread was half again as wide,
for an overhead ratio 8% higher.)
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List, Tuple

from repro.core import RTMClient, RTMClientError

from .proc import Child, ChildError

#: Requests that take longer than this count as failed.
REQUEST_TIMEOUT = 5.0


def _dashboard_cycle(client: RTMClient, component: str):
    return (("overview", client.overview),
            ("progress", client.progress),
            ("buffers", lambda: client.buffers(top=20)),
            ("component", lambda: client.component(component)))


def _scraper_cycle(client: RTMClient):
    return (("metrics_text", client.metrics_text),
            ("metrics_snapshot",
             lambda: client.metrics_snapshot(delta=True)),
            ("trace_query",
             lambda: client.trace_query(kind="deliver", limit=100)))


def drive(child: Child, kind: str, rng: random.Random,
          think_s: float) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Send ``run``, generate *kind* load until the child reports
    ``done``; returns ``(done event, load record)``.

    The seed chooses only what a user would: which component each
    dashboard cycle clicks and the +-25% jitter on *think_s*.
    """
    # Retries off: a transport error is a failed request, not a
    # slower one.
    client = RTMClient(child.ready["url"], timeout=REQUEST_TIMEOUT,
                       max_retries=0)
    components = child.ready["components"]
    requests: List[Tuple[str, float, float]] = []
    failures = 0
    child.send({"cmd": "run"})
    started = time.monotonic()
    done = None
    while done is None:
        cycle = (_scraper_cycle(client) if kind == "scraper" else
                 _dashboard_cycle(client, rng.choice(components)))
        for endpoint, call in cycle:
            start = time.monotonic()
            try:
                call()
            except (RTMClientError, OSError):
                failures += 1
            requests.append((endpoint, start, time.monotonic()))
            done = child.poll(think_s * rng.uniform(0.75, 1.25))
            if done is not None:
                break
    if done.get("event") != "done":
        raise ChildError(f"{child.run_id}: wanted 'done', got {done!r}")
    return done, {"requests": requests, "failures": failures,
                  "seconds": time.monotonic() - started}
