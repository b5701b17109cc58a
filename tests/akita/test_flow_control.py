"""The flow-control invariant of every port, held at every event boundary.

A connection reserves a slot on the destination buffer when it accepts
a send (``Buffer._reserved``, which ``Buffer.free_slots`` counts) and
gives it back when the message lands or is dropped.  So between any
two events, for every port of the platform:

* its buffer's reservations are exactly the pending ``DeliveryEvent``s
  addressed to it, and
* the queued messages plus the reserved slots never exceed capacity.
"""

from collections import Counter

import pytest

from repro.akita import HookPos
from repro.akita.connection import DeliveryEvent
from repro.gpu import GPUPlatform, GPUPlatformConfig
from tests.akita.kernels import KERNELS


def _violations(ports, heap):
    in_flight = Counter(entry[3].msg.dst for entry in heap
                        if type(entry[3]) is DeliveryEvent)
    return [(port.name, len(port.incoming), port.buf._reserved,
             in_flight[port])
            for port in ports
            if port.buf._reserved != in_flight[port]
            or len(port.incoming) + port.buf._reserved > port.buf.capacity]


@pytest.mark.parametrize("kernel", ["fir256", "storestorm_small"])
def test_reservations_are_the_deliveries_in_flight(kernel):
    platform = GPUPlatform(GPUPlatformConfig.small(num_chiplets=2))
    KERNELS[kernel].make().enqueue(platform.driver)
    engine = platform.engine
    ports = [port for comp in platform.simulation.components
             for port in comp.ports]
    heap = engine._queue._heap
    first_bad, boundaries, most_reserved = [], 0, 0

    def check(ctx):
        nonlocal boundaries, most_reserved
        boundaries += 1
        if not first_bad:
            first_bad.extend((ctx.now, *row)
                             for row in _violations(ports, heap))
        most_reserved = max(most_reserved,
                            max(port.buf._reserved for port in ports))

    engine.accept_hook(check, positions=(HookPos.AFTER_EVENT,))
    assert platform.run()
    assert not first_bad, f"(time, port, queued, reserved, in flight): " \
                          f"{first_bad[:5]}"
    assert boundaries == engine.event_count
    assert most_reserved > 1, "the run never had two messages in flight " \
                              "to one port: the check saw nothing"
    assert not heap and not _violations(ports, heap), \
        "a reservation outlived the run"
