"""The per-GPU command processor.

Relays commands between the host driver and the GPU-internal dispatcher.
Kept as a distinct component (as in MGPUSim) so the monitored component
tree shows the real control-plane topology.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from ..akita.component import TickingComponent
from ..akita.engine import Engine
from ..akita.message import Msg
from ..akita.port import Port
from ..akita.ticker import GHZ
from .protocol import KernelCompleteMsg, LaunchKernelMsg


class CommandProcessor(TickingComponent):
    """Front door of one GPU chiplet."""

    def __init__(self, name: str, engine: Engine, freq: float = GHZ):
        super().__init__(name, engine, freq)
        self.driver_port = self.add_port("ToDriver", 4)
        self.dispatcher_port = self.add_port("ToDispatcher", 4)
        self._dispatcher_in: Optional[Port] = None
        self._to_dispatcher: Deque[Msg] = deque()
        self._to_driver: Deque[Msg] = deque()
        self._reply_port: Optional[Port] = None
        self.num_kernels_launched = 0

    def connect(self, dispatcher_in: Port) -> None:
        self._dispatcher_in = dispatcher_in

    def tick(self) -> bool:
        # Enter a sub-step only when its input holds work.
        progress = False
        queue = self._to_dispatcher
        if queue:
            progress = self.dispatcher_port.drain(queue, len(queue)) > 0
        queue = self._to_driver
        if queue:
            progress |= self.driver_port.drain(queue, len(queue)) > 0
        if self.driver_port.incoming:
            progress |= self._intake_driver()
        if self.dispatcher_port.incoming:
            progress |= self._intake_dispatcher()
        return progress

    def _intake_driver(self) -> bool:
        progress = False
        items = self.driver_port.incoming
        while items:
            msg = items[0]
            if not isinstance(msg, LaunchKernelMsg):
                break
            self.driver_port.retrieve_incoming()
            assert self._dispatcher_in is not None
            fwd = LaunchKernelMsg(self._dispatcher_in, msg.kernel,
                                  msg.wg_ids)
            self._reply_port = msg.src
            self._to_dispatcher.append(fwd)
            self.num_kernels_launched += 1
            progress = True
        return progress

    def _intake_dispatcher(self) -> bool:
        progress = False
        items = self.dispatcher_port.incoming
        while items:
            msg = items[0]
            if not isinstance(msg, KernelCompleteMsg):
                break
            self.dispatcher_port.retrieve_incoming()
            fwd = KernelCompleteMsg(self._reply_port, msg.launch_id)
            self._to_driver.append(fwd)
            progress = True
        return progress
