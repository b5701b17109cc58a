"""The per-chiplet RDMA engine.

Gathers memory requests from the chiplet's L1 caches whose target page
lives on another chiplet, ships them across the inter-chiplet network,
and injects requests arriving *from* other chiplets into the local L2.

Its ``transactions`` count — requests gathered from local L1s still
waiting for remote data — is the headline number of case study 1: with
64 L1s × 16 MSHR entries each and most pages remote, it sits around a
thousand, flagging the (slow) network as the root bottleneck.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

from ..akita.component import TickingComponent
from ..akita.engine import Engine
from ..akita.port import Port
from ..akita.ticker import GHZ
from .mem import MemReq, MemRsp, NetMsg

#: address -> local L2 bank top port
BankRouteFn = Callable[[int], Port]


class RDMAEngine(TickingComponent):
    """Remote-memory access engine bridging chiplets."""

    def __init__(self, name: str, engine: Engine, chiplet_id: int,
                 freq: float = GHZ, l1_buf: int = 8, l2_buf: int = 8,
                 net_buf: int = 16, width: int = 4,
                 net_queue_capacity: int = 4096):
        super().__init__(name, engine, freq)
        self.chiplet_id = chiplet_id
        self.l1_port = self.add_port("ToL1", l1_buf)
        self.l2_port = self.add_port("ToL2", l2_buf)
        self.net_port = self.add_port("NetPort", net_buf)
        self.width = width
        self.net_queue_capacity = net_queue_capacity
        self._switch_port: Optional[Port] = None
        self._remote_ports: Dict[int, Port] = {}  # chiplet id -> NetPort
        self._bank_route: Optional[BankRouteFn] = None
        self._chiplet_of: Optional[Callable[[int], int]] = None
        # Requests gathered from local L1s awaiting remote completion.
        self._outgoing: Dict[int, MemReq] = {}
        # Requests arriving from remote chiplets, in the local L2.
        self._incoming: Dict[int, Tuple[MemReq, Port]] = {}
        self._to_net: Deque[NetMsg] = deque()
        self._to_l1: Deque[MemRsp] = deque()
        self._to_l2: Deque[MemReq] = deque()
        self.num_forwarded = 0

    def connect(self, switch_port: Port, remote_ports: Dict[int, Port],
                bank_route: BankRouteFn,
                chiplet_of: Callable[[int], int]) -> None:
        """Wire the engine into the network fabric.

        Parameters
        ----------
        switch_port:
            The network switch port this engine's NetPort talks to.
        remote_ports:
            chiplet id → that chiplet's RDMA NetPort.
        bank_route:
            address → local L2 bank TopPort.
        chiplet_of:
            address → owning chiplet id.
        """
        self._switch_port = switch_port
        self._remote_ports = dict(remote_ports)
        self._bank_route = bank_route
        self._chiplet_of = chiplet_of

    # ------------------------------------------------------------------
    @property
    def transactions(self) -> int:
        """Outstanding requests gathered from local L1s (monitored —
        the ≈1000 value in Figure 5(d))."""
        return len(self._outgoing) + len(self._to_net)

    @property
    def incoming_transactions(self) -> int:
        """Remote-origin requests in flight in the local L2."""
        return len(self._incoming)

    # ------------------------------------------------------------------
    def tick(self) -> bool:
        # Enter a sub-step only when its input holds work.
        progress = False
        if self._to_l1:
            progress = self.l1_port.drain(self._to_l1, self.width) > 0
        if self._to_l2:
            progress |= self.l2_port.drain(self._to_l2, self.width) > 0
        if self._to_net:
            sent = self.net_port.drain(self._to_net, self.width)
            self.num_forwarded += sent
            progress |= sent > 0
        if self.l1_port.incoming:
            progress |= self._intake_from_l1()
        if self.net_port.incoming:
            progress |= self._intake_from_net()
        if self.l2_port.incoming:
            progress |= self._intake_from_l2()
        return progress

    # -- intake -----------------------------------------------------------
    def _intake_from_l1(self) -> bool:
        """Local L1 misses to remote pages: wrap and queue for the net."""
        progress = False
        items = self.l1_port.incoming
        for _ in range(self.width):
            if not items or len(self._to_net) >= self.net_queue_capacity:
                break
            msg = items[0]
            if not isinstance(msg, MemReq):
                break
            self.l1_port.retrieve_incoming()
            target = self._chiplet_of(msg.address)
            remote = self._remote_ports[target]
            fwd = msg.forward(remote)
            self._outgoing[fwd.id] = msg
            envelope = NetMsg(self._switch_port, fwd, remote, self.net_port)
            self._to_net.append(envelope)
            if self._tasks_observed:
                self.task_begin(fwd.id, "rdma_transfer",
                                f"req#{msg.id}->chiplet{target}")
            progress = True
        return progress

    def _intake_from_net(self) -> bool:
        """Traffic from other chiplets: requests go to the local L2,
        responses go back to the waiting local L1."""
        progress = False
        items = self.net_port.incoming
        for _ in range(self.width):
            if not items or len(self._to_l2) >= 64:
                break
            msg = items[0]
            if not isinstance(msg, NetMsg):
                break
            payload = msg.payload
            if isinstance(payload, MemReq):
                self.net_port.retrieve_incoming()
                fwd = payload.forward(self._bank_route(payload.address))
                self._incoming[fwd.id] = (payload, msg.origin)
                self._to_l2.append(fwd)
            else:
                assert isinstance(payload, MemRsp)
                self.net_port.retrieve_incoming()
                original = self._outgoing.pop(payload.respond_to, None)
                if original is not None:
                    assert original.src is not None
                    if self._tasks_observed:
                        self.task_end(payload.respond_to,
                                      "rdma_transfer")
                    self._to_l1.append(original.reply(original.src))
            progress = True
        return progress

    def _intake_from_l2(self) -> bool:
        """Local L2 answered a remote-origin request: ship it home."""
        progress = False
        items = self.l2_port.incoming
        for _ in range(self.width):
            if not items or len(self._to_net) >= self.net_queue_capacity:
                break
            msg = items[0]
            if not isinstance(msg, MemRsp):
                break
            record = self._incoming.pop(msg.respond_to, None)
            self.l2_port.retrieve_incoming()
            if record is None:
                continue
            original, origin = record
            rsp = original.reply(origin)
            self._to_net.append(
                NetMsg(self._switch_port, rsp, origin, self.net_port))
            progress = True
        return progress
