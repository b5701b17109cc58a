"""Memory-system message types.

The GPU memory hierarchy (CU → ROB → address translator → L1 → {L2 |
RDMA} → DRAM) communicates exclusively with these messages.  This is a
*timing* model: requests carry addresses and sizes but no data values,
which is all the monitoring tool (and the paper's analyses) ever look at.

A request answers and forwards itself: :meth:`MemReq.forward` copies
it to the next hop down, and ``reply`` builds the response that answers
it (a :class:`DataReadyRsp` of its ``access_bytes`` for a read, a
:class:`WriteDoneRsp` for a write).  They are the only code that picks a
message type from a request type.  Every forwarding component keeps its
own transaction table mapping the requests it sent downstream to the
requests it received from upstream, and answers upstream with
``original.reply(original.src)`` when the downstream response arrives —
exactly the structure that makes "number of transactions in component
X" a meaningful monitored value in the paper's Figure 5.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..akita.message import Msg

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..akita.port import Port

#: Cache line size in bytes, shared by L1, L2 and DRAM models.
CACHE_LINE_SIZE = 64


def line_address(addr: int) -> int:
    """Align *addr* down to its cache-line base address."""
    return addr & ~(CACHE_LINE_SIZE - 1)


class MemReq(Msg):
    """Base class of read/write requests."""

    __slots__ = ("address", "access_bytes", "pid")

    def __init__(self, dst: "Port", address: int, access_bytes: int,
                 pid: int = 0):
        # Msg.__init__ in this frame.
        engine = dst.component._engine
        self.id = engine.next_msg_id
        engine.next_msg_id += 1
        self.src = None
        self.dst = dst
        self.size_bytes = 16
        self.send_time = -1.0
        self.address = int(address)
        self.access_bytes = int(access_bytes)
        self.pid = pid

    @property
    def line_addr(self) -> int:
        return self.address & ~(CACHE_LINE_SIZE - 1)  # line_address(), inline

    def forward(self, dst: "Port") -> "MemReq":
        """A copy of this request, with its own id, addressed to *dst*."""
        return type(self)(dst, self.address, self.access_bytes, self.pid)


class ReadReq(MemReq):
    """Read *access_bytes* from *address*."""

    __slots__ = ()

    def reply(self, dst: "Port") -> "DataReadyRsp":
        """The data that answers this read, addressed to *dst*."""
        return DataReadyRsp(dst, self.id, self.access_bytes)


class WriteReq(MemReq):
    """Write *access_bytes* at *address*.

    The request message itself carries the data on the wire, so its wire
    size includes the payload.
    """

    __slots__ = ()

    def __init__(self, dst: "Port", address: int, access_bytes: int,
                 pid: int = 0):
        engine = dst.component._engine  # as MemReq.__init__, one frame
        self.id = engine.next_msg_id
        engine.next_msg_id += 1
        self.src = None
        self.dst = dst
        self.size_bytes = 16 + access_bytes
        self.send_time = -1.0
        self.address = int(address)
        self.access_bytes = int(access_bytes)
        self.pid = pid

    def reply(self, dst: "Port") -> "WriteDoneRsp":
        """The acknowledgement that answers this write, addressed to
        *dst*."""
        return WriteDoneRsp(dst, self.id)


class MemRsp(Msg):
    """Base class of responses; ties back to the request via ``respond_to``."""

    __slots__ = ("respond_to",)

    def __init__(self, dst: "Port", respond_to: int, size_bytes: int = 16):
        engine = dst.component._engine  # as MemReq: Msg.__init__
        self.id = engine.next_msg_id
        engine.next_msg_id += 1
        self.src = None
        self.dst = dst
        self.size_bytes = size_bytes
        self.send_time = -1.0
        self.respond_to = respond_to  # id of the request being answered


class DataReadyRsp(MemRsp):
    """Read data coming back up the hierarchy."""

    __slots__ = ()

    def __init__(self, dst: "Port", respond_to: int,
                 data_bytes: int = CACHE_LINE_SIZE):
        engine = dst.component._engine  # as MemRsp.__init__, one frame
        self.id = engine.next_msg_id
        engine.next_msg_id += 1
        self.src = None
        self.dst = dst
        self.size_bytes = 16 + data_bytes
        self.send_time = -1.0
        self.respond_to = respond_to


class WriteDoneRsp(MemRsp):
    """Write acknowledgement, built by ``MemRsp.__init__`` itself (16
    bytes on the wire)."""

    __slots__ = ()


class EvictionReq(Msg):
    """A dirty line travelling from a cache's storage to its write buffer."""

    __slots__ = ("address",)

    def __init__(self, dst: "Port", address: int):
        super().__init__(dst, size_bytes=16 + CACHE_LINE_SIZE)
        self.address = int(address)


class FetchedData(Msg):
    """A line fetched from DRAM travelling write-buffer → cache storage."""

    __slots__ = ("address", "respond_to")

    def __init__(self, dst: "Port", address: int, respond_to: int):
        super().__init__(dst, size_bytes=16 + CACHE_LINE_SIZE)
        self.address = int(address)
        self.respond_to = respond_to


class NetMsg(Msg):
    """Envelope for payloads crossing the inter-chiplet network.

    The switch re-addresses the envelope to ``final_dst`` (the remote
    RDMA engine's network port); the receiving RDMA unwraps ``payload``
    and uses ``origin`` as the return address for responses.
    """

    __slots__ = ("payload", "final_dst", "origin")

    def __init__(self, dst: "Port", payload: Msg, final_dst: "Port",
                 origin: "Port"):
        super().__init__(dst, size_bytes=payload.size_bytes + 8)
        self.payload = payload
        self.final_dst = final_dst
        self.origin = origin
