"""Messages exchanged between component ports.

Components in the Akita paradigm communicate *only* by sending messages
through ports; there is no shared state.  That isolation is what lets
AkitaRTM monitor each component independently (paper §II).

A message's id is minted by the engine of the component that owns its
destination port (``Engine.next_msg_id``): ids are per simulation, so
one simulation numbers its messages the same way in a fresh process, in
a warm worker's second job, and across a checkpoint and its restore.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .port import Port


class Msg:
    """Base class of all messages.

    Attributes
    ----------
    src, dst:
        Sending / receiving ports.  ``src`` is stamped by the port on
        send; ``dst`` is required, and its component's engine numbers
        the message.
    size_bytes:
        Wire size, used by bandwidth-limited connections (the inter-
        chiplet network).
    respond_to:
        Id of the request this message answers; ``None`` on the class,
        so every message has one.  Responses shadow it with a slot.
    """

    __slots__ = ("id", "src", "dst", "size_bytes", "send_time")
    respond_to: Optional[int] = None

    def __init__(self, dst: "Port", size_bytes: int = 4):
        engine = dst.component._engine
        self.id = engine.next_msg_id
        engine.next_msg_id += 1
        self.src: Optional["Port"] = None
        self.dst = dst
        self.size_bytes = size_bytes
        self.send_time: float = -1.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} #{self.id} -> {self.dst.name}>"


class GeneralRsp(Msg):
    """Generic acknowledgement carrying the id of the original request."""

    __slots__ = ("respond_to",)

    def __init__(self, dst: "Port", respond_to: int, size_bytes: int = 4):
        super().__init__(dst, size_bytes)
        self.respond_to = respond_to


class ControlMsg(Msg):
    """Out-of-band control message (start/drain/flush commands)."""

    __slots__ = ("command",)

    def __init__(self, dst: "Port", command: str):
        super().__init__(dst, size_bytes=4)
        self.command = command
