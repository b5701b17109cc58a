"""Messages exchanged between component ports.

Components in the Akita paradigm communicate *only* by sending messages
through ports; there is no shared state.  That isolation is what lets
AkitaRTM monitor each component independently (paper §II).
"""

from __future__ import annotations

import itertools
from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .port import Port

#: Rebound by a restore: read it as ``message._msg_ids``, not by value.
_msg_ids = itertools.count()


def msg_id_watermark() -> int:
    """An id strictly greater than every message id handed out so far
    (consumes one id, which is harmless — ids only need uniqueness and
    monotonicity).

    Message ids key request/response matching (e.g. the CU's
    outstanding-request table), so a restored process must never reuse
    an id frozen in a snapshot."""
    return next(_msg_ids)


def ensure_msg_ids_at_least(n: int) -> None:
    """Fast-forward the message id counter so the next id is >= *n*."""
    global _msg_ids
    current = next(_msg_ids)
    _msg_ids = itertools.count(max(current + 1, int(n)))


class Msg:
    """Base class of all messages.

    Attributes
    ----------
    src, dst:
        Sending / receiving ports.  ``src`` is stamped by the port on
        send; ``dst`` must be set by the sender.
    size_bytes:
        Wire size, used by bandwidth-limited connections (the inter-
        chiplet network).
    respond_to:
        Id of the request this message answers; ``None`` on the class,
        so every message has one.  Responses shadow it with a slot.
    """

    __slots__ = ("id", "src", "dst", "size_bytes", "send_time")
    respond_to: Optional[int] = None

    def __init__(self, dst: Optional["Port"] = None, size_bytes: int = 4):
        self.id = next(_msg_ids)
        self.src: Optional["Port"] = None
        self.dst = dst
        self.size_bytes = size_bytes
        self.send_time: float = -1.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dst = self.dst.name if self.dst is not None else "?"
        return f"<{type(self).__name__} #{self.id} -> {dst}>"


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
