"""The per-CU L1 vector cache (L1VCache).

A write-through, no-write-allocate cache with a 16-entry MSHR (the R9
Nano default the paper's case study observes).  Misses to pages owned by
the local chiplet go to the local L2 bank; misses to remote pages go to
the chiplet's RDMA engine — routing is injected by the platform builder
via :meth:`L1VCache.set_route`.

Monitored behaviour reproduced here: when the downstream system is slow,
the in-flight ``transactions`` count pins at the MSHR capacity (Figure
5(d)), which in turn backs up the address translator and the ROB above.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ...akita.engine import Engine
from ...akita.port import Port
from ...akita.ticker import GHZ
from ..mem import (
    CACHE_LINE_SIZE,
    DataReadyRsp,
    MemReq,
    MemRsp,
    ReadReq,
    WriteReq,
)
from .mshr import CacheBank

#: Route function: physical address -> destination port (L2 bank or RDMA).
RouteFn = Callable[[int], Port]


class L1VCache(CacheBank):
    """Per-CU vector data cache."""

    def __init__(self, name: str, engine: Engine, freq: float = GHZ,
                 size_bytes: int = 16 * 1024):
        # 4 ways, a 16-entry MSHR, a 1-cycle hit, a 4-slot TopPort.
        super().__init__(name, engine, freq, size_bytes, 4, 16, 1, 4)
        self.bottom_port = self.add_port("BottomPort", 8)
        self._route: Optional[RouteFn] = None
        # forwarded fetch/write id -> MSHR key
        self._pending_down: Dict[int, object] = {}

    def set_route(self, route: RouteFn) -> None:
        """Install the address → downstream-port routing function."""
        self._route = route

    def tick(self) -> bool:
        # Enter a sub-step only when its queue holds work.
        progress = False
        if self._respond_queue:
            progress = self._send_responses()
        if self.bottom_port.incoming:
            progress |= self._process_bottom()
        if self.mshr.unsent:
            progress |= self._issue_pending_fetches()
        if self.top_port.incoming:
            progress |= self._process_top()
        if (self._respond_queue and not progress
                and self._respond_queue[0][0] > self._engine._now + 1e-15):
            # Head response not ready yet; ready-but-blocked responses
            # wait for a notify_available wake instead of busy-polling.
            self.tick_at(self._respond_queue[0][0])
        return progress

    # -- upstream request handling ------------------------------------------
    def _process_top(self) -> bool:
        progress = False
        items = self.top_port.incoming
        for _ in range(self.width):
            msg = items[0] if items else None
            if msg is None or not isinstance(msg, MemReq):
                break
            if isinstance(msg, ReadReq):
                if not self._handle_read(msg):
                    break
                self.num_reads += 1
            else:
                assert isinstance(msg, WriteReq)
                if not self._handle_write(msg):
                    break
                self.num_writes += 1
            progress = True
        return progress

    def _handle_read(self, req: ReadReq) -> bool:
        """Returns True if the request was consumed from the top buffer."""
        line = req.line_addr
        if self.tags.lookup(line):
            self.top_port.retrieve_incoming()
            pending = self.mshr.lookup(line)
            if pending is not None:
                # Line is being fetched (eager-fill mode): coalesce.
                pending.waiting.append(req)
            else:
                self._queue_response(req.reply(req.src))
            return True
        entry = self.mshr.lookup(line)
        if entry is not None:  # coalesce with in-flight fetch
            self.top_port.retrieve_incoming()
            entry.waiting.append(req)
            return True
        if self.mshr.full:
            return False  # stall: this is the "pinned at 16" state
        self.top_port.retrieve_incoming()
        entry = self.mshr.allocate(line)
        entry.waiting.append(req)
        if self._tasks_observed:
            self.task_begin(line, "cache_miss", f"read@{line:#x}")
        self._try_send(entry)
        return True

    def _handle_write(self, req: WriteReq) -> bool:
        if self.mshr.full:
            return False
        self.top_port.retrieve_incoming()
        key = ("w", req.id)
        entry = self.mshr.allocate(key)
        entry.waiting.append(req)
        if self._tasks_observed:
            self.task_begin(key, "cache_miss", f"write@{req.address:#x}")
        self._try_send(entry)
        return True

    # -- downstream traffic ---------------------------------------------------
    def _try_send(self, entry) -> bool:
        """Send a read miss's line fetch, or forward a write whole."""
        assert self._route is not None, f"{self.name} has no route"
        key = entry.key
        if isinstance(key, tuple):  # ("w", id): a write
            req: WriteReq = entry.waiting[0]
            msg = req.forward(self._route(req.address))
        else:
            msg = ReadReq(self._route(key), key, CACHE_LINE_SIZE)
        if not self.bottom_port.send(msg):
            return False
        entry.fetch_sent = True
        self.mshr.unsent -= 1
        self._pending_down[msg.id] = key
        return True

    def _process_bottom(self) -> bool:
        progress = False
        items = self.bottom_port.incoming
        for _ in range(self.width):
            msg = items[0] if items else None
            if msg is None or not isinstance(msg, MemRsp):
                break
            key = self._pending_down.get(msg.respond_to)
            if key is None:
                self.bottom_port.retrieve_incoming()
                continue
            self.bottom_port.retrieve_incoming()
            del self._pending_down[msg.respond_to]
            entry = self.mshr.release(key)
            if self._tasks_observed:
                self.task_end(key, "cache_miss")
            if isinstance(msg, DataReadyRsp):
                self.tags.fill(entry.key)  # write-through: victims clean
            # The reads coalesced on a fetch, or the one write forwarded.
            for waiting in entry.waiting:
                self._queue_response(waiting.reply(waiting.src))
            progress = True
        return progress
