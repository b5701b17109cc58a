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

import heapq
from typing import Callable, Dict, List, Optional, Tuple

from ...akita.component import TickingComponent
from ...akita.engine import Engine
from ...akita.port import Port
from ...akita.ticker import GHZ
from ..mem import (
    CACHE_LINE_SIZE,
    DataReadyRsp,
    MemReq,
    MemRsp,
    ReadReq,
    WriteDoneRsp,
    WriteReq,
)
from .mshr import MSHR
from .tags import SetAssocTags

#: Route function: physical address -> destination port (L2 bank or RDMA).
RouteFn = Callable[[int], Port]


class L1VCache(TickingComponent):
    """Per-CU vector data cache."""

    def __init__(self, name: str, engine: Engine, freq: float = GHZ,
                 size_bytes: int = 16 * 1024, ways: int = 4,
                 mshr_capacity: int = 16, hit_latency: int = 1,
                 top_buf: int = 4, bottom_buf: int = 8, width: int = 4):
        super().__init__(name, engine, freq)
        self.top_port = self.add_port("TopPort", top_buf)
        self.bottom_port = self.add_port("BottomPort", bottom_buf)
        self.tags = SetAssocTags(size_bytes, ways)
        self.mshr = MSHR(mshr_capacity)
        self.hit_latency = hit_latency
        self.width = width
        self._route: Optional[RouteFn] = None
        # forwarded fetch/write id -> MSHR key
        self._pending_down: Dict[int, object] = {}
        # (ready_time, seq, response) for hit-latency modelling
        self._respond_queue: List[Tuple[float, int, MemRsp]] = []
        self._seq = 0
        self.num_reads = 0
        self.num_writes = 0

    def set_route(self, route: RouteFn) -> None:
        """Install the address → downstream-port routing function."""
        self._route = route

    # ------------------------------------------------------------------
    @property
    def transactions(self) -> int:
        """In-flight transactions — pins at MSHR capacity when the
        downstream memory system is the bottleneck."""
        return self.mshr.size

    # ------------------------------------------------------------------
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
            else:
                assert isinstance(msg, WriteReq)
                if not self._handle_write(msg):
                    break
            progress = True
        return progress

    def _handle_read(self, req: ReadReq) -> bool:
        """Returns True if the request was consumed from the top buffer."""
        line = req.line_addr
        if self.tags.lookup(line):
            self.top_port.retrieve_incoming()
            self.num_reads += 1
            pending = self.mshr.lookup(line)
            if pending is not None:
                # Line is being fetched (eager-fill mode): coalesce.
                pending.waiting.append(req)
            else:
                self._queue_response(
                    DataReadyRsp(req.src, req.id, req.access_bytes))
            return True
        entry = self.mshr.lookup(line)
        if entry is not None:  # coalesce with in-flight fetch
            self.top_port.retrieve_incoming()
            self.num_reads += 1
            entry.waiting.append(req)
            return True
        if self.mshr.full:
            return False  # stall: this is the "pinned at 16" state
        self.top_port.retrieve_incoming()
        self.num_reads += 1
        entry = self.mshr.allocate(line)
        entry.waiting.append(req)
        if self._tasks_observed:
            self.task_begin(line, "cache_miss", f"read@{line:#x}")
        self._try_send_fetch(entry)
        return True

    def _handle_write(self, req: WriteReq) -> bool:
        if self.mshr.full:
            return False
        self.top_port.retrieve_incoming()
        self.num_writes += 1
        key = ("w", req.id)
        entry = self.mshr.allocate(key)
        entry.waiting.append(req)
        if self._tasks_observed:
            self.task_begin(key, "cache_miss", f"write@{req.address:#x}")
        self._try_send_write(entry)
        return True

    # -- downstream traffic ---------------------------------------------------
    def _issue_pending_fetches(self) -> bool:
        """Retry fetches/writes that could not be sent earlier."""
        progress = False
        for entry in self.mshr.entries:
            if entry.fetch_sent:
                continue
            if isinstance(entry.key, tuple):
                sent = self._try_send_write(entry)
            else:
                sent = self._try_send_fetch(entry)
            progress |= sent
            if not sent:
                break
        return progress

    def _try_send_fetch(self, entry) -> bool:
        assert self._route is not None, f"{self.name} has no route"
        dst = self._route(entry.key)
        fetch = ReadReq(dst, entry.key, CACHE_LINE_SIZE)
        if not self.bottom_port.send(fetch):
            return False
        entry.fetch_sent = True
        self.mshr.unsent -= 1
        self._pending_down[fetch.id] = entry.key
        return True

    def _try_send_write(self, entry) -> bool:
        assert self._route is not None, f"{self.name} has no route"
        req: WriteReq = entry.waiting[0]
        dst = self._route(req.address)
        fwd = WriteReq(dst, req.address, req.access_bytes, req.pid)
        if not self.bottom_port.send(fwd):
            return False
        entry.fetch_sent = True
        self.mshr.unsent -= 1
        self._pending_down[fwd.id] = entry.key
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
                for waiting in entry.waiting:
                    self._queue_response(DataReadyRsp(
                        waiting.src, waiting.id, waiting.access_bytes))
            else:
                original = entry.waiting[0]
                self._queue_response(WriteDoneRsp(original.src, original.id))
            progress = True
        return progress

    # -- responses -------------------------------------------------------------
    def _queue_response(self, rsp: MemRsp) -> None:
        ready = self._engine._now + self.hit_latency / self.freq
        heapq.heappush(self._respond_queue, (ready, self._seq, rsp))
        self._seq += 1

    def _send_responses(self) -> bool:
        progress = False
        now = self._engine._now
        for _ in range(self.width):
            if (not self._respond_queue
                    or self._respond_queue[0][0] > now + 1e-15):
                break
            rsp = self._respond_queue[0][2]
            if not self.top_port.send(rsp):
                break
            heapq.heappop(self._respond_queue)
            progress = True
        return progress
