"""The per-GPU workgroup dispatcher.

Receives kernel launches from the command processor, maps workgroups to
compute units with free wavefront slots, collects completion messages,
and updates the shared :class:`~repro.gpu.kernel.KernelState` that backs
AkitaRTM's progress bars.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..akita.component import TickingComponent
from ..akita.engine import Engine
from ..akita.port import Port
from ..akita.ticker import GHZ
from .cu import ComputeUnit
from .kernel import KernelState
from .protocol import (
    KernelCompleteMsg,
    LaunchKernelMsg,
    MapWGMsg,
    WGCompleteMsg,
)


class _Launch:
    """Bookkeeping for one LaunchKernelMsg."""

    __slots__ = ("launch_id", "kernel", "remaining", "reply_to")

    def __init__(self, launch_id: int, kernel: KernelState,
                 remaining: int, reply_to: Port):
        self.launch_id = launch_id
        self.kernel = kernel
        self.remaining = remaining
        self.reply_to = reply_to


class Dispatcher(TickingComponent):
    """Maps workgroups onto this GPU's compute units."""

    def __init__(self, name: str, engine: Engine, freq: float = GHZ,
                 cp_buf: int = 4, cu_buf: int = 16,
                 dispatch_width: int = 2):
        super().__init__(name, engine, freq)
        self.cp_port = self.add_port("ToCP", cp_buf)
        self.cu_port = self.add_port("ToCU", cu_buf)
        self.dispatch_width = dispatch_width
        self._cus: List[ComputeUnit] = []
        self._free_slots: Dict[ComputeUnit, int] = {}
        self._pending_wgs: Deque[Tuple[_Launch, int]] = deque()
        self._launches: Dict[int, _Launch] = {}
        self._next_launch_id = 0
        self._pending_replies: Deque[KernelCompleteMsg] = deque()
        self.num_dispatched = 0

    def register_cu(self, cu: ComputeUnit) -> None:
        self._cus.append(cu)
        self._free_slots[cu] = cu.max_wavefronts

    # ------------------------------------------------------------------
    @property
    def pending_workgroups(self) -> int:
        """Workgroups waiting to be mapped (monitored value)."""
        return len(self._pending_wgs)

    # ------------------------------------------------------------------
    def tick(self) -> bool:
        # Enter a sub-step only when its input holds work.
        progress = False
        replies = self._pending_replies
        if replies:
            progress = self.cp_port.drain(replies, len(replies)) > 0
        if self.cu_port.incoming:
            progress |= self._process_cu_messages()
        if self._pending_wgs:
            progress |= self._dispatch()
        if self.cp_port.incoming:
            progress |= self._process_cp_messages()
        return progress

    def _process_cp_messages(self) -> bool:
        progress = False
        items = self.cp_port.incoming
        while items:
            msg = items[0]
            if not isinstance(msg, LaunchKernelMsg):
                break
            self.cp_port.retrieve_incoming()
            assert msg.src is not None
            launch = _Launch(self._next_launch_id, msg.kernel,
                             len(msg.wg_ids), msg.src)
            self._next_launch_id += 1
            self._launches[launch.launch_id] = launch
            for wg_id in msg.wg_ids:
                self._pending_wgs.append((launch, wg_id))
            progress = True
        return progress

    def _dispatch(self) -> bool:
        progress = False
        dispatched = 0
        while self._pending_wgs and dispatched < self.dispatch_width:
            launch, wg_id = self._pending_wgs[0]
            wfs_needed = launch.kernel.descriptor.wavefronts_per_wg
            cu = self._find_free_cu(wfs_needed)
            if cu is None:
                break
            msg = MapWGMsg(cu.ctrl_port, launch.kernel, wg_id,
                           launch.launch_id)
            if not self.cu_port.send(msg):
                break
            self._pending_wgs.popleft()
            self._free_slots[cu] -= wfs_needed
            launch.kernel.start_wg()
            self.num_dispatched += 1
            dispatched += 1
            progress = True
        return progress

    def _find_free_cu(self, wfs_needed: int) -> Optional[ComputeUnit]:
        best = None
        best_free = wfs_needed - 1
        for cu in self._cus:
            free = self._free_slots[cu]
            if free > best_free:
                best = cu
                best_free = free
        return best

    def _process_cu_messages(self) -> bool:
        progress = False
        items = self.cu_port.incoming
        while items:
            msg = items[0]
            if not isinstance(msg, WGCompleteMsg):
                break
            self.cu_port.retrieve_incoming()
            cu = msg.src.component
            assert isinstance(cu, ComputeUnit)
            wfs = msg.kernel.descriptor.wavefronts_per_wg
            self._free_slots[cu] += wfs
            msg.kernel.finish_wg()
            launch = self._launches.get(msg.launch_id)
            if launch is not None:
                launch.remaining -= 1
                if launch.remaining == 0:
                    del self._launches[msg.launch_id]
                    self._pending_replies.append(
                        KernelCompleteMsg(launch.reply_to,
                                          launch.launch_id))
            progress = True
        return progress
