"""The compute unit (CU).

Executes wavefronts of mapped workgroups: one op per resident wavefront
per cycle, with a bounded number of outstanding memory requests per
wavefront.  Memory requests enter the L1 pipeline through the CU's
MemPort, which talks to the L1 vector reorder buffer.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterator, List, Optional

from ..akita.component import TickingComponent
from ..akita.engine import Engine
from ..akita.port import Port
from ..akita.ticker import GHZ
from .kernel import KernelState
from .mem import MemRsp, ReadReq, WriteReq
from .protocol import MapWGMsg, WGCompleteMsg

#: Responses the CU takes from each memory port per cycle: twice its
#: issue width of 4.
_RESPONSES_PER_PORT = 8


class _Wavefront:
    """Execution state of one resident wavefront.

    ``ops`` is a live generator and cannot be pickled; instead the
    wavefront remembers its identity (``wf_id``) and how many ops it
    consumed.  Workload programs are deterministic (no ``random``), so
    a restored wavefront regenerates the same op stream and fast-
    forwards to where it left off — see :meth:`rehydrate`.
    """

    __slots__ = ("wg", "ops", "wf_id", "ops_consumed", "current_op",
                 "compute_left", "outstanding", "finished")

    def __init__(self, wg: "_WorkGroup", wf_id: int, ops: Iterator):
        self.wg = wg
        self.ops = ops
        self.wf_id = wf_id
        self.ops_consumed = 0
        self.current_op: Optional[tuple] = None
        self.compute_left = 0
        self.outstanding = 0
        self.finished = False

    def __getstate__(self) -> dict:
        return {slot: getattr(self, slot)
                for slot in self.__slots__ if slot != "ops"}

    def __setstate__(self, state: dict) -> None:
        for key, value in state.items():
            setattr(self, key, value)
        self.ops = None  # rehydrated lazily on first advance

    def rehydrate(self) -> Iterator:
        """Rebuild the op stream after a checkpoint restore."""
        program = self.wg.kernel.descriptor.program
        if program is None:
            raise RuntimeError(
                f"wavefront wg={self.wg.wg_id} wf={self.wf_id}: kernel "
                f"{self.wg.kernel.descriptor.name!r} has no program "
                "installed (restore the checkpoint with its workload)")
        ops = iter(program(self.wg.wg_id, self.wf_id))
        for _ in range(self.ops_consumed):
            next(ops, None)
        self.ops = ops
        return ops


class _WorkGroup:
    """A mapped workgroup and its wavefronts' completion countdown."""

    __slots__ = ("kernel", "wg_id", "launch_id", "remaining_wfs")

    def __init__(self, kernel: KernelState, wg_id: int, launch_id: int,
                 num_wfs: int):
        self.kernel = kernel
        self.wg_id = wg_id
        self.launch_id = launch_id
        self.remaining_wfs = num_wfs


class ComputeUnit(TickingComponent):
    """One SIMD compute unit."""

    def __init__(self, name: str, engine: Engine, freq: float = GHZ,
                 max_outstanding_per_wf: int = 8):
        super().__init__(name, engine, freq)
        self.mem_port = self.add_port("MemPort", 8)
        self.scalar_port = self.add_port("ScalarPort", 8)
        self.ctrl_port = self.add_port("CtrlPort", 4)
        self.rob_top: Optional[Port] = None
        self.scalar_top: Optional[Port] = None  # SA's L1SAddrTrans
        self.dispatcher_port: Optional[Port] = None
        self.max_wavefronts = 10
        self.max_outstanding_per_wf = max_outstanding_per_wf
        self.wavefronts: List[_Wavefront] = []
        self._outstanding: Dict[int, _Wavefront] = {}
        self._completions: Deque[_WorkGroup] = deque()
        self.num_wgs_completed = 0
        self.num_mem_reqs = 0
        # Committed instruction count: every wavefront op consumed is
        # committed exactly once, regardless of memory-system timing —
        # the timing-independent anchor of the shard equivalence check.
        self.num_instructions = 0

    def connect(self, rob_top: Port, dispatcher_port: Port,
                scalar_top: Optional[Port] = None) -> None:
        self.rob_top = rob_top
        self.dispatcher_port = dispatcher_port
        self.scalar_top = scalar_top

    # ------------------------------------------------------------------
    @property
    def resident_wavefronts(self) -> int:
        """Wavefronts currently executing (monitored value)."""
        return len(self.wavefronts)

    @property
    def outstanding_mem_reqs(self) -> int:
        return len(self._outstanding)

    @property
    def free_wavefront_slots(self) -> int:
        return self.max_wavefronts - len(self.wavefronts)

    # ------------------------------------------------------------------
    def tick(self) -> bool:
        # Enter a sub-step only when its input holds work.
        progress = False
        if self._completions:
            progress = self._send_completions()
        if self.mem_port.incoming or self.scalar_port.incoming:
            progress |= self._drain_responses()
        if self.wavefronts:
            progress |= self._advance_wavefronts()
        if self.ctrl_port.incoming:
            progress |= self._accept_workgroups()
        return progress

    def _accept_workgroups(self) -> bool:
        progress = False
        items = self.ctrl_port.incoming
        while items:
            msg = items[0]
            if not isinstance(msg, MapWGMsg):
                break
            num_wfs = msg.kernel.descriptor.wavefronts_per_wg
            if self.free_wavefront_slots < num_wfs:
                break  # not enough slots; dispatcher over-mapped — wait
            self.ctrl_port.retrieve_incoming()
            wg = _WorkGroup(msg.kernel, msg.wg_id, msg.launch_id, num_wfs)
            program = msg.kernel.descriptor.program
            for wf_id in range(num_wfs):
                ops = iter(program(msg.wg_id, wf_id))
                self.wavefronts.append(_Wavefront(wg, wf_id, ops))
            if self._tasks_observed:
                self.task_begin((wg.launch_id, wg.wg_id), "workgroup",
                                f"wg[{wg.wg_id}]x{num_wfs}wf")
            progress = True
        return progress

    def _drain_responses(self) -> bool:
        progress = False
        for port in (self.mem_port, self.scalar_port):
            items = port.incoming
            for _ in range(_RESPONSES_PER_PORT):
                msg = items[0] if items else None
                if msg is None or not isinstance(msg, MemRsp):
                    break
                port.retrieve_incoming()
                wf = self._outstanding.pop(msg.respond_to, None)
                if wf is not None:
                    wf.outstanding -= 1
                progress = True
        return progress

    def _advance_wavefronts(self) -> bool:
        progress = False
        finished: List[_Wavefront] = []
        for wf in self.wavefronts:
            if self._advance_one(wf):
                progress = True
            if wf.finished:
                finished.append(wf)
        for wf in finished:
            self.wavefronts.remove(wf)
            wf.wg.remaining_wfs -= 1
            if wf.wg.remaining_wfs == 0:
                self._completions.append(wf.wg)
                if self._tasks_observed:
                    self.task_end((wf.wg.launch_id, wf.wg.wg_id),
                                  "workgroup", f"wg[{wf.wg.wg_id}]")
        return progress

    def _advance_one(self, wf: _Wavefront) -> bool:
        if wf.finished:
            return False
        if wf.compute_left > 0:
            wf.compute_left -= 1
            return True
        if wf.current_op is None:
            ops = wf.ops
            if ops is None:  # first advance after a checkpoint restore
                ops = wf.rehydrate()
            wf.current_op = next(ops, None)
            if wf.current_op is not None:
                wf.ops_consumed += 1
                self.num_instructions += 1
            if wf.current_op is None:
                if wf.outstanding == 0:
                    wf.finished = True
                    return True
                return False  # drained program, waiting on memory
        op = wf.current_op
        kind = op[0]
        if kind == "compute":
            wf.compute_left = op[1]
            wf.current_op = None
            return True
        # Memory op: respect the per-wavefront outstanding limit and the
        # ROB's top-buffer backpressure.
        if wf.outstanding >= self.max_outstanding_per_wf:
            return False
        assert self.rob_top is not None, f"{self.name} not wired"
        if kind == "sload" and self.scalar_top is not None:
            # Scalar loads (kernel arguments, lookup tables shared by
            # the whole wavefront) go through the SA's scalar cache; a
            # platform without a scalar path falls back to vector.
            dst, port = self.scalar_top, self.scalar_port
        elif kind in ("load", "store", "sload"):
            dst, port = self.rob_top, self.mem_port
        else:
            raise ValueError(f"unknown wavefront op {op!r}")
        if dst.buf.free_slots <= 0:
            return False  # build (and number) only what will be admitted
        req = (WriteReq if kind == "store" else ReadReq)(dst, op[1], op[2])
        if not port.send(req):
            return False
        self._outstanding[req.id] = wf
        wf.outstanding += 1
        wf.current_op = None
        self.num_mem_reqs += 1
        return True

    def _send_completions(self) -> bool:
        progress = False
        while self._completions:
            wg = self._completions[0]
            assert self.dispatcher_port is not None
            msg = WGCompleteMsg(self.dispatcher_port, wg.kernel, wg.wg_id,
                                wg.launch_id)
            if not self.ctrl_port.send(msg):
                break
            self._completions.popleft()
            self.num_wgs_completed += 1
            progress = True
        return progress
