"""The host-side driver.

Owns the command queue of a simulated application run: host↔device
memory copies and kernel launches, processed strictly in order (one
command at a time, as MGPUSim's driver does for a single queue).

* Memory copies are modelled as DMA at a fixed bytes-per-cycle rate;
  their progress backs the "bytes copied" progress bar the paper
  mentions as a developer-defined bar.
* Kernel launches split the workgroup grid round-robin across all GPUs
  (MGPUSim's multi-GPU workgroup partitioning) and wait for every
  command processor to report completion.

``Driver.all_done`` is the Simulation's completion condition — the
predicate that distinguishes a finished run from a hang.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from ..akita.component import TickingComponent
from ..akita.engine import Engine
from ..akita.port import Port
from ..akita.ticker import GHZ
from .kernel import KernelDescriptor, KernelState, MemCopyState
from .protocol import KernelCompleteMsg, LaunchKernelMsg


class _Command:
    kind = "abstract"


class _MemCopyCommand(_Command):
    def __init__(self, nbytes: int, direction: str):
        self.state = MemCopyState(nbytes, direction=direction)
        self.kind = f"memcopy_{direction}"


class _KernelCommand(_Command):
    def __init__(self, descriptor: KernelDescriptor):
        self.descriptor = descriptor
        self.state: Optional[KernelState] = None
        self.kind = "kernel"
        self.completions_needed = 0
        self.completions_seen = 0
        self.launch_sent = False


class Driver(TickingComponent):
    """Host driver and command queue."""

    def __init__(self, name: str, engine: Engine, freq: float = GHZ,
                 gpu_buf: int = 16, dma_bytes_per_cycle: int = 256):
        super().__init__(name, engine, freq)
        self.gpu_port = self.add_port("ToGPU", gpu_buf)
        self.dma_bytes_per_cycle = dma_bytes_per_cycle
        self._cp_ports: List[Port] = []
        self._queue: Deque[_Command] = deque()
        self._current: Optional[_Command] = None
        self._pending_launches: Deque[LaunchKernelMsg] = deque()
        self.commands_completed = 0
        self.kernels: List[KernelState] = []       # all launched kernels
        self.memcopies: List[MemCopyState] = []    # all memcopy states

    def connect_gpu(self, cp_driver_port: Port) -> None:
        """Attach one GPU chiplet (its command processor's driver port)."""
        self._cp_ports.append(cp_driver_port)

    # -- application-facing API ----------------------------------------------
    def memcopy_h2d(self, nbytes: int) -> MemCopyState:
        cmd = _MemCopyCommand(nbytes, "h2d")
        self._queue.append(cmd)
        self.memcopies.append(cmd.state)
        return cmd.state

    def memcopy_d2h(self, nbytes: int) -> MemCopyState:
        cmd = _MemCopyCommand(nbytes, "d2h")
        self._queue.append(cmd)
        self.memcopies.append(cmd.state)
        return cmd.state

    def launch_kernel(self, descriptor: KernelDescriptor) -> KernelState:
        cmd = _KernelCommand(descriptor)
        cmd.state = KernelState(descriptor)
        self._queue.append(cmd)
        self.kernels.append(cmd.state)
        return cmd.state

    @property
    def all_done(self) -> bool:
        """True when every enqueued command has completed."""
        return self._current is None and not self._queue

    @property
    def queue_length(self) -> int:
        return len(self._queue) + (1 if self._current else 0)

    # -- execution -------------------------------------------------------------
    def tick(self) -> bool:
        progress = False
        launches = self._pending_launches
        if launches:
            progress = self.gpu_port.drain(launches, len(launches)) > 0
        if self._current is None:
            if not self._queue:
                return progress
            self._current = self._queue.popleft()
            self._start_command(self._current)
            progress = True
        cmd = self._current
        if isinstance(cmd, _MemCopyCommand):
            progress |= self._advance_memcopy(cmd)
        else:
            assert isinstance(cmd, _KernelCommand)
            progress |= self._advance_kernel(cmd)
        return progress

    def _start_command(self, cmd: _Command) -> None:
        if isinstance(cmd, _KernelCommand):
            num_gpus = len(self._cp_ports)
            assert num_gpus > 0, "driver has no GPUs attached"
            shares: List[List[int]] = [[] for _ in range(num_gpus)]
            for wg_id in range(cmd.descriptor.num_workgroups):
                shares[wg_id % num_gpus].append(wg_id)
            for cp_port, wg_ids in zip(self._cp_ports, shares):
                if not wg_ids:
                    continue
                self._pending_launches.append(
                    LaunchKernelMsg(cp_port, cmd.state, wg_ids))
                cmd.completions_needed += 1

    def _advance_memcopy(self, cmd: _MemCopyCommand) -> bool:
        state = cmd.state
        state.copied_bytes = min(
            state.total_bytes, state.copied_bytes + self.dma_bytes_per_cycle)
        if state.done:
            self._finish_current()
        return True

    def _advance_kernel(self, cmd: _KernelCommand) -> bool:
        progress = False
        items = self.gpu_port.incoming
        while items:
            msg = items[0]
            if not isinstance(msg, KernelCompleteMsg):
                break
            self.gpu_port.retrieve_incoming()
            cmd.completions_seen += 1
            progress = True
        if (cmd.completions_seen >= cmd.completions_needed
                and not self._pending_launches):
            self._finish_current()
            progress = True
        return progress

    def _finish_current(self) -> None:
        self._current = None
        self.commands_completed += 1
