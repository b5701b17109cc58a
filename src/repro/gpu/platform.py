"""Platform builders: assemble chiplets into a runnable GPU simulation.

The component hierarchy follows MGPUSim's naming, which is what the
paper's screenshots show (e.g. ``GPU[1].SA[15].L1VROB[0].TopPort.Buf``):

* ``GPU[i]`` — one chiplet, R9-Nano-like.
* ``GPU[i].SA[j]`` — a shader array containing, per CU slot ``k``:
  ``CU[k]``, ``L1VROB[k]``, ``L1VAddrTrans[k]``, ``L1VCache[k]``.
* ``GPU[i].L2[b]``, ``GPU[i].WriteBuffer[b]``, ``GPU[i].DRAM[b]`` —
  banked L2 + write buffer + DRAM channel.
* ``GPU[i].RDMA``, ``GPU[i].CommandProcessor``, ``GPU[i].Dispatcher``.
* ``Driver`` (host) and ``InterChipletSwitch`` (shared network).

The paper's default hardware is a 4-chiplet MCM GPU whose chiplets match
an AMD R9 Nano (64 CUs, 16 KB L1 per CU, 2 MB shared L2, 4 GB HBM).
:meth:`GPUPlatformConfig.r9_nano_mcm` reproduces those parameters;
:meth:`GPUPlatformConfig.small` is a scaled configuration with identical
structure for tests and fast experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..akita.connection import DirectConnection
from ..akita.engine import Engine
from ..akita.errors import ConfigurationError
from ..akita.naming import indexed, join
from ..akita.port import Port
from ..akita.simulation import Simulation
from ..akita.ticker import GHZ
from .addressing import AddressMapper
from .addr_translator import AddressTranslator
from .cache.l1 import L1VCache
from .cache.l2 import L2Cache
from .cache.writebuffer import WriteBuffer
from .command_processor import CommandProcessor
from .cu import ComputeUnit
from .dispatcher import Dispatcher
from .dram import DRAMController
from .driver import Driver
from .network import ChipletSwitch
from .rdma import RDMAEngine
from .rob import ReorderBuffer


@dataclass
class GPUPlatformConfig:
    """All tunables of the simulated platform."""

    num_chiplets: int = 4
    sas_per_gpu: int = 16
    cus_per_sa: int = 4
    l2_banks: int = 4
    freq: float = GHZ

    # Compute units
    max_wavefronts_per_cu: int = 10
    max_outstanding_per_wf: int = 8

    # L1 pipeline
    rob_capacity: int = 128
    rob_top_buf: int = 8
    l1_size_bytes: int = 16 * 1024
    l1_ways: int = 4
    l1_mshr: int = 16
    #: Per-SA scalar cache (kernel arguments / lookup tables), as in
    #: MGPUSim's L1SCache shared by the shader array's CUs.
    scalar_cache_bytes: int = 8 * 1024
    at_tlb_capacity: int = 64
    at_miss_latency: int = 20
    at_max_inflight: int = 64

    # L2 / write buffer / DRAM
    l2_size_bytes: int = 512 * 1024     # per bank
    l2_ways: int = 8
    l2_mshr: int = 32
    l2_write_buffer_bug: bool = False   # case study 2's hang, if True
    l2_storage_buf: int = 4
    l2_eviction_staging: int = 1
    wb_queue_capacity: int = 8
    wb_in_buf: int = 4
    wb_width: int = 2
    dram_latency_cycles: int = 100

    # Inter-chiplet network
    net_msgs_per_cycle: int = 1
    net_link_latency_cycles: int = 20

    # Host
    dma_bytes_per_cycle: int = 256
    page_bytes: int = 4096
    #: Driver ↔ command-processor link latency (host PCIe-ish hop).
    driver_conn_latency_cycles: int = 10

    def __post_init__(self) -> None:
        if self.num_chiplets <= 0:
            raise ConfigurationError("need at least one chiplet")
        if self.sas_per_gpu <= 0 or self.cus_per_sa <= 0:
            raise ConfigurationError("need at least one CU")
        if self.l2_banks <= 0:
            raise ConfigurationError("need at least one L2 bank")

    @property
    def cus_per_gpu(self) -> int:
        return self.sas_per_gpu * self.cus_per_sa

    @classmethod
    def r9_nano_mcm(cls, num_chiplets: int = 4,
                    **overrides) -> "GPUPlatformConfig":
        """The paper's 4-chiplet MCM GPU (64 CUs per chiplet)."""
        params = dict(num_chiplets=num_chiplets, sas_per_gpu=16,
                      cus_per_sa=4, l2_banks=4,
                      l2_size_bytes=512 * 1024)
        params.update(overrides)
        return cls(**params)

    @classmethod
    def small(cls, num_chiplets: int = 2, **overrides) -> "GPUPlatformConfig":
        """A scaled configuration with the same structure (fast tests)."""
        params = dict(num_chiplets=num_chiplets, sas_per_gpu=2,
                      cus_per_sa=2, l2_banks=1,
                      l1_size_bytes=4 * 1024,
                      l2_size_bytes=32 * 1024,
                      dram_latency_cycles=50)
        params.update(overrides)
        return cls(**params)


class _AllDone:
    """Picklable completion check: every driver command finished.

    The completion predicate travels inside checkpoints (it is part of
    the simulated system's semantics), so it must be a plain object
    rather than a lambda closing over the platform.
    """

    __slots__ = ("driver",)

    def __init__(self, driver: Driver):
        self.driver = driver

    def __call__(self) -> bool:
        return self.driver.all_done


class _ChipletRoute:
    """Routes an address to the local L2 bank or the RDMA engine.

    Replaces the nested ``route`` closure so cache route tables — and
    with them the whole platform graph — stay picklable.
    """

    __slots__ = ("mapper", "chiplet_id", "l2_tops", "rdma_port")

    def __init__(self, mapper: AddressMapper, chiplet_id: int,
                 l2_tops: List[Port], rdma_port: Port):
        self.mapper = mapper
        self.chiplet_id = chiplet_id
        self.l2_tops = l2_tops
        self.rdma_port = rdma_port

    def __call__(self, addr: int) -> Port:
        if self.mapper.is_local(addr, self.chiplet_id):
            return self.l2_tops[self.mapper.bank_of(addr)]
        return self.rdma_port


class _BankRoute:
    """Routes a local address to its owning L2 bank (RDMA ingress)."""

    __slots__ = ("mapper", "l2_tops")

    def __init__(self, mapper: AddressMapper, l2_tops: List[Port]):
        self.mapper = mapper
        self.l2_tops = l2_tops

    def __call__(self, addr: int) -> Port:
        return self.l2_tops[self.mapper.bank_of(addr)]


class Chiplet:
    """Handles to one built GPU chiplet's components."""

    def __init__(self, chiplet_id: int):
        self.id = chiplet_id
        self.name = indexed("GPU", chiplet_id)
        self.cus: List[ComputeUnit] = []
        self.robs: List[ReorderBuffer] = []
        self.ats: List[AddressTranslator] = []
        self.l1s: List[L1VCache] = []
        self.scalar_ats: List[AddressTranslator] = []
        self.scalar_caches: List[L1VCache] = []
        self.l2s: List[L2Cache] = []
        self.write_buffers: List[WriteBuffer] = []
        self.drams: List[DRAMController] = []
        self.rdma: Optional[RDMAEngine] = None
        self.command_processor: Optional[CommandProcessor] = None
        self.dispatcher: Optional[Dispatcher] = None


class GPUPlatform:
    """A fully wired multi-chiplet GPU simulation."""

    def __init__(self, config: Optional[GPUPlatformConfig] = None,
                 engine: Optional[Engine] = None, name: str = "platform"):
        self.config = config if config is not None else GPUPlatformConfig()
        self.simulation = Simulation(name, engine)
        self.engine = self.simulation.engine
        self.mapper = AddressMapper(self.config.num_chiplets,
                                    self.config.l2_banks,
                                    self.config.page_bytes)
        self.chiplets: List[Chiplet] = []
        self.driver: Driver = None  # type: ignore[assignment]
        self.switch: ChipletSwitch = None  # type: ignore[assignment]
        self._scalar_buses: Dict[str, DirectConnection] = {}
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _link(self, name: str, cycles: int,
              *ports: Port) -> DirectConnection:
        """The connection *name*, *cycles* platform cycles long, with
        *ports* plugged in in order, registered with the simulation."""
        conn = DirectConnection(name, self.engine,
                                latency=cycles / self.config.freq)
        for port in ports:
            conn.plug_in(port)
        self.simulation.register_connection(conn)
        return conn

    def _build(self) -> None:
        cfg = self.config
        sim = self.simulation
        engine = self.engine

        self.driver = Driver("Driver", engine, cfg.freq,
                             dma_bytes_per_cycle=cfg.dma_bytes_per_cycle)
        sim.register_component(self.driver)

        self.switch = ChipletSwitch(
            "InterChipletSwitch", engine, cfg.num_chiplets, cfg.freq,
            msgs_per_cycle=cfg.net_msgs_per_cycle)
        sim.register_component(self.switch)

        driver_conn = self._link("DriverConn",
                                 cfg.driver_conn_latency_cycles,
                                 self.driver.gpu_port)

        for i in range(cfg.num_chiplets):
            chiplet = self._build_chiplet(i, driver_conn)
            self.chiplets.append(chiplet)

        self._wire_network()
        sim.set_completion_check(_AllDone(self.driver))

    def _build_chiplet(self, i: int,
                       driver_conn: DirectConnection) -> Chiplet:
        cfg = self.config
        sim = self.simulation
        engine = self.engine
        chiplet = Chiplet(i)
        gpu = chiplet.name

        # -- memory-side components -------------------------------------
        for b in range(cfg.l2_banks):
            l2 = L2Cache(join(gpu, indexed("L2", b)), engine, cfg.freq,
                         size_bytes=cfg.l2_size_bytes, ways=cfg.l2_ways,
                         mshr_capacity=cfg.l2_mshr,
                         storage_buf=cfg.l2_storage_buf,
                         eviction_staging=cfg.l2_eviction_staging,
                         buggy=cfg.l2_write_buffer_bug)
            wb = WriteBuffer(join(gpu, indexed("WriteBuffer", b)), engine,
                             cfg.freq,
                             queue_capacity=cfg.wb_queue_capacity,
                             in_buf=cfg.wb_in_buf, width=cfg.wb_width,
                             buggy=cfg.l2_write_buffer_bug)
            dram = DRAMController(join(gpu, indexed("DRAM", b)), engine,
                                  cfg.freq,
                                  latency_cycles=cfg.dram_latency_cycles)
            sim.register_component(l2)
            sim.register_component(wb)
            sim.register_component(dram)
            chiplet.l2s.append(l2)
            chiplet.write_buffers.append(wb)
            chiplet.drams.append(dram)

            self._link(join(gpu, indexed("L2WBConn", b)), 1,
                       l2.wb_port, l2.storage_port, wb.in_port)
            l2.connect_write_buffer(wb.in_port)
            wb.connect(l2.storage_port, dram.top_port)

            self._link(join(gpu, indexed("WBDRAMConn", b)), 1,
                       wb.dram_port, dram.top_port)

        # -- RDMA -------------------------------------------------------
        rdma = RDMAEngine(join(gpu, "RDMA"), engine, i, cfg.freq)
        sim.register_component(rdma)
        chiplet.rdma = rdma

        # -- chiplet crossbar: L1 bottoms + L2 tops + RDMA ----------------
        crossbar = self._link(join(gpu, "L1ToL2Conn"), 4,
                              *(l2.top_port for l2 in chiplet.l2s),
                              rdma.l1_port, rdma.l2_port)

        # -- control plane ------------------------------------------------
        cp = CommandProcessor(join(gpu, "CommandProcessor"), engine,
                              cfg.freq)
        dispatcher = Dispatcher(join(gpu, "Dispatcher"), engine, cfg.freq)
        sim.register_component(cp)
        sim.register_component(dispatcher)
        chiplet.command_processor = cp
        chiplet.dispatcher = dispatcher
        driver_conn.plug_in(cp.driver_port)
        self.driver.connect_gpu(cp.driver_port)

        self._link(join(gpu, "CPDispatcherConn"), 1,
                   cp.dispatcher_port, dispatcher.cp_port)
        cp.connect(dispatcher.cp_port)

        dispatch_bus = self._link(join(gpu, "DispatchBus"), 1,
                                  dispatcher.cu_port)

        # -- shader arrays ------------------------------------------------
        l2_tops = [l2.top_port for l2 in chiplet.l2s]
        route = _ChipletRoute(self.mapper, i, l2_tops, rdma.l1_port)

        for j in range(cfg.sas_per_gpu):
            sa = join(gpu, indexed("SA", j))
            scalar_top = self._build_scalar_path(chiplet, sa, route,
                                                 crossbar)
            for k in range(cfg.cus_per_sa):
                self._build_cu_chain(chiplet, sa, k, route, crossbar,
                                     dispatch_bus, dispatcher,
                                     scalar_top)

        rdma.connect(
            switch_port=self.switch.switch_port(i),
            remote_ports={},  # filled in _wire_network
            bank_route=_BankRoute(self.mapper, l2_tops),
            chiplet_of=self.mapper.chiplet_of,
        )
        return chiplet

    def _build_scalar_path(self, chiplet: Chiplet, sa: str,
                           route: Callable[[int], Port],
                           crossbar: DirectConnection) -> Port:
        """One scalar translator + cache shared by the SA's CUs
        (MGPUSim's L1SAddrTrans / L1SCache)."""
        cfg = self.config
        engine = self.engine
        sim = self.simulation
        s_at = AddressTranslator(join(sa, indexed("L1SAddrTrans", 0)),
                                 engine, cfg.freq,
                                 tlb_capacity=cfg.at_tlb_capacity,
                                 miss_latency=cfg.at_miss_latency,
                                 max_inflight=cfg.at_max_inflight)
        s_l1 = L1VCache(join(sa, indexed("L1SCache", 0)), engine,
                        cfg.freq, size_bytes=cfg.scalar_cache_bytes,
                        ways=cfg.l1_ways, mshr_capacity=cfg.l1_mshr)
        sim.register_component(s_at)
        sim.register_component(s_l1)
        chiplet.scalar_ats.append(s_at)
        chiplet.scalar_caches.append(s_l1)

        self._link(join(sa, "SATL1SConn"), 1, s_at.bottom_port,
                   s_l1.top_port)
        crossbar.plug_in(s_l1.bottom_port)

        # The SA-shared scalar bus gains CU ScalarPorts in
        # _build_cu_chain.
        self._scalar_buses[sa] = self._link(join(sa, "ScalarBus"), 1,
                                            s_at.top_port)

        s_at.connect_down(s_l1.top_port)
        s_l1.set_route(route)
        return s_at.top_port

    def _build_cu_chain(self, chiplet: Chiplet, sa: str, k: int,
                        route: Callable[[int], Port],
                        crossbar: DirectConnection,
                        dispatch_bus: DirectConnection,
                        dispatcher: Dispatcher,
                        scalar_top: Optional[Port] = None) -> None:
        cfg = self.config
        sim = self.simulation
        engine = self.engine

        cu = ComputeUnit(join(sa, indexed("CU", k)), engine, cfg.freq,
                         max_wavefronts=cfg.max_wavefronts_per_cu,
                         max_outstanding_per_wf=cfg.max_outstanding_per_wf)
        rob = ReorderBuffer(join(sa, indexed("L1VROB", k)), engine,
                            cfg.freq, capacity=cfg.rob_capacity,
                            top_buf=cfg.rob_top_buf)
        at = AddressTranslator(join(sa, indexed("L1VAddrTrans", k)),
                               engine, cfg.freq,
                               tlb_capacity=cfg.at_tlb_capacity,
                               miss_latency=cfg.at_miss_latency,
                               max_inflight=cfg.at_max_inflight)
        l1 = L1VCache(join(sa, indexed("L1VCache", k)), engine, cfg.freq,
                      size_bytes=cfg.l1_size_bytes, ways=cfg.l1_ways,
                      mshr_capacity=cfg.l1_mshr)
        for component in (cu, rob, at, l1):
            sim.register_component(component)
        chiplet.cus.append(cu)
        chiplet.robs.append(rob)
        chiplet.ats.append(at)
        chiplet.l1s.append(l1)

        self._link(join(sa, indexed("CUROBConn", k)), 1, cu.mem_port,
                   rob.top_port)
        self._link(join(sa, indexed("ROBATConn", k)), 1, rob.bottom_port,
                   at.top_port)
        self._link(join(sa, indexed("ATL1Conn", k)), 1, at.bottom_port,
                   l1.top_port)

        crossbar.plug_in(l1.bottom_port)
        dispatch_bus.plug_in(cu.ctrl_port)
        if scalar_top is not None:
            self._scalar_buses[sa].plug_in(cu.scalar_port)

        cu.connect(rob.top_port, dispatcher.cu_port,
                   scalar_top=scalar_top)
        rob.connect_down(at.top_port)
        at.connect_down(l1.top_port)
        l1.set_route(route)
        dispatcher.register_cu(cu)

    def _wire_network(self) -> None:
        cfg = self.config
        remote_ports: Dict[int, Port] = {
            c.id: c.rdma.net_port for c in self.chiplets}
        for chiplet in self.chiplets:
            rdma = chiplet.rdma
            rdma._remote_ports = dict(remote_ports)
            self._link(join(chiplet.name, "NetLink"),
                       cfg.net_link_latency_cycles, rdma.net_port,
                       self.switch.switch_port(chiplet.id))
            self.switch.add_route(rdma.net_port, chiplet.id)

    # ------------------------------------------------------------------
    # Execution helpers
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Kick the driver so enqueued commands begin executing.  A
        driver mid-command (a restored snapshot) is woken by its own
        traffic; a kick would add a tick the uninterrupted run lacks."""
        if self.driver._current is None:
            self.driver.tick_later()

    def run(self, hang_wait: float = 0.0) -> bool:
        """Start and run to completion; see :meth:`Simulation.run`."""
        self.start()
        return self.simulation.run(hang_wait)
