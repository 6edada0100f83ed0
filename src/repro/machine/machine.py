"""The assembled machine: memory, bus, cores, page table, scheduler.

:class:`Machine` is the hardware a :class:`repro.core.simulation.Simulation`
boots: a Morello-like SMP with four cache-coherent cores by default
(§2.1.1), tagged memory, and one page table (the simulation runs a single
process under test, as the paper's harness does).
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.machine.cache import Bus
from repro.machine.costs import PAGE_BYTES, CostModel, default_cost_model
from repro.machine.cpu import Core
from repro.machine.memory import TaggedMemory
from repro.machine.pagetable import PageTable
from repro.machine.scheduler import DEFAULT_QUANTUM, Scheduler
from repro.obs.tracer import TRACER


class Machine:
    """A simulated CHERI SMP machine."""

    def __init__(
        self,
        memory_bytes: int = 256 << 20,
        num_cores: int = 4,
        costs: CostModel | None = None,
        cache_bytes: int = 1 << 20,
        quantum: int = DEFAULT_QUANTUM,
    ) -> None:
        if num_cores < 1:
            raise ConfigError("need at least one core")
        if memory_bytes % PAGE_BYTES:
            raise ConfigError("memory must be a page multiple")
        self.costs = costs if costs is not None else default_cost_model()
        self.memory = TaggedMemory(memory_bytes)
        self.bus = Bus()
        self.pagetable = PageTable()
        self.cores = [
            Core(i, self.memory, self.pagetable, self.bus, self.costs, cache_bytes)
            for i in range(num_cores)
        ]
        self.scheduler = Scheduler(self.cores, quantum=quantum)

    @property
    def num_cores(self) -> int:
        return len(self.cores)

    def core(self, index: int) -> Core:
        return self.cores[index]

    def tlb_shootdown(self, vpn: int | None = None) -> int:
        """Invalidate ``vpn`` (or everything) in every core's TLB; returns
        the IPI cycle cost, charged to the caller."""
        for core in self.cores:
            if vpn is None:
                core.tlb.invalidate_all()
            else:
                core.tlb.invalidate(vpn)
        if TRACER.enabled:
            TRACER.emit("tlb.shootdown", vpn=vpn, cores=len(self.cores))
        return self.costs.tlb_shootdown * (len(self.cores) - 1)
