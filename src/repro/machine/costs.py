"""Cycle-cost model for the simulated CHERI/Morello machine.

Every architectural event that the simulation charges time for is named
here, in one place, so that calibration and ablation are possible without
touching mechanism code. The default values approximate a Morello-class
core at 2.5 GHz (the paper's evaluation platform, §2.1.1): one microsecond
is 2500 cycles.

The absolute values are calibration inputs, not claims: the reproduction
targets the *shape* of the paper's results (which strategy wins, by what
rough factor), which is driven by how many of each event occurs — and that
is produced by the mechanism, not by this table.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Bytes per capability granule: one tag bit covers this much memory (§2.2.2).
GRANULE_BYTES = 16

#: Bytes per cache line charged on the memory bus.
LINE_BYTES = 64

#: Bytes per virtual memory page.
PAGE_BYTES = 4096

#: Capability granules per page.
GRANULES_PER_PAGE = PAGE_BYTES // GRANULE_BYTES

#: Cache lines per page.
LINES_PER_PAGE = PAGE_BYTES // LINE_BYTES

#: Simulated core clock, cycles per second (Morello clocks at 2.5 GHz).
CYCLES_PER_SECOND = 2_500_000_000


def cycles_to_seconds(cycles: float) -> float:
    """Convert a cycle count to seconds at the simulated clock rate."""
    return cycles / CYCLES_PER_SECOND


def cycles_to_millis(cycles: float) -> float:
    """Convert a cycle count to milliseconds at the simulated clock rate."""
    return cycles * 1000.0 / CYCLES_PER_SECOND


def cycles_to_micros(cycles: float) -> float:
    """Convert a cycle count to microseconds at the simulated clock rate."""
    return cycles * 1_000_000.0 / CYCLES_PER_SECOND


@dataclass
class CostModel:
    """Cycle costs of architectural and kernel events.

    Attributes are grouped by the layer that charges them. All values are
    cycles unless noted.
    """

    # --- Core pipeline -------------------------------------------------
    #: Issue cost of any load or store that hits in the cache.
    mem_hit: int = 4
    #: Additional penalty when a load or store misses to DRAM.
    mem_miss: int = 110
    #: Per-line penalty of *streaming* (sequential, prefetched) misses —
    #: what a page sweep pays. Morello's sweep throughput (fig. 9: tens of
    #: MiB per tens of ms) implies a few GB/s, i.e. tens of cycles per
    #: 64-byte line, far below the random-access miss latency.
    mem_stream: int = 35
    #: Extra issue cost of a capability (vs integer) load or store; tagged
    #: accesses move 16 bytes plus the tag.
    cap_access_extra: int = 1

    # --- Traps and kernel entry ---------------------------------------
    #: Kernel entry + exit for a synchronous trap (load-generation fault,
    #: capability store fault). Covers pipeline flush, vectoring, ERET.
    trap_roundtrip: int = 600
    #: Taking and releasing the pmap lock around a PTE update (§4.3).
    pmap_lock: int = 120
    #: Rewriting one PTE (e.g. bumping its load generation bit).
    pte_update: int = 40
    #: A TLB shootdown IPI, charged per remote core notified.
    tlb_shootdown: int = 2500
    #: Re-walking the page table when a stale TLB entry caused a spurious
    #: load-generation fault (the PTE was already current; §4.3).
    tlb_refill: int = 60

    # --- Revocation sweep ----------------------------------------------
    #: Per-granule cost of the sweep inner loop: load the tag, and if set,
    #: probe the revocation bitmap for the capability base (§2.2.2).
    sweep_granule: int = 2
    #: Extra cost per *tagged* granule encountered (bitmap probe arithmetic
    #: and the conditional revocation store).
    sweep_tagged_extra: int = 8
    #: Extra cost to clear (revoke) one capability found quarantined.
    sweep_revoke_extra: int = 12
    #: Fixed per-page overhead of a sweep visit: acquiring the page,
    #: checking its disposition, and updating bookkeeping (§4.3).
    sweep_page_overhead: int = 350
    #: Per-page cost of a generation-only visit (capability-clean page:
    #: the PTE's generation is updated without reading contents; §4.1
    #: footnote and §7.6).
    sweep_clean_page: int = 120
    #: Upgrading a read-only page to writable through the full page-fault
    #: machinery, paid only when a capability on such a page must actually
    #: be revoked (§4.3: read-only pages are otherwise put back into
    #: service as-is).
    sweep_ro_upgrade: int = 3_000
    #: §7.5 relaxed tag coherence: when True, the sweep first reads the
    #: page's *tag table* view (one line covers many pages' tags) and
    #: touches data lines only where tags are actually set, instead of
    #: streaming every data line. Requires an efficient global view of
    #: tags at epoch start (e.g. tag write-back), which the paper poses
    #: as future work — off by default.
    tag_table_sweep: bool = False
    #: Lines of data read per *tagged* granule under tag_table_sweep
    #: (the granule's own line; neighbours usually share it).
    tag_sweep_lines_per_cap: int = 1

    # --- Stop-the-world ------------------------------------------------
    #: Base cost of quiescing a single-threaded process with FreeBSD's
    #: thread_single() machinery and restarting it (§4.4, §5.4: "tens of
    #: microseconds" for single-threaded workloads).
    stw_base: int = 60_000
    #: Additional cost per extra application thread that must be brought
    #: to a safe point (gRPC's two busy cores push Reloaded's median STW
    #: to 323 us, §5.4).
    stw_per_extra_thread: int = 320_000
    #: Cost to scan one capability register during the STW register-file
    #: scan (§3.2).
    stw_per_register: int = 20
    #: Cost to scan one capability hoarded by the kernel (§4.4).
    stw_per_hoarded_cap: int = 30
    #: Cost to flip one core's capability load generation bit (§4.1).
    clg_flip: int = 200

    # --- Allocator / mrs shim -------------------------------------------
    #: Allocator fast-path cost of malloc (size-class pop).
    malloc_fast: int = 60
    #: Allocator slow-path extra (new slab, chunk request).
    malloc_slow_extra: int = 900
    #: Allocator fast-path cost of free.
    free_fast: int = 55
    #: Per-granule cost of painting the revocation bitmap on free (§2.2.2).
    paint_per_granule: int = 1
    #: Fixed overhead per free for quarantine bookkeeping in the shim.
    quarantine_bookkeeping: int = 120
    #: Fixed overhead of the revocation syscall (one per phase, §4.3).
    revoke_syscall: int = 4_000

    # --- Contention -----------------------------------------------------
    #: Multiplier applied to the DRAM miss penalty of application accesses
    #: while a revocation sweep is actively streaming memory on another
    #: core (shared-bus bandwidth contention; §5.6 discusses the cache and
    #: bus interactions of concurrent sweeps).
    sweep_contention_factor: float = 0.7

    # --- Derived helpers -------------------------------------------------
    def page_sweep_cycles(self, tagged: int, revoked: int) -> int:
        """Cycles to sweep one 4 KiB page holding ``tagged`` tagged granules,
        of which ``revoked`` get revoked."""
        return (
            self.sweep_page_overhead
            + GRANULES_PER_PAGE * self.sweep_granule
            + tagged * self.sweep_tagged_extra
            + revoked * self.sweep_revoke_extra
        )

    def stw_cycles(self, extra_threads: int, registers: int, hoarded: int) -> int:
        """Cycles for a stop-the-world rendezvous plus capability scans."""
        return (
            self.stw_base
            + extra_threads * self.stw_per_extra_thread
            + registers * self.stw_per_register
            + hoarded * self.stw_per_hoarded_cap
        )


def default_cost_model() -> CostModel:
    """Return a fresh :class:`CostModel` with the calibrated defaults."""
    return CostModel()
