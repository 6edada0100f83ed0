"""The revocation ("shadow") bitmap (§2.2.2).

One bit per 16-byte granule of the address space — the same density as
CHERI tags. A set bit means: capabilities whose *base* falls on that
granule are to be revoked. Allocators paint an allocation's entire range
when it enters quarantine, so any capability derived from it (whose base
must lie inside the allocation, by monotonicity) is caught.

In CheriBSD the bitmap is a kernel-provided anonymous object written by
user allocators and read by the kernel sweep. Here it is numpy-backed;
the *traffic* of painting and probing is charged by the callers through
their core's cache, using the synthetic shadow address range this class
exposes (consecutive heap pages share shadow cache lines, as in reality:
a 4 KiB page's shadow is 32 bytes).
"""

from __future__ import annotations

import numpy as np

from repro.errors import VMError
from repro.machine.capability import Capability
from repro.machine.costs import GRANULE_BYTES
from repro.obs.tracer import TRACER


class RevocationBitmap:
    """Shadow bitmap over a ``size_bytes`` address space."""

    def __init__(self, size_bytes: int) -> None:
        self.size_bytes = size_bytes
        self.num_granules = size_bytes // GRANULE_BYTES
        self._bits = np.zeros(self.num_granules, dtype=bool)
        #: Synthetic byte address of the bitmap's backing store, used only
        #: so painting/probing shows up in cache/bus accounting.
        self.shadow_base = size_bytes
        self.painted_granules = 0

    # --- Address helpers -----------------------------------------------------

    def _granule_range(self, addr: int, nbytes: int) -> tuple[int, int]:
        if addr % GRANULE_BYTES or nbytes % GRANULE_BYTES:
            raise VMError(
                f"quarantine region must be granule aligned: {addr:#x}+{nbytes}"
            )
        g0 = addr // GRANULE_BYTES
        g1 = g0 + nbytes // GRANULE_BYTES
        if g1 > self.num_granules:
            raise VMError(f"quarantine region out of range: {addr:#x}+{nbytes}")
        return g0, g1

    def shadow_addr_of_granule(self, granule: int) -> int:
        """Byte address of the bitmap bit for ``granule`` (for cache charging)."""
        return self.shadow_base + granule // 8

    def shadow_span(self, addr: int, nbytes: int) -> tuple[int, int]:
        """(shadow byte address, shadow byte length) covering a region."""
        g0, g1 = self._granule_range(addr, nbytes)
        start = self.shadow_base + g0 // 8
        length = max(1, (g1 - g0 + 7) // 8)
        return start, length

    # --- Painting (user side) ---------------------------------------------------

    def paint(self, addr: int, nbytes: int) -> int:
        """Mark a freed region for revocation; returns granules painted."""
        g0, g1 = self._granule_range(addr, nbytes)
        span = self._bits[g0:g1]
        newly = int((~span).sum())
        span[:] = True
        self.painted_granules += newly
        if TRACER.enabled:
            TRACER.emit("shadow.paint", granules=g1 - g0)
        return g1 - g0

    def unpaint(self, addr: int, nbytes: int) -> int:
        """Clear a region's bits when the allocator dequarantines it (the
        region is about to be reused, so future capabilities to it must not
        be revoked). Returns granules cleared."""
        g0, g1 = self._granule_range(addr, nbytes)
        span = self._bits[g0:g1]
        cleared = int(span.sum())
        span[:] = False
        self.painted_granules -= cleared
        if TRACER.enabled:
            TRACER.emit("shadow.unpaint", granules=g1 - g0)
        return g1 - g0

    def unpaint_many(self, regions) -> int:
        """Clear the bits of many ``(addr, nbytes)`` regions in one call
        (quarantine batch release); returns total granules spanned —
        the Python-loop overhead stays here instead of in every caller."""
        total = 0
        for addr, nbytes in regions:
            total += self.unpaint(addr, nbytes)
        return total

    # --- Probing (kernel side) ----------------------------------------------------

    def is_revoked(self, cap: Capability) -> bool:
        """Whether ``cap`` is condemned: probes the bit of its *base*
        (§2.2.2 fn. 9 — bases cannot be forged out of an allocation)."""
        g = cap.revocation_probe_address // GRANULE_BYTES
        if g >= self.num_granules:
            return False
        return bool(self._bits[g])

    def probe_bases(self, bases: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`is_revoked`: probe many capability bases in
        one gather; returns a bool array aligned with ``bases``.

        Bases past the end of the bitmap read as not-condemned, matching
        the scalar probe's out-of-range rule. Capability bases are never
        negative, so such a base makes the plain gather raise rather than
        wrap, and only then is the range mask paid for.
        """
        g = bases // GRANULE_BYTES
        try:
            return self._bits[g]
        except IndexError:
            in_range = g < self.num_granules
            out = np.zeros(len(g), dtype=bool)
            out[in_range] = self._bits[g[in_range]]
            return out

    def is_painted_addr(self, addr: int) -> bool:
        return bool(self._bits[addr // GRANULE_BYTES])

    @property
    def any_painted(self) -> bool:
        return self.painted_granules > 0
