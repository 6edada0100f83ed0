"""CHERI capability value type.

A capability is an architectural fat pointer: an address (the cursor), a
bounds range ``[base, top)``, a permission set, and a validity *tag*. The
three properties the paper relies on (§2.1) are modelled exactly:

1. capabilities carry bounds limiting the addresses they authorize;
2. capabilities may only be *derived* from a superset capability
   (monotonicity); and
3. valid capabilities are perfectly distinguishable from plain data
   (the tag, stored out of band by :class:`repro.machine.memory.TaggedMemory`).

Revocation tests the bit corresponding to the capability *base*, not its
cursor, because CHERI guarantees the base cannot be moved (§2.2.2 fn. 9);
:meth:`Capability.revocation_probe_address` encodes that rule.

Bounds compression (CHERI Concentrate [57]) is modelled by
:func:`representable_alignment`: large allocations must be aligned and
padded so their bounds are exactly representable, which is why the kernel's
reservations pad with guard pages (§6.2 fn. 26).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from repro.errors import CapabilityError

#: Number of mantissa bits in the modelled bounds-compression format.
#: CHERI Concentrate on Morello uses a 14-bit mantissa for 128-bit
#: capabilities; lengths needing a coarser exponent must be aligned.
MANTISSA_BITS = 14


class Perm(enum.IntFlag):
    """Capability permission bits (the subset this model needs)."""

    LOAD = enum.auto()
    STORE = enum.auto()
    LOAD_CAP = enum.auto()
    STORE_CAP = enum.auto()
    GLOBAL = enum.auto()

    @classmethod
    def all(cls) -> "Perm":
        return cls.LOAD | cls.STORE | cls.LOAD_CAP | cls.STORE_CAP | cls.GLOBAL


def representable_alignment(length: int) -> int:
    """Alignment (bytes) required for a ``length``-byte region's bounds to
    be exactly representable under compressed bounds.

    Lengths that fit in the mantissa need no alignment; larger lengths need
    ``2**e`` alignment where ``e`` is the exponent required to express the
    length. This mirrors CHERI Concentrate closely enough to reproduce the
    padding behaviour allocators and reservations must implement.
    """
    if length < 0:
        raise CapabilityError(f"negative length {length}")
    if length < (1 << MANTISSA_BITS):
        return 1
    exponent = max(0, length.bit_length() - MANTISSA_BITS)
    return 1 << exponent


def representable_length(length: int) -> int:
    """Round ``length`` up to the next representable length."""
    align = representable_alignment(length)
    return (length + align - 1) & ~(align - 1)


@dataclass(frozen=True, slots=True)
class Capability:
    """An immutable CHERI capability.

    Use :meth:`root` to construct the primordial capability for a region
    and :meth:`derive` / :meth:`with_address` for monotonic refinement.
    ``tag`` is True for valid capabilities; revocation and data overwrites
    clear it (producing an untagged value that can no longer authorize
    anything).
    """

    base: int
    length: int
    address: int
    perms: Perm = Perm.all()
    tag: bool = True

    def __post_init__(self) -> None:
        if self.base < 0 or self.length < 0:
            raise CapabilityError(
                f"malformed capability base={self.base} length={self.length}"
            )

    # --- Constructors ---------------------------------------------------

    @classmethod
    def root(cls, base: int, length: int, perms: Perm | None = None) -> "Capability":
        """The primordial capability over ``[base, base+length)``."""
        return cls(
            base=base,
            length=length,
            address=base,
            perms=Perm.all() if perms is None else perms,
        )

    # --- Properties -------------------------------------------------------

    @property
    def top(self) -> int:
        """One past the last byte this capability authorizes."""
        return self.base + self.length

    def in_bounds(self, address: int, nbytes: int = 1) -> bool:
        """Whether ``[address, address+nbytes)`` lies within bounds."""
        return self.base <= address and address + nbytes <= self.top

    @property
    def revocation_probe_address(self) -> int:
        """The address whose revocation-bitmap bit governs this capability.

        Revocation probes the *base*, which CHERI guarantees is immovable
        (§2.2.2 fn. 9), so out-of-bounds cursors cannot dodge revocation.
        """
        return self.base

    # --- Monotonic derivation --------------------------------------------

    def derive(
        self,
        base: int,
        length: int,
        perms: Perm | None = None,
    ) -> "Capability":
        """Derive a sub-capability with narrowed bounds and permissions.

        Raises :class:`CapabilityError` on any attempt to widen bounds or
        add permissions (monotonicity, §2.1 property 2), or to derive from
        an untagged capability.
        """
        if not self.tag:
            raise CapabilityError("cannot derive from an untagged capability")
        if base < self.base or base + length > self.top:
            raise CapabilityError(
                f"non-monotonic derivation: [{base:#x},{base + length:#x}) "
                f"not within [{self.base:#x},{self.top:#x})"
            )
        new_perms = self.perms if perms is None else perms
        if new_perms & ~self.perms:
            raise CapabilityError(
                f"non-monotonic permissions: {new_perms!r} not within {self.perms!r}"
            )
        return Capability(base=base, length=length, address=base, perms=new_perms)

    def with_address(self, address: int) -> "Capability":
        """Return a copy with the cursor moved to ``address``.

        Moving the cursor far outside bounds makes compressed bounds
        unrepresentable; the architecture then clears the tag, which this
        model reproduces via :meth:`_representable_cursor`.

        This is the hottest constructor in the simulation, so it builds
        the copy directly instead of via ``dataclasses.replace``.
        """
        cap = object.__new__(Capability)
        object.__setattr__(cap, "base", self.base)
        object.__setattr__(cap, "length", self.length)
        object.__setattr__(cap, "address", address)
        object.__setattr__(cap, "perms", self.perms)
        tag = self.tag
        if tag and not (self.base <= address <= self.base + self.length):
            tag = cap._representable_cursor()
        object.__setattr__(cap, "tag", tag)
        return cap

    def _representable_cursor(self) -> bool:
        """Whether the cursor stays within the representable window.

        The window extends one representable-alignment unit beyond each
        bound, a simplification of CHERI Concentrate's actual window that
        preserves the property the paper needs: bases cannot be moved and
        cursors cannot stray arbitrarily while keeping the tag.
        """
        slack = max(representable_alignment(self.length), 1 << 10)
        return (self.base - slack) <= self.address <= (self.top + slack)

    def cleared(self) -> "Capability":
        """Return this capability with its tag cleared (revoked)."""
        return replace(self, tag=False)

    # --- Dereference checks -----------------------------------------------

    def check_dereference(self, nbytes: int, perm: "Perm | int") -> None:
        """Validate a ``nbytes`` access at the cursor needing ``perm``.

        Raises :class:`CapabilityError` exactly when CHERI hardware would
        deliver a capability exception: untagged, out of bounds, or missing
        permission.
        """
        if not self.tag:
            raise CapabilityError(
                f"dereference through untagged capability at {self.address:#x}"
            )
        addr = self.address
        if addr < self.base or addr + nbytes > self.base + self.length:
            raise CapabilityError(
                f"out-of-bounds access: {nbytes} bytes at {self.address:#x} "
                f"outside [{self.base:#x},{self.top:#x})"
            )
        # Raw-int comparisons: IntFlag operator dispatch is too slow for
        # this, the hottest check in the simulation. Callers may pass the
        # precomputed integer mask directly.
        want = perm if type(perm) is int else perm.value
        if (int(self.perms) & want) != want:
            raise CapabilityError(
                f"missing permission {perm!r} (have {self.perms!r})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        t = "v" if self.tag else "-"
        return (
            f"Cap[{t} {self.address:#x} in {self.base:#x}+{self.length:#x} "
            f"{self.perms!r}]"
        )
