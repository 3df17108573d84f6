"""Software-managed memory spaces of the FT-m7032 model.

DSP cores in FT-m7032 have no data cache for vector data: kernels work on
explicitly allocated buffers in the Scalar Memory (SM), Array Memory (AM)
and the cluster-shared GSM, filled by DMA.  The paper's blocking parameters
are chosen precisely to fit these capacities (Section IV-C), so enforcing
them is load-bearing for the reproduction: a plan whose tiles don't fit must
fail loudly.

:class:`MemorySpace` is a bump allocator: a lowering sizes its tiles once
and never frees them.  Buffers optionally carry a NumPy array (functional
execution); timing-only runs allocate unbacked buffers so multi-gigabyte
DDR operands cost nothing.
A space given a byte ``arena`` backs its buffers with views into it at
their allocated offsets instead of fresh zeroed arrays: the contents are
then whatever the last user left, so a program must write a tile before
it reads it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from ..errors import AllocationError, CapacityError


class MemKind(enum.Enum):
    """The four levels of the memory hierarchy (Fig. 1 / Fig. 2)."""

    DDR = "ddr"   # off-chip main memory (42.6 GB/s per cluster)
    GSM = "gsm"   # 6 MB cluster-shared on-chip memory
    SM = "sm"     # 64 KB per-core scalar memory
    AM = "am"     # 768 KB per-core array memory

    @property
    def on_chip(self) -> bool:
        return self is not MemKind.DDR


@dataclass
class Buffer:
    """An allocation inside a :class:`MemorySpace`.

    ``shape``/``dtype`` describe the logical tile.  ``data`` is present only
    for functionally-backed buffers.  ``offset`` is the byte offset within
    the space, kept so tests can assert deterministic, in-bounds placement.
    """

    space: "MemorySpace"
    offset: int
    nbytes: int
    shape: tuple[int, ...]
    dtype: np.dtype
    data: np.ndarray | None = None
    label: str = ""

    @property
    def end(self) -> int:
        return self.offset + self.nbytes

    def array(self) -> np.ndarray:
        """The backing array; raises for unbacked (timing-only) buffers."""
        if self.data is None:
            raise AllocationError(
                f"buffer {self.label or '<anon>'} in {self.space.name} is "
                "not backed by data (timing-only allocation)"
            )
        return self.data

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        backed = "backed" if self.data is not None else "unbacked"
        return (
            f"Buffer({self.label or 'anon'}@{self.space.name}"
            f"+{self.offset}, {self.shape}, {backed})"
        )


@dataclass
class MemorySpace:
    """One addressable memory with capacity enforcement.

    Allocation is a bump pointer: each tile starts, aligned, where the
    last one ended.  A lowering sizes its tiles once per blocking plan
    and keeps them for the whole kernel (Sec. IV-C), so nothing is ever
    freed and the running end is also the peak.
    """

    name: str
    kind: MemKind
    capacity: int
    alignment: int = 64
    #: bytes allocated so far: the offset the next tile starts at
    used: int = field(default=0, init=False)
    #: optional ``capacity``-byte scratch that backed buffers view into
    arena: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise CapacityError(f"{self.name}: capacity must be positive")
        if self.alignment < 1 or self.alignment & (self.alignment - 1):
            raise CapacityError(f"{self.name}: alignment must be a power of 2")

    @property
    def peak_used(self) -> int:
        """High-water mark; with no frees, the bytes allocated so far."""
        return self.used

    @property
    def free_bytes(self) -> int:
        return self.capacity - self.used

    def alloc(
        self,
        shape: tuple[int, ...],
        dtype: np.dtype | str = np.float32,
        *,
        backed: bool = False,
        label: str = "",
    ) -> Buffer:
        """Allocate a tile of ``shape`` x ``dtype``.

        Raises :class:`CapacityError`, leaving the space as it was, when
        the space cannot hold it — this is how an over-sized blocking plan
        is rejected, mirroring what a real FT-m7032 build would catch at
        link time.
        """
        dt = np.dtype(dtype)
        nelems = 1
        for extent in shape:
            if extent < 0:
                raise AllocationError(f"negative extent in shape {shape}")
            nelems *= extent
        nbytes = nelems * dt.itemsize
        a = self.alignment
        rounded = max((nbytes + a - 1) // a * a, a)
        offset = self.used
        if rounded > self.capacity - offset:
            raise CapacityError(
                f"{self.name} ({self.kind.value}): cannot allocate "
                f"{nbytes} B for {label or shape}; "
                f"{self.free_bytes} B free of {self.capacity}"
            )
        self.used = offset + rounded
        data = None
        if backed and self.arena is not None:
            data = (
                self.arena[offset : offset + nbytes].view(dt).reshape(shape)
            )
        elif backed:
            data = np.zeros(shape, dtype=dt)
        return Buffer(
            space=self,
            offset=offset,
            nbytes=rounded,
            shape=tuple(shape),
            dtype=dt,
            data=data,
            label=label,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MemorySpace({self.name}, {self.kind.value}, "
            f"{self.used}/{self.capacity} B used)"
        )
