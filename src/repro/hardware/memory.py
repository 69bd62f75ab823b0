"""Virtual memory for the simulated platform.

The paper's measurements run in user space, so the experimenter controls
*virtual* addresses while the caches beyond L1 are indexed by *physical*
addresses.  The practical fix — used by the paper and reproduced here —
is large pages: with 2 MiB pages the low 21 address bits are identical in
both spaces, which covers the index bits of every cache of interest.

:class:`VirtualMemory` hands out buffers backed by a simulated physical
page mapping:

* ``page_size >= 2 MiB`` — contiguous physical backing (huge pages);
  virtual offsets translate one-to-one.
* small pages (e.g. 4 KiB) — a shuffled physical page assignment, so the
  harness must *search* a buffer for lines that map to a wanted set,
  exactly as on hardware without huge pages.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, MeasurementError
from repro.util.bits import is_power_of_two
from repro.util.rng import SeededRng

HUGE_PAGE_SIZE = 2 * 1024 * 1024


@dataclass(frozen=True)
class VirtualBuffer:
    """A contiguous virtual allocation."""

    base: int
    size: int

    def line_addresses(self, line_size: int) -> range:
        """Virtual addresses of every line in the buffer."""
        return range(self.base, self.base + self.size, line_size)


class VirtualMemory:
    """Page-granular virtual-to-physical mapping."""

    def __init__(
        self,
        page_size: int = HUGE_PAGE_SIZE,
        physical_size: int = 1 << 34,
        rng: SeededRng | None = None,
    ) -> None:
        if not is_power_of_two(page_size):
            raise ConfigurationError(f"page_size must be a power of two, got {page_size}")
        if physical_size % page_size != 0:
            raise ConfigurationError("physical_size must be a multiple of page_size")
        self.page_size = page_size
        self.physical_size = physical_size
        self._rng = rng if rng is not None else SeededRng(0)
        self._next_virtual = page_size  # keep 0 unmapped, like a real process
        self._page_table: dict[int, int] = {}  # virtual page number -> physical
        # Huge pages: frames are claimed lowest-first and never freed, so
        # the free frames are always the run [_next_frame, frame count).
        self._next_frame = 0
        # Small pages: frames in the order that shuffling the list of
        # every frame number and popping from its end gives, computed
        # lazily.  Positions below ``_unshuffled`` are not fixed yet;
        # ``_moved`` holds those whose frame differs from their index.
        self._unshuffled = physical_size // page_size
        self._moved: dict[int, int] = {}

    @property
    def huge_pages(self) -> bool:
        """True when pages are large enough for easy set targeting."""
        return self.page_size >= HUGE_PAGE_SIZE

    def allocate(self, size: int) -> VirtualBuffer:
        """Map a new buffer of at least ``size`` bytes; return it."""
        if size <= 0:
            raise MeasurementError("allocation size must be positive")
        pages = -(-size // self.page_size)
        base = self._next_virtual
        if self.huge_pages:
            # Contiguous physical backing: reserve a run of frames.
            start = self._claim_contiguous(pages)
            for i in range(pages):
                self._page_table[(base // self.page_size) + i] = start + i
        else:
            if pages > self._unshuffled:
                raise MeasurementError("out of simulated physical memory")
            for i in range(pages):
                self._page_table[(base // self.page_size) + i] = self._pop_random_frame()
        self._next_virtual = base + pages * self.page_size
        return VirtualBuffer(base=base, size=pages * self.page_size)

    def _claim_contiguous(self, pages: int) -> int:
        start = self._next_frame
        if start + pages > self.physical_size // self.page_size:
            raise MeasurementError("out of simulated physical memory")
        self._next_frame = start + pages
        return start

    def _pop_random_frame(self) -> int:
        """Fix the last unfixed position ``i`` and return its frame.

        ``random.shuffle`` fixes positions from the end by swapping
        position ``i`` with ``randrange(i + 1)``; drawing the same values
        on the same stream yields the same frames in the same order.
        """
        i = self._unshuffled - 1
        moved = self._moved
        frame = moved.pop(i, i)
        if i > 0:
            j = self._rng.randrange(i + 1)
            if j != i:
                frame, moved[j] = moved.get(j, j), frame
        self._unshuffled = i
        return frame

    def translate(self, virtual: int) -> int:
        """Translate a virtual address to its physical address."""
        page = virtual // self.page_size
        if page not in self._page_table:
            raise MeasurementError(f"access to unmapped virtual address {virtual:#x}")
        frame = self._page_table[page]
        return frame * self.page_size + (virtual % self.page_size)
