"""Tests for simulated virtual memory."""

import pytest

from repro.errors import ConfigurationError, MeasurementError
from repro.hardware.memory import HUGE_PAGE_SIZE, VirtualMemory
from repro.util.rng import SeededRng


class TestConstruction:
    def test_rejects_bad_page_size(self):
        with pytest.raises(ConfigurationError):
            VirtualMemory(page_size=3000)

    def test_rejects_misaligned_physical_size(self):
        with pytest.raises(ConfigurationError):
            VirtualMemory(page_size=4096, physical_size=4096 * 3 + 1)

    def test_huge_pages_flag(self):
        assert VirtualMemory(page_size=HUGE_PAGE_SIZE).huge_pages
        assert not VirtualMemory(page_size=4096).huge_pages


class TestAllocation:
    def test_translate_round_trips_within_page(self):
        memory = VirtualMemory(page_size=4096)
        buffer = memory.allocate(8192)
        base_physical = memory.translate(buffer.base)
        assert memory.translate(buffer.base + 100) == base_physical + 100

    def test_huge_pages_contiguous_physical(self):
        memory = VirtualMemory()
        buffer = memory.allocate(8 * HUGE_PAGE_SIZE)
        first = memory.translate(buffer.base)
        for offset in range(0, buffer.size, HUGE_PAGE_SIZE):
            assert memory.translate(buffer.base + offset) == first + offset

    def test_small_pages_fragmented(self):
        memory = VirtualMemory(page_size=4096, rng=SeededRng(1))
        buffer = memory.allocate(64 * 4096)
        physicals = [
            memory.translate(buffer.base + i * 4096) for i in range(64)
        ]
        deltas = {b - a for a, b in zip(physicals, physicals[1:])}
        assert deltas != {4096}  # not an identity mapping

    def test_distinct_allocations_disjoint(self):
        memory = VirtualMemory(page_size=4096)
        a = memory.allocate(4096 * 4)
        b = memory.allocate(4096 * 4)
        pages_a = {memory.translate(a.base + i * 4096) for i in range(4)}
        pages_b = {memory.translate(b.base + i * 4096) for i in range(4)}
        assert not pages_a & pages_b

    def test_unmapped_access_rejected(self):
        memory = VirtualMemory(page_size=4096)
        with pytest.raises(MeasurementError):
            memory.translate(0)  # page zero is never mapped

    def test_zero_size_rejected(self):
        with pytest.raises(MeasurementError):
            VirtualMemory().allocate(0)

    def test_exhaustion_detected(self):
        memory = VirtualMemory(page_size=4096, physical_size=4096 * 8)
        with pytest.raises(MeasurementError):
            memory.allocate(4096 * 100)

    def test_line_addresses_cover_buffer(self):
        memory = VirtualMemory(page_size=4096)
        buffer = memory.allocate(4096)
        lines = list(buffer.line_addresses(64))
        assert len(lines) == 4096 // 64
        assert lines[0] == buffer.base


class _EagerFrames:
    """Reference frame assignment: a materialized, shuffled list of every
    frame, popped from its end for small pages and scanned for the lowest
    contiguous free run for huge pages."""

    def __init__(self, frame_count: int, rng: SeededRng) -> None:
        self.free = list(range(frame_count))
        rng.shuffle(self.free)

    def small(self, pages: int) -> list[int]:
        return [self.free.pop() for _ in range(pages)]

    def huge(self, pages: int) -> list[int]:
        frames = sorted(self.free)
        run_start, run_length = frames[0], 1
        if run_length >= pages:
            self.free.remove(run_start)
            return [run_start]
        for previous, current in zip(frames, frames[1:]):
            if current == previous + 1:
                run_length += 1
            else:
                run_start, run_length = current, 1
            if run_length >= pages:
                start = current - pages + 1
                claimed = set(range(start, start + pages))
                self.free = [f for f in self.free if f not in claimed]
                return list(range(start, start + pages))
        raise AssertionError("no contiguous run")


class TestLazyFrameAssignment:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("page_size", [4096, HUGE_PAGE_SIZE])
    def test_matches_eager_shuffle(self, seed, page_size):
        frame_count = 300
        memory = VirtualMemory(
            page_size=page_size, physical_size=frame_count * page_size, rng=SeededRng(seed)
        )
        eager = _EagerFrames(frame_count, SeededRng(seed))
        sizes = [1, 7, 1, 64, 3, 100, 2, 122]  # exhausts every frame
        assert sum(sizes) == frame_count
        for pages in sizes:
            buffer = memory.allocate(pages * page_size)
            got = [memory.translate(buffer.base + i * page_size) // page_size for i in range(pages)]
            want = eager.huge(pages) if memory.huge_pages else eager.small(pages)
            assert got == want
        with pytest.raises(MeasurementError):
            memory.allocate(page_size)
