"""Multi-level cache hierarchies.

Models the memory-side behaviour relevant to the paper's measurements:
which levels a line lands in, when lower levels back-invalidate upper
ones, and how many accesses reach each level.  Timing is not modelled —
the reverse-engineering algorithms observe *event counts* (per-level hits
and misses), which is also what the hardware performance counters used by
the paper report.

Inclusion behaviour is configured per level (``CacheConfig.inclusion``,
describing the level's relation to the levels *above* it, i.e. closer to
the core):

* ``"inclusive"`` — the level is filled on every demand miss that passes
  through it, and evicting a line back-invalidates all upper levels
  (Intel L3 before Skylake-SP).
* ``"nine"`` — non-inclusive non-exclusive: filled on demand misses, no
  back-invalidation (typical Intel L2).
* ``"exclusive"`` — demand misses bypass the level; it is populated only
  by victims evicted from the level directly above, and a hit migrates
  the line upward, removing it locally (AMD-style victim cache; included
  for completeness of the evaluation).

Writes are write-allocate/write-back: a store dirties the line in L1 and
dirty victims are written back to the next level that holds the line (or
to memory).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.cache.cache import Cache
from repro.cache.config import CacheConfig
from repro.cache.stats import HierarchyStats
from repro.errors import ConfigurationError
from repro.policies import PolicyFactory
from repro.util.rng import SeededRng


class HierarchyAccessResult:
    """What one access did at every level.

    Stores only the index of the hit level (``None`` for memory) and the
    hierarchy's level names; the per-level walk is derived on demand,
    so a load allocates nothing beyond this object.
    """

    __slots__ = ("address", "hit_index", "level_names")

    def __init__(
        self, address: int, hit_index: int | None, level_names: tuple[str, ...]
    ) -> None:
        self.address = address
        self.hit_index = hit_index
        self.level_names = level_names

    @property
    def hit_level(self) -> str | None:
        """Name of the level that held the line, or None for memory."""
        if self.hit_index is None:
            return None
        return self.level_names[self.hit_index]

    @property
    def level_hits(self) -> tuple[tuple[str, bool], ...]:
        """``(level name, hit)`` for every level looked up, in walk order."""
        if self.hit_index is None:
            return tuple((name, False) for name in self.level_names)
        return tuple(
            (name, index == self.hit_index)
            for index, name in enumerate(self.level_names[: self.hit_index + 1])
        )

    @property
    def served_by_memory(self) -> bool:
        """True when no cache level held the line."""
        return self.hit_index is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HierarchyAccessResult(address={self.address:#x}, hit_level={self.hit_level!r})"


class CacheHierarchy:
    """An ordered stack of caches, L1 first, backed by memory."""

    def __init__(
        self,
        configs: Sequence[CacheConfig],
        policies: Sequence[str | PolicyFactory],
        rng: SeededRng | None = None,
    ) -> None:
        if not configs:
            raise ConfigurationError("hierarchy needs at least one level")
        if len(configs) != len(policies):
            raise ConfigurationError("one policy per level is required")
        if configs[0].inclusion == "exclusive":
            raise ConfigurationError("the first level cannot be exclusive")
        names = [config.name for config in configs]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate level names: {names}")
        rng = rng if rng is not None else SeededRng(0)
        self.levels = [
            Cache(config, policy, rng=rng.fork(config.name))
            for config, policy in zip(configs, policies)
        ]
        self.stats = HierarchyStats(
            levels={cache.name: cache.stats for cache in self.levels}
        )
        # Per-level constants read on every load.
        self._names = tuple(names)
        self._inclusion = tuple(config.inclusion for config in configs)

    @property
    def level_names(self) -> list[str]:
        """Names of the levels, L1 first."""
        return list(self._names)

    def level(self, name: str) -> Cache:
        """Return the cache level called ``name``."""
        for cache in self.levels:
            if cache.name == name:
                return cache
        raise KeyError(f"no cache level named {name!r}")

    # -- the access path ----------------------------------------------------
    def access(
        self, address: int, write: bool = False, demand: bool = True
    ) -> HierarchyAccessResult:
        """Perform one load (or store) and propagate fills and victims.

        Prefetchers pass ``demand=False``: the access moves cache state
        exactly like a load, but no demand counter changes — hardware
        ``MEM_LOAD_RETIRED``-style events count retired demand loads only.
        """
        levels = self.levels
        hit_index: int | None = None
        for index, cache in enumerate(levels):
            if cache.lookup_touch(address, write and index == 0, demand):
                hit_index = index
                break
        if hit_index is None:
            if demand:
                self.stats.memory_accesses += 1
            self._fill_upwards(address, len(levels), write, demand)
        elif hit_index > 0:
            if self._inclusion[hit_index] == "exclusive":
                # Exclusive hit: the line migrates upward.
                levels[hit_index].invalidate(address)
            self._fill_upwards(address, hit_index, write, demand)
        return HierarchyAccessResult(address, hit_index, self._names)

    def _fill_upwards(
        self, address: int, source_index: int, write: bool, demand: bool = True
    ) -> None:
        """Fill the line into levels above ``source_index`` (exclusive skip)."""
        levels = self.levels
        inclusion = self._inclusion
        for index in range(source_index - 1, -1, -1):
            kind = inclusion[index]
            if index > 0 and kind == "exclusive":
                continue  # populated by victims only
            cache = levels[index]
            if cache.probe(address):
                continue  # already present (e.g. refilled via back path)
            result = cache.fill(address, write and index == 0, demand)
            evicted = result.evicted_address
            if evicted is not None:
                self._handle_victim(index, evicted, result.evicted_dirty)
                if kind == "inclusive":
                    self._back_invalidate(index, evicted)

    def _handle_victim(self, level_index: int, victim: int, dirty: bool) -> None:
        """Route a victim evicted from ``level_index`` downwards."""
        next_index = level_index + 1
        if next_index < len(self.levels):
            if self._inclusion[next_index] == "exclusive":
                next_cache = self.levels[next_index]
                if not next_cache.probe(victim):
                    result = next_cache.fill(victim, write=dirty)
                    if result.evicted_address is not None:
                        self._handle_victim(next_index, result.evicted_address, result.evicted_dirty)
                elif dirty:
                    next_cache.mark_dirty(victim)
                return
        if dirty:
            self._writeback(next_index, victim)

    def _writeback(self, start_index: int, victim: int) -> None:
        """Write a dirty victim into the first lower level holding it."""
        for index in range(start_index, len(self.levels)):
            if self.levels[index].mark_dirty(victim):
                return
        self.stats.memory_accesses += 1

    def _back_invalidate(self, level_index: int, address: int) -> None:
        """Inclusive eviction: remove the line from all upper levels."""
        for index in range(level_index - 1, -1, -1):
            self.levels[index].invalidate(address)

    # -- maintenance ----------------------------------------------------------
    def flush(self) -> None:
        """Flush every level (statistics are kept)."""
        for cache in self.levels:
            cache.flush()

    def reset(self) -> None:
        """Flush every level and zero all statistics."""
        for cache in self.levels:
            cache.reset()
        self.stats.memory_accesses = 0

    def check_inclusion_invariants(self) -> list[str]:
        """Return a list of inclusion violations (empty = consistent).

        Used by tests and by :mod:`repro.hardware` self-checks:

        * every line in a level above an *inclusive* level must also be in
          the inclusive level;
        * a line may never be resident both in an *exclusive* level and in
          any level above it.
        """
        violations = []
        for index, cache in enumerate(self.levels):
            if cache.config.inclusion == "inclusive":
                below = cache.resident_addresses()
                for upper in self.levels[:index]:
                    for address in upper.resident_addresses():
                        if address not in below:
                            violations.append(
                                f"{upper.name} holds {address:#x} not in inclusive {cache.name}"
                            )
            if cache.config.inclusion == "exclusive":
                resident = cache.resident_addresses()
                for upper in self.levels[:index]:
                    overlap = resident & upper.resident_addresses()
                    for address in sorted(overlap):
                        violations.append(
                            f"{address:#x} resident in exclusive {cache.name} and in {upper.name}"
                        )
        return violations
