"""A single-level set-associative cache."""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.address import AddressCodec
from repro.cache.config import CacheConfig
from repro.cache.set import CacheSet
from repro.cache.stats import CacheStats
from repro.obs import metrics as obs_metrics
from repro.policies import PolicyFactory
from repro.util.rng import SeededRng


@dataclass(frozen=True)
class CacheAccessResult:
    """Outcome of one access to a cache level."""

    hit: bool
    set_index: int
    way: int
    evicted_address: int | None
    evicted_dirty: bool = False


class Cache:
    """Physically indexed, physically tagged set-associative cache.

    Addresses are byte addresses; all accesses within one line are the
    same cache line.  The replacement policy is specified by name or
    :class:`~repro.policies.PolicyFactory` and instantiated per set, with
    a cache-global shared context for set-dueling policies.
    """

    def __init__(
        self,
        config: CacheConfig,
        policy: str | PolicyFactory = "lru",
        rng: SeededRng | None = None,
    ) -> None:
        self.config = config
        self.codec = AddressCodec(config)
        if isinstance(policy, str):
            policy = PolicyFactory(policy)
        self.policy_factory = policy
        self._rng = rng if rng is not None else SeededRng(0)
        self.shared = policy.create_shared(config.num_sets, self._rng.fork("shared"))
        self.sets = [
            CacheSet(config.ways, policy.build(config.ways, index, self.shared, self._rng))
            for index in range(config.num_sets)
        ]
        self.stats = CacheStats()
        # Indices of the sets filled since the last flush.  A hit, a dirty
        # mark or an invalidation needs a resident line, and a line only
        # enters a set through access() or fill(), so every other set is
        # still in its reset state and flush() need not visit it.
        self._touched: set[int] = set()

    @property
    def name(self) -> str:
        """The level name from the configuration (e.g. ``"L2"``)."""
        return self.config.name

    # -- access path -------------------------------------------------------
    def access(self, address: int, write: bool = False) -> CacheAccessResult:
        """Access ``address``; fill on miss; update statistics."""
        set_index, tag = self.codec.split(address)
        self._touched.add(set_index)
        result = self.sets[set_index].access(tag, write=write)
        self.stats.accesses += 1
        evicted_address: int | None = None
        if result.hit:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
            self.stats.fills += 1
            if result.evicted_tag is not None:
                self.stats.evictions += 1
                if result.evicted_dirty:
                    self.stats.writebacks += 1
                evicted_address = self.codec.compose(result.evicted_tag, set_index)
        return CacheAccessResult(
            hit=result.hit,
            set_index=set_index,
            way=result.way,
            evicted_address=evicted_address,
            evicted_dirty=result.evicted_dirty,
        )

    def lookup_touch(self, address: int, write: bool = False, demand: bool = True) -> bool:
        """Hit path only: touch and count, but never fill on a miss.

        Used by :class:`~repro.cache.hierarchy.CacheHierarchy`, which
        decides separately which levels the line is filled into.
        Non-demand accesses (prefetches) update replacement state but not
        the demand counters, mirroring ``MEM_LOAD_RETIRED``-style events.
        """
        set_index, tag = self.codec.split(address)
        way = self.sets[set_index].touch_tag(tag, write=write)
        if demand:
            self.stats.accesses += 1
        if way is None:
            if demand:
                self.stats.misses += 1
            return False
        if demand:
            self.stats.hits += 1
        return True

    def mark_dirty(self, address: int) -> bool:
        """Absorb a writeback from an upper level; True if line present."""
        set_index, tag = self.codec.split(address)
        return self.sets[set_index].mark_dirty(tag)

    def fill(self, address: int, write: bool = False, demand: bool = True) -> CacheAccessResult:
        """Install a line known to be absent (hierarchy fill path)."""
        set_index, tag = self.codec.split(address)
        self._touched.add(set_index)
        result = self.sets[set_index].fill(tag, write=write)
        if demand:
            self.stats.fills += 1
        evicted_address: int | None = None
        if result.evicted_tag is not None:
            if demand:
                self.stats.evictions += 1
                if result.evicted_dirty:
                    self.stats.writebacks += 1
            evicted_address = self.codec.compose(result.evicted_tag, set_index)
        return CacheAccessResult(
            hit=False,
            set_index=set_index,
            way=result.way,
            evicted_address=evicted_address,
            evicted_dirty=result.evicted_dirty,
        )

    # -- non-disturbing queries ---------------------------------------------
    def probe(self, address: int) -> bool:
        """Return True if ``address`` is resident; no state change."""
        set_index, tag = self.codec.split(address)
        return self.sets[set_index].lookup(tag) is not None

    def resident_addresses(self) -> set[int]:
        """Return the line addresses of every resident line (test helper)."""
        addresses = set()
        for set_index, cache_set in enumerate(self.sets):
            for tag in cache_set.resident_tags():
                addresses.add(self.codec.compose(tag, set_index))
        return addresses

    # -- maintenance ---------------------------------------------------------
    def invalidate(self, address: int) -> bool:
        """Drop a line (back-invalidation path); True if it was present."""
        set_index, tag = self.codec.split(address)
        removed = self.sets[set_index].invalidate(tag)
        if removed:
            self.stats.invalidations += 1
        return removed

    def flush(self) -> None:
        """Invalidate all lines, reset replacement state; keep statistics.

        Only the sets filled since the previous flush are reset: every
        other set is already in its reset state.  Policy resets draw no
        randomness, so the result equals a whole-cache sweep.
        """
        sets = self.sets
        for set_index in self._touched:
            sets[set_index].flush()
        obs_metrics.DEFAULT.incr("cache.flush.sets", len(self._touched))
        self._touched.clear()
        self.shared.reset()

    def reset(self) -> None:
        """Flush and zero statistics."""
        self.flush()
        self.stats.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Cache {self.config.describe()} policy={self.policy_factory.name}>"
