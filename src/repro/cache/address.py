"""Physical address decomposition for set-associative caches."""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.config import CacheConfig


@dataclass(frozen=True)
class DecomposedAddress:
    """An address split into tag, set index and line offset."""

    tag: int
    set_index: int
    offset: int


class AddressCodec:
    """Splits and reassembles physical addresses for one cache geometry.

    With the classic ``"bits"`` index function the tag excludes the index
    bits and ``compose`` is the exact inverse of ``decompose``.  With a
    hashed index function (``"xor-fold"``) the set is not recoverable
    from any address bit range, so the *full line number* serves as the
    tag; ``compose`` then reassembles the address from the tag alone.

    :meth:`split` is the one splitting routine; :meth:`decompose` wraps
    it for callers that also want the line offset.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._offset_bits = config.offset_bits
        self._index_bits = config.index_bits
        self._index_mask = (1 << config.index_bits) - 1
        self._tag_shift = config.offset_bits + config.index_bits
        self._hashed = config.index_hash != "bits"

    def _hash_index(self, line_number: int) -> int:
        # XOR all index-width chunks of the line number together: the
        # simplest stand-in for sliced LLC addressing, preserving its key
        # property that equal low index bits no longer imply equal sets.
        folded = 0
        remaining = line_number
        if self._index_bits == 0:
            return 0
        while remaining:
            folded ^= remaining & ((1 << self._index_bits) - 1)
            remaining >>= self._index_bits
        return folded

    def split(self, address: int) -> tuple[int, int]:
        """Split ``address`` into ``(set_index, tag)``; the cache's hot path.

        Plain shifts and masks, no allocation beyond the returned pair.
        """
        if address < 0:
            raise ValueError(f"addresses must be non-negative, got {address}")
        if self._hashed:
            line_number = address >> self._offset_bits
            return self._hash_index(line_number), line_number
        return (address >> self._offset_bits) & self._index_mask, address >> self._tag_shift

    def decompose(self, address: int) -> DecomposedAddress:
        """Split ``address`` into (tag, set index, offset)."""
        set_index, tag = self.split(address)
        offset = address & (self.config.line_size - 1)
        return DecomposedAddress(tag=tag, set_index=set_index, offset=offset)

    def compose(self, tag: int, set_index: int, offset: int = 0) -> int:
        """Reassemble an address from its components.

        For hashed indexing the tag is the full line number and
        ``set_index`` only sanity-checks against its hash.
        """
        if not 0 <= set_index < self.config.num_sets:
            raise ValueError(f"set_index {set_index} out of range")
        if not 0 <= offset < self.config.line_size:
            raise ValueError(f"offset {offset} out of range")
        if self._hashed:
            if self._hash_index(tag) != set_index:
                raise ValueError("set_index does not match the hashed tag")
            return (tag << self._offset_bits) | offset
        return (tag << (self._offset_bits + self._index_bits)) | (
            set_index << self._offset_bits
        ) | offset

    def line_address(self, address: int) -> int:
        """Return ``address`` rounded down to its line base."""
        return address & ~(self.config.line_size - 1)

    def same_set_address(self, set_index: int, ordinal: int) -> int:
        """Return the ``ordinal``-th distinct line address mapping to a set.

        Useful for building eviction sets in tests; the measurement harness
        builds its addresses through virtual memory instead.  With hashed
        indexing the addresses are found by scanning line numbers — which
        is exactly why real attacks against sliced LLCs need eviction-set
        discovery rather than arithmetic.
        """
        if not self._hashed:
            return self.compose(tag=ordinal, set_index=set_index)
        found = 0
        line_number = 0
        while True:
            if self._hash_index(line_number) == set_index:
                if found == ordinal:
                    return line_number << self._offset_bits
                found += 1
            line_number += 1
