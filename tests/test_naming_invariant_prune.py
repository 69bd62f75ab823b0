"""The cycle-type pruning in ``conjugate_equivalent`` changes no answer.

The reference below is the relabeling search without the invariant
check: it tries every relabeling that fixes the eviction position.
``conjugate_equivalent``, ``equivalent`` and ``name_spec`` must agree
with it on the zoo-derived specs at 6, 7 and 8 ways, on random
conjugates of them, and on specs whose miss permutation is not the
standard one.
"""

import itertools
import random

import pytest

from repro.core import permutation as perm_mod
from repro.core.naming import known_specs, name_spec
from repro.core.permutation import conjugate_equivalent, equivalent, standard_miss_perm
from repro.policies import PermutationSpec, lru_spec
from repro.policies.permutation import identity, invert

WAYS = (6, 7, 8)


def reference_conjugate_equivalent(first, second):
    """Every relabeling, no pruning.  The miss permutation and the hit at
    the (fixed) eviction position are compared first only to skip
    building hopeless conjugates; the answer is
    ``any(first.conjugate(r) == second)`` either way."""
    if first.ways != second.ways:
        return False
    ways = first.ways
    last = ways - 1

    def conjugated(perm, full, inverse):
        return tuple(full[perm[inverse[p]]] for p in range(ways))

    for relabel in itertools.permutations(range(last)):
        full = relabel + (last,)
        inverse = invert(full)
        if (
            conjugated(first.miss_perm, full, inverse) == second.miss_perm
            and conjugated(first.hit_perms[last], full, inverse) == second.hit_perms[last]
            and first.conjugate(full) == second
        ):
            return True
    return False


def reference_equivalent(first, second):
    if first.ways != second.ways:
        return False
    if first.ways <= 5:
        return perm_mod.specs_equivalent(first, second)
    if first.ways <= 8 and reference_conjugate_equivalent(first, second):
        return True
    return perm_mod._random_trace_equivalent(first, second)


def reference_name(spec):
    for name, known in known_specs(spec.ways).items():
        if reference_equivalent(spec, known):
            return name
    return None


def random_relabel(ways, rng):
    relabel = list(range(ways - 1))
    rng.shuffle(relabel)
    return tuple(relabel) + (ways - 1,)


def lip_spec(ways):
    """LRU hits, insertion at the eviction position: a non-standard miss."""
    return PermutationSpec(ways, lru_spec(ways).hit_perms, identity(ways))


def mid_insert_spec(ways):
    """LRU hits, insertion at position 2 (survivors from 2 on shift)."""
    miss = tuple([0, 1] + list(range(3, ways)) + [2])
    return PermutationSpec(ways, lru_spec(ways).hit_perms, miss)


def swap_spec(ways):
    """Hits at 0/1 swap the top two positions, others identity."""
    swap = (1, 0) + tuple(range(2, ways))
    hits = (swap, swap) + tuple(identity(ways) for _ in range(ways - 2))
    return PermutationSpec(ways, hits, standard_miss_perm(ways))


def specs_at(ways):
    """Zoo-derived specs, a few hand-made ones, and a random conjugate
    of each."""
    rng = random.Random(ways)
    base = dict(known_specs(ways))
    base.update(lip=lip_spec(ways), mid=mid_insert_spec(ways), swap=swap_spec(ways))
    specs = dict(base)
    for name, spec in base.items():
        specs[f"{name}~"] = spec.conjugate(random_relabel(ways, rng))
    return specs


@pytest.mark.parametrize("ways", WAYS)
def test_conjugate_equivalent_matches_reference(ways):
    specs = specs_at(ways)
    for first, second in itertools.product(specs.values(), repeat=2):
        assert conjugate_equivalent(first, second) == reference_conjugate_equivalent(
            first, second
        )


@pytest.mark.parametrize("ways", WAYS)
def test_equivalent_and_name_match_reference(ways):
    specs = specs_at(ways)
    known = known_specs(ways)
    for spec in specs.values():
        for other in known.values():
            assert equivalent(spec, other) == reference_equivalent(spec, other)
        assert name_spec(spec) == reference_name(spec)
    # Relabeled classics keep their names; the hand-made ones have none.
    for name, spec in specs.items():
        stem = name.split("~")[0]
        assert name_spec(spec) == (stem if stem in known else None)


def test_pruning_rejects_before_relabeling(monkeypatch):
    """Specs with different cycle types never reach the relabeling loop."""
    calls = []
    original = PermutationSpec.conjugate
    monkeypatch.setattr(
        PermutationSpec, "conjugate", lambda self, r: calls.append(r) or original(self, r)
    )
    assert not conjugate_equivalent(lru_spec(8), known_specs(8)["plru"])
    assert calls == []
