"""Distributive partitions and the Dec invariant, plus the Galvin-Jonsson
shape classifier for finite distributive lattices.

A set partition is distributive when every block is a convex distributive
sublattice and, for each pair of distinct blocks, the union either fails to
be a sublattice, fails to be convex, or is itself a convex distributive
sublattice.  A convex sublattice of a finite lattice is an interval, so both
tests read off intervals (:func:`core.intervals`).  Dec is the minimum block
count over such partitions, computed exactly by branch and bound over the
blocks through the lowest unassigned element, one budget node per step.

The Galvin-Jonsson classifier needs no search: it reads the blocks off the
components of the incomparability graph in one pass (:func:`gj_classify`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import catalog, laws
from .core import (FiniteLattice, _Budget, _UnionFind, cached, canonical_form, induced,
                   intervals, is_interval, is_sublattice_set, iter_bits)
from .errors import NotAPartition, NotDistributive


@dataclass(frozen=True)
class DistributivePartition:
    blocks: tuple  # of frozensets, ordered by least member

    @staticmethod
    def from_blocks(blocks) -> "DistributivePartition":
        return DistributivePartition(tuple(sorted((frozenset(b) for b in blocks), key=min)))

    def __len__(self):
        return len(self.blocks)

    def as_label_sets(self, L: FiniteLattice):
        return [sorted(L.labels[e] for e in b) for b in self.blocks]

    def encoding(self):
        return tuple(tuple(sorted(b)) for b in self.blocks)


@dataclass(frozen=True)
class PartitionCheck:
    holds: bool
    clause: str | None = None
    involved: tuple | None = None

    def __bool__(self):
        return self.holds


def is_distributive_sublattice(L: FiniteLattice, mask) -> bool:
    """Distributivity of the sublattice ``mask`` of L; every lattice with
    fewer than five elements is distributive, and larger masks are tested
    at most once per lattice."""
    return mask.bit_count() < 5 or _distributive_mask(L, mask)


@cached
def _distributive_mask(L: FiniteLattice, mask) -> bool:
    """The distributive law on the sublattice ``mask``, read on L's tables
    and kept by :func:`core.cached`."""
    return bool(laws._distributive_on(L, tuple(iter_bits(mask))))


def _pair_ok(L, m1, m2):
    """The pairwise condition on two block masks: the union is not a convex
    sublattice (an interval), or it is a distributive one."""
    return not is_interval(L, m1 | m2) or is_distributive_sublattice(L, m1 | m2)


def is_distributive_partition(L: FiniteLattice, blocks) -> PartitionCheck:
    """Check both defining conditions exactly, reporting the first violated
    clause and the block (or block pair) responsible."""
    blocks = [frozenset(b) for b in blocks]
    covered = set()
    for b in blocks:
        if not b:
            raise NotAPartition("empty block")
        if covered & b:
            raise NotAPartition("blocks overlap")
        covered |= b
    if covered != set(range(L.n)):
        raise NotAPartition("blocks do not cover the element set")
    blocks = [(b, sum(1 << e for e in b)) for b in sorted(blocks, key=min)]
    for b, m in blocks:
        if not is_sublattice_set(L, b):
            clause = "block is not a sublattice"
        elif not is_interval(L, m):  # a sublattice is convex iff it is an interval
            clause = "block is not convex"
        elif not is_distributive_sublattice(L, m):
            clause = "block is not distributive"
        else:
            continue
        return PartitionCheck(False, clause, (tuple(sorted(b)),))
    for (b1, m1), (b2, m2) in itertools.combinations(blocks, 2):
        if not _pair_ok(L, m1, m2):
            return PartitionCheck(
                False,
                "union of blocks is a convex sublattice but not distributive",
                (tuple(sorted(b1)), tuple(sorted(b2))),
            )
    return PartitionCheck(True)


def _candidate_blocks(L, e, free):
    """The convex distributive sublattices through e inside ``free``, largest
    first: the intervals through e, each tested for distributivity only when
    the search reaches it."""
    through = sorted((m for m in intervals(L, free) if m >> e & 1),
                     key=lambda m: (-m.bit_count(), m))
    return (m for m in through if is_distributive_sublattice(L, m))


def _minimum_partitions(L, budget, keep_ties):
    """Branch and bound over partitions into convex distributive blocks, each
    through the lowest unassigned element, spending one node of ``budget``
    per search node.  Returns the minimum block count and the partitions
    kept: without ties the search prunes on strict improvement and keeps the
    first minimum partition; with ties it keeps every partition of the best
    count so far, clearing the list whenever a smaller count appears."""
    budget = _Budget.of(budget)
    best = L.n + 1
    found = []
    full = L.full_mask
    # one more block must beat the best count, or with ties at least match it
    margin = 0 if keep_ties else 1

    def rec(assigned, blocks):
        nonlocal best
        budget.spend("Dec search")
        if assigned == full:
            if len(blocks) < best:
                best = len(blocks)
                found.clear()
            found.append(list(blocks))
            return
        if len(blocks) + 1 + margin > best:
            return
        free = full & ~assigned
        e = (free & -free).bit_length() - 1
        for cand in _candidate_blocks(L, e, free):
            if all(_pair_ok(L, cand, b) for b in blocks):
                blocks.append(cand)
                rec(assigned | cand, blocks)
                blocks.pop()

    rec(0, [])
    return best, [
        DistributivePartition.from_blocks([frozenset(iter_bits(m)) for m in masks])
        for masks in found
    ]


def dec(L: FiniteLattice, budget=None):
    """Exact minimum cardinality of a distributive partition, with one
    minimizing witness (the first found in the deterministic search order).
    The search spends ``budget`` nodes (``default_budget()`` by default),
    or a :class:`core._Budget` it shares with other searches."""
    best, (witness,) = _minimum_partitions(L, budget, keep_ties=False)
    return best, witness


def minimum_distributive_partitions(L: FiniteLattice, budget=None):
    """All minimum-cardinality distributive partitions, in lexicographic
    block-encoding order, found within ``budget`` search nodes."""
    _, found = _minimum_partitions(L, budget, keep_ties=True)
    found.sort(key=lambda p: p.encoding())
    return found


# -- Galvin-Jonsson shape classification -------------------------------------


@dataclass(frozen=True)
class GJDecomposition:
    """Linear-sum decomposition of a finite distributive lattice into blocks
    each shaped like a chain, 2 x chain, or the Boolean cube."""

    blocks: tuple  # of ascending index tuples, listed bottom block first
    shapes: tuple  # tags from {"chain", "two_times_chain", "boolean3"}


def _shape_tag(L, elems):
    """The shape of the block ``elems``, an interval [u, v] whose elements
    other than u and v form one incomparability component: "two_times_chain",
    "boolean3", or None when it is neither."""
    k, odd = divmod(len(elems), 2)
    if odd:
        return None
    form = canonical_form(induced(L, elems))
    if form == canonical_form(catalog.grid(k)):
        return "two_times_chain"
    if k == 4 and form == canonical_form(catalog.get("B3")):
        return "boolean3"
    return None


def gj_classify(D: FiniteLattice):
    """A linear-sum decomposition into chain / 2 x chain / Boolean-cube
    blocks, or None when no such decomposition exists.  Requires a
    distributive input.

    The blocks are read off the components of the incomparability graph,
    which any poset orders linearly (sorted here by height).  A component C
    with two or more elements has the single components {meet C} below it
    and {join C} above it, and a 2 x k grid (k >= 2) or the cube is one such
    component between a bottom and a top, so C's block must be the interval
    [meet C, join C].  The single-element components left over form maximal
    runs, one chain block each.  This is the unique decomposition with the
    fewest blocks."""
    if not laws.holds(D, "distributive"):
        raise NotDistributive("gj_classify expects a distributive lattice")
    uf = _UnionFind(D.n)
    for a in range(D.n):
        for b in range(a + 1, D.n):
            if D.incomparable(a, b):
                uf.union(a, b)
    groups = {}
    for e in range(D.n):
        groups.setdefault(uf.find(e), []).append(e)
    heights = D.heights()
    comps = sorted(groups.values(), key=lambda c: heights[c[0]])
    blocks, shapes = [], []
    start = 0  # the first component not yet in a block
    for i, c in enumerate(comps):
        if len(c) == 1:
            continue
        if i - 1 < start:  # its bottom is already the top of the block below
            return None
        if i - 1 > start:
            blocks.append(tuple(sorted(e for (e,) in comps[start:i - 1])))
            shapes.append("chain")
        elems = tuple(sorted(comps[i - 1] + c + comps[i + 1]))
        shape = _shape_tag(D, elems)
        if shape is None:
            return None
        blocks.append(elems)
        shapes.append(shape)
        start = i + 2
    if start < len(comps):
        blocks.append(tuple(sorted(e for (e,) in comps[start:])))
        shapes.append("chain")
    return GJDecomposition(tuple(blocks), tuple(shapes))
