"""Distributive partitions and the Dec invariant, plus the Galvin-Jonsson
shape classifier for finite distributive lattices.

A set partition is distributive when every block is a convex distributive
sublattice and, for each pair of distinct blocks, the union either fails to
be a sublattice, fails to be convex, or is itself a convex distributive
sublattice.  A convex sublattice of a finite lattice is an interval, so both
tests read off intervals.  Dec is the minimum block count over such
partitions, computed exactly by branch and bound over the blocks through the
lowest unassigned element, one budget node per step.

Which intervals are distributive is read off one table per lattice
(:func:`_nondistributive`), built from two standard facts (G. Birkhoff,
*Lattice Theory*, 3rd ed., 1967, Ch. II; G. Gratzer, *Lattice Theory:
Foundation*, 2011): a finite lattice is modular iff it is upper and lower
semimodular, and a modular lattice of finite length is distributive iff it
has no cover-preserving diamond M3.  An interval keeps the covers of L, so
both read on L's covers.

The Galvin-Jonsson classifier needs no search and no canonical form: it
splits one linear extension into the components of the incomparability
graph and reads each block's shape off its join-irreducibles
(:func:`gj_classify`).
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from . import laws
from .core import (FiniteLattice, _Budget, bounds, cached, induced, is_interval, is_sublattice_set,
                   iter_bits)
from .errors import NotAPartition, NotDistributive


class DistributivePartition:
    __slots__ = ("blocks",)

    def __init__(self, blocks):
        self.blocks = blocks  # a tuple of frozensets, ordered by least member

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return f"DistributivePartition(blocks={self.blocks!r})"

    @staticmethod
    def from_blocks(blocks) -> "DistributivePartition":
        return DistributivePartition(tuple(sorted((frozenset(b) for b in blocks), key=min)))

    def __len__(self):
        return len(self.blocks)

    def as_label_sets(self, L: FiniteLattice):
        return [sorted(L.labels[e] for e in b) for b in self.blocks]

    def encoding(self):
        return tuple(tuple(sorted(b)) for b in self.blocks)


class PartitionCheck(namedtuple("PartitionCheck", "holds clause involved", defaults=(None, None))):
    __slots__ = ()

    def __bool__(self):
        return self.holds


def _bad_spans(c, covers, back, op):
    """The y = a op b, over distinct covers a, b of c in one direction
    (``covers[c]`` a mask), that either do not cover both a and b back, or
    cover back a third cover of c (``back[y]`` the mask of y's covers in the
    other direction): every interval holding c and y then holds a failure
    of semimodularity or a diamond M3 on c and y."""
    mine = covers[c]
    for a, b in itertools.combinations(iter_bits(mine), 2):
        y = op[a][b]
        shared = back[y] & mine
        if not shared >> a & shared >> b & 1 or shared.bit_count() > 2:
            yield y


@cached
def _nondistributive(L: FiniteLattice) -> tuple:
    """Per element lo, the mask of the hi for which the interval [lo, hi] is
    not distributive.  An interval keeps L's covers, so it is not
    distributive iff it holds a bad span (c, y): c's upper covers a != b
    with y = a v b not covering both (upper semimodularity fails), c's
    lower covers with y = a ^ b not covered by both (lower semimodularity
    fails, the span is (y, c)), or y covering three upper covers of c (a
    diamond).  ``bad[lo]`` is the OR of ``up[y]`` over the spans (lo, y),
    OR-ed with ``bad[c]`` for each upper cover c of lo.  A lattice with
    fewer than five elements is distributive and builds nothing."""
    n, up = L.n, L.up
    bad = [0] * n
    if n < 5:
        return tuple(bad)
    upper = [sum(1 << c for c in L.upper_covers(a)) for a in range(n)]
    lower = [sum(1 << c for c in L.lower_covers(a)) for a in range(n)]
    for c in range(n):
        for y in _bad_spans(c, upper, lower, L.join):
            bad[c] |= up[y]
        for y in _bad_spans(c, lower, upper, L.meet):
            bad[y] |= up[c]
    for lo in sorted(range(n), key=lambda a: up[a].bit_count()):
        for c in L.upper_covers(lo):
            bad[lo] |= bad[c]
    return tuple(bad)


def is_distributive_sublattice(L: FiniteLattice, mask) -> bool:
    """Distributivity of the interval ``mask`` of L: the bit of its greatest
    element in the :func:`_nondistributive` row of its least."""
    lo, hi = bounds(L, mask)
    return not _nondistributive(L)[lo] >> hi & 1


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
        if is_interval(L, m1 | m2) and not is_distributive_sublattice(L, m1 | m2):
            return PartitionCheck(
                False,
                "union of blocks is a convex sublattice but not distributive",
                (tuple(sorted(b1)), tuple(sorted(b2))),
            )
    return PartitionCheck(True)


def _minimum_partitions(L, budget, keep_ties):
    """Branch and bound over partitions into convex distributive blocks, each
    through the lowest unassigned element, spending one node of ``budget``
    per search node.  Returns the minimum block count and the partitions
    kept: without ties the search prunes on strict improvement and keeps the
    first minimum partition; with ties it keeps every partition of the best
    count so far, clearing the list whenever a smaller count appears.

    A block is an interval [lo, hi] and carries its bounds.  The candidates
    through e are the [a, b] with a <= e <= b inside the free elements and
    not marked in :func:`_nondistributive`, largest first; the union of two
    blocks is an interval iff it is all of [lo1 ^ lo2, hi1 v hi2], and then
    that row of the table gives its distributivity."""
    budget = _Budget.of(budget)
    best = L.n + 1
    found = []
    full, up, down, meet, join = L.full_mask, L.up, L.down, L.meet, L.join
    bad = _nondistributive(L)
    # one more block must beat the best count, or with ties at least match it
    margin = 0 if keep_ties else 1

    def rec(assigned, blocks):
        nonlocal best
        budget.spend("Dec search")
        if assigned == full:
            if len(blocks) < best:
                best = len(blocks)
                found.clear()
            found.append([m for m, _, _ in blocks])
            return
        if len(blocks) + 1 + margin > best:
            return
        free = full & ~assigned
        e = (free & -free).bit_length() - 1
        candidates = []
        for a in iter_bits(down[e] & free):
            for b in iter_bits(up[e] & free & ~bad[a]):
                m = up[a] & down[b]
                if not m & assigned:
                    candidates.append((-m.bit_count(), m, a, b))
        candidates.sort()
        for _, m, lo, hi in candidates:
            for m2, lo2, hi2 in blocks:
                lo3, hi3 = meet[lo][lo2], join[hi][hi2]
                if bad[lo3] >> hi3 & 1 and up[lo3] & down[hi3] == m | m2:
                    break
            else:
                blocks.append((m, lo, hi))
                rec(assigned | m, blocks)
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


def sublattice_dec(L: FiniteLattice, elems, budget=None) -> int:
    """Dec of the sublattice K = ``elems`` of L.  The one-block partition
    {K} is distributive iff K is a distributive lattice, as its pair clause
    is vacuous, so Dec(K) = 1 exactly then.  A K with fewer than five
    elements is distributive, N5 and M3 being the smallest lattices that
    are not; a larger K is tested on L's own tables.  Only a
    non-distributive K is built and searched, spending ``budget``."""
    if len(elems) < 5 or laws._distributive_on(L, elems):
        return 1
    return dec(induced(L, elems), budget)[0]


def minimum_distributive_partitions(L: FiniteLattice, budget=None):
    """All minimum-cardinality distributive partitions, in lexicographic
    block-encoding order, found within ``budget`` search nodes."""
    _, found = _minimum_partitions(L, budget, keep_ties=True)
    found.sort(key=lambda p: p.encoding())
    return found


# -- Galvin-Jonsson shape classification -------------------------------------


class GJDecomposition(namedtuple("GJDecomposition", "blocks shapes")):
    """Linear-sum decomposition of a finite distributive lattice into blocks
    each shaped like a chain, 2 x chain, or the Boolean cube: ``blocks``
    holds ascending index tuples, bottom block first, and ``shapes`` their
    tags from {"chain", "two_times_chain", "boolean3"}."""

    __slots__ = ()


def _shape_tag(D, inner):
    """The shape of the block [meet C, join C] of the incomparability
    component C = ``inner``: "two_times_chain", "boolean3", or None when it
    is neither.  The block is an interval, so it keeps D's covers and its
    join-irreducibles are the members of C with one lower cover in D.  A
    finite distributive lattice is the lattice of down-sets of its
    join-irreducibles (Birkhoff, *Lattice Theory*, Ch. III), so the block is
    2 x k iff they are a chain plus one point incomparable to all of it,
    and the cube iff they are three pairwise incomparable points."""
    join_irr = [x for x in inner if len(D.lower_covers(x)) == 1]
    apart = [pair for pair in itertools.combinations(join_irr, 2) if D.incomparable(*pair)]
    if len(join_irr) == 3 == len(apart):
        return "boolean3"
    # one point in every incomparable pair, and one pair per other point
    if len(apart) == len(join_irr) - 1 and set(join_irr).intersection(*apart):
        return "two_times_chain"
    return None


def gj_classify(D: FiniteLattice):
    """A linear-sum decomposition into chain / 2 x chain / Boolean-cube
    blocks, or None when no such decomposition exists.  Requires a
    distributive input.

    The blocks are read off the components of the incomparability graph,
    which are consecutive runs of any linear extension: listed by down-set
    size, a component starts where everything listed before lies below
    everything from there on, one suffix AND of the ``down`` masks.  A
    component C with two or more elements has the single components
    {meet C} below it and {join C} above it, and a 2 x k grid (k >= 2) or
    the cube is one such component between a bottom and a top, so C's
    block must be the interval [meet C, join C].  The single-element
    components left over form maximal runs, one chain block each.  This is
    the unique decomposition with the fewest blocks."""
    if not laws.holds(D, "distributive"):
        raise NotDistributive("gj_classify expects a distributive lattice")
    down = D.down
    order = sorted(range(D.n), key=lambda a: down[a].bit_count())
    under = [D.full_mask] * (D.n + 1)  # under[i]: below all of order[i:]
    for i in range(D.n - 1, -1, -1):
        under[i] = under[i + 1] & down[order[i]]
    comps, listed = [], 0
    for i, e in enumerate(order):
        if not listed & ~under[i]:
            comps.append([])
        comps[-1].append(e)
        listed |= 1 << e
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
        shape = _shape_tag(D, c)
        if shape is None:
            return None
        blocks.append(tuple(sorted(comps[i - 1] + c + comps[i + 1])))
        shapes.append(shape)
        start = i + 2
    if start < len(comps):
        blocks.append(tuple(sorted(e for (e,) in comps[start:])))
        shapes.append("chain")
    return GJDecomposition(tuple(blocks), tuple(shapes))
