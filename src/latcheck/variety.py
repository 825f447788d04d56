"""Congruence computation, quotients, subdirect irreducibility, and the exact
membership test for the variety generated by the pentagon.

Membership rests on the congruence-distributivity of lattices: the finite
subdirectly irreducible members of the pentagon's variety are exactly the
two-element chain and the pentagon itself, so a finite lattice belongs to the
variety iff every factor by a meet-irreducible congruence is trivial, the
two-element chain, or the pentagon.

Nothing here builds Con L to find those factors.  The join-irreducible
congruences of a finite lattice are exactly con(j_*, j) for the
join-irreducible elements j with lower cover j_* (Freese, Jezek and Nation,
*Free Lattices*, Ch. II), so J(Con L) costs one principal congruence per
join-irreducible element.  Con L is distributive, so each psi in J(Con L)
pairs with one meet-irreducible congruence, the join of every phi in
J(Con L) not above psi, and L is subdirectly irreducible iff J(Con L) has a
single minimal element (the monolith).  ``all_congruences`` still returns the
whole of Con L for API callers, as the join-closure of J(Con L).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce

from . import catalog
from .core import FiniteLattice, _UnionFind, canonical_form, iter_bits
from .errors import SizeLimit

CONGRUENCE_CAP = 16


@dataclass(frozen=True)
class Congruence:
    """A meet/join-compatible partition, stored as a block index per element
    (blocks numbered by first occurrence)."""

    block_index: tuple

    @property
    def n(self):
        return len(self.block_index)

    @property
    def block_count(self):
        return max(self.block_index) + 1

    def blocks(self):
        out = [[] for _ in range(self.block_count)]
        for e, b in enumerate(self.block_index):
            out[b].append(e)
        return tuple(frozenset(b) for b in out)

    def same(self, a, b):
        return self.block_index[a] == self.block_index[b]

    def is_identity(self):
        return self.block_count == self.n

    def is_all(self):
        return self.block_count == 1

    def refines(self, other: "Congruence") -> bool:
        """True iff every block of self lies inside a block of other."""
        seen = {}
        for e in range(self.n):
            mine, theirs = self.block_index[e], other.block_index[e]
            if mine in seen:
                if seen[mine] != theirs:
                    return False
            else:
                seen[mine] = theirs
        return True


def _canonical_blocks(parent_find, n):
    index = {}
    out = []
    for e in range(n):
        root = parent_find(e)
        if root not in index:
            index[root] = len(index)
        out.append(index[root])
    return Congruence(tuple(out))


def identity_congruence(n: int) -> Congruence:
    return Congruence(tuple(range(n)))


def all_congruence(n: int) -> Congruence:
    return Congruence((0,) * n)


def principal_congruence(L: FiniteLattice, a, b) -> Congruence:
    """Smallest congruence identifying a and b: merge, then keep merging
    translated pairs (x v c, y v c) and (x ^ c, y ^ c) until stable."""
    uf = _UnionFind(L.n)
    work = []
    if uf.union(a, b):
        work.append((a, b))
    while work:
        x, y = work.pop()
        for c in range(L.n):
            for u, v in ((L.join[x][c], L.join[y][c]), (L.meet[x][c], L.meet[y][c])):
                if uf.union(u, v):
                    work.append((u, v))
    return _canonical_blocks(uf.find, L.n)


def join_congruences(c1: Congruence, c2: Congruence) -> Congruence:
    """Partition join; for congruences of a common lattice the result is
    again a congruence."""
    n = c1.n
    uf = _UnionFind(n)
    first_of_block1 = {}
    first_of_block2 = {}
    for e in range(n):
        b1, b2 = c1.block_index[e], c2.block_index[e]
        if b1 in first_of_block1:
            uf.union(first_of_block1[b1], e)
        else:
            first_of_block1[b1] = e
        if b2 in first_of_block2:
            uf.union(first_of_block2[b2], e)
        else:
            first_of_block2[b2] = e
    return _canonical_blocks(uf.find, n)


def _join_irreducible_congruences(L: FiniteLattice) -> list:
    """J(Con L): the distinct con(j_*, j) over the join-irreducible j."""
    if L.n > CONGRUENCE_CAP:
        raise SizeLimit(L.n, CONGRUENCE_CAP, "congruence computation")
    return list(dict.fromkeys(principal_congruence(L, L.lower_covers(j)[0], j)
                              for j in range(L.n) if len(L.lower_covers(j)) == 1))


def _congruence_order(c: Congruence):
    return (c.n - c.block_count, c.block_index)


def all_congruences(L: FiniteLattice) -> list:
    """The full congruence lattice: identity plus the join-closure of the
    join-irreducible congruences."""
    gens = _join_irreducible_congruences(L)
    found = {identity_congruence(L.n)}
    frontier = list(found)
    while frontier:
        c = frontier.pop()
        for g in gens:
            j = join_congruences(c, g)
            if j not in found:
                found.add(j)
                frontier.append(j)
    return sorted(found, key=_congruence_order)


def quotient(L: FiniteLattice, c: Congruence) -> FiniteLattice:
    """Lattice of congruence blocks with the induced order."""
    blocks = c.blocks()
    reps = sorted(range(len(blocks)), key=lambda b: min(blocks[b]))
    pos = {b: i for i, b in enumerate(reps)}
    m = len(blocks)
    labels = []
    masks = []
    for b in reps:
        members = sorted(blocks[b])
        labels.append("+".join(L.labels[e] for e in members))
        mask = 0
        for e in members:
            mask |= 1 << e
        masks.append(mask)
    up = [0] * m
    for i in range(m):
        for j in range(m):
            # block order: some member of i lies below some member of j
            if any(L.up[a] & masks[j] for a in iter_bits(masks[i])):
                up[i] |= 1 << j
    return FiniteLattice(tuple(labels), tuple(up))


def is_subdirectly_irreducible(L: FiniteLattice) -> bool:
    """True iff the congruence lattice has a unique atom (monolith): the
    atoms of Con L are the minimal join-irreducible congruences."""
    gens = _join_irreducible_congruences(L)
    atoms = [c for c in gens if not any(d != c and d.refines(c) for d in gens)]
    return len(atoms) == 1


def meet_irreducible_congruences(L: FiniteLattice) -> list:
    """Congruences with exactly one upper cover in the congruence lattice:
    for each join-irreducible psi, the join of the join-irreducibles not
    above psi."""
    gens = _join_irreducible_congruences(L)
    bottom = identity_congruence(L.n)
    kappa = {reduce(join_congruences, [phi for phi in gens if not psi.refines(phi)], bottom)
             for psi in gens}
    return sorted(kappa, key=_congruence_order)


def si_factors(L: FiniteLattice) -> list:
    """Quotients by all meet-irreducible congruences, deduplicated up to
    isomorphism."""
    seen = {}
    for c in meet_irreducible_congruences(L):
        q = quotient(L, c)
        key = canonical_form(q)
        if key not in seen:
            seen[key] = q
    return [seen[k] for k in sorted(seen)]


@dataclass(frozen=True)
class VarietyDecision:
    member: bool
    factors: tuple
    offending: FiniteLattice | None = None

    def __bool__(self):
        return self.member


@cache
def _si_forms() -> frozenset:
    """Canonical forms of the subdirectly irreducible members of the
    pentagon's variety, plus the trivial lattice."""
    return frozenset(canonical_form(L) for L in
                     (catalog.chain(1), catalog.chain(2), catalog.get("N5")))


def in_n5_variety(L: FiniteLattice) -> VarietyDecision:
    """Exact membership in the variety generated by the pentagon, with the
    subdirectly irreducible factor list as certificate."""
    allowed = _si_forms()
    factors = tuple(si_factors(L))
    for q in factors:
        if canonical_form(q) not in allowed:
            return VarietyDecision(False, factors, q)
    return VarietyDecision(True, factors)
