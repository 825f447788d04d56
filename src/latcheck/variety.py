"""Congruence computation, quotients, subdirect irreducibility, and the exact
membership test for the variety generated by the pentagon.

Membership rests on the congruence-distributivity of lattices: the finite
subdirectly irreducible members of the pentagon's variety are exactly the
two-element chain and the pentagon itself, so a finite lattice belongs to the
variety iff every factor by a meet-irreducible congruence is trivial, the
two-element chain, or the pentagon.

Every congruence is read off one relation on the join-irreducible elements
J(L), each p with its lower cover p_* (Freese, Jezek and Nation, *Free
Lattices*, Thm 2.35; A. Day, *Canad. J. Math.* 31 (1979)).  For p != q in
J(L), p D q iff some x has p <= q v x and p !<= q_* v x.  A congruence is
fixed by the set S of the p it collapses onto p_*; S is closed under D (q in
S and p D q put p in S), and every D-closed S is the set of exactly one
congruence, so Con L is the lattice of D-closed subsets of J(L).  Two
elements are congruent iff the same uncollapsed join-irreducibles lie below
them; the join of those is the least element of the block, its
representative.  The D*-closure of p is con(p_*, p), so J(Con L) costs no
more than D itself, and con(a, b) is the closure of the p below a v b and
not below a ^ b.  Con L is distributive, so each closure of some p pairs
with one meet-irreducible congruence, the set of q whose closure misses p,
and L is subdirectly irreducible iff the closures have a common member (the
monolith collapses it).  ``all_congruences`` returns the whole of Con L for
API callers, as the union-closure of the closures; only it is size-capped,
since Con L can be exponential in n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from itertools import combinations
from operator import and_

from . import catalog
from .core import FiniteLattice, atoms, cached, canonical_form, iter_bits
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


def identity_congruence(n: int) -> Congruence:
    return Congruence(tuple(range(n)))


def all_congruence(n: int) -> Congruence:
    return Congruence((0,) * n)


@cached
def _dependency(L: FiniteLattice) -> tuple:
    """``(jdown, closure)``: per element x, the mask of the join-irreducibles
    below x; per join-irreducible p, the mask of its D*-closure, the q with
    q D* p.  The q with q D p are the OR over x of
    ``jdown[p v x] & ~jdown[p_* v x]``, O(|J| n) mask operations, and one
    Warshall pass over J closes them."""
    J = [p for p in range(L.n) if len(L.lower_covers(p)) == 1]
    jmask = sum(1 << p for p in J)
    jdown = tuple(d & jmask for d in L.down)
    closure = {}
    for p in J:
        mask = 1 << p
        for a, b in zip(L.join[p], L.join[L.lower_covers(p)[0]]):
            if a != b:
                mask |= jdown[a] & ~jdown[b]
        closure[p] = mask
    for k in J:
        for p in J:
            if closure[p] >> k & 1:
                closure[p] |= closure[k]
    return jdown, closure


def _congruence(L: FiniteLattice, collapsed) -> Congruence:
    """The congruence whose collapsed join-irreducibles are the D-closed
    mask ``collapsed``: x's block is keyed by the join-irreducibles below x
    that it keeps, whose join is the block's least element."""
    keep = ~collapsed
    index = {}
    return Congruence(tuple(index.setdefault(d & keep, len(index)) for d in _dependency(L)[0]))


def principal_congruence(L: FiniteLattice, a, b) -> Congruence:
    """Smallest congruence identifying a and b: the D*-closure of the
    join-irreducibles below a v b and not below a ^ b."""
    jdown, closure = _dependency(L)
    collapsed = 0
    for p in iter_bits(jdown[L.join[a][b]] & ~jdown[L.meet[a][b]]):
        collapsed |= closure[p]
    return _congruence(L, collapsed)


def _join_irreducible_masks(L: FiniteLattice) -> list:
    """J(Con L) as collapsed masks: the distinct closures, con(p_*, p)."""
    return list(dict.fromkeys(_dependency(L)[1].values()))


def _congruence_order(c: Congruence):
    return (c.n - c.block_count, c.block_index)


def all_congruences(L: FiniteLattice) -> list:
    """The full congruence lattice: the union-closure of the join-irreducible
    congruences' masks, the empty one included (2^(n-1) of them on an
    n-chain, hence the cap)."""
    if L.n > CONGRUENCE_CAP:
        raise SizeLimit(L.n, CONGRUENCE_CAP, "congruence computation")
    gens = _join_irreducible_masks(L)
    found = {0}
    frontier = [0]
    while frontier:
        s = frontier.pop()
        for g in gens:
            t = s | g
            if t not in found:
                found.add(t)
                frontier.append(t)
    return sorted((_congruence(L, s) for s in found), key=_congruence_order)


def quotient(L: FiniteLattice, c: Congruence) -> FiniteLattice:
    """Lattice of congruence blocks with the induced order.  Every block is
    an interval, so [x] <= [y] iff the least element of [x] lies below the
    least element of [y].  The identity's quotient is L itself, whose
    labels and order it would copy."""
    if c.is_identity():
        return L
    blocks = sorted((sorted(b) for b in c.blocks()), key=min)
    labels = ["+".join(L.labels[e] for e in members) for members in blocks]
    least = [reduce(lambda a, b: L.meet[a][b], members) for members in blocks]
    up = [sum(1 << j for j, b in enumerate(least) if L.up[a] >> b & 1) for a in least]
    return FiniteLattice(tuple(labels), tuple(up))


def is_subdirectly_irreducible(L: FiniteLattice) -> bool:
    """True iff the congruence lattice has a unique atom (monolith): the
    atoms of Con L are the minimal join-irreducible congruences, so there is
    one iff the closures share a join-irreducible, whose closure is then the
    least of them."""
    gens = _join_irreducible_masks(L)
    return bool(gens) and reduce(and_, gens) != 0


def meet_irreducible_congruences(L: FiniteLattice) -> list:
    """Congruences with exactly one upper cover in the congruence lattice:
    for each join-irreducible congruence con(p_*, p), the one collapsing
    every q whose closure misses p."""
    closure = _dependency(L)[1]
    collapsed = {sum(1 << q for q, c in closure.items() if not c >> p & 1) for p in closure}
    return sorted((_congruence(L, s) for s in collapsed), key=_congruence_order)


def _is_m3(L: FiniteLattice, c: Congruence) -> bool:
    """Whether the five-block quotient L/c is M3 rather than N5: its three
    join-irreducibles, the classes of the p in J(L) not congruent to p_*,
    are pairwise incomparable (p v q is congruent to neither p nor q)."""
    ps = [p for p in _dependency(L)[1] if not c.same(p, L.lower_covers(p)[0])]
    return not any(c.same(L.join[p][q], p) or c.same(L.join[p][q], q)
                   for p, q in combinations(ps, 2))


@cache
def _small_si_forms() -> dict:
    """Canonical forms of the subdirectly irreducible lattices with fewer
    than six elements, by name."""
    return {name: canonical_form(catalog.get(name)) for name in ("chain(2)", "N5", "M3")}


def si_factors(L: FiniteLattice) -> list:
    """Quotients by all meet-irreducible congruences, one per isomorphism
    class, in canonical-form order.  An SI lattice has 2, 5 or at least 6
    elements, since one with at most four is distributive and 2 is the only
    SI distributive lattice; with five it is N5 or M3 (:func:`_is_m3`).  So
    the class of a quotient with 2 or 5 blocks is known before it is built:
    only the first of each is built, and only quotients with six or more
    blocks are canonicalised."""
    small = _small_si_forms()
    seen = {}
    for c in meet_irreducible_congruences(L):
        k = c.block_count
        if k == 2 or k == 5:
            form = small["chain(2)" if k == 2 else "M3" if _is_m3(L, c) else "N5"]
            if form not in seen:
                seen[form] = quotient(L, c)
        else:
            q = quotient(L, c)
            seen.setdefault(canonical_form(q), q)
    return [seen[k] for k in sorted(seen)]


@dataclass(frozen=True)
class VarietyDecision:
    member: bool
    factors: tuple
    offending: FiniteLattice | None = None

    def __bool__(self):
        return self.member


@cached
def in_n5_variety(L: FiniteLattice) -> VarietyDecision:
    """Exact membership in the variety generated by the pentagon, with the
    subdirectly irreducible factor list as certificate.  The decision is
    kept by :func:`core.cached`, so the factors are computed once per
    lattice."""
    factors = tuple(si_factors(L))
    for q in factors:
        # the SI members are 2 and N5; of the SI lattices with five
        # elements, N5 has two atoms and M3 three
        if q.n > 2 and not (q.n == 5 and len(atoms(q)) == 2):
            return VarietyDecision(False, factors, q)
    return VarietyDecision(True, factors)
