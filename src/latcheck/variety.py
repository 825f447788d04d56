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

The q whose closure holds p are p's kept set: the join-irreducibles that
the meet-irreducible congruence paired with p keeps apart from their lower
covers, whose classes are the quotient's join-irreducibles, ordered as in
L.  An SI lattice with one join-irreducible is 2, and one with three, two of
them comparable, is N5, so the membership verdict and the offending factor's
size are read off the kept sets with no quotient; the factor list, the
certificate, is built only when it is read, by the same rule: one quotient
each for 2 and N5, and a quotient and canonical form for every other kept
set.  The offending factor is the first that the rule does not name with
all of its own join-irreducibles kept.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, reduce
from itertools import combinations
from operator import and_

from .core import FiniteLattice, cached, canonical_form, iter_bits
from .errors import SizeLimit

CONGRUENCE_CAP = 16


class Congruence(namedtuple("Congruence", "block_index")):
    """A meet/join-compatible partition, stored as a block index per element
    (blocks numbered by first occurrence)."""

    __slots__ = ()

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


def _kept_sets(L: FiniteLattice) -> list:
    """The distinct kept sets, as masks: per join-irreducible p, the q whose
    D*-closure holds p, which the meet-irreducible congruence paired with p
    keeps apart from their lower covers."""
    closure = _dependency(L)[1]
    return list(dict.fromkeys(sum(1 << q for q, c in closure.items() if c >> p & 1)
                              for p in closure))


def meet_irreducible_congruences(L: FiniteLattice) -> list:
    """Congruences with exactly one upper cover in the congruence lattice:
    for each join-irreducible congruence con(p_*, p), the one collapsing
    every q outside p's kept set."""
    return sorted((_congruence(L, ~kept) for kept in _kept_sets(L)), key=_congruence_order)


def _member_class(L: FiniteLattice, kept) -> str | None:
    """The SI member of V(N5) that the quotient keeping ``kept`` is, if it
    is one: an SI lattice with one join-irreducible is 2, and one with
    three, two of them comparable, is N5."""
    ps = list(iter_bits(kept))
    if len(ps) == 1:
        return "chain(2)"
    if len(ps) == 3 and any(L.leq(a, b) or L.leq(b, a) for a, b in combinations(ps, 2)):
        return "N5"
    return None


def si_factors(L: FiniteLattice) -> list:
    """Quotients by all meet-irreducible congruences, one per isomorphism
    class, in canonical-form order.  A kept set that names 2 or N5 settles
    its class, so only the first congruence of each of those two classes is
    turned into a quotient, canonicalised only to place it in the order;
    every other quotient, M3 included, is canonicalised to find its
    class."""
    kept_of = {_congruence(L, ~kept): kept for kept in _kept_sets(L)}
    named, seen = set(), {}
    for c in sorted(kept_of, key=_congruence_order):
        name = _member_class(L, kept_of[c])
        if name not in named:
            if name is not None:
                named.add(name)
            q = quotient(L, c)
            seen.setdefault(canonical_form(q), q)
    return [seen[k] for k in sorted(seen)]


class VarietyDecision:
    """Membership in V(N5) with the size of the offending SI factor (None
    for a member).  The certificate, ``factors`` and ``offending``, is built
    by one :func:`si_factors` call on first read and then kept.  Equality,
    hash and repr read ``offending_size`` alone, never the lattice."""

    def __init__(self, lattice: FiniteLattice, offending_size: int | None):
        self.lattice = lattice
        self.offending_size = offending_size

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.offending_size == other.offending_size

    def __hash__(self):
        return hash(self.offending_size)

    def __repr__(self):
        return f"VarietyDecision(offending_size={self.offending_size!r})"

    @property
    def member(self) -> bool:
        return self.offending_size is None

    def __bool__(self):
        return self.member

    @cached_property
    def factors(self) -> tuple:
        return tuple(si_factors(self.lattice))

    @cached_property
    def offending(self) -> FiniteLattice | None:
        # a factor is SI, so the verdict's rule names it off all of its
        # join-irreducibles kept
        return None if self.member else next(
            q for q in self.factors if _member_class(q, sum(
                1 << p for p in range(q.n) if len(q.lower_covers(p)) == 1)) is None)


@cached
def in_n5_variety(L: FiniteLattice) -> VarietyDecision:
    """Exact membership in the variety generated by the pentagon, decided
    from the kept sets with no quotient: L is a member iff every kept set is
    that of 2 or N5, and otherwise the offending factor's size is the least
    block count over the other kept sets.  The decision is kept by
    :func:`core.cached`, so its certificate is built at most once per
    lattice."""
    jdown = _dependency(L)[0]
    sizes = [len({d & kept for d in jdown}) for kept in _kept_sets(L)
             if _member_class(L, kept) is None]
    return VarietyDecision(L, min(sizes, default=None))
