"""Decidable law predicates on finite lattices: Whitman's condition, the
semidistributive laws, distributivity, modularity, doubly reducible elements,
chain length and the finite free-sublattice test.

The equational laws are exhaustive tuple loops with early exit;
counterexamples are the lexicographically first in index order.  Doubly
reducible elements are read off the cached covers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import FiniteLattice


@dataclass(frozen=True)
class Check:
    """Predicate outcome with the first counterexample when it fails."""

    holds: bool
    witness: tuple | None = None

    def __bool__(self):
        return self.holds


@dataclass(frozen=True)
class LawProfile:
    whitman: bool
    sd_join: bool
    sd_meet: bool
    distributive: bool
    modular: bool
    doubly_reducible: tuple
    length: int
    free_sublattice_finite: bool


def whitman(L: FiniteLattice) -> Check:
    """Whenever a^b <= cvd, one of a <= cvd, b <= cvd, a^b <= c, a^b <= d
    must hold; returns the first violating quadruple otherwise.  The verdict
    is kept in the lattice's cache, so the O(n^4) scan runs once per lattice."""
    if "whitman" not in L._cache:
        L._cache["whitman"] = _whitman_scan(L)
    return L._cache["whitman"]


def _whitman_scan(L: FiniteLattice) -> Check:
    n, meet, join, leq = L.n, L.meet, L.join, L.leq
    for a in range(n):
        for b in range(n):
            m = meet[a][b]
            for c in range(n):
                if leq(m, c):
                    continue
                for d in range(n):
                    if leq(m, d):
                        continue
                    j = join[c][d]
                    if leq(m, j) and not leq(a, j) and not leq(b, j):
                        return Check(False, (a, b, c, d))
    return Check(True)


def _sd_check(n, op, co) -> Check:
    """a op c = a op b implies a op (b co c) = a op b; the join law takes
    (join, meet) and the meet law (meet, join)."""
    for a in range(n):
        for b in range(n):
            d = op[a][b]
            for c in range(n):
                if op[a][c] == d and op[a][co[b][c]] != d:
                    return Check(False, (a, b, c))
    return Check(True)


def semidistributive(L: FiniteLattice) -> tuple[Check, Check]:
    """The join and meet semidistributive laws, each with the first violating
    triple (a, b, c) on failure.  The pair is kept in the lattice's cache, as
    Whitman's verdict is."""
    if "semidistributive" not in L._cache:
        L._cache["semidistributive"] = (_sd_check(L.n, L.join, L.meet),
                                        _sd_check(L.n, L.meet, L.join))
    return L._cache["semidistributive"]


def distributive(L: FiniteLattice) -> Check:
    """a v (b ^ c) = (a v b) ^ (a v c); in a lattice this law implies its
    dual (Davey & Priestley, Introduction to Lattices and Order, Lemma 4.3),
    so the first triple failing it is the witness."""
    return _distributive_on(L, range(L.n))


def _distributive_on(L: FiniteLattice, elems) -> Check:
    """The distributive law read on L's tables over ``elems``, a sublattice."""
    meet, join = L.meet, L.join
    for a in elems:
        ja = join[a]
        for b in elems:
            for c in elems:
                if ja[meet[b][c]] != meet[ja[b]][ja[c]]:
                    return Check(False, (a, b, c))
    return Check(True)


def modular(L: FiniteLattice) -> Check:
    """(a v b) ^ c = a v (b ^ c) whenever a <= c."""
    n, meet, join, leq = L.n, L.meet, L.join, L.leq
    for a in range(n):
        for c in range(n):
            if not leq(a, c):
                continue
            for b in range(n):
                if meet[join[a][b]][c] != join[a][meet[b][c]]:
                    return Check(False, (a, b, c))
    return Check(True)


def doubly_reducible_elements(L: FiniteLattice) -> tuple:
    """Elements that are a join of two incomparable elements (in a finite
    lattice: have two lower covers) and a meet of two (have two upper covers)."""
    return tuple(x for x in range(L.n)
                 if len(L.lower_covers(x)) > 1 and len(L.upper_covers(x)) > 1)


def length(L: FiniteLattice) -> int:
    """Maximum chain cardinality (longest cover path plus one)."""
    return max(L.heights()) + 1


def dilworth_bound_holds(L: FiniteLattice) -> bool:
    """Semidistributive lattices of length n+1 have at most 2^n elements."""
    sd_join, sd_meet = semidistributive(L)
    if not (sd_join and sd_meet):
        return True
    return L.n <= 2 ** (length(L) - 1)


def is_finite_free_sublattice(L: FiniteLattice) -> bool:
    """A finite lattice embeds in a free lattice iff it satisfies both
    semidistributive laws and Whitman's condition."""
    sd_join, sd_meet = semidistributive(L)
    return bool(sd_join and sd_meet and whitman(L))


def law_profile(L: FiniteLattice) -> LawProfile:
    sd_join, sd_meet = semidistributive(L)
    w = whitman(L)
    return LawProfile(
        whitman=bool(w),
        sd_join=bool(sd_join),
        sd_meet=bool(sd_meet),
        distributive=bool(distributive(L)),
        modular=bool(modular(L)),
        doubly_reducible=doubly_reducible_elements(L),
        length=length(L),
        free_sublattice_finite=bool(w and sd_join and sd_meet),
    )
