"""Decidable law predicates on finite lattices: Whitman's condition, the
semidistributive laws, distributivity, modularity, doubly reducible elements,
chain length and the finite free-sublattice test.

Whitman's condition and distributivity are exhaustive tuple loops with
early exit.  The semidistributive laws and modularity are decided from
structure in O(n^2) by :func:`holds`: SD-meet iff kappa(j) exists for every
join-irreducible j, SD-join dually (Freese, Jezek & Nation, *Free Lattices*,
Ch. II), and modularity iff the height h has h(a) + h(b) = h(a ^ b) +
h(a v b) for every pair (Birkhoff, *Lattice Theory*, Ch. II).
Their tuple loops run only when a law fails, to name the counterexample.
Counterexamples are the lexicographically first in index order.  Doubly
reducible elements are read off the cached covers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import FiniteLattice, cached, iter_bits


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


@cached
def whitman(L: FiniteLattice) -> Check:
    """Whenever a^b <= cvd, one of a <= cvd, b <= cvd, a^b <= c, a^b <= d
    must hold; returns the first violating quadruple otherwise.  The verdict
    is kept by :func:`core.cached`, so the O(n^4) scan runs once per lattice."""
    return _whitman_scan(L)


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


def _kappa_holds(n, covers, up, op) -> bool:
    """Every j with one cover c in ``covers`` has a largest element above c
    and not above j: the ``op`` of those elements is not above j.  The meet
    law reads (lower covers, up-sets, join), its kappa; the join law (upper
    covers, down-sets, meet)."""
    for j in range(n):
        cs = covers(j)
        if len(cs) != 1:
            continue
        s = c = cs[0]
        for x in iter_bits(up[c] & ~up[j]):
            s = op[s][x]
        if (up[j] >> s) & 1:
            return False
    return True


def _rank_holds(L: FiniteLattice) -> bool:
    """h(a) + h(b) = h(a ^ b) + h(a v b) for every pair, h the height.  A
    modular lattice is graded and its rank satisfies this.  A non-modular
    one has a pentagon a < c, b with a ^ b = c ^ b and a v b = c v b
    (Dedekind), where the equation for (a, b) and (c, b) would force
    h(a) = h(c), although a < c."""
    n, meet, join, h = L.n, L.meet, L.join, L.heights()
    return all(h[a] + h[b] == h[ma[b]] + h[ja[b]]
               for a, ma, ja in zip(range(n), meet, join) for b in range(a + 1, n))


_VERDICTS = {
    "sd_join": lambda L: _kappa_holds(L.n, L.upper_covers, L.down, L.meet),
    "sd_meet": lambda L: _kappa_holds(L.n, L.lower_covers, L.up, L.join),
    "modular": lambda L: _rank_holds(L),
}


@cached
def holds(L: FiniteLattice, law: str) -> bool:
    """Whether L satisfies ``law``, "sd_join", "sd_meet" or "modular",
    decided from structure without naming a witness.  The verdict is kept
    by :func:`core.cached`."""
    return _VERDICTS[law](L)


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


@cached
def semidistributive(L: FiniteLattice) -> tuple[Check, Check]:
    """The join and meet semidistributive laws, each with the first violating
    triple (a, b, c) on failure.  Each verdict comes from :func:`holds`, and
    the triple scan runs only for a law that fails.  The pair is kept by
    :func:`core.cached`, as Whitman's verdict is."""
    return tuple(Check(True) if holds(L, law) else _sd_check(L.n, op, co)
                 for law, op, co in (("sd_join", L.join, L.meet), ("sd_meet", L.meet, L.join)))


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


@cached
def modular(L: FiniteLattice) -> Check:
    """(a v b) ^ c = a v (b ^ c) whenever a <= c.  The verdict comes from
    :func:`holds`, and the scan for the first violating triple runs only
    when the law fails; the check is kept by :func:`core.cached`."""
    return Check(True) if holds(L, "modular") else _modular_scan(L)


def _modular_scan(L: FiniteLattice) -> Check:
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
    if not (holds(L, "sd_join") and holds(L, "sd_meet")):
        return True
    return L.n <= 2 ** (length(L) - 1)


def is_finite_free_sublattice(L: FiniteLattice) -> bool:
    """A finite lattice embeds in a free lattice iff it satisfies both
    semidistributive laws and Whitman's condition."""
    return holds(L, "sd_join") and holds(L, "sd_meet") and bool(whitman(L))


def law_profile(L: FiniteLattice) -> LawProfile:
    sd_join, sd_meet, w = holds(L, "sd_join"), holds(L, "sd_meet"), bool(whitman(L))
    return LawProfile(
        whitman=w,
        sd_join=sd_join,
        sd_meet=sd_meet,
        distributive=bool(distributive(L)),
        modular=holds(L, "modular"),
        doubly_reducible=doubly_reducible_elements(L),
        length=length(L),
        free_sublattice_finite=w and sd_join and sd_meet,
    )
