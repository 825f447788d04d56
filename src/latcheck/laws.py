"""Decidable law predicates on finite lattices: Whitman's condition, the
semidistributive laws, distributivity, modularity, doubly reducible elements,
chain length and the finite free-sublattice test.

One table, ``_LAWS``, gives each law a verdict from structure and a scan
that names the first counterexample in index order.  :func:`holds` reads
the verdict: W in O(n^2) mask operations from the meets and joins of pairs,
SD-meet iff kappa(j) exists for every join-irreducible j, SD-join dually
(Freese, Jezek & Nation, *Free Lattices*, Ch. II), modularity iff the
height h has h(a) + h(b) = h(a ^ b) + h(a v b) for every pair (Birkhoff,
*Lattice Theory*, Ch. II), and distributivity as modularity plus SD-meet.
The scans run only when a law fails, to name the witness; W's reads it
off the marks its verdict builds, in O(n^2) mask operations.  Doubly
reducible elements are read off the cached covers.
"""

from __future__ import annotations

from collections import namedtuple

from .core import FiniteLattice, cached, iter_bits


class Check(namedtuple("Check", "holds witness", defaults=(None,))):
    """Predicate outcome with the first counterexample when it fails."""

    __slots__ = ()

    def __bool__(self):
        return self.holds


LawProfile = namedtuple("LawProfile", "whitman sd_join sd_meet distributive modular "
                                      "doubly_reducible length free_sublattice_finite")


def _whitman_marks(L: FiniteLattice):
    """One pass over the pairs marks in ``off_meet[u]`` each v that both
    arguments of a meet u are not below, and in ``off_join[v]`` each u that
    both arguments of a join v are not above."""
    n, meet, join, up, down = L.n, L.meet, L.join, L.up, L.down
    full = (1 << n) - 1
    off_meet, off_join = [0] * n, [0] * n
    for a in range(n):
        for b in range(a + 1, n):
            off_meet[meet[a][b]] |= full & ~(up[a] | up[b])
            off_join[join[a][b]] |= full & ~(down[a] | down[b])
    return off_meet, off_join


def _whitman_holds(L: FiniteLattice) -> bool:
    """W fails iff some u = a ^ b <= v = c v d has a, b not below v and c, d
    not above u: some v above u is marked in ``off_meet[u]`` with u marked
    in ``off_join[v]`` (:func:`_whitman_marks`)."""
    off_meet, off_join = _whitman_marks(L)
    up = L.up
    return not any(off_join[v] >> u & 1 for u in range(L.n) for v in iter_bits(off_meet[u] & up[u]))


def _whitman_witness(L: FiniteLattice) -> Check:
    """The first (a, b, c, d) in index order with u = a ^ b <= c v d, a and
    b not below c v d, and c and d not above u, read off the marks of
    :func:`_whitman_marks`: (a, b) is the first pair a < b with some v above
    u and not above a or b that has u marked in ``off_join[v]``, and (c, d)
    the first pair whose join is such a v, with c and d not above u.  The
    failing condition is symmetric in a, b and in c, d, so the first
    quadruple of the four nested loops over all indices has a < b, c < d."""
    n, meet, join, up = L.n, L.meet, L.join, L.up
    _, off_join = _whitman_marks(L)
    marked = [0] * n  # marked[u]: the v with u marked in off_join[v]
    for v in range(n):
        for u in iter_bits(off_join[v]):
            marked[u] |= 1 << v
    for a in range(n):
        for b in range(a + 1, n):
            u = meet[a][b]
            over = up[u] & ~(up[a] | up[b]) & marked[u]
            if not over:
                continue
            apart = [c for c in range(n) if not up[u] >> c & 1]
            for i, c in enumerate(apart):
                for d in apart[i + 1:]:
                    if over >> join[c][d] & 1:
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


def _distributive_on(L: FiniteLattice, elems) -> Check:
    """a v (b ^ c) = (a v b) ^ (a v c) read on L's tables over ``elems``, a
    sublattice; in a lattice this law implies its dual (Davey & Priestley,
    Introduction to Lattices and Order, Lemma 4.3), so the first triple
    failing it is the witness."""
    meet, join = L.meet, L.join
    for a in elems:
        ja = join[a]
        for b in elems:
            for c in elems:
                if ja[meet[b][c]] != meet[ja[b]][ja[c]]:
                    return Check(False, (a, b, c))
    return Check(True)


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


# law -> (verdict from structure, scan naming the first counterexample).
# Each entry looks its functions up when called, so they can be replaced.
# A non-distributive lattice holds N5 or M3, and M3 fails SD-meet.
_LAWS = {
    "whitman": (lambda L: _whitman_holds(L), lambda L: _whitman_witness(L)),
    "sd_join": (lambda L: _kappa_holds(L.n, L.upper_covers, L.down, L.meet),
                lambda L: _sd_check(L.n, L.join, L.meet)),
    "sd_meet": (lambda L: _kappa_holds(L.n, L.lower_covers, L.up, L.join),
                lambda L: _sd_check(L.n, L.meet, L.join)),
    "modular": (lambda L: _rank_holds(L), lambda L: _modular_scan(L)),
    "distributive": (lambda L: holds(L, "modular") and holds(L, "sd_meet"),
                     lambda L: _distributive_on(L, range(L.n))),
}


@cached
def holds(L: FiniteLattice, law: str) -> bool:
    """Whether L satisfies ``law``, a key of ``_LAWS``, decided from
    structure without naming a witness."""
    return _LAWS[law][0](L)


@cached
def _check(L: FiniteLattice, law: str) -> Check:
    """``law`` as a :class:`Check`: the scan for the first counterexample
    runs only when :func:`holds` says the law fails."""
    return Check(True) if holds(L, law) else _LAWS[law][1](L)


def whitman(L: FiniteLattice) -> Check:
    """Whitman's condition: a^b <= cvd implies a <= cvd, b <= cvd, a^b <= c or a^b <= d."""
    return _check(L, "whitman")


def semidistributive(L: FiniteLattice) -> tuple[Check, Check]:
    """The join and meet semidistributive laws, each failing with a triple (a, b, c)."""
    return _check(L, "sd_join"), _check(L, "sd_meet")


def distributive(L: FiniteLattice) -> Check:
    """a v (b ^ c) = (a v b) ^ (a v c), failing with a triple (a, b, c)."""
    return _check(L, "distributive")


def modular(L: FiniteLattice) -> Check:
    """(a v b) ^ c = a v (b ^ c) whenever a <= c, failing with a triple (a, b, c)."""
    return _check(L, "modular")


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
    return holds(L, "sd_join") and holds(L, "sd_meet") and holds(L, "whitman")


def free_sublattice_failure(L: FiniteLattice):
    """The first of W, SD-join and SD-meet that L fails, as (law, witness)
    with the witness of `whitman` or `semidistributive`, or None when L is a
    finite sublattice of a free lattice."""
    for law in ("whitman", "sd_join", "sd_meet"):
        if not holds(L, law):
            return law, _check(L, law).witness
    return None


def law_profile(L: FiniteLattice) -> LawProfile:
    p = {law: holds(L, law) for law in _LAWS}
    return LawProfile(**p, doubly_reducible=doubly_reducible_elements(L), length=length(L),
                      free_sublattice_finite=p["whitman"] and p["sd_join"] and p["sd_meet"])
