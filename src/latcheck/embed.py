"""Sublattice-isomorphism search: does a pattern lattice sit inside a host as
a meet/join-closed subset, and forbidden-pattern profiles built from that.

"Sublattice" always means closed under the host's operations, never a mere
order-embedded subposet.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import catalog
from .core import EmbeddingWitness, FiniteLattice, _Budget
from .errors import UnknownProfile


def iter_embeddings(pattern: FiniteLattice, host: FiniteLattice, budget=None):
    """Yield every sublattice embedding of ``pattern`` into ``host``.

    Backtracking over pattern elements in a fixed order (most-constrained
    cover degree first), pruning with order compatibility, meet/join
    consistency of the partial image, and height/degree feasibility.  Raises
    SearchBudgetExceeded when the node budget runs out before completion.
    """
    if pattern.n > host.n:
        return
    budget = _Budget(budget)
    ph, pd = pattern.heights(), pattern.depths()
    hh, hd = host.heights(), host.depths()
    order = sorted(
        range(pattern.n),
        key=lambda a: (-(len(pattern.upper_covers(a)) + len(pattern.lower_covers(a))),
                       ph[a], a),
    )
    feasible = [
        [
            h
            for h in range(host.n)
            if hh[h] >= ph[a] and hd[h] >= pd[a]
            and host.up[h].bit_count() >= pattern.up[a].bit_count()
            and host.down[h].bit_count() >= pattern.down[a].bit_count()
        ]
        for a in range(pattern.n)
    ]
    assigned = {}
    image = set()

    def consistent(a, h):
        for b, g in assigned.items():
            if pattern.leq(a, b) != host.leq(h, g) or pattern.leq(b, a) != host.leq(g, h):
                return False
        items = list(assigned.items())
        for i, (b, g) in enumerate(items):
            for (m_p, m_h) in ((pattern.meet[a][b], host.meet[h][g]),
                               (pattern.join[a][b], host.join[h][g])):
                if m_p == a:
                    if m_h != h:
                        return False
                elif m_p in assigned:
                    if assigned[m_p] != m_h:
                        return False
                elif m_h in image and m_h not in (h, g):
                    # that host element is already spoken for by a different
                    # pattern element
                    return False
            # pairs whose meet or join is the element being assigned now
            for c, f in items[i:]:
                if pattern.meet[b][c] == a and host.meet[g][f] != h:
                    return False
                if pattern.join[b][c] == a and host.join[g][f] != h:
                    return False
        return True

    def rec(k):
        if k == pattern.n:
            yield EmbeddingWitness(pattern, host,
                                   tuple(assigned[a] for a in range(pattern.n)))
            return
        a = order[k]
        for h in feasible[a]:
            budget.spend("embedding search")
            if h in image or not consistent(a, h):
                continue
            assigned[a] = h
            image.add(h)
            yield from rec(k + 1)
            del assigned[a]
            image.discard(h)

    yield from rec(0)


def find_embedding(pattern: FiniteLattice, host: FiniteLattice, budget=None):
    """First sublattice embedding in the fixed search order, or None."""
    return next(iter_embeddings(pattern, host, budget), None)


def embeds(pattern, host, budget=None) -> bool:
    return find_embedding(pattern, host, budget) is not None


@dataclass(frozen=True)
class ForbiddenProfile:
    """A named set of catalog lattices that must not occur as sublattices."""

    name: str
    patterns: tuple

    def lattices(self):
        return [(p, catalog.get(p)) for p in self.patterns]


_MCKENZIE = [f"L{i}" for i in range(1, 16)]

# per-profile forbidden sets; the corollary profiles keep exactly the
# patterns whose absence each reduction argument uses
PROFILES = {
    "N": ForbiddenProfile("N", tuple(["M3"] + _MCKENZIE)),
    "cor62": ForbiddenProfile("cor62", tuple(f"L{i}" for i in range(9, 16))),
    "cor63": ForbiddenProfile("cor63", tuple(f"L{i}" for i in range(10, 16))),
    "cor64": ForbiddenProfile("cor64", ("L9", "L11", "L12", "L13", "L14", "L15")),
    "cor65": ForbiddenProfile("cor65", tuple(f"L{i}" for i in range(6, 13)) + ("L14", "L15")),
    "cor66": ForbiddenProfile("cor66", tuple(f"L{i}" for i in range(6, 14)) + ("L15",)),
}


def profile(name: str) -> ForbiddenProfile:
    try:
        return PROFILES[name]
    except KeyError:
        raise UnknownProfile(name) from None


def contains_forbidden(host: FiniteLattice, prof: ForbiddenProfile, budget=None):
    """All profile patterns that embed into the host, each with one witness.
    An empty list means the host passes the profile's necessary condition."""
    hits = []
    for name, pat in prof.lattices():
        w = find_embedding(pat, host, budget)
        if w is not None:
            hits.append((name, w))
    return hits
