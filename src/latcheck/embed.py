"""Sublattice-isomorphism search: does a pattern lattice sit inside a host as
a meet/join-closed subset, and forbidden-pattern profiles built from that.

"Sublattice" always means closed under the host's operations, never a mere
order-embedded subposet.  The search checks partial maps against facts
listed per search level before it starts (see :func:`iter_embeddings`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import catalog
from .core import EmbeddingWitness, FiniteLattice, _Budget
from .errors import UnknownProfile


def iter_embeddings(pattern: FiniteLattice, host: FiniteLattice, budget=None):
    """Yield every sublattice embedding of ``pattern`` into ``host``.

    Backtracking over pattern elements in a fixed order (most-constrained
    cover degree first), pruning with height/degree feasibility and with
    facts listed per level before the search starts.  Level k holds the
    facts whose last element is order[k]: the earlier elements above and
    below it (the rest are incomparable to it), each z = x op y with x, y, z
    all placed, and, while z is unplaced, that the host value of x op y is
    not yet in the image.  (z = x op y with z one of x, y is an order fact.)
    A candidate passing its level's lists extends an order embedding that
    keeps every meet and join among placed elements, which is the pruning
    the search has always done.  Each candidate spends one node; raises
    SearchBudgetExceeded when the budget runs out before completion.
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
    level = {a: k for k, a in enumerate(order)}
    # per level: earlier elements above and below, each z = x op y as
    # (host table, x, y, z), each pending x op y as (host table, x, y)
    facts = [([b for b in order[:k] if pattern.leq(a, b)],
              [b for b in order[:k] if pattern.leq(b, a)], [], [])
             for k, a in enumerate(order)]
    for x, y in itertools.combinations(range(pattern.n), 2):
        for pt, ht in ((pattern.meet, host.meet), (pattern.join, host.join)):
            z = pt[x][y]
            if z != x and z != y:
                last = max(level[x], level[y])
                facts[max(last, level[z])][2].append((ht, x, y, z))
                if level[z] > last:
                    facts[last][3].append((ht, x, y))
    f, ups, downs = [0] * pattern.n, host.up, host.down

    def rec(k, image):
        if k == pattern.n:
            yield EmbeddingWitness(pattern, host, tuple(f))
            return
        a, (above, below, ops, pending) = order[k], facts[k]
        up = sum(1 << f[b] for b in above)
        down = sum(1 << f[b] for b in below)
        for h in feasible[a]:
            budget.spend("embedding search")
            if (image >> h) & 1 or ups[h] & image != up or downs[h] & image != down:
                continue
            f[a] = h
            if (all(t[f[x]][f[y]] == f[z] for t, x, y, z in ops)
                    and not any((image >> t[f[x]][f[y]]) & 1 for t, x, y in pending)):
                yield from rec(k + 1, image | 1 << h)

    yield from rec(0, 0)


def find_embedding(pattern: FiniteLattice, host: FiniteLattice, budget=None):
    """First sublattice embedding in the fixed search order, or None."""
    return next(iter_embeddings(pattern, host, budget), None)


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
