"""Sublattice-isomorphism search: does a pattern lattice sit inside a host as
a meet/join-closed subset, and forbidden-pattern profiles built from that.

"Sublattice" always means closed under the host's operations, never a mere
order-embedded subposet.  One search (:func:`iter_matches`) places the
elements of a plan: a pattern's (element order, feasibility statistics, and
the facts listed per search level), built once per pattern
(:func:`_plan`), or a *configuration*'s, named elements with given order,
incomparability, meet/join and ascending-index facts, such as a theorem's
hypothesis (:func:`configuration`).  Each level computes its candidate
images as one host bitmask, and each candidate tried, one node of the
search tree, spends one node of the budget.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from . import catalog, laws
from .core import EmbeddingWitness, FiniteLattice, _Budget, cached
from .errors import UnknownProfile


def _levels(order, leq, apart, facts, ascending=()):
    """Per level, in ``order``: the element placed there; the earlier
    elements above, below and incomparable to it, and those it must follow
    in host index (by the predicates ``leq`` and ``apart`` and the pairs
    ``ascending``); each (table, x, y) whose value it must be, and each
    z = x op y with z placed earlier as (table, x, y, z), from the
    (table, x, y, z) ``facts``.  Tables are named 0 = meet and 1 = join, so
    one plan serves every host."""
    level = {a: k for k, a in enumerate(order)}
    levels = [(a, [b for b in order[:k] if leq(a, b)], [b for b in order[:k] if leq(b, a)],
               [c for c in order[:k] if apart(a, c)],
               [b for b in order[:k] if (b, a) in ascending], [], [])
              for k, a in enumerate(order)]
    for t, x, y, z in facts:
        last = max(level[x], level[y])
        if level[z] > last:
            levels[level[z]][5].append((t, x, y))
        else:
            levels[last][6].append((t, x, y, z))
    return levels


def _statistics(L: FiniteLattice):
    """Seven per-element statistics of ``L``, one column each: height,
    depth, |up-set|, |down-set|, the numbers of upper and lower covers, and
    the number of incomparable elements.  A sublattice embedding f can only
    raise each of them, so a host element with a smaller value than a is
    never f(a).  Heights, depths and the set sizes: f is injective and
    keeps and reflects order.  Incomparables: f takes a pair a || c to a
    pair f(a) || f(c), on distinct elements.  Lower covers: if b1 ... bk
    are the lower covers of a, then bi v bj = a and so f(bi) v f(bj) = f(a)
    for i != j; each f(bi) < f(a) lies below some lower cover of f(a), and
    no two below the same one, whose join would stay below it, so f(a) has
    at least k lower covers.  Upper covers follow dually."""
    n, ups, downs = L.n, [u.bit_count() for u in L.up], [w.bit_count() for w in L.down]
    return (L.heights(), L.depths(), ups, downs,
            [len(L.upper_covers(a)) for a in range(n)],
            [len(L.lower_covers(a)) for a in range(n)],
            [n + 1 - u - w for u, w in zip(ups, downs)])


@cached
def _plan(pattern: FiniteLattice):
    """The pattern side of the search, built once per pattern and kept by
    :func:`core.cached`: each element's seven :func:`_statistics`, which
    its image must reach, and the :func:`_levels` of its order, meet and
    join facts in the search's element order (most-constrained cover degree
    first)."""
    n, ph = pattern.n, pattern.heights()
    order = sorted(
        range(n),
        key=lambda a: (-(len(pattern.upper_covers(a)) + len(pattern.lower_covers(a))),
                       ph[a], a),
    )
    facts = [(t, x, y, pt[x][y]) for x, y in itertools.combinations(range(n), 2)
             for t, pt in enumerate((pattern.meet, pattern.join)) if pt[x][y] not in (x, y)]
    return list(zip(*_statistics(pattern))), _levels(order, pattern.leq, pattern.incomparable,
                                                     facts)


def configuration(names, leq=(), apart=(), facts=(), ascending=(), pattern=None):
    """The plan of the elements ``names``, placed in that order on distinct
    host elements with x <= y for each (x, y) in ``leq``, x incomparable to
    y for each pair in ``apart``, x op y = z for each (op, x, y, z) in
    ``facts``, op "meet" or "join", and x on a lower host index than y for
    each (x, y) in ``ascending``, x placed before y, which lists each set of
    interchangeable elements once; every host element is feasible for each,
    so the plan holds no statistics.  With a ``pattern``, the first
    pattern.n names are its elements, placed first as by its own plan, with
    its statistics, and each pair and fact involves a later name."""
    stats, levels = _plan(pattern) if pattern is not None else ([], [])
    p, index = len(stats), {x: i for i, x in enumerate(names)}
    le = {(index[x], index[y]) for x, y in leq}
    ap = {(index[x], index[y]) for x, y in apart}
    ap |= {(y, x) for x, y in ap}
    asc = {(index[x], index[y]) for x, y in ascending}
    facts = [(("meet", "join").index(t), index[x], index[y], index[z]) for t, x, y, z in facts]
    order = [lv[0] for lv in levels] + list(range(p, len(names)))
    rest = _levels(order, lambda a, b: (a, b) in le, lambda a, b: (a, b) in ap, facts, asc)[p:]
    return stats, levels + rest


@cached
def _host_tables(host: FiniteLattice):
    """For each of the host's seven :func:`_statistics`, ``ge``: ``ge[v]``
    is the mask of the elements whose value is at least v, for v = 0..n.
    Built once per host, and only for a plan with statistics, and kept by
    :func:`core.cached`."""
    tables = []
    for values in _statistics(host):
        ge = [0] * (host.n + 1)
        for h, v in enumerate(values):
            ge[v] |= 1 << h
        for v in range(host.n - 1, -1, -1):
            ge[v] |= ge[v + 1]
        tables.append(ge)
    return tables


def iter_matches(plan, host: FiniteLattice, budget=None, images=None):
    """Yield every placement of a plan's elements on distinct host elements
    that keeps its facts, as the tuple of their images; with ``images``, one
    host element per plan element, only that placement, if it keeps them.

    Backtracking over the plan's levels (see :func:`_levels`).  An element
    with statistics may go only to host elements where each of its seven
    :func:`_statistics` is at least its own, read off the host's
    :func:`_host_tables`; a plan with none, such as a configuration of
    names only, reads no host table, and every host element is feasible.
    When some element has no feasible image, the search ends before its
    first node.  Each level computes its candidates as one host bitmask:
    the element's feasible images outside the image, below the images of
    the placed elements above it, above those below it, comparable to none
    of the placed elements incomparable to it, and past those it must
    follow in host index; when it is x op y with x and y placed, its image
    is forced to the host's x op y.  Each candidate, in ascending order, is
    then checked against the level's remaining meet and join facts.  An
    x op y whose z is placed later is checked at z's level, where z's one
    candidate is the host's x op y, and only if it is outside the image.

    The budget, a node count or a :class:`core._Budget` shared with other
    searches, counts one node per candidate tried; the feasibility masks
    only prune.  Raises SearchBudgetExceeded when the budget runs out
    before completion.
    """
    stats, levels = plan
    m = len(levels)
    if m > host.n:
        return
    budget = _Budget.of(budget)
    feasible = [host.full_mask] * m
    if stats:
        # every statistic of a plan element is at most m <= host.n
        g0, g1, g2, g3, g4, g5, g6 = _host_tables(host)
        feasible[:len(stats)] = [g0[h] & g1[d] & g2[u] & g3[w] & g4[uc] & g5[lc] & g6[i]
                                 for h, d, u, w, uc, lc, i in stats]
    if images is not None:
        feasible = [mask & (1 << x) for mask, x in zip(feasible, images)]
    if not all(feasible):
        return
    f, ups, downs, tables = [0] * m, host.up, host.down, (host.meet, host.join)
    spend = budget.spend

    def rec(k, image):
        if k == m:
            yield tuple(f)
            return
        a, above, below, apart, after, forced, ops = levels[k]
        cand = feasible[a] & ~image
        for b in above:
            cand &= downs[f[b]]
        for b in below:
            cand &= ups[f[b]]
        for c in apart:
            cand &= ~(ups[f[c]] | downs[f[c]])
        for b in after:
            cand &= -(2 << f[b])
        for t, x, y in forced:
            cand &= 1 << tables[t][f[x]][f[y]]
        while cand:
            low = cand & -cand
            cand ^= low
            spend("embedding search")
            f[a] = low.bit_length() - 1
            if ops and not all(tables[t][f[x]][f[y]] == f[z] for t, x, y, z in ops):
                continue
            yield from rec(k + 1, image | low)

    yield from rec(0, 0)


def iter_embeddings(pattern: FiniteLattice, host: FiniteLattice, budget=None):
    """Yield every sublattice embedding of ``pattern`` into ``host``: the
    matches of its plan, which keep its order, meets and joins."""
    for f in iter_matches(_plan(pattern), host, budget):
        yield EmbeddingWitness(pattern, host, f)


def find_embedding(pattern: FiniteLattice, host: FiniteLattice, budget=None):
    """First sublattice embedding in the fixed search order, or None."""
    return next(iter_embeddings(pattern, host, budget), None)


class ForbiddenProfile(namedtuple("ForbiddenProfile", "name patterns")):
    """A named set of catalog lattices that must not occur as sublattices."""

    __slots__ = ()

    def lattices(self):
        return [(p, catalog.get(p)) for p in self.patterns]


_MCKENZIE = [f"L{i}" for i in range(1, 16)]

# laws decided by :func:`laws.holds` that prune the forbidden-pattern search;
# never membership in V(N5), which the variety command cross-checks against it
_PRUNING_LAWS = ("sd_join", "sd_meet", "modular")

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
    An empty list means the host passes the profile's necessary condition.

    A sublattice satisfies every law its host does, so a pattern that fails
    SD-join, SD-meet or modularity is skipped, and spends no budget, on a
    host that satisfies that law; the host's verdicts are read only for
    the laws some pattern fails.  The searches share one budget."""
    budget, hits = _Budget.of(budget), []
    for name, pat in prof.lattices():
        if any(laws.holds(host, law) for law in _PRUNING_LAWS if not laws.holds(pat, law)):
            continue
        w = find_embedding(pat, host, budget)
        if w is not None:
            hits.append((name, w))
    return hits
