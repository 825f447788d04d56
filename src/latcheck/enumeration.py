"""Exhaustive generation of all finite lattices with n elements, one
representative per isomorphism class.

Lattices grow bottom-up: element 0 is the bottom and each new element i
takes an order ideal of the placed poset as its strict down-set.  The
ideals are generated directly: index order is a linear extension, so
element x may join the ideal only if its own strict down-set is already
inside.  An ideal is kept only if every placed element outside it meets it
in a principal down-set, which keeps a unique greatest lower bound for every
pair (new elements never fall below old ones), and only if the new height
is not below the previous one.

New elements never fall below old ones, so element n-1 is always maximal,
and a lattice's unique maximum must be element n-1: at i = n-1 the only
candidate is the full set.  Every completed structure is then a lattice.

Isomorph rejection is self-canonicity: a labelled lattice is accepted iff
its identity labelling realises its canonical form, which is always
reachable because canonical labellings are linear extensions with
non-decreasing heights.  The walk itself supplies the seed signature
(height, depth, up-degree, down-degree) of every element: an element's
lower covers are the maximal elements of its down-set, recorded when it is
placed and never changed by later elements, its height follows from them,
each element keeps a count of its upper covers, and at a leaf one reverse
sweep over the lower covers gives the depths.  The tests run in order of
cost, on the walk's own arrays.  The signature must be non-decreasing along
0..n-1 (refinement only splits colour classes in signature order); the
refined classes must list 0..n-1 in order; and the canonical-form search
on those same classes must give the identity order matrix.  Only an
accepted leaf becomes a :class:`FiniteLattice`, with its canonical form
and permutation in its cache.
"""

from __future__ import annotations

from .core import (FiniteLattice, canonical_form, iter_bits, matrix_bytes, _canonical_search,
                   _refined_classes, _seed_signature)
from .errors import BadParameter, SizeLimit

ENUM_CAP = 9

_CACHE = {}


def _generate(n):
    labels = tuple(f"e{i}" for i in range(n))
    if n == 1:
        return [FiniteLattice(labels, (1,))]
    results = []
    up = [1] + [0] * (n - 1)
    down = [1] + [0] * (n - 1)
    heights = [0] * n
    lower = [()] * n  # lower covers, fixed when the element is placed
    updeg = [0] * n  # upper covers among the placed elements
    by_down = {1: 0}  # down-set mask -> element

    def ideals(i):
        # strict down-sets for element i: order ideals of 0..i-1 holding 0;
        # the last element is the top, above everything
        if i == n - 1:
            return [(1 << i) - 1]
        found = [1]
        for x in range(1, i):
            below = down[x] & ~(1 << x)
            found += [D | 1 << x for D in found if below & ~D == 0]
        return found

    def leaf():
        # index order is a linear extension, so one reverse sweep over the
        # lower covers settles every depth
        depths = [0] * n
        for i in range(n - 1, 0, -1):
            d = depths[i] + 1
            for x in lower[i]:
                if depths[x] < d:
                    depths[x] = d
        sig = _seed_signature(heights, depths, updeg, map(len, lower))
        if any(sig[a] > sig[a + 1] for a in range(n - 1)):
            return
        upper = [[] for _ in range(n)]
        for a, lows in enumerate(lower):
            for b in lows:
                upper[b].append(a)
        classes = _refined_classes(sig, upper, lower)
        if [e for cls in classes for e in cls] != list(range(n)):
            return
        perm = _canonical_search(up, classes)
        form = matrix_bytes(up, perm)
        if form == matrix_bytes(up):
            L = FiniteLattice(labels, up)
            L._cache.update(canon=form, canon_perm=perm)
            results.append(L)

    def rec(i):
        if i == n:
            leaf()
            return
        prev_h = heights[i - 1]
        for D in ideals(i):
            # the maximal elements of D; new elements never fall below old
            # ones, so these stay the lower covers of i
            lows = tuple(x for x in iter_bits(D) if up[x] & D == 1 << x)
            h = 1 + max(heights[x] for x in lows)
            # every placed element must meet D in a principal down-set, so
            # that it keeps a glb with the new element
            if h < prev_h or any(down[a] & D not in by_down for a in range(i)):
                continue
            down[i] = D | (1 << i)
            up[i] = 1 << i
            heights[i] = h
            lower[i] = lows
            by_down[down[i]] = i
            for x in iter_bits(D):
                up[x] |= 1 << i
            for x in lows:
                updeg[x] += 1
            rec(i + 1)
            for x in lows:
                updeg[x] -= 1
            for x in iter_bits(D):
                up[x] &= ~(1 << i)
            del by_down[down[i]]
            down[i] = 0
            up[i] = 0

    rec(1)
    results.sort(key=canonical_form)
    return results


def all_lattices(n: int):
    """All lattices with n elements up to isomorphism, in canonical-form
    order."""
    if n < 1:
        raise BadParameter(f"lattice enumeration needs n >= 1, got {n}")
    if n > ENUM_CAP:
        raise SizeLimit(n, ENUM_CAP, "lattice enumeration")
    if n not in _CACHE:
        _CACHE[n] = tuple(_generate(n))
    return _CACHE[n]


def _parse_predicates(names):
    if not names:
        return []
    from . import embed, laws, variety

    preds = []
    for name in names:
        if name == "sd":
            preds.append(lambda L: laws.holds(L, "sd_join") and laws.holds(L, "sd_meet"))
        elif name == "whitman":
            preds.append(lambda L: bool(laws.whitman(L)))
        elif name == "distributive":
            preds.append(lambda L: bool(laws.distributive(L)))
        elif name == "in_n5":
            preds.append(lambda L: bool(variety.in_n5_variety(L)))
        elif name.startswith("profile(") and name.endswith(")"):
            prof = embed.profile(name[len("profile("):-1])
            preds.append(lambda L, p=prof: not embed.contains_forbidden(L, p))
        else:
            raise ValueError(f"unknown filter predicate {name!r}")
    return preds


def filtered(n: int, predicates):
    """Sub-stream of all_lattices(n) satisfying every named predicate
    (from: sd, whitman, distributive, in_n5, profile(NAME))."""
    preds = _parse_predicates(list(predicates))
    for L in all_lattices(n):
        if all(p(L) for p in preds):
            yield L
