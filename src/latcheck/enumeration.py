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
non-decreasing heights.  It is tested on a :class:`FiniteOrder` view, with
no meet or join table, in order of cost: the seed signature must be
non-decreasing along 0..n-1 (refinement only splits colour classes in
signature order), then the refined classes must list 0..n-1 in order, then
the order matrix must equal the canonical form.  Tables are derived only
for accepted lattices, which keep the view's cache (canonical form and
permutation included).
"""

from __future__ import annotations

from . import embed, laws, variety
from .core import (FiniteLattice, FiniteOrder, canonical_form, iter_bits, matrix_bytes,
                   _refined_classes, _seed_signature)
from .errors import SizeLimit

ENUM_CAP = 9

_CACHE = {}


def _self_canonical(view):
    """True iff the identity labelling of ``view`` realises its canonical
    form; the cheaper necessary conditions are tested first."""
    sig = _seed_signature(view)
    if any(sig[a] > sig[a + 1] for a in range(view.n - 1)):
        return False
    flat = [e for cls in _refined_classes(view) for e in cls]
    return flat == list(range(view.n)) and matrix_bytes(view) == canonical_form(view)


def _generate(n):
    labels = tuple(f"e{i}" for i in range(n))
    if n == 1:
        return [FiniteLattice(labels, (1,))]
    results = []
    up = [1] + [0] * (n - 1)
    down = [1] + [0] * (n - 1)
    heights = [0] * n
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

    def rec(i):
        if i == n:
            view = FiniteOrder(up, down)
            if _self_canonical(view):
                L = FiniteLattice(labels, up)
                L._cache = view._cache
                results.append(L)
            return
        prev_h = heights[i - 1]
        for D in ideals(i):
            h = 1 + max(heights[x] for x in iter_bits(D))
            # every placed element must meet D in a principal down-set, so
            # that it keeps a glb with the new element
            if h < prev_h or any(down[a] & D not in by_down for a in range(i)):
                continue
            down[i] = D | (1 << i)
            up[i] = 1 << i
            heights[i] = h
            by_down[down[i]] = i
            for x in iter_bits(D):
                up[x] |= 1 << i
            rec(i + 1)
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
    if not 1 <= n <= ENUM_CAP:
        raise SizeLimit(n, ENUM_CAP, "lattice enumeration")
    if n not in _CACHE:
        _CACHE[n] = tuple(_generate(n))
    return _CACHE[n]


def _parse_predicates(names):
    preds = []
    for name in names:
        if name == "sd":
            preds.append(lambda L: all(laws.semidistributive(L)))
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
