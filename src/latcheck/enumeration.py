"""Exhaustive generation of all finite lattices with n elements, one
representative per isomorphism class.

Lattices grow bottom-up: element 0 is the bottom and each new element takes
an order ideal of the current poset as its strict down-set, so every pair of
placed elements keeps a unique greatest lower bound (new elements never fall
below old ones).  A completed structure is a lattice iff it also has a unique
maximal element.  Isomorph rejection is self-canonicality: a labelled lattice
is accepted iff its identity labelling realises its canonical form, which is
always reachable because canonical labellings are linear extensions with
non-decreasing heights.
"""

from __future__ import annotations

from . import embed, laws, variety
from .core import FiniteLattice, canonical_form, matrix_bytes, _refined_classes
from .errors import SizeLimit

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

    def rec(i):
        if i == n:
            if sum(1 for a in range(n) if up[a] == 1 << a) != 1:
                return
            L = FiniteLattice(labels, tuple(up))
            flat = [e for cls in _refined_classes(L) for e in cls]
            if flat == list(range(n)) and matrix_bytes(L) == canonical_form(L):
                results.append(L)
            return
        prev_h = heights[i - 1]
        for D in range(1, 1 << i, 2):  # strict down-sets always contain the bottom
            ok = True
            h = 0
            m = D
            while m:
                x = (m & -m).bit_length() - 1
                if down[x] & ~D:
                    ok = False
                    break
                if heights[x] >= h:
                    h = heights[x] + 1
                m &= m - 1
            if not ok or h < prev_h:
                continue
            for a in range(i):
                if (D >> a) & 1:
                    continue
                if FiniteLattice._extreme(down[a] & D, down) is None:
                    ok = False
                    break
            if not ok:
                continue
            down[i] = D | (1 << i)
            up[i] = 1 << i
            heights[i] = h
            touched = []
            m = D
            while m:
                x = (m & -m).bit_length() - 1
                up[x] |= 1 << i
                touched.append(x)
                m &= m - 1
            rec(i + 1)
            for x in touched:
                up[x] &= ~(1 << i)
            down[i] = 0
            up[i] = 0

    rec(1)
    results.sort(key=canonical_form)
    return results


def all_lattices(n: int, cap: int = ENUM_CAP):
    """All lattices with n elements up to isomorphism, in canonical-form
    order."""
    if not 1 <= n <= cap:
        raise SizeLimit(n, cap, "lattice enumeration")
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


def filtered(n: int, predicates, cap: int = ENUM_CAP):
    """Sub-stream of all_lattices(n) satisfying every named predicate
    (from: sd, whitman, distributive, in_n5, profile(NAME))."""
    preds = _parse_predicates(list(predicates))
    for L in all_lattices(n, cap):
        if all(p(L) for p in preds):
            yield L
