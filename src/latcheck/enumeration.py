"""Exhaustive generation of all finite lattices with n elements, one
representative per isomorphism class, by canonical augmentation (B. D.
McKay, *J. Algorithms* 26 (1998)) with coatoms as the augmenting elements
(J. Heitzig and J. Reinhold, *Algebra Universalis* 48 (2002)).

Deleting a coatom c from a lattice L leaves a lattice L - c, so every
lattice with n >= 3 elements is a lattice R with n - 1 elements plus a new
coatom above an order ideal D of R - {1}.  For each representative R of
``all_lattices(n - 1)`` the ideals of R - {1} are listed directly (index
order is a linear extension, so x may join an ideal only if its own strict
down-set is already inside), and an ideal D gives a lattice iff every
element of R - {1} meets D in a principal down-set; that element's meet
with c is then the top of that down-set.

Augmentations are taken up to R's automorphisms: an ideal is tried only if
it is the least mask in its orbit under the generators that
:func:`~latcheck.core.canonical_form` keeps for R, since automorphic ideals
give isomorphic children.  A child is kept only from its canonical parent:
the canonical labelling puts a coatom in slot n - 2, since its height is
the greatest after the top's, and a child with new coatom c is accepted
iff c lies in that element's orbit under the automorphisms its own
canonical-form search found, which generate its whole group.  Two
necessary tests run first: before refinement, c's (height, number of lower
covers) is at least every other coatom's; before the search, c lies in the
second-to-last refined class.  Every class then comes from one parent and
one orbit of ideals, so it is searched and accepted once.

A child's covers, heights, depths and degrees come from the parent's arrays,
and the seed signature, refinement and canonical-form search read them
directly.  A :class:`FiniteLattice` is built only for each kept child,
relabelled to its canonical form, with that form, the identity permutation
and its automorphism generators in its cache.
"""

from __future__ import annotations

import functools

from .core import (FiniteLattice, canonical_form, iter_bits, matrix_bytes, _canonical_search,
                   _orbit, _refined_classes, _seed_signature)
from .errors import BadParameter, SizeLimit

ENUM_CAP = 9

_CACHE = {}


@functools.lru_cache(maxsize=None)
def _names(n):
    """The labels e0..e(n-1) and the identity permutation, which every kept
    child with n elements shares."""
    return tuple(f"e{i}" for i in range(n)), tuple(range(n))


def _kept(form, up, perm, gens):
    """The lattice with order ``up`` and automorphism generators ``gens``
    in the canonical labelling ``perm`` (slot i holds element perm[i]),
    with its form ``form``, the identity permutation and the relabelled
    generators cached."""
    pos = [0] * len(perm)
    for i, a in enumerate(perm):
        pos[a] = i
    labels, identity = _names(len(up))
    L = FiniteLattice(labels, tuple(sum(1 << pos[b] for b in iter_bits(up[a])) for a in perm))
    L._cache.update(canon=form, canon_perm=identity,
                    canon_gens=tuple(tuple(pos[g[a]] for a in perm) for g in gens))
    return L


def _ideals(down, gens):
    """The order ideals of R - {1} that hold R's bottom, given R's
    down-sets, each the least mask of its orbit under the automorphisms
    ``gens`` of R, ascending."""
    c = len(down) - 1
    ideals = [1]
    for x in range(1, c):
        below = down[x] & ~(1 << x)
        ideals += [D | 1 << x for D in ideals if below & ~D == 0]
    # ideals ascend, so the first of each orbit is its least mask
    skip = set()
    for D in ideals:
        if D in skip:
            continue
        orbit = [D]
        skip.add(D)
        for E in orbit:
            for g in gens:
                F = sum(1 << g[x] for x in iter_bits(E))
                if F not in skip:
                    skip.add(F)
                    orbit.append(F)
        yield D


def _children(R):
    """Each child of ``R`` that is kept, as a lattice built by
    :func:`_kept`: R plus one new coatom, accepted from R as its canonical
    parent, one per isomorphism class.  R in any labelling: the search reads
    it in its canonical one, a linear extension with the bottom first."""
    form = canonical_form(R)  # caches R's automorphism generators
    perm = R._cache["canon_perm"]
    if tuple(perm) != _names(R.n)[1]:
        R = _kept(form, R.up, perm, R._cache["canon_gens"])
    n = R.n + 1
    c, top = n - 2, n - 1  # the new coatom takes R's top's index
    down = R.down
    downs = set(down[:c])
    # R's lower covers and heights on R - {1}, whose indices the child
    # keeps; R's top is slot c, so its lower covers are R's coatoms
    lower = [R.lower_covers(a) for a in range(c)]
    heights = R.heights()[:c]
    coatoms = R.lower_covers(c)

    for D in _ideals(down, R._cache["canon_gens"]):
        if any(down[a] & D not in downs for a in range(c)):
            continue
        lows = tuple(x for x in iter_bits(D) if R.up[x] & D == 1 << x)
        h = 1 + max(heights[x] for x in lows)
        others = tuple(x for x in coatoms if not D >> x & 1)
        if any((heights[x], len(lower[x])) > (h, len(lows)) for x in others):
            continue
        up = [R.up[a] & ~(1 << c) | 1 << top | (D >> a & 1) << c for a in range(c)]
        up += [1 << c | 1 << top, 1 << top]
        lows_all = lower + [lows, others + (c,)]
        upper = [[] for _ in range(n)]
        for a, ls in enumerate(lows_all):
            for b in ls:
                upper[b].append(a)
        # index order is a linear extension, so one reverse sweep over the
        # lower covers settles every depth
        depths = [0] * n
        for a in range(n - 1, 0, -1):
            d = depths[a] + 1
            for x in lows_all[a]:
                if depths[x] < d:
                    depths[x] = d
        # c passed the coatom test, so no other coatom is higher
        sig = _seed_signature(heights + (h, h + 1), depths, map(len, upper), map(len, lows_all))
        classes = _refined_classes(sig, upper, lows_all)
        if c not in classes[-2]:
            continue
        autos = []
        perm = _canonical_search(up, classes, autos)
        if not _orbit(1 << perm[c], autos) >> c & 1:
            continue
        yield _kept(matrix_bytes(up, perm), up, perm, autos)


def _extend(parents):
    """Every lattice with n elements up to isomorphism, in canonical-form
    order, from ``parents``: the representatives of every class with
    n - 1 >= 2 elements."""
    children = [L for R in parents for L in _children(R)]
    return tuple(sorted(children, key=lambda L: L._cache["canon"]))


def all_lattices(n: int):
    """All lattices with n elements up to isomorphism, in canonical-form
    order."""
    if n < 1:
        raise BadParameter(f"lattice enumeration needs n >= 1, got {n}")
    if n > ENUM_CAP:
        raise SizeLimit(n, ENUM_CAP, "lattice enumeration")
    if n not in _CACHE:
        if n <= 2:
            # the one- and two-element chains
            chain = tuple((1 << n) - (1 << i) for i in range(n))
            _CACHE[n] = (FiniteLattice(tuple(f"e{i}" for i in range(n)), chain),)
        else:
            _CACHE[n] = _extend(all_lattices(n - 1))
    return _CACHE[n]


def _parse_predicates(names):
    if not names:
        return []
    from . import embed, laws, variety

    preds = []
    for name in names:
        if name in ("sd", "whitman", "distributive"):
            need = ("sd_join", "sd_meet") if name == "sd" else (name,)
            preds.append(lambda L, need=need: all(laws.holds(L, law) for law in need))
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
