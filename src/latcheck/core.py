"""Finite lattices as dense order and meet/join tables, plus the structural
primitives everything else is built on: construction from cover data, duals,
direct products, sublattice closure and enumeration, intervals, canonical
forms, cover queries and the node budget every search spends.

:func:`cached` is the one per-lattice memo: covers, heights, depths and
every verdict, plan or table computed once per lattice are kept by it.

:class:`FiniteLattice` is the one order type.  The canonical-form
primitives read plain arrays (seed signature columns, cover lists and
``up``), so the enumeration tests a candidate order on its own arrays and
builds a lattice only for one it keeps.

Order relations are stored as per-element bitmasks (``up[a]`` has bit ``b``
set iff ``a <= b``), which keeps every downstream predicate a matter of
integer arithmetic.  Lattices are immutable after construction.
:func:`sublattices` finds the sublattices inside a mask by closure, never by
a scan of all 2^n subsets.  A convex sublattice of a finite lattice is an
interval, so :func:`intervals` lists those directly, at most n(n+1)/2.
"""

from __future__ import annotations

import functools
import os
from collections import namedtuple

from .errors import (
    CyclicCovers,
    DuplicateLabel,
    EmptySeeds,
    InvalidDiagram,
    NotALattice,
    SearchBudgetExceeded,
    SizeLimit,
    node_count,
)

SIZE_CAP = 400  # elements of a direct product or a catalog family
DEFAULT_BUDGET = 20_000_000


def default_budget():
    """``LATCHECK_BUDGET`` when it is set, else DEFAULT_BUDGET."""
    env = os.environ.get("LATCHECK_BUDGET")
    return node_count(env, "LATCHECK_BUDGET") if env else DEFAULT_BUDGET


class _Budget:
    """Nodes left for one public call (``default_budget()`` unless given),
    shared by every search it makes; each search node spends one, and
    spending past zero raises SearchBudgetExceeded."""

    __slots__ = ("left", "total")

    def __init__(self, nodes=None):
        self.left = self.total = (default_budget() if nodes is None
                                  else node_count(nodes, "search node budget"))

    @classmethod
    def of(cls, budget):
        """``budget`` itself if it is a _Budget, to share, else a new one."""
        return budget if isinstance(budget, _Budget) else cls(budget)

    def spend(self, what):
        self.left -= 1
        if self.left < 0:
            raise SearchBudgetExceeded(self.total, what)


def iter_bits(mask):
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def cached(fn):
    """``fn(L, *args)`` memoised in ``L._cache``, the one per-lattice memo,
    under its module-qualified name and ``args``; a hit costs one dict
    probe.  Lattices are immutable, so an entry never goes stale."""
    name = f"{fn.__module__}.{fn.__qualname__}"
    missing = object()

    @functools.wraps(fn)
    def memo(L, *args):
        key = (name, *args)
        value = L._cache.get(key, missing)
        if value is missing:
            value = L._cache[key] = fn(L, *args)
        return value

    return memo


def _covers(a, up, down):
    """The covers of ``a`` on the side of ``up``: the elements b != a of
    up[a] with nothing strictly between, read on (up, down) for the upper
    covers and on (down, up) for the lower."""
    ends = up[a]
    return tuple(b for b in iter_bits(ends & ~(1 << a)) if ends & down[b] == (1 << a) | (1 << b))


def _longest(n, covers, below):
    """Per element a, the edges on a longest chain from a through
    ``covers``: the lower covers with the down-sets as ``below`` give the
    heights, the upper covers with the up-sets the depths.  Elements are
    taken in order of the size of ``below[a]``, so a's covers come first."""
    h = [0] * n
    for a in sorted(range(n), key=lambda x: below[x].bit_count()):
        h[a] = 1 + max((h[b] for b in covers(a)), default=-1)
    return tuple(h)


class CoverDiagram(namedtuple("CoverDiagram", "elements covers name")):
    """Hasse-diagram input data: ``covers`` holds pairs ``(a, b)`` meaning
    ``b`` covers ``a``."""

    __slots__ = ()

    def __new__(cls, elements, covers, name=None):
        return super().__new__(cls, tuple(elements), tuple((a, b) for a, b in covers), name)

    def validate(self):
        seen = set()
        for lab in self.elements:
            if lab in seen:
                raise DuplicateLabel(lab)
            seen.add(lab)
        pairs = set()
        for a, b in self.covers:
            if a not in seen or b not in seen:
                raise InvalidDiagram(f"cover ({a!r}, {b!r}) uses an unknown label")
            if a == b:
                raise InvalidDiagram(f"reflexive cover pair ({a!r}, {a!r})")
            if (a, b) in pairs:
                raise InvalidDiagram(f"cover ({a!r}, {b!r}) listed twice")
            pairs.add((a, b))


class FiniteLattice:
    """A finite lattice on elements ``0..n-1`` with precomputed tables, the
    reflexive ``up`` and ``down`` bitmasks, and memoised cover, height and
    depth queries.

    Do not call the constructor directly; use :func:`build_lattice`,
    :func:`dual`, :func:`direct_product` or the catalog.
    """

    __slots__ = ("n", "up", "down", "_cache", "labels", "meet", "join", "bottom", "top",
                 "full_mask")

    def __init__(self, labels, up, meet=None, join=None):
        n = self.n = len(labels)
        down = [0] * n
        for a in range(n):
            for b in iter_bits(up[a]):
                down[b] |= 1 << a
        self.up = tuple(up)
        self.down = tuple(down)
        self._cache = {}
        self.labels = tuple(labels)
        self.full_mask = (1 << n) - 1
        if meet is None or join is None:
            meet, join = self._derive_tables()
        self.meet = meet
        self.join = join
        self.bottom = next(a for a in range(n) if self.up[a] == self.full_mask)
        self.top = next(a for a in range(n) if self.down[a] == self.full_mask)

    def leq(self, a, b):
        return bool((self.up[a] >> b) & 1)

    def lt(self, a, b):
        return a != b and self.leq(a, b)

    def incomparable(self, a, b):
        return not (self.leq(a, b) or self.leq(b, a))

    # -- covers and chains ----------------------------------------------

    @cached
    def upper_covers(self, a):
        return _covers(a, self.up, self.down)

    @cached
    def lower_covers(self, a):
        return _covers(a, self.down, self.up)

    def covers(self, a, b):
        """True iff b covers a."""
        return self.lt(a, b) and self.up[a] & self.down[b] == (1 << a) | (1 << b)

    def cover_pairs(self):
        return [(a, b) for a in range(self.n) for b in self.upper_covers(a)]

    @cached
    def heights(self):
        """Longest-chain edge counts from the bottom, per element."""
        return _longest(self.n, self.lower_covers, self.down)

    @cached
    def depths(self):
        """Longest-chain edge counts up to the top, per element."""
        return _longest(self.n, self.upper_covers, self.up)

    def _derive_tables(self):
        # the glb of a and b is the element whose down-set is
        # down[a] & down[b], if there is one; the lub is the dual
        n, up, down = self.n, self.up, self.down
        below = {m: c for c, m in enumerate(down)}
        above = {m: c for c, m in enumerate(up)}
        meet = [[0] * n for _ in range(n)]
        join = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(a, n):
                m = below.get(down[a] & down[b])
                if m is None:
                    raise NotALattice((self.labels[a], self.labels[b]), "greatest lower bound")
                meet[a][b] = meet[b][a] = m
                j = above.get(up[a] & up[b])
                if j is None:
                    raise NotALattice((self.labels[a], self.labels[b]), "least upper bound")
                join[a][b] = join[b][a] = j
        return tuple(map(tuple, meet)), tuple(map(tuple, join))

    def index_of(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(label) from None

    def __repr__(self):
        return f"FiniteLattice(n={self.n}, labels={self.labels!r})"


def build_lattice(diagram: CoverDiagram) -> FiniteLattice:
    """Build the lattice whose order is the reflexive-transitive closure of
    the diagram's covers.  Fails loudly if some pair lacks a unique glb or
    lub, or if the covers are cyclic."""
    diagram.validate()
    labels = tuple(diagram.elements)
    n = len(labels)
    if n == 0:
        raise InvalidDiagram("a lattice needs at least one element")
    index = {lab: i for i, lab in enumerate(labels)}
    above = [[] for _ in range(n)]
    for a, b in diagram.covers:
        above[index[a]].append(index[b])

    # depth-first closure with an explicit stack: ``path`` holds the
    # elements being closed, ``todo`` an iterator over each one's covers
    up = [0] * n
    state = [0] * n  # 0 new, 1 on path, 2 done
    for root in range(n):
        if state[root]:
            continue
        state[root] = 1
        path, todo = [root], [iter(above[root])]
        while path:
            w = next(todo[-1], None)
            if w is None:
                v = path.pop()
                todo.pop()
                mask = 1 << v
                for w in above[v]:
                    mask |= up[w]
                up[v] = mask
                state[v] = 2
            elif state[w] == 1:
                cycle = path[path.index(w):] + [w]
                raise CyclicCovers([labels[c] for c in cycle])
            elif state[w] == 0:
                state[w] = 1
                path.append(w)
                todo.append(iter(above[w]))
    return FiniteLattice(labels, up)


def dual(L: FiniteLattice) -> FiniteLattice:
    """Order-reversed lattice; meet and join tables swap roles."""
    return FiniteLattice(L.labels, L.down, meet=L.join, join=L.meet)


def direct_product(A: FiniteLattice, B: FiniteLattice) -> FiniteLattice:
    """Componentwise-ordered product on A x B with labels "a.b"."""
    n = A.n * B.n
    if n > SIZE_CAP:
        raise SizeLimit(n, SIZE_CAP, "direct product")
    labels = tuple(f"{A.labels[i]}.{B.labels[j]}" for i in range(A.n) for j in range(B.n))
    # (i, j) is element i * B.n + j, so the pairs above it with first
    # component k are B.up[j] shifted by k * B.n; the tables are derived
    up = [sum(B.up[j] << k * B.n for k in iter_bits(A.up[i]))
          for i in range(A.n) for j in range(B.n)]
    return FiniteLattice(labels, up)


def closure(L: FiniteLattice, closed, extra, allowed=None):
    """Bitmask of the sublattice generated by ``closed | extra``, where
    ``closed`` is one already or 0; None as soon as it leaves ``allowed``
    (every element by default)."""
    allowed = L.full_mask if allowed is None else allowed
    mask = closed | extra
    if mask & ~allowed:
        return None
    # only the new members need pairing: pairs inside ``closed`` are closed
    members, todo = list(iter_bits(closed)), list(iter_bits(extra & ~closed))
    while todo:
        a = todo.pop()
        members.append(a)
        new = 0
        for b in members:
            new |= (1 << L.meet[a][b]) | (1 << L.join[a][b])
        new &= ~mask
        if new & ~allowed:
            return None
        mask |= new
        todo.extend(iter_bits(new))
    return mask


def sublattices(L: FiniteLattice, allowed, budget):
    """Yield once each, in no fixed order, the nonempty sublattices inside
    the mask ``allowed`` as bitmasks.  Depth-first search adding one element
    at a time by :func:`closure`; each closure spends a node of ``budget``
    (a :class:`_Budget`)."""
    seen, stack = {0}, [0]
    while stack:
        mask = stack.pop()
        if mask:
            yield mask
        for x in iter_bits(allowed & ~mask):
            budget.spend("sublattice enumeration")
            bigger = closure(L, mask, 1 << x, allowed)
            if bigger is not None and bigger not in seen:
                seen.add(bigger)
                stack.append(bigger)


def intervals(L: FiniteLattice, allowed):
    """Yield once each the intervals [a, b] = up[a] & down[b] inside the
    mask ``allowed``: the convex sublattices, since one holds the meet and
    join of its members and all between them."""
    for a in iter_bits(allowed):
        for b in iter_bits(L.up[a] & allowed):
            mask = L.up[a] & L.down[b]
            if not mask & ~allowed:
                yield mask


def bounds(L: FiniteLattice, mask) -> tuple:
    """(meet, join) of the members of the nonempty ``mask``."""
    lo = hi = (mask & -mask).bit_length() - 1
    for a in iter_bits(mask):
        lo, hi = L.meet[lo][a], L.join[hi][a]
    return lo, hi


def is_interval(L: FiniteLattice, mask) -> bool:
    """True iff the nonempty ``mask`` is an interval (a convex sublattice):
    all of [meet of mask, join of mask]."""
    lo, hi = bounds(L, mask)
    return mask == L.up[lo] & L.down[hi]


def generated_sublattice(L: FiniteLattice, seeds) -> frozenset:
    """Closure of ``seeds`` under the meet and join tables."""
    seeds = set(seeds)
    if not seeds:
        raise EmptySeeds("generated_sublattice needs at least one seed")
    mask = 0
    for s in seeds:
        if not 0 <= s < L.n:
            raise IndexError(f"seed {s} out of range")
        mask |= 1 << s
    return frozenset(iter_bits(closure(L, 0, mask)))


def is_sublattice_set(L: FiniteLattice, elems) -> bool:
    """True iff ``elems`` is nonempty and closed under meet and join."""
    s = set(elems)
    if not s:
        return False
    return all(L.meet[a][b] in s and L.join[a][b] in s for a in s for b in s)


def induced(L: FiniteLattice, elems) -> FiniteLattice:
    """Lattice induced by the order restricted to ``elems``.

    Raises NotALattice when the induced poset is not a lattice.  For subsets
    closed under L's operations this agrees with those operations.
    """
    elems = sorted(set(elems))
    if not elems:
        raise InvalidDiagram("cannot induce on an empty subset")
    pos = {e: i for i, e in enumerate(elems)}
    up = [0] * len(elems)
    for e in elems:
        mask = 0
        for f in iter_bits(L.up[e]):
            if f in pos:
                mask |= 1 << pos[f]
        up[pos[e]] = mask
    return FiniteLattice(tuple(L.labels[e] for e in elems), up)


# -- cover-level queries ----------------------------------------------------


def covers_of(L: FiniteLattice, a) -> tuple:
    """Minimal elements strictly above ``a`` (its upper covers)."""
    return L.upper_covers(a)


def atoms(L: FiniteLattice) -> tuple:
    return L.upper_covers(L.bottom)


def coatoms(L: FiniteLattice) -> tuple:
    return L.lower_covers(L.top)


def maximal_antichains(L: FiniteLattice):
    """Stream all maximal antichains as ascending index tuples."""
    n = L.n
    comp = [L.up[a] | L.down[a] for a in range(n)]
    full = L.full_mask

    def rec(start, chosen, covered):
        if covered == full and chosen:
            yield tuple(chosen)
        for v in range(start, n):
            if not (covered >> v) & 1:
                chosen.append(v)
                yield from rec(v + 1, chosen, covered | comp[v])
                chosen.pop()

    yield from rec(0, [], 0)


# -- canonical forms and isomorphism ----------------------------------------


def _seed_signature(heights, depths, up_degrees, down_degrees):
    """Per element (height, depth, up-degree, down-degree): the colours that
    refinement starts from."""
    return list(zip(heights, depths, up_degrees, down_degrees))


def _refined_classes(sig, upper, lower):
    """Partition elements into colour classes via iterated cover-multiset
    refinement of the seed signature ``sig``, given each element's upper
    and lower covers.

    Refinement only splits classes, so colour order extends signature
    order; the seed makes it respect height, so the canonical labelling is
    always a linear extension.
    """
    n = len(sig)
    order = sorted(range(n), key=lambda a: sig[a])
    colour = [0] * n
    rank = 0
    for i, a in enumerate(order):
        if i and sig[a] != sig[order[i - 1]]:
            rank += 1
        colour[a] = rank
    while True:
        ext = [
            (
                colour[a],
                tuple(sorted(colour[b] for b in upper[a])),
                tuple(sorted(colour[b] for b in lower[a])),
            )
            for a in range(n)
        ]
        order = sorted(range(n), key=lambda a: ext[a])
        new_colour = [0] * n
        rank = 0
        for i, a in enumerate(order):
            if i and ext[a] != ext[order[i - 1]]:
                rank += 1
            new_colour[a] = rank
        if new_colour == colour:
            break
        colour = new_colour
    classes = {}
    for a in range(n):
        classes.setdefault(colour[a], []).append(a)
    return [classes[c] for c in sorted(classes)]


def canonical_form(L: FiniteLattice) -> bytes:
    """Canonical byte string: equal strings iff lattices are isomorphic.

    Elements are bucketed by refined structural invariants; the order matrix
    is then minimised over all colour-respecting permutations with
    lexicographic prefix pruning.  Two further prunings skip only branches
    that cannot give a new least matrix, so the first least labelling found
    is the same: after a new best is found below a prefix, that prefix is
    the best's, and later siblings are compared with it; and a leaf that
    ties the best gives an automorphism (the best's element in each slot to
    this leaf's), and a sibling that an automorphism fixing the prefix maps
    from a tried sibling is skipped, since its subtree is that sibling's
    image.  The form, its permutation and those automorphisms, which
    generate Aut(L), are kept in ``L``'s cache as the entries ``canon``,
    ``canon_perm`` and ``canon_gens``, not through :func:`cached`: the
    enumeration seeds all three for each lattice it builds, reads the
    generators of each parent, and :func:`isomorphism` reads the
    permutation.
    """
    if "canon" not in L._cache:
        upper = [L.upper_covers(a) for a in range(L.n)]
        lower = [L.lower_covers(a) for a in range(L.n)]
        sig = _seed_signature(L.heights(), L.depths(), map(len, upper), map(len, lower))
        gens = []
        perm = _canonical_search(L.up, _refined_classes(sig, upper, lower), gens)
        L._cache.update(canon=matrix_bytes(L.up, perm), canon_perm=perm,
                        canon_gens=tuple(map(tuple, gens)))
    return L._cache["canon"]


def _orbit(mask, gens):
    """The union of the orbits, under the group that ``gens`` generate, of
    the elements of ``mask``."""
    todo = mask
    while todo:
        x = (todo & -todo).bit_length() - 1
        todo &= todo - 1
        for g in gens:
            if not mask >> g[x] & 1:
                mask |= 1 << g[x]
                todo |= 1 << g[x]
    return mask


def _canonical_search(up, classes, autos=None) -> tuple:
    """The search behind :func:`canonical_form`: the labelling, respecting
    the refined ``classes``, whose order matrix on ``up`` is least.

    Each leaf that ties the best appends its automorphism to ``autos``
    when a list is given, and those automorphisms generate the whole group.
    At each prefix of the best leaf's path, every sibling of the best's next
    element in its orbit under the prefix's stabiliser is either searched,
    and its subtree gives a tying leaf whose automorphism maps the one to
    the other, or skipped as the image of a tried sibling under
    automorphisms already found.  So the automorphisms found that fix the
    prefix are transitive on that orbit, and by induction up the path, as
    in Schreier-Sims, they generate each stabiliser, the last being the
    whole group.
    """
    n = len(up)
    # slot i must be filled from slot_class[i]
    slot_class = []
    for cls in classes:
        slot_class.extend([cls] * len(cls))

    best_steps = None
    best_perm = None
    if autos is None:
        autos = []
    perm = []
    used = set()
    steps = []

    def extension(v):
        # bits of the new column then the new row against placed elements
        k = len(perm)
        col = 0
        row = 0
        upv = up[v]
        for i, w in enumerate(perm):
            col |= (up[w] >> v & 1) << i
            row |= (upv >> w & 1) << i
        return (col << k) | row

    def rec(k, tight):
        # tight means steps so far equal best_steps[:k]; only then may we
        # prune against best_steps[k].  True iff a new best was found below.
        nonlocal best_steps, best_perm
        if k == n:
            if best_steps is None or steps < best_steps:
                best_steps = list(steps)
                best_perm = list(perm)
                return True
            if steps == best_steps:
                gamma = [0] * n
                for b, p in zip(best_perm, perm):
                    gamma[b] = p
                autos.append(gamma)
            return False
        cands = sorted(
            (extension(v), v) for v in slot_class[k] if v not in used
        )
        improved = False
        tried = 0  # the tried siblings' orbit under ``gens``
        gens, known = [], 0
        for e, v in cands:
            t = tight
            if best_steps is not None and t:
                if e > best_steps[k]:
                    break
                t = e == best_steps[k]
            if tried and len(autos) > known:
                # an automorphism fixing the prefix maps a tried sibling's
                # subtree onto the subtree of each sibling in its orbit
                gens += [g for g in autos[known:] if all(g[w] == w for w in perm)]
                known = len(autos)
                tried = _orbit(tried, gens)
            if tried >> v & 1:
                continue
            perm.append(v)
            used.add(v)
            steps.append(e)
            if rec(k + 1, t):
                # the prefix is now the best's, so prune later siblings
                improved = tight = True
            steps.pop()
            used.remove(v)
            perm.pop()
            tried = _orbit(tried | 1 << v, gens)
        return improved

    rec(0, True)
    return tuple(best_perm)


def matrix_bytes(up, perm=None) -> bytes:
    """The size, then the row-major bits of the order matrix of ``up`` under
    ``perm`` (identity by default).  A size n below 255 is one byte, and
    from 255 on the three bytes 255, n >> 8, n & 255, so forms still sort
    by size first."""
    n = len(up)
    order = list(perm) if perm is not None else list(range(n))
    packed = bytearray([n] if n < 255 else [255, n >> 8, n & 255])
    acc = 0
    count = 0
    for a in order:
        upa = up[a]
        for b in order:
            acc = (acc << 1) | (upa >> b & 1)
            count += 1
            if count == 8:
                packed.append(acc)
                acc = count = 0
    if count:
        packed.append(acc << (8 - count))
    return bytes(packed)


def are_isomorphic(A: FiniteLattice, B: FiniteLattice) -> bool:
    return A.n == B.n and canonical_form(A) == canonical_form(B)


def isomorphism(A: FiniteLattice, B: FiniteLattice):
    """An explicit isomorphism A -> B as an index tuple, or None."""
    if A.n != B.n or canonical_form(A) != canonical_form(B):
        return None
    pa = A._cache["canon_perm"]
    pb = B._cache["canon_perm"]
    mapping = [0] * A.n
    for slot in range(A.n):
        mapping[pa[slot]] = pb[slot]
    return tuple(mapping)


class EmbeddingWitness(namedtuple("EmbeddingWitness", "source target map")):
    """An injective map whose image is a sublattice isomorphic to the source."""

    __slots__ = ()

    def is_valid(self) -> bool:
        S, T, f = self.source, self.target, self.map
        if len(f) != S.n or len(set(f)) != S.n:
            return False
        for a in range(S.n):
            for b in range(S.n):
                if f[S.meet[a][b]] != T.meet[f[a]][f[b]]:
                    return False
                if f[S.join[a][b]] != T.join[f[a]][f[b]]:
                    return False
        return True

    def compose(self, other: "EmbeddingWitness") -> "EmbeddingWitness":
        """Witness for source -> other.target, given other.source == target."""
        return EmbeddingWitness(self.source, other.target,
                                tuple(other.map[t] for t in self.map))
