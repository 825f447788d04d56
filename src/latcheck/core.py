"""Finite lattices as dense order and meet/join tables, plus the structural
primitives everything else is built on: construction from cover data, duals,
direct products, sublattice closure and enumeration, intervals, canonical
forms, cover queries and the node budget every search spends.

Order relations are stored as per-element bitmasks (``up[a]`` has bit ``b``
set iff ``a <= b``), which keeps every downstream predicate a matter of
integer arithmetic.  Lattices are immutable after construction.
:func:`sublattices` finds the sublattices inside a mask by closure, never by
a scan of all 2^n subsets.  A convex sublattice of a finite lattice is an
interval, so :func:`intervals` lists those directly, at most n(n+1)/2.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import (
    CyclicCovers,
    DuplicateLabel,
    EmptySeeds,
    InvalidDiagram,
    NotALattice,
    SearchBudgetExceeded,
    SizeLimit,
)

PRODUCT_SIZE_CAP = 400
DEFAULT_BUDGET = 20_000_000


def default_budget():
    """``LATCHECK_BUDGET`` when it is an integer, else DEFAULT_BUDGET."""
    env = os.environ.get("LATCHECK_BUDGET")
    if env:
        try:
            return int(env)
        except ValueError:
            pass
    return DEFAULT_BUDGET


class _Budget:
    """Nodes left for one search (``default_budget()`` unless given);
    spending past zero raises SearchBudgetExceeded."""

    __slots__ = ("left", "total")

    def __init__(self, nodes=None):
        self.left = self.total = default_budget() if nodes is None else nodes

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


class _UnionFind:
    """Disjoint sets on 0..n-1 with path halving; a union keeps the smaller
    root, so every root is the least member of its set."""

    __slots__ = ("parent",)

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if ry < rx:
            rx, ry = ry, rx
        self.parent[ry] = rx
        return True


@dataclass(frozen=True)
class CoverDiagram:
    """Hasse-diagram input data: ``covers`` holds pairs ``(a, b)`` meaning
    ``b`` covers ``a``."""

    elements: tuple
    covers: tuple
    name: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "covers", tuple((a, b) for a, b in self.covers))

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


class FiniteOrder:
    """A finite partial order on ``0..n-1`` held as reflexive ``up`` and
    ``down`` bitmasks, with the cover, height and depth queries that
    canonical forms need.  It derives no meet or join table, so it is the
    cheap view on which candidate orders are tested before a
    :class:`FiniteLattice` is built."""

    __slots__ = ("n", "up", "down", "_cache")

    def __init__(self, up, down):
        self.n = len(up)
        self.up = tuple(up)
        self.down = tuple(down)
        self._cache = {}

    def leq(self, a, b):
        return bool((self.up[a] >> b) & 1)

    def lt(self, a, b):
        return a != b and self.leq(a, b)

    def incomparable(self, a, b):
        return not (self.leq(a, b) or self.leq(b, a))

    def elements(self):
        return range(self.n)

    def __len__(self):
        return self.n

    # -- covers and chains ----------------------------------------------

    def upper_covers(self, a):
        key = ("ucov", a)
        if key not in self._cache:
            strict = self.up[a] & ~(1 << a)
            covs = [b for b in iter_bits(strict)
                    if self.up[a] & self.down[b] == (1 << a) | (1 << b)]
            self._cache[key] = tuple(covs)
        return self._cache[key]

    def lower_covers(self, a):
        key = ("lcov", a)
        if key not in self._cache:
            strict = self.down[a] & ~(1 << a)
            covs = [b for b in iter_bits(strict)
                    if self.down[a] & self.up[b] == (1 << a) | (1 << b)]
            self._cache[key] = tuple(covs)
        return self._cache[key]

    def covers(self, a, b):
        """True iff b covers a."""
        return self.lt(a, b) and self.up[a] & self.down[b] == (1 << a) | (1 << b)

    def cover_pairs(self):
        return [(a, b) for a in range(self.n) for b in self.upper_covers(a)]

    def heights(self):
        """Longest-chain edge counts from the bottom, per element."""
        if "heights" not in self._cache:
            h = [0] * self.n
            for a in sorted(range(self.n), key=lambda x: self.down[x].bit_count()):
                lows = self.lower_covers(a)
                h[a] = 1 + max((h[b] for b in lows), default=-1)
            self._cache["heights"] = tuple(h)
        return self._cache["heights"]

    def depths(self):
        """Longest-chain edge counts up to the top, per element."""
        if "depths" not in self._cache:
            d = [0] * self.n
            for a in sorted(range(self.n), key=lambda x: self.up[x].bit_count()):
                ups = self.upper_covers(a)
                d[a] = 1 + max((d[b] for b in ups), default=-1)
            self._cache["depths"] = tuple(d)
        return self._cache["depths"]


class FiniteLattice(FiniteOrder):
    """A finite lattice on elements ``0..n-1`` with precomputed tables.

    Do not call the constructor directly; use :func:`build_lattice`,
    :func:`dual`, :func:`direct_product` or the catalog.
    """

    __slots__ = ("labels", "meet", "join", "bottom", "top", "full_mask")

    def __init__(self, labels, up, meet=None, join=None):
        n = len(labels)
        down = [0] * n
        for a in range(n):
            for b in iter_bits(up[a]):
                down[b] |= 1 << a
        super().__init__(up, down)
        self.labels = tuple(labels)
        self.full_mask = (1 << n) - 1
        if meet is None or join is None:
            meet, join = self._derive_tables()
        self.meet = meet
        self.join = join
        self.bottom = next(a for a in range(n) if self.up[a] == self.full_mask)
        self.top = next(a for a in range(n) if self.down[a] == self.full_mask)

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
    if n > PRODUCT_SIZE_CAP:
        raise SizeLimit(n, PRODUCT_SIZE_CAP, "direct product")
    labels = tuple(f"{A.labels[i]}.{B.labels[j]}" for i in range(A.n) for j in range(B.n))

    def idx(i, j):
        return i * B.n + j

    up = [0] * n
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for i in range(A.n):
        for j in range(B.n):
            a = idx(i, j)
            mask = 0
            for k in iter_bits(A.up[i]):
                for l in iter_bits(B.up[j]):
                    mask |= 1 << idx(k, l)
            up[a] = mask
            for k in range(A.n):
                for l in range(B.n):
                    b = idx(k, l)
                    meet[a][b] = idx(A.meet[i][k], B.meet[j][l])
                    join[a][b] = idx(A.join[i][k], B.join[j][l])
    return FiniteLattice(labels, up, tuple(map(tuple, meet)), tuple(map(tuple, join)))


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


def sublattices(L: FiniteLattice, allowed=None, budget=None):
    """Yield once each, in no fixed order, the nonempty sublattices inside
    ``allowed`` as bitmasks.  Depth-first search adding one element at a
    time by :func:`closure`; each closure spends a node of ``budget`` (a
    :class:`_Budget`) if one is given."""
    allowed = L.full_mask if allowed is None else allowed
    seen, stack = {0}, [0]
    while stack:
        mask = stack.pop()
        if mask:
            yield mask
        for x in iter_bits(allowed & ~mask):
            if budget is not None:
                budget.spend("sublattice enumeration")
            bigger = closure(L, mask, 1 << x, allowed)
            if bigger is not None and bigger not in seen:
                seen.add(bigger)
                stack.append(bigger)


def intervals(L: FiniteLattice, allowed=None):
    """Yield once each the intervals [a, b] = up[a] & down[b] inside
    ``allowed`` (every element by default): the convex sublattices, since
    one holds the meet and join of its members and all between them."""
    allowed = L.full_mask if allowed is None else allowed
    for a in iter_bits(allowed):
        for b in iter_bits(L.up[a] & allowed):
            mask = L.up[a] & L.down[b]
            if not mask & ~allowed:
                yield mask


def is_interval(L: FiniteLattice, mask) -> bool:
    """True iff the nonempty ``mask`` is an interval (a convex sublattice):
    all of [meet of mask, join of mask]."""
    lo = hi = (mask & -mask).bit_length() - 1
    for a in iter_bits(mask):
        lo, hi = L.meet[lo][a], L.join[hi][a]
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


def _seed_signature(L: FiniteOrder):
    """Per element (height, depth, up-degree, down-degree): the colours that
    refinement starts from."""
    h, d = L.heights(), L.depths()
    return [(h[a], d[a], len(L.upper_covers(a)), len(L.lower_covers(a))) for a in range(L.n)]


def _refined_classes(L: FiniteOrder):
    """Partition elements into colour classes via iterated cover-multiset
    refinement seeded with :func:`_seed_signature`.

    Refinement only splits classes, so colour order extends signature
    order; the seed makes it respect height, so the canonical labelling is
    always a linear extension.
    """
    n = L.n
    sig = _seed_signature(L)
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
                tuple(sorted(colour[b] for b in L.upper_covers(a))),
                tuple(sorted(colour[b] for b in L.lower_covers(a))),
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


def canonical_form(L: FiniteOrder) -> bytes:
    """Canonical byte string: equal strings iff lattices are isomorphic.

    Elements are bucketed by refined structural invariants; the order matrix
    is then minimised over all colour-respecting permutations with
    lexicographic prefix pruning.
    """
    if "canon" in L._cache:
        return L._cache["canon"]
    n = L.n
    classes = _refined_classes(L)
    # slot i must be filled from class_of_slot[i]
    slot_class = []
    for cls in classes:
        slot_class.extend([cls] * len(cls))

    best_steps = None
    best_perm = None
    perm = []
    used = set()
    steps = []

    def extension(v):
        # bits of the new column then the new row against placed elements
        k = len(perm)
        col = 0
        row = 0
        for i, w in enumerate(perm):
            col |= L.leq(w, v) << i
            row |= L.leq(v, w) << i
        return (col << k) | row

    def rec(k, tight):
        # tight means steps so far equal best_steps[:k]; only then may we
        # prune against best_steps[k]
        nonlocal best_steps, best_perm
        if k == n:
            if best_steps is None or steps < best_steps:
                best_steps = list(steps)
                best_perm = list(perm)
            return
        cands = sorted(
            (extension(v), v) for v in slot_class[k] if v not in used
        )
        for e, v in cands:
            t = tight
            if best_steps is not None and t:
                if e > best_steps[k]:
                    break
                t = e == best_steps[k]
            perm.append(v)
            used.add(v)
            steps.append(e)
            rec(k + 1, t)
            steps.pop()
            used.remove(v)
            perm.pop()

    rec(0, True)

    result = matrix_bytes(L, best_perm)
    L._cache["canon"] = result
    L._cache["canon_perm"] = tuple(best_perm)
    return result


def matrix_bytes(L: FiniteOrder, perm=None) -> bytes:
    """Size byte plus the row-major order matrix bits under ``perm``
    (identity by default)."""
    order = list(perm) if perm is not None else list(range(L.n))
    packed = bytearray([L.n])
    acc = 0
    count = 0
    for a in order:
        for b in order:
            acc = (acc << 1) | L.leq(a, b)
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


@dataclass(frozen=True)
class EmbeddingWitness:
    """An injective map whose image is a sublattice isomorphic to the source."""

    source: FiniteLattice
    target: FiniteLattice
    map: tuple

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
