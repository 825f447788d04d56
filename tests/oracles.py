"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately naive: permutation search for isomorphism
and automorphisms,
exhaustive relation matrices and labelled growth for enumeration, Bell-scan
partition filters for congruences and Dec, a 2^n subset scan for
sublattices, an any-member scan for the order of a quotient.  None of it
shares code paths with the algorithms under test beyond the meet/join tables
themselves, except: the congruence referee, the translate-and-merge
union-find closure that the dependency relation on J(L) replaced, which
closes every principal congruence under partition joins and reads
meet-irreducibility and the monolith off the whole of Con L by cover scans
(it shares only ``Congruence`` with the library; the Bell scan checks the
library's ``all_congruences`` directly); the
V(N5) referee, which quotients by each of those meet-irreducibles with the
library's ``quotient`` and dedupes them by its ``canonical_form``;
and the canonical-term referee, which states Freese-Jezek-Nation's
conditions directly but decides each inequality with the library's ``leq``
(Whitman's procedure, checked on its own by the word-problem tests); and
the self-canonicity referee, which runs the library's signature,
refinement and canonical form on a fresh view, so that it checks what the
enumeration derives from a parent's arrays against what the view derives
alone; and the canonical-form search as it stood before it pruned by
found automorphisms and re-tightened after an improvement;
and the Galvin-Jonsson referee, the range search the classifier replaced,
which tags its ranges with the library's ``induced`` and ``canonical_form``;
the union-find (:class:`_UnionFind`), which the library no longer uses, is
these two referees' own;
and the hand-written hypothesis scans that the L15, twelve-element,
staircase and cube checks replaced with configurations, which decide the
L15 lemma's conclusion with the library's ``find_embedding``, find the
twelve-element grid with its ``iter_embeddings`` and read the cube's join
form off the library's ``dual``; and the forbidden-pattern loop that the
law-pruned search replaced, which searches every pattern of a profile with
the library's ``find_embedding``; and the word problem's plain Whitman
recursion, the cover, height and depth referee, which reads only the order
relation, and the character-at-a-time term parser that the one-pass
tokeniser replaced, which interns through the library's ``gen``, ``meet``
and ``join``; and the canonical term pool that the free-lattice witness
construction replaced, the closure of the generators under the library's
``canonicalize`` of binary meets and joins, kept as a source of canonical
terms for the canonical-form tests, with the term size and depth that
terms no longer carry; and the quadruple scan for Whitman's
witness that reading it off the verdict's marks replaced.
"""

from __future__ import annotations

import itertools

from latcheck import catalog, embed, laws
from latcheck.core import (FiniteLattice, canonical_form, dual, induced, matrix_bytes,
                           _refined_classes, _seed_signature)
from latcheck.decomp import GJDecomposition
from latcheck.errors import NotALattice, NotDistributive, ParseError
from latcheck.freeterm import canonicalize, gen, join, leq, meet, term_key
from latcheck.variety import Congruence, identity_congruence, quotient


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


def brute_isomorphic(A: FiniteLattice, B: FiniteLattice) -> bool:
    """Permutation search for an order isomorphism."""
    if A.n != B.n:
        return False
    n = A.n
    degs_a = sorted((A.up[x].bit_count(), A.down[x].bit_count()) for x in range(n))
    degs_b = sorted((B.up[x].bit_count(), B.down[x].bit_count()) for x in range(n))
    if degs_a != degs_b:
        return False
    for perm in itertools.permutations(range(n)):
        if all(
            A.leq(a, b) == B.leq(perm[a], perm[b])
            for a in range(n)
            for b in range(n)
        ):
            return True
    return False


def automorphisms_oracle(L: FiniteLattice) -> set:
    """Every automorphism of ``L`` as an index tuple, by backtracking over
    the images of 0..n-1: an element may go only to one with as many
    elements above and below it, not yet used, and comparable both ways
    exactly as it is to each element placed before it."""
    n = L.n
    sizes = [(L.up[a].bit_count(), L.down[a].bit_count()) for a in range(n)]
    found = set()
    image = []

    def rec(a):
        if a == n:
            found.add(tuple(image))
            return
        for b in range(n):
            if sizes[b] != sizes[a] or b in image:
                continue
            if all(L.leq(a, x) == L.leq(b, y) and L.leq(x, a) == L.leq(y, b)
                   for x, y in enumerate(image)):
                image.append(b)
                rec(a + 1)
                image.pop()

    rec(0)
    return found


def matrix_lattices(n):
    """Every lattice on n labelled points via direct enumeration of all order
    relations (each unordered pair is <, >, or incomparable), filtered by
    transitivity and the lattice axioms.  Practical for n <= 5."""
    pairs = list(itertools.combinations(range(n), 2))
    results = []
    for states in itertools.product((0, 1, 2), repeat=len(pairs)):
        lt = [[False] * n for _ in range(n)]
        for (a, b), s in zip(pairs, states):
            if s == 1:
                lt[a][b] = True
            elif s == 2:
                lt[b][a] = True
        ok = True
        for a in range(n):
            for b in range(n):
                if not lt[a][b]:
                    continue
                for c in range(n):
                    if lt[b][c] and not lt[a][c]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            continue
        leq = [[a == b or lt[a][b] for b in range(n)] for a in range(n)]
        if _is_lattice_matrix(leq, n):
            up = [sum(1 << b for b in range(n) if leq[a][b]) for a in range(n)]
            results.append(FiniteLattice(tuple(f"m{i}" for i in range(n)), tuple(up)))
    return results


def _is_lattice_matrix(leq, n):
    for a in range(n):
        for b in range(n):
            lowers = [c for c in range(n) if leq[c][a] and leq[c][b]]
            if not _has_unique_extreme(lowers, leq, greatest=True):
                return False
            uppers = [c for c in range(n) if leq[a][c] and leq[b][c]]
            if not _has_unique_extreme(uppers, leq, greatest=False):
                return False
    return True


def _has_unique_extreme(cands, leq, greatest):
    for c in cands:
        if greatest and all(leq[d][c] for d in cands):
            return True
        if not greatest and all(leq[c][d] for d in cands):
            return True
    return False


def grown_lattices(n):
    """One representative per isomorphism class of lattices on n points:
    :func:`grown_labelled` deduplicated by the permutation oracle.
    Practical for n <= 7."""
    reps = []
    for L in grown_labelled(n):
        if not any(brute_isomorphic(L, R) for R in reps):
            reps.append(L)
    return reps


def grown_labelled(n):
    """Every lattice on n labelled points whose labelling is a linear
    extension with bottom 0, via ideal-by-ideal growth."""
    if n == 1:
        return [FiniteLattice(("g0",), (1,))]
    collected = []
    up = [1] + [0] * (n - 1)
    down = [1] + [0] * (n - 1)

    def glb_ok(a, D):
        commons = down[a] & D
        m = commons
        while m:
            c = (m & -m).bit_length() - 1
            if commons & ~down[c] == 0:
                return True
            m &= m - 1
        return False

    def rec(i):
        if i == n:
            if sum(1 for a in range(n) if up[a] == 1 << a) == 1:
                collected.append(FiniteLattice(
                    tuple(f"g{k}" for k in range(n)), tuple(up)))
            return
        for D in range(1, 1 << i, 2):
            good = True
            m = D
            while m:
                x = (m & -m).bit_length() - 1
                if down[x] & ~D:
                    good = False
                    break
                m &= m - 1
            if not good:
                continue
            for a in range(i):
                if not (D >> a) & 1 and not glb_ok(a, D):
                    good = False
                    break
            if not good:
                continue
            down[i] = D | (1 << i)
            up[i] = 1 << i
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
            down[i] = up[i] = 0

    rec(1)
    return collected


def self_canonical_oracle(L: FiniteLattice) -> bool:
    """The enumeration's leaf test as it stood before the walk tracked the
    seed signature, on a fresh :class:`FiniteLattice` with ``L``'s order:
    the signature from its own heights, depths and covers is non-decreasing
    along 0..n-1, refinement lists 0..n-1 in order, and the identity order
    matrix is the canonical form."""
    fresh = FiniteLattice(L.labels, L.up)
    n = fresh.n
    upper = [fresh.upper_covers(a) for a in range(n)]
    lower = [fresh.lower_covers(a) for a in range(n)]
    sig = _seed_signature(fresh.heights(), fresh.depths(), map(len, upper), map(len, lower))
    if any(sig[a] > sig[a + 1] for a in range(n - 1)):
        return False
    flat = [e for cls in _refined_classes(sig, upper, lower) for e in cls]
    return flat == list(range(n)) and matrix_bytes(fresh.up) == canonical_form(fresh)


def unpruned_canonical_search(up, classes) -> tuple:
    """The canonical-form search as it stood before it pruned by
    automorphisms and re-tightened after an improvement: the labelling,
    respecting the refined ``classes``, whose order matrix on ``up`` is
    least, first found in (extension, element) order."""
    n = len(up)
    # slot i must be filled from slot_class[i]
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
        upv = up[v]
        for i, w in enumerate(perm):
            col |= (up[w] >> v & 1) << i
            row |= (upv >> w & 1) << i
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
    return tuple(best_perm)


def set_partitions(elems):
    elems = list(elems)
    if not elems:
        yield []
        return
    first, rest = elems[0], elems[1:]
    for sub in set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1:]
        yield [[first]] + sub


def compatible_partitions(L: FiniteLattice):
    """All congruences by filtering every set partition for meet/join
    compatibility."""
    out = []
    for part in set_partitions(range(L.n)):
        block_of = {}
        for bi, block in enumerate(part):
            for e in block:
                block_of[e] = bi
        ok = True
        for a in range(L.n):
            for b in range(L.n):
                if block_of[a] != block_of[b]:
                    continue
                for c in range(L.n):
                    if block_of[L.join[a][c]] != block_of[L.join[b][c]]:
                        ok = False
                        break
                    if block_of[L.meet[a][c]] != block_of[L.meet[b][c]]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            out.append(frozenset(frozenset(b) for b in part))
    return out


def _canonical_blocks(parent_find, n):
    index = {}
    out = []
    for e in range(n):
        root = parent_find(e)
        if root not in index:
            index[root] = len(index)
        out.append(index[root])
    return Congruence(tuple(out))


def principal_congruence_oracle(L: FiniteLattice, a, b):
    """Smallest congruence identifying a and b: merge, then keep merging
    translated pairs (x v c, y v c) and (x ^ c, y ^ c) until stable."""
    uf = _UnionFind(L.n)
    work = []
    if uf.union(a, b):
        work.append((a, b))
    while work:
        x, y = work.pop()
        for c in range(L.n):
            for u, v in ((L.join[x][c], L.join[y][c]), (L.meet[x][c], L.meet[y][c])):
                if uf.union(u, v):
                    work.append((u, v))
    return _canonical_blocks(uf.find, L.n)


def join_congruences_oracle(c1, c2):
    """Partition join; for congruences of a common lattice the result is
    again a congruence."""
    n = c1.n
    uf = _UnionFind(n)
    for c in (c1, c2):
        first_of_block = {}
        for e, b in enumerate(c.block_index):
            if b in first_of_block:
                uf.union(first_of_block[b], e)
            else:
                first_of_block[b] = e
    return _canonical_blocks(uf.find, n)


def congruence_closure_oracle(L: FiniteLattice):
    """Con L as the identity plus the join-closure of every principal
    congruence, sorted smallest first as ``all_congruences`` sorts it."""
    found = {identity_congruence(L.n)}
    frontier = []
    for a in range(L.n):
        for b in range(a + 1, L.n):
            c = principal_congruence_oracle(L, a, b)
            if c not in found:
                found.add(c)
                frontier.append(c)
    while frontier:
        c = frontier.pop()
        for d in list(found):
            j = join_congruences_oracle(c, d)
            if j not in found:
                found.add(j)
                frontier.append(j)
    return sorted(found, key=lambda c: (c.n - c.block_count, c.block_index))


def _upper_covers_in(cons, c):
    above = [d for d in cons if d != c and c.refines(d)]
    return [d for d in above if not any(e != d and e.refines(d) for e in above)]


def meet_irreducible_congruences_oracle(L: FiniteLattice):
    """Congruences with exactly one upper cover, by scanning all of Con L."""
    cons = congruence_closure_oracle(L)
    return [c for c in cons if not c.is_all() and len(_upper_covers_in(cons, c)) == 1]


def is_subdirectly_irreducible_oracle(L: FiniteLattice) -> bool:
    """A unique atom in Con L, by scanning all of Con L."""
    cons = congruence_closure_oracle(L)
    return len(_upper_covers_in(cons, cons[0])) == 1


def n5_variety_oracle(L: FiniteLattice):
    """``(member, factor labels, offending labels or None)`` for V(N5): the
    quotients by every meet-irreducible congruence of the whole of Con L,
    one per canonical form in form order, each checked against 1, 2 and
    N5."""
    allowed = {canonical_form(K) for K in (catalog.chain(1), catalog.chain(2), catalog.get("N5"))}
    seen = {}
    for c in meet_irreducible_congruences_oracle(L):
        q = quotient(L, c)
        seen.setdefault(canonical_form(q), q)
    factors = [seen[k] for k in sorted(seen)]
    offending = next((q.labels for q in factors if canonical_form(q) not in allowed), None)
    return offending is None, [q.labels for q in factors], offending


def _subset_is_sublattice(L, s):
    return all(L.meet[a][b] in s and L.join[a][b] in s for a in s for b in s)


def _subset_is_convex(L, s):
    for a in s:
        for b in s:
            if L.leq(a, b):
                for c in range(L.n):
                    if L.leq(a, c) and L.leq(c, b) and c not in s:
                        return False
    return True


def _subset_is_distributive(L, s):
    elems = sorted(s)
    for a in elems:
        for b in elems:
            for c in elems:
                if L.join[a][L.meet[b][c]] != L.meet[L.join[a][b]][L.join[a][c]]:
                    return False
    return True


def whitman_scan_oracle(L: FiniteLattice) -> laws.Check:
    """Whitman's condition by the quadruple scan the mark-reading witness
    replaced: the first (a, b, c, d) over four nested loops in index order
    with a ^ b <= c v d, a and b not below c v d, and c and d not above
    a ^ b."""
    n, meet, join, leq = L.n, L.meet, L.join, L.leq
    for a in range(n):
        for b in range(n):
            m = meet[a][b]
            for c in range(n):
                if leq(m, c):
                    continue
                for d in range(n):
                    if leq(m, d):
                        continue
                    j = join[c][d]
                    if leq(m, j) and not leq(a, j) and not leq(b, j):
                        return laws.Check(False, (a, b, c, d))
    return laws.Check(True)


def distributive_oracle(L: FiniteLattice) -> bool:
    """Both distributive laws, a v (b ^ c) = (a v b) ^ (a v c) and its dual
    a ^ (b v c) = (a ^ b) v (a ^ c), over every triple."""
    n, meet, join = L.n, L.meet, L.join
    return all(join[a][meet[b][c]] == meet[join[a][b]][join[a][c]]
               and meet[a][join[b][c]] == join[meet[a][b]][meet[a][c]]
               for a in range(n) for b in range(n) for c in range(n))


def sublattice_masks_oracle(L: FiniteLattice, convex=False):
    """Bitmask of every nonempty (convex) sublattice, ascending, by scanning
    all 2^n subsets."""
    out = []
    for mask in range(1, 1 << L.n):
        s = {a for a in range(L.n) if (mask >> a) & 1}
        if _subset_is_sublattice(L, s) and not (convex and not _subset_is_convex(L, s)):
            out.append(mask)
    return out


def distributive_partition_oracle(L: FiniteLattice, blocks) -> bool:
    """The two defining conditions, written out directly."""
    blocks = [set(b) for b in blocks]
    for b in blocks:
        if not (_subset_is_sublattice(L, b) and _subset_is_convex(L, b)
                and _subset_is_distributive(L, b)):
            return False
    for b1, b2 in itertools.combinations(blocks, 2):
        u = b1 | b2
        if _subset_is_sublattice(L, u) and _subset_is_convex(L, u):
            if not _subset_is_distributive(L, u):
                return False
    return True


def minimum_distributive_partitions_oracle(L: FiniteLattice):
    """Every minimum-size distributive partition, as a set of frozensets of
    element indices, by scanning every set partition."""
    valid = [frozenset(frozenset(b) for b in part)
             for part in set_partitions(range(L.n))
             if distributive_partition_oracle(L, part)]
    k = min(len(p) for p in valid)
    return {p for p in valid if len(p) == k}


# The minimum distributive partitions of the catalog pentagon "N5" (x1 top,
# x5 bottom, x2 the long side, x4 < x3 the short side), by label.  The first
# six, the list usually quoted, form three dual pairs under x1<->x5,
# x3<->x4; the seventh is self-dual (acceptance criterion 1 says why it
# qualifies).
N5_MINIMUM_PARTITIONS = [
    [{"x1", "x2"}, {"x3"}, {"x4", "x5"}],
    [{"x1", "x3"}, {"x4"}, {"x2", "x5"}],
    [{"x1", "x2"}, {"x3", "x4"}, {"x5"}],
    [{"x1"}, {"x2", "x5"}, {"x3", "x4"}],
    [{"x1", "x3", "x4"}, {"x2"}, {"x5"}],
    [{"x1"}, {"x2"}, {"x3", "x4", "x5"}],
    [{"x1", "x3"}, {"x2"}, {"x4", "x5"}],
]


def dec_oracle(L: FiniteLattice) -> int:
    """Minimum block count by scanning every set partition."""
    best = L.n
    for part in set_partitions(range(L.n)):
        if len(part) < best and distributive_partition_oracle(L, part):
            best = len(part)
    return best


def cover_queries_oracle(L: FiniteLattice):
    """(upper covers, lower covers, heights, depths) per element, from the
    order relation alone: b covers a when a < b with nothing strictly
    between, and a height (depth) is the length of the longest chain of
    strict relations below (above) the element, found by relaxing every
    pair until nothing changes."""
    n, lt = L.n, L.lt
    upper = [tuple(b for b in range(n)
                   if lt(a, b) and not any(lt(a, x) and lt(x, b) for x in range(n)))
             for a in range(n)]
    lower = [tuple(b for b in range(n) if a in upper[b]) for a in range(n)]

    def longest(before):
        length = [0] * n
        changed = True
        while changed:
            changed = False
            for a, x in itertools.product(range(n), repeat=2):
                if before(x, a) and length[x] + 1 > length[a]:
                    length[a] = length[x] + 1
                    changed = True
        return tuple(length)

    return upper, lower, longest(lt), longest(lambda x, a: lt(a, x))


def doubly_reducible_oracle(L: FiniteLattice) -> tuple:
    """Elements that are the join of some incomparable pair and the meet of
    some incomparable pair, by scanning every pair."""
    join_red = [False] * L.n
    meet_red = [False] * L.n
    for a, b in itertools.combinations(range(L.n), 2):
        if L.incomparable(a, b):
            join_red[L.join[a][b]] = True
            meet_red[L.meet[a][b]] = True
    return tuple(x for x in range(L.n) if join_red[x] and meet_red[x])


def sublattice_embeddings_oracle(pattern: FiniteLattice, host: FiniteLattice):
    """Every sublattice embedding of the pattern, as maps (pattern element
    -> host element), by subset enumeration: each meet/join-closed subset of
    the pattern's size, and each bijection onto it that preserves and
    reflects the order."""
    for sub in itertools.combinations(range(host.n), pattern.n):
        if not _subset_is_sublattice(host, set(sub)):
            continue
        for perm in itertools.permutations(sub):
            if all(pattern.leq(a, b) == host.leq(perm[a], perm[b])
                   for a in range(pattern.n) for b in range(pattern.n)):
                yield perm


def sublattice_embeds_oracle(pattern: FiniteLattice, host: FiniteLattice) -> bool:
    """A meet/join-closed subset isomorphic to the pattern."""
    return next(sublattice_embeddings_oracle(pattern, host), None) is not None


def contains_forbidden_oracle(host: FiniteLattice, prof, budget=None):
    """Every profile pattern that embeds into the host, each with one
    witness, searching every pattern whatever laws the host satisfies."""
    hits = []
    for name, pat in prof.lattices():
        w = embed.find_embedding(pat, host, budget)
        if w is not None:
            hits.append((name, w))
    return hits


def quotient_order_oracle(L: FiniteLattice, c) -> tuple:
    """Up-sets of the quotient L/c, blocks in order of their least index:
    block i lies below block j iff some member of i lies below some member
    of j."""
    blocks = sorted((sorted(b) for b in c.blocks()), key=min)
    return tuple(
        sum(1 << j for j, bj in enumerate(blocks)
            if any(L.leq(a, b) for a in bi for b in bj))
        for bi in blocks
    )


def is_canonical_oracle(t) -> bool:
    """Freese, Jezek & Nation, *Free Lattices*, Ch. I: a join t = t1 | ... | tk
    (k >= 2) is canonical iff every ti is canonical and not a join, the ti
    are pairwise incomparable, and no argument tij of a meet ti = tij & ...
    lies below t; dually for meets.  Argument order is not checked."""
    from latcheck.freeterm import leq

    if t.kind == "gen":
        return True
    if t.kind == "join":
        below, inner = leq, "meet"
    else:
        below, inner = (lambda a, b: leq(b, a)), "join"
    args = t.args
    return (
        len(args) >= 2
        and all(a.kind != t.kind and is_canonical_oracle(a) for a in args)
        and not any(below(a, b) for i, a in enumerate(args)
                    for j, b in enumerate(args) if i != j)
        and not any(below(s, t) for a in args if a.kind == inner for s in a.args)
    )


def whitman_leq_oracle(s, t) -> bool:
    """Whitman's decision of s <= t in the free lattice (Whitman, *Ann. of
    Math.* 42 (1941)) as plain recursion: no memo and no sketch."""
    if s.kind == "join":
        return all(whitman_leq_oracle(si, t) for si in s.args)
    if t.kind == "meet":
        return all(whitman_leq_oracle(s, tj) for tj in t.args)
    if s.kind == "gen" and t.kind == "gen":
        return s.name == t.name
    return (s.kind == "meet" and any(whitman_leq_oracle(si, t) for si in s.args)
            or t.kind == "join" and any(whitman_leq_oracle(s, tj) for tj in t.args))


def _fold_term(t, leaf, combine):
    """``leaf`` at each generator, ``combine`` of the arguments' values at
    each join and meet, in a loop, so depth is unbounded; a shared subterm
    is valued once."""
    values = {}
    stack = [t]
    while stack:
        u = stack[-1]
        if u in values:
            stack.pop()
        elif u.kind == "gen":
            values[u] = leaf
        else:
            pending = [a for a in u.args if a not in values]
            if pending:
                stack.extend(pending)
            else:
                values[u] = combine([values[a] for a in u.args])
    return values[t]


def term_size(t) -> int:
    """The number of generator occurrences in ``t``."""
    return _fold_term(t, 1, sum)


def term_depth(t) -> int:
    """The nesting depth of ``t``: 0 for a generator."""
    return _fold_term(t, 0, lambda depths: 1 + max(depths))


def canonical_terms(gen_names, max_size, max_depth, budget):
    """All canonical terms over the given generators with at most max_size
    generator occurrences and the given depth, sorted small-first: the
    closure of the generators under the canonical meet and join of two
    terms.  It misses none, as a canonical t1 | ... | tk is the canonical
    join of t1 and t2 | ... | tk, which is canonical, smaller and no deeper
    (dually for meets).  Only the pool's sizes and pairs within the size
    bound are visited, each pair spending a node of ``budget``."""
    pool = [gen(g) for g in gen_names]
    by_size = {1: list(range(len(pool)))}  # size -> pool indices, ascending
    seen = set(pool)
    for i, a in enumerate(pool):  # the pool grows as it is scanned
        # a size first reached while a is scanned holds only terms after a
        for size in sorted(s for s in by_size if s <= max_size - term_size(a)):
            for j in by_size[size]:
                if j > i:
                    break
                budget.spend("free embedding search")
                b = pool[j]
                # comparable terms meet and join to themselves
                if leq(a, b) or leq(b, a):
                    continue
                for op in (meet, join):
                    t = canonicalize(op(a, b))
                    size_t = term_size(t)
                    if size_t <= max_size and term_depth(t) <= max_depth and t not in seen:
                        seen.add(t)
                        by_size.setdefault(size_t, []).append(len(pool))
                        pool.append(t)
    pool.sort(key=lambda t: (term_size(t), term_key(t)))
    return pool


def parse_term_oracle(text: str):
    """The character-at-a-time parser that ``parse_term``'s one-pass
    tokeniser replaced, kept as it was: ``x & (y | z)`` style syntax, &
    binding tighter than |."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "&|()":
            tokens.append((ch, i))
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            tokens.append(("ident", i, text[i:j]))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", offset=i)
    # expr := meets ("|" meets)*, meets := factor ("&" factor)*,
    # factor := ident | "(" expr ")"; one frame per open parenthesis holds
    # [finished meets of its expr, factors of the current meets, "(" token]
    frames = [[[], [], None]]
    pos = 0
    while True:
        tok = tokens[pos] if pos < len(tokens) else None
        if tok is None:
            raise ParseError("unexpected end of term", offset=len(text))
        pos += 1
        if tok[0] == "(":
            frames.append([[], [], tok])
            continue
        if tok[0] != "ident":
            raise ParseError(f"unexpected token {tok[0]!r}", offset=tok[1])
        t = gen(tok[2])
        while True:  # t completes a factor; close what it completes
            frame = frames[-1]
            frame[1].append(t)
            tok = tokens[pos] if pos < len(tokens) else None
            if tok is not None and tok[0] == "&":
                break
            frame[0].append(meet(*frame[1]))
            frame[1] = []
            if tok is not None and tok[0] == "|":
                break
            t = join(*frame[0])
            opening = frame[2]
            if opening is None:
                if pos != len(tokens):
                    raise ParseError("trailing input", offset=tok[1])
                return t
            if tok is None or tok[0] != ")":
                raise ParseError("missing closing parenthesis", offset=opening[1])
            pos += 1
            frames.pop()
        pos += 1


def _gj_shape_tag(L, elems):
    elems = sorted(elems)
    if all(not L.incomparable(a, b) for i, a in enumerate(elems) for b in elems[i + 1:]):
        return "chain"
    try:
        block = induced(L, elems)
    except NotALattice:
        return None
    if len(elems) % 2 == 0:
        k = len(elems) // 2
        if canonical_form(block) == canonical_form(catalog.grid(k)):
            return "two_times_chain"
    if len(elems) == 8 and canonical_form(block) == canonical_form(catalog.get("B3")):
        return "boolean3"
    return None


def gj_classify_oracle(D: FiniteLattice):
    """The range search that ``decomp.gj_classify`` replaced: the fewest
    blocks by a shortest path over every range of incomparability
    components, each range tagged by building its induced lattice."""
    if not laws.distributive(D):
        raise NotDistributive("gj_classify expects a distributive lattice")
    n = D.n
    # components of the incomparability graph must be linearly ordered
    uf = _UnionFind(n)
    for a in range(n):
        for b in range(a + 1, n):
            if D.incomparable(a, b):
                uf.union(a, b)
    groups = {}
    for e in range(n):
        groups.setdefault(uf.find(e), []).append(e)
    comps = list(groups.values())
    for i, c1 in enumerate(comps):
        for c2 in comps[i + 1:]:
            below = sum(D.lt(a, b) for a in c1 for b in c2)
            above = sum(D.lt(b, a) for a in c1 for b in c2)
            want = len(c1) * len(c2)
            if below != want and above != want:
                return None
    comps.sort(key=lambda c: D.heights()[c[0]])

    m = len(comps)
    tag = {}

    def range_tag(i, j):
        if (i, j) not in tag:
            elems = [e for c in comps[i:j] for e in c]
            tag[(i, j)] = _gj_shape_tag(D, elems)
        return tag[(i, j)]

    # fewest blocks via shortest path over taggable component ranges
    INF = m + 1
    best = [INF] * (m + 1)
    prev = [None] * (m + 1)
    best[0] = 0
    for j in range(1, m + 1):
        for i in range(j):
            if best[i] + 1 < best[j] and range_tag(i, j) is not None:
                best[j] = best[i] + 1
                prev[j] = i
    if best[m] > m:
        return None
    cuts = []
    j = m
    while j > 0:
        i = prev[j]
        cuts.append((i, j))
        j = i
    cuts.reverse()
    blocks = []
    shapes = []
    for i, j in cuts:
        elems = tuple(sorted(e for c in comps[i:j] for e in c))
        blocks.append(elems)
        shapes.append(range_tag(i, j))
    return GJDecomposition(tuple(blocks), tuple(shapes))


# -- the hand-written hypothesis scans that the theorem checks' configurations
# replaced, each returning (hypothesis instances, conclusion violations) in
# the order the check reports them


def _labels(L, elems):
    return tuple(L.labels[e] for e in elems)


def l15_lemma_oracle(L: FiniteLattice):
    """The L15 lemma's nested loops over (a2, b2, a3, b3, a1, b1)."""
    from latcheck import embed

    n = L.n
    instances, violations = 0, []
    l15_present = None  # computed lazily, once
    for a2 in range(n):
        for b2 in range(n):
            if not L.incomparable(a2, b2):
                continue
            top, bot = L.join[a2][b2], L.meet[a2][b2]
            a3s = [x for x in range(n) if L.lt(a2, x) and L.incomparable(x, b2)]
            b3s = [y for y in range(n) if L.lt(b2, y) and L.incomparable(y, a2)]
            a1s = [x for x in range(n) if L.lt(x, a2) and L.incomparable(x, b2)]
            b1s = [y for y in range(n) if L.lt(y, b2) and L.incomparable(y, a2)]
            for a3 in a3s:
                for b3 in b3s:
                    if L.join[a3][b3] != top:
                        continue
                    for a1 in a1s:
                        if not L.lt(a1, b3):
                            continue
                        for b1 in b1s:
                            if not L.lt(b1, a3):
                                continue
                            if L.meet[a1][b1] != bot:
                                continue
                            instances += 1
                            if l15_present is None:
                                l15_present = embed.find_embedding(catalog.get("L15"), L) is not None
                            if not l15_present:
                                violations.append(_labels(L, (a1, a2, a3, b1, b2, b3)))
    return instances, violations


_GRID_POS = {
    "w'": "0.0", "w": "0.1", "a": "0.2", "y": "0.3", "y'": "0.4",
    "x'": "1.0", "x": "1.1", "b": "1.2", "z": "1.3", "z'": "1.4",
}


def twelve_element_oracle(L: FiniteLattice):
    """For each 2 x 5 grid sublattice, in the library's embedding order
    (``embed.iter_embeddings``, itself checked against the subset oracle),
    every point c inside its middle rung by a scan of the host."""
    from latcheck import embed

    instances, violations = 0, []
    grid = catalog.grid(5)
    gidx = {k: grid.index_of(v) for k, v in _GRID_POS.items()}
    for w in embed.iter_embeddings(grid, L):
        pos = {k: w.map[i] for k, i in gidx.items()}
        image = set(w.map)
        below_c = [pos[k] for k in ("w'", "w", "a")]
        above_c = [pos[k] for k in ("b", "z", "z'")]
        incomp_c = [pos[k] for k in ("x'", "x", "y", "y'")]
        cs = [
            c for c in range(L.n)
            if c not in image
            and all(L.lt(x, c) for x in below_c)
            and all(L.lt(c, x) for x in above_c)
            and all(L.incomparable(c, x) for x in incomp_c)
        ]
        above_s = [pos[k] for k in ("y", "y'", "z", "z'")]
        incomp_s = [pos[k] for k in ("x'", "x", "b")]
        for c in cs:
            instances += 1
            for s in range(L.n):
                if s in image or s == c:
                    continue
                if (
                    all(L.lt(x, s) for x in below_c)
                    and all(L.lt(s, x) for x in above_s)
                    and all(L.incomparable(s, x) for x in incomp_s)
                    and L.incomparable(s, c)
                ):
                    violations.append(("grid with interior points",
                                       _labels(L, w.map), L.labels[c], L.labels[s]))
    return instances, violations


def staircase_oracle(M: FiniteLattice):
    """The staircase's chain extension: for each a, every five-chain of
    elements incomparable to a with strictly increasing joins with a."""
    n = M.n
    instances, violations = 0, []
    for a in range(n):
        pool = [b for b in range(n) if M.incomparable(a, b)]

        def extend(chain, joins):
            nonlocal instances
            if len(chain) == 5:
                instances += 1
                b4, b5 = chain[3], chain[4]
                j3, j4 = joins[2], joins[3]
                if M.meet[j4][b5] != b4:
                    low = M.meet[j3][b5]
                    if not M.covers(low, j3):
                        violations.append((M.labels[a], _labels(M, chain)))
                return
            for b in pool:
                if chain and not M.lt(chain[-1], b):
                    continue
                j = M.join[a][b]
                if joins and not M.lt(joins[-1], j):
                    continue
                chain.append(b)
                joins.append(j)
                extend(chain, joins)
                chain.pop()
                joins.pop()

        extend([], [])
    return instances, violations


def _constant_meet_antichains(L, size):
    """Every size-subset of L that is an antichain with one pairwise meet,
    with that meet."""
    for Y in itertools.combinations(range(L.n), size):
        if any(not L.incomparable(a, b) for a, b in itertools.combinations(Y, 2)):
            continue
        vals = {L.meet[a][b] for a, b in itertools.combinations(Y, 2)}
        if len(vals) == 1:
            yield Y, vals.pop()


def cube_oracle(M: FiniteLattice, forms=("meet", "join"), sizes=(3, 4)):
    """The cube theorem's scan of every 3- and 4-subset, per form."""
    instances, violations = 0, []
    for form in forms:
        K = M if form == "meet" else dual(M)
        for size in sizes:
            for Y, d in _constant_meet_antichains(K, size):
                instances += 1
                if size == 4:
                    violations.append(
                        (f"{form} form: antichain of size 4", _labels(K, Y), K.labels[d])
                    )
                    continue
                missing = [a for a in Y if not K.covers(d, a)]
                if len(missing) > 2:
                    violations.append(
                        (f"{form} form: no element adjacent to the bound",
                         _labels(K, Y), K.labels[d])
                    )
    return instances, violations
