"""Lattice construction, duals, products, closure, canonical forms."""

import hashlib
import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from latcheck import catalog, core
from latcheck.core import (
    CoverDiagram,
    EmbeddingWitness,
    FiniteLattice,
    _Budget,
    _canonical_search,
    _refined_classes,
    _seed_signature,
    atoms,
    are_isomorphic,
    build_lattice,
    canonical_form,
    coatoms,
    covers_of,
    direct_product,
    dual,
    generated_sublattice,
    induced,
    intervals,
    is_interval,
    isomorphism,
    iter_bits,
    matrix_bytes,
    maximal_antichains,
    sublattices,
)
from latcheck.errors import (
    CyclicCovers,
    DuplicateLabel,
    EmptySeeds,
    NotALattice,
    SizeLimit,
)
from latcheck.enumeration import all_lattices

from oracles import (automorphisms_oracle, brute_isomorphic, cover_queries_oracle,
                     sublattice_masks_oracle, unpruned_canonical_search)


def test_build_n5_meets_and_joins():
    n5 = catalog.get("N5")
    i = n5.index_of
    assert n5.n == 5
    assert n5.meet[i("x2")][i("x3")] == i("x5")
    assert n5.join[i("x2")][i("x4")] == i("x1")
    assert n5.labels[n5.bottom] == "x5"
    assert n5.labels[n5.top] == "x1"


def test_build_chain_is_min_max():
    c = catalog.chain(3)
    for a in range(3):
        for b in range(3):
            assert c.meet[a][b] == min(a, b)
            assert c.join[a][b] == max(a, b)


def test_build_rejects_two_maximal_elements():
    d = CoverDiagram(("0", "a", "b"), (("0", "a"), ("0", "b")))
    with pytest.raises(NotALattice) as exc:
        build_lattice(d)
    assert set(exc.value.pair) == {"a", "b"}


def test_build_rejects_cycle():
    d = CoverDiagram(("a", "b"), (("a", "b"), ("b", "a")))
    with pytest.raises(CyclicCovers):
        build_lattice(d)


def test_build_rejects_duplicate_label():
    with pytest.raises(DuplicateLabel):
        build_lattice(CoverDiagram(("a", "a"), ()))


def test_build_rejects_nonunique_bound():
    # two atoms and two coatoms with all cross covers: meets of coatoms tie
    d = CoverDiagram(
        ("0", "a", "b", "c", "d", "1"),
        (("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
         ("c", "1"), ("d", "1")),
    )
    with pytest.raises(NotALattice):
        build_lattice(d)


def test_not_a_lattice_names_first_failing_pair():
    # a crown: two atoms below two middles below two coatoms; pairs are
    # checked in index order, glb before lub
    covers = (("0", "c1"), ("0", "c2"), ("c1", "a"), ("c1", "b"), ("c2", "a"),
              ("c2", "b"), ("a", "d1"), ("a", "d2"), ("b", "d1"), ("b", "d2"),
              ("d1", "1"), ("d2", "1"))
    labels = ("0", "c1", "c2", "a", "b", "d1", "d2", "1")
    with pytest.raises(NotALattice) as exc:
        build_lattice(CoverDiagram(labels, covers))
    assert exc.value.pair == ("c1", "c2")
    assert exc.value.kind == "least upper bound"
    with pytest.raises(NotALattice) as exc:
        build_lattice(CoverDiagram(labels[::-1], covers))
    assert exc.value.pair == ("d2", "d1")
    assert exc.value.kind == "greatest lower bound"
    with pytest.raises(NotALattice) as exc:
        build_lattice(CoverDiagram(("a", "b") + labels[:3] + labels[5:], covers))
    assert exc.value.pair == ("a", "b")
    assert exc.value.kind == "greatest lower bound"


def test_build_long_cover_cycle():
    labels = tuple(f"v{i}" for i in range(1500))
    covers = tuple(zip(labels, labels[1:] + labels[:1]))
    with pytest.raises(CyclicCovers) as exc:
        build_lattice(CoverDiagram(labels, covers))
    assert exc.value.cycle == list(labels) + [labels[0]]


def test_build_long_chain():
    c = catalog.chain(1100)
    assert (c.bottom, c.top) == (0, 1099)
    assert all(row == tuple(min(a, b) for b in range(1100)) for a, row in enumerate(c.meet))


def test_dual_chain_self():
    assert are_isomorphic(dual(catalog.chain(3)), catalog.chain(3))


def test_dual_n5_self_and_involution():
    n5 = catalog.get("N5")
    assert are_isomorphic(dual(n5), n5)
    assert matrix_bytes(dual(dual(n5)).up) == matrix_bytes(n5.up)


def test_dual_l7_is_l8():
    assert are_isomorphic(dual(catalog.get("L7")), catalog.get("L8"))
    assert are_isomorphic(dual(catalog.get("L8")), catalog.get("L7"))


def test_canonical_forms_pinned():
    # lattices the enumeration never produces (the variety certificate
    # orders SI factors by these bytes): the catalog, three families and
    # three products
    n5, c2, c3 = catalog.get("N5"), catalog.chain(2), catalog.chain(3)
    lattices = [catalog.get(name) for name in catalog.FIXED_NAMES]
    lattices += [catalog.chain(7), catalog.grid(6), catalog.ninf(4),
                 direct_product(n5, n5), direct_product(direct_product(n5, c2), c3)]
    assert len(lattices) == 25
    h = hashlib.sha256()
    for L in lattices:
        h.update(canonical_form(L))
        h.update(repr(L._cache["canon_perm"]).encode())
    # recorded before canonical forms read the order's arrays
    assert h.hexdigest() == (
        "ebb36b40c485b4e6005cc59016e6011302cd6d1b5aeb0e31c961854e73671d6a")


def test_product_square():
    sq = direct_product(catalog.chain(2), catalog.chain(2))
    assert sq.n == 4
    assert are_isomorphic(sq, catalog.grid(2))


def test_product_grid_2x5():
    g = direct_product(catalog.chain(2), catalog.chain(5))
    assert g.n == 10
    assert are_isomorphic(g, catalog.grid(5))


def test_product_n5_n5_size():
    n5 = catalog.get("N5")
    assert direct_product(n5, n5).n == 25


def test_product_size_cap():
    with pytest.raises(SizeLimit):
        direct_product(catalog.chain(30), catalog.chain(30))


def test_product_operations_componentwise():
    """The derived tables of a product agree with the componentwise order,
    meet and join, on every lattice with n = 6 times every one with n = 5
    and on catalog, chain and grid pairs."""
    pairs = list(itertools.product(all_lattices(6), all_lattices(5)))
    pairs += [(catalog.get(a), catalog.get(b)) for a, b in
              (("N5", "M3"), ("L15", "N5"), ("B3", "L7"), ("stacked_n5", "chain(3)"))]
    pairs += [(catalog.chain(3), catalog.grid(4)), (catalog.grid(3), catalog.chain(2))]
    for A, B in pairs:
        P = direct_product(A, B)
        cells = [(i, j) for i in range(A.n) for j in range(B.n)]
        assert P.labels == tuple(f"{A.labels[i]}.{B.labels[j]}" for i, j in cells)
        assert cells[P.bottom] == (A.bottom, B.bottom) and cells[P.top] == (A.top, B.top)
        for x, (i, j) in enumerate(cells):
            for y, (k, l) in enumerate(cells):
                assert P.leq(x, y) == (A.leq(i, k) and B.leq(j, l))
                assert cells[P.meet[x][y]] == (A.meet[i][k], B.meet[j][l])
                assert cells[P.join[x][y]] == (A.join[i][k], B.join[j][l])


def test_product_labels():
    g = direct_product(catalog.chain(2), catalog.chain(2))
    assert "c0.c1" in g.labels


def test_generated_sublattice_n5():
    n5 = catalog.get("N5")
    i = n5.index_of
    got = generated_sublattice(n5, {i("x2"), i("x4")})
    assert got == {i("x1"), i("x2"), i("x4"), i("x5")}


def test_generated_sublattice_whole_and_atoms():
    b3 = catalog.get("B3")
    assert generated_sublattice(b3, set(range(8))) == set(range(8))
    assert generated_sublattice(b3, set(atoms(b3))) == set(range(8))


def test_generated_sublattice_empty_seeds():
    with pytest.raises(EmptySeeds):
        generated_sublattice(catalog.chain(2), set())


def test_generated_sublattice_idempotent_and_monotone():
    L = catalog.get("L11")
    rng = random.Random(7)
    for _ in range(25):
        seeds = set(rng.sample(range(L.n), rng.randint(1, 4)))
        closed = generated_sublattice(L, seeds)
        assert generated_sublattice(L, closed) == closed
        bigger = seeds | {rng.randrange(L.n)}
        assert generated_sublattice(L, bigger) >= closed


def test_sublattices_match_subset_scan():
    """The closure search finds exactly the sublattices, and the interval
    listing exactly the convex sublattices, that the 2^n scan finds, inside
    the whole lattice and inside each element's incomparable set, on every
    lattice with n <= 7."""
    for n in range(1, 8):
        for L in all_lattices(n):
            masks = [L.full_mask] + [L.full_mask & ~(L.up[a] | L.down[a]) for a in range(n)]
            every = {c: sublattice_masks_oracle(L, c) for c in (False, True)}
            for convex, listing in ((False, lambda L, m: sublattices(L, m, _Budget())),
                                    (True, intervals)):
                for allowed in masks:
                    found = list(listing(L, allowed))
                    assert len(found) == len(set(found))
                    assert sorted(found) == [m for m in every[convex] if m & ~allowed == 0]
            assert [m for m in range(1, 1 << n) if is_interval(L, m)] == every[True]


def test_canonical_form_dual_pentagon():
    n5 = catalog.get("N5")
    assert canonical_form(n5) == canonical_form(dual(n5))


def test_canonical_form_distinguishes_chain_from_square():
    assert canonical_form(catalog.chain(4)) != canonical_form(catalog.grid(2))


def test_canonical_form_stable_under_relabelling():
    n5 = catalog.get("N5")
    base = canonical_form(n5)
    rng = random.Random(3)
    labels = list(n5.labels)
    for _ in range(20):
        perm = list(range(n5.n))
        rng.shuffle(perm)
        covers = [(labels[perm[a]], labels[perm[b]]) for a, b in n5.cover_pairs()]
        elems = [labels[perm[a]] for a in range(n5.n)]
        shuffled = build_lattice(CoverDiagram(tuple(elems), tuple(covers)))
        assert canonical_form(shuffled) == base


def test_canonical_form_matches_brute_isomorphism_on_catalog():
    names = list(catalog.DUAL_PAIRING)
    for a, b in itertools.combinations(names, 2):
        A, B = catalog.get(a), catalog.get(b)
        if A.n != B.n or A.n > 10:
            continue
        assert (canonical_form(A) == canonical_form(B)) == brute_isomorphic(A, B)


def test_canonical_form_relabelling_sweep_small():
    from latcheck.enumeration import all_lattices

    rng = random.Random(23)
    for n in range(2, 7):
        for L in all_lattices(n):
            base = canonical_form(L)
            assert base[0] == n
            perm = list(range(n))
            rng.shuffle(perm)
            covers = [(L.labels[perm[a]], L.labels[perm[b]]) for a, b in L.cover_pairs()]
            elems = [L.labels[perm[a]] for a in range(n)]
            M = build_lattice(CoverDiagram(tuple(elems), tuple(covers)))
            assert canonical_form(M) == base


def _relabelled(L, rng):
    """``L`` under a random permutation of its elements."""
    perm = list(range(L.n))
    rng.shuffle(perm)
    up = [0] * L.n
    for a in range(L.n):
        up[perm[a]] = sum(1 << perm[b] for b in iter_bits(L.up[a]))
    labels = [None] * L.n
    for a in range(L.n):
        labels[perm[a]] = L.labels[a]
    return FiniteLattice(labels, up)


def _search_classes(L):
    upper = [L.upper_covers(a) for a in range(L.n)]
    lower = [L.lower_covers(a) for a in range(L.n)]
    sig = _seed_signature(L.heights(), L.depths(), map(len, upper), map(len, lower))
    return _refined_classes(sig, upper, lower)


def test_pruned_search_matches_the_unpruned_referee():
    # pruning by found automorphisms and re-tightening after an improvement
    # skip only branches that cannot give a new least matrix, so the search
    # returns the very permutation the unpruned search returns
    n5, m3, b3, c2 = (catalog.get("N5"), catalog.get("M3"), catalog.get("B3"),
                      catalog.chain(2))
    lattices = [L for n in range(1, 10) for L in all_lattices(n)]
    lattices += [catalog.get(name) for name in catalog.FIXED_NAMES]
    lattices += [catalog.chain(7), catalog.grid(6), catalog.ninf(4)]
    lattices += [dual(L) for L in lattices]
    rng = random.Random(29)
    b5 = c2
    for _ in range(4):
        b5 = direct_product(b5, c2)
    for L in (b5, direct_product(n5, n5), direct_product(m3, c2), direct_product(b3, c2)):
        lattices += [L] + [_relabelled(L, rng) for _ in range(4)]
    for L in lattices:
        classes = _search_classes(L)
        assert _canonical_search(L.up, classes) == unpruned_canonical_search(L.up, classes)


def _generated(gens, n):
    """The permutation group on 0..n-1 that ``gens`` generate."""
    group = {tuple(range(n))}
    todo = list(group)
    for p in todo:
        for g in gens:
            q = tuple(g[p[a]] for a in range(n))
            if q not in group:
                group.add(q)
                todo.append(q)
    return group


def test_cached_generators_generate_the_automorphism_group():
    # the automorphisms the canonical search finds, which the enumeration
    # relabels for each lattice it keeps and reads to prune and accept,
    # generate exactly the group the brute-force oracle lists
    n5, m3, b3 = catalog.get("N5"), catalog.get("M3"), catalog.get("B3")
    lattices = [L for n in range(1, 9) for L in all_lattices(n)]
    lattices += [n5, m3, b3, direct_product(n5, n5)]
    for L in lattices:
        canonical_form(L)
        gens = L._cache["canon_gens"]
        for g in gens:
            assert all(L.up[g[a]] == sum(1 << g[b] for b in iter_bits(L.up[a]))
                       for a in range(L.n))
        assert _generated(gens, L.n) == automorphisms_oracle(L)
    assert [len(_generated(L._cache["canon_gens"], L.n)) for L in lattices[-4:]] == [1, 6, 6, 2]


@pytest.mark.parametrize("name", ["B3xB3", "N5xN5x2"])
def test_symmetric_products_canonical_form_fast(name):
    # B3 x B3 (n = 64, 720 automorphisms) and N5 x N5 x 2 (n = 50) took
    # seconds before the search pruned by the automorphisms it finds
    b3, n5 = catalog.get("B3"), catalog.get("N5")
    if name == "B3xB3":
        L = direct_product(b3, b3)
    else:
        L = direct_product(direct_product(n5, n5), catalog.chain(2))
    start = time.process_time()
    form = canonical_form(L)
    assert time.process_time() - start < 1.0
    M = _relabelled(L, random.Random(31))
    assert canonical_form(M) == form
    mapping = isomorphism(M, L)
    assert EmbeddingWitness(M, L, mapping).is_valid()


def test_canonical_form_from_256_elements():
    # the size was one byte, so n >= 256 raised ValueError; from 255 on it
    # is the bytes 255, n >> 8, n & 255, so forms still sort by size first
    G = catalog.grid(130)
    form = canonical_form(G)
    assert form[:3] == bytes([255, 1, 4])
    M = _relabelled(G, random.Random(37))
    assert are_isomorphic(M, G) and canonical_form(M) == form
    assert EmbeddingWitness(M, G, isomorphism(M, G)).is_valid()
    sizes = (253, 254, 255, 256, 300)
    forms = [canonical_form(catalog.chain(k)) for k in sizes]
    assert [f[:1] if k < 255 else f[:3] for k, f in zip(sizes, forms)] == [
        bytes([253]), bytes([254]), bytes([255, 0, 255]), bytes([255, 1, 0]), bytes([255, 1, 44])]
    assert forms == sorted(forms)


def test_isomorphism_gives_bijective_witness():
    n5 = catalog.get("N5")
    d = dual(n5)
    mapping = isomorphism(n5, d)
    w = EmbeddingWitness(n5, d, mapping)
    assert w.is_valid()


def test_covers_atoms_coatoms():
    b3 = catalog.get("B3")
    assert len(atoms(b3)) == 3
    for a in atoms(b3):
        assert b3.covers(b3.bottom, a)
    assert len(coatoms(b3)) == 3
    n5 = catalog.get("N5")
    i = n5.index_of
    assert set(covers_of(n5, i("x5"))) == {i("x2"), i("x4")}


def test_cover_queries_match_the_order_referee():
    """Upper and lower covers, heights and depths agree with the referee on
    every lattice with n <= 8, the catalog and their duals, and each query
    is its dual's mirror query."""
    lattices = [L for n in range(1, 9) for L in all_lattices(n)]
    lattices += [catalog.get(name) for name in catalog.FIXED_NAMES]
    for L in lattices:
        D = dual(L)
        for M in (L, D):
            upper, lower, heights, depths = cover_queries_oracle(M)
            assert [M.upper_covers(a) for a in range(M.n)] == upper, M.labels
            assert [M.lower_covers(a) for a in range(M.n)] == lower, M.labels
            assert M.heights() == heights and M.depths() == depths, M.labels
        assert L.depths() == D.heights() and L.heights() == D.depths()
        assert all(L.upper_covers(a) == D.lower_covers(a) for a in range(L.n))


def test_cached_body_runs_once_per_lattice_and_args(monkeypatch):
    """Each cover query reaches ``_covers`` once per (lattice, element, side),
    however often it and the height and depth queries built on it are
    asked; a second lattice with the same order has its own entries."""
    calls = []

    def spy(a, up, down):
        calls.append((a, up))
        return real(a, up, down)

    n5 = catalog.get("N5")
    expected = ([n5.upper_covers(a) for a in range(5)], [n5.lower_covers(a) for a in range(5)],
                n5.heights(), n5.depths())
    real = core._covers
    monkeypatch.setattr(core, "_covers", spy)
    for L in (FiniteLattice(n5.labels, n5.up), FiniteLattice(n5.labels, n5.up)):
        calls.clear()
        for _ in range(3):
            assert ([L.upper_covers(a) for a in range(5)], [L.lower_covers(a) for a in range(5)],
                    L.heights(), L.depths()) == expected
        assert sorted(calls) == sorted([(a, L.up) for a in range(5)] + [(a, L.down) for a in range(5)])


def test_maximal_antichains_chain():
    c = catalog.chain(4)
    assert sorted(maximal_antichains(c)) == [(0,), (1,), (2,), (3,)]


def test_maximal_antichains_b3():
    b3 = catalog.get("B3")
    mas = set(maximal_antichains(b3))
    assert (b3.bottom,) in mas
    assert tuple(sorted(atoms(b3))) in mas
    for ac in mas:
        for a, b in itertools.combinations(ac, 2):
            assert b3.incomparable(a, b)


def _lattice_axioms_hold(L):
    for a in range(L.n):
        assert L.meet[a][a] == a and L.join[a][a] == a
        for b in range(L.n):
            assert L.meet[a][b] == L.meet[b][a]
            assert L.join[a][b] == L.join[b][a]
            assert L.join[a][L.meet[a][b]] == a
            assert L.meet[a][L.join[a][b]] == a
            assert L.leq(a, b) == (L.meet[a][b] == a) == (L.join[a][b] == b)
            for c in range(L.n):
                assert L.meet[L.meet[a][b]][c] == L.meet[a][L.meet[b][c]]
                assert L.join[L.join[a][b]][c] == L.join[a][L.join[b][c]]


def test_lattice_axioms_on_catalog():
    for name in catalog.FIXED_NAMES:
        L = catalog.get(name)
        if L.n <= 12:
            _lattice_axioms_hold(L)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(1, 5))
def test_lattice_axioms_on_products(i, j):
    _lattice_axioms_hold(direct_product(catalog.chain(i), catalog.chain(j)))


def test_induced_on_closed_subset_keeps_operations():
    n5 = catalog.get("N5")
    i = n5.index_of
    sub = sorted([i("x5"), i("x4"), i("x3"), i("x1")])
    K = induced(n5, sub)
    assert K.n == 4
    for a in range(K.n):
        for b in range(K.n):
            assert K.meet[a][b] == sub.index(n5.meet[sub[a]][sub[b]])
