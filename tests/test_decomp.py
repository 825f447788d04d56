"""Distributive partitions, Dec, and the Galvin-Jonsson shape classifier."""

import hashlib
import itertools
import random

import pytest

from latcheck import catalog, decomp, laws
from latcheck.core import (CoverDiagram, _Budget, build_lattice, direct_product, dual, induced,
                           intervals, is_interval, iter_bits)
from latcheck.decomp import (
    dec,
    gj_classify,
    is_distributive_partition,
    is_distributive_sublattice,
    minimum_distributive_partitions,
)
from latcheck.enumeration import all_lattices
from latcheck.errors import NotAPartition, NotDistributive, SearchBudgetExceeded
from latcheck.laws import distributive, is_finite_free_sublattice, whitman
from latcheck.theorems import degeneracy_lemma_check

from oracles import (
    N5_MINIMUM_PARTITIONS,
    dec_oracle,
    distributive_oracle,
    distributive_partition_oracle,
    gj_classify_oracle,
    set_partitions,
)


def _by_labels(L, parts):
    return [{frozenset(block) for block in p.as_label_sets(L)} for p in parts]


def _as_indices(L, label_blocks):
    return [{L.index_of(x) for x in b} for b in label_blocks]


def test_singletons_always_distributive():
    for name in ("N5", "M3", "L13", "stacked_n5"):
        L = catalog.get(name)
        assert is_distributive_partition(L, [{e} for e in range(L.n)])


def test_pentagon_example_partition():
    n5 = catalog.get("N5")
    assert is_distributive_partition(n5, _as_indices(n5, N5_MINIMUM_PARTITIONS[0]))


def test_pentagon_whole_block_fails():
    n5 = catalog.get("N5")
    chk = is_distributive_partition(n5, [set(range(5))])
    assert not chk
    assert chk.clause == "block is not distributive"


def test_not_a_partition():
    n5 = catalog.get("N5")
    with pytest.raises(NotAPartition):
        is_distributive_partition(n5, [{0, 1}, {1, 2}, {3, 4}])
    with pytest.raises(NotAPartition):
        is_distributive_partition(n5, [{0, 1}])


def test_partition_check_matches_oracle_on_n5_and_m3():
    for name in ("N5", "M3"):
        L = catalog.get(name)
        for p in set_partitions(list(range(L.n))):
            assert bool(is_distributive_partition(L, p)) == distributive_partition_oracle(L, p)


def test_dec_n5():
    value, witness = dec(catalog.get("N5"))
    assert value == 3
    assert is_distributive_partition(catalog.get("N5"), witness.blocks)


def test_dec_stacked():
    value, witness = dec(catalog.get("stacked_n5"))
    assert value == 5
    assert is_distributive_partition(catalog.get("stacked_n5"), witness.blocks)


def test_dec_distributive_is_one():
    assert dec(catalog.get("B3"))[0] == 1
    assert dec(catalog.chain(6))[0] == 1
    assert dec(catalog.grid(4))[0] == 1


def test_dec_m3():
    value, _ = dec(catalog.get("M3"))
    assert value == 3
    assert all(len(p) >= 3 for p in minimum_distributive_partitions(catalog.get("M3")))


def test_minimum_partitions_chain():
    c = catalog.chain(4)
    parts = minimum_distributive_partitions(c)
    assert len(parts) == 1
    assert parts[0].blocks == (frozenset(range(4)),)


def test_minimum_partitions_n5_contains_the_listed_six_plus_one():
    n5 = catalog.get("N5")
    got = _by_labels(n5, minimum_distributive_partitions(n5))
    *listed_six, seventh = N5_MINIMUM_PARTITIONS
    for p in listed_six:
        assert {frozenset(b) for b in p} in got
    # the pairwise-union conditions admit exactly one more
    assert {frozenset(b) for b in seventh} in got
    assert len(got) == 7
    # every claimed minimum is valid and of minimum size
    for p in got:
        assert is_distributive_partition(n5, _as_indices(n5, p))
        assert len(p) == 3


def test_dec_matches_bell_oracle():
    for name in ("N5", "M3", "L4", "chain(5)", "grid(2,3)", "ninf(2)"):
        L = catalog.get(name)
        assert dec(L)[0] == dec_oracle(L), name


def test_distributive_sublattice_matches_induced_oracle():
    """The non-distributivity table agrees with the two-law referee on the
    induced lattice, for every interval of every lattice with n <= 8 and of
    its dual, of the catalog, of N5 x 2 x 3 and of N5 x N5."""
    n5 = catalog.get("N5")
    lattices = [L for n in range(1, 9) for L in all_lattices(n)]
    lattices += [catalog.get(name) for name in catalog.FIXED_NAMES]
    lattices += [direct_product(direct_product(n5, catalog.chain(2)), catalog.chain(3)),
                 direct_product(n5, n5)]
    for L in lattices + [dual(L) for L in lattices]:
        for m in intervals(L, L.full_mask):
            expected = distributive_oracle(induced(L, iter_bits(m)))
            assert is_distributive_sublattice(L, m) == expected, (L.labels, m)


def _no_scan(L, elems):
    raise AssertionError("distributive-law scan")


def test_distributivity_memo_keeps_masks_apart(monkeypatch):
    """N5 x 2 holds the pentagon N5 x {0} and the distributive interval
    [(a, 0), (1, 1)] = 3 x 2, a on N5's long side: each interval's verdict
    is its own, whichever is asked first, from one table per lattice, and
    no distributive-law scan runs."""
    monkeypatch.setattr(laws, "_distributive_on", _no_scan)
    n5 = catalog.get("N5")
    long_side = [n5.bottom]  # N5's four-element chain, by greatest depth
    while long_side[-1] != n5.top:
        long_side.append(max(n5.upper_covers(long_side[-1]), key=lambda b: n5.depths()[b]))
    # (a, i) is element 2a + i of N5 x 2
    pentagon = sum(1 << 2 * a for a in range(5))
    grid = sum(3 << 2 * a for a in long_side[1:])
    masks = (pentagon, grid)
    for first in (0, 1):
        L = direct_product(n5, catalog.chain(2))
        for _ in range(2):
            for m in masks[first:] + masks[:first]:
                assert is_interval(L, m)
                assert is_distributive_sublattice(L, m) == (m == grid)
        assert is_distributive_sublattice(L, L.full_mask) is False
        assert is_distributive_sublattice(L, 1 << L.top)
        assert sum(key[0] == "latcheck.decomp._nondistributive" for key in L._cache) == 1


def test_dec_runs_no_distributive_law_scan(monkeypatch):
    """Dec, the minimum partitions and the degeneracy lemma read every
    interval's distributivity off the table: with the law scan made to
    raise, they run on the catalog and on every lattice with n <= 7."""
    monkeypatch.setattr(laws, "_distributive_on", _no_scan)
    lattices = [L for n in range(1, 8) for L in all_lattices(n)]
    lattices += [catalog.get(name) for name in catalog.FIXED_NAMES]
    checked = 0
    for L in lattices:
        dec(L)
        minimum_distributive_partitions(L)
        report = degeneracy_lemma_check(L, membership=lambda L: (True, None))
        checked += report.hypothesis_instances > 0
    assert checked > 0


def test_dec_search_effort_pinned():
    """Budget nodes spent by dec / minimum_distributive_partitions, as
    measured before the table replaced the per-interval scans; the search
    order is unchanged, so the node counts are too."""
    for name, spent in (("stacked_n5", (168, 360)), ("L15", (121, 309)),
                        ("L13", (42, 121)), ("N5", (13, 24))):
        L = catalog.get(name)
        budgets = _Budget(1000), _Budget(1000)
        dec(L, budgets[0])
        minimum_distributive_partitions(L, budgets[1])
        assert tuple(1000 - b.left for b in budgets) == spent, name


def test_dec_laws_small():
    for n in range(1, 7):
        for L in all_lattices(n):
            v, w = dec(L)
            assert (v == 1) == bool(distributive(L))
            assert v != 2
            assert is_distributive_partition(L, w.blocks)


def test_dec_dual_invariant():
    for name in ("N5", "M3", "L4", "L13", "stacked_n5", "ninf(2)"):
        L = catalog.get(name)
        assert dec(L)[0] == dec(dual(L))[0]
    for n in range(1, 7):
        for L in all_lattices(n):
            assert dec(L)[0] == dec(dual(L))[0]


def test_dec_budget():
    """Dec has no size cap; its search spends the node budget instead."""
    assert dec(catalog.chain(17))[0] == 1
    with pytest.raises(SearchBudgetExceeded) as exc:
        dec(catalog.get("stacked_n5"), budget=5)
    assert str(exc.value) == "Dec search exceeded node budget 5"
    with pytest.raises(SearchBudgetExceeded):
        minimum_distributive_partitions(catalog.get("stacked_n5"), budget=5)


def test_dec_results_pinned():
    """Dec values, witnesses and every minimum partition on each lattice
    with n <= 8 and each fixed catalog lattice, as one sha256 recorded
    before candidate blocks were listed as intervals."""
    h = hashlib.sha256()
    lattices = [L for n in range(1, 9) for L in all_lattices(n)]
    for L in lattices + [catalog.get(name) for name in catalog.FIXED_NAMES]:
        value, witness = dec(L)
        parts = minimum_distributive_partitions(L)
        h.update(repr((value, witness.encoding(), [p.encoding() for p in parts])).encode())
    assert h.hexdigest() == "a25f088b88a72f2461e339a7148b82881e2c48773c76945f0f7a865de57105de"


def test_gj_cube_single_block():
    d = gj_classify(catalog.get("B3"))
    assert d is not None
    assert d.shapes == ("boolean3",)
    assert d.blocks == (tuple(range(8)),)


def test_gj_grid_single_block():
    d = gj_classify(catalog.grid(4))
    assert d is not None
    assert d.shapes == ("two_times_chain",)


def test_gj_chain():
    d = gj_classify(catalog.chain(5))
    assert d is not None
    assert d.shapes == ("chain",)


def test_gj_cube4_impossible():
    b4 = direct_product(catalog.chain(2), catalog.get("B3"))
    assert gj_classify(b4) is None
    assert not whitman(b4)


def test_gj_linear_sum_order():
    # square with a pendant top: two blocks, grid below chain
    L = direct_product(catalog.chain(2), catalog.chain(2))
    from latcheck.core import CoverDiagram, build_lattice
    d = CoverDiagram(
        ("0", "p", "q", "t", "s"),
        (("0", "p"), ("0", "q"), ("p", "t"), ("q", "t"), ("t", "s")),
    )
    L = build_lattice(d)
    out = gj_classify(L)
    assert out is not None
    for earlier, later in zip(out.blocks, out.blocks[1:]):
        for a in earlier:
            for b in later:
                assert L.lt(a, b)


def test_gj_requires_distributive():
    with pytest.raises(NotDistributive):
        gj_classify(catalog.get("N5"))


def test_gj_agrees_with_whitman_small():
    for n in range(1, 7):
        for D in all_lattices(n):
            if not distributive(D):
                continue
            assert (gj_classify(D) is not None) == bool(whitman(D))
            assert bool(whitman(D)) == is_finite_free_sublattice(D)


# Galvin-Jonsson blocks as products of chains: chain(k) is (k,), 2 x k is
# (2, k) and the cube is (2, 2, 2); 3 x 3, 2 x B3 and 3 x 2 x 2 are
# distributive but fail Whitman's condition
GJ_BLOCKS = ((1,), (2,), (3,), (2, 2), (2, 3), (2, 4), (2, 2, 2),
             (3, 3), (2, 2, 2, 2), (3, 2, 2))


def _linear_sum(blocks, rng=None):
    """The linear sum of products of chains, bottom block first, built from
    its cover list: each block's top is covered by the next block's bottom.
    With ``rng`` the element order is shuffled."""
    elements, covers, below = [], [], None
    for b, dims in enumerate(blocks):
        points = list(itertools.product(*(range(d) for d in dims)))
        name = [f"{b}:" + ".".join(map(str, p)) for p in points]
        index = {p: i for i, p in enumerate(points)}
        elements += name
        covers += [(name[i], name[index[p[:k] + (p[k] + 1,) + p[k + 1:]]])
                   for i, p in enumerate(points) for k in range(len(dims)) if p[k] + 1 < dims[k]]
        if below is not None:
            covers.append((below, name[0]))
        below = name[-1]
    if rng is not None:
        rng.shuffle(elements)
    return build_lattice(CoverDiagram(elements, covers))


def test_gj_matches_range_search_oracle():
    """The one-pass classifier equals the old range search on every
    distributive lattice with n <= 9 and on the catalog."""
    checked = 0
    for L in [L for n in range(1, 10) for L in all_lattices(n) if distributive(L)]:
        assert gj_classify(L) == gj_classify_oracle(L), L.labels
        checked += 1
    for name in catalog.FIXED_NAMES:
        L = catalog.get(name)
        if distributive(L):
            assert gj_classify(L) == gj_classify_oracle(L), name
            checked += 1
        else:
            with pytest.raises(NotDistributive):
                gj_classify(L)
    # 62 distributive lattices with n <= 9 (OEIS A006982), and B3
    assert checked == 63


def test_gj_linear_sums_match_oracle_and_whitman(monkeypatch):
    """300 seeded linear sums of one to four blocks, half with shuffled
    labels: the classifier equals the old range search, succeeds iff the sum
    satisfies Whitman's condition, and tags each block of two or more
    middle elements at most once."""
    calls = []
    real = decomp._shape_tag
    monkeypatch.setattr(decomp, "_shape_tag", lambda L, elems: calls.append(1) or real(L, elems))
    rng = random.Random(13)
    found = 0
    for k in range(300):
        blocks = [rng.choice(GJ_BLOCKS) for _ in range(rng.randint(1, 4))]
        D = _linear_sum(blocks, rng if k % 2 else None)
        calls.clear()
        out = gj_classify(D)
        assert len(calls) <= sum(len(dims) > 1 for dims in blocks)
        assert out == gj_classify_oracle(D), blocks
        assert (out is not None) == bool(whitman(D)), blocks
        found += out is not None
    assert 100 < found < 200


def test_gj_stacked_squares():
    D = _linear_sum([(2, 2)] * 16)
    assert D.n == 64
    out = gj_classify(D)
    assert out.shapes == ("two_times_chain",) * 16
    assert [len(b) for b in out.blocks] == [4] * 16


def test_gj_block_of_300_elements():
    """grid(2,150) is one two_times_chain block; its shape is read off its
    join-irreducibles, with no canonical form, whose one-byte size raised
    ValueError from 256 elements."""
    D = catalog.grid(150)
    out = gj_classify(D)
    assert out.shapes == ("two_times_chain",)
    assert out.blocks == (tuple(range(300)),)
