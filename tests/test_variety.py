"""Congruences, quotients, subdirect irreducibility, pentagon-variety
membership."""

from itertools import combinations

import pytest

from latcheck import catalog, embed, theorems, variety
from latcheck.core import (CoverDiagram, _Budget, are_isomorphic, build_lattice, canonical_form,
                           direct_product, dual, induced, is_sublattice_set, iter_bits, sublattices)
from latcheck.enumeration import all_lattices
from latcheck.errors import SizeLimit
from latcheck.laws import semidistributive
from latcheck.variety import (
    all_congruences,
    identity_congruence,
    in_n5_variety,
    is_subdirectly_irreducible,
    meet_irreducible_congruences,
    principal_congruence,
    quotient,
    si_factors,
)

from oracles import (
    _subset_is_convex,
    compatible_partitions,
    congruence_closure_oracle,
    is_subdirectly_irreducible_oracle,
    meet_irreducible_congruences_oracle,
    n5_variety_oracle,
    principal_congruence_oracle,
    quotient_order_oracle,
)

REFEREE_CATALOG = ([f"L{i}" for i in range(1, 16)] + ["M3", "N5", "B3", "stacked_n5"]
                   + [f"grid(2,{k})" for k in range(1, 9)])


def test_principal_identity():
    c3 = catalog.chain(3)
    c = principal_congruence(c3, 1, 1)
    assert c.is_identity()


def test_principal_n5_side_pair():
    n5 = catalog.get("N5")
    i = n5.index_of
    c = principal_congruence(n5, i("x3"), i("x4"))
    blocks = {frozenset(n5.labels[e] for e in b) for b in c.blocks()}
    assert blocks == {frozenset({"x3", "x4"}), frozenset({"x1"}),
                      frozenset({"x2"}), frozenset({"x5"})}


def test_principal_chain_bottom_pair():
    c3 = catalog.chain(3)
    c = principal_congruence(c3, 0, 1)
    assert c.block_count == 2
    assert c.same(0, 1) and not c.same(0, 2)


def test_congruence_counts_against_partition_oracle():
    for name in ("chain(3)", "N5", "M3", "grid(2,2)", "L4"):
        L = catalog.get(name)
        got = {frozenset(c.blocks()) for c in all_congruences(L)}
        want = set(compatible_partitions(L))
        assert got == want, name


def test_congruence_counts_small_enumeration():
    for L in all_lattices(5) + all_lattices(6)[:8]:
        got = {frozenset(c.blocks()) for c in all_congruences(L)}
        want = set(compatible_partitions(L))
        assert got == want


def test_chain3_has_four_congruences():
    assert len(all_congruences(catalog.chain(3))) == 4


def test_m3_is_simple():
    assert len(all_congruences(catalog.get("M3"))) == 2


def test_square_congruences():
    g = catalog.grid(2)
    cons = all_congruences(g)
    assert len(cons) == 4
    two_block = [c for c in cons if c.block_count == 2]
    assert len(two_block) == 2  # the two collapse-one-direction kernels


def test_congruence_blocks_are_convex_sublattices():
    for name in ("N5", "L6", "stacked_n5", "ninf(2)"):
        L = catalog.get(name)
        for c in all_congruences(L):
            for b in c.blocks():
                assert is_sublattice_set(L, b)
                assert _subset_is_convex(L, b)


def test_quotient_collapse_all():
    n5 = catalog.get("N5")
    from latcheck.variety import all_congruence
    q = quotient(n5, all_congruence(5))
    assert q.n == 1


def test_quotient_n5_monolith_is_square():
    n5 = catalog.get("N5")
    i = n5.index_of
    q = quotient(n5, principal_congruence(n5, i("x3"), i("x4")))
    assert are_isomorphic(q, catalog.grid(2))


def test_quotient_order_matches_member_scan():
    for n in range(1, 8):
        for L in all_lattices(n):
            for c in all_congruences(L):
                q = quotient(L, c)
                assert q.up == quotient_order_oracle(L, c), (L.labels, c.blocks())


def test_si_n5_true_square_false():
    assert is_subdirectly_irreducible(catalog.get("N5"))
    assert not is_subdirectly_irreducible(catalog.grid(2))
    assert not is_subdirectly_irreducible(catalog.chain(1))


def test_si_factors_n5():
    factors = si_factors(catalog.get("N5"))
    forms = {canonical_form(f) for f in factors}
    assert forms == {canonical_form(catalog.chain(2)), canonical_form(catalog.get("N5"))}


def test_membership_accepts():
    for name in ("N5", "chain(5)", "B3", "ninf(2)", "stacked_n5", "grid(2,4)"):
        d = in_n5_variety(catalog.get(name))
        assert d.member, name
        allowed = {canonical_form(catalog.chain(1)), canonical_form(catalog.chain(2)),
                   canonical_form(catalog.get("N5"))}
        assert all(canonical_form(f) in allowed for f in d.factors)


def test_membership_rejects():
    for name in ["M3"] + list(catalog.MCKENZIE_NAMES):
        d = in_n5_variety(catalog.get(name))
        assert not d.member, name
        assert d.offending is not None


def test_membership_necessary_conditions():
    for L in all_lattices(5) + all_lattices(6):
        if in_n5_variety(L):
            j, m = semidistributive(L)
            assert j and m
            hits = embed.contains_forbidden(L, embed.profile("N"))
            assert hits == []


def test_membership_dual_invariant():
    for name in ("N5", "M3", "L7", "L13", "stacked_n5", "ninf(2)"):
        L = catalog.get(name)
        assert bool(in_n5_variety(L)) == bool(in_n5_variety(dual(L)))


def test_membership_product_multiplicative():
    n5 = catalog.get("N5")
    c2 = catalog.chain(2)
    m3 = catalog.get("M3")
    assert in_n5_variety(direct_product(n5, c2))
    assert in_n5_variety(direct_product(c2, c2))
    assert not in_n5_variety(direct_product(m3, c2))


def test_membership_decided_once_per_lattice(monkeypatch):
    """The verdict and the N-full gate read the kept sets and build no
    quotient, for a member and a non-member; the certificate is built by
    one si_factors call on the first read of ``factors`` and then kept in
    the decision, which the lattice's cache keeps."""
    calls = []
    real_factors, real_quotient = variety.si_factors, variety.quotient
    monkeypatch.setattr(variety, "si_factors",
                        lambda L: calls.append("si_factors") or real_factors(L))
    monkeypatch.setattr(variety, "quotient",
                        lambda L, c: calls.append("quotient") or real_quotient(L, c))
    n5 = catalog.get("N5")
    member, non_member = direct_product(n5, catalog.chain(2)), direct_product(n5, catalog.get("M3"))
    reports = {}
    for L in (member, non_member):
        decision = in_n5_variety(L)
        reports[L] = theorems.run_profile(L, "N-full")
        assert in_n5_variety(L) is decision
    gate = theorems.variety_membership(non_member)
    assert calls == []
    assert in_n5_variety(member) and not any(r.skipped for r in reports[member])
    # N5 x M3 fails W and has doubly reducible elements, so every N-full
    # check is skipped before the gate's reason is read
    assert not in_n5_variety(non_member) and all(r.skipped for r in reports[non_member])
    assert gate == (False, "not in the pentagon variety (SI factor of size 5)")
    decision = in_n5_variety(non_member)
    factors = decision.factors
    assert calls.count("si_factors") == 1
    calls.clear()
    assert decision.factors is factors and decision.offending.n == 5
    assert calls == []


def test_size_cap():
    """Only the whole of Con L is capped: chain(17) has 2^16 congruences but
    16 join-irreducible ones, so membership, the SI test and the
    meet-irreducibles are decided from J(Con L) without a cap."""
    c17 = catalog.chain(17)
    with pytest.raises(SizeLimit):
        all_congruences(c17)
    decision = in_n5_variety(c17)
    assert decision.member and [f.n for f in decision.factors] == [2]
    assert not is_subdirectly_irreducible(c17)
    assert len(meet_irreducible_congruences(c17)) == 16
    assert in_n5_variety(catalog.grid(40))


@pytest.mark.parametrize("source", [*range(1, 9), "catalog"])
def test_join_irreducible_route_matches_closure_referee(source):
    """Con L, its meet-irreducibles and the SI test, each read off J(Con L),
    against the join-closure of every principal congruence and cover scans
    over all of it."""
    if source == "catalog":
        lattices = [catalog.get(name) for name in REFEREE_CATALOG]
    else:
        lattices = all_lattices(source)
    for L in lattices:
        assert all_congruences(L) == congruence_closure_oracle(L)
        assert set(meet_irreducible_congruences(L)) == set(meet_irreducible_congruences_oracle(L))
        assert is_subdirectly_irreducible(L) == is_subdirectly_irreducible_oracle(L)


def _referee_products():
    """Products whose M3 factors si_factors names only by quotient and
    canonical form, beside N5 and 2 factors that it names off the kept sets."""
    n5, m3 = catalog.get("N5"), catalog.get("M3")
    return [direct_product(m3, m3), direct_product(m3, catalog.chain(3)),
            direct_product(direct_product(n5, m3), catalog.chain(2))]


def _with_duals(source):
    lattices = ([catalog.get(name) for name in REFEREE_CATALOG] if source == "catalog"
                else _referee_products() if source == "products"
                else all_lattices(source))
    return [*lattices, *map(dual, lattices)]


@pytest.mark.parametrize("source", [*range(1, 8), "catalog"])
def test_principal_congruence_matches_union_find_referee(source):
    """Every con(a, b), read off the dependency relation on J(L), against
    the translate-and-merge closure, over every ordered pair."""
    for L in _with_duals(source):
        for a in range(L.n):
            for b in range(L.n):
                assert principal_congruence(L, a, b) == principal_congruence_oracle(L, a, b), \
                    (L.labels, a, b)


@pytest.mark.parametrize("source", [*range(1, 9), "catalog", "products"])
def test_membership_matches_quotient_referee(source):
    """The decision, its factors' labels in order, the offending factor's
    labels, the offending size the gate reads and the N-full skip reason,
    against the quotients by every meet-irreducible congruence of the whole
    of Con L."""
    for L in _with_duals(source):
        d = in_n5_variety(L)
        got = (d.member, [f.labels for f in d.factors],
               None if d.offending is None else d.offending.labels)
        want = n5_variety_oracle(L)
        assert got == want, L.labels
        size = None if want[2] is None else len(want[2])
        reason = None if size is None else f"not in the pentagon variety (SI factor of size {size})"
        assert d.offending_size == size and theorems.variety_membership(L) == (size is None, reason)
        reasons = {r.skip_reason for r in theorems.run_profile(L, "N-full")}
        assert reasons - {None, reason} <= {"fails Whitman's condition",
                                           "has doubly reducible elements"}, L.labels


def test_one_quotient_per_two_block_factor(monkeypatch):
    """chain(100) x chain(4) has 102 meet-irreducible congruences, each with
    two blocks; the factor list is built from the first alone, and the
    identity's quotient is the lattice itself."""
    calls = []
    real = variety.quotient
    monkeypatch.setattr(variety, "quotient", lambda L, c: calls.append(c) or real(L, c))
    L = direct_product(catalog.chain(100), catalog.chain(4))
    decision = in_n5_variety(L)
    assert decision.member and [f.n for f in decision.factors] == [2]
    assert len(calls) == 1
    assert len(meet_irreducible_congruences(L)) == 102
    assert real(L, identity_congruence(L.n)) is L


def test_one_quotient_per_five_block_factor(monkeypatch):
    """N5 x N5 x N5 has three meet-irreducible congruences with five blocks
    and six with two; the five-block ones are N5's, named off their kept
    sets, so one quotient is built per class."""
    calls = []
    real = variety.quotient
    monkeypatch.setattr(variety, "quotient", lambda L, c: calls.append(c) or real(L, c))
    n5 = catalog.get("N5")
    L = direct_product(direct_product(n5, n5), n5)
    sizes = sorted(c.block_count for c in meet_irreducible_congruences(L))
    assert L.n == 125 and sizes == [2] * 6 + [5] * 3
    decision = in_n5_variety(L)
    assert decision.member and [f.n for f in decision.factors] == [2, 5]
    assert len(calls) == 2


def test_five_block_factors_told_apart():
    """N5 x M3 has both an N5 and an M3 factor, each five blocks; the N5
    class is named off its kept set and M3 is found by its quotient's
    canonical form, and the factors, their order and the offending one
    match the quotient referee."""
    n5, m3 = catalog.get("N5"), catalog.get("M3")
    for L in (direct_product(n5, m3), direct_product(m3, catalog.chain(2))):
        d = in_n5_variety(L)
        got = (d.member, [f.labels for f in d.factors],
               None if d.offending is None else d.offending.labels)
        assert got == n5_variety_oracle(L), L.labels
    assert [f.n for f in in_n5_variety(direct_product(n5, m3)).factors] == [2, 5, 5]


def test_meet_irreducible_have_unique_cover():
    for name in ("N5", "chain(4)", "grid(2,2)", "L4"):
        L = catalog.get(name)
        cons = all_congruences(L)
        for c in meet_irreducible_congruences(L):
            above = [d for d in cons if d != c and c.refines(d)]
            covers = [d for d in above if not any(e != d and e.refines(d) for e in above)]
            assert len(covers) == 1


def test_kept_join_irreducibles_decide_membership():
    """The facts behind si_factors' five-block shortcut, stated on J(L).
    The meet-irreducible congruence paired with p keeps apart from their
    lower covers exactly the q whose D*-closure holds p, and the classes of
    those q are the quotient's join-irreducibles, ordered as in L.  An SI
    lattice with one join-irreducible is 2 and one with three, two of them
    comparable, is N5; so L is in V(N5) iff every kept set is one of those,
    and the least block count over the other kept sets is the offending
    factor's size.  On every lattice with n <= 8, the catalog and duals."""
    lattices = [L for n in range(1, 9) for L in all_lattices(n)]
    lattices += [catalog.get(name) for name in catalog.FIXED_NAMES]
    outcomes = set()
    for L in lattices + [dual(L) for L in lattices]:
        closure = variety._dependency(L)[1]
        lower = {p: L.lower_covers(p)[0] for p in closure}
        meet_irreducible = meet_irreducible_congruences(L)
        other_sizes = []
        for p in closure:
            kept = [q for q in closure if closure[q] >> p & 1]
            # the largest congruence keeping p apart from p_*
            separating = [c for c in meet_irreducible if not c.same(p, lower[p])]
            (psi,) = [c for c in separating if all(d.refines(c) for d in separating)]
            assert kept == [q for q in closure if not psi.same(q, lower[q])], L.labels
            Q = quotient(L, psi)
            block = {e: i for i, b in enumerate(sorted(psi.blocks(), key=min)) for e in b}
            assert sorted(block[q] for q in kept) == [x for x in range(Q.n)
                                                       if len(Q.lower_covers(x)) == 1]
            assert all(L.leq(a, b) == Q.leq(block[a], block[b]) for a in kept for b in kept)
            if not (len(kept) == 1 or len(kept) == 3
                    and any(L.leq(a, b) or L.leq(b, a) for a, b in combinations(kept, 2))):
                other_sizes.append(psi.block_count)
        d = in_n5_variety(L)
        assert d.member == (not other_sizes), L.labels
        if other_sizes:
            assert min(other_sizes) == d.offending.n, L.labels
        outcomes.add(d.member)
    assert outcomes == {True, False}


def test_si_members_of_the_pentagon_variety():
    """SI(HS(N5)) = {2, N5}: the SI factors of every sublattice of N5."""
    n5 = catalog.get("N5")
    forms = {canonical_form(q) for m in sublattices(n5, n5.full_mask, _Budget())
             for q in si_factors(induced(n5, iter_bits(m)))}
    assert forms == {canonical_form(catalog.chain(2)), canonical_form(n5)}


def test_si_factor_from_256_blocks(monkeypatch):
    """A chain c0 < ... < c129 with a side element s_i over each c_(i-1)
    and under c_(i+2): overlapping pentagons, n = 257, subdirectly
    irreducible, so its own quotient is a factor to canonicalise; the
    canonical form wrote its size in one byte and raised ValueError.  The
    gate reads the factor's size off the kept sets, with no quotient."""
    m = 129
    labels = [f"c{i}" for i in range(m + 1)] + [f"s{i}" for i in range(1, m - 1)]
    covers = [(f"c{i}", f"c{i + 1}") for i in range(m)]
    covers += [(f"c{i - 1}", f"s{i}") for i in range(1, m - 1)]
    covers += [(f"s{i}", f"c{i + 2}") for i in range(1, m - 1)]
    L = build_lattice(CoverDiagram(tuple(labels), tuple(covers)))
    assert L.n == 257 and is_subdirectly_irreducible(L)
    calls = []
    real = variety.quotient
    monkeypatch.setattr(variety, "quotient", lambda L, c: calls.append(c) or real(L, c))
    assert theorems.variety_membership(L) == (
        False, "not in the pentagon variety (SI factor of size 257)")
    assert calls == []
    d = in_n5_variety(L)
    assert not d.member and [f.n for f in d.factors] == [2, 257] and d.offending.n == 257
