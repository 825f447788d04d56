"""Law predicates: Whitman, semidistributivity, distributivity, modularity,
doubly reducible elements, length."""

import pytest
from hypothesis import given, settings, strategies as st

from latcheck import catalog, embed, laws, theorems
from latcheck.core import CoverDiagram, FiniteLattice, build_lattice, direct_product, dual
from latcheck.decomp import gj_classify
from latcheck.enumeration import all_lattices, filtered
from latcheck.errors import NotDistributive
from latcheck.laws import (
    Check,
    dilworth_bound_holds,
    distributive,
    doubly_reducible_elements,
    holds,
    is_finite_free_sublattice,
    law_profile,
    length,
    modular,
    semidistributive,
    whitman,
)

from oracles import distributive_oracle, doubly_reducible_oracle, whitman_scan_oracle


def hourglass():
    """Seven elements with a doubly reducible middle: two incomparable atoms
    join to m, two incomparable coatoms meet to m."""
    return build_lattice(CoverDiagram(
        ("0", "a", "b", "m", "c", "d", "1"),
        (("0", "a"), ("0", "b"), ("a", "m"), ("b", "m"),
         ("m", "c"), ("m", "d"), ("c", "1"), ("d", "1")),
    ))


def test_whitman_chain():
    assert whitman(catalog.chain(5))


def test_whitman_m3():
    assert whitman(catalog.get("M3"))


def test_whitman_fails_on_doubly_reducible_middle():
    L = hourglass()
    res = whitman(L)
    assert not res
    a, b, c, d = res.witness
    j = L.join[c][d]
    m = L.meet[a][b]
    assert L.leq(m, j)
    assert not L.leq(a, j) and not L.leq(b, j)
    assert not L.leq(m, c) and not L.leq(m, d)
    # the canonical witness pairs the coatoms against the atoms
    assert {L.labels[a], L.labels[b]} == {"c", "d"}
    assert {L.labels[c], L.labels[d]} == {"a", "b"}


def test_semidistributive_m3_fails_both():
    sd_join, sd_meet = semidistributive(catalog.get("M3"))
    assert not sd_join and not sd_meet
    assert sd_join.witness is not None and sd_meet.witness is not None


def test_semidistributive_n5_holds():
    sd_join, sd_meet = semidistributive(catalog.get("N5"))
    assert sd_join and sd_meet


def test_semidistributive_l2_fails():
    sd_join, sd_meet = semidistributive(catalog.get("L2"))
    assert not (sd_join and sd_meet)


def test_distributive_cube():
    assert distributive(catalog.get("B3"))


def test_distributive_matches_two_law_oracle():
    """One law decides distributivity: every lattice with n <= 8 and the
    catalog agree with the referee that tests both, and a failing verdict's
    witness fails the law it tests."""
    lattices = [L for n in range(1, 9) for L in all_lattices(n)]
    lattices += [catalog.get(name) for name in catalog.FIXED_NAMES]
    verdicts = set()
    for L in lattices:
        check = distributive(L)
        assert bool(check) == distributive_oracle(L), L.labels
        verdicts.add(bool(check))
        if not check:
            a, b, c = check.witness
            assert L.join[a][L.meet[b][c]] != L.meet[L.join[a][b]][L.join[a][c]]
    assert verdicts == {True, False}


def test_n5_not_modular():
    assert not modular(catalog.get("N5"))


def test_m3_modular_not_distributive():
    m3 = catalog.get("M3")
    assert modular(m3)
    assert not distributive(m3)


def test_structural_verdicts_match_scans():
    """The W verdict equals the quadruple scan, the kappa verdicts the triple
    scans of the two semidistributive laws, the rank verdict the modular
    scan and the distributive verdict the distributive scan, on every
    lattice with n <= 9, the catalog, ninf(2..8), grid(2,2..11) and their
    duals; each law both holds and fails there.  W's witness, read off the
    marks, is the quadruple the scan finds first."""
    lattices = [L for n in range(1, 10) for L in all_lattices(n)]
    lattices += [catalog.get(name) for name in catalog.FIXED_NAMES]
    lattices += [catalog.ninf(k) for k in range(2, 9)] + [catalog.grid(k) for k in range(2, 12)]
    lattices += [dual(L) for L in lattices]
    laws_ = ("whitman", "sd_join", "sd_meet", "modular", "distributive")
    seen = set()
    for L in lattices:
        scans = (whitman_scan_oracle(L), laws._sd_check(L.n, L.join, L.meet),
                 laws._sd_check(L.n, L.meet, L.join), laws._modular_scan(L),
                 laws._distributive_on(L, range(L.n)))
        verdicts = tuple(laws.holds(L, law) for law in laws_)
        assert verdicts == tuple(map(bool, scans)), L.labels
        assert laws._whitman_witness(L) == scans[0], L.labels
        seen |= set(enumerate(verdicts))
    assert len(seen) == 2 * len(laws_)


def test_large_host_decided_without_scans(monkeypatch):
    """chain(200) x chain(2), n = 400: all five laws are decided by the
    verdicts alone, and no scan runs."""
    def scan(*args):
        raise AssertionError("a witness scan ran")

    for name in ("_whitman_witness", "_sd_check", "_modular_scan", "_distributive_on"):
        monkeypatch.setattr(laws, name, scan)
    L = direct_product(catalog.chain(200), catalog.chain(2))
    assert L.n == 400
    sd_join, sd_meet = semidistributive(L)
    assert whitman(L) and sd_join and sd_meet and modular(L) and distributive(L)


def test_doubly_reducible_n5_chain_empty():
    assert doubly_reducible_elements(catalog.get("N5")) == ()
    assert doubly_reducible_elements(catalog.chain(6)) == ()


def test_doubly_reducible_cube4():
    b4 = direct_product(catalog.chain(2), catalog.get("B3"))
    dr = doubly_reducible_elements(b4)
    # exactly the six rank-2 elements of the 4-cube
    assert len(dr) == 6
    h = b4.heights()
    assert all(h[e] == 2 for e in dr)


def test_doubly_reducible_from_covers_matches_pair_scan():
    lattices = [L for n in range(1, 9) for L in all_lattices(n)]
    lattices += [catalog.get(name) for name in catalog.FIXED_NAMES]
    lattices += [catalog.grid(7), catalog.ninf(6), hourglass()]
    for L in lattices:
        assert doubly_reducible_elements(L) == doubly_reducible_oracle(L)
    assert doubly_reducible_elements(hourglass()) == (hourglass().index_of("m"),)


def test_whitman_forbids_doubly_reducible_elements():
    """A lattice satisfying W has no doubly reducible element: on every
    lattice with n <= 9, the catalog and their duals, W holds only where
    doubly_reducible_elements is empty, and both verdicts occur."""
    lattices = [L for n in range(1, 10) for L in all_lattices(n)]
    lattices += [catalog.get(name) for name in catalog.FIXED_NAMES]
    seen = set()
    for L in lattices + [dual(L) for L in lattices]:
        w = holds(L, "whitman")
        if w:
            assert doubly_reducible_elements(L) == (), L.labels
        seen.add(w)
    assert seen == {True, False}


def test_whitman_decided_once_per_lattice(monkeypatch):
    """run_profile gates cube, dec_bound and degeneracy on W: it and
    law_profile compute the W verdict once per lattice and run no scan;
    whitman() then runs the scan once, and only when W fails."""
    verdicts, scans = [], []

    def spy(calls, real):
        def wrapper(L):
            calls.append(L)
            return real(L)
        return wrapper

    scan = laws._whitman_witness
    monkeypatch.setattr(laws, "_whitman_holds", spy(verdicts, laws._whitman_holds))
    monkeypatch.setattr(laws, "_whitman_witness", spy(scans, scan))
    seen = set()
    for L in [*all_lattices(6), catalog.get("L9"), catalog.get("M3"), hourglass()]:
        fresh = FiniteLattice(L.labels, L.up)
        theorems.run_profile(fresh, "N-full")
        law_profile(fresh)
        assert verdicts == [fresh] and scans == []
        check = whitman(fresh)
        assert whitman(fresh) == check == scan(fresh)
        assert scans == ([] if check else [fresh])
        seen.add(bool(check))
        verdicts.clear()
        scans.clear()
    assert seen == {True, False}


def test_gates_filters_and_profiles_run_no_scan(monkeypatch):
    """On the lattices with n <= 7 and the catalog, run_profile (on those
    failing W), law_profile, the whitman and distributive filters and
    gj_classify (on those failing distributivity) read verdicts only: no
    W or distributive scan runs."""
    def scan(*args):
        raise AssertionError("a witness scan ran")

    lattices = [L for n in range(1, 8) for L in all_lattices(n)]
    lattices += [catalog.get(name) for name in catalog.FIXED_NAMES]
    monkeypatch.setattr(laws, "_whitman_witness", scan)
    monkeypatch.setattr(laws, "_distributive_on", scan)
    failing = {"whitman": 0, "distributive": 0}
    for L in lattices:
        law_profile(L)
        if not holds(L, "whitman"):
            theorems.run_profile(L, "N-full")
            failing["whitman"] += 1
        if not holds(L, "distributive"):
            with pytest.raises(NotDistributive):
                gj_classify(L)
            failing["distributive"] += 1
    assert all(failing.values())
    assert list(filtered(7, ["whitman", "distributive"]))


def test_cached_verdicts_keep_their_own_entries():
    """``holds(L, "modular")`` and ``modular(L)`` are kept apart in the memo,
    as are the two laws' verdicts: each returns its own value, whichever
    is asked first."""
    n5 = catalog.get("N5")
    for first in ("holds", "modular"):
        L = FiniteLattice(n5.labels, n5.up)
        if first == "holds":
            assert holds(L, "modular") is False
        check = modular(L)
        assert isinstance(check, Check) and not check and check.witness is not None
        assert holds(L, "modular") is False
        assert holds(L, "sd_join") is True and holds(L, "sd_meet") is True
        assert modular(L) is check


def test_length_values():
    assert length(catalog.chain(7)) == 7
    assert length(catalog.get("N5")) == 4
    assert length(catalog.get("B3")) == 4


def test_dilworth_bound():
    assert dilworth_bound_holds(catalog.get("N5"))  # 5 <= 2^3
    assert dilworth_bound_holds(catalog.get("B3"))  # 8 <= 2^3, equality
    assert dilworth_bound_holds(catalog.get("M3"))  # not SD, vacuous


def test_free_sublattice_test():
    assert is_finite_free_sublattice(catalog.get("N5"))
    assert not is_finite_free_sublattice(catalog.get("M3"))
    assert is_finite_free_sublattice(catalog.get("B3"))


def test_law_profile_consistency_catalog():
    for name in catalog.FIXED_NAMES:
        L = catalog.get(name)
        p = law_profile(L)
        if p.distributive:
            assert p.modular
            assert p.sd_join and p.sd_meet
        if p.modular:
            assert embed.find_embedding(catalog.get("N5"), L) is None
        if p.whitman:
            assert p.doubly_reducible == ()
        assert p.free_sublattice_finite == (p.whitman and p.sd_join and p.sd_meet)
        if p.sd_join and p.sd_meet:
            assert L.n <= 2 ** (p.length - 1)


def test_predicates_dual_and_iso_invariant_on_catalog():
    for name in ("M3", "N5", "L3", "L7", "L13", "B3", "stacked_n5"):
        L = catalog.get(name)
        D = dual(L)
        p, q = law_profile(L), law_profile(D)
        assert p.whitman == q.whitman
        assert p.sd_join == q.sd_meet and p.sd_meet == q.sd_join
        assert p.distributive == q.distributive
        assert p.modular == q.modular
        assert p.length == q.length
        assert len(p.doubly_reducible) == len(q.doubly_reducible)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["M3", "N5", "L4", "L9", "B3"]), st.randoms(use_true_random=False))
def test_predicates_stable_under_relabelling(name, rng):
    L = catalog.get(name)
    perm = list(range(L.n))
    rng.shuffle(perm)
    covers = [(L.labels[perm[a]], L.labels[perm[b]]) for a, b in L.cover_pairs()]
    elems = [L.labels[perm[a]] for a in range(L.n)]
    M = build_lattice(CoverDiagram(tuple(elems), tuple(covers)))
    p, q = law_profile(L), law_profile(M)
    assert (p.whitman, p.sd_join, p.sd_meet, p.distributive, p.modular, p.length) == (
        q.whitman, q.sd_join, q.sd_meet, q.distributive, q.modular, q.length
    )
