"""Theorem verification machinery: witness constructions, vacuity and skip
reporting, dual consistency, profile gating; reports, Dec searches and
semidistributivity witnesses pinned against digests and oracles."""

import hashlib
import itertools
import json

import pytest

from latcheck import catalog, core, embed, laws, theorems, variety
from latcheck.core import (dual, are_isomorphic, canonical_form, direct_product, induced,
                           iter_bits)
from latcheck.decomp import dec, minimum_distributive_partitions, sublattice_dec
from latcheck.enumeration import all_lattices
from latcheck.errors import (HypothesisViolated, LatcheckError, SearchBudgetExceeded,
                             UnknownProfile)

from oracles import (cube_oracle, dec_oracle, distributive_oracle, l15_lemma_oracle,
                     minimum_distributive_partitions_oracle, staircase_oracle,
                     sublattice_masks_oracle, twelve_element_oracle)
from test_negative_controls import ALWAYS, grid_plus_times_2, interleaved_chains


def l15_self_tuple():
    l15 = catalog.get("L15")
    i = l15.index_of
    return l15, (i("h"), i("e"), i("b"), i("i"), i("g"), i("c"))


def test_l15_witness_identity_image():
    l15, tup = l15_self_tuple()
    w = theorems.lemma_l15_witness(l15, tup)
    assert w.is_valid()
    assert sorted(w.map) == list(range(10))
    assert embed.find_embedding(catalog.get("L15"), l15) is not None


def test_l15_witness_rejects_bad_tuple():
    l15, tup = l15_self_tuple()
    bad = (tup[1], tup[0]) + tup[2:]  # breaks a1 < a2
    with pytest.raises(HypothesisViolated):
        theorems.lemma_l15_witness(l15, bad)
    with pytest.raises(HypothesisViolated):
        theorems.lemma_l15_witness(l15, (tup[0],) * 6)
    for bad in (tup[:5], tup + (0,), (99,) + tup[1:], (-1,) + tup[1:]):
        with pytest.raises(HypothesisViolated):
            theorems.lemma_l15_witness(l15, bad)


def _rejects(witness, *args):
    """Whether ``witness(*args)`` raises HypothesisViolated; any other
    LatcheckError is a failed construction on a tuple that met the
    hypothesis."""
    try:
        witness(*args)
    except HypothesisViolated:
        return True
    except LatcheckError:
        pass
    return False


def test_l15_witness_checks_the_configuration():
    """lemma_l15_witness rejects exactly the six-tuples of distinct elements
    that are not matches of the L15 check's configuration, by brute force
    on two hosts where the hypothesis holds."""
    for L in (interleaved_chains(), catalog.get("L15")):
        matches = {(a1, a2, a3, b1, b2, b3) for a2, b2, _, _, a3, b3, a1, b1
                   in embed.iter_matches(theorems._L15_HYPOTHESIS, L)}
        accepted = {t for t in itertools.permutations(range(L.n), 6)
                    if not _rejects(theorems.lemma_l15_witness, L, t)}
        assert accepted == matches
        assert matches


def test_cube_witness_checks_the_configuration():
    """boolean_cube_witness rejects exactly the (triple, d) of B3 whose
    sorted triple and d are not a match of the cube check's size-3
    configuration (B3's constant-meet triples have distinct joins)."""
    b3 = catalog.get("B3")
    matches = {((y0, y1, y2), d)
               for y0, y1, d, y2 in embed.iter_matches(theorems._CUBE_HYPOTHESES[3], b3)}
    accepted = {(tuple(sorted(t)), d) for *t, d in itertools.product(range(b3.n), repeat=4)
                if not _rejects(theorems.boolean_cube_witness, b3, t, d)}
    assert accepted == matches
    assert matches


def test_l15_check_vacuous_on_pentagon_and_cube():
    for name in ("N5", "B3"):
        rep = theorems.lemma_l15_check(catalog.get(name))
        assert rep.vacuous and rep.holds and not rep.skipped


def test_l15_check_on_l15_itself():
    rep = theorems.lemma_l15_check(catalog.get("L15"))
    assert not rep.skipped
    assert rep.hypothesis_instances > 0
    assert rep.holds


def test_l15_check_skips_doubly_reducible():
    b4 = catalog.get("B3")
    from latcheck.core import direct_product
    from latcheck.catalog import chain
    rep = theorems.lemma_l15_check(direct_product(chain(2), b4))
    assert rep.skipped
    assert "doubly reducible" in rep.skip_reason


def test_cube_check_on_cube():
    rep = theorems.cube_theorem_check(catalog.get("B3"), name="B3")
    assert rep.holds and not rep.vacuous
    assert rep.hypothesis_instances == 2  # the atoms and the coatoms


def test_cube_check_pentagon_vacuous():
    rep = theorems.cube_theorem_check(catalog.get("N5"))
    assert rep.holds and rep.vacuous


def test_unnamed_report_past_255_elements():
    # an unnamed report is named by its canonical form, whose one-byte size
    # raised ValueError from 256 elements
    rep = theorems.run_check(catalog.grid(130), "cube")
    assert rep.lattice == "sha:" + canonical_form(catalog.grid(130)).hex()[:16]
    assert rep.lattice.startswith("sha:ff0104") and rep.holds


def test_cube_witness_on_cube_atoms():
    b3 = catalog.get("B3")
    i = b3.index_of
    w = theorems.boolean_cube_witness(b3, (i("a"), i("b"), i("c")), i("0"))
    assert w.is_valid()
    assert sorted(w.map) == list(range(8))
    d = i("0")
    stars = [w.map[b3.index_of(k)] for k in ("a", "b", "c")]
    for p in range(3):
        for q in range(p + 1, 3):
            assert b3.meet[stars[p]][stars[q]] == d


def test_cube_witness_hypothesis_violations():
    b3 = catalog.get("B3")
    i = b3.index_of
    with pytest.raises(HypothesisViolated):
        theorems.boolean_cube_witness(b3, (i("a"), i("b"), i("ab")), i("0"))
    with pytest.raises(HypothesisViolated):
        theorems.boolean_cube_witness(b3, (i("a"), i("b"), i("c")), i("abc"))
    m3 = catalog.get("M3")
    with pytest.raises(HypothesisViolated):
        theorems.boolean_cube_witness(m3, (1, 2, 3), m3.bottom)
    a, b, c, d = i("a"), i("b"), i("c"), i("0")
    for triple, bound in (((a, b), d), ((a, b, c, i("ab")), d), ((a, b, 99), d),
                          ((a, b, -1), d), ((a, b, c), 99), ((a, b, c), -1)):
        with pytest.raises(HypothesisViolated):
            theorems.boolean_cube_witness(b3, triple, bound)


def test_dec_bound_pentagon_side():
    n5 = catalog.get("N5")
    rep = theorems.dec_bound_check(n5, name="N5")
    assert rep.holds and rep.hypothesis_instances > 0
    # the K = {x3, x4}, a = x2 instance appears with bound 1
    i = n5.index_of
    joins = {n5.join[i("x2")][b] for b in (i("x3"), i("x4"))}
    meets = {n5.meet[i("x2")][b] for b in (i("x3"), i("x4"))}
    assert joins == {i("x1")} and meets == {i("x5")}


def test_degeneracy_pentagon():
    rep = theorems.degeneracy_lemma_check(catalog.get("N5"))
    assert rep.holds and rep.hypothesis_instances > 0


def test_sublattice_checks_past_twelve_elements():
    """In V(N5), with W, and once refused by a 12-element cap: every
    (K, a) pair the subset scan finds is one hypothesis instance."""
    for L, counts in ((catalog.grid(7), (240, 112)), (catalog.grid(8), (494, 168)),
                      (catalog.ninf(5), (1033, 65))):
        for cid, convex, count in (("dec_bound", False, counts[0]),
                                   ("degeneracy", True, counts[1])):
            expected = sum(
                all(L.incomparable(a, b) for b in iter_bits(K))
                for K in sublattice_masks_oracle(L, convex) for a in range(L.n))
            rep = theorems.run_check(L, cid)
            assert not rep.skipped
            assert rep.hypothesis_instances == expected == count
            assert rep.holds


# each check id with a host its gates let through; degeneracy is absent: it
# lists intervals directly and runs no search
BUDGET_CASES = [("l15_lemma", "L15"), ("cube", "B3"), ("cube_dual", "B3"),
                ("cube_join_cover", "grid(2,7)"), ("cube_meet_cover", "grid(2,7)"),
                ("dec_bound", "ninf(6)"), ("twelve_element", "grid(2,6)"),
                ("staircase", "grid(2,7)"), ("staircase_dual", "grid(2,7)")]


def _spent(call):
    """Nodes that ``call(budget)`` spends."""
    nodes = core._Budget(10**9)
    call(nodes)
    return nodes.total - nodes.left


@pytest.mark.parametrize("cid, host", BUDGET_CASES, ids=[c[0] for c in BUDGET_CASES])
def test_sublattice_check_budget(cid, host):
    """A check that its gates let through raises one node short of the
    nodes it spends."""
    L = catalog.get(host)
    reports = []
    nodes = _spent(lambda b: reports.append(theorems.run_check(L, cid, name=host, budget=b)))
    assert not reports[0].skipped
    with pytest.raises(SearchBudgetExceeded) as exc:
        theorems.run_check(L, cid, name=host, budget=nodes - 1)
    assert exc.value.budget == nodes - 1


def test_hypothesis_searches_spend_one_node_per_candidate():
    """Pinned node counts of two hypothesis searches: the staircase on the
    2 x 15 grid, with 5,005 instances, and the cube check on B3, whose four
    searches charged 880 nodes when every feasible image was charged."""
    for check, L, nodes in ((theorems.staircase_cover_check, catalog.grid(15), 20_561),
                            (theorems.cube_theorem_check, catalog.get("B3"), 112)):
        assert _spent(lambda b: check(L, budget=b)) == nodes


def _shared_budget_cases():
    """Per public call, a callable of a budget and each search it runs, as a
    callable of a budget: the cube check's four forms and sizes, the L15
    lemma's hypothesis and L15 searches, the Dec bound on L6 with the
    membership gate lifted, whose searches are the closure scan and the
    Dec(K) of each non-distributive K (L6 has one, its N5 copy), profile N
    on N5 x N5, which skips M3 and L1-L5, and the cor62 profile run on
    ninf(4): its forbidden-pattern gate and three checks."""
    grid, l15, l6 = catalog.grid(7), catalog.get("L15"), catalog.get("L6")
    n5 = catalog.get("N5")
    n5_squared = direct_product(n5, n5)
    loose = [induced(l6, K) for K, _ in theorems._loose_sublattices(l6, False, core._Budget())]
    ninf4, cor62 = catalog.ninf(4), theorems.PROFILE_CHECKS["cor62"]
    return {
        "cube": (lambda b: theorems.cube_theorem_check(grid, budget=b),
                 [lambda b, K=K, size=size: list(embed.iter_matches(
                     theorems._CUBE_HYPOTHESES[size], K, b))
                  for K in (grid, dual(grid)) for size in (3, 4)]),
        "l15_lemma": (lambda b: theorems.lemma_l15_check(l15, budget=b),
                      [lambda b: list(embed.iter_matches(theorems._L15_HYPOTHESIS, l15, b)),
                       lambda b: embed.find_embedding(l15, l15, b)]),
        "dec_bound": (lambda b: theorems.dec_bound_check(l6, budget=b, membership=ALWAYS),
                      [lambda b: theorems._loose_sublattices(l6, False, b)]
                      + [lambda b, K=K: dec(K, b) for K in loose if not distributive_oracle(K)]),
        "contains_forbidden": (
            lambda b: embed.contains_forbidden(n5_squared, embed.profile("N"), b),
            [lambda b, i=i: embed.find_embedding(catalog.get(f"L{i}"), n5_squared, b)
             for i in range(6, 16)]),
        "run_profile": (
            lambda b: theorems.run_profile(ninf4, "cor62", budget=b),
            [lambda b: theorems.profile_membership(embed.profile("cor62"))(ninf4, b)]
            + [lambda b, cid=cid: theorems.run_check(ninf4, cid, budget=b,
                                                     membership=lambda _L: (True, None))
               for cid in cor62[1]]),
    }


@pytest.mark.parametrize("case", ["cube", "l15_lemma", "dec_bound", "contains_forbidden",
                                  "run_profile"])
def test_searches_of_one_call_share_one_budget(case):
    """One public call spends one budget on all its searches: it spends
    their sum, so a budget that covers the largest of them alone raises,
    and the sum completes."""
    call, searches = _shared_budget_cases()[case]
    spent = [_spent(search) for search in searches]
    assert len(spent) >= 2 and _spent(call) == sum(spent)
    call(sum(spent))
    with pytest.raises(SearchBudgetExceeded):
        call(max(spent))


def test_profile_run_spends_one_budget():
    """A budget bounds a whole profile run: the seven N-full checks on the
    2 x 7 grid spend 1,931 nodes in all, the Dec bound 642 of them, its
    closure scan alone, as every sublattice K it reads on the grid is
    distributive."""
    grid = catalog.grid(7)
    assert len(theorems.run_profile(grid, "N-full", budget=1931)) == 7
    with pytest.raises(SearchBudgetExceeded) as exc:
        theorems.run_profile(grid, "N-full", budget=1930)
    assert exc.value.budget == 1930


def test_hypothesis_configurations_match_oracles(monkeypatch):
    """With the doubly reducible, Whitman and membership gates lifted, each
    check that finds its hypothesis with a configuration reports the
    instances and violations of the loop it replaced, in the same order, on
    every lattice with n <= 8, the catalog, the 2 x k grids for k = 5..10,
    shape_2x5_plus x 2, and their duals."""
    monkeypatch.setattr(theorems.laws, "doubly_reducible_elements", lambda L: ())
    holds = theorems.laws.holds
    monkeypatch.setattr(theorems.laws, "holds", lambda L, law: law == "whitman" or holds(L, law))
    hosts = [L for n in range(1, 9) for L in all_lattices(n)]
    hosts += [catalog.get(name) for name in catalog.FIXED_NAMES]
    hosts += [catalog.grid(k) for k in range(5, 11)] + [grid_plus_times_2()]
    hosts += [dual(L) for L in hosts]
    referees = {"l15_lemma": l15_lemma_oracle, "twelve_element": twelve_element_oracle,
                "staircase": staircase_oracle,
                "staircase_dual": lambda L: staircase_oracle(dual(L)),
                "cube": cube_oracle, "cube_dual": lambda L: cube_oracle(dual(L)),
                "cube_join_cover": lambda L: cube_oracle(L, ("join",), (3,)),
                "cube_meet_cover": lambda L: cube_oracle(L, ("meet",), (3,))}
    instances = dict.fromkeys(referees, 0)
    for L in hosts:
        for cid, oracle in referees.items():
            rep = theorems.run_check(L, cid, name="host", membership=ALWAYS)
            assert (rep.hypothesis_instances, rep.conclusion_violations) == oracle(L), cid
            instances[cid] += rep.hypothesis_instances
    assert all(instances.values()), instances


def test_twelve_element_grid_itself():
    rep = theorems.twelve_element_lemma_check(catalog.grid(5), name="grid(2,5)")
    assert rep.holds
    assert rep.hypothesis_instances == 0  # no interior point exists
    assert rep.vacuous


def test_twelve_element_chain_vacuous():
    rep = theorems.twelve_element_lemma_check(catalog.chain(6))
    assert rep.vacuous and rep.holds


def test_twelve_element_shape_is_gated_out():
    """The twelve-element configuration lattice itself must fail the variety
    hypothesis, otherwise it would witness a violation."""
    shape = catalog.get("shape_2x5_plus")
    from latcheck.laws import doubly_reducible_elements
    assert doubly_reducible_elements(shape) == ()
    rep = theorems.twelve_element_lemma_check(shape)
    assert rep.skipped
    assert "pentagon variety" in rep.skip_reason


def test_staircase_grid_instance_no_violation():
    rep = theorems.staircase_cover_check(catalog.grid(7), name="grid(2,7)")
    assert rep.holds
    assert rep.hypothesis_instances > 0
    assert not rep.vacuous


def test_staircase_chain_vacuous():
    rep = theorems.staircase_cover_check(catalog.chain(6))
    assert rep.vacuous and rep.holds


def test_staircase_dual_on_dual_mirrors():
    g = catalog.grid(7)
    rep = theorems.staircase_cover_check(g)
    rep_dual_form = theorems.staircase_cover_check(dual(g), dual_form=True)
    assert rep.hypothesis_instances == rep_dual_form.hypothesis_instances
    assert rep.holds == rep_dual_form.holds


def test_dual_consistency_of_cube_check():
    for name in ("B3", "stacked_n5", "ninf(2)", "grid(2,3)"):
        L = catalog.get(name)
        a = theorems.cube_theorem_check(L)
        b = theorems.cube_theorem_check(dual(L))
        assert a.hypothesis_instances == b.hypothesis_instances
        assert a.holds == b.holds


def test_unnamed_reports_name_the_input_lattice():
    """Without a name, every check's report on L7 names L7 itself, the two
    dual forms included."""
    L = catalog.get("L7")
    names = {theorems.run_check(L, cid).lattice for cid in theorems.ALL_CHECK_IDS}
    assert names == {"sha:" + canonical_form(L).hex()[:16]}


def test_run_profile_n_full_stacked():
    reps = theorems.run_profile(catalog.get("stacked_n5"), "N-full", name="stacked_n5")
    assert len(reps) == 7
    assert all(r.holds for r in reps)
    by_id = {r.theorem: r for r in reps}
    assert by_id["dec_bound"].hypothesis_instances > 0


def test_run_profile_gate_skips_with_reason():
    host = catalog.get("L9")
    reps = theorems.run_profile(host, "cor62", name="L9")
    assert all(r.skipped for r in reps)
    assert all("L9" in r.skip_reason for r in reps)


def test_run_profile_cor65_on_cube():
    reps = theorems.run_profile(catalog.get("B3"), "cor65", name="B3")
    assert {r.theorem for r in reps} == {"dec_bound", "staircase", "staircase_dual",
                                         "cube_join_cover"}
    assert all(r.holds for r in reps)


def test_run_profile_unknown():
    with pytest.raises(UnknownProfile):
        theorems.run_profile(catalog.get("N5"), "cor99")
    with pytest.raises(UnknownProfile):
        theorems.run_check(catalog.get("N5"), "nope")


def test_skip_never_counts_as_pass_or_vacuous():
    rep = theorems.cube_theorem_check(catalog.get("M3"))
    assert rep.skipped and not rep.vacuous
    assert not rep.holds


def test_report_serialization():
    rep = theorems.cube_theorem_check(catalog.get("B3"), name="B3")
    d = rep.to_dict()
    assert d["theorem"] == "cube" and d["lattice"] == "B3"
    assert d["skipped"] is False
    import json
    json.dumps(d)


# sha256 over the JSON of every report below, and over the semidistributive
# witnesses of every lattice with n <= 8; recorded from an earlier
# implementation, so a change to any report or witness must update them
REPORTS_SHA256 = "8f9e27619732da6def96d8bdcc5cecffb04871b59a95f9b2462143a1623fd7dc"
SD_WITNESSES_SHA256 = "f6331ddfa42865da82693773d4d063457b14acb2e4d85703313a5e3d3628ca5a"
PINNED_NAMES = ("N5", "M3", "B3", "stacked_n5") + catalog.MCKENZIE_NAMES


def test_reports_pinned():
    """Every profile and every single check over the lattices with n <= 7
    and the named catalog lattices (97 lattices, 3,201 reports)."""
    lattices = [(f"n{n}#{k}", L) for n in range(1, 8) for k, L in enumerate(all_lattices(n))]
    lattices += [(name, catalog.get(name)) for name in PINNED_NAMES]
    digest = hashlib.sha256()
    fired = dict.fromkeys(theorems.ALL_CHECK_IDS, 0)
    count = 0
    for name, L in lattices:
        reports = [r for prof in theorems.PROFILE_CHECKS
                   for r in theorems.run_profile(L, prof, name=name)]
        reports += [theorems.run_check(L, cid, name=name) for cid in theorems.ALL_CHECK_IDS]
        for r in reports:
            digest.update(json.dumps(r.to_dict(), sort_keys=True).encode())
            fired[r.theorem] += r.hypothesis_instances > 0
            count += 1
    assert (len(lattices), count) == (97, 3201)
    # the one-sided cube checks run with live instances, not vacuously
    assert fired["cube_join_cover"] == fired["cube_meet_cover"] == 3
    assert digest.hexdigest() == REPORTS_SHA256


def test_dec_searches_match_oracles():
    for n in range(1, 7):
        for L in all_lattices(n):
            k, witness = dec(L)
            assert k == dec_oracle(L) == len(witness)
            parts = minimum_distributive_partitions(L)
            assert parts == sorted(parts, key=lambda p: p.encoding())
            assert witness in parts
            as_sets = [frozenset(p.blocks) for p in parts]
            assert len(set(as_sets)) == len(as_sets)
            assert set(as_sets) == minimum_distributive_partitions_oracle(L)


def test_sublattice_dec_matches_the_search_on_every_loose_sublattice():
    """On every sublattice K the Dec bound reads (one with an element
    incomparable to all of it), over the W lattices with n <= 8, L6-L15 and
    ninf(1..5): Dec(K) read without a search equals the Dec search on
    induced(L, K), and it is 1 iff the referee finds K distributive.  The
    Dec bound's report equals one computed with the search, and some K
    of L6 is not distributive."""
    hosts = [L for n in range(1, 9) for L in all_lattices(n) if laws.holds(L, "whitman")]
    hosts += [catalog.get(f"L{i}") for i in range(6, 16)] + [catalog.ninf(k) for k in range(1, 6)]
    nondistributive = set()
    for L in hosts:
        violations = []
        for K, loose in theorems._loose_sublattices(L, False, core._Budget()):
            block = induced(L, K)
            value = sublattice_dec(L, K)
            assert value == dec(block)[0]
            assert (value == 1) == distributive_oracle(block)
            if value > 1:
                nondistributive.add(L.labels)
            for a in loose:
                bound = len({L.join[a][b] for b in K}) * len({L.meet[a][b] for b in K})
                if value > bound:
                    violations.append((L.labels[a], tuple(L.labels[e] for e in K), value, bound))
        rep = theorems.dec_bound_check(L, membership=ALWAYS)
        assert rep.conclusion_violations == violations
    assert catalog.get("L6").labels in nondistributive


def test_pentagon_variety_members_have_no_nondistributive_loose_sublattice():
    """An observed fact, not a theorem: no W member of V(N5) with n <= 9 has
    a non-distributive sublattice K with an element incomparable to all of
    K, over 3,022 such K, while 44 W non-members have one.  So inside the
    paper's domain the Dec bound runs no Dec search here."""
    members, nonmembers, loose_in_members = set(), set(), 0
    for n in range(1, 10):
        for L in all_lattices(n):
            if not laws.holds(L, "whitman"):
                continue
            member = bool(variety.in_n5_variety(L))
            for K, _ in theorems._loose_sublattices(L, False, core._Budget()):
                loose_in_members += member
                if len(K) >= 5 and not distributive_oracle(induced(L, K)):
                    (members if member else nonmembers).add(L)
    assert (len(members), len(nonmembers), loose_in_members) == (0, 44, 3022)


def test_semidistributive_witnesses_pinned():
    digest = hashlib.sha256()
    for n in range(1, 9):
        for L in all_lattices(n):
            checks = laws.semidistributive(L)
            digest.update(repr([(c.holds, c.witness) for c in checks]).encode())
    assert digest.hexdigest() == SD_WITNESSES_SHA256


def test_check_table_calls_module_attributes(monkeypatch):
    """Rebinding a check function on the module (as a tracer does) reaches
    run_profile and run_check."""
    calls = []
    real = theorems.cube_theorem_check

    def spy(L, *args, **kwargs):
        calls.append(kwargs.get("theorem_id", "cube"))
        return real(L, *args, **kwargs)

    monkeypatch.setattr(theorems, "cube_theorem_check", spy)
    b3 = catalog.get("B3")
    theorems.run_profile(b3, "cor65", name="B3")
    for cid in ("cube", "cube_dual", "cube_meet_cover"):
        theorems.run_check(b3, cid, name="B3")
    assert calls == ["cube_join_cover", "cube", "cube_dual", "cube_meet_cover"]
