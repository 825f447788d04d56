"""Negative controls: each check, run with its membership gate forced
open, reports a pinned violation on a lattice outside the pentagon
variety, and the real gate skips that lattice.  The checks that also
require no doubly reducible element get the same treatment with that gate
lifted.  A check that can never report a violation would pass these
lattices silently."""

import pytest

from latcheck import catalog, theorems
from latcheck.core import CoverDiagram, build_lattice, direct_product, dual

ALWAYS = lambda L: (True, None)


def m4():
    """The diamond with four atoms: it satisfies W and has no doubly
    reducible element, so only the variety gate keeps the cube checks off
    its size-4 antichain."""
    return build_lattice(CoverDiagram(
        ("0", "a", "b", "c", "d", "1"),
        tuple(("0", x) for x in "abcd") + tuple((x, "1") for x in "abcd"),
    ))


def stretched_m3():
    """M3 with each atom x split into a covering pair x' < x: 0 < x' < x < 1
    for x in {a, b, c}.  It satisfies W and has no doubly reducible element,
    and M3 is a sublattice, so again only the variety gate applies; no
    element of the antichain {a', b', c'} is covered by 1, and none of
    {a, b, c} covers 0."""
    return build_lattice(CoverDiagram(
        ("0", "a'", "b'", "c'", "a", "b", "c", "1"),
        tuple(("0", x + "'") for x in "abc") + tuple((x + "'", x) for x in "abc")
        + tuple((x, "1") for x in "abc"),
    ))


def interleaved_chains():
    """all_lattices(9)[808]: two chains e1 < e3 < e6 and e2 < e4 < e7
    bridged by e5 = e1 v e2, which is doubly reducible.  It lies in the
    pentagon variety and is semidistributive but fails W."""
    covers = ((0, 1), (0, 2), (1, 3), (1, 5), (2, 4), (2, 5), (3, 6), (4, 7),
              (5, 6), (5, 7), (6, 8), (7, 8))
    return build_lattice(CoverDiagram(
        tuple(f"e{i}" for i in range(9)), tuple((f"e{a}", f"e{b}") for a, b in covers)))


def grid_plus_times_2():
    """shape_2x5_plus x 2 (n = 24), outside the pentagon variety and with
    doubly reducible elements such as w.c1 and x.c0."""
    return direct_product(catalog.get("shape_2x5_plus"), catalog.chain(2))


HAND_BUILT = {"M4": m4, "M3-stretched": stretched_m3}

# (check id, lattice, hypothesis instances, violations) with the gate open
CASES = [
    ("dec_bound", "L6", 32, [("h", ("b", "c", "d", "e", "f"), 3, 1)]),
    ("dec_bound", "L7", 42, [("f", ("b", "d", "e", "g", "h"), 3, 2)]),
    ("dec_bound", "L8", 42, [("f", ("b", "d", "e", "g", "h"), 3, 2)]),
    ("dec_bound", "L9", 47, [("h", ("b", "d", "e", "f", "g"), 3, 2)]),
    ("dec_bound", "L10", 47, [("h", ("b", "d", "e", "f", "g"), 3, 2)]),
    ("degeneracy", "L6", 23, [("h", ("b", "c", "d", "e", "f"), 1, 1)]),
    ("degeneracy", "L7", 32, [("f", ("b", "d", "e", "g", "h"), 2, 1)]),
    ("degeneracy", "L8", 32, [("f", ("b", "d", "e", "g", "h"), 1, 2)]),
    ("degeneracy", "L9", 37, [("h", ("b", "d", "e", "f", "g"), 2, 1)]),
    ("degeneracy", "L10", 37, [("h", ("b", "d", "e", "f", "g"), 1, 2)]),
    ("degeneracy", "L15", 42, [("g", ("b", "d", "e", "f", "h"), 2, 2),
                               ("e", ("c", "d", "f", "g", "i"), 2, 2)]),
    ("twelve_element", "shape_2x5_plus", 1,
     [("grid with interior points",
       ("w'", "w", "a", "y", "y'", "x'", "x", "b", "z", "z'"), "c", "s")]),
    ("cube", "M4", 10,
     [("meet form: antichain of size 4", ("a", "b", "c", "d"), "0"),
      ("join form: antichain of size 4", ("a", "b", "c", "d"), "1")]),
    ("cube_dual", "M4", 10,
     [("meet form: antichain of size 4", ("a", "b", "c", "d"), "1"),
      ("join form: antichain of size 4", ("a", "b", "c", "d"), "0")]),
    ("cube_join_cover", "M3-stretched", 8,
     [("join form: no element adjacent to the bound", ("a'", "b'", "c'"), "1")]),
    ("cube_meet_cover", "M3-stretched", 8,
     [("meet form: no element adjacent to the bound", ("a", "b", "c"), "0")]),
]


@pytest.mark.parametrize("cid, name, instances, violations", CASES,
                         ids=[f"{c[0]}-{c[1]}" for c in CASES])
def test_check_reports_violation_with_gate_open(cid, name, instances, violations):
    L = HAND_BUILT[name]() if name in HAND_BUILT else catalog.get(name)
    rep = theorems.run_check(L, cid, name=name, membership=ALWAYS)
    assert not rep.skipped and not rep.holds
    assert rep.hypothesis_instances == instances
    assert rep.conclusion_violations == violations

    gated = theorems.run_check(L, cid, name=name)
    assert gated.skipped
    assert gated.skip_reason.startswith("not in the pentagon variety")


# (check id, lattice, hypothesis instances, violations) with the doubly
# reducible gate lifted and the membership gate open
STAIRCASE_VIOLATIONS = [("x'.c0", ("w'.c1", "w.c1", "a.c1", "s.c1", "y'.c1")),
                        ("x'.c0", ("w.c0", "w.c1", "a.c1", "s.c1", "y'.c1")),
                        ("x'.c0", ("w.c0", "a.c0", "a.c1", "s.c1", "y'.c1"))]
DR_HOSTS = {"interleaved-chains": interleaved_chains,
            "2x5_plus*2": grid_plus_times_2,
            "dual(2x5_plus*2)": lambda: dual(grid_plus_times_2())}
DR_CASES = [
    ("l15_lemma", "interleaved-chains", 2,
     [("e1", "e3", "e6", "e2", "e4", "e7"), ("e2", "e4", "e7", "e1", "e3", "e6")]),
    ("staircase", "2x5_plus*2", 33, STAIRCASE_VIOLATIONS),
    ("staircase_dual", "dual(2x5_plus*2)", 33, STAIRCASE_VIOLATIONS),
]


@pytest.mark.parametrize("cid, name, instances, violations", DR_CASES,
                         ids=[f"{c[0]}-{c[1]}" for c in DR_CASES])
def test_check_reports_violation_with_dr_gate_lifted(cid, name, instances, violations,
                                                     monkeypatch):
    L = DR_HOSTS[name]()
    gated = theorems.run_check(L, cid, name=name)
    assert gated.skipped
    assert gated.skip_reason == "has doubly reducible elements"

    # _gate reads the module attribute at call time
    monkeypatch.setattr(theorems.laws, "doubly_reducible_elements", lambda L: ())
    rep = theorems.run_check(L, cid, name=name, membership=ALWAYS)
    assert not rep.skipped and not rep.holds
    assert rep.hypothesis_instances == instances
    assert rep.conclusion_violations == violations
