"""Negative controls: each check, run with its membership gate forced
open, reports a pinned violation on a lattice outside the pentagon
variety, and the real gate skips that lattice.  A check that can never
report a violation would pass these lattices silently."""

import pytest

from latcheck import catalog, theorems
from latcheck.core import CoverDiagram, build_lattice

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
