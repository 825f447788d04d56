"""The record types keep their semantics: field order, defaults, truth
values, equality, hashing and repr, whatever class machinery builds them."""

import pytest

from latcheck import catalog, decomp, laws, theorems, variety
from latcheck.catalog import CatalogEntry
from latcheck.core import CoverDiagram, EmbeddingWitness, build_lattice
from latcheck.decomp import DistributivePartition, GJDecomposition, PartitionCheck
from latcheck.embed import ForbiddenProfile
from latcheck.laws import Check
from latcheck.theorems import TheoremReport
from latcheck.variety import Congruence, VarietyDecision


def test_failed_checks_are_false():
    assert not Check(False) and not Check(False, (0, 1))
    assert Check(True)
    assert not PartitionCheck(False) and not PartitionCheck(False, "convex", ((0,),))
    assert PartitionCheck(True)
    assert not laws.modular(catalog.get("N5")) and laws.modular(catalog.get("M3"))
    assert (Check(False, (0, 1)).holds, Check(False, (0, 1)).witness) == (False, (0, 1))
    assert PartitionCheck(True).clause is None and PartitionCheck(True).involved is None
    assert repr(Check(False, (0, 1))) == "Check(holds=False, witness=(0, 1))"
    assert repr(PartitionCheck(True)) == "PartitionCheck(holds=True, clause=None, involved=None)"


def test_distributive_partition_length_is_block_count():
    p = DistributivePartition.from_blocks([{3, 4}, {0}, {1, 2}])
    assert len(p) == 3 and p.blocks == (frozenset({0}), frozenset({1, 2}), frozenset({3, 4}))
    assert p.encoding() == ((0,), (1, 2), (3, 4))
    assert p == DistributivePartition.from_blocks([[1, 2], [4, 3], [0]])
    assert hash(p) == hash(DistributivePartition.from_blocks([[0], [2, 1], [3, 4]]))
    assert p != DistributivePartition.from_blocks([[0, 1, 2, 3, 4]])
    assert repr(DistributivePartition.from_blocks([[0]])) == \
        "DistributivePartition(blocks=(frozenset({0}),))"
    k, witness = decomp.dec(catalog.get("N5"))
    assert len(witness) == k == 3


def test_cover_diagram_normalises_to_tuples():
    lists = CoverDiagram(["0", "a", "1"], [["0", "a"], ["a", "1"]], name="3")
    tuples = CoverDiagram(("0", "a", "1"), (("0", "a"), ("a", "1")), "3")
    assert lists == tuples and hash(lists) == hash(tuples)
    assert lists.elements == ("0", "a", "1") and lists.covers == (("0", "a"), ("a", "1"))
    assert CoverDiagram(["0"], []).name is None
    assert lists != CoverDiagram(("0", "a", "1"), (("0", "a"), ("a", "1")))
    assert repr(CoverDiagram(["0"], [])) == "CoverDiagram(elements=('0',), covers=(), name=None)"
    with pytest.raises(AttributeError):
        lists.name = "other"


def test_value_records_compare_and_hash_by_fields():
    n5 = catalog.get("N5")
    w = EmbeddingWitness(n5, n5, tuple(range(5)))
    assert w == EmbeddingWitness(n5, n5, tuple(range(5))) and w.is_valid()
    assert hash(w) == hash(EmbeddingWitness(n5, n5, tuple(range(5))))
    assert (w.source, w.target, w.map) == (n5, n5, (0, 1, 2, 3, 4))
    assert Congruence((0, 0, 1)) == Congruence((0, 0, 1)) != Congruence((0, 1, 2))
    assert {Congruence((0, 0, 1)), Congruence((0, 0, 1))} == {Congruence((0, 0, 1))}
    assert Congruence((0, 0, 1)).blocks() == (frozenset({0, 1}), frozenset({2}))
    assert GJDecomposition(((0, 1),), ("chain",)).shapes == ("chain",)
    prof = ForbiddenProfile("x", ("M3",))
    assert prof == ForbiddenProfile("x", ("M3",)) and prof.lattices()[0][0] == "M3"
    p = laws.law_profile(n5)
    assert p == laws.law_profile(build_lattice(catalog.entry("N5").diagram))
    assert (p.whitman, p.sd_join, p.modular, p.length) == (True, True, False, 4)
    with pytest.raises(AttributeError):
        p.whitman = False


def test_catalog_entry_expected_defaults_to_a_fresh_dict():
    d = CoverDiagram(["0"], [])
    a, b = CatalogEntry("one", d), CatalogEntry("one", d)
    assert a.expected == {} and a.expected is not b.expected
    assert a == b and a.build().n == 1
    assert CatalogEntry("one", d, {"modular": True}).expected == {"modular": True}


def test_variety_decision_ignores_the_lattice():
    n5, two = catalog.get("N5"), catalog.get("chain(2)")
    a, b = variety.in_n5_variety(n5), variety.in_n5_variety(two)
    assert a == b and hash(a) == hash(b) and a.lattice is n5
    assert repr(a) == "VarietyDecision(offending_size=None)"
    m3 = variety.in_n5_variety(catalog.get("M3"))
    assert not m3 and m3 != a and repr(m3) == "VarietyDecision(offending_size=5)"
    assert VarietyDecision(two, 5) == m3 and m3.offending.n == 5
    assert a.member and bool(a) and a.offending is None


def test_theorem_report_to_dict_is_an_ordered_deep_copy():
    rep = TheoremReport("cube", "B3")
    assert (rep.hypothesis_instances, rep.conclusion_violations, rep.vacuous, rep.skipped,
            rep.skip_reason, rep.details) == (0, [], False, False, None, {})
    assert rep.conclusion_violations is not TheoremReport("cube", "B3").conclusion_violations
    rep.conclusion_violations.append(("a", ["b", "c"]))
    rep.details["k"] = [1]
    d = rep.to_dict()
    assert list(d) == ["theorem", "lattice", "hypothesis_instances", "conclusion_violations",
                       "vacuous", "skipped", "skip_reason", "details"]
    d["conclusion_violations"][0][1].append("d")
    d["conclusion_violations"].append("e")
    d["details"]["k"].append(2)
    d["details"]["j"] = 0
    assert rep.conclusion_violations == [("a", ["b", "c"])] and rep.details == {"k": [1]}
    assert rep == TheoremReport("cube", "B3", 0, [("a", ["b", "c"])], details={"k": [1]})
    assert rep != TheoremReport("cube", "B3")
    with pytest.raises(TypeError):
        hash(rep)
    assert repr(TheoremReport("x", "y")) == (
        "TheoremReport(theorem='x', lattice='y', hypothesis_instances=0, "
        "conclusion_violations=[], vacuous=False, skipped=False, skip_reason=None, details={})")
    real = theorems.cube_theorem_check(catalog.get("M3"), name="M3")
    assert real.skipped and not real.holds and real.to_dict()["skip_reason"] == real.skip_reason
