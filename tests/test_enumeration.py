"""Exhaustive lattice generation against independent oracles."""

import hashlib
import random

import pytest

from latcheck import catalog
from latcheck.core import CoverDiagram, build_lattice, canonical_form
from latcheck.enumeration import all_lattices, filtered
from latcheck.errors import SizeLimit

from oracles import brute_isomorphic, grown_lattices, matrix_lattices


def test_counts_small():
    assert [len(all_lattices(n)) for n in range(1, 8)] == [1, 1, 1, 2, 5, 15, 53]


def test_count_n8():
    assert len(all_lattices(8)) == 222


def test_count_n9():
    # 1078 unlabelled lattices on nine elements, the standard count
    assert len(all_lattices(9)) == 1078


def test_matches_matrix_oracle_up_to_five():
    for n in range(1, 6):
        oracle = matrix_lattices(n)
        reps = []
        for L in oracle:
            if not any(brute_isomorphic(L, R) for R in reps):
                reps.append(L)
        assert len(all_lattices(n)) == len(reps)


def test_matches_grown_oracle_up_to_seven():
    for n in range(1, 8):
        oracle = grown_lattices(n)
        ours = all_lattices(n)
        assert len(oracle) == len(ours)
        # same classes, not just same counts
        ours_forms = {canonical_form(L) for L in ours}
        assert {canonical_form(L) for L in oracle} == ours_forms


def test_output_pinned():
    # sha256 over n = 8 and 9, in output order, of each lattice's canonical
    # form, then repr((up, labels, canon_perm)): a change to which labelled
    # representative is kept, or to its canonical permutation, fails here
    h = hashlib.sha256()
    for n in (8, 9):
        for L in all_lattices(n):
            h.update(canonical_form(L))
            h.update(repr((L.up, L.labels, L._cache["canon_perm"])).encode())
    assert h.hexdigest() == "611fa18698fe47334a4a898941ce619b3cd5fbbbc9e6e1dad1a72f0d5fae0c36"


def test_no_duplicate_canonical_forms():
    for n in range(1, 8):
        forms = [canonical_form(L) for L in all_lattices(n)]
        assert len(set(forms)) == len(forms)


def test_deterministic_order():
    forms = [canonical_form(L) for L in all_lattices(6)]
    assert forms == sorted(forms)


def test_known_classes_present():
    forms5 = {canonical_form(L) for L in all_lattices(5)}
    assert canonical_form(catalog.get("N5")) in forms5
    assert canonical_form(catalog.get("M3")) in forms5
    assert canonical_form(catalog.chain(5)) in forms5
    forms8 = {canonical_form(L) for L in all_lattices(8)}
    assert canonical_form(catalog.get("B3")) in forms8
    assert canonical_form(catalog.get("L6")) in forms8


def test_random_cover_diagram_round_trip():
    """Any lattice built from random valid cover data is isomorphic to
    exactly one enumerated representative."""
    rng = random.Random(5)
    produced = 0
    while produced < 15:
        n = rng.randint(2, 6)
        elems = [f"r{i}" for i in range(n)]
        covers = set()
        for b in range(1, n):
            for a in rng.sample(range(b), rng.randint(1, b)):
                covers.add((elems[a], elems[b]))
        try:
            L = build_lattice(CoverDiagram(tuple(elems), tuple(sorted(covers))))
        except Exception:
            continue
        produced += 1
        matches = [R for R in all_lattices(L.n) if canonical_form(R) == canonical_form(L)]
        assert len(matches) == 1
        assert brute_isomorphic(L, matches[0])


def test_filtered_distributive_five():
    assert len(list(filtered(5, ["distributive"]))) == 3


def test_filtered_sd_whitman_contains_pentagon():
    forms = {canonical_form(L) for L in filtered(5, ["sd", "whitman"])}
    assert canonical_form(catalog.get("N5")) in forms


def test_filtered_empty_predicates_is_everything():
    assert len(list(filtered(6, []))) == len(all_lattices(6))


def test_filtered_unknown_predicate():
    with pytest.raises(ValueError):
        list(filtered(4, ["bogus"]))


def test_size_cap():
    with pytest.raises(SizeLimit):
        all_lattices(10)
    with pytest.raises(SizeLimit):
        all_lattices(0)
