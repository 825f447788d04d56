"""Exhaustive lattice generation against independent oracles."""

import hashlib
import random
from collections import Counter

import pytest

from latcheck import catalog, enumeration
from latcheck.core import (CoverDiagram, FiniteLattice, build_lattice, canonical_form, coatoms,
                           iter_bits)
from latcheck.enumeration import all_lattices, filtered
from latcheck.errors import BadParameter, NotALattice, SizeLimit

from oracles import (automorphisms_oracle, brute_isomorphic, grown_labelled, grown_lattices,
                     matrix_lattices, self_canonical_oracle)


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


def _output_digest(sizes):
    # sha256, in output order, of each lattice's canonical form, then
    # repr((up, labels, canon_perm)): a change to which labelled
    # representative is kept, or to its canonical permutation, fails here
    h = hashlib.sha256()
    for n in sizes:
        for L in all_lattices(n):
            h.update(canonical_form(L))
            h.update(repr((L.up, L.labels, L._cache["canon_perm"])).encode())
    return h.hexdigest()


def test_output_pinned():
    assert _output_digest((8, 9)) == (
        "611fa18698fe47334a4a898941ce619b3cd5fbbbc9e6e1dad1a72f0d5fae0c36")
    assert _output_digest(range(1, 10)) == (
        "0c4e8f702429368a230b88d0788f35c6e4f63f338c9559dbba44693ad0a2573a")


def test_every_output_passes_the_referee():
    # the canonical form and permutation the walk stored from its own
    # arrays must agree with a fresh lattice's, computed from its own covers
    for n in range(1, 10):
        for L in all_lattices(n):
            assert self_canonical_oracle(L)
            fresh = FiniteLattice(L.labels, L.up)
            assert L._cache["canon"] == canonical_form(fresh)
            assert L._cache["canon_perm"] == fresh._cache["canon_perm"]
            assert L.heights() == fresh.heights()
            assert L.depths() == fresh.depths()
            for a in range(n):
                assert L.upper_covers(a) == fresh.upper_covers(a)
                assert L.lower_covers(a) == fresh.lower_covers(a)


def test_referee_keeps_one_labelling_per_class():
    # of every labelling that is a linear extension, the referee keeps
    # exactly the labelled lattices the enumeration outputs
    for n in range(1, 9):
        kept = {L.up for L in grown_labelled(n) if self_canonical_oracle(L)}
        assert kept == {L.up for L in all_lattices(n)}


def _coatom_test_children(R, group):
    """How many lattices R plus a new coatom c above an order ideal of
    R - {1}, the least mask of its orbit under the automorphisms ``group``
    of R, has in which c's (height, number of lower covers) is at least
    every other coatom's, each built and read as a fresh lattice."""
    m = R.n
    passing = 0
    for D in range(1 << m):
        if not D >> R.bottom & 1 or D >> R.top & 1:
            continue
        if any(R.down[x] & ~D for x in iter_bits(D)):
            continue
        if any(sum(1 << g[x] for x in iter_bits(D)) < D for g in group):
            continue
        up = [R.up[a] | (D >> a & 1) << m for a in range(m)] + [1 << m | 1 << R.top]
        try:
            L = FiniteLattice(R.labels + ("c",), up)
        except NotALattice:
            continue
        key = [(h, len(L.lower_covers(x))) for x, h in enumerate(L.heights())]
        passing += all(key[x] <= key[m] for x in coatoms(L))
    return passing


def test_extension_step(monkeypatch):
    # every orbit-least ideal whose child passes the coatom test is refined
    # exactly once, every canonical search gives an accepted child, and each
    # class is accepted from exactly one parent
    parents, forms8 = all_lattices(7), {canonical_form(L) for L in all_lattices(8)}
    sigs, refined, searches = [], Counter(), []
    real_sig, real_refine = enumeration._seed_signature, enumeration._refined_classes
    real_search = enumeration._canonical_search

    def spying_sig(*arrays):
        sigs.append(real_sig(*arrays))
        return sigs[-1]

    def counting(sig, upper, lower):
        refined[id(sig)] += 1
        return real_refine(sig, upper, lower)

    def searching(*args):
        searches.append(args)
        return real_search(*args)

    monkeypatch.setattr(enumeration, "_seed_signature", spying_sig)
    monkeypatch.setattr(enumeration, "_refined_classes", counting)
    monkeypatch.setattr(enumeration, "_canonical_search", searching)
    accepted = Counter(canonical_form(L) for R in parents for L in enumeration._children(R))
    assert len(sigs) == sum(_coatom_test_children(R, automorphisms_oracle(R)) for R in parents)
    assert set(refined) == {id(sig) for sig in sigs}
    assert max(refined.values()) == 1
    assert set(accepted) == forms8
    assert set(accepted.values()) == {1}
    assert len(searches) == len(accepted)


def test_one_search_per_class(monkeypatch):
    # a cold enumeration through n = 9 searches once per class with
    # n = 3..9, and takes each parent's ideals up to its automorphisms
    searches = []
    real_search = enumeration._canonical_search

    def searching(*args):
        searches.append(args)
        return real_search(*args)

    monkeypatch.setattr(enumeration, "_CACHE", {})
    monkeypatch.setattr(enumeration, "_canonical_search", searching)
    assert len(all_lattices(9)) == 1078
    assert len(searches) == sum(len(all_lattices(n)) for n in range(3, 10)) == 1376
    ideals = kept = 0
    for n in range(2, 9):
        for R in all_lattices(n):
            canonical_form(R)
            ideals += len(list(enumeration._ideals(R.down, ())))
            kept += len(list(enumeration._ideals(R.down, R._cache["canon_gens"])))
    assert (ideals, ideals - kept) == (4809, 1179)


def test_children_of_a_parent_in_any_labelling():
    """A parent read in another labelling than its canonical one has the
    children of its class's representative: catalog N5, whose bottom is
    index 4, has 5, and so has every fixed catalog lattice with n <= 9."""
    reps = {canonical_form(L): L for n in range(5, 10) for L in all_lattices(n)}
    for name in catalog.FIXED_NAMES:
        R = catalog.get(name)
        if R.n > 9:
            continue
        got = sorted(canonical_form(L) for L in enumeration._children(R))
        assert got == sorted(canonical_form(L) for L in enumeration._children(
            reps[canonical_form(R)])), name
        if name == "N5":
            assert len(got) == 5


def test_one_step_to_ten():
    # one extension step past ENUM_CAP: 5994 lattices on ten elements
    # (OEIS A006966), distinct and in canonical-form order
    forms = [canonical_form(L) for L in enumeration._extend(all_lattices(9))]
    assert len(forms) == 5994
    assert len(set(forms)) == len(forms)
    assert forms == sorted(forms)


def test_step_to_ten_pinned():
    # the step to n = 10, the one tier-1 step past ENUM_CAP: its forms and
    # orders byte for byte, pinned from the enumeration that still tested
    # each canonical parent by deleting the coatom in slot n - 2
    h = hashlib.sha256()
    for L in enumeration._extend(all_lattices(9)):
        h.update(canonical_form(L))
        h.update(repr(L.up).encode())
    assert h.hexdigest() == (
        "73dc5c6ceb923630972ccffe9e89b137772aad13685d8612611b3648a6697e4d")


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
    for n in (0, -3):
        with pytest.raises(BadParameter, match=f"needs n >= 1, got {n}"):
            all_lattices(n)
