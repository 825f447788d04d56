"""The built-in lattices and their guarding invariants: element counts, the
semidistributivity split, subdirect irreducibility, duality closure,
pairwise non-isomorphism."""

import itertools

import pytest

from latcheck import catalog
from latcheck.core import are_isomorphic, build_lattice, canonical_form, dual
from latcheck.errors import BadParameter, UnknownName
from latcheck.laws import semidistributive
from latcheck.variety import is_subdirectly_irreducible

EXPECTED_SIZES = {
    "M3": 5, "N5": 5, "L1": 7, "L2": 7, "L3": 7, "L4": 6, "L5": 6,
    "L6": 8, "L7": 9, "L8": 9, "L9": 9, "L10": 9, "L11": 10, "L12": 10,
    "L13": 9, "L14": 9, "L15": 10, "B3": 8, "stacked_n5": 10,
    "shape_2x5_plus": 12,
}


def test_element_counts():
    for name, size in EXPECTED_SIZES.items():
        assert catalog.get(name).n == size, name


def test_all_entries_build():
    for name in catalog.FIXED_NAMES:
        diagram = catalog.entry(name)
        assert diagram.name == name
        assert build_lattice(diagram).n == len(diagram.elements)


def test_semidistributive_split():
    non_sd, sd = catalog.mckenzie_semidistributive_split()
    assert non_sd == {"M3", "L1", "L2", "L3", "L4", "L5"}
    assert sd == {f"L{i}" for i in range(6, 16)}
    for name in non_sd | sd | {"N5", "B3", "stacked_n5"}:
        j, m = semidistributive(catalog.get(name))
        assert bool(j and m) == (name not in non_sd), name


def test_all_named_subdirectly_irreducible():
    for name in ["M3", "N5"] + list(catalog.MCKENZIE_NAMES):
        assert is_subdirectly_irreducible(catalog.get(name)), name


def test_duality_closure():
    for name, dname in catalog.DUAL_PAIRING.items():
        assert are_isomorphic(dual(catalog.get(name)), catalog.get(dname)), name


def test_no_two_entries_isomorphic():
    names = ["M3", "N5"] + list(catalog.MCKENZIE_NAMES)
    forms = [canonical_form(catalog.get(n)) for n in names]
    assert len(set(forms)) == len(names)


def test_parametrized_families():
    assert catalog.get("chain(4)").n == 4
    assert catalog.get("grid(2,5)").n == 10
    assert catalog.get("ninf(3)").n == 9
    assert are_isomorphic(catalog.get("ninf(1)"), catalog.get("N5"))


def test_ninf_layers_nest():
    from latcheck import embed
    n5 = catalog.get("N5")
    for k in (2, 3):
        assert embed.find_embedding(n5, catalog.ninf(k)) is not None


def test_l15_matches_proof_diagram():
    """Ten elements; bottom with two atoms whose join sits under the middle
    meet; two outer side chains."""
    l15 = catalog.get("L15")
    i = l15.index_of
    assert l15.labels[l15.bottom] == "j"
    assert set(l15.upper_covers(i("j"))) == {i("h"), i("i")}
    assert l15.join[i("h")][i("i")] == i("f")
    assert l15.meet[i("b")][i("c")] == i("d")
    assert l15.join[i("e")][i("g")] == i("a")
    assert l15.meet[i("e")][i("g")] == i("j")


def test_unknown_and_bad_parameters():
    with pytest.raises(UnknownName):
        catalog.get("L16")
    with pytest.raises(BadParameter):
        catalog.get("chain(0)")
    with pytest.raises(BadParameter):
        catalog.get("grid(3,4)")
    with pytest.raises(BadParameter):
        catalog.get("ninf(0)")


def test_stacked_n5_shape():
    st = catalog.get("stacked_n5")
    i = st.index_of
    assert st.labels[st.bottom] == "y5"
    assert st.labels[st.top] == "x1"
    assert st.covers(i("y1"), i("x5"))


def test_named_lattices_are_minimal_forbidden_configurations():
    """Each of M3, N5, L1..L15 generates a join-irreducible cover of the
    pentagon variety, so every proper sublattice and every proper quotient
    must fall back into the variety while the lattice itself stays outside
    (for M3 and the Li) or inside (N5).  A single misread cover edge in a
    transcription almost surely breaks this."""
    from latcheck.core import induced, is_sublattice_set, iter_bits
    from latcheck.variety import all_congruences, in_n5_variety, quotient

    for name in ["M3", "N5"] + list(catalog.MCKENZIE_NAMES):
        L = catalog.get(name)
        assert bool(in_n5_variety(L)) == (name == "N5"), name
        for mask in range(1, (1 << L.n) - 1):
            elems = list(iter_bits(mask))
            if is_sublattice_set(L, elems):
                assert in_n5_variety(induced(L, elems)), (name, elems)
        for c in all_congruences(L):
            if not c.is_identity():
                assert in_n5_variety(quotient(L, c)), (name, c.block_index)


def test_fixed_lattices_built_once(monkeypatch):
    from latcheck import core, embed

    assert catalog.get("L15") is catalog.get("L15")
    assert catalog.get("chain(3)") is not catalog.get("chain(3)")
    assert build_lattice(catalog.entry("L15")) is not catalog.get("L15")
    host = catalog.get("stacked_n5")
    prof = embed.profile("N")
    first = embed.contains_forbidden(host, prof)
    built = []
    init = core.FiniteLattice.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(core.FiniteLattice, "__init__", counting_init)
    assert embed.contains_forbidden(host, prof) == first
    assert built == []
