"""Sublattice-isomorphism search and forbidden profiles."""

import hashlib

import pytest

from latcheck import catalog, core, embed
from latcheck.core import CoverDiagram, are_isomorphic, build_lattice, direct_product, dual, induced
from latcheck.enumeration import all_lattices
from latcheck.errors import SearchBudgetExceeded

from oracles import contains_forbidden_oracle, sublattice_embeddings_oracle, sublattice_embeds_oracle


def test_pentagon_in_nested_pentagons():
    w = embed.find_embedding(catalog.get("N5"), catalog.ninf(2))
    assert w is not None and w.is_valid()


def test_m3_not_in_cube():
    assert embed.find_embedding(catalog.get("M3"), catalog.get("B3")) is None


def test_two_chain_everywhere():
    for name in ("N5", "L4", "B3", "stacked_n5"):
        L = catalog.get(name)
        w = embed.find_embedding(catalog.chain(2), L)
        assert w is not None and w.is_valid()


def test_pattern_larger_than_host():
    assert embed.find_embedding(catalog.get("B3"), catalog.get("N5")) is None


def test_order_embedded_pentagon_that_is_not_closed_is_rejected():
    """B3 carries a pentagon-shaped subposet (0 < a < ab < abc over c), but
    no pentagon sublattice: the subposet misses a v c."""
    b3 = catalog.get("B3")
    i = b3.index_of
    shape = induced(b3, [i("0"), i("a"), i("ab"), i("c"), i("abc")])
    assert are_isomorphic(shape, catalog.get("N5"))
    assert embed.find_embedding(catalog.get("N5"), b3) is None


def n5_squared():
    return direct_product(catalog.get("N5"), catalog.get("N5"))


def test_budget_exhaustion_raises():
    with pytest.raises(SearchBudgetExceeded):
        embed.find_embedding(catalog.get("L11"), n5_squared(), budget=3)


def test_forbidden_profile_stacked_clean():
    hits = embed.contains_forbidden(catalog.get("stacked_n5"), embed.profile("N"))
    assert hits == []


def test_forbidden_profile_self_hits():
    hits = embed.contains_forbidden(catalog.get("M3"), embed.profile("N"))
    assert [h[0] for h in hits] == ["M3"]
    assert hits[0][1].map == tuple(range(5))

    hits = embed.contains_forbidden(catalog.get("L15"), embed.ForbiddenProfile("only15", ("L15",)))
    assert hits[0][0] == "L15"
    assert hits[0][1].map == tuple(range(10))


def test_contains_forbidden_matches_unpruned_oracle():
    """Skipping the patterns a host's laws rule out keeps the hits and their
    witness maps: every profile, on every lattice with n <= 8 and every fixed
    catalog lattice and its dual."""
    hosts = [L for n in range(1, 9) for L in all_lattices(n)]
    for name in catalog.FIXED_NAMES:
        hosts += [catalog.get(name), dual(catalog.get(name))]
    for prof in embed.PROFILES.values():
        for host in hosts:
            got = [(name, w.map) for name, w in embed.contains_forbidden(host, prof)]
            assert got == [(name, w.map) for name, w in contains_forbidden_oracle(host, prof)]


def test_skipped_patterns_spend_no_budget(spent):
    # distributive, so every pattern is skipped: no node is spent, where the
    # unpruned loop runs out of the default budget
    assert embed.contains_forbidden(direct_product(catalog.chain(2), catalog.chain(40)),
                                    embed.profile("N")) == []
    assert spent[0] == 0
    # semidistributive but not modular: M3 and L1-L5 are skipped, and only
    # the searches for L6-L15 spend nodes
    host = n5_squared()
    assert embed.contains_forbidden(host, embed.profile("N")) == []
    pruned, spent[0] = spent[0], 0
    for i in range(6, 16):
        assert embed.find_embedding(catalog.get(f"L{i}"), host) is None
    assert pruned == spent[0] > 0


def test_profile_pattern_sets():
    assert embed.profile("N").patterns == ("M3",) + tuple(f"L{i}" for i in range(1, 16))
    assert embed.profile("cor62").patterns == tuple(f"L{i}" for i in range(9, 16))
    assert embed.profile("cor63").patterns == tuple(f"L{i}" for i in range(10, 16))
    assert embed.profile("cor64").patterns == ("L9", "L11", "L12", "L13", "L14", "L15")
    assert embed.profile("cor65").patterns == tuple(f"L{i}" for i in range(6, 13)) + ("L14", "L15")
    assert embed.profile("cor66").patterns == tuple(f"L{i}" for i in range(6, 14)) + ("L15",)


def test_dual_symmetry_of_embedding():
    pats = [catalog.get("N5"), catalog.chain(3), catalog.get("M3")]
    hosts = [catalog.get(n) for n in ("L6", "L9", "L13", "stacked_n5")]
    for p in pats:
        for h in hosts:
            assert (embed.find_embedding(p, h) is None) == (
                embed.find_embedding(dual(p), dual(h)) is None
            )


def test_witness_composition():
    n5 = catalog.get("N5")
    mid = catalog.ninf(2)
    big = catalog.ninf(3)
    w1 = embed.find_embedding(n5, mid)
    w2 = embed.find_embedding(mid, big)
    assert w1 and w2
    composed = w1.compose(w2)
    assert composed.is_valid()
    assert composed.source is n5 and composed.target is big


def test_against_subset_oracle_small_hosts():
    pats = [catalog.chain(3), catalog.get("N5"), catalog.get("M3"), catalog.grid(2),
            catalog.get("L4")]
    for host in all_lattices(6) + all_lattices(7):
        for p in pats:
            got = embed.find_embedding(p, host) is not None
            assert got == sublattice_embeds_oracle(p, host)


def test_all_witnesses_are_valid_sublattices():
    n5 = catalog.get("N5")
    count = 0
    for host in all_lattices(7)[::5]:
        for w in embed.iter_embeddings(n5, host):
            assert w.is_valid()
            count += 1
    assert count >= 1


# sha256 over, for each (pattern, host) pair below, repr(every map that
# iter_embeddings yields, in order); the pairs, the nodes spent on all of
# them, one per candidate tried, and the maps.  The maps, and so the digest,
# are those of the search that charged every feasible image (233,879 nodes).
EMBEDDING_SEARCH_PIN = ("a6f0841099da408c585df4158481f4e696b5f308bacb7f0bcff7892514a6c538",
                        6720, 42_365, 15_843)


@pytest.fixture
def spent(monkeypatch):
    """Nodes spent by the embedding searches, reset by the test."""
    count = [0]

    class CountingBudget(core._Budget):
        def spend(self, what):
            count[0] += 1
            super().spend(what)

    monkeypatch.setattr(embed, "_Budget", CountingBudget)
    return count


def test_embedding_search_pinned(spent):
    """Same embeddings in the same order, and the same node count, on every
    pair: M3, L1-L15, grid(5), N5, B3, chain(3) and grid(2) into every
    lattice with n <= 8 and every fixed catalog lattice."""
    patterns = ([catalog.get("M3")] + [catalog.get(f"L{i}") for i in range(1, 16)]
                + [catalog.grid(5), catalog.get("N5"), catalog.get("B3"),
                   catalog.chain(3), catalog.grid(2)])
    hosts = ([L for n in range(1, 9) for L in all_lattices(n)]
             + [catalog.get(name) for name in catalog.FIXED_NAMES])
    digest = hashlib.sha256()
    pairs = nodes = maps = 0
    for p in patterns:
        for host in hosts:
            spent[0] = 0
            found = [w.map for w in embed.iter_embeddings(p, host)]
            digest.update(repr(found).encode())
            pairs, nodes, maps = pairs + 1, nodes + spent[0], maps + len(found)
    assert (digest.hexdigest(), pairs, nodes, maps) == EMBEDDING_SEARCH_PIN


@pytest.mark.parametrize("pattern, host", [("N5", "stacked_n5"), ("L11", "N5xN5"),
                                           ("L15", "L15")])
def test_budget_of_exactly_the_nodes_spent_suffices(spent, pattern, host):
    """A search completes on a budget equal to the nodes it spends, and
    raises one node short of it."""
    p, h = catalog.get(pattern), n5_squared() if host == "N5xN5" else catalog.get(host)
    spent[0] = 0
    found = [w.map for w in embed.iter_embeddings(p, h)]
    nodes = spent[0]
    assert [w.map for w in embed.iter_embeddings(p, h, budget=nodes)] == found
    with pytest.raises(SearchBudgetExceeded, match="embedding search"):
        list(embed.iter_embeddings(p, h, budget=nodes - 1))


def test_join_placed_later_refutes_at_its_own_level(spent):
    """In the pattern, 6 = 2 v 3 lies strictly below the top 7, which is
    placed first, and 2 and 3 are atoms with two upper covers each; in the
    host, the atoms with two upper covers are 2 and 3, and they join to the
    top.  6 is placed right after 3, and its one candidate, the host's
    2 v 3, is the top, already an image, so it has none: 6 nodes, one each
    for the top and the bottom, then two for each of the two images of 2,
    one for it and one for 3, and none for 6."""
    def lattice(n, covers):
        return build_lattice(CoverDiagram(tuple(map(str, range(n))),
                                          tuple((str(a), str(b)) for a, b in covers)))

    pattern = lattice(8, [(0, 1), (0, 2), (0, 3), (1, 7), (2, 4), (2, 6), (3, 5), (3, 6),
                          (4, 7), (5, 7), (6, 7)])
    host = lattice(9, [(0, 1), (0, 2), (0, 3), (1, 7), (2, 4), (2, 5), (3, 6), (3, 7),
                       (4, 8), (5, 8), (6, 8), (7, 8)])
    assert embed.find_embedding(pattern, host) is None
    assert spent[0] == 6


def test_every_embedding_yielded_exactly_once():
    """Against the subset oracle on every lattice with n <= 7.  L1-L4 each
    place an element that is the meet or join of two placed ones, so their
    searches take the forced-image path; the larger patterns find nothing."""
    pats = ([catalog.chain(1), catalog.chain(2), catalog.chain(3), catalog.chain(4),
             catalog.grid(2), catalog.get("N5"), catalog.get("M3")]
            + [catalog.get(f"L{i}") for i in range(1, 16)] + [catalog.grid(5)])
    total = 0
    for host in [L for n in range(1, 8) for L in all_lattices(n)]:
        for p in pats:
            got = [w.map for w in embed.iter_embeddings(p, host)]
            assert len(got) == len(set(got))
            assert set(got) == set(sublattice_embeddings_oracle(p, host))
            total += len(got)
    assert total > 0


def test_images_have_at_least_the_covers_and_incomparables_of_their_elements():
    """The premise of the cover and incomparable statistics, apart from the
    search: under every embedding the subset oracle finds, on the patterns
    and hosts of test_every_embedding_yielded_exactly_once, each image has
    at least as many upper covers, lower covers and incomparable elements
    as its pattern element."""
    def counts(L):
        return [(len(L.upper_covers(a)), len(L.lower_covers(a)),
                 sum(L.incomparable(a, c) for c in range(L.n))) for a in range(L.n)]

    pats = ([catalog.chain(1), catalog.chain(2), catalog.chain(3), catalog.chain(4),
             catalog.grid(2), catalog.get("N5"), catalog.get("M3")]
            + [catalog.get(f"L{i}") for i in range(1, 16)] + [catalog.grid(5)])
    pattern_counts = [(p, counts(p)) for p in pats]
    total = 0
    for host in [L for n in range(1, 8) for L in all_lattices(n)]:
        host_counts = counts(host)
        for p, want in pattern_counts:
            for f in sublattice_embeddings_oracle(p, host):
                for a, image in enumerate(f):
                    assert all(h >= w for h, w in zip(host_counts[image], want[a])), (p, host, f)
                total += 1
    assert total > 0
