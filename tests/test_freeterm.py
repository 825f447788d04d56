"""Free-lattice terms: the word-problem decision, canonical forms,
evaluation, embedding verification and the witness construction."""

import ast
import hashlib
import json
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from latcheck import catalog, cli, freeterm, laws
from latcheck.core import _Budget, dual
from latcheck.errors import BadParameter, ParseError, SearchBudgetExceeded, UnassignedGenerator
from latcheck.freeterm import (
    canonicalize,
    evaluate,
    find_free_embedding,
    format_term,
    gen,
    join,
    leq,
    meet,
    parse_term,
    term_equal,
    term_key,
    verify_free_embedding,
)

from oracles import (
    canonical_terms,
    is_canonical_oracle,
    parse_term_oracle,
    term_depth,
    term_size,
    whitman_leq_oracle,
)

x, y, z = gen("x"), gen("y"), gen("z")


def random_term(rng, depth=4, names=("x", "y", "z")):
    if depth == 0 or rng.random() < 0.3:
        return gen(rng.choice(names))
    op = join if rng.random() < 0.5 else meet
    k = rng.randint(2, 3)
    return op(*[random_term(rng, depth - 1, names) for _ in range(k)])


def test_generator_reflexive_and_distinct():
    assert leq(x, x)
    assert not leq(x, y)


def test_basic_order_facts():
    assert leq(x, join(x, y))
    assert leq(meet(x, y), x)
    assert not leq(join(x, y), x)
    assert not leq(x, meet(x, y))


def test_distributive_inequality_strict():
    lhs = join(x, meet(y, z))
    rhs = meet(join(x, y), join(x, z))
    assert leq(lhs, rhs)
    assert not leq(rhs, lhs)


def test_canonicalize_flatten_absorb():
    assert canonicalize(join(x, join(x, y))) is canonicalize(join(x, y))
    assert canonicalize(meet(join(x, y), join(x, y))) is canonicalize(join(x, y))
    assert term_equal(meet(x, join(y, x)), x)
    assert canonicalize(meet(x, join(y, x))) is x


def test_canonicalize_idempotent_random():
    rng = random.Random(11)
    for _ in range(300):
        t = random_term(rng)
        c = canonicalize(t)
        assert canonicalize(c) is c
        assert term_equal(t, c)


def test_canonical_form_unique_on_equal_terms():
    rng = random.Random(13)
    terms = [random_term(rng, 3) for _ in range(160)]
    for s in terms:
        for t in terms:
            if term_equal(s, t):
                assert canonicalize(s) is canonicalize(t), (str(s), str(t))


def test_leq_partial_order_random():
    rng = random.Random(17)
    pool = [canonicalize(random_term(rng)) for _ in range(60)]
    for t in pool:
        assert leq(t, t)
    for _ in range(1500):
        r, s, t = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        if leq(r, s) and leq(s, t):
            assert leq(r, t)
        if leq(r, s) and leq(s, r):
            assert canonicalize(r) is canonicalize(s)


def test_join_meet_are_bounds():
    rng = random.Random(19)
    for _ in range(200):
        s, t = random_term(rng, 3), random_term(rng, 3)
        assert leq(s, join(s, t)) and leq(t, join(s, t))
        assert leq(meet(s, t), s) and leq(meet(s, t), t)


@pytest.mark.parametrize("op", [join, meet])
def test_join_and_meet_need_an_argument(op):
    with pytest.raises(BadParameter) as exc:
        op()
    assert str(exc.value) == f"{op.__name__} needs at least one argument"
    assert op(x) is x


def test_format_term_brackets():
    """A meet brackets every compound argument, a join only its joins."""
    assert format_term(meet(x, join(y, z), meet(x, y))) == "x & (y | z) & (x & y)"
    assert format_term(join(x, meet(y, z), join(x, y))) == "x | y & z | (x | y)"


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_join_is_least_upper_bound(data):
    rng = random.Random(data.draw(st.integers(0, 2**30)))
    s, t, u = (random_term(rng, 2) for _ in range(3))
    if leq(s, u) and leq(t, u):
        assert leq(join(s, t), u)
    if leq(u, s) and leq(u, t):
        assert leq(u, meet(s, t))


def test_evaluate_pentagon():
    n5 = catalog.get("N5")
    i = n5.index_of
    assert evaluate(join(x, y), n5, {"x": i("x2"), "y": i("x4")}) == i("x1")
    assert evaluate(x, n5, {"x": i("x3")}) == i("x3")
    with pytest.raises(UnassignedGenerator):
        evaluate(join(x, y), n5, {"x": 0})


def test_evaluate_soundness_random_assignments():
    rng = random.Random(23)
    n5 = catalog.get("N5")
    b3 = catalog.get("B3")
    pairs = []
    pool = [random_term(rng, 3) for _ in range(80)]
    for s in pool:
        for t in pool:
            if s is not t and term_equal(s, t):
                pairs.append((s, t))
    assert pairs, "need at least one nontrivial equal pair"
    for L in (n5, b3):
        for _ in range(100):
            asg = {g: rng.randrange(L.n) for g in ("x", "y", "z")}
            for s, t in pairs[:20]:
                assert evaluate(s, L, asg) == evaluate(t, L, asg)


def test_verify_chain2_embedding():
    c2 = catalog.chain(2)
    assert verify_free_embedding(c2, {0: meet(x, y), 1: join(x, y)})
    assert not verify_free_embedding(c2, {0: join(x, y), 1: meet(x, y)})


def test_verify_rejects_order_embedding_that_breaks_a_join():
    """B2 -> {x ^ y, x, y, x v y v z} is an order-embedding with a ^ b sent
    to x ^ y, but a v b is not sent to x v y; the dual map breaks a meet."""
    b2 = catalog.grid(2)
    bottom, top = b2.bottom, b2.top
    a, b = [e for e in range(4) if e not in (bottom, top)]
    assert not verify_free_embedding(b2, {bottom: meet(x, y), a: x, b: y, top: join(x, y, z)})
    assert not verify_free_embedding(b2, {bottom: meet(x, y, z), a: x, b: y, top: join(x, y)})
    assert verify_free_embedding(b2, {bottom: meet(x, y), a: x, b: y, top: join(x, y)})


def test_pentagon_witness_search():
    n5 = catalog.get("N5")
    w = find_free_embedding(n5)
    assert verify_free_embedding(n5, w)
    # the five terms the capped term-pool search found
    assert {n5.labels[a]: format_term(t) for a, t in w.items()} == {
        "x1": "x | y & z", "x2": "x", "x3": "y & (x | y & z)", "x4": "x & y | y & z",
        "x5": "x & y"}
    assert freeterm.free_generators(n5) == [("x", 1), ("y", 2), ("z", 3)]


def test_diamond_search_exhausts(tmp_path, capsys):
    """M3 gets no witness, and the report names a law it fails: it satisfies
    W but not SD-join, with its three atoms as the witness."""
    m3 = catalog.get("M3")
    assert find_free_embedding(m3) is None
    assert laws.free_sublattice_failure(m3) == ("sd_join", (1, 2, 3))
    path = str(tmp_path / "M3.json")
    cli.write_lattice_file(path, cli.diagram_of(m3, name="M3"))
    assert cli.main(["freelat", "embed", path]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["results"] == {
        "name": "M3", "found": False, "reason": "fails sd_join at (a, b, c)"}


def test_free_embedding_budget():
    with pytest.raises(SearchBudgetExceeded) as exc:
        find_free_embedding(catalog.get("stacked_n5"), budget=50)
    assert exc.value.budget == 50
    assert str(exc.value) == "free embedding search exceeded node budget 50"


def lattices_up_to_nine_and_catalog():
    from latcheck.enumeration import all_lattices

    for n in range(1, 10):
        for L in all_lattices(n):
            yield L
            yield dual(L)
    for name in catalog.FIXED_NAMES:
        yield catalog.get(name)
        yield dual(catalog.get(name))


def assert_witness(L, w):
    """w checked without the library's ``leq``: by plain Whitman recursion,
    the order both ways, and g(a ^ b) = g(a) & g(b) and g(a v b) = g(a) | g(b)
    (g(a ^ b) <= g(a), g(b) <= g(a v b) is part of the order); and each
    term evaluating to its element under x_k -> k."""
    ts = [w[a] for a in range(L.n)]
    for a in range(L.n):
        for b in range(L.n):
            assert whitman_leq_oracle(ts[a], ts[b]) == L.leq(a, b)
            if a < b:
                assert whitman_leq_oracle(meet(ts[a], ts[b]), ts[L.meet[a][b]])
                assert whitman_leq_oracle(ts[L.join[a][b]], join(ts[a], ts[b]))
    assignment = dict(freeterm.free_generators(L))
    assert [evaluate(t, L, assignment) for t in ts] == list(range(L.n))


def test_free_sublattices_up_to_nine_get_witnesses():
    """Every lattice with n <= 9, every catalog lattice and their duals get
    a witness exactly when they satisfy W and both semidistributive laws:
    235 with n <= 9 and 13 in the catalog, each with its dual."""
    witnessed = 0
    for L in lattices_up_to_nine_and_catalog():
        w = find_free_embedding(L)
        assert (w is not None) == laws.is_finite_free_sublattice(L), L.cover_pairs()
        if w is not None:
            assert_witness(L, w)
            witnessed += 1
    assert witnessed == 2 * (235 + 13)


@pytest.mark.parametrize("name", ["stacked_n5", "L13", "L15"])
def test_witness_is_fast(name):
    L = catalog.get(name)
    started = time.perf_counter()
    w = find_free_embedding(L)
    assert time.perf_counter() - started < 0.1
    assert_witness(L, w)


def failure_holds(L, law, witness):
    """Whether ``witness`` shows L failing ``law``, read straight off the
    meet and join tables."""
    meet_t, join_t = L.meet, L.join
    le = lambda a, b: meet_t[a][b] == a  # noqa: E731
    if law == "whitman":
        a, b, c, d = witness
        m, j = meet_t[a][b], join_t[c][d]
        return le(m, j) and not (le(a, j) or le(b, j) or le(m, c) or le(m, d))
    op, co = (join_t, meet_t) if law == "sd_join" else (meet_t, join_t)
    a, b, c = witness
    return op[a][b] == op[a][c] != op[a][co[b][c]]


def test_reported_failures_hold_on_the_tables():
    """The law a non-free lattice reports fails at the reported tuple, and
    the laws before it in the order W, SD-join, SD-meet hold.  No lattice
    with n <= 6 fails W, so the one with n = 7 that does is added."""
    from latcheck.enumeration import all_lattices

    order = ("whitman", "sd_join", "sd_meet")
    cases = [catalog.get(name) for name in ("M3", "L1", "L2", "L3", "L4", "L5")]
    cases += [L for n in range(1, 7) for L in all_lattices(n)
              if not laws.is_finite_free_sublattice(L)]
    cases += [L for L in all_lattices(7) if not laws.holds(L, "whitman")]
    seen = set()
    for L in cases:
        law, witness = laws.free_sublattice_failure(L)
        assert find_free_embedding(L) is None
        assert failure_holds(L, law, witness), (law, witness)
        assert all(laws.holds(L, earlier) for earlier in order[:order.index(law)])
        seen.add(law)
    assert seen == set(order)


def test_parse_and_format_roundtrip():
    t = parse_term("x & (y | z)")
    assert t is meet(x, join(y, z))
    assert parse_term(format_term(t)) is t
    assert parse_term("x&y|z") is join(meet(x, y), z)  # & binds tighter
    assert parse_term("  x  ") is x


def test_parse_errors_positioned():
    with pytest.raises(ParseError):
        parse_term("x & ")
    with pytest.raises(ParseError):
        parse_term("(x | y")
    with pytest.raises(ParseError):
        parse_term("x ? y")
    with pytest.raises(ParseError):
        parse_term("x y")


@pytest.mark.parametrize("text, message, offset", [
    ("x & ", "unexpected end of term", 4),
    ("", "unexpected end of term", 0),
    ("x |", "unexpected end of term", 3),
    ("(x | y", "missing closing parenthesis", 0),
    ("(x & (y | z)", "missing closing parenthesis", 0),
    ("x ? y", "unexpected character '?'", 2),
    ("x y", "trailing input", 2),
    ("((x) | y))", "trailing input", 9),
    (")", "unexpected token ')'", 0),
    ("&x", "unexpected token '&'", 0),
    ("x | (y & )", "unexpected token ')'", 9),
])
def test_parse_error_messages_and_offsets(text, message, offset):
    with pytest.raises(ParseError) as exc:
        parse_term(text)
    assert str(exc.value) == message
    assert exc.value.offset == offset


def test_parse_deep_parentheses():
    assert parse_term("(" * 3000 + "x" + ")" * 3000) is x
    deep = "x"
    for _ in range(700):
        deep = f"x & (y | ({deep}))"
    t = parse_term(deep)
    assert term_depth(t) == 1400 and term_size(t) == 1401
    with pytest.raises(ParseError) as exc:
        parse_term("(" * 3000 + "x")
    assert (str(exc.value), exc.value.offset) == ("missing closing parenthesis", 2999)


def parse_outcome(parse, text):
    """The interned term ``parse`` makes of ``text``, or its error's message
    and offset."""
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.offset


# identifier characters, numerics that are not decimal ("²", "½") and one
# that is ("٣"), every operator, a character that is no token, and four
# kinds of whitespace
FUZZ_ALPHABET = ("x", "y", "_", "'", "2", "²", "½", "٣", "&", "|", "(", ")", "?",
                 " ", "\t", "\x1c", "\u3000")
FUZZ_WEIGHTS = (8, 6, 2, 2, 1, 1, 1, 1, 6, 6, 5, 5, 1, 5, 1, 1, 1)


def test_parse_matches_the_character_loop_parser_on_fuzzed_strings():
    rng = random.Random(20)
    seen = set()
    for _ in range(20_000):
        text = "".join(rng.choices(FUZZ_ALPHABET, FUZZ_WEIGHTS, k=rng.randint(0, 14)))
        got = parse_outcome(parse_term, text)
        assert got == parse_outcome(parse_term_oracle, text), repr(text)
        seen.add(" ".join(got[0].split()[:2]) if isinstance(got, tuple) else "term")
    # every outcome occurs, so no branch of either parser goes untested
    assert seen == {"term", "unexpected end", "missing closing", "unexpected character",
                    "trailing input", "unexpected token"}


def term_text(rng, leaves):
    """A random term with ``leaves`` leaves written with every parenthesis,
    as the terms benchmark writes them, with random spacing."""
    if leaves == 1:
        return rng.choice(("x", "y", "z", "w", "x'", "_y2"))
    k = rng.randint(1, leaves - 1)
    gap = rng.choice(("", " ", "\t"))
    return f"({term_text(rng, k)}{gap}{rng.choice('&|')}{gap}{term_text(rng, leaves - k)})"


def test_parse_matches_the_character_loop_parser_on_generated_terms():
    rng = random.Random(21)
    for _ in range(300):
        text = term_text(rng, rng.randint(8, 128))
        t = parse_term(text)
        assert t is parse_term_oracle(text)
        assert term_size(t) == text.count("&") + text.count("|") + 1
        assert parse_term(format_term(t)) is t
        # one character replaced: an error far from the start, or another term
        i = rng.randrange(len(text))
        bad = text[:i] + rng.choice(FUZZ_ALPHABET) + text[i + 1:]
        assert parse_outcome(parse_term, bad) == parse_outcome(parse_term_oracle, bad), bad


def test_canonical_pool_is_canonical_and_sorted():
    pool = canonical_terms(["x", "y"], 4, 4, _Budget())
    assert all(canonicalize(t) is t for t in pool)
    sizes = [term_size(t) for t in pool]
    assert sizes == sorted(sizes)
    assert len(set(pool)) == len(pool)


def seeded_term_pairs(seed, count):
    """(s, t) pairs with 8-64 leaves over x, y, z, w.  Subterms are pooled
    by leaf count and reused; t is s | u, s & u, s | (s & u) or unrelated,
    so both orders occur."""
    rng = random.Random(seed)
    gens = [gen(g) for g in "xyzw"]
    reuse = {}

    def term(leaves):
        if leaves == 1:
            return rng.choice(gens)
        pooled = reuse.get(leaves)
        if pooled and rng.random() < 0.3:
            return rng.choice(pooled)
        k = rng.randint(1, leaves - 1)
        t = rng.choice((meet, join))(term(k), term(leaves - k))
        if leaves >= 4 and rng.random() < 0.2:
            reuse.setdefault(leaves, []).append(t)
        return t

    pairs = []
    for _ in range(count):
        s = term(rng.randint(8, 64))
        kind = rng.randrange(4)
        if kind == 0:
            t = join(s, term(rng.randint(1, 16)))
        elif kind == 1:
            t = meet(s, term(rng.randint(1, 16)))
        elif kind == 2:
            t = join(s, meet(s, term(rng.randint(1, 8))))
        else:
            t = term(rng.randint(8, 64))
        pairs.append((s, t))
    return pairs


def assert_canonical(t, c):
    assert is_canonical_oracle(c), str(c)
    assert term_equal(t, c)
    assert canonicalize(c) is c


def test_canonical_oracle_rejects_each_condition():
    assert is_canonical_oracle(join(meet(x, join(y, z)), y))
    assert not is_canonical_oracle(join(x, join(y, z)))  # nested join
    assert not is_canonical_oracle(join(x, x))  # repeated argument
    assert not is_canonical_oracle(meet(x, join(x, y)))  # comparable arguments
    # pairwise incomparable, but y | z lies below the whole term
    assert not is_canonical_oracle(join(meet(x, join(y, z)), y, z))
    assert canonicalize(join(meet(x, join(y, z)), y, z)) is join(y, z)


def test_canonical_forms_and_order_pinned():
    lines = []
    for seed in (1, 2, 3):
        for s, t in seeded_term_pairs(seed, 100):
            cs, ct = canonicalize(s), canonicalize(t)
            assert_canonical(s, cs)
            assert_canonical(t, ct)
            lines.append(f"{format_term(cs)}\t{format_term(ct)}\t"
                         f"{int(leq(s, t))}{int(leq(t, s))}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    # recorded before canonicalize switched to pairwise Whitman rules
    assert digest == "228e55edd45dba94fd1b6a9756ea2b731c953691949d22a6a3c6b061efdec7d6"


@pytest.mark.parametrize("names, max_size, max_depth, count, pin", [
    ("xyz", 7, 4, 127, "dc3cb8ab85f66e9b63234a33a798fc55949c520d213d7663c67b3326b5a107c2"),
    ("xyzw", 5, 4, 628, "1b1f0c18217cc87416705bd2f251c3a3e5a699d0cf2d9eaf8c067c584373eb4e"),
    ("xyz", 8, 5, 337, "89c6a591bdbcd9c76376ded3e492889657163c4032cfa7b70cf2a346dd3fb2ab"),
])
def test_canonical_pools_pinned(names, max_size, max_depth, count, pin):
    pool = canonical_terms(list(names), max_size, max_depth, _Budget())
    assert len(pool) == count
    for t in pool:
        assert_canonical(t, t)
        assert term_size(t) <= max_size and term_depth(t) <= max_depth
    assert pool == sorted(pool, key=lambda t: (term_size(t), term_key(t)))
    text = "\n".join(format_term(t) for t in pool)
    # recorded before the pool became the closure under binary meet and join
    assert hashlib.sha256(text.encode()).hexdigest() == pin


def whitman_pairs():
    """The distributive pair, absorption pairs and the seeded pairs."""
    pairs = [(join(meet(x, y), meet(x, z)), meet(x, join(y, z))),
             (join(x, meet(x, y)), x), (meet(x, join(x, y)), x),
             (join(meet(x, y), meet(meet(x, y), z)), meet(x, y)),
             (meet(join(x, z), join(join(x, z), y)), join(x, z))]
    return pairs + seeded_term_pairs(4, 150)


def test_leq_agrees_with_plain_whitman_recursion():
    for s, t in whitman_pairs():
        assert leq(s, t) == whitman_leq_oracle(s, t), (str(s), str(t))
        assert leq(t, s) == whitman_leq_oracle(t, s), (str(s), str(t))


def two_valued(t, k):
    """t's value in the two-element lattice under the map sending each
    generator to bit k of its sketch."""
    if t.kind == "gen":
        return t.sketch >> k & 1
    values = [two_valued(a, k) for a in t.args]
    return min(values) if t.kind == "meet" else max(values)


def test_sketch_is_the_value_under_sixty_four_two_valued_maps():
    # a fixed mix of the name's bytes, not hash() or first-seen order
    assert [gen(g).sketch for g in "xyzw"] == [
        0x2C782AC22891188E, 0x6BF7B2ABFFF4CBEF, 0x58854B0A643A458A, 0x931AAE91B01677E1]
    for s, t in whitman_pairs():
        for u in (s, t):
            assert u.sketch == sum(two_valued(u, k) << k for k in range(64)), str(u)


@pytest.fixture
def memo_spy(monkeypatch):
    """Each step of Whitman's recursion as (s, t, its result, what the memo
    held for (s, t) when the step returned), with the canonical forms of
    earlier tests out of sight, so canonicalising does its leq work again."""
    steps, step = [], freeterm._leq

    def spy(s, t):
        res = step(s, t)
        steps.append((s, t, res, freeterm._LEQ.get((s, t), "absent")))
        return res

    monkeypatch.setattr(freeterm, "_leq", spy)
    monkeypatch.setattr(freeterm, "_CANON", {})
    return steps


def test_sketch_refutes_without_memoising_and_never_proves(memo_spy):
    """Within a call, a pair the sketch refutes is never memoised and every
    pair Whitman's recursion decides is; the call leaves the memo empty."""
    refuted = 0
    for s, t in whitman_pairs():
        for a, b in ((s, t), (t, s)):
            refuted += bool(a.sketch & ~b.sketch)
            assert leq(a, b) == whitman_leq_oracle(a, b)
            assert freeterm._LEQ == {}
    assert refuted > 0
    for a, b, res, memo in memo_spy:
        if a is b or a.sketch & ~b.sketch:
            assert memo == "absent" and res is (a is b)
        else:
            assert memo is res
    # distributive in the two-element lattice, so no sketch can refute it:
    # Whitman's recursion decides it
    lhs, rhs = join(x, meet(y, z)), meet(join(x, y), join(x, z))
    assert not rhs.sketch & ~lhs.sketch
    memo_spy.clear()
    assert not leq(rhs, lhs)
    assert memo_spy[-1] == (rhs, lhs, False, False) and freeterm._LEQ == {}


def test_whitman_memo_lives_for_one_public_call(memo_spy, monkeypatch):
    """Each public entry point fills the memo and leaves it empty, also when
    it raises: on running out of budget, and on a term too deep for the
    recursion.  find_free_embedding verifies its witness through the
    private body of verify_free_embedding, so the memo outlives that."""
    a, b, c = gen("memo_a"), gen("memo_b"), gen("memo_c")
    lhs, rhs = join(a, meet(b, c)), meet(join(a, b), join(a, c))
    deep = a
    for _ in range(1000):
        deep = meet(a, join(b, deep))
    assert term_depth(deep) == 2000
    n5 = catalog.get("N5")
    witness = find_free_embedding(n5)
    entries = [
        (lambda: find_free_embedding(catalog.get("stacked_n5"), budget=50), SearchBudgetExceeded),
        (lambda: canonicalize(join(meet(rhs, lhs), deep)), RecursionError),
        (lambda: leq(rhs, lhs), None),
        (lambda: term_equal(lhs, rhs), None),
        (lambda: canonicalize(join(rhs, meet(lhs, c))), None),
        (lambda: verify_free_embedding(n5, witness), None),
        (lambda: find_free_embedding(n5), None),
    ]
    for call, error in entries:
        memo_spy.clear()
        if error is None:
            call()
        else:
            with pytest.raises(error):
                call()
        assert any(memo != "absent" for *_, memo in memo_spy)
        assert freeterm._LEQ == {}
    # the search's own verification runs inside its call: the memo outlives it
    verify, left = freeterm._verify_free_embedding, []

    def spy(L, terms):
        res = verify(L, terms)
        left.append(len(freeterm._LEQ))
        return res

    monkeypatch.setattr(freeterm, "_verify_free_embedding", spy)
    assert find_free_embedding(n5) == witness
    assert len(left) == 1 and left[0] > 0 and freeterm._LEQ == {}


def test_no_entry_point_reaches_another():
    """Each public entry point empties the Whitman memo when it returns, so
    one run inside another would empty the outer call's memo.  The module
    is read with ast: no entry point names another, directly or through
    the module's other functions, nested functions and lambdas included."""
    with open(freeterm.__file__) as f:
        tree = ast.parse(f.read())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    entries = {name for name, node in defs.items()
               if any(isinstance(d, ast.Name) and d.id == "_one_call" for d in node.decorator_list)}
    assert entries == {"leq", "term_equal", "canonicalize", "verify_free_embedding",
                       "find_free_embedding"}
    named = {name: {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and n.id in defs}
             for name, node in defs.items()}
    for entry in entries:
        reached, todo = set(), list(named[entry])
        while todo:
            name = todo.pop()
            if name not in reached:
                reached.add(name)
                todo.extend(named[name])
        assert not reached & entries, entry


def test_canonicalize_interns_one_term_per_round():
    """The sorted whole decides the inner-kind rule and is the result, so
    flattening out of order leaves no unsorted term interned."""
    cp, cq, cr = gen("intern_cp"), gen("intern_cq"), gen("intern_cr")
    t = parse_term("(intern_cr | intern_cq) | intern_cp")
    before = set(freeterm._INTERN)
    assert canonicalize(t) is join(cp, cq, cr)
    assert set(freeterm._INTERN) - before == {("join", (cp, cq, cr)), ("join", (cq, cr))}
    assert ("join", (cq, cr, cp)) not in freeterm._INTERN


def test_generator_names_are_identifiers():
    """gen takes exactly the names that parse_term reads as one identifier,
    so every generator prints as text that parses back to it, and it never
    returns the compound term filed under a tuple key."""
    for name in ("x", "_", "x'", "_y2", "x²", "é", "x٣"):
        assert parse_term(format_term(gen(name))) is gen(name)
    for name in ("x-y", "x y", "", "2x", "²x", "'x", "x?", "(x)", "x&y", "x\u3000y",
                 ("meet", meet(x, y).args)):
        with pytest.raises(BadParameter):
            gen(name)
    # once interned, "x-y" would print as x-y, which no term parses as
    with pytest.raises(ParseError) as exc:
        parse_term("x-y")
    assert (str(exc.value), exc.value.offset) == ("unexpected character '-'", 1)
