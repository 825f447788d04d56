"""Words in the free lattice over named generators: Whitman's decision
procedure for the word problem, canonical forms, evaluation into finite
lattices, and free-lattice embedding witnesses for finite lattices, built
as sections of the map of a free lattice onto them.

Terms are hash-consed, so canonical terms compare by identity.  Each term
carries a 64-bit sketch, its values under 64 fixed maps of the generators
into the two-element lattice; as those maps extend to homomorphisms, a bit
set in s's sketch and clear in t's proves s is not below t, and `leq`
refutes such pairs without recursing.  The pairs Whitman's recursion
decides are memoised for one public call (`leq`, `term_equal`,
`canonicalize`, `verify_free_embedding` or `find_free_embedding`), which
leaves the memo empty, also when it raises; none of them calls another.
Interned terms and canonical forms are kept for the process, so canonical
terms compare by identity across calls.  `canonicalize` alone says what a
canonical term is (Freese, Jezek & Nation's characterisation, tested
pairwise), interning one term per round, and every witness term is
canonicalised by it.  The word
problem needs no finite lattice, so `core` and `laws` are imported only by
the witness construction.
"""

from __future__ import annotations

import functools
import re
from itertools import repeat

from .errors import BadParameter, ParseError, UnassignedGenerator

# FiniteLattice in annotations is core's; annotations are not evaluated
# (PEP 563), so they need no import of core.


class FreeTerm:
    """Generator, or join/meet of at least two subterms.  Instances are
    interned: structurally equal terms are the same object."""

    __slots__ = ("kind", "name", "args", "sketch", "_enc")

    def __repr__(self):
        return f"FreeTerm({format_term(self)!r})"

    def __str__(self):
        return format_term(self)

    @property
    def encoding(self):
        if self._enc is None:
            if self.kind == "gen":
                self._enc = self.name
            else:
                mark = "&" if self.kind == "meet" else "|"
                self._enc = mark + "(" + ",".join(a.encoding for a in self.args) + ")"
        return self._enc


_INTERN = {}

_MASK64 = (1 << 64) - 1


def _gen_sketch(name):
    """64 pseudo-random bits fixed by the bytes of ``name`` (FNV-1a, then
    the splitmix64 finaliser), the same in every process."""
    h = 0xCBF29CE484222325
    for byte in name.encode("utf-8", "surrogatepass"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK64
    return h ^ (h >> 31)


def _make(kind, name, args):
    # a generator is kept under its bare name, which no (kind, args) key equals
    key = name if kind == "gen" else (kind, args)
    t = _INTERN.get(key)
    if t is None:
        t = object.__new__(FreeTerm)
        t.kind = kind
        t.name = name
        t.args = args
        if kind == "gen":
            t.sketch = _gen_sketch(name)
        else:
            # bit k is the value under the k-th two-valued map: meet is AND,
            # join is OR
            sketch = args[0].sketch
            if kind == "meet":
                for a in args[1:]:
                    sketch &= a.sketch
            else:
                for a in args[1:]:
                    sketch |= a.sketch
            t.sketch = sketch
        t._enc = None
        _INTERN[key] = t
    return t


def gen(name: str) -> FreeTerm:
    """The generator ``name``, which must be one identifier of the surface
    syntax (see :func:`parse_term`)."""
    t = _INTERN.get(name)
    if t is None or t.kind != "gen":  # compound terms are filed under tuples
        if not (isinstance(name, str) and _is_name(name)):
            raise BadParameter(f"generator name {name!r} is not an identifier")
        t = _make("gen", name, None)
    return t


def _combine(kind, args) -> FreeTerm:
    """The ``kind`` ("join" or "meet") of ``args``; one argument is itself."""
    if not args:
        raise BadParameter(f"{kind} needs at least one argument")
    return args[0] if len(args) == 1 else _make(kind, None, tuple(args))


def join(*args) -> FreeTerm:
    return _combine("join", args)


def meet(*args) -> FreeTerm:
    return _combine("meet", args)


_KIND_RANK = {"gen": 0, "meet": 1, "join": 2}


def term_key(t: FreeTerm):
    """Fixed total order: generators by name, then meets before joins,
    length-lex on encodings within a kind."""
    e = t.encoding
    return (_KIND_RANK[t.kind], len(e), e)


# the pairs Whitman's recursion decided in the open public call
_LEQ = {}


def _one_call(body):
    """``body`` as a public entry point, which owns the Whitman memo and
    leaves it empty when it returns or raises.  No entry point calls
    another, or the inner call would empty the outer one's memo."""
    @functools.wraps(body)
    def entry(*args, **kwargs):
        try:
            return body(*args, **kwargs)
        finally:
            _LEQ.clear()
    return entry


def _leq(s, t):
    if s is t:
        return True
    if s.sketch & ~t.sketch:
        return False
    key = (s, t)
    hit = _LEQ.get(key)
    if hit is not None:
        return hit
    # map, not generator expressions: each step is one C-level call
    if s.kind == "join":
        res = all(map(_leq, s.args, repeat(t)))
    elif t.kind == "meet":
        res = all(map(_leq, repeat(s), t.args))
    elif s.kind == "gen":
        if t.kind == "gen":
            res = s.name == t.name
        else:  # t is a join
            res = any(map(_leq, repeat(s), t.args))
    elif t.kind == "gen":  # s is a meet
        res = any(map(_leq, s.args, repeat(t)))
    else:  # s meet, t join: Whitman's condition supplies the split
        res = any(map(_leq, s.args, repeat(t))) or any(map(_leq, repeat(s), t.args))
    _LEQ[key] = res
    return res


@_one_call
def leq(s: FreeTerm, t: FreeTerm) -> bool:
    """Whitman's recursion deciding s <= t in the free lattice.  A pair whose
    sketches show a two-valued map with s at 1 and t at 0 is refuted at
    once and not memoised; the sketch never proves s <= t."""
    return _leq(s, t)


@_one_call
def term_equal(s: FreeTerm, t: FreeTerm) -> bool:
    return _leq(s, t) and _leq(t, s)


_CANON = {}


def _canonicalize(t):
    hit = _CANON.get(t)
    if hit is not None:
        return hit
    if t.kind == "gen":
        _CANON[t] = t
        return t
    kind = t.kind
    inner = "meet" if kind == "join" else "join"
    below = _leq if kind == "join" else (lambda a, b: _leq(b, a))
    args = [_canonicalize(a) for a in t.args]
    while True:
        # the distinct arguments by identity, in first-seen order
        flat = dict.fromkeys(b for a in args for b in (a.args if a.kind == kind else (a,)))
        # distinct canonical terms are never equal, so "below" is strict
        args = [a for a in flat if not any(b is not a and below(a, b) for b in flat)]
        if len(args) == 1:
            res = args[0]
            break
        # Whitman's order ignores argument order: the sorted whole decides
        args.sort(key=term_key)
        whole = _make(kind, None, tuple(args))
        sub = next(((i, s) for i, a in enumerate(args) if a.kind == inner
                    for s in a.args if below(s, whole)), None)
        if sub is None:
            res = whole
            break
        args[sub[0]] = sub[1]
    _CANON[t] = res
    _CANON[res] = res
    return res


@_one_call
def canonicalize(t: FreeTerm) -> FreeTerm:
    """The unique canonical representative of t's equivalence class
    (Freese, Jezek & Nation, *Free Lattices*, Ch. I).  For a join, and
    dually for a meet: arguments canonical, same-kind arguments flattened,
    every argument below another dropped, a meet-argument with an argument
    of its own below the whole term replaced by that argument (then start
    again), arguments sorted by the fixed term order.  The pairwise test
    suffices: generators are join-prime, and a meet lies below a join only
    if one of its arguments does or it lies below one of the join's."""
    return _canonicalize(t)


def evaluate(t: FreeTerm, L: FiniteLattice, assignment: dict) -> int:
    """Structural evaluation through L's tables; generators map per
    ``assignment`` (name -> element index)."""
    if t.kind == "gen":
        if t.name not in assignment:
            raise UnassignedGenerator(t.name)
        return assignment[t.name]
    vals = [evaluate(a, L, assignment) for a in t.args]
    table = L.join if t.kind == "join" else L.meet
    acc = vals[0]
    for v in vals[1:]:
        acc = table[acc][v]
    return acc


def _verify_free_embedding(L, terms):
    ts = [terms[a] for a in range(L.n)]
    for a in range(L.n):
        for b in range(L.n):
            if _leq(ts[a], ts[b]) != L.leq(a, b):
                return False
    for a in range(L.n):
        for b in range(a + 1, L.n):
            if not _leq(meet(ts[a], ts[b]), ts[L.meet[a][b]]):
                return False
            if not _leq(ts[L.join[a][b]], join(ts[a], ts[b])):
                return False
    return True


@_one_call
def verify_free_embedding(L: FiniteLattice, terms) -> bool:
    """True iff element -> term is order-preserving and order-reflecting and
    sends the meet/join tables to term-level meets and joins.  The order
    check already gives g(a ^ b) <= g(a) ^ g(b) and g(a) v g(b) <= g(a v b),
    so only the other direction of each equality is tested."""
    return _verify_free_embedding(L, terms)


# -- free-lattice witnesses ----------------------------------------------------


def free_generators(L: FiniteLattice) -> list:
    """The generators of L's witness as (name, element) pairs: the
    join-irreducibles in index order, after 0 if 0 has at most one upper
    cover (else 0 is a meet of atoms), named x, y, z if at most three,
    else g0, g1, ..."""
    elems = [a for a in range(L.n) if len(L.lower_covers(a)) == 1]
    if len(L.upper_covers(L.bottom)) <= 1:
        elems.insert(0, L.bottom)
    names = "xyz" if len(elems) <= 3 else [f"g{i}" for i in range(len(elems))]
    return list(zip(names, elems))


@_one_call
def find_free_embedding(L: FiniteLattice, budget=None):
    """A verified free-lattice embedding witness for L, element -> canonical
    term, spending one node of ``budget`` (``default_budget()`` by default,
    or a shared budget) per term built per round; None if L fails W or a
    semidistributive law, which every sublattice of a free lattice keeps.

    A finite bounded W lattice is projective (A. Kostinsky, *Pacific J.
    Math.* 40 (1972)), so x_k -> k, over ``free_generators(L)``, has a
    section g.  The lower bounds beta on J(L) come from join covers in
    rounds (A. Day, *Canad. J. Math.* 31 (1979); Freese, Jezek & Nation,
    Ch. II); g starts at beta and joins in, below each meet-reducible y,
    the meet of g at y's canonical meetands kappa_v(y).  This g is the
    module's own construction, so a W and SD lattice also gets None if beta
    (not lower bounded) or g does not settle, or g fails verification."""
    from .core import _Budget, iter_bits
    from .laws import is_finite_free_sublattice

    if not is_finite_free_sublattice(L):
        return None
    budget = _Budget.of(budget)
    n, up, leq_l, join_l = L.n, L.up, L.leq, L.join
    gens = free_generators(L)
    irr = [k for _, k in gens if k != L.bottom]
    by_height = sorted(range(n), key=L.heights().__getitem__)

    def canon(op, args):
        budget.spend("free embedding search")
        return _canonicalize(op(*args))

    def settle(step, value, rounds):
        for _ in range(rounds):
            value, last = step(value), value
            if value == last:
                return value
        return None

    def extend(beta):  # beta on every element, read off its lower covers
        ext = [canon(meet, [gen(name) for name, _ in gens])] * n
        for u in by_height[1:]:
            below = [ext[c] for c in L.lower_covers(u)]
            ext[u] = canon(join, [beta[u]] + below if u in beta else below)
        return ext

    start = {p: canon(meet, [gen(name) for name, k in gens if leq_l(p, k)]) for p in irr}

    def minimal(p, q):  # the minimal u not above p with p <= q v u
        mask = ~up[p] & sum(1 << u for u, t in enumerate(join_l[q]) if up[p] >> t & 1)
        return [u for u in iter_bits(mask) if L.down[u] & mask == 1 << u]

    covers = {p: [(q, u) for q in irr if not leq_l(p, q) for u in minimal(p, q)] for p in irr}

    def beta_round(beta):
        ext = extend(beta)
        return {p: canon(meet, [start[p]] + [join(beta[q], ext[u]) for q, u in covers[p]])
                for p in irr}

    beta = settle(beta_round, start, len(irr) + 1)
    if beta is None:
        return None
    lower = extend(beta)
    # kappa_v(y) for each upper cover v of y: the join of the elements above y, not above v
    kappas = [(y, [functools.reduce(lambda a, b: join_l[a][b], iter_bits(up[y] & ~up[v]), y)
                   for v in L.upper_covers(y)])
              for y in range(n) if len(L.upper_covers(y)) > 1]

    def g_pass(g):
        meets = [(y, meet(*[g[k] for k in ks])) for y, ks in kappas]
        return [canon(join, [lower[x]] + [m for y, m in meets if leq_l(y, x)])
                for x in range(n)]

    g = settle(g_pass, lower, n + 1)
    witness = g and dict(enumerate(g))
    return witness if witness and _verify_free_embedding(L, witness) else None


# -- surface syntax -----------------------------------------------------------


# the regular tokenisation, which error messages are read off: an operator
# or parenthesis, an identifier (its first character is checked apart:
# [^\W\d] also takes numerics such as "²"), or any other non-space
# character, which is always an error
_TOKEN = re.compile(r"[&|()]|[^\W\d][\w']*|\S")


def _is_name(tok):
    """True iff ``tok`` is one identifier token."""
    return (tok[:1].isalpha() or tok[:1] == "_") and _TOKEN.fullmatch(tok) is not None


def _parse_error(text, message, at, scan_from):
    """The ParseError for ``message`` at the offset of token ``at`` (the end
    of the text if there is no such token), unless a token from
    ``scan_from`` on is a bad character: that is reported first, as the
    whole text is one tokenisation."""
    offset = len(text)
    for i, m in enumerate(_TOKEN.finditer(text)):
        if i == at:
            offset = m.start()
        ch = m.group()[0]
        if i >= scan_from and ch not in "&|()" and not (ch.isalpha() or ch == "_"):
            return ParseError(f"unexpected character {ch!r}", offset=m.start())
    return ParseError(message, offset=offset)


def parse_term(text: str) -> FreeTerm:
    """Parse ``x & (y | z)`` style syntax; & binds tighter than |.

    expr := meets ("|" meets)*, meets := factor ("&" factor)*,
    factor := ident | "(" expr ")"; an identifier starts with a letter or
    "_" and goes on with letters, digits and other numerics, "_" and "'";
    whitespace separates tokens.  A ParseError reports the first character
    that can start no token, if the text has one, else the first grammar
    error (a missing ")" at its "(").  The tokens are the whitespace-split
    words once operators and parentheses are spaced apart, parsed in a
    loop, so nesting depth is unbounded.  Up to the first word that is not
    one token of the regular tokenisation ``_TOKEN``, the two agree token
    by token, and the parser stops at that word, so an error's position is
    read off ``_TOKEN``."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").replace("&", " & ").replace(
        "|", " | ").split()
    # one frame per open parenthesis: (finished meets of its expr, factors
    # of the current meets, token index of its "("), the innermost unpacked
    stack = []
    joinands, meetands, opened = [], [], None
    want_factor = True
    interned = _INTERN.get  # only gen() files string keys, all identifiers
    for pos, tok in enumerate(tokens):
        if want_factor:
            t = interned(tok)
            if t is None:
                if tok == "(":
                    stack.append((joinands, meetands, opened))
                    joinands, meetands, opened = [], [], pos
                    continue
                if not _is_name(tok):
                    raise _parse_error(text, f"unexpected token {tok!r}", pos, pos)
                t = _make("gen", tok, None)
            meetands.append(t)
            want_factor = False
        elif tok == "&":
            want_factor = True
        elif tok == "|":
            args = tuple(meetands)
            joinands.append(args[0] if len(args) == 1
                            else interned(("meet", args)) or _make("meet", None, args))
            meetands = []
            want_factor = True
        elif tok == ")" and opened is not None:
            args = tuple(meetands)
            t = args[0] if len(args) == 1 else interned(("meet", args)) or _make("meet", None, args)
            if joinands:
                joinands.append(t)
                args = tuple(joinands)
                t = interned(("join", args)) or _make("join", None, args)
            joinands, meetands, opened = stack.pop()
            meetands.append(t)
        elif opened is None:
            raise _parse_error(text, "trailing input", pos, pos)
        else:
            raise _parse_error(text, "missing closing parenthesis", opened, pos)
    if want_factor:
        raise _parse_error(text, "unexpected end of term", len(tokens), len(tokens))
    if opened is not None:
        raise _parse_error(text, "missing closing parenthesis", opened, len(tokens))
    joinands.append(_combine("meet", meetands))
    return _combine("join", joinands)


def format_term(t: FreeTerm) -> str:
    """``&`` binds tighter than ``|``, so a meet brackets every compound
    argument and a join only its joins."""
    if t.kind == "gen":
        return t.name
    op, bracketed = (" & ", ("meet", "join")) if t.kind == "meet" else (" | ", ("join",))
    return op.join(["(" + format_term(a) + ")" if a.kind in bracketed else format_term(a)
                    for a in t.args])
