"""Words in the free lattice over named generators: Whitman's decision
procedure for the word problem, canonical forms, evaluation into finite
lattices, and bounded search for free-lattice embeddings of finite lattices.

Terms are hash-consed, so canonical terms compare by identity.  Each term
carries a 64-bit sketch, its values under 64 fixed maps of the generators
into the two-element lattice; as those maps extend to homomorphisms, a bit
set in s's sketch and clear in t's proves s is not below t, and `leq`
refutes such pairs without recursing.  The pairs Whitman's recursion
decides are memoised.  `canonicalize` alone says what a canonical term is
(Freese, Jezek & Nation's characterisation, tested pairwise), and the
embedding search's term pool is the closure of the generators under it.
The word problem needs no finite lattice, so `core` is imported only by the
embedding search.
"""

from __future__ import annotations

import re

from .errors import BadParameter, ParseError, UnassignedGenerator

# FiniteLattice in annotations is core's; annotations are not evaluated
# (PEP 563), so they need no import of core.


class FreeTerm:
    """Generator, or join/meet of at least two subterms.  Instances are
    interned: structurally equal terms are the same object."""

    __slots__ = ("kind", "name", "args", "size", "depth", "sketch", "_enc")

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
    key = (kind, name) if kind == "gen" else (kind, args)
    t = _INTERN.get(key)
    if t is None:
        t = object.__new__(FreeTerm)
        t.kind = kind
        t.name = name
        t.args = args
        if kind == "gen":
            t.size, t.depth, t.sketch = 1, 0, _gen_sketch(name)
        else:
            t.size = sum(a.size for a in args)
            t.depth = 1 + max(a.depth for a in args)
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
    return _make("gen", name, None)


def _combine(kind, args) -> FreeTerm:
    """The ``kind`` ("join" or "meet") of ``args``; one argument is itself."""
    if not args:
        raise BadParameter(f"{kind} needs at least one argument")
    return args[0] if len(args) == 1 else _make(kind, None, args)


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


_LEQ = {}


def leq(s: FreeTerm, t: FreeTerm) -> bool:
    """Whitman's recursion deciding s <= t in the free lattice.  A pair whose
    sketches show a two-valued map with s at 1 and t at 0 is refuted at
    once and not memoised; the sketch never proves s <= t."""
    if s is t:
        return True
    if s.sketch & ~t.sketch:
        return False
    key = (s, t)
    hit = _LEQ.get(key)
    if hit is not None:
        return hit
    if s.kind == "join":
        res = all(leq(si, t) for si in s.args)
    elif t.kind == "meet":
        res = all(leq(s, tj) for tj in t.args)
    elif s.kind == "gen":
        if t.kind == "gen":
            res = s.name == t.name
        else:  # t is a join
            res = any(leq(s, tj) for tj in t.args)
    elif t.kind == "gen":  # s is a meet
        res = any(leq(si, t) for si in s.args)
    else:  # s meet, t join: Whitman's condition supplies the split
        res = any(leq(si, t) for si in s.args) or any(leq(s, tj) for tj in t.args)
    _LEQ[key] = res
    return res


def term_equal(s: FreeTerm, t: FreeTerm) -> bool:
    return leq(s, t) and leq(t, s)


_CANON = {}


def canonicalize(t: FreeTerm) -> FreeTerm:
    """The unique canonical representative of t's equivalence class
    (Freese, Jezek & Nation, *Free Lattices*, Ch. I).  For a join, and
    dually for a meet: arguments canonical, same-kind arguments flattened,
    every argument below another dropped, a meet-argument with an argument
    of its own below the whole term replaced by that argument (then start
    again), arguments sorted by the fixed term order.  The pairwise test
    suffices: generators are join-prime, and a meet lies below a join only
    if one of its arguments does or it lies below one of the join's."""
    hit = _CANON.get(t)
    if hit is not None:
        return hit
    if t.kind == "gen":
        _CANON[t] = t
        return t
    kind = t.kind
    inner = "meet" if kind == "join" else "join"
    below = leq if kind == "join" else (lambda a, b: leq(b, a))
    args = [canonicalize(a) for a in t.args]
    while True:
        flat = []
        for a in args:
            for b in (a.args if a.kind == kind else (a,)):
                if b not in flat:
                    flat.append(b)
        # distinct canonical terms are never equal, so "below" is strict
        args = [a for a in flat if not any(b is not a and below(a, b) for b in flat)]
        if len(args) == 1:
            res = args[0]
            break
        whole = _make(kind, None, tuple(args))
        sub = next(((i, s) for i, a in enumerate(args) if a.kind == inner
                    for s in a.args if below(s, whole)), None)
        if sub is None:
            res = _make(kind, None, tuple(sorted(args, key=term_key)))
            break
        args[sub[0]] = sub[1]
    _CANON[t] = res
    _CANON[res] = res
    return res


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


def verify_free_embedding(L: FiniteLattice, terms) -> bool:
    """True iff element -> term is order-preserving and order-reflecting and
    sends the meet/join tables to term-level meets and joins."""
    ts = [terms[a] for a in range(L.n)]
    for a in range(L.n):
        for b in range(L.n):
            if leq(ts[a], ts[b]) != L.leq(a, b):
                return False
    for a in range(L.n):
        for b in range(a + 1, L.n):
            if not term_equal(ts[L.meet[a][b]], meet(ts[a], ts[b])):
                return False
            if not term_equal(ts[L.join[a][b]], join(ts[a], ts[b])):
                return False
    return True


# -- canonical term pools and embedding search -------------------------------


def canonical_terms(gen_names, max_size, max_depth, budget):
    """All canonical terms over the given generators with at most max_size
    generator occurrences and the given depth, sorted small-first: the
    closure of the generators under the canonical meet and join of two
    terms.  It misses none, as a canonical t1 | ... | tk is the canonical
    join of t1 and t2 | ... | tk, which is canonical, smaller and no deeper
    (dually for meets).  Only the pool's sizes and pairs within the size
    bound are visited, each pair spending a node of ``budget``."""
    pool = [gen(g) for g in gen_names]
    by_size = {1: list(range(len(pool)))}  # size -> pool indices, ascending
    seen = set(pool)
    for i, a in enumerate(pool):  # the pool grows as it is scanned
        # a size first reached while a is scanned holds only terms after a
        for size in sorted(s for s in by_size if s <= max_size - a.size):
            for j in by_size[size]:
                if j > i:
                    break
                budget.spend("free embedding search")
                b = pool[j]
                # comparable terms meet and join to themselves
                if leq(a, b) or leq(b, a):
                    continue
                for op in (meet, join):
                    t = canonicalize(op(a, b))
                    if t.size <= max_size and t.depth <= max_depth and t not in seen:
                        seen.add(t)
                        by_size.setdefault(t.size, []).append(len(pool))
                        pool.append(t)
    pool.sort(key=lambda t: (t.size, term_key(t)))
    return pool


def _derivation_plan(L, gens):
    """Table operations that produce every element from the generators."""
    known = list(gens)
    known_set = set(gens)
    plan = []
    while len(known_set) < L.n:
        progressed = False
        for i, a in enumerate(known):
            for b in known[: i + 1]:
                for op, table in (("meet", L.meet), ("join", L.join)):
                    c = table[a][b]
                    if c not in known_set:
                        plan.append((c, op, a, b))
                        known.append(c)
                        known_set.add(c)
                        progressed = True
        if not progressed:
            raise AssertionError("generating set does not generate")
    return plan


def find_free_embedding(L: FiniteLattice, n_gens=3, max_depth=4, max_size=7,
                        budget=None):
    """Bounded search for a free-lattice embedding witness: terms over
    ``n_gens`` generators are assigned to a minimal generating set of L (the
    first in size-lex order), the rest derived through the tables, within
    ``budget`` nodes (``default_budget()`` by default, or a shared budget),
    one per pair in the term pool, per seed set tried and per term tried.
    Returns element -> term, or None when the bounded search exhausts
    (inconclusive, not a refutation)."""
    from itertools import combinations

    from .core import _Budget, generated_sublattice

    names = [chr(ord("x") + i) for i in range(n_gens)] if n_gens <= 3 else [
        f"g{i}" for i in range(n_gens)
    ]
    budget = _Budget.of(budget)
    pool = canonical_terms(names, max_size, max_depth, budget)
    full = frozenset(range(L.n))
    for seeds in (s for k in range(1, L.n + 1) for s in combinations(range(L.n), k)):
        budget.spend("free embedding search")
        if generated_sublattice(L, seeds) == full:
            gens_of_L = list(seeds)
            break
    plan = _derivation_plan(L, gens_of_L)

    def compatible(assigned, g, t):
        for g2, t2 in assigned.items():
            if leq(t, t2) != L.leq(g, g2) or leq(t2, t) != L.leq(g2, g):
                return False
        return True

    def complete(assigned):
        terms = dict(assigned)
        for c, op, a, b in plan:
            f = meet if op == "meet" else join
            terms[c] = canonicalize(f(terms[a], terms[b]))
        full = [terms[a] for a in range(L.n)]
        if len({id(t) for t in full}) != L.n:
            return None
        if verify_free_embedding(L, terms):
            return {a: terms[a] for a in range(L.n)}
        return None

    def rec(k, assigned):
        if k == len(gens_of_L):
            return complete(assigned)
        g = gens_of_L[k]
        for t in pool:
            budget.spend("free embedding search")
            if t in assigned.values():
                continue
            if compatible(assigned, g, t):
                assigned[g] = t
                found = rec(k + 1, assigned)
                if found is not None:
                    return found
                del assigned[g]
        return None

    return rec(0, {})


# -- surface syntax -----------------------------------------------------------


# an operator or parenthesis, an identifier (its first character is checked
# in the parser: [^\W\d] also takes numerics such as "²"), or any other
# non-space character, which is always an error
_TOKEN = re.compile(r"[&|()]|[^\W\d][\w']*|\S")


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
    error (a missing ")" at its "(").  The text is tokenised in one regular
    expression pass and the tokens parsed in a loop, so nesting depth is
    unbounded."""
    tokens = _TOKEN.findall(text)
    # one frame per open parenthesis: (finished meets of its expr, factors
    # of the current meets, token index of its "("), the innermost unpacked
    stack = []
    joinands, meetands, opened = [], [], None
    want_factor = True
    for pos, tok in enumerate(tokens):
        if want_factor:
            if tok == "(":
                stack.append((joinands, meetands, opened))
                joinands, meetands, opened = [], [], pos
                continue
            if not (tok[0].isalpha() or tok[0] == "_"):
                raise _parse_error(text, f"unexpected token {tok!r}", pos, pos)
            meetands.append(gen(tok))
            want_factor = False
        elif tok == "&":
            want_factor = True
        elif tok == "|":
            joinands.append(meet(*meetands))
            meetands = []
            want_factor = True
        elif tok == ")" and opened is not None:
            joinands.append(meet(*meetands))
            t = join(*joinands)
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
    joinands.append(meet(*meetands))
    return join(*joinands)


def format_term(t: FreeTerm) -> str:
    """``&`` binds tighter than ``|``, so a meet brackets every compound
    argument and a join only its joins."""
    if t.kind == "gen":
        return t.name
    op, bracketed = (" & ", ("meet", "join")) if t.kind == "meet" else (" | ", ("join",))
    return op.join(["(" + format_term(a) + ")" if a.kind in bracketed else format_term(a)
                    for a in t.args])
