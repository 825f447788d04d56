"""Words in the free lattice over named generators: Whitman's decision
procedure for the word problem, canonical forms, evaluation into finite
lattices, and bounded search for free-lattice embeddings of finite lattices.

Terms are hash-consed, so canonical terms compare by identity; the order
decision is memoised on pairs.  The word problem needs no finite lattice, so
`core` is imported only by the embedding search.
"""

from __future__ import annotations

from .errors import BadParameter, ParseError, UnassignedGenerator

# FiniteLattice in annotations is core's; annotations are not evaluated
# (PEP 563), so they need no import of core.


class FreeTerm:
    """Generator, or join/meet of at least two subterms.  Instances are
    interned: structurally equal terms are the same object."""

    __slots__ = ("kind", "name", "args", "size", "depth", "_enc")

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


def _make(kind, name, args):
    key = (kind, name) if kind == "gen" else (kind, args)
    t = _INTERN.get(key)
    if t is None:
        t = object.__new__(FreeTerm)
        t.kind = kind
        t.name = name
        t.args = args
        t.size = 1 if kind == "gen" else sum(a.size for a in args)
        t.depth = 0 if kind == "gen" else 1 + max(a.depth for a in args)
        t._enc = None
        _INTERN[key] = t
    return t


def gen(name: str) -> FreeTerm:
    return _make("gen", name, None)


def join(*args) -> FreeTerm:
    if not args:
        raise BadParameter("join needs at least one argument")
    if len(args) == 1:
        return args[0]
    return _make("join", None, tuple(args))


def meet(*args) -> FreeTerm:
    if not args:
        raise BadParameter("meet needs at least one argument")
    if len(args) == 1:
        return args[0]
    return _make("meet", None, tuple(args))


_KIND_RANK = {"gen": 0, "meet": 1, "join": 2}


def term_key(t: FreeTerm):
    """Fixed total order: generators by name, then meets before joins,
    length-lex on encodings within a kind."""
    e = t.encoding
    return (_KIND_RANK[t.kind], len(e), e)


_LEQ = {}


def leq(s: FreeTerm, t: FreeTerm) -> bool:
    """Whitman's recursion deciding s <= t in the free lattice."""
    if s is t:
        return True
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
    """The unique canonical representative of t's equivalence class: subterms
    canonical, same-kind arguments flattened, redundant arguments dropped,
    meet-arguments replaced by an inner argument comparable to the whole,
    argument lists sorted by the fixed term order."""
    hit = _CANON.get(t)
    if hit is not None:
        return hit
    if t.kind == "gen":
        _CANON[t] = t
        return t
    kind = t.kind
    args = [canonicalize(a) for a in t.args]
    inner = "meet" if kind == "join" else "join"
    while True:
        flat = []
        for a in args:
            flat.extend(a.args if a.kind == kind else (a,))
        uniq = []
        for a in flat:
            if a not in uniq:
                uniq.append(a)
        # drop arguments swallowed by the rest
        changed = True
        while changed and len(uniq) > 1:
            changed = False
            for i, a in enumerate(uniq):
                rest = uniq[:i] + uniq[i + 1:]
                bound = join(*rest) if kind == "join" else meet(*rest)
                if (leq(a, bound) if kind == "join" else leq(bound, a)):
                    uniq = rest
                    changed = True
                    break
        if len(uniq) == 1:
            res = uniq[0]
            break
        # a meet-argument of a join (dually a join-argument of a meet) may
        # not have an argument of its own comparable to the whole term; if
        # it does, substitute that argument and renormalise
        whole = _make(kind, None, tuple(uniq))
        replaced = False
        for i, a in enumerate(uniq):
            if a.kind == inner:
                for sub in a.args:
                    if (leq(sub, whole) if kind == "join" else leq(whole, sub)):
                        uniq[i] = sub
                        replaced = True
                        break
            if replaced:
                break
        if replaced:
            args = uniq
            continue
        uniq.sort(key=term_key)
        res = _make(kind, None, tuple(uniq))
        break
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


def canonical_terms(gen_names, max_size, max_depth):
    """All canonical terms over the given generators with at most max_size
    generator occurrences and the given depth, sorted small-first."""
    gens = [gen(g) for g in gen_names]
    by_size = {1: list(gens)}
    pool = list(gens)
    for s in range(2, max_size + 1):
        found = []
        smaller = sorted(
            (t for size in range(1, s) for t in by_size[size]),
            key=lambda t: (t.size, term_key(t)),
        )

        def combos(kind, start, remaining, chosen):
            if remaining == 0:
                if len(chosen) >= 2:
                    yield tuple(chosen)
                return
            for i in range(start, len(smaller)):
                a = smaller[i]
                if a.size > remaining:
                    continue
                if a.kind == kind:
                    continue
                if remaining == a.size and not chosen:
                    continue  # single-argument node collapses
                if any(leq(a, c) or leq(c, a) for c in chosen):
                    continue
                chosen.append(a)
                yield from combos(kind, i + 1, remaining - a.size, chosen)
                chosen.pop()

        for kind in ("meet", "join"):
            for args in combos(kind, 0, s, []):
                t = _make(kind, None, tuple(sorted(args, key=term_key)))
                if t.depth <= max_depth and canonicalize(t) is t and t not in found:
                    found.append(t)
        by_size[s] = found
        pool.extend(found)
    pool.sort(key=lambda t: (t.size, term_key(t)))
    return pool


def minimal_generating_set(L: FiniteLattice):
    """Smallest (first in size-lex order) subset whose generated sublattice
    is the whole lattice."""
    from itertools import combinations

    from .core import generated_sublattice

    full = frozenset(range(L.n))
    for k in range(1, L.n + 1):
        for seeds in combinations(range(L.n), k):
            if generated_sublattice(L, seeds) == full:
                return list(seeds)
    raise AssertionError("a finite lattice generates itself")


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
    ``n_gens`` generators are assigned to a minimal generating set of L, the
    rest derived through the tables, within ``budget`` nodes
    (``default_budget()`` by default).  Returns element -> term, or None when
    the bounded search exhausts (inconclusive, not a refutation)."""
    from .core import _Budget

    names = [chr(ord("x") + i) for i in range(n_gens)] if n_gens <= 3 else [
        f"g{i}" for i in range(n_gens)
    ]
    pool = canonical_terms(names, max_size, max_depth)
    gens_of_L = minimal_generating_set(L)
    plan = _derivation_plan(L, gens_of_L)
    budget = _Budget(budget)

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


def parse_term(text: str) -> FreeTerm:
    """Parse ``x & (y | z)`` style syntax; & binds tighter than |."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "&|()":
            tokens.append((ch, i))
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            tokens.append(("ident", i, text[i:j]))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", offset=i)
    # expr := meets ("|" meets)*, meets := factor ("&" factor)*,
    # factor := ident | "(" expr ")"; one frame per open parenthesis holds
    # [finished meets of its expr, factors of the current meets, "(" token]
    frames = [[[], [], None]]
    pos = 0
    while True:
        tok = tokens[pos] if pos < len(tokens) else None
        if tok is None:
            raise ParseError("unexpected end of term", offset=len(text))
        pos += 1
        if tok[0] == "(":
            frames.append([[], [], tok])
            continue
        if tok[0] != "ident":
            raise ParseError(f"unexpected token {tok[0]!r}", offset=tok[1])
        t = gen(tok[2])
        while True:  # t completes a factor; close what it completes
            frame = frames[-1]
            frame[1].append(t)
            tok = tokens[pos] if pos < len(tokens) else None
            if tok is not None and tok[0] == "&":
                break
            frame[0].append(meet(*frame[1]))
            frame[1] = []
            if tok is not None and tok[0] == "|":
                break
            t = join(*frame[0])
            opening = frame[2]
            if opening is None:
                if pos != len(tokens):
                    raise ParseError("trailing input", offset=tok[1])
                return t
            if tok is None or tok[0] != ")":
                raise ParseError("missing closing parenthesis", offset=opening[1])
            pos += 1
            frames.pop()
        pos += 1


def format_term(t: FreeTerm) -> str:
    if t.kind == "gen":
        return t.name
    if t.kind == "meet":
        parts = [
            format_term(a) if a.kind == "gen" else "(" + format_term(a) + ")"
            for a in t.args
        ]
        return " & ".join(parts)
    parts = [
        format_term(a) if a.kind != "join" else "(" + format_term(a) + ")"
        for a in t.args
    ]
    return " | ".join(parts)
