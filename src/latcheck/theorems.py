"""Machine verification of the structural theorems about lattices in the
pentagon variety that embed in free lattices: the L15 lemma with its witness
construction, the atom/coatom cube theorem with its Boolean-cube witness, the
Dec upper bound, the degeneracy lemma, the twelve-element grid lemma, and the
staircase cover theorem with its dual; plus the corollary profiles that swap
the variety hypothesis for forbidden-sublattice conditions.

Hypothesis gating is explicit: a lattice failing a check's hypotheses gets a
skipped report, never a silent pass, and vacuous runs are flagged as such.

Every hypothesis on elements is stated once, as a configuration
(:func:`embed.configuration`): named elements on distinct lattice elements
with x <= y, incomparability, x op y = z and ascending-index facts.  The
embedding search finds every instance of one, so each check keeps only its
conclusion test, and each witness construction checks the tuple it is
handed as the search's one placement of it.

Each check spends one node budget on every search it runs, the Dec bound's
closure scan (:func:`core.sublattices`, so no size cap applies) and the Dec
searches of its non-distributive sublattices included, and raises
SearchBudgetExceeded when it runs out.  The degeneracy lemma's convex
sublattices are intervals, listed directly by :func:`core.intervals` in
O(n^2) per element, with no search.
"""

from __future__ import annotations

import itertools

from . import catalog, embed, laws, variety
from .core import (
    EmbeddingWitness,
    FiniteLattice,
    _Budget,
    canonical_form,
    dual,
    induced,
    intervals,
    is_sublattice_set,
    isomorphism,
    iter_bits,
    sublattices,
)
from .decomp import is_distributive_sublattice, sublattice_dec
from .errors import HypothesisViolated, LatcheckError, UnknownProfile


class TheoremReport:
    """One check's outcome on one lattice, filled in by the check.  Reports
    compare by their fields and are not hashable, as they change."""

    __slots__ = ("theorem", "lattice", "hypothesis_instances", "conclusion_violations",
                 "vacuous", "skipped", "skip_reason")

    def __init__(self, theorem, lattice, hypothesis_instances=0, conclusion_violations=None,
                 vacuous=False, skipped=False, skip_reason=None):
        self.theorem = theorem
        self.lattice = lattice
        self.hypothesis_instances = hypothesis_instances
        self.conclusion_violations = [] if conclusion_violations is None else conclusion_violations
        self.vacuous = vacuous
        self.skipped = skipped
        self.skip_reason = skip_reason

    def _fields(self):
        return [(f, getattr(self, f)) for f in self.__slots__]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        return "TheoremReport(" + ", ".join(f"{f}={v!r}" for f, v in self._fields()) + ")"

    @property
    def holds(self):
        return not self.skipped and not self.conclusion_violations

    def to_dict(self):
        """The fields in order, deep-copied, so changing the dict leaves the
        report as it is."""
        import copy

        return copy.deepcopy(dict(self._fields()))


def _name_of(L, name):
    return name if name is not None else "sha:" + canonical_form(L).hex()[:16]


def variety_membership(L):
    """Default membership gate: exact pentagon-variety test."""
    d = variety.in_n5_variety(L)
    if d:
        return True, None
    return False, f"not in the pentagon variety (SI factor of size {d.offending_size})"


def profile_membership(prof):
    """Gate for corollary profiles: finite free-sublattice laws plus the
    profile's forbidden patterns absent."""

    def gate(L, budget=None):
        if not laws.is_finite_free_sublattice(L):
            return False, "not a finite free-lattice sublattice (SD and W)"
        hits = embed.contains_forbidden(L, prof, budget)
        if hits:
            return False, f"contains forbidden sublattice {hits[0][0]}"
        return True, None

    return gate


def _gate(report, L, needs, membership):
    """Apply the named lattice-level hypotheses ("whitman", "no_dr", and
    "member" for the membership gate, the exact variety test by default);
    fills in a skip reason and returns True when the check must be
    skipped."""
    if "whitman" in needs and not laws.holds(L, "whitman"):
        report.skipped, report.skip_reason = True, "fails Whitman's condition"
    elif "no_dr" in needs and laws.doubly_reducible_elements(L):
        report.skipped, report.skip_reason = True, "has doubly reducible elements"
    elif "member" in needs:
        ok, reason = (membership or variety_membership)(L)
        if not ok:
            report.skipped, report.skip_reason = True, reason
    return report.skipped


def _check(theorem_id, L, name, needs, membership, scan, budget, dual_form=False):
    """The skeleton shared by every check: name L and gate it on the
    hypotheses in ``needs``, let ``scan(report, M, nodes)`` fill the report
    unless the gate skips, and flag a run with no hypothesis instance as
    vacuous.  M is the lattice the scan reads: L, or dual(L) for a dual
    form, and ``nodes`` the check's one budget, made from ``budget``."""
    rep = TheoremReport(theorem_id, _name_of(L, name))
    if not _gate(rep, L, needs, membership):
        scan(rep, dual(L) if dual_form else L, _Budget.of(budget))
    rep.vacuous = (not rep.skipped) and rep.hypothesis_instances == 0
    return rep


def _labels(L, elems):
    return tuple(L.labels[e] for e in elems)


# -- L15 lemma ----------------------------------------------------------------


# two interleaved chains a1 < a2 < a3 and b1 < b2 < b3 with a1 < b3, b1 < a3,
# a2 incomparable to b1, b2, b3 and b2 to a1, a3, whose middle pair's join
# and meet are a3 v b3 and a1 ^ b1; placed middle pair first, so that
# matches come in the order (a2, b2, a3, b3, a1, b1)
_L15_HYPOTHESIS = embed.configuration(
    ("a2", "b2", "top", "bot", "a3", "b3", "a1", "b1"),
    leq=(("a1", "a2"), ("a2", "a3"), ("b1", "b2"), ("b2", "b3"), ("a1", "b3"), ("b1", "a3")),
    apart=(("a2", "b1"), ("a2", "b2"), ("a2", "b3"), ("a1", "b2"), ("a3", "b2")),
    facts=(("join", "a2", "b2", "top"), ("meet", "a2", "b2", "bot"),
           ("join", "a3", "b3", "top"), ("meet", "a1", "b1", "bot")),
)


def lemma_l15_check(L: FiniteLattice, name=None, budget=None, membership=None) -> TheoremReport:
    """Every six-tuple satisfying the two-interleaved-chains hypotheses forces
    a sublattice isomorphic to L15.  Only the no-doubly-reducible hypothesis
    is gated; ``membership`` is accepted for a uniform signature and ignored."""

    def scan(rep, L, nodes):
        matches = list(embed.iter_matches(_L15_HYPOTHESIS, L, nodes))
        rep.hypothesis_instances = len(matches)
        if matches and embed.find_embedding(catalog.get("L15"), L, nodes) is None:
            rep.conclusion_violations = [_labels(L, (a1, a2, a3, b1, b2, b3))
                                         for a2, b2, _, _, a3, b3, a1, b1 in matches]

    return _check("l15_lemma", L, name, ("no_dr",), membership, scan, budget)


def lemma_l15_witness(L: FiniteLattice, tup) -> EmbeddingWitness:
    """The explicit ten-element construction from a hypothesis tuple
    (a1, a2, a3, b1, b2, b3): derived corners a1' = a2 ^ b3, b1' = a3 ^ b2,
    a3'' = a2 v b1', b3'' = a1' v b2, their join/meet, the bounding join and
    meet, and a2, b2 themselves form a sublattice isomorphic to L15."""
    if len(tup) != 6 or not all(x in range(L.n) for x in tup):
        raise HypothesisViolated("six elements of the lattice required", tup)
    a1, a2, a3, b1, b2, b3 = tup
    images = (a2, b2, L.join[a2][b2], L.meet[a2][b2], a3, b3, a1, b1)
    if next(embed.iter_matches(_L15_HYPOTHESIS, L, images=images), None) is None:
        raise HypothesisViolated("not two interleaved chains of the L15 lemma", tup)
    a1p = L.meet[a2][b3]
    b1p = L.meet[a3][b2]
    a3pp = L.join[a2][b1p]
    b3pp = L.join[a1p][b2]
    ten = {
        L.join[a2][b2], a3pp, b3pp, L.meet[a3pp][b3pp],
        L.join[a1p][b1p], a1p, b1p, L.meet[a2][b2], a2, b2,
    }
    if len(ten) != 10:
        raise LatcheckError("constructed elements are not pairwise distinct")
    if not is_sublattice_set(L, ten):
        raise LatcheckError("constructed set is not meet/join closed")
    elems = sorted(ten)
    block = induced(L, elems)
    l15 = catalog.get("L15")
    iso = isomorphism(l15, block)
    if iso is None:
        raise LatcheckError("constructed sublattice is not isomorphic to L15")
    return EmbeddingWitness(l15, L, tuple(elems[iso[i]] for i in range(10)))


# -- cube theorem -------------------------------------------------------------


# y0, y1, d, y2[, y3]: an antichain whose pairwise meets all equal d, in
# ascending order, so that each antichain is found once and matches come in
# the order of itertools.combinations; d = y0 ^ y1 is placed right after y1
_YS = ("y0", "y1", "y2", "y3")
_CUBE_HYPOTHESES = {size: embed.configuration(
    _YS[:2] + ("d",) + _YS[2:size],
    apart=itertools.combinations(_YS[:size], 2),
    facts=(("meet", x, y, "d") for x, y in itertools.combinations(_YS[:size], 2)),
    ascending=zip(_YS[:size], _YS[1:size]),
) for size in (3, 4)}


def cube_theorem_check(L: FiniteLattice, name=None, budget=None, membership=None,
                       theorem_id="cube", forms=("meet", "join"),
                       sizes=(3, 4), dual_form=False) -> TheoremReport:
    """Antichains with a constant pairwise meet have at most three elements,
    of which at most two fail to cover the meet; dually for joins, read as
    the meet form of the dual.  With ``forms=("join",)`` (resp.
    ``("meet",)``) and ``sizes=(3,)`` this is the single-sided cover property
    kept by the last two corollary profiles.  The dual form runs the same
    scan on the dual lattice."""

    def scan(rep, M, nodes):
        for form in forms:
            K = M if form == "meet" else dual(M)
            for size in sizes:
                for y0, y1, d, *ys in embed.iter_matches(_CUBE_HYPOTHESES[size], K, nodes):
                    Y = (y0, y1, *ys)
                    rep.hypothesis_instances += 1
                    if size == 4:
                        failure = "antichain of size 4"
                    elif sum(not K.covers(d, a) for a in Y) > 2:
                        failure = "no element adjacent to the bound"
                    else:
                        continue
                    rep.conclusion_violations.append(
                        (f"{form} form: {failure}", _labels(K, Y), K.labels[d]))

    return _check(theorem_id, L, name, ("whitman", "member"), membership, scan, budget, dual_form)


def boolean_cube_witness(L: FiniteLattice, triple, d, membership=None) -> EmbeddingWitness:
    """For a 3-antichain with constant pairwise meets d and pairwise distinct
    joins, the elements (a v b) ^ (c v a) and their joins form a sublattice
    isomorphic to the Boolean cube."""
    if len(triple) != 3 or not all(x in range(L.n) for x in (*triple, d)):
        raise HypothesisViolated("three elements and d of the lattice required", tuple(triple))
    gate = TheoremReport("cube", "")
    if _gate(gate, L, ("whitman", "member"), membership):
        raise HypothesisViolated(gate.skip_reason or "membership hypothesis fails")
    y0, y1, y2 = sorted(triple)
    if next(embed.iter_matches(_CUBE_HYPOTHESES[3], L, images=(y0, y1, d, y2)), None) is None:
        raise HypothesisViolated("not a 3-antichain with pairwise meets d", tuple(triple))
    a, b, c = triple
    ab, bc, ca = L.join[a][b], L.join[b][c], L.join[c][a]
    if len({ab, bc, ca}) != 3:
        raise HypothesisViolated("pairwise joins are not distinct", tuple(triple))
    a_s = L.meet[ab][ca]
    b_s = L.meet[ab][bc]
    c_s = L.meet[ca][bc]
    top = L.join[ab][bc]
    if not (L.meet[a_s][b_s] == L.meet[b_s][c_s] == L.meet[a_s][c_s] == d):
        raise LatcheckError("starred elements do not meet pairwise to d")
    cube = catalog.get("B3")
    mapping = {
        "0": d, "a": a_s, "b": b_s, "c": c_s,
        "ab": L.join[a_s][b_s], "ac": L.join[a_s][c_s], "bc": L.join[b_s][c_s],
        "abc": top,
    }
    if len(set(mapping.values())) != 8:
        raise LatcheckError("constructed cube elements are not distinct")
    witness = EmbeddingWitness(cube, L, tuple(mapping[lab] for lab in cube.labels))
    if not witness.is_valid():
        raise LatcheckError("constructed cube is not a sublattice")
    return witness


# -- Dec bound and degeneracy lemma -------------------------------------------


def _loose_sublattices(L, convex, budget):
    """Every sublattice K (every interval if ``convex``) with an element a
    incomparable to all of K, as (K's elements, every such a), in ascending
    order of K's mask.  Such K are exactly those inside a's incomparable
    set, so each a lists only those: the intervals directly, the
    sublattices by a closure search that spends ``budget``."""
    loose = {}
    for a in range(L.n):
        incomparable = L.full_mask & ~(L.up[a] | L.down[a])
        found = intervals(L, incomparable) if convex else sublattices(L, incomparable, budget)
        for K in found:
            loose.setdefault(K, []).append(a)
    return [(list(iter_bits(K)), loose[K]) for K in sorted(loose)]


def dec_bound_check(L: FiniteLattice, name=None, budget=None, membership=None) -> TheoremReport:
    """For every sublattice K and element a incomparable to all of K, Dec(K)
    is at most the number of join values times the number of meet values of a
    against K.  Dec(K) is 1 for a distributive K, read off L's tables with
    no search (:func:`decomp.sublattice_dec`); the closure scan and the
    Dec(K) search of each non-distributive K share one budget."""

    def scan(rep, L, nodes):
        for elems, loose in _loose_sublattices(L, False, nodes):
            dec_k = sublattice_dec(L, elems, nodes)
            for a in loose:
                rep.hypothesis_instances += 1
                joins = {L.join[a][b] for b in elems}
                meets = {L.meet[a][b] for b in elems}
                if dec_k > len(joins) * len(meets):
                    rep.conclusion_violations.append(
                        (L.labels[a], _labels(L, elems), dec_k, len(joins) * len(meets))
                    )

    return _check("dec_bound", L, name, ("whitman", "member"), membership, scan, budget)


def degeneracy_lemma_check(L: FiniteLattice, name=None, budget=None, membership=None) -> TheoremReport:
    """For every convex sublattice K and a incomparable to all of K: a has at
    least three join values against K, or at least three meet values, or K is
    distributive."""

    def scan(rep, L, nodes):
        for elems, loose in _loose_sublattices(L, True, nodes):
            distr = is_distributive_sublattice(L, sum(1 << e for e in elems))
            for a in loose:
                rep.hypothesis_instances += 1
                if distr:
                    continue
                joins = {L.join[a][b] for b in elems}
                meets = {L.meet[a][b] for b in elems}
                if len(joins) < 3 and len(meets) < 3:
                    rep.conclusion_violations.append(
                        (L.labels[a], _labels(L, elems), len(joins), len(meets))
                    )

    return _check("degeneracy", L, name, ("whitman", "member"), membership, scan, budget)


# -- twelve-element lemma -----------------------------------------------------

# the 2 x 5 grid, its elements named in index order: the rows
# w' < w < a < y < y' ("0.0" .. "0.4") and x' < x < b < z < z' ("1.0" ..
# "1.4"); and c strictly inside its middle rung a < b
_TWELVE_ELEMENT_HYPOTHESIS = embed.configuration(
    ("w'", "w", "a", "y", "y'", "x'", "x", "b", "z", "z'", "c"), pattern=catalog.grid(5),
    leq=(("w'", "c"), ("w", "c"), ("a", "c"), ("c", "b"), ("c", "z"), ("c", "z'")),
    apart=(("c", "x'"), ("c", "x"), ("c", "y"), ("c", "y'")),
)


def twelve_element_lemma_check(L: FiniteLattice, name=None, budget=None,
                               membership=None) -> TheoremReport:
    """No 2 x 5 grid sublattice admits both a point c strictly inside its
    middle rung and a point s strictly inside the rung above, with the exact
    incomparabilities of the twelve-element configuration."""

    def scan(rep, L, nodes):
        for *grid, c in embed.iter_matches(_TWELVE_ELEMENT_HYPOTHESIS, L, nodes):
            rep.hypothesis_instances += 1
            w_, w, a, y, y_, x_, x, b, z, z_ = grid
            # s strictly above w', w, a, strictly below y, y', z, z' and
            # incomparable to x', x, b, c, which keeps it off the grid and c
            inside = L.full_mask
            for v in (w_, w, a):
                inside &= L.up[v] ^ (1 << v)
            for v in (y, y_, z, z_):
                inside &= L.down[v] ^ (1 << v)
            for v in (x_, x, b, c):
                inside &= ~(L.up[v] | L.down[v])
            for s in iter_bits(inside):
                rep.conclusion_violations.append(
                    ("grid with interior points", _labels(L, grid), L.labels[c], L.labels[s]))

    return _check("twelve_element", L, name, ("no_dr", "member"), membership, scan, budget)


# -- staircase cover theorem ----------------------------------------------------


# a, and a five-chain b1 < ... < b5 incomparable to a whose joins
# j_i = a v b_i increase strictly; each j_i is placed right after b_i
_STAIRCASE_HYPOTHESIS = embed.configuration(
    ("a",) + tuple(f"{x}{i}" for i in range(1, 6) for x in "bj"),
    leq=tuple((f"{x}{i}", f"{x}{i + 1}") for x in "bj" for i in range(1, 5)),
    apart=tuple(("a", f"b{i}") for i in range(1, 6)),
    facts=tuple(("join", "a", f"b{i}", f"j{i}") for i in range(1, 6)),
)


def staircase_cover_check(L: FiniteLattice, name=None, budget=None,
                          membership=None, dual_form=False) -> TheoremReport:
    """Along a five-chain incomparable to a with strictly increasing joins:
    if (a v b4) ^ b5 differs from b4, then (a v b3) ^ b5 is covered by
    a v b3.  The dual form runs the same scan on the dual lattice."""

    def scan(rep, M, nodes):
        for a, b1, _, b2, _, b3, j3, b4, j4, b5, _ in embed.iter_matches(
                _STAIRCASE_HYPOTHESIS, M, nodes):
            rep.hypothesis_instances += 1
            if M.meet[j4][b5] != b4 and not M.covers(M.meet[j3][b5], j3):
                rep.conclusion_violations.append((M.labels[a], _labels(M, (b1, b2, b3, b4, b5))))

    theorem_id = "staircase_dual" if dual_form else "staircase"
    return _check(theorem_id, L, name, ("no_dr", "member"), membership, scan, budget, dual_form)


# -- corollary profiles -------------------------------------------------------

PROFILE_CHECKS = {
    "N-full": ("variety",
               ("l15_lemma", "cube", "dec_bound", "degeneracy",
                "twelve_element", "staircase", "staircase_dual")),
    "cor62": ("cor62", ("cube", "staircase", "staircase_dual")),
    "cor63": ("cor63", ("cube", "staircase_dual")),
    "cor64": ("cor64", ("cube", "cube_dual", "staircase")),
    "cor65": ("cor65", ("dec_bound", "staircase", "staircase_dual", "cube_join_cover")),
    "cor66": ("cor66", ("dec_bound", "staircase", "staircase_dual", "cube_meet_cover")),
}


# check id -> call taking (L, name, budget, membership); each entry looks its
# function up in the module globals at call time, so rebinding a module
# attribute (as a tracer does) reaches every check
_CHECKS = {
    "l15_lemma": lambda L, *a: lemma_l15_check(L, *a),
    "cube": lambda L, *a: cube_theorem_check(L, *a),
    "cube_dual": lambda L, *a: cube_theorem_check(L, *a, theorem_id="cube_dual", dual_form=True),
    "cube_join_cover": lambda L, *a: cube_theorem_check(
        L, *a, theorem_id="cube_join_cover", forms=("join",), sizes=(3,)),
    "cube_meet_cover": lambda L, *a: cube_theorem_check(
        L, *a, theorem_id="cube_meet_cover", forms=("meet",), sizes=(3,)),
    "dec_bound": lambda L, *a: dec_bound_check(L, *a),
    "degeneracy": lambda L, *a: degeneracy_lemma_check(L, *a),
    "twelve_element": lambda L, *a: twelve_element_lemma_check(L, *a),
    "staircase": lambda L, *a: staircase_cover_check(L, *a),
    "staircase_dual": lambda L, *a: staircase_cover_check(L, *a, dual_form=True),
}

ALL_CHECK_IDS = tuple(_CHECKS)


def run_profile(L: FiniteLattice, profile_id: str, name=None, budget=None) -> list:
    """Run the theorem subset named by a profile, gating on the profile's
    membership condition (computed once per lattice).  The gate and every
    check share one budget."""
    if profile_id not in PROFILE_CHECKS:
        raise UnknownProfile(profile_id)
    gate_kind, check_ids = PROFILE_CHECKS[profile_id]
    budget = _Budget.of(budget)
    if gate_kind == "variety":
        verdict = variety_membership(L)
    else:
        verdict = profile_membership(embed.profile(gate_kind))(L, budget)
    membership = lambda _L, _v=verdict: _v
    return [_CHECKS[cid](L, name, budget, membership) for cid in check_ids]


def run_check(L: FiniteLattice, check_id: str, name=None, budget=None,
              membership=None) -> TheoremReport:
    """Run a single named theorem check under the default variety gate."""
    if check_id not in _CHECKS:
        raise UnknownProfile(check_id)
    return _CHECKS[check_id](L, name, budget, membership)
