"""The four benchmark workloads: seeded inputs, the timed item loop, and the
known-answer checks that feed ``failed``.

Every workload is a closed loop with one client and no threads: the next item
starts when the previous one has finished.  ``setup`` builds the inputs from
the seed alone; ``run`` is the timed phase; ``check`` runs afterwards and
never uses the code path under test as its own referee.

Calls into latcheck always go through the module attribute
(``core.build_lattice``, not a name bound by ``from ... import``), so the
wrappers that ``tracing`` installs see them.
"""

import hashlib
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time

from speed import SPEED

from latcheck import catalog, cli, core, decomp, embed, enumeration, freeterm, laws, theorems, variety

# OEIS A006966: lattices on n unlabelled elements, n = 1..9
LATTICE_COUNTS = (1, 1, 1, 2, 5, 15, 53, 222, 1078)
ENUM_MAX = 9
HARNESS_MAX = 8
HARNESS_PROFILE = "N-full"

# V(N5) is closed under products and sublattices, so every sublattice of
# these hosts is a member.
MEMBER_HOSTS = (
    ("N5xN5", ("N5", "N5")),
    ("N5x2x3", ("N5", 2, 3)),
    ("N5x4", ("N5", 4)),
)
# Each host is P x R with P not in V(N5); a seed set containing a copy
# P x {c} generates a sublattice containing P, hence a non-member.
NONMEMBER_HOSTS = (("M3xN5", ("M3", "N5")),) + tuple(
    (f"L{i}x2", (f"L{i}", 2)) for i in range(1, 7)
)
# Items per stratum.  Members are stratified by size because cost grows
# steeply with n; non-member sizes 13..16 are rare, so they share bands.
MEMBER_QUOTA = {(n,): q for n, q in zip(range(10, 17), (5, 5, 5, 5, 6, 5, 6))}
NONMEMBER_QUOTA = {(10,): 7, (11,): 7, (12,): 6, (13, 14): 6, (15, 16): 4}
MIN_N, MAX_N = 10, 16  # the congruence and Dec caps
DRAW_ROUND = 60  # attempts per host per round of the corpus draw
DRAW_ROUNDS = 40

TERM_GENS = "xyzw"
TERM_PAIRS = 1800
DISTRIBUTIVE_PAIR = ("x & (y | z)", "(x & y) | (x & z)")


class Failures:
    """Failed item ids with a short reason each."""

    def __init__(self):
        self.items = {}

    def add(self, item, reason):
        self.items.setdefault(str(item), reason)

    def __len__(self):
        return len(self.items)

    def sample(self, k=5):
        return [f"item {i}: {r}" for i, r in sorted(self.items.items())[:k]]


def digest(obj):
    """Short stable hash of the generated inputs."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def cpu_now():
    """CPU seconds of this process and of the child processes it has waited
    for.  Unlike wall time, this leaves out the time the host takes the
    virtual CPU away (steal), which on a shared virtual machine can change
    wall time several-fold between identical runs."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def timed_items(items, step, tracer):
    """Closed loop over ``items``; returns the outputs and per-item wall
    seconds and CPU seconds.  CPU times leave out the speed samples taken
    meanwhile and are scaled to reference speed by those samples, so that in
    ``enum_harness`` the harness items are scaled by the speed measured while
    they ran, not during the enumeration before them."""
    first = len(SPEED.samples)
    cpu, wall, outputs = [], [], []
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.set_item(i)
        c0, s0, t0 = cpu_now(), SPEED.spent(), time.perf_counter()
        try:
            out = step(item)
        except Exception as exc:  # a crash is one failed item, not a dead run
            out = exc
        wall.append(time.perf_counter() - t0)
        cpu.append(cpu_now() - c0 - (SPEED.spent() - s0))
        outputs.append(out)
    if tracer is not None:
        tracer.set_item(-1)
    SPEED.sample()  # so that the loop has at least one sample
    scale = SPEED.scale(first)
    return {"cpu": [c * scale for c in cpu], "wall": wall, "outputs": outputs}


# -- enum_harness ---------------------------------------------------------------


def setup_enum_harness(seed, ctx):
    # the full enumeration has no free parameter; the seed is not used
    return {"digest": digest(["enum_harness", ENUM_MAX, HARNESS_MAX, HARNESS_PROFILE])}


def run_enum_harness(inputs, tracer):
    counts = [len(enumeration.all_lattices(n)) for n in range(1, ENUM_MAX + 1)]
    lattices = [L for n in range(1, HARNESS_MAX + 1) for L in enumeration.all_lattices(n)]

    def step(L):
        reports = theorems.run_profile(L, HARNESS_PROFILE)
        return sum(len(r.conclusion_violations) for r in reports)

    return dict(timed_items(lattices, step, tracer), counts=counts)


def check_enum_harness(inputs, result, plant):
    fails = Failures()
    expected = list(LATTICE_COUNTS)
    if plant:
        expected[0] += 1
    for n, (got, want) in enumerate(zip(result["counts"], expected), start=1):
        if got != want:
            fails.add(f"n={n}", f"{got} classes, expected {want}")
    for i, out in enumerate(result["outputs"]):
        if isinstance(out, Exception):
            fails.add(i, f"raised {out!r}")
        elif out:
            fails.add(i, f"{out} conclusion violations")
    return len(result["counts"]) + len(result["outputs"]), fails


# -- corpus ---------------------------------------------------------------------


def _factor(f):
    return catalog.chain(f) if isinstance(f, int) else catalog.get(f)


def _product(factors):
    L = _factor(factors[0])
    for f in factors[1:]:
        L = core.direct_product(L, _factor(f))
    return L


def _stratum(quota, n):
    return next((key for key in quota if n in key), None)


def draw_corpus(seed, member_quota=MEMBER_QUOTA, nonmember_quota=NONMEMBER_QUOTA):
    """Seeded sublattices of the member and non-member hosts with
    10 <= n <= 16, deduplicated by canonical form and stratified by size.

    Returns items ``{"elements", "covers", "member", "planted", "host"}`` in
    a seeded order.  Raises RuntimeError if a stratum cannot be filled."""
    rng = random.Random(seed)
    hosts = []
    for name, factors in MEMBER_HOSTS:
        hosts.append((name, _product(factors), None, member_quota))
    for name, factors in NONMEMBER_HOSTS:
        hosts.append((name, _product(factors), factors[0], nonmember_quota))
    seen_sets = set()
    classes = set()
    pools = {}  # (member, stratum) -> [item]

    def filled():
        return all(
            len(pools.get((planted is None, key), ())) >= q
            for _, _, planted, quota in hosts for key, q in quota.items()
        )

    for _ in range(DRAW_ROUNDS):
        if filled():
            break
        for name, H, planted, quota in hosts:
            size = catalog.get(planted).n if planted else 0
            width = H.n // size if planted else 0
            for _ in range(DRAW_ROUND):
                if planted is None:
                    seeds = rng.sample(range(H.n), rng.randint(2, 6))
                else:
                    c = rng.randrange(width)
                    seeds = [i * width + c for i in range(size)]
                    seeds += rng.sample(range(H.n), rng.randint(1, 4))
                S = core.generated_sublattice(H, seeds)
                if not MIN_N <= len(S) <= MAX_N or (name, S) in seen_sets:
                    continue
                seen_sets.add((name, S))
                key = _stratum(quota, len(S))
                if key is None:
                    continue
                sub = core.induced(H, sorted(S))
                cf = core.canonical_form(sub)
                if cf in classes:
                    continue
                classes.add(cf)
                order = list(range(sub.n))
                rng.shuffle(order)
                pools.setdefault((planted is None, key), []).append({
                    "elements": [sub.labels[a] for a in order],
                    "covers": sorted([sub.labels[a], sub.labels[b]] for a, b in sub.cover_pairs()),
                    "member": planted is None,
                    "planted": planted,
                    "host": name,
                })
    items = []
    for member, quota in ((True, member_quota), (False, nonmember_quota)):
        for key, q in quota.items():
            pool = pools.get((member, key), [])
            if len(pool) < q:
                raise RuntimeError(f"corpus stratum member={member} n={key} has "
                                   f"{len(pool)} classes, needs {q}")
            items.extend(rng.sample(pool, q))
    rng.shuffle(items)
    return items


def setup_corpus(seed, ctx):
    items = draw_corpus(seed)
    return {"items": items, "digest": digest(items)}


def run_corpus(inputs, tracer):
    prof_n = embed.profile("N")

    def step(item):
        # rebuilt from the cover list, so setup's canonical forms are cold here
        L = core.build_lattice(core.CoverDiagram(item["elements"], item["covers"]))
        core.canonical_form(L)
        profile = laws.law_profile(L)
        member = bool(variety.in_n5_variety(L))
        hits = [name for name, _ in embed.contains_forbidden(L, prof_n)]
        k, witness = decomp.dec(L)
        reports = theorems.run_profile(L, HARNESS_PROFILE)
        return {
            "L": L, "member": member, "sd": profile.sd_join and profile.sd_meet,
            "hits": hits, "dec": k, "witness": witness, "reports": reports,
        }

    return timed_items(inputs["items"], step, tracer)


def check_corpus(inputs, result, plant):
    fails = Failures()
    for i, (item, out) in enumerate(zip(inputs["items"], result["outputs"])):
        if isinstance(out, Exception):
            fails.add(i, f"raised {out!r}")
            continue
        member = item["member"] != (plant and i == 0)
        if out["member"] != member:
            fails.add(i, f"{item['host']}: in_n5_variety={out['member']}, expected {member}")
        if member and (not out["sd"] or out["hits"]):
            fails.add(i, f"member but sd={out['sd']} hits={out['hits']}")
        if not member and item["planted"] not in out["hits"]:
            fails.add(i, f"planted {item['planted']} not among hits {out['hits']}")
        if len(out["witness"]) != out["dec"] or not decomp.is_distributive_partition(
            out["L"], out["witness"].blocks
        ):
            fails.add(i, f"dec witness of size {len(out['witness'])} is not a "
                         f"distributive partition of size {out['dec']}")
        for rep in out["reports"]:
            if rep.conclusion_violations:
                fails.add(i, f"{rep.theorem}: {len(rep.conclusion_violations)} violations")
            if member and rep.skipped and rep.skip_reason.startswith("not in the pentagon"):
                fails.add(i, f"{rep.theorem}: member skipped as a non-member")
    return len(result["outputs"]), fails


# -- terms ----------------------------------------------------------------------


class TermMaker:
    """Seeded random terms over x, y, z, w with exactly the requested number
    of leaves; earlier subterms are pooled by leaf count and reused, as in a
    free-embedding search."""

    def __init__(self, rng):
        self.rng = rng
        self.pool = {}  # leaves -> [term]

    def term(self, leaves):
        rng = self.rng
        if leaves == 1:
            return rng.choice(TERM_GENS)
        reuse = self.pool.get(leaves)
        if reuse and rng.random() < 0.3:
            return rng.choice(reuse)
        k = rng.randint(1, leaves - 1)
        t = f"({self.term(k)} {rng.choice('&|')} {self.term(leaves - k)})"
        if leaves >= 4 and rng.random() < 0.2:
            self.pool.setdefault(leaves, []).append(t)
        return t

    def pair(self, lo, hi):
        """(kind, s, t): t = s | u and t = s & u have a known order, and
        t = s | (s & u) equals s by absorption; "random" pairs are unknown."""
        rng = self.rng
        s = self.term(rng.randint(lo, hi))
        kind = rng.choice(("join", "meet", "equal", "random"))
        if kind == "join":
            t = f"({s} | {self.term(rng.randint(1, 16))})"
        elif kind == "meet":
            t = f"({s} & {self.term(rng.randint(1, 16))})"
        elif kind == "equal":
            t = f"({s} | ({s} & {self.term(rng.randint(1, 8))}))"
        else:
            t = self.term(rng.randint(lo, hi))
        return kind, s, t


# (leq(s, t), leq(t, s)) known by construction; None where unknown
EXPECTED_ORDER = {
    "distributive": (False, True),
    "join": (True, None),
    "meet": (None, True),
    "equal": (True, True),
    "random": (None, None),
}


def setup_terms(seed, ctx):
    maker = TermMaker(random.Random(seed))
    pairs = [("distributive",) + DISTRIBUTIVE_PAIR]
    pairs += [maker.pair(8, 128) for _ in range(TERM_PAIRS - 1)]
    return {"pairs": pairs, "seed": seed, "digest": digest(pairs)}


def run_terms(inputs, tracer):
    def step(pair):
        _, s_text, t_text = pair
        s = freeterm.parse_term(s_text)
        t = freeterm.parse_term(t_text)
        cs = freeterm.canonicalize(s)
        ct = freeterm.canonicalize(t)
        return s, t, cs, ct, freeterm.leq(s, t), freeterm.leq(t, s)

    return timed_items(inputs["pairs"], step, tracer)


def _evaluator(L, assignment):
    """Memoised evaluation of interned terms through L's tables; an
    independent referee for leq and canonicalize."""
    memo = {}

    def value(t):
        v = memo.get(t)
        if v is None:
            if t.kind == "gen":
                v = assignment[t.name]
            else:
                table = L.join if t.kind == "join" else L.meet
                vals = [value(a) for a in t.args]
                v = vals[0]
                for w in vals[1:]:
                    v = table[v][w]
            memo[t] = v
        return v

    return value


def check_terms(inputs, result, plant):
    fails = Failures()
    rng = random.Random(inputs["seed"] + 1)
    evaluators = []
    for name in ("N5", "B3"):
        L = catalog.get(name)
        for _ in range(4):
            assignment = {g: rng.randrange(L.n) for g in TERM_GENS}
            evaluators.append((name, L, _evaluator(L, assignment)))
    for i, (pair, out) in enumerate(zip(inputs["pairs"], result["outputs"])):
        if isinstance(out, Exception):
            fails.add(i, f"raised {out!r}")
            continue
        s, t, cs, ct, s_le_t, t_le_s = out
        want = EXPECTED_ORDER[pair[0]]
        if plant and i == 0:
            want = (not want[0], want[1])
        for got, w, what in ((s_le_t, want[0], "s<=t"), (t_le_s, want[1], "t<=s")):
            if w is not None and got != w:
                fails.add(i, f"{pair[0]} pair: {what} is {got}, expected {w}")
        if s_le_t and t_le_s and cs is not ct:
            fails.add(i, "equal terms with different canonical forms")
        for name, L, value in evaluators:
            vs, vt = value(s), value(t)
            if value(cs) != vs or value(ct) != vt:
                fails.add(i, f"canonical form changes the value in {name}")
            if s_le_t and L.meet[vs][vt] != vs or t_le_s and L.meet[vs][vt] != vt:
                fails.add(i, f"leq contradicts evaluation in {name}")
    return len(result["outputs"]), fails


# -- cli ------------------------------------------------------------------------

CLI_SMALL = ("N5", "M3", "B3", "stacked_n5") + tuple(f"L{i}" for i in range(1, 16))
# catalog lattices whose V(N5) membership is known without latcheck
CLI_KNOWN = {"N5": True, "B3": True, "M3": False, **{f"L{i}": False for i in range(1, 16)}}
CLI_CORPUS_QUOTA = ({(n,): 2 for n in range(10, 14)}, {(10,): 2, (11,): 2, (12,): 2, (13, 14): 2})
VERIFY_SIZE = 6


def setup_cli(seed, ctx):
    """Exports catalog files and a seeded corpus subset, then builds a
    shuffled list of 50 command lines with their expected answers."""
    rng = random.Random(seed)
    workdir = ctx["workdir"]
    files = os.path.join(workdir, "files")
    shutil.rmtree(files, ignore_errors=True)
    os.makedirs(files)

    def export(name, diagram):
        path = os.path.join(files, name + ".json")
        cli.write_lattice_file(path, diagram)
        return path

    cat = {name: export(name, cli.diagram_of(catalog.get(name), name=name)) for name in CLI_SMALL}
    items = draw_corpus(seed, *CLI_CORPUS_QUOTA)
    corpus = [
        (export(f"item{k}", core.CoverDiagram(it["elements"], it["covers"], name=f"item{k}")),
         it["member"])
        for k, it in enumerate(items)
    ]
    members = [p for p, m in corpus if m]
    others = [p for p, m in corpus if not m]
    known = sorted(CLI_KNOWN)

    calls = []  # (argv, expected exit code, expected report fields)

    def add(argv, code, **fields):
        calls.append((argv, code, fields))

    for name in rng.sample(sorted(cat), 4):
        add(["check", cat[name]], 0)
    for path, member in rng.sample(corpus, 4):
        add(["check", path], 0)
    for path in rng.sample(members, 5):
        add(["variety", path], 0, member=True)
    for path in rng.sample(others, 3):
        add(["variety", path], 0, member=False)
    for name in rng.sample(known, 2):
        add(["variety", cat[name]], 0, member=CLI_KNOWN[name])
    for path in rng.sample(members, 4):
        add(["find-forbidden", path, "--profile", "N"], 0)
    for path in rng.sample(others, 2):
        add(["find-forbidden", path, "--profile", "N"], 1)
    for name in rng.sample([n for n in known if not CLI_KNOWN[n]], 2):
        add(["find-forbidden", cat[name], "--profile", "N"], 1)
    for name in rng.sample(sorted(cat), 6):
        add(["dec", cat[name], "--all-witnesses"], 0)

    maker = TermMaker(rng)
    add(["freelat", "leq", *DISTRIBUTIVE_PAIR], 0, leq=False, geq=True)
    while len([c for c in calls if c[0][:2] == ["freelat", "leq"]]) < 8:
        kind, s, t = maker.pair(8, 24)
        if kind != "random":
            fields = {k: v for k, v in zip(("leq", "geq"), EXPECTED_ORDER[kind]) if v is not None}
            add(["freelat", "leq", s, t], 0, **fields)
    for group in range(4):
        kind = None
        while kind != "equal":
            kind, s, t = maker.pair(8, 24)
        # both sides of a known-equal pair must print the same canonical term
        add(["freelat", "canon", s], 0, same_canon=group)
        add(["freelat", "canon", t], 0, same_canon=group)
    add(["freelat", "embed", cat["N5"]], 0)
    add(["verify-theorems", "--size", str(VERIFY_SIZE)], 0,
        checks_run=sum(LATTICE_COUNTS[:VERIFY_SIZE]) * 7)
    rng.shuffle(calls)
    rel = [[os.path.relpath(a, workdir) if a.startswith(workdir) else a for a in argv]
           for argv, _, _ in calls]
    return {"calls": calls, **ctx,
            "digest": digest([rel, [[c, f] for _, c, f in calls]])}


def run_cli(inputs, tracer):
    env = dict(os.environ, PYTHONPATH=inputs["src"])
    span_dir = os.path.join(inputs["workdir"], "spans")
    if tracer is not None:
        shutil.rmtree(span_dir, ignore_errors=True)
        os.makedirs(span_dir)

    def command(i, argv):
        if tracer is None:
            return [sys.executable, "-m", "latcheck.cli", *argv]
        return [sys.executable, inputs["child"], os.path.join(span_dir, f"{i}.json"), *argv]

    calls = [command(i, argv) for i, (argv, _, _) in enumerate(inputs["calls"])]

    def step(cmd):
        proc = subprocess.run(cmd, capture_output=True, env=env, timeout=150)
        return proc.returncode, proc.stdout

    result = timed_items(calls, step, None)
    if tracer is not None:
        for i in range(len(calls)):
            path = os.path.join(span_dir, f"{i}.json")
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    tracer.merge(json.load(fh), item=i)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return dict(result, peak_rss_mb=peak)


def check_cli(inputs, result, plant):
    fails = Failures()
    canon = {}
    for i, ((argv, code, fields), out) in enumerate(zip(inputs["calls"], result["outputs"])):
        if isinstance(out, Exception):
            fails.add(i, f"raised {out!r}")
            continue
        rc, stdout = out
        if plant and i == 0:
            code = 1 - code
        if rc != code:
            fails.add(i, f"{' '.join(argv[:2])}: exit {rc}, expected {code}")
            continue
        try:
            report = json.loads(stdout)["results"]
        except (ValueError, KeyError, TypeError):
            fails.add(i, f"{' '.join(argv[:2])}: unreadable report")
            continue
        for key, want in fields.items():
            if key == "same_canon":
                canon.setdefault(want, set()).add(report.get("canonical"))
            elif report.get(key) != want:
                fails.add(i, f"{' '.join(argv[:2])}: {key}={report.get(key)!r}, expected {want!r}")
    for group, forms in canon.items():
        if len(forms) != 1:
            fails.add(f"canon{group}", f"equal terms printed as {sorted(map(str, forms))}")
    return len(result["outputs"]), fails


WORKLOADS = {
    "enum_harness": (setup_enum_harness, run_enum_harness, check_enum_harness),
    "corpus": (setup_corpus, run_corpus, check_corpus),
    "cli": (setup_cli, run_cli, check_cli),
    "terms": (setup_terms, run_terms, check_terms),
}
