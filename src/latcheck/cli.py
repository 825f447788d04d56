"""Command-line front door: lattice files, law profiles, Dec, variety
membership, forbidden-pattern search, the theorem harness, enumeration,
catalog export, and the free-lattice word problem.

Reports are machine-first JSON documents {command, input, results,
violations, timing, version}; --pretty renders them for humans.  Exit codes:
0 all checks pass, 1 violation found, 2 input or usage error, 3 search
budget exceeded.  Identical inputs give byte-identical reports; the timing
field stays null unless --timing is passed.

Each command imports only the modules it runs, inside its cmd_* function,
so a call pays start-up for what it uses and nothing else.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time

from . import __version__
from .errors import (
    LatcheckError,
    ParseError,
    SearchBudgetExceeded,
    SizeLimit,
)

# CoverDiagram and FiniteLattice in annotations are core's; annotations are
# not evaluated (PEP 563), so they need no import of core.

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


# -- lattice file format ------------------------------------------------------


def parse_lattice_file(path: str) -> CoverDiagram:
    from . import core

    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, offset=exc.colno)
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError('"name" must be a string or null')
    elements = doc.get("elements")
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise ParseError('"elements" must be a list of strings')
    covers = doc.get("covers")
    if not isinstance(covers, list):
        raise ParseError('"covers" must be a list of [lower, upper] pairs')
    pairs = []
    for k, pair in enumerate(covers):
        if (not isinstance(pair, list)) or len(pair) != 2 or not all(
            isinstance(x, str) for x in pair
        ):
            raise ParseError(f'cover #{k} must be a pair of element names')
        pairs.append((pair[0], pair[1]))
    return core.CoverDiagram(tuple(elements), tuple(pairs), name=name)


def diagram_of(L: FiniteLattice, name=None) -> CoverDiagram:
    from . import core

    covers = [(L.labels[a], L.labels[b]) for a, b in L.cover_pairs()]
    return core.CoverDiagram(L.labels, tuple(covers), name=name)


def format_lattice_file(d: CoverDiagram) -> str:
    doc = {
        "name": d.name,
        "elements": list(d.elements),
        "covers": sorted([list(p) for p in d.covers]),
    }
    return json.dumps(doc, indent=2) + "\n"


def write_lattice_file(path: str, d: CoverDiagram):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_lattice_file(d))


def load_lattice(path: str) -> tuple:
    from . import core

    d = parse_lattice_file(path)
    return core.build_lattice(d), (d.name or os.path.basename(path))


# -- reports ------------------------------------------------------------------


def emit(args, command, input_desc, results, violations, started) -> None:
    timing = round(time.perf_counter() - started, 3) if args.timing else None
    report = {
        "command": command,
        "input": input_desc,
        "results": results,
        "violations": violations,
        "timing": timing,
        "version": __version__,
    }
    if args.pretty:
        _render(report)
    else:
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")


def _render(report, stream=None):
    stream = stream or sys.stdout
    print(f"latcheck {report['command']} ({report['version']})", file=stream)
    print(f"input: {report['input']}", file=stream)
    _render_value(report["results"], 1, stream)
    if report["violations"]:
        print("violations:", file=stream)
        _render_value(report["violations"], 1, stream)
    else:
        print("violations: none", file=stream)
    if report["timing"] is not None:
        print(f"elapsed: {report['timing']}s", file=stream)


def _render_value(value, depth, stream):
    pad = "  " * depth
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)) and v:
                print(f"{pad}{k}:", file=stream)
                _render_value(v, depth + 1, stream)
            else:
                print(f"{pad}{k}: {v}", file=stream)
    elif isinstance(value, (list, tuple)):
        for v in value:
            if isinstance(v, (list, tuple)) and not any(
                isinstance(x, (dict, list, tuple)) for x in v
            ):
                print(f"{pad}- [{', '.join(str(x) for x in v)}]", file=stream)
            elif isinstance(v, (dict, list, tuple)):
                _render_value(v, depth + 1, stream)
            else:
                print(f"{pad}- {v}", file=stream)
    else:
        print(f"{pad}{value}", file=stream)


# -- commands -----------------------------------------------------------------


def cmd_check(args):
    from . import laws

    started = time.perf_counter()
    L, name = load_lattice(args.file)
    p = laws.law_profile(L)
    results = {
        "name": name,
        "elements": L.n,
        "whitman": p.whitman,
        "sd_join": p.sd_join,
        "sd_meet": p.sd_meet,
        "distributive": p.distributive,
        "modular": p.modular,
        "doubly_reducible": [L.labels[e] for e in p.doubly_reducible],
        "length": p.length,
        "free_sublattice_finite": p.free_sublattice_finite,
        "dilworth_bound_holds": laws.dilworth_bound_holds(L),
    }
    emit(args, "check", args.file, results, [], started)
    return EXIT_OK


def cmd_dec(args):
    from . import decomp

    started = time.perf_counter()
    L, name = load_lattice(args.file)
    value, witness = decomp.dec(L, args.budget)
    results = {
        "name": name,
        "dec": value,
        "witness": witness.as_label_sets(L),
    }
    if args.all_witnesses:
        parts = decomp.minimum_distributive_partitions(L, args.budget)
        results["witness_count"] = len(parts)
        results["witnesses"] = [p.as_label_sets(L) for p in parts]
    emit(args, "dec", args.file, results, [], started)
    return EXIT_OK


def cmd_variety(args):
    from . import embed, laws, variety

    started = time.perf_counter()
    L, name = load_lattice(args.file)
    decision = variety.in_n5_variety(L)
    sd_join, sd_meet = laws.semidistributive(L)
    hits = embed.contains_forbidden(L, embed.profile("N"), args.budget)
    violations = []
    if decision.member and (not (sd_join and sd_meet) or hits):
        # membership implies the necessary conditions; a disagreement is a bug
        violations.append({
            "disagreement": "member accepted but necessary condition fails",
            "semidistributive": bool(sd_join and sd_meet),
            "forbidden_hits": [h[0] for h in hits],
        })
    results = {
        "name": name,
        "member": decision.member,
        "si_factor_sizes": [f.n for f in decision.factors],
        "certificate": (
            [list(f.labels) for f in decision.factors]
            if decision.member
            else {"offending_factor_labels": list(decision.offending.labels)}
        ),
        "cross_check": {
            "semidistributive": bool(sd_join and sd_meet),
            "forbidden_profile_hits": [h[0] for h in hits],
        },
    }
    emit(args, "variety", args.file, results, violations, started)
    return EXIT_VIOLATION if violations else EXIT_OK


def cmd_find_forbidden(args):
    from . import embed

    started = time.perf_counter()
    L, name = load_lattice(args.file)
    prof = embed.profile(args.profile)
    hits = embed.contains_forbidden(L, prof, args.budget)
    violations = [
        {"pattern": pname, "image": [L.labels[t] for t in w.map]}
        for pname, w in hits
    ]
    results = {
        "name": name,
        "profile": prof.name,
        "patterns_checked": list(prof.patterns),
        "hits": [pname for pname, _ in hits],
    }
    emit(args, "find-forbidden", args.file, results, violations, started)
    return EXIT_VIOLATION if violations else EXIT_OK


def cmd_verify_theorems(args):
    from . import enumeration, theorems

    started = time.perf_counter()
    totals = {}
    violations = []
    smallest_instance = {}
    checked = 0
    skipped = 0
    for n in range(1, args.size + 1):
        for k, L in enumerate(enumeration.all_lattices(n)):
            lattice_id = f"n{n}#{k}"
            if args.theorem:
                reports = [theorems.run_check(L, args.theorem, name=lattice_id,
                                              budget=args.budget)]
            else:
                reports = theorems.run_profile(L, args.profile, name=lattice_id,
                                               budget=args.budget)
            for rep in reports:
                checked += 1
                bucket = totals.setdefault(rep.theorem, {
                    "lattices": 0, "skipped": 0, "vacuous": 0, "instances": 0,
                })
                bucket["lattices"] += 1
                if rep.skipped:
                    bucket["skipped"] += 1
                    skipped += 1
                    continue
                bucket["instances"] += rep.hypothesis_instances
                if rep.vacuous:
                    bucket["vacuous"] += 1
                elif rep.theorem not in smallest_instance:
                    smallest_instance[rep.theorem] = n
                for v in rep.conclusion_violations:
                    violations.append({
                        "theorem": rep.theorem, "lattice": lattice_id, "witness": v,
                    })
    results = {
        "profile": args.theorem or args.profile,
        "max_size": args.size,
        "checks_run": checked,
        "checks_skipped": skipped,
        "per_theorem": totals,
        "smallest_size_with_instances": smallest_instance or None,
    }
    emit(args, "verify-theorems", f"enumeration up to n={args.size}", results,
         violations, started)
    return EXIT_VIOLATION if violations else EXIT_OK


def cmd_enumerate(args):
    from . import enumeration

    started = time.perf_counter()
    filters = [f.strip() for f in args.filter.split(",") if f.strip()] if args.filter else []
    try:
        ls = list(enumeration.filtered(args.size, filters))
    except ValueError as exc:
        raise ParseError(str(exc))
    results = {
        "size": args.size,
        "filters": filters,
        "total_classes": len(enumeration.all_lattices(args.size)),
        "matching": len(ls),
    }
    if args.emit:
        os.makedirs(args.emit, exist_ok=True)
        paths = []
        for k, L in enumerate(ls):
            name = f"lattice_{args.size}_{k}"
            path = os.path.join(args.emit, name + ".json")
            write_lattice_file(path, diagram_of(L, name=name))
            paths.append(path)
        results["emitted"] = paths
    emit(args, "enumerate", f"n={args.size}", results, [], started)
    return EXIT_OK


def cmd_catalog(args):
    from . import catalog

    started = time.perf_counter()
    names = [args.name] if args.name else list(catalog.FIXED_NAMES)
    entries = []
    for name in names:
        L = catalog.get(name)
        entries.append({"name": name, "elements": L.n,
                        "covers": len(L.cover_pairs())})
    results = {"entries": entries}
    if args.emit:
        os.makedirs(args.emit, exist_ok=True)
        paths = []
        for name in names:
            L = catalog.get(name)
            safe = name.replace("(", "_").replace(")", "").replace(",", "_")
            path = os.path.join(args.emit, safe + ".json")
            write_lattice_file(path, diagram_of(L, name=name))
            paths.append(path)
        results["emitted"] = paths
    if args.name and not args.emit:
        results["file"] = format_lattice_file(diagram_of(catalog.get(args.name),
                                                         name=args.name))
    emit(args, "catalog", args.name or "all", results, [], started)
    return EXIT_OK


def cmd_freelat(args):
    from . import freeterm

    started = time.perf_counter()
    if args.freelat_cmd == "leq":
        s = freeterm.parse_term(args.left)
        t = freeterm.parse_term(args.right)
        results = {
            "left": freeterm.format_term(freeterm.canonicalize(s)),
            "right": freeterm.format_term(freeterm.canonicalize(t)),
            "leq": freeterm.leq(s, t),
            "geq": freeterm.leq(t, s),
        }
        emit(args, "freelat leq", f"{args.left!r} vs {args.right!r}", results, [], started)
        return EXIT_OK
    if args.freelat_cmd == "canon":
        t = freeterm.parse_term(args.term)
        results = {"canonical": freeterm.format_term(freeterm.canonicalize(t))}
        emit(args, "freelat canon", repr(args.term), results, [], started)
        return EXIT_OK
    # embed
    L, name = load_lattice(args.file)
    found = freeterm.find_free_embedding(
        L, n_gens=args.gens, max_depth=args.depth, max_size=args.term_size,
        budget=args.budget,
    )
    results = {
        "name": name,
        "generators": args.gens,
        "depth": args.depth,
        "term_size": args.term_size,
        "found": found is not None,
    }
    if found is not None:
        results["witness"] = {
            L.labels[a]: freeterm.format_term(t) for a, t in sorted(found.items())
        }
    else:
        results["note"] = "inconclusive at this bound; not a refutation"
    emit(args, "freelat embed", args.file, results, [], started)
    return EXIT_OK


# -- argument parsing ---------------------------------------------------------


class _Choices:
    """The valid values of an option, read from `module.attr` (put in order
    by `order`) only when argparse tests or lists them, so that building the
    parser imports no module.  Options using it need an explicit metavar,
    since argparse would otherwise list the choices in the usage line."""

    def __init__(self, module, attr, order=tuple):
        self.module, self.attr, self.order = module, attr, order

    def _values(self):
        module = importlib.import_module(f"{__package__}.{self.module}")
        return self.order(getattr(module, self.attr))

    def __contains__(self, value):
        return value in self._values()

    def __iter__(self):
        return iter(self._values())


def _add_common(parser, suppress=False):
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--pretty", action="store_true",
                        default=d if suppress else False,
                        help="human-readable output")
    parser.add_argument("--timing", action="store_true",
                        default=d if suppress else False,
                        help="include wall time in reports (breaks byte-identity)")
    parser.add_argument("--budget", type=int, default=d,
                        help="search node budget (default from LATCHECK_BUDGET)")


def build_parser():
    p = argparse.ArgumentParser(
        prog="latcheck",
        description="Finite lattice computations for sublattices of free "
                    "lattices in the pentagon variety.",
    )
    _add_common(p)
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_parser(name, **kw):
        c = sub.add_parser(name, **kw)
        _add_common(c, suppress=True)
        return c

    c = add_parser("check", help="full law profile of a lattice file")
    c.add_argument("file")
    c.set_defaults(fn=cmd_check)

    c = add_parser("dec", help="Dec value and witness partition")
    c.add_argument("file")
    c.add_argument("--all-witnesses", action="store_true")
    c.set_defaults(fn=cmd_dec)

    c = add_parser("variety", help="pentagon-variety membership")
    c.add_argument("file")
    c.set_defaults(fn=cmd_variety)

    c = add_parser("find-forbidden", help="forbidden-sublattice hits")
    c.add_argument("file")
    c.add_argument("--profile", required=True, choices=_Choices("embed", "PROFILES", sorted),
                   metavar="PROFILE", help="one of %(choices)s")
    c.set_defaults(fn=cmd_find_forbidden)

    c = add_parser("verify-theorems", help="run the theorem harness over "
                                               "enumerated lattices")
    c.add_argument("--size", type=int, default=6)
    c.add_argument("--theorem", choices=_Choices("theorems", "ALL_CHECK_IDS"), default=None,
                   metavar="THEOREM", help="one of %(choices)s")
    c.add_argument("--profile", choices=_Choices("theorems", "PROFILE_CHECKS", sorted),
                   default="N-full", metavar="PROFILE", help="one of %(choices)s")
    c.set_defaults(fn=cmd_verify_theorems)

    c = add_parser("enumerate", help="enumerate lattices up to isomorphism")
    c.add_argument("--size", type=int, required=True)
    c.add_argument("--filter", default="",
                   help="comma list from: sd, whitman, distributive, in_n5, profile(NAME)")
    c.add_argument("--emit", default=None, help="write each lattice to this directory")
    c.set_defaults(fn=cmd_enumerate)

    c = add_parser("catalog", help="export built-in lattices")
    c.add_argument("--name", default=None)
    c.add_argument("--emit", default=None)
    c.set_defaults(fn=cmd_catalog)

    c = add_parser("freelat", help="free-lattice word problem")
    fsub = c.add_subparsers(dest="freelat_cmd", required=True)
    f = fsub.add_parser("leq", help="decide term order")
    f.add_argument("left")
    f.add_argument("right")
    _add_common(f, suppress=True)
    f = fsub.add_parser("canon", help="canonical form of a term")
    f.add_argument("term")
    _add_common(f, suppress=True)
    f = fsub.add_parser("embed", help="search a free-lattice embedding")
    f.add_argument("file")
    f.add_argument("--gens", type=int, default=3)
    f.add_argument("--depth", type=int, default=4)
    f.add_argument("--size", dest="term_size", type=int, default=7)
    _add_common(f, suppress=True)
    c.set_defaults(fn=cmd_freelat)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (SearchBudgetExceeded, SizeLimit) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except RecursionError as exc:
        print(f"error: input too deep to process ({exc})", file=sys.stderr)
        return EXIT_BUDGET
    except LatcheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
