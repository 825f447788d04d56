"""Command-line front door: lattice files, law profiles, Dec, variety
membership, forbidden-pattern search, the theorem harness, enumeration,
catalog export, and the free-lattice word problem.

Reports are machine-first JSON documents {command, input, results,
violations, timing, version}; --pretty renders them for humans.  Each cmd_*
function returns its report as (command, input, results, violations) and
writes nothing; main alone writes the report and derives the exit code:
0 when violations is empty, 1 when it is not, 2 input or usage error, 3
search budget exceeded.  Identical inputs give byte-identical reports; the
timing field stays null unless --timing is passed, and then counts the wall
time from the start of main, the command's own module imports included.

Each command imports only the modules it runs, inside its cmd_* function,
and the parser holds only the root and the command argv names (every
command only for root help or an unknown command), so a call pays
start-up for what it uses and nothing else.  The parsers of find-forbidden
and verify-theorems import embed and theorems, whose names their options'
choices list, and those commands run them anyway.  No latcheck
module imports the standard library's data-class generator (PEP 557),
which would load ``inspect`` and ``ast`` and run ``exec`` per record class
at start-up; the records are named tuples and plain classes.
"""

from __future__ import annotations

import argparse
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
    node_count,
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


def _render(report):
    print(f"latcheck {report['command']} ({report['version']})")
    print(f"input: {report['input']}")
    _render_value(report["results"], 1)
    if report["violations"]:
        print("violations:")
        _render_value(report["violations"], 1)
    else:
        print("violations: none")
    if report["timing"] is not None:
        print(f"elapsed: {report['timing']}s")


def _render_value(value, depth):
    pad = "  " * depth
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)) and v:
                print(f"{pad}{k}:")
                _render_value(v, depth + 1)
            else:
                print(f"{pad}{k}: {v}")
    elif isinstance(value, (list, tuple)):
        for v in value:
            if isinstance(v, (list, tuple)) and not any(
                isinstance(x, (dict, list, tuple)) for x in v
            ):
                print(f"{pad}- [{', '.join(str(x) for x in v)}]")
            elif isinstance(v, (dict, list, tuple)):
                _render_value(v, depth + 1)
            else:
                print(f"{pad}- {v}")
    else:
        print(f"{pad}{value}")


# -- commands -----------------------------------------------------------------


def cmd_check(args):
    from . import laws

    L, name = load_lattice(args.file)
    p = laws.law_profile(L)
    results = {"name": name, "elements": L.n, **p._asdict(),
               "dilworth_bound_holds": laws.dilworth_bound_holds(L)}
    # indices become labels in place, so the key keeps its position
    results["doubly_reducible"] = [L.labels[e] for e in p.doubly_reducible]
    return "check", args.file, results, []


def cmd_dec(args):
    from . import decomp

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
    return "dec", args.file, results, []


def cmd_variety(args):
    from . import embed, laws, variety

    L, name = load_lattice(args.file)
    decision = variety.in_n5_variety(L)
    sd = laws.holds(L, "sd_join") and laws.holds(L, "sd_meet")
    hits = embed.contains_forbidden(L, embed.profile("N"), args.budget)
    violations = []
    if decision.member and (not sd or hits):
        # membership implies the necessary conditions; a disagreement is a bug
        violations.append({
            "disagreement": "member accepted but necessary condition fails",
            "semidistributive": sd,
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
            "semidistributive": sd,
            "forbidden_profile_hits": [h[0] for h in hits],
        },
    }
    return "variety", args.file, results, violations


def cmd_find_forbidden(args):
    from . import embed

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
    return "find-forbidden", args.file, results, violations


def cmd_verify_theorems(args):
    from . import enumeration, theorems

    totals = {}
    violations = []
    smallest_instance = {}
    checked = 0
    skipped = 0
    enumeration.all_lattices(args.size)  # rejects a size outside 1..ENUM_CAP up front
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
    return "verify-theorems", f"enumeration up to n={args.size}", results, violations


def cmd_enumerate(args):
    from . import enumeration

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
    return "enumerate", f"n={args.size}", results, []


def cmd_catalog(args):
    from . import catalog

    entries, paths = [], []
    for name in [args.name] if args.name else catalog.FIXED_NAMES:
        L = catalog.get(name)  # an unknown name fails before --emit makes a directory
        entries.append({"name": name, "elements": L.n,
                        "covers": len(L.cover_pairs())})
        if args.emit:
            os.makedirs(args.emit, exist_ok=True)
            safe = name.replace("(", "_").replace(")", "").replace(",", "_")
            paths.append(os.path.join(args.emit, safe + ".json"))
            write_lattice_file(paths[-1], diagram_of(L, name=name))
    results = {"entries": entries}
    if args.emit:
        results["emitted"] = paths
    elif args.name:
        results["file"] = format_lattice_file(diagram_of(L, name=args.name))
    return "catalog", args.name or "all", results, []


def cmd_freelat(args):
    from . import freeterm

    if args.freelat_cmd == "leq":
        s = freeterm.parse_term(args.left)
        t = freeterm.parse_term(args.right)
        results = {
            "left": freeterm.format_term(freeterm.canonicalize(s)),
            "right": freeterm.format_term(freeterm.canonicalize(t)),
            "leq": freeterm.leq(s, t),
            "geq": freeterm.leq(t, s),
        }
        return "freelat leq", f"{args.left!r} vs {args.right!r}", results, []
    if args.freelat_cmd == "canon":
        t = freeterm.parse_term(args.term)
        results = {"canonical": freeterm.format_term(freeterm.canonicalize(t))}
        return "freelat canon", repr(args.term), results, []
    # embed
    from . import laws

    L, name = load_lattice(args.file)
    found = freeterm.find_free_embedding(L, budget=args.budget)
    results = {"name": name, "found": found is not None}
    if found is not None:
        results["generators"] = {g: L.labels[k] for g, k in freeterm.free_generators(L)}
        results["witness"] = {
            L.labels[a]: freeterm.format_term(t) for a, t in sorted(found.items())
        }
    else:
        failure = laws.free_sublattice_failure(L)
        results["reason"] = (
            f"fails {failure[0]} at ({', '.join(L.labels[e] for e in failure[1])})" if failure
            else "satisfies W and SD; no verified witness was built")
    return "freelat embed", args.file, results, []


# -- argument parsing ---------------------------------------------------------


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


def _file_args(c):
    c.add_argument("file")


def _dec_args(c):
    c.add_argument("file")
    c.add_argument("--all-witnesses", action="store_true")


def _find_forbidden_args(c):
    from . import embed

    c.add_argument("file")
    c.add_argument("--profile", required=True, choices=sorted(embed.PROFILES),
                   metavar="PROFILE", help="one of %(choices)s")


def _verify_theorems_args(c):
    from . import theorems

    c.add_argument("--size", type=int, default=6)
    c.add_argument("--theorem", choices=theorems.ALL_CHECK_IDS, default=None,
                   metavar="THEOREM", help="one of %(choices)s")
    c.add_argument("--profile", choices=sorted(theorems.PROFILE_CHECKS),
                   default="N-full", metavar="PROFILE", help="one of %(choices)s")


def _enumerate_args(c):
    c.add_argument("--size", type=int, required=True)
    c.add_argument("--filter", default="",
                   help="comma list from: sd, whitman, distributive, in_n5, profile(NAME)")
    c.add_argument("--emit", default=None, help="write each lattice to this directory")


def _catalog_args(c):
    c.add_argument("--name", default=None)
    c.add_argument("--emit", default=None)


def _freelat_args(c):
    fsub = c.add_subparsers(dest="freelat_cmd", required=True)
    f = fsub.add_parser("leq", help="decide term order")
    f.add_argument("left")
    f.add_argument("right")
    _add_common(f, suppress=True)
    f = fsub.add_parser("canon", help="canonical form of a term")
    f.add_argument("term")
    _add_common(f, suppress=True)
    f = fsub.add_parser("embed", help="build a free-lattice embedding witness")
    f.add_argument("file")
    _add_common(f, suppress=True)


# the one list of commands: name -> (help, command function, arguments)
_COMMANDS = {
    "check": ("full law profile of a lattice file", cmd_check, _file_args),
    "dec": ("Dec value and witness partition", cmd_dec, _dec_args),
    "variety": ("pentagon-variety membership", cmd_variety, _file_args),
    "find-forbidden": ("forbidden-sublattice hits", cmd_find_forbidden,
                       _find_forbidden_args),
    "verify-theorems": ("run the theorem harness over enumerated lattices",
                        cmd_verify_theorems, _verify_theorems_args),
    "enumerate": ("enumerate lattices up to isomorphism", cmd_enumerate, _enumerate_args),
    "catalog": ("export built-in lattices", cmd_catalog, _catalog_args),
    "freelat": ("free-lattice word problem", cmd_freelat, _freelat_args),
}


def _named_command(argv):
    """The command ``argv`` names after the root options, or None when its
    root options are anything but --pretty, --timing and --budget with a
    value, or its first other word is no command."""
    rest = iter(argv)
    for arg in rest:
        if arg == "--budget":
            next(rest, None)
        elif arg not in ("--pretty", "--timing") and not arg.startswith("--budget="):
            return arg if arg in _COMMANDS else None
    return None


def build_parser(argv=None):
    """The parser for ``argv``: the root and only the command it names, or
    every command when it names none (``argv`` None included), so that
    root help and the unknown-command error list them all.  The root's
    usage line names every command either way."""
    p = argparse.ArgumentParser(
        prog="latcheck",
        description="Finite lattice computations for sublattices of free "
                    "lattices in the pentagon variety.",
    )
    _add_common(p)
    name = None if argv is None else _named_command(argv)
    # argparse's own metavar lists the parsers it holds, and a missing
    # command is reported as "cmd" only without an explicit one
    sub = p.add_subparsers(dest="cmd", required=True,
                           metavar=None if name is None else "{%s}" % ",".join(_COMMANDS))
    for cmd, (help_text, fn, add_args) in _COMMANDS.items():
        if name in (None, cmd):
            c = sub.add_parser(cmd, help=help_text)
            _add_common(c, suppress=True)
            add_args(c)
            c.set_defaults(fn=fn)
    return p


def main(argv=None) -> int:
    started = time.perf_counter()  # before the parser imports a command's module
    parser = build_parser(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        # a bad budget is an input error on every command, searching or not
        if args.budget is not None:
            node_count(args.budget, "search node budget")
        if os.environ.get("LATCHECK_BUDGET"):
            node_count(os.environ["LATCHECK_BUDGET"], "LATCHECK_BUDGET")
        command, input_desc, results, violations = args.fn(args)
        emit(args, command, input_desc, results, violations, started)
    except (SearchBudgetExceeded, SizeLimit) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except RecursionError as exc:
        print(f"error: input too deep to process ({exc})", file=sys.stderr)
        return EXIT_BUDGET
    except LatcheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_VIOLATION if violations else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
