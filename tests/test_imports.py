"""Import footprint: `import latcheck` loads no submodule, public names
resolve on first access, and each CLI command loads only what it runs."""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

import latcheck
from latcheck import catalog, cli

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))

# every name the package exported when it imported all modules eagerly:
# public name -> (module, attribute)
EXPORTS = {
    **{name: ("core", name) for name in (
        "CoverDiagram", "EmbeddingWitness", "FiniteLattice", "atoms", "are_isomorphic",
        "build_lattice", "canonical_form", "coatoms", "covers_of", "direct_product", "dual",
        "generated_sublattice", "maximal_antichains")},
    **{name: ("laws", name) for name in (
        "LawProfile", "dilworth_bound_holds", "distributive", "doubly_reducible_elements",
        "is_finite_free_sublattice", "law_profile", "length", "modular", "semidistributive",
        "whitman")},
    "catalog_get": ("catalog", "get"),
    "mckenzie_semidistributive_split": ("catalog", "mckenzie_semidistributive_split"),
    **{name: ("embed", name) for name in (
        "ForbiddenProfile", "contains_forbidden", "find_embedding", "iter_embeddings")},
    **{name: ("variety", name) for name in (
        "Congruence", "all_congruences", "in_n5_variety", "is_subdirectly_irreducible",
        "principal_congruence", "quotient", "si_factors")},
    **{name: ("decomp", name) for name in (
        "DistributivePartition", "GJDecomposition", "dec", "gj_classify",
        "is_distributive_partition", "minimum_distributive_partitions")},
    **{name: ("freeterm", name) for name in (
        "FreeTerm", "canonicalize", "evaluate", "find_free_embedding", "parse_term",
        "term_equal", "verify_free_embedding")},
    "term_leq": ("freeterm", "leq"),
    "all_lattices": ("enumeration", "all_lattices"),
    "filtered": ("enumeration", "filtered"),
    **{name: ("theorems", name) for name in ("TheoremReport", "run_check", "run_profile")},
}

# runs in a fresh interpreter: prints, on stderr, the modules that importing
# latcheck (and running the CLI on argv, if any) added to sys.modules
PROBE = """
import json, sys
before = set(sys.modules)
import latcheck
if sys.argv[1:]:
    from latcheck import cli
    cli.main(sys.argv[1:])
print(json.dumps(sorted(set(sys.modules) - before)), file=sys.stderr)
"""


def loaded_modules(*argv, cwd=None, probe=PROBE):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", probe, *argv], capture_output=True, text=True, cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
    )
    return set(json.loads(proc.stderr.splitlines()[-1]))


def test_import_latcheck_loads_no_submodule():
    loaded = loaded_modules()
    assert "latcheck" in loaded
    assert not [m for m in loaded if m.startswith("latcheck.")]


# runs in a fresh interpreter: prints, on stderr, the modules that building
# and running an argparse parser added to sys.modules
ARGPARSE_PROBE = """
import json, sys
before = set(sys.modules)
import argparse
argparse.ArgumentParser().parse_args([])
print(json.dumps(sorted(set(sys.modules) - before)), file=sys.stderr)
"""


def test_freelat_leq_loads_no_lattice_code():
    """`freelat leq` and `freelat canon` load the CLI, errors and freeterm,
    and beyond them only ``__future__`` and what argparse loads itself (the
    term tokeniser's ``re`` among it)."""
    argparse_loaded = loaded_modules(probe=ARGPARSE_PROBE)
    for argv in (("leq", "x & (y | z)", "(x & y) | (x & z)"), ("canon", "(x | y) & (x | y)")):
        loaded = loaded_modules("freelat", *argv) - argparse_loaded - {"__future__"}
        assert loaded == {"latcheck", "latcheck.cli", "latcheck.errors", "latcheck.freeterm"}


def test_check_loads_only_what_it_runs(tmp_path):
    cli.write_lattice_file(str(tmp_path / "N5.json"),
                           cli.diagram_of(catalog.get("N5"), name="N5"))
    loaded = loaded_modules("check", "N5.json", cwd=tmp_path)
    assert {"latcheck.core", "latcheck.laws"} <= loaded
    assert not loaded & {"latcheck.theorems", "latcheck.decomp", "latcheck.freeterm",
                         "latcheck.enumeration"}


# runs in a fresh interpreter: imports every latcheck submodule, then prints
# on stderr what that added to sys.modules
ALL_MODULES_PROBE = """
import json, os, sys
before = set(sys.modules)
import latcheck
for f in sorted(os.listdir(os.path.dirname(latcheck.__file__))):
    if f.endswith(".py") and f != "__init__.py":
        __import__("latcheck." + f[:-3])
print(json.dumps(sorted(set(sys.modules) - before)), file=sys.stderr)
"""

# dataclasses imports inspect, ast, dis, tokenize, linecache and copy, and
# each frozen @dataclass runs exec at class creation: start-up a one-shot
# CLI call pays for on every verdict
SLOW_IMPORTS = {"dataclasses", "inspect"}


def test_no_import_path_loads_dataclasses(tmp_path):
    cli.write_lattice_file(str(tmp_path / "N5.json"),
                           cli.diagram_of(catalog.get("N5"), name="N5"))
    everything = loaded_modules(probe=ALL_MODULES_PROBE)
    assert "latcheck.theorems" in everything and "latcheck.freeterm" in everything
    assert not everything & SLOW_IMPORTS
    for argv in (("check", "N5.json"), ("variety", "N5.json"), ("dec", "N5.json"),
                 ("find-forbidden", "N5.json", "--profile", "N"),
                 ("verify-theorems", "--size", "4"), ("freelat", "embed", "N5.json")):
        loaded = loaded_modules(*argv, cwd=tmp_path)
        assert "latcheck.cli" in loaded, argv
        assert not loaded & SLOW_IMPORTS, argv


def test_no_dataclasses_or_typing_import():
    # site may load typing before any test runs, so only the sources can
    # show that latcheck does not import it
    package = os.path.join(SRC, "latcheck")
    found = []
    for filename in sorted(os.listdir(package)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(package, filename)) as f:
            tree = ast.parse(f.read(), filename)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{filename}:{node.lineno} {m}" for m in names
                      if m.split(".")[0] in ("dataclasses", "typing")]
    assert not found


def test_enumerate_without_filters_loads_no_predicate_module():
    loaded = loaded_modules("enumerate", "--size", "4")
    assert "latcheck.enumeration" in loaded
    assert not loaded & {"latcheck.catalog", "latcheck.embed", "latcheck.laws",
                         "latcheck.variety"}


# runs in a fresh interpreter: prints, on stderr, the modules that importing
# latcheck.variety added to sys.modules
VARIETY_PROBE = """
import json, sys
before = set(sys.modules)
import latcheck.variety
print(json.dumps(sorted(set(sys.modules) - before)), file=sys.stderr)
"""


def test_variety_loads_no_catalog():
    loaded = loaded_modules(probe=VARIETY_PROBE)
    assert "latcheck.variety" in loaded and "latcheck.catalog" not in loaded


def test_traced_names_resolve_to_module_attributes():
    """perfbench's tracer wraps each name in ``TRACED`` and hooks each in
    ``HOOKS`` by ``getattr`` on its latcheck module, so a deleted or renamed
    one would make every traced run raise AttributeError.  The file is read,
    not imported."""
    path = os.path.join(os.path.dirname(SRC), "perfbench", "tracing.py")
    with open(path) as f:
        tree = ast.parse(f.read(), path)
    tables = {node.targets[0].id: node.value for node in tree.body
              if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}
    names = [(layer, fn) for layer, fns in ast.literal_eval(tables["TRACED"]).items()
             for fn in fns]
    names += [tuple(ast.literal_eval(key).split(".")) for key in tables["HOOKS"].keys]
    assert len(names) > 30 and ("variety", "all_congruences") in names
    missing = [f"{module}.{attr}" for module, attr in names
               if not hasattr(importlib.import_module(f"latcheck.{module}"), attr)]
    assert not missing


def test_exports_resolve_to_module_attributes():
    assert len(EXPORTS) == 55
    assert sorted(latcheck.__all__) == sorted(EXPORTS)
    listed = dir(latcheck)
    for name, (module, attr) in EXPORTS.items():
        assert name in listed
        owner = importlib.import_module(f"latcheck.{module}")
        assert getattr(latcheck, name) is getattr(owner, attr), name


def test_readme_example_import():
    from latcheck import catalog, dec, find_embedding, in_n5_variety

    n5 = catalog.get("N5")
    assert dec(n5)[0] == 3
    assert bool(in_n5_variety(n5))
    assert find_embedding(n5, catalog.get("ninf(2)")) is not None


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        latcheck.no_such_name
    with pytest.raises(ImportError):
        from latcheck import no_such_name  # noqa: F401


def test_no_unused_imports():
    # every name an import binds, at module level or in a function, is read
    # somewhere in the same module (__future__ imports excepted)
    package = os.path.join(SRC, "latcheck")
    unused = []
    for filename in sorted(os.listdir(package)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(package, filename)) as f:
            tree = ast.parse(f.read(), filename)
        bound = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound += [(a.asname or a.name, node.lineno) for a in node.names]
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{filename}:{line} {name}" for name, line in bound if name not in read]
    assert not unused
