"""Import footprint: `import latcheck` loads no submodule, public names
resolve on first access, and each CLI command loads only what it runs."""

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


def loaded_modules(*argv, cwd=None):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], capture_output=True, text=True, cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
    )
    return set(json.loads(proc.stderr.splitlines()[-1]))


def test_import_latcheck_loads_no_submodule():
    loaded = loaded_modules()
    assert "latcheck" in loaded
    assert not [m for m in loaded if m.startswith("latcheck.")]


def test_freelat_leq_loads_no_lattice_code():
    loaded = loaded_modules("freelat", "leq", "x & (y | z)", "(x & y) | (x & z)")
    assert "latcheck.freeterm" in loaded
    assert not loaded & {"latcheck.core", "latcheck.theorems", "dataclasses"}


def test_check_loads_only_what_it_runs(tmp_path):
    cli.write_lattice_file(str(tmp_path / "N5.json"),
                           cli.diagram_of(catalog.get("N5"), name="N5"))
    loaded = loaded_modules("check", "N5.json", cwd=tmp_path)
    assert {"latcheck.core", "latcheck.laws"} <= loaded
    assert not loaded & {"latcheck.theorems", "latcheck.decomp", "latcheck.freeterm",
                         "latcheck.enumeration"}


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
