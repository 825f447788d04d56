"""Finite-lattice computations for the structure theory of sublattices of
free lattices in the pentagon variety: law predicates, McKenzie's catalog,
variety membership, distributive decompositions (Dec), the free-lattice word
problem, and a machine-verification harness for the structural theorems.

Importing the package loads no submodule: each public name below is
imported from its module on first access (PEP 562), so a command that needs
only the word problem never loads the lattice core.
"""

import importlib

__version__ = "0.1.0"

# public name -> (module, attribute in that module)
_EXPORTS = {
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
_SUBMODULES = ("catalog", "cli", "core", "decomp", "embed", "enumeration", "errors",
               "freeterm", "laws", "theorems", "variety")

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        module, attr = _EXPORTS[name]
        value = getattr(importlib.import_module(f"{__name__}.{module}"), attr)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(_SUBMODULES))
