"""Built-in encodings of the named lattices: the diamond M3 and pentagon N5,
McKenzie's subdirectly irreducible list L1..L15, the Boolean cube B3, chains,
2 x k grids, finite truncations of the nested-pentagon lattice, the stacked
double pentagon, and the twelve-element grid-plus-two-points shape.

The L1..L15 cover relations are transcribed from their standard Hasse
diagrams; the test suite guards every transcription with the known
semidistributivity split, subdirect irreducibility, duality closure and
pairwise non-isomorphism, so a misread edge fails loudly.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import cache

from .core import SIZE_CAP, CoverDiagram, FiniteLattice, build_lattice
from .errors import BadParameter, SizeLimit, UnknownName


class CatalogEntry(namedtuple("CatalogEntry", "name diagram expected")):
    __slots__ = ()

    def __new__(cls, name, diagram, expected=None):
        return super().__new__(cls, name, diagram, {} if expected is None else expected)

    def build(self) -> FiniteLattice:
        return build_lattice(self.diagram)


def _diagram(name, elements, covers):
    return CoverDiagram(tuple(elements), tuple(covers), name=name)


_FIXED = {}


def _register(name, elements, covers, **expected):
    _FIXED[name] = CatalogEntry(name, _diagram(name, elements, covers), dict(expected))


_register(
    "M3",
    ["0", "a", "b", "c", "1"],
    [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")],
    semidistributive=False, subdirectly_irreducible=True, modular=True,
)

# pentagon, labelled as usual: x1 top, x2 the long side, x4 < x3 the short side
_register(
    "N5",
    ["x1", "x2", "x3", "x4", "x5"],
    [("x5", "x2"), ("x5", "x4"), ("x4", "x3"), ("x2", "x1"), ("x3", "x1")],
    semidistributive=True, subdirectly_irreducible=True, modular=False,
)

_register(
    "L1",
    ["a", "b", "c", "d", "e", "f", "g"],
    [("g", "d"), ("g", "e"), ("g", "f"), ("d", "b"), ("d", "c"),
     ("e", "b"), ("f", "c"), ("b", "a"), ("c", "a")],
    semidistributive=False, subdirectly_irreducible=True,
)

_register(
    "L2",
    ["a", "b", "c", "d", "e", "f", "g"],
    [("a", "b"), ("a", "c"), ("b", "d"), ("b", "e"), ("c", "d"),
     ("c", "f"), ("d", "g"), ("e", "g"), ("f", "g")],
    semidistributive=False, subdirectly_irreducible=True,
)

_register(
    "L3",
    ["a", "b", "c", "d", "e", "f", "g"],
    [("g", "d"), ("g", "f"), ("d", "e"), ("d", "c"), ("c", "b"),
     ("f", "b"), ("b", "a"), ("e", "a")],
    semidistributive=False, subdirectly_irreducible=True,
)

_register(
    "L4",
    ["a", "b", "c", "d", "e", "f"],
    [("f", "c"), ("f", "d"), ("f", "e"), ("c", "b"), ("d", "b"),
     ("b", "a"), ("e", "a")],
    semidistributive=False, subdirectly_irreducible=True,
)

_register(
    "L5",
    ["a", "b", "c", "d", "e", "f"],
    [("a", "b"), ("a", "e"), ("b", "c"), ("b", "d"), ("c", "f"),
     ("d", "f"), ("e", "f")],
    semidistributive=False, subdirectly_irreducible=True,
)

_register(
    "L6",
    ["a", "b", "c", "d", "e", "f", "g", "h"],
    [("g", "f"), ("g", "h"), ("f", "e"), ("f", "d"), ("e", "c"),
     ("d", "b"), ("c", "b"), ("b", "a"), ("h", "a")],
    semidistributive=True, subdirectly_irreducible=True,
)

_register(
    "L7",
    ["a", "b", "c", "d", "e", "f", "g", "h", "i"],
    [("i", "f"), ("i", "h"), ("h", "g"), ("h", "d"), ("g", "e"),
     ("e", "b"), ("e", "c"), ("f", "c"), ("d", "b"), ("b", "a"), ("c", "a")],
    semidistributive=True, subdirectly_irreducible=True,
)

_register(
    "L8",
    ["a", "b", "c", "d", "e", "f", "g", "h", "i"],
    [("a", "b"), ("a", "c"), ("b", "e"), ("b", "d"), ("c", "e"),
     ("c", "f"), ("e", "g"), ("g", "h"), ("d", "h"), ("f", "i"), ("h", "i")],
    semidistributive=True, subdirectly_irreducible=True,
)

_register(
    "L9",
    ["a", "b", "c", "d", "e", "f", "g", "h", "i"],
    [("i", "g"), ("i", "h"), ("g", "f"), ("g", "e"), ("f", "d"),
     ("e", "b"), ("e", "c"), ("d", "b"), ("h", "c"), ("b", "a"), ("c", "a")],
    semidistributive=True, subdirectly_irreducible=True,
)

_register(
    "L10",
    ["a", "b", "c", "d", "e", "f", "g", "h", "i"],
    [("a", "b"), ("a", "c"), ("b", "d"), ("b", "e"), ("c", "e"),
     ("c", "h"), ("d", "f"), ("e", "g"), ("f", "g"), ("g", "i"), ("h", "i")],
    semidistributive=True, subdirectly_irreducible=True,
)

_register(
    "L11",
    ["a", "b", "c", "d", "e", "f", "g", "h", "i", "j"],
    [("j", "f"), ("j", "i"), ("i", "g"), ("i", "h"), ("g", "d"),
     ("g", "e"), ("f", "d"), ("e", "b"), ("e", "c"), ("d", "b"),
     ("h", "c"), ("b", "a"), ("c", "a")],
    semidistributive=True, subdirectly_irreducible=True,
)

_register(
    "L12",
    ["a", "b", "c", "d", "e", "f", "g", "h", "i", "j"],
    [("a", "b"), ("a", "c"), ("b", "d"), ("b", "e"), ("c", "e"),
     ("c", "h"), ("d", "f"), ("d", "g"), ("e", "g"), ("g", "i"),
     ("h", "i"), ("f", "j"), ("i", "j")],
    semidistributive=True, subdirectly_irreducible=True,
)

# boolean cube on atoms {e, f, g} with its lower cover of e doubled by m
_register(
    "L13",
    ["a", "b", "c", "d", "e", "f", "g", "h", "m"],
    [("h", "g"), ("h", "m"), ("h", "f"), ("m", "e"), ("g", "d"),
     ("g", "c"), ("f", "b"), ("f", "d"), ("e", "b"), ("e", "c"),
     ("d", "a"), ("c", "a"), ("b", "a")],
    semidistributive=True, subdirectly_irreducible=True,
)

_register(
    "L14",
    ["a", "b", "c", "d", "e", "f", "g", "h", "m"],
    [("h", "g"), ("h", "e"), ("h", "f"), ("e", "b"), ("e", "c"),
     ("g", "d"), ("g", "c"), ("f", "b"), ("f", "d"), ("d", "m"),
     ("m", "a"), ("b", "a"), ("c", "a")],
    semidistributive=True, subdirectly_irreducible=True,
)

_register(
    "L15",
    ["a", "b", "c", "d", "e", "f", "g", "h", "i", "j"],
    [("j", "i"), ("j", "h"), ("i", "g"), ("i", "f"), ("h", "e"),
     ("h", "f"), ("f", "d"), ("e", "b"), ("g", "c"), ("d", "b"),
     ("d", "c"), ("b", "a"), ("c", "a")],
    semidistributive=True, subdirectly_irreducible=True,
)

_register(
    "B3",
    ["0", "a", "b", "c", "ab", "ac", "bc", "abc"],
    [("0", "a"), ("0", "b"), ("0", "c"),
     ("a", "ab"), ("a", "ac"), ("b", "ab"), ("b", "bc"),
     ("c", "ac"), ("c", "bc"),
     ("ab", "abc"), ("ac", "abc"), ("bc", "abc")],
    semidistributive=True, distributive=True,
)

_register(
    "stacked_n5",
    ["x1", "x2", "x3", "x4", "x5", "y1", "y2", "y3", "y4", "y5"],
    [("x5", "x2"), ("x5", "x4"), ("x4", "x3"), ("x2", "x1"), ("x3", "x1"),
     ("y5", "y2"), ("y5", "y4"), ("y4", "y3"), ("y2", "y1"), ("y3", "y1"),
     ("y1", "x5")],
    semidistributive=True,
)

# 2 x 5 grid with c squeezed into the middle rung and s into the right chain
_register(
    "shape_2x5_plus",
    ["w'", "x'", "w", "x", "a", "c", "b", "s", "y", "z", "y'", "z'"],
    [("w'", "x'"), ("w'", "w"), ("x'", "x"), ("w", "x"), ("w", "a"),
     ("a", "c"), ("c", "b"), ("x", "b"), ("a", "s"), ("s", "y"),
     ("b", "z"), ("y", "z"), ("y", "y'"), ("z", "z'"), ("y'", "z'")],
)


MCKENZIE_NAMES = tuple(f"L{i}" for i in range(1, 16))
FIXED_NAMES = tuple(_FIXED)

# dual pairing of the named lattices, up to isomorphism (verified by tests)
DUAL_PAIRING = {
    "M3": "M3", "N5": "N5", "L1": "L2", "L2": "L1", "L3": "L3",
    "L4": "L5", "L5": "L4", "L6": "L6", "L7": "L8", "L8": "L7",
    "L9": "L10", "L10": "L9", "L11": "L12", "L12": "L11",
    "L13": "L14", "L14": "L13", "L15": "L15", "B3": "B3",
}

_PARAM_RE = re.compile(r"^(chain|grid|ninf)\((\d+(?:,\d+)?)\)$")


def chain_diagram(k: int) -> CoverDiagram:
    if k < 1:
        raise BadParameter(f"chain needs k >= 1, got {k}")
    labels = [f"c{i}" for i in range(k)]
    return _diagram(f"chain({k})", labels, [(f"c{i}", f"c{i+1}") for i in range(k - 1)])


def grid_diagram(k: int) -> CoverDiagram:
    if k < 1:
        raise BadParameter(f"grid(2,k) needs k >= 1, got {k}")
    labels = [f"{i}.{j}" for i in range(2) for j in range(k)]
    covers = []
    for i in range(2):
        for j in range(k - 1):
            covers.append((f"{i}.{j}", f"{i}.{j+1}"))
    for j in range(k):
        covers.append((f"0.{j}", f"1.{j}"))
    return _diagram(f"grid(2,{k})", labels, covers)


def ninf_diagram(k: int) -> CoverDiagram:
    """k nested pentagon layers: a single side element against a chain of 2k
    elements, closed off by a top and a bottom."""
    if k < 1:
        raise BadParameter(f"ninf needs k >= 1, got {k}")
    labels = ["b", "p"] + [f"r{i}" for i in range(1, 2 * k + 1)] + ["t"]
    covers = [("b", "p"), ("p", "t"), ("b", "r1"), (f"r{2*k}", "t")]
    covers += [(f"r{i}", f"r{i+1}") for i in range(1, 2 * k)]
    return _diagram(f"ninf({k})", labels, covers)


def entry(name: str) -> CatalogEntry:
    """Catalog entry by name; parametrized families accept chain(k),
    grid(2,k) and ninf(k) spellings."""
    if name in _FIXED:
        return _FIXED[name]
    m = _PARAM_RE.match(name.replace(" ", ""))
    if m is None:
        raise UnknownName(name)
    family, args = m.group(1), [int(a) for a in m.group(2).split(",")]
    if family == "grid":
        if len(args) != 2 or args[0] != 2:
            raise BadParameter(f"only grid(2,k) is supported, got {name!r}")
    elif len(args) != 1:
        raise BadParameter(f"{family} takes one parameter, got {name!r}")
    k = args[-1]
    size, diagram = {"chain": (k, chain_diagram), "grid": (2 * k, grid_diagram),
                     "ninf": (2 * k + 3, ninf_diagram)}[family]
    if size > SIZE_CAP:  # checked before the n^2 order and tables are built
        raise SizeLimit(size, SIZE_CAP, f"catalog {family}")
    return CatalogEntry(name, diagram(k))


@cache
def _built(name: str) -> FiniteLattice:
    return _FIXED[name].build()


def get(name: str) -> FiniteLattice:
    """The named lattice.  Each fixed name is built once and the same object
    is returned thereafter, so its memoised tables and covers are shared;
    parametrized names and ``CatalogEntry.build`` build afresh."""
    return _built(name) if name in _FIXED else entry(name).build()


def chain(k: int) -> FiniteLattice:
    return build_lattice(chain_diagram(k))


def grid(k: int) -> FiniteLattice:
    return build_lattice(grid_diagram(k))


def ninf(k: int) -> FiniteLattice:
    return build_lattice(ninf_diagram(k))


def mckenzie_semidistributive_split():
    """The non-semidistributive and semidistributive halves of the list of
    join-irreducible covers of the pentagon variety."""
    non_sd = frozenset({"M3", "L1", "L2", "L3", "L4", "L5"})
    sd = frozenset(f"L{i}" for i in range(6, 16))
    return non_sd, sd
