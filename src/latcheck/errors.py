"""Exception hierarchy shared across the package."""


class LatcheckError(Exception):
    """Base class for all package errors."""


class InvalidDiagram(LatcheckError):
    """A cover diagram violates a structural invariant (bad label, duplicate
    or reflexive cover pair)."""


class DuplicateLabel(InvalidDiagram):
    def __init__(self, label):
        self.label = label
        super().__init__(f"duplicate element label {label!r}")


class CyclicCovers(InvalidDiagram):
    """The transitive closure of the cover relation is not antisymmetric."""

    def __init__(self, cycle=None):
        self.cycle = cycle
        msg = "cover relation contains a cycle"
        if cycle:
            msg += ": " + " < ".join(str(c) for c in cycle)
        super().__init__(msg)


class NotALattice(LatcheckError):
    """Some pair of elements has no unique meet or join."""

    def __init__(self, pair, kind="bound"):
        self.pair = pair
        self.kind = kind
        super().__init__(f"pair {pair[0]!r}, {pair[1]!r} has no unique {kind}")


class EmptySeeds(LatcheckError):
    pass


class SizeLimit(LatcheckError):
    def __init__(self, actual, cap, what="lattice"):
        self.actual = actual
        self.cap = cap
        super().__init__(f"{what} size {actual} exceeds configured cap {cap}")


class SearchBudgetExceeded(LatcheckError):
    """A search ran out of nodes before reaching a verdict.  Distinct from a
    negative answer."""

    def __init__(self, budget, what="search"):
        self.budget = budget
        super().__init__(f"{what} exceeded node budget {budget}")


class UnknownName(LatcheckError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unknown catalog name {name!r}")


class BadParameter(LatcheckError):
    pass


def node_count(value, what):
    """``value`` as a node count; BadParameter unless a non-negative integer."""
    if not str(value).strip().isdecimal():
        raise BadParameter(f"{what} must be a non-negative integer, got {value!r}")
    return int(value)


class UnknownProfile(LatcheckError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unknown profile {name!r}")


class NotAPartition(LatcheckError):
    pass


class NotDistributive(LatcheckError):
    pass


class HypothesisViolated(LatcheckError):
    """An explicit witness construction was handed a tuple that fails the
    hypotheses it requires."""

    def __init__(self, clause, tup=None):
        self.clause = clause
        self.tuple = tup
        super().__init__(f"hypothesis violated: {clause}" + (f" at {tup}" if tup else ""))


class UnassignedGenerator(LatcheckError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"no value assigned to generator {name!r}")


class ParseError(LatcheckError):
    def __init__(self, message, line=None, offset=None):
        self.line = line
        self.offset = offset
        pos = ""
        if line is not None:
            pos = f" at line {line}" + (f", column {offset}" if offset is not None else "")
        super().__init__(message + pos)
