#!/usr/bin/env python3
"""Count, for each size n = 10 .. --max-size, the lattices, those that
satisfy Whitman's condition and both semidistributive laws, and those of
them that get a verified witness from `freeterm.find_free_embedding`.  The
lattices are streamed depth-first through `enumeration._children` from the
representatives with nine elements, each child carrying the automorphism
generators that prune its own children, and none is kept.

Usage: python scripts/free_witness_survey.py [--max-size N]
"""

import argparse
import sys
from collections import Counter

from latcheck import enumeration
from latcheck.freeterm import find_free_embedding
from latcheck.laws import is_finite_free_sublattice


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-size", type=int, default=10)
    args = ap.parse_args()
    if args.max_size < 10:
        ap.error("--max-size must be at least 10")
    counts = {n: Counter() for n in range(10, args.max_size + 1)}

    def visit(R):
        n = R.n + 1
        for L in enumeration._children(R):
            counts[n]["lattices"] += 1
            if is_finite_free_sublattice(L):
                counts[n]["w_sd"] += 1
                counts[n]["witnessed"] += find_free_embedding(L) is not None
            if n < args.max_size:
                visit(L)

    for R in enumeration.all_lattices(9):
        visit(R)
    for n, c in counts.items():
        print(f"n={n}: {c['lattices']} lattices, {c['w_sd']} satisfy W and SD, "
              f"{c['witnessed']} witnessed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
