#!/usr/bin/env python3
"""Minimal K-unstable dimensions for Eckardt-vertex hypersurfaces X_{ak+1}.

For each weight a and level k, scan dimensions n up to MAX_DIMENSION and
report the first n where the instability criterion n > a^2 k (k-1)/(a-1)
certifies K-instability, together with the exact witness bound for
delta(X); "-" marks a pair with no such n in range.

Usage: python scripts/unstable_families.py [a_max] [k_max]
"""

import sys
from fractions import Fraction

from wfano.moments import MAX_DIMENSION, unstable_check


def main() -> None:
    a_max = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    k_max = int(sys.argv[2]) if len(sys.argv) > 2 else 3
    print(f"{'a':>3} {'k':>3} {'threshold':>12} {'min n':>6} {'witness':>12}")
    for a in range(2, a_max + 1):
        for k in range(2, k_max + 1):
            threshold = Fraction(a * a * k * (k - 1), a - 1)
            minimal, witness = "-", "-"
            # from the smallest Fano dimension on
            for n in range(a * (k - 1) + 1, MAX_DIMENSION + 1):
                rep = unstable_check(n, a, k)
                if rep.verdict == "K-unstable":
                    minimal, witness = n, rep.witness
                    break
            print(f"{a:>3} {k:>3} {str(threshold):>12} {minimal:>6} "
                  f"{str(witness):>12}")


if __name__ == "__main__":
    main()
