#!/usr/bin/env python3
"""Emit the flag-moment table (n,a,k,j,q_in_W1,S,closed_form,match) as CSV.

Usage: python scripts/moment_table.py [n_max] [a_max] [k_max] > moments.csv

A thin wrapper over ``wfano moments table``; the CSV comes from the CLI.
"""

import sys

from wfano.cli import run


def main() -> None:
    n_max = sys.argv[1] if len(sys.argv) > 1 else "8"
    a_max = sys.argv[2] if len(sys.argv) > 2 else "6"
    k_max = sys.argv[3] if len(sys.argv) > 3 else "6"
    sys.exit(run(["moments", "table", "--n-max", n_max, "--a-max", a_max,
                  "--k-max", k_max]))


if __name__ == "__main__":
    main()
