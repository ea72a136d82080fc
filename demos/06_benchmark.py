#!/usr/bin/env python3
"""A small benchmark matrix through ``hamdecomp bench``.

Solves seeded suites with both algorithms, one after another in this process,
and prints the per-group feasible and infeasible counts and mean solve times.
"""

from hamdecomp.cli import main

main(["bench", "--n", "16,32", "--mode", "directed,undirected", "--algo", "bsp,bcef",
      "--count", "30", "--time-limit", "5"])
