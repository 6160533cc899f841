#!/usr/bin/env python3
"""Check that two bench JSON files agree on every simulated field.

Usage:
    python3 bench/same_sim.py BASELINE NEW

Simulated cycles are deterministic, so a bench rerun must reproduce every
field of its committed baseline except the host timings. The two files are
compared recursively; every key starting with "host_" is ignored at any
depth. On the first difference the script prints its path and both values
and exits 1; otherwise it prints a one-line summary and exits 0.
"""

import json
import sys


def first_diff(base, new, path):
    """Path and values of the first simulated difference, or None."""
    if isinstance(base, dict) and isinstance(new, dict):
        for k in list(base) + [k for k in new if k not in base]:
            if k.startswith("host_"):
                continue
            if k not in new or k not in base:
                return f"{path}.{k}", base.get(k, "<missing>"), new.get(k, "<missing>")
            d = first_diff(base[k], new[k], f"{path}.{k}")
            if d:
                return d
        return None
    if isinstance(base, list) and isinstance(new, list):
        if len(base) != len(new):
            return f"{path}[len]", len(base), len(new)
        for i, (b, n) in enumerate(zip(base, new)):
            d = first_diff(b, n, f"{path}[{i}]")
            if d:
                return d
        return None
    if type(base) is not type(new) or base != new:
        return path, base, new
    return None


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[0]) as f:
        base = json.load(f)
    with open(argv[1]) as f:
        new = json.load(f)
    d = first_diff(base, new, "$")
    if d:
        print(f"{argv[1]}: simulated field differs from {argv[0]} at {d[0]}: "
              f"{d[1]!r} -> {d[2]!r}")
        return 1
    print(f"{argv[1]}: every simulated field matches {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
