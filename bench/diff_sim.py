#!/usr/bin/env python3
"""Compares the simulated fields of two directories of BENCH_*.json records.

Usage:

    python3 bench/diff_sim.py DIR_A DIR_B [NAME ...]

Each bench writes BENCH_<name>.json into its working directory. This script
loads the same-named record from both directories, drops the host wall-clock
fields (they move run to run), and requires what is left to be identical.
With no NAME it compares every BENCH_*.json in DIR_A; a NAME is a file name
(BENCH_zlog.json) that must exist in both. Exits 0 when every pair matches,
1 when any differs or is missing. Standard library only.
"""

import glob
import json
import os
import sys

# Fields derived from host time, not simulated time.
WALL = {
    "wall_seconds",
    "events_per_sec",
    "peak_rss_mb",
    # malscript_hotloop: per-iteration costs are wall-derived
    "vm_ns_per_iter",
    "oracle_ns_per_iter",
    "speedup",
}


def strip(obj):
    if isinstance(obj, dict):
        return {k: strip(v) for k, v in obj.items() if k not in WALL}
    if isinstance(obj, list):
        return [strip(x) for x in obj]
    return obj


def load(path):
    with open(path) as f:
        return strip(json.load(f))


def main(argv):
    if len(argv) < 3:
        print("usage: diff_sim.py DIR_A DIR_B [NAME ...]", file=sys.stderr)
        return 2
    dir_a, dir_b = argv[1], argv[2]
    names = argv[3:] or sorted(
        os.path.basename(p) for p in glob.glob(os.path.join(dir_a, "BENCH_*.json")))
    if not names:
        print(f"no BENCH_*.json in {dir_a}")
        return 1
    bad = False
    for name in names:
        path_a, path_b = os.path.join(dir_a, name), os.path.join(dir_b, name)
        if not (os.path.isfile(path_a) and os.path.isfile(path_b)):
            print(f"::error::{name} missing from {dir_a if not os.path.isfile(path_a) else dir_b}")
            bad = True
        elif load(path_a) != load(path_b):
            print(f"::error::{name} simulated results differ")
            bad = True
        else:
            print(f"{name}: byte-identical simulated results")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
