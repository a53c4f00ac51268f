#!/usr/bin/env python3
"""Drift check: the figures workload's cell list must equal, in order, the
RunKeys the eight simulating paper drivers print on stderr.

    drift_check.py --vltbench BIN --drivers-dir DIR DRIVER...

Each driver runs with one campaign thread and no result cache, so its
progress lines come out in spec order. If a driver changes its grid, this
check fails instead of the benchmark silently measuring a stale copy.
"""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

PROGRESS = re.compile(r"^\[\s*(\d+)/(\d+)\] (\S+)")


def driver_keys(exe):
    env = {k: v for k, v in os.environ.items() if k != "VLTSWEEP_CACHE"}
    env["VLTSWEEP_THREADS"] = "1"
    run = subprocess.run([str(exe)], env=env, capture_output=True, text=True,
                         timeout=300)
    if run.returncode != 0:
        sys.exit(f"{exe.name} exited {run.returncode}:\n{run.stderr}")
    return [m.group(3) for m in map(PROGRESS.match, run.stderr.splitlines())
            if m]


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--vltbench", required=True)
    p.add_argument("--drivers-dir", required=True, type=Path)
    p.add_argument("drivers", nargs="+")
    args = p.parse_args()

    expected = []
    for name in args.drivers:
        keys = driver_keys(args.drivers_dir / name)
        print(f"{name}: {len(keys)} cells")
        expected += keys
    listed = subprocess.run([args.vltbench, "--list", "figures"],
                            capture_output=True, text=True, check=True,
                            timeout=60).stdout.split()

    print(f"drivers: {len(expected)} cells, {len(set(expected))} distinct; "
          f"vltbench figures: {len(listed)} cells")
    if listed != expected:
        for i, (want, got) in enumerate(zip(expected, listed)):
            if want != got:
                print(f"first difference at cell {i}: driver {want}, "
                      f"vltbench {got}")
                break
        sys.exit("FAIL: vltbench's figures grid drifted from the drivers")
    print("OK")


if __name__ == "__main__":
    main()
