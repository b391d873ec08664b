#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Run from the repository root; every argument goes to perfbench/main.exe:

    python3 perfbench/run.py --workload fig9-groupsafe --seed 1 --seconds 20 --trace 0

The build uses dune with its shared cache disabled, so nothing is written
outside the checkout. Exits with the build's status if the build fails,
else with the benchmark's.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    build = subprocess.run(["dune", "build", "--root", root, "--display", "quiet",
                            "--cache=disabled", "perfbench/main.exe"])
    if build.returncode != 0:
        return build.returncode
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
