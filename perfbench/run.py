#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds perfbench/perfbench.exe
with dune (the shared dune cache off, so the build reads and writes only
inside the checkout), then runs it with the same arguments and exits
with its code. Build output goes to stderr; the benchmark's last stdout
line is its JSON result. See perfbench/METRICS.md.
"""

import os
import subprocess
import sys

TARGET = "perfbench/perfbench.exe"


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", TARGET],
            env=env,
            stdout=sys.stderr,
        )
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        return 3
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    exe = os.path.join("_build", "default", TARGET)
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
