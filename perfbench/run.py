"""Run one benchmark workload from the root of a checkout.

    python3 perfbench/run.py --workload {corpus-wp,dlx,farm-sparse} \\
        --seed N --seconds S --trace {0,1}

The library is imported from ``src/`` next to this directory; without
it the benchmark exits with status 2 and prints no result.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main() -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no library source under {SRC}; run from the "
              f"root of a full checkout", file=sys.stderr)
        return 2
    # Work from the checkout root with relative paths only, so nothing
    # the run keeps in memory depends on where the checkout lives.
    os.chdir(ROOT)
    sys.path[:0] = ["src", "."]
    # Every library module is imported here, before any timing.
    from perfbench import bench

    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
