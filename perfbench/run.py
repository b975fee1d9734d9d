"""Benchmark entry point; see ``driver.py`` for what it measures and why.

Run from the root of a checkout::

    python3 perfbench/run.py --workload h2-codec-sweep --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is nonzero when
any output check failed or the checkout lacks the sources it measures.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {src}", file=sys.stderr)
        return 2
    # the checkout's sources, never an installed copy
    sys.path.insert(0, str(src))
    import driver

    return driver.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
