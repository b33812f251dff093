"""Script entry of the suite: ``python3 benchmarks/suite/run.py``.

Puts the repo root and ``src/`` on ``sys.path`` so the suite runs from
a plain checkout with nothing installed, then hands over to
:mod:`benchmarks.suite.cli`.  In a directory without ``src/repro``
there is no program to measure and the command fails.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

if __name__ == "__main__":
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit(f"{ROOT}/src/repro not found: nothing to benchmark")
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from benchmarks.suite.cli import main

    sys.exit(main())
