"""``PYTHONPATH=src python -m benchmarks.suite`` -- same as ``run.py``."""

import sys

from .cli import main

sys.exit(main())
