"""``PYTHONPATH=src python -m benchmarks.spine`` — see ``run.py``."""

import sys

from .run import main

sys.exit(main())
