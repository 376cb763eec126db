"""Benchmark-suite configuration.

Run with::

    pytest benchmarks/ --benchmark-only -s

``-s`` shows the reproduced figure tables inline; they are always also
written to ``benchmarks/results/``.  ``REPRO_BENCH_REDUCED=1`` reduces the scale
(see ``_shared.py``).
"""

import sys
from pathlib import Path

# make `import _shared` work regardless of how pytest sets sys.path
sys.path.insert(0, str(Path(__file__).resolve().parent))
