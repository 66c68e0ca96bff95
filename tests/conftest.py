"""Put the benchmark modules on the import path, and give every property
test the same examples on each run: derandomized, with no ``.hypothesis/``
example database and no deadline that a loaded machine could miss."""

import sys
from pathlib import Path

from hypothesis import settings

_BENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
if _BENCH not in sys.path:
    sys.path.insert(0, _BENCH)

settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")
