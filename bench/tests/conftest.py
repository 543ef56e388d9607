"""Put ``bench/`` and ``src/`` on the path, as ``bench/run.py`` does."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
for entry in (BENCH, BENCH.parent / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
