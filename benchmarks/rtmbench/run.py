"""Entry point for ``BENCHMARK.json``'s command, which may name only
this directory: ``python3 benchmarks/rtmbench/run.py --workload W
--seed N --seconds S --trace 0|1``.  Same program as
``python -m benchmarks.rtmbench``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.rtmbench.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
