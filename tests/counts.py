"""The repo's host-independent counts, as one document.

``PYTHONPATH=src python -m tests.counts`` prints ``{"schema": 1,
"python": "<major.minor>", "counts": {...}}``: every count the tier-1
gates measure, under flat ``<what>@<where>`` names, as sorted JSON that
is the same byte for byte on every run.  Each gate module exposes
``measure()`` and its assertions read that function, so the number a
gate holds and the number a change reports come from one computation.

``PYTHONPATH=src python -m tests.counts BENCH_<n>.json`` compares with
a committed document instead: one ``name  before  after`` row per count
that differs.  When the running Python's ``major.minor`` is the
document's it exits 1 on any difference (calls per event differ between
interpreter versions, so on another version it only prints the rows).
"""

import json
import sys
from pathlib import Path

from tests import (test_import_footprint, test_layering, test_surface,
                   test_threads)
from tests.akita import test_event_order_golden, test_hot_path_budget
from tests.core import test_request_path, test_route_walk
from tests.fleet import test_job_fixed_cost

SCHEMA = 1

#: The modules whose ``measure()`` the document merges.
GATES = (test_hot_path_budget, test_event_order_golden, test_job_fixed_cost,
         test_request_path, test_import_footprint, test_threads,
         test_route_walk, test_surface, test_layering)


def document():
    counts = {}
    for gate in GATES:
        counts.update(gate.measure())
    return {"schema": SCHEMA, "python": "%d.%d" % sys.version_info[:2],
            "counts": counts}


def main(argv):
    if len(argv) > 1:
        print("usage: python -m tests.counts [BENCH_<n>.json]",
              file=sys.stderr)
        return 2
    doc = document()
    if not argv:
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return 0
    previous = json.loads(Path(argv[0]).read_text())
    old, new = previous["counts"], doc["counts"]
    moved = [name for name in sorted(old.keys() | new.keys())
             if old.get(name) != new.get(name)]
    for name in moved:
        print(f"{name:64s} {json.dumps(old.get(name)):>20s} "
              f"{json.dumps(new.get(name)):>20s}")
    return int(bool(moved) and previous["python"] == doc["python"])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
