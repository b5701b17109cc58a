"""The tiny traced run behind ``tests/trace/data/fir256.jsonl``.

Message ids are numbered by the simulation's own engine, so the run is
reproducible byte for byte in any process, after any other simulation:
``test_format_on_read.py`` calls :func:`traced_fir_jsonl` in-process and
compares it with the committed export.  The data file is this script's
output (``PYTHONPATH=src python tests/trace/golden.py ring``; the
``sqlite`` export is the same 1600 lines byte for byte, so one file
serves both).  It was first written at the commit *before* trace
records became format-on-read; it has since been re-pinned only when
the numbering of ids changed, each time checked to differ from the
previous file by one order-preserving renumbering of the ids alone, so
equality still proves the lazily produced events are the eagerly
produced ones.
"""

import json
import sys
import tempfile
from pathlib import Path

from repro.gpu import GPUPlatform, GPUPlatformConfig
from repro.trace import RingStore, SQLiteStore, Tracer
from repro.workloads import FIR


def traced_fir_jsonl(backend: str) -> str:
    """JSONL export of FIR (256 samples, 2 chiplets) traced into
    *backend* (``ring`` or ``sqlite``)."""
    platform = GPUPlatform(GPUPlatformConfig.small(num_chiplets=2))
    FIR(num_samples=256).enqueue(platform.driver)
    with tempfile.TemporaryDirectory() as tmp:
        store = RingStore(200_000) if backend == "ring" \
            else SQLiteStore(str(Path(tmp) / "trace.db"))
        tracer = Tracer(platform.simulation, store)
        tracer.start()
        assert platform.run()
        tracer.stop()
        lines = [json.dumps(ev.to_dict()) + "\n"
                 for ev in tracer.query(limit=0)]
        tracer.close()
    return "".join(lines)


if __name__ == "__main__":
    sys.stdout.write(traced_fir_jsonl(sys.argv[1]))
