"""The tiny traced run behind ``tests/trace/data/fir256.jsonl``.

Message and task ids come from process-wide counters, so the run is
only reproducible byte for byte in a fresh interpreter:
``test_format_on_read.py`` runs this file as a script and compares its
stdout with the committed export.  The data file was written by this
same script at the commit *before* trace records became format-on-read
(``PYTHONPATH=src python tests/trace/golden.py ring``; the ``sqlite``
export was the same 1600 lines byte for byte, so one file serves both),
so equality proves the lazily produced events are the eagerly produced
ones.
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
