"""rtmbench — the repo's one benchmark: six named workloads, end-to-end
and per-layer metrics, one command.  See README.md beside this file and
``BENCHMARK.json`` at the repo root."""
