"""``repro.core`` — AkitaRTM: real-time monitoring for computer
architecture simulations (the paper's primary contribution).

Typical usage::

    from repro.core import Monitor
    from repro.gpu import GPUPlatform

    platform = GPUPlatform()
    monitor = Monitor(platform.simulation)   # registers engine+components
    monitor.attach_driver(platform.driver)   # default progress bars
    url = monitor.start_server()             # open in a browser
    monitor.start_sampler()                  # feed time charts / hang det.
    platform.run(hang_wait=3600)             # debuggable if it hangs

The twelve-function plugin API lives on :class:`Monitor`; the HTTP API
(`/api/...`) is served by :class:`RTMServer` and consumed by the
dashboard under ``static/`` or programmatically via :class:`RTMClient`.
"""

from .alerts import AlertManager, AlertRule
from .bottleneck import BufferAnalyzer, BufferRow
from .client import RTMClient, RTMClientError, RTMConnectionError
from .export import (
    METRIC,
    RecordedSeries,
    SeriesRecorder,
    export_watches_csv,
    load_recorded_series,
    metric_target,
)
from .hangdetect import HangDetector, HangStatus
from .inspector import (
    discover_buffers,
    numeric_value,
    resolve_path,
    serialize_component,
    serialize_value,
    watchable_paths,
)
from .monitor import Monitor
from .progress import ProgressBar
from .resources import ResourceMonitor, ResourceSample
from .server import BadRequest, HTTPServerThread, JSONRequestHandler, RTMServer
from .timeseries import HISTORY, MAX_WATCHES, ValueMonitor, ValueWatch
from .watchdog import Watchdog, WatchdogConfig

__all__ = [
    "AlertManager",
    "AlertRule",
    "BadRequest",
    "BufferAnalyzer",
    "BufferRow",
    "HangDetector",
    "HangStatus",
    "HISTORY",
    "HTTPServerThread",
    "JSONRequestHandler",
    "MAX_WATCHES",
    "METRIC",
    "Monitor",
    "ProgressBar",
    "RecordedSeries",
    "SeriesRecorder",
    "ResourceMonitor",
    "ResourceSample",
    "RTMClient",
    "RTMClientError",
    "RTMConnectionError",
    "RTMServer",
    "ValueMonitor",
    "ValueWatch",
    "Watchdog",
    "WatchdogConfig",
    "discover_buffers",
    "export_watches_csv",
    "load_recorded_series",
    "metric_target",
    "numeric_value",
    "resolve_path",
    "serialize_component",
    "serialize_value",
    "watchable_paths",
]
