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
A simulator adds a route of its own with :func:`register_routes`.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "AlertManager": ".alerts",
    "AlertRule": ".alerts",
    "BufferAnalyzer": ".bottleneck",
    "BufferRow": ".bottleneck",
    "RTMClient": ".client",
    "RTMClientError": ".client",
    "RTMConnectionError": ".client",
    "METRIC": ".export",
    "metric_target": ".export",
    "RecordedSeries": ".export",
    "SeriesRecorder": ".export",
    "HangDetector": ".hangdetect",
    "HangStatus": ".hangdetect",
    "BadRequest": ".http",
    "EventStream": ".http",
    "HTTPServerThread": ".http",
    "NotFound": ".http",
    "Response": ".http",
    "discover_buffers": ".inspector",
    "numeric_value": ".inspector",
    "resolve_path": ".inspector",
    "serialize_component": ".inspector",
    "serialize_value": ".inspector",
    "watchable_paths": ".inspector",
    "Monitor": ".monitor",
    "ProgressBar": ".progress",
    "ResourceMonitor": ".resources",
    "ResourceSample": ".resources",
    "register_routes": ".server",
    "RTMServer": ".server",
    "HISTORY": ".timeseries",
    "MAX_WATCHES": ".timeseries",
    "ValueMonitor": ".timeseries",
    "ValueWatch": ".timeseries",
    "Watchdog": ".watchdog",
    "WatchdogConfig": ".watchdog",
})
