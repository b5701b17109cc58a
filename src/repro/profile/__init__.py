"""`repro.profile` — the one sampling profiler and the overhead
attribution built on it.

The only thing it takes from below is the thread-role registry
:mod:`repro.akita.threads` (``Engine.run`` claims the ``simulation``
role there; ``register_current_thread`` is re-exported here for code
that runs the simulation on a thread of its own); of
``repro.core`` it imports only the route contract
(:mod:`repro.core.http`) its ``/api/profile*`` routes answer by.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "register_current_thread": "..akita.threads",
    "attribution_report": ".attribution",
    "classify_frame": ".attribution",
    "classify_path": ".attribution",
    "classify_stack": ".attribution",
    "diff_summaries": ".attribution",
    "IDLE_LEAVES": ".attribution",
    "LAYERS": ".attribution",
    "make_summary": ".attribution",
    "merge_summaries": ".attribution",
    "PATH_RULES": ".attribution",
    "summary_stack_map": ".attribution",
    "ContinuousProfiler": ".continuous",
    "ProfileWindow": ".continuous",
    "collapsed_stacks": ".export",
    "frame_label": ".export",
    "speedscope_document": ".export",
    "SPEEDSCOPE_SCHEMA": ".export",
})
