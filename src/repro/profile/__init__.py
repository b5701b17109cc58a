"""`repro.profile` — the one sampling profiler and the overhead
attribution built on it.

The only thing it takes from below is the thread-role registry
:mod:`repro.akita.threads` (``Engine.run`` claims the ``simulation``
role there), re-exported here; nothing in this package imports
``repro.core``.
"""

from ..akita.threads import (register_current_thread, role_of,
                             sim_thread_id, thread_roles,
                             unregister_thread)
from .attribution import (IDLE_LEAVES, LAYERS, PATH_RULES,
                          attribution_report, classify_frame,
                          classify_path, classify_stack, diff_summaries,
                          make_summary, merge_summaries,
                          summary_stack_map)
from .continuous import ContinuousProfiler, ProfileWindow
from .export import (SPEEDSCOPE_SCHEMA, collapsed_stacks, frame_label,
                     speedscope_document)

__all__ = [
    "IDLE_LEAVES",
    "LAYERS",
    "PATH_RULES",
    "SPEEDSCOPE_SCHEMA",
    "ContinuousProfiler",
    "ProfileWindow",
    "attribution_report",
    "classify_frame",
    "classify_path",
    "classify_stack",
    "collapsed_stacks",
    "diff_summaries",
    "frame_label",
    "make_summary",
    "merge_summaries",
    "register_current_thread",
    "role_of",
    "sim_thread_id",
    "speedscope_document",
    "summary_stack_map",
    "thread_roles",
    "unregister_thread",
]
