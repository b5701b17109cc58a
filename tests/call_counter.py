"""What the interpreter does, counted instead of timed.

Wall time on a shared runner moves by a factor of two between minutes;
the number of function calls the interpreter makes for the same work
does not move at all.  :func:`count_calls` is the one counter the
host-independent gates use (``tests/akita/test_hot_path_budget.py``,
``tests/fleet/test_job_fixed_cost.py``): every Python frame and every C
call, what ``cProfile`` reports as ``total_calls``.
"""

import gc
import sys


def count_calls(fn):
    """``(Python frames, C calls, fn())`` — what the current thread's
    interpreter does inside ``fn()``."""
    frames = c_calls = 0

    def count(frame, kind, arg):
        nonlocal frames, c_calls
        if kind == "call":
            frames += 1
        elif kind == "c_call":
            c_calls += 1

    # A cyclic collection landing inside would finalize other tests'
    # garbage (suspended wavefront generators, among others) on this
    # thread, under this profile function.
    gc.collect()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = fn()
    finally:
        sys.setprofile(previous)
        gc.enable()
    return frames, c_calls, result
