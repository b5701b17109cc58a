"""Fixtures shared by the akita concurrency tests."""

import sys

import pytest


@pytest.fixture
def eager_thread_switches():
    """Hand the interpreter over every microsecond, not every 5 ms, so
    two threads meet inside each other's read-then-act windows."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(old)
