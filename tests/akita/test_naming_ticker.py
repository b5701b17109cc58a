"""Tests for naming utilities and cycle arithmetic."""

import pytest
from hypothesis import given, strategies as st

from repro.akita import naming, next_tick, period, this_tick, cycles_to_seconds


# ---------------------------------------------------------------- naming
def test_indexed():
    assert naming.indexed("SA", 3) == "SA[3]"
    assert naming.indexed("X", 1, 2) == "X[1][2]"
    assert naming.indexed("Plain") == "Plain"


def test_join():
    assert naming.join("GPU[0]", "SA[1]", "CU[2]") == "GPU[0].SA[1].CU[2]"
    assert naming.join("", "A", "") == "A"


def test_validate_accepts_paper_style_names():
    naming.validate("GPU[1].SA[15].L1VROB[0].TopPort")
    naming.validate("Driver")


@pytest.mark.parametrize("bad", ["", "1abc", "a b", "a.[3]", "a..b", "x[-1]"])
def test_validate_rejects_bad_names(bad):
    with pytest.raises(ValueError):
        naming.validate(bad)


def test_split_indexed():
    assert naming.split_indexed("SA[3]") == ("SA", [3])
    assert naming.split_indexed("Driver") == ("Driver", [])


def test_parent():
    assert naming.parent("A.B.C") == "A.B"
    assert naming.parent("A") == ""


# ---------------------------------------------------------------- ticker
def test_period():
    assert period(1e9) == 1e-9


def test_next_tick_from_zero():
    assert next_tick(0.0, 1e9) == pytest.approx(1e-9)


def test_next_tick_from_boundary_advances():
    t = next_tick(5e-9, 1e9)
    assert t == pytest.approx(6e-9)


def test_next_tick_mid_cycle():
    t = next_tick(5.4e-9, 1e9)
    assert t == pytest.approx(6e-9)


def test_this_tick():
    assert this_tick(5e-9, 1e9) == pytest.approx(5e-9)
    assert this_tick(5.2e-9, 1e9) == pytest.approx(6e-9)


def test_cycles_to_seconds():
    assert cycles_to_seconds(1000, 1e9) == pytest.approx(1e-6)


@given(st.integers(min_value=0, max_value=10_000_000),
       st.sampled_from([1e9, 0.5e9, 2e9, 1.4e9]))
def test_next_tick_is_strictly_increasing_along_grid(cycle, freq):
    """Repeated next_tick from a grid point walks one cycle at a time."""
    now = cycle / freq
    nxt = next_tick(now, freq)
    assert nxt > now
    assert nxt == pytest.approx((cycle + 1) / freq)
