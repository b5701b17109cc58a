"""Atomic writes: the complete new file, or the old one, and nothing
left behind — with temp files the module names itself (no ``tempfile``:
see ``tests/test_import_footprint.py``)."""

import os
import threading

import pytest

from repro.core import atomicio


def test_write_replaces_the_file_and_leaves_nothing_behind(tmp_path):
    target = tmp_path / "report.json"
    atomicio.atomic_write_json(target, {"a": 1})
    atomicio.atomic_write_text(str(target), "second")
    assert target.read_text() == "second"
    assert os.listdir(tmp_path) == ["report.json"]
    assert (target.stat().st_mode & 0o777) == 0o600  # as mkstemp made it


def test_a_failed_write_keeps_the_old_file_and_removes_its_temp(
        tmp_path, monkeypatch):
    target = tmp_path / "report.txt"
    target.write_text("old")

    def torn(fd):
        raise OSError("disk full")

    monkeypatch.setattr(atomicio.os, "fsync", torn)
    with pytest.raises(OSError, match="disk full"):
        atomicio.atomic_write_text(target, "new")
    assert target.read_text() == "old"
    assert os.listdir(tmp_path) == ["report.txt"]


def test_a_leftover_of_the_same_name_is_stepped_over(tmp_path,
                                                     monkeypatch):
    target = tmp_path / "report.txt"
    ticks = iter([7, 8, 9])
    monkeypatch.setattr(atomicio.time, "monotonic_ns", lambda: next(ticks))
    leftover = (f"{target}.{os.getpid()}.{threading.get_ident()}.7.tmp")
    with open(leftover, "w") as fh:
        fh.write("a crashed writer's")
    atomicio.atomic_write_text(target, "new")
    assert target.read_text() == "new"
    with open(leftover) as fh:
        assert fh.read() == "a crashed writer's"
    assert next(ticks) == 9  # 7 collided, the retry took 8
