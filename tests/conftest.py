"""Shared fixtures: the elaborated CPU is expensive, build it once."""

import pytest

from repro.core import activity
from repro.cpu import build_ulp430


@pytest.fixture(scope="session")
def cpu():
    return build_ulp430()


@pytest.fixture
def explore_lanes(monkeypatch):
    """Set the exploration width of both engines for one test: the width
    is a per-engine constant, not an option of ``explore``."""

    def set_lanes(width: int) -> None:
        monkeypatch.setattr(activity, "DEFAULT_BATCH_SIZE", width)
        monkeypatch.setattr(activity, "NATIVE_DEFAULT_BATCH_SIZE", width)

    return set_lanes
