"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def short_switch_interval():
    """Switch threads as often as the interpreter allows, so that main and
    worker threads interleave at every bytecode boundary they can."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)
