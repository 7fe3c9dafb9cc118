"""Fixtures shared by the test modules."""

import pytest

from gspmax import arith, construct, inertia, verify


@pytest.fixture
def resultant_calls(monkeypatch):
    """Record the (len(a), len(b)) of every resultant that gspmax computes."""
    calls = []

    def counted(a, b):
        calls.append((len(a), len(b)))
        return arith.resultant(a, b)

    for module in (verify, construct, inertia):
        monkeypatch.setattr(module, "resultant", counted)
    return calls
