"""Fixtures shared by the test modules."""

import math

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


@pytest.fixture
def screen_gcd():
    """G(f) = gcd(|Res(f', f'')|, |Res(f, f'')|), which a triple-root screen trial-divides."""

    def gcd_of(f):
        d1 = arith.poly_derivative(list(f))
        d2 = arith.poly_derivative(d1)
        return math.gcd(arith.resultant(d1, d2), arith.resultant(list(f), d2))

    return gcd_of
