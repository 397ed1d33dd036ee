"""Fixtures shared by the test modules."""

import pytest

from kickedrotor import specfun as sf


@pytest.fixture
def proxies(monkeypatch):
    # the coefficient arrays (or None, the direct path) that the cusp
    # evaluators get from specfun._p1_chebyshev, one per call
    seen = []
    chebyshev = sf._p1_chebyshev

    def spy(*args):
        seen.append(chebyshev(*args))
        return seen[-1]

    monkeypatch.setattr(sf, "_p1_chebyshev", spy)
    return seen
