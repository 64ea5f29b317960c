import sys

import numpy as np
import pytest

import derlab.diagrams
import derlab.gorenstein

from derlab.algebra import clear_memos, dual_numbers
from derlab.field import Mat
from derlab.modules import Module, regular_module, zero_module


@pytest.fixture(autouse=True)
def cold_memos():
    """Every test starts from empty per-algebra memos, so what one test
    built is never a hit in the next, and counts of constructions measure
    the test's own calls."""
    clear_memos()


@pytest.fixture(scope="session")
def dn():
    """F_2[x]/(x^2) with its radical declared."""
    return dual_numbers(2)


@pytest.fixture(scope="session")
def simple(dn):
    """The simple module k: one-dimensional, x acts by zero."""
    return Module(dn, [Mat.identity(2, 1), Mat.zeros(2, 1, 1)]).validate()


@pytest.fixture(scope="session")
def reg(dn):
    """The regular module Lambda."""
    return regular_module(dn).validate()


@pytest.fixture(scope="session")
def zero(dn):
    return zero_module(dn)


def _refuse_library_calls(monkeypatch, fns, what):
    """Rebind every derlab module's name for one of fns to a function that
    raises AssertionError; test modules keep the originals they imported."""

    def refuse(*args, **kwargs):
        raise AssertionError(f"library code called {what}")

    for name, mod in list(sys.modules.items()):
        if name.startswith("derlab"):
            for attr, value in list(vars(mod).items()):
                if any(value is fn for fn in fns):
                    monkeypatch.setattr(mod, attr, refuse)


@pytest.fixture
def refuse_latching_colimit(monkeypatch):
    """Make a call of gorenstein.latching or diagrams.colimit_of_diagram
    from library code an AssertionError.  The recognition predicates decide
    by ranks without building L_j(X); tests keep latching as the oracle."""
    _refuse_library_calls(
        monkeypatch,
        [derlab.gorenstein.latching, derlab.diagrams.colimit_of_diagram],
        "a latching colimit",
    )
