import sys

import numpy as np
import pytest

import derlab.complexes

from derlab.algebra import dual_numbers
from derlab.field import Mat
from derlab.modules import Module, regular_module, zero_module


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


@pytest.fixture
def refuse_joint_solve(monkeypatch):
    """Make a call of complexes.contraction_on_window from library code an
    AssertionError.  The library decides contractibility without that joint
    solve; tests keep it as an oracle under the name they imported."""
    solve = derlab.complexes.contraction_on_window

    def refuse(c, lo, hi):
        raise AssertionError("library code called the contraction solve")

    for name, mod in list(sys.modules.items()):
        if name.startswith("derlab") and getattr(mod, "contraction_on_window", None) is solve:
            monkeypatch.setattr(mod, "contraction_on_window", refuse)
