"""Verification identities are decided on raw arrays (field.product_defect):
the checks build no Mat and multiply no Mats, and discrete punctured
slices form no T R product at all.  test_check_refusals.py shows that the
checks still refuse."""

import random

import numpy as np
import pytest

import derlab.gorenstein as gorenstein
from derlab.algebra import dual_numbers
from derlab.cats import arrow_category, cospan_category, span_category, square_category
from derlab.complexes import LazyComplex, complete_resolution
from derlab.diagrams import projective_cover_diagram
from derlab.field import Mat, product_defect
from derlab.gorenstein import is_gproj
from derlab.samples import random_diagram, random_gproj


@pytest.fixture(scope="module")
def f3():
    return dual_numbers(3)


@pytest.fixture(scope="module")
def seeded_square(f3):
    """A Gorenstein-projective square with every component nonzero."""
    x = random_gproj(square_category(), f3, 2, random.Random(0))
    assert all(x.at(o).dim for o in x.shape.objects)
    return x


def _count_mats(monkeypatch):
    """Count every Mat built (checked or trusted) and every Mat product."""
    counts = {"Mat": 0, "_of": 0, "@": 0}

    def counting(key, original):
        def wrapped(*args):
            counts[key] += 1
            return original(*args)

        return wrapped

    monkeypatch.setattr(Mat, "__init__", counting("Mat", Mat.__init__))
    monkeypatch.setattr(Mat, "_of", staticmethod(counting("_of", Mat._of)))
    monkeypatch.setattr(Mat, "__matmul__", counting("@", Mat.__matmul__))
    return counts


# -- no intermediate Mats ------------------------------------------------------


def test_product_defect_counts_the_entries_that_break_the_identity():
    a = np.array([[1, 2], [0, 1]])
    b = np.array([[2, 0], [1, 1]])
    assert product_defect(3, (a, b), c=(a @ b) % 3) == 0
    assert product_defect(3, (a, b), c=(a @ b) % 3 + 3) == 0  # read mod p
    assert product_defect(3, (a, b), (-a, b)) == 0
    # a b = [[4, 2], [1, 1]] differs from the identity mod 3 at (0, 1) and (1, 0)
    assert product_defect(3, (a, b), c=np.identity(2, dtype=np.int64)) == 2
    assert product_defect(3, (np.zeros((2, 0), dtype=np.int64), np.zeros((0, 3), dtype=np.int64))) == 0
    # a stack gets one count per matrix, in its own layout
    stack = np.array([[a, b], [b, a]])
    assert product_defect(3, (stack, a), c=a @ a).tolist() == [[0, 3], [3, 0]]


def test_checks_on_a_seeded_square_build_no_mat(seeded_square, monkeypatch):
    x = seeded_square
    confl = projective_cover_diagram(x)
    maps = [confl.right.at(o) for o in x.shape.objects] + [confl.left.at(o) for o in x.shape.objects]
    counts = _count_mats(monkeypatch)
    for f in maps:
        f.validate()
    confl.left.validate()
    confl.right.validate()
    x.validate()
    confl.middle.validate()
    confl.validate()
    assert counts == {"Mat": 0, "_of": 0, "@": 0}


def test_the_d_squared_check_builds_no_mat(seeded_square, monkeypatch):
    c = complete_resolution(seeded_square)
    comps = {n: c.diff(n).comps for n in (-1, 0, 1)}
    # the same terms and differentials, handed out without building anything
    fresh = LazyComplex(c.shape, c.alg, c.term, lambda n: comps[n])
    calls = []
    monkeypatch.setattr("derlab.complexes.product_defect", lambda *a, **k: calls.append(1) or product_defect(*a, **k))
    counts = _count_mats(monkeypatch)
    for n in (0, -1, 1):
        fresh.diff(n)
    assert counts == {"Mat": 0, "_of": 0, "@": 0}
    assert len(calls) == 2 * len(c.shape.objects)  # d^0 d^-1 and d^1 d^0 at every object


@pytest.mark.parametrize("shape", [arrow_category(), cospan_category(), span_category()], ids=["arrow", "cospan", "span"])
def test_discrete_slices_form_no_t_r_product(f3, shape, monkeypatch):
    rng = random.Random(4)
    diagrams = [random_diagram(shape, f3, 2, rng) for _ in range(6)]
    formed = []
    monkeypatch.setattr(gorenstein, "product_defect", lambda *a, **k: formed.append(a) or product_defect(*a, **k))
    monkeypatch.setattr(gorenstein, "block", lambda *a: formed.append(a))
    counts = _count_mats(monkeypatch)
    for x in diagrams:
        is_gproj(x)
    assert formed == [] and counts["@"] == 0


def test_the_square_corner_still_checks_t_r(seeded_square, monkeypatch):
    formed = []
    monkeypatch.setattr(gorenstein, "product_defect", lambda *a, **k: formed.append(a) or product_defect(*a, **k))
    assert is_gproj(seeded_square)
    assert len(formed) == 1  # at (1,1), the one object whose punctured slice has morphisms
