"""ext1 takes the image of Hom(P, y) in Hom(K, y) from the adjunction
Hom(j_!(M), y) = Hom(M, y_j) over the cover K >-> P ->> x, and never
solves for Hom(P, y).

The oracle (tests/oracles.py) solves for Hom(P, y) as a kernel and
composes with the inclusion.  Both must give the same dimension, the same
bytes of the image's canonical basis and the same class representatives,
on exhaustive prefixes of the arrow, cospan and span and on seeded
squares, at p = 2 and 3.
"""

import itertools
import random

import numpy as np
import pytest

import derlab.diagrams as diagrams
from derlab.algebra import dual_numbers
from derlab.cats import arrow_category, cospan_category, span_category, square_category
from derlab.diagrams import DiagramError, ext1, stalk_diagram, zero_diagram
from derlab.field import Mat, column_space_basis
from derlab.modules import generator_legs, regular_module
from derlab.samples import all_diagrams, random_diagram
from oracles import ext1_by_kernel

PREFIX = 30
SQUARES = 6


def _cases():
    """(label, x, y): x from an exhaustive prefix or a seeded square, y
    each stalk of Lambda, x itself, a second random diagram and zero."""
    out = []
    for p in (2, 3):
        alg = dual_numbers(p)
        reg = regular_module(alg)
        rng = random.Random(p)
        xs = [(shape, x) for shape in (arrow_category(), cospan_category(), span_category()) for x in itertools.islice(all_diagrams(shape, alg, 2), PREFIX)]
        xs += [(square_category(), random_diagram(square_category(), alg, 2, rng)) for _ in range(SQUARES)]
        for n, (shape, x) in enumerate(xs):
            ys = [stalk_diagram(shape, alg, j, reg) for j in shape.objects]
            ys += [x, random_diagram(shape, alg, 2, rng), zero_diagram(shape, alg)]
            out.extend((f"p{p}/{n}/{k}", x, y) for k, y in enumerate(ys))
    return out


CASES = _cases()


def _image(x, y) -> Mat:
    """The canonical basis of the image of Hom(P, y), by the adjunction."""
    slots = {j: len(generator_legs(x.at(j))) for j in x.shape.objects}
    return column_space_basis(Mat._of(x.alg.p, diagrams._free_image(diagrams.projective_cover_diagram(x), slots, y).T))


def _rep_bytes(reps):
    return [[(c.a.shape, c.a.tobytes()) for _, c in sorted(r.comps.items())] for r in reps]


def _mismatches():
    """Labels of the cases where ext1 and the kernel oracle disagree."""
    bad = []
    for label, x, y in CASES:
        got = ext1(x, y)
        dim, sub, reps = ext1_by_kernel(x, y)
        # the oracle's image has no rows iff Hom(K, y) = 0, where ext1 stops
        image = _image(x, y)
        same_image = sub.rows == 0 or (image.a.shape, image.a.tobytes()) == (sub.a.shape, sub.a.tobytes())
        if got.dim != dim or not same_image or _rep_bytes(got.reps) != _rep_bytes(reps):
            bad.append(label)
    return bad


def test_the_adjunction_gives_the_kernel_routes_bytes():
    dims = [ext1(x, y).dim for _, x, y in CASES]
    assert len(CASES) > 500
    assert 0 < sum(d > 0 for d in dims) < len(dims)  # Ext^1 = 0 and != 0 both occur
    assert _mismatches() == []


def test_a_dropped_generator_slot_is_caught(monkeypatch):
    original = diagrams._free_image

    def drop_first_slot(cover, slots, y):
        rows = original(cover, slots, y)
        for j in y.shape.objects:
            if slots[j] * y.at(j).dim:
                return np.delete(rows, range(y.at(j).dim), axis=0)  # slot 0 of the first part with rows
        return rows

    monkeypatch.setattr(diagrams, "_free_image", drop_first_slot)
    assert _mismatches()


def test_ext1_never_asks_for_hom_out_of_the_cover(monkeypatch):
    asked = []

    def recording(x, y, _original=diagrams.hom_space_diagrams):
        asked.append(x)
        return _original(x, y)

    monkeypatch.setattr(diagrams, "hom_space_diagrams", recording)
    for _, x, y in CASES[::7]:
        cover = ext1(x, y).cover
        assert asked[-1] is cover.sub
        assert all(a is not cover.middle for a in asked)


def test_a_y_over_another_shape_or_algebra_is_refused():
    alg = dual_numbers(3)
    reg = regular_module(alg)
    x = next(x for x in all_diagrams(arrow_category(), alg, 2) if x.total_dim())
    other = dual_numbers(3)
    assert other is not alg
    for y in (stalk_diagram(cospan_category(), alg, "0", reg), stalk_diagram(arrow_category(), other, "0", regular_module(other))):
        with pytest.raises(DiagramError):
            ext1(x, y)
