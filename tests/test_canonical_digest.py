"""A byte-identity guard on canonical bases.

Covers, Gorenstein-projective covers and Gorenstein-injective hulls are
built in canonical coordinates: every basis comes from a leftmost-pivot
elimination and every block layout runs over `shape.objects` and sorted
hom-sets.  A speed-up may change how they are computed but not one entry,
so this test hashes every module action, structure map and conflation
leg those constructions return, and the Ext^1(x, x) representatives,
over a small seeded set of diagrams.  The SHA-256 was recorded before
free diagrams, greedy bases and small odd-p eliminations were rewritten.
A change that moves a canonical basis on purpose records a new digest
here and says why.
"""

import hashlib
import random

import numpy as np

from derlab.algebra import dual_numbers, group_algebra_c2
from derlab.cats import arrow_category, cospan_category, span_category, square_category
from derlab.diagrams import Diagram, DiagramConflation, DiagramMap, ext1, projective_cover_diagram
from derlab.gorenstein import approx_gproj, hull_ginj
from derlab.samples import random_diagram

RECORDED_SHA256 = "337b84df8042ab879d9e6c57de62b44a290e238318d1a124127f07be5692e198"


def _feed_array(h, a: np.ndarray) -> None:
    h.update(np.asarray(a.shape, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())


def _feed(h, obj) -> None:
    if isinstance(obj, DiagramConflation):
        _feed(h, obj.left)
        _feed(h, obj.right)
    elif isinstance(obj, DiagramMap):
        _feed(h, obj.src)
        _feed(h, obj.tgt)
        for o in obj.src.shape.objects:
            _feed_array(h, obj.comps[o].a)
    elif isinstance(obj, Diagram):
        for o in obj.shape.objects:
            for act in obj.at(o).action:
                _feed_array(h, act.a)
        for f in obj.shape.nonidentity_morphisms():
            _feed_array(h, obj.mats[f].a)
    else:
        raise TypeError(f"cannot hash {obj!r}")


def _samples():
    """Seeded functorial diagrams of dim <= 2 over four shapes and three
    algebras, two odd-p ones among them."""
    shapes = (arrow_category(), cospan_category(), span_category(), square_category())
    for alg in (dual_numbers(2), dual_numbers(3), group_algebra_c2(3)):
        rng = random.Random(alg.p * 1000 + alg.dim)
        for shape in shapes:
            for _ in range(4):
                yield random_diagram(shape, alg, 2, rng)


def canonical_digest() -> str:
    h = hashlib.sha256()
    for x in _samples():
        _feed(h, projective_cover_diagram(x))
        _feed(h, approx_gproj(x).conflation)
        _feed(h, hull_ginj(x).conflation)
        for rep in ext1(x, x).reps:
            _feed(h, rep)
    return h.hexdigest()


def test_covers_and_approximations_keep_their_canonical_bytes():
    assert canonical_digest() == RECORDED_SHA256
