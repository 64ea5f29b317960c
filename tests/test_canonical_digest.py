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

The second digest guards the dg-model route the same way: restriction
weights, their minimal resolutions, the homotopy Kan extensions' terms,
structure maps and differentials, and der4_check's details.  It moved
when minimal resolutions replaced the bar construction: the Kan
complexes shrink, and tests/test_dgkan.py checks that their cohomology
did not change.

The third digest guards the slice-colimit layer: every punctured slice of
four shapes, latching and matching data, embeddings into projectives,
pushout-inductive colimits and the four Kan extension routes.  It was
recorded before both left Kan routes were put through one slice loop.
"""

import hashlib
import itertools
import random

import numpy as np

from derlab.algebra import dual_numbers, group_algebra_c2
from derlab.cats import (
    CatFunctor,
    DirectCategory,
    arrow_category,
    cospan_category,
    identity_functor,
    object_functor,
    opposite_category,
    punctured_slice,
    span_category,
    square_category,
    terminal_category,
)
from derlab.complexes import LazyComplex, complete_resolution
from derlab.dgkan import der4_check, ho_left_kan, ho_right_kan, minimal_resolution, restriction_weight, restriction_weight_right
from derlab.diagrams import (
    Diagram,
    DiagramConflation,
    DiagramMap,
    constant_diagram,
    dual_diagram,
    ext1,
    pointwise_left_kan,
    pointwise_right_kan,
    projective_cover_diagram,
)
from derlab.gorenstein import (
    approx_gproj,
    colim_gproj,
    embed_gproj_into_proj,
    ginj_right_kan,
    gproj_left_kan_data,
    hull_ginj,
    latching,
    matching,
)
from derlab.homotopy import _corner_in_square
from derlab.modules import regular_module
from derlab.samples import random_diagram, random_gproj

RECORDED_SHA256 = "337b84df8042ab879d9e6c57de62b44a290e238318d1a124127f07be5692e198"
RECORDED_DGKAN_SHA256 = "5e9ebb15a63ce3d2967fcb2bf59e435c009e783c59af2aadb79a87ffb57ffe62"
RECORDED_SLICE_COLIMIT_SHA256 = "f54dff432bcf04f4450ec615c241237fbd1ce4c05c96a04cf869948288d3d491"


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


def _feed_weight(h, w) -> None:
    _feed_array(h, np.array([w.at(o).dim for o in w.shape.objects]))
    for f in w.shape.nonidentity_morphisms():
        _feed_array(h, w.mat(f).a)


def _feed_resolution(h, cx) -> None:
    for q in cx.degrees():
        # one (obj, key, coefficient labels) per summand, a run of blocks
        runs = itertools.groupby((b for b in cx.blocks if b[0] == q), key=lambda b: (b[1], b[2][1]))
        h.update(repr([(obj, key, [label[2] for _, _, label in run]) for (obj, key), run in runs]).encode())
        for a in cx.cat.objects:
            if q < 0:
                _feed_array(h, cx.diff_matrix_at(q, a).a)
    for a in cx.cat.objects:
        _feed_array(h, cx.aug[a].a)


def _feed_complex(h, c, lo: int, hi: int) -> None:
    for n in range(lo, hi + 1):
        _feed(h, c.term(n))
        for o in c.shape.objects:
            _feed_array(h, c.diff(n).comps[o].a)


def dgkan_digest() -> str:
    """Along the identity, the map to the point, every object functor and
    (on the square) the corner inclusion, over p = 2, 3: the complete
    resolution of a seeded Gorenstein projective where the functor's domain
    is the shape, the stalk of the regular module otherwise.  The last
    shape has two arrows j -> B, so a weight's structure maps move blocks
    to another index of a hom-set."""
    h = hashlib.sha256()
    parallel = DirectCategory(["j", "A", "B"], {"f": ("j", "A"), "g": ("A", "B"), "a": ("j", "B"), "gf": ("j", "B")}, {("g", "f"): "gf"})
    shapes = ((arrow_category(), []), (cospan_category(), []), (square_category(), [_corner_in_square()]), (parallel, []))
    for p in (2, 3):
        alg = dual_numbers(p)
        rng = random.Random(p)
        for shape, more in shapes:
            x = complete_resolution(random_gproj(shape, alg, 2, rng))
            to_point = CatFunctor(shape, terminal_category(), {o: "*" for o in shape.objects}, {f: "1_*" for f in shape.morphisms})
            for u in [identity_functor(shape), to_point] + [object_functor(shape, o) for o in shape.objects] + more:
                for j in u.cod.objects:
                    for w in (restriction_weight(u, j, p), restriction_weight_right(u, j, p)):
                        _feed_weight(h, w)
                        _feed_resolution(h, minimal_resolution(w))
                t = x if u.dom is shape else LazyComplex.bounded(u.dom, alg, {0: constant_diagram(u.dom, alg, regular_module(alg))}, {})
                _feed_complex(h, ho_left_kan(u, t), -1, 1)
                _feed_complex(h, ho_right_kan(u, t), -1, 1)
                for j in u.cod.objects:
                    rep = der4_check(u, j, t, -1, 1)
                    h.update(repr((rep.underived_ok, rep.derived_ok, rep.window, sorted(rep.details.items()))).encode())
    return h.hexdigest()


def test_dg_model_kan_extensions_keep_their_canonical_bytes():
    assert dgkan_digest() == RECORDED_DGKAN_SHA256


def _feed_module(h, m) -> None:
    _feed_array(h, np.array([m.dim]))
    for act in m.action:
        _feed_array(h, act.a)


def _feed_slice(h, pres) -> None:
    """The slice category with its dict orders, its projection and pairs."""
    cat, proj = pres.cat, pres.projection
    parts = (cat.objects, cat.morphisms, cat.comp, cat.identities, proj.obj_map, proj.mor_map, pres.pairs)
    h.update(repr([list(x.items()) if isinstance(x, dict) else x for x in parts] + [pres.side, pres.index_object]).encode())


def slice_colimit_digest() -> str:
    """Every punctured slice of the arrow, cospan, span and square, then,
    over p = 2, 3 and F_2C_2, seeded Gorenstein projectives x and
    Gorenstein injectives y (duals of Gorenstein projectives over the
    opposite shape and algebra): latching data of x with their cocones,
    matching data of y, x's embedding into a projective and its
    pushout-inductive colimit, and along the identity and the map to the
    point the Gorenstein left Kan extension with its unit, both pointwise
    Kan extensions and the Gorenstein right Kan extension."""
    h = hashlib.sha256()
    shapes = (arrow_category(), cospan_category(), span_category(), square_category())
    for shape in shapes:
        for j in shape.objects:
            for side in ("under", "over"):
                _feed_slice(h, punctured_slice(shape, j, side))
    for alg in (dual_numbers(2), dual_numbers(3), group_algebra_c2(2)):
        for shape in shapes:
            to_point = CatFunctor(shape, terminal_category(), {o: "*" for o in shape.objects}, {f: "1_*" for f in shape.morphisms})
            for seed in range(5):
                x = random_gproj(shape, alg, 2, random.Random(seed))
                y = dual_diagram(random_gproj(opposite_category(shape), alg.opposite(), 2, random.Random(seed)))
                for j in shape.objects:
                    lat, mat = latching(x, j), matching(y, j)
                    for m in (lat.module, mat.module):
                        _feed_module(h, m)
                    for leg in [lat.map, mat.map] + [lat.cocone[o] for o in lat.pres.cat.objects]:
                        _feed_array(h, leg.mat.a)
                _feed(h, embed_gproj_into_proj(x))
                _feed_module(h, colim_gproj(x))
                for u in (identity_functor(shape), to_point):
                    data = gproj_left_kan_data(u, x)
                    for out in (data.diagram, data.unit, pointwise_left_kan(u, x), pointwise_right_kan(u, y), ginj_right_kan(u, y)):
                        _feed(h, out)
    return h.hexdigest()


def test_slice_colimits_and_kan_extensions_keep_their_canonical_bytes():
    assert slice_colimit_digest() == RECORDED_SLICE_COLIMIT_SHA256
