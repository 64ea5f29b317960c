"""Maps out of canonical quotients and into canonical submodules are read
off the section and the pivot rows that the quotient's or submodule's own
elimination leaves (diagrams.factor_by_section, field.solve_by_pivots), then
certified by one product.

The oracle tests rebuild every construction that reads them with the
solve routes of tests/oracles.py in their place, over a fresh algebra so
that no memo is shared, and compare bytes.  The mutant tests move one
index of a section or one pivot row: a read-off that changes must be
refused, and none may return a map the solve would not.  The guard test
counts the solves made inside the cokernel, kernel, pushout and colimit
routes over seeded F_3 squares: there are none.
"""

import random
import sys
from collections import Counter

import numpy as np
import pytest

from derlab import diagrams, field
from derlab.algebra import AlgebraError, dual_numbers, group_algebra_c2, require_self_injective
from derlab.cats import arrow_category, cospan_category, full_subcategory, identity_functor, span_category, square_category
from derlab.diagrams import (
    Diagram,
    DiagramConflation,
    DiagramError,
    DiagramMap,
    block_sum_diagram,
    cokernel_diagram,
    colimit_of_diagram,
    ext1,
    factor_by_section,
    from_colimit,
    hom_space_diagrams,
    kernel_diagram,
    pointwise_left_kan,
    projective_cover_diagram,
    pushout_diagrams,
    restrict,
    stalk_diagram,
    zero_diagram,
    zero_diagram_map,
)
from derlab.field import Mat, solve_by_pivots
from derlab.gorenstein import LatchingDatum, approx_gproj, hull_ginj, is_gproj, latching
from derlab.modules import Module, ModuleMap, hom_space, module_key, quotient_module, regular_module, submodule
from derlab.samples import random_diagram

from oracles import coordinates_by_solve, factor_by_solve

ALGEBRAS = {"F2[x]/(x^2)": lambda: dual_numbers(2), "F3[x]/(x^2)": lambda: dual_numbers(3), "F3C2": lambda: group_algebra_c2(3)}
SHAPES = {"arrow": arrow_category, "cospan": cospan_category, "span": span_category, "square": square_category}
CASES = [(a, s, seed) for a in ALGEBRAS for s in SHAPES for seed in (0, 1)]


def _rebind(monkeypatch, home, name, replacement):
    """Put replacement in place of home.name in every derlab module that
    binds that function."""
    orig = getattr(home, name)
    for mod_name, mod in list(sys.modules.items()):
        if (mod_name == "derlab" or mod_name.startswith("derlab.")) and getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, replacement)


def _bytes(obj):
    """The content of a construction, down to the bytes of every matrix."""
    if isinstance(obj, Mat):
        return obj.p, obj.a.shape, obj.a.tobytes()
    if isinstance(obj, Module):
        return module_key(obj)
    if isinstance(obj, ModuleMap):
        return _bytes(obj.src), _bytes(obj.tgt), _bytes(obj.mat)
    if isinstance(obj, Diagram):
        return _bytes([obj.at(o) for o in obj.shape.objects]), _bytes([obj.mat(f) for f in obj.shape.nonidentity_morphisms()])
    if isinstance(obj, DiagramMap):
        return _bytes(obj.src), _bytes(obj.tgt), _bytes([obj.comps[o] for o in obj.src.shape.objects])
    if isinstance(obj, DiagramConflation):
        return _bytes(obj.left), _bytes(obj.right)
    if isinstance(obj, LatchingDatum):
        return _bytes(obj.module), _bytes(obj.map), _bytes(obj.cocone)
    if isinstance(obj, dict):
        return tuple((k, _bytes(v)) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return tuple(_bytes(v) for v in obj)
    raise TypeError(type(obj))


def _combination(basis, zero, rng):
    out = zero
    for b in basis:
        out = out + b.scale(rng.randrange(zero.src.alg.p))
    return out


def _case(alg_name, shape_name, seed):
    """A fresh algebra, so no memo is shared; x, the sum of two seeded
    random_diagrams, of total dim at least 3 (random actions seldom satisfy
    the module law, so each has small components); and the projective
    cover K >-> P ->> x."""
    alg = ALGEBRAS[alg_name]()
    rng = random.Random(seed)
    shape = SHAPES[shape_name]()
    x = zero_diagram(shape, alg)
    while x.total_dim() < 3:
        x = block_sum_diagram([random_diagram(shape, alg, 2, rng) for _ in range(2)])
    return alg, rng, x, projective_cover_diagram(x)


def _constructions(alg_name, shape_name, seed):
    """Every construction that reads a section or pivot rows, as bytes."""
    alg, rng, x, cover = _case(alg_name, shape_name, seed)
    shape, free = x.shape, cover.middle
    psi = _combination(hom_space_diagrams(cover.sub, free), zero_diagram_map(cover.sub, free), rng)
    _, below = full_subcategory(shape, shape.objects[:-1])
    out = {
        "kernel": kernel_diagram(cover.right),
        "cokernel": cokernel_diagram(cover.left),
        "cover": cover,
        "pushout": pushout_diagrams(cover.left, psi),
        "latching": [latching(d, j) for d in (x, free) for j in shape.objects],
        "colimit": [colimit_of_diagram(x), colimit_of_diagram(free)],
        "kan": [pointwise_left_kan(identity_functor(shape), free), pointwise_left_kan(below, restrict(below, free))],
    }
    for o in shape.objects:
        m = free.at(o)
        image = _combination(hom_space(m, m), ModuleMap(m, m, Mat.zeros(alg.p, m.dim, m.dim)), rng).mat
        out[f"sub/quot at {o}"] = [submodule(m, image), quotient_module(m, image)]
    try:
        require_self_injective(alg)
    except AlgebraError:
        return _bytes(out)
    out["approx"] = approx_gproj(x).conflation
    out["hull"] = hull_ginj(x).conflation
    return _bytes(out)


@pytest.mark.parametrize("alg_name,shape_name,seed", CASES)
def test_sections_and_pivots_give_the_bytes_of_the_solve_routes(monkeypatch, alg_name, shape_name, seed):
    read_offs = Counter()

    def counted(name, f):
        def wrapped(*args):
            read_offs[name] += 1
            return f(*args)

        return wrapped

    with monkeypatch.context() as m:
        _rebind(m, diagrams, "factor_by_section", factor_by_solve)
        _rebind(m, field, "solve_by_pivots", coordinates_by_solve)
        by_solve = _constructions(alg_name, shape_name, seed)
    with monkeypatch.context() as m:
        _rebind(m, diagrams, "factor_by_section", counted("section", factor_by_section))
        _rebind(m, field, "solve_by_pivots", counted("pivots", solve_by_pivots))
        read_off = _constructions(alg_name, shape_name, seed)
    assert read_off == by_solve
    assert read_offs["section"] and read_offs["pivots"]


def _moved(indices, i, c):
    out = np.array(indices, dtype=np.intp)
    out[i] = c
    return out


def test_a_moved_section_index_or_pivot_row_is_refused():
    """Each index of each section (of a cokernel projection and of a
    colimit cocone) and each pivot row (of a kernel inclusion) moved to
    every other column or row, over every case.  A read-off the move
    changes fails the product check and is refused; one it leaves
    unchanged is the true map."""
    refused = sum(_refused_mutants(*case) for case in CASES)
    assert refused >= 1000


def _refused_mutants(alg_name, shape_name, seed) -> int:
    alg, _, x, cover = _case(alg_name, shape_name, seed)
    nrng = np.random.default_rng(seed)
    p = alg.p
    refused = 0
    _, proj = cokernel_diagram(cover.left)
    for o in x.shape.objects:
        sigma, section = proj.comps[o], proj.sections[o]
        t = Mat(p, nrng.integers(0, p, (3, sigma.rows)) @ sigma.a)
        truth = factor_by_section(t, sigma, section)
        for i in range(len(section)):
            for c in range(sigma.cols):
                mutant = _moved(section, i, c)
                if (t.a[:, mutant] == truth.a).all():
                    assert factor_by_section(t, sigma, mutant) == truth
                    continue
                with pytest.raises(DiagramError, match=r"^map does not factor through the surjection$"):
                    factor_by_section(t, sigma, mutant)
                refused += 1
    _, incl = kernel_diagram(cover.right)
    for o in x.shape.objects:
        inc = incl.at(o)
        pivots = submodule(inc.tgt, inc.mat)[1].pivots
        b = Mat(p, inc.mat.a @ nrng.integers(0, p, (inc.mat.cols, 3)))
        truth = solve_by_pivots(inc.mat, pivots, b)
        for i in range(len(pivots)):
            for r in range(inc.mat.rows):
                mutant = _moved(pivots, i, r)
                if (b.a[mutant] == truth.a).all():
                    assert solve_by_pivots(inc.mat, mutant, b) == truth
                    continue
                assert solve_by_pivots(inc.mat, mutant, b) is None
                refused += 1
    colim, cocone = colimit_of_diagram(cover.middle)
    out_of = nrng.integers(0, p, (3, colim.dim))
    legs = {o: Mat(p, out_of @ leg.mat.a) for o, leg in cocone.items()}
    truth = from_colimit(colim, cocone, legs, 3)
    for o, leg in cocone.items():
        for i in range(len(leg.section)):
            for c in range(leg.src.dim):
                moved = dict(cocone)
                moved[o] = ModuleMap(leg.src, leg.tgt, leg.mat, _moved(leg.section, i, c))
                if (legs[o].a[:, moved[o].section] == legs[o].a[:, leg.section]).all():
                    assert from_colimit(colim, moved, legs, 3) == truth
                    continue
                with pytest.raises(DiagramError, match=r"^map does not factor through the surjection$"):
                    from_colimit(colim, moved, legs, 3)
                refused += 1
    return refused


ROUTES = ("cokernel_diagram", "kernel_diagram", "pushout_diagrams", "colimit_of_diagram", "from_colimit")


def test_the_quotient_and_subobject_routes_solve_nothing(monkeypatch):
    """Over 10 seeded F_3 squares, is_gproj, ext1 against every stalk of
    Lambda, approx_gproj and hull_ginj make no solve inside a cokernel,
    kernel, pushout or colimit, and do read sections and pivot rows
    there."""
    inside = [0]
    calls = Counter()

    def route(f):
        def wrapped(*args):
            inside[0] += 1
            try:
                return f(*args)
            finally:
                inside[0] -= 1

        return wrapped

    def counted(name, f):
        def wrapped(*args):
            calls[name, bool(inside[0])] += 1
            return f(*args)

        return wrapped

    for name in ROUTES:
        _rebind(monkeypatch, diagrams, name, route(getattr(diagrams, name)))
    for home, name in ((field, "solve"), (diagrams, "factor_by_section"), (field, "solve_by_pivots")):
        _rebind(monkeypatch, home, name, counted(name, getattr(home, name)))
    alg = dual_numbers(3)
    reg = regular_module(alg)
    for seed in range(10):
        x = random_diagram(square_category(), alg, 2, random.Random(seed))
        is_gproj(x)
        for j in x.shape.objects:
            ext1(x, stalk_diagram(x.shape, alg, j, reg))
        approx_gproj(x)
        hull_ginj(x)
    assert calls["solve", True] == 0
    assert calls["factor_by_section", True] and calls["solve_by_pivots", True]
