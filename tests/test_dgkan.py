import dataclasses
import itertools
import random
from collections import Counter

import numpy as np
import pytest

from derlab.algebra import dual_numbers, ground_field, group_algebra_c2
from derlab.cats import (
    CatFunctor,
    DirectCategory,
    arrow_category,
    cospan_category,
    identity_functor,
    object_functor,
    opposite_functor,
    span_category,
    square_category,
    terminal_category,
)
from derlab.field import Mat, hstack, rank, vstack
from derlab import dgkan
from derlab.modules import Module, direct_sum, free_module, regular_module
from derlab.diagrams import (
    Diagram,
    DiagramError,
    DiagramMap,
    constant_diagram,
    direct_sum_diagrams,
    hom_space_diagrams,
    left_kan_from_point,
    identity_diagram_map,
    limit_of_diagram,
    pointwise_right_kan,
    stalk_diagram,
    zero_diagram,
)
from derlab.complexes import LazyComplex, ComplexMap, cone, complete_resolution, dual_complex, shift, sod_decompose, z0
from derlab.samples import random_diagram, random_gproj
from derlab.gorenstein import PreconditionError, VerificationError, gproj_left_kan, is_gproj
from derlab.homotopy import _corner_in_square, is_stable_iso_diagrams, stable_hom_diagrams
from derlab.dgkan import (
    Der4Report,
    cone_weight,
    crosscheck_kan,
    der4_check,
    ho_left_kan,
    ho_right_kan,
    minimal_resolution,
    representable_weight,
    restriction_weight,
    restriction_weight_right,
    shift_weight,
    weighted_hocolim,
    weighted_holim,
)


@pytest.fixture(scope="module")
def arrow():
    return arrow_category()


@pytest.fixture(scope="module")
def socle_arrow(dn, simple, reg, arrow):
    return Diagram(arrow, dn, {"0": simple, "1": reg}, {"e0": Mat(2, [[0], [1]])}).validate()


@pytest.fixture(scope="module")
def kres_point(dn, simple):
    e = terminal_category()
    return complete_resolution(constant_diagram(e, dn, simple))


def test_minimal_resolution_over_point():
    e = terminal_category()
    cx = minimal_resolution(constant_diagram(e, ground_field(2), free_module(ground_field(2), 3)))
    assert cx.degrees() == [0] and len(cx.blocks) == 3 and not cx.coeffs


def test_minimal_resolution_over_arrow(arrow):
    # the representable at 0 and the weight of arrow -> point (constant k,
    # the representable at 0 again) are free: one block h^0 each
    to_point = CatFunctor(arrow, terminal_category(), {"0": "*", "1": "*"}, {"e0": "1_*"})
    for w in (restriction_weight(identity_functor(arrow), "0", 2), restriction_weight(to_point, "*", 2)):
        cx = minimal_resolution(w)
        assert cx.blocks == [(0, "0", (0, ("0",), 0))] and not cx.coeffs
        assert [len(cx.value_basis(0, o)) for o in arrow.objects] == [1, 1]


def test_minimal_resolution_length_bound():
    # the identity of the square has representable weights, one block each;
    # constant k over the square is the representable at its initial object
    sq = square_category()
    k = ground_field(2)
    weights = [restriction_weight(identity_functor(sq), j, 2) for j in sq.objects] + [constant_diagram(sq, k, regular_module(k))]
    for w in weights:
        cx = minimal_resolution(w)
        assert cx.degrees() == [0] and len(cx.blocks) == 1
    # over the cospan constant k needs one relation: length 1, the longest chain
    cx = minimal_resolution(constant_diagram(cospan_category(), k, regular_module(k)))
    assert cx.degrees() == [-1, 0] and len(cx.blocks) == 3


def test_restriction_weight_examples(dn, arrow):
    u = identity_functor(arrow)
    w = restriction_weight(u, "0", 2)
    assert {o: w.at(o).dim for o in arrow.objects} == {"0": 1, "1": 1}  # the representable at 0
    v = object_functor(arrow, "1")
    w2 = restriction_weight(v, "0", 2)
    assert w2.at("*").dim == 1
    to_point = CatFunctor(arrow, terminal_category(), {"0": "*", "1": "*"}, {"e0": "1_*"})
    w3 = restriction_weight(to_point, "*", 2)
    assert {o: w3.at(o).dim for o in arrow.objects} == {"0": 1, "1": 1}
    w3.validate()


def test_weighted_holim_representable_is_evaluation(dn, socle_arrow, arrow):
    c = complete_resolution(socle_arrow)
    for i in ("0", "1"):
        w = representable_weight(arrow, 2, i)
        h = weighted_holim(w, c)
        for n in (-2, -1, 0, 1, 2):
            assert h.term(n).at("*").dim == c.term(n).at(i).dim
            assert h.diff(n).comps["*"] == c.diff(n).comps[i]


def test_weight_shift_gives_shift(dn, kres_point):
    for n in (0, 1, -2):
        w = shift_weight(2, n)
        h = weighted_holim(w, kres_point)
        s = shift(kres_point, n)
        for k in (-1, 0, 1):
            assert h.term(k).at("*").dim == s.term(k).at("*").dim
            assert h.diff(k).comps["*"] == s.diff(k).comps["*"]


def test_weight_cone_matches_cone(dn, simple, reg, kres_point):
    # chain map: multiplication by x (each term's own x-action) is natural
    from derlab.diagrams import DiagramMap

    f = ComplexMap(kres_point, kres_point, {
        k: DiagramMap(
            kres_point.term(k), kres_point.term(k), {"*": kres_point.term(k).at("*").action[1]}
        )
        for k in range(-4, 5)
    })
    f.verify_chain_on(-3, 3)
    # diagram over [1] made of the two complexes with edge f
    arrow = arrow_category()

    def term_fn(n):
        t = kres_point.term(n).at("*")
        return Diagram(arrow, dn, {"0": t, "1": t}, {"e0": f.comp(n).comps["*"]})

    def diff_fn(n):
        d = kres_point.diff(n).comps["*"]
        return {"0": d, "1": d}

    fam = LazyComplex(arrow, dn, term_fn, diff_fn)
    w = cone_weight(2)
    h = weighted_holim(w, fam)
    cf = cone(f)
    for k in (-1, 0, 1):
        # holim computes cone(f)[-1]: degree k of the holim vs degree k-1 of cone
        assert h.term(k).at("*").dim == cf.term(k - 1).at("*").dim
        assert h.diff(k).comps["*"] == cf.diff(k - 1).comps["*"]


def test_holim_dd_zero_at_p3():
    alg3 = dual_numbers(3)
    from derlab.modules import Module
    from derlab.diagrams import constant_diagram as cd

    simple3 = Module(alg3, [Mat.identity(3, 1), Mat.zeros(3, 1, 1)]).validate()
    e = terminal_category()
    c = complete_resolution(cd(e, alg3, simple3))
    arrow = arrow_category()

    def term_fn(n):
        t = c.term(n).at("*")
        return Diagram(arrow, alg3, {"0": t, "1": t}, {"e0": Mat.identity(3, t.dim)})

    def diff_fn(n):
        d = c.diff(n).comps["*"]
        return {"0": d, "1": d}

    fam = LazyComplex(arrow, alg3, term_fn, diff_fn)
    to_point = CatFunctor(arrow, e, {"0": "*", "1": "*"}, {"e0": "1_*"})
    m = restriction_weight(to_point, "*", 3)
    h = weighted_holim(minimal_resolution(m), fam)
    for k in (-2, -1, 0, 1):
        h.diff(k)  # the d o d = 0 check runs inside
    hc = weighted_hocolim(minimal_resolution(restriction_weight_right(to_point, "*", 3)), fam)
    for k in (-2, -1, 0, 1):
        hc.diff(k)


def test_holim_signs_at_p3():
    # at an odd prime the Hom totalization's signs show: the d_F part is
    # unsigned and the d_W part carries -(-1)^k, so a shift weight gives
    # d_F itself (the shift only up to the sign isomorphism) and the cone
    # weight gives [[d^{k-1}, -(-1)^k f^k], [0, d^k]]
    alg3 = dual_numbers(3)
    simple3 = Module(alg3, [Mat.identity(3, 1), Mat.zeros(3, 1, 1)]).validate()
    c = complete_resolution(constant_diagram(terminal_category(), alg3, simple3))
    for n in (-1, 0, 1):
        h = weighted_holim(shift_weight(3, n), c)
        for k in (-1, 0, 1):
            assert h.diff(k).comps["*"] == c.diff(k + n).comps["*"]
    f = {k: c.term(k).at("*").action[1].scale(2) for k in range(-3, 4)}
    arrow = arrow_category()
    fam = LazyComplex(
        arrow,
        alg3,
        lambda k: Diagram(arrow, alg3, {"0": c.term(k).at("*"), "1": c.term(k).at("*")}, {"e0": f[k]}),
        lambda k: {"0": c.diff(k).comps["*"], "1": c.diff(k).comps["*"]},
    )
    h = weighted_holim(cone_weight(3), fam)
    for k in (-1, 0, 1):
        d_prev, d = c.diff(k - 1).comps["*"], c.diff(k).comps["*"]
        top = hstack([d_prev, f[k].scale(-1 if k % 2 == 0 else 1)])
        bottom = hstack([Mat.zeros(3, d.rows, d_prev.cols), d])
        assert h.diff(k).comps["*"] == vstack([top, bottom])


def test_a_weight_map_collapses_on_holims_as_its_transpose_over_the_dual():
    # der4's theta: the map h^1 -> h^0 along e0 induces weighted_holim(h^0,
    # f)^n = f^n(0) -> weighted_holim(h^1, f)^n = f^n(1), which must be
    # f^n(e0) and a chain map; it is read off the tensor side over D f,
    # transposed (at p = 3, where the holim signs show)
    alg3, arrow = dual_numbers(3), arrow_category()
    src, tgt, phi = representable_weight(arrow, 3, "1"), representable_weight(arrow, 3, "0"), {(0, 0, "e0"): 1}
    for seed in (0, 1):
        f = complete_resolution(random_gproj(arrow, alg3, 2, random.Random(seed)))
        thetas = {n: dgkan._induced(src, tgt, phi, dual_complex(f), -n).T for n in range(-2, 3)}
        assert any(theta.rows != theta.cols for theta in thetas.values())
        for n in range(-2, 2):
            assert thetas[n] == f.term(n).mat("e0")
            left, right = weighted_holim(src, f).diff(n).comps["*"], weighted_holim(tgt, f).diff(n).comps["*"]
            assert left @ thetas[n] == thetas[n + 1] @ right


def test_ho_left_kan_collapse_to_point(dn, socle_arrow, arrow):
    t = complete_resolution(socle_arrow)
    to_point = CatFunctor(arrow, terminal_category(), {"0": "*", "1": "*"}, {"e0": "1_*"})
    K = ho_left_kan(to_point, t)
    assert K.is_acyclic_on(-3, 3)
    assert K.is_termwise_projective_on(-2, 2)
    # z0 of its projective part is stably trivial (colim = Lambda ~ 0)
    from derlab.complexes import sod_decompose
    from derlab.homotopy import is_stable_iso_diagrams

    sod = sod_decompose(K, -2, 2)
    zk, _ = z0(sod.p_part)
    v = is_stable_iso_diagrams(zk, zero_diagram(terminal_category(), dn))
    assert v.is_true


def test_ho_right_kan_sieve_extension_by_zero(dn, kres_point, arrow):
    # u: {0} -> [1] is a sieve: ho_right_kan is extension by zero on windows
    u = object_functor(arrow, "0")
    K = ho_right_kan(u, kres_point)
    for n in (-1, 0, 1):
        K.term(n).validate()
        assert K.term(n).at("1").dim == 0
        assert K.term(n).at("0").dim == kres_point.term(n).at("*").dim


def test_ho_kan_diagram_structure_valid(dn, socle_arrow, arrow):
    t = complete_resolution(socle_arrow)
    u = identity_functor(arrow)
    kan = ho_left_kan(u, t)
    for n in (-1, 0, 1):
        kan.term(n).validate()
        kan.diff(n).validate()


def test_der4_point_inclusion(dn, reg, arrow):
    # u: e -> [1] at 1, j = 0: both sides reduce to evaluation
    u = object_functor(arrow, "1")
    e = terminal_category()
    c = complete_resolution(constant_diagram(e, dn, reg))
    rep = der4_check(u, "0", c, -1, 1)
    assert rep.ok


def test_der4_projection_to_point(dn, simple, arrow, socle_arrow):
    to_point = CatFunctor(arrow, terminal_category(), {"0": "*", "1": "*"}, {"e0": "1_*"})
    c = complete_resolution(socle_arrow)
    rep = der4_check(to_point, "*", c, -1, 1)
    assert rep.ok


def test_crosscheck_identity(dn, socle_arrow, arrow):
    v = crosscheck_kan(identity_functor(arrow), socle_arrow, margin=1)
    assert v.is_true


def test_crosscheck_to_point(dn, socle_arrow, arrow):
    to_point = CatFunctor(arrow, terminal_category(), {"0": "*", "1": "*"}, {"e0": "1_*"})
    v = crosscheck_kan(to_point, socle_arrow, margin=1)
    assert v.is_true


def test_crosscheck_cosieve_stalk(dn, simple, arrow):
    # u: {0} -> [1], x = k: both routes give the extension-style class
    u = object_functor(arrow, "0")
    e = terminal_category()
    x = constant_diagram(e, dn, simple)
    v = crosscheck_kan(u, x, margin=1)
    assert v.is_true


def test_homs_across_algebras_and_unknown_cross_check_directions_are_refused(dn, simple, socle_arrow, arrow):
    """Diagrams over two algebra instances have no hom space, as modules
    have none (hom_space), even where their dims would give an answer; and
    a cross-check direction is "left" or "right", nothing else."""
    e = terminal_category()
    c2 = group_algebra_c2(2)
    trivial = Module(c2, [Mat.identity(2, 1), Mat.identity(2, 1)]).validate()
    twin = dual_numbers(2)
    assert twin is not dn
    pairs = [
        (constant_diagram(e, dn, simple), constant_diagram(e, c2, trivial)),
        (constant_diagram(e, dn, regular_module(dn)), constant_diagram(e, twin, regular_module(twin))),
    ]
    for x, y in pairs:
        with pytest.raises(DiagramError):
            hom_space_diagrams(x, y)
        with pytest.raises(DiagramError):
            stable_hom_diagrams(x, y)
    for direction in ("Left", "up", ""):
        with pytest.raises(PreconditionError):
            crosscheck_kan(identity_functor(arrow), socle_arrow, direction=direction, margin=1)


def _parallel_path_category():
    """A direct arrow j -> B next to the composite j -> A -> B; its name
    sorts before the composite's, so postcomposing with g moves a weight
    block to another index of J(j, B)."""
    return DirectCategory(
        ["j", "A", "B"],
        {"f": ("j", "A"), "g": ("A", "B"), "a": ("j", "B"), "gf": ("j", "B")},
        {("g", "f"): "gf"},
    )


def test_der4_with_non_factoring_parallel_path(dn, reg):
    # J has a direct arrow j -> B next to a composite j -> A -> B; the
    # restriction-weight map is then not surjective, which exercises the
    # naturality bookkeeping of the underived comparison
    J = _parallel_path_category()
    I = arrow_category()
    u = CatFunctor(I, J, {"0": "A", "1": "B"}, {"e0": "g"})
    x = constant_diagram(I, dn, reg)
    t = LazyComplex.bounded(I, dn, {0: x}, {})
    rep = der4_check(u, "j", t, -1, 1)
    assert rep.ok
    # the underived side at degree 0 must have dimension dim D_0 + dim D_1:
    # one free leg through the composite and one through the direct arrow
    from derlab.dgkan import hom_module_from_weight, restriction_weight as rw

    m = rw(u, "j", 2)
    sub, _ = hom_module_from_weight(m, x)
    assert sub.dim == reg.dim + reg.dim


def _socle_to_point(p):
    """The arrow diagram k -> Lambda over F_p[x]/(x^2), its complete
    resolution and the functor to the point: der4_check passes on them."""
    alg = dual_numbers(p)
    simple = Module(alg, [Mat.identity(p, 1), Mat.zeros(p, 1, 1)])
    x = Diagram(arrow_category(), alg, {"0": simple, "1": regular_module(alg)}, {"e0": Mat(p, [[0], [1]])}).validate()
    return _to_point(x.shape), complete_resolution(x)


def _hom_module_mutant(monkeypatch, mutate):
    real = dgkan.hom_module_from_weight
    monkeypatch.setattr(dgkan, "hom_module_from_weight", lambda m, d: mutate(*real(m, d)))


def test_der4_names_an_underived_side_of_the_wrong_dim(monkeypatch):
    u, t = _socle_to_point(2)
    assert der4_check(u, "*", t, -1, 1).ok
    _hom_module_mutant(monkeypatch, lambda sub, incl: (direct_sum([sub, regular_module(sub.alg)])[0], incl))
    rep = der4_check(u, "*", t, -1, 1)
    assert not rep.ok and not rep.underived_ok and rep.derived_ok
    assert rep.details["underived_dim_mismatch_deg0"] == (4, 2)
    assert "underived_iso_deg0" not in rep.details


def test_der4_names_an_underived_side_that_is_not_isomorphic(monkeypatch):
    u, t = _socle_to_point(2)
    # the inclusion loses its first column: the solve has rank dim - 1
    _hom_module_mutant(monkeypatch, lambda sub, incl: (sub, hstack([incl[:, 1:], Mat.zeros(2, incl.rows, 1)])))
    rep = der4_check(u, "*", t, -1, 1)
    assert not rep.ok and not rep.underived_ok and rep.derived_ok
    assert rep.details["underived_not_iso_deg0"] is True


def test_der4_fails_when_a_weight_differential_drops_an_arrow(monkeypatch):
    # constant k over the cospan needs a differential h^z -> h^x (+) h^y;
    # with one of its two arrows dropped from the weight side's resolution,
    # no chain map lifts the identity of the weight, and der4 says so
    cospan = cospan_category()
    alg = dual_numbers(2)
    u = _to_point(cospan)
    t = LazyComplex.bounded(cospan, alg, {0: constant_diagram(cospan, alg, regular_module(alg))}, {})
    assert der4_check(u, "*", t, -1, 1).ok
    real = dgkan.minimal_resolution

    def dropped(w):
        cx = real(w)
        if w.shape is not u.dom:  # the slice side keeps its resolution
            return cx
        first = min(cx.coeffs)
        return dataclasses.replace(cx, coeffs={key: c for key, c in cx.coeffs.items() if key != first})

    monkeypatch.setattr(dgkan, "minimal_resolution", dropped)
    rep = der4_check(u, "*", t, -1, 1)
    assert not rep.ok and rep.underived_ok and not rep.derived_ok
    assert rep.details["derived_lift_fails"] is True
    assert "derived_is_chain_iso" not in rep.details


def test_der4_names_each_degree_whose_derived_square_fails(monkeypatch):
    # over F_3 negating the slice side's differentials changes them, so
    # the lifted identity of the weight is no chain map in any degree
    u, t = _socle_to_point(3)
    assert der4_check(u, "*", t, -1, 1).ok
    real = dgkan.restrict_complex

    def negated(v, c):
        r = real(v, c)
        return LazyComplex(r.shape, r.alg, r.term, lambda n: {o: -m for o, m in r.diff(n).comps.items()})

    monkeypatch.setattr(dgkan, "restrict_complex", negated)
    rep = der4_check(u, "*", t, -1, 1)
    assert not rep.ok and rep.underived_ok and not rep.derived_ok
    assert [key for key in rep.details if key.startswith("derived_square_fails")] == [f"derived_square_fails_deg{n}" for n in (-1, 0, 1)]
    assert rep.details["derived_is_chain_iso"] is False
    assert not [key for key in rep.details if key.startswith("derived_not_invertible")]


def test_der4_names_each_degree_whose_comparison_is_not_invertible(monkeypatch):
    # a zero chain map commutes with everything, so only the ranks see it
    u, t = _socle_to_point(2)
    monkeypatch.setattr(dgkan, "_lift", lambda src, tgt, base: {})
    rep = der4_check(u, "*", t, -1, 1)
    assert not rep.ok and rep.underived_ok and not rep.derived_ok
    assert not [key for key in rep.details if key.startswith("derived_square_fails")]
    assert [key for key in rep.details if key.startswith("derived_not_invertible")] == [f"derived_not_invertible_deg{n}" for n in (-1, 0, 1, 2)]
    assert rep.details["derived_is_chain_iso"] is False


@pytest.mark.parametrize("case", ["not-acyclic", "not-projective"])
def test_crosscheck_says_false_for_a_kan_output_outside_its_window(monkeypatch, socle_arrow, arrow, case):
    """A homotopy Kan extension that is not acyclic, or not termwise
    projective, on the window is a FALSE verdict, not an error."""
    cone_of_identity = {0: socle_arrow, 1: socle_arrow}, {0: identity_diagram_map(socle_arrow)}
    terms, diffs = ({0: socle_arrow}, {}) if case == "not-acyclic" else cone_of_identity
    monkeypatch.setattr(dgkan, "ho_left_kan", lambda u, t: LazyComplex.bounded(arrow, socle_arrow.alg, terms, diffs))
    v = crosscheck_kan(identity_functor(arrow), socle_arrow, margin=1)
    assert v.status == "false"
    assert v.reason == ("homotopy Kan output is not acyclic on [-4, 4]" if case == "not-acyclic" else "homotopy Kan output is not termwise projective")


SHAPES = (arrow_category, cospan_category, span_category, square_category)


def _to_point(cat):
    return CatFunctor(cat, terminal_category(), {o: "*" for o in cat.objects}, {f: "1_*" for f in cat.morphisms})


def _cohomology_dim(c, n, o):
    return c.term(n).at(o).dim - rank(c.diff(n).comps[o]) - rank(c.diff(n - 1).comps[o])


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("make_shape", SHAPES)
def test_holim_of_constant_weight_is_the_limit(p, make_shape):
    # the collapse over the minimal resolution of constant k computes the
    # limit at odd p too, where the differentials carry signs
    cat = make_shape()
    alg = dual_numbers(p)
    x = constant_diagram(cat, alg, regular_module(alg))
    stalk = LazyComplex.bounded(cat, alg, {0: x}, {})
    h = weighted_holim(minimal_resolution(constant_diagram(cat, ground_field(p), regular_module(ground_field(p)))), stalk)
    assert _cohomology_dim(h, 0, "*") == limit_of_diagram(x)[0].dim
    assert _cohomology_dim(h, 1, "*") == _cohomology_dim(h, 2, "*") == 0


def test_dual_complex_is_an_involution(socle_arrow):
    c = complete_resolution(socle_arrow)
    dd = dual_complex(dual_complex(c))
    assert dd.shape is c.shape and dd.alg is c.alg
    for n in range(-2, 3):
        for o in c.shape.objects:
            assert dd.term(n).at(o).action == c.term(n).at(o).action
            assert dd.diff(n).comps[o] == c.diff(n).comps[o]
        for f in c.shape.nonidentity_morphisms():
            assert dd.term(n).mat(f) == c.term(n).mat(f)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("make_shape", SHAPES)
def test_ho_right_kan_h0_is_the_pointwise_right_kan(p, make_shape):
    # H^0 of the derived right Kan extension of a stalk complex is the
    # underived one, computed by direct limits over the slices j/u
    cat = make_shape()
    alg = dual_numbers(p)
    rng = random.Random(p * 10 + len(cat.objects))
    diagrams = [constant_diagram(cat, alg, regular_module(alg))] + [random_diagram(cat, alg, 2, rng) for _ in range(2)]
    checked = 0
    for d in diagrams:
        cases = [(identity_functor(cat), d), (_to_point(cat), d)]
        cases += [(object_functor(cat, o), constant_diagram(terminal_category(), alg, d.at(o))) for o in cat.objects]
        for u, y in cases:
            K = ho_right_kan(u, LazyComplex.bounded(u.dom, alg, {0: y}, {}))
            direct = pointwise_right_kan(u, y)
            for j in u.cod.objects:
                assert _cohomology_dim(K, 0, j) == direct.at(j).dim
                checked += 1
    n = len(cat.objects)
    assert checked == len(diagrams) * (n + 1 + n * n)


def test_ho_right_kan_is_the_pointwise_holim():
    # at each j the differential is that of weighted_holim over j's
    # restriction weight, signs included (p = 3, square: chains of two arrows)
    sq = square_category()
    alg3 = dual_numbers(3)
    t = complete_resolution(random_gproj(sq, alg3, 2, random.Random(4)))
    for u in (identity_functor(sq), _to_point(sq)):
        K = ho_right_kan(u, t)
        for j in u.cod.objects:
            h = weighted_holim(minimal_resolution(restriction_weight(u, j, 3)), t)
            for n in (-1, 0, 1):
                assert K.term(n).at(j).action == h.term(n).at("*").action
                assert K.diff(n).comps[j] == h.diff(n).comps["*"]


def test_der4_reports_do_not_depend_on_the_slice_cache():
    """der4_check on the der4 cases of the regression scenario, with the
    functor's slices cached and with a fresh functor each call."""
    import json
    from pathlib import Path

    from derlab import cli

    path = Path(__file__).resolve().parent.parent / "scenarios" / "regression.json"
    s = cli.Session(json.loads(path.read_text()), path.parent)
    s.load()
    cases = list(cli._functor_diagram_pairs(s))
    assert len(cases) == 5

    def report(rep):
        return rep.underived_ok, rep.derived_ok, rep.window, repr(sorted(rep.details.items()))

    for _, u, _, d in cases:
        t = LazyComplex.bounded(u.dom, s.alg, {0: d}, {})
        for j in u.cod.objects:
            fresh = report(der4_check(CatFunctor(u.dom, u.cod, u.obj_map, u.mor_map), j, t, -1, 1))
            assert report(der4_check(u, j, t, -1, 1)) == fresh
            assert report(der4_check(u, j, t, -1, 1)) == fresh


def _hand_built_weight(u, j):
    """The restriction weight i |-> k.J(j, u(i)) as dgkan once built it by
    hand: dimensions and 0/1 postcomposition matrices."""
    I, J = u.dom, u.cod
    dims = {i: len(J.hom(j, u.on_obj(i))) for i in I.objects}
    mats = {}
    for h in I.nonidentity_morphisms():
        src_list, tgt_list = J.hom(j, u.on_obj(I.src(h))), J.hom(j, u.on_obj(I.tgt(h)))
        m = np.zeros((len(tgt_list), len(src_list)), dtype=np.int64)
        for col, f in enumerate(src_list):
            m[tgt_list.index(J.compose(u.on_mor(h), f)), col] = 1
        mats[h] = m
    return dims, mats


def _weight_functors():
    for make_shape in SHAPES:
        cat = make_shape()
        yield identity_functor(cat)
        yield _to_point(cat)
        for o in cat.objects:
            yield object_functor(cat, o)
    yield _corner_in_square()


@pytest.mark.parametrize("p", [2, 3])
def test_restriction_weights_are_the_hand_built_relabellings(p):
    k = ground_field(p)
    checked = 0
    for u in _weight_functors():
        for j in u.cod.objects:
            for w, v in ((restriction_weight(u, j, p), u), (restriction_weight_right(u, j, p), opposite_functor(u))):
                dims, mats = _hand_built_weight(v, j)
                assert w.alg is k and w.shape is v.dom
                assert {i: w.at(i).dim for i in v.dom.objects} == dims
                assert all(w.at(i).action == [Mat.identity(p, d)] for i, d in dims.items())
                for h, m in mats.items():
                    assert w.mat(h).a.shape == m.shape and np.array_equal(w.mat(h).a, m)
                w.validate()
                checked += 1
    assert checked == 2 * sum(len(u.cod.objects) for u in _weight_functors())


@pytest.mark.parametrize("p", [2, 3])
def test_ho_kan_terms_are_functorial_on_shapes_with_composites(p):
    # the square's composites make the structure maps compose relabellings,
    # and the parallel path makes them move blocks within a hom-set
    alg = dual_numbers(p)
    rng = random.Random(p)
    shapes = (cospan_category, square_category, _parallel_path_category)
    functors = [f(make_shape()) for make_shape in shapes for f in (identity_functor, _to_point)]
    for u in functors + [_corner_in_square()]:
        t = complete_resolution(random_gproj(u.dom, alg, 2, rng))
        for kan in (ho_left_kan(u, t), ho_right_kan(u, t)):
            for n in range(-2, 3):
                kan.term(n).validate()
                kan.diff(n).validate()


def test_kan_weights_are_minimal_unless_no_strict_maps_exist():
    # summed over the objects of J: the minimal weights where the lifts are
    # unique or J has no composites, the two-sided ones for the right Kan
    # extension along the corner inclusion, whose minimal weights are not
    # free over a J with composites
    corner = _corner_in_square()
    cases = [(identity_functor(square_category()), 4), (_to_point(square_category()), 1), (corner, 3), (opposite_functor(corner), 12)]
    for u, blocks in cases:
        wcs, maps = dgkan._kan_weights(u, 2)
        assert sum(len(wc.blocks) for wc in wcs.values()) == blocks
        assert sorted(maps) == u.cod.nonidentity_morphisms()


def test_two_sided_weights_give_the_cohomology_of_the_minimal_ones(monkeypatch):
    # forced through the two-sided weights, the Kan extensions that the
    # minimal weights serve keep their cohomology in every degree and
    # object (p = 3, where the signs show)
    alg = dual_numbers(3)
    rng = random.Random(3)
    functors = [identity_functor(square_category()), _to_point(span_category()), _corner_in_square(), identity_functor(_parallel_path_category())]
    cases = [(u, LazyComplex.bounded(u.dom, alg, {0: random_gproj(u.dom, alg, 2, rng)}, {})) for u in functors]

    def dims():
        return [[_cohomology_dim(kan(u, t), n, o) for n in range(-2, 3) for o in u.cod.objects] for u, t in cases for kan in (ho_left_kan, ho_right_kan)]

    minimal = dims()
    monkeypatch.setattr(dgkan, "_kan_weights", dgkan._two_sided_weights)
    assert dims() == minimal


def test_resolution_check_catches_every_flipped_entry():
    # over F_2 a flipped entry of a minimal resolution's differential or of
    # its augmentation always breaks the augmented complex.  The entries
    # flipped are those of every (target summand, source summand, arrow) the
    # differential touches, zeros included, with a summand the blocks of one
    # degree at one object
    k = ground_field(2)
    checked = 0
    for make_shape in SHAPES:
        cat = make_shape()
        weights = [constant_diagram(cat, k, regular_module(k))]
        weights += [restriction_weight(identity_functor(cat), j, 2) for j in cat.objects]
        weights += [restriction_weight_right(_to_point(cat), "*", 2)]
        for w in weights:
            cx = minimal_resolution(w)
            summands = {}
            for b, (_, _, label) in enumerate(cx.blocks):
                summands.setdefault(label[:2], []).append(b)
            touched = {(cx.blocks[t][2][:2], cx.blocks[s][2][:2], arrow) for t, s, arrow in cx.coeffs}
            for tgt, src, arrow in touched:
                for t, s in itertools.product(summands[tgt], summands[src]):
                    coeffs = {**cx.coeffs, (t, s, arrow): cx.coeffs.get((t, s, arrow), 0) ^ 1}
                    with pytest.raises(VerificationError):
                        dgkan._check_resolution(dataclasses.replace(cx, coeffs=coeffs), w)
                    checked += 1
            for o, m in cx.aug.items():
                for entry in np.ndindex(m.a.shape):
                    a = m.a.copy()
                    a[entry] ^= 1
                    with pytest.raises(VerificationError):
                        dgkan._check_resolution(dataclasses.replace(cx, aug={**cx.aug, o: Mat(2, a)}), w)
                    checked += 1
    assert checked == 52


# H^n(ho_left_kan) and H^n(ho_right_kan) per degree n in -2..2 and object,
# recorded when the weights were resolved by the bar construction
RECORDED_KAN_COHOMOLOGY = {
    '2/point/identity': (((0,), (0,), (1,), (0,), (0,)), ((0,), (0,), (1,), (0,), (0,))),
    '2/point/to_point': (((0,), (0,), (1,), (0,), (0,)), ((0,), (0,), (1,), (0,), (0,))),
    '2/arrow/identity': (((0, 0), (0, 0), (1, 2), (0, 0), (0, 0)), ((0, 0), (0, 0), (1, 2), (0, 0), (0, 0))),
    '2/arrow/to_point': (((0,), (0,), (2,), (0,), (0,)), ((0,), (0,), (1,), (0,), (0,))),
    '2/square/identity': (((0, 0, 0, 0), (0, 0, 0, 0), (1, 3, 3, 6), (0, 0, 0, 0), (0, 0, 0, 0)), ((0, 0, 0, 0), (0, 0, 0, 0), (1, 3, 3, 6), (0, 0, 0, 0), (0, 0, 0, 0))),
    '2/square/to_point': (((0,), (0,), (6,), (0,), (0,)), ((0,), (0,), (1,), (0,), (0,))),
    '2/square/corner': (((0, 0, 0, 0), (0, 0, 0, 0), (0, 1, 0, 2), (0, 0, 0, 0), (0, 0, 0, 0)), ((0, 0, 0, 0), (0, 0, 0, 0), (0, 1, 0, 2), (1, 0, 0, 0), (0, 0, 0, 0))),
    '3/point/identity': (((0,), (0,), (0,), (0,), (0,)), ((0,), (0,), (0,), (0,), (0,))),
    '3/point/to_point': (((0,), (0,), (0,), (0,), (0,)), ((0,), (0,), (0,), (0,), (0,))),
    '3/arrow/identity': (((0, 0), (0, 0), (1, 2), (0, 0), (0, 0)), ((0, 0), (0, 0), (1, 2), (0, 0), (0, 0))),
    '3/arrow/to_point': (((0,), (0,), (1,), (0,), (0,)), ((0,), (0,), (0,), (0,), (0,))),
    '3/square/identity': (((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0), (0, 0, 0, 0)), ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0), (0, 0, 0, 0))),
    '3/square/to_point': (((0,), (0,), (6,), (0,), (0,)), ((0,), (0,), (1,), (0,), (0,))),
    '3/square/corner': (((0, 0, 0, 0), (0, 0, 0, 0), (0, 1, 0, 2), (0, 0, 0, 0), (0, 0, 0, 0)), ((0, 0, 0, 0), (0, 0, 0, 0), (0, 1, 0, 2), (1, 0, 0, 0), (0, 0, 0, 0))),
}


def test_kan_cohomology_and_crosschecks_keep_their_recorded_values():
    """The Kan extensions of stalk complexes over the point, the arrow and
    the square (and along the corner inclusion, whose right Kan extension
    has no strictly functorial minimal weights) keep the cohomology they
    had over bar weights, and each input cross-checks."""
    got = {}
    for p in (2, 3):
        alg = dual_numbers(p)
        rng = random.Random(p)
        for name, make in (("point", terminal_category), ("arrow", arrow_category), ("square", square_category)):
            cat = make()
            functors = {"identity": identity_functor(cat), "to_point": _to_point(cat)}
            if name == "square":
                functors["corner"] = _corner_in_square()
            for fname, u in functors.items():
                x = random_gproj(u.dom, alg, 2, rng)
                t = LazyComplex.bounded(u.dom, alg, {0: x}, {})
                dims = [tuple(tuple(_cohomology_dim(k, n, o) for o in k.shape.objects) for n in range(-2, 3)) for k in (ho_left_kan(u, t), ho_right_kan(u, t))]
                got[f"{p}/{name}/{fname}"] = tuple(dims)
                assert crosscheck_kan(u, x, margin=1).is_true
    assert got == RECORDED_KAN_COHOMOLOGY


def test_the_cross_check_reads_the_cocycles_the_split_would():
    """crosscheck_kan takes Z^0 of the homotopy Kan output K, not Z^0 of the
    projective part of K's semiorthogonal split.  The split's map from that
    part to K is objectwise a homotopy equivalence of acyclic complexes of
    projectives, so it is a stable isomorphism on Z^0 (Buchweitz, 1986).
    Both routes must give the same verdict on seeded inputs: true against
    the Gorenstein Kan extension of x, and false against that of
    x (+) j_!(k), which differs by a non-projective summand."""
    seen = Counter()
    for p in (2, 3):
        alg = dual_numbers(p)
        simple = Module(alg, [Mat.identity(p, 1), Mat.zeros(p, 1, 1)])
        for make in SHAPES:
            cat = make()
            for u in (identity_functor(cat), _to_point(cat)):
                for seed in (0, 1):
                    x = random_gproj(cat, alg, 2, random.Random(seed))
                    k_out = ho_left_kan(u, complete_resolution(x))
                    split, direct = z0(sod_decompose(k_out, -2, 2).p_part)[0], z0(k_out)[0]
                    assert is_gproj(direct)
                    other = direct_sum_diagrams([x, left_kan_from_point(cat, alg, cat.objects[0], simple)])[0]
                    for y, want in ((gproj_left_kan(u, x), "true"), (gproj_left_kan(u, other), "false")):
                        assert [is_stable_iso_diagrams(z, y).status for z in (split, direct)] == [want, want]
                        seen[want] += 1
                    assert crosscheck_kan(u, x, margin=1).is_true
    assert seen == {"true": 32, "false": 32}
