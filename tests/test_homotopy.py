import numpy as np
import pytest

from derlab.algebra import dual_numbers
from derlab.cats import arrow_category, terminal_category
from derlab.field import Mat, rank
from derlab.modules import Module, direct_sum, is_projective, is_stable_iso, syzygy, zero_module
from derlab.diagrams import (
    Diagram,
    DiagramMap,
    constant_diagram,
    direct_sum_diagrams,
    identity_diagram_map,
    left_kan_from_point,
    stalk_diagram,
    zero_diagram_map,
)
from derlab.gorenstein import embed_gproj_into_proj, is_gproj, stable_roundtrip_witness
from derlab.homotopy import (
    Triangle,
    der2_witness,
    is_stable_iso_diagrams,
    is_stable_iso_map_diagrams,
    is_weak_equivalence,
    lift_to_arrow_diagram,
    loop,
    loop_via_square,
    stable_hom_diagrams,
    suspension,
    suspension_on_map,
    triangle_from_conflation,
)
from oracles import triangle_composites_vanish_stably


@pytest.fixture(scope="module")
def arrow():
    return arrow_category()


@pytest.fixture(scope="module")
def socle_arrow(dn, simple, reg, arrow):
    return Diagram(arrow, dn, {"0": simple, "1": reg}, {"e0": Mat(2, [[0], [1]])}).validate()


def test_stable_hom_projective_source(dn, reg, arrow, socle_arrow):
    p = left_kan_from_point(arrow, dn, "0", reg)
    rep = stable_hom_diagrams(p, socle_arrow)
    assert rep.quotient_dim == 0


def test_stable_hom_socle_arrow_self(dn, socle_arrow):
    rep = stable_hom_diagrams(socle_arrow, socle_arrow)
    assert len(rep.basis) == 2
    assert rep.quotient_dim == 1


def test_stable_hom_invariant_under_projective_summands(dn, reg, arrow, socle_arrow):
    p = left_kan_from_point(arrow, dn, "0", reg)
    bigger = direct_sum_diagrams([socle_arrow, p])[0]
    assert (
        stable_hom_diagrams(socle_arrow, socle_arrow).quotient_dim
        == stable_hom_diagrams(bigger, socle_arrow).quotient_dim
        == stable_hom_diagrams(socle_arrow, bigger).quotient_dim
    )


def test_weak_equivalence_identity(dn, socle_arrow):
    assert is_weak_equivalence(identity_diagram_map(socle_arrow)).is_true


def test_weak_equivalence_example(dn, simple, reg, arrow, socle_arrow):
    # (k >-> Lambda) --> (k --> 0) with f0 = id, f1 = 0: true since Lambda ~ 0
    tgt = stalk_diagram(arrow, dn, "0", simple)
    f = DiagramMap(socle_arrow, tgt, {"0": Mat.identity(2, 1), "1": Mat.zeros(2, 0, 2)})
    f.validate()
    assert is_weak_equivalence(f).is_true


def test_weak_equivalence_counterexample(dn, simple, reg, arrow, socle_arrow):
    tgt = constant_diagram(arrow, dn, reg)
    f = DiagramMap(socle_arrow, tgt, {"0": Mat(2, [[0], [1]]), "1": Mat.identity(2, 2)})
    f.validate()
    v = is_weak_equivalence(f)
    assert v.is_false  # k is not stably isomorphic to Lambda


def test_der2_both_directions(dn, socle_arrow, simple, reg, arrow):
    # the detection axiom is a statement about maps between bifibrant
    # (Gorenstein-projective) diagrams
    good = identity_diagram_map(socle_arrow)
    rep = der2_witness(good)
    assert rep["agree"] and rep["stable_inverse_exists"]
    p = left_kan_from_point(arrow, dn, "0", reg)
    bigger, injs, projs = direct_sum_diagrams([socle_arrow, p])
    assert is_gproj(bigger)
    rep2 = der2_witness(injs[0])  # inclusion with projective complement
    assert rep2["agree"] and rep2["stable_inverse_exists"]
    zero_to = zero_diagram_map(socle_arrow, bigger)
    rep3 = der2_witness(zero_to)
    assert rep3["agree"] and not rep3["stable_inverse_exists"]


def test_stable_iso_diagrams_search(dn, reg, arrow, socle_arrow):
    p = left_kan_from_point(arrow, dn, "0", reg)
    bigger = direct_sum_diagrams([socle_arrow, p])[0]
    v = is_stable_iso_diagrams(socle_arrow, bigger)
    assert v.is_true
    w = is_stable_iso_diagrams(socle_arrow, p)
    assert w.is_false


def test_suspension_loop_round_trip(dn, socle_arrow):
    s = suspension(socle_arrow)
    l = loop(s)
    v = is_stable_iso_diagrams(l, socle_arrow)
    assert v.is_true


def test_loop_of_projective_stably_zero(dn, reg, arrow):
    from derlab.diagrams import zero_diagram

    p = left_kan_from_point(arrow, dn, "0", reg)
    l = loop(p)
    v = is_stable_iso_diagrams(l, zero_diagram(arrow, dn))
    assert v.is_true


def test_loop_of_simple_over_point(dn, simple):
    e = terminal_category()
    x = constant_diagram(e, dn, simple)
    l = loop(x)
    assert l.at("*").dim == 1
    assert l.at("*").action[1].is_zero()  # syzygy of the simple is the simple


def test_suspension_of_map(dn, socle_arrow):
    sf = suspension_on_map(identity_diagram_map(socle_arrow))
    ok, _ = is_stable_iso_map_diagrams(sf)
    assert ok


def test_triangle_from_conflation(dn, socle_arrow):
    emb = embed_gproj_into_proj(socle_arrow)
    tri = triangle_from_conflation(emb)
    assert triangle_composites_vanish_stably(tri)


def test_loop_via_square_simple(dn, simple):
    res = loop_via_square(simple)
    assert res.versus_syzygy.is_true
    assert res.syzygy.dim == 1


def test_loop_via_square_projective(dn, reg):
    res = loop_via_square(reg)
    assert res.versus_syzygy.is_true
    assert res.syzygy.dim == 0  # minimal covers: syzygy of a projective vanishes


def test_loop_via_square_double(dn, simple):
    res = loop_via_square(simple)
    # double application ~ second syzygy
    res2 = loop_via_square(res.module)
    second = syzygy(syzygy(simple))
    assert is_stable_iso(res2.module, second).is_true


def test_lift_identity_arrow(dn, socle_arrow):
    z = lift_to_arrow_diagram(identity_diagram_map(socle_arrow))
    assert is_gproj(z)
    for o in socle_arrow.shape.objects:
        assert z.at(f"(0,{o})").dim == socle_arrow.at(o).dim


def test_lift_zero_map(dn, simple):
    e = terminal_category()
    x = constant_diagram(e, dn, simple)
    z = lift_to_arrow_diagram(zero_diagram_map(x, x))
    assert is_gproj(z)
    # ends are stably isomorphic to the originals
    from derlab.cats import object_functor, product_category, arrow_category
    from derlab.diagrams import restrict

    end0 = z.at("(0,*)")
    end1 = z.at("(1,*)")
    assert is_stable_iso(end0, simple).is_true
    assert is_stable_iso(end1, simple).is_true


def test_lift_socle_map_over_point(dn, simple, reg):
    e = terminal_category()
    x = constant_diagram(e, dn, simple)
    y = constant_diagram(e, dn, reg)
    f = DiagramMap(x, y, {"*": Mat(2, [[0], [1]])})
    z = lift_to_arrow_diagram(f)
    assert is_gproj(z)
    # the edge composed with projection recovers the stable class of f
    assert z.at("(1,*)").dim >= reg.dim


def test_lift_of_a_map_has_edge_f_plus_a_projective_part():
    """Seeded maps between Gorenstein-projective diagrams: each lift is
    Gorenstein projective, is f.src at (0, .), and its edge is (f, eta) into
    f.tgt (+) Q with Q projective, so the edge's stable class is f."""
    import random

    from derlab.algebra import group_algebra_c2
    from derlab.cats import CatFunctor, cospan_category, square_category
    from derlab.diagrams import compose_diagram_maps, hom_space_diagrams, kernel_diagram, restrict
    from derlab.gorenstein import is_projective_diagram
    from derlab.samples import random_gproj

    lifts = nonzero = 0
    for alg in (dual_numbers(2), dual_numbers(3), group_algebra_c2(2)):
        for shape in (arrow_category(), cospan_category(), square_category()):
            for seed in range(3):
                rng = random.Random(seed)
                x, y = random_gproj(shape, alg, 2, rng), random_gproj(shape, alg, 2, rng)
                basis = hom_space_diagrams(x, y)
                for _ in range(3):
                    f = zero_diagram_map(x, y)
                    for b in basis:
                        f = f + b.scale(rng.randrange(alg.p))
                    z = lift_to_arrow_diagram(f)
                    assert is_gproj(z)
                    end0, end1 = (
                        restrict(CatFunctor(shape, z.shape, {o: f"({a},{o})" for o in shape.objects}, {g: f"(1_{a},{g})" for g in shape.morphisms}), z)
                        for a in (0, 1)
                    )
                    for o in shape.objects:
                        assert end0.at(o).action == x.at(o).action
                    assert all(end0.mat(g) == x.mat(g) for g in shape.nonidentity_morphisms())
                    edge = DiagramMap(x, end1, {o: z.mat(f"(e0,{shape.id_of(o)})") for o in shape.objects}).validate()
                    # end1 = y (+) Q: the first block's inclusion and projection are maps
                    eye = {o: Mat.identity(alg.p, end1.at(o).dim) for o in shape.objects}
                    DiagramMap(y, end1, {o: eye[o][:, : y.at(o).dim] for o in shape.objects}).validate()
                    proj = DiagramMap(end1, y, {o: eye[o][: y.at(o).dim, :] for o in shape.objects}).validate()
                    assert is_projective_diagram(kernel_diagram(proj)[0])
                    assert all(compose_diagram_maps(proj, edge).comps[o] == f.comps[o] for o in shape.objects)
                    lifts += 1
                    nonzero += not f.is_zero()
    assert lifts == 81 and nonzero > 40


def test_module_and_point_diagram_stable_layers_agree(dn):
    """The shared stable layer gives the same answers, witnesses included,
    for a module and for its stalk diagram over the point."""
    import random

    from derlab.modules import stable_hom
    from derlab.samples import all_modules

    point = terminal_category()
    mods = all_modules(dn, 3)
    rng = random.Random(0)
    pairs = [(rng.choice(mods), rng.choice(mods)) for _ in range(24)]
    statuses = set()
    for m, n in pairs:
        x, y = stalk_diagram(point, dn, "*", m), stalk_diagram(point, dn, "*", n)
        assert stable_hom(m, n).quotient_dim == stable_hom_diagrams(x, y).quotient_dim
        v, w = is_stable_iso(m, n), is_stable_iso_diagrams(x, y)
        assert w.status == v.status
        if v.witness is None:
            assert w.witness is None
        else:
            assert [h.comps["*"] for h in w.witness] == [h.mat for h in v.witness]
        statuses.add(v.status)
    assert statuses == {"true", "false"}


RECORDED_LIFT_SHA256 = "bf493a135ca0f00ebc4c56def67e6e03987225c66a5a9a09ea68fda21281f13e"


def lift_digest() -> str:
    """Every module action and structure map of lift_to_arrow_diagram's
    output, for identity, zero and seeded maps between seeded Gorenstein
    projectives over the arrow, cospan and square, at p = 2 and 3."""
    import hashlib
    import random

    from derlab.cats import cospan_category, square_category
    from derlab.diagrams import hom_space_diagrams
    from derlab.samples import random_gproj

    h = hashlib.sha256()

    def feed(a: np.ndarray) -> None:
        h.update(np.asarray(a.shape, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())

    for p in (2, 3):
        alg = dual_numbers(p)
        for shape in (arrow_category(), cospan_category(), square_category()):
            for seed in range(2):
                rng = random.Random(seed)
                x, y = random_gproj(shape, alg, 2, rng), random_gproj(shape, alg, 2, rng)
                maps = [identity_diagram_map(x), zero_diagram_map(x, y)]
                basis = hom_space_diagrams(x, y)
                for _ in range(2):
                    f = zero_diagram_map(x, y)
                    for b in basis:
                        f = f + b.scale(rng.randrange(p))
                    maps.append(f)
                for f in maps:
                    z = lift_to_arrow_diagram(f)
                    h.update(repr(z.shape.objects).encode())
                    for o in z.shape.objects:
                        for act in z.at(o).action:
                            feed(act.a)
                    for g in z.shape.nonidentity_morphisms():
                        h.update(g.encode())
                        feed(z.mat(g).a)
    return h.hexdigest()


def test_arrow_lifts_keep_their_bytes():
    """Recorded before the lift stopped cutting product morphism names."""
    assert lift_digest() == RECORDED_LIFT_SHA256
