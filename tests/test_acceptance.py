"""Acceptance suite: one test per criterion, printing a pass line each.

Everything runs over F_2[x]/(x^2) and the shapes point, arrow, cospan,
span, square, plus a seeded 4-object fuzz family.  All comparisons are
exact; searches are exhaustive or seeded, and no criterion tolerates an
unknown verdict."""

import random
import time

import numpy as np
import pytest

import derlab.complexes

from derlab.algebra import AlgebraError, dual_numbers, require_self_injective, upper_triangular_2x2
from derlab.cats import (
    CatFunctor,
    arrow_category,
    cospan_category,
    identity_functor,
    object_functor,
    span_category,
    square_category,
    terminal_category,
)
from derlab.field import Mat, hstack, rank
from derlab.modules import (
    Conflation,
    Module,
    is_stable_iso,
    regular_module,
    stable_hom,
    zero_module,
)
from derlab.diagrams import (
    Diagram,
    DiagramMap,
    compose_diagram_maps,
    constant_diagram,
    free_diagram,
    hom_space_diagrams,
    kernel_diagram,
    projective_cover_diagram,
    restrict,
    restrict_map,
    stalk_diagram,
    vec_diagram_map,
    zero_diagram,
)
from derlab.gorenstein import (
    _latching_ranks,
    approx_gproj,
    ginj_right_kan,
    colim_gproj_data,
    colim_gproj,
    colim_gproj_on_map,
    embed_gproj_into_proj,
    gproj_left_kan_data,
    hull_ginj,
    is_gproj,
    is_ginj,
    is_projective_diagram,
    is_wtriv,
    latching,
    stable_roundtrip_witness,
)
from derlab.homotopy import is_weak_equivalence, loop_via_square
from derlab.complexes import (
    complete_resolution,
    cone,
    is_termwise_contractible,
    shift,
    sod_decompose,
    z0,
)
from derlab import dgkan
from derlab.dgkan import (
    cone_weight,
    crosscheck_kan,
    der4_check,
    minimal_resolution,
    representable_weight,
    restriction_weight,
    shift_weight,
    weighted_holim,
)
from derlab.diagrams import dual_diagram, ext1
from derlab.samples import (
    all_diagrams,
    all_modules,
    random_direct_category,
    random_functor,
    random_gproj,
    random_left_module,
)
from oracles import contraction_on_window


@pytest.fixture(scope="module")
def alg():
    return dual_numbers(2)


@pytest.fixture(scope="module")
def enumerated(alg):
    """All diagrams with component dimensions <= 2 over the arrow and the
    cospan (shared by criteria 1 and 2)."""
    mods = all_modules(alg, 2)
    shapes = {"arrow": arrow_category(), "cospan": cospan_category()}
    out = {}
    for name, shape in shapes.items():
        out[name] = (shape, list(all_diagrams(shape, alg, 2, modules=mods)))
    return out


def _ext_oracle_gproj(shape, alg, x, cover=None):
    """Ext^1(x, stalk_j(Lambda)) = 0 for all j, from one shared presentation."""
    from derlab.field import Mat as _Mat
    import numpy as _np

    cover = cover or projective_cover_diagram(x)
    K, incl = cover.sub, cover.left
    reg = regular_module(alg)
    for j in shape.objects:
        y = stalk_diagram(shape, alg, j, reg)
        from_p = hom_space_diagrams(cover.middle, y)
        from_k = hom_space_diagrams(K, y)
        if not from_k:
            continue
        img = [vec_diagram_map(compose_diagram_maps(h, incl)) for h in from_p]
        img_rank = rank(hstack(img)) if img else 0
        if len(from_k) - img_rank != 0:
            return False
    return True


def test_criterion_01_gorenstein_recognition_oracle(alg, enumerated):
    t0 = time.time()
    total = 0
    for name, (shape, diagrams) in enumerated.items():
        for x in diagrams:
            total += 1
            assert is_gproj(x) == _ext_oracle_gproj(shape, alg, x)
    elapsed = time.time() - t0
    assert elapsed < 300
    print(f"\n[criterion 1] recognition oracle agreement on {total} diagrams in {elapsed:.1f}s: PASS")


def test_criterion_02_colimit_agreement_and_exactness(alg, enumerated):
    t0 = time.time()
    checked = 0
    gproj_pool = []
    for name, (shape, diagrams) in enumerated.items():
        for x in diagrams:
            if is_gproj(x):
                colim_gproj(x)  # internally certifies against the pointwise colimit
                checked += 1
                gproj_pool.append(x)
    assert checked >= 50
    conflations = 0
    for x in gproj_pool:
        if conflations >= 50:
            break
        emb = embed_gproj_into_proj(x)
        data = [colim_gproj_data(d) for d in (emb.sub, emb.middle, emb.quot)]
        left = colim_gproj_on_map(emb.left, data[0], data[1])
        right = colim_gproj_on_map(emb.right, data[1], data[2])
        Conflation(left, right).validate()
        conflations += 1
    assert conflations >= 50
    elapsed = time.time() - t0
    assert elapsed < 300
    print(f"\n[criterion 2] {checked} colimits certified, {conflations} colimit conflations exact in {elapsed:.1f}s: PASS")


def test_criterion_03_partial_adjunction(alg):
    rng = random.Random(3)
    arrow = arrow_category()
    e = terminal_category()
    span = span_category()
    to_point = CatFunctor(arrow, e, {"0": "*", "1": "*"}, {"e0": "1_*"})
    span_to_point = CatFunctor(span, e, {o: "*" for o in span.objects}, {f: "1_*" for f in span.nonidentity_morphisms()})
    functors = [
        object_functor(arrow, "0"),
        object_functor(arrow, "1"),
        to_point,
        identity_functor(arrow),
        span_to_point,
    ]
    count = 0
    for u in functors:
        for _ in range(4):
            x = random_gproj(u.dom, alg, 2, rng)
            y = __import__("derlab.samples", fromlist=["random_diagram"]).random_diagram(u.cod, alg, 2, rng)
            data = gproj_left_kan_data(u, x)
            lhs = hom_space_diagrams(data.diagram, y)
            rhs = hom_space_diagrams(x, restrict(u, y))
            assert len(lhs) == len(rhs)
            images = [vec_diagram_map(compose_diagram_maps(restrict_map(u, phi), data.unit)) for phi in lhs]
            if images:
                assert rank(hstack(images)) == len(lhs)  # the transport is bijective
            count += 1
    # dual side: run the same checks on dualized data (u_* on GInj)
    from derlab.cats import opposite_functor
    from derlab.samples import random_diagram

    dual_count = 0
    for u in functors[:3]:
        for _ in range(2):
            x_ginj = dual_diagram(random_gproj(opposite_functor(u).dom, alg.opposite(), 2, rng))
            assert is_ginj(x_ginj)
            y = random_diagram(u.cod, alg, 2, rng)
            from derlab.gorenstein import ginj_right_kan

            rk = ginj_right_kan(u, x_ginj)
            lhs = hom_space_diagrams(y, rk)
            rhs = hom_space_diagrams(restrict(u, y), x_ginj)
            assert len(lhs) == len(rhs)
            dual_count += 1
    assert count >= 20
    print(f"\n[criterion 3] adjunction identity + natural transport on {count} samples (+{dual_count} dual): PASS")


def test_criterion_04_cotorsion_completeness(alg):
    rng = random.Random(4)
    arrow = arrow_category()
    cospan = cospan_category()
    simple = Module(alg, [Mat.identity(2, 1), Mat.zeros(2, 1, 1)])
    reg = regular_module(alg)
    fixtures = [
        stalk_diagram(arrow, alg, "0", simple),
        stalk_diagram(arrow, alg, "1", simple),
        stalk_diagram(cospan, alg, "z", simple),
        Diagram(arrow, alg, {"0": simple, "1": reg}, {"e0": Mat(2, [[0], [1]])}),
        constant_diagram(cospan, alg, simple),
    ]
    from derlab.samples import random_diagram

    for shape in (arrow, cospan, span_category()):
        for _ in range(3):
            fixtures.append(random_diagram(shape, alg, 2, rng))
    produced_w = []
    for z in fixtures:
        tr = approx_gproj(z)
        assert tr.tags["wtriv"] and tr.tags["gproj"]
        tr.conflation.validate()
        produced_w.append((z.shape, tr.conflation.sub))
        hull = hull_ginj(z)
        assert hull.tags["ginj"] and hull.tags["wtriv"]
        hull.conflation.validate()
    ext_checks = 0
    for shape, w in produced_w:
        for _ in range(2):
            g = random_gproj(shape, alg, 2, rng)
            assert ext1(g, w).dim == 0
            ext_checks += 1
    print(f"\n[criterion 4] {len(fixtures)} approximations + hulls verified, {ext_checks} orthogonality checks: PASS")


def test_criterion_05_stable_equivalence_round_trip(alg):
    rng = random.Random(5)
    simple = Module(alg, [Mat.identity(2, 1), Mat.zeros(2, 1, 1)])
    reg = regular_module(alg)
    arrow = arrow_category()
    fixtures = [
        Diagram(arrow, alg, {"0": simple, "1": reg}, {"e0": Mat(2, [[0], [1]])}),
        constant_diagram(terminal_category(), alg, simple),
        constant_diagram(terminal_category(), alg, reg),
    ]
    for shape in (arrow, cospan_category(), span_category()):
        for _ in range(3):
            fixtures.append(random_gproj(shape, alg, 2, rng))
    count = 0
    for g in fixtures:
        psi, _ = stable_roundtrip_witness(g)
        v = is_weak_equivalence(psi)
        assert v.is_true  # deterministic: never unknown
        count += 1
    assert count >= 10
    print(f"\n[criterion 5] round trip stably trivial on {count} fixtures, no unknowns: PASS")


@pytest.mark.parametrize("p", [2, 3, 5])
def test_criterion_06_minimal_resolution(alg, p):
    # at odd p the differentials carry coefficients other than 0 and 1
    t0 = time.time()
    rng = random.Random(6)
    checked = 0
    while checked < 30:
        cat = random_direct_category(rng)
        m = random_left_module(cat, p, 3, rng)
        cx = minimal_resolution(m)  # verifies augmented exactness internally
        dgkan._check_resolution(cx, m)
        # longest chain of composable non-identity arrows
        longest = 0
        for o in cat.objects:
            stack = [(o, 0)]
            while stack:
                cur, depth = stack.pop()
                longest = max(longest, depth)
                for o2 in cat.objects:
                    if cat.degree[o2] > cat.degree[cur] and cat.hom(cur, o2):
                        stack.append((o2, depth + 1))
        assert -min(cx.degrees(), default=0) <= longest
        # minimal: degree q has dim x_j - rank lambda_j blocks at j, for x
        # the diagram it covers (m, then the kernel of the map one degree
        # up), by the latching ranks; below the last degree nothing is left
        k = m.alg
        x, target, down = m, m, cx.aug
        for q in range(0, min(cx.degrees(), default=0) - 2, -1):
            for j in cat.objects:
                blocks = sum(1 for qb, obj, _ in cx.blocks if (qb, obj) == (q, j))
                assert blocks == x.at(j).dim - _latching_ranks(x, j)[1]
            term = free_diagram(cat, k, [(obj, regular_module(k)) for qb, obj, _ in cx.blocks if qb == q])
            x = kernel_diagram(DiagramMap(term, target, down))[0]
            target, down = term, {a: cx.diff_matrix_at(q - 1, a) for a in cat.objects}
        assert all(x.at(j).dim == 0 for j in cat.objects)
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 120
    print(f"\n[criterion 6] minimal resolution: exact, length bound, minimal, on {checked} random weights at p = {p} in {elapsed:.1f}s: PASS")


def test_criterion_07_weighted_holim_sanity(alg):
    simple = Module(alg, [Mat.identity(2, 1), Mat.zeros(2, 1, 1)])
    e = terminal_category()
    arrow = arrow_category()
    c = complete_resolution(constant_diagram(e, alg, simple))
    # representable => evaluation, exactly
    x = Diagram(arrow, alg, {"0": simple, "1": regular_module(alg)}, {"e0": Mat(2, [[0], [1]])})
    cx = complete_resolution(x)
    for i in ("0", "1"):
        h = weighted_holim(representable_weight(arrow, 2, i), cx)
        for n in (-1, 0, 1):
            assert h.term(n).at("*").dim == cx.term(n).at(i).dim
            assert h.diff(n).comps["*"] == cx.diff(n).comps[i]
    # shift weight => shift
    for n in (1, -1, 2):
        h = weighted_holim(shift_weight(2, n), c)
        s = shift(c, n)
        for k in (-1, 0, 1):
            assert h.term(k).at("*").dim == s.term(k).at("*").dim
            assert h.diff(k).comps["*"] == s.diff(k).comps["*"]
    # cone weight => cone shifted by -1, degreewise against complex-lab: the
    # weighted holim computes cone(f)[-1] up to the sign isomorphism, exactly
    # at p = 2
    from derlab.complexes import ComplexMap, LazyComplex

    f = ComplexMap(c, c, {k: DiagramMap(c.term(k), c.term(k), {"*": c.term(k).at("*").action[1]}) for k in range(-4, 5)})
    f.verify_chain_on(-3, 3)

    def term_fn(n):
        t = c.term(n).at("*")
        return Diagram(arrow, alg, {"0": t, "1": t}, {"e0": f.comp(n).comps["*"]})

    def diff_fn(n):
        d = c.diff(n).comps["*"]
        return {"0": d, "1": d}

    fam = LazyComplex(arrow, alg, term_fn, diff_fn)
    h = weighted_holim(cone_weight(2), fam)
    cf = cone(f)
    for k in (-1, 0, 1):
        assert h.term(k).at("*").dim == cf.term(k - 1).at("*").dim
        assert h.diff(k).comps["*"] == cf.diff(k - 1).comps["*"]
    print("\n[criterion 7] representable/shift/cone weight collapses exact: PASS")


def test_criterion_08_der4(alg):
    rng = random.Random(8)
    from derlab.complexes import LazyComplex
    from derlab.samples import random_diagram

    passed = 0
    attempts = 0
    while passed < 30 and attempts < 200:
        attempts += 1
        dom = random_direct_category(rng)
        cod = random_direct_category(rng)
        u = random_functor(rng, dom, cod)
        if u is None:
            continue
        j = rng.choice(cod.objects)
        d0 = random_diagram(dom, alg, 2, rng)
        t = LazyComplex.bounded(dom, alg, {0: d0}, {})
        rep = der4_check(u, j, t, -1, 1)
        assert rep.ok, f"Der4 failed for functor onto {j}"
        passed += 1
    assert passed >= 30
    print(f"\n[criterion 8] Der4 underived + derived comparisons on {passed} random instances: PASS")


def test_criterion_09_cross_model_kan(alg):
    rng = random.Random(9)
    simple = Module(alg, [Mat.identity(2, 1), Mat.zeros(2, 1, 1)])
    reg = regular_module(alg)
    e = terminal_category()
    arrow = arrow_category()
    cospan = cospan_category()
    square = square_category()
    socle_arrow = Diagram(arrow, alg, {"0": simple, "1": reg}, {"e0": Mat(2, [[0], [1]])})
    k_point = constant_diagram(e, alg, simple)
    to_point = CatFunctor(arrow, e, {"0": "*", "1": "*"}, {"e0": "1_*"})
    corner_incl = CatFunctor(
        cospan, square,
        {"x": "(0,1)", "y": "(1,0)", "z": "(1,1)"},
        {"f": "(e0,1_1)", "g": "(1_1,e0)"},
    )
    pairs = [
        (identity_functor(arrow), socle_arrow),
        (identity_functor(arrow), random_gproj(arrow, alg, 2, rng)),
        (object_functor(arrow, "0"), k_point),                    # sieve e -> [1]
        (object_functor(arrow, "0"), constant_diagram(e, alg, reg)),
        (object_functor(arrow, "1"), k_point),                    # cosieve e -> [1]
        (object_functor(arrow, "1"), constant_diagram(e, alg, reg)),
        (to_point, socle_arrow),                                  # projection to e
        (to_point, random_gproj(arrow, alg, 2, rng)),
        (to_point, random_gproj(arrow, alg, 2, rng)),
        (object_functor(cospan, "x"), k_point),
        (object_functor(cospan, "z"), k_point),                   # cosieve into cospan
        (CatFunctor(cospan, e, {o: "*" for o in cospan.objects}, {f: "1_*" for f in cospan.nonidentity_morphisms()}),
         random_gproj(cospan, alg, 2, rng)),                      # projection cospan -> e
        (CatFunctor(span_category(), e, {o: "*" for o in span_category().objects}, {f: "1_*" for f in span_category().nonidentity_morphisms()}),
         random_gproj(span_category(), alg, 2, rng)),
        (corner_incl, stalk_diagram(cospan, alg, "z", simple)),   # the square inclusion
        (corner_incl, random_gproj(cospan, alg, 1, rng)),
    ]
    t0 = time.time()
    for idx, (u, x) in enumerate(pairs):
        v = crosscheck_kan(u, x, margin=1)
        assert v.is_true, f"crosscheck pair {idx} returned {v.status}: {v.reason}"
    # one right-direction dual check: u: [1] -> e on a Gorenstein injective
    from derlab.cats import opposite_category, opposite_functor

    op_arrow = opposite_category(arrow)
    ginj_fixture = dual_diagram(random_gproj(op_arrow, alg, 2, rng))
    assert is_ginj(ginj_fixture)
    v = crosscheck_kan(to_point, ginj_fixture, direction="right", margin=1)
    assert v.is_true
    elapsed = time.time() - t0
    print(f"\n[criterion 9] cross-model agreement on {len(pairs)}+1 pairs in {elapsed:.1f}s, no unknowns: PASS")


def test_criterion_10_stability(alg):
    t0 = time.time()
    mods = all_modules(alg, 4)
    count = 0
    for m in mods:
        res = loop_via_square(m)
        assert res.versus_syzygy.is_true, f"loop pipeline disagreed with the syzygy on a dim-{m.dim} module"
        count += 1
    elapsed = time.time() - t0
    print(f"\n[criterion 10] loop-through-square ~ syzygy on all {count} modules of dim <= 4 in {elapsed:.1f}s: PASS")


def test_criterion_11_sod(alg):
    assert not hasattr(derlab.complexes, "contraction_on_window")  # the joint solve is the tests' oracle
    simple = Module(alg, [Mat.identity(2, 1), Mat.zeros(2, 1, 1)])
    reg = regular_module(alg)
    arrow = arrow_category()
    cospan = cospan_category()
    rng = random.Random(11)
    fixtures = []
    for shape in (terminal_category(), arrow, cospan):
        fixtures.append(complete_resolution(random_gproj(shape, alg, 2, rng)))
    socle_arrow = Diagram(arrow, alg, {"0": simple, "1": reg}, {"e0": Mat(2, [[0], [1]])})
    fixtures.append(complete_resolution(socle_arrow))
    # a non-complete-resolution fixture with termwise projective terms
    from derlab.complexes import LazyComplex
    from derlab.diagrams import identity_diagram_map

    stalkL = stalk_diagram(arrow, alg, "0", reg)
    fixtures.append(LazyComplex.bounded(arrow, alg, {0: stalkL, 1: stalkL}, {0: identity_diagram_map(stalkL)}))
    for idx, c in enumerate(fixtures):
        res = sod_decompose(c, -1, 1)
        assert is_termwise_contractible(res.tc_part, -1, 1)
        for k in (-1, 0, 1):
            assert is_projective_diagram(res.p_part.term(k))
        if getattr(c, "seed", None) is not None:
            # complete resolutions: the tc part is null on the window
            assert contraction_on_window(res.tc_part, -2, 2) is not None
    print(f"\n[criterion 11] semiorthogonal decomposition postconditions on {len(fixtures)} fixtures: PASS")


def test_criterion_12_gates_and_negatives(alg):
    with pytest.raises(AlgebraError):
        require_self_injective(upper_triangular_2x2(2))
    simple = Module(alg, [Mat.identity(2, 1), Mat.zeros(2, 1, 1)])
    reg = regular_module(alg)
    arrow = arrow_category()
    assert not is_gproj(stalk_diagram(arrow, alg, "0", simple))
    assert not is_gproj(stalk_diagram(arrow, alg, "0", reg))
    v = is_stable_iso(simple, reg)
    assert v.is_false and v.reason
    print("\n[criterion 12] self-injectivity gate + negative classifications: PASS")
