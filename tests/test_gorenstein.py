import numpy as np
import pytest

from derlab.algebra import dual_numbers
from derlab.cats import (
    arrow_category,
    cospan_category,
    full_subcategory,
    object_functor,
    square_category,
    terminal_category,
    CatFunctor,
)
from derlab.field import Mat, rank
from derlab.modules import Module, direct_sum, is_projective, regular_module
from derlab.diagrams import (
    Diagram,
    DiagramMap,
    compose_diagram_maps,
    constant_diagram,
    direct_sum_diagrams,
    dual_diagram,
    ext1,
    hom_space_diagrams,
    left_kan_from_point,
    projective_cover_diagram,
    restrict,
    right_kan_from_point,
    stalk_diagram,
    zero_diagram,
)
from derlab.gorenstein import (
    ApproximationTriple,
    PreconditionError,
    VerificationError,
    approx_gproj,
    colim_gproj,
    embed_gproj_into_proj,
    ginj_right_kan,
    gproj_left_kan,
    gproj_left_kan_data,
    gproj_witness_report,
    hull_ginj,
    is_gproj,
    is_ginj,
    is_injective_diagram,
    is_projective_diagram,
    is_wtriv,
    latching,
    matching,
    stable_equiv_on_map,
    stable_ginj_replacement,
    stable_roundtrip_witness,
    stalk_presentation,
    co_stalk_presentation,
)
from oracles import is_deflation, is_projective_inflation


@pytest.fixture(scope="module")
def arrow():
    return arrow_category()


@pytest.fixture(scope="module")
def socle_arrow(dn, simple, reg, arrow):
    return Diagram(arrow, dn, {"0": simple, "1": reg}, {"e0": Mat(2, [[0], [1]])}).validate()


@pytest.fixture(scope="module")
def proj_to_simple(dn, simple, reg, arrow):
    return Diagram(arrow, dn, {"0": reg, "1": simple}, {"e0": Mat(2, [[1, 0]])}).validate()


def test_latching_over_arrow(dn, socle_arrow):
    lat = latching(socle_arrow, "1")
    assert lat.module.dim == 1            # L_1(X) = X_0
    assert lat.map.mat.cols == 1
    assert rank(lat.map.mat) == 1         # the socle map is injective
    lat0 = latching(socle_arrow, "0")
    assert lat0.module.dim == 0           # empty colimit at a minimal object


def test_latching_square_pushout(dn, simple, reg):
    sq = square_category()
    # X constant Lambda: latching at the terminal corner is the pushout of
    # Lambda <- Lambda -> Lambda along identities, i.e. Lambda + Lambda - Lambda
    x = constant_diagram(sq, dn, reg)
    corner = [o for o in sq.objects if sq.degree[o] == 2][0]
    lat = latching(x, corner)
    assert lat.module.dim == 2  # pushout of identities collapses to Lambda


def test_matching_over_arrow(dn, proj_to_simple):
    mat = matching(proj_to_simple, "0")
    assert mat.module.dim == 1    # M_0(Y) = Y_1
    assert is_deflation(mat)      # Lambda ->> k
    mat1 = matching(proj_to_simple, "1")
    assert mat1.module.dim == 0   # empty limit at a maximal object


def test_latching_of_free_diagram(dn, reg, simple, arrow):
    # for x = i_!(P): latching iso away from i, section with cokernel P at i
    for i in ("0", "1"):
        x = left_kan_from_point(arrow, dn, i, reg)
        for j in ("0", "1"):
            lat = latching(x, j)
            if j != i:
                assert lat.module.dim == x.at(j).dim and lat.is_inflation
            else:
                assert lat.is_inflation
                assert x.at(j).dim - lat.module.dim == reg.dim


def test_stalk_presentation_split(dn, simple, reg, arrow):
    for j in ("0", "1"):
        pres = stalk_presentation(arrow, dn, j, reg)
        pres.validate()
        # degreewise split: each object is either identity-like or zero-sided
        for o in arrow.objects:
            from derlab.modules import Conflation, split_section

            assert split_section(pres.right.at(o)) is not None
    # j maximal: the kernel vanishes and the stalk equals j_!(P)
    pres1 = stalk_presentation(arrow, dn, "1", reg)
    assert pres1.sub.total_dim() == 0


def test_stalk_presentation_at_min(dn, reg, arrow):
    pres = stalk_presentation(arrow, dn, "0", reg)
    assert pres.sub.at("0").dim == 0
    assert pres.sub.at("1").dim == reg.dim
    assert pres.quot.at("0").dim == reg.dim and pres.quot.at("1").dim == 0


def test_co_stalk_presentation(dn, reg, arrow):
    pres = co_stalk_presentation(arrow, dn, "1", reg)
    pres.validate()
    assert pres.sub.at("1").dim == reg.dim and pres.sub.at("0").dim == 0


def test_is_gproj_examples(dn, simple, reg, arrow, socle_arrow, proj_to_simple):
    assert is_gproj(left_kan_from_point(arrow, dn, "0", reg))
    assert is_gproj(socle_arrow)
    assert not is_gproj(stalk_diagram(arrow, dn, "0", simple))
    assert is_ginj(proj_to_simple)
    assert is_gproj(zero_diagram(arrow, dn))
    assert is_ginj(zero_diagram(arrow, dn))


def test_is_wtriv_examples(dn, simple, reg, arrow):
    lambda_to_zero = Diagram(arrow, dn, {"0": reg, "1": direct_sum([reg])[0]}, {"e0": Mat.identity(2, 2)})
    assert is_wtriv(lambda_to_zero)
    assert is_wtriv(stalk_diagram(arrow, dn, "0", reg))
    assert not is_wtriv(socle := Diagram(arrow, dn, {"0": simple, "1": reg}, {"e0": Mat(2, [[0], [1]])}))


def test_gproj_oracle_equivalence_samples(dn, simple, reg, arrow, socle_arrow):
    # latching criterion vs Ext^1 against stalks of the regular module
    samples = [
        socle_arrow,
        stalk_diagram(arrow, dn, "0", simple),
        stalk_diagram(arrow, dn, "1", simple),
        left_kan_from_point(arrow, dn, "0", reg),
        stalk_diagram(arrow, dn, "0", reg),
    ]
    for x in samples:
        oracle = all(ext1(x, stalk_diagram(arrow, dn, j, reg)).dim == 0 for j in arrow.objects)
        assert is_gproj(x) == oracle


def test_proj_equals_gproj_cap_wtriv(dn, simple, reg, arrow, socle_arrow):
    samples = [
        left_kan_from_point(arrow, dn, "0", reg),
        left_kan_from_point(arrow, dn, "1", reg),
        stalk_diagram(arrow, dn, "0", reg),
        socle_arrow,
        stalk_diagram(arrow, dn, "0", simple),
    ]
    for x in samples:
        assert is_projective_diagram(x) == (is_gproj(x) and is_wtriv(x))


def test_colim_gproj_terminal(dn, socle_arrow):
    c = colim_gproj(socle_arrow)
    assert c.dim == 2  # colimit over a shape with terminal object is X_1


def test_colim_gproj_cospan(dn, simple, reg):
    cos = cospan_category()
    # (Lambda <- k -> Lambda) pushout has dimension 3; shape arrows x->z, y->z
    x = Diagram(
        cos,
        dn,
        {"x": simple, "y": simple, "z": direct_sum([reg, reg])[0]},
        {
            "f": Mat(2, [[0], [1], [0], [0]]),
            "g": Mat(2, [[0], [0], [0], [1]]),
        },
    ).validate()
    # this diagram is NOT a span; build the span shape instead
    span_like = None
    from derlab.cats import span_category

    sp = span_category()
    y = Diagram(
        sp,
        dn,
        {"w": simple, "x": reg, "y": reg},
        {"f": Mat(2, [[0], [1]]), "g": Mat(2, [[0], [1]])},
    ).validate()
    assert is_gproj(y)
    c = colim_gproj(y)
    assert c.dim == 3


def test_colim_gproj_precondition(dn, simple, arrow):
    bad = stalk_diagram(arrow, dn, "0", simple)
    with pytest.raises(PreconditionError):
        colim_gproj(bad)


def test_colim_exactness_on_conflation(dn, simple, reg, arrow, socle_arrow):
    # conflation of GProj diagrams: socle_arrow >-> P ->> quotient
    emb = embed_gproj_into_proj(socle_arrow)
    seq = [emb.sub, emb.middle, emb.quot]
    dims = [colim_gproj(x).dim for x in seq]
    assert dims[0] + dims[2] == dims[1]


def test_gproj_left_kan_identity(dn, socle_arrow, arrow):
    from derlab.cats import identity_functor

    u = identity_functor(arrow)
    y = gproj_left_kan(u, socle_arrow)
    for o in arrow.objects:
        assert y.at(o).dim == socle_arrow.at(o).dim


def test_gproj_left_kan_to_point(dn, socle_arrow, arrow):
    to_point = CatFunctor(arrow, terminal_category(), {"0": "*", "1": "*"}, {"e0": "1_*"})
    y = gproj_left_kan(to_point, socle_arrow)
    assert y.at("*").dim == 2  # Lambda


def test_gproj_left_kan_checks_only_its_input_and_its_output(dn, socle_arrow, arrow, monkeypatch):
    """The slice restrictions are not checked again: colim_gproj_data
    refuses one whose latching maps are not inflations."""
    import derlab.gorenstein as gor

    seen = []
    is_gproj = gor.is_gproj
    monkeypatch.setattr(gor, "is_gproj", lambda x: (seen.append(x), is_gproj(x))[1])
    for u in (CatFunctor(arrow, terminal_category(), {"0": "*", "1": "*"}, {"e0": "1_*"}), object_functor(arrow, "1")):
        seen.clear()
        x = socle_arrow if u.dom is arrow else restrict(u, socle_arrow)
        data = gproj_left_kan_data(u, x)
        assert len(seen) == 2 and seen[0] is x and seen[1] is data.diagram


def test_gproj_left_kan_extension_formula(dn, reg, arrow):
    u = object_functor(arrow, "0")
    x = constant_diagram(terminal_category(), dn, reg)
    y = gproj_left_kan(u, x)
    assert y.at("0").dim == 2 and y.at("1").dim == 2
    assert rank(y.mat("e0")) == 2


def test_gproj_left_kan_adjunction(dn, simple, reg, arrow, socle_arrow, proj_to_simple):
    u = object_functor(arrow, "0")
    x = constant_diagram(terminal_category(), dn, simple)
    data = gproj_left_kan_data(u, x)
    for y in (socle_arrow, proj_to_simple):
        assert len(hom_space_diagrams(data.diagram, y)) == len(hom_space_diagrams(x, restrict(u, y)))


def test_gproj_left_kan_naturality_of_adjunction(dn, simple, arrow, socle_arrow):
    # transport a map along the unit: Phi(phi) = u^*(phi) o unit is a bijection
    u = object_functor(arrow, "0")
    x = constant_diagram(terminal_category(), dn, simple)
    data = gproj_left_kan_data(u, x)
    from derlab.diagrams import restrict_map, vec_diagram_map
    from derlab.field import hstack, rank as mrank

    homs_up = hom_space_diagrams(data.diagram, socle_arrow)
    images = []
    for phi in homs_up:
        transported = compose_diagram_maps(restrict_map(u, phi), data.unit)
        images.append(vec_diagram_map(transported))
    if images:
        assert mrank(hstack(images)) == len(homs_up)  # injective, hence bijective


def test_ginj_right_kan_dual(dn, proj_to_simple, arrow):
    to_point = CatFunctor(arrow, terminal_category(), {"0": "*", "1": "*"}, {"e0": "1_*"})
    y = ginj_right_kan(to_point, proj_to_simple)
    # [1] has an initial object, so the limit is X_0 = Lambda
    assert y.at("*").dim == 2
    from derlab.diagrams import pointwise_right_kan

    oracle = pointwise_right_kan(to_point, proj_to_simple)
    assert y.at("*").dim == oracle.at("*").dim


def test_sieve_restriction_preserves_gproj(dn, socle_arrow, arrow):
    u = object_functor(arrow, "0")  # a sieve
    assert is_gproj(restrict(u, socle_arrow))
    v = object_functor(arrow, "1")  # a cosieve
    from derlab.diagrams import dual_diagram

    assert is_ginj(restrict(v, hull_ginj(socle_arrow).conflation.middle))


def test_embed_gproj_example(dn, socle_arrow):
    emb = embed_gproj_into_proj(socle_arrow)
    emb.validate()
    q = emb.middle
    # Q = 0_!(Lambda) (+) 1_!(Lambda): dims (2, 4)
    assert q.at("0").dim == 2 and q.at("1").dim == 4
    assert is_projective_diagram(q)
    assert is_gproj(emb.quot)


def test_embed_gproj_places_fresh_parts_on_shapes_out_of_degree_order():
    """Over the opposite square and cospan, whose object lists are not in
    degree order, Q is the sum of the free diagrams of the fresh parts in
    shape.objects order, and at each i the slot of Q_i's own part (1_i)
    receives a map that kills exactly the image of the latching map at i."""
    import random

    from derlab.cats import opposite_category
    from derlab.samples import random_gproj

    seen = 0
    for shape in (opposite_category(square_category()), opposite_category(cospan_category())):
        assert shape.objects != shape.objects_by_degree()
        for alg in (dual_numbers(2), dual_numbers(3)):
            rng = random.Random(len(shape.objects) + alg.p)
            for _ in range(8):
                g = random_gproj(shape, alg, 2, rng)
                if is_projective_diagram(g):
                    continue
                emb = embed_gproj_into_proj(g).validate()
                q = emb.middle
                # the fresh part at i fills what the parts of lower objects leave of Q_i
                offset, fresh = {}, {}
                for i in shape.objects_by_degree():
                    k = shape.objects.index(i)
                    lower = [(j, len(shape.hom(j, i))) for j in shape.objects if j != i and shape.hom(j, i)]
                    offset[i] = sum(n * fresh[j].dim for j, n in lower if shape.objects.index(j) < k)
                    end = q.at(i).dim - sum(n * fresh[j].dim for j, n in lower if shape.objects.index(j) > k)
                    fresh[i] = Module(alg, [a[offset[i] : end, offset[i] : end] for a in q.at(i).action])
                want = direct_sum_diagrams([left_kan_from_point(shape, alg, j, fresh[j]) for j in shape.objects])[0]
                for o in shape.objects:
                    assert all(np.array_equal(x.a, y.a) for x, y in zip(q.at(o).action, want.at(o).action))
                assert all(np.array_equal(q.mats[f].a, want.mats[f].a) for f in shape.nonidentity_morphisms())
                for i in shape.objects:
                    lat = latching(g, i)
                    own = emb.left.comps[i][offset[i] : offset[i] + fresh[i].dim, :]
                    assert (own @ lat.map.mat).is_zero()
                    assert rank(own) == g.at(i).dim - lat.module.dim
                seen += 1
    assert seen >= 24


def test_embed_gproj_projective_shortcircuit(dn, reg, arrow):
    x = left_kan_from_point(arrow, dn, "0", reg)
    emb = embed_gproj_into_proj(x)
    assert emb.quot.total_dim() == 0


def test_embed_quotient_latchings(dn, socle_arrow, arrow):
    emb = embed_gproj_into_proj(socle_arrow)
    for j in arrow.objects:
        assert latching(emb.quot, j).is_inflation


def test_embed_gproj_fails_after_one_construction(socle_arrow, monkeypatch):
    # a failed postcondition is a VerificationError with nothing rebuilt:
    # one injective envelope per object
    import derlab.gorenstein as gor

    envelopes = []
    injective_embed = gor.injective_embed

    def counted(m):
        envelopes.append(m)
        return injective_embed(m)

    monkeypatch.setattr(gor, "injective_embed", counted)
    monkeypatch.setattr(gor, "is_gproj", lambda x: False)
    with pytest.raises(gor.VerificationError, match="cokernel"):
        gor.embed_gproj_into_proj(socle_arrow)
    assert len(envelopes) == len(socle_arrow.shape.objects)


def test_approx_gproj_trivial(dn, socle_arrow):
    tr = approx_gproj(socle_arrow)
    assert tr.conflation.sub.total_dim() == 0


def test_approx_gproj_stalk(dn, simple, arrow):
    z = stalk_diagram(arrow, dn, "0", simple)
    tr = approx_gproj(z)
    tr.conflation.validate()
    assert tr.tags["wtriv"] and tr.tags["gproj"]
    assert tr.conflation.quot.at("0").dim == z.at("0").dim


def test_approx_orthogonality(dn, simple, reg, arrow, socle_arrow):
    z = stalk_diagram(arrow, dn, "0", simple)
    tr = approx_gproj(z)
    w = tr.conflation.sub
    for g in (socle_arrow, left_kan_from_point(arrow, dn, "0", reg)):
        assert ext1(g, w).dim == 0


def test_hull_ginj(dn, socle_arrow):
    tr = hull_ginj(socle_arrow)
    tr.conflation.validate()
    assert tr.tags["ginj"] and tr.tags["wtriv"]


def test_hull_unit_componentwise_split(dn, socle_arrow, arrow):
    from derlab.modules import split_retraction

    tr = hull_ginj(socle_arrow)
    for o in arrow.objects:
        assert split_retraction(tr.conflation.left.at(o)) is not None


def test_hull_trivial_on_ginj(dn, proj_to_simple):
    tr = hull_ginj(proj_to_simple)
    assert tr.conflation.quot.total_dim() == 0


def test_stable_equiv_roundtrip(dn, socle_arrow, arrow):
    psi, data = stable_roundtrip_witness(socle_arrow)
    # psi: g -> F^{-1}(F(g)) must be a degreewise stable isomorphism
    from derlab.modules import is_stable_iso_map

    for o in arrow.objects:
        ok, _ = is_stable_iso_map(psi.at(o))
        assert ok


def test_stable_equiv_identity_to_identity(dn, socle_arrow):
    data = stable_ginj_replacement(socle_arrow)
    from derlab.diagrams import identity_diagram_map
    from derlab.modules import stable_hom

    fid = stable_equiv_on_map(data, data, identity_diagram_map(socle_arrow))
    # F(id) - id factors through an injective at every component
    diff = fid - identity_diagram_map(data.conflation.middle)
    for o in socle_arrow.shape.objects:
        comp = diff.at(o)
        # maps factoring through injectives = through projectives here
        rep = stable_hom(comp.src, comp.tgt)
        assert rep.in_proj_subspace(comp)


def test_wtriv_thickness_samples(dn, simple, reg, arrow):
    # closed under extensions / kernels of deflations / cokernels of inflations
    p0 = stalk_diagram(arrow, dn, "0", reg)
    p1 = left_kan_from_point(arrow, dn, "0", reg)
    total = direct_sum_diagrams([p0, p1])[0]
    assert is_wtriv(p0) and is_wtriv(p1) and is_wtriv(total)
    cover = projective_cover_diagram(total)
    assert is_wtriv(cover.sub)  # kernel of a deflation between weakly trivials


def test_wtriv_two_out_of_three(dn, simple, reg, arrow):
    # all three positions in degreewise conflations, on explicit witnesses
    from derlab.diagrams import injective_embed_diagram, kernel_diagram, cokernel_diagram

    p0 = stalk_diagram(arrow, dn, "0", reg)
    # extension: middle of a conflation with weakly trivial ends
    emb = injective_embed_diagram(p0)
    assert is_wtriv(p0) and is_wtriv(emb.middle) and is_wtriv(emb.quot)
    # kernel of a deflation between weakly trivials
    cover = projective_cover_diagram(emb.middle)
    assert is_wtriv(cover.sub)
    # cokernel of an inflation between weakly trivials
    assert is_wtriv(injective_embed_diagram(cover.sub).quot)
    # retract: direct summands of weakly trivials stay weakly trivial
    total = direct_sum_diagrams([p0, emb.middle])[0]
    assert is_wtriv(total)


def _matching_by_limit(y, j):
    """Independent oracle: the dimension of the limit of y over the punctured
    slice above j, and the rank of the canonical map from y_j into it."""
    from derlab.cats import punctured_slice
    from derlab.diagrams import limit_of_diagram
    from derlab.field import solve, vstack

    pres = punctured_slice(y.shape, j, "over")
    lim, cone = limit_of_diagram(restrict(pres.projection, y))
    objs = pres.cat.objects
    if not objs:
        return lim.dim, 0
    coords = solve(vstack([cone[o].mat for o in objs]), vstack([y.mat(pres.pairs[o][1]) for o in objs]))
    assert coords is not None
    return lim.dim, rank(coords)


def test_derived_right_side_matches_direct_limits():
    """matching, is_ginj and pointwise_right_kan go through duality; compare
    them with limits computed directly on seeded random diagrams."""
    import random

    from derlab.cats import identity_functor, slice_category, span_category
    from derlab.diagrams import limit_of_diagram, pointwise_right_kan
    from derlab.samples import random_diagram

    shapes = [arrow_category(), cospan_category(), span_category(), square_category()]
    ginj_seen = set()
    for p in (2, 3):
        alg = dual_numbers(p)
        for shape in shapes:
            point = terminal_category()
            to_point = CatFunctor(shape, point, {o: "*" for o in shape.objects}, {f: "1_*" for f in shape.morphisms})
            inclusions = [full_subcategory(shape, [o for o in shape.objects if o != drop])[1] for drop in shape.objects]
            for seed in range(5):
                y = random_diagram(shape, alg, 2, random.Random(f"{p}/{shape.objects}/{seed}"))
                onto = []
                for j in shape.objects:
                    md = matching(y, j)
                    lim_dim, lim_rank = _matching_by_limit(y, j)
                    assert (md.module.dim, rank(md.map.mat)) == (lim_dim, lim_rank)
                    onto.append(lim_rank == lim_dim)
                assert is_ginj(y) == all(onto)
                ginj_seen.add(all(onto))
                for u in [identity_functor(shape), to_point] + inclusions:
                    x = y if u.dom is shape else restrict(u, y)
                    r = pointwise_right_kan(u, x).validate()
                    for j in u.cod.objects:
                        pres = slice_category(u, j, "over")
                        assert r.at(j).dim == limit_of_diagram(restrict(pres.projection, x))[0].dim
    assert ginj_seen == {True, False}


def _latching_oracle(x):
    """is_gproj, is_ginj, is_projective_diagram and the witness report's
    latching/matching fields, from the LatchingDatum of x and of D x."""
    lats = {j: latching(x, j) for j in x.shape.objects}
    # matching(x, j) is the transpose of latching(D x, j)
    duals = {j: latching(dual_diagram(x), j) for j in x.shape.objects}
    fields = {
        j: {
            "latching_dim": lats[j].module.dim,
            "latching_rank": rank(lats[j].map.mat),
            "latching_inflation": lats[j].is_inflation,
            "matching_dim": duals[j].module.dim,
            "matching_rank": rank(duals[j].map.mat),
            "matching_deflation": duals[j].is_inflation,
        }
        for j in x.shape.objects
    }
    return (
        all(lat.is_inflation for lat in lats.values()),
        all(lat.is_inflation for lat in duals.values()),
        all(is_projective_inflation(lat) for lat in lats.values()),
        fields,
    )


def _rank_answers(x):
    report = gproj_witness_report(x)
    for row in report.values():
        row.pop("component_projective")
    return is_gproj(x), is_ginj(x), is_projective_diagram(x), report


def test_rank_recognition_matches_the_latching_colimit():
    """is_gproj, is_ginj, is_projective_diagram and gproj_witness_report
    decide by two ranks; they agree with the LatchingDatum answers on
    prefixes of every diagram of dim <= 2 over the arrow, cospan and span
    and on seeded random and Gorenstein-projective squares, over
    F_2[x]/(x^2), F_3[x]/(x^2) and F_2C_2, with both outcomes of each
    predicate present for each algebra."""
    import random
    from itertools import islice

    from derlab.algebra import group_algebra_c2
    from derlab.cats import span_category
    from derlab.samples import all_diagrams, all_modules, random_diagram, random_gproj

    square = square_category()
    for alg in (dual_numbers(2), dual_numbers(3), group_algebra_c2(2)):
        seen = set()
        mods = all_modules(alg, 2)
        samples = [
            x
            for shape in (arrow_category(), cospan_category(), span_category())
            for x in islice(all_diagrams(shape, alg, 2, mods), 60)
        ]
        for seed in range(4):
            rng = random.Random(seed)
            samples += [random_diagram(square, alg, 2, rng), random_gproj(square, alg, 1, rng)]
        for x in samples:
            oracle = _latching_oracle(x)
            assert _rank_answers(x) == oracle
            seen.update((k, oracle[k]) for k in range(3))
        assert seen == {(k, b) for k in range(3) for b in (True, False)}


def test_noncommuting_square_is_refused_not_answered(dn, reg, simple):
    """A square of identities with a zero diagonal passes the Diagram shape
    checks.  On Lambda every latching map before the terminal corner is a
    projective inflation; on the simple k the corner (0,0) already has a
    non-projective cokernel, so a predicate that stopped at the first
    failing object would answer False.  The T R = 0 check at the terminal
    corner refuses both."""
    square = square_category()
    for m in (reg, simple):
        mats = {f: Mat.identity(2, m.dim) for f in square.nonidentity_morphisms()}
        mats["(e0,e0)"] = Mat.zeros(2, m.dim, m.dim)
        x = Diagram(square, dn, {o: m for o in square.objects}, mats)
        assert not x.is_functorial()
        for decide in (is_gproj, is_ginj, is_projective_diagram, is_injective_diagram, gproj_witness_report):
            with pytest.raises(VerificationError, match="do not commute"):
                decide(x)


def test_recognition_builds_no_latching_colimit(request):
    """Over the diagrams of the regression scenario and the square scenario
    diagram, the recognition predicates and the witness report agree with
    the LatchingDatum answers, taken first, and then never reach latching or
    colimit_of_diagram."""
    import json
    from pathlib import Path

    from derlab.cli import Session

    scenarios = Path(__file__).resolve().parent.parent / "scenarios"
    doc = json.loads((scenarios / "regression.json").read_text())
    doc["categories"]["square"] = "cat_square.json"
    doc["diagrams"]["square_simple"] = "diag_square_simple.json"
    s = Session(doc, scenarios)
    s.load()
    assert len(s.diagrams) == 5
    oracles = [_latching_oracle(x) for x in s.diagrams.values()]
    request.getfixturevalue("refuse_latching_colimit")
    for x, oracle in zip(s.diagrams.values(), oracles):
        assert _rank_answers(x) == oracle
        assert is_injective_diagram(x) == is_projective_diagram(dual_diagram(x))


def test_a_warm_pushout_inductive_colimit_builds_no_category(monkeypatch):
    """colim_gproj_data walks x's own shape in degree order, so once the
    square's punctured slices are cached on it, a second call builds no
    DirectCategory (no subcategory per step), with the cold call's bytes."""
    import random

    from derlab import cats
    from derlab.gorenstein import colim_gproj_data
    from derlab.samples import random_gproj

    x = random_gproj(square_category(), dual_numbers(3), 2, random.Random(37))
    assert sum(x.at(o).dim > 0 for o in x.shape.objects) > 1

    def data_bytes(data):
        C, cocone = data
        return [a.a.tobytes() for a in C.action], [(o, leg.mat.a.tobytes(), leg.section.tobytes()) for o, leg in cocone.items()]

    cold = data_bytes(colim_gproj_data(x))
    built = []
    original = cats.DirectCategory.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(cats.DirectCategory, "__init__", counting)
    assert data_bytes(colim_gproj_data(x)) == cold
    assert built == []
    assert [o for o, _, _ in cold[1]] == x.shape.objects_by_degree()[::-1]  # newest object first
