import pytest

from derlab.cats import (
    CategoryError,
    CatFunctor,
    DirectCategory,
    analyze_components,
    arrow_category,
    category_from_dict,
    cospan_category,
    disjoint_union,
    functor_from_dict,
    identity_functor,
    is_cosieve,
    is_sieve,
    object_functor,
    opposite_category,
    product_category,
    punctured_slice,
    slice_category,
    span_category,
    square_category,
    terminal_category,
)


def test_arrow_grading():
    c = arrow_category()
    assert c.degree == {"0": 0, "1": 1}


def test_endomorphism_rejected():
    with pytest.raises(CategoryError, match="endomorphism"):
        DirectCategory(["a"], {"f": ("a", "a")}, {("f", "f"): "f"})


def test_square_grading_and_count():
    sq = square_category()
    degs = sorted(sq.degree.values())
    assert degs == [0, 1, 1, 2]
    assert len(sq.morphisms) == 9  # 4 identities, 4 edges, 1 diagonal


def test_product_with_point():
    c = arrow_category()
    e = terminal_category()
    prod = product_category(c, e)
    assert len(prod.objects) == 2
    assert len(prod.morphisms) == 3


def test_opposite_involution():
    sq = square_category()
    assert opposite_category(opposite_category(sq)) is sq
    op = opposite_category(sq)
    assert sorted(op.degree.values()) == [0, 1, 1, 2]


def test_punctured_slice_of_arrow():
    c = arrow_category()
    under = punctured_slice(c, "1", "under")  # boundary of (I/1)
    assert len(under.cat.objects) == 1
    assert under.cat.nonidentity_morphisms() == []
    empty = punctured_slice(c, "0", "under")  # boundary of (I/0)
    assert empty.cat.objects == []


def test_punctured_slice_of_square():
    sq = square_category()
    corner = [o for o in sq.objects if sq.degree[o] == 2][0]
    pres = punctured_slice(sq, corner, "under")
    assert len(pres.cat.objects) == 3  # the cospan-complement shape
    assert len(pres.cat.nonidentity_morphisms()) == 2


def test_slice_object_count_formula():
    # |Ob(u/j)| = sum_i |J(u(i), j)|
    sq = square_category()
    u = identity_functor(sq)
    for j in sq.objects:
        pres = slice_category(u, j, "under")
        expected = sum(len(sq.hom(i, j)) for i in sq.objects)
        assert len(pres.cat.objects) == expected


def test_components_terminal():
    c = arrow_category()
    u = object_functor(c, "0")
    pres = slice_category(u, "1", "under")
    reports = analyze_components(pres.cat)
    assert len(reports) == 1
    assert reports[0].terminal is not None


def test_components_initial():
    c = arrow_category()
    u = object_functor(c, "1")
    pres = slice_category(u, "1", "over")
    reports = analyze_components(pres.cat)
    assert len(reports) == 1 and reports[0].initial is not None


def test_empty_slice():
    c = arrow_category()
    u = object_functor(c, "1")
    pres = slice_category(u, "0", "under")  # no maps 1 -> 0
    assert analyze_components(pres.cat) == []


def test_sieves():
    c = arrow_category()
    incl0 = object_functor(c, "0")
    incl1 = object_functor(c, "1")
    assert is_sieve(incl0) and not is_cosieve(incl0)
    assert is_cosieve(incl1) and not is_sieve(incl1)
    sq = square_category()
    least = [o for o in sq.objects if sq.degree[o] == 0][0]
    assert is_sieve(object_functor(sq, least))


def test_degree_strictly_increases():
    for c in (arrow_category(), cospan_category(), span_category(), square_category()):
        for f in c.nonidentity_morphisms():
            assert c.degree[c.src(f)] < c.degree[c.tgt(f)]


def test_sieve_cosieve_opposites():
    c = arrow_category()
    incl0 = object_functor(c, "0")
    from derlab.cats import opposite_functor

    assert is_sieve(incl0) == is_cosieve(opposite_functor(incl0))



def test_slices_and_opposites_are_built_once_per_functor():
    from derlab.cats import opposite_functor

    sq = square_category()
    u = CatFunctor(cospan_category(), sq, {"x": "(0,1)", "y": "(1,0)", "z": "(1,1)"}, {"f": "(e0,1_1)", "g": "(1_1,e0)"})
    for j in sq.objects:
        for side in ("under", "over"):
            assert slice_category(u, j, side) is slice_category(u, j, side)
    assert slice_category(u, "(0,0)", "under") is not slice_category(u, "(0,0)", "over")
    op = opposite_functor(u)
    assert opposite_functor(u) is op and opposite_functor(op) is u
    assert op.dom is opposite_category(u.dom) and op.cod is opposite_category(sq)
    assert op.obj_map == u.obj_map and op.mor_map == u.mor_map
    # a fresh functor with the same data builds its own, equal slices
    v = CatFunctor(u.dom, u.cod, u.obj_map, u.mor_map)
    for side in ("under", "over"):
        a, b = slice_category(u, "(0,0)", side), slice_category(v, "(0,0)", side)
        assert a is not b
        assert a.cat.objects == b.cat.objects and a.cat.morphisms == b.cat.morphisms and a.pairs == b.pairs


def test_bad_slice_arguments_raise_on_every_call():
    u = identity_functor(arrow_category())
    for _ in range(3):
        with pytest.raises(CategoryError, match="unknown object"):
            slice_category(u, "2", "under")
        with pytest.raises(CategoryError, match="side must be"):
            slice_category(u, "1", "sideways")
    assert slice_category(u, "1", "under").index_object == "1"
    with pytest.raises(CategoryError, match="side must be"):
        slice_category(u, "1", "sideways")


def test_disjoint_union():
    u, i1, i2 = disjoint_union(arrow_category(), terminal_category())
    assert len(u.objects) == 3
    assert len(analyze_components(u)) == 2


def test_category_from_dict_comp_key():
    sq = square_category()
    data = {
        "objects": ["a", "b", "c"],
        "morphisms": [
            {"name": "f", "src": "a", "tgt": "b"},
            {"name": "g", "src": "b", "tgt": "c"},
            {"name": "h", "src": "a", "tgt": "c"},
        ],
        "comp": {"g∘f": "h"},
    }
    c = category_from_dict(data)
    assert c.compose("g", "f") == "h"
    assert c.degree == {"a": 0, "b": 1, "c": 2}


def test_category_objects_must_be_a_list():
    # a string would be read character by character: "01" as the arrow
    arrow = {"objects": ["0", "1"], "morphisms": [{"name": "e0", "src": "0", "tgt": "1"}]}
    assert category_from_dict(arrow).objects == ["0", "1"]
    for objects in ("01", {"0": 0, "1": 1}):
        with pytest.raises(CategoryError, match="objects must be a list"):
            category_from_dict({**arrow, "objects": objects})


def test_functor_objects_and_morphisms_must_be_mappings():
    # dict() would read a list of two-character names as pairs: the list
    # ["0*", "1*"] as the arrow's functor to the point
    arrow, point = arrow_category(), terminal_category()
    doc = {"objects": {"0": "*", "1": "*"}, "morphisms": {"e0": "1_*"}}
    assert functor_from_dict(doc, arrow, point).obj_map == {"0": "*", "1": "*"}
    for key, value in (("objects", ["0*", "1*"]), ("morphisms", ["e0"]), ("morphisms", [["e0", "1_*"]])):
        with pytest.raises(CategoryError, match="objects and morphisms must map names to names"):
            functor_from_dict({**doc, key: value}, arrow, point)
