import json
from pathlib import Path

import numpy as np
import pytest

from derlab.algebra import (
    Algebra,
    AlgebraError,
    algebra_from_dict,
    dual_numbers,
    ground_field,
    group_algebra_c2,
    is_self_injective,
    require_self_injective,
    upper_triangular_2x2,
    validate_algebra,
)


def test_dual_numbers_valid():
    alg = dual_numbers(2)
    assert alg.dim == 2
    # full check of all 8 triples happens inside validate_algebra
    assert validate_algebra(alg) is alg


def test_non_associative_rejected():
    # x*x = 1 on the dual-numbers table is the group algebra: still associative
    mul = np.zeros((2, 2, 2), dtype=np.int64)
    mul[0, 0, 0] = 1
    mul[0, 1, 1] = 1
    mul[1, 0, 1] = 1
    mul[1, 1, 0] = 1
    validate_algebra(Algebra(2, ["1", "x"], [1, 0], mul))
    # a genuinely broken table: a*a = b, a*b = 1, b*a = 0 gives
    # (a*a)*a = 0 but a*(a*a) = 1, and the error names the witness triple
    bad = np.zeros((3, 3, 3), dtype=np.int64)
    bad[0, 0, 0] = 1
    for k in (1, 2):
        bad[0, k, k] = 1
        bad[k, 0, k] = 1
    bad[1, 1, 2] = 1  # a*a = b
    bad[1, 2, 0] = 1  # a*b = 1
    with pytest.raises(AlgebraError, match=r"non-associative.*a.*a.*a"):
        validate_algebra(Algebra(2, ["1", "a", "b"], [1, 0, 0], bad))


def test_unit_failure_witness():
    mul = np.zeros((2, 2, 2), dtype=np.int64)
    mul[0, 0, 0] = 1
    mul[0, 1, 1] = 1
    mul[1, 0, 1] = 1
    with pytest.raises(AlgebraError, match="unit"):
        validate_algebra(Algebra(2, ["1", "x"], [0, 1], mul))


def test_nonprime_rejected():
    mul = np.zeros((1, 1, 1), dtype=np.int64)
    mul[0, 0, 0] = 1
    with pytest.raises(AlgebraError, match="prime"):
        validate_algebra(Algebra(4, ["1"], [1], mul))


def test_modulus_bound():
    from derlab.field import FieldError

    dual_numbers(1048573)  # the largest prime below MODULUS_BOUND = 2**20
    mul = np.zeros((1, 1, 1), dtype=np.int64)
    mul[0, 0, 0] = 1
    for p in (1048583, 2**31 - 1):  # the next prime up, and a Mersenne prime
        with pytest.raises(AlgebraError, match="MODULUS_BOUND"):
            validate_algebra(Algebra(p, ["1"], [1], mul))
        with pytest.raises(FieldError, match="MODULUS_BOUND"):
            dual_numbers(p)  # its declared radical is a matrix over F_p


def test_bad_radical_rejected():
    mul = np.zeros((2, 2, 2), dtype=np.int64)
    mul[0, 0, 0] = 1
    mul[0, 1, 1] = 1
    mul[1, 0, 1] = 1
    mul[1, 1, 0] = 1  # group algebra F2[C2]
    with pytest.raises(AlgebraError, match="nilpotent"):
        # the whole algebra is a two-sided ideal but certainly not nilpotent
        validate_algebra(Algebra(2, ["1", "g"], [1, 0], mul, radical=[[1, 0], [0, 1]]))
    with pytest.raises(AlgebraError, match="ideal"):
        validate_algebra(Algebra(2, ["1", "g"], [1, 0], mul, radical=[[1, 0]]))


def test_opposite_involution():
    alg = upper_triangular_2x2(2)
    op = alg.opposite()
    assert op.opposite() is alg
    assert not np.array_equal(op.mul, alg.mul)  # genuinely noncommutative
    com = dual_numbers(2)
    assert np.array_equal(com.opposite().mul, com.mul)  # commutative: same table


def test_self_injectivity_examples():
    assert is_self_injective(dual_numbers(2))
    assert is_self_injective(group_algebra_c2(2))
    assert not is_self_injective(upper_triangular_2x2(2))


def test_self_injectivity_matches_opposite():
    for alg in (dual_numbers(2), group_algebra_c2(2), upper_triangular_2x2(2), dual_numbers(3)):
        assert is_self_injective(alg) == is_self_injective(alg.opposite())


def test_gate():
    with pytest.raises(AlgebraError, match="self-injective"):
        require_self_injective(upper_triangular_2x2(2))


def test_frobenius_entry_points_refuse_a_non_self_injective_algebra():
    """Each library entry point that presupposes a Frobenius category, called
    on the stalk at 0 of the simple S_1 over the triangular algebra (not
    projective, so Gorenstein projective only by a silent wrong answer)."""
    from derlab import complexes, dgkan, gorenstein, homotopy, modules
    from derlab.cats import CatFunctor, arrow_category, terminal_category
    from derlab.diagrams import stalk_diagram, zero_diagram
    from derlab.field import Mat

    alg = upper_triangular_2x2(2)
    s1 = modules.Module(alg, [Mat.identity(2, 1), Mat.zeros(2, 1, 1), Mat.zeros(2, 1, 1)]).validate()
    assert not modules.is_projective(s1)
    arrow = arrow_category()
    x = stalk_diagram(arrow, alg, "0", s1)
    to_point = CatFunctor(arrow, terminal_category(), {"0": "*", "1": "*"}, {"e0": "1_*"})
    zero = complexes.LazyComplex(arrow, alg, lambda k: zero_diagram(arrow, alg), lambda k: {o: Mat.zeros(2, 0, 0) for o in arrow.objects})
    calls = {
        "is_gproj": lambda: gorenstein.is_gproj(x),
        "is_ginj": lambda: gorenstein.is_ginj(x),
        "approx_gproj": lambda: gorenstein.approx_gproj(x),
        "hull_ginj": lambda: gorenstein.hull_ginj(x),
        "complete_resolution": lambda: complexes.complete_resolution(x),
        "gproj_left_kan": lambda: gorenstein.gproj_left_kan(to_point, x),
        "ginj_right_kan": lambda: gorenstein.ginj_right_kan(to_point, x),
        "crosscheck_kan": lambda: dgkan.crosscheck_kan(to_point, x, margin=1),
        "sod_decompose": lambda: complexes.sod_decompose(zero, -1, 1),
        "stable_hom": lambda: modules.stable_hom(s1, s1),
        "is_stable_iso": lambda: modules.is_stable_iso(s1, s1),
        "is_stable_iso_map": lambda: modules.is_stable_iso_map(modules.identity_map(s1)),
        "stable_hom_diagrams": lambda: homotopy.stable_hom_diagrams(x, x),
        "is_stable_iso_diagrams": lambda: homotopy.is_stable_iso_diagrams(x, x),
    }
    for name, call in calls.items():
        with pytest.raises(AlgebraError, match="self-injective"):
            call()
            pytest.fail(f"{name} answered over a non-self-injective algebra")


DUAL_NUMBERS_DOC = Path(__file__).resolve().parent.parent / "scenarios" / "dual_numbers.json"


def test_roundtrip_dict():
    alg, loaded = dual_numbers(2), algebra_from_dict(json.loads(DUAL_NUMBERS_DOC.read_text()))
    assert (loaded.p, loaded.basis_labels) == (alg.p, alg.basis_labels)
    assert np.array_equal(loaded.unit, alg.unit) and np.array_equal(loaded.mul, alg.mul)
    assert loaded.radical == alg.radical


@pytest.mark.parametrize(
    "change, message",
    [
        ({"basis": "1x"}, "basis must be a list"),
        ({"dim": 7}, "dim 7 is not the number of basis labels, 2"),
        ({"dim": True}, "dim True is not the number of basis labels"),
    ],
    ids=["basis-string", "dim-too-large", "dim-bool"],
)
def test_a_malformed_basis_or_dim_is_refused(change, message):
    doc = json.loads(DUAL_NUMBERS_DOC.read_text())
    assert algebra_from_dict(doc).dim == doc["dim"] == 2
    doc.update(change)
    with pytest.raises(AlgebraError, match=message):
        algebra_from_dict(doc)


@pytest.mark.parametrize("p", [2, 3])
def test_ground_field_is_local_self_injective_and_stably_zero(p):
    # a zero radical once made radical_layer hstack nothing
    from derlab.modules import free_module, is_injective, is_projective, regular_module, stable_hom, zero_module

    k = ground_field(p)
    assert k is ground_field(p)
    assert k.is_local() and is_self_injective(k)
    mods = [zero_module(k), regular_module(k), free_module(k, 3)]
    for m in mods:
        assert is_projective(m) and is_injective(m)
        for n in mods:
            assert stable_hom(m, n).quotient_dim == 0
